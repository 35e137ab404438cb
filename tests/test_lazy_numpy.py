"""Lazy loading: a process executes only the modules its command runs.

``import minctrl`` registers numpy and each minctrl submodule without
executing it (see ``minctrl.__init__``); a module runs on its first
attribute use. ``reduce`` and every ``oracle`` kind are integer and
``Fraction`` work, so a process running only those never executes numpy,
which is most of a cold process's start-up time, and each command executes
only the minctrl modules it calls into. Each test starts a fresh
interpreter: the test process has every module executed already.

The tracer in ``perfbench/tracing.py`` wraps the modules it finds in
``sys.modules``, and the public names resolve through the package, so both
are checked here too.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import minctrl
from helpers import GOLDEN_INSTANCE_SETS, golden_A, golden_instance, golden_V
from minctrl.matrices import RationalMatrix, save_matrix

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Runs each argv through ``cli.main`` in turn and reports, after the import
# and after each call, the numpy submodules loaded, the minctrl modules
# executed (a registered module not yet run is still of its lazy type) and
# whether ``csv``, which only a CSV matrix input needs, was imported.
SCRIPT = """
import json, sys, types
import minctrl, minctrl.cli

def loaded():
    return {
        "numpy": sorted(k for k in sys.modules if k.startswith("numpy.")),
        "minctrl": sorted(
            k.removeprefix("minctrl.") for k, m in sys.modules.items()
            if k.startswith("minctrl.") and type(m) is types.ModuleType
        ),
        "csv": "csv" in sys.modules,
    }

report = {"import": loaded(), "calls": []}
for argv in json.loads(sys.argv[1]):
    report["calls"].append((minctrl.cli.main(argv), loaded()))
report["kernel"] = minctrl._kernels.ACTIVE_KERNEL
print(json.dumps(report))
"""


def _python(code: str, *args: str, cwd: Path) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return proc.stdout


def _run(argvs: list[list[str]], cwd: Path) -> dict:
    return json.loads(_python(SCRIPT, json.dumps(argvs), cwd=cwd))


def test_reduce_and_oracle_never_load_numpy(tmp_path):
    (tmp_path / "inst.json").write_text(json.dumps({"m": 3, "sets": GOLDEN_INSTANCE_SETS}))
    numpy_free = [
        ["reduce", "inst.json", "--out-dir", "plain", "--out", "r1.json"],
        ["reduce", "inst.json", "--symmetric", "--out-dir", "sym", "--out", "r2.json"],
        ["oracle", "inst.json", "--kind", "hitting-set", "--out", "o1.json"],
        ["oracle", "plain/V.json", "--kind", "min-vector", "--out", "o2.json"],
        ["oracle", "plain/V.json", "--kind", "min-diagonal", "--out", "o3.json"],
    ]
    solve = ["solve", "plain/A.json", "--out", "s.json"]
    report = _run([*numpy_free, solve], tmp_path)
    assert report["import"] == {"numpy": [], "minctrl": ["cli", "errors"], "csv": False}
    assert report["kernel"] == "pure"
    assert [(rc, seen["numpy"], seen["csv"]) for rc, seen in report["calls"][:-1]] == [
        (0, [], False)
    ] * len(numpy_free)
    # the first numeric use runs numpy, and the solve goes on as usual
    rc, loaded = report["calls"][-1]
    assert rc == 0 and "numpy.linalg" in loaded["numpy"]
    assert json.loads((tmp_path / "s.json").read_text())["controllable"] is True
    assert json.loads((tmp_path / "o1.json").read_text())["optimum"] == 2
    assert json.loads((tmp_path / "o2.json").read_text())["optimum"] == 3
    assert json.loads((tmp_path / "o3.json").read_text())["optimum"] == 3


_IMPORTED = {"cli", "errors"}
_KERNEL = {"_kernels", "_kernels.pure"}


@pytest.mark.parametrize(
    "argv, executed",
    [
        (["reduce", "inst.json", "--out-dir", "out"], {"matrices", "reductions"}),
        (
            ["oracle", "inst.json", "--kind", "hitting-set"],
            {"matrices", "oracles", "reductions"},
        ),
        (["oracle", "V.json", "--kind", "min-vector"], {"matrices", "oracles"}),
        (["oracle", "V.json", "--kind", "min-diagonal"], {"matrices", "oracles"}),
        (["solve", "A.json"], {"matrices", "greedy", "linalg", *_KERNEL}),
        (["verify", "A.json", "b.json"], {"matrices", "greedy", "linalg", *_KERNEL}),
        (
            ["experiment", "--n-values", "5", "--trials", "1"],
            {"matrices", "greedy", "linalg", "experiments", *_KERNEL},
        ),
    ],
    ids=[
        "reduce",
        "oracle-hitting-set",
        "oracle-min-vector",
        "oracle-min-diagonal",
        "solve",
        "verify",
        "experiment",
    ],
)
def test_each_command_executes_only_its_modules(tmp_path, argv, executed):
    (tmp_path / "inst.json").write_text(json.dumps(golden_instance().to_json_dict()))
    save_matrix(golden_A(), tmp_path / "A.json")
    save_matrix(golden_V(), tmp_path / "V.json")
    save_matrix(RationalMatrix.from_rows([[1]] * golden_A().rows), tmp_path / "b.json")
    report = _run([[*argv, "--out", "out.json"]], tmp_path)
    assert report["import"]["minctrl"] == sorted(_IMPORTED)
    [(rc, loaded)] = report["calls"]
    assert rc == 0
    assert set(loaded["minctrl"]) == _IMPORTED | executed


def test_tracer_finds_every_traced_name_after_import(tmp_path):
    # the tracer is imported from perfbench/ without writing bytecode there
    script = """
import json, sys
import minctrl, minctrl.cli
sys.path.insert(0, sys.argv[1])
from tracing import Tracer

tracer = Tracer()
tracer.install()
tracer.enabled = True
codes = [minctrl.cli.main(argv) for argv in json.loads(sys.argv[2])]
tracer.enabled = False
spans = {}
for span in tracer.spans:
    spans[span[0]] = spans.get(span[0], 0) + 1
print(json.dumps({"missing": sorted(tracer.missing), "codes": codes, "spans": spans}))
"""
    (tmp_path / "inst.json").write_text(json.dumps(golden_instance().to_json_dict()))
    argvs = [
        ["reduce", "inst.json", "--out-dir", "out", "--out", "r.json"],
        ["solve", "out/A.json", "--mode", "diagonal", "--out", "s.json"],
    ]
    report = json.loads(
        _python(script, str(ROOT / "perfbench"), json.dumps(argvs), cwd=tmp_path)
    )
    assert report["missing"] == []
    assert report["codes"] == [0, 0]
    # the span counts of the same two calls with every module executed at import
    assert report["spans"] == {
        "cli": 2,
        "greedy.diag": 1,
        "matrices.load_matrix": 1,
        "matrices.save_matrix": 2,
        "reductions.build_reduction": 1,
    }


# the public names at the package root, by the module that defines them
PUBLIC = {
    "errors": "BackendPreconditionError EnumerationGuardError InternalVerificationError"
    " InvalidInputError MinctrlError NumericBackendError",
    "experiments": "ExperimentConfig ExperimentReport TrialRecord eigen_gap_filter"
    " run_experiment sample_er_digraph",
    "greedy": "SolveResult TraceStep controllability_rank deterministic_greedy_vector"
    " greedy_diagonal randomized_greedy_vector",
    "linalg": "EigenSystem left_eigensystem pbh_controllability_rank rank_exact",
    "matrices": "DenseMatrix RationalMatrix load_matrix save_matrix",
    "oracles": "OracleResult brute_force_hitting_set brute_force_min_diagonal_support"
    " brute_force_min_vector_support",
    "reductions": "HittingSetInstance ReductionOutput SymmetricExtensionOutput"
    " build_reduction build_symmetric_extension load_instance orthogonal_extension",
}


def test_star_import_binds_the_public_names(tmp_path):
    script = """
import json
names = {}
exec("from minctrl import *", names)
print(json.dumps(sorted(set(names) - {"__builtins__"})))
"""
    bound = json.loads(_python(script, cwd=tmp_path))
    expected = {*PUBLIC, *(name for names in PUBLIC.values() for name in names.split())}
    assert len(bound) == 44
    assert set(bound) == expected
    # retired: the Kalman test is ``controllability_rank(A, B) == n``, and the
    # controllability matrix is built only by the tests' reference in helpers
    for retired in ("kalman_test", "controllability_matrix"):
        with pytest.raises(AttributeError, match=f"no attribute '{retired}'"):
            getattr(minctrl, retired)


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_public_names_are_their_defining_modules_objects(module):
    home = sys.modules[f"minctrl.{module}"]
    assert getattr(minctrl, module) is home
    for name in PUBLIC[module].split():
        assert getattr(minctrl, name) is getattr(home, name), name
        assert getattr(minctrl, name).__module__ == home.__name__, name
        assert name in dir(minctrl)
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        minctrl.not_a_name


def test_readme_quickstart_runs_as_written(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    lines = _python(code, cwd=tmp_path).splitlines()
    support, controllable = lines[0].rsplit(" ", 1)
    assert len(ast.literal_eval(support)) == 3
    assert (controllable, lines[1]) == ("True", "3")
