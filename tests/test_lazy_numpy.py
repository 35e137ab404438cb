"""numpy runs on first numeric use: commands that need none never load it.

``minctrl.matrices.np`` is the package's one binding of numpy, and it runs
numpy on its first attribute use. ``reduce`` and every ``oracle`` kind are
integer and ``Fraction`` work, so a process running only those never
executes numpy, which is most of a cold process's start-up time. Each test
starts a fresh interpreter: the test process has numpy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from helpers import GOLDEN_INSTANCE_SETS

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs each argv through ``cli.main`` in turn and reports, after the import
# and after each call, the numpy submodules that have been loaded.
SCRIPT = """
import json, sys
import minctrl, minctrl.cli, minctrl._kernels

def numpy_modules():
    return sorted(k for k in sys.modules if k.startswith("numpy."))

report = {"import": numpy_modules(), "kernel": minctrl._kernels.ACTIVE_KERNEL, "calls": []}
for argv in json.loads(sys.argv[1]):
    report["calls"].append((minctrl.cli.main(argv), numpy_modules()))
print(json.dumps(report))
"""


def _run(argvs: list[list[str]], cwd: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(argvs)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


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
    assert report["import"] == []
    assert report["kernel"] == "pure"
    assert report["calls"][:-1] == [[0, []]] * len(numpy_free)
    # the first numeric use runs numpy, and the solve goes on as usual
    rc, loaded = report["calls"][-1]
    assert rc == 0 and "numpy.linalg" in loaded
    assert json.loads((tmp_path / "s.json").read_text())["controllable"] is True
    assert json.loads((tmp_path / "o1.json").read_text())["optimum"] == 2
    assert json.loads((tmp_path / "o2.json").read_text())["optimum"] == 3
    assert json.loads((tmp_path / "o3.json").read_text())["optimum"] == 3
