"""CLI exit codes, file round trips, and payload shapes."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import minctrl.cli
from helpers import GOLDEN_A_ROWS, GOLDEN_INSTANCE_SETS
from minctrl.cli import main
from minctrl.matrices import RationalMatrix, load_matrix


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "inst.json").write_text(
        json.dumps({"m": 3, "sets": [[1, 2], [2, 3], [1, 3], [1, 2, 3]]})
    )
    (tmp_path / "diag123.json").write_text(
        json.dumps({"rows": 3, "cols": 3, "data": [1, 0, 0, 0, 2, 0, 0, 0, 3]})
    )
    (tmp_path / "eye2.json").write_text(
        json.dumps({"rows": 2, "cols": 2, "data": [1, 0, 0, 1]})
    )
    return tmp_path


def run(*args):
    return main([str(a) for a in args])


def test_solve_diag_exact(workdir, capsys):
    code = run("solve", workdir / "diag123.json", "--mode", "vector",
               "--algo", "det", "--backend", "exact")
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["support"] == [0, 1, 2]
    assert payload["schema_version"] == 1


def test_solve_identity_infeasible(workdir, capsys):
    assert run("solve", workdir / "eye2.json") == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["controllable"] is False


def test_solve_diagonal_mode(workdir, capsys):
    assert run("solve", workdir / "eye2.json", "--mode", "diagonal") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["support"] == [0, 1]


def test_reduce_golden_and_round_trip(workdir, capsys):
    out_dir = workdir / "red"
    assert run("reduce", workdir / "inst.json", "--out-dir", out_dir) == 0
    capsys.readouterr()
    A = load_matrix(out_dir / "A.json")
    assert A == RationalMatrix.from_rows(GOLDEN_A_ROWS)
    index_map = json.loads((out_dir / "index_map.json").read_text())
    assert index_map["anchor"] == 7
    assert index_map["eigenvalues"] == list(range(1, 9))

    # files written by reduce feed straight back into solve and verify
    assert run("solve", out_dir / "A.json", "--backend", "exact") == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["support"]) == 3

    b = workdir / "b.csv"
    b.write_text("1,1,0,0,0,0,0,1\n")
    assert run("verify", out_dir / "A.json", b) == 0

    e1 = workdir / "e1.csv"
    e1.write_text("1,0,0,0,0,0,0,0\n")
    assert run("verify", out_dir / "A.json", e1) == 1


@pytest.mark.parametrize("backend", ["exact", "pbh"])
def test_verify_ones_and_anchor_on_the_golden_reduction(workdir, capsys, backend):
    # b = ones(8) reaches all 8 eigenvector rows; the anchor e_7 reaches
    # rows 0, 1, 2 and 7 only; pbh also reports the count
    out_dir = workdir / "red"
    assert run("reduce", workdir / "inst.json", "--out-dir", out_dir) == 0
    capsys.readouterr()
    for name, data, code, rank in [
        ("ones", [1] * 8, 0, 8),
        ("anchor", [0] * 7 + [1], 1, 4),
    ]:
        b = workdir / f"{name}.json"
        b.write_text(json.dumps({"rows": 8, "cols": 1, "data": data}))
        assert run("verify", out_dir / "A.json", b, "--backend", backend) == code
        payload = json.loads(capsys.readouterr().out)
        assert payload["controllable"] is (code == 0)
        assert ("rank" in payload) == (backend == "pbh")
        assert payload.get("rank", rank) == rank


@pytest.mark.parametrize(
    "data, support",
    [
        # J_3(1) has no eigenbasis: the exact solve ranks Krylov columns
        ([1, 1, 0, 0, 1, 1, 0, 0, 1], [2]),
        # J_2(1) + J_2(2): the exact det solve runs the Krylov probe stops
        ([1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 2, 1, 0, 0, 0, 2], [1, 3]),
    ],
    ids=["J3(1)", "J2(1)+J2(2)"],
)
def test_solve_jordan_blocks_exact(workdir, capsys, data, support):
    n = math.isqrt(len(data))
    matrix = workdir / "jordan.json"
    matrix.write_text(json.dumps({"rows": n, "cols": n, "data": data}))
    assert run("solve", matrix, "--backend", "exact", "--algo", "det") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["controllable"] is True
    assert payload["support"] == support


def test_reduce_symmetric_outputs(workdir, capsys):
    out_dir = workdir / "sym"
    assert run("reduce", workdir / "inst.json", "--symmetric",
               "--out-dir", out_dir) == 0
    capsys.readouterr()
    A_hat = load_matrix(out_dir / "A_hat.json")
    assert isinstance(A_hat, RationalMatrix)
    assert A_hat.is_symmetric()
    index_map = json.loads((out_dir / "index_map.json").read_text())
    assert "symmetric" in index_map


INDEX_MAP_SHA256 = {
    # the golden instance: m = 3, four sets, so 8 base coordinates and r = 37
    (): "fefe4c9eac4578a4e9a3da9c1cb316ed90442629c5614e9df81d59bd5deb324b",
    ("--symmetric",): "f34b4dae9dd062ebd6a06341f13760078903546e320836e1a9e2074f684dc5c7",
}


@pytest.mark.parametrize("flags", list(INDEX_MAP_SHA256), ids=["plain", "symmetric"])
def test_reduce_index_map_bytes(workdir, capsys, flags):
    out_dir = workdir / "map"
    assert run("reduce", workdir / "inst.json", *flags, "--out-dir", out_dir) == 0
    capsys.readouterr()
    raw = (out_dir / "index_map.json").read_bytes()
    assert hashlib.sha256(raw).hexdigest() == INDEX_MAP_SHA256[flags]
    index_map = json.loads(raw)
    assert (index_map["elements"], index_map["sets"]) == ([0, 1, 2], [3, 4, 5, 6])
    if flags:
        pairs = index_map["symmetric"]["pair_columns"]
        assert len(pairs) == 28  # pairs of the 8 base rows
        assert pairs[0] == {"pair": [1, 2], "column": 8}
        assert pairs[-1] == {"pair": [7, 8], "column": 35}
        assert index_map["symmetric"]["final_column"] == 36


# Every command, run on the golden reduction; each writes NAME.json with --out.
# Paths are relative to the run's directory, so two runs see the same argv.
REPEATED_COMMANDS = {
    **{
        f"solve-{label}-{backend}": ["solve", "../red/A.json", *flags, "--backend", backend]
        for label, flags in [
            ("det", ["--algo", "det"]),
            ("rand", ["--algo", "rand", "--seed", "5"]),
            ("diagonal", ["--mode", "diagonal"]),
        ]
        for backend in ("exact", "pbh")
    },
    "oracle-min-vector": ["oracle", "../red/V.json", "--kind", "min-vector"],
    "verify": ["verify", "../red/A.json", "../ones.json"],
    "reduce-symmetric": ["reduce", "../inst.json", "--symmetric", "--out-dir", "sym"],
}
REPEATED_FILES = [f"{name}.json" for name in REPEATED_COMMANDS] + [
    f"sym/{name}.json" for name in ("V", "A", "V_hat", "A_hat", "index_map")
]
RUN_COMMANDS = """
import json, sys
import minctrl.cli
print(json.dumps([minctrl.cli.main(argv) for argv in json.loads(sys.argv[1])]))
"""


@pytest.fixture(scope="module")
def repeated_runs(tmp_path_factory):
    """The output files of two processes that run every command once, as
    {file: bytes}, under different string hash seeds."""
    root = tmp_path_factory.mktemp("repeat")
    (root / "inst.json").write_text(json.dumps({"m": 3, "sets": GOLDEN_INSTANCE_SETS}))
    (root / "ones.json").write_text(json.dumps({"rows": 8, "cols": 1, "data": [1] * 8}))
    assert main(["reduce", str(root / "inst.json"), "--out-dir", str(root / "red")]) == 0
    argvs = [[*argv, "--out", f"{name}.json"] for name, argv in REPEATED_COMMANDS.items()]
    src = Path(minctrl.cli.__file__).resolve().parents[1]
    runs = []
    for hash_seed in ("0", "1"):
        cwd = root / f"run{hash_seed}"
        cwd.mkdir()
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed,
               "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", RUN_COMMANDS, json.dumps(argvs)],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert json.loads(proc.stdout) == [0] * len(argvs)
        runs.append({name: (cwd / name).read_bytes() for name in REPEATED_FILES})
    return runs


@pytest.mark.parametrize("name", REPEATED_FILES)
def test_every_command_writes_identical_bytes_twice(repeated_runs, name):
    first, second = repeated_runs
    assert first[name] == second[name]
    assert first[name].endswith(b"\n")


def test_reduce_rejects_invalid_instance(workdir, capsys):
    bad = workdir / "bad_inst.json"
    bad.write_text(json.dumps({"m": 2, "sets": [[1], []]}))
    assert run("reduce", bad) == 2


@pytest.mark.parametrize(
    "obj",
    [
        {"m": 2, "sets": [["1", 2]]},
        {"m": 2, "sets": [[1.0, 2]]},
        {"m": 2, "sets": [[1.5, 2], [1, 2]]},
        {"m": 2, "sets": [[1, None]]},
        {"m": 2, "sets": [[True, 2]]},
        {"m": 3.7, "sets": [[1, 2, 3]]},
        {"m": True, "sets": [[1]]},
        {"m": "2", "sets": [[1, 2]]},
        {"m": 2, "sets": [[1], 2]},
    ],
)
@pytest.mark.parametrize("symmetric", [False, True])
def test_reduce_malformed_instance_is_invalid_input(workdir, capsys, obj, symmetric):
    bad = workdir / "malformed.json"
    bad.write_text(json.dumps(obj))
    flags = ["--symmetric"] if symmetric else []
    assert run("reduce", bad, *flags, "--out-dir", workdir / "never") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "internal" not in err
    assert not (workdir / "never").exists()


def test_reduce_single_set_instance(workdir, capsys):
    tiny = workdir / "tiny.json"
    tiny.write_text(json.dumps({"m": 1, "sets": [[1]]}))
    out_dir = workdir / "tiny_red"
    assert run("reduce", tiny, "--out-dir", out_dir) == 0
    V = load_matrix(out_dir / "V.json")
    assert V == RationalMatrix.from_rows([[2, 0, 1], [1, 2, 0], [0, 0, 1]])
    A = load_matrix(out_dir / "A.json")
    assert (A.rows, A.cols) == (3, 3)


ORACLE_STDOUT = {
    "hitting-set": """{
  "enumerated": 5,
  "kind": "hitting-set",
  "optimum": 2,
  "schema_version": 1,
  "witness": [
    1,
    2
  ]
}
""",
    "min-vector": """{
  "enumerated": 43,
  "kind": "min-vector",
  "optimum": 3,
  "schema_version": 1,
  "witness": [
    0,
    1,
    7
  ]
}
""",
}
ORACLE_STDOUT["min-diagonal"] = ORACLE_STDOUT["min-vector"].replace(
    "min-vector", "min-diagonal"
)


def test_oracle_commands(workdir, capsys):
    assert run("oracle", workdir / "inst.json", "--kind", "hitting-set") == 0
    assert capsys.readouterr().out == ORACLE_STDOUT["hitting-set"]

    out_dir = workdir / "red2"
    run("reduce", workdir / "inst.json", "--out-dir", out_dir)
    capsys.readouterr()
    for kind in ("min-vector", "min-diagonal"):
        assert run("oracle", out_dir / "V.json", "--kind", kind) == 0
        assert capsys.readouterr().out == ORACLE_STDOUT[kind]


@pytest.mark.parametrize("kind", ["min-vector", "min-diagonal"])
def test_oracle_zero_eigenvector_row_is_invalid_input(workdir, capsys, kind):
    V = workdir / "zero_row.json"
    V.write_text(json.dumps({"rows": 3, "cols": 3, "data": [1, 2, 0, 0, 0, 0, 1, 1, 1]}))
    assert run("oracle", V, "--kind", kind) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a zero eigenvector row makes every support fail\n"


def test_oracle_guard_exit_code(workdir, capsys):
    big = workdir / "big.json"
    n = 15
    big.write_text(json.dumps({
        "rows": n, "cols": n,
        "data": [int(i == j) for i in range(n) for j in range(n)],
    }))
    assert run("oracle", big, "--kind", "min-vector") == 2
    capsys.readouterr()
    assert run("oracle", big, "--kind", "min-vector", "--allow-large") == 0


def test_malformed_matrix_exit_code(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_text("{oops")
    assert run("solve", bad) == 2


@pytest.mark.parametrize(
    "header",
    [
        {"rows": 2.7, "cols": "2"},
        {"rows": "2", "cols": 2},
        {"rows": True, "cols": 4},
        {"rows": None, "cols": 2},
    ],
    ids=lambda header: json.dumps(header),
)
def test_solve_non_integer_matrix_header_is_invalid_input(workdir, capsys, header):
    bad = workdir / "header.json"
    bad.write_text(json.dumps({**header, "data": [1, 0, 0, 2]}))
    assert run("solve", bad) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "internal" not in err


@pytest.mark.parametrize(
    "command, template",
    [
        ("solve", '{"rows": 1, "cols": 1, "data": [%s]}'),
        ("reduce", '{"m": %s, "sets": [[1]]}'),
        ("experiment", '{"n_values": [5], "trials_per_n": 1, "seed": %s}'),
    ],
    ids=["solve", "reduce", "experiment"],
)
def test_json_integer_past_digit_limit_is_invalid_input(
    workdir, capsys, command, template
):
    # json.loads raises a plain ValueError past the 4,300-digit int limit
    bad = workdir / "huge.json"
    bad.write_text(template % ("9" * 5000))
    assert run(command, bad) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "internal" not in err


@pytest.mark.parametrize("command", ["solve", "reduce", "experiment"])
def test_undecodable_input_file_is_invalid_input(workdir, capsys, command):
    bad = workdir / "binary.json"
    bad.write_bytes(b"\xff\xfe{")
    assert run(command, bad) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "internal" not in err


@pytest.mark.parametrize(
    "command, matrix, b",
    [
        ("solve", [True, False, False, True], None),
        ("verify", [1, 0, 0, 2], [True, True]),
    ],
    ids=["solve-matrix", "verify-b"],
)
def test_boolean_matrix_entries_are_invalid_input(workdir, capsys, command, matrix, b):
    # JSON true/false would otherwise load as the numbers 1 and 0
    args = [workdir / "A.json"]
    args[0].write_text(json.dumps({"rows": 2, "cols": 2, "data": matrix}))
    if b is not None:
        args.append(workdir / "b.json")
        args[1].write_text(json.dumps({"rows": 2, "cols": 1, "data": b}))
    assert run(command, *args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "internal" not in err


@pytest.mark.parametrize(
    "args, work",
    [
        (("reduce", "inst.json", "--out-dir", "a_file"), None),
        (("solve", "diag123.json", "--out", "no/dir/x.json"), "minctrl.matrices.load_matrix"),
        (
            ("experiment", "--n-values", "5", "--trials", "1", "--csv", "no/dir/r.csv"),
            "minctrl.experiments.run_experiment",
        ),
        (
            ("experiment", "--n-values", "5", "--trials", "1", "--out", "no/dir/r.json"),
            "minctrl.experiments.run_experiment",
        ),
    ],
    ids=["reduce-out-dir", "solve-out", "experiment-csv", "experiment-out"],
)
def test_unusable_output_path_is_invalid_input(workdir, capsys, monkeypatch, args, work):
    monkeypatch.chdir(workdir)
    (workdir / "a_file").write_text("")
    if work is not None:
        # the output path is checked before any input is read or trial run

        def forbidden(*_args, **_kwargs):
            raise AssertionError(f"{work} called before the output path was checked")

        monkeypatch.setattr(work, forbidden)
    assert run(*args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "internal" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "args",
    [
        ("solve", "A.json", "--mode", "vector"),
        ("solve", "A.json", "--mode", "diagonal"),
        ("verify", "A.json", "b.json"),
    ],
    ids=["solve-vector", "solve-diagonal", "verify"],
)
def test_exact_backend_answers_powers_past_float64(workdir, capsys, monkeypatch, args):
    # A^2 overflows float64, but every float is an exact rational, so the
    # exact backend ranks these powers as it ranks any others
    monkeypatch.chdir(workdir)
    (workdir / "A.json").write_text(
        json.dumps({"rows": 3, "cols": 3, "data": [1e200, 1, 0, 0, 2e200, 1, 0, 0, 3e200]})
    )
    (workdir / "b.json").write_text(json.dumps({"rows": 3, "cols": 1, "data": [1, 1, 1]}))
    assert run(*args, "--backend", "exact") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["controllable"] is True
    if args[0] == "solve":
        assert payload["support"] == [2]


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize(
    "args",
    [
        ("solve", "bad.json", "--backend", "exact"),
        ("solve", "bad.json", "--backend", "pbh"),
        ("oracle", "bad.json", "--kind", "min-vector"),
        ("verify", "bad.json", "b.json"),
        ("verify", "eye2.json", "bad_b.json"),
    ],
    ids=["solve-exact", "solve-pbh", "oracle-min-vector", "verify-A", "verify-b"],
)
def test_non_finite_rational_entry_is_invalid_input(workdir, capsys, monkeypatch, token, args):
    # Python's json reads these tokens as floats; one string entry makes the
    # file rational, and each entry then becomes a Fraction
    monkeypatch.chdir(workdir)
    (workdir / "bad.json").write_text(f'{{"rows": 2, "cols": 2, "data": ["1", {token}, 0, 2]}}')
    (workdir / "bad_b.json").write_text(f'{{"rows": 2, "cols": 1, "data": ["1", {token}]}}')
    (workdir / "b.json").write_text(json.dumps({"rows": 2, "cols": 1, "data": [1, 1]}))
    assert run(*args) == 2
    assert capsys.readouterr().err == "error: matrix entries must be finite (no NaN/Inf)\n"


def test_integer_past_float_range_is_invalid_input(workdir, capsys):
    big = workdir / "big.json"
    big.write_text('{"rows": 1, "cols": 1, "data": [1' + "0" * 400 + "]}")
    assert run("solve", big) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: matrix entries must be real numbers")


def test_parser_built_once_per_process():
    assert minctrl.cli.build_parser() is minctrl.cli.build_parser()


def test_verify_dimension_mismatch(workdir, capsys):
    assert run("verify", workdir / "diag123.json", workdir / "eye2.json") == 2


@pytest.mark.parametrize("backend", ("exact", "pbh"))
def test_verify_rejects_non_square_matrix(workdir, capsys, backend):
    (workdir / "wide.json").write_text(
        json.dumps({"rows": 2, "cols": 3, "data": [1, 0, 0, 0, 2, 0]})
    )
    (workdir / "b2.json").write_text(json.dumps({"rows": 2, "cols": 1, "data": [1, 1]}))
    assert run("verify", workdir / "wide.json", workdir / "b2.json", "--backend", backend) == 2
    assert "A must be square, got 2x3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ("solve", "d112.json", "--backend", "pbh"),
        ("solve", "d112.json", "--backend", "pbh", "--mode", "diagonal"),
        ("verify", "d112.json", "b3.json", "--backend", "pbh"),
    ],
    ids=["solve-vector", "solve-diagonal", "verify"],
)
def test_pbh_on_a_repeated_spectrum_is_invalid_input(workdir, capsys, monkeypatch, args):
    # diag(1, 1, 2) has no decomposition the eigenvector count may use
    monkeypatch.chdir(workdir)
    (workdir / "d112.json").write_text(
        json.dumps({"rows": 3, "cols": 3, "data": [1, 0, 0, 0, 1, 0, 0, 0, 2]})
    )
    (workdir / "b3.json").write_text(json.dumps({"rows": 3, "cols": 1, "data": [1, 1, 1]}))
    assert run(*args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: eigenvalue gap 0.000e+00 is below the distinctness threshold "
        "1.000e-02; the eigenvector count only equals the controllability rank "
        "for distinct spectra\n"
    )


def test_experiment_flags_and_determinism(workdir, capsys):
    out1 = workdir / "r1.json"
    out2 = workdir / "r2.json"
    args = ("experiment", "--n-values", "6", "--trials", "2", "--seed", "9")
    assert run(*args, "--out", out1) == 0
    assert run(*args, "--out", out2) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["schema_version"] == 1
    assert len(payload["records"]) == 2


def test_experiment_config_file(workdir, capsys):
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({
        "n_values": [5], "trials_per_n": 1, "seed": 4,
        "edge_probability": 0.9,
    }))
    assert run("experiment", cfg) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["edge_probability"] == 0.9


@pytest.mark.parametrize(
    "extra",
    [
        {"n_values": ["a"]},
        {"n_values": [5.7]},
        {"n_values": [True]},
        {"n_values": 5},
        {"seed": "abc"},
        {"seed": -1},
        {"trials_per_n": 1.5},
        {"trials_per_n": True},
        {"max_regenerations_per_trial": 2.0},
        {"include_self_loops": "no"},
        {"include_self_loops": 0},
        {"edge_probability": "0.5"},
        {"edge_probability": True},
        {"eigen_gap_threshold": "0.01"},
        {"eigen_gap_threshold": float("nan")},
    ],
    ids=lambda extra: json.dumps(extra),
)
def test_experiment_config_types_checked(workdir, capsys, extra):
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({"n_values": [5], "trials_per_n": 1, **extra}))
    assert run("experiment", cfg) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_experiment_zero_trials_rejected(workdir, capsys):
    assert run("experiment", "--n-values", "5", "--trials", "0") == 2


def test_experiment_csv_output(workdir, capsys):
    csv_path = workdir / "records.csv"
    assert run("experiment", "--n-values", "5", "--trials", "2",
               "--seed", "2", "--csv", csv_path, "--out", workdir / "r.json") == 0
    header = csv_path.read_text().splitlines()[0]
    assert header == (
        "n,trial_index,graph_seed,regenerations_used,accepted,sparsity_found,controllable"
    )
    payload = json.loads((workdir / "r.json").read_text())
    assert payload["schema_version"] == 1 and len(payload["records"]) == 2
    for record in payload["records"]:
        # no key past the record fields, which are the CSV header
        assert set(record) <= set(header.split(","))
        assert record["controllable"] or not record["accepted"]


def test_default_backend_env(workdir, capsys, monkeypatch):
    # the backend is --backend, "exact" unless given; no environment variable
    # sets it, so a command's output depends only on its argv and files
    (workdir / "ones3.json").write_text(json.dumps({"rows": 3, "cols": 1, "data": [1, 1, 1]}))
    for name in ("pbh", "svd", "bogus"):
        monkeypatch.setenv("MINCTRL_BACKEND", name)
        assert run("solve", workdir / "diag123.json") == 0
        assert json.loads(capsys.readouterr().out)["backend"] == "exact"
        assert run("verify", workdir / "diag123.json", workdir / "ones3.json") == 0
        assert json.loads(capsys.readouterr().out)["backend"] == "exact"


def test_svd_backend_is_not_a_choice(workdir, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run("solve", workdir / "diag123.json", "--backend", "svd")
    assert exit_info.value.code == 2
    assert "invalid choice: 'svd'" in capsys.readouterr().err


def test_solve_writes_output_file(workdir, capsys):
    out = workdir / "result.json"
    assert run("solve", workdir / "diag123.json", "--out", out) == 0
    payload = json.loads(out.read_text())
    assert payload["controllable"] is True
    assert payload["trace"]


@pytest.mark.parametrize("backend", ["exact", "pbh"])
def test_solve_negative_seed_rejected(workdir, capsys, backend):
    matrix = workdir / "diag12.json"
    matrix.write_text(json.dumps({"rows": 2, "cols": 2, "data": [1, 0, 0, 2]}))
    assert run("solve", matrix, "--algo", "rand", "--seed", "-1",
               "--backend", backend) == 2
    assert capsys.readouterr().err.startswith("error: ")
