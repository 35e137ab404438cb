"""CLI exit codes, file round trips, and payload shapes."""

import json

import pytest

from helpers import GOLDEN_A_ROWS
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


def test_reduce_rejects_invalid_instance(workdir, capsys):
    bad = workdir / "bad_inst.json"
    bad.write_text(json.dumps({"m": 2, "sets": [[1], []]}))
    assert run("reduce", bad) == 2


def test_reduce_single_set_instance(workdir, capsys):
    tiny = workdir / "tiny.json"
    tiny.write_text(json.dumps({"m": 1, "sets": [[1]]}))
    out_dir = workdir / "tiny_red"
    assert run("reduce", tiny, "--out-dir", out_dir) == 0
    V = load_matrix(out_dir / "V.json")
    assert V == RationalMatrix.from_rows([[2, 0, 1], [1, 2, 0], [0, 0, 1]])
    A = load_matrix(out_dir / "A.json")
    assert (A.rows, A.cols) == (3, 3)


def test_oracle_commands(workdir, capsys):
    assert run("oracle", workdir / "inst.json", "--kind", "hitting-set") == 0
    assert json.loads(capsys.readouterr().out)["optimum"] == 2

    out_dir = workdir / "red2"
    run("reduce", workdir / "inst.json", "--out-dir", out_dir)
    capsys.readouterr()
    assert run("oracle", out_dir / "V.json", "--kind", "min-vector") == 0
    assert json.loads(capsys.readouterr().out)["optimum"] == 3
    assert run("oracle", out_dir / "V.json", "--kind", "min-diagonal") == 0
    assert json.loads(capsys.readouterr().out)["optimum"] == 3


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


def test_verify_dimension_mismatch(workdir, capsys):
    assert run("verify", workdir / "diag123.json", workdir / "eye2.json") == 2


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
    assert csv_path.read_text().startswith("n,trial_index")


def test_default_backend_env(workdir, capsys, monkeypatch):
    monkeypatch.setenv("MINCTRL_BACKEND", "svd")
    assert run("solve", workdir / "diag123.json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["backend"] == "svd"
    monkeypatch.setenv("MINCTRL_BACKEND", "bogus")
    assert run("solve", workdir / "diag123.json") == 2


def test_solve_writes_output_file(workdir, capsys):
    out = workdir / "result.json"
    assert run("solve", workdir / "diag123.json", "--out", out) == 0
    payload = json.loads(out.read_text())
    assert payload["controllable"] is True
    assert payload["trace"]
