"""Golden `minctrl verify` runs: each case reproduces its recorded output.

The expected JSON in ``golden_verify.json`` pins the stdout bytes and the
exit code of ``minctrl verify`` for every rank backend on fixed systems,
with a controllable and a non-controllable ``b`` given both as a column and
as a row, plus a repeated spectrum that the pbh backend refuses (exit 2).
Any rewrite of the controllability checks must keep each output exactly.
Regenerate it only for a deliberate behaviour change, with
``PYTHONPATH=src:tests python tests/test_golden_verify.py > tests/golden_verify.json``.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from helpers import GOLDEN_A_ROWS
from minctrl.cli import main
from minctrl.matrices import DenseMatrix, RationalMatrix, save_matrix

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_verify.json"

SYSTEMS = {
    # exact rationals with eigenvalues 1..8
    "golden": (
        RationalMatrix.from_rows(GOLDEN_A_ROWS),
        {"ctrb": [1, 1, 0, 0, 0, 0, 0, 1], "unctrb": [1, 0, 0, 0, 0, 0, 0, 0]},
    ),
    # dense floats, upper triangular with eigenvalues 0.5, 1.5, -2
    "float3": (
        DenseMatrix([[0.5, 1.0, 0.0], [0.0, 1.5, 0.25], [0.0, 0.0, -2.0]]),
        {"ctrb": [0.0, 0.0, 1.0], "unctrb": [1.0, 0.0, 0.0]},
    ),
    # a repeated eigenvalue with a two-dimensional eigenspace: no b works,
    # and the pbh backend refuses the spectrum
    "eye2": (DenseMatrix.identity(2), {"unctrb": [1.0, 1.0]}),
}

BACKENDS = ("exact", "pbh")

CASES = [
    (system, b_name, orientation, backend)
    for system, (_, vectors) in SYSTEMS.items()
    for b_name in vectors
    for orientation in ("column", "row")
    for backend in BACKENDS
]


def _case_id(case) -> str:
    return "-".join(case)


def _run(case, tmp: Path) -> dict:
    system, b_name, orientation, backend = case
    A, vectors = SYSTEMS[system]
    b = vectors[b_name]
    rows = [[x] for x in b] if orientation == "column" else [b]
    b_matrix = (
        RationalMatrix.from_rows(rows)
        if isinstance(A, RationalMatrix)
        else DenseMatrix(rows)
    )
    save_matrix(A, tmp / "A.json")
    save_matrix(b_matrix, tmp / "b.json")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(tmp / "A.json"), str(tmp / "b.json"),
                     "--backend", backend])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_verify_matches_golden_output(case, golden, tmp_path):
    assert _run(case, tmp_path) == golden[_case_id(case)]


def test_golden_covers_every_exit_code(golden):
    assert {entry["exit"] for entry in golden.values()} == {0, 1, 2}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(
            {_case_id(case): _run(case, Path(tmp)) for case in CASES},
            indent=1, sort_keys=True,
        ))
