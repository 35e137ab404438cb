"""Golden traces: every solver x backend reproduces a recorded SolveResult.

The expected JSON in ``golden_traces.json`` pins the full trace (support,
probe values, tie-breaking and ranks) on fixed matrices, so any rewrite of
the solver layer must keep the arithmetic of each path exactly. Regenerate
it only for a deliberate behaviour change, with
``PYTHONPATH=src:tests python tests/test_golden_traces.py > tests/golden_traces.json``.
"""

import json
import random
from pathlib import Path

import pytest

from helpers import golden_instance, random_instance, random_unimodular
from minctrl.errors import BackendPreconditionError
from minctrl.greedy import (
    deterministic_greedy_vector,
    greedy_diagonal,
    randomized_greedy_vector,
)
from minctrl.matrices import DenseMatrix, RationalMatrix
from minctrl.reductions import build_reduction

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_traces.json"


def _pdp(seed: int, n: int) -> RationalMatrix:
    rng = random.Random(seed)
    P = random_unimodular(rng, n)
    D = RationalMatrix.diagonal(rng.sample(range(-9, 10), n))
    return P @ D @ P.inverse()


MATRICES = {
    "diag123": lambda: DenseMatrix.diagonal([1, 2, 3]),
    "eye2": lambda: DenseMatrix.identity(2),
    "diag331": lambda: DenseMatrix.diagonal([3, 3, 1]),
    "jordan3": lambda: RationalMatrix.from_rows([[2, 1, 0], [0, 2, 0], [0, 0, 5]]),
    "golden": lambda: build_reduction(golden_instance()).system_matrix,
    **{
        f"reduction{s}": (
            lambda s=s: build_reduction(random_instance(random.Random(s))).system_matrix
        )
        for s in (1, 2, 3)
    },
    **{f"pdp{s}": (lambda s=s: _pdp(s, 5)) for s in (4, 5)},
}

SOLVERS = {
    "det": lambda A, backend: deterministic_greedy_vector(A, backend),
    "rand0": lambda A, backend: randomized_greedy_vector(A, 0, backend),
    "rand7": lambda A, backend: randomized_greedy_vector(A, 7, backend),
    "diag": lambda A, backend: greedy_diagonal(A, backend),
}

BACKENDS = ("exact", "pbh")

CASES = [
    f"{matrix}-{solver}-{backend}"
    for matrix in MATRICES
    for solver in SOLVERS
    for backend in BACKENDS
]


def _outcome(case: str) -> dict:
    matrix, solver, backend = case.split("-")
    try:
        result = SOLVERS[solver](MATRICES[matrix](), backend)
    except BackendPreconditionError:
        return {"error": "BackendPreconditionError"}
    return result.to_json_dict()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", CASES)
def test_solve_matches_golden_trace(case, golden):
    assert _outcome(case) == golden[case]


if __name__ == "__main__":
    print(json.dumps({case: _outcome(case) for case in CASES}, indent=1, sort_keys=True))
