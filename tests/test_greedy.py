"""Greedy solver behavior on hand examples, plus the structural invariants."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import minctrl.greedy
from helpers import random_unimodular
from minctrl.errors import BackendPreconditionError, InvalidInputError
from minctrl.greedy import (
    _ExactOracle,
    deterministic_greedy_vector,
    greedy_diagonal,
    randomized_greedy_vector,
)
from minctrl.linalg import (
    controllability_matrix,
    is_vector_controllable_possible,
    left_eigensystem,
    rank_exact,
)
from minctrl.matrices import DenseMatrix, RationalMatrix
from minctrl.oracles import brute_force_min_vector_support
from minctrl.reductions import build_reduction

BACKENDS = ("exact", "pbh", "svd")


@pytest.mark.parametrize("backend", BACKENDS)
def test_deterministic_diag123(backend):
    result = deterministic_greedy_vector(DenseMatrix.diagonal([1, 2, 3]), backend)
    assert result.support == (0, 1, 2)
    assert result.values == (1.0, 1.0, 1.0)  # lowest probe wins ties
    assert result.final_rank == 3
    assert result.controllable


@pytest.mark.parametrize("backend", ("exact", "svd"))
def test_randomized_diag123(backend):
    result = randomized_greedy_vector(DenseMatrix.diagonal([1, 2, 3]), 5, backend)
    assert set(result.support) == {0, 1, 2}
    assert result.final_rank == 3
    assert result.controllable


@pytest.mark.parametrize(
    "solve",
    [
        lambda A: deterministic_greedy_vector(A, "exact"),
        lambda A: randomized_greedy_vector(A, 3, "exact"),
    ],
)
def test_vector_greedy_stalls_on_identity(solve):
    result = solve(DenseMatrix.identity(2))
    assert len(result.support) == 1
    assert result.final_rank == 1
    assert not result.controllable


def test_diagonal_identity_always_controllable():
    result = greedy_diagonal(DenseMatrix.identity(2), "exact")
    assert result.support == (0, 1)
    assert result.final_rank == 2
    assert result.controllable
    assert result.values == (1.0, 1.0)


def test_diagonal_diag12():
    result = greedy_diagonal(DenseMatrix.diagonal([1, 2]), "exact")
    assert result.support == (0, 1)
    assert result.final_rank == 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_paper_instance_sparsity_three(paper_instance, backend):
    red = build_reduction(paper_instance)
    A = red.system_matrix if backend == "exact" else red.system_matrix.to_dense()
    result = deterministic_greedy_vector(A, backend)
    assert result.controllable and result.final_rank == 8
    # optimum is 3; greedy attains it here, and must stay within the
    # logarithmic factor regardless
    assert len(result.support) <= 3 * (math.floor(math.log(8)) + 1)
    assert len(result.support) == 3


def test_paper_instance_randomized_seeds(paper_instance):
    red = build_reduction(paper_instance)
    dense = red.system_matrix.to_dense()
    bound = 3 * (math.floor(math.log(8)) + 1)
    for seed in range(5):
        result = randomized_greedy_vector(dense, seed, "pbh")
        assert result.controllable
        assert len(result.support) <= bound
        assert len(result.support) == 3


def test_paper_instance_diagonal(paper_instance):
    red = build_reduction(paper_instance)
    result = greedy_diagonal(red.system_matrix, "exact")
    assert result.controllable
    assert len(result.support) == 3


def test_deterministic_equals_randomized_on_distinct_spectra():
    rng = random.Random(42)
    for _ in range(10):
        P = random_unimodular(rng, 6)
        D = RationalMatrix.diagonal(rng.sample(range(-9, 10), 6))
        A = P @ D @ P.inverse()
        det = deterministic_greedy_vector(A, "exact")
        rand = randomized_greedy_vector(A, rng.randint(0, 10**6), "exact")
        assert det.controllable and rand.controllable
        assert len(det.support) == len(rand.support)


def test_trace_monotone_and_short(paper_instance):
    red = build_reduction(paper_instance)
    result = deterministic_greedy_vector(red.system_matrix, "exact")
    ranks = [t.rank_before for t in result.trace] + [result.final_rank]
    assert all(a < b for a, b in zip(ranks, ranks[1:]))
    assert len(result.trace) <= result.n
    assert result.trace[0].rank_before == 0
    assert result.trace[-1].rank_after == result.final_rank
    assert [t.step for t in result.trace] == list(range(len(result.trace)))


def test_rank_evaluations_per_sweep_bounded(monkeypatch):
    calls = {"n": 0}
    original = minctrl.greedy.integer_rank

    def counting(rows):
        calls["n"] += 1
        return original(rows)

    monkeypatch.setattr(minctrl.greedy, "integer_rank", counting)
    A = DenseMatrix.diagonal([1, 2, 3, 4])
    result = deterministic_greedy_vector(A, "exact")
    assert result.controllable
    n = 4
    sweeps = len(result.trace)
    # one initial rank plus at most n*(2n+1) probes per sweep
    assert calls["n"] <= 1 + sweeps * n * (2 * n + 1)


def test_seed_determinism_bit_for_bit(paper_instance):
    red = build_reduction(paper_instance)
    dense = red.system_matrix.to_dense()
    a = randomized_greedy_vector(dense, 123, "pbh")
    b = randomized_greedy_vector(dense, 123, "pbh")
    assert a == b
    assert a.to_json() == b.to_json()
    c = randomized_greedy_vector(red.system_matrix, 123, "exact")
    d = randomized_greedy_vector(red.system_matrix, 123, "exact")
    assert c == d


def test_pbh_backend_rejected_before_iteration():
    with pytest.raises(BackendPreconditionError):
        deterministic_greedy_vector(DenseMatrix.identity(3), "pbh")
    with pytest.raises(BackendPreconditionError):
        randomized_greedy_vector(DenseMatrix.identity(3), 0, "pbh")
    with pytest.raises(BackendPreconditionError):
        greedy_diagonal(DenseMatrix.identity(3), "pbh")


def test_unknown_backend_rejected():
    with pytest.raises(InvalidInputError):
        deterministic_greedy_vector(DenseMatrix.identity(2), "cholesky")


def test_stall_matches_structural_possibility():
    rng = random.Random(9)
    # distinct spectra: exact greedy must reach full rank
    for _ in range(5):
        P = random_unimodular(rng, 5)
        D = RationalMatrix.diagonal(rng.sample(range(-7, 8), 5))
        A = P @ D @ P.inverse()
        eig = left_eigensystem(A.to_dense())
        assert is_vector_controllable_possible(eig)
        assert deterministic_greedy_vector(A, "exact").controllable
    # repeated eigenvalue across blocks: no single input can work
    for A in (
        DenseMatrix.diagonal([3, 3, 1]),
        DenseMatrix.identity(2),
    ):
        eig = left_eigensystem(A)
        assert not is_vector_controllable_possible(eig)
        assert not deterministic_greedy_vector(A, "exact").controllable


def test_diagonal_exact_never_stalls_below_full_rank():
    rng = random.Random(31)
    for _ in range(5):
        n = rng.randint(2, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        result = greedy_diagonal(RationalMatrix.from_rows(rows), "exact")
        assert result.controllable
        assert result.final_rank == n


def test_greedy_within_log_factor_of_oracle():
    rng = random.Random(13)
    for _ in range(5):
        n = rng.randint(3, 6)
        P = random_unimodular(rng, n)
        D = RationalMatrix.diagonal(rng.sample(range(-8, 9), n))
        Pinv = P.inverse()
        A = P @ D @ Pinv
        # rows of P^{-1} are the left eigenvectors of P D P^{-1}
        optimum = brute_force_min_vector_support(Pinv).optimum
        greedy = len(deterministic_greedy_vector(A, "exact").support)
        assert optimum <= greedy <= optimum * (math.floor(math.log(n)) + 1)


def test_solve_result_json_round_trip():
    result = deterministic_greedy_vector(DenseMatrix.diagonal([1, 2]), "exact")
    obj = json.loads(result.to_json())
    assert obj["schema_version"] == 1
    assert obj["support"] == [0, 1]
    assert obj["controllable"] is True
    assert len(obj["trace"]) == 2
    assert obj["trace"][0]["rank_after"] == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda: randomized_greedy_vector(np.eye(3), 0, "exact"),
        lambda: randomized_greedy_vector([[1, 0], [0, 2]], 0, "pbh"),
        lambda: deterministic_greedy_vector(np.eye(2), "svd"),
        lambda: greedy_diagonal([[1.0]], "exact"),
    ],
    ids=["ndarray-exact", "list-pbh", "ndarray-svd", "list-diagonal"],
)
def test_non_matrix_input_rejected(call):
    with pytest.raises(InvalidInputError):
        call()


@pytest.mark.parametrize("backend", ("exact", "svd"))
def test_eigensystem_needs_pbh_backend(backend):
    eig = left_eigensystem(DenseMatrix.diagonal([1, 2, 3]))
    with pytest.raises(InvalidInputError):
        deterministic_greedy_vector(eig, backend)


@pytest.mark.parametrize(
    "solve",
    [
        lambda A: deterministic_greedy_vector(A, "pbh"),
        lambda A: randomized_greedy_vector(A, 4, "pbh"),
        lambda A: greedy_diagonal(A, "pbh"),
    ],
    ids=["det", "rand", "diag"],
)
def test_pbh_solvers_take_a_decomposition(paper_A, solve):
    A = paper_A.to_dense()
    assert solve(left_eigensystem(A)).to_json() == solve(A).to_json()


# The exact oracle against the exact rank of the controllability matrix it
# stands for, on rational matrices with non-integer entries.

_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def _rational_system(draw):
    n = draw(st.integers(1, 4))
    rows = draw(
        st.lists(st.lists(_fractions, min_size=n, max_size=n), min_size=n, max_size=n)
    )
    assume(any(x.denominator > 1 for row in rows for x in row))
    return RationalMatrix.from_rows(rows)


@settings(max_examples=80, deadline=None)
@given(_rational_system(), st.data())
def test_exact_oracle_vector_rank_matches_controllability_rank(A, data):
    n = A.rows
    b = data.draw(st.lists(_fractions, min_size=n, max_size=n))
    j = data.draw(st.integers(0, n - 1))
    dyadic = data.draw(st.booleans(), label="dyadic probe")
    if dyadic:
        fractional = st.floats(-3, 3, allow_nan=False).filter(lambda f: f % 1)
        value = Fraction(data.draw(fractional))
    else:
        value = Fraction(data.draw(st.integers(1, 2 * n + 1)))
    landing = data.draw(st.integers(-1, n - 1), label="unit index, -1 for zero")
    if data.draw(st.booleans(), label="probe lands on a zero or unit vector"):
        # a wrongly scaled probe misses the low rank of b + value e_j
        b = [Fraction(int(i == landing)) - (value if i == j else 0) for i in range(n)]
    assume(any(b) or not dyadic)
    oracle = _ExactOracle(A)
    oracle.begin_sweep(b)
    probed = [[x + (value if i == j else 0)] for i, x in enumerate(b)]
    expected = rank_exact(controllability_matrix(A, RationalMatrix.from_rows(probed)))
    assert oracle.rank_with_vector(j, value) == expected


@settings(max_examples=60, deadline=None)
@given(_rational_system(), st.data())
def test_exact_oracle_block_rank_matches_controllability_rank(A, data):
    n = A.rows
    support = data.draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    )
    units = RationalMatrix.from_rows(
        [[int(i == s) for s in support] for i in range(n)]
    )
    expected = rank_exact(controllability_matrix(A, units))
    assert _ExactOracle(A).rank_with_block(support) == expected
