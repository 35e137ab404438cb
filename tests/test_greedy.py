"""Greedy solver behavior on hand examples, plus the structural invariants."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minctrl.greedy
from helpers import random_unimodular
from minctrl.errors import (
    BackendPreconditionError,
    InternalVerificationError,
    InvalidInputError,
)
from minctrl.experiments import sample_er_digraph
from minctrl.greedy import (
    SolveResult,
    TraceStep,
    deterministic_greedy_vector,
    greedy_diagonal,
    randomized_greedy_vector,
    rank_oracle,
    sparse_columns,
)
from minctrl.linalg import (
    controllability_matrix,
    left_eigensystem,
    pbh_controllability_rank,
    rank_exact,
)
from minctrl.matrices import DenseMatrix, RationalMatrix
from minctrl.oracles import brute_force_min_vector_support
from minctrl.reductions import build_reduction
from systems import rationals

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
    # J_2(1) + J_2(2) has no eigenbasis, so every rank falls back to Bareiss.
    A = DenseMatrix.from_rows([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 2, 1], [0, 0, 0, 2]])
    result = deterministic_greedy_vector(A, "exact")
    assert result.controllable
    n = 4
    sweeps = len(result.trace)
    # one initial rank plus at most n*(2n+1) probes per sweep
    assert 0 < calls["n"] <= 1 + sweeps * n * (2 * n + 1)
    # probing a coordinate stops at its first full-rank probe, as it always has
    assert calls["n"] == 55


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
        assert deterministic_greedy_vector(A, "exact").controllable
    # one defective block is still a one-dimensional eigenspace
    jordan = deterministic_greedy_vector(
        RationalMatrix.from_rows([[5, 1], [0, 5]]), "exact"
    )
    assert jordan.controllable and jordan.support == (1,)
    # a two-dimensional eigenspace: no single input can work
    for A in (
        DenseMatrix.diagonal([3, 3, 1]),
        DenseMatrix.identity(2),
    ):
        assert not deterministic_greedy_vector(A, "exact").controllable
    P = RationalMatrix.from_rows([[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    repeated = deterministic_greedy_vector(
        P @ RationalMatrix.diagonal([2, 2, -1]) @ P.inverse(), "exact"
    )
    assert not repeated.controllable and repeated.final_rank == 2


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
    "trace, message",
    [
        # (step, chosen_index, chosen_value, rank_before, rank_after)
        ([(0, 2, 1.0, 0, 1), (1, 2, 1.0, 1, 2)], "duplicate support index"),
        ([(1, 0, 1.0, 0, 1)], "count from 0"),
        ([(0, 0, 1.0, 0, 1), (1, 1, 1.0, 0, 2)], "previous rank"),
        ([(0, 0, 1.0, 0, 1), (1, 1, 1.0, 1, 1)], "strictly increase"),
        ([(0, 0, 1.0, 0, 2), (1, 1, 1.0, 2, 4)], "exceeds n"),
    ],
    ids=["repeated-index", "step-number", "rank-gap", "no-rank-gain", "above-n"],
)
def test_solve_result_rejects_inconsistent_trace(trace, message):
    with pytest.raises(InternalVerificationError, match=message):
        SolveResult(3, "exact", tuple(TraceStep(*t) for t in trace))


def test_solve_result_reads_everything_off_its_trace():
    empty = SolveResult(3, "exact", ())
    assert empty.final_rank == 0 and empty.support == () and empty.values == ()
    assert empty.controllable is False and empty.sparsity == 0
    solved = SolveResult(3, "pbh", (TraceStep(0, 2, 0.5, 0, 2), TraceStep(1, 0, 1.0, 2, 3)))
    assert (solved.support, solved.values) == ((2, 0), (0.5, 1.0))
    assert solved.final_rank == 3 and solved.controllable and solved.sparsity == 2

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


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", [-1, 1.5, "3", True, None])
def test_randomized_rejects_bad_seed(seed, backend):
    with pytest.raises(InvalidInputError):
        randomized_greedy_vector(DenseMatrix.diagonal([1, 2]), seed, backend)


def test_randomized_takes_numpy_integer_seed():
    A = DenseMatrix.diagonal([1, 2, 3])
    assert randomized_greedy_vector(A, np.int64(5)) == randomized_greedy_vector(A, 5)


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


@pytest.mark.parametrize(
    "pbh_entry",
    [
        lambda eig: deterministic_greedy_vector(eig, "pbh"),
        lambda eig: randomized_greedy_vector(eig, 4, "pbh"),
        lambda eig: greedy_diagonal(eig, "pbh"),
        lambda eig: pbh_controllability_rank(eig, DenseMatrix.from_rows([[1], [1], [1]])),
    ],
    ids=["det", "rand", "diag", "rank"],
)
def test_cluster_gap_is_the_pbh_threshold(pbh_entry):
    # eigenvalues 1 and 1.05 are 0.05 apart: repeated under a 0.1 gap,
    # distinct under 0.01, whichever PBH entry reads the decomposition
    A = DenseMatrix.diagonal([1, 1.05, 3])
    with pytest.raises(BackendPreconditionError, match="threshold 1.000e-01"):
        pbh_entry(left_eigensystem(A, cluster_gap=0.1))
    pbh_entry(left_eigensystem(A, cluster_gap=0.01))


@pytest.mark.parametrize("system", ["golden", "er40"])
def test_pbh_input_rank_of_one_entry_columns_is_the_dense_count(paper_A, system):
    # a one-entry column's products are exactly the dense product's entries,
    # and each column's tolerance is its own: the counts agree on every
    # support, whichever columns the oracle has seen before
    A = paper_A.to_dense() if system == "golden" else sample_er_digraph(40, 0.09, 3)
    eig = left_eigensystem(A)
    n = eig.n
    oracle = rank_oracle(eig, "pbh")
    rng = random.Random(5)
    for _ in range(60):
        support = rng.sample(range(n), rng.randint(1, 4))
        values = [rng.choice([1.0, -2.5, 1e-3, 7.0]) for _ in support]
        B = np.zeros((n, len(support)))
        B[support, range(len(support))] = values
        columns = [((j, v),) for j, v in zip(support, values)]
        assert oracle.input_rank(columns) == pbh_controllability_rank(eig, DenseMatrix(B))


# The exact oracle the solvers get, against the exact rank of the
# controllability matrix, on rational matrices with non-integer entries and
# on sparse ones, whose zeros the integer products skip.


@settings(max_examples=60, deadline=None)
@given(rationals(), st.data())
def test_exact_oracle_block_rank_matches_controllability_rank(system, data):
    A, _ = system
    n = A.rows
    support = data.draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    )
    units = RationalMatrix.from_rows(
        [[int(i == s) for s in support] for i in range(n)]
    )
    expected = rank_exact(controllability_matrix(A, units))
    assert rank_oracle(A, "exact").input_rank(sparse_columns(units)) == expected
