"""Greedy solver behavior on hand examples, plus the structural invariants."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minctrl.greedy
from helpers import controllability_matrix, random_unimodular
from minctrl.errors import (
    BackendPreconditionError,
    InternalVerificationError,
    InvalidInputError,
)
from minctrl.experiments import sample_er_digraph
from minctrl.greedy import (
    SolveResult,
    TraceStep,
    _sparse_columns,
    deterministic_greedy_vector,
    greedy_diagonal,
    randomized_greedy_vector,
    rank_oracle,
)
from minctrl.linalg import (
    left_eigensystem,
    pbh_controllability_rank,
    rank_exact,
)
from minctrl.matrices import DenseMatrix, RationalMatrix, as_dense
from minctrl.oracles import brute_force_min_vector_support
from minctrl.reductions import build_reduction
from systems import rationals

BACKENDS = ("exact", "pbh")


@pytest.mark.parametrize("backend", BACKENDS)
def test_deterministic_diag123(backend):
    result = deterministic_greedy_vector(DenseMatrix.diagonal([1, 2, 3]), backend)
    assert result.support == (0, 1, 2)
    assert result.values == (1.0, 1.0, 1.0)  # lowest probe wins ties
    assert result.final_rank == 3
    assert result.controllable


@pytest.mark.parametrize("backend", BACKENDS)
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
    A = red.system_matrix if backend == "exact" else as_dense(red.system_matrix)
    result = deterministic_greedy_vector(A, backend)
    assert result.controllable and result.final_rank == 8
    # optimum is 3; greedy attains it here, and must stay within the
    # logarithmic factor regardless
    assert len(result.support) <= 3 * (math.floor(math.log(8)) + 1)
    assert len(result.support) == 3


def test_paper_instance_randomized_seeds(paper_instance):
    red = build_reduction(paper_instance)
    dense = as_dense(red.system_matrix)
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
    ranks = [0] + [t.rank_after for t in result.trace]
    assert all(a < b for a, b in zip(ranks, ranks[1:]))
    assert len(result.trace) <= result.n
    assert result.trace[-1].rank_after == result.final_rank
    # the JSON trace numbers each step and gives the rank before it
    trace = result.to_json_dict()["trace"]
    assert [t["step"] for t in trace] == list(range(len(result.trace)))
    assert [t["rank_before"] for t in trace] == ranks[:-1]
    assert [t["rank_after"] for t in trace] == ranks[1:]


def _count_integer_ranks(monkeypatch) -> dict:
    """Count the exact kernel's rank calls from here on, in ``["n"]``."""
    calls = {"n": 0}
    original = minctrl.greedy.integer_rank

    def counting(rows):
        calls["n"] += 1
        return original(rows)

    monkeypatch.setattr(minctrl.greedy, "integer_rank", counting)
    return calls


def test_rank_evaluations_per_sweep_bounded(monkeypatch):
    calls = _count_integer_ranks(monkeypatch)
    # J_2(1) + J_2(2) has no eigenbasis, so every rank falls back to Bareiss.
    A = DenseMatrix([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 2, 1], [0, 0, 0, 2]])
    result = deterministic_greedy_vector(A, "exact")
    assert result.controllable
    n = 4
    sweeps = len(result.trace)
    # one initial rank plus at most n*(2n+1) probes per sweep
    assert 0 < calls["n"] <= 1 + sweeps * n * (2 * n + 1)
    # probing a coordinate stops at its first full-rank probe; the first
    # sweep scores one probe per coordinate, and a later one stops once
    # best + 2 distinct probes score at most best (55 calls without the stops)
    assert calls["n"] == 14


def test_exact_det_rank_count_on_a_sparse_er_graph(monkeypatch):
    # a sparse ER graph is derogatory, so the exact oracle ranks Krylov
    # columns, and the degree stop ends most coordinates' probing long
    # before all 2n + 1 values (2,337 calls without the two stops; same trace)
    A = sample_er_digraph(20, 0.08, 0)
    calls = _count_integer_ranks(monkeypatch)
    result = deterministic_greedy_vector(A, "exact")
    assert rank_oracle(A, "exact").path == "bareiss"
    assert (result.support, [t.rank_after for t in result.trace]) == ((16, 8), [10, 13])
    assert calls["n"] == 525


def test_krylov_degree_stop_counts_distinct_values(monkeypatch):
    # J_2(1): from b = e_1, the probe -1 at coordinate 1 gives the zero
    # input (rank 0) and the probe 1 gives 2 e_1 (rank 2). A stop counting
    # positions would end after two of the repeated -1s; counting distinct
    # values scores -1 once and goes on to the first argmax
    oracle = rank_oracle(RationalMatrix.from_rows([[1, 1], [0, 1]]), "exact")
    assert oracle.path == "bareiss"
    calls = _count_integer_ranks(monkeypatch)
    oracle.begin_sweep([Fraction(0), Fraction(1)])
    assert oracle.best_probe(1, tuple(map(Fraction, (-1, -1, -1, 1, 2)))) == (2, 1)
    assert calls["n"] == 2
    # on the identity every nonzero input has rank 1, so the stop comes
    # after the third distinct value, repeats not counted
    oracle = rank_oracle(RationalMatrix.identity(2), "exact")
    oracle.begin_sweep([Fraction(1), Fraction(0)])
    calls["n"] = 0
    assert oracle.best_probe(1, tuple(map(Fraction, (1, 1, 2, 2, 3, 4, 5)))) == (1, 1)
    assert calls["n"] == 3
    # from the zero input only the first probe is scored when it is nonzero
    oracle.begin_sweep([Fraction(0), Fraction(0)])
    calls["n"] = 0
    assert oracle.best_probe(1, tuple(map(Fraction, (3, 1, 2)))) == (1, 3)
    assert calls["n"] == 1
    # a zero first value scores 0, so the degree stop decides
    assert oracle.best_probe(1, tuple(map(Fraction, (0, 1, 2, 3)))) == (1, 1)
    assert calls["n"] == 1 + 3


def test_seed_determinism_bit_for_bit(paper_instance):
    red = build_reduction(paper_instance)
    dense = as_dense(red.system_matrix)
    a = randomized_greedy_vector(dense, 123, "pbh")
    b = randomized_greedy_vector(dense, 123, "pbh")
    assert a == b
    assert a.to_json_dict() == b.to_json_dict()
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
    obj = json.loads(json.dumps(result.to_json_dict()))
    assert obj["schema_version"] == 1
    assert obj["support"] == [0, 1]
    assert obj["controllable"] is True
    assert len(obj["trace"]) == 2
    assert obj["trace"][0]["rank_after"] == 1


@pytest.mark.parametrize(
    "trace, message",
    [
        # (chosen_index, chosen_value, rank_after)
        ([(2, 1.0, 1), (2, 1.0, 2)], "duplicate support index"),
        ([(0, 1.0, 1), (1, 1.0, 1)], "strictly increase"),
        ([(0, 1.0, 2), (1, 1.0, 4)], "exceeds n"),
    ],
    ids=["repeated-index", "no-rank-gain", "above-n"],
)
def test_solve_result_rejects_inconsistent_trace(trace, message):
    with pytest.raises(InternalVerificationError, match=message):
        SolveResult(3, "exact", tuple(TraceStep(*t) for t in trace))


def test_solve_result_reads_everything_off_its_trace():
    empty = SolveResult(3, "exact", ())
    assert empty.final_rank == 0 and empty.support == () and empty.values == ()
    assert empty.controllable is False and empty.sparsity == 0
    solved = SolveResult(3, "pbh", (TraceStep(2, 0.5, 2), TraceStep(0, 1.0, 3)))
    assert (solved.support, solved.values) == ((2, 0), (0.5, 1.0))
    assert solved.final_rank == 3 and solved.controllable and solved.sparsity == 2

@pytest.mark.parametrize(
    "call",
    [
        lambda: randomized_greedy_vector(np.eye(3), 0, "exact"),
        lambda: randomized_greedy_vector([[1, 0], [0, 2]], 0, "pbh"),
        lambda: deterministic_greedy_vector(np.eye(2), "exact"),
        lambda: greedy_diagonal([[1.0]], "exact"),
    ],
    ids=["ndarray-exact", "list-pbh", "ndarray-det", "list-diagonal"],
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


@pytest.mark.parametrize("backend", ("exact",))
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
    A = as_dense(paper_A)
    assert solve(left_eigensystem(A)).to_json_dict() == solve(A).to_json_dict()


@pytest.mark.parametrize(
    "pbh_entry",
    [
        lambda eig: deterministic_greedy_vector(eig, "pbh"),
        lambda eig: randomized_greedy_vector(eig, 4, "pbh"),
        lambda eig: greedy_diagonal(eig, "pbh"),
        lambda eig: pbh_controllability_rank(eig, DenseMatrix([[1], [1], [1]])),
    ],
    ids=["det", "rand", "diag", "rank"],
)
def test_cluster_gap_is_the_pbh_threshold(pbh_entry):
    # eigenvalues 1 and 1.005 are 0.005 apart: repeated under a 0.1 gap, so
    # there is no decomposition to count with; distinct under 0.001, and then
    # no PBH entry re-checks them against the default 0.01
    A = DenseMatrix.diagonal([1, 1.005, 3])
    with pytest.raises(BackendPreconditionError, match="threshold 1.000e-01"):
        left_eigensystem(A, cluster_gap=0.1)
    pbh_entry(left_eigensystem(A, cluster_gap=0.001))


@pytest.mark.parametrize("system", ["golden", "er40"])
def test_pbh_input_rank_of_one_entry_columns_is_the_dense_count(paper_A, system):
    # a one-entry column's products are exactly the dense product's entries,
    # and each column's tolerance is its own: the counts agree on every
    # support, whichever columns the oracle has seen before
    A = as_dense(paper_A) if system == "golden" else sample_er_digraph(40, 0.09, 3)
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


@pytest.mark.parametrize("backend", ["pbh"])
@pytest.mark.parametrize("system", ["golden", "er12", "diag"])
def test_float_best_probe_is_first_argmax_of_single_probes(paper_A, backend, system):
    A = {
        "golden": as_dense(paper_A),
        "er12": sample_er_digraph(12, 0.4, 7),
        "diag": DenseMatrix.diagonal([1.0, 2.0, 3.0, 4.0]),
    }[system]
    oracle = rank_oracle(A, backend)
    n = oracle.n
    W = left_eigensystem(A).left_eigenvectors
    real_rows = [w.real for w in W if not np.iscomplex(w).any()]
    rng = random.Random(11)
    ties = 0
    for _ in range(40):
        b = [rng.choice([0.0, 0.0, 1.0, -2.0, 0.5]) for _ in range(n)]
        j = rng.randrange(n)
        # a real row's root -(w_i b) / w_ij loses that row
        roots = [-(w @ b) / w[j] for w in real_rows if abs(w[j]) > 1e-3]
        pool = [0.0, 1.0, 2.0, -0.5, *rng.sample(roots, min(2, len(roots)))]
        values = tuple(rng.choice(pool) for _ in range(rng.randint(1, 6)))
        oracle.begin_sweep(b)
        ranks = [oracle.best_probe(j, (v,))[0] for v in values]
        best = max(ranks)
        assert oracle.best_probe(j, values) == (best, values[ranks.index(best)])
        ties += len(set(ranks)) > 1 and ranks.index(best) > 0
    assert ties  # some draws have their best after a lower-ranked value


def test_pbh_best_probe_stops_at_the_first_full_rank_value(monkeypatch):
    # the left eigenvectors of [[1, 1], [0, 2]] are (1, -1) and (0, 1), up to
    # scale; from b = (1, 0), the value v at coordinate 1 reaches the first
    # unless v = 1 and the second unless v = 0, so 2.0 is the first at rank 2
    oracle = rank_oracle(DenseMatrix([[1.0, 1.0], [0.0, 2.0]]), "pbh")
    scored = []
    reached = minctrl.greedy.pbh_reached

    def counting(products, norms):
        scored.append(np.size(products) // oracle.n)  # probes in this call
        return reached(products, norms)

    monkeypatch.setattr(minctrl.greedy, "pbh_reached", counting)
    oracle.begin_sweep([1.0, 0.0])
    assert oracle.best_probe(1, (0.0, 1.0, 2.0, 3.0, 4.0)) == (2, 2.0)
    assert sum(scored) == 3


class _ScriptedOracle:
    """A vector oracle whose ``best_probe`` answers come from a script, one
    ``{j: (score, value)}`` per sweep; it records each sweep's ``b`` and the
    coordinates it scores."""

    value = Fraction

    def __init__(self, n, script):
        self.n, self._script = n, script
        self.begun, self.scored = [], []

    def begin_sweep(self, b):
        self.begun.append(list(b))
        self.scored.append([])

    def best_probe(self, j, values):
        self.scored[-1].append(j)
        return self._script[len(self.scored) - 1][j]


def _scripted_solve(n, script):
    oracle = _ScriptedOracle(n, script)
    probes = lambda j: (Fraction(100 + j),)  # never what best_probe returns
    return minctrl.greedy._greedy(oracle, probes, "exact", block=False), oracle


def test_sweep_commits_the_first_best_coordinate_until_no_gain():
    one = Fraction(1)
    result, oracle = _scripted_solve(4, [
        # a tie between 1 and 2 goes to the lower index, with its probe's value
        {0: (1, one), 1: (2, Fraction(7)), 2: (2, Fraction(9)), 3: (0, one)},
        # from rank 2 a score must exceed 2; 0 and 2 tie at 3
        {0: (3, Fraction(-5, 2)), 2: (3, one), 3: (2, one)},
        # no coordinate scores above 3: the sweep ends the solve
        {2: (3, one), 3: (1, one)},
    ])
    assert result.trace == (TraceStep(1, 7.0, 2), TraceStep(0, -2.5, 3))
    assert oracle.begun == [[0] * 4, [0, 7, 0, 0], [Fraction(-5, 2), 7, 0, 0]]
    assert oracle.scored == [[0, 1, 2, 3], [0, 2, 3], [2, 3]]


def test_sweep_scores_no_coordinate_after_full_rank():
    result, oracle = _scripted_solve(3, [
        {0: (1, Fraction(1)), 1: (3, Fraction(5)), 2: (3, Fraction(6))},
    ])
    assert result.trace == (TraceStep(1, 5.0, 3),)
    # coordinate 2 is never scored, and no second sweep begins
    assert oracle.scored == [[0, 1]]


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
    assert rank_oracle(A, "exact").input_rank(_sparse_columns(units)) == expected
