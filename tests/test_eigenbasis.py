"""The certified eigenbasis behind the exact oracle's eigenbasis path.

``certified_left_eigenbasis`` proves exact integer left eigenvectors for n
distinct eigenvalues; the exact oracle then counts ``v_i b != 0`` instead of
eliminating the controllability matrix. These tests check the certificate
and its rationalisation, that inputs without a certificate take the Bareiss
path and keep its results, that ``rank_oracle(A, "exact")`` takes the
eigenbasis path wherever a certificate exists, with the ranks of the Bareiss
path, and that certified solves never eliminate. The differential net in
``test_exact_paths.py`` checks each path's counts against exact ranks over
more families, and solves on both paths against each other. The expected solves in
``golden_fallback.json`` were recorded before the eigenbasis path existed;
regenerate them only for a deliberate behaviour change, with
``PYTHONPATH=src:tests python tests/test_eigenbasis.py > tests/golden_fallback.json``.
"""

import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import minctrl.greedy
import minctrl.linalg
from helpers import controllability_matrix, golden_A, golden_instance, random_instance
from minctrl.cli import main
from minctrl.greedy import (
    _EigenbasisOracle,
    controllability_rank,
    deterministic_greedy_vector,
    greedy_diagonal,
    randomized_greedy_vector,
    rank_oracle,
)
from minctrl.linalg import (
    EIGENBASIS_MAX_DENOMINATOR,
    certified_left_eigenbasis,
    limit_denominator,
    rank_exact,
)
from minctrl.matrices import RationalMatrix, save_matrix
from minctrl.reductions import HittingSetInstance, build_reduction
from systems import (
    EXACT_PATHS,
    FRACTIONS,
    SOLVERS,
    certified,
    conjugate,
    fractions,
    instances,
    jordan,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import GREEDY_SIZES, planted_instance  # noqa: E402

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_fallback.json"


# Inputs with no certificate: each must take the Bareiss path.
FALLBACK = {
    "eye2": lambda: RationalMatrix.identity(2),
    "diag331": lambda: RationalMatrix.diagonal([3, 3, 1]),
    "jordan2": lambda: RationalMatrix.from_rows([[1, 1], [0, 1]]),
    "rotation": lambda: RationalMatrix.from_rows([[0, -1], [1, 0]]),
    "sqrt2": lambda: RationalMatrix.from_rows([[0, 2], [1, 0]]),
    # eigenvalues 1 and 1 + 2^-60 in a non-diagonal basis: float guesses of
    # the two eigenvectors coincide
    "near_double": lambda: conjugate(
        [[1, -1], [-1, 2]], [1, 1 + Fraction(1, 2**60)]
    ),
    # no float holds 10^400
    "huge": lambda: RationalMatrix.diagonal([10**400, 1]),
    # left eigenvector (1, 1/(bound+1)) after normalisation
    "big_denominator": lambda: conjugate(
        [[EIGENBASIS_MAX_DENOMINATOR + 1, 1], [0, 1]], [1, 2]
    ),
}

# diag(1, 1 + 2^-60) is certified: the unit vectors are exact eigenvectors,
# and the eigenvalues are read off them exactly, though floats cannot tell
# them apart.
CERTIFIED = {
    "near_double_diagonal": lambda: RationalMatrix.diagonal(
        [1, 1 + Fraction(1, 2**60)]
    ),
}
MATRICES = {**FALLBACK, **CERTIFIED}

CASES = [f"{name}-{solver}" for name in MATRICES for solver in SOLVERS]


def _outcome(case: str) -> dict:
    name, solver = case.split("-")
    return SOLVERS[solver](MATRICES[name]()).to_json_dict()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", FALLBACK)
def test_certificate_rejects(name):
    assert certified_left_eigenbasis(FALLBACK[name]()) is None


@pytest.mark.parametrize("name", FALLBACK)
def test_fallback_takes_bareiss(name):
    assert rank_oracle(FALLBACK[name](), "exact").path == "bareiss"


@pytest.mark.parametrize(
    "rows",
    [[[1, 10**400], [0, 2]], [[Fraction(1, 10**400), 0], [0, 2]]],
    ids=["entry", "denominator"],
)
def test_certificate_declines_integers_too_large_for_floats(rows):
    # the float guess is A_int / L: an entry or a common denominator past
    # the float range ends the certificate instead of raising
    A = RationalMatrix.from_rows(rows)
    assert certified_left_eigenbasis(A) is None
    assert rank_oracle(A, "exact").path == "bareiss"
    assert greedy_diagonal(A, "exact").controllable


def test_certificate_reads_exact_eigenvalues():
    A = CERTIFIED["near_double_diagonal"]()
    assert certified_left_eigenbasis(A) == [[1, 0], [0, 1]]
    assert rank_oracle(A, "exact").path == "eigenbasis"


@pytest.mark.parametrize("case", CASES)
def test_solve_matches_recorded_result(case, golden):
    assert _outcome(case) == golden[case]


def _proportional(u, v) -> bool:
    return all(a * y == b * x for a, b in zip(u, v) for x, y in zip(u, v))


def _benchmark_instances():
    """The planted instances of the exact-greedy benchmark, n = 17 to 28."""
    rng = random.Random("exact-greedy")  # the benchmark's instance stream
    return [
        HittingSetInstance.from_json_dict(planted_instance(rng, m, p, k))
        for m, p, k in GREEDY_SIZES["full"].values()
    ]


def test_certificate_recovers_reduction_eigenvectors():
    instances = [golden_instance(), *_benchmark_instances()]
    instances += [random_instance(random.Random(seed)) for seed in (1, 2, 3)]
    for inst in instances:
        red = build_reduction(inst)
        basis = certified_left_eigenbasis(red.system_matrix)
        V = red.left_eigenvectors
        assert basis is not None and len(basis) == V.rows
        assert all(_proportional(row, V.data[i]) for i, row in enumerate(basis))


# ---------------------------------------------------------------------------
# the guess's rationalisation: integer pairs, as Fraction.limit_denominator


def _fraction_limit(x: float, bound: int) -> tuple[int, int]:
    f = Fraction(x).limit_denominator(bound)
    return f.numerator, f.denominator


_signed_floats = st.builds(
    lambda x, negative: -x if negative else x,
    st.floats(min_value=1e-12, max_value=1e6),
    st.booleans(),
)


@st.composite
def _next_to_ratio(draw):
    """A float one ulp from ``p/q``, with ``q`` at most 1,000 below the bound."""
    q = draw(st.integers(EIGENBASIS_MAX_DENOMINATOR - 1000, EIGENBASIS_MAX_DENOMINATOR))
    p = draw(st.integers(-q, q))
    return math.nextafter(p / q, draw(st.sampled_from([-math.inf, math.inf])))


# small dyadic values under small bounds: many lie halfway between the two
# closest fractions, so the tie rule decides
_dyadic_cases = st.tuples(
    st.builds(lambda k, e: k / 2**e, st.integers(-64, 64), st.integers(1, 4)),
    st.integers(1, 8),
)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.tuples(
            st.one_of(_signed_floats, _next_to_ratio(), st.sampled_from([0.0, -0.0])),
            st.just(EIGENBASIS_MAX_DENOMINATOR),
        ),
        _dyadic_cases,
    )
)
def test_limit_denominator_matches_fraction(case):
    x, bound = case
    assert limit_denominator(x, bound) == _fraction_limit(x, bound)


@pytest.mark.parametrize(
    "x, bound",
    [(0.5, 1), (-0.5, 1), (-3.5, 1), (0.75, 2), (0.25, 2), (-1.25, 2), (-0.125, 4), (0.875, 4)],
)
def test_limit_denominator_breaks_ties_as_fraction_does(x, bound):
    exact = Fraction(x)
    nearby = {Fraction(math.floor(x * q) + d, q) for q in range(1, bound + 1) for d in (0, 1)}
    distance = min(abs(c - exact) for c in nearby)
    assert len([c for c in nearby if abs(c - exact) == distance]) == 2  # a tie
    assert limit_denominator(x, bound) == _fraction_limit(x, bound)


def test_certificates_identical_with_fraction_rationalisation(monkeypatch):
    golden = [golden_A(), *(build_reduction(i).system_matrix for i in _benchmark_instances())]
    matrices = golden + [make() for make in MATRICES.values()]
    bases = [certified_left_eigenbasis(A) for A in matrices]
    assert all(basis is not None for basis in bases[: len(golden)])
    monkeypatch.setattr(minctrl.linalg, "limit_denominator", _fraction_limit)
    assert [certified_left_eigenbasis(A) for A in matrices] == bases


# ---------------------------------------------------------------------------
# rank_oracle(A, "exact") as the solvers get it: the eigenbasis path wherever
# a certificate exists, with the ranks of the Bareiss path and of rank_exact

_certified_systems = st.one_of(
    certified().map(lambda system: system[0]),
    instances(max_m=5, max_sets=7).map(lambda inst: build_reduction(inst).system_matrix),
)
_any_systems = st.one_of(_certified_systems, jordan().map(lambda system: system[0]))


@settings(max_examples=80, deadline=None)
@given(_certified_systems, st.data())
def test_eigenbasis_vector_rank_matches_controllability_rank(A, data):
    n = A.rows
    b = data.draw(st.lists(FRACTIONS, min_size=n, max_size=n))
    j = data.draw(st.integers(0, n - 1))
    dyadic = data.draw(st.booleans(), label="dyadic probe")
    if dyadic:
        fractional = st.floats(-3, 3, allow_nan=False).filter(lambda f: f % 1)
        value = Fraction(data.draw(fractional))
    else:
        value = Fraction(data.draw(st.integers(1, 2 * n + 1)))
    landing = data.draw(st.integers(-1, n - 1), label="unit index, -1 for zero")
    if data.draw(st.booleans(), label="probe lands on a zero or unit vector"):
        # a wrongly scaled probe misses the eigenvectors orthogonal to it
        b = [Fraction(int(i == landing)) - (value if i == j else 0) for i in range(n)]
    assume(any(b) or not dyadic)
    oracle = rank_oracle(A, "exact")
    assert oracle.path == "eigenbasis"
    oracle.begin_sweep(b)
    probed = [[x + (value if i == j else 0)] for i, x in enumerate(b)]
    expected = rank_exact(controllability_matrix(A, RationalMatrix.from_rows(probed)))
    assert oracle.best_probe(j, (value,))[0] == expected


@settings(max_examples=80, deadline=None)
@given(_any_systems, st.data())
def test_best_probe_is_first_argmax_of_vector_ranks(A, data):
    n = A.rows
    entries = st.one_of(st.just(Fraction(0)), FRACTIONS)
    b = data.draw(st.lists(entries, min_size=n, max_size=n))
    j = data.draw(st.integers(0, n - 1))
    # each row's own root -(v_i b) / v_ij zeroes that row's product
    basis = certified_left_eigenbasis(A) or []
    roots = [-sum(v * x for v, x in zip(row, b)) / row[j] for row in basis if row[j]]
    probes = fractions(5, 4)
    if roots:
        # only roots: every probe loses a row, so ranks tie below the top
        only_roots = data.draw(st.booleans(), label="roots only")
        probes = st.sampled_from(roots) if only_roots else st.one_of(probes, st.sampled_from(roots))
    drawn = data.draw(st.lists(probes, min_size=1, max_size=6))
    # repeats, in probe order
    values = drawn + data.draw(st.lists(st.sampled_from(drawn), max_size=3))
    oracle = rank_oracle(A, "exact")
    bareiss = EXACT_PATHS["bareiss"](A)
    for o in (oracle, bareiss):
        o.begin_sweep(b)
    ranks = [oracle.best_probe(j, (v,))[0] for v in values]
    assert ranks == [bareiss.best_probe(j, (v,))[0] for v in values]
    best = max(ranks)
    expected = (best, values[ranks.index(best)])
    assert oracle.best_probe(j, values) == expected
    assert bareiss.best_probe(j, values) == expected


@settings(max_examples=80, deadline=None)
@given(_any_systems, st.data())
def test_exact_controllability_rank_matches_rank_exact(A, data):
    n = A.rows
    entries = st.one_of(st.just(Fraction(0)), FRACTIONS)
    columns = data.draw(
        st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=3)
    )
    if data.draw(st.booleans(), label="a one-entry column"):
        single = [Fraction(0)] * n
        single[data.draw(st.integers(0, n - 1))] = data.draw(FRACTIONS.filter(bool))
        columns.append(single)
    if data.draw(st.booleans(), label="a zero column"):
        columns.insert(data.draw(st.integers(0, len(columns))), [Fraction(0)] * n)
    B = RationalMatrix.from_rows([list(row) for row in zip(*columns)])
    path = "eigenbasis" if certified_left_eigenbasis(A) else "bareiss"
    assert rank_oracle(A, "exact").path == path
    assert controllability_rank(A, B, "exact") == rank_exact(controllability_matrix(A, B))


# ---------------------------------------------------------------------------
# best_probe's direct count on the golden reduction, at the cases a drawn
# probe reaches only by chance; each rank is checked against Bareiss


# b = (e_3 + e_5 + e_7) / 2, whose products a sweep scales by s = 2,
# reaches rows 0, 1, 2, 3, 5 and 7. Column 0 of the golden V has rows 0
# (entry 2, product 1/2), 3 and 5 (entry 1, product 2) and 6 (entry 1,
# product 0), so its top is 3 + 4 = 7; column 6 has row 6 alone.
GOLDEN_B = [Fraction(x, 2) for x in (0, 0, 0, 1, 0, 1, 0, 1)]


def _golden_probe_ranks(j: int, values: list[Fraction]) -> list[int]:
    """Each value's rank at ``j`` from ``GOLDEN_B``, and that a call with all
    of them returns the first value of the highest, on both exact paths."""
    A = golden_A()
    oracle, bareiss = EXACT_PATHS["eigenbasis"](A), EXACT_PATHS["bareiss"](A)
    ranks = []
    for o in (oracle, bareiss):
        o.begin_sweep(GOLDEN_B)
        ranks.append([o.best_probe(j, (v,))[0] for v in values])
        best = max(ranks[-1])
        assert o.best_probe(j, values) == (best, values[ranks[-1].index(best)])
    assert ranks[0] == ranks[1]
    return ranks[0]


def test_best_probe_loses_both_rows_sharing_a_root():
    # rows 3 and 5 share the root -2; -1/4 is row 0's alone
    assert _golden_probe_ranks(0, [Fraction(-2), Fraction(-1, 4), Fraction(1)]) == [5, 6, 7]


def test_best_probe_counts_a_row_whose_product_is_zero():
    # row 6 stays zero at the value 0 only, and counts toward the top
    assert _golden_probe_ranks(0, [Fraction(0), Fraction(2)]) == [6, 7]
    assert _golden_probe_ranks(6, [Fraction(0), Fraction(1)]) == [6, 7]


def test_best_probe_over_roots_only_is_the_first_value_of_the_highest_rank():
    values = [Fraction(-2), Fraction(0), Fraction(-1, 4), Fraction(-2)]
    assert _golden_probe_ranks(0, values) == [5, 6, 6, 5]  # so (6, 0)


# ---------------------------------------------------------------------------
# the exact greedy on a plain reduction is greedy set cover over V's columns


def _set_cover_trace(V: RationalMatrix) -> list[tuple[int, int]]:
    """Greedy set cover of V's rows by its column supports (Chvatal 1979).

    Each step takes the column that covers the most uncovered rows, ties to
    the lowest index, and records it with the number of rows covered so far.
    """
    supports = [{i for i, x in enumerate(column) if x} for column in zip(*V.data)]
    covered: set[int] = set()
    trace = []
    while True:
        gain, j = max((len(s - covered), -j) for j, s in enumerate(supports))
        if not gain:
            return trace
        covered |= supports[-j]
        trace.append((-j, len(covered)))


def test_exact_greedy_is_greedy_set_cover_on_plain_reductions():
    instances = [golden_instance(), *_benchmark_instances()]
    instances += [random_instance(random.Random(seed)) for seed in range(40)]
    solvers = [
        lambda A: deterministic_greedy_vector(A, "exact"),
        *(lambda A, s=seed: randomized_greedy_vector(A, s, "exact") for seed in (0, 1, 2)),
        lambda A: greedy_diagonal(A, "exact"),
    ]
    for inst in instances:
        red = build_reduction(inst)
        assert rank_oracle(red.system_matrix, "exact").path == "eigenbasis"
        expected = _set_cover_trace(red.left_eigenvectors)
        assert expected[-1][1] == inst.state_dim
        for solve in solvers:
            result = solve(red.system_matrix)
            assert [(t.chosen_index, t.rank_after) for t in result.trace] == expected


# ---------------------------------------------------------------------------
# certified solves and checks never eliminate


def test_certified_det_solve_scores_each_coordinate_once(monkeypatch):
    calls = {"best_probe": 0}
    original = _EigenbasisOracle.best_probe

    def counting(self, j, values):
        calls["best_probe"] += 1
        return original(self, j, values)

    def forbidden(rows):
        raise AssertionError("integer_rank called on a certified input")

    monkeypatch.setattr(_EigenbasisOracle, "best_probe", counting)
    monkeypatch.setattr(minctrl.greedy, "integer_rank", forbidden)
    A = build_reduction(_benchmark_instances()[0]).system_matrix
    assert A.rows == 17
    result = deterministic_greedy_vector(A, "exact")
    assert result.controllable
    # at most one call per unused coordinate per sweep
    assert 0 < calls["best_probe"] <= len(result.trace) * A.rows


def test_exact_verify_on_certified_reduction_never_eliminates(monkeypatch, tmp_path, capsys):
    calls = {"n": 0}

    def counting(rows):
        calls["n"] += 1
        return 0

    for module in list(sys.modules.values()):  # every binding of the kernel
        if getattr(module, "__name__", "").startswith("minctrl"):
            if hasattr(module, "integer_rank"):
                monkeypatch.setattr(module, "integer_rank", counting)
    A = build_reduction(_benchmark_instances()[0]).system_matrix
    n = A.rows
    ones = RationalMatrix.from_rows([[1]] * n)
    first = RationalMatrix.from_rows([[int(i == 0)] for i in range(n)])
    assert controllability_rank(A, ones, "exact") == n
    assert controllability_rank(A, first, "exact") < n
    save_matrix(A, tmp_path / "A.json")
    save_matrix(ones, tmp_path / "b.json")
    argv = ["verify", str(tmp_path / "A.json"), str(tmp_path / "b.json"), "--backend", "exact"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["controllable"] is True
    assert calls["n"] == 0


# ---------------------------------------------------------------------------
# guard: the benchmark's exact solves never reach the Bareiss kernel


def test_benchmark_solves_never_call_integer_rank(monkeypatch):
    def forbidden(rows):
        raise AssertionError("integer_rank called on a certified input")

    monkeypatch.setattr(minctrl.greedy, "integer_rank", forbidden)
    instances = [golden_instance(), *_benchmark_instances()]
    matrices = [build_reduction(inst).system_matrix for inst in instances]
    assert [A.rows for A in matrices] == [8, 17, 19, 22, 28]
    for A in matrices:
        for solve in SOLVERS.values():
            assert solve(A).controllable


if __name__ == "__main__":
    print(json.dumps({case: _outcome(case) for case in CASES}, indent=1, sort_keys=True))
