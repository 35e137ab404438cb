"""One differential net over the exact rank paths.

Each property runs over every family of ``SYSTEMS`` and every path of
``EXACT_PATHS``, skipping a path that does not apply to the drawn system.
Ranks are checked against ``rank_exact`` of the controllability matrix,
never against another path; solves are checked across paths, and on a
nonderogatory ``A`` across the vector and diagonal solvers.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import minctrl.greedy
from helpers import controllability_matrix, random_unimodular
from minctrl.greedy import (
    _sparse_columns,
    controllability_rank,
    deterministic_greedy_vector,
    greedy_diagonal,
    randomized_greedy_vector,
    rank_oracle,
)
from minctrl.linalg import certified_left_eigenbasis, rank_exact
from minctrl.matrices import RationalMatrix
from systems import EXACT_PATHS, SOLVERS, SYSTEMS, fractions

ZERO = Fraction(0)


def _oracle(path: str, A: RationalMatrix):
    oracle = EXACT_PATHS[path](A)
    assume(oracle is not None)
    assert oracle.path == path
    return oracle


def _matrix(columns) -> RationalMatrix:
    return RationalMatrix.from_rows(list(zip(*columns)))


@pytest.mark.parametrize("path", EXACT_PATHS)
@settings(max_examples=80, deadline=None)
@given(SYSTEMS, st.data())
def test_input_rank_is_exact_and_invariant(path, system, data):
    A, entries = system
    oracle = _oracle(path, A)
    n = A.rows
    if data.draw(st.booleans(), label="unit columns"):
        support = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        columns = [[Fraction(int(i == s)) for i in range(n)] for s in support]
    else:
        column = st.lists(st.one_of(st.just(ZERO), entries), min_size=n, max_size=n)
        columns = data.draw(st.lists(column, min_size=1, max_size=3))
    if data.draw(st.booleans(), label="a one-entry column"):
        single = [ZERO] * n
        single[data.draw(st.integers(0, n - 1))] = data.draw(entries.filter(bool))
        columns.append(single)
    if data.draw(st.booleans(), label="a zero column"):
        columns.insert(data.draw(st.integers(0, len(columns))), [ZERO] * n)
    B = _matrix(columns)
    expected = rank_exact(controllability_matrix(A, B))
    assert oracle.input_rank(_sparse_columns(B)) == expected
    assert controllability_rank(A, B, "exact") == expected

    # metamorphic: ranks only, since traces break ties by the lowest index
    for extra in (data.draw(st.sampled_from(columns)), [ZERO] * n):  # a duplicate, a zero
        assert oracle.input_rank(_sparse_columns(_matrix([*columns, extra]))) == expected
    order = data.draw(st.permutations(range(n)))
    P = RationalMatrix.from_rows([[int(k == order[i]) for k in range(n)] for i in range(n)])
    scale = data.draw(st.builds(Fraction, st.integers(1, 81), st.integers(1, 9)))
    transformed = [(P @ A @ P.transpose(), P @ B), (RationalMatrix.diagonal([scale] * n) @ A, B)]
    if n > 1:
        T = random_unimodular(random.Random(data.draw(st.integers(0, 2**32 - 1))), n)
        transformed.append((T @ A @ T.inverse(), T @ B))
    for A2, B2 in transformed:
        assert _oracle(path, A2).input_rank(_sparse_columns(B2)) == expected


@pytest.mark.parametrize("path", EXACT_PATHS)
@settings(max_examples=80, deadline=None)
@given(SYSTEMS, st.data())
def test_best_probe_is_first_argmax_of_exact_ranks(path, system, data):
    A, entries = system
    oracle = _oracle(path, A)
    n = A.rows
    j = data.draw(st.integers(0, n - 1))
    probes = st.one_of(
        fractions(5, 4),
        st.integers(1, 2 * n + 1).map(Fraction),  # det's probes
        st.floats(-3, 3, allow_nan=False).filter(lambda f: f % 1).map(Fraction),  # dyadic
    )
    landing = data.draw(st.booleans(), label="probe lands on a zero or unit vector")
    if landing:
        # a wrongly scaled probe misses the low rank of b + value e_j
        value = data.draw(probes)
        unit = data.draw(st.integers(-1, n - 1), label="unit index, -1 for zero")
        b = [Fraction(int(i == unit)) - (value if i == j else 0) for i in range(n)]
    else:
        b = data.draw(st.lists(st.one_of(st.just(ZERO), entries), min_size=n, max_size=n))
    # each row's own root -(v_i b) / v_ij zeroes that row's product
    basis = certified_left_eigenbasis(A) or []
    roots = [-sum(v * x for v, x in zip(row, b)) / row[j] for row in basis if row[j]]
    only_roots = bool(roots) and data.draw(st.booleans(), label="roots only")
    if roots:
        # only roots: every probe loses a row, so ranks tie below the top
        probes = st.sampled_from(roots) if only_roots else st.one_of(probes, st.sampled_from(roots))
    drawn = data.draw(st.lists(probes, min_size=1, max_size=6))
    if landing and not only_roots:
        drawn.insert(data.draw(st.integers(0, len(drawn))), value)
    values = drawn + data.draw(st.lists(st.sampled_from(drawn), max_size=3))  # repeats
    probed = {v: _matrix([[x + v if i == j else x for i, x in enumerate(b)]]) for v in values}
    exact = {v: rank_exact(controllability_matrix(A, column)) for v, column in probed.items()}
    low = min(exact, key=exact.get)
    if exact[low] < max(exact.values()) and data.draw(st.booleans(), label="low rank first"):
        # rank + 2 positions of one low-ranked value: a degree stop that
        # counted positions, not distinct values, would end before the argmax
        values = [low] * (exact[low] + 2) + values
    ranks = [exact[v] for v in values]
    oracle.begin_sweep(b)
    assert [oracle.best_probe(j, (v,))[0] for v in values] == ranks
    best = max(ranks)
    assert oracle.best_probe(j, values) == (best, values[ranks.index(best)])


@pytest.mark.parametrize("path", EXACT_PATHS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(SYSTEMS, st.data())
def test_unit_input_rank_is_monotone_and_submodular(path, system, data):
    # f(S) = rank C(A, I_S) is the dimension of the sum of the Krylov spaces
    # K(e_s), s in S, so the diagonal greedy is greedy submodular cover
    A, _ = system
    oracle = _oracle(path, A)
    n = A.rows

    def f(S) -> int:
        return oracle.input_rank([((s, 1),) for s in sorted(S)])

    T = data.draw(st.sets(st.integers(0, n - 1)), label="T")
    S = data.draw(st.sets(st.sampled_from(sorted(T))) if T else st.just(set()), label="S in T")
    x = data.draw(st.integers(0, n - 1).filter(lambda x: x not in T) if len(T) < n else st.none())
    assert f(set()) == 0
    assert f(S) <= f(T) <= n
    if x is not None:
        assert f(S | {x}) - f(S) >= f(T | {x}) - f(T) >= 0


@settings(max_examples=40, deadline=None)
@given(SYSTEMS)
def test_solves_identical_on_every_path(system):
    A, _ = system
    paths = [path for path, make in EXACT_PATHS.items() if make(A) is not None]
    assert rank_oracle(A, "exact").path == paths[0]
    assume(len(paths) > 1)
    solves = []
    for path in paths:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(minctrl.greedy, "rank_oracle", lambda A, _backend: EXACT_PATHS[path](A))
            solves.append({name: solve(A).to_json_dict() for name, solve in SOLVERS.items()})
    assert all(s == solves[0] for s in solves)


def _nonderogatory(A: RationalMatrix) -> bool:
    """Whether the minimal polynomial of ``A`` has degree n: the flattened
    powers ``I, A, ..., A^{n-1}`` are independent."""
    n = A.rows
    powers, power = [], RationalMatrix.identity(n)
    for _ in range(n):
        powers.append([x for row in power.data for x in row])
        power = power @ A
    return rank_exact(RationalMatrix.from_rows(powers)) == n


@settings(max_examples=60, deadline=None, derandomize=True)
@given(SYSTEMS)
def test_vector_and_diagonal_greedy_agree_on_nonderogatory_a(system):
    # on a cyclic A a generic vector supported on S reaches rank C(A, I_S),
    # and one of det's 2n + 1 probes, like rand's standard-normal draw, is
    # generic enough, so the sweeps score every candidate alike and commit
    # the same steps
    A, _ = system
    assume(_nonderogatory(A))
    diagonal = greedy_diagonal(A, "exact")
    expected = (diagonal.support, [t.rank_after for t in diagonal.trace])
    vectors = [deterministic_greedy_vector(A, "exact")]
    vectors += [randomized_greedy_vector(A, seed, "exact") for seed in (0, 7, 1729)]
    for vector in vectors:
        assert (vector.support, [t.rank_after for t in vector.trace]) == expected


def test_vector_and_diagonal_greedy_differ_on_a_derogatory_a():
    # the eigenvalue 1 has a two-dimensional eigenspace: one vector input
    # reaches only one direction of it, a diagonal input both
    A = RationalMatrix.diagonal([1, 1, 2])
    assert not _nonderogatory(A)
    vector, diagonal = deterministic_greedy_vector(A, "exact"), greedy_diagonal(A, "exact")
    assert (vector.support, [t.rank_after for t in vector.trace]) == ((0, 2), [1, 2])
    assert (diagonal.support, diagonal.final_rank) == ((0, 1, 2), 3)
