"""Brute-force oracle correctness and the cross-checks between them."""

import random
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minctrl.oracles
from helpers import (
    diagonal_meets_every_row,
    meets_every_row,
    random_instance,
    random_invertible_rational,
)
from minctrl.errors import EnumerationGuardError, InvalidInputError, MinctrlError
from minctrl.greedy import RANK_BACKENDS, controllability_rank
from minctrl.linalg import left_eigensystem, pbh_controllability_rank
from minctrl.matrices import DenseMatrix, RationalMatrix, as_dense, as_rational
from minctrl.oracles import (
    brute_force_hitting_set,
    brute_force_min_vector_support,
)
from minctrl.reductions import HittingSetInstance, build_reduction
from systems import instances


def test_hitting_set_paper(paper_instance):
    result = brute_force_hitting_set(paper_instance)
    assert result.optimum == 2
    assert len(result.witness) == 2
    assert all(set(result.witness) & s for s in paper_instance.sets)


def test_hitting_set_trivial():
    single = brute_force_hitting_set(HittingSetInstance.from_sets(1, [[1]]))
    assert single.optimum == 1 and single.witness == (1,)
    disjoint = brute_force_hitting_set(
        HittingSetInstance.from_sets(4, [[1, 2], [3, 4]])
    )
    assert disjoint.optimum == 2


def test_hitting_set_witness_lexicographic():
    # element 3 alone hits both sets, so the optimum is 1 with witness (3,)
    result = brute_force_hitting_set(
        HittingSetInstance.from_sets(3, [[1, 3], [2, 3]])
    )
    assert result.optimum == 1
    assert result.witness == (3,)
    # among the feasible pairs {1,3}, {1,4}, {2,3}, {2,4}, lexicographically
    # first is (1, 3)
    result = brute_force_hitting_set(
        HittingSetInstance.from_sets(4, [[1, 2], [3, 4]])
    )
    assert result.witness == (1, 3)


def test_min_vector_support_basics(paper_V):
    assert brute_force_min_vector_support(RationalMatrix.identity(4)).optimum == 4
    assert brute_force_min_vector_support(paper_V).optimum == 3
    fully = RationalMatrix.from_rows(
        [[1, 1, 1], [1, 2, 1], [1, 1, 2]]
    )  # every row fully supported
    result = brute_force_min_vector_support(fully)
    assert result.optimum == 1
    assert result.witness == (0,)


def _first_support(V: RationalMatrix, feasible) -> tuple[int, ...]:
    """The first support, by size and then lexicographically, that is
    ``feasible``: a plain enumeration, independent of the oracle."""
    return next(
        candidate
        for size in range(V.cols + 1)
        for candidate in combinations(range(V.cols), size)
        if feasible(V, candidate)
    )


def test_min_diagonal_support_matches_vector(paper_V):
    # one search, so its diagonal answer is checked against the enumeration
    assert brute_force_min_vector_support(RationalMatrix.identity(3)).optimum == 3
    diag = brute_force_min_vector_support(paper_V)
    assert (diag.optimum, diag.witness) == (3, _first_support(paper_V, diagonal_meets_every_row))


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10**6))
def test_vector_and_diagonal_oracles_agree(n, seed):
    # entries in {-1, 0, 1}, so the rows' supports, and the optima, vary;
    # the vector and diagonal references agree, and the one search gives both
    V = random_invertible_rational(random.Random(seed), n, magnitude=1)
    witness = _first_support(V, diagonal_meets_every_row)
    assert _first_support(V, meets_every_row) == witness
    result = brute_force_min_vector_support(V)
    assert (result.optimum, result.witness) == (len(witness), witness)


def test_reduction_identity_random():
    rng = random.Random(55)
    for _ in range(15):
        inst = random_instance(rng, max_m=4, max_p=4)
        red = build_reduction(inst)
        hitting = brute_force_hitting_set(inst).optimum
        support = brute_force_min_vector_support(red.left_eigenvectors).optimum
        assert support == hitting + 1


def test_guards():
    with pytest.raises(EnumerationGuardError):
        brute_force_min_vector_support(RationalMatrix.identity(15))
    assert (
        brute_force_min_vector_support(
            RationalMatrix.identity(15), allow_large=True
        ).optimum
        == 15
    )
    big_instance = HittingSetInstance.from_sets(
        21, [[e] for e in range(1, 22)]
    )
    with pytest.raises(EnumerationGuardError):
        brute_force_hitting_set(big_instance)


def test_non_square_rejected():
    with pytest.raises(InvalidInputError):
        brute_force_min_vector_support(RationalMatrix.from_rows([[1, 0]]))


ZERO_MIDDLE_ROW = [[1, 2, 0], [0, 0, 0], [1, 1, 1]]


@pytest.mark.parametrize(
    "reference",
    [meets_every_row, diagonal_meets_every_row],
    ids=["brute_force_min_vector_support", "brute_force_min_diagonal_support"],
)
def test_zero_eigenvector_row_rejected_before_any_candidate(reference, monkeypatch):
    # one search answers both optima; each case checks its answer against
    # the reference enumeration of one of them
    searches = []
    search = minctrl.oracles._first_feasible

    def spying_search(universe, masks):
        searches.append((universe, masks))
        return search(universe, masks)

    monkeypatch.setattr(minctrl.oracles, "_first_feasible", spying_search)
    # past the guard: a search would examine all 2^22 supports before failing
    wide = [[int(i == j and i != 11) for j in range(22)] for i in range(22)]
    for rows, allow_large in ((ZERO_MIDDLE_ROW, False), (wide, True)):
        with pytest.raises(
            InvalidInputError, match="^a zero eigenvector row makes every support fail$"
        ):
            brute_force_min_vector_support(
                RationalMatrix.from_rows(rows), allow_large=allow_large
            )
    assert searches == []
    # an ordinary input is searched once, with one bitmask per row
    identity = RationalMatrix.identity(2)
    result = brute_force_min_vector_support(identity)
    assert result.enumerated == 4
    assert result.witness == _first_support(identity, reference)
    assert searches == [(range(2), [0b01, 0b10])]


def _lexrank(positions: tuple[int, ...], n: int) -> int:
    """Rank of a sorted k-subset of ``range(n)`` among all k-subsets, lexicographically."""
    rank, previous, k = 0, -1, len(positions)
    for i, position in enumerate(positions):
        rank += sum(comb(n - 1 - j, k - 1 - i) for j in range(previous + 1, position))
        previous = position
    return rank


def _assert_first_feasible(result, universe, feasible):
    """The witness is the first feasible candidate of a plain reference loop,
    and ``enumerated`` has its closed form."""
    universe = list(universe)
    first = next(
        candidate
        for size in range(len(universe) + 1)
        for candidate in combinations(universe, size)
        if feasible(candidate)
    )
    n, k = len(universe), len(first)
    assert (result.optimum, result.witness) == (k, first)
    positions = tuple(universe.index(x) for x in first)
    assert result.enumerated == sum(comb(n, s) for s in range(k)) + _lexrank(positions, n) + 1


@settings(max_examples=60, deadline=None)
@given(instances(), st.integers(1, 8), st.integers(0, 10**6))
def test_oracles_return_first_feasible_candidate(inst, n, seed):
    _assert_first_feasible(
        brute_force_hitting_set(inst),
        range(1, inst.ground_size + 1),
        lambda c: all(set(c) & s for s in inst.sets),
    )
    # dense rows (entries in {-1, 0, 1}, so supports vary), and the rows of
    # the instance's reduction
    matrices = [random_invertible_rational(random.Random(seed), n, magnitude=1)]
    V = build_reduction(inst).left_eigenvectors
    if V.cols <= 12:
        matrices.append(V)
    for V in matrices:
        _assert_first_feasible(
            brute_force_min_vector_support(V), range(V.cols), lambda c: meets_every_row(V, c)
        )
        _assert_first_feasible(
            brute_force_min_vector_support(V),
            range(V.cols),
            lambda c: diagonal_meets_every_row(V, c),
        )


def test_witness_certified():
    rng = random.Random(3)
    for _ in range(10):
        V = random_invertible_rational(rng, 4)
        result = brute_force_min_vector_support(V)
        assert meets_every_row(V, result.witness)
        assert result.enumerated >= 1


def test_kalman_basics(paper_A):
    # the Kalman test: full rank n of the controllability matrix
    ones = DenseMatrix([[1], [1]])
    assert controllability_rank(DenseMatrix.diagonal([1, 2]), ones, "pbh") == 2
    assert controllability_rank(DenseMatrix.identity(2), ones, "exact") == 1
    b = RationalMatrix.from_rows([[1], [1], [0], [0], [0], [0], [0], [1]])
    assert controllability_rank(paper_A, b, "exact") == 8
    assert controllability_rank(as_dense(paper_A), as_dense(b), "pbh") == 8
    # the pbh backend also takes a decomposition the caller already has
    assert controllability_rank(left_eigensystem(as_dense(paper_A)), b, "pbh") == 8


@pytest.mark.parametrize("backend", RANK_BACKENDS)
def test_kalman_rejects_non_matrices(backend):
    with pytest.raises(InvalidInputError):
        controllability_rank(np.eye(2), np.ones((2, 1)), backend)


def test_kalman_agrees_with_support_test():
    # a controllable b certifies its support feasible, and an infeasible
    # support dooms every b carried by it (PBH <-> Kalman, exact arithmetic)
    rng = random.Random(19)
    from helpers import random_unimodular

    checked_positive = checked_negative = 0
    for _ in range(40):
        n = rng.randint(2, 5)
        P = random_unimodular(rng, n)
        Pinv = P.inverse()
        D = RationalMatrix.diagonal(rng.sample(range(-8, 9), n))
        A = P @ D @ Pinv
        b = [rng.randint(-2, 2) for _ in range(n)]
        support = [j for j, x in enumerate(b) if x]
        column = RationalMatrix.from_rows([[x] for x in b])
        controllable = controllability_rank(A, column, "exact") == n
        feasible = meets_every_row(Pinv, support)
        if controllable:
            assert feasible
            checked_positive += 1
        if not feasible:
            assert not controllable
            checked_negative += 1
    assert checked_positive > 0 and checked_negative > 0


def test_kalman_backends_agree_on_multi_column_inputs():
    # multi-column B under pbh takes a per-column tolerance; a zero column
    # (tolerance 0) must count as orthogonal to every eigenvector
    from helpers import random_unimodular

    rng = random.Random(29)
    outcomes = []
    for _ in range(12):
        n = rng.randint(3, 6)
        P = random_unimodular(rng, n)
        D = RationalMatrix.diagonal(rng.sample(range(-9, 10), n))
        A = P @ D @ P.inverse()
        for _ in range(4):
            cols = [[0] * n] + [
                [rng.randint(0, 1) for _ in range(n)]
                for _ in range(rng.randint(1, 2))
            ]
            rng.shuffle(cols)
            B = RationalMatrix.from_rows([list(row) for row in zip(*cols)])
            answers = {controllability_rank(A, B, backend) == n for backend in RANK_BACKENDS}
            assert len(answers) == 1
            outcomes.append(answers.pop())
    assert True in outcomes and False in outcomes


def test_controllability_rank_backends_agree(paper_A):
    b = RationalMatrix.from_rows([[1], [0], [0], [0], [0], [0], [0], [0]])
    ranks = {controllability_rank(paper_A, b, backend) for backend in RANK_BACKENDS}
    assert ranks == {4}
    with pytest.raises(InvalidInputError, match=r"\('exact', 'pbh'\)"):
        controllability_rank(paper_A, b, "cholesky")


@pytest.mark.parametrize("backend", RANK_BACKENDS)
def test_controllability_rank_rejects_row_b_for_every_backend(backend):
    A = DenseMatrix.diagonal([1, 2, 3])
    with pytest.raises(InvalidInputError, match="B has 1 rows but A is 3x3"):
        controllability_rank(A, DenseMatrix([[1, 1, 1]]), backend)
    with pytest.raises(InvalidInputError, match="B has 1 rows"):
        controllability_rank(as_rational(A), RationalMatrix.from_rows([[1, 1, 1]]), backend)
    assert controllability_rank(A, DenseMatrix([[1], [1], [1]]), backend) == 3


# The pbh backend of ``controllability_rank`` goes through the greedy
# solvers' rank oracle; it must still return what its own formula gives.

_entries = st.sampled_from([0.0, 0.0, 0.0, 1.0, -1.0, 0.5, 2.0, -3.25, 7.0])


def _grid(rows: int, cols: int):
    return st.lists(
        st.lists(_entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_numeric_backends_match_their_formulas(data):
    n = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(1, 3))
    if data.draw(st.booleans(), label="diagonal A"):
        # distinct or repeated eigenvalues, and often rank-deficient inputs
        A = DenseMatrix.diagonal(data.draw(st.lists(_entries, min_size=n, max_size=n)))
    else:
        A = DenseMatrix(data.draw(_grid(n, n)))
    B = DenseMatrix(data.draw(_grid(n, m)))
    if data.draw(st.booleans(), label="rational inputs"):
        A, B = as_rational(A), as_rational(B)
    dense_A, dense_B = as_dense(A), as_dense(B)
    try:
        expected = pbh_controllability_rank(left_eigensystem(dense_A), dense_B)
    except MinctrlError as exc:
        with pytest.raises(type(exc)):
            controllability_rank(A, B, "pbh")
    else:
        assert controllability_rank(A, B, "pbh") == expected


def test_oracle_json(paper_instance):
    result = brute_force_hitting_set(paper_instance)
    obj = result.to_json_dict()
    assert obj["schema_version"] == 1
    assert obj["optimum"] == 2
    assert len(obj["witness"]) == 2
