"""Brute-force oracle correctness and the cross-checks between them."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_instance, random_invertible_rational
from minctrl.errors import EnumerationGuardError, InvalidInputError
from minctrl.matrices import DenseMatrix, RationalMatrix
from minctrl.oracles import (
    brute_force_hitting_set,
    brute_force_min_diagonal_support,
    brute_force_min_vector_support,
    kalman_test,
)
from minctrl.reductions import HittingSetInstance, build_reduction


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


def test_min_diagonal_support_matches_vector(paper_V):
    assert brute_force_min_diagonal_support(RationalMatrix.identity(3)).optimum == 3
    vec = brute_force_min_vector_support(paper_V)
    diag = brute_force_min_diagonal_support(paper_V)
    assert vec.optimum == diag.optimum == 3
    assert vec.witness == diag.witness


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10**6))
def test_vector_and_diagonal_oracles_agree(n, seed):
    rng = random.Random(seed)
    V = random_invertible_rational(rng, n)
    assert (
        brute_force_min_vector_support(V).optimum
        == brute_force_min_diagonal_support(V).optimum
    )


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


def test_witness_certified():
    rng = random.Random(3)
    for _ in range(10):
        V = random_invertible_rational(rng, 4)
        result = brute_force_min_vector_support(V)
        from minctrl.linalg import pbh_support_test

        assert pbh_support_test(V, result.witness)
        assert result.enumerated >= 1


def test_kalman_basics(paper_A):
    assert kalman_test(
        DenseMatrix.diagonal([1, 2]), DenseMatrix.from_rows([[1], [1]]), "svd"
    )
    assert not kalman_test(
        DenseMatrix.identity(2), DenseMatrix.from_rows([[1], [1]]), "exact"
    )
    b = RationalMatrix.from_rows([[1], [1], [0], [0], [0], [0], [0], [1]])
    assert kalman_test(paper_A, b, "exact")
    assert kalman_test(paper_A.to_dense(), b.to_dense(), "pbh")


@pytest.mark.parametrize("backend", ("exact", "pbh", "svd"))
def test_kalman_rejects_non_matrices(backend):
    with pytest.raises(InvalidInputError):
        kalman_test(np.eye(2), np.ones((2, 1)), backend)


def test_kalman_agrees_with_support_test():
    # a controllable b certifies its support feasible, and an infeasible
    # support dooms every b carried by it (PBH <-> Kalman, exact arithmetic)
    rng = random.Random(19)
    from helpers import random_unimodular
    from minctrl.linalg import pbh_support_test

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
        controllable = kalman_test(A, column, "exact")
        feasible = pbh_support_test(Pinv, support)
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
            answers = {kalman_test(A, B, backend) for backend in ("exact", "pbh", "svd")}
            assert len(answers) == 1
            outcomes.append(answers.pop())
    assert True in outcomes and False in outcomes


def test_oracle_json(paper_instance):
    result = brute_force_hitting_set(paper_instance)
    obj = result.to_json_dict()
    assert obj["schema_version"] == 1
    assert obj["optimum"] == 2
    assert len(obj["witness"]) == 2
