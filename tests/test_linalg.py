"""Rank/eigenstructure primitives against hand values and exact oracles."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    JordanSpec,
    controllability_matrix,
    covered_count,
    meets_every_row,
    random_jordan_spec,
    random_unimodular,
)
from minctrl.errors import (
    BackendPreconditionError,
    InvalidInputError,
    NumericBackendError,
)
from minctrl.greedy import controllability_rank
from minctrl.linalg import (
    left_eigensystem,
    pbh_controllability_rank,
    rank_exact,
)
from minctrl.matrices import DenseMatrix, RationalMatrix, as_dense
from minctrl.reductions import build_reduction


# --- controllability_matrix -------------------------------------------------

def test_ctrb_identity():
    C = controllability_matrix(
        DenseMatrix.identity(2), DenseMatrix([[1], [0]])
    )
    assert C == RationalMatrix.from_rows([[1, 1], [0, 0]])
    assert rank_exact(C) == 1


def test_ctrb_diagonal():
    C = controllability_matrix(
        DenseMatrix.diagonal([1, 2]), DenseMatrix([[1], [1]])
    )
    assert C == RationalMatrix.from_rows([[1, 1], [1, 2]])
    # a float converts exactly, and the two inputs need not be of one kind
    C = controllability_matrix(
        DenseMatrix.diagonal([0.1, 2]), RationalMatrix.from_rows([[1], [1]])
    )
    assert C == RationalMatrix.from_rows([[1, Fraction(0.1)], [1, 2]])


def test_ctrb_paper_example_full_rank(paper_A):
    b = RationalMatrix.from_rows([[1], [1], [0], [0], [0], [0], [0], [1]])
    C = controllability_matrix(paper_A, b)
    assert (C.rows, C.cols) == (8, 8)
    assert rank_exact(C) == 8


def test_ctrb_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        controllability_matrix(
            DenseMatrix.identity(2), DenseMatrix([[1], [0], [0]])
        )
    with pytest.raises(InvalidInputError):
        controllability_matrix(
            DenseMatrix([[1, 2, 3], [4, 5, 6]]),
            DenseMatrix([[1], [1]]),
        )


def test_ctrb_matrix_input_block_order():
    A = DenseMatrix([[0, 1], [0, 0]])
    B = DenseMatrix([[1, 0], [0, 1]])
    C = controllability_matrix(A, B)
    assert C == RationalMatrix.from_rows([[1, 0, 0, 1], [0, 1, 0, 0]])


# --- ranks -------------------------------------------------------------------

def test_rank_exact_basics(paper_V):
    assert rank_exact(RationalMatrix.from_rows([[0] * 3] * 3)) == 0
    assert rank_exact(RationalMatrix.identity(3)) == 3
    assert rank_exact(paper_V) == 8


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 8),
    st.integers(0, 10**6),
    st.booleans(),
)
def test_rank_exact_matches_numeric_on_small_integers(n, seed, deficient):
    # integer entries of magnitude <= 1000 convert to float exactly, so
    # numpy's float rank is an independent reference for the exact one
    rng = random.Random(seed)
    rows = [[rng.randint(-1000, 1000) for _ in range(n)] for _ in range(n)]
    if deficient:
        rows[-1] = [x + y for x, y in zip(rows[0], rows[1 % n])]
    exact = rank_exact(RationalMatrix.from_rows(rows))
    numeric = int(np.linalg.matrix_rank(np.array(rows, dtype=np.float64)))
    assert exact == numeric


# --- left eigensystem ---------------------------------------------------------

def test_left_eigensystem_diagonal():
    eig = left_eigensystem(DenseMatrix.diagonal([1, 2, 3]))
    assert np.allclose(sorted(eig.eigenvalues.real), [1, 2, 3])
    # the smallest gap, 1, must lie above the threshold
    assert left_eigensystem(DenseMatrix.diagonal([1, 2, 3]), cluster_gap=0.99).n == 3
    with pytest.raises(BackendPreconditionError, match="gap 1.000e[+]00 is below"):
        left_eigensystem(DenseMatrix.diagonal([1, 2, 3]), cluster_gap=1.0)
    # rows should be (signed) standard basis vectors
    for row in eig.left_eigenvectors:
        assert np.isclose(np.max(np.abs(row)), 1.0)
        assert np.isclose(np.linalg.norm(row), 1.0)


def test_left_eigensystem_takes_a_rational_matrix(paper_A):
    rational = left_eigensystem(paper_A)
    dense = left_eigensystem(as_dense(paper_A))
    assert np.array_equal(rational.eigenvalues, dense.eigenvalues)
    assert np.array_equal(rational.left_eigenvectors, dense.left_eigenvectors)


def test_left_eigensystem_reduction_instance(paper_instance, paper_V):
    red = build_reduction(paper_instance)
    eig = left_eigensystem(as_dense(red.system_matrix))
    assert np.allclose(eig.eigenvalues.real, np.arange(1, 9), atol=1e-8)
    assert np.allclose(eig.eigenvalues.imag, 0, atol=1e-10)
    # eigenvector for eigenvalue k is parallel to row k of the eigenvector matrix
    for k in range(8):
        expected = np.array([float(x) for x in paper_V.data[k]])
        expected = expected / np.linalg.norm(expected)
        got = eig.left_eigenvectors[k].real
        cosine = abs(np.dot(expected, got))
        assert cosine == pytest.approx(1.0, abs=1e-9)


def test_left_eigensystem_residuals_well_conditioned():
    rng = np.random.default_rng(5)
    for _ in range(10):
        arr = rng.normal(size=(6, 6))
        _, vecs = np.linalg.eig(arr.T)
        if np.linalg.cond(vecs) > 1e6:
            continue
        eig = left_eigensystem(DenseMatrix(arr))
        residuals = [
            np.linalg.norm(v @ arr - lam * v)
            for v, lam in zip(eig.left_eigenvectors, eig.eigenvalues)
        ]
        assert max(residuals) <= 1e-8


def test_left_eigensystem_requires_square():
    with pytest.raises(InvalidInputError):
        left_eigensystem(DenseMatrix([[1, 2, 3], [4, 5, 6]]))


def test_left_eigensystem_rejects_a_nan_residual(monkeypatch):
    # `residual > tolerance` is false for a NaN residual, which would let a
    # NaN eigenvalue, and the NaN gap it gives, through to the PBH counts
    original = np.linalg.eig

    def nan_entry(a):
        values, vectors = original(a)
        values[0] = np.nan
        return values, vectors

    monkeypatch.setattr(np.linalg, "eig", nan_entry)
    with pytest.raises(NumericBackendError, match="residual nan"):
        left_eigensystem(DenseMatrix.diagonal([1, 2, 3]))


@pytest.mark.parametrize("gap", [10**400, Fraction(10**400, 3)], ids=["int", "fraction"])
def test_left_eigensystem_rejects_a_gap_past_float64(gap):
    # the gap check compares and formats the threshold as a float
    with pytest.raises(InvalidInputError, match="cluster_gap must be a positive number"):
        left_eigensystem(DenseMatrix.diagonal([1, 2, 3]), cluster_gap=gap)
    # a float infinity is a threshold no gap meets, even a 1 x 1 matrix's
    for diagonal in ([1, 2], [7]):
        with pytest.raises(BackendPreconditionError, match="threshold inf;"):
            left_eigensystem(DenseMatrix.diagonal(diagonal), cluster_gap=math.inf)


# --- PBH operations -----------------------------------------------------------

def column(*entries) -> DenseMatrix:
    return DenseMatrix([[x] for x in entries])


def test_pbh_rank_diag():
    eig = left_eigensystem(DenseMatrix.diagonal([1, 2]))
    assert pbh_controllability_rank(eig, column(1, 1)) == 2
    assert pbh_controllability_rank(eig, column(1, 0)) == 1


def test_pbh_rank_paper_example(paper_instance):
    red = build_reduction(paper_instance)
    eig = left_eigensystem(as_dense(red.system_matrix))
    assert pbh_controllability_rank(eig, column(1, 1, 0, 0, 0, 0, 0, 1)) == 8


def test_pbh_rank_rejects_repeated_eigenvalues():
    # a repeated spectrum has no decomposition to count with
    with pytest.raises(
        BackendPreconditionError,
        match="gap 0.000e[+]00 is below the distinctness threshold 1.000e-02",
    ):
        left_eigensystem(DenseMatrix.identity(2))


def test_require_distinct_spectrum_rejects_a_nan_gap(monkeypatch):
    # `gap <= cluster_gap` is false for a NaN gap, which would accept it; the
    # residual check rejects NaN eigenvalues first, so the gap is forced here
    monkeypatch.setattr(np, "min", lambda _: math.nan)
    with pytest.raises(BackendPreconditionError, match="eigenvalue gap nan"):
        left_eigensystem(DenseMatrix.diagonal([1, 2, 3]))


@pytest.mark.parametrize(
    "gap", [True, "0.01", 0, 0.0, -0.5, float("nan")], ids=repr
)
def test_left_eigensystem_rejects_bad_cluster_gap(gap):
    # the gap decides whether PBH accepts a spectrum; `x <= nan` is false,
    # so a NaN gap would otherwise accept every repeated eigenvalue
    with pytest.raises(InvalidInputError, match="cluster_gap"):
        left_eigensystem(DenseMatrix.identity(2), cluster_gap=gap)
    with pytest.raises(BackendPreconditionError):
        left_eigensystem(DenseMatrix.identity(2))


def test_pbh_rank_takes_columns_rows_and_matrices():
    # B is a matrix with one row per state: a column, or several; a row
    # vector is rejected, as controllability_rank rejects it
    eig = left_eigensystem(DenseMatrix.diagonal([1, 2, 3]))
    for b in (column(1, 0, 1), DenseMatrix(np.array([[1.0], [0.0], [1.0]])),
              RationalMatrix.from_rows([[1], [0], [1]])):
        assert pbh_controllability_rank(eig, b) == 2
    # each column has its own tolerance: a tiny column still counts
    B = DenseMatrix(np.array([[1.0, 0.0], [0.0, 1e-12], [0.0, 0.0]]))
    assert pbh_controllability_rank(eig, B) == 2
    for bad in ([[1, 0, 1]], [[1], [0]], np.ones((2, 3))):
        with pytest.raises(InvalidInputError, match="rows but A is 3x3"):
            pbh_controllability_rank(eig, DenseMatrix(np.array(bad)))
    for bad in (np.ones((3, 0)), np.ones((1, 1, 3))):
        with pytest.raises(InvalidInputError):
            pbh_controllability_rank(eig, DenseMatrix(bad))
    # a list or an array is not a matrix
    for bad in ([1, 0, 1], np.array([[1.0], [0.0], [1.0]])):
        with pytest.raises(InvalidInputError, match="expected a matrix"):
            pbh_controllability_rank(eig, bad)


@pytest.mark.parametrize(
    "B",
    [
        DenseMatrix([[1, 0, 1]]),
        RationalMatrix.from_rows([[1, 0, 1]]),
        DenseMatrix([[1], [1]]),
    ],
    ids=["dense-row", "rational-row", "two-rows"],
)
def test_pbh_rank_rejects_the_inputs_controllability_rank_rejects(B):
    A = DenseMatrix.diagonal([1, 2, 3])
    messages = []
    for rank in (
        lambda: pbh_controllability_rank(left_eigensystem(A), B),
        lambda: controllability_rank(A, B, "pbh"),
    ):
        with pytest.raises(InvalidInputError) as exc:
            rank()
        messages.append(str(exc.value))
    assert messages == [f"B has {B.rows} rows but A is 3x3"] * 2


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_pbh_rank_rejects_non_finite_vector(bad):
    # every comparison with NaN is false, so no threshold count means anything;
    # a non-finite B never becomes a matrix to count with
    eig = left_eigensystem(DenseMatrix.diagonal([1, 2, 3]))
    with pytest.raises(InvalidInputError, match="must be finite"):
        pbh_controllability_rank(eig, column(bad, 0, 0))
    with pytest.raises(InvalidInputError, match="must be finite"):
        pbh_controllability_rank(eig, DenseMatrix(np.array([[bad], [0.0], [0.0]])))


@pytest.mark.parametrize(
    "B",
    [
        RationalMatrix.from_rows([[Fraction(1, 3)], [0], [2]]),
        RationalMatrix.from_rows([[Fraction(1, 3), 0], [0, 0], [0, Fraction(-5, 7)]]),
        # columns of two, zero and three nonzeros: the first reaches only the
        # eigenvalue-2 row and the last only the eigenvalue-3 row
        RationalMatrix.from_rows(
            [[Fraction(1, 3), 0, Fraction(-1, 2)], [Fraction(1, 3), 0, -1], [0, 0, -1]]
        ),
        [["a"], ["b"], ["c"]],
        [[None], [None], [None]],
        [[1], [2, 3], [4]],
    ],
    ids=["rational-column", "rational-matrix", "several-nonzeros", "strings", "nones", "ragged"],
)
def test_pbh_rank_takes_rational_input_and_rejects_non_numbers(B):
    # non-numbers never become a matrix to count with, dense or rational
    A = DenseMatrix([[1, 1, 0], [0, 2, 1], [0, 0, 3]])
    eig = left_eigensystem(A)
    if isinstance(B, RationalMatrix):
        rank = pbh_controllability_rank(eig, B)
        assert rank == controllability_rank(A, B, "pbh") == controllability_rank(A, B, "exact")
        return
    for matrix in (DenseMatrix, RationalMatrix.from_rows):
        with pytest.raises(InvalidInputError):
            pbh_controllability_rank(eig, matrix(B))

def test_pbh_support_test_basics(paper_V):
    eye = RationalMatrix.identity(3)
    assert meets_every_row(eye, [0, 1, 2])
    assert not meets_every_row(eye, [0, 1])
    assert not meets_every_row(eye, [])
    assert meets_every_row(paper_V, [0, 1, 7])


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10**6))
def test_pbh_rank_matches_exact_rank(n, seed):
    # conjugate distinct integer eigenvalues by a unimodular matrix: entries
    # stay integers, so the float copy is exact and both routes must agree
    rng = random.Random(seed)
    P = random_unimodular(rng, n)
    D = RationalMatrix.diagonal(rng.sample(range(-8, 9), n))
    A = P @ D @ P.inverse()
    assert all(x.denominator == 1 for row in A.data for x in row)
    b = [rng.randint(-4, 4) for _ in range(n)]
    expected = rank_exact(
        controllability_matrix(A, RationalMatrix.from_rows([[x] for x in b]))
    )
    eig = left_eigensystem(as_dense(A))
    assert pbh_controllability_rank(eig, column(*b)) == expected
    # a multi-column input: one sparse 0/1 column beside b
    B = RationalMatrix.from_rows(
        [[x, int(rng.random() < 0.3)] for x in b]
    )
    expected = rank_exact(controllability_matrix(A, B))
    assert pbh_controllability_rank(eig, as_dense(B)) == expected
    assert pbh_controllability_rank(eig, B) == expected


# --- covered count ------------------------------------------------------------

def test_covered_count_single_block():
    spec = JordanSpec(
        block_eigenvalues=(Fraction(5),),
        block_sizes=(2,),
        t_inverse=RationalMatrix.identity(2),
    )
    assert covered_count(spec, [0, 1]) == 2
    assert covered_count(spec, [1, 0]) == 1
    assert covered_count(spec, [0, 0]) == 0


def test_covered_count_matches_exact_rank():
    rng = random.Random(77)
    for _ in range(30):
        spec = random_jordan_spec(rng, max_n=5)
        n = spec.n
        b = [rng.randint(-3, 3) for _ in range(n)]
        A = spec.system_matrix()
        C = controllability_matrix(A, RationalMatrix.from_rows([[x] for x in b]))
        assert covered_count(spec, b) == rank_exact(C)


def test_jordan_spec_validation():
    with pytest.raises(InvalidInputError):
        JordanSpec(
            block_eigenvalues=(Fraction(1), Fraction(1)),
            block_sizes=(1, 1),
            t_inverse=RationalMatrix.identity(2),
        )
    with pytest.raises(InvalidInputError):
        JordanSpec(
            block_eigenvalues=(Fraction(1),),
            block_sizes=(2,),
            t_inverse=RationalMatrix.from_rows([[1, 1], [2, 2]]),
        )
