"""Exact construction checks: golden matrices, identities, extensions."""

import hashlib
import json
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import minctrl.reductions
from helpers import random_instance
from minctrl.errors import InternalVerificationError, InvalidInputError, is_integer
from minctrl.linalg import rank_exact
from minctrl.matrices import (
    RationalMatrix,
    integer_form,
    matrix_to_json_dict,
    primitive_vector,
    scale_to_integers,
)
from minctrl.reductions import (
    HittingSetInstance,
    build_reduction,
    build_symmetric_extension,
    orthogonal_extension,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import planted_instance  # noqa: E402


# --- instance validation ------------------------------------------------------

def test_instance_rejects_empty_set():
    with pytest.raises(InvalidInputError, match="set #2"):
        HittingSetInstance.from_sets(2, [[1, 2], []])


def test_instance_rejects_uncovered_element():
    with pytest.raises(InvalidInputError, match="element 3"):
        HittingSetInstance.from_sets(3, [[1, 2]])


def test_instance_rejects_uncovered_element_without_building_the_ground_set():
    tracemalloc.start()  # a 30-byte file may name a ground set of millions
    try:
        with pytest.raises(InvalidInputError, match="element 2 appears in no set"):
            HittingSetInstance.from_json_dict({"m": 2 * 10**6, "sets": [[1]]})
        assert tracemalloc.get_traced_memory()[1] < 2**20  # peak bytes
    finally:
        tracemalloc.stop()


def test_instance_rejects_out_of_range():
    with pytest.raises(InvalidInputError, match="out-of-range"):
        HittingSetInstance.from_sets(2, [[1, 2, 5]])


@pytest.mark.parametrize(
    "obj",
    [
        {"m": 2, "sets": [["1", 2]]},
        {"m": 2, "sets": [[1.0, 2]]},
        {"m": 2, "sets": [[1.5, 2], [1, 2]]},
        {"m": 2, "sets": [[1, None]]},
        {"m": 2, "sets": [[True, 2]]},
        {"m": 2, "sets": [[1, True], [2]]},
        {"m": 3.7, "sets": [[1, 2, 3]]},
        {"m": True, "sets": [[1]]},
        {"m": "2", "sets": [[1, 2]]},
        {"m": 2.0, "sets": [[1, 2]]},
        {"m": None, "sets": [[1, 2]]},
        {"m": 2, "sets": [1, 2]},
        {"m": 2, "sets": [[1], 2]},
        {"m": 2, "sets": "12"},
        {"sets": [[1]]},
    ],
)
def test_instance_rejects_malformed_json(obj):
    with pytest.raises(InvalidInputError):
        HittingSetInstance.from_json_dict(obj)


def test_instance_rejects_non_integers_outside_json():
    with pytest.raises(InvalidInputError, match="non-integer element True"):
        HittingSetInstance.from_sets(2, [[1, True], [2]])
    with pytest.raises(InvalidInputError, match="non-integer element 1.5"):
        HittingSetInstance(2, (frozenset({1.5, 2}),))
    with pytest.raises(InvalidInputError, match="ground set size"):
        HittingSetInstance(True, (frozenset({1}),))


def test_instance_json_round_trip(paper_instance):
    obj = paper_instance.to_json_dict()
    assert obj["m"] == 3
    assert HittingSetInstance.from_json_dict(obj) == paper_instance


# --- eigenvector matrix -----------------------------------------------------------

def test_eigenvector_matrix_paper(paper_instance, paper_V):
    V = build_reduction(paper_instance).left_eigenvectors
    assert V == paper_V
    # spot-check the block layout: set rows carry m+1 on the diagonal and the
    # incidence row of their set, and the element rows share the trailing
    # ones column
    assert V.data[3][3] == 4
    assert V.data[0][7] == 1


def test_eigenvector_matrix_single_set():
    V = build_reduction(HittingSetInstance.from_sets(1, [[1]])).left_eigenvectors
    assert V == RationalMatrix.from_rows([[2, 0, 1], [1, 2, 0], [0, 0, 1]])


def test_eigenvector_matrix_full_rank_random():
    rng = random.Random(4)
    for _ in range(20):
        inst = random_instance(rng)
        V = build_reduction(inst).left_eigenvectors
        assert rank_exact(V) == inst.state_dim


# --- reduction -------------------------------------------------------------------

def test_build_reduction_paper_golden(paper_instance, paper_A):
    red = build_reduction(paper_instance)
    assert red.system_matrix == paper_A
    assert red.to_json_dict() == {
        "eigenvalues": list(range(1, 9)),
        "elements": [0, 1, 2],
        "sets": [3, 4, 5, 6],
        "anchor": 7,
    }


def test_build_reduction_single_set():
    red = build_reduction(HittingSetInstance.from_sets(1, [[1]]))
    V, A = red.left_eigenvectors, red.system_matrix
    D = RationalMatrix.diagonal([1, 2, 3])
    assert V @ A == D @ V  # rows of V are exact left eigenvectors


def test_left_eigenvector_identity_random():
    rng = random.Random(8)
    for _ in range(15):
        inst = random_instance(rng)
        red = build_reduction(inst)
        n = inst.state_dim
        D = RationalMatrix.diagonal(list(range(1, n + 1)))
        assert red.left_eigenvectors @ red.system_matrix == D @ red.left_eigenvectors


# --- closed-form inverse -----------------------------------------------------------

def _inverse(inst: HittingSetInstance) -> RationalMatrix:
    """The closed-form inverse of the instance's eigenvector matrix."""
    return RationalMatrix.from_integers(*minctrl.reductions._inverse_rows(inst))


def test_inverse_closed_form_paper_entries(paper_instance):
    M = _inverse(paper_instance)
    assert M.data[0][0] == Fraction(1, 2)
    assert M.data[0][7] == Fraction(-1, 2)
    # first set {1,2}: |S| = 2, m+1 = 4 -> anchor entry 2/8 = 1/4
    assert M.data[3][7] == Fraction(1, 4)
    assert M.data[3][3] == Fraction(1, 4)
    assert M.data[3][0] == Fraction(-1, 8)


def test_inverse_closed_form_equals_elimination_random():
    rng = random.Random(15)
    for _ in range(15):
        inst = random_instance(rng)
        assert _inverse(inst) == build_reduction(inst).left_eigenvectors.inverse()


def test_inverse_sparsity_pattern(paper_instance):
    # same nonzero pattern as the eigenvector matrix except the anchor column
    V = build_reduction(paper_instance).left_eigenvectors
    M = _inverse(paper_instance)
    n = V.rows
    for i in range(n):
        for j in range(n - 1):
            assert (V.data[i][j] != 0) == (M.data[i][j] != 0)
    assert all(M.data[i][n - 1] != 0 for i in range(n))


# --- orthogonal extension ----------------------------------------------------------

def test_orthogonal_extension_simple():
    U, L = orthogonal_extension([[0, 1]])
    assert (U, L) == ([[1, 0]], 1)
    # squared norms past 2**63 do not overflow when the entries are int64
    big = [0, 2**40 + 1, 3**25]
    assert orthogonal_extension([np.array(big, dtype=np.int64)]) == orthogonal_extension([big])


@pytest.mark.parametrize(
    "vectors",
    [
        [[0, 1, -1]],
        [[0, 1, 1, 0], [0, 1, -1, 0]],
        [[0, 2, 0, 3, 0]],
    ],
)
def test_orthogonal_extension_postconditions(vectors):
    U, L = orthogonal_extension(vectors)
    n = len(vectors[0])
    assert len(U) == n - len(vectors)
    assert is_integer(L) and L > 0
    assert all(is_integer(x) for u in U for x in u)
    # the rows of U / L are orthogonal where those of U are, since L > 0
    everything = vectors + U
    for i, v in enumerate(everything):
        for w in everything[i + 1 :]:
            assert sum(a * b for a, b in zip(v, w)) == 0
    for u in U:
        assert u[0] != 0


def test_orthogonal_extension_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        orthogonal_extension([[1, 0]])  # nonzero first coordinate
    with pytest.raises(InvalidInputError):
        orthogonal_extension([[0, 1, 0], [0, 1, 1]])  # not orthogonal
    with pytest.raises(InvalidInputError):
        orthogonal_extension([[0, 1], [0, 2]])  # k = n and dependent
    for entry in (True, 1.0, Fraction(1), Fraction(1, 2)):
        with pytest.raises(InvalidInputError, match="non-integer"):
            orthogonal_extension([[0, 1, 0], [0, 0, entry]])


# --- symmetric extension ------------------------------------------------------------

def test_symmetric_extension_single_set():
    inst = HittingSetInstance.from_sets(1, [[1]])
    sym = build_symmetric_extension(inst)
    r = 1 + 1 + 2 + 3  # elements + sets + anchor/final + pairs of 3 rows
    assert sym.left_eigenvectors.rows == 7 == r
    assert sym.system_matrix.is_symmetric()
    assert sym.to_json_dict()["eigenvalues"] == list(range(1, 8))


def test_symmetric_extension_rows_orthogonal(paper_instance):
    rng = random.Random(23)
    for inst in [
        HittingSetInstance.from_sets(1, [[1]]),
        HittingSetInstance.from_sets(2, [[1, 2]]),
        random_instance(rng, max_m=2, max_p=2),
    ]:
        sym = build_symmetric_extension(inst)
        V = sym.left_eigenvectors
        gram = V @ V.transpose()
        for i in range(V.rows):
            for j in range(V.rows):
                if i != j:
                    assert gram.data[i][j] == 0
                else:
                    assert gram.data[i][j] > 0


def test_symmetric_extension_restriction_equals_original():
    inst = HittingSetInstance.from_sets(2, [[1, 2]])
    V = build_reduction(inst).left_eigenvectors
    sym = build_symmetric_extension(inst)
    k = inst.state_dim
    for i in range(k):
        assert sym.left_eigenvectors.data[i][:k] == V.data[i]


def test_symmetric_extension_eigen_identity():
    inst = HittingSetInstance.from_sets(2, [[1, 2]])
    sym = build_symmetric_extension(inst)
    r = sym.left_eigenvectors.rows
    D = RationalMatrix.diagonal(list(range(1, r + 1)))
    assert sym.left_eigenvectors @ sym.system_matrix == D @ sym.left_eigenvectors


def test_symmetric_extension_column_map():
    inst = HittingSetInstance.from_sets(1, [[1]])
    sym = build_symmetric_extension(inst)
    index_map = sym.to_json_dict()
    assert index_map["pair_columns"] == [
        {"pair": [1, 2], "column": 3},
        {"pair": [1, 3], "column": 4},
        {"pair": [2, 3], "column": 5},
    ]
    assert index_map["final_column"] == 6


# --- integer arithmetic: byte identity, guards and certificates ---------------------

def _sha256(mat: RationalMatrix) -> str:
    return hashlib.sha256(json.dumps(matrix_to_json_dict(mat)).encode()).hexdigest()


# sha256 of ``json.dumps(matrix_to_json_dict(M))``, recorded once with the
# Fraction-arithmetic builders that preceded the integer kernels (dense
# ``Fraction`` products, Gauss-Jordan inverse, ``Fraction`` Gram-Schmidt).
# None of these sizes is run by the benchmark.
BYTE_IDENTITY = {
    "golden-r37": (
        (3, [[1, 2], [2, 3], [1, 3], [1, 2, 3]]),
        {
            "V": "b10ba2b997b7b97453e526559672e74a0b42f7637f8d5d82f97e913eb37d79d4",
            "A": "ea7e028d6a95950718b84f85dfe08917e02070ad62dc8f9736dabae75dc3ed00",
            "V_hat": "4cd2334fda68fa05392c712cc0c896fa5285b9b43c353ffda78bddbb178555a0",
            "A_hat": "1fc3652f5b389e31fb32eee9ca4c5001baac6ffb0540bd9fd573387c8013c921",
        },
    ),
    "base9-r46": (
        (4, [[1, 2], [2, 3], [3, 4], [1, 4]]),
        {
            "V": "32aa00f9cf92b5c1d5708d2fcab1a547d902eefb7648affc85e4aefa25a09e6e",
            "A": "d0241f86fd1f1bfa3218900301323abca012a93ab1560a3665797f06c768c8b3",
            "V_hat": "9fdc2d1fe7630948d5f3390e1e66eb63f30675e93c0082735b257cee1f7dc2f3",
            "A_hat": "05998787522e276ab426d198d72429c9ed73971de494f42aae95aaa127d0360d",
        },
    ),
    "planted-n100": (
        None,  # planted_instance(random.Random(1), 30, 69, 5)
        {
            "V": "da8d4265e1a757f04aba9da0ccbd137c957604815bce844c2ae7bb2d8f23ce86",
            "A": "eee2ec67f50fb6216577e799426f65ff901b62c2d9ccbcefe1473be56a8d451f",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(BYTE_IDENTITY))
def test_reductions_byte_identical_to_fraction_builders(name):
    sets, expected = BYTE_IDENTITY[name]
    if sets is None:
        inst = HittingSetInstance.from_json_dict(planted_instance(random.Random(1), 30, 69, 5))
    else:
        inst = HittingSetInstance.from_sets(*sets)
    red = build_reduction(inst)
    got = {"V": _sha256(red.left_eigenvectors), "A": _sha256(red.system_matrix)}
    if "V_hat" in expected:
        sym = build_symmetric_extension(inst)
        got["V_hat"] = _sha256(sym.left_eigenvectors)
        got["A_hat"] = _sha256(sym.system_matrix)
    assert got == expected


def _fdot(a, b):
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _fraction_extension(vectors):
    """``orthogonal_extension`` as it was in ``Fraction`` arithmetic, without
    its input checks and postconditions: the reference for the integer one."""
    vecs = [tuple(Fraction(x) for x in v) for v in vectors]
    n, k = len(vecs[0]), len(vecs)
    basis = vecs + [tuple(Fraction(int(t == 0)) for t in range(n))]
    for axis in range(1, n):
        if len(basis) == n:
            break
        cand = [Fraction(int(t == axis)) for t in range(n)]
        for w in basis:
            coeff = _fdot(cand, w) / _fdot(w, w)
            if coeff:
                cand = [c - coeff * x for c, x in zip(cand, w)]
        if any(cand):
            basis.append(tuple(cand))
    for l in range(k + 1, n):
        if basis[l][0] != 0:
            continue
        a, u = basis[k], basis[l]
        c = _fdot(a, a) / _fdot(u, u)
        basis[l] = tuple(c * x + y for x, y in zip(u, a))
        basis[k] = tuple(y - x for x, y in zip(u, a))
    return basis[k:]


_SMALL_FRACTION = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
)


@st.composite
def _orthogonal_inputs(draw):
    """1..n-1 pairwise-orthogonal rational vectors with first coordinate zero,
    each rescaled by a nonzero rational."""
    n = draw(st.integers(2, 7))
    raw = draw(
        st.lists(
            st.lists(_SMALL_FRACTION, min_size=n - 1, max_size=n - 1),
            min_size=1,
            max_size=n - 1,
        )
    )
    vecs = []
    for tail in raw:
        v = [Fraction(0)] + tail
        for w in vecs:
            coeff = _fdot(v, w) / _fdot(w, w)
            v = [x - coeff * y for x, y in zip(v, w)]
        if any(v):
            vecs.append(v)
    assume(vecs)
    scales = st.builds(Fraction, st.integers(1, 7) | st.integers(-7, -1), st.integers(1, 5))
    return [[c * x for x in v] for c, v in ((draw(scales), v) for v in vecs)]


@settings(max_examples=200, deadline=None)
@given(_orthogonal_inputs())
def test_orthogonal_extension_equals_fraction_gram_schmidt(vectors):
    # Positive integer multiples of the rational vectors span the same lines.
    U, L = orthogonal_extension([scale_to_integers(v)[0] for v in vectors])
    assert [tuple(Fraction(x, L) for x in u) for u in U] == _fraction_extension(vectors)


@pytest.fixture()
def no_elimination(monkeypatch):
    def refuse(self):
        raise AssertionError("RationalMatrix.inverse was called")

    monkeypatch.setattr(RationalMatrix, "inverse", refuse)


def test_builders_never_eliminate(no_elimination, paper_instance, paper_A):
    assert build_reduction(paper_instance).system_matrix == paper_A
    assert build_symmetric_extension(paper_instance).system_matrix.is_symmetric()
    small, large = (
        HittingSetInstance.from_json_dict(planted_instance(random.Random(5), m, p, k))
        for m, p, k in [(2, 2, 1), (8, 13, 3)]
    )
    build_reduction(large)
    build_reduction(small)
    assert build_symmetric_extension(small).system_matrix.is_symmetric()


def _perturbed(rows: list[list[int]], i: int, j: int) -> list[list[int]]:
    """A copy of integer rows with entry ``(i, j)`` raised by one."""
    out = [list(row) for row in rows]
    out[i][j] += 1
    return out


def test_closed_form_inverse_certified_as_right_inverse(monkeypatch, paper_instance):
    W = _perturbed(minctrl.reductions._eigenvector_rows(paper_instance), 3, 1)
    monkeypatch.setattr(minctrl.reductions, "_eigenvector_rows", lambda inst: W)
    # the build proves W U == L I through its certificate
    with pytest.raises(InternalVerificationError, match="left-eigenvector identity"):
        build_reduction(paper_instance)


@pytest.mark.parametrize("entry", [(0, 0), (3, 1), (7, 7), (5, 7)])
def test_corrupted_inverse_fails_left_eigenvector_identity(monkeypatch, paper_instance, entry):
    certified = minctrl.reductions._inverse_rows

    def corrupted(inst):
        U, L = certified(inst)
        return _perturbed(U, *entry), L

    monkeypatch.setattr(minctrl.reductions, "_inverse_rows", corrupted)
    with pytest.raises(InternalVerificationError, match="left-eigenvector identity"):
        build_reduction(paper_instance)


def _spy_on_builds(monkeypatch) -> Counter:
    """Count a build's eigenvector-row builds, integer products, conversions
    from ``Fraction`` to integer matrices and vectors, and ``from_rows`` calls."""
    calls: Counter = Counter()

    def spy(owner, name):
        real = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, counted)

    spy(minctrl.reductions, "_eigenvector_rows")
    spy(minctrl.reductions, "integer_product")
    for name in ("scale_to_integers", "integer_form"):
        for module in (minctrl.matrices, minctrl.reductions):
            if hasattr(module, name):
                spy(module, name)
    from_rows = RationalMatrix.from_rows

    def counted_from_rows(cls, rows):
        calls["from_rows"] += 1
        return from_rows(rows)

    monkeypatch.setattr(RationalMatrix, "from_rows", classmethod(counted_from_rows))
    return calls


def test_builds_stay_in_integers(monkeypatch, paper_instance):
    planted = HittingSetInstance.from_json_dict(planted_instance(random.Random(5), 8, 13, 3))
    calls = _spy_on_builds(monkeypatch)
    for inst, n in [(paper_instance, 8), (planted, 22)]:
        assert build_reduction(inst).system_matrix.rows == n
        # one row build; the conjugation and the certificate, which also
        # proves the inverse; no scale_to_integers or integer_form
        assert calls == Counter(_eigenvector_rows=1, integer_product=2)
        calls.clear()
    for sets, r in [((2, [[1, 2]]), 11), ((3, [[1, 2], [2, 3]]), 22)]:
        sym = build_symmetric_extension(HittingSetInstance.from_sets(*sets))
        assert sym.system_matrix.rows == r
        # one row build and the certificate; no scale_to_integers or integer_form
        assert calls == Counter(_eigenvector_rows=1, integer_product=1)
        calls.clear()


@pytest.mark.parametrize("sets", [(1, [[1]]), (2, [[1, 2]])])
def test_symmetric_system_matrix_shares_equal_entries(sets):
    A_hat = build_symmetric_extension(HittingSetInstance.from_sets(*sets)).system_matrix
    r = A_hat.rows
    assert all(A_hat.data[i][j] is A_hat.data[j][i] for i in range(r) for j in range(i))
    # equal values share one object, wherever they sit (at r = 7, off the mirror too)
    by_value = {}
    for row in A_hat.data:
        for x in row:
            assert by_value.setdefault(x, x) is x


@pytest.mark.parametrize("sets", [(1, [[1]]), (2, [[1, 2]]), (3, [[1, 2], [2, 3]])])
def test_symmetric_eigenvectors_share_equal_entries(sets):
    # r = 7, 11 and 22: the padded rows and the completion share one object per value
    V_hat = build_symmetric_extension(HittingSetInstance.from_sets(*sets)).left_eigenvectors
    by_value = {}
    for row in V_hat.data:
        for x in row:
            assert by_value.setdefault(x, x) is x


def test_saved_texts_are_each_entrys_str(paper_instance):
    sym = build_symmetric_extension(paper_instance)
    red = build_reduction(paper_instance)
    for M in (red.left_eigenvectors, red.system_matrix, sym.left_eigenvectors, sym.system_matrix):
        assert matrix_to_json_dict(M)["data"] == [str(x) for row in M.data for x in row]


# --- integer conjugation: differential check, guards and certificates -------------

def _fmatmul(X, Y):
    """Dense ``Fraction`` product of two matrices given as lists of rows."""
    return [[_fdot(row, col) for col in zip(*Y)] for row in X]


def _fraction_conjugation(V, V_inv):
    """``V_inv diag(1..n) V`` in dense ``Fraction`` arithmetic."""
    D = [[Fraction(i + 1) if i == j else Fraction(0) for j in range(len(V))] for i in range(len(V))]
    return _fmatmul(_fmatmul(V_inv, D), V)


def _fraction_reduction(inst):
    """``(V, A)`` of the plain build, with the Gauss-Jordan inverse of ``V``."""
    m, n = inst.ground_size, inst.state_dim
    V = [[Fraction(0)] * n for _ in range(n)]
    for i in range(m):
        V[i][i], V[i][n - 1] = Fraction(2), Fraction(1)
    for i, s in enumerate(inst.sets):
        for e in s:
            V[m + i][e - 1] = Fraction(1)
        V[m + i][m + i] = Fraction(m + 1)
    V[n - 1][n - 1] = Fraction(1)
    V_inv = [list(row) for row in RationalMatrix.from_rows(V).inverse().data]
    return V, _fraction_conjugation(V, V_inv)


def _fraction_symmetric_extension(inst):
    """``(V_hat, A_hat)`` in ``Fraction`` arithmetic: pair columns, the
    ``Fraction`` Gram-Schmidt completion, and the inverse ``V_hat^T / |v_hat|^2``."""
    V, _ = _fraction_reduction(inst)
    base = len(V)
    pairs = [(i, j) for i in range(base) for j in range(i + 1, base)]
    r = base + 1 + len(pairs)
    rows = [row + [Fraction(0)] * (r - base) for row in V]
    for col, (i, j) in enumerate(pairs, start=base):
        inner = _fdot(V[i], V[j])
        if inner:
            rows[i][col], rows[j][col] = Fraction(1), -inner
    swap = lambda v: [v[-1]] + list(v[1:-1]) + [v[0]]  # noqa: E731
    V_hat = rows + [swap(v) for v in _fraction_extension([swap(row) for row in rows])]
    V_hat_inv = [[V_hat[j][i] / _fdot(V_hat[j], V_hat[j]) for j in range(r)] for i in range(r)]
    return V_hat, _fraction_conjugation(V_hat, V_hat_inv)


@pytest.fixture()
def no_rational_products(monkeypatch):
    def refuse(self, other):
        raise AssertionError("RationalMatrix.__matmul__ was called")

    monkeypatch.setattr(RationalMatrix, "__matmul__", refuse)


def _rows(mat: RationalMatrix) -> list[list[Fraction]]:
    return [list(row) for row in mat.data]


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(seed=st.integers(0, 2**32 - 1), symmetric=st.booleans())
def test_builders_equal_fraction_reference(no_rational_products, seed, symmetric):
    rng = random.Random(seed)
    if symmetric:  # r <= 22
        inst = random_instance(rng, max_m=3, max_p=2)
        sym = build_symmetric_extension(inst)
        V_hat, A_hat = _fraction_symmetric_extension(inst)
        assert _rows(sym.left_eigenvectors) == V_hat
        assert _rows(sym.system_matrix) == A_hat
    else:
        inst = random_instance(rng, max_m=6, max_p=7)
        red = build_reduction(inst)
        V, A = _fraction_reduction(inst)
        assert _rows(red.left_eigenvectors) == V
        assert _rows(red.system_matrix) == A


def test_perturbed_extension_fails_gram_check(monkeypatch):
    inst = HittingSetInstance.from_sets(2, [[1, 2]])
    real = orthogonal_extension

    def perturbed(vectors):
        U, L = real(vectors)
        U[1][2] += 1
        return U, L

    monkeypatch.setattr(minctrl.reductions, "orthogonal_extension", perturbed)
    with pytest.raises(InternalVerificationError, match="left-eigenvector identity"):
        build_symmetric_extension(inst)


def _paper_conjugation_inputs(paper_instance):
    """Integer ``W = V``, ``U = 8 V^{-1}`` and ``L = 8`` for the golden instance."""
    V = build_reduction(paper_instance).left_eigenvectors
    W = [[int(x) for x in row] for row in V.data]
    U = [[int(8 * x) for x in row] for row in V.inverse().data]
    return W, U, 8


def test_conjugated_diagonal_takes_any_positive_row_scaling(paper_instance, paper_A):
    W, U, L = _paper_conjugation_inputs(paper_instance)
    conjugate = minctrl.reductions._conjugated_diagonal
    assert conjugate(W, U, L) == paper_A
    # W' = S W and U' = U diag(2 / s) give W' U' = 2L I and the same A.
    s = [1 + i % 2 for i in range(len(W))]
    W2 = [[s[i] * x for x in row] for i, row in enumerate(W)]
    U2 = [[x * (2 // s[k]) for k, x in enumerate(row)] for row in U]
    assert conjugate(W2, U2, 2 * L) == paper_A


@pytest.mark.parametrize("entry", [(0, 0), (3, 1), (7, 7), (5, 7), (2, 4)])
def test_changed_common_denominator_inverse_fails_left_eigenvector_identity(paper_instance, entry):
    W, U, L = _paper_conjugation_inputs(paper_instance)
    i, j = entry
    U[i][j] += 1
    with pytest.raises(InternalVerificationError, match="left-eigenvector identity"):
        minctrl.reductions._conjugated_diagonal(W, U, L)


def _symmetric_certificate_inputs():
    """Primitive rows ``W`` of ``V_hat`` and ``M = L A_hat`` for an r = 11 extension."""
    sym = build_symmetric_extension(HittingSetInstance.from_sets(2, [[1, 2]]))
    W = [primitive_vector(w) for w in integer_form(sym.left_eigenvectors)[0]]
    M, L = integer_form(sym.system_matrix)
    return W, M, L


@pytest.mark.parametrize(
    "entries",
    [[], [(0, 0)], [(6, 6)], [(1, 3), (3, 1)], [(0, 10), (10, 0)], [(2, 5)], [(9, 4)]],
)
def test_certificate_sees_mirrored_half_of_symmetric_extension(entries):
    W, M, L = _symmetric_certificate_inputs()
    certify = minctrl.reductions._certify_left_eigenvectors
    for i, j in entries:
        M[i][j] += 1
    if not entries:
        certify(W, M, L)
        return
    with pytest.raises(InternalVerificationError, match="left-eigenvector identity"):
        certify(W, M, L)


@pytest.mark.parametrize("sets", [(2, [[1, 2]]), (3, [[1, 2], [2, 3]]), (3, [[1, 2], [2, 3], [1, 3]])])
def test_symmetric_build_makes_one_integer_product(monkeypatch, sets):
    calls = []
    real = minctrl.reductions.integer_product

    def spy(X, Y):
        calls.append((len(X), len(Y)))
        return real(X, Y)

    monkeypatch.setattr(minctrl.reductions, "integer_product", spy)
    sym = build_symmetric_extension(HittingSetInstance.from_sets(*sets))
    r = sym.system_matrix.rows
    # The one product is the certificate over the full r x r matrix L A_hat.
    assert calls == [(r, r)]
