"""Compiling hitting-set instances into controllability instances.

Given a collection of sets over a ground set ``{1..m}``, these builders
produce an exact rational system matrix whose minimum actuator count equals
the minimum hitting-set size plus one. The construction goes through an
explicitly invertible left-eigenvector matrix:

* element rows: ``2`` on the diagonal plus a trailing all-ones column,
* set rows: the incidence row plus ``m+1`` on the diagonal,
* an anchor row that is the last standard basis vector,

which is strictly diagonally dominant by rows. The system matrix is then
conjugated from ``diag(1..m+p+1)``, so its left eigenvectors are exactly
those rows and its eigenvalues are ``1..m+p+1``.

A symmetric variant appends one column per row pair (cancelling their inner
product) plus a final column, then completes the rows to an exact orthogonal
basis; conjugating a diagonal from an orthogonal-row matrix is symmetric.

All arithmetic is exact; every construction re-verifies its own defining
identities before returning. The work runs on integers from the instance to
the returned matrices, with no ``RationalMatrix`` product and no round trip
through ``Fraction``: the integer eigenvector rows ``W`` are built once per
build, and ``Fraction`` entries are made only for the matrices returned.
Both builds write ``A`` as an integer matrix ``M`` over one common
denominator ``L`` and certify it with one shared integer product,
``W M == L diag(1..n) W`` for integer left-eigenvector rows ``W``. The plain
build conjugates: an integer ``U`` with ``W U = L I``, the closed-form
inverse of the eigenvector matrix (no elimination, and proved by the
certificate), gives ``M = U diag(1..n) W``. The symmetric build
pads ``W`` with its pair columns, completes the rows to an orthogonal
eigenvector matrix, takes their primitive rows, and with ``L`` the lcm of
the squared norms sums the symmetric ``M = sum_k k (L / |w_k|^2) w_k^T w_k``
(``k = 1..r``) as rank-one updates over its upper triangle only. The lower
triangle is mirrored before the certificate, which checks the whole of
``M``. ``RationalMatrix.from_integers`` makes one ``Fraction`` per distinct
entry of ``M``, so an entry and its mirror share one object, and saving a
matrix writes each object's text once. The orthogonal completion takes
integer vectors and returns integer rows ``U`` over one positive
denominator, carrying each vector as an integer numerator over its own
denominator through fraction-free Gram-Schmidt and the repair step; the
eigenvector matrix is the padded rows and ``U`` over that denominator, made
by one ``from_integers`` call.

Ground-set elements are 1-based (matching the instance file format); matrix
coordinates are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, count
from math import lcm
from operator import mul
from pathlib import Path
from typing import Sequence

from minctrl.errors import InternalVerificationError, InvalidInputError, is_integer
from minctrl.matrices import (
    RationalMatrix,
    integer_product,
    load_json_object,
    primitive_vector,
)


@dataclass(frozen=True)
class HittingSetInstance:
    """A ground set ``{1..m}`` and a list of subsets to hit."""

    ground_size: int
    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        if not is_integer(self.ground_size):
            raise InvalidInputError(
                f"ground set size must be an integer, got {self.ground_size!r}"
            )
        if self.ground_size < 1:
            raise InvalidInputError("ground set must be nonempty")
        if not self.sets:
            raise InvalidInputError("instance needs at least one set")
        covered: set[int] = set()
        for idx, s in enumerate(self.sets):
            if not s:
                raise InvalidInputError(f"set #{idx + 1} is empty")
            _check_elements(idx, s)
            bad = [e for e in s if not 1 <= e <= self.ground_size]
            if bad:
                raise InvalidInputError(
                    f"set #{idx + 1} contains out-of-range element {bad[0]}"
                )
            covered |= s
        # covered lies in 1..m: short iff an element is missing, found in O(|covered|)
        if len(covered) < self.ground_size:
            missing = next(e for e in count(1) if e not in covered)
            raise InvalidInputError(f"element {missing} appears in no set")

    @property
    def num_sets(self) -> int:
        return len(self.sets)

    @property
    def state_dim(self) -> int:
        """States of the compiled system: one per element, set, and anchor."""
        return self.ground_size + self.num_sets + 1

    @classmethod
    def from_sets(cls, ground_size: int, sets: Sequence[Sequence[int]]) -> "HittingSetInstance":
        # Checked before freezing: a set would merge ``True`` or ``1.0`` into ``1``.
        for idx, s in enumerate(sets):
            _check_elements(idx, s)
        return cls(ground_size, tuple(frozenset(s) for s in sets))

    @classmethod
    def from_json_dict(cls, obj: dict) -> "HittingSetInstance":
        try:
            m = obj["m"]
            sets = obj["sets"]
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed instance object: {exc}") from exc
        if not isinstance(sets, list) or not all(isinstance(s, list) for s in sets):
            raise InvalidInputError('"sets" must be a list of lists')
        return cls.from_sets(m, sets)

    def to_json_dict(self) -> dict:
        return {"m": self.ground_size, "sets": [sorted(s) for s in self.sets]}


def _check_elements(idx: int, elements) -> None:
    for e in elements:
        if not is_integer(e):
            raise InvalidInputError(f"set #{idx + 1} contains non-integer element {e!r}")


def load_instance(path: str | Path) -> HittingSetInstance:
    return HittingSetInstance.from_json_dict(load_json_object(path, "instance object"))


@dataclass(frozen=True)
class ReductionOutput:
    """The compiled system: one coordinate per element, then per set, then the anchor."""

    instance: HittingSetInstance
    left_eigenvectors: RationalMatrix
    system_matrix: RationalMatrix

    def to_json_dict(self) -> dict:
        m, p = self.instance.ground_size, self.instance.num_sets
        return {
            "eigenvalues": list(range(1, m + p + 2)),
            "elements": list(range(m)),
            "sets": list(range(m, m + p)),
            "anchor": m + p,
        }


@dataclass(frozen=True)
class SymmetricExtensionOutput:
    """The symmetric system: the base coordinates, one per pair of them, then a final one."""

    instance: HittingSetInstance
    left_eigenvectors: RationalMatrix
    system_matrix: RationalMatrix

    def to_json_dict(self) -> dict:
        r = self.system_matrix.rows
        return {
            "eigenvalues": list(range(1, r + 1)),
            "pair_columns": [
                {"pair": list(p), "column": c} for p, c in _pair_columns(self.instance.state_dim)
            ],
            "final_column": r - 1,
        }


def _pair_columns(s: int) -> list[tuple[tuple[int, int], int]]:
    """Each pair ``(i, j)`` of 1-based rows ``i < j <= s`` and its column ``s, s + 1, ...``."""
    return [(pair, s + idx) for idx, pair in enumerate(combinations(range(1, s + 1), 2))]


def _eigenvector_rows(inst: HittingSetInstance) -> list[list[int]]:
    """The strictly diagonally dominant left-eigenvector rows of the instance.

    Element rows carry 2 on the diagonal and 1 in the anchor column; the row
    of a set carries its incidence row and ``m+1`` on the diagonal; the
    anchor row is the last standard basis vector.
    """
    m = inst.ground_size
    n = inst.state_dim
    rows = []
    for i in range(m):
        row = [0] * n
        row[i] = 2
        row[n - 1] = 1
        rows.append(row)
    for i, s in enumerate(inst.sets):
        row = [0] * n
        for e in s:
            row[e - 1] = 1
        row[m + i] = m + 1
        rows.append(row)
    last = [0] * n
    last[n - 1] = 1
    rows.append(last)
    if not _strictly_diagonally_dominant(rows):
        raise InternalVerificationError("eigenvector matrix lost diagonal dominance")
    return rows


def _strictly_diagonally_dominant(rows: list[list[int]]) -> bool:
    return all(2 * abs(row[i]) > sum(map(abs, row)) for i, row in enumerate(rows))


def _inverse_rows(inst: HittingSetInstance) -> tuple[list[list[int]], int]:
    """Integer ``U`` and ``L`` with ``U / L`` the closed-form inverse of
    ``_eigenvector_rows`` (no elimination; unchecked here, and proved by the
    build's certificate).

    Element rows invert to ``1/2`` on the diagonal and ``-1/2`` in the anchor
    column; the row for a set ``S`` carries ``1/(m+1)`` on the diagonal,
    ``-1/(2(m+1))`` under each element of ``S``, and ``|S|/(2(m+1))`` in the
    anchor column; the anchor row is itself. Same sparsity pattern as the
    rows it inverts, except the anchor column.
    """
    m = inst.ground_size
    n = inst.state_dim
    # Integer numerators over the one denominator L = 2(m+1).
    L = 2 * (m + 1)
    U = []
    for i in range(m):
        row = [0] * n
        row[i] = m + 1
        row[n - 1] = -(m + 1)
        U.append(row)
    for i, s in enumerate(inst.sets):
        row = [0] * n
        row[m + i] = 2
        for e in s:
            row[e - 1] = -1
        row[n - 1] = len(s)
        U.append(row)
    last = [0] * n
    last[n - 1] = L
    U.append(last)
    return U, L


def _conjugated_diagonal(W: list[list[int]], U: list[list[int]], L: int) -> RationalMatrix:
    """``A = U diag(1..n) W / L`` for integer ``W``, ``U`` and ``L > 0`` with ``W U = L I``.

    ``W`` holds the left eigenvectors, any positive row scaling of ``V``.
    ``A`` is certified by ``_certify_left_eigenvectors``, which holds only if
    ``W U == L I`` (``W`` is invertible), so ``U`` needs no check of its own.
    """
    M = integer_product([[x * (k + 1) for k, x in enumerate(row)] for row in U], W)
    _certify_left_eigenvectors(W, M, L)
    return RationalMatrix.from_integers(M, L)


def _certify_left_eigenvectors(W: list[list[int]], M: list[list[int]], L: int) -> None:
    """Check ``W M == L diag(1..n) W`` in integers, over the whole of ``M``.

    For ``M = L A`` this is ``V A == diag(1..n) V``: the rows of ``W``, any
    positive row scaling of ``V``, are left eigenvectors of ``A`` with
    eigenvalues ``1..n``.
    """
    if integer_product(W, M) != [[L * (i + 1) * x for x in row] for i, row in enumerate(W)]:
        raise InternalVerificationError("left-eigenvector identity failed")


def build_reduction(inst: HittingSetInstance) -> ReductionOutput:
    """Compile an instance into an exact controllability problem.

    The minimum number of nonzero input entries for the returned system is
    the instance's minimum hitting-set size plus one (the anchor coordinate
    is always needed).
    """
    W = _eigenvector_rows(inst)
    A = _conjugated_diagonal(W, *_inverse_rows(inst))
    return ReductionOutput(inst, RationalMatrix.from_integers(W, 1), A)


def orthogonal_extension(vectors: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """Complete orthogonal vectors avoiding the first axis to a full basis.

    Input: ``k >= 1`` pairwise-orthogonal integer vectors in n-space, each
    with first coordinate zero, ``k < n``. Output: integer rows ``U`` and a
    positive integer ``L``, the form ``RationalMatrix.from_integers`` takes,
    where the ``n - k`` rows of ``U / L`` make the whole collection pairwise
    orthogonal (exactly) and each has a nonzero first coordinate. They depend
    only on the lines the inputs span.

    Method: seed with the first standard basis vector, Gram-Schmidt the
    remaining coordinates (fraction-free), then repair each
    zero-first-coordinate vector ``u`` against the seed ``a`` via
    ``u <- (|a|^2/|u|^2) u + a`` and ``a <- a - u`` (old values), which
    preserves orthogonality and leaves both first coordinates nonzero. Every
    vector is carried as an integer numerator over one positive denominator,
    the input checks and the postconditions run on integers, and ``L`` is
    the lcm of the output's denominators.
    """
    k = len(vectors)
    if k == 0:
        raise InvalidInputError("need at least one input vector")
    n = len(vectors[0])
    if k >= n:
        raise InvalidInputError(f"{k} vectors already span or exceed {n}-space")
    if any(len(v) != n for v in vectors):
        raise InvalidInputError("input vectors have mixed lengths")
    for idx, v in enumerate(vectors):
        if not all(map(is_integer, v)):
            raise InvalidInputError(f"input vector #{idx + 1} has a non-integer entry")
        if v[0] != 0:
            raise InvalidInputError(
                f"input vector #{idx + 1} has nonzero first coordinate"
            )
        if not any(v):
            raise InvalidInputError(f"input vector #{idx + 1} is zero")
    # Primitive integer copies ``w`` of the basis vectors: positive
    # multiples, so each projection below is unchanged. ``int`` makes a
    # fixed-width integer, such as numpy's, one that cannot overflow.
    ints = [primitive_vector([int(x) for x in v]) for v in vectors]
    for i in range(k):
        for j in range(i + 1, k):
            if _dot(ints[i], ints[j]) != 0:
                raise InvalidInputError(
                    f"input vectors #{i + 1} and #{j + 1} are not orthogonal"
                )

    # Gram-Schmidt over ``ints`` and their squared norms: the basis is
    # exactly orthogonal, so projecting a unit vector ``e_t`` onto its
    # complement subtracts ``(w_t / |w|^2) w`` for each ``w`` with
    # ``w_t != 0``; the candidate is kept as ``num / den`` over the lcm of
    # those squared norms.
    seed = [int(t == 0) for t in range(n)]
    ints.append(seed)
    norms = [_dot(w, w) for w in ints]
    ext = [(seed, 1)]
    for axis in range(1, n):
        if k + len(ext) == n:
            break
        hits = [(w, nw) for w, nw in zip(ints, norms) if w[axis]]
        den = lcm(*(nw for _, nw in hits))
        num = [0] * n
        num[axis] = den
        for w, nw in hits:
            f = w[axis] * (den // nw)
            for t, x in enumerate(w):
                if x:
                    num[t] -= f * x
        if any(num):
            ext.append((num, den))
            w = primitive_vector(num)
            ints.append(w)
            norms.append(_dot(w, w))
    if k + len(ext) != n:
        raise InternalVerificationError("Gram-Schmidt failed to complete a basis")

    # The repair on ``u = nu/du`` and the seed ``a = na/da``: with
    # ``p = |na|^2 du`` and ``q = |nu|^2 da``, ``(|a|^2/|u|^2) u + a`` is
    # ``(p nu + q na) / (q da)`` and ``a - u`` is ``(du na - da nu) / (da du)``.
    for l in range(1, len(ext)):
        nu, du = ext[l]
        if nu[0] != 0:
            continue
        na, da = ext[0]
        p, q = _dot(na, na) * du, _dot(nu, nu) * da
        # each as ``num / den`` in lowest terms: [*num, den] made primitive
        u = primitive_vector([*(p * x + q * y for x, y in zip(nu, na)), q * da])
        a = primitive_vector([*(du * y - da * x for x, y in zip(nu, na)), da * du])
        ext[l], ext[0] = (u[:-1], u[-1]), (a[:-1], a[-1])

    out_ints = [primitive_vector(num) for num, _ in ext]
    for i, v in enumerate(out_ints):
        if v[0] == 0:
            raise InternalVerificationError("extension vector kept a zero first coordinate")
        for w in out_ints[i + 1 :]:
            if _dot(v, w) != 0:
                raise InternalVerificationError("extension lost orthogonality")
        for w in ints[:k]:
            if _dot(v, w) != 0:
                raise InternalVerificationError("extension not orthogonal to inputs")
    L = lcm(*(d for _, d in ext))
    return [[x * (L // d) for x in num] for num, d in ext], L


def _dot(a, b):
    """Inner product of two integer vectors."""
    return sum(map(mul, a, b))


def build_symmetric_extension(inst: HittingSetInstance) -> SymmetricExtensionOutput:
    """Symmetric variant of the compiled system.

    Appends one column per (unordered) pair of original rows -- carrying 1
    against the negated inner product so the padded rows become orthogonal --
    plus a final column, then fills the remaining rows with an exact
    orthogonal completion whose final coordinates are nonzero. The resulting
    system matrix is exactly symmetric with eigenvalues ``1..r``, and its
    minimum actuator count stays within a factor [1/3, 2] of the base
    instance's.

    The system matrix is ``M / L`` for the integer rows ``w_k`` of the
    eigenvector matrix, ``L`` the lcm of their squared norms and ``M = sum_k
    k (L / |w_k|^2) w_k^T w_k``. ``M`` is built over ``i <= j`` from each
    row's nonzeros and mirrored; the left-eigenvector certificate multiplies
    the full ``M``, and ``from_integers`` gives mirrored entries one ``Fraction``.

    The sum is ``L A_hat`` only if the rows ``w_k`` are pairwise orthogonal,
    and each pair is proved once: padded row against padded row by
    construction, since the pair column of rows ``i`` and ``j`` is nonzero
    in those two rows only and cancels their inner product; completion row
    against completion row, and against every padded row, by
    ``orthogonal_extension``'s postconditions, which swapping the first and
    last coordinates of both vectors does not change. The certificate
    ``W M == L diag(1..r) W``, which fails for independent rows that are not
    orthogonal, and the symmetry check then cover the result.
    """
    V_ints = _eigenvector_rows(inst)
    base = inst.state_dim
    pair_columns = _pair_columns(base)
    r = base + 1 + len(pair_columns)

    padded = [row + [0] * (r - base) for row in V_ints]
    for (i, j), col in pair_columns:
        inner = _dot(V_ints[i - 1], V_ints[j - 1])
        if inner:
            padded[i - 1][col] = 1
            padded[j - 1][col] = -inner

    # Complete the basis with vectors whose *final* coordinate is nonzero:
    # run the first-axis extension on coordinate-swapped copies.
    U, den = orthogonal_extension([_swap_ends(row) for row in padded])
    U = [_swap_ends(u) for u in U]
    # One Fraction per distinct value of V_hat, padded entries included.
    V_hat = RationalMatrix.from_integers([[x * den for x in row] for row in padded] + U, den)

    # Primitive integer rows W of V_hat (the row scales cancel in A_hat).
    # The rank-one sum for M below is L A_hat because W W^T is diagonal
    # (the docstring names the checks that prove it).
    W = [primitive_vector(w) for w in padded + U]
    nonzeros = [[(t, x) for t, x in enumerate(w) if x] for w in W]
    norms = [_dot(w, w) for w in W]
    L = lcm(*norms)
    M = [[0] * r for _ in range(r)]
    for k, nz in enumerate(nonzeros):
        c = (k + 1) * (L // norms[k])
        for a, (i, x) in enumerate(nz):
            row, cx = M[i], c * x
            for j, y in nz[a:]:
                row[j] += cx * y
    for i in range(r):
        for j in range(i + 1, r):
            M[j][i] = M[i][j]
    _certify_left_eigenvectors(W, M, L)
    A_hat = RationalMatrix.from_integers(M, L)
    if not A_hat.is_symmetric():
        raise InternalVerificationError("extended system matrix is not symmetric")

    return SymmetricExtensionOutput(inst, V_hat, A_hat)


def _swap_ends(vec: list[int]) -> list[int]:
    out = list(vec)
    out[0], out[-1] = out[-1], out[0]
    return out
