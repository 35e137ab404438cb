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
identities before returning. The work runs on integers: matrix products use
``RationalMatrix``'s integer kernel, the plain build conjugates with the
closed-form inverse of the eigenvector matrix (certified by ``V @ V_inv ==
I``, no elimination), and the orthogonal completion runs Gram-Schmidt
fraction-free, over primitive integer copies of the basis vectors, with its
orthogonality postconditions checked in integers.

Ground-set elements are 1-based (matching the instance file format); matrix
coordinates are 0-based.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Sequence

from minctrl.errors import InternalVerificationError, InvalidInputError, is_integer
from minctrl.matrices import RationalMatrix, primitive_vector, scale_to_integers


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
        missing = set(range(1, self.ground_size + 1)) - covered
        if missing:
            raise InvalidInputError(
                f"element {min(missing)} appears in no set"
            )

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
    try:
        obj = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{path}: expected a JSON instance object")
    return HittingSetInstance.from_json_dict(obj)


@dataclass(frozen=True)
class CoordinateMap:
    """Which state coordinates carry elements, sets, and the anchor (0-based)."""

    elements: tuple[int, ...]
    sets: tuple[int, ...]
    anchor: int

    def to_json_dict(self) -> dict:
        return {
            "elements": list(self.elements),
            "sets": list(self.sets),
            "anchor": self.anchor,
        }


@dataclass(frozen=True)
class ReductionOutput:
    left_eigenvectors: RationalMatrix
    system_matrix: RationalMatrix
    eigenvalues: tuple[int, ...]
    index_map: CoordinateMap


@dataclass(frozen=True)
class SymmetricExtensionOutput:
    left_eigenvectors: RationalMatrix
    system_matrix: RationalMatrix
    eigenvalues: tuple[int, ...]
    # pair (i, j) of 1-based row numbers -> 0-based column index
    pair_columns: tuple[tuple[tuple[int, int], int], ...]
    final_column: int


def incidence_matrix(inst: HittingSetInstance) -> RationalMatrix:
    """0/1 matrix with one row per set: entry (i, j) marks element j+1 in set i+1."""
    return RationalMatrix.from_rows(
        [
            [1 if e in s else 0 for e in range(1, inst.ground_size + 1)]
            for s in inst.sets
        ]
    )


def eigenvector_matrix(inst: HittingSetInstance) -> RationalMatrix:
    """The strictly diagonally dominant left-eigenvector matrix of the instance."""
    m, p = inst.ground_size, inst.num_sets
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
    V = RationalMatrix.from_rows(rows)
    if not _strictly_diagonally_dominant(V):
        raise InternalVerificationError("eigenvector matrix lost diagonal dominance")
    return V


def _strictly_diagonally_dominant(M: RationalMatrix) -> bool:
    return all(
        abs(row[i]) > sum(abs(x) for j, x in enumerate(row) if j != i)
        for i, row in enumerate(M.data)
    )


def eigenvector_matrix_inverse(inst: HittingSetInstance) -> RationalMatrix:
    """Closed-form inverse of ``eigenvector_matrix`` (no elimination).

    Element rows invert to ``1/2`` on the diagonal and ``-1/2`` in the anchor
    column; the row for a set ``S`` carries ``1/(m+1)`` on the diagonal,
    ``-1/(2(m+1))`` under each element of ``S``, and ``|S|/(2(m+1))`` in the
    anchor column; the anchor row is itself. Same sparsity pattern as the
    matrix it inverts, except the anchor column.
    """
    m = inst.ground_size
    n = inst.state_dim
    rows = []
    for i in range(m):
        row = [Fraction(0)] * n
        row[i] = Fraction(1, 2)
        row[n - 1] = Fraction(-1, 2)
        rows.append(row)
    for i, s in enumerate(inst.sets):
        row = [Fraction(0)] * n
        row[m + i] = Fraction(1, m + 1)
        for e in s:
            row[e - 1] = Fraction(-1, 2 * (m + 1))
        row[n - 1] = Fraction(len(s), 2 * (m + 1))
        rows.append(row)
    last = [Fraction(0)] * n
    last[n - 1] = Fraction(1)
    rows.append(last)
    out = RationalMatrix.from_rows(rows)
    # A square matrix's right inverse is its inverse.
    if eigenvector_matrix(inst) @ out != RationalMatrix.identity(n):
        raise InternalVerificationError("closed-form inverse is not a right inverse")
    return out


def _conjugated_diagonal(V: RationalMatrix, V_inv: RationalMatrix) -> RationalMatrix:
    """``V_inv diag(1..n) V``, verified exactly against ``V A = D V``."""
    n = V.rows
    D = RationalMatrix.diagonal(list(range(1, n + 1)))
    A = V_inv @ D @ V
    if V @ A != D @ V:
        raise InternalVerificationError("left-eigenvector identity failed")
    return A


def build_reduction(inst: HittingSetInstance) -> ReductionOutput:
    """Compile an instance into an exact controllability problem.

    The minimum number of nonzero input entries for the returned system is
    the instance's minimum hitting-set size plus one (the anchor coordinate
    is always needed).
    """
    m, p = inst.ground_size, inst.num_sets
    V = eigenvector_matrix(inst)
    A = _conjugated_diagonal(V, eigenvector_matrix_inverse(inst))
    return ReductionOutput(
        left_eigenvectors=V,
        system_matrix=A,
        eigenvalues=tuple(range(1, inst.state_dim + 1)),
        index_map=CoordinateMap(
            elements=tuple(range(m)),
            sets=tuple(range(m, m + p)),
            anchor=m + p,
        ),
    )


def orthogonal_extension(
    vectors: Sequence[Sequence[Fraction | int]],
) -> list[tuple[Fraction, ...]]:
    """Complete orthogonal vectors avoiding the first axis to a full basis.

    Input: ``k >= 1`` pairwise-orthogonal rational vectors in n-space, each
    with first coordinate zero, ``k < n``. Output: ``n - k`` further vectors
    such that the whole collection is pairwise orthogonal (exactly) and every
    returned vector has a nonzero first coordinate.

    Method: seed with the first standard basis vector, Gram-Schmidt the
    remaining coordinates (fraction-free, in integers), then repair each
    zero-first-coordinate vector ``u`` against the seed ``a`` via
    ``u <- (|a|^2/|u|^2) u + a`` and ``a <- a - u`` (old values), which
    preserves orthogonality and leaves both first coordinates nonzero. The
    postconditions are checked on primitive integer copies of the output.
    """
    vecs = [tuple(Fraction(x) for x in v) for v in vectors]
    if not vecs:
        raise InvalidInputError("need at least one input vector")
    n = len(vecs[0])
    k = len(vecs)
    if k >= n:
        raise InvalidInputError(f"{k} vectors already span or exceed {n}-space")
    if any(len(v) != n for v in vecs):
        raise InvalidInputError("input vectors have mixed lengths")
    for idx, v in enumerate(vecs):
        if v[0] != 0:
            raise InvalidInputError(
                f"input vector #{idx + 1} has nonzero first coordinate"
            )
        if all(x == 0 for x in v):
            raise InvalidInputError(f"input vector #{idx + 1} is zero")
    for i in range(k):
        for j in range(i + 1, k):
            if _dot(vecs[i], vecs[j]) != 0:
                raise InvalidInputError(
                    f"input vectors #{i + 1} and #{j + 1} are not orthogonal"
                )

    # Gram-Schmidt over primitive integer copies ``w`` of the basis vectors
    # (positive multiples, so each projection is unchanged) and their squared
    # norms. The basis is exactly orthogonal, so projecting a unit vector
    # ``e_t`` onto its complement subtracts ``(w_t / |w|^2) w`` for each ``w``
    # with ``w_t != 0``; the candidate is kept as ``num / den`` over the lcm
    # of those squared norms.
    basis = list(vecs)
    seed = tuple(Fraction(int(t == 0)) for t in range(n))
    basis.append(seed)
    ints = [primitive_vector(scale_to_integers(v)[0]) for v in vecs]
    ints.append([int(t == 0) for t in range(n)])
    norms = [_dot(w, w) for w in ints]
    for axis in range(1, n):
        if len(basis) == n:
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
            basis.append(tuple(Fraction(c, den) for c in num))
            w = primitive_vector(num)
            ints.append(w)
            norms.append(_dot(w, w))
    if len(basis) != n:
        raise InternalVerificationError("Gram-Schmidt failed to complete a basis")

    seed_idx = k
    for l in range(k + 1, n):
        if basis[l][0] != 0:
            continue
        a = basis[seed_idx]
        u = basis[l]
        c = _dot(a, a) / _dot(u, u)
        basis[l] = tuple(c * x + y for x, y in zip(u, a))
        basis[seed_idx] = tuple(y - x for x, y in zip(u, a))

    out = [basis[i] for i in range(k, n)]
    out_ints = [primitive_vector(scale_to_integers(v)[0]) for v in out]
    for i, v in enumerate(out_ints):
        if v[0] == 0:
            raise InternalVerificationError("extension vector kept a zero first coordinate")
        for w in out_ints[i + 1 :]:
            if _dot(v, w) != 0:
                raise InternalVerificationError("extension lost orthogonality")
        for w in ints[:k]:
            if _dot(v, w) != 0:
                raise InternalVerificationError("extension not orthogonal to inputs")
    return out


def _dot(a, b):
    """Inner product of two vectors of ``Fraction``s or of ints."""
    return sum(x * y for x, y in zip(a, b))


def build_symmetric_extension(inst: HittingSetInstance) -> SymmetricExtensionOutput:
    """Symmetric variant of the compiled system.

    Appends one column per (unordered) pair of original rows -- carrying 1
    against the negated inner product so the padded rows become orthogonal --
    plus a final column, then fills the remaining rows with an exact
    orthogonal completion whose final coordinates are nonzero. The resulting
    system matrix is exactly symmetric with eigenvalues ``1..r``, and its
    minimum actuator count stays within a factor [1/3, 2] of the base
    instance's.
    """
    V = eigenvector_matrix(inst)
    base = inst.state_dim
    pairs = [(i, j) for i in range(1, base + 1) for j in range(i + 1, base + 1)]
    r = base + 1 + len(pairs)

    pair_col = {pair: base + idx for idx, pair in enumerate(pairs)}
    final_col = r - 1

    rows = []
    for i in range(base):
        rows.append(list(V.row(i)) + [Fraction(0)] * (r - base))
    for (i, j) in pairs:
        inner = _dot(V.row(i - 1), V.row(j - 1))
        if inner:
            col = pair_col[(i, j)]
            rows[i - 1][col] = Fraction(1)
            rows[j - 1][col] = -inner
    padded = [tuple(row) for row in rows]
    for a in range(base):
        for b in range(a + 1, base):
            if _dot(padded[a], padded[b]) != 0:
                raise InternalVerificationError("pair columns failed to orthogonalize rows")

    # Complete the basis with vectors whose *final* coordinate is nonzero:
    # run the first-axis extension on coordinate-swapped copies.
    swapped = [_swap_ends(row) for row in padded]
    extension = [_swap_ends(v) for v in orthogonal_extension(swapped)]

    all_rows = list(padded) + extension
    V_hat = RationalMatrix(tuple(all_rows))

    gram = V_hat @ V_hat.transpose()
    if any(
        gram.data[i][j] != 0
        for i in range(r)
        for j in range(r)
        if i != j
    ):
        raise InternalVerificationError("extended rows are not orthogonal")

    # Orthogonal rows invert by transpose over the row norms.
    norms = [gram.data[i][i] for i in range(r)]
    inv_rows = [
        [V_hat.data[j][i] / norms[j] for j in range(r)] for i in range(r)
    ]
    A_hat = _conjugated_diagonal(V_hat, RationalMatrix.from_rows(inv_rows))
    if not A_hat.is_symmetric():
        raise InternalVerificationError("extended system matrix is not symmetric")

    return SymmetricExtensionOutput(
        left_eigenvectors=V_hat,
        system_matrix=A_hat,
        eigenvalues=tuple(range(1, r + 1)),
        pair_columns=tuple(sorted(pair_col.items())),
        final_column=final_col,
    )


def _swap_ends(vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    out = list(vec)
    out[0], out[-1] = out[-1], out[0]
    return tuple(out)
