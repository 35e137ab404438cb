"""Shared generators and golden fixtures for the test suite."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from minctrl.errors import InvalidInputError
from minctrl.linalg import rank_exact
from minctrl.matrices import Matrix, RationalMatrix, as_rational
from minctrl.reductions import HittingSetInstance

# Golden 8x8 pair for the four-set instance over {1,2,3}: the eigenvector
# matrix and the system matrix it conjugates out of diag(1..8).
GOLDEN_INSTANCE_SETS = [[1, 2], [2, 3], [1, 3], [1, 2, 3]]

GOLDEN_V_ROWS = [
    [2, 0, 0, 0, 0, 0, 0, 1],
    [0, 2, 0, 0, 0, 0, 0, 1],
    [0, 0, 2, 0, 0, 0, 0, 1],
    [1, 1, 0, 4, 0, 0, 0, 0],
    [0, 1, 1, 0, 4, 0, 0, 0],
    [1, 0, 1, 0, 0, 4, 0, 0],
    [1, 1, 1, 0, 0, 0, 4, 0],
    [0, 0, 0, 0, 0, 0, 0, 1],
]

GOLDEN_A_ROWS = [
    ["1", "0", "0", "0", "0", "0", "0", "-7/2"],
    ["0", "2", "0", "0", "0", "0", "0", "-3"],
    ["0", "0", "3", "0", "0", "0", "0", "-5/2"],
    ["3/4", "1/2", "0", "4", "0", "0", "0", "13/8"],
    ["0", "3/4", "1/2", "0", "5", "0", "0", "11/8"],
    ["5/4", "0", "3/4", "0", "0", "6", "0", "3/2"],
    ["3/2", "5/4", "1", "0", "0", "0", "7", "9/4"],
    ["0", "0", "0", "0", "0", "0", "0", "8"],
]


def golden_instance() -> HittingSetInstance:
    return HittingSetInstance.from_sets(3, GOLDEN_INSTANCE_SETS)


def golden_V() -> RationalMatrix:
    return RationalMatrix.from_rows(GOLDEN_V_ROWS)


def golden_A() -> RationalMatrix:
    return RationalMatrix.from_rows(GOLDEN_A_ROWS)


def controllability_matrix(A: Matrix, B: Matrix) -> RationalMatrix:
    """Horizontal stack of ``B, AB, A^2 B, ..., A^{n-1} B``, exactly.

    The tests' independent reference for ``greedy.controllability_rank``:
    ``rank_exact`` of this matrix is the rank every backend must report.
    `A` must be square and `B` must have matching row count. Both are taken
    with ``as_rational``, which converts every float exactly.
    """
    A, B = as_rational(A), as_rational(B)
    n = A.rows
    if A.cols != n:
        raise InvalidInputError(f"A must be square, got {A.rows}x{A.cols}")
    if B.rows != n:
        raise InvalidInputError(f"B has {B.rows} rows but A is {n}x{n}")
    blocks = [B]
    for _ in range(1, n):
        blocks.append(A @ blocks[-1])
    rows = [tuple(x for blk in blocks for x in blk.data[i]) for i in range(n)]
    return RationalMatrix(tuple(rows))


# The two support predicates the brute-force oracles once called, kept as
# references: ``minctrl.oracles`` tests one bitmask per row instead.
def meets_every_row(V_rows: RationalMatrix, support: Iterable[int]) -> bool:
    """Exact PBH feasibility of a support set.

    True iff every eigenvector row has a nonzero entry at some index in
    ``support`` (0-based column indices); equivalently, some vector carried
    by ``support`` is orthogonal to no row. Empty support is allowed.
    """
    idx = sorted(set(support))
    for j in idx:
        if not 0 <= j < V_rows.cols:
            raise InvalidInputError(f"support index {j} out of range")
    return all(any(row[j] for j in idx) for row in V_rows.data)


def diagonal_meets_every_row(V_rows: RationalMatrix, support: Iterable[int]) -> bool:
    """Feasibility of a diagonal input on ``support``, by materializing the
    product of each eigenvector row with the diagonal indicator matrix of
    ``support`` and testing it for a nonzero entry."""
    chosen = set(support)
    n = V_rows.cols
    return all(
        any([row[j] if j in chosen else 0 for j in range(n)]) for row in V_rows.data
    )


def random_instance(rng: random.Random, max_m: int = 5, max_p: int = 5) -> HittingSetInstance:
    """Random valid instance: nonempty sets, every element covered."""
    m = rng.randint(2, max_m)
    p = rng.randint(1, max_p)
    sets = [
        set(rng.sample(range(1, m + 1), rng.randint(1, m))) for _ in range(p)
    ]
    for element in range(1, m + 1):
        if not any(element in s for s in sets):
            sets[rng.randrange(p)].add(element)
    return HittingSetInstance.from_sets(m, [sorted(s) for s in sets])


# The plain reduction's two witness maps. Columns ``0..m-1`` are the
# elements ``1..m``, column ``m + j`` is set ``j`` and column ``m + p`` is the
# anchor, the only column the anchor eigenvector row meets.
def support_of_hitting_set(inst: HittingSetInstance, hitting: Iterable[int]) -> list[int]:
    """Forward: ``H -> {h - 1 : h in H} | {m + p}``, a controllable support."""
    m, p = inst.ground_size, inst.num_sets
    return sorted({h - 1 for h in hitting} | {m + p})


def hitting_set_of_support(inst: HittingSetInstance, support: Iterable[int]) -> set[int]:
    """Backward: ``S -> {s + 1 : s < m} | {min(set j) : m + j in S}``.

    A controllable support meets every set row, at an element of the set or
    at the set's own column, so the image hits every set; the anchor adds
    nothing, so it has at most ``len(S) - 1`` elements.
    """
    m, p = inst.ground_size, inst.num_sets
    chosen = set(support)
    return {s + 1 for s in chosen if s < m} | {
        min(inst.sets[j]) for j in range(p) if m + j in chosen
    }


def random_invertible_rational(rng: random.Random, n: int, magnitude: int = 5) -> RationalMatrix:
    """Random integer-entry matrix, resampled until exactly invertible."""
    while True:
        rows = [
            [rng.randint(-magnitude, magnitude) for _ in range(n)]
            for _ in range(n)
        ]
        mat = RationalMatrix.from_rows(rows)
        if rank_exact(mat) == n:
            return mat


def random_unimodular(rng: random.Random, n: int, ops: int = 12) -> RationalMatrix:
    """Product of integer elementary row operations: det +-1, integer inverse."""
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return RationalMatrix.from_rows(rows)


def random_jordan_spec(rng: random.Random, max_n: int = 6):
    """Random exact Jordan data: distinct eigenvalues, invertible transform."""
    n = rng.randint(2, max_n)
    sizes = []
    left = n
    while left:
        d = rng.randint(1, left)
        sizes.append(d)
        left -= d
    eigenvalues = rng.sample(range(-6, 7), len(sizes))
    t_inv = random_invertible_rational(rng, n, magnitude=3)
    return JordanSpec(
        block_eigenvalues=tuple(Fraction(e) for e in eigenvalues),
        block_sizes=tuple(sizes),
        t_inverse=t_inv,
    )


# The covered-count characterization of rank C(A, b) for exactly known Jordan
# structure. No command runs it: the tests check it against ``rank_exact``.
@dataclass(frozen=True)
class JordanSpec:
    """Jordan structure given exactly: block eigenvalues, sizes, and the
    rows of the inverse transform grouped block by block.

    Block eigenvalues must be pairwise distinct (every eigenspace
    one-dimensional); the stored rows must form a basis.
    """

    block_eigenvalues: tuple[Fraction, ...]
    block_sizes: tuple[int, ...]
    t_inverse: RationalMatrix

    def __post_init__(self):
        n = sum(self.block_sizes)
        if len(self.block_eigenvalues) != len(self.block_sizes):
            raise InvalidInputError("one eigenvalue per block required")
        if any(d < 1 for d in self.block_sizes):
            raise InvalidInputError("block sizes must be positive")
        if len(set(self.block_eigenvalues)) != len(self.block_eigenvalues):
            raise InvalidInputError("block eigenvalues must be pairwise distinct")
        if self.t_inverse.rows != n or self.t_inverse.cols != n:
            raise InvalidInputError(
                f"t_inverse must be {n}x{n}, got "
                f"{self.t_inverse.rows}x{self.t_inverse.cols}"
            )
        if rank_exact(self.t_inverse) != n:
            raise InvalidInputError("t_inverse rows must form a basis")

    @property
    def n(self) -> int:
        return sum(self.block_sizes)

    def block_row(self, block: int, j: int) -> tuple[Fraction, ...]:
        """Row ``j`` (1-based within the block) of the inverse transform."""
        offset = sum(self.block_sizes[:block])
        return self.t_inverse.data[offset + j - 1]

    def jordan_matrix(self) -> RationalMatrix:
        n = self.n
        rows = [[Fraction(0)] * n for _ in range(n)]
        offset = 0
        for lam, d in zip(self.block_eigenvalues, self.block_sizes):
            for k in range(d):
                rows[offset + k][offset + k] = lam
                if k + 1 < d:
                    rows[offset + k][offset + k + 1] = Fraction(1)
            offset += d
        return RationalMatrix.from_rows(rows)

    def system_matrix(self) -> RationalMatrix:
        """The matrix this Jordan data describes: ``T J T^{-1}``, exactly."""
        t = self.t_inverse.inverse()
        return t @ self.jordan_matrix() @ self.t_inverse


def covered_count(jordan: JordanSpec, b: Sequence[Fraction | int]) -> int:
    """Rank of the controllability matrix, combinatorially.

    For each block, find the largest in-block position whose transform row
    has nonzero inner product with `b`; the positions at or below it are
    covered. The total number of covered rows equals ``rank C(A, b)``.
    """
    vec = [Fraction(x) if not isinstance(x, Fraction) else x for x in b]
    if len(vec) != jordan.n:
        raise InvalidInputError(f"b must have length {jordan.n}")
    total = 0
    for block, d in enumerate(jordan.block_sizes):
        z = 0
        for j in range(1, d + 1):
            row = jordan.block_row(block, j)
            if sum(r * x for r, x in zip(row, vec)) != 0:
                z = j
        total += z
    return total
