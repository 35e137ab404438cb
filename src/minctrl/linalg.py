"""Rank and eigenstructure primitives.

Everything downstream reduces to three questions about a system matrix `A`
and an input vector `b`:

* what is the rank of the controllability matrix ``(b, Ab, ..., A^{n-1}b)``,
* which left eigenvectors of `A` are orthogonal to `b` (the PBH test), and
* for known Jordan structure, how many rows of the Jordan basis are covered.

Both an exact-rational backend (fraction-free elimination, zero tolerance)
and a numeric backend (SVD thresholding, eigenvector counting) are provided;
the numeric path exists because the raw controllability-matrix rank is badly
conditioned for floats, while counting eigenvector orthogonality is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence, Union

import numpy as np

from minctrl._kernels import integer_rank
from minctrl.errors import (
    BackendPreconditionError,
    InvalidInputError,
    NumericBackendError,
)
from minctrl.matrices import (
    DenseMatrix,
    Matrix,
    RationalMatrix,
    primitive_vector,
    scale_to_integers,
)

# Eigenvalues closer than this are treated as repeated (configurable per call).
DEFAULT_EIGEN_GAP = 0.01

# Scale factor for the |v^T b| zero threshold in the PBH test.
DEFAULT_ORTH_TOL_SCALE = 1e-8

VectorLike = Union[DenseMatrix, Sequence[float], np.ndarray]


def _as_float_vector(b: VectorLike, n: int) -> np.ndarray:
    if isinstance(b, DenseMatrix):
        arr = b.array
        if arr.shape == (n, 1):
            arr = arr[:, 0]
        elif arr.shape == (1, n):
            arr = arr[0, :]
        else:
            raise InvalidInputError(
                f"expected an {n}-vector, got matrix of shape {arr.shape}"
            )
        return np.asarray(arr, dtype=np.float64)
    arr = np.asarray(b, dtype=np.float64)
    if arr.ndim == 2 and 1 in arr.shape:
        arr = arr.ravel()
    if arr.shape != (n,):
        raise InvalidInputError(f"expected an {n}-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("input vector has non-finite entries")
    return arr


def controllability_matrix(A: Matrix, B: Matrix) -> Matrix:
    """Horizontal stack of ``B, AB, A^2 B, ..., A^{n-1} B``.

    `A` must be square and `B` must have matching row count. Dense inputs
    give a dense result; rational inputs stay exact.
    """
    dense = isinstance(A, DenseMatrix) and isinstance(B, DenseMatrix)
    if not dense and not (
        isinstance(A, RationalMatrix) and isinstance(B, RationalMatrix)
    ):
        raise InvalidInputError("A and B must both be dense or both be rational")
    n = A.rows
    if A.cols != n:
        raise InvalidInputError(f"A must be square, got {A.rows}x{A.cols}")
    if B.rows != n:
        raise InvalidInputError(f"B has {B.rows} rows but A is {n}x{n}")
    if dense:
        m = B.cols
        out = np.zeros((n, n * m))
        out[:, :m] = B.array
        for k in range(1, n):
            out[:, k * m : (k + 1) * m] = A.array @ out[:, (k - 1) * m : k * m]
        return DenseMatrix(out)
    blocks = [B]
    for _ in range(1, n):
        blocks.append(A @ blocks[-1])
    rows = [tuple(x for blk in blocks for x in blk.row(i)) for i in range(n)]
    return RationalMatrix(tuple(rows))


def rank_numeric(M: DenseMatrix | np.ndarray, absolute_tolerance: float | None = None) -> int:
    """Number of singular values above threshold.

    Default threshold is ``max(rows, cols) * sigma_max * machine epsilon``;
    pass ``absolute_tolerance`` to override with a fixed cutoff.
    """
    arr = M.array if isinstance(M, DenseMatrix) else np.asarray(M)
    try:
        sigma = np.linalg.svd(arr, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericBackendError(f"SVD failed: {exc}") from exc
    if sigma.size == 0:
        return 0
    if absolute_tolerance is None:
        eps = np.finfo(np.float64).eps
        threshold = max(arr.shape) * sigma[0] * eps
    else:
        threshold = absolute_tolerance
    return int(np.count_nonzero(sigma > threshold))


def rank_exact(M: RationalMatrix) -> int:
    """True rank over the rationals; deterministic, no tolerances."""
    return integer_rank(
        [primitive_vector(scale_to_integers(row)[0]) for row in M.data]
    )


@dataclass(frozen=True)
class EigenSystem:
    """Left eigenstructure of a square real matrix.

    Row ``i`` of ``left_eigenvectors`` satisfies ``v_i^T A = lambda_i v_i^T``
    up to ``residual_tolerance`` and has unit Euclidean norm. Eigenvalues are
    sorted by (real, imag) so the decomposition is reproducible.

    ``distinct_eigenvalues`` and ``geometric_multiplicities`` cost one SVD of
    ``A - lambda I`` per cluster of eigenvalues closer than ``cluster_gap``,
    so they are computed from the kept read-only copy ``matrix`` on first
    access and cached. The PBH rank paths read only the eigenvectors and
    never pay for them.
    """

    eigenvalues: np.ndarray
    left_eigenvectors: np.ndarray
    min_pairwise_gap: float
    residual_tolerance: float
    matrix: np.ndarray = field(repr=False)
    cluster_gap: float

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @cached_property
    def _clusters(self) -> tuple[tuple[complex, ...], tuple[int, ...]]:
        try:
            return _cluster_multiplicities(
                self.matrix, self.eigenvalues, self.cluster_gap
            )
        except np.linalg.LinAlgError as exc:
            raise NumericBackendError(
                f"SVD failed: {exc}", matrix_hash=DenseMatrix(self.matrix).sha256()
            ) from exc

    @property
    def distinct_eigenvalues(self) -> tuple[complex, ...]:
        """One representative (the cluster mean) per eigenvalue cluster."""
        return self._clusters[0]

    @property
    def geometric_multiplicities(self) -> tuple[int, ...]:
        """Estimated eigenspace dimension of each cluster, in the same order."""
        return self._clusters[1]


def left_eigensystem(
    A: DenseMatrix,
    *,
    cluster_gap: float = DEFAULT_EIGEN_GAP,
    residual_tolerance: float | None = None,
) -> EigenSystem:
    """Eigenvalues and unit-norm left eigenvectors of a square matrix.

    Geometric multiplicities, computed on first access, are estimated per
    cluster of eigenvalues closer than ``cluster_gap``: nearly coincident
    eigenvalues are deliberately treated as repeated, since floating point
    cannot certify them distinct.
    """
    if A.rows != A.cols:
        raise InvalidInputError(f"A must be square, got {A.rows}x{A.cols}")
    n = A.rows
    try:
        # Right eigenvectors of A^T are plain-transpose left eigenvectors of A.
        values, vectors = np.linalg.eig(A.array.T)
    except np.linalg.LinAlgError as exc:
        raise NumericBackendError(
            f"eigensolver did not converge: {exc}", matrix_hash=A.sha256()
        ) from exc
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    rows = vectors.T[order]
    norms = np.linalg.norm(rows, axis=1)
    rows = rows / norms[:, None]

    if residual_tolerance is None:
        scale = float(np.linalg.norm(A.array, ord="fro"))
        residual_tolerance = 1e-8 * max(1.0, scale)
    residual = float(
        np.linalg.norm(rows @ A.array - values[:, None] * rows, axis=1).max()
    )
    if residual > residual_tolerance:
        raise NumericBackendError(
            f"eigenvector residual {residual:.3e} exceeds tolerance "
            f"{residual_tolerance:.3e}",
            matrix_hash=A.sha256(),
        )

    if n == 1:
        min_gap = math.inf
    else:
        diff = np.abs(values[:, None] - values[None, :])
        min_gap = float(np.min(diff[np.triu_indices(n, k=1)]))

    rows = rows.copy()
    rows.flags.writeable = False
    values = values.copy()
    values.flags.writeable = False
    matrix = A.array.copy()
    matrix.flags.writeable = False
    return EigenSystem(
        eigenvalues=values,
        left_eigenvectors=rows,
        min_pairwise_gap=min_gap,
        residual_tolerance=residual_tolerance,
        matrix=matrix,
        cluster_gap=cluster_gap,
    )


def _cluster_multiplicities(
    arr: np.ndarray, values: np.ndarray, cluster_gap: float
) -> tuple[tuple[complex, ...], tuple[int, ...]]:
    n = len(values)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) <= cluster_gap:
                parent[find(i)] = find(j)
    clusters: dict[int, list[int]] = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(i)

    reps: list[complex] = []
    mults: list[int] = []
    eye = np.eye(n)
    for members in sorted(clusters.values(), key=lambda ms: ms[0]):
        center = complex(np.mean(values[members]))
        radius = max(abs(values[i] - center) for i in members)
        shifted = arr.astype(complex) - center * eye
        sigma = np.linalg.svd(shifted, compute_uv=False)
        eps = np.finfo(np.float64).eps
        base = n * (sigma[0] if sigma[0] > 0 else 1.0) * eps
        # eigen-directions of near-coincident eigenvalues look like one space
        threshold = max(base, 2.0 * radius + base)
        dim = int(np.count_nonzero(sigma <= threshold))
        reps.append(center)
        mults.append(max(dim, 1))
    return tuple(reps), tuple(mults)


def is_vector_controllable_possible(eig: EigenSystem) -> bool:
    """True iff every eigenspace is one-dimensional.

    A repeated eigenvalue with a two-dimensional eigenspace defeats every
    single-input choice, so no vector `b` can make the system controllable.
    """
    return all(m == 1 for m in eig.geometric_multiplicities)


def require_distinct_spectrum(
    eig: EigenSystem, gap_threshold: float = DEFAULT_EIGEN_GAP
) -> None:
    """Reject (nearly) repeated eigenvalues before any PBH count.

    The eigenvector count only equals the controllability rank when every
    eigenvalue is simple.
    """
    if eig.min_pairwise_gap <= gap_threshold:
        raise BackendPreconditionError(
            f"eigenvalue gap {eig.min_pairwise_gap:.3e} is below the "
            f"distinctness threshold {gap_threshold:.3e}; the eigenvector "
            "count only equals the controllability rank for distinct spectra"
        )


def pbh_count(products: np.ndarray, tol) -> int:
    """Number of left eigenvectors not orthogonal to the input.

    ``products[i]`` holds ``v_i^T b``, or the row ``v_i^T B`` for a
    multi-column input; row ``i`` counts when ``|v_i^T b_c| > tol_c`` for
    some column ``c`` (``tol`` is a scalar or one tolerance per column).
    """
    above = np.abs(products) > tol
    if above.ndim == 2:
        above = above.any(axis=1)
    return int(np.count_nonzero(above))


def pbh_controllability_rank(
    eig: EigenSystem,
    b: VectorLike,
    orth_tol: float | None = None,
    *,
    gap_threshold: float = DEFAULT_EIGEN_GAP,
) -> int:
    """Controllability rank by counting eigenvectors non-orthogonal to `b`.

    For a matrix with distinct eigenvalues this equals
    ``rank C(A, b)`` whenever ``orth_tol`` separates true zeros of
    ``|v_i^T b|`` from the rest; default is ``1e-8 * ||b||``. Matrices with
    (nearly) repeated eigenvalues are rejected: use the exact rank or the
    covered-count characterization instead.
    """
    require_distinct_spectrum(eig, gap_threshold)
    if orth_tol is not None and orth_tol <= 0:
        raise InvalidInputError("orth_tol must be positive")
    vec = _as_float_vector(b, eig.n)
    if orth_tol is None:
        orth_tol = DEFAULT_ORTH_TOL_SCALE * float(np.linalg.norm(vec))
    return pbh_count(eig.left_eigenvectors @ vec, orth_tol)


def pbh_support_test(V_rows: RationalMatrix, support: Iterable[int]) -> bool:
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
        return self.t_inverse.row(offset + j - 1)

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
