"""Rank and eigenstructure primitives.

Everything downstream reduces to two questions about a system matrix `A`
and an input vector `b`:

* what is the rank of the controllability matrix ``(b, Ab, ..., A^{n-1}b)``, and
* which left eigenvectors of `A` are orthogonal to `b` (the PBH test).

Both an exact-rational backend (fraction-free elimination, zero tolerance)
and a numeric backend (SVD thresholding, eigenvector counting) are provided;
the numeric path exists because the raw controllability-matrix rank is badly
conditioned for floats, while counting eigenvector orthogonality is not.

The eigenvector count is ``pbh_controllability_rank``, for a matrix with one
row per state; its cutoff, like the greedy PBH oracle's, is
``pbh_reached``. Its one setting is the distinctness threshold: the
``cluster_gap`` of the ``EigenSystem`` it is given, so a decomposition and
every PBH count made from it agree on which eigenvalues count as repeated.
``require_distinct_spectrum`` makes that comparison, the only one of an
eigenvalue gap: the PBH counts and the experiment harness's accept test
all call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from minctrl import np
from minctrl._kernels import integer_rank
from minctrl.errors import (
    BackendPreconditionError,
    InvalidInputError,
    NumericBackendError,
    is_real,
)
from minctrl.matrices import (
    DenseMatrix,
    Matrix,
    RationalMatrix,
    as_dense,
    integer_form,
    integer_product,
    primitive_vector,
    scale_to_integers,
)

# Eigenvalues closer than this are treated as repeated; a decomposition can
# be built with another ``cluster_gap``.
DEFAULT_EIGEN_GAP = 0.01

# Scale factor for the |v^T b| zero threshold in the PBH test.
DEFAULT_ORTH_TOL_SCALE = 1e-8

# Largest denominator tried when rationalising an entry of a normalised
# numeric eigenvector. It bounds only which inputs can be certified: the
# exact check, not the rounding, decides.
EIGENBASIS_MAX_DENOMINATOR = 10**6

def controllability_matrix(A: Matrix, B: Matrix) -> Matrix:
    """Horizontal stack of ``B, AB, A^2 B, ..., A^{n-1} B``.

    `A` must be square and `B` must have matching row count. Dense inputs
    give a dense result, and a power ``A^k B`` that overflows float64 is
    invalid input; rational inputs stay exact.
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
            block = A.array @ out[:, (k - 1) * m : k * m]
            if not np.all(np.isfinite(block)):
                raise InvalidInputError(
                    f"A^{k} B overflowed float64: controllability matrix "
                    "entries must be finite"
                )
            out[:, k * m : (k + 1) * m] = block
        return DenseMatrix(out)
    blocks = [B]
    for _ in range(1, n):
        blocks.append(A @ blocks[-1])
    rows = [tuple(x for blk in blocks for x in blk.row(i)) for i in range(n)]
    return RationalMatrix(tuple(rows))


def rank_numeric(M: DenseMatrix | np.ndarray) -> int:
    """Number of singular values above ``max(rows, cols) * sigma_max * eps``.

    The cutoff is relative to the largest singular value, so scaling ``M``
    does not change its rank.
    """
    arr = M.array if isinstance(M, DenseMatrix) else np.asarray(M)
    try:
        sigma = np.linalg.svd(arr, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericBackendError(f"SVD failed: {exc}") from exc
    if sigma.size == 0:
        return 0
    threshold = max(arr.shape) * sigma[0] * np.finfo(np.float64).eps
    return int(np.count_nonzero(sigma > threshold))


def rank_exact(M: RationalMatrix) -> int:
    """True rank over the rationals; deterministic, no tolerances."""
    return integer_rank([primitive_vector(scale_to_integers(row)[0]) for row in M.data])


@dataclass(frozen=True)
class EigenSystem:
    """Left eigenstructure of a square real matrix.

    Row ``i`` of ``left_eigenvectors`` satisfies ``v_i^T A = lambda_i v_i^T``
    up to ``1e-8 * max(1, ||A||_F)`` and has unit Euclidean norm. Eigenvalues
    are sorted by (real, imag) so the decomposition is reproducible.

    ``cluster_gap`` is the PBH distinctness threshold: every PBH count
    rejects the system when ``min_pairwise_gap`` is not above it.
    """

    eigenvalues: np.ndarray
    left_eigenvectors: np.ndarray
    min_pairwise_gap: float
    cluster_gap: float

    @property
    def n(self) -> int:
        return len(self.eigenvalues)


def left_eigensystem(
    A: DenseMatrix,
    *,
    cluster_gap: float = DEFAULT_EIGEN_GAP,
) -> EigenSystem:
    """Eigenvalues and unit-norm left eigenvectors of a square matrix.

    ``cluster_gap``, a positive real number, is the PBH distinctness
    threshold of the result: eigenvalues closer than it are deliberately
    treated as repeated, since floating point cannot certify them distinct,
    and the PBH counts reject the system outright.
    """
    if not is_real(cluster_gap) or not cluster_gap > 0:
        raise InvalidInputError(
            f"cluster_gap must be a positive number, got {cluster_gap!r}"
        )
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

    tolerance = 1e-8 * max(1.0, float(np.linalg.norm(A.array, ord="fro")))
    residual = float(
        np.linalg.norm(rows @ A.array - values[:, None] * rows, axis=1).max()
    )
    # written so that a NaN residual fails the check too
    if not residual <= tolerance:
        raise NumericBackendError(
            f"eigenvector residual {residual:.3e} exceeds tolerance "
            f"{tolerance:.3e}",
            matrix_hash=A.sha256(),
        )

    if n == 1:
        min_gap = math.inf
    else:
        diff = np.abs(values[:, None] - values[None, :])
        min_gap = float(np.min(diff[np.triu_indices(n, k=1)]))

    # both arrays are fresh copies, owned by the result alone
    rows.flags.writeable = False
    values.flags.writeable = False
    return EigenSystem(
        eigenvalues=values,
        left_eigenvectors=rows,
        min_pairwise_gap=min_gap,
        cluster_gap=cluster_gap,
    )


def require_distinct_spectrum(eig: EigenSystem) -> None:
    """Reject (nearly) repeated eigenvalues before any PBH count.

    The eigenvector count only equals the controllability rank when every
    eigenvalue is simple; eigenvalues within ``eig.cluster_gap`` of each
    other count as repeated.
    """
    # written so that a NaN gap is rejected too
    if not eig.min_pairwise_gap > eig.cluster_gap:
        raise BackendPreconditionError(
            f"eigenvalue gap {eig.min_pairwise_gap:.3e} is below the "
            f"distinctness threshold {eig.cluster_gap:.3e}; the eigenvector "
            "count only equals the controllability rank for distinct spectra"
        )


def pbh_reached(products: np.ndarray, norms) -> np.ndarray:
    """The PBH threshold: the left eigenvectors an input reaches, as a row mask.

    ``products[i]`` holds ``v_i^T b``, or the row ``v_i^T B`` for a
    multi-column input, and ``norms`` holds ``||b||`` (a scalar, or one norm
    per column). Row ``i`` is reached when ``|v_i^T b_c| > 1e-8 * ||b_c||``
    for some column ``c``.
    """
    above = np.abs(products) > DEFAULT_ORTH_TOL_SCALE * norms
    return above.any(axis=1) if above.ndim == 2 else above


def pbh_controllability_rank(eig: EigenSystem, B: Matrix) -> int:
    """Controllability rank by counting eigenvectors non-orthogonal to `B`.

    ``B`` is a matrix with one row per state, dense or rational, as for
    ``oracles.controllability_rank``: a ``1 x n`` ``B`` is rejected, not
    read as a column. Row ``i`` counts when ``|v_i^T B[:, c]| > 1e-8 *
    ||B[:, c]||`` for some column ``c``. For a matrix with distinct
    eigenvalues this equals ``rank C(A, B)`` whenever that cutoff separates
    true zeros from the rest. Eigenvalues within ``eig.cluster_gap`` of each
    other are rejected: use the exact rank or the covered-count
    characterization instead.
    """
    require_distinct_spectrum(eig)
    cols = as_dense(B).array
    if len(cols) != eig.n:
        raise InvalidInputError(f"B has {len(cols)} rows but A is {eig.n}x{eig.n}")
    reached = pbh_reached(eig.left_eigenvectors @ cols, np.linalg.norm(cols, axis=0))
    return int(np.count_nonzero(reached))


def limit_denominator(x: float, max_denominator: int) -> tuple[int, int]:
    """``Fraction(x).limit_denominator(max_denominator)`` as a pair ``(p, q)``.

    The closest fraction to the finite float ``x`` with ``0 < q <=
    max_denominator``, in lowest terms: CPython's continued-fraction
    algorithm on ``x.as_integer_ratio()``, in plain integers. As there, a
    tie goes to the last convergent ``p1 / q1``.
    """
    n, d = x.as_integer_ratio()
    if d <= max_denominator:
        return n, d
    whole = d
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > max_denominator:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (max_denominator - q0) // q1
    # the two candidates lie on either side of x, 1 / (q1 (q0 + k q1)) apart,
    # and p1/q1 is d / (q1 whole) from x
    if 2 * d * (q0 + k * q1) <= whole:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def certified_left_eigenbasis(A: RationalMatrix) -> list[list[int]] | None:
    """Exact integer left eigenvectors of `A` for n distinct eigenvalues, or None.

    With ``A == A_int / L`` (``integer_form``), each numeric left eigenvector
    of the floats ``A_int / L`` (sorted like ``left_eigensystem``) is
    divided by its largest-magnitude entry, rationalised entry by entry with
    denominators up to ``EIGENBASIS_MAX_DENOMINATOR`` (``limit_denominator``,
    as integer pairs) and scaled to a primitive integer vector ``v``. The
    guess only proposes ``v``; the certificate is exact: ``w = v A_int`` must equal ``mu * v`` in integers
    (checked as ``v_k w == w_k v``), so ``v`` is a left eigenvector for the
    eigenvalue ``w_k / (L v_k)``, and the n eigenvalues must be pairwise
    distinct. Nonzero eigenvectors of distinct eigenvalues are independent,
    so the rows are a basis and no tolerance decides anything.

    Returns None, never raises, when the certificate fails: a repeated,
    complex or irrational eigenvalue, a Jordan block, a denominator above
    the bound, entries too large for floats, or an eigensolver failure.
    """
    A_int, L = integer_form(A)
    try:
        values, vectors = np.linalg.eig((np.array(A_int, dtype=np.float64) / L).T)
    except (OverflowError, np.linalg.LinAlgError):
        return None
    if np.any(values.imag != 0) or not (
        np.all(np.isfinite(values)) and np.all(np.isfinite(vectors))
    ):
        return None
    rows = vectors.real.T[np.argsort(values.real, kind="stable")]
    basis: list[list[int]] = []
    eigenvalues: set[Fraction] = set()
    for row in rows:
        k = int(np.argmax(np.abs(row)))
        guess = [
            limit_denominator(x, EIGENBASIS_MAX_DENOMINATOR)
            for x in (row / row[k]).tolist()
        ]
        scale = math.lcm(*(q for _, q in guess))
        v = primitive_vector([p * (scale // q) for p, q in guess])
        w = integer_product([v], A_int)[0]
        if any(v[k] * w_c != w[k] * v_c for v_c, w_c in zip(v, w)):
            return None
        mu = Fraction(w[k], v[k])
        if mu in eigenvalues:
            return None
        eigenvalues.add(mu)
        basis.append(v)
    return basis


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

