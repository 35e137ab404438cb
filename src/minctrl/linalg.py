"""Rank and eigenstructure primitives.

Everything downstream reduces to two questions about a system matrix `A`
and an input vector `b`:

* what is the rank of the controllability matrix ``(b, Ab, ..., A^{n-1}b)``, and
* which left eigenvectors of `A` are orthogonal to `b` (the PBH test).

Both an exact-rational backend (fraction-free elimination, zero tolerance)
and a numeric backend (eigenvector counting) are provided; the numeric
backend counts because the raw controllability-matrix rank is badly
conditioned for floats, while counting eigenvector orthogonality is not.

The eigenvector count is ``pbh_controllability_rank``, for a matrix with one
row per state; its cutoff, like the greedy PBH oracle's, is
``pbh_reached``. It needs a distinct spectrum, and an ``EigenSystem`` has one
by construction: ``left_eigensystem`` compares the smallest eigenvalue gap
with its ``cluster_gap`` when it decomposes the matrix, the only comparison
of an eigenvalue gap, and refuses a (nearly) repeated spectrum, so no PBH
count re-checks it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from minctrl import np
from minctrl._kernels import integer_rank
from minctrl.errors import (
    BackendPreconditionError,
    InvalidInputError,
    NumericBackendError,
    is_real,
)
from minctrl.matrices import (
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


def is_gap_threshold(value) -> bool:
    """Whether ``value`` is a valid eigenvalue-gap threshold: a positive real
    number within the float range, a float infinity included (no gap meets it).

    The gap check compares and formats the threshold as a float, so a number
    past float64, such as ``10**400``, is refused rather than rounded.
    """
    return is_real(value) and (0 < value <= sys.float_info.max or value == math.inf)


# Scale factor for the |v^T b| zero threshold in the PBH test.
DEFAULT_ORTH_TOL_SCALE = 1e-8

# Largest denominator tried when rationalising an entry of a normalised
# numeric eigenvector. It bounds only which inputs can be certified: the
# exact check, not the rounding, decides.
EIGENBASIS_MAX_DENOMINATOR = 10**6


def rank_exact(M: RationalMatrix) -> int:
    """True rank over the rationals; deterministic, no tolerances."""
    return integer_rank([primitive_vector(scale_to_integers(row)[0]) for row in M.data])


@dataclass(frozen=True)
class EigenSystem:
    """Left eigenstructure of a square real matrix.

    Row ``i`` of ``left_eigenvectors`` satisfies ``v_i^T A = lambda_i v_i^T``
    up to ``1e-8 * max(1, ||A||_F)`` and has unit Euclidean norm. Eigenvalues
    are sorted by (real, imag) so the decomposition is reproducible, and
    pairwise farther apart than the ``cluster_gap`` it was built with, so
    every PBH count may use it as it is.
    """

    eigenvalues: np.ndarray
    left_eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return len(self.eigenvalues)


def left_eigensystem(
    A: Matrix,
    *,
    cluster_gap: float = DEFAULT_EIGEN_GAP,
) -> EigenSystem:
    """Eigenvalues and unit-norm left eigenvectors of a square matrix, dense
    or rational.

    ``cluster_gap``, a positive real number, is the PBH distinctness
    threshold: eigenvalues closer than it are deliberately treated as
    repeated, since floating point cannot certify them distinct, and the
    matrix is rejected with ``BackendPreconditionError``, because the
    eigenvector count only equals the controllability rank for distinct
    spectra.
    """
    if not is_gap_threshold(cluster_gap):
        raise InvalidInputError(
            f"cluster_gap must be a positive number within the float range, got {cluster_gap!r}"
        )
    A = as_dense(A)
    if A.rows != A.cols:
        raise InvalidInputError(f"A must be square, got {A.rows}x{A.cols}")
    n = A.rows
    # ||A||_F overflows for entries above about 1.3e154; no residual is then bounded
    with np.errstate(over="ignore"):
        tolerance = 1e-8 * max(1.0, float(np.linalg.norm(A.array, ord="fro")))
    if not math.isfinite(tolerance):
        raise NumericBackendError(
            "||A||_F overflows float64, so no residual check can bound the "
            f"decomposition [matrix sha256: {A.sha256()}]"
        )
    try:
        # Right eigenvectors of A^T are plain-transpose left eigenvectors of A.
        values, vectors = np.linalg.eig(A.array.T)
    except np.linalg.LinAlgError as exc:
        raise NumericBackendError(
            f"eigensolver did not converge: {exc} [matrix sha256: {A.sha256()}]"
        ) from exc
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    rows = vectors.T[order]
    norms = np.linalg.norm(rows, axis=1)
    rows = rows / norms[:, None]

    residual = float(
        np.linalg.norm(rows @ A.array - values[:, None] * rows, axis=1).max()
    )
    # written so that a NaN residual fails the check too
    if not residual <= tolerance:
        raise NumericBackendError(
            f"eigenvector residual {residual:.3e} exceeds tolerance "
            f"{tolerance:.3e} [matrix sha256: {A.sha256()}]"
        )

    if n == 1:
        min_gap = math.inf
    else:
        diff = np.abs(values[:, None] - values[None, :])
        min_gap = float(np.min(diff[np.triu_indices(n, k=1)]))
    # written so that a NaN gap is rejected too
    if not min_gap > cluster_gap:
        raise BackendPreconditionError(
            f"eigenvalue gap {min_gap:.3e} is below the distinctness threshold "
            f"{cluster_gap:.3e}; the eigenvector count only equals the "
            "controllability rank for distinct spectra"
        )

    # both arrays are fresh copies, owned by the result alone
    rows.flags.writeable = False
    values.flags.writeable = False
    return EigenSystem(eigenvalues=values, left_eigenvectors=rows)


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
    ``greedy.controllability_rank``: a ``1 x n`` ``B`` is rejected, not
    read as a column. Row ``i`` counts when ``|v_i^T B[:, c]| > 1e-8 *
    ||B[:, c]||`` for some column ``c``. For a matrix with distinct
    eigenvalues this equals ``rank C(A, B)`` whenever that cutoff separates
    true zeros from the rest; ``eig``'s spectrum is distinct by construction.
    """
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
