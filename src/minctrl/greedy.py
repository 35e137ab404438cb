"""Greedy actuator-selection solvers.

All three solvers run one sweep loop, starting from the zero input at rank
0: scan the unused coordinates, score each candidate by the rank increase it
gives the controllability matrix, and commit the best one (ties go to the
lowest index, then the lowest probe value). A sweep that cannot increase the
rank ends the solve. The solvers differ only in their probes and in how a
candidate is scored:

* ``randomized_greedy_vector`` -- one fresh standard-normal draw per
  coordinate (seeded, reproducible), scored as a new entry of the input
  vector.
* ``deterministic_greedy_vector`` -- probes the values ``1..2n+1``; a nonzero
  rank-increase polynomial of degree <= 2n cannot vanish on all of them, so
  the best probe attains the generic increase.
* ``greedy_diagonal`` -- the single value 1, scored as a new unit entry of a
  diagonal input matrix.

Each rank backend is one oracle class: ``"exact"``, ``"pbh"`` (count
eigenvectors non-orthogonal to the candidate; distinct eigenvalues only, far
better conditioned than SVD on the controllability matrix), and ``"svd"``
(thresholded singular values). Each oracle scores a coordinate's probes in
one call, ``best_probe``, which returns the best rank and the first probe
that reaches it. The exact oracle first asks ``certified_left_eigenbasis``
for integer left eigenvectors ``v_i`` of n distinct eigenvalues, proven in
integer arithmetic; every plain hitting-set reduction has them. With the
certificate, the PBH/Hautus test makes ``#{i : v_i b != 0}`` the exact
rank. Adding ``value * e_j`` zeroes ``v_i b`` only at the one root
``-(v_i b) / v_ij`` (or never, or always, when ``v_ij = 0``), so all the
probes of a coordinate cost one pass over the nonzeros of column ``j`` and
one lookup each. Without the certificate (a repeated, complex or irrational
eigenvalue, a Jordan block, or an eigenvector with a large denominator, as
in the symmetric reductions) the oracle falls back to fraction-free
elimination over the rationals, one rank per probe. Both give
the same ranks, hence the same traces. Every solver takes the system matrix;
with ``"pbh"`` it also takes an ``EigenSystem`` the caller already has, so a
matrix is decomposed once however many solves and checks use it. The pbh
oracle rejects eigenvalues within that decomposition's ``cluster_gap`` (by
default ``DEFAULT_EIGEN_GAP``); the solvers take no threshold of their own.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Sequence

import numpy as np

from minctrl._kernels import integer_rank
from minctrl.errors import InternalVerificationError, InvalidInputError, is_integer
from minctrl.linalg import (
    DEFAULT_ORTH_TOL_SCALE,
    EigenSystem,
    certified_left_eigenbasis,
    controllability_matrix,
    left_eigensystem,
    pbh_count,
    rank_numeric,
    require_distinct_spectrum,
)
from minctrl.matrices import (
    DenseMatrix,
    Matrix,
    as_dense,
    as_rational,
    integer_form,
    integer_product,
    primitive_vector,
    scale_to_integers,
)

RANK_BACKENDS = ("exact", "pbh", "svd")


@dataclass(frozen=True)
class TraceStep:
    step: int
    chosen_index: int
    chosen_value: float
    rank_before: int
    rank_after: int


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one greedy solve, with the full per-step trace."""

    n: int
    support: tuple[int, ...]
    values: tuple[float, ...]
    final_rank: int
    controllable: bool
    backend: str
    trace: tuple[TraceStep, ...]

    def __post_init__(self):
        if len(set(self.support)) != len(self.support):
            raise InternalVerificationError("duplicate support index")
        if len(self.values) != len(self.support):
            raise InternalVerificationError("values/support length mismatch")
        ranks = [t.rank_before for t in self.trace] + (
            [self.trace[-1].rank_after] if self.trace else []
        )
        if any(b >= a for b, a in zip(ranks, ranks[1:])):
            raise InternalVerificationError("trace ranks must strictly increase")
        if self.controllable and self.final_rank != self.n:
            raise InternalVerificationError("controllable requires full rank")

    @property
    def sparsity(self) -> int:
        return len(self.support)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "n": self.n,
            "support": list(self.support),
            "values": list(self.values),
            "final_rank": self.final_rank,
            "controllable": self.controllable,
            "backend": self.backend,
            "trace": [
                {
                    "step": t.step,
                    "chosen_index": t.chosen_index,
                    "chosen_value": t.chosen_value,
                    "rank_before": t.rank_before,
                    "rank_after": t.rank_after,
                }
                for t in self.trace
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# rank oracles
#
# One class per backend. ``rank_with_vector(j, value)`` is the rank of
# ``C(A, b + value * e_j)`` for the ``b`` last passed to ``begin_sweep``;
# ``best_probe(j, values)`` is the highest of those ranks over ``values`` and
# the first value, in probe order, that reaches it; ``rank_with_block(support)``
# is the rank of the span of ``A^k e_s`` over ``s`` in ``support`` (the
# diagonal input with those unit entries).


def _first_best(scored: Iterable[tuple[int, object]], top: int) -> tuple[int, object]:
    """The highest rank of the ``(rank, value)`` pairs and the first value with
    it; stops at ``top``, the highest rank there can be."""
    best_rank, best_value = -1, None
    for rank, value in scored:
        if rank > best_rank:
            best_rank, best_value = rank, value
            if rank == top:
                break
    return best_rank, best_value


def _probe_each(oracle, j: int, values: Sequence) -> tuple[int, object]:
    """``best_probe`` by one ``rank_with_vector`` per value, up to full rank."""
    return _first_best(((oracle.rank_with_vector(j, v), v) for v in values), oracle.n)


class _ExactOracle:
    """Exact ranks: a PBH count over a certified eigenbasis, else Bareiss.

    When ``certified_left_eigenbasis`` proves that ``A`` has n distinct
    eigenvalues with integer left eigenvectors ``v_i``, the PBH/Hautus test
    gives ``rank C(A, b) = #{i : v_i b != 0}`` exactly, and a diagonal
    block's rank is the number of ``v_i`` nonzero on its support; ``path``
    is then ``"eigenbasis"``. The nonzeros ``(i, v_ij)`` of each column
    ``j`` are listed once. A sweep scales ``b`` to integers ``s * b`` and
    forms the products ``P_i = v_i (s b)``; the probe ``p/q`` at ``j`` then
    zeroes row ``i`` exactly when ``q P_i + s p v_ij = 0``: at the one value
    ``-P_i / (s v_ij)`` if ``v_ij != 0``, else always or never as ``P_i`` is
    zero or not. So ``best_probe`` counts those roots, as reduced integer
    pairs, in one pass over column ``j``, and reads each probe's rank off the
    count; no rank is recounted per probe. Otherwise (a repeated, complex or
    irrational eigenvalue, a Jordan block, or an eigenvector the certificate
    cannot rationalise) ``path`` is ``"bareiss"``: fraction-free integer
    ranks of Krylov columns, one per probe. The columns ``A^k e_j`` of the
    powers of ``A``'s ``integer_form`` are tabulated once, and each sweep
    forms ``A^k b`` from them; every step is one ``integer_product``, which
    skips zero entries. Scaling ``A`` or ``b`` by a positive constant, and
    dividing a column of the controllability matrix by the gcd of its
    entries, leave every rank unchanged, so all arithmetic stays in (fast)
    plain integers. Both paths give the same ranks.
    """

    zero = Fraction(0)
    value = Fraction

    def __init__(self, A: Matrix):
        A = as_rational(A)
        n = A.rows
        if A.cols != n:
            raise InvalidInputError(f"A must be square, got {A.rows}x{A.cols}")
        self.n = n
        self._basis = certified_left_eigenbasis(A)
        self.path = "bareiss" if self._basis is None else "eigenbasis"
        if self._basis is not None:
            # [j] -> the nonzeros (i, v_ij) of column j
            self._columns = [
                [(i, row[j]) for i, row in enumerate(self._basis) if row[j]]
                for j in range(n)
            ]
            return
        # row j of entry k is column j of A^k, so entry k + 1 is entry k times A^T
        transposed, _ = integer_form(A.transpose())
        column = [[int(i == j) for i in range(n)] for j in range(n)]
        self._powers: list[list[list[int]]] = [column]  # [k][j] -> column j of A^k
        for _ in range(1, n):
            column = integer_product(column, transposed)
            self._powers.append(column)

    def begin_sweep(self, b: list[Fraction]) -> None:
        b_int, self._scale = scale_to_integers(b)
        if self._basis is not None:
            self._products = [
                sum(a * x for a, x in zip(row, b_int)) for row in self._basis
            ]
            self._rank = sum(1 for product in self._products if product)
            return
        # A^k b_int, as a row, is b_int times entry k, (A^k)^T
        self._cols = [integer_product([b_int], pk)[0] for pk in self._powers]

    def best_probe(self, j: int, values: Sequence[Fraction]) -> tuple[int, Fraction]:
        if self._basis is None:
            return _probe_each(self, j, values)
        # rows with v_ij = 0 keep their product; each other row is zero at
        # exactly one value, its root -P_i / (s v_ij), kept as (num, den).
        # ``full`` is the rank at a value that is no row's root.
        full = self._rank
        roots: dict[tuple[int, int], int] = {}
        for i, v in self._columns[j]:
            product = self._products[i]
            if product:
                den = self._scale * v
                g = gcd(product, den)
                if den < 0:
                    g = -g
                root = (-product // g, den // g)
            else:
                full += 1
                root = (0, 1)
            roots[root] = roots.get(root, 0) + 1
        return _first_best(
            ((full - roots.get((v.numerator, v.denominator), 0), v) for v in values),
            full,
        )

    def rank_with_vector(self, j: int, value: Fraction) -> int:
        if self._basis is not None:
            return self.best_probe(j, (value,))[0]
        # s*q*(b + (p/q) e_j) is q*b_int + s*p*e_j, whose power columns are
        # q*b_int + s*p*A^k e_j
        q = value.denominator
        shift = self._scale * value.numerator
        return integer_rank(
            [
                primitive_vector([q * x + shift * y for x, y in zip(base, pk[j])])
                for base, pk in zip(self._cols, self._powers)
            ]
        )

    def rank_with_block(self, support: Sequence[int]) -> int:
        if self._basis is not None:
            return len({i for j in support for i, _ in self._columns[j]})
        return integer_rank(
            [primitive_vector(pk[j]) for j in support for pk in self._powers]
        )


class _PbhOracle:
    """Counts left eigenvectors non-orthogonal to the input (distinct spectra).

    Takes the system matrix, or a decomposition the caller already has; the
    decomposition's ``cluster_gap`` is the distinctness threshold.
    """

    zero = 0.0
    value = float

    def __init__(self, A: Matrix | EigenSystem):
        eig = A if isinstance(A, EigenSystem) else left_eigensystem(as_dense(A))
        require_distinct_spectrum(eig)
        self.n = eig.n
        self._rows = eig.left_eigenvectors

    def begin_sweep(self, b: list[float]) -> None:
        vec = np.asarray(b, dtype=np.float64)
        self._products = self._rows @ vec
        self._norm_sq = float(vec @ vec)

    best_probe = _probe_each

    def rank_with_vector(self, j: int, value: float) -> int:
        products = self._products + value * self._rows[:, j]
        norm_sq = self._norm_sq + value * value
        return pbh_count(products, DEFAULT_ORTH_TOL_SCALE * float(np.sqrt(norm_sq)))

    def rank_with_block(self, support: Sequence[int]) -> int:
        # unit columns: each tolerance is the bare scale
        return pbh_count(self._rows[:, list(support)], DEFAULT_ORTH_TOL_SCALE)


class _SvdOracle:
    """Thresholded singular values: ``rank_numeric`` of the input vector's
    ``controllability_matrix``, or of the columns ``A^k e_j`` over a diagonal
    block's support, read from ``controllability_matrix(A, I)``."""

    zero = 0.0
    value = float

    def __init__(self, A: Matrix):
        dense = as_dense(A)
        if dense.rows != dense.cols:
            raise InvalidInputError(f"A must be square, got {dense.rows}x{dense.cols}")
        self.n = dense.rows
        self._A = dense
        # column k*n + j is A^k e_j
        self._units = controllability_matrix(dense, DenseMatrix.identity(self.n)).array

    def begin_sweep(self, b: list[float]) -> None:
        self._b = np.asarray(b, dtype=np.float64)

    best_probe = _probe_each

    def rank_with_vector(self, j: int, value: float) -> int:
        v = self._b.copy()
        v[j] = v[j] + value
        return rank_numeric(controllability_matrix(self._A, DenseMatrix(v[:, None])))

    def rank_with_block(self, support: Sequence[int]) -> int:
        n = self.n
        return rank_numeric(self._units[:, [k * n + j for j in support for k in range(n)]])


_ORACLES = {"exact": _ExactOracle, "pbh": _PbhOracle, "svd": _SvdOracle}


def _make_oracle(A: Matrix | EigenSystem, backend: str):
    if backend not in _ORACLES:
        raise InvalidInputError(
            f"unknown rank backend {backend!r}; expected one of {RANK_BACKENDS}"
        )
    return _ORACLES[backend](A)


# ---------------------------------------------------------------------------
# the sweep loop


def _greedy(
    oracle, probe_values: Callable[[int], Sequence], backend: str, *, block: bool
) -> SolveResult:
    """Commit the best (coordinate, probe) per sweep until the rank stalls.

    ``block`` scores a candidate as a new unit diagonal entry instead of a
    new entry of the input vector.
    """
    n = oracle.n
    b = [oracle.zero] * n
    support: list[int] = []
    rank = 0
    trace: list[TraceStep] = []
    if block:
        def best_probe(j, values):
            return oracle.rank_with_block(support + [j]), values[0]
    else:
        best_probe = oracle.best_probe
    while rank < n:
        if not block:
            oracle.begin_sweep(b)
        cap = n - rank
        best_c = 0
        best_j = -1
        best_v = oracle.zero
        for j in range(n):
            if j in support:
                continue
            score, value = best_probe(j, probe_values(j))
            c = score - rank
            if c > best_c:
                best_c, best_j, best_v = c, j, value
                if c == cap:
                    break
        if best_c <= 0:
            break
        b[best_j] = best_v
        support.append(best_j)
        trace.append(TraceStep(len(trace), best_j, float(best_v), rank, rank + best_c))
        rank += best_c
    return SolveResult(
        n=n,
        support=tuple(support),
        values=tuple(t.chosen_value for t in trace),
        final_rank=rank,
        controllable=rank == n,
        backend=backend,
        trace=tuple(trace),
    )


def randomized_greedy_vector(
    A: Matrix | EigenSystem, seed: int, rank_backend: str = "exact"
) -> SolveResult:
    """Greedy sparse-vector solve scored with standard-normal draws.

    Draws come from numpy's PCG64 generator seeded with ``seed``; one fresh
    draw per still-zero coordinate per sweep, consumed in index order, so
    identical ``(A, seed)`` always produce identical results. ``seed`` must
    be a non-negative integer.
    """
    if not is_integer(seed) or seed < 0:
        raise InvalidInputError(f"seed must be a non-negative integer, got {seed!r}")
    oracle = _make_oracle(A, rank_backend)
    rng = np.random.default_rng(seed)

    def probes(_j: int):
        return (oracle.value(rng.standard_normal()),)

    return _greedy(oracle, probes, rank_backend, block=False)


def deterministic_greedy_vector(
    A: Matrix | EigenSystem, rank_backend: str = "exact"
) -> SolveResult:
    """Greedy sparse-vector solve probing each coordinate with 1..2n+1."""
    oracle = _make_oracle(A, rank_backend)
    values = tuple(oracle.value(p) for p in range(1, 2 * oracle.n + 2))
    return _greedy(oracle, lambda _j: values, rank_backend, block=False)


def greedy_diagonal(
    A: Matrix | EigenSystem, rank_backend: str = "exact"
) -> SolveResult:
    """Greedy diagonal-input solve: add unit diagonal entries until full rank.

    Because the identity input always controls the system, an exact rank
    backend can stall only at full rank.
    """
    oracle = _make_oracle(A, rank_backend)
    unit = (oracle.value(1),)
    return _greedy(oracle, lambda _j: unit, rank_backend, block=True)
