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

Each rank backend is one oracle class: ``"exact"`` (fraction-free
elimination over the rationals), ``"pbh"`` (count eigenvectors
non-orthogonal to the candidate; distinct eigenvalues only, far better
conditioned than SVD on the controllability matrix), and ``"svd"``
(thresholded singular values). Every solver takes the system matrix; with
``"pbh"`` it also takes an ``EigenSystem`` the caller already has, so a
matrix is decomposed once however many solves and checks use it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from minctrl._kernels import integer_rank
from minctrl.errors import InternalVerificationError, InvalidInputError
from minctrl.linalg import (
    DEFAULT_EIGEN_GAP,
    DEFAULT_ORTH_TOL_SCALE,
    EigenSystem,
    left_eigensystem,
    pbh_count,
    rank_numeric,
    require_distinct_spectrum,
)
from minctrl.matrices import (
    Matrix,
    as_dense,
    as_rational,
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
# ``rank_with_block(support)`` is the rank of the span of ``A^k e_s`` over
# ``s`` in ``support`` (the diagonal input with those unit entries).


class _ExactOracle:
    """Fraction-free integer ranks of integer-scaled power columns.

    Scaling ``A`` or ``b`` by a positive constant, and dividing a column of
    the controllability matrix by the gcd of its entries, leave every rank
    unchanged, so all arithmetic stays in (fast) plain integers.
    """

    zero = Fraction(0)
    value = Fraction

    def __init__(self, A: Matrix, **_):
        A = as_rational(A)
        n = A.rows
        if A.cols != n:
            raise InvalidInputError(f"A must be square, got {A.rows}x{A.cols}")
        self.n = n
        flat, _ = scale_to_integers([x for row in A.data for x in row])
        scaled = [flat[i * n : (i + 1) * n] for i in range(n)]
        column = [[int(i == j) for i in range(n)] for j in range(n)]
        self._powers: list[list[list[int]]] = []  # [k][j] -> column j of A^k
        for k in range(n):
            if k:
                column = [
                    [sum(a * c for a, c in zip(row, col)) for row in scaled]
                    for col in column
                ]
            self._powers.append(column)

    def begin_sweep(self, b: list[Fraction]) -> None:
        b_int, self._scale = scale_to_integers(b)
        terms = [(j, v) for j, v in enumerate(b_int) if v]
        self._cols = [
            [sum(v * pk[j][i] for j, v in terms) for i in range(self.n)]
            for pk in self._powers
        ]

    def rank_with_vector(self, j: int, value: Fraction) -> int:
        # s*q*(b + (p/q) e_j) has the power columns q*b_int + s*p*A^k e_j
        q = value.denominator
        shift = self._scale * value.numerator
        return integer_rank(
            [
                primitive_vector([q * x + shift * y for x, y in zip(base, pk[j])])
                for base, pk in zip(self._cols, self._powers)
            ]
        )

    def rank_with_block(self, support: Sequence[int]) -> int:
        return integer_rank(
            [primitive_vector(pk[j]) for j in support for pk in self._powers]
        )


class _PbhOracle:
    """Counts left eigenvectors non-orthogonal to the input (distinct spectra).

    Takes the system matrix, or a decomposition the caller already has.
    """

    zero = 0.0
    value = float

    def __init__(
        self,
        A: Matrix | EigenSystem,
        gap_threshold: float = DEFAULT_EIGEN_GAP,
        orth_tol_scale: float = DEFAULT_ORTH_TOL_SCALE,
    ):
        if isinstance(A, EigenSystem):
            eig = A
        else:
            eig = left_eigensystem(as_dense(A), cluster_gap=gap_threshold)
        require_distinct_spectrum(eig, gap_threshold)
        self.n = eig.n
        self._rows = eig.left_eigenvectors
        self._tol_scale = orth_tol_scale

    def begin_sweep(self, b: list[float]) -> None:
        vec = np.asarray(b, dtype=np.float64)
        self._products = self._rows @ vec
        self._norm_sq = float(vec @ vec)

    def rank_with_vector(self, j: int, value: float) -> int:
        products = self._products + value * self._rows[:, j]
        norm_sq = self._norm_sq + value * value
        return pbh_count(products, self._tol_scale * float(np.sqrt(norm_sq)))

    def rank_with_block(self, support: Sequence[int]) -> int:
        # unit columns: each tolerance is the bare scale
        return pbh_count(self._rows[:, list(support)], self._tol_scale)


class _SvdOracle:
    """Thresholded singular values of the controllability matrix."""

    zero = 0.0
    value = float

    def __init__(self, A: Matrix, **_):
        dense = as_dense(A)
        if dense.rows != dense.cols:
            raise InvalidInputError(f"A must be square, got {dense.rows}x{dense.cols}")
        self.n = dense.rows
        self._arr = dense.array
        power = np.eye(self.n)
        self._powers = []
        for _ in range(self.n):
            self._powers.append(power.copy())
            power = dense.array @ power

    def begin_sweep(self, b: list[float]) -> None:
        self._b = np.asarray(b, dtype=np.float64)

    def rank_with_vector(self, j: int, value: float) -> int:
        v = self._b.copy()
        v[j] = v[j] + value
        ctrb = np.empty((self.n, self.n))
        for k in range(self.n):
            ctrb[:, k] = v
            v = self._arr @ v
        return rank_numeric(ctrb)

    def rank_with_block(self, support: Sequence[int]) -> int:
        cols = np.column_stack([p[:, j] for j in support for p in self._powers])
        return rank_numeric(cols)


_ORACLES = {"exact": _ExactOracle, "pbh": _PbhOracle, "svd": _SvdOracle}


def _make_oracle(A: Matrix | EigenSystem, backend: str, gap_threshold: float):
    if backend not in _ORACLES:
        raise InvalidInputError(
            f"unknown rank backend {backend!r}; expected one of {RANK_BACKENDS}"
        )
    return _ORACLES[backend](A, gap_threshold=gap_threshold)


# ---------------------------------------------------------------------------
# the sweep loop


def _greedy(
    oracle, probe_values: Callable[[int], Iterable], backend: str, *, block: bool
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
        def score(j, _value):
            return oracle.rank_with_block(support + [j])
    else:
        score = oracle.rank_with_vector
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
            for value in probe_values(j):
                c = score(j, value) - rank
                if c > best_c:
                    best_c, best_j, best_v = c, j, value
                    if c == cap:
                        break
            if best_c == cap:
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
    A: Matrix | EigenSystem,
    seed: int,
    rank_backend: str = "exact",
    *,
    gap_threshold: float = DEFAULT_EIGEN_GAP,
) -> SolveResult:
    """Greedy sparse-vector solve scored with standard-normal draws.

    Draws come from numpy's PCG64 generator seeded with ``seed``; one fresh
    draw per still-zero coordinate per sweep, consumed in index order, so
    identical ``(A, seed)`` always produce identical results.
    """
    oracle = _make_oracle(A, rank_backend, gap_threshold)
    rng = np.random.default_rng(seed)

    def probes(_j: int):
        return (oracle.value(rng.standard_normal()),)

    return _greedy(oracle, probes, rank_backend, block=False)


def deterministic_greedy_vector(
    A: Matrix | EigenSystem,
    rank_backend: str = "exact",
    *,
    gap_threshold: float = DEFAULT_EIGEN_GAP,
) -> SolveResult:
    """Greedy sparse-vector solve probing each coordinate with 1..2n+1."""
    oracle = _make_oracle(A, rank_backend, gap_threshold)
    probe_range = range(1, 2 * oracle.n + 2)

    def probes(_j: int):
        return (oracle.value(p) for p in probe_range)

    return _greedy(oracle, probes, rank_backend, block=False)


def greedy_diagonal(
    A: Matrix | EigenSystem,
    rank_backend: str = "exact",
    *,
    gap_threshold: float = DEFAULT_EIGEN_GAP,
) -> SolveResult:
    """Greedy diagonal-input solve: add unit diagonal entries until full rank.

    Because the identity input always controls the system, an exact rank
    backend can stall only at full rank.
    """
    oracle = _make_oracle(A, rank_backend, gap_threshold)
    unit = (oracle.value(1),)
    return _greedy(oracle, lambda _j: unit, rank_backend, block=True)
