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

``rank_oracle`` gives the backend's oracle, which ranks any input matrix
(``input_rank``) and scores a coordinate's probes in one call
(``best_probe``). ``"pbh"`` counts eigenvectors non-orthogonal to the
candidate (distinct eigenvalues only; far better conditioned than a float
rank of the controllability matrix). ``"exact"`` counts the same over
integer left eigenvectors of n distinct eigenvalues that
``certified_left_eigenbasis`` proves, as every plain hitting-set reduction
has them; then a probe at a coordinate is scored by one count over the
nonzeros of its column. Without them (a repeated, complex
or irrational eigenvalue, a Jordan block, or an eigenvector with a large
denominator, as in the symmetric reductions) it eliminates integer Krylov
columns, one rank per probe until no later probe can score higher. Both
give the same ranks, hence the same traces. Every solver takes the system
matrix; with ``"pbh"`` it also takes an ``EigenSystem`` the caller already
has, so a matrix is decomposed once however many solves and checks use
it. The pbh oracle decomposes a matrix with the default
``DEFAULT_EIGEN_GAP`` and takes a passed decomposition as it is, since an
``EigenSystem`` has a distinct spectrum by construction; the solvers take
no threshold of their own.

``controllability_rank``, which ``minctrl verify`` runs, is the same
oracle's ``input_rank`` of a whole input matrix, so a check asks the question
the solvers ask; the Kalman test is ``controllability_rank(A, B) == n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from minctrl import RANK_BACKENDS, np
from minctrl._kernels import integer_rank
from minctrl.errors import InternalVerificationError, InvalidInputError, is_integer
from minctrl.linalg import (
    EigenSystem,
    certified_left_eigenbasis,
    left_eigensystem,
    pbh_reached,
)
from minctrl.matrices import (
    Matrix,
    RationalMatrix,
    as_dense,
    as_rational,
    integer_form,
    integer_product,
    primitive_vector,
    scale_to_integers,
)


@dataclass(frozen=True)
class TraceStep:
    """One committed sweep: the coordinate and value it chose and the rank
    it reached. A step's number is its position in the trace, and the rank
    before it is the previous step's ``rank_after`` (0 for the first)."""

    chosen_index: int
    chosen_value: float
    rank_after: int


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one greedy solve: its per-step trace, which gives the
    support, the values and the ranks."""

    n: int
    backend: str
    trace: tuple[TraceStep, ...]

    def __post_init__(self):
        rank = 0
        for t in self.trace:
            if t.rank_after <= rank:
                raise InternalVerificationError("trace ranks must strictly increase")
            rank = t.rank_after
        if rank > self.n:
            raise InternalVerificationError(f"trace rank {rank} exceeds n = {self.n}")
        if len(set(self.support)) != len(self.trace):
            raise InternalVerificationError("duplicate support index")

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(t.chosen_index for t in self.trace)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(t.chosen_value for t in self.trace)

    @property
    def final_rank(self) -> int:
        return self.trace[-1].rank_after if self.trace else 0

    @property
    def controllable(self) -> bool:
        return self.final_rank == self.n

    @property
    def sparsity(self) -> int:
        return len(self.trace)

    def to_json_dict(self) -> dict:
        before = [0, *(t.rank_after for t in self.trace)]
        return {
            "schema_version": 1,
            "n": self.n,
            "support": list(self.support),
            "values": list(self.values),
            "final_rank": self.final_rank,
            "controllable": self.controllable,
            "backend": self.backend,
            "trace": [
                {"step": k, **vars(t), "rank_before": before[k]}
                for k, t in enumerate(self.trace)
            ],
        }


# ---------------------------------------------------------------------------
# rank oracles: ``input_rank(B)`` is the rank of ``C(A, B)`` for the
# ``_sparse_columns`` of ``B``; ``best_probe(j, values)`` is the highest rank
# of ``C(A, b + value * e_j)`` over ``values``, for the ``b`` last passed to
# ``begin_sweep``, and the first value, in probe order, that reaches it;
# each oracle scores the values in order through ``_first_best``, which
# stops at full rank (the Krylov oracle stops sooner where it can; see
# ``_KrylovOracle``). ``value(x)`` is the oracle's probe arithmetic.


def _sparse_columns(B: Matrix, value: Callable = Fraction) -> list[tuple]:
    """Each column of ``B`` as the pairs ``(i, value(B[i, c]))`` of its nonzeros."""
    # as_dense rejects an entry past float64; as_rational converts floats exactly
    rows = as_dense(B).array.tolist() if value is float else as_rational(B).data
    return [tuple((i, value(x)) for i, x in enumerate(col) if x) for col in zip(*rows)]


def _dense(column: Sequence, n: int) -> list:
    entries = dict(column)
    return [entries.get(i, 0) for i in range(n)]


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


class _EigenbasisOracle:
    """Exact ranks ``#{i : v_i B != 0}`` over a certified integer eigenbasis.

    The nonzeros ``(i, v_ij)`` of each column ``j`` are listed once. A sweep
    forms the products ``P_i = v_i (s b)`` of ``b`` scaled to integers; the
    probe ``p/q`` at ``j`` zeroes row ``i`` exactly when
    ``q P_i + s p v_ij = 0``, so only the rows of column ``j`` can change,
    and ``best_probe`` reads each probe's rank off one count of the rows of
    column ``j`` that it zeroes.
    """

    path = "eigenbasis"
    value = Fraction

    def __init__(self, basis: list[list[int]]):
        self.n = len(basis)
        # [j] -> the nonzeros (i, v_ij) of column j
        self._columns = [[(i, v) for i, v in enumerate(col) if v] for col in zip(*basis)]
        self._reached: dict[tuple, frozenset[int]] = {}  # column -> rows, once asked

    def _project(self, column: Sequence) -> tuple[dict[int, int], int]:
        """The nonzero ``v_i (s c)`` by ``i``, for ``s`` clearing ``c``'s denominators."""
        ints, scale = scale_to_integers([x for _, x in column])
        products: dict[int, int] = {}
        for (k, _), x in zip(column, ints):
            for i, v in self._columns[k]:
                products[i] = products.get(i, 0) + v * x
        return {i: p for i, p in products.items() if p}, scale

    def begin_sweep(self, b: list[Fraction]) -> None:
        self._products, self._scale = self._project([(i, x) for i, x in enumerate(b) if x])
        self._rank = len(self._products)

    def best_probe(self, j: int, values: Sequence[Fraction]) -> tuple[int, Fraction]:
        # only the rows of column j can change; ``top``, the rank at a value
        # that zeroes none of them, adds those whose product is zero now
        products, column = self._products, self._columns[j]
        top = self._rank + sum(i not in products for i, _ in column)

        def rank(value: Fraction) -> int:
            q, shift = value.denominator, self._scale * value.numerator
            return top - sum(q * products.get(i, 0) + shift * v == 0 for i, v in column)

        return _first_best(((rank(v), v) for v in values), top)

    def input_rank(self, B: Sequence[tuple]) -> int:
        rows: set[int] = set()
        for column in B:
            reached = self._reached.get(column)
            if reached is None:
                reached = self._reached[column] = frozenset(self._project(column)[0])
            rows |= reached
        return len(rows)


def _krylov_rank(columns: Iterable[list[int]]) -> int:
    """Exact rank of the matrix with these integer columns, eliminated by rows
    (faster than by columns), each column and then each row made primitive."""
    return integer_rank(
        [primitive_vector(list(row)) for row in zip(*map(primitive_vector, columns))]
    )


class _KrylovOracle:
    """Exact ranks without a certificate: ``integer_rank`` of the integer
    Krylov columns ``A^k c``, ``k < n``, of each input column ``c``, built
    on first use and kept, each step one ``integer_product`` with ``A``'s
    ``integer_form``. Scaling ``A`` or ``b`` by a positive constant, and
    dividing a column by the gcd of its entries, leave every rank unchanged,
    so all arithmetic stays in (fast) plain integers.

    ``best_probe`` stops where no later value can score higher. From a zero
    ``b``, ``C(A, v e_j) = v C(A, e_j)``: every nonzero value has one rank,
    so a nonzero first value is the only one scored. Otherwise
    ``C(A, b + v e_j)`` is affine in ``v``, so each of its ``(r+1)``-minors
    is a polynomial in ``v`` of degree at most ``r + 1``; once ``best + 2``
    distinct values score at most ``best``, every such minor vanishes
    identically and no value scores more.
    """

    path = "bareiss"
    value = Fraction

    def __init__(self, A: RationalMatrix):
        self.n = A.rows
        # a column x, kept as a list, steps to A x as the row x times A^T
        self._transposed, _ = integer_form(A.transpose())
        self._built: dict[tuple, list[list[int]]] = {}  # column -> A^k c, once asked

    def _columns(self, column: tuple) -> list[list[int]]:
        if column not in self._built:
            krylov = [scale_to_integers(_dense(column, self.n))[0]]
            for _ in range(1, self.n):
                krylov.append(integer_product([krylov[-1]], self._transposed)[0])
            self._built[column] = krylov
        return self._built[column]

    def begin_sweep(self, b: list[Fraction]) -> None:
        self._scale = scale_to_integers(b)[1]
        self._support = tuple((i, x) for i, x in enumerate(b) if x)
        self._cols = self._columns(self._support)

    def best_probe(self, j: int, values: Sequence[Fraction]) -> tuple[int, Fraction]:
        # s*q*(b + (p/q) e_j) is q*b_int + s*p*e_j, whose power columns are
        # q*b_int + s*p*A^k e_j
        units = self._columns(((j, 1),))
        if not self._support and values[0]:  # the first-sweep stop
            values = values[:1]

        def rank(value: Fraction) -> int:
            q, shift = value.denominator, self._scale * value.numerator
            return _krylov_rank(
                [q * x + shift * y for x, y in zip(base, unit)]
                for base, unit in zip(self._cols, units)
            )

        def scored():  # each distinct value once, until the degree stop
            best = -1
            for count, value in enumerate(dict.fromkeys(values), 1):
                score = rank(value)
                yield score, value
                best = max(best, score)
                if count >= best + 2:
                    return

        return _first_best(scored(), self.n)

    def input_rank(self, B: Sequence[tuple]) -> int:
        return _krylov_rank([c for column in B for c in self._columns(column)])


class _PbhOracle:
    """Counts left eigenvectors non-orthogonal to the input (distinct spectra).

    Takes the system matrix, or a decomposition the caller already has,
    whose spectrum is distinct by construction. ``input_rank`` counts as
    ``pbh_controllability_rank`` does, reading only the eigenvector columns
    that ``B``'s nonzeros select, and ``best_probe`` counts a row mask from
    ``pbh_reached``, the one PBH threshold.
    """

    value = float

    def __init__(self, A: Matrix | EigenSystem):
        eig = A if isinstance(A, EigenSystem) else left_eigensystem(A)
        self.n = eig.n
        self._eig = eig

    def begin_sweep(self, b: list[float]) -> None:
        vec = np.asarray(b, dtype=np.float64)
        self._products = self._eig.left_eigenvectors @ vec
        self._norm_sq = float(vec @ vec)

    def best_probe(self, j: int, values: Sequence[float]) -> tuple[int, float]:
        # one value at a time: on ER graphs the first probe usually reaches
        # full rank, and _first_best stops there
        column = self._eig.left_eigenvectors[:, j]

        def rank(value: float) -> int:
            norm = float(np.sqrt(self._norm_sq + value * value))
            return int(np.count_nonzero(pbh_reached(self._products + value * column, norm)))

        return _first_best(((rank(v), v) for v in values), self.n)

    def input_rank(self, B: Sequence[tuple]) -> int:
        # each nonzero scales the eigenvector column it selects, O(n nnz): a
        # one-entry column's products are exactly the dense product's
        B = [column for column in B if column]  # a zero column reaches no row
        values = np.array([x for column in B for _, x in column], dtype=np.float64)
        products = self._eig.left_eigenvectors[:, [i for column in B for i, _ in column]] * values
        if len(values) > len(B):  # sum each column's terms
            starts = np.cumsum([0, *map(len, B[:-1])])
            products = np.add.reduceat(products, starts, axis=1)
            values = np.sqrt(np.add.reduceat(values * values, starts))
        return int(np.count_nonzero(pbh_reached(products, np.abs(values))))


def rank_oracle(A: Matrix | EigenSystem, backend: str):
    """The ``backend`` oracle for ``A``: ``"exact"`` prefers a certified eigenbasis."""
    if backend not in RANK_BACKENDS:
        raise InvalidInputError(
            f"unknown rank backend {backend!r}; expected one of {RANK_BACKENDS}"
        )
    if backend == "pbh":
        return _PbhOracle(A)
    A = as_rational(A)
    if A.cols != A.rows:
        raise InvalidInputError(f"A must be square, got {A.rows}x{A.cols}")
    basis = certified_left_eigenbasis(A)
    return _KrylovOracle(A) if basis is None else _EigenbasisOracle(basis)


def controllability_rank(
    A: Matrix | EigenSystem, B: Matrix, rank_backend: str = "exact"
) -> int:
    """Rank of the controllability matrix ``(B, AB, ..., A^{n-1}B)``.

    The ``input_rank`` of ``rank_oracle(A, rank_backend)``, the question
    the solvers score with: ``"exact"`` counts over a certified eigenbasis,
    else eliminates integer Krylov columns; ``"pbh"`` counts the left
    eigenvectors of ``A`` not orthogonal to some column of ``B`` (distinct
    spectra only; see ``pbh_controllability_rank``), and takes an
    ``EigenSystem`` for ``A`` as the solvers do. ``B`` needs one row per
    state for every backend: a ``1 x n`` ``B`` is rejected, not read as a
    column.
    """
    oracle = rank_oracle(A, rank_backend)
    columns = _sparse_columns(B, oracle.value)
    if B.rows != oracle.n:
        raise InvalidInputError(f"B has {B.rows} rows but A is {oracle.n}x{oracle.n}")
    return oracle.input_rank(columns)


# ---------------------------------------------------------------------------
# the sweep loop


def _greedy(
    oracle, probe_values: Callable[[int], Sequence], backend: str, *, block: bool
) -> SolveResult:
    """Commit the best (coordinate, probe) per sweep until the rank stalls.

    A sweep picks with ``_first_best``, as each probe argmax does: the
    first coordinate with the highest score, stopping at full rank.
    ``block`` scores a candidate as a new unit diagonal entry instead of a
    new entry of the input vector.
    """
    n = oracle.n
    b = [oracle.value(0)] * n
    support: list[int] = []
    rank = 0
    trace: list[TraceStep] = []
    if block:
        def best_probe(j, values):
            return oracle.input_rank([((s, 1),) for s in (*support, j)]), values[0]
    else:
        best_probe = oracle.best_probe

    def candidates():  # each unused coordinate's best probe, in index order
        for j in range(n):
            if j not in support:
                score, value = best_probe(j, probe_values(j))
                yield score, (j, value)

    while rank < n:
        if not block:
            oracle.begin_sweep(b)
        score, (j, value) = _first_best(candidates(), n)
        if score <= rank:
            break
        b[j] = value
        support.append(j)
        rank = score
        trace.append(TraceStep(j, float(value), rank))
    return SolveResult(n, backend, tuple(trace))


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
    oracle = rank_oracle(A, rank_backend)
    rng = np.random.default_rng(seed)

    def probes(_j: int):
        return (oracle.value(rng.standard_normal()),)

    return _greedy(oracle, probes, rank_backend, block=False)


def deterministic_greedy_vector(
    A: Matrix | EigenSystem, rank_backend: str = "exact"
) -> SolveResult:
    """Greedy sparse-vector solve probing each coordinate with 1..2n+1."""
    oracle = rank_oracle(A, rank_backend)
    values = tuple(oracle.value(p) for p in range(1, 2 * oracle.n + 2))
    return _greedy(oracle, lambda _j: values, rank_backend, block=False)


def greedy_diagonal(
    A: Matrix | EigenSystem, rank_backend: str = "exact"
) -> SolveResult:
    """Greedy diagonal-input solve: add unit diagonal entries until full rank.

    Because the identity input always controls the system, an exact rank
    backend can stall only at full rank.
    """
    oracle = rank_oracle(A, rank_backend)
    unit = (oracle.value(1),)
    return _greedy(oracle, lambda _j: unit, rank_backend, block=True)
