"""Random directed-graph controllability experiments.

Protocol per trial: sample a directed Erdos-Renyi adjacency matrix (default
edge probability ``2 ln(n) / n``), discard it while any two eigenvalues are
within the gap threshold (0.01 by default) so the spectrum is effectively
distinct, then run a greedy vector solve with the eigenvector-counting rank
backend and record how many nonzero input entries it needed. Every accepted
trial's output vector is re-verified against the PBH eigenvector count
before being recorded.

``eigen_gap_filter`` is the harness's one accept test, called once per
sampled graph, and each graph is decomposed at most once. After the
isolated-node pre-check below, one ``left_eigensystem`` call, made with
``cluster_gap`` set to the config's gap threshold, decomposes the graph and
decides the gap as it does so: a graph with no decomposition is rejected.
The filter returns the decomposition, and the trial hands that same
``EigenSystem`` to the greedy solver and to the verification, so the
filter, the solver and the verification can never disagree about the gap.
A graph whose decomposition fails its residual check is rejected like any
other. The verification still recomputes every
``v_i^T b`` from the recorded support and values, independently of the
solver's incremental products.

Before any decomposition, an exact O(n^2) scan rejects a graph with two
*isolated* nodes (no off-diagonal nonzero in the node's row, or none in its
column) that carry equal diagonal entries. LAPACK's balancing step permutes
an isolated node out of the eigenproblem, so its eigenvalue is exactly its
diagonal entry: the two give a gap of exactly 0, which the filter could only
reject. Sparse graphs (``p`` around ``1.5 / n``) are mostly rejected this way.

Configs are type-checked when built: counts and the seed must be integers
(not booleans), ``include_self_loops`` a boolean, and the probability and the
gap real numbers, so a malformed config file is invalid input, never coerced.

Per-trial seeds are derived from ``(seed, n, trial_index)``, so serial and
parallel execution orders would produce identical reports; rerunning a
config is byte-for-byte reproducible. A ``TrialRecord`` holds only what the
report writes: its fields are its JSON object and its CSV row, and it
carries no timing.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

from minctrl import DEFAULT_SEED, np
from minctrl.errors import (
    BackendPreconditionError,
    InvalidInputError,
    NumericBackendError,
    is_integer,
    is_real,
)
from minctrl.greedy import (
    SolveResult,
    deterministic_greedy_vector,
    randomized_greedy_vector,
)
from minctrl.linalg import (
    DEFAULT_EIGEN_GAP,
    EigenSystem,
    left_eigensystem,
    pbh_controllability_rank,
)
from minctrl.matrices import DenseMatrix

DEFAULT_MAX_REGENERATIONS = 50

# SeedSequence tags for per-trial derived seeds
_GRAPH_STREAM = 0
_SOLVER_STREAM = 1


@dataclass(frozen=True)
class ExperimentConfig:
    n_values: tuple[int, ...]
    trials_per_n: int
    edge_probability: float | None = None  # None -> 2 ln(n) / n
    eigen_gap_threshold: float = DEFAULT_EIGEN_GAP
    seed: int = DEFAULT_SEED
    solver: str = "randomized"
    max_regenerations_per_trial: int = DEFAULT_MAX_REGENERATIONS
    include_self_loops: bool = True
    log_base: str = "natural"  # or "ten", for sensitivity runs

    def __post_init__(self):
        if not isinstance(self.n_values, (list, tuple)) or not all(
            is_integer(n) for n in self.n_values
        ):
            raise InvalidInputError("n_values must be a list of integers")
        object.__setattr__(self, "n_values", tuple(self.n_values))
        for name in ("trials_per_n", "seed", "max_regenerations_per_trial"):
            if not is_integer(getattr(self, name)):
                raise InvalidInputError(f"{name} must be an integer")
        if not isinstance(self.include_self_loops, bool):
            raise InvalidInputError("include_self_loops must be true or false")
        if not is_real(self.eigen_gap_threshold) or not (
            self.edge_probability is None or is_real(self.edge_probability)
        ):
            raise InvalidInputError(
                "eigen_gap_threshold and edge_probability must be numbers"
            )
        if not self.n_values or any(n < 1 for n in self.n_values):
            raise InvalidInputError("n_values must be positive counts")
        if self.trials_per_n < 1:
            raise InvalidInputError("trials_per_n must be positive")
        if self.seed < 0:
            raise InvalidInputError("seed must be non-negative")
        if not self.eigen_gap_threshold > 0:
            raise InvalidInputError("eigen_gap_threshold must be positive")
        if self.max_regenerations_per_trial < 0:
            raise InvalidInputError("max_regenerations_per_trial must be >= 0")
        if self.solver not in ("randomized", "deterministic"):
            raise InvalidInputError(
                f"unknown solver {self.solver!r}; expected randomized|deterministic"
            )
        if self.log_base not in ("natural", "ten"):
            raise InvalidInputError('log_base must be "natural" or "ten"')
        if self.edge_probability is not None and not 0 < self.edge_probability <= 1:
            raise InvalidInputError("edge_probability must be in (0, 1]")

    def probability_for(self, n: int) -> float:
        if self.edge_probability is not None:
            return self.edge_probability
        log = math.log(n) if self.log_base == "natural" else math.log10(n)
        try:
            p = 2.0 * log / n
        except OverflowError:  # n past the float range: the quotient underflows
            p = 0.0
        if not 0 < p <= 1:
            raise InvalidInputError(
                f"derived edge probability {p} for n={n} is outside (0, 1]; "
                "set edge_probability explicitly"
            )
        return p

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise InvalidInputError("experiment config must be a JSON object")
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise InvalidInputError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**obj)
        except TypeError as exc:
            raise InvalidInputError(f"malformed config: {exc}") from exc

    def to_json_dict(self) -> dict:
        return {**asdict(self), "n_values": list(self.n_values)}


@dataclass(frozen=True)
class TrialRecord:
    n: int
    trial_index: int
    graph_seed: int
    regenerations_used: int
    accepted: bool
    sparsity_found: int
    controllable: bool

    def __post_init__(self):
        if self.controllable and self.sparsity_found < 1:
            raise InvalidInputError("controllable trials need sparsity >= 1")

    def to_json_dict(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    records: tuple[TrialRecord, ...]

    def accepted_records(self) -> tuple[TrialRecord, ...]:
        return tuple(r for r in self.records if r.accepted)

    @property
    def histogram(self) -> dict[int, dict[int, int]]:
        """Accepted trials counted by ``n``, then by sparsity."""
        histogram: dict[int, dict[int, int]] = {}
        for r in self.accepted_records():
            by_sparsity = histogram.setdefault(r.n, {})
            by_sparsity[r.sparsity_found] = by_sparsity.get(r.sparsity_found, 0) + 1
        return histogram

    @property
    def rejected_graph_count(self) -> int:
        """Graphs the gap filter rejected: an accepted trial's attempt index
        counts those sampled before it, an unaccepted trial's ``max + 1``
        all of its graphs."""
        return sum(r.regenerations_used for r in self.records)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "config": self.config.to_json_dict(),
            "records": [r.to_json_dict() for r in self.records],
            "histogram": {
                str(n): {str(s): c for s, c in sorted(by_sparsity.items())}
                for n, by_sparsity in sorted(self.histogram.items())
            },
            "rejected_graph_count": self.rejected_graph_count,
        }

    def records_to_csv(self) -> str:
        header = [f.name for f in fields(TrialRecord)]
        lines = [",".join(header)]
        for r in self.records:
            values = r.to_json_dict().values()
            lines.append(",".join(str(int(v) if isinstance(v, bool) else v) for v in values))
        return "\n".join(lines) + "\n"


def sample_er_digraph(
    n: int, p: float, seed: int, *, include_self_loops: bool = True
) -> DenseMatrix:
    """0/1 adjacency matrix with each ordered pair present independently.

    Self-loops are ordinary ordered pairs by default; disable them to zero
    the diagonal (this measurably shifts the eigenvalue gaps).
    """
    if not 0 < p <= 1:
        raise InvalidInputError(f"edge probability must be in (0, 1], got {p}")
    if n < 1:
        raise InvalidInputError("n must be positive")
    rng = np.random.default_rng(seed)
    try:
        draws = rng.random((n, n))
    except (ValueError, MemoryError) as exc:  # numpy refuses the n x n allocation
        raise InvalidInputError(f"n = {n} is too large for an n x n graph: {exc}") from exc
    adjacency = (draws < p).astype(np.float64)
    if not include_self_loops:
        np.fill_diagonal(adjacency, 0.0)
    return DenseMatrix(adjacency)


def eigen_gap_filter(A: DenseMatrix, threshold: float) -> EigenSystem | None:
    """The harness's accept test: ``A``'s one decomposition, or ``None``.

    ``A`` is a square ``DenseMatrix``. A repeated isolated eigenvalue
    rejects it before any decomposition; otherwise it is accepted iff
    ``left_eigensystem(A, cluster_gap=threshold)`` decomposes it, which
    refuses a gap not above ``threshold`` and a failed residual check. The
    accepted decomposition is returned, for the solver and the verification
    to share; it is truthy, so the result also reads as a ``bool``.
    """
    if not (is_real(threshold) and threshold > 0):
        raise InvalidInputError("threshold must be positive")
    if not isinstance(A, DenseMatrix) or A.rows != A.cols:
        raise InvalidInputError("the gap filter takes a square DenseMatrix")
    if repeats_isolated_eigenvalue(A):
        return None
    try:
        return left_eigensystem(A, cluster_gap=threshold)
    except (NumericBackendError, BackendPreconditionError):
        return None


def repeats_isolated_eigenvalue(A: DenseMatrix) -> bool:
    """Whether two isolated nodes of a square ``A`` have equal diagonal entries.

    A node is isolated when its row or its column has no off-diagonal
    nonzero. Balancing in LAPACK's ``geev`` deflates every such node, so its
    computed eigenvalue is exactly ``A[i, i]``, and two equal ones make the
    computed gap exactly 0. The check is exact and costs O(n^2).
    """
    off_diagonal = A.array != 0
    np.fill_diagonal(off_diagonal, False)
    isolated = ~(off_diagonal.any(axis=1) & off_diagonal.any(axis=0))
    # a set, not np.unique: the first np.unique call adds about 1.7 MB of RSS
    seen: set[float] = set()
    for value in np.diagonal(A.array)[isolated].tolist():
        if value in seen:
            return True
        seen.add(value)
    return False


def _derived_seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the full trial grid, one record per trial.

    A trial regenerates its graph up to the configured limit while the gap
    filter rejects it; a trial that exhausts its regenerations is recorded
    as not accepted rather than failing the run. The report reads its
    sparsity histogram and rejected-graph count off the records.
    """
    records: list[TrialRecord] = []
    for n in cfg.n_values:
        p = cfg.probability_for(n)
        for trial in range(cfg.trials_per_n):
            for regenerations in range(cfg.max_regenerations_per_trial + 1):
                graph_seed = _derived_seed(cfg.seed, n, trial, _GRAPH_STREAM, regenerations)
                candidate = sample_er_digraph(
                    n, p, graph_seed, include_self_loops=cfg.include_self_loops
                )
                eig = eigen_gap_filter(candidate, cfg.eigen_gap_threshold)
                if eig is not None:
                    break
            else:
                regenerations += 1
            sparsity = verified_rank = 0
            if eig is not None:
                result = _solve_trial(cfg, eig, n, trial)
                sparsity, verified_rank = result.sparsity, _verify_support(eig, result)
            records.append(
                TrialRecord(
                    n=n,
                    trial_index=trial,
                    graph_seed=graph_seed,
                    regenerations_used=regenerations,
                    accepted=eig is not None,
                    sparsity_found=sparsity,
                    controllable=verified_rank == n,
                )
            )
    return ExperimentReport(cfg, tuple(records))


def _solve_trial(
    cfg: ExperimentConfig, eig: EigenSystem, n: int, trial: int
) -> SolveResult:
    if cfg.solver == "deterministic":
        return deterministic_greedy_vector(eig, "pbh")
    solver_seed = _derived_seed(cfg.seed, n, trial, _SOLVER_STREAM)
    return randomized_greedy_vector(eig, solver_seed, "pbh")


def _verify_support(eig: EigenSystem, result: SolveResult) -> int:
    b = np.zeros((eig.n, 1))
    for idx, value in zip(result.support, result.values):
        b[idx] = value
    return pbh_controllability_rank(eig, DenseMatrix(b))
