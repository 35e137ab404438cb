"""Random directed-graph controllability experiments.

Protocol per trial: sample a directed Erdos-Renyi adjacency matrix (default
edge probability ``2 ln(n) / n``), discard it while any two eigenvalues are
within the gap threshold (0.01 by default) so the spectrum is effectively
distinct, then run a greedy vector solve with the eigenvector-counting rank
backend and record how many nonzero input entries it needed. Every accepted
trial's output vector is re-verified against the PBH eigenvector count
before being recorded.

Each accepted graph is decomposed once: the public greedy solver and the
verification share one ``EigenSystem``. The verification still recomputes
every ``v_i^T b`` from the recorded support and values, independently of the
solver's incremental products. Neither reads the eigenvalue cluster
multiplicities, so no trial pays for their SVDs.

Configs are type-checked when built: counts and the seed must be integers
(not booleans), ``include_self_loops`` a boolean, and the probability and the
gap real numbers, so a malformed config file is invalid input, never coerced.

Per-trial seeds are derived from ``(seed, n, trial_index)``, so serial and
parallel execution orders would produce identical reports; rerunning a
config is byte-for-byte reproducible. Wall-clock timings are kept on the
in-memory records only and never serialized.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from minctrl.errors import InvalidInputError, NumericBackendError
from minctrl.greedy import (
    SolveResult,
    deterministic_greedy_vector,
    randomized_greedy_vector,
)
from minctrl.linalg import EigenSystem, left_eigensystem, pbh_controllability_rank
from minctrl.matrices import DenseMatrix

DEFAULT_SEED = 1729
DEFAULT_GAP_THRESHOLD = 0.01
DEFAULT_MAX_REGENERATIONS = 50

# SeedSequence tags for per-trial derived seeds
_GRAPH_STREAM = 0
_SOLVER_STREAM = 1


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    n_values: tuple[int, ...]
    trials_per_n: int
    edge_probability: float | None = None  # None -> 2 ln(n) / n
    eigen_gap_threshold: float = DEFAULT_GAP_THRESHOLD
    seed: int = DEFAULT_SEED
    solver: str = "randomized"
    max_regenerations_per_trial: int = DEFAULT_MAX_REGENERATIONS
    include_self_loops: bool = True
    log_base: str = "natural"  # or "ten", for sensitivity runs

    def __post_init__(self):
        if not isinstance(self.n_values, (list, tuple)) or not all(
            _is_integer(n) for n in self.n_values
        ):
            raise InvalidInputError("n_values must be a list of integers")
        object.__setattr__(self, "n_values", tuple(self.n_values))
        for name in ("trials_per_n", "seed", "max_regenerations_per_trial"):
            if not _is_integer(getattr(self, name)):
                raise InvalidInputError(f"{name} must be an integer")
        if not isinstance(self.include_self_loops, bool):
            raise InvalidInputError("include_self_loops must be true or false")
        if not _is_real(self.eigen_gap_threshold) or not (
            self.edge_probability is None or _is_real(self.edge_probability)
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
        p = 2.0 * log / n
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
    wall_time: float = field(compare=False)

    def __post_init__(self):
        if self.controllable and self.sparsity_found < 1:
            raise InvalidInputError("controllable trials need sparsity >= 1")

    def to_json_dict(self) -> dict:
        # wall_time stays in memory only: serialized reports must be
        # byte-identical across reruns of the same (config, seed).
        return {
            "n": self.n,
            "trial_index": self.trial_index,
            "graph_seed": self.graph_seed,
            "regenerations_used": self.regenerations_used,
            "accepted": self.accepted,
            "sparsity_found": self.sparsity_found,
            "controllable": self.controllable,
        }


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    records: tuple[TrialRecord, ...]
    histogram: dict[int, dict[int, int]]
    rejected_graph_count: int

    def accepted_records(self) -> tuple[TrialRecord, ...]:
        return tuple(r for r in self.records if r.accepted)

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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    def records_to_csv(self) -> str:
        header = (
            "n,trial_index,graph_seed,regenerations_used,accepted,"
            "sparsity_found,controllable"
        )
        lines = [header]
        for r in self.records:
            lines.append(
                f"{r.n},{r.trial_index},{r.graph_seed},{r.regenerations_used},"
                f"{int(r.accepted)},{r.sparsity_found},{int(r.controllable)}"
            )
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
    adjacency = (rng.random((n, n)) < p).astype(np.float64)
    if not include_self_loops:
        np.fill_diagonal(adjacency, 0.0)
    return DenseMatrix(adjacency)


def eigen_gap_filter(A: DenseMatrix, threshold: float) -> bool:
    """Accept a matrix iff its closest eigenvalue pair is farther than threshold."""
    if threshold <= 0:
        raise InvalidInputError("threshold must be positive")
    if A.rows != A.cols:
        raise InvalidInputError("matrix must be square")
    if A.rows == 1:
        return True
    values = np.linalg.eigvals(A.array)
    diff = np.abs(values[:, None] - values[None, :])
    gap = float(np.min(diff[np.triu_indices(A.rows, k=1)]))
    return gap > threshold


def _derived_seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the full trial grid and aggregate a sparsity histogram.

    A trial regenerates its graph up to the configured limit while the gap
    filter rejects it; a trial that exhausts its regenerations is recorded
    as not accepted rather than failing the run.
    """
    records: list[TrialRecord] = []
    rejected = 0
    histogram: dict[int, dict[int, int]] = {}
    for n in cfg.n_values:
        p = cfg.probability_for(n)
        for trial in range(cfg.trials_per_n):
            start = time.perf_counter()
            graph = None
            graph_seed = -1
            regens = 0
            for attempt in range(cfg.max_regenerations_per_trial + 1):
                graph_seed = _derived_seed(cfg.seed, n, trial, _GRAPH_STREAM, attempt)
                candidate = sample_er_digraph(
                    n, p, graph_seed, include_self_loops=cfg.include_self_loops
                )
                try:
                    ok = eigen_gap_filter(candidate, cfg.eigen_gap_threshold)
                except NumericBackendError:
                    ok = False
                if ok:
                    graph = candidate
                    regens = attempt
                    break
                rejected += 1
            if graph is None:
                records.append(
                    TrialRecord(
                        n=n,
                        trial_index=trial,
                        graph_seed=graph_seed,
                        regenerations_used=cfg.max_regenerations_per_trial + 1,
                        accepted=False,
                        sparsity_found=0,
                        controllable=False,
                        wall_time=time.perf_counter() - start,
                    )
                )
                continue
            eig = left_eigensystem(graph, cluster_gap=cfg.eigen_gap_threshold)
            result = _solve_trial(cfg, eig, n, trial)
            verified_rank = _verify_support(cfg, eig, result)
            sparsity = len(result.support)
            records.append(
                TrialRecord(
                    n=n,
                    trial_index=trial,
                    graph_seed=graph_seed,
                    regenerations_used=regens,
                    accepted=True,
                    sparsity_found=sparsity,
                    controllable=verified_rank == n,
                    wall_time=time.perf_counter() - start,
                )
            )
            by_sparsity = histogram.setdefault(n, {})
            by_sparsity[sparsity] = by_sparsity.get(sparsity, 0) + 1
    return ExperimentReport(
        config=cfg,
        records=tuple(records),
        histogram=histogram,
        rejected_graph_count=rejected,
    )


def _solve_trial(
    cfg: ExperimentConfig, eig: EigenSystem, n: int, trial: int
) -> SolveResult:
    gap = cfg.eigen_gap_threshold
    if cfg.solver == "deterministic":
        return deterministic_greedy_vector(eig, "pbh", gap_threshold=gap)
    solver_seed = _derived_seed(cfg.seed, n, trial, _SOLVER_STREAM)
    return randomized_greedy_vector(eig, solver_seed, "pbh", gap_threshold=gap)


def _verify_support(
    cfg: ExperimentConfig, eig: EigenSystem, result: SolveResult
) -> int:
    b = np.zeros(eig.n)
    for idx, value in zip(result.support, result.values):
        b[idx] = value
    return pbh_controllability_rank(
        eig, b, gap_threshold=cfg.eigen_gap_threshold
    )
