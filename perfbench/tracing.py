"""Span tracing of minctrl's layers, installed from outside the package.

Each traced function is replaced, on every ``minctrl`` module that binds it,
by a wrapper that appends a span to an in-memory list: the span's name, its
parent span, the wall time of the wrapped call and the wrapper's own entry
and exit times. A span's self time is its call time minus the full wrapper
time of its direct children, so the tracer's own bookkeeping (for example
scanning a matrix for its largest entry) is charged to no layer. Spans are
written out only when the traced pass is over.

A traced name that the package no longer defines is skipped, and the metrics
built from it are reported as absent rather than failing the run.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter


def _kernel_extra(args, kwargs, result) -> dict:
    rows = args[0]
    cells = len(rows) * (len(rows[0]) if rows else 0)
    bits = max((abs(v).bit_length() for row in rows for v in row), default=0)
    return {"cells": cells, "max_bits": bits}


def _save_extra(args, kwargs, result) -> dict:
    return {"bytes": Path(args[1]).stat().st_size}


def _filter_extra(args, kwargs, result) -> dict:
    return {"accepted": int(bool(result))}


# (span name, defining module, attribute, owning class or None, extra counters)
TRACED = (
    ("kernels.integer_rank", "minctrl._kernels", "integer_rank", None, _kernel_extra),
    ("greedy.det", "minctrl.greedy", "deterministic_greedy_vector", None, None),
    ("greedy.rand", "minctrl.greedy", "randomized_greedy_vector", None, None),
    ("greedy.diag", "minctrl.greedy", "greedy_diagonal", None, None),
    ("linalg.left_eigensystem", "minctrl.linalg", "left_eigensystem", None, None),
    ("linalg.pbh_controllability_rank", "minctrl.linalg", "pbh_controllability_rank", None, None),
    ("linalg.rank_exact", "minctrl.linalg", "rank_exact", None, None),
    ("experiments.sample_er_digraph", "minctrl.experiments", "sample_er_digraph", None, None),
    ("experiments.eigen_gap_filter", "minctrl.experiments", "eigen_gap_filter", None, _filter_extra),
    ("experiments.run_experiment", "minctrl.experiments", "run_experiment", None, None),
    ("reductions.build_reduction", "minctrl.reductions", "build_reduction", None, None),
    ("reductions.build_symmetric_extension", "minctrl.reductions", "build_symmetric_extension", None, None),
    ("reductions.orthogonal_extension", "minctrl.reductions", "orthogonal_extension", None, None),
    ("matrices.RationalMatrix.matmul", "minctrl.matrices", "__matmul__", "RationalMatrix", None),
    ("matrices.RationalMatrix.inverse", "minctrl.matrices", "inverse", "RationalMatrix", None),
    ("matrices.load_matrix", "minctrl.matrices", "load_matrix", None, None),
    ("matrices.save_matrix", "minctrl.matrices", "save_matrix", None, _save_extra),
    ("cli", "minctrl.cli", "main", None, None),
)

# (metric, unit, span name, statistic); "calls_per_trial" and
# "graph_accept_ratio" are derived in ``layer_metrics``.
PER_LAYER = (
    ("kernels.integer_rank.calls", "count", "kernels.integer_rank", "calls"),
    ("kernels.integer_rank.busy_s", "s", "kernels.integer_rank", "busy"),
    ("kernels.integer_rank.cells", "count", "kernels.integer_rank", "cells"),
    ("kernels.integer_rank.max_bits", "bits", "kernels.integer_rank", "max_bits"),
    *(
        (f"greedy.{algo}.{stat}_s" if stat != "calls" else f"greedy.{algo}.calls",
         "count" if stat == "calls" else "s", f"greedy.{algo}", stat)
        for algo in ("det", "rand", "diag")
        for stat in ("calls", "busy", "self")
    ),
    ("linalg.left_eigensystem.calls", "count", "linalg.left_eigensystem", "calls"),
    ("linalg.left_eigensystem.busy_s", "s", "linalg.left_eigensystem", "busy"),
    ("linalg.left_eigensystem.calls_per_trial", "1/trial", "linalg.left_eigensystem", "per_trial"),
    ("linalg.pbh_controllability_rank.calls", "count", "linalg.pbh_controllability_rank", "calls"),
    ("linalg.pbh_controllability_rank.busy_s", "s", "linalg.pbh_controllability_rank", "busy"),
    ("linalg.rank_exact.calls", "count", "linalg.rank_exact", "calls"),
    ("experiments.sample_er_digraph.busy_s", "s", "experiments.sample_er_digraph", "busy"),
    ("experiments.eigen_gap_filter.calls", "count", "experiments.eigen_gap_filter", "calls"),
    ("experiments.eigen_gap_filter.busy_s", "s", "experiments.eigen_gap_filter", "busy"),
    ("experiments.graph_accept_ratio", "ratio", "experiments.eigen_gap_filter", "accept_ratio"),
    ("experiments.run_experiment.self_s", "s", "experiments.run_experiment", "self"),
    ("reductions.build_reduction.calls", "count", "reductions.build_reduction", "calls"),
    ("reductions.build_reduction.busy_s", "s", "reductions.build_reduction", "busy"),
    ("reductions.build_symmetric_extension.busy_s", "s", "reductions.build_symmetric_extension", "busy"),
    ("reductions.orthogonal_extension.busy_s", "s", "reductions.orthogonal_extension", "busy"),
    ("matrices.RationalMatrix.matmul.calls", "count", "matrices.RationalMatrix.matmul", "calls"),
    ("matrices.RationalMatrix.matmul.busy_s", "s", "matrices.RationalMatrix.matmul", "busy"),
    ("matrices.RationalMatrix.inverse.calls", "count", "matrices.RationalMatrix.inverse", "calls"),
    ("matrices.RationalMatrix.inverse.busy_s", "s", "matrices.RationalMatrix.inverse", "busy"),
    ("matrices.load_matrix.busy_s", "s", "matrices.load_matrix", "busy"),
    ("matrices.save_matrix.busy_s", "s", "matrices.save_matrix", "busy"),
    ("matrices.save_matrix.bytes", "bytes", "matrices.save_matrix", "bytes"),
    ("cli.self_s", "s", "cli", "self"),
)


class Tracer:
    """Installs span wrappers on minctrl's bindings and collects the spans."""

    def __init__(self):
        # span: [name, parent, wrapper entry, call start, call end, wrapper exit, extra]
        self.spans: list[list] = []
        self.enabled = False
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, extra):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            entry = perf_counter()
            span = [name, tracer._stack[-1] if tracer._stack else -1, entry, 0.0, 0.0, 0.0, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                span[3] = perf_counter()
                result = fn(*args, **kwargs)
                span[4] = perf_counter()
                if extra is not None:
                    span[6] = extra(args, kwargs, result)
            finally:
                span[4] = span[4] or perf_counter()
                tracer._stack.pop()
                span[5] = perf_counter()
            return result

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Replace every binding of each traced function in loaded minctrl modules."""
        modules = [
            module for key, module in list(sys.modules.items())
            if module is not None and (key == "minctrl" or key.startswith("minctrl."))
        ]
        for name, module_name, attr, owner, extra in TRACED:
            home = sys.modules.get(module_name)
            target = getattr(home, owner, None) if owner else home
            original = getattr(target, attr, None) if target is not None else None
            if original is None:
                self.missing.add(name)
                continue
            wrapper = self._wrap(name, original, extra)
            holders = [target] if owner else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._restore.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def write(self, path: Path) -> None:
        keys = ("name", "parent", "entry", "start", "end", "exit", "extra")
        path.write_text("\n".join(json.dumps(dict(zip(keys, s))) for s in self.spans) + "\n")


def layer_metrics(spans: list[list], missing: set[str]) -> dict[str, tuple[float, str]]:
    """Aggregate spans into the per-layer metrics; absent spans are left out."""
    stats: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    child_time = [0.0] * len(spans)
    for name, parent, entry, start, end, exit_, extra in spans:
        if parent >= 0:
            child_time[parent] += exit_ - entry
    for i, (name, parent, entry, start, end, exit_, extra) in enumerate(spans):
        s = stats[name]
        s["calls"] += 1
        s["busy"] += end - start
        s["self"] += (end - start) - child_time[i]
        for key, value in (extra or {}).items():
            s[key] = max(s[key], value) if key == "max_bits" else s[key] + value
    trials = stats["experiments.eigen_gap_filter"]["accepted"]
    sampled = stats["experiments.sample_er_digraph"]["calls"]
    stats["linalg.left_eigensystem"]["per_trial"] = (
        stats["linalg.left_eigensystem"]["calls"] / trials if trials else 0.0
    )
    stats["experiments.eigen_gap_filter"]["accept_ratio"] = trials / sampled if sampled else 0.0
    out = {}
    for metric, unit, span, stat in PER_LAYER:
        if span in missing:
            continue
        value = stats[span][stat]
        out[metric] = (int(value) if unit in ("count", "bits", "bytes") else value, unit)
    return out
