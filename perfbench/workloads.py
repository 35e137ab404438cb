"""The benchmark's workloads: seeded inputs and the CLI invocations run on them.

A workload is a fixed list of ``minctrl`` CLI invocations (operations). Each
operation belongs to one of three parts, and each part is reported as one
end-to-end metric (``part1_s`` .. ``part3_s``), so that a change that speeds
up one kind of call while slowing another shows on its own metric:

* ``exact-greedy``: part1 = ``solve --algo det``, part2 = ``--algo rand``,
  part3 = ``--mode diagonal``, all with the exact backend on reductions of
  seeded hitting-set instances. The integer rank kernel does most of the work.
* ``er-experiment``: ``experiment`` (randomized solver, PBH backend) on
  Erdos-Renyi graphs with n = 50 (part1), 100 (part2) and 200 (part3). The
  left eigensystem does most of the work; the exact kernel is idle.
* ``exact-reduce``: ``reduce`` on the golden instance and a batch of seeded
  instances (part1), and ``reduce --symmetric`` on the first two (r = 22,
  part2) and the first three (r = 29, part3) sets of the golden instance.
  Fraction arithmetic in ``build_reduction`` and
  ``build_symmetric_extension`` does the work.

Every call takes at most a few seconds, and each has a fixed number of
samples per run (``samples``), so that its best time is steady (see
``run.py``). The machine's speed changes within a second, so a call's best
time is steadier the shorter the call and the more samples it has; that is
why the symmetric reductions stop at r = 29 (1 s) rather than r = 37 (3.3 s).

Inputs depend only on the workload seed. Hitting-set instances are planted so
that their optimum is fixed by the size; see ``build`` for why the greedy
instances do not vary with the seed. Operations whose inputs do not depend on
the seed are marked ``seeded=False``: their reference digests hold at every
seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("exact-greedy", "er-experiment", "exact-reduce")

# Descriptive name of each part, printed next to its generic metric name.
PART_NAMES = {
    "exact-greedy": ("det_solve_s", "rand_solve_s", "diag_solve_s"),
    "er-experiment": ("small_graphs_s", "medium_graphs_s", "large_graphs_s"),
    "exact-reduce": ("plain_reduce_s", "symmetric_r22_reduce_s", "symmetric_r29_reduce_s"),
}

GOLDEN_SETS = [[1, 2], [2, 3], [1, 3], [1, 2, 3]]

# The sample counts below are the calls of each operation in a run of
# BUDGET_S seconds; a run of another length scales them (``samples``). At
# the seed commit a full plan, set-up samples included, takes 25-38 s on a
# shared 2-vCPU Xeon VM.
BUDGET_S = 30
SETUP_SAMPLES = 7  # fresh worker processes whose set-up is timed per run

# Hitting-set sizes (ground size m, number of sets p, optimum k); the state
# dimension of the reduction is m + p + 1.
GREEDY_SIZES = {
    "full": {17: (6, 10, 2), 19: (7, 11, 2), 22: (8, 13, 3), 28: (10, 17, 3)},
    "tiny": {8: (3, 4, 1), 10: (4, 5, 2)},
}
# (algorithm, n, samples) per solve call.
GREEDY_PLAN = {
    "full": [
        ("det", 17, 6), ("rand", 22, 6), ("diag", 22, 6),
        ("det", 19, 4), ("rand", 28, 4), ("diag", 28, 4),
    ],
    "tiny": [("det", 8, 2), ("rand", 10, 2), ("diag", 10, 2)],
}
# (part, n, trials, samples) per experiment call. Small and medium graphs are
# split into short calls, each with its own seed: a short call's best time
# is more often one in which the machine ran at full speed.
ER_PLAN = {
    "full": [(1, 50, 5, 9)] * 3 + [(2, 100, 1, 9)] * 2 + [(3, 200, 1, 5)],
    "tiny": [(1, 20, 2, 2), (2, 20, 2, 2), (3, 20, 2, 2)],
}
# Planted instances reduced after the golden instance (n = 8), and the
# samples of each plain reduction.
REDUCE_BATCH = {
    "full": [(4, 5, 2), (4, 7, 2), (5, 8, 2), (6, 10, 2), (8, 13, 3)],
    "tiny": [],
}
PLAIN_SAMPLES = {"full": 10, "tiny": 2}
# (sets, samples) per symmetric reduction.
REDUCE_SYMMETRIC = {
    "full": [(GOLDEN_SETS[:2], 16), (GOLDEN_SETS[:3], 16)],
    "tiny": [([[1]], 2), ([[1, 2]], 2)],
}


@dataclass
class Operation:
    """One CLI invocation and what its correctness gate needs to know."""

    label: str
    part: int  # 1..3
    kind: str  # "solve" | "experiment" | "reduce"
    argv: list[str]
    outputs: list[str]  # files whose content is the result
    samples: int  # timed calls in a run of BUDGET_S seconds
    seeded: bool  # whether the inputs depend on the workload seed
    check: dict = field(default_factory=dict)


def samples(count: int, seconds: float) -> int:
    """Calls of an operation with ``count`` samples per BUDGET_S in a run of ``seconds``."""
    return max(1, round(count * seconds / BUDGET_S))


def planted_instance(rng: random.Random, m: int, p: int, k: int) -> dict:
    """Hitting-set instance over 1..m with p two-element sets and optimum k.

    k pairwise-disjoint witness sets force at least k elements; every set
    holds one of k planted elements, so those k suffice.
    """
    if not (1 <= k and 2 * k <= m and p - k >= m - k):
        raise ValueError(f"cannot plant optimum {k} with m={m}, p={p}")
    elems = list(range(1, m + 1))
    rng.shuffle(elems)
    hit, rest = elems[:k], elems[k:]
    sets = [[hit[i], rest[i]] for i in range(k)]
    pool = rest[k:] + rest[:k]
    for i in range(p - k):
        sets.append([hit[i % k], pool[i % len(pool)]])
    rng.shuffle(sets)
    return {"m": m, "sets": [sorted(s) for s in sets]}


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, sort_keys=True) + "\n")
    return str(path)


def build(workload: str, seed: int, work: Path, size: str = "full") -> list[Operation]:
    """Generate the workload's inputs under ``work`` and return its operations."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "exact-greedy":
        # Same-size instances differ in solve time by 10-25% (eigenvalue
        # order sets early stopping and entry sizes), more than the spread a
        # run may show, so the instances are fixed and the seed drives the
        # randomized solver's probes.
        return _greedy(random.Random(workload), rng.randrange(2**31), work, size)
    if workload == "er-experiment":
        return _experiment(rng, work, size)
    if workload == "exact-reduce":
        return _reduce(rng, work, size)
    raise ValueError(f"unknown workload {workload!r}")


def _greedy(rng: random.Random, solve_seed: int, work: Path, size: str) -> list[Operation]:
    from minctrl.matrices import save_matrix
    from minctrl.reductions import HittingSetInstance, build_reduction

    matrices = {}
    for n, (m, p, k) in GREEDY_SIZES[size].items():
        inst = planted_instance(rng, m, p, k)
        red = build_reduction(HittingSetInstance.from_json_dict(inst))
        path = work / f"A{n}.json"
        save_matrix(red.system_matrix, path)
        _write_json(work / f"instance{n}.json", inst)
        matrices[n] = (str(path), inst)
    ops = []
    for algo, n, count in GREEDY_PLAN[size]:
        path, inst = matrices[n]
        out = str(work / f"solve-{algo}-{n}.json")
        flags = ["--mode", "diagonal"] if algo == "diag" else ["--algo", algo]
        if algo == "rand":
            flags += ["--seed", str(solve_seed)]
        ops.append(
            Operation(
                label=f"{algo}-n{n}",
                part=("det", "rand", "diag").index(algo) + 1,
                kind="solve",
                argv=["solve", path, "--backend", "exact", *flags, "--out", out],
                outputs=[out],
                samples=count,
                seeded=algo == "rand",
                check={"matrix": path, "instance": inst, "mode": "diagonal" if algo == "diag" else "vector"},
            )
        )
    return ops


def _experiment(rng: random.Random, work: Path, size: str) -> list[Operation]:
    ops = []
    for i, (part, n, trials, count) in enumerate(ER_PLAN[size]):
        out = str(work / f"experiment-{i}.json")
        argv = [
            "experiment", "--n-values", str(n), "--trials", str(trials),
            "--seed", str(rng.randrange(2**31)), "--out", out,
        ]
        ops.append(Operation(f"er-n{n}-{i}", part, "experiment", argv, [out], count, seeded=True))
    return ops


def _reduce(rng: random.Random, work: Path, size: str) -> list[Operation]:
    # (part, instance, symmetric, samples, seeded)
    plain = PLAIN_SAMPLES[size]
    jobs = [(1, {"m": 3, "sets": GOLDEN_SETS}, False, plain, False)]
    jobs += [(1, planted_instance(rng, *mpk), False, plain, True) for mpk in REDUCE_BATCH[size]]
    jobs += [
        (part, {"m": max(max(s) for s in sets), "sets": sets}, True, count, False)
        for part, (sets, count) in enumerate(REDUCE_SYMMETRIC[size], start=2)
    ]
    ops = []
    for i, (part, inst, symmetric, count, seeded) in enumerate(jobs):
        n = inst["m"] + len(inst["sets"]) + 1
        label = f"{'sym' if symmetric else 'plain'}-n{n}-{i}"
        path = _write_json(work / f"instance-{i}.json", inst)
        out_dir = work / f"reduced-{i}"
        names = ["V.json", "A.json"] + (["V_hat.json", "A_hat.json"] if symmetric else [])
        argv = ["reduce", path, "--out-dir", str(out_dir), "--out", str(work / f"reduce-{i}.json")]
        if symmetric:
            argv.insert(2, "--symmetric")
        ops.append(
            Operation(
                label, part, "reduce", argv,
                [str(out_dir / name) for name in names],
                count, seeded,
                check={"instance": inst, "dir": str(out_dir)},
            )
        )
    return ops
