"""One workload process: set up the inputs, then run the CLI in a closed loop.

Started by ``run.py`` with BLAS and OpenMP pinned to one thread. It imports
``minctrl`` from the checkout's ``src``, generates the workload's inputs and
prints ``READY``. Then it calls ``minctrl.cli.main(argv)`` for each operation
in turn, each call starting after the previous one returns:

* ``--mode run``: every operation runs its fixed number of times (scaled by
  ``--seconds``, see ``workloads.samples``), the samples of each spread
  evenly over the passes. Set-up is sampled the same way, by timing fresh
  ``--mode setup`` processes between calls. The counts do not depend on how
  fast any call is, so one operation's best time depends only on its own
  code and the machine.
* ``--mode trace``: one untraced pass, then one pass with span wrappers on
  every layer, so that count metrics repeat exactly from run to run.
* ``--mode setup``: stop after set-up.

After each call the outputs are digested and, once per distinct digest, put
through the correctness gate; both are outside the timed call. The result is
written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import workloads
from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
GUARD_FACTOR = 3


def _import_minctrl():
    sys.path.insert(0, str(ROOT / "src"))
    import minctrl
    import minctrl.cli

    home = Path(minctrl.__file__).resolve()
    if ROOT / "src" not in home.parents:
        raise ImportError(f"minctrl imported from {home}, not from {ROOT / 'src'}")
    return minctrl


def _run_op(op, cli, gates: dict, pass_index: int, tracer=None) -> dict:
    """One timed CLI call, then its (untimed) digest and gate."""
    if tracer is not None:
        tracer.enabled = True
    start = perf_counter()
    rc = cli.main(op.argv)
    elapsed = perf_counter() - start
    if tracer is not None:
        tracer.enabled = False
    try:
        digest = checks.digest(op)
    except (OSError, ValueError):
        digest = None
    if digest is not None and digest not in gates:
        gates[digest] = checks.gate(op)
    return {"label": op.label, "part": op.part, "seeded": op.seeded, "pass": pass_index,
            "time_s": elapsed, "rc": rc, "digest": digest}


def _run_pass(ops, cli, gates: dict, pass_index: int, tracer=None) -> list[dict]:
    return [_run_op(op, cli, gates, pass_index, tracer) for op in ops]


def _time_setup(args, work: Path) -> float:
    """Seconds from starting a fresh ``--mode setup`` worker to its exit."""
    cmd = [
        sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--mode", "setup", "--work", str(work),
    ]
    start = perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=60)
    elapsed = perf_counter() - start
    if proc.returncode != 0 or proc.stdout.strip() != "READY":
        raise RuntimeError(f"set-up process failed with exit code {proc.returncode}")
    return elapsed


def _schedule(counts: list[int]) -> list[list[int]]:
    """The entries run in each pass: entry i runs counts[i] times, spread
    evenly over max(counts) passes, and every entry runs in the first."""
    passes = [[] for _ in range(max(counts))]
    for i, count in enumerate(counts):
        for k in range(count):
            passes[k * len(passes) // count].append(i)
    return passes


def _run_plan(ops, cli, gates: dict, args, work: Path) -> tuple[list[dict], list[float]]:
    """Run every operation, and time set-up, a fixed number of times.

    Passes stop early only past ``GUARD_FACTOR * --seconds``, which the plan
    reaches only when the code has become several times slower.
    """
    counts = [workloads.samples(op.samples, args.seconds) for op in ops]
    counts.append(workloads.samples(workloads.SETUP_SAMPLES, args.seconds))
    executions, setup_times = [], []
    start = perf_counter()
    for pass_index, entries in enumerate(_schedule(counts)):
        if pass_index and perf_counter() - start > GUARD_FACTOR * args.seconds:
            break
        for i in entries:
            if i == len(ops):
                setup_times.append(_time_setup(args, work / f"setup{len(setup_times)}"))
            else:
                executions.append(_run_op(ops[i], cli, gates, pass_index))
    return executions, setup_times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--work", required=True, help="scratch directory for inputs and outputs")
    parser.add_argument("--result", help="where to write the result JSON")
    args = parser.parse_args(argv)

    minctrl = _import_minctrl()
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, work, args.size)
        print("READY", flush=True)
        if args.mode == "setup":
            return 0

        cli = sys.modules["minctrl.cli"]
        gates: dict = {}
        setup_times: list[float] = []
        if args.mode == "trace":
            executions = _run_pass(ops, cli, gates, 0)
        else:
            executions, setup_times = _run_plan(ops, cli, gates, args, work)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result = {
            "executions": executions,
            "setup_times": setup_times,
            "gates": gates,
            "peak_rss_kb": peak_rss_kb,
            "numpy": __import__("numpy").__version__,
            "active_kernel": minctrl._kernels.ACTIVE_KERNEL,
            "python": sys.version.split()[0],
        }
        if args.mode == "trace":
            tracer = Tracer()
            tracer.install()
            try:
                traced = _run_pass(ops, cli, gates, 1, tracer)
            finally:
                tracer.uninstall()
            executions += traced
            tracer.write(Path(args.result).with_suffix(".spans.jsonl"))
            layers = layer_metrics(tracer.spans, tracer.missing)
            untraced_s = sum(e["time_s"] for e in executions if e["pass"] == 0)
            layers["trace.overhead_s"] = (sum(e["time_s"] for e in traced) - untraced_s, "s")
            result["layers"] = layers
            result["absent"] = sorted(tracer.missing)
        Path(args.result).write_text(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
