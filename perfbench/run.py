#!/usr/bin/env python3
"""Layered benchmark for minctrl: exact greedy, ER experiment, exact reduction.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload exact-greedy --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, in turn

Each workload runs in a fresh, single-threaded worker process that drives the
public CLI entry point ``minctrl.cli.main(argv)`` in a closed loop (see
``workloads.py`` for the workloads and ``worker.py`` for the loop).

With ``--trace 0`` it reports the end-to-end metrics: ``setup_s`` (the best
of several fresh set-up processes, each timed from its start through
``import minctrl`` and input generation to its exit), ``peak_rss_mb``,
``part1_s`` to ``part3_s`` (each the sum of the best call times of that
part's operations) and ``wall_s`` (their total, one pass over the list).
With ``--trace 1`` it runs one untraced and one traced pass and reports
per-layer metrics from spans recorded around each layer's public functions
(``tracing.py``).

Every operation goes through an untimed correctness gate (``checks.py``); a
failed check, a missing output or a non-zero exit code counts the operation
as failed. The result digests must also match ``reference_digests.json``:
at the default seed for every operation, at other seeds for the operations
whose inputs do not depend on the seed. All digests are printed, for
comparing two commits. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; earlier
lines carry provenance, the digests and each metric under its descriptive
name. Intermediate files go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import PART_NAMES, WORKLOADS  # noqa: E402

DEFAULT_SEED = 0
RUN_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def _commit(root: Path) -> str:
    """The checkout's commit id; the ceiling keeps git from reporting an enclosing repository."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _run_worker(root: Path, args, name: str, work: Path, result: Path) -> None:
    """Run the workload's worker to its end, within the run time limit.

    The worker and the set-up processes it starts share a new session, so
    that a worker stopped at the limit takes its children with it.
    """
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", name,
        "--seed", str(args.seed), "--size", args.size, "--mode", "trace" if args.trace else "run",
        "--seconds", str(args.seconds), "--work", str(work), "--result", str(result),
    ]
    proc = subprocess.Popen(cmd, cwd=root, env=_worker_env(), stdout=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError("worker exceeded the run time limit and was stopped")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")


def _judge(result: dict, reference: dict) -> tuple[int, list[str]]:
    """Count failed executions: non-zero exit code, missing output, failed
    gate, output that changed between passes, or a digest that differs from
    ``reference`` (label to digest; operations not in it are not compared)."""
    failures = []
    first = _digests(result)
    for e in result["executions"]:
        if e["rc"] != 0:
            reason = f"exit code {e['rc']}"
        elif e["digest"] is None:
            reason = "no output"
        elif result["gates"].get(e["digest"]):
            reason = result["gates"][e["digest"]]
        elif e["digest"] != first[e["label"]]:
            reason = "output differs from the first pass"
        elif e["label"] in reference and reference[e["label"]] != e["digest"]:
            reason = "digest differs from the reference"
        else:
            continue
        failures.append(f"{e['label']} (pass {e['pass']}): {reason}")
    return len(failures), failures


def _digests(result: dict) -> dict[str, str]:
    """Each operation's result digest in the first pass."""
    return {e["label"]: e["digest"] for e in result["executions"] if e["pass"] == 0}


def _samples(result: dict) -> dict[str, list[float]]:
    """Each operation's call times, in order."""
    runs: dict[str, list[float]] = {}
    for e in result["executions"]:
        runs.setdefault(e["label"], []).append(e["time_s"])
    return runs


def _end_to_end(result: dict) -> dict[str, tuple[float, str]]:
    """Per-operation best call times, summed per part and over the list,
    and the best of the timed set-ups.

    Best of N rather than the median: on a shared 2-vCPU Xeon VM the speed
    of a busy loop moves, for seconds to minutes at a time, between about
    1.0x and 1.9x of its best, and a per-operation median follows it. Every
    operation has the same fixed number of samples on every commit, spread
    over the whole run (``worker.py``), so its best time depends only on its
    own code and the machine.
    """
    parts = {e["label"]: e["part"] for e in result["executions"]}
    part_s = {part: 0.0 for part in (1, 2, 3)}
    for label, times in _samples(result).items():
        part_s[parts[label]] += min(times)
    return {
        "setup_s": (min(result["setup_times"]), "s"),
        "wall_s": (sum(part_s.values()), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
        **{f"part{part}_s": (total, "s") for part, total in part_s.items()},
    }


def run_workload(root: Path, args, name: str, reference_file: dict) -> dict:
    """Run the workload's worker and build its report."""
    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    result_path = work_root / f"result-{name}.json"
    result_path.unlink(missing_ok=True)
    _run_worker(root, args, name, work_root / f"{name}-{args.seed}", result_path)
    result = json.loads(result_path.read_text())

    # Reference digests were recorded at the default seed; at other seeds
    # they still hold for the operations whose inputs ignore the seed.
    reference = {}
    if args.size == "full":
        stored = reference_file[name]
        reference = {
            e["label"]: stored.get(e["label"]) for e in result["executions"]
            if args.seed == DEFAULT_SEED or not e["seeded"]
        }
    failed, failures = _judge(result, reference)
    if args.trace:
        metrics = {k: tuple(v) for k, v in result["layers"].items()}
    else:
        metrics = _end_to_end(result)
    provenance = {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": result["python"],
        "numpy": result["numpy"],
        "active_kernel": result["active_kernel"],
        "commit": _commit(root),
    }
    report = {
        "workload": name, "seed": args.seed, "size": args.size, "trace": args.trace,
        "provenance": provenance, "digests": _digests(result),
        "reference_checked": sorted(reference), "failures": failures,
        "attempted": len(result["executions"]), "failed": failed,
        "absent": result.get("absent", []),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": _samples(result),
        "setup_samples": result["setup_times"],
    }
    result_path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def print_report(report: dict) -> None:
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    name = report["workload"]
    ratio = report["failed"] / report["attempted"]
    print(f"{name} seed={report['seed']} attempted={report['attempted']} failed={report['failed']} "
          f"failed_ratio={ratio:g} ({report['failed']}/{report['attempted']})")
    for line in report["failures"]:
        print(f"  FAILED {line}")
    combined = hashlib.sha256(json.dumps(report["digests"], sort_keys=True).encode()).hexdigest()
    print(f"  digest {name} {combined}")
    for label, digest in report["digests"].items():
        print(f"  digest {label} {digest}")
    checked = report["reference_checked"]
    print(f"  reference digests checked for {len(checked)} of {len(report['digests'])} operations"
          + (": " + ", ".join(checked) if checked else ""))
    if report["absent"]:
        print("  absent (not defined by this minctrl): " + ", ".join(report["absent"]))
    aliases = dict(zip(("part1_s", "part2_s", "part3_s"), PART_NAMES[name]))
    for metric, entry in report["metrics"].items():
        alias = f" ({aliases[metric]})" if metric in aliases else ""
        print(f"  {metric}{alias} = {entry['value']:.6g} {entry['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the benchmark's own self-test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "minctrl" / "__init__.py").is_file():
        print(f"error: {root} is not a minctrl checkout (no src/minctrl); run from its root",
              file=sys.stderr)
        return 2
    reference_file = json.loads((HERE / "reference_digests.json").read_text())
    try:
        for name in WORKLOADS if args.workload == "all" else (args.workload,):
            report = run_workload(root, args, name, reference_file)
            print_report(report)
            metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in report["metrics"].items()}
            print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                              "failed": report["failed"], "metrics": metrics}), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
