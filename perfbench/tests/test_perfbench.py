"""Self-test of the benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
import minctrl.cli  # noqa: E402


def _ops(workload: str, tmp_path: Path):
    return {op.label: op for op in workloads.build(workload, 0, tmp_path, "tiny")}


def _judged(ops, cli) -> tuple[int, list[str]]:
    gates: dict = {}
    executions = worker._run_pass(ops, cli, gates, 0)
    return run._judge({"executions": executions, "gates": gates}, {})


class _CorruptingCli:
    """Runs the real CLI, then damages the files the operation wrote."""

    def __init__(self, corrupt):
        self.corrupt = corrupt

    def main(self, argv):
        rc = minctrl.cli.main(argv)
        self.corrupt(argv)
        return rc


def test_golden_reduction_passes_gate(tmp_path):
    op = _ops("exact-reduce", tmp_path)["plain-n8-0"]
    assert op.check["instance"]["sets"] == workloads.GOLDEN_SETS
    assert _judged([op], minctrl.cli) == (0, [])
    A = json.loads(Path(op.outputs[1]).read_text())
    assert (A["rows"], A["cols"]) == (8, 8)


def test_er_tiny_passes_gate(tmp_path):
    op = next(iter(_ops("er-experiment", tmp_path).values()))
    assert op.argv[:5] == ["experiment", "--n-values", "20", "--trials", "2"]
    assert _judged([op], minctrl.cli) == (0, [])
    report = json.loads(Path(op.outputs[0]).read_text())
    assert len(report["records"]) == 2


def test_planted_instances_have_the_planted_optimum():
    import random

    from minctrl.oracles import brute_force_hitting_set
    from minctrl.reductions import HittingSetInstance

    for seed in range(20):
        for m, p, k in [(6, 10, 2), (8, 13, 3), (10, 17, 3), (4, 5, 2)]:
            inst = workloads.planted_instance(random.Random(seed), m, p, k)
            assert len(inst["sets"]) == p
            solved = brute_force_hitting_set(HittingSetInstance.from_json_dict(inst))
            assert solved.optimum == k


def _flip_support(argv):
    path = Path(argv[argv.index("--out") + 1])
    out = json.loads(path.read_text())
    out["support"][0] = (out["support"][0] + 1) % out["n"]
    path.write_text(json.dumps(out))


def _zero_values(argv):
    """Keep support and trace consistent, but make the input vector zero."""
    path = Path(argv[argv.index("--out") + 1])
    out = json.loads(path.read_text())
    out["values"] = [0.0] * len(out["values"])
    for step in out["trace"]:
        step["chosen_value"] = 0.0
    path.write_text(json.dumps(out))


def _dense_support(argv):
    """A consistent, controllable result that uses every index."""
    import random

    path = Path(argv[argv.index("--out") + 1])
    out = json.loads(path.read_text())
    rng = random.Random(0)
    out["support"] = list(range(out["n"]))
    out["values"] = [float(rng.randrange(1, 10**6)) for _ in out["support"]]
    out["trace"] = [
        {"step": i, "chosen_index": j, "chosen_value": v, "rank_before": i, "rank_after": i + 1}
        for i, (j, v) in enumerate(zip(out["support"], out["values"]))
    ]
    path.write_text(json.dumps(out))


def _change_matrix_byte(argv):
    path = Path(argv[argv.index("--out-dir") + 1]) / "A.json"
    data = bytearray(path.read_bytes())
    start = data.index(b'"data"')
    i = next(i for i in range(start, len(data)) if chr(data[i]).isdigit() and data[i] != ord("0"))
    data[i] = ord("0") if data[i] != ord("1") else ord("2")
    path.write_bytes(bytes(data))


@pytest.mark.parametrize(
    "workload,label,corrupt,reason",
    [
        ("exact-greedy", "det-n8", _flip_support, "trace does not match support"),
        ("exact-greedy", "det-n8", _zero_values, "exact Kalman rank 0 < n = 8"),
        ("exact-greedy", "det-n8", _dense_support, "sparsity 8 exceeds"),
        ("exact-reduce", "plain-n8-0", _change_matrix_byte, "V A != diag(1..n) V"),
    ],
)
def test_corrupted_result_counts_as_failed(tmp_path, workload, label, corrupt, reason):
    op = _ops(workload, tmp_path)[label]
    failed, reasons = _judged([op], _CorruptingCli(corrupt))
    assert failed == 1 and reason in reasons[0], reasons


def test_digest_mismatch_counts_as_failed(tmp_path):
    op = _ops("exact-greedy", tmp_path)["rand-n10"]
    gates: dict = {}
    executions = worker._run_pass([op], minctrl.cli, gates, 0)
    result = {"executions": executions, "gates": gates}
    assert run._judge(result, {op.label: executions[0]["digest"]})[0] == 0
    assert run._judge(result, {op.label: "0" * 64})[0] == 1
    assert run._judge(result, {})[0] == 0


def test_unseeded_operations_have_the_same_inputs_at_every_seed(tmp_path):
    unseeded = 0
    for name in workloads.WORKLOADS:
        first, second = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        first.mkdir()
        second.mkdir()
        for x, y in zip(workloads.build(name, 0, first, "tiny"), workloads.build(name, 1, second, "tiny")):
            if x.seeded:
                continue
            unseeded += 1
            assert [arg.replace(str(first), str(second)) for arg in x.argv] == y.argv
            for arg in x.argv:
                if Path(arg).is_file():
                    assert Path(arg).read_bytes() == Path(arg.replace(str(first), str(second))).read_bytes()
    assert unseeded > 0


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, {m["name"]: m["unit"] for m in spec["end_to_end"]}, {m["name"]: m["unit"] for m in spec["per_layer"]}


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(trace):
    spec, end_to_end, per_layer = _declared()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    expected = per_layer if trace else end_to_end
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "3",
             "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
        assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
        if not trace:
            assert "failed_ratio=0 " in proc.stdout
            assert all(alias in proc.stdout for alias in workloads.PART_NAMES[name])


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "exact-greedy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_missing_traced_name_is_reported_absent(monkeypatch):
    import tracing

    monkeypatch.setattr(
        tracing, "TRACED",
        tracing.TRACED + (("greedy.gone", "minctrl.greedy", "no_such_function", None, None),),
    )
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == {"greedy.gone"}
    metrics = tracing.layer_metrics([], {"greedy.det"})
    assert "greedy.det.calls" not in metrics and "greedy.rand.calls" in metrics
