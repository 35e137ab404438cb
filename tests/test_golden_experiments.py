"""Golden experiment reports: each config reproduces a recorded report.

The expected JSON in ``golden_experiments.json`` pins
``ExperimentReport.to_json_dict()`` (graph seeds, regenerations, sparsities,
verified controllability and the histogram) for a fixed set of configs, so
any rewrite of the eigendecomposition or of the solve/verify pipeline must
keep every trial's outcome exactly. Regenerate it only for a deliberate
behaviour change, with
``PYTHONPATH=src:tests python tests/test_golden_experiments.py > tests/golden_experiments.json``.
"""

import json
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

from minctrl.experiments import ExperimentConfig, run_experiment

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_experiments.json"

CONFIGS = {
    "randomized": ExperimentConfig(n_values=(5, 10, 20), trials_per_n=3, seed=1),
    "randomized-large": ExperimentConfig(n_values=(40, 60), trials_per_n=2, seed=2),
    "deterministic": ExperimentConfig(
        n_values=(6, 12, 30), trials_per_n=2, seed=3, solver="deterministic"
    ),
    "no-self-loops": ExperimentConfig(
        n_values=(8, 16), trials_per_n=3, seed=4, include_self_loops=False
    ),
    "log-ten": ExperimentConfig(
        n_values=(10, 25), trials_per_n=3, seed=5, log_base="ten"
    ),
    "edge-probability": ExperimentConfig(
        n_values=(7, 14), trials_per_n=3, seed=6, edge_probability=0.3
    ),
    # sparse regime: each of the 108 sampled graphs is decomposed once; 103
    # repeat an isolated node's diagonal entry, a gap of exactly 0, four
    # more have a gap within the threshold, and two of the three trials
    # exhaust their regenerations
    "rejection-regime": ExperimentConfig(
        n_values=(30,), trials_per_n=3, seed=1, edge_probability=0.08
    ),
    # all-ones matrices never pass the gap filter
    "complete-digraph": ExperimentConfig(
        n_values=(3, 4),
        trials_per_n=2,
        edge_probability=1.0,
        max_regenerations_per_trial=2,
    ),
}


# records_to_csv() of two configs with accepted and unaccepted trials
GOLDEN_CSV = {
    "rejection-regime": (
        "n,trial_index,graph_seed,regenerations_used,accepted,sparsity_found,controllable\n"
        "30,0,2428266877304766497,51,0,0,0\n"
        "30,1,15906986477854742001,51,0,0,0\n"
        "30,2,12197826161430346247,5,1,1,1\n"
    ),
    "log-ten": (
        "n,trial_index,graph_seed,regenerations_used,accepted,sparsity_found,controllable\n"
        "10,0,7957655978368519403,6,1,1,1\n"
        "10,1,16102390850017748419,4,1,1,1\n"
        "10,2,8286635206225130769,1,1,1,1\n"
        "25,0,12863018436924890604,12,1,1,1\n"
        "25,1,7622107122556726242,2,1,1,1\n"
        "25,2,2837566594828912762,51,0,0,0\n"
    ),
}


@cache
def _run(name: str):
    return run_experiment(CONFIGS[name])


def _report(name: str) -> dict:
    return _run(name).to_json_dict()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", CONFIGS)
def test_experiment_matches_golden_report(name, golden):
    assert _report(name) == golden[name]


@pytest.mark.parametrize("name", GOLDEN_CSV)
def test_records_csv_matches_golden(name):
    assert _run(name).records_to_csv() == GOLDEN_CSV[name]


@pytest.mark.parametrize("name", CONFIGS)
def test_report_counts_are_read_off_the_records(name, golden):
    report = _run(name)
    assert report.rejected_graph_count == sum(r.regenerations_used for r in report.records)
    # and equals the count recorded in the golden report
    assert report.rejected_graph_count == golden[name]["rejected_graph_count"]
    accepted = [r for r in report.records if r.accepted]
    assert report.histogram == {
        n: dict(Counter(r.sparsity_found for r in accepted if r.n == n))
        for n in {r.n for r in accepted}
    }


if __name__ == "__main__":
    print(json.dumps({name: _report(name) for name in CONFIGS}, indent=1, sort_keys=True))
