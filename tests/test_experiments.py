"""Random-graph harness: sampling, filtering, determinism, aggregation."""

import json
import math

import numpy as np
import pytest

import minctrl.experiments
import minctrl.greedy
import minctrl.linalg
from minctrl.cli import main as cli_main
from minctrl.errors import InvalidInputError
from minctrl.experiments import (
    ExperimentConfig,
    eigen_gap_filter,
    run_experiment,
    sample_er_digraph,
)
from minctrl.greedy import deterministic_greedy_vector, randomized_greedy_vector
from minctrl.matrices import DenseMatrix
from minctrl.oracles import kalman_test


def test_sample_trivial_cases():
    assert sample_er_digraph(1, 1.0, 0) == DenseMatrix.from_rows([[1]])
    assert np.all(sample_er_digraph(3, 1e-12, 1).array == 0)
    assert np.all(sample_er_digraph(4, 1.0, 2).array == 1)


def test_sample_rejects_bad_probability():
    with pytest.raises(InvalidInputError):
        sample_er_digraph(3, 0.0, 0)
    with pytest.raises(InvalidInputError):
        sample_er_digraph(3, 1.5, 0)


def test_sample_self_loop_flag():
    a = sample_er_digraph(5, 1.0, 3)
    assert np.all(np.diag(a.array) == 1)
    b = sample_er_digraph(5, 1.0, 3, include_self_loops=False)
    assert np.all(np.diag(b.array) == 0)


def test_sample_density_concentration():
    # binomial check: over many graphs the edge density concentrates at p
    n = 50
    p = 2 * math.log(n) / n
    graphs = 10_000
    total_edges = 0
    for seed in range(graphs):
        total_edges += int(sample_er_digraph(n, p, seed).array.sum())
    draws = graphs * n * n
    density = total_edges / draws
    se = math.sqrt(p * (1 - p) / draws)
    assert abs(density - p) <= 3 * se


def test_eigen_gap_filter():
    assert eigen_gap_filter(DenseMatrix.diagonal([1, 2, 3]), 0.01)
    assert not eigen_gap_filter(DenseMatrix.identity(2), 0.01)
    assert not eigen_gap_filter(DenseMatrix.diagonal([1, 1.005]), 0.01)
    assert eigen_gap_filter(DenseMatrix.diagonal([1, 1.005]), 0.001)
    assert eigen_gap_filter(DenseMatrix.from_rows([[7]]), 0.01)


def test_config_validation():
    with pytest.raises(InvalidInputError):
        ExperimentConfig(n_values=(), trials_per_n=1)
    with pytest.raises(InvalidInputError):
        ExperimentConfig(n_values=(3,), trials_per_n=0)
    with pytest.raises(InvalidInputError):
        ExperimentConfig(n_values=(3,), trials_per_n=1, solver="newton")
    with pytest.raises(InvalidInputError):
        ExperimentConfig(n_values=(3,), trials_per_n=1, edge_probability=2.0)
    cfg = ExperimentConfig(n_values=(10,), trials_per_n=1)
    assert cfg.probability_for(10) == pytest.approx(2 * math.log(10) / 10)
    ten = ExperimentConfig(n_values=(10,), trials_per_n=1, log_base="ten")
    assert ten.probability_for(10) == pytest.approx(0.2)


def test_complete_digraph_config_yields_single_rejected_record():
    # p = 1 on 3 nodes is the all-ones matrix: eigenvalues {3, 0, 0} never
    # pass the gap filter, so the single trial exhausts its regenerations
    cfg = ExperimentConfig(
        n_values=(3,),
        trials_per_n=1,
        edge_probability=1.0,
        max_regenerations_per_trial=3,
    )
    report = run_experiment(cfg)
    assert len(report.records) == 1
    record = report.records[0]
    assert not record.accepted
    assert not record.controllable
    assert record.sparsity_found == 0
    assert report.rejected_graph_count == 4  # initial sample + 3 regenerations
    assert report.histogram == {}


def test_run_experiment_structure_and_verification():
    cfg = ExperimentConfig(n_values=(8, 12), trials_per_n=4, seed=11)
    report = run_experiment(cfg)
    accepted = report.accepted_records()
    assert len(report.records) == 8
    # histogram totals conserve accepted trial counts
    for n in (8, 12):
        per_n = [r for r in accepted if r.n == n]
        assert sum(report.histogram.get(n, {}).values()) == len(per_n)
    # independent re-verification: rebuild each accepted graph from its
    # recorded seed and check the sparsity is achievable
    for record in accepted:
        graph = sample_er_digraph(
            record.n, cfg.probability_for(record.n), record.graph_seed
        )
        assert eigen_gap_filter(graph, cfg.eigen_gap_threshold)
        if record.controllable:
            assert record.sparsity_found >= 1


def test_run_experiment_deterministic():
    cfg = ExperimentConfig(n_values=(6,), trials_per_n=3, seed=99)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.to_json() == b.to_json()
    # wall_time may differ between runs but never reaches the serialization
    assert "wall_time" not in a.to_json()
    assert a.records == b.records  # wall_time excluded from comparison too


def test_run_experiment_deterministic_solver():
    cfg = ExperimentConfig(
        n_values=(7,), trials_per_n=3, seed=5, solver="deterministic"
    )
    report = run_experiment(cfg)
    accepted = report.accepted_records()
    assert accepted
    for record in accepted:
        assert record.controllable


def test_config_json_round_trip():
    cfg = ExperimentConfig(n_values=(5, 6), trials_per_n=2, seed=3)
    again = ExperimentConfig.from_json_dict(json.loads(json.dumps(cfg.to_json_dict())))
    assert again == cfg
    with pytest.raises(InvalidInputError):
        ExperimentConfig.from_json_dict({"n_values": [3], "trials_per_n": 1, "bogus": 2})


def test_report_csv_flattening():
    cfg = ExperimentConfig(n_values=(5,), trials_per_n=2, seed=21)
    report = run_experiment(cfg)
    csv_text = report.records_to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("n,trial_index,graph_seed")
    assert len(lines) == 3


@pytest.fixture()
def no_cluster_svds(monkeypatch):
    """Fail any call of the per-cluster multiplicity SVDs."""

    def forbidden(*args, **kwargs):
        raise AssertionError("cluster multiplicities computed on a PBH path")

    monkeypatch.setattr(minctrl.linalg, "_cluster_multiplicities", forbidden)


@pytest.mark.parametrize("solver", ["randomized", "deterministic"])
def test_experiment_decomposes_each_trial_once(solver, no_cluster_svds, monkeypatch):
    calls = []
    original = minctrl.linalg.left_eigensystem

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (minctrl.linalg, minctrl.greedy, minctrl.experiments):
        monkeypatch.setattr(module, "left_eigensystem", counting)
    cfg = ExperimentConfig(n_values=(6, 12), trials_per_n=3, seed=8, solver=solver)
    report = run_experiment(cfg)
    accepted = report.accepted_records()
    assert len(accepted) == 6
    assert all(r.controllable for r in accepted)
    assert len(calls) == len(accepted)


def test_pbh_paths_skip_cluster_multiplicities(no_cluster_svds, tmp_path):
    A = DenseMatrix.from_rows([[1, 1, 0], [0, 2, 1], [0, 0, 3]])
    b = DenseMatrix.from_rows([[0], [0], [1]])
    assert randomized_greedy_vector(A, 0, "pbh").controllable
    assert deterministic_greedy_vector(A, "pbh").controllable
    assert kalman_test(A, b, "pbh")
    a_path, b_path = tmp_path / "A.json", tmp_path / "b.json"
    a_path.write_text(json.dumps({"rows": 3, "cols": 3, "data": A.entries}))
    b_path.write_text(json.dumps({"rows": 3, "cols": 1, "data": b.entries}))
    assert cli_main(["verify", str(a_path), str(b_path), "--backend", "pbh"]) == 0
