"""Random-graph harness: sampling, filtering, determinism, aggregation."""

import json
import math

import numpy as np
import pytest

import minctrl.experiments
import minctrl.greedy
import minctrl.linalg
from minctrl.cli import main as cli_main
from minctrl.errors import (
    BackendPreconditionError,
    InvalidInputError,
    NumericBackendError,
)
from minctrl.experiments import (
    ExperimentConfig,
    eigen_gap_filter,
    repeats_isolated_eigenvalue,
    run_experiment,
    sample_er_digraph,
)
from minctrl.greedy import (
    controllability_rank,
    deterministic_greedy_vector,
    greedy_diagonal,
    randomized_greedy_vector,
    rank_oracle,
)
from minctrl.linalg import left_eigensystem
from minctrl.matrices import DenseMatrix, save_matrix


def test_sample_trivial_cases():
    assert sample_er_digraph(1, 1.0, 0) == DenseMatrix([[1]])
    assert np.all(sample_er_digraph(3, 1e-12, 1).array == 0)
    assert np.all(sample_er_digraph(4, 1.0, 2).array == 1)


def test_sample_rejects_bad_probability():
    with pytest.raises(InvalidInputError):
        sample_er_digraph(3, 0.0, 0)
    with pytest.raises(InvalidInputError):
        sample_er_digraph(3, 1.5, 0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 2.5, "p": 0.5, "seed": 0},
        {"n": 3, "p": "0.5", "seed": 0},
        {"n": True, "p": 0.5, "seed": 0},
        {"n": 3, "p": 0.5, "seed": -1},
        {"n": 3, "p": 0.5, "seed": 0, "include_self_loops": 1},
    ],
    ids=repr,
)
def test_sample_checks_argument_types(kwargs):
    # as ExperimentConfig does: n an integer >= 1, p a real in (0, 1], the
    # seed an integer >= 0 and include_self_loops a boolean
    with pytest.raises(InvalidInputError):
        sample_er_digraph(**kwargs)


def test_impossible_graph_size_is_invalid_input(capsys):
    # numpy refuses a 3e9 x 3e9 array before allocating any of it
    with pytest.raises(InvalidInputError, match="n = 3000000000 is too large"):
        sample_er_digraph(3_000_000_000, 0.5, 0)
    assert cli_main(["experiment", "--n-values", "3000000000", "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: n = 3000000000 is too large") and "internal" not in err


def test_n_past_the_float_range_is_invalid_input(capsys):
    # 2 ln(n) / n underflows to 0.0 rather than overflowing n to a float
    n = 10**400
    with pytest.raises(InvalidInputError, match="derived edge probability 0.0 for"):
        ExperimentConfig(n_values=(n,), trials_per_n=1).probability_for(n)
    assert cli_main(["experiment", "--n-values", str(n), "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: derived edge probability 0.0") and "internal" not in err
    args = ["experiment", "--n-values", str(n), "--trials", "1", "--edge-probability", "0.5"]
    assert cli_main(args) == 2
    assert capsys.readouterr().err.startswith(f"error: n = {n} is too large")


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
    assert eigen_gap_filter(DenseMatrix([[7]]), 0.01)
    # the filter decomposes what it accepts: it takes only a square matrix
    for bad in (
        left_eigensystem(DenseMatrix.diagonal([1, 2, 3])),
        left_eigensystem(DenseMatrix.diagonal([1, 1.005]), cluster_gap=0.001),
        DenseMatrix([[1, 2]]),
    ):
        with pytest.raises(InvalidInputError, match="square DenseMatrix"):
            eigen_gap_filter(bad, 0.01)
    with pytest.raises(InvalidInputError):
        eigen_gap_filter(DenseMatrix.diagonal([1, 2]), 0.0)


def _min_gap(values) -> float:
    diff = np.abs(values[:, None] - values[None, :])
    return float(np.min(diff[np.triu_indices(len(values), k=1)]))


def _decomposition(A, threshold):
    try:
        return left_eigensystem(A, cluster_gap=threshold)
    except BackendPreconditionError:
        return None


@pytest.mark.parametrize("threshold", [0.01, 0.1])
def test_eigen_gap_filter_is_the_pbh_accept_test(threshold):
    # the filter rejects a graph exactly when the graph has no decomposition
    # under the same threshold, and otherwise returns that decomposition,
    # which a PBH oracle takes as it is, for the solver and the verification
    for delta, distinct in ((threshold / 2, False), (2 * threshold, True)):
        A = DenseMatrix.diagonal([1, 1 + delta, 3])
        assert (_decomposition(A, threshold) is not None) is distinct
        assert (eigen_gap_filter(A, threshold) is not None) is distinct
    outcomes = []
    for n in (3, 6, 10):
        for p in (0.3, 0.6):
            for seed in range(6):
                A = sample_er_digraph(n, p, seed)
                eig = _decomposition(A, threshold)
                accepted = eigen_gap_filter(A, threshold)
                outcomes.append(eig is not None)
                if eig is None:
                    assert accepted is None
                    continue
                assert _min_gap(accepted.eigenvalues) > threshold
                for name in ("eigenvalues", "left_eigenvectors"):
                    assert np.array_equal(getattr(accepted, name), getattr(eig, name))
                assert rank_oracle(accepted, "pbh").n == n
    assert 0 < sum(outcomes) < len(outcomes)


@pytest.mark.parametrize("threshold", [math.nan, True, 0, -1], ids=repr)
@pytest.mark.parametrize("decomposed", [False, True], ids=["matrix", "eigensystem"])
def test_eigen_gap_filter_rejects_bad_threshold_on_both_branches(threshold, decomposed):
    A = DenseMatrix.diagonal([1, 2, 3])
    with pytest.raises(InvalidInputError, match="threshold must be positive"):
        eigen_gap_filter(left_eigensystem(A) if decomposed else A, threshold)


@pytest.mark.parametrize(
    "rows, repeated",
    [
        ([[1, 0, 0], [0, 2, 0], [0, 0, 1]], True),
        ([[1, 0, 0], [0, 2, 0], [0, 0, 3]], False),
        # each node has a zero row or column off the diagonal; a Jordan block
        ([[0, 1], [0, 0]], True),
        ([[0, 1], [0, 1]], False),
        ([[1, 1], [1, 1]], False),
        ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], False),
        # nodes 0 and 3 are isolated with equal diagonals; 1 and 2 form a cycle
        ([[0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0]], True),
        ([[5]], False),
    ],
)
def test_repeats_isolated_eigenvalue(rows, repeated):
    A = DenseMatrix(rows)
    assert repeats_isolated_eigenvalue(A) is repeated
    if repeated:
        with pytest.raises(BackendPreconditionError, match="gap 0.000e[+]00 is below"):
            left_eigensystem(A)
        assert not eigen_gap_filter(A, 0.01)


@pytest.mark.parametrize("include_self_loops", [True, False])
def test_isolated_precheck_rejects_only_repeated_spectra(include_self_loops):
    # Differential check of the pre-check against both eigensolver calls the
    # gap filter has used: whenever it rejects a graph, each one's gap is
    # within the threshold (in fact exactly 0).
    threshold = 0.01
    fired = 0
    graphs = 0
    for n in (2, 5, 12, 30, 60):
        for scale in (0.5, 1.5, 3.0):
            p = min(scale / n, 0.3)
            for seed in range(12):
                graphs += 1
                A = sample_er_digraph(
                    n, p, 1000 * n + seed, include_self_loops=include_self_loops
                )
                if not repeats_isolated_eigenvalue(A):
                    continue
                fired += 1
                assert _min_gap(np.linalg.eigvals(A.array)) <= threshold
                with pytest.raises(BackendPreconditionError, match="below"):
                    left_eigensystem(A, cluster_gap=threshold)
    assert 0 < fired < graphs


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
    assert a.to_json_dict() == b.to_json_dict()
    assert a.records == b.records


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
def no_eigvals(monkeypatch):
    """Fail any call of the eigenvalues-only solver."""

    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg.eigvals called: a second decomposition")

    monkeypatch.setattr(np.linalg, "eigvals", forbidden)


@pytest.mark.parametrize("solver", ["randomized", "deterministic"])
def test_experiment_decomposes_each_trial_once(solver, no_eigvals, monkeypatch):
    # The gap filter runs once per sampled graph, and makes one
    # left_eigensystem call for each graph its isolated-node pre-check lets
    # through; the accepted graph's call is its trial's only decomposition,
    # shared by the gap filter, the solver and the verification.
    calls = []
    sampled = []
    filtered = []
    original = minctrl.linalg.left_eigensystem
    original_sample = minctrl.experiments.sample_er_digraph
    original_filter = minctrl.experiments.eigen_gap_filter

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    def recording(*args, **kwargs):
        sampled.append(original_sample(*args, **kwargs))
        return sampled[-1]

    def filtering(*args, **kwargs):
        filtered.append(1)
        return original_filter(*args, **kwargs)

    for module in (minctrl.linalg, minctrl.greedy, minctrl.experiments):
        monkeypatch.setattr(module, "left_eigensystem", counting)
    monkeypatch.setattr(minctrl.experiments, "sample_er_digraph", recording)
    monkeypatch.setattr(minctrl.experiments, "eigen_gap_filter", filtering)
    cfg = ExperimentConfig(n_values=(6, 12), trials_per_n=3, seed=8, solver=solver)
    report = run_experiment(cfg)
    accepted = report.accepted_records()
    assert len(accepted) == 6
    assert all(r.controllable for r in accepted)
    assert len(sampled) == len(accepted) + report.rejected_graph_count
    assert len(calls) == len(sampled)  # no graph here has an isolated repeat
    assert len(filtered) == len(sampled)
    # sparse graphs: most are rejected by the pre-check, without a call
    sparse = ExperimentConfig(
        n_values=(30,), trials_per_n=3, seed=1, edge_probability=0.08, solver=solver
    )
    calls.clear()
    sampled.clear()
    filtered.clear()
    report = run_experiment(sparse)
    assert len(sampled) == len(report.accepted_records()) + report.rejected_graph_count
    decomposed = [A for A in sampled if not repeats_isolated_eigenvalue(A)]
    assert 0 < len(decomposed) < len(sampled)
    assert len(calls) == len(decomposed)
    assert len(filtered) == len(sampled)


def test_failed_decomposition_is_a_rejected_graph(monkeypatch):
    cfg = ExperimentConfig(n_values=(8,), trials_per_n=2, seed=11)
    baseline = run_experiment(cfg)
    assert [r.regenerations_used for r in baseline.records] == [0, 0]
    original = minctrl.experiments.left_eigensystem
    calls = []

    def failing_first(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise NumericBackendError("eigenvector residual exceeds tolerance")
        return original(*args, **kwargs)

    monkeypatch.setattr(minctrl.experiments, "left_eigensystem", failing_first)
    report = run_experiment(cfg)
    first, second = report.records
    assert first.accepted and first.regenerations_used == 1
    assert second.to_json_dict() == baseline.records[1].to_json_dict()
    assert report.rejected_graph_count == baseline.rejected_graph_count + 1


def test_gap_filter_rejects_a_failed_decomposition(monkeypatch):
    # one definition of "accepted": the harness's, on a matrix passed directly
    def failing(*args, **kwargs):
        raise NumericBackendError("eigenvector residual exceeds tolerance")

    A = DenseMatrix.diagonal([1, 2, 3])
    assert eigen_gap_filter(A, 0.01)
    monkeypatch.setattr(minctrl.experiments, "left_eigensystem", failing)
    assert not eigen_gap_filter(A, 0.01)


def test_pbh_paths_control_triangular_system(tmp_path):
    A = DenseMatrix([[1, 1, 0], [0, 2, 1], [0, 0, 3]])
    b = DenseMatrix([[0], [0], [1]])
    assert randomized_greedy_vector(A, 0, "pbh").controllable
    assert deterministic_greedy_vector(A, "pbh").controllable
    assert controllability_rank(A, b, "pbh") == 3
    a_path, b_path = tmp_path / "A.json", tmp_path / "b.json"
    save_matrix(A, a_path)
    save_matrix(b, b_path)
    assert cli_main(["verify", str(a_path), str(b_path), "--backend", "pbh"]) == 0


def test_pbh_and_exact_traces_agree_on_harness_graphs():
    # the harness's own graphs: sparse ER digraphs at its edge probability
    # 2 ln n / n that its gap filter accepts. Every solver must take the same
    # steps under "pbh", on the filter's decomposition, as under "exact" on A.
    accepted = 0
    for seed in range(10000, 10012):
        for n in range(5, 31, 5):
            A = sample_er_digraph(n, 2 * math.log(n) / n, seed)
            eig = eigen_gap_filter(A, 0.01)
            if eig is None:
                continue
            accepted += 1
            for solve in (
                deterministic_greedy_vector,
                lambda M, backend: randomized_greedy_vector(M, seed, backend),
                greedy_diagonal,
            ):
                assert solve(eig, "pbh").trace == solve(A, "exact").trace, (n, seed)
    assert accepted >= 60  # of 72 graphs
