"""Acceptance suite: one test per criterion, plus criterion 5's log factor on
Johnson's family and the diagonal greedy between exact bounds, and one
printed line per test (none for the Hypothesis property).

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines. Every tolerance and runtime budget is pinned here; nothing is left
to later calibration. All randomness is seeded, so reruns are identical.
"""

import json
import math
import random
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings

from helpers import (
    GOLDEN_A_ROWS,
    GOLDEN_V_ROWS,
    controllability_matrix,
    covered_count,
    hitting_set_of_support,
    random_instance,
    random_invertible_rational,
    random_jordan_spec,
    support_of_hitting_set,
)
from minctrl.cli import main
from minctrl.experiments import ExperimentConfig, run_experiment, sample_er_digraph
from minctrl.greedy import (
    controllability_rank,
    deterministic_greedy_vector,
    greedy_diagonal,
    randomized_greedy_vector,
    rank_oracle,
)
from minctrl.linalg import rank_exact
from minctrl.matrices import RationalMatrix, as_dense, as_rational, integer_form, load_matrix
from minctrl.oracles import (
    brute_force_hitting_set,
    brute_force_min_diagonal_support,
    brute_force_min_vector_support,
)
from minctrl.reductions import (
    HittingSetInstance,
    build_reduction,
    build_symmetric_extension,
)
from systems import SYSTEMS

CRITERION_2_INSTANCES = 200
CRITERION_3_INSTANCES = 100
CRITERION_4_INSTANCES = 100
CRITERION_6_INSTANCES = 20
CRITERION_8_INSTANCES = 80
RANDOMIZED_SEEDS = (11, 22, 33, 44, 55)


def _report(criterion: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE C{criterion} {name}: {status} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def corpus():
    """The 200 shared random instances with their reductions and optima."""
    start = time.perf_counter()
    rng = random.Random(20240)
    items = []
    for _ in range(CRITERION_2_INSTANCES):
        inst = random_instance(rng, max_m=5, max_p=5)
        red = build_reduction(inst)
        hitting = brute_force_hitting_set(inst).optimum
        support = brute_force_min_vector_support(red.left_eigenvectors).optimum
        items.append((inst, red, hitting, support))
    return items, time.perf_counter() - start


def test_criterion_1_golden_reduction(tmp_path, capsys):
    start = time.perf_counter()
    instance_path = tmp_path / "inst.json"
    instance_path.write_text(
        json.dumps({"m": 3, "sets": [[1, 2], [2, 3], [1, 3], [1, 2, 3]]})
    )
    out_dir = tmp_path / "red"
    code = main(["reduce", str(instance_path), "--out-dir", str(out_dir)])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    V = load_matrix(out_dir / "V.json")
    A = load_matrix(out_dir / "A.json")
    expected_V = RationalMatrix.from_rows(GOLDEN_V_ROWS)
    expected_A = RationalMatrix.from_rows(GOLDEN_A_ROWS)
    spot = (
        A.data[0][7] == Fraction(-7, 2)
        and A.data[3][0] == Fraction(3, 4)
        and A.data[7][7] == Fraction(8)
    )
    ok = code == 0 and V == expected_V and A == expected_A and spot and elapsed < 1.0
    with capsys.disabled():
        _report(
            1,
            "golden-reduction",
            ok,
            f"exact entrywise match, {elapsed:.3f}s < 1s",
        )


def test_criterion_2_reduction_correspondence(corpus, capsys):
    items, build_seconds = corpus
    start = time.perf_counter()
    failures = [
        (inst, hitting, support)
        for inst, _red, hitting, support in items
        if support != hitting + 1
    ]
    elapsed = build_seconds + (time.perf_counter() - start)
    ok = not failures and elapsed < 120.0
    with capsys.disabled():
        _report(
            2,
            "reduction-correspondence",
            ok,
            f"{CRITERION_2_INSTANCES} instances, {len(failures)} failures, "
            f"exact arithmetic, {elapsed:.1f}s < 120s",
        )


def test_criterion_3_vector_diagonal_equivalence(capsys):
    start = time.perf_counter()
    rng = random.Random(777)
    mismatches = 0
    for _ in range(CRITERION_3_INSTANCES):
        n = rng.randint(2, 8)
        eigenvectors = random_invertible_rational(rng, n)
        vec = brute_force_min_vector_support(eigenvectors).optimum
        diag = brute_force_min_diagonal_support(eigenvectors).optimum
        if vec != diag:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 120.0
    with capsys.disabled():
        _report(
            3,
            "vector-diagonal-equivalence",
            ok,
            f"{CRITERION_3_INSTANCES} instances, {mismatches} mismatches, "
            f"{elapsed:.1f}s < 120s",
        )


def test_criterion_4_covered_count(capsys):
    start = time.perf_counter()
    rng = random.Random(4040)
    mismatches = 0
    for _ in range(CRITERION_4_INSTANCES):
        spec = random_jordan_spec(rng, max_n=6)
        b = [rng.randint(-3, 3) for _ in range(spec.n)]
        combinatorial = covered_count(spec, b)
        exact = rank_exact(
            controllability_matrix(
                spec.system_matrix(), RationalMatrix.from_rows([[x] for x in b])
            )
        )
        if combinatorial != exact:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    with capsys.disabled():
        _report(
            4,
            "covered-count",
            ok,
            f"{CRITERION_4_INSTANCES} Jordan instances, {mismatches} mismatches, "
            f"zero tolerance, {elapsed:.1f}s < 60s",
        )


def test_criterion_5_greedy_bound_and_agreement(corpus, capsys):
    items, _build_seconds = corpus
    bound_violations = 0
    comparisons = 0
    agreements = 0
    for inst, red, _hitting, optimum in items:
        n = inst.state_dim
        factor = math.floor(math.log(n)) + 1
        det = deterministic_greedy_vector(red.system_matrix, "exact")
        assert det.controllable
        if len(det.support) > optimum * factor:
            bound_violations += 1
        dense = as_dense(red.system_matrix)
        for seed in RANDOMIZED_SEEDS:
            rand = randomized_greedy_vector(dense, seed, "pbh")
            comparisons += 1
            if len(rand.support) == len(det.support):
                agreements += 1
    agreement_rate = agreements / comparisons
    ok = bound_violations == 0 and agreement_rate >= 0.99
    with capsys.disabled():
        _report(
            5,
            "greedy-approximation",
            ok,
            f"bound holds on {len(items)} instances "
            f"({bound_violations} violations); randomized == deterministic in "
            f"{agreement_rate:.1%} of {comparisons} runs (>= 99%)",
        )


def johnson_instance(k: int) -> HittingSetInstance:
    """Johnson's greedy-bad family as hitting set: elements R1 = 1, R2 = 2
    and S_i = 3 + i, and for each i < k, 2^i sets {R1, S_i} and 2^i sets
    {R2, S_i}. {R1, R2} hits them all, but S_i meets 2^(i+1) sets, more
    than all smaller S together, so the greedy takes S_(k-1), ..., S_0."""
    sets = []
    for i in range(k):
        sets += [[1, 3 + i]] * 2**i + [[2, 3 + i]] * 2**i
    return HittingSetInstance.from_sets(k + 2, sets)


def test_criterion_5_log_factor_attained_on_johnsons_family(capsys):
    # the paper's log n barrier on a concrete family: the greedy's sparsity
    # grows as log2 n while the optimum stays 3
    start = time.perf_counter()
    rows, mismatches = [], 0
    for k in range(2, 6):
        inst = johnson_instance(k)
        A = build_reduction(inst).system_matrix
        optimum = brute_force_hitting_set(inst).optimum + 1
        det = deterministic_greedy_vector(A, "exact").sparsity
        diag = greedy_diagonal(A, "exact").sparsity
        mismatches += (optimum, det, diag) != (3, k + 1, k + 1)
        rows.append(f"n={A.rows}: {det}/{diag} vs {optimum}")
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report(
            5,
            "greedy-log-factor",
            mismatches == 0,
            f"det/diag sparsity vs optimum {', '.join(rows)}, "
            f"{mismatches} mismatches, {elapsed:.1f}s",
        )


def _diagonal_bounds(A: RationalMatrix) -> tuple[int, int, int, Fraction]:
    """``(LB, OPT, greedy, H(d))`` for unit-column inputs to ``A``.

    OPT is the smallest support S with ``C(A, I_S)`` of full rank, by
    enumeration with the oracle that ``controllability_rank`` asks, built
    once rather than once per S. LB is the PBH bound (Hautus 1969),
    ``max(1, n - rank(M - lambda I))`` over integer lambda for the integer
    form M of A: a rational eigenvalue of M is an integer, and a candidate
    that misses one only weakens LB. greedy is ``greedy_diagonal``'s
    sparsity, at most ``H(d)·OPT`` with ``d = max_j rank C(A, e_j)``
    (Wolsey 1982).
    """
    n = A.rows
    M, _ = integer_form(A)
    lower = 1
    for lam in {round(z.real) for z in np.linalg.eigvals(np.array(M, dtype=float))}:
        shifted = [[x - lam * (i == k) for k, x in enumerate(row)] for i, row in enumerate(M)]
        lower = max(lower, n - rank_exact(RationalMatrix.from_rows(shifted)))
    oracle = rank_oracle(A, "exact")

    def f(S) -> int:
        return oracle.input_rank([((s, 1),) for s in S])

    optimum = next(
        size
        for size in range(1, n + 1)
        if any(f(S) == n for S in combinations(range(n), size))
    )
    d = max(f([j]) for j in range(n))
    greedy = greedy_diagonal(A, "exact")
    assert greedy.controllable
    return lower, optimum, greedy.sparsity, sum(Fraction(1, k) for k in range(1, d + 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(SYSTEMS)
def test_criterion_5_diagonal_greedy_between_exact_bounds(system):
    A, _ = system
    assume(A.rows <= 8)
    lower, optimum, greedy, harmonic = _diagonal_bounds(A)
    assert lower <= optimum <= greedy <= harmonic * optimum


def test_criterion_5_diagonal_greedy_between_exact_bounds_on_sparse_er(capsys):
    # below the connectivity threshold the PBH bound exceeds 1 and binds
    start = time.perf_counter()
    graphs = [(n, seed) for n in range(6, 11) for seed in range(6)]
    counts = {"LB > 1": 0, "OPT > 1": 0, "LB = OPT": 0, "greedy > OPT": 0}
    violations = []
    for n, seed in graphs:
        A = as_rational(sample_er_digraph(n, 1.5 / n, seed))
        lower, optimum, greedy, harmonic = _diagonal_bounds(A)
        if not lower <= optimum <= greedy <= harmonic * optimum:
            violations.append((n, seed, lower, optimum, greedy))
        counts["LB > 1"] += lower > 1
        counts["OPT > 1"] += optimum > 1
        counts["LB = OPT"] += lower == optimum
        counts["greedy > OPT"] += greedy > optimum
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report(
            5,
            "diagonal-greedy-exact-bounds",
            not violations,
            f"LB <= OPT <= greedy <= H(d) OPT on {len(graphs)} ER graphs, n = 6-10, "
            f"p = 1.5/n: {', '.join(f'{k} on {v}' for k, v in counts.items())}; "
            f"violations {violations}, {elapsed:.2f}s",
        )


def test_criterion_6_symmetric_extension(capsys):
    start = time.perf_counter()
    # every instance shape with r <= 12: (m, p) in {(1,1), (2,1), (1,2)}
    # give r to 7, 11, 11; cycle them (with a duplicated-set variant) to
    # reach 20 builds
    shapes = [
        HittingSetInstance.from_sets(1, [[1]]),
        HittingSetInstance.from_sets(2, [[1, 2]]),
        HittingSetInstance.from_sets(1, [[1], [1]]),
    ]
    failures = []
    for i in range(CRITERION_6_INSTANCES):
        inst = shapes[i % len(shapes)]
        sym = build_symmetric_extension(inst)
        r = sym.left_eigenvectors.rows
        assert r <= 12
        V_hat, A_hat = sym.left_eigenvectors, sym.system_matrix
        D = RationalMatrix.diagonal(list(range(1, r + 1)))
        symmetric = A_hat.is_symmetric()
        eigen_identity = V_hat @ A_hat == D @ V_hat
        base_mc = brute_force_min_vector_support(
            build_reduction(inst).left_eigenvectors
        ).optimum
        ext_mc = brute_force_min_vector_support(V_hat).optimum
        ratio = Fraction(ext_mc, base_mc)
        in_range = Fraction(1, 3) <= ratio <= 2
        if not (symmetric and eigen_identity and in_range):
            failures.append((inst, symmetric, eigen_identity, ratio))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300.0
    with capsys.disabled():
        _report(
            6,
            "symmetric-extension",
            ok,
            f"{CRITERION_6_INSTANCES} builds (r <= 12), exact symmetry and "
            f"eigenvalues, mc ratio within [1/3, 2], {elapsed:.1f}s < 300s",
        )


def test_criterion_7_erdos_renyi_reproduction(capsys):
    start = time.perf_counter()
    cfg = ExperimentConfig(
        n_values=(10, 20, 30, 40, 50),
        trials_per_n=20,
        seed=20260810,
    )
    report = run_experiment(cfg)
    accepted = report.accepted_records()
    elapsed = time.perf_counter() - start
    total = len(accepted)
    one_sparse = sum(
        1 for r in accepted if r.controllable and r.sparsity_found == 1
    )
    two_sparse = sum(
        1 for r in accepted if r.controllable and r.sparsity_found <= 2
    )
    ok = (
        total == 100
        and one_sparse >= 0.90 * total
        and two_sparse == total
        and elapsed < 600.0
    )
    with capsys.disabled():
        _report(
            7,
            "erdos-renyi-desk-scale",
            ok,
            f"{one_sparse}/{total} one-sparse (>= 90%), "
            f"{two_sparse}/{total} within two-sparse (= 100%), "
            f"{elapsed:.1f}s < 600s",
        )


def test_criterion_8_hardness_covered_by_construction(capsys):
    # NP-hardness and the log n barrier rest on the plain reduction's two
    # witness maps, checked here on random instances up to n = 20, past the
    # support oracle's guard, and on Johnson's family: every controllable
    # support holds the anchor and maps back to a hitting set one smaller,
    # and every hitting set maps forward to a support whose unit columns
    # control the system.
    start = time.perf_counter()
    rng = random.Random(8080)
    instances = [random_instance(rng, max_m=9, max_p=10) for _ in range(CRITERION_8_INSTANCES)]
    cases = [(inst, [brute_force_hitting_set(inst).witness]) for inst in instances]
    for k in range(2, 6):
        inst = johnson_instance(k)
        cases.append((inst, [brute_force_hitting_set(inst).witness, (1, 2)]))  # and {R1, R2}
    checked = violations = 0
    for seed, (inst, hitting_sets) in enumerate(cases):
        A = build_reduction(inst).system_matrix
        n, m, anchor = A.rows, inst.ground_size, inst.state_dim - 1
        # the greedy supports take element columns only; this one also takes
        # the column of each set that a random part of the elements misses
        elements = {e for e in range(1, m + 1) if rng.random() < 0.5}
        mixed = sorted(
            {e - 1 for e in elements}
            | {m + j for j, s in enumerate(inst.sets) if not s & elements}
            | {anchor}
        )
        supports = [
            deterministic_greedy_vector(A, "exact").support,
            greedy_diagonal(A, "exact").support,
            randomized_greedy_vector(A, seed, "exact").support,
            mixed,
        ]
        for support in supports:
            hitting = hitting_set_of_support(inst, support)
            violations += not (
                anchor in support
                and all(s & hitting for s in inst.sets)
                and len(hitting) <= len(support) - 1
            )
        for support in [mixed, *(support_of_hitting_set(inst, h) for h in hitting_sets)]:
            units = RationalMatrix.from_rows([[int(i == j) for j in support] for i in range(n)])
            violations += controllability_rank(A, units, "exact") != n
        checked += len(supports)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report(
            8,
            "hardness-by-reduction",
            violations == 0,
            f"{len(cases)} instances up to n = "
            f"{max(inst.state_dim for inst, _ in cases)}, {checked} supports, "
            f"{violations} violations, {elapsed:.2f}s",
        )
