"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line (run with -s to see
them on success). Expensive run sets are shared across criteria through
module-scoped fixtures; the determinism criterion re-runs them from scratch
and compares bit for bit.
"""

import itertools
import time
from dataclasses import dataclass

import numpy as np
import pytest

from h3mkit import (
    EmConfig,
    H3m,
    Hmm,
    VhemConfig,
    baum_welch,
    forward_loglik_batch,
    h3m_em,
    hier_cluster,
    leaf_labels,
    mc_expected_loglik,
    rand_index,
    split_estimate_aggregate,
    synth_benchmark,
    vhem_reduce,
)
from h3mkit.gaussians import _cross_terms
from h3mkit.hmm import _stack
from h3mkit.reduction import _estep, _virtual_stats_all

from conftest import (
    best_label_accuracy,
    elhmm_bruteforce,
    estep_pair,
    occupancies,
    random_gaussian,
    random_hmm,
    state_marginals,
)

COV_FLOOR = 1e-6


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion:2d}] {status} - {detail}")


def singleton_hmm(gaussian: tuple[np.ndarray, np.ndarray]) -> Hmm:
    mean, cov = gaussian
    return Hmm([1.0], [[1.0]], [[1.0]], [[mean]], [[cov]])


def model_hard_labels(model: H3m, sequences) -> np.ndarray:
    obs = np.stack([s.observations for s in sequences])
    per_comp = np.stack([forward_loglik_batch(c, obs) for c in model.components], axis=1)
    with np.errstate(divide="ignore"):
        return np.argmax(np.log(model.weights)[None, :] + per_comp, axis=1)


# ---------------------------------------------------------------------------
# Shared run sets


@dataclass
class ReductionRun:
    seed: int
    k_reduced: int
    labels_true: np.ndarray
    bound_history: list
    hard_labels: np.ndarray
    assignments: np.ndarray
    reduced: H3m


def make_reduction_runs() -> list[ReductionRun]:
    """20 seeded reductions of 20-component bases to 2 or 4 components."""
    runs = []
    for seed in range(10):
        leaves, labels = synth_benchmark(4, 5, 4.0, np.random.default_rng(1000 + seed))
        base = H3m(np.full(20, 0.05), leaves)
        for k_reduced in (2, 4):
            result = vhem_reduce(base, VhemConfig(k_reduced=k_reduced, seed=seed))
            runs.append(
                ReductionRun(
                    seed=seed,
                    k_reduced=k_reduced,
                    labels_true=labels,
                    bound_history=result.bound_history,
                    hard_labels=result.hard_labels,
                    assignments=result.assignments.z,
                    reduced=result.reduced,
                )
            )
    return runs


def make_hier_runs() -> list[tuple[int, list[int], list[int]]]:
    """Per seed: (seed, leaf labels at the k=4 level, at the k=2 level).
    Five competing starts per level guard against merge-order local optima."""
    runs = []
    for seed in range(10):
        leaves, _ = synth_benchmark(4, 5, 4.0, np.random.default_rng(1000 + seed))
        levels = hier_cluster(
            leaves, [4, 2], VhemConfig(k_reduced=4, seed=seed, n_starts=5)
        )
        runs.append((seed, leaf_labels(levels, 1), leaf_labels(levels, 2)))
    return runs


def make_pipeline_runs() -> list[dict]:
    """Per seed: pipeline and direct-EM accuracy on the two-population data."""
    runs = []
    for seed in range(10):
        dataset, labels = synth_benchmark(
            2, 40, 10.0, np.random.default_rng(2000 + seed),
            n_states=2, n_mix=1, dim=1, tau=20, kind="sequences",
        )
        sequences = dataset.sequences
        final, rep = split_estimate_aggregate(
            sequences, 4, 2, 2, 2, 1, EmConfig(), seed=seed
        )
        pipe_labels = model_hard_labels(final, sequences)
        direct = h3m_em(sequences, 2, 2, 1, EmConfig(), np.random.default_rng(seed))
        runs.append(
            {
                "seed": seed,
                "bound_history": rep.bound_history,
                "pipe_labels": pipe_labels,
                "pipe_acc": best_label_accuracy(list(labels), list(pipe_labels)),
                "direct_acc": best_label_accuracy(list(labels), list(direct.hard_labels)),
                "direct_trace": direct.loglik_trace,
            }
        )
    return runs


@pytest.fixture(scope="module")
def reduction_runs():
    return make_reduction_runs()


@pytest.fixture(scope="module")
def hier_runs():
    return make_hier_runs()


@pytest.fixture(scope="module")
def pipeline_runs():
    return make_pipeline_runs()


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    grid = list(itertools.product((1, 2), (1, 2), (1, 2, 3), (1, 2)))
    deviations = []
    case = 0
    while case < 100:
        n, m, tau, d = grid[case % len(grid)]
        cov_type = "diag" if case % 3 else "full"
        base = random_hmm(rng, n, m, d, cov_type)
        reduced = random_hmm(rng, n, m, d, cov_type)
        deviations.append(
            abs(estep_pair(base, reduced, tau).objective - elhmm_bruteforce(base, reduced, tau))
        )
        case += 1
    elapsed = time.perf_counter() - start
    worst = max(deviations)
    ok = worst <= 1e-9 and elapsed <= 60
    report(1, ok, f"max |estep - enumeration| = {worst:.3e} over 100 pairs ({elapsed:.1f}s)")
    assert worst <= 1e-9
    assert elapsed <= 60


def test_criterion_2_lower_bound_validity():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    held = 0
    for case in range(50):
        n_b = int(rng.integers(1, 4))
        n_r = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        d = int(rng.integers(1, 3))
        base = random_hmm(rng, n_b, m, d)
        reduced = random_hmm(rng, n_r, m, d)
        objective = estep_pair(base, reduced, 5).objective
        mean, stderr = mc_expected_loglik(base, reduced, 5, 100_000, rng)
        if objective <= mean + 3 * stderr:
            held += 1
    elapsed = time.perf_counter() - start
    ok = held >= 49 and elapsed <= 300
    report(2, ok, f"bound held in {held}/50 Monte Carlo checks ({elapsed:.1f}s)")
    assert held >= 49
    assert elapsed <= 300


def test_criterion_3_exactness_single_state():
    rng = np.random.default_rng(2)
    worst = 0.0
    for case in range(20):
        d = int(rng.integers(1, 4))
        cov_type = "diag" if case % 2 else "full"
        g_base = random_gaussian(rng, d, cov_type)
        g_reduced = random_gaussian(rng, d, cov_type)
        tau = int(rng.integers(1, 11))
        objective = estep_pair(singleton_hmm(g_base), singleton_hmm(g_reduced), tau).objective
        worst = max(worst, abs(objective - tau * float(_cross_terms(*g_base, *g_reduced))))
    ok = worst <= 1e-10
    report(3, ok, f"max |objective - tau * pair term| = {worst:.3e} over 20 Gaussian pairs")
    assert worst <= 1e-10


def test_criterion_4_bound_monotonicity(reduction_runs):
    start = time.perf_counter()
    worst_violation = 0.0
    for run in reduction_runs:
        history = np.array(run.bound_history)
        deltas = np.diff(history)
        floor = -1e-8 * np.abs(history[:-1])
        worst_violation = max(worst_violation, float(np.max(floor - deltas, initial=0.0)))
        assert np.all(deltas >= floor), f"seed {run.seed} k={run.k_reduced}"
    elapsed = time.perf_counter() - start
    ok = worst_violation <= 0.0
    report(
        4, ok,
        f"all consecutive bound deltas >= -1e-8|J| over {len(reduction_runs)} runs"
        f" (check {elapsed:.1f}s)",
    )
    assert ok


def test_criterion_5_synthetic_recovery(reduction_runs, hier_runs):
    start = time.perf_counter()
    rand_ok = 0
    for run in reduction_runs:
        if run.k_reduced != 4:
            continue
        if rand_index(list(run.labels_true), list(run.hard_labels)) >= 0.95:
            rand_ok += 1
    paired_ok = 0
    for _, _, top in hier_runs:
        left, right = set(top[:10]), set(top[10:])
        if len(left) == 1 and len(right) == 1 and left != right:
            paired_ok += 1
    elapsed = time.perf_counter() - start
    ok = rand_ok >= 9 and paired_ok >= 8
    report(
        5, ok,
        f"Rand >= 0.95 in {rand_ok}/10 seeds; nearest pairs grouped at the top in"
        f" {paired_ok}/10 seeds ({elapsed:.1f}s)",
    )
    assert rand_ok >= 9
    assert paired_ok >= 8


def test_criterion_6_marginal_consistency():
    # Per-step occupancies from the forward recursion on estep_pair's coupling;
    # the reduction's own recursion, which sums over steps as it goes, must
    # give the same start counts, transition counts and occupancy totals.
    rng = np.random.default_rng(3)
    worst = worst_library = 0.0
    for _ in range(50):
        n_b = int(rng.integers(1, 4))
        n_r = int(rng.integers(1, 4))
        tau = int(rng.integers(2, 7))
        base = random_hmm(rng, n_b, int(rng.integers(1, 3)), 1)
        reduced = random_hmm(rng, n_r, int(rng.integers(1, 3)), 1)
        pair = estep_pair(base, reduced, tau)
        nu_per_step, xi_agg = occupancies(base, pair.phi_initial, pair.phi_step)
        marginals = state_marginals(base, tau)
        worst = max(worst, float(np.max(np.abs(nu_per_step.sum(axis=1) - marginals))))
        block = _stack([base])
        stats = _virtual_stats_all(block, _estep(block, _stack([reduced]), tau))
        for got, want in (
            (stats.pi[0, 0], nu_per_step[0].sum(axis=1)),
            (stats.trans[0, 0], xi_agg),
            (stats.mix[0, 0].sum(axis=-1), nu_per_step.sum(axis=(0, 2))),
        ):
            worst_library = max(worst_library, float(np.max(np.abs(got - want))))
    ok = worst <= 1e-9 and worst_library <= 1e-12
    report(
        6, ok,
        f"max |occupancy marginal - chain marginal| = {worst:.3e} over 50 pairs;"
        f" reduction statistics within {worst_library:.3e} of the recursion",
    )
    assert worst <= 1e-9
    assert worst_library <= 1e-12


def _check_stochastic(vec, tol=1e-12):
    return np.all(vec >= 0) and abs(float(np.sum(vec)) - 1.0) <= tol


def test_criterion_7_mstep_validity(reduction_runs):
    bad = 0
    floor_violation = 0.0
    for run in reduction_runs:
        model = run.reduced
        vectors = [model.weights, *[c.initial for c in model.components]]
        vectors += [row for c in model.components for row in c.transitions]
        vectors += [row for c in model.components for row in c.mix_weights]
        vectors += list(run.assignments)
        for vec in vectors:
            if not _check_stochastic(np.asarray(vec)):
                bad += 1
        covs = model.arrays.covs
        variances = covs if covs.ndim == 4 else np.diagonal(covs, axis1=-2, axis2=-1)
        floor_violation = max(floor_violation, float(np.max(COV_FLOOR - variances)))
    ok = bad == 0 and floor_violation <= 0.0
    report(
        7, ok,
        f"{bad} stochastic-vector violations; covariance floor margin"
        f" {-floor_violation:.2e}",
    )
    assert bad == 0
    assert floor_violation <= 0.0


def test_criterion_8_em_baselines(pipeline_runs):
    rng = np.random.default_rng(4)
    dataset, _ = synth_benchmark(
        2, 30, 10.0, rng, n_states=2, n_mix=1, dim=1, tau=20, kind="sequences"
    )
    bw = baum_welch(dataset.sequences, 2, 1, EmConfig(), np.random.default_rng(0))
    trace = np.array(bw.loglik_trace)
    bw_monotone = bool(np.all(np.diff(trace) >= -1e-8 * np.abs(trace[:-1])))

    em_monotone = True
    acc_ok = 0
    for seed in range(10):
        data_seed, labels = synth_benchmark(
            2, 40, 10.0, np.random.default_rng(3000 + seed),
            n_states=2, n_mix=1, dim=1, tau=20, kind="sequences",
        )
        fit = h3m_em(
            data_seed.sequences, 2, 2, 1,
            EmConfig(n_starts=3), np.random.default_rng(seed),
        )
        t = np.array(fit.loglik_trace)
        if not np.all(np.diff(t) >= -1e-8 * np.abs(t[:-1])):
            em_monotone = False
        if best_label_accuracy(list(labels), list(fit.hard_labels)) >= 0.95:
            acc_ok += 1
    ok = bw_monotone and em_monotone and acc_ok >= 9
    report(
        8, ok,
        f"trace monotone (single={bw_monotone}, mixture={em_monotone});"
        f" mixture separation >= 0.95 in {acc_ok}/10 seeds",
    )
    assert bw_monotone and em_monotone
    assert acc_ok >= 9


def test_criterion_9_split_pipeline(pipeline_runs):
    start = time.perf_counter()
    pipe_mean = float(np.mean([r["pipe_acc"] for r in pipeline_runs]))
    direct_mean = float(np.mean([r["direct_acc"] for r in pipeline_runs]))
    gap = abs(pipe_mean - direct_mean)
    elapsed = time.perf_counter() - start
    ok = gap <= 0.05
    report(
        9, ok,
        f"pipeline accuracy {pipe_mean:.3f} vs direct {direct_mean:.3f}"
        f" (gap {gap:.3f}) over 10 seeds",
    )
    assert gap <= 0.05
    assert elapsed <= 300


def test_criterion_10_determinism(reduction_runs, hier_runs, pipeline_runs):
    redo_reduction = make_reduction_runs()
    for a, b in zip(reduction_runs, redo_reduction):
        assert a.bound_history == b.bound_history, f"seed {a.seed} k={a.k_reduced}"
        assert np.array_equal(a.hard_labels, b.hard_labels)
    redo_hier = make_hier_runs()
    for (s1, mid1, top1), (s2, mid2, top2) in zip(hier_runs, redo_hier):
        assert mid1 == mid2 and top1 == top2, f"seed {s1}"
    redo_pipeline = make_pipeline_runs()
    for a, b in zip(pipeline_runs, redo_pipeline):
        assert a["bound_history"] == b["bound_history"], f"seed {a['seed']}"
        assert np.array_equal(a["pipe_labels"], b["pipe_labels"])
    report(10, True, "re-runs reproduce bound histories and labels bit for bit")
