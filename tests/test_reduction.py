"""The reduction engine: pair-level E-step against the enumeration oracle,
summary statistics against chain marginals, assignment and bound formulas,
M-step closed forms, and the full driver."""

import itertools
import math

import numpy as np
import pytest

from h3mkit import (
    AssignmentMatrix,
    DegenerateWeightsError,
    EstimationError,
    Gaussian,
    GaussianMixture,
    H3m,
    Hmm,
    InvalidModelError,
    VhemConfig,
    compute_assignments,
    elhmm_bruteforce,
    estep_pair,
    gauss_expected_loglik,
    gmm_expected_loglik_opt,
    lower_bound,
    mc_expected_loglik,
    mstep,
    rand_index,
    state_marginals,
    summary_stats,
    synth_benchmark,
    vhem_reduce,
)

from h3mkit.gaussians import expected_loglik_table
from h3mkit.hmm import _Stats
from h3mkit.reduction import _init_reduced, _perturb_means, _virtual_stats

from conftest import random_hmm


def gaussian_hmm(mean, var=1.0):
    return Hmm([1.0], [[1.0]], [GaussianMixture([1.0], [Gaussian([mean], [var])])])


def objective_by_enumeration(base, reduced, tau, phi_initial, phi_step):
    """Value of the coupling objective at arbitrary phi tables, summed
    explicitly over every pair of state sequences. Second, independently
    coded evaluator used to cross-check both the recursion and the oracle."""
    n_b, n_r = base.n_states, reduced.n_states
    ell = np.array(
        [
            [
                gmm_expected_loglik_opt(base.emissions[b], reduced.emissions[r])
                for r in range(n_r)
            ]
            for b in range(n_b)
        ]
    )
    total = 0.0
    for beta in itertools.product(range(n_b), repeat=tau):
        w = base.initial[beta[0]]
        for t in range(1, tau):
            w *= base.transitions[beta[t - 1], beta[t]]
        if w == 0:
            continue
        for rho in itertools.product(range(n_r), repeat=tau):
            phi = phi_initial[rho[0], beta[0]]
            for t in range(1, tau):
                phi *= phi_step[t - 1][rho[t - 1], rho[t], beta[t]]
            if phi == 0:
                continue
            prior = reduced.initial[rho[0]]
            for t in range(1, tau):
                prior *= reduced.transitions[rho[t - 1], rho[t]]
            ell_sum = sum(ell[beta[t], rho[t]] for t in range(tau))
            total += w * phi * (math.log(prior) + ell_sum - math.log(phi))
    return total


class TestEstepPair:
    def test_single_state_single_component(self, rng):
        base = gaussian_hmm(0.0)
        reduced = gaussian_hmm(1.5, 2.0)
        ell = gauss_expected_loglik(
            base.emissions[0].components[0], reduced.emissions[0].components[0]
        )
        for tau in (1, 3, 7):
            pair = estep_pair(base, reduced, tau)
            assert pair.objective == pytest.approx(tau * ell, abs=1e-10)
            np.testing.assert_allclose(pair.phi_initial, [[1.0]])
            assert pair.phi_step.shape == (tau - 1, 1, 1, 1)
            np.testing.assert_allclose(pair.phi_step, 1.0)
        mean, stderr = mc_expected_loglik(base, reduced, 5, 50_000, rng)
        assert abs(estep_pair(base, reduced, 5).objective - mean) < 3 * stderr

    def test_length_one_closed_form(self, rng):
        base = random_hmm(rng, n_states=2, n_mix=2)
        reduced = random_hmm(rng, n_states=3, n_mix=2)
        pair = estep_pair(base, reduced, 1)
        expected = 0.0
        for b in range(2):
            inner = sum(
                reduced.initial[r]
                * math.exp(gmm_expected_loglik_opt(base.emissions[b], reduced.emissions[r]))
                for r in range(3)
            )
            expected += base.initial[b] * math.log(inner)
        assert pair.objective == pytest.approx(expected, abs=1e-9)

    def test_matches_bruteforce(self, rng):
        for _ in range(20):
            n_b = int(rng.integers(1, 3))
            n_r = int(rng.integers(1, 3))
            m = int(rng.integers(1, 3))
            d = int(rng.integers(1, 3))
            tau = int(rng.integers(1, 4))
            base = random_hmm(rng, n_b, m, d)
            reduced = random_hmm(rng, n_r, m, d)
            a = estep_pair(base, reduced, tau).objective
            b = elhmm_bruteforce(base, reduced, tau)
            assert a == pytest.approx(b, abs=1e-9)

    def test_coupling_normalization(self, rng):
        base = random_hmm(rng, n_states=3, n_mix=2)
        reduced = random_hmm(rng, n_states=2, n_mix=2)
        pair = estep_pair(base, reduced, 4)
        np.testing.assert_allclose(pair.phi_initial.sum(axis=0), 1.0, atol=1e-12)
        # Per step, the distribution runs over the current reduced state.
        np.testing.assert_allclose(pair.phi_step.sum(axis=2), 1.0, atol=1e-12)
        np.testing.assert_allclose(pair.eta.sum(axis=3), 1.0, atol=1e-12)

    def test_state_ell_matches_mixture_bound(self, rng):
        # (N_b, N_r, M_b, M_r, d, covariance layout)
        cases = [(2, 2, 2, 2, 1, "diag"), (3, 2, 1, 3, 2, "full"), (2, 3, 3, 2, 2, "full")]
        for n_b, n_r, m_b, m_r, d, cov_type in cases:
            base = random_hmm(rng, n_b, m_b, d, cov_type)
            reduced = random_hmm(rng, n_r, m_r, d, cov_type)
            pair = estep_pair(base, reduced, 3)
            for b in range(n_b):
                for r in range(n_r):
                    gmm_b, gmm_r = base.emissions[b], reduced.emissions[r]
                    assert pair.state_ell[b, r] == pytest.approx(
                        gmm_expected_loglik_opt(gmm_b, gmm_r), abs=1e-12
                    )
                    # eta[b, r, m] is the softmax over l of the log weight
                    # plus the expected log density of component pair (m, l).
                    logits = np.log(gmm_r.weights)[None, :] + expected_loglik_table(gmm_b, gmm_r)
                    eta = np.exp(logits - logits.max(axis=1, keepdims=True))
                    np.testing.assert_allclose(
                        pair.eta[b, r], eta / eta.sum(axis=1, keepdims=True), rtol=0, atol=1e-12
                    )

    def test_objective_value_by_enumeration(self, rng):
        base = random_hmm(rng, n_states=2, n_mix=1)
        reduced = random_hmm(rng, n_states=2, n_mix=1)
        pair = estep_pair(base, reduced, 3)
        value = objective_by_enumeration(base, reduced, 3, pair.phi_initial, pair.phi_step)
        assert pair.objective == pytest.approx(value, abs=1e-9)

    def test_coupling_is_optimal(self, rng):
        # Dirichlet-perturbed couplings never beat the computed one.
        base = random_hmm(rng, n_states=2, n_mix=1)
        reduced = random_hmm(rng, n_states=2, n_mix=1)
        tau = 3
        pair = estep_pair(base, reduced, tau)
        best = pair.objective
        for _ in range(25):
            phi1 = np.stack(
                [rng.dirichlet(np.ones(2)) for _ in range(2)], axis=1
            )  # columns over rho
            steps = np.stack(
                [
                    np.stack(
                        [
                            np.stack([rng.dirichlet(np.ones(2)) for _ in range(2)], axis=1)
                            for _ in range(2)
                        ]
                    )
                    for _ in range(tau - 1)
                ]
            )  # (tau-1, rho_prev, rho, beta) with axis 1 stochastic
            value = objective_by_enumeration(base, reduced, tau, phi1, steps)
            assert value <= best + 1e-9

    def test_below_monte_carlo(self, rng):
        for _ in range(5):
            base = random_hmm(rng, n_states=2, n_mix=2, dim=2)
            reduced = random_hmm(rng, n_states=3, n_mix=2, dim=2)
            obj = estep_pair(base, reduced, 5).objective
            mean, stderr = mc_expected_loglik(base, reduced, 5, 50_000, rng)
            assert obj <= mean + 3 * stderr


class TestBruteforce:
    def test_single_state(self, rng):
        base = gaussian_hmm(0.5)
        reduced = gaussian_hmm(-0.5)
        ell = gauss_expected_loglik(
            base.emissions[0].components[0], reduced.emissions[0].components[0]
        )
        assert elhmm_bruteforce(base, reduced, 4) == pytest.approx(4 * ell, abs=1e-10)

    def test_size_guard(self, rng):
        base = random_hmm(rng, n_states=4)
        reduced = random_hmm(rng, n_states=4)
        with pytest.raises(ValueError):
            elhmm_bruteforce(base, reduced, 12)


class TestComputeAssignments:
    def test_single_reduced(self):
        z = compute_assignments(np.array([[-3.0], [-5.0]]), np.array([1.0]), np.array([10.0, 10.0]))
        np.testing.assert_allclose(z.z, np.ones((2, 1)))

    def test_symmetric_tie(self):
        z = compute_assignments(
            np.array([[-2.0, -2.0]]), np.array([0.5, 0.5]), np.array([100.0])
        )
        np.testing.assert_allclose(z.z, [[0.5, 0.5]], atol=1e-12)

    def test_scaled_sigmoid(self):
        # Objective gap 0.01 at 1000 virtual samples: the soft assignment is
        # the logistic of 10.
        z = compute_assignments(
            np.array([[-1.0, -1.01]]), np.array([0.5, 0.5]), np.array([1000.0])
        )
        expected = 1.0 / (1.0 + math.exp(-10.0))
        assert z.z[0, 0] == pytest.approx(expected, abs=1e-9)
        assert z.z[0, 0] == pytest.approx(0.99995, abs=1e-5)

    def test_huge_exponents_no_overflow(self):
        z = compute_assignments(
            np.array([[-100.0, -200.0]]), np.array([0.5, 0.5]), np.array([1e6])
        )
        np.testing.assert_allclose(z.z, [[1.0, 0.0]], atol=1e-12)

    def test_non_finite_rejected(self):
        # A numerical failure (CLI exit 2), not a validation error.
        with pytest.raises(EstimationError):
            compute_assignments(np.array([[np.nan]]), np.array([1.0]), np.array([1.0]))

    def test_overflow_when_scaled_rejected(self):
        with pytest.raises(EstimationError):
            compute_assignments(np.array([[1e300, 0.0]]), np.array([0.5, 0.5]), np.array([1e10]))

    def test_row_without_mass_is_degenerate(self):
        with pytest.raises(DegenerateWeightsError):
            compute_assignments(np.array([[-1.0, -2.0]]), np.array([0.0, 0.0]), np.array([1.0]))


class TestSummaryStats:
    def test_single_state_counts(self, rng):
        base = gaussian_hmm(0.0)
        reduced = gaussian_hmm(1.0)
        tau = 6
        stats = summary_stats(base, estep_pair(base, reduced, tau))
        np.testing.assert_allclose(stats.nu1_agg, [1.0], atol=1e-12)
        np.testing.assert_allclose(stats.nu_agg, [[tau]], atol=1e-9)
        np.testing.assert_allclose(stats.xi_agg, [[tau - 1]], atol=1e-9)

    def test_start_counts_sum_to_one(self, rng):
        base = random_hmm(rng, n_states=3, n_mix=2)
        reduced = random_hmm(rng, n_states=2, n_mix=2)
        stats = summary_stats(base, estep_pair(base, reduced, 5))
        assert stats.nu1_agg.sum() == pytest.approx(1.0, abs=1e-12)

    def test_marginal_consistency(self, rng):
        for _ in range(10):
            base = random_hmm(rng, n_states=2, n_mix=1)
            reduced = random_hmm(rng, n_states=2, n_mix=1)
            tau = 4
            stats = summary_stats(base, estep_pair(base, reduced, tau))
            marginals = state_marginals(base, tau)
            np.testing.assert_allclose(
                stats.nu_per_step.sum(axis=1), marginals, atol=1e-9
            )

    def test_total_mass_is_tau(self, rng):
        base = random_hmm(rng, n_states=3, n_mix=1)
        reduced = random_hmm(rng, n_states=3, n_mix=1)
        tau = 7
        stats = summary_stats(base, estep_pair(base, reduced, tau))
        assert stats.nu_agg.sum() == pytest.approx(tau, abs=1e-9)


class TestLowerBound:
    def test_single_reduced_component(self, rng):
        reduced = H3m([1.0], [gaussian_hmm(1.0)])
        counts = np.array([30.0, 70.0])
        objectives = np.array([[-3.0], [-4.0]])
        z = AssignmentMatrix(np.ones((2, 1)))
        expected = float(counts @ objectives[:, 0])
        assert lower_bound(reduced, z, objectives, counts) == pytest.approx(expected)

    def test_hard_assignment(self, rng):
        reduced = H3m([0.25, 0.75], [gaussian_hmm(0.0), gaussian_hmm(4.0)])
        counts = np.array([10.0, 10.0])
        objectives = np.array([[-1.0, -9.0], [-9.0, -1.0]])
        z = AssignmentMatrix(np.eye(2))
        expected = (math.log(0.25) + 10 * -1.0) + (math.log(0.75) + 10 * -1.0)
        assert lower_bound(reduced, z, objectives, counts) == pytest.approx(expected)

    def test_assignment_optimality(self, rng):
        base = H3m(
            np.full(3, 1 / 3),
            [gaussian_hmm(0.0), gaussian_hmm(1.0), gaussian_hmm(5.0)],
        )
        reduced = H3m([0.4, 0.6], [gaussian_hmm(0.5), gaussian_hmm(5.0)])
        counts = 10.0 * base.weights
        objectives = np.array(
            [
                [estep_pair(b, r, 3).objective for r in reduced.components]
                for b in base.components
            ]
        )
        z_opt = compute_assignments(objectives, reduced.weights, counts)
        best = lower_bound(reduced, z_opt, objectives, counts)
        for _ in range(100):
            z_rand = AssignmentMatrix(np.stack([rng.dirichlet(np.ones(2)) for _ in range(3)]))
            value = lower_bound(reduced, z_rand, objectives, counts)
            assert value <= best + 1e-9


def run_estep(base, reduced, tau):
    """Pair objectives, summary statistics per (i, j), and the M-step input:
    per reduced component, the virtual statistics of every base component."""
    objectives = np.empty((base.n_components, reduced.n_components))
    summaries = [[None] * reduced.n_components for _ in base.components]
    columns = [[] for _ in reduced.components]
    for i, b in enumerate(base.components):
        for j, r in enumerate(reduced.components):
            pair = estep_pair(b, r, tau)
            objectives[i, j] = pair.objective
            summaries[i][j] = summary_stats(b, pair)
            columns[j].append(_virtual_stats(b, pair))
    return objectives, summaries, [_Stats.concatenate(col) for col in columns]


class TestMstep:
    def test_single_pair_closed_form(self, rng):
        base_hmm = random_hmm(rng, n_states=2, n_mix=1)
        reduced_hmm = random_hmm(rng, n_states=2, n_mix=1)
        base = H3m([1.0], [base_hmm])
        reduced = H3m([1.0], [reduced_hmm])
        counts = np.array([100.0])
        objectives, summaries, stats = run_estep(base, reduced, 5)
        z = AssignmentMatrix(np.ones((1, 1)))
        new, starved = mstep(base, z, stats, counts, reduced)
        assert starved == []
        summary = summaries[0][0]
        np.testing.assert_allclose(
            new.components[0].initial, summary.nu1_agg / summary.nu1_agg.sum(), atol=1e-12
        )
        np.testing.assert_allclose(
            new.components[0].transitions,
            summary.xi_agg / summary.xi_agg.sum(axis=1, keepdims=True),
            atol=1e-12,
        )
        # With M = 1 the emission mean is the occupancy-weighted base mean.
        occ = summary.nu_agg  # (N_r, N_b)
        base_means = np.array([g.components[0].mean for g in base_hmm.emissions])
        for rho in range(2):
            expected = (occ[rho] @ base_means) / occ[rho].sum()
            np.testing.assert_allclose(
                new.components[0].emissions[rho].components[0].mean, expected, atol=1e-10
            )

    def test_identical_base_fixed_point(self, rng):
        # States far enough apart that the couplings resolve; the shared
        # parameters are then an exact fixed point of one update.
        shared = Hmm(
            [0.6, 0.4],
            [[0.7, 0.3], [0.4, 0.6]],
            [
                GaussianMixture([1.0], [Gaussian([-5.0], [1.0])]),
                GaussianMixture([1.0], [Gaussian([5.0], [1.0])]),
            ],
        )
        base = H3m(np.full(4, 0.25), [shared] * 4)
        reduced = H3m([1.0], [shared])
        counts = np.full(4, 25.0)
        objectives, summaries, stats = run_estep(base, reduced, 5)
        z = AssignmentMatrix(np.ones((4, 1)))
        new, _ = mstep(base, z, stats, counts, reduced)
        comp = new.components[0]
        np.testing.assert_allclose(comp.initial, shared.initial, atol=1e-8)
        np.testing.assert_allclose(comp.transitions, shared.transitions, atol=1e-8)
        for g_new, g_old in zip(comp.emissions, shared.emissions):
            np.testing.assert_allclose(
                g_new.components[0].mean, g_old.components[0].mean, atol=1e-8
            )
            np.testing.assert_allclose(
                g_new.components[0].cov, g_old.components[0].cov, atol=1e-8
            )

    def test_weight_update_count_ratio(self, rng):
        comps = [gaussian_hmm(float(i)) for i in range(4)]
        base = H3m(np.full(4, 0.25), comps)
        reduced = H3m([0.5, 0.5], [gaussian_hmm(0.5), gaussian_hmm(3.0)])
        counts = np.full(4, 10.0)
        objectives, summaries, stats = run_estep(base, reduced, 3)
        hard = np.zeros((4, 2))
        hard[:3, 0] = 1.0
        hard[3, 1] = 1.0
        z = AssignmentMatrix(hard)
        new, _ = mstep(base, z, stats, counts, reduced)
        np.testing.assert_allclose(new.weights, [0.75, 0.25], atol=1e-12)

    def test_outputs_stochastic(self, rng):
        base = H3m(
            np.full(3, 1 / 3),
            [random_hmm(rng, 2, 2, 2, mean_scale=3.0) for _ in range(3)],
        )
        reduced = H3m([0.5, 0.5], [random_hmm(rng, 2, 2, 2) for _ in range(2)])
        counts = 100.0 * base.weights
        objectives, summaries, stats = run_estep(base, reduced, 4)
        z = compute_assignments(objectives, reduced.weights, counts)
        new, _ = mstep(base, z, stats, counts, reduced)
        assert new.weights.sum() == pytest.approx(1.0, abs=1e-12)
        for comp in new.components:
            assert comp.initial.sum() == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(comp.transitions.sum(axis=1), 1.0, atol=1e-12)
            for gmm in comp.emissions:
                assert gmm.weights.sum() == pytest.approx(1.0, abs=1e-12)
                for g in gmm.components:
                    assert np.all(np.atleast_1d(g.cov)[np.diag_indices(1)[0]] >= 1e-6)


    @pytest.mark.parametrize("cov_type", ["diag", "full"])
    def test_matches_explicit_updates(self, rng, cov_type):
        # The paper's closed-form updates, summed term by term over base
        # component i, base state beta, base emission m, reduced state rho and
        # reduced emission l; covariances in the centered form.
        k_b, k_r, n_b, n_r, m_b, m_r, d, tau = 3, 2, 3, 2, 2, 3, 2, 4
        base = H3m(
            rng.dirichlet(np.ones(k_b)),
            [random_hmm(rng, n_b, m_b, d, cov_type, mean_scale=3.0) for _ in range(k_b)],
        )
        reduced = H3m(
            np.full(k_r, 1 / k_r), [random_hmm(rng, n_r, m_r, d, cov_type) for _ in range(k_r)]
        )
        counts = 50.0 * base.weights
        z = AssignmentMatrix(rng.dirichlet(np.ones(k_r), size=k_b))
        pairs = [[estep_pair(b, r, tau) for r in reduced.components] for b in base.components]
        summaries = [
            [summary_stats(b, pair) for pair in row] for b, row in zip(base.components, pairs)
        ]

        expected = []
        for j in range(k_r):
            pi, trans = np.zeros(n_r), np.zeros((n_r, n_r))
            mass, mean_num = np.zeros((n_r, m_r)), np.zeros((n_r, m_r, d))
            for i in range(k_b):
                w_ij = z.z[i, j] * counts[i]
                pi += w_ij * summaries[i][j].nu1_agg
                trans += w_ij * summaries[i][j].xi_agg

            def terms():
                for i, beta, m, rho, l in itertools.product(
                    range(k_b), range(n_b), range(m_b), range(n_r), range(m_r)
                ):
                    gmm = base.components[i].emissions[beta]
                    weight = (
                        z.z[i, j] * counts[i] * summaries[i][j].nu_agg[rho, beta]
                        * gmm.weights[m] * pairs[i][j].eta[beta, rho, m, l]
                    )
                    yield rho, l, weight, gmm.components[m]

            for rho, l, weight, comp in terms():
                mass[rho, l] += weight
                mean_num[rho, l] += weight * comp.mean
            means = mean_num / mass[..., None]
            covs = np.zeros((n_r, m_r) + base.components[0].emissions[0].components[0].cov.shape)
            for rho, l, weight, comp in terms():
                dev = comp.mean - means[rho, l]
                spread = dev * dev if cov_type == "diag" else np.outer(dev, dev)
                covs[rho, l] += weight * (comp.cov + spread) / mass[rho, l]
            expected.append(
                (pi / pi.sum(), trans / trans.sum(axis=1, keepdims=True),
                 mass / mass.sum(axis=1, keepdims=True), means, covs)
            )

        # A floor at the median variance binds on some entries and not others.
        variances = np.concatenate(
            [(c if cov_type == "diag" else np.diagonal(c, axis1=-2, axis2=-1)).ravel()
             for *_, c in expected]
        )
        floor = float(np.median(variances))
        assert np.any(variances < floor) and np.any(variances > floor)

        stats = [
            _Stats.concatenate(
                [_virtual_stats(b, pairs[i][j])
                 for i, b in enumerate(base.components)]
            )
            for j in range(k_r)
        ]
        new, starved = mstep(base, z, stats, counts, reduced, cov_floor=floor)
        assert starved == []
        np.testing.assert_allclose(new.weights, base.weights @ z.z, rtol=0, atol=1e-10)
        for comp, (initial, transitions, mix, means, covs) in zip(new.components, expected):
            np.testing.assert_allclose(comp.initial, initial, rtol=0, atol=1e-10)
            np.testing.assert_allclose(comp.transitions, transitions, rtol=0, atol=1e-10)
            for rho, gmm in enumerate(comp.emissions):
                np.testing.assert_allclose(gmm.weights, mix[rho], rtol=0, atol=1e-10)
                for l, g in enumerate(gmm.components):
                    cov = covs[rho, l].copy()
                    if cov_type == "diag":
                        cov = np.maximum(cov, floor)
                    else:
                        cov[np.diag_indices(d)] = np.maximum(np.diag(cov), floor)
                    np.testing.assert_allclose(g.mean, means[rho, l], rtol=0, atol=1e-10)
                    np.testing.assert_allclose(g.cov, cov, rtol=0, atol=1e-10)


class TestVhemReduce:
    def test_fixed_point_self_reduction(self, rng):
        # Distinct leaves with well-separated states: each base component
        # claims its own copy and the bound has nowhere to go.
        leaves = [
            Hmm(
                [0.5, 0.5],
                [[0.8, 0.2], [0.3, 0.7]],
                [
                    GaussianMixture([1.0], [Gaussian([offset - 4.0], [1.0])]),
                    GaussianMixture([1.0], [Gaussian([offset + 4.0], [1.0])]),
                ],
            )
            for offset in (-15.0, -5.0, 5.0, 15.0)
        ]
        base = H3m(np.full(4, 0.25), leaves)
        config = VhemConfig(
            k_reduced=4, init_strategy="provided", init_model=base, max_iters=5,
            tol=0.0, seed=0,
        )
        result = vhem_reduce(base, config)
        assert sorted(result.hard_labels.tolist()) == [0, 1, 2, 3]
        history = np.array(result.bound_history)
        rel_change = np.abs(np.diff(history)) / np.abs(history[:-1])
        assert np.all(rel_change <= 1e-6)

    def test_group_recovery(self):
        leaves, labels = synth_benchmark(4, 5, 4.0, np.random.default_rng(11))
        base = H3m(np.full(20, 0.05), leaves)
        result = vhem_reduce(base, VhemConfig(k_reduced=4, seed=1))
        assert rand_index(list(labels), list(result.hard_labels)) >= 0.95

    def test_single_center_convex_hull(self):
        leaves, _ = synth_benchmark(3, 3, 4.0, np.random.default_rng(2))
        base = H3m(np.full(9, 1 / 9), leaves)
        result = vhem_reduce(base, VhemConfig(k_reduced=1, seed=0))
        all_means = np.concatenate(
            [
                [c.mean[0] for g in hmm.emissions for c in g.components]
                for hmm in base.components
            ]
        )
        for gmm in result.reduced.components[0].emissions:
            for comp in gmm.components:
                assert all_means.min() - 1e-9 <= comp.mean[0] <= all_means.max() + 1e-9

    def test_bound_monotone(self):
        leaves, _ = synth_benchmark(4, 5, 4.0, np.random.default_rng(3))
        base = H3m(np.full(20, 0.05), leaves)
        for seed in range(3):
            result = vhem_reduce(base, VhemConfig(k_reduced=2, seed=seed))
            history = np.array(result.bound_history)
            deltas = np.diff(history)
            assert np.all(deltas >= -1e-8 * np.abs(history[:-1]))

    def test_seed_determinism(self):
        leaves, _ = synth_benchmark(3, 4, 4.0, np.random.default_rng(4))
        base = H3m(np.full(12, 1 / 12), leaves)
        r1 = vhem_reduce(base, VhemConfig(k_reduced=3, seed=9))
        r2 = vhem_reduce(base, VhemConfig(k_reduced=3, seed=9))
        assert r1.bound_history == r2.bound_history
        np.testing.assert_array_equal(r1.hard_labels, r2.hard_labels)

    def test_k_exceeds_base_rejected(self, rng):
        base = H3m([1.0], [gaussian_hmm(0.0)])
        with pytest.raises(InvalidModelError):
            vhem_reduce(base, VhemConfig(k_reduced=2))

    def test_provided_init_must_match_covariance_layout(self):
        shape = dict(n_states=2, n_mix=2, dim=2)
        diag, _ = synth_benchmark(2, 3, 4.0, np.random.default_rng(7), **shape)
        full, _ = synth_benchmark(2, 3, 4.0, np.random.default_rng(7), cov_type="full", **shape)
        for base_leaves, init_leaves in ((diag, full), (full, diag)):
            base = H3m(np.full(6, 1 / 6), base_leaves)
            init = H3m([0.5, 0.5], [init_leaves[0], init_leaves[3]])
            config = VhemConfig(
                k_reduced=2, init_strategy="provided", init_model=init, max_iters=3
            )
            with pytest.raises(InvalidModelError, match="covariance layout"):
                vhem_reduce(base, config)

    def test_restarts_deterministic_and_not_worse(self):
        leaves, _ = synth_benchmark(4, 5, 4.0, np.random.default_rng(6))
        base = H3m(np.full(20, 0.05), leaves)
        single = vhem_reduce(base, VhemConfig(k_reduced=2, seed=4))
        multi_a = vhem_reduce(base, VhemConfig(k_reduced=2, seed=4, n_restarts=4))
        multi_b = vhem_reduce(base, VhemConfig(k_reduced=2, seed=4, n_restarts=4))
        assert multi_a.bound_history == multi_b.bound_history
        np.testing.assert_array_equal(multi_a.hard_labels, multi_b.hard_labels)
        assert multi_a.bound_history[-1] >= single.bound_history[-1] - 1e-6

    def test_random_init_runs(self):
        leaves, labels = synth_benchmark(2, 4, 8.0, np.random.default_rng(5))
        base = H3m(np.full(8, 0.125), leaves)
        result = vhem_reduce(
            base, VhemConfig(k_reduced=2, seed=0, init_strategy="random")
        )
        history = np.array(result.bound_history)
        assert np.all(np.diff(history) >= -1e-8 * np.abs(history[:-1]))
        assert result.effective_k == 2


class TestSeededDrawOrder:
    """Seeded initializations against an explicit per-(state, component)
    draw loop, so that a rewrite cannot change seeded results silently."""

    def test_perturb_means(self, rng):
        hmm = random_hmm(rng, n_states=3, n_mix=2, dim=2)
        out = _perturb_means(hmm, np.random.default_rng(1), scale=0.05)
        draws = np.random.default_rng(1)
        for gmm, base_gmm in zip(out.emissions, hmm.emissions):
            for comp, base_comp in zip(gmm.components, base_gmm.components):
                expected = base_comp.mean * (1.0 + draws.uniform(-0.05, 0.05, size=2))
                np.testing.assert_array_equal(comp.mean, expected)
        np.testing.assert_array_equal(out.covs, hmm.covs)

    @pytest.mark.parametrize("cov_type", ["diag", "full"])
    def test_random_init(self, rng, cov_type):
        base = H3m(
            np.full(3, 1 / 3),
            [random_hmm(rng, n_states=2, n_mix=2, dim=2, cov_type=cov_type) for _ in range(3)],
        )
        config = VhemConfig(k_reduced=2, init_strategy="random")
        reduced = _init_reduced(base, config, np.random.default_rng(7))
        pool = [c for h in base.components for g in h.emissions for c in g.components]
        cov_avg = np.mean([c.cov for c in pool], axis=0)
        draws = np.random.default_rng(7)
        for hmm in reduced.components:
            np.testing.assert_array_equal(hmm.initial, draws.dirichlet(np.ones(2)))
            for row in hmm.transitions:
                np.testing.assert_array_equal(row, draws.dirichlet(np.ones(2)))
            for gmm in hmm.emissions:
                np.testing.assert_array_equal(gmm.weights, draws.dirichlet(np.full(2, 5.0)))
                for comp in gmm.components:
                    mean = pool[draws.integers(len(pool))].mean
                    expected = mean * (1.0 + draws.uniform(-0.1, 0.1, size=2))
                    np.testing.assert_array_equal(comp.mean, expected)
                    np.testing.assert_array_equal(comp.cov, cov_avg)
