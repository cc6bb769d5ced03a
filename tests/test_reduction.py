"""The reduction engine: pair-level E-step against the enumeration oracle,
occupancy statistics against chain marginals, assignment and bound formulas,
M-step closed forms, and the full driver."""

import dataclasses
import gc
import itertools
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from h3mkit import (
    DegenerateWeightsError,
    EstimationError,
    H3m,
    Hmm,
    InvalidModelError,
    VhemConfig,
    hier_cluster,
    mc_expected_loglik,
    rand_index,
    sample_batch,
    synth_benchmark,
    vhem_reduce,
)

import h3mkit.h3m as h3m_module
import h3mkit.hmm as hmm_module
import h3mkit.reduction as reduction_module
from h3mkit.gaussians import _cross_terms, logsumexp
from h3mkit.h3m import compute_assignments, mstep
from h3mkit.hmm import _stack
from h3mkit.hmm import _Stats
from h3mkit.reduction import _estep, _init_reduced, _virtual_stats_all

from conftest import (
    elhmm_bruteforce, estep_pair, mixture_bound, occupancies, random_hmm, state_marginals,
)


def gaussian_hmm(mean, var=1.0):
    return Hmm([1.0], [[1.0]], [[1.0]], [[[mean]]], [[[var]]])


def state_mixture(model, state):
    """The emission mixture of one state as (weights, means, covs) arrays."""
    return model.mix_weights[state], model.means[state], model.covs[state]


def state_bounds(base, reduced):
    """``conftest.mixture_bound`` for every (base state, reduced state) pair."""
    return np.array([
        [mixture_bound(state_mixture(base, b), state_mixture(reduced, r))
         for r in range(reduced.n_states)]
        for b in range(base.n_states)
    ])


def single_gaussian_term(base, reduced):
    """``_cross_terms`` of the one emission component of two one-state models."""
    return float(
        _cross_terms(base.means[0, 0], base.covs[0, 0], reduced.means[0, 0], reduced.covs[0, 0])
    )


def objective_by_enumeration(base, reduced, tau, phi_initial, phi_step):
    """Value of the coupling objective at arbitrary phi tables, summed
    explicitly over every pair of state sequences. Second, independently
    coded evaluator used to cross-check both the recursion and the oracle."""
    n_b, n_r = base.n_states, reduced.n_states
    ell = state_bounds(base, reduced)
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
        ell = single_gaussian_term(base, reduced)
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
        ell = state_bounds(base, reduced)
        expected = 0.0
        for b in range(2):
            inner = sum(reduced.initial[r] * math.exp(ell[b, r]) for r in range(3))
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

    def test_mixed_covariance_layouts_rejected(self):
        # One diagonal and one full model in d=2: neither the E-step nor the
        # oracle has a mixed-layout path, so both name the mismatch.
        diag = Hmm([1.0], [[1.0]], [[1.0]], [[[0.0, 0.0]]], [[[1.0, 2.0]]])
        full = Hmm([1.0], [[1.0]], [[1.0]], [[[0.5, -0.5]]], [[[[2.0, 0.3], [0.3, 1.0]]]])
        for base, reduced in ((diag, full), (full, diag)):
            for pair_entry in (estep_pair, elhmm_bruteforce):
                with pytest.raises(InvalidModelError, match="covariance layout mismatch"):
                    pair_entry(base, reduced, 2)

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
            np.testing.assert_allclose(pair.state_ell, state_bounds(base, reduced), rtol=0, atol=1e-12)
            for b in range(n_b):
                for r in range(n_r):
                    gmm_b, gmm_r = state_mixture(base, b), state_mixture(reduced, r)
                    # eta[b, r, m] is the softmax over l of the log weight
                    # plus the expected log density of component pair (m, l).
                    table = _cross_terms(
                        gmm_b[1][:, None], gmm_b[2][:, None], gmm_r[1][None], gmm_r[2][None]
                    )
                    logits = np.log(gmm_r[0])[None, :] + table
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
        ell = single_gaussian_term(base, reduced)
        assert elhmm_bruteforce(base, reduced, 4) == pytest.approx(4 * ell, abs=1e-10)

    def test_size_guard(self, rng):
        base = random_hmm(rng, n_states=4)
        reduced = random_hmm(rng, n_states=4)
        with pytest.raises(ValueError):
            elhmm_bruteforce(base, reduced, 12)


class TestVhemConfig:
    @pytest.mark.parametrize(
        "bad", [{"cov_floor": np.nan}, {"cov_floor": np.inf}, {"cov_floor": 0.0}, {"tol": np.nan}]
    )
    def test_rejects_nan_or_infinite_floor_and_nan_tol(self, bad):
        with pytest.raises(ValueError, match="0 < cov_floor < inf"):
            VhemConfig(2, **bad)

    @pytest.mark.parametrize(
        "bad, match",
        [
            ({"n_virtual": np.nan}, "n_virtual must be >= 1 and finite"),
            ({"n_virtual": np.inf}, "n_virtual must be >= 1 and finite"),
            ({"n_virtual": 0.5}, "n_virtual must be >= 1 and finite"),
            ({"tau_virtual": 2.5}, "tau_virtual must be an integer, got 2.5"),
            ({"max_iters": 2.5}, "max_iters must be an integer, got 2.5"),
            ({"n_starts": 2.5}, "n_starts must be an integer, got 2.5"),
            ({"k_reduced": np.nan}, "k_reduced must be an integer, got nan"),
            ({"init": "kmeans"}, "^unknown init 'kmeans'$"),
        ],
    )
    def test_rejects_non_finite_virtual_mass_and_fractional_counts(self, bad, match):
        with pytest.raises(ValueError, match=match):
            VhemConfig(**{"k_reduced": 2, **bad})

    def test_numpy_integer_counts_and_fractional_mass_pass(self):
        config = VhemConfig(
            np.int64(2), n_virtual=2.5, tau_virtual=np.int32(3), max_iters=np.int8(4)
        )
        assert (config.k_reduced, config.tau_virtual, config.max_iters) == (2, 3, 4)


class TestComputeAssignments:
    def test_single_reduced(self):
        z, _ = compute_assignments(
            np.array([[-3.0], [-5.0]]), np.array([1.0]), np.array([10.0, 10.0])
        )
        np.testing.assert_allclose(z, np.ones((2, 1)))

    def test_symmetric_tie(self):
        z, _ = compute_assignments(
            np.array([[-2.0, -2.0]]), np.array([0.5, 0.5]), np.array([100.0])
        )
        np.testing.assert_allclose(z, [[0.5, 0.5]], atol=1e-12)

    def test_scaled_sigmoid(self):
        # Objective gap 0.01 at 1000 virtual samples: the soft assignment is
        # the logistic of 10.
        z, _ = compute_assignments(
            np.array([[-1.0, -1.01]]), np.array([0.5, 0.5]), np.array([1000.0])
        )
        expected = 1.0 / (1.0 + math.exp(-10.0))
        assert z[0, 0] == pytest.approx(expected, abs=1e-9)
        assert z[0, 0] == pytest.approx(0.99995, abs=1e-5)

    def test_huge_exponents_no_overflow(self):
        z, _ = compute_assignments(
            np.array([[-100.0, -200.0]]), np.array([0.5, 0.5]), np.array([1e6])
        )
        np.testing.assert_allclose(z, [[1.0, 0.0]], atol=1e-12)

    def test_non_finite_rejected(self):
        # A numerical failure (CLI exit 2), not a validation error.
        with pytest.raises(EstimationError):
            compute_assignments(np.array([[np.nan]]), np.array([1.0]), np.array([1.0]))

    def test_overflow_when_scaled_rejected(self):
        with pytest.raises(EstimationError):
            compute_assignments(np.array([[1e300, 0.0]]), np.array([0.5, 0.5]), np.array([1e10]))

    def test_overflow_to_minus_inf_when_scaled_rejected(self):
        # Finite objectives whose scaled logits overflow to -inf are a
        # numerical failure too, not a row without mass to assign.
        with pytest.raises(EstimationError, match="objectives must be finite"):
            compute_assignments(
                np.array([[-1e300, -1e300]]), np.array([0.5, 0.5]), np.array([1e10])
            )

    def test_row_without_mass_is_degenerate(self):
        with pytest.raises(DegenerateWeightsError):
            compute_assignments(np.array([[-1.0, -2.0]]), np.array([0.0, 0.0]), np.array([1.0]))


def batch_stats(base, reduced, tau, steps=None):
    """One ``_virtual_stats_all`` call over every pair of two lists of HMMs.
    With ``steps``, the forward recursion reads only the first ``steps``
    steps: the statistics are those of the first ``steps`` + 1 frames."""
    block = _stack(base)
    estep = _estep(block, _stack(reduced), tau)
    if steps is not None:
        estep = dataclasses.replace(estep, phi_step=estep.phi_step[:, :, :steps])
    return _virtual_stats_all(block, estep)


class TestSummaryStats:
    """The occupancies behind the virtual statistics: mix[rho, l] summed over
    l is the occupancy of reduced state rho summed over base states and steps."""

    def test_single_state_counts(self, rng):
        tau = 6
        stats = batch_stats([gaussian_hmm(0.0)], [gaussian_hmm(1.0)], tau)
        np.testing.assert_allclose(stats.pi[0, 0], [1.0], atol=1e-12)
        np.testing.assert_allclose(stats.mix[0, 0], [[tau]], atol=1e-9)
        np.testing.assert_allclose(stats.trans[0, 0], [[tau - 1]], atol=1e-9)

    def test_start_counts_sum_to_one(self, rng):
        base = random_hmm(rng, n_states=3, n_mix=2)
        reduced = random_hmm(rng, n_states=2, n_mix=2)
        stats = batch_stats([base], [reduced], 5)
        assert stats.pi[0, 0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_marginal_consistency(self, rng):
        # With one emission component whose means are the unit vectors of
        # R^N_b, the mean statistic of reduced state rho is the co-occupancy
        # nu_agg[rho, beta]; stopping the recursion after t steps and
        # differencing gives the occupancy of each step.
        for _ in range(10):
            n_b, tau = 2, 4
            chain = random_hmm(rng, n_states=n_b, n_mix=1)
            base = Hmm(chain.initial, chain.transitions, chain.mix_weights,
                       np.eye(n_b)[:, None, :], np.ones((n_b, 1, n_b)))
            reduced = random_hmm(rng, n_states=2, n_mix=1, dim=n_b)
            cumulative = np.array([
                batch_stats([base], [reduced], tau, steps).mean[0, 0, :, 0].sum(axis=0)
                for steps in range(tau)
            ])
            per_step = np.diff(cumulative, axis=0, prepend=0.0)
            np.testing.assert_allclose(per_step, state_marginals(base, tau), atol=1e-9)

    def test_total_mass_is_tau(self, rng):
        base = random_hmm(rng, n_states=3, n_mix=1)
        reduced = random_hmm(rng, n_states=3, n_mix=1)
        tau = 7
        stats = batch_stats([base], [reduced], tau)
        assert stats.mix.sum() == pytest.approx(tau, abs=1e-9)


def lower_bound(weights, z, objectives, virtual_counts):
    """Variational lower bound at arbitrary assignments: the z-weighted sum
    of the pair objectives scaled by virtual counts, plus the prior and
    entropy terms of the assignments. 0 log 0 counts as 0."""
    with np.errstate(divide="ignore"):
        log_w = np.log(weights)[None, :]
        log_z = np.where(z > 0, np.log(np.where(z > 0, z, 1.0)), 0.0)
    inner = np.broadcast_to(log_w - log_z + virtual_counts[:, None] * objectives, z.shape)
    mask = z > 0
    return float(np.sum(z[mask] * inner[mask]))


class TestLowerBound:
    def test_single_reduced_component(self, rng):
        reduced = H3m([1.0], [gaussian_hmm(1.0)])
        counts = np.array([30.0, 70.0])
        objectives = np.array([[-3.0], [-4.0]])
        z = np.ones((2, 1))
        expected = float(counts @ objectives[:, 0])
        assert lower_bound(reduced.weights, z, objectives, counts) == pytest.approx(expected)
        z_opt, norms = compute_assignments(objectives, reduced.weights, counts)
        np.testing.assert_array_equal(z_opt, z)
        assert norms.sum() == pytest.approx(expected)

    def test_hard_assignment(self, rng):
        reduced = H3m([0.25, 0.75], [gaussian_hmm(0.0), gaussian_hmm(4.0)])
        counts = np.array([10.0, 10.0])
        objectives = np.array([[-1.0, -9.0], [-9.0, -1.0]])
        z = np.eye(2)
        expected = (math.log(0.25) + 10 * -1.0) + (math.log(0.75) + 10 * -1.0)
        assert lower_bound(reduced.weights, z, objectives, counts) == pytest.approx(expected)

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
        z_opt, norms = compute_assignments(objectives, reduced.weights, counts)
        best = lower_bound(reduced.weights, z_opt, objectives, counts)
        # At the optimal assignments the bound is the sum of the log-normalizers.
        assert norms.sum() == pytest.approx(best, rel=1e-12)
        for _ in range(100):
            z_rand = np.stack([rng.dirichlet(np.ones(2)) for _ in range(3)])
            value = lower_bound(reduced.weights, z_rand, objectives, counts)
            assert value <= best + 1e-9


def joined(parts, axis):
    """The statistics of ``parts``, one after another along ``axis``: with
    axis 1, per reduced component j the (I, 1, ...) virtual statistics of
    every base component, as the (I, J, ...) M-step input."""
    return _Stats(*(
        np.concatenate([getattr(part, name) for part in parts], axis=axis)
        for name in ("pi", "trans", "mix", "mean", "sq")
    ))


def run_estep(base, reduced, tau):
    """Pair objectives and the M-step input, the virtual statistics of every
    base component under every reduced one, from one batched pass."""
    estep = _estep(base.arrays, reduced.arrays, tau)
    return estep.objective, _virtual_stats_all(base.arrays, estep)


class TestMstep:
    def test_single_pair_closed_form(self, rng):
        base_hmm = random_hmm(rng, n_states=2, n_mix=1)
        reduced_hmm = random_hmm(rng, n_states=2, n_mix=1)
        base = H3m([1.0], [base_hmm])
        reduced = H3m([1.0], [reduced_hmm])
        counts = np.array([100.0])
        objectives, stats = run_estep(base, reduced, 5)
        z = np.ones((1, 1))
        assert h3m_module._starved(z, counts) == []
        new = mstep(z, stats, counts, reduced)
        pair = estep_pair(base_hmm, reduced_hmm, 5)
        nu_per_step, xi_agg = occupancies(base_hmm, pair.phi_initial, pair.phi_step)
        np.testing.assert_allclose(
            new.components[0].initial, nu_per_step[0].sum(axis=1), atol=1e-12
        )
        np.testing.assert_allclose(
            new.components[0].transitions, xi_agg / xi_agg.sum(axis=1, keepdims=True), atol=1e-12
        )
        # With M = 1 the emission mean is the occupancy-weighted base mean.
        occ = nu_per_step.sum(axis=0)  # (N_r, N_b)
        for rho in range(2):
            expected = (occ[rho] @ base_hmm.means[:, 0]) / occ[rho].sum()
            np.testing.assert_allclose(new.components[0].means[rho, 0], expected, atol=1e-10)

    def test_identical_base_fixed_point(self, rng):
        # States far enough apart that the couplings resolve; the shared
        # parameters are then an exact fixed point of one update.
        shared = Hmm(
            [0.6, 0.4],
            [[0.7, 0.3], [0.4, 0.6]],
            np.ones((2, 1)),
            [[[-5.0]], [[5.0]]],
            np.ones((2, 1, 1)),
        )
        base = H3m(np.full(4, 0.25), [shared] * 4)
        reduced = H3m([1.0], [shared])
        counts = np.full(4, 25.0)
        objectives, stats = run_estep(base, reduced, 5)
        z = np.ones((4, 1))
        new = mstep(z, stats, counts, reduced)
        comp = new.components[0]
        np.testing.assert_allclose(comp.initial, shared.initial, atol=1e-8)
        np.testing.assert_allclose(comp.transitions, shared.transitions, atol=1e-8)
        np.testing.assert_allclose(comp.means, shared.means, atol=1e-8)
        np.testing.assert_allclose(comp.covs, shared.covs, atol=1e-8)

    def test_weight_update_count_ratio(self, rng):
        comps = [gaussian_hmm(float(i)) for i in range(4)]
        base = H3m(np.full(4, 0.25), comps)
        reduced = H3m([0.5, 0.5], [gaussian_hmm(0.5), gaussian_hmm(3.0)])
        counts = np.full(4, 10.0)
        objectives, stats = run_estep(base, reduced, 3)
        hard = np.zeros((4, 2))
        hard[:3, 0] = 1.0
        hard[3, 1] = 1.0
        z = hard
        new = mstep(z, stats, counts, reduced)
        np.testing.assert_allclose(new.weights, [0.75, 0.25], atol=1e-12)

    def test_outputs_stochastic(self, rng):
        base = H3m(
            np.full(3, 1 / 3),
            [random_hmm(rng, 2, 2, 2, mean_scale=3.0) for _ in range(3)],
        )
        reduced = H3m([0.5, 0.5], [random_hmm(rng, 2, 2, 2) for _ in range(2)])
        counts = 100.0 * base.weights
        objectives, stats = run_estep(base, reduced, 4)
        z, _ = compute_assignments(objectives, reduced.weights, counts)
        new = mstep(z, stats, counts, reduced)
        assert new.weights.sum() == pytest.approx(1.0, abs=1e-12)
        for comp in new.components:
            assert comp.initial.sum() == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(comp.transitions.sum(axis=1), 1.0, atol=1e-12)
            np.testing.assert_allclose(comp.mix_weights.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(comp.covs >= 1e-6)


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
        z = rng.dirichlet(np.ones(k_r), size=k_b)
        pairs = [[estep_pair(b, r, tau) for r in reduced.components] for b in base.components]
        # Per pair, the occupancies nu (tau, N_r, N_b) and xi (N_r, N_r).
        occupancy = [
            [occupancies(b, pair.phi_initial, pair.phi_step) for pair in row]
            for b, row in zip(base.components, pairs)
        ]

        expected = []
        for j in range(k_r):
            pi, trans = np.zeros(n_r), np.zeros((n_r, n_r))
            mass, mean_num = np.zeros((n_r, m_r)), np.zeros((n_r, m_r, d))
            for i in range(k_b):
                w_ij = z[i, j] * counts[i]
                nu_per_step, xi_agg = occupancy[i][j]
                pi += w_ij * nu_per_step[0].sum(axis=1)
                trans += w_ij * xi_agg

            def terms():
                for i, beta, m, rho, l in itertools.product(
                    range(k_b), range(n_b), range(m_b), range(n_r), range(m_r)
                ):
                    b = base.components[i]
                    weight = (
                        z[i, j] * counts[i] * occupancy[i][j][0][:, rho, beta].sum()
                        * b.mix_weights[beta, m] * pairs[i][j].eta[beta, rho, m, l]
                    )
                    yield rho, l, weight, b.means[beta, m], b.covs[beta, m]

            for rho, l, weight, mean, _ in terms():
                mass[rho, l] += weight
                mean_num[rho, l] += weight * mean
            means = mean_num / mass[..., None]
            covs = np.zeros((n_r, m_r) + base.arrays.covs.shape[3:])
            for rho, l, weight, mean, cov in terms():
                dev = mean - means[rho, l]
                spread = dev * dev if cov_type == "diag" else np.outer(dev, dev)
                covs[rho, l] += weight * (cov + spread) / mass[rho, l]
            expected.append(
                (pi / pi.sum(), trans / trans.sum(axis=1, keepdims=True),
                 mass / mass.sum(axis=1, keepdims=True), means, covs)
            )

        # A floor at the median eigenvalue (a variance is its own) binds on
        # some covariances and not others.
        eigenvalues = np.concatenate(
            [(c if cov_type == "diag" else np.linalg.eigvalsh(c)).ravel() for *_, c in expected]
        )
        floor = float(np.median(eigenvalues))
        assert np.any(eigenvalues < floor) and np.any(eigenvalues > floor)

        _, stats = run_estep(base, reduced, tau)
        assert h3m_module._starved(z, counts) == []
        new = mstep(z, stats, counts, reduced, cov_floor=floor)
        # HEM's weight update: the mean assignment over base components.
        np.testing.assert_allclose(new.weights, z.sum(axis=0) / k_b, rtol=0, atol=1e-10)
        for comp, (initial, transitions, mix, means, covs) in zip(new.components, expected):
            np.testing.assert_allclose(comp.initial, initial, rtol=0, atol=1e-10)
            np.testing.assert_allclose(comp.transitions, transitions, rtol=0, atol=1e-10)
            np.testing.assert_allclose(comp.mix_weights, mix, rtol=0, atol=1e-10)
            np.testing.assert_allclose(comp.means, means, rtol=0, atol=1e-10)
            for rho, l in np.ndindex(mix.shape):
                cov = covs[rho, l]
                if cov_type == "diag":
                    cov = np.maximum(cov, floor)
                else:
                    # The eigenvalues below the floor raised to it, eigenvectors kept.
                    values, vectors = np.linalg.eigh(cov)
                    cov = (vectors * np.maximum(values, floor)) @ vectors.T
                np.testing.assert_allclose(comp.covs[rho, l], cov, rtol=0, atol=1e-10)


class TestVhemReduce:
    def test_fixed_point_self_reduction(self, rng):
        # Distinct leaves with well-separated states: each base component
        # claims its own copy and the bound has nowhere to go.
        leaves = [
            Hmm(
                [0.5, 0.5],
                [[0.8, 0.2], [0.3, 0.7]],
                np.ones((2, 1)),
                [[[offset - 4.0]], [[offset + 4.0]]],
                np.ones((2, 1, 1)),
            )
            for offset in (-15.0, -5.0, 5.0, 15.0)
        ]
        base = H3m(np.full(4, 0.25), leaves)
        config = VhemConfig(
            k_reduced=4, init=base, max_iters=5,
            tol=0.0, seed=0,
        )
        result = vhem_reduce(base, config)
        assert sorted(result.hard_labels.tolist()) == [0, 1, 2, 3]
        history = np.array(result.bound_history)
        rel_change = np.abs(np.diff(history)) / np.abs(history[:-1])
        assert np.all(rel_change <= 1e-6)

    def test_restarts_from_a_given_start_rejected(self):
        # A given start draws nothing: its starts would be identical runs.
        leaves, _ = synth_benchmark(2, 3, 4.0, np.random.default_rng(0))
        base = H3m(np.full(6, 1 / 6), leaves)
        start = H3m([0.5, 0.5], [leaves[0], leaves[3]])
        config = VhemConfig(k_reduced=2, init=start, n_starts=4, max_iters=2)
        with pytest.raises(ValueError) as info:
            vhem_reduce(base, config)
        assert str(info.value) == "n_starts=4 from a given start repeats one run"
        # hier_cluster starts every level from "subset-perturb", where starts draw.
        levels = hier_cluster(leaves, [2], config)
        assert levels[1].level_size == 2

    def test_group_recovery(self):
        leaves, labels = synth_benchmark(4, 5, 4.0, np.random.default_rng(11))
        base = H3m(np.full(20, 0.05), leaves)
        result = vhem_reduce(base, VhemConfig(k_reduced=4, seed=1))
        assert rand_index(list(labels), list(result.hard_labels)) >= 0.95

    def test_single_center_convex_hull(self):
        leaves, _ = synth_benchmark(3, 3, 4.0, np.random.default_rng(2))
        base = H3m(np.full(9, 1 / 9), leaves)
        result = vhem_reduce(base, VhemConfig(k_reduced=1, seed=0))
        all_means = base.arrays.means[..., 0]
        reduced_means = result.reduced.arrays.means[..., 0]
        assert all_means.min() - 1e-9 <= reduced_means.min()
        assert reduced_means.max() <= all_means.max() + 1e-9

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

    def test_subset_perturb_needs_enough_weighted_components(self, monkeypatch):
        # k_reduced above the number of base components with nonzero weight is
        # one error, from either init, before any start is drawn.
        leaves, _ = synth_benchmark(2, 3, 4.0, np.random.default_rng(0))
        base = H3m([0.5, 0.5, 0.0, 0.0, 0.0, 0.0], leaves)
        calls = []
        monkeypatch.setattr(reduction_module, "_init_reduced", lambda *args: calls.append(args))
        message = "needs k_reduced=3 base components with nonzero weight, found 2"
        for init in ("subset-perturb", "random"):
            with pytest.raises(InvalidModelError, match=message):
                vhem_reduce(base, VhemConfig(k_reduced=3, init=init))
        assert calls == []

    def test_provided_init_must_match_covariance_layout(self):
        shape = dict(n_states=2, n_mix=2, dim=2)
        diag, _ = synth_benchmark(2, 3, 4.0, np.random.default_rng(7), **shape)
        full, _ = synth_benchmark(2, 3, 4.0, np.random.default_rng(7), cov_type="full", **shape)
        for base_leaves, init_leaves in ((diag, full), (full, diag)):
            base = H3m(np.full(6, 1 / 6), base_leaves)
            init = H3m([0.5, 0.5], [init_leaves[0], init_leaves[3]])
            config = VhemConfig(k_reduced=2, init=init, max_iters=3)
            with pytest.raises(InvalidModelError, match="covariance layout"):
                vhem_reduce(base, config)

    @pytest.mark.parametrize(
        "dim, n_start, message",
        [
            (2, 2, "dimension mismatch: base d=1, reduced d=2"),
            (1, 3, "provided initial model has 3 components, expected k_reduced=2"),
        ],
        ids=["dimension", "k_reduced"],
    )
    def test_given_start_checked_against_base_and_k_reduced(self, dim, n_start, message):
        shape = dict(n_states=2, n_mix=2)
        leaves, _ = synth_benchmark(2, 3, 4.0, np.random.default_rng(7), **shape)
        starts, _ = synth_benchmark(2, 3, 4.0, np.random.default_rng(8), dim=dim, **shape)
        base = H3m(np.full(6, 1 / 6), leaves)
        start = H3m(np.full(n_start, 1 / n_start), starts[:n_start])
        with pytest.raises(InvalidModelError) as info:
            vhem_reduce(base, VhemConfig(k_reduced=2, init=start, max_iters=3))
        assert str(info.value) == message

    def test_rescue_from_base_shaped_unlike_the_start_rejected(self, monkeypatch):
        # A starved component is rescued by copying a base component, so a start
        # with fewer states than the base is rejected before any E-step runs.
        leaves, _ = synth_benchmark(2, 3, 1.0, np.random.default_rng(0), n_states=2)
        base = H3m(np.full(6, 1 / 6), leaves)
        start = H3m([0.5, 0.5], [
            Hmm([1.0], [[1.0]], [[1.0]], [[[mean]]], [[[1.0]]]) for mean in (0.0, 50.0)
        ])
        calls = []
        estep = reduction_module._estep
        monkeypatch.setattr(
            reduction_module, "_estep", lambda *args: calls.append(args) or estep(*args)
        )
        with pytest.raises(InvalidModelError, match="1 states and 1 mixture components"):
            vhem_reduce(base, VhemConfig(k_reduced=2, init=start, max_iters=5))
        assert calls == []

    def test_two_rescues_in_one_iteration_copy_the_two_worst(self, monkeypatch):
        # Two components starve after the first E-step: before the M-step, the
        # first rescue copies the base component with the worst best
        # objective, the second the next.
        shape = dict(n_states=3, n_mix=2, dim=2)
        leaves, _ = synth_benchmark(4, 5, 4.0, np.random.default_rng(3), **shape)
        base = H3m(np.full(20, 0.05), leaves)
        estimates, msteps = [], []
        assign, step = h3m_module.compute_assignments, h3m_module.mstep

        def recorded_assign(values, weights, counts):
            z, norms = assign(values, weights, counts)
            estimates.append((values, z.copy(), counts))
            return z, norms

        def recorded_mstep(z, stats, counts, previous, cov_floor):
            msteps.append(previous)
            return step(z, stats, counts, previous, cov_floor)

        monkeypatch.setattr(h3m_module, "compute_assignments", recorded_assign)
        monkeypatch.setattr(h3m_module, "mstep", recorded_mstep)
        result = vhem_reduce(base, VhemConfig(k_reduced=8, max_iters=10, tol=0.0, seed=2))
        objectives, z, counts = estimates[0]
        starved = h3m_module._starved(z, counts)
        assert result.rescues == 2 and len(starved) == 2
        worst_first = np.argsort(objectives.max(axis=1), kind="stable")
        rescued = msteps[0].arrays.means
        for j, worst in zip(starved, worst_first):
            assert rescued[j].tobytes() == base.arrays.means[worst].tobytes()
        means = result.reduced.arrays.means
        assert len({row.tobytes() for row in means}) == len(means)

    def test_restarts_deterministic_and_not_worse(self):
        leaves, _ = synth_benchmark(4, 5, 4.0, np.random.default_rng(6))
        base = H3m(np.full(20, 0.05), leaves)
        single = vhem_reduce(base, VhemConfig(k_reduced=2, seed=4))
        multi_a = vhem_reduce(base, VhemConfig(k_reduced=2, seed=4, n_starts=4))
        multi_b = vhem_reduce(base, VhemConfig(k_reduced=2, seed=4, n_starts=4))
        assert multi_a.bound_history == multi_b.bound_history
        np.testing.assert_array_equal(multi_a.hard_labels, multi_b.hard_labels)
        assert multi_a.bound_history[-1] >= single.bound_history[-1] - 1e-6

    def test_starts_are_the_children_of_the_seed(self, monkeypatch):
        # The restart rule of h3m_em: one _em run per child of
        # default_rng(seed).spawn(n_starts), the one whose bound ends highest
        # kept. Here the last child's run is the best.
        leaves, _ = synth_benchmark(4, 5, 4.0, np.random.default_rng(6))
        base = H3m(np.full(20, 0.05), leaves)
        starts, runs = [], []
        init, em = reduction_module._init_reduced, reduction_module._em

        def recorded_init(items, config, rng):
            starts.append(rng.bit_generator.state)
            return init(items, config, rng)

        def recorded_em(*args):
            runs.append(em(*args))
            return runs[-1]

        monkeypatch.setattr(reduction_module, "_init_reduced", recorded_init)
        monkeypatch.setattr(reduction_module, "_em", recorded_em)
        result = vhem_reduce(base, VhemConfig(k_reduced=2, seed=4, n_starts=3))
        assert starts == [child.bit_generator.state
                          for child in np.random.default_rng(4).spawn(3)]
        finals = [trace[-1] for _, _, trace, _ in runs]
        assert len(set(finals)) == 3 and max(finals) == finals[2]
        reduced, z, trace, rescues = runs[2]
        assert result.reduced is reduced and result.bound_history == trace
        assert result.rescues == rescues
        assert result.assignments.z.tobytes() == z.tobytes()

    def test_given_model_is_the_starting_point(self):
        leaves, _ = synth_benchmark(2, 3, 4.0, np.random.default_rng(7))
        base = H3m(np.full(6, 1 / 6), leaves)
        start = H3m([0.3, 0.7], [leaves[4], leaves[1]])
        # One E-step and no M-step: the result holds the start's arrays, which
        # the floor leaves as they are, and the bound is taken at it.
        result = vhem_reduce(base, VhemConfig(k_reduced=2, init=start, max_iters=1))
        assert result.reduced.weights is start.weights
        assert all(got is want for got, want in zip(result.reduced.arrays, start.arrays))
        objectives = np.array(
            [[estep_pair(b, r, 10).objective for r in start.components] for b in leaves]
        )
        counts = 10_000 * len(leaves) * base.weights
        _, norms = compute_assignments(objectives, start.weights, counts)
        assert result.bound_history == [float(np.sum(norms))]

    @pytest.mark.parametrize(
        "groups, per_group, k_r, shape",
        [
            (8, 16, 8, dict(n_states=3, n_mix=2, dim=2)),
            (4, 4, 4, dict(n_states=2, n_mix=2, dim=2, cov_type="full")),
        ],
        ids=["diag-128-to-8", "full-16-to-4"],
    )
    def test_bound_is_the_z_weighted_formula_at_every_iteration(
        self, monkeypatch, groups, per_group, k_r, shape
    ):
        # The bound is the sum of the assignment log-normalizers; at the
        # assignments it returns, that equals the z-weighted formula.
        calls = []
        real = h3m_module.compute_assignments

        def recorded(objectives, weights, counts):
            z, norms = real(objectives, weights, counts)
            calls.append((weights, z, objectives, counts))
            return z, norms

        monkeypatch.setattr(h3m_module, "compute_assignments", recorded)
        leaves, _ = synth_benchmark(groups, per_group, 4.0, np.random.default_rng(21), **shape)
        base = H3m(np.full(len(leaves), 1 / len(leaves)), leaves)
        result = vhem_reduce(base, VhemConfig(k_reduced=k_r, max_iters=4, tol=0.0, seed=3))
        assert len(calls) == len(result.bound_history) == 4
        for bound, args in zip(result.bound_history, calls):
            expected = lower_bound(*args)
            assert abs(bound - expected) <= 1e-12 * abs(expected)

    def test_state_pair_with_overflowed_expectation_gets_no_weight(self):
        # Base states at 0 and 1e150 against a start whose states have
        # variance 1e-10: the cross pairs' expected log-likelihoods overflow
        # to -inf, and their eta is 0 rather than NaN.
        def two_state(means, var, transitions):
            return Hmm(
                np.array([0.5, 0.5]), np.array(transitions), np.ones((2, 1)),
                np.array(means, dtype=float).reshape(2, 1, 1), np.full((2, 1, 1), var),
            )

        base = H3m([0.5, 0.5], [
            two_state([0.0, 1e150], 1.0, [[0.9, 0.1], [0.2, 0.8]]),
            two_state([0.0, 1e150], 1.0, [[0.6, 0.4], [0.5, 0.5]]),
        ])
        start = H3m([1.0], [two_state([0.5, 1e150], 1e-10, [[0.5, 0.5], [0.5, 0.5]])])
        pair = estep_pair(base.components[0], start.components[0], 10)
        assert np.isfinite(pair.objective)
        assert not np.any(np.isnan(pair.eta))
        np.testing.assert_array_equal(pair.eta[[0, 1], [1, 0]], 0.0)
        result = vhem_reduce(base, VhemConfig(k_reduced=1, init=start, max_iters=4, tol=0.0))
        history = np.array(result.bound_history)
        assert history.size == 4 and np.all(np.isfinite(history))
        assert np.all(np.diff(history) >= -1e-8 * np.abs(history[:-1]))

    def test_subnormal_start_is_a_numerical_failure_without_warning(self):
        # A start with variances 5e-324, kept by the same floor: its
        # expected log-likelihoods overflow to -inf, which compute_assignments
        # rejects, and no numpy warning escapes the kernel on the way.
        leaves = [gaussian_hmm(mean) for mean in (0.0, 0.5, 5.0, 5.5)]
        base = H3m(np.full(4, 0.25), leaves)
        start = H3m([0.5, 0.5], [gaussian_hmm(mean, 5e-324) for mean in (0.0, 5.0)])
        config = VhemConfig(k_reduced=2, init=start, cov_floor=5e-324, max_iters=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimationError, match="objectives must be finite"):
                vhem_reduce(base, config)

    @pytest.mark.parametrize("n_virtual", [None, 1], ids=["scaled-overflow", "moment-overflow"])
    def test_means_near_the_float_range_are_a_numerical_failure_without_warning(self, n_virtual):
        # Legal leaves with means 1.5e154 and 1.52e154. With the default
        # virtual mass the pair objectives (about -2e304) overflow to -inf
        # when scaled; with one virtual sample they do not, but the second
        # moments mu^2 (above 2.2e308) do, and the M-step's covariance is
        # inf - inf. Both are numerical failures, and no warning escapes.
        leaves = [
            Hmm([1.0], [[1.0]], [[1.0]], [[[mean, 0.0]]], [[[1.0, 1.0]]])
            for mean in (1.5e154, 1.52e154)
        ]
        config = VhemConfig(k_reduced=1, n_virtual=n_virtual, max_iters=3, tol=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimationError):
                vhem_reduce(H3m([0.5, 0.5], leaves), config)

    @pytest.mark.parametrize("case", ["mixture weight", "state"])
    def test_mean_that_nothing_weighs_leaves_the_bound_finite(self, case):
        # A mean at 1e200 behind a zero mixture weight, or in a state the
        # chain never enters: its expected log-likelihoods are -inf, and a
        # zero weight times -inf is 0 in the bound (IEEE gave NaN, which
        # compute_assignments rejected). The run matches the one with that
        # mean moved to 3.0, and no warning is raised.
        def history(far):
            base = H3m([0.5, 0.5], [unweighted_mean(case, near, far) for near in (0.0, 0.5)])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return vhem_reduce(base, VhemConfig(2, max_iters=5, tol=0)).bound_history

        far, moved = history(1e200), history(3.0)
        assert np.isfinite(far).all()
        np.testing.assert_allclose(far, moved, rtol=1e-12, atol=0)

    def test_state_that_nothing_enters_gets_no_coupling(self):
        # Its scores against every reduced state are -inf: its couplings are
        # 0, not NaN.
        base, reduced = (_stack([unweighted_mean("state", 0.0, far)]) for far in (1e200, 3.0))
        estep = _estep(base, reduced, 4)
        assert np.isfinite(estep.objective).all()
        assert not estep.phi_initial[..., 1].any() and not estep.phi_step[..., 1].any()
        np.testing.assert_allclose(estep.phi_initial[..., 0].sum(axis=-1), 1.0, rtol=1e-12)

    def test_random_init_runs(self):
        leaves, labels = synth_benchmark(2, 4, 8.0, np.random.default_rng(5))
        base = H3m(np.full(8, 0.125), leaves)
        result = vhem_reduce(
            base, VhemConfig(k_reduced=2, seed=0, init="random")
        )
        history = np.array(result.bound_history)
        assert np.all(np.diff(history) >= -1e-8 * np.abs(history[:-1]))
        assert result.effective_k == 2


class TestWeightlessComponents:
    """A base component of weight 0 carries no virtual sample: the reduction
    runs on the weighted components only, and a weightless one's assignment
    row is the reduced weights."""

    @pytest.mark.parametrize("init", ["subset-perturb", "random"])
    def test_far_weightless_component_reduces_without_warning(self, init):
        # Weights (0.5, 0.5, 0) with the weightless mean at 1e200: its pair
        # objectives are -inf, and its count 0 times -inf is no longer formed.
        base = H3m([0.5, 0.5, 0.0], [gaussian_hmm(mean) for mean in (0.0, 0.5, 1e200)])
        alone = H3m([0.5, 0.5], [gaussian_hmm(mean) for mean in (0.0, 0.5)])
        config = VhemConfig(k_reduced=1, init=init)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = vhem_reduce(base, config)
        assert result.effective_k == 1
        assert result.bound_history == vhem_reduce(alone, config).bound_history
        np.testing.assert_array_equal(result.assignments.z, np.ones((3, 1)))

    @pytest.mark.parametrize("init", ["subset-perturb", "random"])
    def test_weightless_components_change_nothing(self, init):
        # Four weightless leaves, far from the rest, interleaved with twenty
        # weighted ones: the reduction, its rescues included, is bit for bit
        # the one of the twenty alone.
        shape = dict(n_states=3, n_mix=2, dim=2)
        leaves, _ = synth_benchmark(4, 5, 4.0, np.random.default_rng(1), **shape)
        far, _ = synth_benchmark(2, 2, 40.0, np.random.default_rng(2), **shape)
        config = VhemConfig(k_reduced=6, max_iters=10, tol=0.0, seed=0, init=init)
        expected = vhem_reduce(H3m(np.full(20, 0.05), leaves), config)
        weights = np.array([0.05] * 5 + [0.0] * 2 + [0.05] * 15 + [0.0] * 2)
        result = vhem_reduce(H3m(weights, leaves[:5] + far[:2] + leaves[5:] + far[2:]), config)
        assert expected.rescues > 0
        assert result.bound_history == expected.bound_history
        assert (result.rescues, result.effective_k) == (expected.rescues, expected.effective_k)
        assert result.reduced.weights.tobytes() == expected.reduced.weights.tobytes()
        for got, want in zip(result.reduced.arrays, expected.reduced.arrays):
            assert got.tobytes() == want.tobytes()
        z = result.assignments.z
        assert z[weights > 0].tobytes() == expected.assignments.z.tobytes()
        np.testing.assert_array_equal(z[weights == 0], np.tile(result.reduced.weights, (4, 1)))
        np.testing.assert_array_equal(result.hard_labels, z.argmax(axis=1))

    @pytest.mark.parametrize("seed", range(10))
    def test_repair_never_takes_a_weightless_item(self, monkeypatch, seed):
        # Two groups of three weighted leaves and one weightless leaf at 1000,
        # the worst modeled item at every E-step: no repair takes it, and the
        # reduction keeps its three components.
        base = H3m([1 / 6] * 6 + [0.0],
                   [gaussian_hmm(mean) for mean in (0.0, 0.1, 0.2, 5.0, 5.1, 5.2, 1000.0)])
        starts, step = [], h3m_module.mstep
        monkeypatch.setattr(
            h3m_module, "mstep", lambda z, stats, counts, previous, floor:
            starts.append(previous.arrays.means.copy()) or step(z, stats, counts, previous, floor),
        )
        result = vhem_reduce(base, VhemConfig(k_reduced=3, init="random", max_iters=10, seed=seed))
        assert starts and not any((means == 1000.0).any() for means in starts)
        assert result.effective_k == 3


def unweighted_mean(case, near, far):
    """A one-dimensional HMM with a mean at ``near`` and one at ``far`` that
    nothing weighs: a mixture component of weight 0, or a state with initial
    probability 0 that no transition enters."""
    if case == "mixture weight":
        return Hmm([1.0], [[1.0]], [[1.0, 0.0]], [[[near], [far]]], [[[1.0], [1.0]]])
    return Hmm([1.0, 0.0], [[1.0, 0.0], [0.5, 0.5]], [[1.0], [1.0]], [[[near]], [[far]]],
               [[[1.0]], [[1.0]]])


def with_zero_transitions(hmm):
    """The same HMM made left to right: it starts in state 0 and never moves
    back, so most transition probabilities are 0."""
    a = np.triu(hmm.transitions)
    initial = np.eye(hmm.n_states)[0]
    return Hmm(
        initial, a / a.sum(axis=1, keepdims=True), hmm.mix_weights, hmm.means, hmm.covs
    )


def batch_case(name, cov_type):
    """(base components, reduced components, tau) for the slice tests."""
    if name == "overflowed-expectation":
        def two_state(means, var):
            return Hmm(
                np.array([0.5, 0.5]), np.array([[0.9, 0.1], [0.2, 0.8]]), np.ones((2, 1)),
                np.array(means, dtype=float).reshape(2, 1, 1), np.full((2, 1, 1), var),
            )
        return [two_state([0.0, 1e150], 1.0)] * 2, [two_state([0.5, 1e150], 1e-10)], 10
    rng = np.random.default_rng(17)

    def hmms(k, n_states, n_mix):
        return [random_hmm(rng, n_states, n_mix, 2, cov_type, mean_scale=3.0) for _ in range(k)]

    base, reduced = hmms(4, 3, 2), hmms(3, 2, 3)
    return {
        "unequal-shapes": (base, reduced, 4),
        "zero-transitions": (
            [with_zero_transitions(h) for h in base],
            [with_zero_transitions(h) for h in reduced],
            5,
        ),
        "tau-1": (base, reduced, 1),
        "k_r-equals-k_b": (base, hmms(4, 2, 3), 3),
        "duplicate-base": ([base[0], base[1], base[0], base[0]], reduced, 3),
    }[name]


# The loop over pairs that the batched E-step replaced, kept as an oracle:
# per pair, the emission matching, the phi recursion, the occupancies
# (conftest.occupancies) and the virtual statistics, as separate calls.


def per_pair_estep(base_i, reduced_j, tau):
    table = _cross_terms(
        base_i.means[:, None, :, None],
        base_i.covs[:, None, :, None],
        reduced_j.means[None, :, None],
        reduced_j.covs[None, :, None],
    )
    with np.errstate(divide="ignore"):
        logits = np.log(reduced_j.mix_weights)[None, :, None, :] + table
        log_pi_r = np.log(reduced_j.initial)
        log_a_r = np.log(reduced_j.transitions)
    with np.errstate(invalid="ignore"):
        norm = logsumexp(logits, axis=3)
        eta = np.exp(logits - np.where(norm == -np.inf, 0.0, norm)[..., None])
        ell = (norm[..., None, :] @ base_i.mix_weights[:, None, :, None])[..., 0, 0]
        n_b, n_r = ell.shape
        future = np.zeros((n_b, n_r))
        phi_step = np.empty((tau - 1, n_r, n_r, n_b))
        for t in range(tau, 1, -1):
            scores = log_a_r[:, None, :] + (ell + future)[None, :, :]
            norm = logsumexp(scores, axis=2)
            phi_step[t - 2] = np.exp(scores - norm[:, :, None]).transpose(0, 2, 1)
            future = base_i.transitions @ norm.T
        scores1 = log_pi_r[None, :] + ell + future
        norm1 = logsumexp(scores1, axis=1)
        phi_initial = np.exp(scores1 - norm1[:, None]).T
    return eta, phi_initial, phi_step, float(base_i.initial @ norm1)


def per_pair_virtual_stats(base_i, eta, phi_initial, phi_step):
    nu_per_step, xi_agg = occupancies(base_i, phi_initial, phi_step)
    nu_agg = nu_per_step.sum(axis=0)
    c_b, mu_b, cov_b = base_i.mix_weights, base_i.means, base_i.covs
    resp = nu_agg.T[:, :, None, None] * c_b[:, None, :, None] * eta
    if cov_b.ndim == 3:
        second = cov_b + mu_b * mu_b
    else:
        second = cov_b + mu_b[..., :, None] * mu_b[..., None, :]
    return _Stats(
        pi=nu_per_step[0].sum(axis=1)[None, None],
        trans=xi_agg[None, None],
        mix=resp.sum(axis=(0, 2))[None, None],
        mean=np.einsum("brml,bmd->rld", resp, mu_b)[None, None],
        sq=np.einsum("brml,bm...->rl...", resp, second)[None, None],
    )


def per_pair_reduce(base, config):
    counts = 10_000 * base.n_components * base.weights
    reduced = _init_reduced(base, config, np.random.default_rng(config.seed))
    history, taken = [], []
    for _ in range(config.max_iters):
        pairs = [
            [per_pair_estep(b, r, config.tau_virtual) for r in reduced.components]
            for b in base.components
        ]
        objectives = np.array([[pair[3] for pair in row] for row in pairs])
        z, norms = compute_assignments(objectives, reduced.weights, counts)
        history.append(float(np.sum(norms)))
        if len(history) == config.max_iters:
            break
        stats = joined([
            joined([
                per_pair_virtual_stats(b, *pairs[i][j][:3])
                for i, b in enumerate(base.components)
            ], axis=0)
            for j in range(reduced.n_components)
        ], axis=1)
        # Before the M-step, a component with less than a thousandth of the
        # mass copies a base component, at most twice per run: the n-th rescue
        # of the run the n-th worst by best objective, or the next that no
        # rescue copied. (Synthetic leaves' covariances are above the floor.)
        components = list(reduced.components)
        worst_first = list(np.argsort(objectives.max(axis=1), kind="stable"))
        for j in range(reduced.n_components):
            if counts @ z[:, j] >= 1e-3 * counts.sum() or len(taken) == 2:
                continue
            n = len(taken)
            taken.append(next(i for i in worst_first[n:] + worst_first[:n] if i not in taken))
            components[j] = base.components[taken[-1]]
            for i, b in enumerate(base.components):
                fresh = per_pair_virtual_stats(b, *per_pair_estep(b, components[j],
                                                                  config.tau_virtual)[:3])
                for name in ("pi", "trans", "mix", "mean", "sq"):
                    getattr(stats, name)[i, j] = getattr(fresh, name)[0, 0]
            z[taken[-1]] = 0.0
            z[taken[-1], j] = 1.0
        reduced = mstep(z, stats, counts, H3m(reduced.weights, components), config.cov_floor)
    return history, z, reduced, len(taken)


class TestBatchedEstep:
    """The E-step and statistics over all pairs at once, against the one-pair
    E-step (bit for bit) and against the loop over pairs."""

    @pytest.mark.parametrize(
        "name, cov_type",
        [
            (name, cov_type)
            for name in (
                "unequal-shapes", "zero-transitions", "tau-1", "k_r-equals-k_b", "duplicate-base"
            )
            for cov_type in ("diag", "full")
        ]
        + [("overflowed-expectation", "diag")],
    )
    def test_every_pair_equals_its_one_pair_slice(self, name, cov_type):
        base, reduced, tau = batch_case(name, cov_type)
        base_arrays = _stack(base)
        batch = _estep(base_arrays, _stack(reduced), tau)
        stats = _virtual_stats_all(base_arrays, batch)
        assert batch.objective.shape == (len(base), len(reduced))
        assert np.all(np.isfinite(batch.objective))
        for (i, b), (j, r) in itertools.product(enumerate(base), enumerate(reduced)):
            pair = estep_pair(b, r, tau)
            assert batch.objective[i, j] == pair.objective
            for field in ("eta", "phi_initial", "phi_step", "state_ell"):
                np.testing.assert_array_equal(getattr(batch, field)[i, j], getattr(pair, field))
            # And the loop over pairs computes the same quantities, with each
            # state pair's bound the Hershey-Olsen bound of its two mixtures.
            np.testing.assert_allclose(pair.state_ell, state_bounds(b, r), rtol=1e-12, atol=0)
            eta, phi_initial, phi_step, objective = per_pair_estep(b, r, tau)
            assert pair.objective == pytest.approx(objective, rel=1e-12, abs=0)
            np.testing.assert_allclose(pair.eta, eta, rtol=1e-12, atol=0)
            np.testing.assert_allclose(pair.phi_initial, phi_initial, rtol=1e-12, atol=0)
            np.testing.assert_allclose(pair.phi_step, phi_step, rtol=1e-12, atol=0)
            expected = per_pair_virtual_stats(b, eta, phi_initial, phi_step)
            for field in ("pi", "trans", "mix", "mean", "sq"):
                np.testing.assert_allclose(
                    getattr(stats, field)[i, j], getattr(expected, field)[0, 0], rtol=1e-12, atol=0
                )

    @pytest.mark.parametrize("init", ["subset-perturb", "random"])
    @pytest.mark.parametrize(
        "groups, per_group, k_r, shape",
        [
            (8, 16, 8, dict(n_states=3, n_mix=2, dim=2)),
            (4, 4, 4, dict(n_states=2, n_mix=2, dim=2, cov_type="full")),
        ],
        ids=["diag-128-to-8", "full-16-to-4"],
    )
    def test_reduction_matches_the_loop_over_pairs(self, groups, per_group, k_r, shape, init):
        leaves, _ = synth_benchmark(groups, per_group, 4.0, np.random.default_rng(21), **shape)
        base = H3m(np.full(len(leaves), 1 / len(leaves)), leaves)
        config = VhemConfig(k_reduced=k_r, max_iters=3, tol=0.0, seed=5, init=init)
        result = vhem_reduce(base, config)
        history, z, reduced, rescues = per_pair_reduce(base, config)
        np.testing.assert_allclose(result.bound_history, history, rtol=1e-12, atol=0)
        # z is a probability: within 1e-12 of the row's unit mass.
        np.testing.assert_allclose(result.assignments.z, z, rtol=1e-12, atol=1e-12)
        assert result.rescues == rescues
        np.testing.assert_allclose(result.reduced.weights, reduced.weights, rtol=1e-12, atol=0)
        for got, want in zip(result.reduced.components, reduced.components):
            for field in ("initial", "transitions", "mix_weights", "means", "covs"):
                np.testing.assert_allclose(
                    getattr(got, field), getattr(want, field), rtol=1e-12, atol=0
                )


    @pytest.mark.parametrize("budget", [1, 1 << 30], ids=["one-per-block", "one-block"])
    def test_block_size_invariance(self, monkeypatch, budget):
        leaves, _ = synth_benchmark(4, 6, 4.0, np.random.default_rng(3), n_states=3, n_mix=2)
        base = H3m(np.full(len(leaves), 1 / len(leaves)), leaves)
        config = VhemConfig(k_reduced=4, max_iters=4, tol=0.0, seed=2)
        expected = vhem_reduce(base, config)
        monkeypatch.setattr(hmm_module, "_BLOCK_ELEMENTS", budget)
        blocks = reduction_module._blocks(_stack(leaves), expected.reduced, 10)
        assert len(blocks) == (len(leaves) if budget == 1 else 1)
        result = vhem_reduce(base, config)
        assert result.bound_history == expected.bound_history
        np.testing.assert_array_equal(result.assignments.z, expected.assignments.z)
        for got, want in zip(result.reduced.components, expected.reduced.components):
            for field in ("initial", "transitions", "mix_weights", "means", "covs"):
                np.testing.assert_array_equal(getattr(got, field), getattr(want, field))

    @pytest.mark.parametrize("couplings, calls", [(True, 3), (False, 0)])
    def test_one_softmax_per_coupling_per_block(self, monkeypatch, couplings, calls):
        # The phi recursion keeps every step's scores and normalizers, so a
        # block with couplings takes three softmaxes (eta, phi_initial and
        # phi_step), not one per pair and step; one without takes none.
        rng = np.random.default_rng(4)
        base = _stack([random_hmm(rng, 3, 2, 2) for _ in range(4)])
        reduced = _stack([random_hmm(rng, 3, 2, 2) for _ in range(3)])
        expected = _estep(base, reduced, 10, couplings)
        shapes, softmax = [], reduction_module._responsibilities
        monkeypatch.setattr(
            reduction_module, "_responsibilities",
            lambda table, norm: shapes.append(table.shape) or softmax(table, norm),
        )
        estep = _estep(base, reduced, 10, couplings)
        assert len(shapes) == calls
        for field in ("eta", "phi_initial", "phi_step", "state_ell", "objective"):
            got, want = getattr(estep, field), getattr(expected, field)
            assert (got is None and want is None) or got.tobytes() == want.tobytes()
        if couplings:
            assert estep.phi_step.flags.c_contiguous and estep.phi_initial.flags.c_contiguous

    def test_statistics_memory_does_not_grow_with_tau(self):
        # The occupancy recursion sums over steps as it goes: the statistics
        # pass keeps no per-step array, so its peak is the same at any tau.
        rng = np.random.default_rng(4)
        base = _stack([random_hmm(rng, 3, 2, 2) for _ in range(4)])
        reduced = _stack([random_hmm(rng, 3, 2, 2) for _ in range(3)])
        peaks = []
        for tau in (10, 200):
            estep = _estep(base, reduced, tau)
            tracemalloc.start()
            try:
                _virtual_stats_all(base, estep)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 4096, peaks

    def test_last_possible_estep_builds_no_statistics(self, monkeypatch):
        # As in h3m_em, the last possible E-step has no M-step after it: at
        # max_iters=3 and tol=0, three E-steps over every block, couplings
        # and statistics from the first two only, and two M-steps.
        leaves, _ = synth_benchmark(4, 6, 4.0, np.random.default_rng(3), n_states=3, n_mix=2)
        base = H3m(np.full(len(leaves), 1 / len(leaves)), leaves)
        monkeypatch.setattr(hmm_module, "_BLOCK_ELEMENTS", 1)
        calls = {"couplings": 0, "objectives only": 0, "_virtual_stats_all": 0, "mstep": 0}
        estep, virtual_stats, step = (
            reduction_module._estep, reduction_module._virtual_stats_all, h3m_module.mstep
        )

        def recorded_estep(block, reduced, tau, couplings):
            result = estep(block, reduced, tau, couplings)
            built = [result.eta, result.phi_initial, result.phi_step]
            assert all(a is not None for a in built) if couplings else built == [None] * 3
            calls["couplings" if couplings else "objectives only"] += 1
            return result

        def counted(name, original):
            def call(*args):
                calls[name] += 1
                return original(*args)
            return call

        monkeypatch.setattr(reduction_module, "_estep", recorded_estep)
        monkeypatch.setattr(
            reduction_module, "_virtual_stats_all", counted("_virtual_stats_all", virtual_stats)
        )
        monkeypatch.setattr(h3m_module, "mstep", counted("mstep", step))
        result = vhem_reduce(base, VhemConfig(k_reduced=4, max_iters=3, tol=0.0, seed=2))
        n_blocks = len(leaves)  # one base component per block
        assert len(result.bound_history) == 3 and result.rescues == 0
        assert calls == {
            "couplings": 2 * n_blocks, "objectives only": n_blocks,
            "_virtual_stats_all": 2 * n_blocks, "mstep": 2,
        }

    def test_one_block_of_couplings_alive_at_a_time(self, monkeypatch):
        # Each block's statistics are built before the next block is scored, so
        # the block budget bounds phi, the largest array of an iteration.
        leaves, _ = synth_benchmark(4, 6, 4.0, np.random.default_rng(3), n_states=3, n_mix=2)
        base = H3m(np.full(len(leaves), 1 / len(leaves)), leaves)
        monkeypatch.setattr(hmm_module, "_BLOCK_ELEMENTS", 1)
        estep, results, alive = reduction_module._estep, [], []

        def tracked(*args):
            gc.collect()
            alive.append(sum(ref() is not None for ref in results))
            result = estep(*args)
            results.append(weakref.ref(result))
            return result

        monkeypatch.setattr(reduction_module, "_estep", tracked)
        vhem_reduce(base, VhemConfig(k_reduced=4, max_iters=4, tol=0.0, seed=2))
        assert len(alive) == 4 * len(leaves)  # one block per leaf, four E-steps
        assert max(alive) <= 1


class TestVirtualSampleOracle:
    """One VHEM M-step against pooled draws from the base components
    (Vasconcelos & Lippman 1999). With one reduced state and one reduced
    emission component, phi and eta are trivial and z is 1, so the pair bound
    is exact: the re-estimated mean and second moment are the expectations of
    y and y y^T over the frames of virtual sequences, base component i
    contributing in proportion to its weight."""

    @pytest.mark.parametrize("cov_type", ["diag", "full"])
    def test_one_mstep_matches_pooled_draws(self, cov_type):
        rng = np.random.default_rng(2024)
        d, tau, n = 2, 6, 20_000
        weights = np.array([0.5, 0.3, 0.2])  # n * weights are whole numbers
        # Left-to-right chains: the state occupancy moves over the steps, so
        # every step of the occupancy recursion shows in the moments.
        base = H3m(weights, [
            with_zero_transitions(random_hmm(rng, 3, 2, d, cov_type, mean_scale=3.0))
            for _ in weights
        ])
        cov = np.ones(d) if cov_type == "diag" else np.eye(d)
        start = H3m([1.0], [
            Hmm([1.0], [[1.0]], [[1.0]], [[np.zeros(d)]], [[cov]])
        ])
        config = VhemConfig(k_reduced=1, init=start, tau_virtual=tau, max_iters=2, tol=0.0)
        reduced = vhem_reduce(base, config).reduced.components[0]
        mean, cov_r = reduced.means[0, 0], reduced.covs[0, 0]
        second = cov_r + (mean * mean if cov_type == "diag" else np.outer(mean, mean))
        expected = np.concatenate([mean, second.ravel()])

        # Stratified draws: n * w_i sequences of length tau from component i.
        # Frames within a sequence are dependent, so each sequence's frame
        # average is one observation of its stratum.
        estimate, variance = 0.0, 0.0
        for w, component in zip(weights, base.components):
            n_i = int(round(n * w))
            obs, _ = sample_batch(component, tau, n_i, rng)
            outer = obs * obs if cov_type == "diag" else obs[..., :, None] * obs[..., None, :]
            frames = np.concatenate([obs, outer.reshape(n_i, tau, -1)], axis=2)
            per_sequence = frames.mean(axis=1)
            estimate = estimate + w * per_sequence.mean(axis=0)
            variance = variance + w**2 * per_sequence.var(axis=0, ddof=1) / n_i
        z_scores = np.abs(expected - estimate) / np.sqrt(variance)
        assert np.all(z_scores < 4.0), z_scores


class TestSeededDrawOrder:
    """Seeded initializations against an explicit per-(state, component)
    draw loop, so that a rewrite cannot change seeded results silently."""

    def test_perturb_means(self, rng):
        base = H3m(np.full(4, 0.25), [random_hmm(rng, 3, 2, 2) for _ in range(4)])
        reduced = _init_reduced(base, VhemConfig(k_reduced=2), np.random.default_rng(1))
        draws = np.random.default_rng(1)
        chosen = draws.choice(4, size=2, replace=False, p=base.weights)
        for out, hmm in zip(reduced.components, [base.components[i] for i in chosen]):
            # One draw per (state, component), state-major.
            for mean, base_mean in zip(out.means.reshape(-1, 2), hmm.means.reshape(-1, 2)):
                expected = base_mean * (1.0 + draws.uniform(-0.01, 0.01, size=2))
                np.testing.assert_array_equal(mean, expected)
            np.testing.assert_array_equal(out.covs, hmm.covs)

    @pytest.mark.parametrize("cov_type", ["diag", "full"])
    def test_random_init(self, rng, cov_type):
        base = H3m(
            np.full(3, 1 / 3),
            [random_hmm(rng, n_states=2, n_mix=2, dim=2, cov_type=cov_type) for _ in range(3)],
        )
        config = VhemConfig(k_reduced=2, init="random")
        reduced = _init_reduced(base, config, np.random.default_rng(7))
        # Every emission component of every base component, in order.
        pool_means = base.arrays.means.reshape(-1, 2)
        cov_avg = np.mean(base.arrays.covs.reshape((-1,) + base.arrays.covs.shape[3:]), axis=0)
        draws = np.random.default_rng(7)
        for hmm in reduced.components:
            np.testing.assert_array_equal(hmm.initial, draws.dirichlet(np.ones(2)))
            for row in hmm.transitions:
                np.testing.assert_array_equal(row, draws.dirichlet(np.ones(2)))
            for weights, means, covs in zip(hmm.mix_weights, hmm.means, hmm.covs):
                np.testing.assert_array_equal(weights, draws.dirichlet(np.full(2, 5.0)))
                for mean, cov in zip(means, covs):
                    pooled = pool_means[draws.integers(len(pool_means))]
                    expected = pooled * (1.0 + draws.uniform(-0.1, 0.1, size=2))
                    np.testing.assert_array_equal(mean, expected)
                    np.testing.assert_array_equal(cov, cov_avg)
