"""HMM likelihood against exhaustive enumeration, sampling statistics, state
marginals, and Baum-Welch behavior. The enumeration oracle below scores
emissions through scipy.stats so it shares no density code with the library."""

import itertools
import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from h3mkit import (
    EmConfig,
    EstimationError,
    Gaussian,
    GaussianMixture,
    Hmm,
    InvalidModelError,
    Sequence,
    baum_welch,
    forward_loglik,
    forward_loglik_batch,
    sample_batch,
    state_marginals,
)
from h3mkit.gaussians import logsumexp
from h3mkit.hmm import _expected_stats, _mstep, _Stats

from conftest import align_means, random_hmm


def enumeration_loglik(model: Hmm, obs: np.ndarray) -> float:
    """Brute-force log p(obs) as a sum over all hidden state sequences,
    with emission densities from scipy."""
    tau = obs.shape[0]
    n = model.n_states

    def emission_density(t, state):
        gmm = model.emissions[state]
        total = 0.0
        for w, comp in zip(gmm.weights, gmm.components):
            cov = np.diag(comp.cov) if comp.cov.ndim == 1 else comp.cov
            total += w * multivariate_normal.pdf(obs[t], mean=comp.mean, cov=cov)
        return total

    total = 0.0
    for path in itertools.product(range(n), repeat=tau):
        prob = model.initial[path[0]] * emission_density(0, path[0])
        for t in range(1, tau):
            prob *= model.transitions[path[t - 1], path[t]] * emission_density(t, path[t])
        total += prob
    return math.log(total)


class TestForward:
    def test_single_state_single_component(self, rng):
        g = Gaussian([0.5], [2.0])
        model = Hmm([1.0], [[1.0]], [GaussianMixture([1.0], [g])])
        obs = rng.normal(size=(6, 1))
        expected = float(np.sum(multivariate_normal.logpdf(obs, mean=g.mean, cov=np.diag(g.cov))))
        assert forward_loglik(model, Sequence(obs)) == pytest.approx(expected, abs=1e-12)

    def test_length_one_marginal(self, rng):
        model = random_hmm(rng, n_states=3, n_mix=2)
        y = rng.normal(size=(1, 1))
        per_state = np.array([
            logsumexp([math.log(w) + multivariate_normal.logpdf(y[0], c.mean, np.diag(c.cov))
                       for w, c in zip(gmm.weights, gmm.components)])
            for gmm in model.emissions
        ])
        expected = float(np.log(np.sum(model.initial * np.exp(per_state))))
        assert forward_loglik(model, Sequence(y)) == pytest.approx(expected, abs=1e-10)

    def test_matches_enumeration_2_states(self, rng):
        model = random_hmm(rng, n_states=2, n_mix=1, dim=1)
        obs, _ = sample_batch(model, 4, 1, rng)
        expected = enumeration_loglik(model, obs[0])
        assert forward_loglik(model, Sequence(obs[0])) == pytest.approx(expected, abs=1e-9)

    def test_matches_enumeration_property(self, rng):
        # All shapes with N^tau <= 10^4; full covariances in d=3 as well.
        cases = [(2, 6, 2, "diag"), (3, 5, 2, "diag"), (4, 4, 2, "diag"), (10, 4, 2, "diag"),
                 (2, 6, 3, "full"), (3, 5, 3, "full"), (4, 4, 3, "full")]
        for n_states, tau, dim, cov_type in cases:
            model = random_hmm(rng, n_states=n_states, n_mix=2, dim=dim, cov_type=cov_type)
            obs, _ = sample_batch(model, tau, 1, rng)
            expected = enumeration_loglik(model, obs[0])
            assert forward_loglik(model, Sequence(obs[0])) == pytest.approx(expected, abs=1e-9)

    def test_batch_matches_scalar(self, rng):
        model = random_hmm(rng, n_states=3, n_mix=2, dim=2)
        obs, _ = sample_batch(model, 7, 5, rng)
        batch = forward_loglik_batch(model, obs)
        singles = [forward_loglik(model, Sequence(o)) for o in obs]
        np.testing.assert_allclose(batch, singles, atol=1e-12)

    def test_batch_equals_expected_stats_logliks(self, rng):
        # Both come from the same forward recursion, so they agree bit for bit.
        for cov_type in ("diag", "full"):
            model = random_hmm(rng, n_states=3, n_mix=2, dim=2, cov_type=cov_type)
            obs, _ = sample_batch(model, 9, 6, rng)
            _, lls = _expected_stats(model, obs)
            np.testing.assert_array_equal(forward_loglik_batch(model, obs), lls)

    def test_dimension_mismatch(self, rng):
        model = random_hmm(rng, dim=2)
        with pytest.raises(InvalidModelError):
            forward_loglik(model, Sequence(np.zeros((3, 1))))

    def test_empty_sequence_rejected(self):
        with pytest.raises(InvalidModelError):
            Sequence(np.zeros((0, 1)))


class TestConstruction:
    @pytest.mark.parametrize("cov_type", ["diag", "full"])
    def test_stacked_arrays_round_trip(self, rng, cov_type):
        model = random_hmm(rng, n_states=3, n_mix=2, dim=2, cov_type=cov_type)
        assert model.mix_weights.shape == (3, 2)
        assert model.means.shape == (3, 2, 2)
        assert model.covs.shape == ((3, 2, 2) if cov_type == "diag" else (3, 2, 2, 2))
        for state, gmm in enumerate(model.emissions):
            np.testing.assert_array_equal(model.mix_weights[state], gmm.weights)
            for comp, g in enumerate(gmm.components):
                np.testing.assert_array_equal(model.means[state, comp], g.mean)
                np.testing.assert_array_equal(model.covs[state, comp], g.cov)
        rebuilt = Hmm.from_arrays(
            model.initial, model.transitions, model.mix_weights, model.means, model.covs
        )
        for name in ("initial", "transitions", "mix_weights", "means", "covs"):
            np.testing.assert_array_equal(getattr(rebuilt, name), getattr(model, name))

    def test_mixed_covariance_layouts_rejected(self):
        diag = GaussianMixture([1.0], [Gaussian([0.0, 0.0], [1.0, 1.0])])
        full = GaussianMixture([1.0], [Gaussian([0.0, 0.0], np.eye(2))])
        with pytest.raises(InvalidModelError, match=r"state 1 .*full.*expected .*diagonal"):
            Hmm([0.5, 0.5], np.full((2, 2), 0.5), [diag, full])

    def test_first_bad_transition_row_named(self):
        emissions = [GaussianMixture([1.0], [Gaussian([0.0], [1.0])])] * 3
        transitions = np.array([[1.0, 0.0, 0.0], [0.5, 0.6, -0.1], [0.2, 0.2, 0.2]])
        with pytest.raises(InvalidModelError, match="transition row 1 has negative"):
            Hmm([1.0, 0.0, 0.0], transitions, emissions)


class TestMstep:
    def one_component_stats(self, mean, sq):
        return _Stats(
            pi=np.ones(1), trans=np.ones((1, 1)), mix=np.ones((1, 1)),
            mean=np.array(mean, dtype=float)[None, None],
            sq=np.array(sq, dtype=float)[None, None],
        )

    def test_near_singular_full_covariance_nudged(self):
        # Mean [1, 1] and second moment [[2, 2], [2, 2]] leave the singular
        # covariance [[1, 1], [1, 1]]; the floor does not bind on its
        # diagonal, so only the nudge by floor * I makes it usable.
        floor = 1e-3
        previous = Hmm.from_arrays([1.0], [[1.0]], [[1.0]], np.zeros((1, 1, 2)), [[np.eye(2)]])
        stats = self.one_component_stats([1.0, 1.0], [[2.0, 2.0], [2.0, 2.0]])
        new = _mstep(stats, previous, floor)
        np.testing.assert_array_equal(new.means[0, 0], [1.0, 1.0])
        np.testing.assert_array_equal(new.covs[0, 0], [[1.0 + floor, 1.0], [1.0, 1.0 + floor]])

    def test_diagonal_floor_binds(self):
        floor = 1e-3
        previous = Hmm.from_arrays([1.0], [[1.0]], [[1.0]], np.zeros((1, 1, 2)), np.ones((1, 1, 2)))
        new = _mstep(self.one_component_stats([1.0, 2.0], [1.5, 4.0]), previous, floor)
        np.testing.assert_array_equal(new.covs[0, 0], [0.5, floor])


class TestStateMarginals:
    def test_first_row_is_initial(self, rng):
        model = random_hmm(rng, n_states=3)
        np.testing.assert_allclose(state_marginals(model, 5)[0], model.initial)

    def test_doubly_stochastic_stays_uniform(self):
        model = Hmm(
            [0.5, 0.5],
            [[0.3, 0.7], [0.7, 0.3]],
            [
                GaussianMixture([1.0], [Gaussian([0.0], [1.0])]),
                GaussianMixture([1.0], [Gaussian([1.0], [1.0])]),
            ],
        )
        marg = state_marginals(model, 6)
        np.testing.assert_allclose(marg, 0.5 * np.ones((6, 2)), atol=1e-12)

    def test_alternating_chain(self):
        model = Hmm(
            [1.0, 0.0],
            [[0.0, 1.0], [1.0, 0.0]],
            [
                GaussianMixture([1.0], [Gaussian([0.0], [1.0])]),
                GaussianMixture([1.0], [Gaussian([1.0], [1.0])]),
            ],
        )
        marg = state_marginals(model, 3)
        np.testing.assert_allclose(marg[2], [1.0, 0.0], atol=1e-15)

    def test_rows_sum_to_one(self, rng):
        model = random_hmm(rng, n_states=4)
        np.testing.assert_allclose(state_marginals(model, 10).sum(axis=1), 1.0, atol=1e-12)


class TestSample:
    def test_degenerate_model_deterministic_path(self, rng):
        model = Hmm(
            [1.0, 0.0],
            [[0.0, 1.0], [1.0, 0.0]],
            [
                GaussianMixture([1.0], [Gaussian([0.0], [1.0])]),
                GaussianMixture([1.0], [Gaussian([5.0], [1.0])]),
            ],
        )
        _, states = sample_batch(model, 6, 1, rng)
        np.testing.assert_array_equal(states[0], [0, 1, 0, 1, 0, 1])

    def test_initial_state_frequencies(self, rng):
        model = random_hmm(rng, n_states=3)
        _, states = sample_batch(model, 2, 100_000, rng)
        for s in range(3):
            p = model.initial[s]
            freq = np.mean(states[:, 0] == s)
            sigma = math.sqrt(p * (1 - p) / 100_000)
            assert abs(freq - p) < 3 * sigma + 1e-9

    def test_seed_determinism(self, rng):
        model = random_hmm(rng, n_states=2, n_mix=2, dim=2)
        obs_a, states_a = sample_batch(model, 10, 1, np.random.default_rng(99))
        obs_b, states_b = sample_batch(model, 10, 1, np.random.default_rng(99))
        np.testing.assert_array_equal(obs_a, obs_b)
        np.testing.assert_array_equal(states_a, states_b)

    def test_full_cov_sampling_moments(self, rng):
        cov = np.array([[2.0, 0.8], [0.8, 1.0]])
        model = Hmm(
            [1.0],
            [[1.0]],
            [GaussianMixture([1.0], [Gaussian([1.0, -1.0], cov)])],
        )
        obs, _ = sample_batch(model, 1, 200_000, rng)
        flat = obs[:, 0, :]
        np.testing.assert_allclose(flat.mean(axis=0), [1.0, -1.0], atol=0.02)
        np.testing.assert_allclose(np.cov(flat.T), cov, atol=0.03)


class TestBaumWelch:
    def test_two_state_recovery(self, rng):
        truth = Hmm(
            [0.5, 0.5],
            [[0.8, 0.2], [0.2, 0.8]],
            [
                GaussianMixture([1.0], [Gaussian([-5.0], [1.0])]),
                GaussianMixture([1.0], [Gaussian([5.0], [1.0])]),
            ],
        )
        data = [Sequence(sample_batch(truth, 20, 1, rng)[0][0]) for _ in range(200)]
        fit = baum_welch(data, 2, 1, EmConfig(), np.random.default_rng(0))
        aligned = align_means(truth, fit.model)
        truth_means = np.array([[[-5.0]], [[5.0]]])
        assert np.max(np.abs(aligned - truth_means)) < 0.2

    def test_single_state_closed_form(self, rng):
        data = [Sequence(rng.normal(2.0, 1.5, size=(30, 1))) for _ in range(5)]
        fit = baum_welch(data, 1, 1, EmConfig(max_iters=3), np.random.default_rng(0))
        pooled = np.concatenate([s.observations for s in data])
        comp = fit.model.emissions[0].components[0]
        assert comp.mean[0] == pytest.approx(pooled.mean(), abs=1e-9)
        assert comp.cov[0] == pytest.approx(pooled.var(), abs=1e-9)

    def test_trace_monotone(self, rng):
        model = random_hmm(rng, n_states=2, n_mix=2, dim=2, mean_scale=3.0)
        data = [Sequence(sample_batch(model, 15, 1, rng)[0][0]) for _ in range(40)]
        fit = baum_welch(data, 2, 2, EmConfig(max_iters=30), np.random.default_rng(1))
        trace = np.array(fit.loglik_trace)
        deltas = np.diff(trace)
        assert np.all(deltas >= -1e-8 * np.abs(trace[:-1]))

    def test_degenerate_data_rejected(self):
        data = [Sequence(np.zeros((10, 1)))]
        with pytest.raises(EstimationError):
            baum_welch(data, 2, 2, EmConfig(), np.random.default_rng(0))

    def test_rows_stochastic_after_fit(self, rng):
        model = random_hmm(rng, n_states=3, n_mix=2, dim=1, mean_scale=3.0)
        data = [Sequence(sample_batch(model, 12, 1, rng)[0][0]) for _ in range(30)]
        fit = baum_welch(data, 3, 2, EmConfig(max_iters=10), np.random.default_rng(2))
        m = fit.model
        assert m.initial.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(m.transitions.sum(axis=1), 1.0, atol=1e-12)
        for gmm in m.emissions:
            assert gmm.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_one_state_round_trip_mean(self, rng):
        truth = Hmm(
            [1.0], [[1.0]], [GaussianMixture([1.0], [Gaussian([3.0], [4.0])])]
        )
        data = [Sequence(sample_batch(truth, 100, 1, rng)[0][0]) for _ in range(100)]
        fit = baum_welch(data, 1, 1, EmConfig(max_iters=5), np.random.default_rng(3))
        n_obs = 100 * 100
        stderr = math.sqrt(4.0 / n_obs)
        assert abs(fit.model.emissions[0].components[0].mean[0] - 3.0) < 3 * stderr

    def test_full_covariance_fit(self, rng):
        cov = np.array([[1.5, 0.6], [0.6, 1.0]])
        truth = Hmm(
            [1.0], [[1.0]], [GaussianMixture([1.0], [Gaussian([0.0, 0.0], cov)])]
        )
        data = [Sequence(sample_batch(truth, 50, 1, rng)[0][0]) for _ in range(50)]
        fit = baum_welch(
            data, 1, 1, EmConfig(max_iters=5, cov_type="full"), np.random.default_rng(4)
        )
        fitted = fit.model.emissions[0].components[0].cov
        assert fitted.shape == (2, 2)
        np.testing.assert_allclose(fitted, cov, atol=0.15)
