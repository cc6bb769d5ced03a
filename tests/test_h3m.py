"""Mixture-of-HMMs EM estimation and the Monte Carlo expected-log-likelihood
oracle."""

import math

import numpy as np
import pytest

import h3mkit.h3m as h3m_module
import h3mkit.hmm as hmm_module
from h3mkit import (
    EmConfig,
    EstimationError,
    Gaussian,
    GaussianMixture,
    H3m,
    Hmm,
    InvalidModelError,
    Sequence,
    baum_welch,
    best_label_accuracy,
    forward_loglik,
    h3m_em,
    mc_expected_loglik,
    sample_batch,
    synth_benchmark,
)

from conftest import random_hmm

STD_NORMAL_SELF = -(1.0 + math.log(2.0 * math.pi)) / 2.0


def std_normal_hmm(mean=0.0):
    return Hmm([1.0], [[1.0]], [GaussianMixture([1.0], [Gaussian([mean], [1.0])])])


class TestH3mModel:
    def test_mixed_covariance_layouts_rejected(self):
        diag = std_normal_hmm()
        full = Hmm([1.0], [[1.0]], [GaussianMixture([1.0], [Gaussian([0.0], [[1.0]])])])
        with pytest.raises(InvalidModelError, match=r"component 1 .*full.*expected .*diagonal"):
            H3m([0.5, 0.5], [diag, full])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(InvalidModelError, match="mixture weights sums to"):
            H3m([bad, 1.0], [std_normal_hmm(), std_normal_hmm(1.0)])


class TestH3mEm:
    def test_two_population_separation(self, rng):
        dataset, labels = synth_benchmark(
            2, 40, 10.0, rng, n_states=2, n_mix=1, dim=1, tau=20, kind="sequences"
        )
        fit = h3m_em(dataset.sequences, 2, 2, 1, EmConfig(), np.random.default_rng(0))
        acc = best_label_accuracy(list(labels), list(fit.hard_labels))
        assert acc >= 0.95

    def test_k1_identical_to_baum_welch(self, rng):
        model = random_hmm(rng, n_states=2, n_mix=1, mean_scale=3.0)
        data = [Sequence(sample_batch(model, 12, 1, rng)[0][0]) for _ in range(25)]
        bw = baum_welch(data, 2, 1, EmConfig(max_iters=15), np.random.default_rng(7))
        em = h3m_em(data, 1, 2, 1, EmConfig(max_iters=15), np.random.default_rng(7))
        assert bw.loglik_trace == em.loglik_trace
        np.testing.assert_array_equal(bw.model.initial, em.model.components[0].initial)
        np.testing.assert_array_equal(bw.model.transitions, em.model.components[0].transitions)
        for g1, g2 in zip(bw.model.emissions, em.model.components[0].emissions):
            np.testing.assert_array_equal(g1.weights, g2.weights)
            for c1, c2 in zip(g1.components, g2.components):
                np.testing.assert_array_equal(c1.mean, c2.mean)
                np.testing.assert_array_equal(c1.cov, c2.cov)

    def test_k1_multi_start_matches_baum_welch(self, rng):
        model = random_hmm(rng, n_states=2, n_mix=1, mean_scale=3.0)
        data = [Sequence(sample_batch(model, 10, 1, rng)[0][0]) for _ in range(20)]
        config = EmConfig(max_iters=8, n_starts=3)
        bw = baum_welch(data, 2, 1, config, np.random.default_rng(11))
        em = h3m_em(data, 1, 2, 1, config, np.random.default_rng(11))
        assert bw.loglik_trace == em.loglik_trace

    def test_multi_start_never_worse(self, rng):
        dataset, _ = synth_benchmark(
            2, 20, 8.0, rng, n_states=2, n_mix=1, dim=1, tau=12, kind="sequences"
        )
        single = h3m_em(
            dataset.sequences, 2, 2, 1, EmConfig(max_iters=20),
            np.random.default_rng(3).spawn(4)[0],
        )
        multi = h3m_em(
            dataset.sequences, 2, 2, 1, EmConfig(max_iters=20, n_starts=4),
            np.random.default_rng(3),
        )
        assert multi.loglik_trace[-1] >= single.loglik_trace[-1] - 1e-9

    def test_trace_monotone(self, rng):
        dataset, _ = synth_benchmark(
            2, 20, 6.0, rng, n_states=2, n_mix=1, dim=1, tau=15, kind="sequences"
        )
        fit = h3m_em(dataset.sequences, 2, 2, 1, EmConfig(max_iters=25), np.random.default_rng(1))
        trace = np.array(fit.loglik_trace)
        assert np.all(np.diff(trace) >= -1e-8 * np.abs(trace[:-1]))

    def test_posterior_rows_stochastic(self, rng):
        dataset, _ = synth_benchmark(
            2, 15, 6.0, rng, n_states=2, n_mix=1, dim=1, tau=10, kind="sequences"
        )
        fit = h3m_em(dataset.sequences, 2, 2, 1, EmConfig(max_iters=10), np.random.default_rng(2))
        np.testing.assert_allclose(fit.posteriors.sum(axis=1), 1.0, atol=1e-12)

    def test_too_few_sequences_rejected(self, rng):
        data = [Sequence(rng.normal(size=(5, 1)))]
        with pytest.raises(EstimationError):
            h3m_em(data, 2, 1, 1, EmConfig(), np.random.default_rng(0))

    def test_reseeds_bounded(self, rng):
        # Overprovisioned k on a 2-population dataset may starve a component;
        # the run must still finish with at most 2 rescues.
        dataset, _ = synth_benchmark(
            2, 15, 8.0, rng, n_states=1, n_mix=1, dim=1, tau=10, kind="sequences"
        )
        fit = h3m_em(dataset.sequences, 3, 1, 1, EmConfig(max_iters=15), np.random.default_rng(3))
        assert 0 <= fit.reseeds <= 2
        assert fit.model.weights.sum() == pytest.approx(1.0, abs=1e-12)


    def test_one_pass_per_component_per_estep(self, monkeypatch):
        calls = {"stats": 0, "forward": 0}
        expected_stats = hmm_module._expected_stats
        forward_batch = hmm_module.forward_loglik_batch

        def counted_stats(*args):
            calls["stats"] += 1
            return expected_stats(*args)

        def counted_forward(*args):
            calls["forward"] += 1
            return forward_batch(*args)

        monkeypatch.setattr(h3m_module, "_expected_stats", counted_stats)
        monkeypatch.setattr(h3m_module, "forward_loglik_batch", counted_forward)
        monkeypatch.setattr(hmm_module, "forward_loglik_batch", counted_forward)
        # Three components on two populations: this seed starves and reseeds.
        dataset, _ = synth_benchmark(
            2, 15, 8.0, np.random.default_rng(0), n_states=1, n_mix=1, dim=1, tau=10,
            kind="sequences",
        )
        fit = h3m_em(dataset.sequences, 3, 1, 1, EmConfig(max_iters=15), np.random.default_rng(3))
        assert fit.reseeds > 0
        assert calls["forward"] == 0
        assert calls["stats"] == 3 * len(fit.loglik_trace) + fit.reseeds

    def test_last_possible_estep_runs_forward_only(self, monkeypatch):
        calls = {"stats": 0, "forward": 0}
        expected_stats = hmm_module._expected_stats
        forward_batch = hmm_module.forward_loglik_batch

        def counted_stats(*args):
            calls["stats"] += 1
            return expected_stats(*args)

        def counted_forward(*args):
            calls["forward"] += 1
            return forward_batch(*args)

        monkeypatch.setattr(h3m_module, "_expected_stats", counted_stats)
        monkeypatch.setattr(h3m_module, "forward_loglik_batch", counted_forward)
        dataset, _ = synth_benchmark(
            2, 15, 8.0, np.random.default_rng(0), n_states=1, n_mix=1, dim=1, tau=10,
            kind="sequences",
        )
        # Three lengths, interleaved: three batches per pass. This seed reseeds twice.
        data = [Sequence(s.observations[: 6 + i % 3]) for i, s in enumerate(dataset.sequences)]
        max_iters, n_groups = 8, 3
        config = EmConfig(max_iters=max_iters, tol=0.0)
        fit = h3m_em(data, 3, 1, 1, config, np.random.default_rng(4))
        assert len(fit.loglik_trace) == max_iters + 1
        assert fit.reseeds == 2
        assert calls["stats"] == (3 * max_iters + fit.reseeds) * n_groups
        assert calls["forward"] == 3 * n_groups
        # The forward-only pass fills the posteriors in sequence order.
        lls = np.array([[forward_loglik(c, seq) for c in fit.model.components] for seq in data])
        log_joint = np.log(fit.model.weights)[None, :] + lls
        expected = np.exp(log_joint - np.logaddexp.reduce(log_joint, axis=1, keepdims=True))
        np.testing.assert_allclose(fit.posteriors, expected, rtol=0, atol=1e-10)

    def test_posteriors_follow_sequence_order_across_lengths(self, rng):
        # Sequences of three lengths, interleaved: each length is one batch.
        model = random_hmm(rng, n_states=2, n_mix=1, mean_scale=3.0)
        data = [Sequence(sample_batch(model, 6 + i % 3, 1, rng)[0][0]) for i in range(24)]
        fit = h3m_em(data, 2, 2, 1, EmConfig(max_iters=5), np.random.default_rng(0))
        lls = np.array([[forward_loglik(c, seq) for c in fit.model.components] for seq in data])
        log_joint = np.log(fit.model.weights)[None, :] + lls
        expected = np.exp(log_joint - np.logaddexp.reduce(log_joint, axis=1, keepdims=True))
        np.testing.assert_allclose(fit.posteriors, expected, rtol=0, atol=1e-10)


class TestMcExpectedLoglik:
    def test_standard_normal_identity(self, rng):
        hmm = std_normal_hmm()
        mean, stderr = mc_expected_loglik(hmm, hmm, 10, 100_000, rng)
        assert abs(mean - 10 * STD_NORMAL_SELF) < 3 * stderr

    def test_stderr_scaling(self, rng):
        base = random_hmm(rng, n_states=2, n_mix=1)
        reduced = random_hmm(rng, n_states=2, n_mix=1)
        _, se_small = mc_expected_loglik(base, reduced, 5, 20_000, np.random.default_rng(0))
        _, se_large = mc_expected_loglik(base, reduced, 5, 80_000, np.random.default_rng(1))
        assert se_small / se_large == pytest.approx(2.0, rel=0.2)

    def test_self_beats_other(self, rng):
        # Sequence-level Gibbs inequality, checked statistically.
        for _ in range(5):
            base = random_hmm(rng, n_states=2, n_mix=1)
            other = random_hmm(rng, n_states=2, n_mix=1)
            m_self, se_self = mc_expected_loglik(base, base, 5, 20_000, rng)
            m_other, se_other = mc_expected_loglik(base, other, 5, 20_000, rng)
            assert m_other <= m_self + 3 * (se_self + se_other)

    def test_requires_two_samples(self, rng):
        hmm = std_normal_hmm()
        with pytest.raises(ValueError):
            mc_expected_loglik(hmm, hmm, 5, 1, rng)
