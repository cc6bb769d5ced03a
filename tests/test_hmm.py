"""HMM likelihood against exhaustive enumeration, the scaled pass against
the log-domain pass it falls back to, sampling statistics, state marginals,
the k-means start against the masked-mean Lloyd loop, and Baum-Welch
behavior. The enumeration oracle below scores emissions through scipy so it
shares no density code with the library."""

import dataclasses
import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp
from scipy.stats import multivariate_normal, norm

from h3mkit import (
    EmConfig,
    EstimationError,
    H3m,
    Hmm,
    InvalidModelError,
    ModelFormatError,
    Sequence,
    VhemConfig,
    baum_welch,
    forward_loglik_batch,
    h3m_em,
    load_model,
    sample_batch,
    save_model,
    vhem_reduce,
)
from h3mkit import hmm as hmm_module
from h3mkit.gaussians import _mixture_terms, logsumexp
from h3mkit.hmm import _expected_stats, _kmeans, _mstep, _stack, _Stats

from conftest import align_means, random_hmm, state_marginals


def enumeration_loglik(model: Hmm, obs: np.ndarray) -> float:
    """Brute-force log p(obs) as a log-sum over all hidden state sequences,
    with emission densities from scipy."""
    tau = obs.shape[0]
    with np.errstate(divide="ignore"):
        log_pi, log_a = np.log(model.initial), np.log(model.transitions)
    log_b = np.empty((tau, model.n_states))
    for t, state in itertools.product(range(tau), range(model.n_states)):
        log_b[t, state] = scipy_logsumexp([
            math.log(w) + multivariate_normal.logpdf(
                obs[t], mean=mean, cov=np.diag(cov) if cov.ndim == 1 else cov)
            for w, mean, cov in zip(
                model.mix_weights[state], model.means[state], model.covs[state])
        ])
    paths = [
        log_pi[path[0]] + log_b[0, path[0]] + sum(
            log_a[path[t - 1], path[t]] + log_b[t, path[t]] for t in range(1, tau))
        for path in itertools.product(range(model.n_states), repeat=tau)
    ]
    return float(scipy_logsumexp(paths))


def masked_mean_kmeans(points: np.ndarray, k: int, rng) -> np.ndarray:
    """Reference Lloyd loop: a (P, k, d) difference array, ``argmin`` and
    one mask per center; the same seed draw, stopping rule and sorted output
    as ``hmm._kmeans``."""
    ordered = points[np.lexsort(points.T[::-1])]
    unique = ordered[np.r_[True, np.any(ordered[1:] != ordered[:-1], axis=1)]]
    centers = unique[rng.choice(unique.shape[0], size=k, replace=False)]
    for _ in range(25):
        assign = np.argmin(np.sum((points[:, None, :] - centers[None]) ** 2, axis=2), axis=1)
        new_centers = centers.copy()
        for j in range(k):
            mask = assign == j
            if np.any(mask):
                new_centers[j] = points[mask].mean(axis=0)
        converged = np.array_equal(new_centers, centers)
        centers = new_centers
        if converged:
            break
    return centers[np.lexsort(centers.T[::-1])]


class FixedStart:
    """Stands in for the generator of a k-means start: ``choice`` returns the
    given indices into the sorted distinct points."""

    def __init__(self, indices):
        self.indices = np.array(indices)

    def choice(self, n, size, replace):
        return self.indices


def underflow_model(cov_type="diag"):
    """Two states in d=1: state 1 is unreachable at t=0 and lies 40 standard
    deviations from state 0. An observation at 40 in the first step has
    density exp(-800) under state 0 relative to state 1, so the first scale
    factor of the probability-domain recursion underflows to 0."""
    covs = np.ones((2, 1, 1)) if cov_type == "diag" else np.ones((2, 1, 1, 1))
    return Hmm(
        [1.0, 0.0], np.full((2, 2), 0.5), np.ones((2, 1)), np.array([[[0.0]], [[40.0]]]), covs
    )


def two_chain_model(initial):
    """Identity transitions: every path stays in its first state, so the
    likelihood is a two-term mixture over whole-sequence densities."""
    return Hmm(
        initial, np.eye(2), np.ones((2, 1)), np.array([[[0.0]], [[10.0]]]), np.ones((2, 1, 1))
    )


def one_row_pass(model, obs):
    """``_expected_stats`` of a one-row stack, with the row axis dropped."""
    stats, lls = _expected_stats(_stack([model]), [obs], True)
    return _Stats(*(value[:, 0] for value in vars(stats).values())), lls[:, 0]


def one_row_mstep(stats, previous, cov_floor):
    """``_mstep`` of one model's totals on a one-row stack, as an Hmm."""
    totals = _Stats(*(value[None] for value in vars(stats).values()))
    return Hmm(*(row[0] for row in _mstep(totals, _stack([previous]), cov_floor)))


def log_emissions(models, obs):
    """Per-component log weights + densities (K, S, tau, N, M) and log
    emission densities (K, S, tau, N) of every observation, a point, in
    every state of a stack, as the data-side pass builds them."""
    return _mixture_terms(
        models.mix_weights[:, None, None], obs[None, :, :, None, None], None,
        models.means[:, None, None], models.covs[:, None, None],
    )


def log_domain_pass(model, obs):
    """Per-sequence statistics and log-likelihoods from the log-domain
    forward-backward pass that the scaled pass falls back to."""
    models = _stack([model])
    log_joint, log_b = (a[0] for a in log_emissions(models, obs))
    rows = np.zeros(obs.shape[0], dtype=int)  # every sequence under the one model
    log_chain = hmm_module._log_chain(models, rows)
    lls, gamma, trans = hmm_module._log_pass(*log_chain, log_b, True)
    gamma_mix = gamma[..., None] * np.exp(log_joint - log_b[..., None])
    outer = obs * obs if model.covs.ndim == 3 else obs[..., :, None] * obs[..., None, :]
    stats = _Stats(
        pi=gamma[:, 0], trans=trans, mix=gamma_mix.sum(axis=1),
        mean=np.einsum("stnm,std->snmd", gamma_mix, obs),
        sq=np.einsum("stnm,st...->snm...", gamma_mix, outer),
    )
    return stats, lls


def block_budget(model, tau, sequences):
    """The element budget that makes blocks of this many sequences."""
    return sequences * tau * model.n_states * model.n_mix


def assert_stats_close(got, want, rtol):
    for name in ("pi", "trans", "mix", "mean", "sq"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=rtol, atol=rtol)


class TestForward:
    def test_single_state_single_component(self, rng):
        model = Hmm([1.0], [[1.0]], [[1.0]], [[[0.5]]], [[[2.0]]])
        obs = rng.normal(size=(6, 1))
        expected = float(np.sum(multivariate_normal.logpdf(obs, mean=[0.5], cov=[[2.0]])))
        assert forward_loglik_batch(model, obs[None])[0] == pytest.approx(expected, abs=1e-12)

    def test_length_one_marginal(self, rng):
        model = random_hmm(rng, n_states=3, n_mix=2)
        y = rng.normal(size=(1, 1))
        per_state = np.array([
            logsumexp([math.log(w) + multivariate_normal.logpdf(y[0], mean, np.diag(cov))
                       for w, mean, cov in zip(weights, means, covs)])
            for weights, means, covs in zip(model.mix_weights, model.means, model.covs)
        ])
        expected = float(np.log(np.sum(model.initial * np.exp(per_state))))
        assert forward_loglik_batch(model, y[None])[0] == pytest.approx(expected, abs=1e-10)

    def test_matches_enumeration_2_states(self, rng):
        model = random_hmm(rng, n_states=2, n_mix=1, dim=1)
        obs, _ = sample_batch(model, 4, 1, rng)
        expected = enumeration_loglik(model, obs[0])
        assert forward_loglik_batch(model, obs[:1])[0] == pytest.approx(expected, abs=1e-9)

    def test_matches_enumeration_property(self, rng):
        # All shapes with N^tau <= 10^4; full covariances in d=3 as well.
        cases = [(2, 6, 2, "diag"), (3, 5, 2, "diag"), (4, 4, 2, "diag"), (10, 4, 2, "diag"),
                 (2, 6, 3, "full"), (3, 5, 3, "full"), (4, 4, 3, "full")]
        for n_states, tau, dim, cov_type in cases:
            model = random_hmm(rng, n_states=n_states, n_mix=2, dim=dim, cov_type=cov_type)
            obs, _ = sample_batch(model, tau, 1, rng)
            expected = enumeration_loglik(model, obs[0])
            assert forward_loglik_batch(model, obs[:1])[0] == pytest.approx(expected, abs=1e-9)
        # Zero-probability transitions: a left-to-right chain that starts in state 0.
        for n_states, tau, cov_type in [(3, 5, "diag"), (4, 4, "full")]:
            model = random_hmm(rng, n_states=n_states, n_mix=2, dim=2, cov_type=cov_type)
            upper = np.triu(model.transitions)
            model = Hmm(
                np.eye(n_states)[0], upper / upper.sum(axis=1, keepdims=True),
                model.mix_weights, model.means, model.covs,
            )
            obs, _ = sample_batch(model, tau, 1, rng)
            expected = enumeration_loglik(model, obs[0])
            assert forward_loglik_batch(model, obs[:1])[0] == pytest.approx(expected, abs=1e-9)
        # At t=0 only state 0 is reachable, and its density is exp(-800) times
        # state 1's; with tau=1 that is also the last step.
        for obs in ([[40.0], [0.0]], [[40.0]]):
            model, obs = underflow_model(), np.array(obs)
            got = forward_loglik_batch(model, obs[None])[0]
            assert math.isfinite(got)
            assert got == pytest.approx(enumeration_loglik(model, obs), abs=1e-9)

    def test_state_lost_to_underflow_is_recovered(self):
        # State 1 fits 16 steps badly, so its scaled forward weight underflows
        # to 0, while no scale factor falls below about exp(-50); it then fits
        # the last 20 steps and carries nearly all the likelihood.
        model = two_chain_model([0.5, 0.5])
        x = np.concatenate([np.zeros(16), np.full(20, 10.0)])
        expected = np.logaddexp(
            math.log(0.5) + norm.logpdf(x, 0.0, 1.0).sum(),
            math.log(0.5) + norm.logpdf(x, 10.0, 1.0).sum(),
        )
        assert forward_loglik_batch(model, x[None, :, None])[0] == pytest.approx(expected, rel=1e-12)
        stats, lls = one_row_pass(model, x[None, :, None])
        assert lls[0] == pytest.approx(expected, rel=1e-12)
        np.testing.assert_allclose(stats.pi[0], [0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("covs", [[[[1e-310]]], [[[[1e-310]]]]], ids=["diag", "full"])
    def test_subnormal_variance_scores_minus_inf_without_warning(self, covs):
        # (1 - 0)^2 / 1e-310 overflows, so no state can emit an observation at
        # 1.0: the log-likelihood is -inf, not NaN, in the scaled and the
        # log-domain recursions, the statistics hold no NaN, and no numpy
        # warning escapes.
        model = Hmm([1.0], [[1.0]], [[1.0]], [[[0.0]]], covs)
        obs = np.ones((1, 3, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lls = forward_loglik_batch(model, obs)
            stats, stats_lls = one_row_pass(model, obs)
        assert lls.tolist() == stats_lls.tolist() == [-np.inf]
        for name, value in vars(stats).items():
            assert not np.isnan(value).any(), name

    @pytest.mark.parametrize(
        "covs", [[[[1e-300]], [[1e-300]]], [[[[1e-300]]], [[[1e-300]]]]], ids=["diag", "full"]
    )
    def test_loglik_below_float_range_is_minus_inf_without_warning(self, covs):
        # An observation 1.2e4 from state 0 scores about -7.2e307 there, and
        # three such steps sum below the float range: -inf, without an
        # overflow warning, in the scaled pass (row 0) and in the log-domain
        # pass (row 1, whose first observation only state 1, which cannot
        # start, explains).
        model = Hmm([1.0, 0.0], np.full((2, 2), 0.5), np.ones((2, 1)), [[[0.0]], [[1.3e4]]], covs)
        obs = np.array([[-1.2e4, -1.2e4, -1.2e4], [1.3e4, -1.2e4, -1.2e4]])[..., None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lls = forward_loglik_batch(model, obs)
            stats, stats_lls = one_row_pass(model, obs)
        assert lls.tolist() == stats_lls.tolist() == [-np.inf, -np.inf]
        for name, value in vars(stats).items():
            assert not np.isnan(value).any(), name

    def test_batch_matches_scalar(self, rng):
        model = random_hmm(rng, n_states=3, n_mix=2, dim=2)
        obs, _ = sample_batch(model, 7, 5, rng)
        batch = forward_loglik_batch(model, obs)
        singles = [forward_loglik_batch(model, o[None])[0] for o in obs]
        np.testing.assert_allclose(batch, singles, atol=1e-12)

    def test_batch_equals_expected_stats_logliks(self, rng):
        # Both come from the same forward recursion, so they agree bit for bit.
        for cov_type in ("diag", "full"):
            model = random_hmm(rng, n_states=3, n_mix=2, dim=2, cov_type=cov_type)
            obs, _ = sample_batch(model, 9, 6, rng)
            _, lls = one_row_pass(model, obs)
            np.testing.assert_array_equal(forward_loglik_batch(model, obs), lls)

    def test_dimension_mismatch(self, rng):
        model = random_hmm(rng, dim=2)
        with pytest.raises(InvalidModelError) as info:
            forward_loglik_batch(model, np.zeros((1, 3, 1)))
        assert str(info.value) == "observation dimension 1 does not match model dimension 2"

    def test_batch_shape_rejected(self, rng):
        with pytest.raises(InvalidModelError) as info:
            forward_loglik_batch(random_hmm(rng), np.zeros((3, 1)))
        assert str(info.value) == "batch must be (S, tau, d), got shape (3, 1)"

    def test_empty_sequence_rejected(self):
        with pytest.raises(InvalidModelError):
            Sequence(np.zeros((0, 1)))

    @pytest.mark.parametrize(
        "obs, message",
        [
            (np.zeros((2, 0, 1)), "sequence must contain at least one observation"),
            (np.array([[[0.0], [np.nan]]]), "observations contain non-finite values"),
            (np.array([[[0.0]], [[-np.inf]]]), "observations contain non-finite values"),
        ],
        ids=["no-steps", "nan", "inf"],
    )
    def test_batch_checked_as_sequences_are(self, rng, obs, message):
        # A batch takes the checks of one Sequence: no sequence without an
        # observation, no non-finite value.
        with pytest.raises(InvalidModelError) as info:
            forward_loglik_batch(random_hmm(rng), obs)
        assert str(info.value) == message


class TestScaledPass:
    """The probability-domain pass against the log-domain pass it falls back
    to, which is the recursion earlier versions ran for every sequence."""

    @pytest.mark.parametrize("cov_type", ["diag", "full"])
    def test_matches_log_domain_pass(self, rng, cov_type, monkeypatch):
        model = random_hmm(rng, n_states=3, n_mix=2, dim=2, cov_type=cov_type)
        for tau in (1, 6):
            monkeypatch.setattr(hmm_module, "_BLOCK_ELEMENTS", block_budget(model, tau, 128))
            obs, _ = sample_batch(model, tau, 300, rng)
            stats, lls = one_row_pass(model, obs)
            want_stats, want_lls = log_domain_pass(model, obs)
            np.testing.assert_allclose(lls, want_lls, rtol=1e-12)
            assert_stats_close(stats, want_stats, 1e-10)

    @pytest.mark.parametrize("cov_type", ["diag", "full"])
    def test_only_underflowing_sequence_falls_back(self, rng, cov_type, monkeypatch):
        model = underflow_model(cov_type)
        monkeypatch.setattr(hmm_module, "_BLOCK_ELEMENTS", block_budget(model, 4, 128))
        obs, _ = sample_batch(model, 4, 300, rng)
        obs[200, 0] = 40.0
        # Every state explains this one badly (log densities -1800 and -5000):
        # shifted by their maximum, the emissions stay in range.
        obs[50, 2] = -60.0
        calls = []  # (rows, stats) of each log-domain pass
        original = hmm_module._log_pass

        def counted(*args):
            calls.append((args[2].shape[0], args[3]))
            return original(*args)

        monkeypatch.setattr(hmm_module, "_log_pass", counted)
        stats, lls = one_row_pass(model, obs)
        # The underflowing row runs the log-domain pass once per pass, with
        # statistics or forward only.
        assert calls == [(1, True)]
        batch = forward_loglik_batch(model, obs)
        assert calls == [(1, True), (1, False)]
        np.testing.assert_array_equal(batch, lls)
        assert np.all(np.isfinite(lls))
        want_stats, want_lls = log_domain_pass(model, obs)
        np.testing.assert_allclose(lls, want_lls, rtol=1e-12)
        assert_stats_close(stats, want_stats, 1e-10)

    def test_unreachable_state_with_overflowing_backward(self):
        # State 1 is never reachable but fits every observation far better, so
        # its scaled beta grows by exp(50) per step and overflows; that row is
        # redone in log domain, where state 1 simply gets no mass.
        model = two_chain_model([1.0, 0.0])
        x = np.full(20, 10.0)
        stats, lls = one_row_pass(model, x[None, :, None])
        assert lls[0] == pytest.approx(norm.logpdf(x, 0.0, 1.0).sum(), rel=1e-12)
        np.testing.assert_array_equal(stats.pi[0], [1.0, 0.0])
        np.testing.assert_allclose(stats.trans[0], [[19.0, 0.0], [0.0, 0.0]], rtol=1e-12)
        np.testing.assert_allclose(stats.mean[0, :, 0, 0], [200.0, 0.0], rtol=1e-12)

    @pytest.mark.parametrize("cov_type", ["diag", "full"])
    def test_block_size_invariance(self, rng, cov_type, monkeypatch):
        model = random_hmm(rng, n_states=3, n_mix=2, dim=2, cov_type=cov_type)
        obs, _ = sample_batch(model, 5, 300, rng)
        obs[123, 0] = 40.0  # a far observation, which every state explains badly
        stats, lls = one_row_pass(model, obs)
        for block in (1, 7, 300):
            monkeypatch.setattr(hmm_module, "_BLOCK_ELEMENTS", block_budget(model, 5, block))
            other_stats, other_lls = one_row_pass(model, obs)
            np.testing.assert_allclose(other_lls, lls, rtol=1e-12)
            np.testing.assert_allclose(forward_loglik_batch(model, obs), lls, rtol=1e-12)
            assert_stats_close(other_stats, stats, 1e-12)


class TestConstruction:
    @pytest.mark.parametrize("cov_type", ["diag", "full"])
    def test_stacked_arrays_round_trip(self, rng, cov_type):
        model = random_hmm(rng, n_states=3, n_mix=2, dim=2, cov_type=cov_type)
        assert model.mix_weights.shape == (3, 2)
        assert model.means.shape == (3, 2, 2)
        assert model.covs.shape == ((3, 2, 2) if cov_type == "diag" else (3, 2, 2, 2))
        rebuilt = Hmm(
            model.initial, model.transitions, model.mix_weights, model.means, model.covs
        )
        for name in ("initial", "transitions", "mix_weights", "means", "covs"):
            np.testing.assert_array_equal(getattr(rebuilt, name), getattr(model, name))

    def test_mixed_covariance_layouts_rejected(self):
        # State 0 with variances, state 1 with a matrix: the covs are ragged.
        covs = [[[1.0, 1.0]], [np.eye(2)]]
        with pytest.raises(InvalidModelError, match="covs is not a numeric array"):
            Hmm([0.5, 0.5], np.full((2, 2), 0.5), np.ones((2, 1)), np.zeros((2, 1, 2)), covs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_probabilities_rejected(self, bad):
        emissions = (np.ones((2, 1)), np.zeros((2, 1, 1)), np.ones((2, 1, 1)))
        with pytest.raises(InvalidModelError, match="initial distribution sums to"):
            Hmm([bad, 1.0], np.full((2, 2), 0.5), *emissions)
        with pytest.raises(InvalidModelError, match="transition row 1 sums to"):
            Hmm([0.5, 0.5], [[0.5, 0.5], [bad, 1.0]], *emissions)

    def test_sequence_is_slotted(self):
        seq = Sequence([[0.0], [1.0]], id="a")
        assert not hasattr(seq, "__dict__")
        with pytest.raises(AttributeError):
            seq.label = "b"
        other = dataclasses.replace(seq, id="b")
        assert other.id == "b" and other.observations is seq.observations
        with pytest.raises(InvalidModelError, match="non-finite"):
            dataclasses.replace(seq, observations=[[np.nan]])

    def test_zero_dimensional_observations_rejected(self):
        with pytest.raises(InvalidModelError, match=r"d >= 1, got shape \(2, 0\)"):
            Sequence(np.empty((2, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_observations_rejected(self, bad):
        with pytest.raises(InvalidModelError) as info:
            Sequence([[0.0], [bad]])
        assert str(info.value) == "observations contain non-finite values"

    def test_config_rejects_unknown_cov_type(self):
        with pytest.raises(ValueError) as info:
            EmConfig(cov_type="spherical")
        assert str(info.value) == "cov_type must be 'diag' or 'full', got 'spherical'"

    @pytest.mark.parametrize(
        "bad", [{"cov_floor": np.nan}, {"cov_floor": np.inf}, {"cov_floor": 0.0}, {"tol": np.nan}]
    )
    def test_config_rejects_nan_or_infinite_floor_and_nan_tol(self, bad):
        with pytest.raises(ValueError, match="0 < cov_floor < inf"):
            EmConfig(**bad)

    @pytest.mark.parametrize("name", ["max_iters", "n_starts"])
    @pytest.mark.parametrize("value", [2.5, np.nan, "3"])
    def test_config_rejects_non_integer_counts(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            EmConfig(**{name: value})
        assert EmConfig(**{name: np.int64(3)}).__dict__[name] == 3

    def test_first_bad_transition_row_named(self):
        emissions = (np.ones((3, 1)), np.zeros((3, 1, 1)), np.ones((3, 1, 1)))
        transitions = np.array([[1.0, 0.0, 0.0], [0.5, 0.6, -0.1], [0.2, 0.2, 0.2]])
        with pytest.raises(InvalidModelError, match="transition row 1 has negative"):
            Hmm([1.0, 0.0, 0.0], transitions, *emissions)


def valid_arrays(cov_type: str) -> dict:
    full = np.array([[2.0, 0.5], [0.5, 1.0]])
    return {
        "initial": np.array([0.5, 0.5]),
        "transitions": np.array([[0.9, 0.1], [0.2, 0.8]]),
        "mix_weights": np.array([[0.3, 0.7], [0.6, 0.4]]),
        "means": np.arange(8.0).reshape(2, 2, 2),
        "covs": np.ones((2, 2, 2)) if cov_type == "diag" else np.tile(full, (2, 2, 1, 1)),
    }


def set_entry(name, index, value):
    def mutate(arrays):
        arrays[name][index] = value
    return mutate


def replace(name, value):
    def mutate(arrays):
        arrays[name] = value
    return mutate


# name: (covariance layout, mutation of valid_arrays, where the check reports it)
BAD_MODELS = {
    "zero variance": ("diag", set_entry("covs", (1, 0, 1), 0.0), "state 1, mixture component 0"),
    "negative variance": (
        "diag", set_entry("covs", (0, 1, 0), -1.0), "state 0, mixture component 1"
    ),
    "nan mean": ("diag", set_entry("means", (1, 1, 0), np.nan), "state 1, mixture component 1"),
    "inf mean": ("full", set_entry("means", (0, 0, 1), np.inf), "state 0, mixture component 0"),
    "inf variance": ("diag", set_entry("covs", (0, 1, 1), np.inf), "state 0, mixture component 1"),
    "asymmetric cov": (
        "full", set_entry("covs", (1, 1, 0, 1), 0.9), "state 1, mixture component 1"
    ),
    "cov not positive definite": (
        "full", set_entry("covs", (0, 1), [[1.0, 2.0], [2.0, 1.0]]), "state 0, mixture component 1"
    ),
    "transition row sum": ("diag", set_entry("transitions", 1, [0.5, 0.4]), "transition row 1"),
    "mixture row sum": (
        "full", set_entry("mix_weights", 1, [0.6, 0.6]), "mixture weights of state 1"
    ),
    "nan weight": ("diag", set_entry("mix_weights", (0, 0), np.nan), "mixture weights of state 0"),
    "nan initial": ("diag", set_entry("initial", 0, np.nan), "initial distribution sums to nan"),
    "mixed layouts": (
        "diag", replace("covs", [[[1.0, 1.0]] * 2, [[[2.0, 0.5], [0.5, 1.0]]] * 2]), None
    ),
    "mean and cov dimensions": ("diag", replace("means", np.zeros((2, 2, 3))), None),
    "fewer emissions than states": (
        "diag", lambda a: a.update({k: a[k][:1] for k in ("mix_weights", "means", "covs")}), None
    ),
}


# name: (mutation of valid_arrays("diag"), the constructor's whole message)
BAD_SHAPES = {
    "initial matrix": (replace("initial", np.full((2, 2), 0.5)), "initial must be a vector"),
    "transitions shape": (
        replace("transitions", np.full((2, 3), 1 / 3)), "transitions must be (2, 2), got (2, 3)"
    ),
    "means per state": (
        replace("means", np.zeros((2, 2))), "means must be 3-dimensional, got shape (2, 2)"
    ),
    "mixture weights shape": (
        replace("mix_weights", np.full((2, 3), 1 / 3)),
        "mixture weights have shape (2, 3), expected (2, 2)",
    ),
}


def bad_model(case: str) -> tuple[dict, str | None]:
    cov_type, mutate, where = BAD_MODELS[case]
    arrays = valid_arrays(cov_type)
    mutate(arrays)
    return arrays, where


class TestArrayCheck:
    """One array-level check behind every way to build a model: the
    constructor, a stack of models and the model file reject the same inputs."""

    @pytest.mark.parametrize("case", BAD_MODELS)
    def test_constructor_rejects(self, case):
        arrays, where = bad_model(case)
        with pytest.raises(InvalidModelError, match=re.escape(where) if where else None):
            Hmm(**arrays)

    @pytest.mark.parametrize("case", BAD_SHAPES)
    def test_constructor_names_bad_shapes(self, case):
        mutate, message = BAD_SHAPES[case]
        arrays = valid_arrays("diag")
        mutate(arrays)
        with pytest.raises(InvalidModelError) as info:
            Hmm(**arrays)
        assert str(info.value) == message

    @pytest.mark.parametrize("case", BAD_MODELS)
    def test_from_arrays_rejects(self, case):
        # A stack checked at once from the arrays of its models, as a model
        # file's components and the synthetic members are: the error also
        # names the bad model on the stack's axis.
        arrays, where = bad_model(case)
        good = valid_arrays(BAD_MODELS[case][0])
        with pytest.raises(InvalidModelError) as info:
            hmm_module._check_arrays(
                *([good[name], arrays[name]] for name in good), axes=("component",)
            )
        assert where is None or ("component 1" in str(info.value) and where in str(info.value))

    @pytest.mark.parametrize(
        "where, cov",
        [
            ((77, 2, 1), [[1.0, 2.0], [2.0, 1.0]]),
            # Rank one: Cholesky fails, though rounding may leave eigvalsh's
            # smallest eigenvalue just above 0 (about 1e-17).
            ((90, 0, 1), [[0.29621784042087357, 0.17214920138308412],
                          [0.17214920138308412, 0.10004578891915161]]),
        ],
        ids=["indefinite", "singular"],
    )
    def test_stack_names_the_matrix_that_is_not_positive_definite(self, where, cov):
        # 128 components, N=3, M=2, d=2, full: one batched Cholesky, then one
        # batched eigvalsh to find the entry.
        k, n, m, d = 128, 3, 2, 2
        covs = np.broadcast_to(np.eye(d), (k, n, m, d, d)).copy()
        covs[where] = cov
        with pytest.raises(InvalidModelError) as info:
            hmm_module._check_arrays(
                np.full((k, n), 1 / n), np.full((k, n, n), 1 / n), np.full((k, n, m), 1 / m),
                np.zeros((k, n, m, d)), covs, axes=("component",),
            )
        assert str(info.value) == (
            "component {}, state {}, mixture component {}: full cov is not positive definite"
            .format(*where)
        )

    @pytest.mark.parametrize("case", BAD_MODELS)
    def test_load_model_rejects(self, case, tmp_path):
        arrays, where = bad_model(case)
        good = Hmm(**valid_arrays("diag"))
        path = tmp_path / "bad.json"
        save_model(H3m([0.5, 0.5], [good, good]), path)
        doc = json.loads(path.read_text())
        doc["payload"]["components"][1] = {
            "initial": arrays["initial"],
            "transitions": arrays["transitions"],
            "emissions": [
                {
                    "weights": w,
                    "components": [{"mean": mu, "cov": cov} for mu, cov in zip(mu_row, cov_row)],
                }
                for w, mu_row, cov_row in zip(
                    arrays["mix_weights"], arrays["means"], arrays["covs"]
                )
            ],
        }
        path.write_text(json.dumps(doc, default=np.ndarray.tolist))
        with pytest.raises((ModelFormatError, InvalidModelError)) as info:
            load_model(path)
        assert f"{path} component 1" in str(info.value)
        assert where is None or where in str(info.value)

    def test_ragged_lists_are_a_format_error(self, tmp_path):
        good = Hmm(**valid_arrays("diag"))
        path = tmp_path / "ragged.json"
        save_model(H3m([0.5, 0.5], [good, good]), path)
        doc = json.loads(path.read_text())
        doc["payload"]["components"][1]["emissions"][0]["components"][1]["mean"] = [0.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=re.escape(f"{path} component 1")):
            load_model(path)


class TestRepresentation:
    """An Hmm holds its five parameter arrays and nothing else, however it was
    built; ``emissions`` rebuilds the objects from them on every read."""

    SOURCES = ["constructor", "from_arrays", "load_model", "mstep", "vhem_reduce"]

    @staticmethod
    def build(source, cov_type, rng, tmp_path) -> Hmm:
        model = random_hmm(rng, n_states=3, n_mix=2, dim=2, cov_type=cov_type)
        arrays = (model.initial, model.transitions, model.mix_weights, model.means, model.covs)
        if source == "constructor":
            return Hmm(*arrays)
        if source == "from_arrays":  # a row of a stack checked from its arrays
            stack = hmm_module._check_arrays(*(a[None] for a in arrays), axes=("component",))
            return H3m([1.0], stack).components[0]
        if source == "load_model":
            save_model(model, tmp_path / "model.json")
            return load_model(tmp_path / "model.json")
        if source == "mstep":
            obs, _ = sample_batch(model, 6, 20, rng)
            models = _stack([model])
            totals = _expected_stats(models, [obs], True)[0].weighted_sum(np.ones((20, 1)))
            return Hmm(*(row[0] for row in _mstep(totals, models, 1e-6)))
        base = H3m(np.full(4, 0.25), [model] + [
            random_hmm(rng, n_states=3, n_mix=2, dim=2, cov_type=cov_type) for _ in range(3)
        ])
        return vhem_reduce(base, VhemConfig(k_reduced=2, max_iters=3)).reduced.components[0]

    @pytest.mark.parametrize("cov_type", ["diag", "full"])
    @pytest.mark.parametrize("source", SOURCES)
    def test_only_the_five_arrays_are_stored(self, source, cov_type, rng, tmp_path):
        model = self.build(source, cov_type, rng, tmp_path)
        assert set(vars(model)) == {"initial", "transitions", "mix_weights", "means", "covs"}
        assert all(type(value) is np.ndarray for value in vars(model).values())
        emissions = model.emissions
        assert len(emissions) == model.n_states
        for state, gmm in enumerate(emissions):
            assert gmm.weights.tobytes() == model.mix_weights[state].tobytes()
            for comp, g in enumerate(gmm.components):
                assert g.mean.tobytes() == model.means[state, comp].tobytes()
                assert g.cov.tobytes() == model.covs[state, comp].tobytes()
        assert model.emissions[0] is not emissions[0]
        with pytest.raises(AttributeError):
            model.emissions = emissions


def stacked_case(rng, cov_type, n_states, k):
    """K random models of one shape. With three states the first one starts
    in state 0 only, which lies 40 units from states 1 and 2 on every axis:
    under it alone, a sequence that starts at 40 underflows in the scaled
    pass (see ``underflow_model``)."""
    models = [random_hmm(rng, n_states, 2, 2, cov_type) for _ in range(k)]
    if n_states == 3:
        first = models[0]
        means = np.full(first.means.shape, 40.0)
        means[0] = 0.0
        covs = np.ones(first.covs.shape) if cov_type == "diag" else np.tile(np.eye(2), (3, 2, 1, 1))
        models[0] = Hmm(
            [1.0, 0.0, 0.0], first.transitions, first.mix_weights, means, covs
        )
    return models


class TestStackedPass:
    """A pass over K stacked models against K one-row passes, bit for bit:
    every kernel runs the same arithmetic per element, with a leading K axis."""

    @pytest.mark.parametrize("budget", [None, 40], ids=["default-blocks", "small-blocks"])
    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("n_states", [1, 3])
    @pytest.mark.parametrize("cov_type", ["diag", "full"])
    def test_rows_equal_one_row_passes(self, cov_type, n_states, k, budget, monkeypatch):
        if budget is not None:  # blocks of different sizes in the stacked and one-row passes
            monkeypatch.setattr(hmm_module, "_BLOCK_ELEMENTS", budget)
        rng = np.random.default_rng(917263)
        models = stacked_case(rng, cov_type, n_states, k)
        stack = _stack(models)
        for tau in (1, 4, 7):
            obs, _ = sample_batch(models[-1], tau, 25, rng)
            if tau == 4:
                obs[11, 0] = 40.0
            ok = hmm_module._scaled_forward(stack, log_emissions(stack, obs)[1])[4]
            # The fallback is taken by one (model, sequence) row only.
            flagged = [(0, 11)] if n_states == 3 and tau == 4 else []
            assert list(zip(*np.nonzero(~ok))) == flagged
            stats, lls = _expected_stats(stack, [obs], True)
            assert lls.shape == (25, k)
            # The forward-only pass gives the same log-likelihoods, and no statistics.
            no_stats, forward_lls = _expected_stats(stack, [obs], False)
            assert no_stats is None and forward_lls.tobytes() == lls.tobytes()
            for row, model in enumerate(models):
                one_stats, one_lls = _expected_stats(_stack([model]), [obs], True)
                assert lls[:, row].tobytes() == one_lls[:, 0].tobytes()
                assert forward_loglik_batch(model, obs).tobytes() == one_lls[:, 0].tobytes()
                for name, value in vars(stats).items():
                    assert value[:, row].tobytes() == getattr(one_stats, name)[:, 0].tobytes(), name

    @pytest.mark.parametrize("cov_type", ["diag", "full"])
    def test_mstep_zero_mass_row_keeps_its_parameters(self, rng, cov_type):
        models = [random_hmm(rng, 3, 2, 2, cov_type) for _ in range(3)]
        stack = _stack(models)
        obs, _ = sample_batch(models[0], 6, 20, rng)
        stats, _ = _expected_stats(stack, [obs], True)
        weights = rng.random((20, 3))
        weights[:, 1] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            new = _mstep(stats.weighted_sum(weights), stack, 1e-6)
        for got, before in zip(new, stack):
            assert got[1].tobytes() == before[1].tobytes()
        # The other rows are their one-row M-steps.
        for row in (0, 2):
            one_stats, _ = _expected_stats(_stack([models[row]]), [obs], True)
            totals = one_stats.weighted_sum(weights[:, row:row + 1])
            for got, want in zip(new, _mstep(totals, _stack([models[row]]), 1e-6)):
                assert got[row].tobytes() == want[0].tobytes()


class TestMstep:
    def one_component_stats(self, mean, sq):
        return _Stats(
            pi=np.ones(1), trans=np.ones((1, 1)), mix=np.ones((1, 1)),
            mean=np.array(mean, dtype=float)[None, None],
            sq=np.array(sq, dtype=float)[None, None],
        )

    def test_near_singular_full_covariance_nudged(self):
        # Mean [1, 1] and second moment [[2, 2], [2, 2]] leave the singular
        # covariance [[1, 1], [1, 1]], with eigenvalue 2 along (1, 1) and 0
        # along (1, -1). The floor does not bind on its diagonal; it raises
        # the zero eigenvalue to floor and keeps the eigenvectors.
        floor = 1e-3
        previous = Hmm([1.0], [[1.0]], [[1.0]], np.zeros((1, 1, 2)), [[np.eye(2)]])
        stats = self.one_component_stats([1.0, 1.0], [[2.0, 2.0], [2.0, 2.0]])
        new = one_row_mstep(stats, previous, floor)
        np.testing.assert_array_equal(new.means[0, 0], [1.0, 1.0])
        half = floor / 2
        np.testing.assert_allclose(
            new.covs[0, 0], [[1.0 + half, 1.0 - half], [1.0 - half, 1.0 + half]], rtol=1e-14
        )
        np.testing.assert_allclose(np.linalg.eigvalsh(new.covs[0, 0]), [floor, 2.0], rtol=1e-12)

    def test_non_finite_covariance_left_to_the_parameter_check(self):
        # LAPACK's eigh can fail to converge on a non-finite matrix (on this
        # one, with numpy's bundled OpenBLAS): the floor passes it on, and the
        # parameter check rejects the new model, an H3mError, not a LinAlgError.
        nan = np.nan
        cov = np.array([[1.0, nan, 1.0], [nan, nan, 1.0], [1.0, 1.0, nan]])
        previous = Hmm([1.0], [[1.0]], [[1.0]], np.zeros((1, 1, 3)), [[np.eye(3)]])
        stats = self.one_component_stats([1.0, 1.0, 1.0], cov + 1.0)
        with pytest.raises(InvalidModelError, match="cov contains non-finite entries"):
            one_row_mstep(stats, previous, 1e-3)

    def test_diagonal_floor_binds(self):
        floor = 1e-3
        previous = Hmm([1.0], [[1.0]], [[1.0]], np.zeros((1, 1, 2)), np.ones((1, 1, 2)))
        new = one_row_mstep(self.one_component_stats([1.0, 2.0], [1.5, 4.0]), previous, floor)
        np.testing.assert_array_equal(new.covs[0, 0], [0.5, floor])


class TestStateMarginals:
    def test_first_row_is_initial(self, rng):
        model = random_hmm(rng, n_states=3)
        np.testing.assert_allclose(state_marginals(model, 5)[0], model.initial)

    def test_doubly_stochastic_stays_uniform(self):
        model = Hmm(
            [0.5, 0.5],
            [[0.3, 0.7], [0.7, 0.3]],
            np.ones((2, 1)),
            [[[0.0]], [[1.0]]],
            np.ones((2, 1, 1)),
        )
        marg = state_marginals(model, 6)
        np.testing.assert_allclose(marg, 0.5 * np.ones((6, 2)), atol=1e-12)

    def test_alternating_chain(self):
        model = Hmm(
            [1.0, 0.0],
            [[0.0, 1.0], [1.0, 0.0]],
            np.ones((2, 1)),
            [[[0.0]], [[1.0]]],
            np.ones((2, 1, 1)),
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
            np.ones((2, 1)),
            [[[0.0]], [[5.0]]],
            np.ones((2, 1, 1)),
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

    @pytest.mark.parametrize("cov_type", ["diag", "full"])
    @pytest.mark.parametrize("tau", [1, 7])
    def test_draws_follow_the_per_step_stream(self, cov_type, tau):
        # A per-step loop pins the seeded stream: state uniforms step by step,
        # then component uniforms sequence by sequence, then the normals.
        model = random_hmm(np.random.default_rng(4), n_states=3, n_mix=2, dim=2, cov_type=cov_type)
        obs, states = sample_batch(model, tau, 5, np.random.default_rng(917263))
        draws = np.random.default_rng(917263)

        def pick(cum, u):
            return min(int(np.sum(u >= cum)), cum.size - 1)

        expected_states = np.empty((5, tau), dtype=int)
        for t in range(tau):
            for s, u in enumerate(draws.random(5)):
                row = model.initial if t == 0 else model.transitions[expected_states[s, t - 1]]
                expected_states[s, t] = pick(np.cumsum(row), u)
        comp_u = draws.random((5, tau))
        normals = draws.standard_normal((5, tau, 2))
        np.testing.assert_array_equal(states, expected_states)
        for s, t in np.ndindex(5, tau):
            state = expected_states[s, t]
            comp = pick(np.cumsum(model.mix_weights[state]), comp_u[s, t])
            mean, cov = model.means[state, comp], model.covs[state, comp]
            if cov_type == "diag":
                expected = mean + normals[s, t] * np.sqrt(cov)
            else:
                expected = mean + np.einsum("ij,j->i", np.linalg.cholesky(cov), normals[s, t])
            assert obs[s, t].tobytes() == expected.tobytes(), (s, t)

    def test_full_cov_sampling_moments(self, rng):
        cov = np.array([[2.0, 0.8], [0.8, 1.0]])
        model = Hmm([1.0], [[1.0]], [[1.0]], [[[1.0, -1.0]]], [[cov]])
        obs, _ = sample_batch(model, 1, 200_000, rng)
        flat = obs[:, 0, :]
        np.testing.assert_allclose(flat.mean(axis=0), [1.0, -1.0], atol=0.02)
        np.testing.assert_allclose(np.cov(flat.T), cov, atol=0.03)


class TestKmeans:
    @pytest.mark.parametrize("dim", [1, 2, 3, 9])
    def test_equals_the_masked_mean_loop(self, dim):
        for seed in range(10):
            gen = np.random.default_rng(seed)
            points = gen.normal(size=(500, dim)) * gen.uniform(0.1, 100.0, size=dim)
            points += 50.0 * gen.normal(size=dim)
            got = _kmeans(points, 6, np.random.default_rng(seed))
            want = masked_mean_kmeans(points, 6, np.random.default_rng(seed))
            assert got.tobytes() == want.tobytes(), seed

    def test_stops_at_the_same_centers_at_any_scale(self):
        # Three groups around (0, 0), (6, 0) and (0, 6). Scaled by 1e-9, every
        # center moves by less than an absolute 1e-8 per step, which a
        # tolerance-based stop took for convergence after one Lloyd step.
        gen = np.random.default_rng(3)
        points = np.concatenate(
            [gen.normal(size=(200, 2)) + center for center in ([0.0, 0.0], [6.0, 0.0], [0.0, 6.0])]
        )
        want = _kmeans(points, 3, np.random.default_rng(7))
        got = _kmeans(points * 1e-9, 3, np.random.default_rng(7)) / 1e-9
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(want, [[0.0, 0.0], [0.0, 6.0], [6.0, 0.0]], atol=0.3)

    def test_center_of_an_emptied_cluster_stays(self):
        # From (1, 3), (1, 4), (1, 2) the middle center moves to (3, 4) and
        # then loses both its points; it keeps (3, 4), which is no data point.
        points = np.array([[1.0, 3.0], [5.0, 4.0], [1.0, 4.0], [1.0, 2.0], [5.0, 3.0]])
        got = _kmeans(points, 3, FixedStart([1, 2, 0]))
        np.testing.assert_array_equal(got, [[1.0, 3.0], [3.0, 4.0], [5.0, 3.5]])
        assert got.tobytes() == masked_mean_kmeans(points, 3, FixedStart([1, 2, 0])).tobytes()

    @pytest.mark.parametrize("start, want", [([0, 2], [0.5, 2.0]), ([2, 0], [0.0, 1.5])])
    def test_tied_points_go_to_the_first_center(self, start, want):
        # The points at 1 are as far from 0 as from 2, and join whichever
        # center comes first.
        points = np.array([0.0, 1.0, 2.0, 0.0, 1.0, 2.0])[:, None]
        got = _kmeans(points, 2, FixedStart(start))
        np.testing.assert_array_equal(got[:, 0], want)
        assert got.tobytes() == masked_mean_kmeans(points, 2, FixedStart(start)).tobytes()

    def test_too_few_distinct_vectors_named(self):
        data = [Sequence([[0.0], [1.0], [0.0]]), Sequence([[1.0], [0.0], [1.0]])]
        message = "need at least 4 distinct observation vectors, found 2"
        for fit in (
            lambda rng: baum_welch(data, 2, 2, EmConfig(), rng),
            lambda rng: h3m_em(data, 2, 2, 2, EmConfig(), rng),
        ):
            with pytest.raises(EstimationError) as info:
                fit(np.random.default_rng(0))
            assert str(info.value) == message


class TestBaumWelch:
    def test_two_state_recovery(self, rng):
        truth = Hmm(
            [0.5, 0.5],
            [[0.8, 0.2], [0.2, 0.8]],
            np.ones((2, 1)),
            [[[-5.0]], [[5.0]]],
            np.ones((2, 1, 1)),
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
        assert fit.model.means[0, 0, 0] == pytest.approx(pooled.mean(), abs=1e-9)
        assert fit.model.covs[0, 0, 0] == pytest.approx(pooled.var(), abs=1e-9)

    def test_trace_monotone(self, rng):
        model = random_hmm(rng, n_states=2, n_mix=2, dim=2, mean_scale=3.0)
        data = [Sequence(sample_batch(model, 15, 1, rng)[0][0]) for _ in range(40)]
        fit = baum_welch(data, 2, 2, EmConfig(max_iters=30), np.random.default_rng(1))
        trace = np.array(fit.loglik_trace)
        deltas = np.diff(trace)
        assert np.all(deltas >= -1e-8 * np.abs(trace[:-1]))

    def test_no_sequences_rejected(self):
        with pytest.raises(EstimationError) as info:
            baum_welch([], 1, 1)
        assert str(info.value) == "no sequences provided"

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
        np.testing.assert_allclose(m.mix_weights.sum(axis=1), 1.0, atol=1e-12)

    def test_one_state_round_trip_mean(self, rng):
        truth = Hmm([1.0], [[1.0]], [[1.0]], [[[3.0]]], [[[4.0]]])
        data = [Sequence(sample_batch(truth, 100, 1, rng)[0][0]) for _ in range(100)]
        fit = baum_welch(data, 1, 1, EmConfig(max_iters=5), np.random.default_rng(3))
        n_obs = 100 * 100
        stderr = math.sqrt(4.0 / n_obs)
        assert abs(fit.model.means[0, 0, 0] - 3.0) < 3 * stderr

    def test_full_covariance_fit(self, rng):
        cov = np.array([[1.5, 0.6], [0.6, 1.0]])
        truth = Hmm([1.0], [[1.0]], [[1.0]], [[[0.0, 0.0]]], [[cov]])
        data = [Sequence(sample_batch(truth, 50, 1, rng)[0][0]) for _ in range(50)]
        fit = baum_welch(
            data, 1, 1, EmConfig(max_iters=5, cov_type="full"), np.random.default_rng(4)
        )
        fitted = fit.model.covs[0, 0]
        assert fitted.shape == (2, 2)
        np.testing.assert_allclose(fitted, cov, atol=0.15)
