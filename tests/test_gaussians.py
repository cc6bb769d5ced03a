"""The expected log-likelihood kernel between Gaussians and its point form,
the log-density, mixture-level bounds (the test-local
``conftest.mixture_bound``) and the library's matchings, the enumeration
oracle's stage softmaxes and logsumexp. Derived
expectations are frozen from closed forms and cross-checked against seeded
Monte Carlo averages; densities and draws for those come from scipy.stats,
or from a one-state HMM for mixtures. Gaussians are (mean, cov) pairs and
mixtures (weights, means, covs) arrays, as the library reads them."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import multivariate_normal

import h3mkit
from h3mkit import (
    DegenerateWeightsError,
    Hmm,
    InvalidModelError,
    forward_loglik_batch,
    sample_batch,
)
from h3mkit.gaussians import _cross_terms, logsumexp

from conftest import elhmm_bruteforce, estep_pair, mixture_bound, random_gaussian, random_gmm

LOG_2PI = math.log(2.0 * math.pi)
STD_NORMAL_SELF = -(1.0 + LOG_2PI) / 2.0  # = -1.4189385332046727
UNIT = ([0.0], [1.0])  # the standard normal in d=1, as (mean, cov)


def one_state(mixture):
    """The one-state HMM whose emission is the mixture (weights, means, covs)."""
    return Hmm([1.0], [[1.0]], *(np.asarray(a, dtype=float)[None] for a in mixture))


def as_matrix(cov):
    return np.diag(cov) if cov.ndim == 1 else cov


def cross(base, reduced):
    """``_cross_terms`` for one pair of (mean, cov) Gaussians; a base cov of
    None is the point at its mean."""
    (mu_b, cov_b), (mu_r, cov_r) = (
        (np.asarray(mean, dtype=float), None if cov is None else np.asarray(cov, dtype=float))
        for mean, cov in (base, reduced)
    )
    return float(_cross_terms(mu_b, cov_b, mu_r, cov_r))


def mixture(weights, gaussians):
    """(weights, means, covs) arrays of a mixture of (mean, cov) Gaussians."""
    means, covs = zip(*gaussians)
    return np.array(weights, dtype=float), np.array(means, dtype=float), np.array(covs, dtype=float)


def table(base, reduced):
    """``_cross_terms`` over every (base m, reduced l) component pair, as the
    reduction stacks them."""
    (_, mu_b, cov_b), (_, mu_r, cov_r) = base, reduced
    return _cross_terms(mu_b[:, None], cov_b[:, None], mu_r[None], cov_r[None])


def matching(base, reduced):
    """The library's optimal emission matching eta (M_b, M_r), read off the
    E-step of two one-state HMMs."""
    return estep_pair(one_state(base), one_state(reduced), 1).eta[0, 0]


def matching_bound(base, reduced, eta):
    """Hershey-Olsen lower bound at an arbitrary matching, pair by pair:
    sum_m c_b[m] sum_l eta[m,l] (log c_r[l] + L_G(m,l) - log eta[m,l])."""
    total = 0.0
    for m, gb in enumerate(zip(base[1], base[2])):
        for l, gr in enumerate(zip(reduced[1], reduced[2])):
            e = eta[m, l]
            if e > 0:
                terms = math.log(reduced[0][l]) + cross(gb, gr) - math.log(e)
                total += base[0][m] * e * terms
    return total


class TestGaussian:
    """A Gaussian emission's own checks, run by the one array check of every model."""

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidModelError):
            one_state(([1.0], [[0.0, 0.0]], [[1.0]]))

    def test_non_positive_variance_rejected(self):
        with pytest.raises(InvalidModelError):
            one_state(([1.0], [[0.0]], [[0.0]]))

    def test_non_pd_full_cov_rejected(self):
        with pytest.raises(InvalidModelError):
            one_state(([1.0], [[0.0, 0.0]], [[[1.0, 2.0], [2.0, 1.0]]]))

    def test_log_density_matches_scipy(self, rng):
        # The library's density is that of a one-state, one-component HMM
        # on length-one sequences.
        for cov_type in ("diag", "full"):
            mean, cov = random_gaussian(rng, dim=3, cov_type=cov_type)
            pts = rng.normal(size=(20, 3))
            expected = multivariate_normal.logpdf(pts, mean=mean, cov=as_matrix(cov))
            got = forward_loglik_batch(one_state(([1.0], [mean], [cov])), pts[:, None, :])
            np.testing.assert_allclose(got, expected, atol=1e-10)


class TestGaussExpectedLoglik:
    """``_cross_terms``, the expected log-likelihood kernel the reduction runs,
    which trusts its checked arguments, and the checks that models and the
    pair entry points make before it runs."""

    def test_standard_normal_self(self):
        g = ([0.0], [1.0])
        assert cross(g, g) == pytest.approx(STD_NORMAL_SELF, abs=1e-12)

    def test_unit_shift(self):
        assert cross(([0.0], [1.0]), ([1.0], [1.0])) == pytest.approx(
            STD_NORMAL_SELF - 0.5, abs=1e-12
        )

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_identity_cov_any_dim(self, d):
        g = (np.zeros(d), np.ones(d))
        assert cross(g, g) == pytest.approx(-d * (1.0 + LOG_2PI) / 2.0, abs=1e-12)

    def test_self_expectation_identity(self, rng):
        # E_g[log g] = -(d log 2pi + log|S| + d) / 2 for any covariance.
        for cov_type in ("diag", "full"):
            for d in (1, 2, 3):
                g = random_gaussian(rng, d, cov_type)
                log_det = np.linalg.slogdet(as_matrix(g[1]))[1]
                expected = -0.5 * (d * LOG_2PI + log_det + d)
                assert cross(g, g) == pytest.approx(expected, abs=1e-12)

    def test_monte_carlo_oracle_non_unit_covariance(self, rng):
        # Non-unit covariances so the log-determinant term actually matters.
        base = (np.array([0.0]), np.array([2.0]))
        reduced = (np.array([1.0]), np.array([3.0]))
        value = cross(base, reduced)
        draws = multivariate_normal.rvs(base[0], as_matrix(base[1]), size=10**6, random_state=rng)
        lls = multivariate_normal.logpdf(draws, reduced[0], as_matrix(reduced[1]))
        stderr = lls.std(ddof=1) / np.sqrt(lls.size)
        assert abs(value - lls.mean()) < 3 * stderr

    def test_monte_carlo_oracle_full_cov(self, rng):
        base = random_gaussian(rng, 2, "full")
        reduced = random_gaussian(rng, 2, "full")
        value = cross(base, reduced)
        draws = multivariate_normal.rvs(base[0], as_matrix(base[1]), size=10**6, random_state=rng)
        lls = multivariate_normal.logpdf(draws, reduced[0], as_matrix(reduced[1]))
        stderr = lls.std(ddof=1) / np.sqrt(lls.size)
        assert abs(value - lls.mean()) < 3 * stderr

    @pytest.mark.parametrize("d", [1, 3, 9])
    @pytest.mark.parametrize("cov_type", ["diag", "full"])
    def test_point_is_the_log_density(self, rng, cov_type, d):
        # With cov_b None the kernel is the log-density at mu_b, the data
        # side's emission term: (4, 1) points against (1, 3) Gaussians,
        # stacked as both estimators stack them, broadcast to (4, 3).
        gaussians = [random_gaussian(rng, d, cov_type) for _ in range(3)]
        means, covs = (np.stack(a)[None] for a in zip(*gaussians))
        points = rng.normal(0.0, 2.0, size=(4, 1, d))
        expected = [
            [multivariate_normal.logpdf(point[0], mean, as_matrix(cov)) for mean, cov in gaussians]
            for point in points
        ]
        got = _cross_terms(points, None, means, covs)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("cov_type", ["diag", "full"])
    def test_spread_adds_only_the_trace(self, rng, cov_type):
        # E_{y ~ N(m_b, S_b)} log N(y; m_r, S_r) - log N(m_b; m_r, S_r)
        # = -1/2 tr(S_r^-1 S_b).
        for d in (1, 2, 3, 9):
            base, reduced = (random_gaussian(rng, d, cov_type) for _ in range(2))
            spread = cross(base, reduced) - cross((base[0], None), reduced)
            trace = np.trace(np.linalg.solve(as_matrix(reduced[1]), as_matrix(base[1])))
            assert spread == pytest.approx(-0.5 * trace, rel=1e-12, abs=1e-12)

    def test_dimension_mismatch(self):
        # The pair entry points check dimensions before the kernel broadcasts.
        narrow = one_state(([1.0], [[0.0]], [[1.0]]))
        wide = one_state(([1.0], [[0.0, 0.0]], [[1.0, 1.0]]))
        for pair_entry in (estep_pair, elhmm_bruteforce):
            with pytest.raises(InvalidModelError, match="dimension mismatch"):
                pair_entry(narrow, wide, 1)

    def test_mutated_non_pd_reduced_rejected(self):
        with pytest.raises(InvalidModelError) as info:
            one_state(mixture([1.0], [([0.0], [-1.0])]))
        assert str(info.value) == (
            "state 0, mixture component 0: diagonal cov has non-positive variances"
        )

    @pytest.mark.parametrize("layouts", [("diag", "diag"), ("full", "full")])
    def test_table_matches_pairs(self, rng, layouts):
        base = random_gmm(rng, n_mix=3, dim=3, cov_type=layouts[0])
        reduced = random_gmm(rng, n_mix=2, dim=3, cov_type=layouts[1])
        expected = [[cross(gb, gr) for gr in zip(*reduced[1:])] for gb in zip(*base[1:])]
        np.testing.assert_allclose(table(base, reduced), expected, rtol=0, atol=1e-12)

    def test_table_rejects_non_pd_reduced(self, rng):
        base = random_gmm(rng, n_mix=2, dim=2, cov_type="full")
        reduced = random_gmm(rng, n_mix=2, dim=2, cov_type="full")
        reduced[2][1] = [[1.0, 2.0], [2.0, 1.0]]
        with pytest.raises(InvalidModelError) as info:
            one_state(reduced)
        assert str(info.value) == "state 0, mixture component 1: full cov is not positive definite"

    @pytest.mark.parametrize(
        "base, reduced, message",
        [
            (mixture([1.0, 1.0], [UNIT, ([1.0], [1.0])]), mixture([1.0], [UNIT]),
             "mixture weights of state 0 sums to 2.0, expected 1 within 1e-12"),
            (mixture([1.0], [UNIT]), mixture([0.5, 0.5], [([np.nan], [1.0]), UNIT]),
             "state 0, mixture component 0: mean contains non-finite entries"),
            (mixture([0.5, 0.5], [UNIT, ([0.0], [-1.0])]), mixture([1.0], [UNIT]),
             "state 0, mixture component 1: diagonal cov has non-positive variances"),
            (mixture([1.0], [UNIT]), mixture([1.0], [([0.0, 0.0], [1.0, 1.0])]),
             "dimension mismatch: base d=1, reduced d=2"),
            (mixture([1.0], [([0.0, 0.0], [1.0, 1.0])]),
             mixture([1.0], [([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])]),
             "covariance layout mismatch: base diagonal, reduced full"),
        ],
        ids=["weights-sum-to-2", "nan-mean", "negative-base-variance", "dimension", "layout"],
    )
    def test_mixture_bound_checks_its_inputs(self, base, reduced, message):
        # The kernel checks nothing: a mixture enters the oracle's state-pair
        # bounds as a model's state, checked when the model is built, naming
        # the state and its component; then the oracle checks the pair.
        with pytest.raises(InvalidModelError) as info:
            elhmm_bruteforce(one_state(base), one_state(reduced), 1)
        assert str(info.value) == message


class TestGmmResponsibilities:
    """The emission matching eta of estep_pair on one-state HMMs."""

    def test_single_reduced_component(self, rng):
        base = random_gmm(rng, n_mix=3)
        reduced = random_gmm(rng, n_mix=1)
        np.testing.assert_allclose(matching(base, reduced), np.ones((3, 1)))

    def test_equidistant_symmetry(self):
        base = mixture([1.0], [([0.0], [1.0])])
        reduced = mixture([0.5, 0.5], [([-2.0], [1.0]), ([2.0], [1.0])])
        np.testing.assert_allclose(matching(base, reduced), [[0.5, 0.5]], atol=1e-12)

    def test_separated_pair_sigmoid(self):
        # Scalar re-derivation: both reduced components have unit variance, so
        # the log-odds reduce to the difference of quadratic terms, here 8.
        base = mixture([1.0], [([0.0], [1.0])])
        reduced = mixture([0.5, 0.5], [([0.0], [1.0]), ([4.0], [1.0])])
        delta = 0.5 * 4.0**2
        expected_first = 1.0 / (1.0 + math.exp(-delta))
        eta = matching(base, reduced)
        np.testing.assert_allclose(eta, [[expected_first, 1.0 - expected_first]], atol=1e-12)
        assert eta[0, 0] == pytest.approx(0.99966, abs=1e-5)

    def test_rows_are_distributions(self, rng):
        for _ in range(10):
            base = random_gmm(rng, n_mix=3, dim=2)
            reduced = random_gmm(rng, n_mix=2, dim=2)
            eta = matching(base, reduced)
            np.testing.assert_allclose(eta.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(eta >= 0)


class TestGmmBounds:
    def test_single_component_equals_gaussian(self, rng):
        gb = random_gaussian(rng)
        gr = random_gaussian(rng)
        expected = cross(gb, gr)
        value = mixture_bound(mixture([1.0], [gb]), mixture([1.0], [gr]))
        assert value == pytest.approx(expected, abs=1e-12)

    def test_bound_at_optimum_equals_opt(self, rng):
        for _ in range(20):
            base = random_gmm(rng, n_mix=3, dim=2)
            reduced = random_gmm(rng, n_mix=2, dim=2)
            eta = matching(base, reduced)
            assert matching_bound(base, reduced, eta) == pytest.approx(
                mixture_bound(base, reduced), abs=1e-10
            )

    def test_suboptimal_eta_below_opt(self, rng):
        for _ in range(20):
            base = random_gmm(rng, n_mix=3)
            reduced = random_gmm(rng, n_mix=3)
            opt = mixture_bound(base, reduced)
            uniform = np.full((3, 3), 1.0 / 3.0)
            assert matching_bound(base, reduced, uniform) <= opt + 1e-10
            random_eta = np.stack([rng.dirichlet(np.ones(3)) for _ in range(3)])
            assert matching_bound(base, reduced, random_eta) <= opt + 1e-10

    def test_well_separated_self_pair(self):
        # Far-apart components make the matching one-hot, so the bound
        # approaches the weighted sum of within-pair terms plus log-weights.
        weights = [0.3, 0.7]
        comps = [([-50.0], [1.0]), ([50.0], [1.0])]
        gmm = mixture(weights, comps)
        expected = sum(w * (math.log(w) + cross(c, c)) for w, c in zip(weights, comps))
        assert mixture_bound(gmm, gmm) == pytest.approx(expected, abs=1e-9)

    def test_opt_below_monte_carlo(self, rng):
        held = 0
        for case in range(50):
            base = random_gmm(rng, n_mix=int(rng.integers(1, 4)), dim=int(rng.integers(1, 3)))
            reduced = random_gmm(
                rng, n_mix=int(rng.integers(1, 4)), dim=base[1].shape[1]
            )
            value = mixture_bound(base, reduced)
            draws, _ = sample_batch(one_state(base), 1, 10**5, rng)
            lls = forward_loglik_batch(one_state(reduced), draws)
            stderr = lls.std(ddof=1) / np.sqrt(lls.size)
            if value <= lls.mean() + 3 * stderr:
                held += 1
        assert held >= 49

    def test_opt_invariant_under_reduced_permutation(self, rng):
        base = random_gmm(rng, n_mix=2, dim=2)
        reduced = random_gmm(rng, n_mix=3, dim=2)
        permuted = tuple(a[[2, 0, 1]] for a in reduced)
        assert mixture_bound(base, reduced) == pytest.approx(
            mixture_bound(base, permuted), abs=1e-12
        )


class TestSolvers:
    """The stage softmaxes of the enumeration oracle ``elhmm_bruteforce``,
    seen through its value, which the E-step matches."""

    def test_softmax_log_no_overflow(self):
        # Every state pair's bound is about -5e5: shifted by their maximum,
        # the stage softmaxes neither underflow to 0/0 nor lose the gap.
        base = one_state(mixture([1.0], [UNIT]))
        reduced = Hmm([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], [[1.0], [1.0]],
                      [[[1000.0]], [[1001.0]]], [[[1.0]], [[1.0]]])
        value = elhmm_bruteforce(base, reduced, 3)
        assert value < -1e6
        assert value == pytest.approx(estep_pair(base, reduced, 3).objective, rel=1e-12)

    def test_softmax_log_neg_inf_mass(self):
        # A zero transition is a -inf logit, whose reduced state gets no mass:
        # the enumeration stays finite. A stage row of -inf logits only (the
        # base state's bound against every reduced state overflowed) is
        # degenerate.
        base = one_state(mixture([1.0], [UNIT]))
        left_to_right = Hmm([1.0, 0.0], [[0.5, 0.5], [0.0, 1.0]], [[1.0], [1.0]],
                            [[[0.0]], [[1.0]]], [[[1.0]], [[1.0]]])
        value = elhmm_bruteforce(base, left_to_right, 3)
        assert value == pytest.approx(estep_pair(base, left_to_right, 3).objective, abs=1e-9)
        far = one_state(mixture([1.0], [([1e150], [1.0])]))
        narrow = one_state(mixture([1.0], [([0.5], [1e-10])]))
        with pytest.raises(DegenerateWeightsError, match="all log-weights are -inf"):
            elhmm_bruteforce(far, narrow, 2)


class TestLogsumexp:
    def test_all_neg_inf_slice_gives_neg_inf_without_warning(self):
        a = np.array([[-np.inf, -np.inf], [0.0, -np.inf], [np.log(2.0), np.log(3.0)]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = logsumexp(a, axis=1)
            whole = logsumexp(np.full((2, 3), -np.inf))
        assert not np.any(np.isnan(out))
        assert out[0] == -np.inf and out[1] == 0.0
        assert out[2] == pytest.approx(np.log(5.0), abs=1e-15)
        assert whole == -np.inf

    def test_matches_direct_formula(self, rng):
        cases = [((7,), None), ((4, 5), 0), ((4, 5), 1), ((3, 4, 5), (1, 2)), ((3, 4, 5), -1)]
        for shape, axis in cases:
            for _ in range(5):
                a = rng.normal(scale=5.0, size=shape)
                expected = np.log(np.sum(np.exp(a), axis=axis))
                np.testing.assert_allclose(logsumexp(a, axis=axis), expected, rtol=0, atol=1e-12)

    def test_tuple_axis_with_keepdims(self, rng):
        a = rng.normal(size=(3, 4, 5))
        out = logsumexp(a, axis=(1, 2), keepdims=True)
        assert out.shape == (3, 1, 1)
        np.testing.assert_allclose(
            out[:, 0, 0], [np.log(np.sum(np.exp(row))) for row in a], rtol=0, atol=1e-12
        )
        assert logsumexp(a, axis=1, keepdims=True).shape == (3, 1, 5)

    def test_bit_identical_to_the_masked_formula(self, rng):
        # The formula that shifts every slice, with non-finite maxima set to 0.
        def reference(a, axis=None, keepdims=False):
            a = np.asarray(a, dtype=float)
            hi = np.amax(a, axis=axis, keepdims=True)
            hi[~np.isfinite(hi)] = 0.0
            with np.errstate(divide="ignore"):
                out = np.log(np.sum(np.exp(a - hi), axis=axis, keepdims=keepdims))
            return out + (hi if keepdims else hi.reshape(np.shape(out)))

        a = rng.normal(scale=30.0, size=(4, 5, 6))
        a[0, 1] = -np.inf  # an all -inf slice along the last axis
        a[1, 2, 3], a[2, 0, 1], a[3, 4, 0] = np.inf, np.nan, 1e308
        a[3, 3, :2] = 1e308
        cases = [(rng.normal(size=(3, 3, 3)), 2), (a, None), (a, 0), (a, 2), (a, -1), (a, (0, 2))]
        for x, axis in cases:
            for keepdims in (False, True):
                # Same values, and the same warnings (exp overflows where +inf is shifted by 0).
                with warnings.catch_warnings(record=True) as got_warnings:
                    warnings.simplefilter("always")
                    got = logsumexp(x, axis=axis, keepdims=keepdims)
                with warnings.catch_warnings(record=True) as want_warnings:
                    warnings.simplefilter("always")
                    want = reference(x, axis=axis, keepdims=keepdims)
                assert [str(w.message) for w in got_warnings] == [
                    str(w.message) for w in want_warnings
                ]
                assert np.shape(got) == np.shape(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert logsumexp(3.0) == 3.0 and logsumexp(-np.inf) == -np.inf

    def test_no_overflow(self):
        assert logsumexp([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2.0), abs=1e-12)

    def test_library_imports_without_scipy(self):
        src = str(Path(h3mkit.__file__).resolve().parents[1])
        code = "import sys; sys.modules['scipy'] = None; import h3mkit, h3mkit.cli"
        done = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
