"""Shared random-model builders for the test suite."""

import itertools

import numpy as np
import pytest

from h3mkit import H3m, Hmm
from h3mkit.gaussians import _cross_terms, logsumexp


def random_gaussian(rng, dim=1, cov_type="diag", mean_scale=2.0):
    """A random Gaussian as (mean (d,), cov): variances (d,) or a (d, d) matrix."""
    mean = rng.normal(0.0, mean_scale, size=dim)
    if cov_type == "diag":
        return mean, rng.uniform(0.5, 2.0, size=dim)
    root = rng.normal(0.0, 0.5, size=(dim, dim))
    return mean, root @ root.T + np.eye(dim)


def random_gmm(rng, n_mix=2, dim=1, cov_type="diag", mean_scale=2.0):
    """A random Gaussian mixture as (weights (M,), means (M, d), covs) arrays."""
    means, covs = zip(*(random_gaussian(rng, dim, cov_type, mean_scale) for _ in range(n_mix)))
    return rng.dirichlet(np.ones(n_mix)), np.stack(means), np.stack(covs)


def mixture_bound(base, reduced):
    """The Hershey-Olsen bound on E over y ~ base of log reduced(y), for two
    (weights, means, covs) mixtures: sum_m c_b[m] log sum_l c_r[l] exp L(m, l),
    L(m, l) the expected log density of reduced component l under base component m."""
    (c_b, mu_b, cov_b), (c_r, mu_r, cov_r) = (
        [np.asarray(a, dtype=float) for a in mixture] for mixture in (base, reduced)
    )
    table = _cross_terms(mu_b[:, None], cov_b[:, None], mu_r[None], cov_r[None])
    return float(c_b @ logsumexp(np.log(c_r) + table, axis=1))


def random_hmm(rng, n_states=2, n_mix=1, dim=1, cov_type="diag", mean_scale=2.0):
    initial = rng.dirichlet(np.ones(n_states))
    transitions = np.stack([rng.dirichlet(np.ones(n_states)) for _ in range(n_states)])
    emissions = [random_gmm(rng, n_mix, dim, cov_type, mean_scale) for _ in range(n_states)]
    return Hmm(initial, transitions, *(np.stack(column) for column in zip(*emissions)))


def random_h3m(rng, k=3, n_states=2, n_mix=1, dim=1, cov_type="diag", mean_scale=2.0):
    components = [random_hmm(rng, n_states, n_mix, dim, cov_type, mean_scale) for _ in range(k)]
    return H3m(rng.dirichlet(np.ones(k)), components)


def occupancies(base_i, phi_initial, phi_step):
    """The forward occupancy recursion for one (base, reduced) pair under its
    coupling, step by step: nu_per_step[t, rho, beta] is the co-occupancy of
    reduced state rho and base state beta at step t + 1, xi_agg[rho, sigma]
    the expected count of reduced transitions rho -> sigma over all steps."""
    nu = phi_initial * base_i.initial[None, :]
    nu_per_step = [nu]
    xi_agg = np.zeros((nu.shape[0], nu.shape[0]))
    for step in phi_step:
        xi_t = (nu @ base_i.transitions)[:, None, :] * step
        nu = xi_t.sum(axis=0)
        nu_per_step.append(nu)
        xi_agg += xi_t.sum(axis=2)
    return np.array(nu_per_step), xi_agg


def align_means(reference, candidate):
    """Best permutation of candidate state means against the reference, by
    total squared distance; returns the aligned (N, M, d) mean array."""
    ref, cand = reference.means, candidate.means
    best, best_cost = None, np.inf
    for perm in itertools.permutations(range(cand.shape[0])):
        permuted = cand[list(perm)]
        cost = float(np.sum((permuted - ref) ** 2))
        if cost < best_cost:
            best, best_cost = permuted, cost
    return best


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
