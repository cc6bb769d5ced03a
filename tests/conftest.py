"""Shared random-model builders and oracles for the test suite.

The oracles (``mixture_bound``, ``estep_pair``, ``elhmm_bruteforce``,
``state_marginals``, ``best_label_accuracy``) live here rather than in the
library, which never calls them: a change to one shows in the test diff.
"""

import itertools
import math
from dataclasses import fields

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from h3mkit import DegenerateWeightsError, H3m, Hmm
from h3mkit.gaussians import _check_pair, _cross_terms, logsumexp
from h3mkit.hierarchy import _contingency
from h3mkit.hmm import _check_counts, _stack
from h3mkit.reduction import PairEstepResult, _estep


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


def estep_pair(base_i: Hmm, reduced_j: Hmm, tau: int) -> PairEstepResult:
    """Optimal factored coupling between one base and one reduced component,
    and the resulting expected log-likelihood bound for sequences of length
    tau: the one-pair slice of the E-step over all pairs."""
    _check_pair((base_i.means, base_i.covs), (reduced_j.means, reduced_j.covs))
    _check_counts(tau=tau)
    batch = _estep(_stack([base_i]), _stack([reduced_j]), tau)
    return PairEstepResult(*(getattr(batch, f.name)[0, 0] for f in fields(batch)))


def elhmm_bruteforce(base_i: Hmm, reduced_j: Hmm, tau: int) -> float:
    """Exhaustive-enumeration value of the pair objective, for verification.

    Builds the coupling tables stage by stage, each stage one softmax over
    the reduced state in log domain, then evaluates the objective by brute
    force over every pair of base and reduced state sequences. Guarded to
    (N_b * N_r)^tau <= 10^6.
    """
    _check_pair((base_i.means, base_i.covs), (reduced_j.means, reduced_j.covs))
    _check_counts(tau=tau)
    n_b, n_r = base_i.n_states, reduced_j.n_states
    if (n_b * n_r) ** tau > 10**6:
        raise ValueError(f"enumeration over ({n_b}*{n_r})^{tau} sequences is too large")
    # ell[beta, rho], the Hershey-Olsen bound between the two states' mixtures:
    # sum_m c_b[m] log sum_l c_r[l] exp(table[beta, rho, m, l]).
    table = _cross_terms(
        base_i.means[:, None, :, None],
        base_i.covs[:, None, :, None],
        reduced_j.means[None, :, None],
        reduced_j.covs[None, :, None],
    )
    with np.errstate(divide="ignore"):
        norm = logsumexp(np.log(reduced_j.mix_weights)[None, :, None, :] + table, axis=3)
    ell = np.array([[c_b @ row for row in rows] for c_b, rows in zip(base_i.mix_weights, norm)])
    pi_b = base_i.initial
    a_b = base_i.transitions
    log = np.vectorize(lambda x: math.log(x) if x > 0 else -math.inf, otypes=[float])
    log_pi_r = log(reduced_j.initial)
    log_a_r = log(reduced_j.transitions)

    def softmax(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The softmax over the last axis and its log normalizers."""
        values = logsumexp(logits, axis=-1)
        if (values == -np.inf).any():
            raise DegenerateWeightsError("all log-weights are -inf")
        probs = np.exp(logits - values[..., None])
        return probs / probs.sum(axis=-1, keepdims=True), values

    # Stage tables: logits[rho_prev, beta, rho] at each step, backward.
    future = np.zeros((n_b, n_r))
    steps: list[np.ndarray] = []
    for t in range(tau, 1, -1):
        probs, values = softmax(log_a_r[:, None, :] + ell + future)
        steps.insert(0, probs.transpose(0, 2, 1))
        future = np.array(
            [[sum(a * v for a, v in zip(row, value_row)) for value_row in values] for row in a_b]
        )
    phi1 = softmax(log_pi_r + ell + future)[0].T

    # Brute-force objective over all explicit sequence pairs.
    total = 0.0
    for beta_seq in itertools.product(range(n_b), repeat=tau):
        weight = pi_b[beta_seq[0]]
        for t in range(1, tau):
            weight *= a_b[beta_seq[t - 1], beta_seq[t]]
        if weight == 0.0:
            continue
        for rho_seq in itertools.product(range(n_r), repeat=tau):
            phi = phi1[rho_seq[0], beta_seq[0]]
            for t in range(1, tau):
                phi *= steps[t - 1][rho_seq[t - 1], rho_seq[t], beta_seq[t]]
            if phi == 0.0:
                continue
            log_prior = log_pi_r[rho_seq[0]]
            for t in range(1, tau):
                log_prior += log_a_r[rho_seq[t - 1], rho_seq[t]]
            ell_sum = sum(ell[beta_seq[t], rho_seq[t]] for t in range(tau))
            total += weight * phi * (log_prior + ell_sum - math.log(phi))
    return total


def state_marginals(model: Hmm, tau: int) -> np.ndarray:
    """Prior state-occupancy P(x_t = state) for t = 1..tau, shape (tau, N)."""
    _check_counts(tau=tau)
    rows = np.empty((tau, model.n_states))
    rows[0] = model.initial
    for t in range(1, tau):
        rows[t] = rows[t - 1] @ model.transitions
    return rows


def best_label_accuracy(labels_true, labels_pred):
    """Classification accuracy maximized over relabelings of the prediction:
    each predicted label is mapped to a distinct true label (or to none, when
    there are more predicted labels than true ones)."""
    table = _contingency(labels_true, labels_pred)
    rows, cols = linear_sum_assignment(table, maximize=True)
    return float(table[rows, cols].sum() / len(labels_true))


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
