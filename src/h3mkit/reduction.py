"""Variational reduction of an HMM mixture to a smaller one.

Given a base mixture with many components, estimate a reduced mixture whose
components act as cluster centers for groups of base components. No data is
touched: the expected log-likelihood of hypothetical ("virtual") sequences
from each base component replaces real observations, and the intractable
expectations are replaced by a factored variational lower bound that admits
closed-form coordinate updates:

- per state pair, a soft matching of emission components (eta),
- per component pair, a Markov-chain posterior over reduced state sequences
  conditioned on base state sequences (phi), computed by a log-domain
  backward recursion,
- per base component, a soft assignment to reduced components (z).

This is hierarchical EM: EM run on virtual samples from the base components
(Vasconcelos & Lippman 1999). Given the pair objectives, the rest of an
iteration is the mixture-EM step of ``h3m`` with the base components as items
and their virtual sample counts as counts: ``compute_assignments`` gives z
and the bound, sum_i log sum_j w_j exp(N_i * objective[i, j]), which is the
virtual-sample log-likelihood and does not decrease; ``mstep`` re-estimates
from per-base-component virtual statistics, weighted as ``h3m_em`` weights
real sequences; ``_converged`` stops the run. An exhaustive enumeration
oracle for the pair objective is included for verification.

Every step reads the models' parameter arrays; an iteration takes every pair
objective and the assignments before it builds any statistics. New models
come from ``Hmm.from_arrays``. No model is mutated, so a reduced component
may share arrays with the base component it was seeded or rescued from.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidModelError
from .gaussians import _cross_terms, gmm_expected_loglik_opt, logsumexp, solve_softmax_log
from .h3m import AssignmentMatrix, H3m, _converged, _starved, compute_assignments, mstep
from .hmm import Hmm, _Stats


@dataclass
class VhemConfig:
    """Knobs for one reduction run.

    ``n_virtual`` is the total virtual sample mass; each base component i
    carries a share proportional to its weight. None picks 10^4 times the
    number of base components. ``tau_virtual`` is the length of the virtual
    sequences, which need not match any real data length. ``init`` is
    "subset-perturb", "random", or an ``H3m`` to start from.
    """

    k_reduced: int
    n_virtual: int | None = None
    tau_virtual: int = 10
    max_iters: int = 100
    tol: float = 1e-6
    init: str | H3m = "subset-perturb"
    cov_floor: float = 1e-6
    seed: int = 0
    n_restarts: int = 1

    def __post_init__(self) -> None:
        if self.k_reduced < 1:
            raise ValueError("k_reduced must be >= 1")
        if self.tau_virtual < 1:
            raise ValueError("tau_virtual must be >= 1")
        if self.n_virtual is not None and self.n_virtual < 1:
            raise ValueError("n_virtual must be >= 1")
        if not isinstance(self.init, H3m) and self.init not in ("subset-perturb", "random"):
            raise ValueError(f"unknown init {self.init!r}")
        if self.max_iters < 1 or self.tol < 0 or self.cov_floor <= 0 or self.n_restarts < 1:
            raise ValueError(
                "max_iters >= 1, tol >= 0, cov_floor > 0 and n_restarts >= 1 required"
            )


@dataclass
class PairEstepResult:
    """Variational quantities for one (base component, reduced component) pair.

    eta[beta, rho] is the emission matching matrix for base state beta and
    reduced state rho. phi_initial[rho, beta] couples states at the first
    step (columns are distributions over rho); phi_step[t-2, rho_prev, rho,
    beta] couples consecutive reduced states given the base state at step t
    (axis 1 is the distribution). state_ell[beta, rho] is the per-step
    expected log-likelihood bound between the two states' emission mixtures,
    and objective is the pair's overall expected log-likelihood bound.
    """

    eta: np.ndarray  # (N_b, N_r, M_b, M_r)
    phi_initial: np.ndarray  # (N_r, N_b)
    phi_step: np.ndarray  # (tau - 1, N_r, N_r, N_b)
    state_ell: np.ndarray  # (N_b, N_r)
    objective: float


@dataclass
class SummaryStats:
    """Expected occupancy and transition counts of a reduced component when
    modeling one base component's output.

    nu_agg[sigma, gamma]   co-occupancy of reduced state sigma and base state
                           gamma, summed over all steps;
    nu1_agg[sigma]         expected count of starting in reduced state sigma;
    xi_agg[rho, sigma]     expected count of reduced transitions rho -> sigma;
    nu_per_step[t]         per-step co-occupancy, kept for consistency checks.
    """

    nu_agg: np.ndarray
    nu1_agg: np.ndarray
    xi_agg: np.ndarray
    nu_per_step: np.ndarray  # (tau, N_r, N_b)


@dataclass
class ReductionResult:
    reduced: H3m
    assignments: AssignmentMatrix
    bound_history: list[float]
    hard_labels: np.ndarray  # base component -> reduced component
    rescues: int = 0
    effective_k: int = 0


# ---------------------------------------------------------------------------
# E-step for one pair


def estep_pair(base_i: Hmm, reduced_j: Hmm, tau: int) -> PairEstepResult:
    """Optimal factored coupling between one base and one reduced component,
    and the resulting expected log-likelihood bound for sequences of length
    tau. All recursion arithmetic is in log domain."""
    if base_i.dim != reduced_j.dim:
        raise InvalidModelError(
            f"dimension mismatch: base d={base_i.dim}, reduced d={reduced_j.dim}"
        )
    if tau < 1:
        raise ValueError("tau must be >= 1")
    n_b, n_r = base_i.n_states, reduced_j.n_states
    # Emission matching over (N_b, N_r, M_b, M_r): eta is the softmax over l of
    # log c_r[l] + table, and ell the c_b-weighted sum of its normalizers, one
    # dot product per state pair as gmm_expected_loglik_opt takes it.
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

    # A state pair whose expected log-likelihood overflowed has an all -inf
    # softmax row: its eta is 0 and its ell -inf, so phi gives it no weight
    # while the objective is finite (a non-finite one compute_assignments rejects).
    with np.errstate(invalid="ignore"):
        norm = logsumexp(logits, axis=3)
        eta = np.exp(logits - np.where(norm == -np.inf, 0.0, norm)[..., None])
        ell = (norm[..., None, :] @ base_i.mix_weights[:, None, :, None])[..., 0, 0]

        # Backward over steps: future[beta, rho] carries the expected optimized
        # contribution of all later steps given the state pair at this step.
        future = np.zeros((n_b, n_r))
        phi_step = np.empty((tau - 1, n_r, n_r, n_b))
        for t in range(tau, 1, -1):
            core = ell + future  # (N_b, N_r)
            scores = log_a_r[:, None, :] + core[None, :, :]  # (rho_prev, beta, rho)
            norm = logsumexp(scores, axis=2)
            phi_step[t - 2] = np.exp(scores - norm[:, :, None]).transpose(0, 2, 1)
            future = base_i.transitions @ norm.T  # (beta_prev, rho_prev)

        scores1 = log_pi_r[None, :] + ell + future  # (beta, rho)
        norm1 = logsumexp(scores1, axis=1)
        phi_initial = np.exp(scores1 - norm1[:, None]).T
    objective = float(base_i.initial @ norm1)
    return PairEstepResult(
        eta=eta,
        phi_initial=phi_initial,
        phi_step=phi_step,
        state_ell=ell,
        objective=objective,
    )


def elhmm_bruteforce(base_i: Hmm, reduced_j: Hmm, tau: int) -> float:
    """Exhaustive-enumeration value of the pair objective, for verification.

    Builds the coupling tables stage by stage with scalar softmax solves,
    then evaluates the objective by brute force over every pair of base and
    reduced state sequences. Guarded to (N_b * N_r)^tau <= 10^6.
    """
    n_b, n_r = base_i.n_states, reduced_j.n_states
    if (n_b * n_r) ** tau > 10**6:
        raise ValueError(f"enumeration over ({n_b}*{n_r})^{tau} sequences is too large")
    ell = np.empty((n_b, n_r))
    for beta in range(n_b):
        for rho in range(n_r):
            ell[beta, rho] = gmm_expected_loglik_opt(
                base_i.emissions[beta], reduced_j.emissions[rho]
            )
    pi_b = base_i.initial
    a_b = base_i.transitions
    pi_r = reduced_j.initial
    a_r = reduced_j.transitions

    def safe_log(x: float) -> float:
        return math.log(x) if x > 0 else -math.inf

    # Stage tables, scalar path.
    future = [[0.0] * n_r for _ in range(n_b)]
    steps: list[np.ndarray] = []
    for t in range(tau, 1, -1):
        table = np.empty((n_r, n_r, n_b))
        values = np.empty((n_r, n_b))
        for rho_prev in range(n_r):
            for beta in range(n_b):
                logits = np.array(
                    [
                        safe_log(a_r[rho_prev, rho]) + ell[beta, rho] + future[beta][rho]
                        for rho in range(n_r)
                    ]
                )
                probs, value = solve_softmax_log(logits)
                table[rho_prev, :, beta] = probs
                values[rho_prev, beta] = value
        steps.insert(0, table)
        future = [
            [
                sum(a_b[beta_prev, beta] * values[rho_prev, beta] for beta in range(n_b))
                for rho_prev in range(n_r)
            ]
            for beta_prev in range(n_b)
        ]
    phi1 = np.empty((n_r, n_b))
    for beta in range(n_b):
        logits = np.array(
            [safe_log(pi_r[rho]) + ell[beta, rho] + future[beta][rho] for rho in range(n_r)]
        )
        probs, _ = solve_softmax_log(logits)
        phi1[:, beta] = probs

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
            log_prior = safe_log(pi_r[rho_seq[0]])
            for t in range(1, tau):
                log_prior += safe_log(a_r[rho_seq[t - 1], rho_seq[t]])
            ell_sum = sum(ell[beta_seq[t], rho_seq[t]] for t in range(tau))
            total += weight * phi * (log_prior + ell_sum - math.log(phi))
    return total


# ---------------------------------------------------------------------------
# Summary statistics and the M-step input


def summary_stats(base_i: Hmm, pair: PairEstepResult) -> SummaryStats:
    """Expected reduced-state occupancy and transition counts implied by the
    coupling of ``pair``, accumulated forward over steps."""
    tau = pair.phi_step.shape[0] + 1
    nu_1 = pair.phi_initial * base_i.initial[None, :]  # (N_r, N_b)
    nu_per_step = np.empty((tau,) + nu_1.shape)
    nu_per_step[0] = nu_1
    xi_agg = np.zeros((nu_1.shape[0], nu_1.shape[0]))
    nu = nu_1
    for t in range(2, tau + 1):
        reach = nu @ base_i.transitions  # (rho, gamma)
        xi_t = reach[:, None, :] * pair.phi_step[t - 2]  # (rho, sigma, gamma)
        nu = xi_t.sum(axis=0)
        nu_per_step[t - 1] = nu
        xi_agg += xi_t.sum(axis=2)
    return SummaryStats(
        nu_agg=nu_per_step.sum(axis=0),
        nu1_agg=nu_1.sum(axis=1),
        xi_agg=xi_agg,
        nu_per_step=nu_per_step,
    )


def _virtual_stats(base_i: Hmm, pair: PairEstepResult) -> _Stats:
    """What ``hmm._expected_stats`` collects from one real sequence, for one
    virtual sequence of base component i under the coupling ``pair``
    (leading axis of length 1)."""
    stats = summary_stats(base_i, pair)
    c_b, mu_b, cov_b = base_i.mix_weights, base_i.means, base_i.covs
    # resp[beta, rho, m, l]: expected count of base emission (beta, m)
    # modeled by reduced emission (rho, l).
    resp = stats.nu_agg.T[:, :, None, None] * c_b[:, None, :, None] * pair.eta
    if cov_b.ndim == 3:
        second = cov_b + mu_b * mu_b
    else:
        second = cov_b + mu_b[..., :, None] * mu_b[..., None, :]
    return _Stats(
        pi=stats.nu1_agg[None],
        trans=stats.xi_agg[None],
        mix=resp.sum(axis=(0, 2))[None],
        mean=np.einsum("brml,bmd->rld", resp, mu_b)[None],
        sq=np.einsum("brml,bm...->rl...", resp, second)[None],
    )


# ---------------------------------------------------------------------------
# Initialization and driver


def _perturb_means(hmm: Hmm, rng: np.random.Generator, scale: float = 0.01) -> Hmm:
    means = hmm.means * (1.0 + rng.uniform(-scale, scale, size=hmm.means.shape))
    return Hmm.from_arrays(hmm.initial, hmm.transitions, hmm.mix_weights, means, hmm.covs)


def _init_reduced(base: H3m, config: VhemConfig, rng: np.random.Generator) -> H3m:
    k_r = config.k_reduced
    if isinstance(config.init, H3m):
        model = config.init
        if (
            model.n_components != k_r
            or model.dim != base.dim
            or model.components[0].covs.ndim != base.components[0].covs.ndim
        ):
            raise InvalidModelError(
                "provided initial model does not match k_reduced, base dimension"
                " or base covariance layout"
            )
        return model
    if config.init == "subset-perturb":
        idx = rng.choice(base.n_components, size=k_r, replace=False, p=base.weights)
        components = [_perturb_means(base.components[i], rng) for i in idx]
        return H3m(np.full(k_r, 1.0 / k_r), components)
    # "random": fresh stochastic vectors; means drawn from the pool of base
    # means with a multiplicative jitter, covariances averaged over the base.
    n, m, d = base.n_states, base.n_mix, base.dim
    all_means = np.concatenate([hmm.means for hmm in base.components]).reshape(-1, d)
    all_covs = np.concatenate([hmm.covs for hmm in base.components])
    cov_avg = all_covs.reshape(-1, *all_covs.shape[2:]).mean(axis=0)
    covs = np.broadcast_to(cov_avg, (n, m) + cov_avg.shape)
    components = []
    for _ in range(k_r):
        initial = rng.dirichlet(np.ones(n))
        transitions = rng.dirichlet(np.ones(n), size=n)
        mix_weights = np.empty((n, m))
        means = np.empty((n, m, d))
        for state in range(n):
            mix_weights[state] = rng.dirichlet(np.full(m, 5.0))
            for comp in range(m):
                mean = all_means[rng.integers(all_means.shape[0])]
                means[state, comp] = mean * (1.0 + rng.uniform(-0.1, 0.1, size=d))
        components.append(Hmm.from_arrays(initial, transitions, mix_weights, means, covs))
    return H3m(np.full(k_r, 1.0 / k_r), components)


def vhem_reduce(base: H3m, config: VhemConfig) -> ReductionResult:
    """Reduce ``base`` to ``config.k_reduced`` components.

    Alternates the coupling/assignment updates with parameter re-estimation
    until the bound changes by less than ``config.tol`` (relative,
    ``h3m._converged``) or ``config.max_iters`` E-steps have run.
    Deterministic given ``config.seed``. A starved reduced component
    (``h3m._starved``) is re-initialized from the base component with
    the worst objective, at most twice per run; afterwards the run continues
    with the smaller effective component count, which is reported. With
    ``config.n_restarts`` > 1, several independently seeded runs compete and
    the one with the best final bound is returned.
    """
    k_b = base.n_components
    if config.k_reduced > k_b:
        raise InvalidModelError(
            f"k_reduced={config.k_reduced} exceeds base component count {k_b}"
        )
    if config.n_restarts > 1:
        best: ReductionResult | None = None
        for restart in range(config.n_restarts):
            result = _reduce_once(base, config, np.random.default_rng([config.seed, restart]))
            if best is None or result.bound_history[-1] > best.bound_history[-1]:
                best = result
        return best
    return _reduce_once(base, config, np.random.default_rng(config.seed))


def _reduce_once(base: H3m, config: VhemConfig, rng: np.random.Generator) -> ReductionResult:
    n_virtual = config.n_virtual if config.n_virtual is not None else 10_000 * base.n_components
    virtual_counts = n_virtual * base.weights
    reduced = _init_reduced(base, config, rng)
    tau = config.tau_virtual

    bound_history: list[float] = []
    rescues = 0
    for _ in range(config.max_iters):
        pairs = [[estep_pair(b, r, tau) for r in reduced.components] for b in base.components]
        objectives = np.array([[pair.objective for pair in row] for row in pairs])
        z, norms = compute_assignments(objectives, reduced.weights, virtual_counts)
        bound_history.append(float(np.sum(norms)))
        if _converged(bound_history, config.tol) or len(bound_history) == config.max_iters:
            break  # no M-step follows, so no statistics
        stats = [
            _Stats.concatenate(list(map(_virtual_stats, base.components, column)))
            for column in zip(*pairs)
        ]
        del pairs  # release the couplings before the next E-step builds its own
        new_model, starved = mstep(
            base.weights, z, stats, virtual_counts, reduced, config.cov_floor
        )
        if starved:
            weights = new_model.weights.copy()
            components = list(new_model.components)
            for j in starved:
                if rescues >= 2:
                    continue
                worst = int(np.argmin(objectives.max(axis=1)))
                components[j] = base.components[worst]
                weights[j] = 1.0 / config.k_reduced
                rescues += 1
            weights = weights / weights.sum()
            new_model = H3m(weights, components)
        reduced = new_model

    return ReductionResult(
        reduced=reduced,
        assignments=z,
        bound_history=bound_history,
        hard_labels=np.argmax(z.z, axis=1),
        rescues=rescues,
        effective_k=config.k_reduced - len(_starved(z, virtual_counts)),
    )
