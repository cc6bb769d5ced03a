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
(Vasconcelos & Lippman 1999). A run is the mixture-EM run ``h3m._em``
that ``h3m_em`` also runs, with the base components of positive weight as
items and their virtual sample counts as counts: ``compute_assignments``
gives z and the bound, sum_i log sum_j w_j exp(N_i * objective[i, j]), which
is the virtual-sample log-likelihood and does not decrease; ``mstep``
re-estimates from per-base-component virtual statistics, weighted as
``h3m_em`` weights real sequences, after ``_em``'s repairs; ``_converged``
stops the run. ``vhem_reduce`` hands ``_em`` only a start, the pass over the
blocks and the base components' rows for repairs. A base component of
weight 0 carries no virtual sample and is not an item: its assignment row
is the reduced weights.

An iteration reads the stacks the base and the reduced mixtures hold
(``H3m.arrays``) and is batched over (base i, reduced j) pairs, except the
phi recursion. It makes one pass (``_pass``) per block of base components,
each paired with every reduced component, sized so that no array of an
iteration grows with the number of base components: a block's largest array
stays within the 256 KB that the data-side passes also keep to
(``hmm._BLOCK_ELEMENTS``):

- emission matching: the data side's mixture step (``_mixture_terms``) over
  (I, J, N_b, N_r, M_b, M_r) gives the per-state-pair bound ell (and eta);
- phi: the backward recursion runs pair by pair, reading ell[i, j] and
  keeping every step's scores and normalizers in (I, J, ...) arrays, which
  one softmax per coupling turns into phi (a pass without statistics
  skips it);
- statistics, built when an M-step may follow and the block's objectives
  are finite: the forward recursion for the occupancies (nu, xi), which sums
  them over steps as it goes, and the virtual statistics over (I, J, ...),
  item-major as ``h3m_em`` hands its per-sequence statistics to ``mstep``:
  the data side's kernel (``_emission_stats``), each base emission a sample
  at its mean with second moment cov + ``_outer(mean)``.
  The couplings die with the pass; ``hmm._collect`` writes each block into
  the iteration's (I, J, ...) arrays, as it writes ``h3m_em``'s blocks.

A term that no weight reaches adds 0 to the bound (``_expect``) and to the
statistics, even where its value is -inf: a zero mixture weight, or a state
that the chain never enters, may hold any mean.

The kernels (``_mixture_terms``, ``_estep``, ``_virtual_stats_all``) check
nothing: their stacks were checked on entry, and ``gaussians._check_pair``
rejects a given start whose dimension or covariance layout differs from the
base's in ``_init_reduced``. No model is mutated: rescues write into a
fresh stack, and ``h3m._em`` floors the start and the rescued rows. The
layout of a covariance is ``gaussians._full``'s to decide: nothing here reads
a covariance's shape to tell a diagonal one from a full one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hmm
from .errors import InvalidModelError
from .gaussians import _check_pair, _emission_stats, _full, _mixture_terms, _outer
from .gaussians import _responsibilities, logsumexp
from .h3m import AssignmentMatrix, H3m, _best_start, _em, _starved
from .hmm import _check_arrays, _check_counts, _Checked, _collect, _Stacked, _Stats


@dataclass
class VhemConfig:
    """Knobs for one reduction run.

    ``n_virtual`` is the total virtual sample mass; each base component i
    carries a share proportional to its weight. None picks 10^4 times the
    number of base components with nonzero weight. ``tau_virtual`` is the
    length of the virtual sequences, which need not match any real data
    length. ``max_iters`` counts E-steps: a run makes at most max_iters - 1
    M-steps (``EmConfig.max_iters`` counts M-steps). ``init`` is
    "subset-perturb", "random", or an ``H3m`` to start from (floored by
    ``h3m._em``), which has the base's shape unless ``k_reduced`` is 1, so
    that a starved component can be rescued from a base component
    (``h3m._em``). ``n_starts`` counts competing seeded runs, as
    ``EmConfig.n_starts`` does.
    """

    k_reduced: int
    n_virtual: int | None = None
    tau_virtual: int = 10
    max_iters: int = 100
    tol: float = 1e-6
    init: str | H3m = "subset-perturb"
    cov_floor: float = 1e-6
    seed: int = 0
    n_starts: int = 1

    def __post_init__(self) -> None:
        _check_counts(k_reduced=self.k_reduced, tau_virtual=self.tau_virtual)
        hmm._check_shared(self)
        _check_counts(0, seed=self.seed)
        if self.n_virtual is not None and not 1 <= self.n_virtual < np.inf:
            raise ValueError(f"n_virtual must be >= 1 and finite, got {self.n_virtual!r}")
        if not isinstance(self.init, H3m) and self.init not in ("subset-perturb", "random"):
            raise ValueError(f"unknown init {self.init!r}")


@dataclass
class PairEstepResult:
    """Variational quantities of the E-step (``_estep``), for every (base
    component i, reduced component j) pair: each field carries leading (I, J)
    axes, which the shapes below omit.

    eta[beta, rho] is the emission matching matrix for base state beta and
    reduced state rho. phi_initial[rho, beta] couples states at the first
    step (columns are distributions over rho); phi_step[t-2, rho_prev, rho,
    beta] couples consecutive reduced states given the base state at step t
    (axis 1 is the distribution). state_ell[beta, rho] is the per-step
    expected log-likelihood bound between the two states' emission mixtures,
    and objective is the pair's overall expected log-likelihood bound.
    """

    eta: np.ndarray | None  # (N_b, N_r, M_b, M_r)
    phi_initial: np.ndarray | None  # (N_r, N_b)
    phi_step: np.ndarray | None  # (tau - 1, N_r, N_r, N_b)
    state_ell: np.ndarray  # (N_b, N_r)
    objective: np.ndarray  # ()


@dataclass
class ReductionResult:
    reduced: H3m
    assignments: AssignmentMatrix
    bound_history: list[float]
    rescues: int = 0
    effective_k: int = 0

    @property
    def hard_labels(self) -> np.ndarray:  # base component -> reduced component
        return np.argmax(self.assignments.z, axis=1)


# ---------------------------------------------------------------------------
# E-step over all pairs


def _estep(base: _Stacked, reduced: _Stacked, tau: int, couplings=True) -> PairEstepResult:
    """Optimal factored coupling between every base component i and every
    reduced component j, and the resulting expected log-likelihood bounds
    for sequences of length tau: each field of the result carries leading
    (I, J) axes, the objective is (I, J). Without ``couplings``, eta and phi
    are not built and come back None; the objective is the same bit for bit.

    Emission matching is one pass over (I, J, N_b, N_r, M_b, M_r); the
    backward recursion for phi runs pair by pair, in log domain."""
    # eta is the softmax over l of the mixture step's logits, and ell the c_b-weighted
    # sum of their normalizers (the Hershey-Olsen bound), one dot product per state pair.
    logits, mix_norm = _mixture_terms(
        reduced.mix_weights[None, :, None, :, None],
        base.means[:, None, :, None, :, None], base.covs[:, None, :, None, :, None],
        reduced.means[None, :, None, :, None], reduced.covs[None, :, None, :, None],
    )
    log_pi_r, log_a_r = hmm._log_chain(reduced)

    # A state pair whose expected log-likelihood overflowed has an all -inf
    # softmax row: its eta is 0 and its ell -inf, so phi gives it no weight
    # while the objective is finite (a non-finite one compute_assignments rejects).
    # Only where some ell is -inf can a log value the recursion weighs be -inf.
    ell = _expect(mix_norm[..., None, :], base.mix_weights[:, None, :, None, :, None])[..., 0, 0]
    expect = np.matmul if np.isfinite(ell).all() else _expect
    n_i, n_j, n_b, n_r = ell.shape
    # Each step's scores and normalizers, kept for one softmax over all steps.
    scores = np.empty((n_i, n_j, tau - 1, n_r, n_b, n_r))  # (..., rho_prev, beta, rho)
    norms = np.empty((n_i, n_j, tau - 1, n_r, n_b))
    scores1, norms1 = np.empty((n_i, n_j, n_b, n_r)), np.empty((n_i, n_j, n_b))
    objective = np.empty((n_i, n_j))
    for i, j in np.ndindex(n_i, n_j):
        # Backward over steps: future[beta, rho] carries the expected
        # optimized contribution of all later steps given the state pair
        # at this step.
        future = np.zeros((n_b, n_r))
        for t in range(tau, 1, -1):
            core = ell[i, j] + future  # (N_b, N_r)
            step = np.add(log_a_r[j][:, None, :], core[None, :, :], out=scores[i, j, t - 2])
            norm = norms[i, j, t - 2] = logsumexp(step, axis=2)
            future = expect(base.transitions[i], norm.T)  # (beta_prev, rho_prev)

        np.add(log_pi_r[j][None, :] + ell[i, j], future, out=scores1[i, j])  # (beta, rho)
        norm1 = norms1[i, j] = logsumexp(scores1[i, j], axis=1)
        objective[i, j] = expect(base.initial[i], norm1)
    if not couplings:
        return PairEstepResult(None, None, None, ell, objective)
    eta = _responsibilities(logits, mix_norm)
    phi_initial = np.ascontiguousarray(_responsibilities(scores1, norms1).swapaxes(-1, -2))
    phi_step = np.ascontiguousarray(_responsibilities(scores, norms).swapaxes(-1, -2))
    return PairEstepResult(eta, phi_initial, phi_step, ell, objective)


def _expect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for probabilities on one side and log values on the other, with
    0 * -inf taken as 0 (IEEE gives NaN): a term without probability adds 0,
    and one with probability and value -inf makes the sum -inf."""
    total = np.where(np.isneginf(a), 0.0, a) @ np.where(np.isneginf(b), 0.0, b)
    return np.where(np.isneginf(a) @ (b > 0) | (a > 0) @ np.isneginf(b), -np.inf, total)


# ---------------------------------------------------------------------------
# Virtual statistics: the M-step input


def _virtual_stats_all(base: _Stacked, estep: PairEstepResult) -> _Stats:
    """What ``hmm._expected_stats`` collects from one real sequence, for one
    virtual sequence of every base component i under its coupling with every
    reduced component j: item-major, every field with leading (I, J) axes.

    The occupancies come from the forward recursion over steps: nu[rho, gamma]
    is the co-occupancy of reduced state rho and base state gamma at a step,
    xi[rho, sigma] the expected reduced transitions rho -> sigma into it; both
    are summed as the recursion goes."""
    a_b, c_b = base.transitions[:, None], base.mix_weights[:, None, :, None, :, None]
    nu = estep.phi_initial * base.initial[:, None, None, :]  # (I, J, N_r, N_b)
    nu1_agg = nu.sum(axis=3)
    nu_agg = nu.copy()
    xi_agg = np.zeros(nu.shape[:3] + nu.shape[2:3])  # (I, J, N_r, N_r)
    for phi_t in np.moveaxis(estep.phi_step, 2, 0):
        reach = nu @ a_b  # (I, J, rho, gamma)
        xi_t = reach[..., :, None, :] * phi_t  # (I, J, rho, sigma, gamma)
        nu = xi_t.sum(axis=2)
        nu_agg += nu
        xi_agg += xi_t.sum(axis=4)

    # resp[i, j, beta, m, rho, l]: expected count of base emission (beta, m)
    # modeled by reduced emission (rho, l); each base emission is a sample.
    resp = nu_agg.swapaxes(2, 3)[..., None, None] * c_b * estep.eta
    resp = resp.swapaxes(3, 4).reshape(resp.shape[:2] + (-1,) + resp.shape[3::2])
    mu_b, cov_b = (a.reshape(a.shape[:1] + (-1,) + a.shape[3:]) for a in base[3:])  # (I, S, ...)
    second = cov_b + _outer(mu_b, _full(mu_b, cov_b))
    return _Stats(nu1_agg, xi_agg, *_emission_stats(resp, mu_b, second))


# ---------------------------------------------------------------------------
# Initialization and driver


def _init_reduced(base: H3m, config: VhemConfig, rng: np.random.Generator) -> H3m:
    k_r = config.k_reduced
    if isinstance(config.init, H3m):
        model = config.init
        _check_pair(base.arrays[3:], model.arrays[3:])
        if model.n_components != k_r:
            raise InvalidModelError(
                f"provided initial model has {model.n_components} components,"
                f" expected k_reduced={k_r}"
            )
        if k_r > 1 and (model.n_states, model.n_mix) != (base.n_states, base.n_mix):
            raise InvalidModelError(
                f"provided initial model has {model.n_states} states and {model.n_mix} mixture"
                f" components where the base has {base.n_states} and {base.n_mix}; with"
                " k_reduced > 1 a start needs the base's shape, as rescues copy base components"
            )
        return model
    n, m, d = base.n_states, base.n_mix, base.dim
    if config.init == "subset-perturb":
        idx = rng.choice(base.n_components, size=k_r, replace=False, p=base.weights)
        initial, transitions, mix_weights, means, covs = (a[idx] for a in base.arrays)
        means *= 1.0 + rng.uniform(-0.01, 0.01, size=(k_r, n, m, d))
    else:
        # "random": fresh stochastic vectors; means drawn from the pool of base
        # means with a multiplicative jitter, covariances averaged over the base.
        all_means = base.arrays.means.reshape(-1, d)
        cov_avg = base.arrays.covs.reshape(-1, *base.arrays.covs.shape[3:]).mean(axis=0)
        covs = np.broadcast_to(cov_avg, (k_r, n, m) + cov_avg.shape)
        initial, transitions = np.empty((k_r, n)), np.empty((k_r, n, n))
        mix_weights, means = np.empty((k_r, n, m)), np.empty((k_r, n, m, d))
        for j in range(k_r):
            initial[j] = rng.dirichlet(np.ones(n))
            transitions[j] = rng.dirichlet(np.ones(n), size=n)
            for state in range(n):
                mix_weights[j, state] = rng.dirichlet(np.full(m, 5.0))
                for comp in range(m):
                    mean = all_means[rng.integers(all_means.shape[0])]
                    means[j, state, comp] = mean * (1.0 + rng.uniform(-0.1, 0.1, size=d))
    arrays = _check_arrays(initial, transitions, mix_weights, means, covs, axes=("component",))
    return H3m(np.full(k_r, 1.0 / k_r), arrays)


def vhem_reduce(base: H3m, config: VhemConfig) -> ReductionResult:
    """Reduce ``base`` to ``config.k_reduced`` components.

    Alternates the coupling/assignment updates with parameter re-estimation
    until the bound changes by less than ``config.tol`` (relative,
    ``h3m._converged``) or ``config.max_iters`` E-steps have run.
    Deterministic given ``config.seed``. A starved reduced component
    (``h3m._starved``) takes a base component's arrays, floored, by the
    repair rule of ``h3m._em``, at most twice per run; afterwards the run
    continues with the smaller effective component count, which is reported.
    With ``config.n_starts`` > 1, runs seeded by the children of
    ``default_rng(config.seed)`` compete as in ``h3m_em`` (``h3m._best_start``);
    a given start (an ``H3m`` ``config.init``) draws nothing, so it takes one.

    Only the base components with positive weight are reduced: one of weight
    0 carries no virtual sample, so it neither moves the bound nor takes a
    repair. Its assignment row is the reduced weights, as it would be for an
    item with count 0, and its hard label follows from that row.
    """
    if isinstance(config.init, H3m) and config.n_starts > 1:
        raise ValueError(f"n_starts={config.n_starts} from a given start repeats one run")
    weighted = base.weights > 0
    k_w, k_r = np.count_nonzero(weighted), config.k_reduced
    if k_r > k_w:
        raise InvalidModelError(
            f"reduction needs k_reduced={k_r} base components with nonzero weight, found {k_w}"
        )
    items = H3m(base.weights[weighted], _Checked(*(a[weighted] for a in base.arrays)))
    virtual_counts = (config.n_virtual or 10_000 * k_w) * items.weights
    tau = config.tau_virtual

    def fit(rng):
        start = _init_reduced(items, config, rng)
        blocks = _blocks(items.arrays, start, tau)

        def run(arrays, stats):
            passes = (_pass(block, arrays, tau, stats) for block in blocks)
            return _collect(passes, k_w, arrays.initial.shape[0])

        return _em(start, run, virtual_counts, config.max_iters, config.tol,
                   lambda rows: _Checked(*(a[rows] for a in items.arrays)), config.cov_floor)

    reduced, z, bound_history, rescues = _best_start(fit, config.n_starts,
                                                     np.random.default_rng(config.seed))
    assignments = np.empty((base.n_components, k_r))
    assignments[weighted], assignments[~weighted] = z, reduced.weights
    return ReductionResult(
        reduced=reduced,
        assignments=AssignmentMatrix(assignments),
        bound_history=bound_history,
        rescues=rescues,
        effective_k=k_r - len(_starved(z, virtual_counts)),
    )


def _blocks(base: _Stacked, reduced: H3m, tau: int) -> list[_Stacked]:
    """The stacked base as consecutive blocks of components, each within
    hmm._BLOCK_ELEMENTS for its largest array (the emission terms over d, or
    phi) over its pairs with every component of ``reduced``."""
    k_b, n_b, m_b = base.mix_weights.shape
    n_r, m_r = reduced.n_states, reduced.n_mix
    cov_size = reduced.arrays.covs[0, 0, 0].size
    per_pair = n_b * n_r * max(m_b * m_r * cov_size, tau * n_r)
    slices = hmm._blocks(k_b, per_pair * reduced.n_components)
    return [_Stacked(*(a[rows] for a in base)) for rows in slices]


def _pass(block: _Stacked, reduced: _Stacked, tau: int, stats: bool):
    """The one pass over a block's pairs: their virtual statistics if
    ``stats`` and their objectives are all finite, else None, and their
    objectives (I, J). The block's couplings are freed on return."""
    estep = _estep(block, reduced, tau, stats)
    build = stats and np.isfinite(estep.objective).all()
    return (_virtual_stats_all(block, estep) if build else None), estep.objective
