"""Hidden Markov models with Gaussian-mixture emissions.

Holds the model type, exact sequence likelihood, seeded sampling, and the
estimation machinery that every estimator shares. An ``Hmm`` is built from its
five parameter arrays and holds them once; every kernel reads them, and no
model is mutated after construction. Its ``emissions`` objects are an output
view rebuilt from the arrays on each read, and nothing takes them as input. One
array-level check, ``_check_arrays``, validates every model, once per stack:
the constructor checks one model; a file's mixture components, the synthetic
members and an M-step's output are checked once as a stack. A mixture holds one
such stack, and its components are views of its rows (``_models``), rebuilt on
each read. One sampling kernel, ``_sample``, draws sequences from a stack of
models with uniforms and normals drawn beforehand; the Gaussian draw itself is
``gaussians._draw``. Every estimation kernel
reads a stack too (``_Stacked``, with a leading K axis) and runs once over all
K models; a list of models is stacked only where it enters, by ``_stack``, the
one function that stacks models and compares their shapes, and an ``Hmm`` is a
one-row stack at the public boundary (``forward_loglik_batch``). Emissions come
from the reduction's mixture step (``gaussians._mixture_terms``), observations
as points. One forward recursion, in probability domain and normalized at every
step (Rabiner's scaling), one batched matmul per step, serves both the
likelihood and the forward-backward pass. A pass runs over blocks of sequences
within a fixed element budget for the whole (K, B, tau, N, M) block. One
log-domain pass, ``_log_pass``, is the fallback for the (model, sequence) rows
that leave the scaled one, where it would underflow: ``_block_stats`` alone
chooses it, and such a row runs it once per pass. One M-step turns
weighted sums of item-major (items, K, ...) statistics into K models; the items
are real sequences for the mixture EM in ``h3m`` (Baum-Welch is its
one-component case) and virtual sequences of base components for the mixture
reduction. Both build their emission statistics with
``gaussians._emission_stats``, here with the observations as points and
``_outer(x)`` as their second moments, and the M-step takes each Gaussian from
``gaussians._gaussian_update``. Every covariance operation (the floor, the
update, the draw, a start's covariance from variances) is in ``gaussians``,
which alone tells a diagonal covariance from a full one: this module asks its
one rule, ``gaussians._full``, where it must choose, and calls no ``np.linalg``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EstimationError, InvalidModelError
from .gaussians import (
    Gaussian,
    GaussianMixture,
    _check_emissions,
    _check_rows,
    _covariance,
    _draw,
    _emission_stats,
    _finite,
    _float_array,
    _full,
    _gaussian_update,
    _layout,
    _mixture_terms,
    _outer,
    _responsibilities,
    logsumexp,
)


@dataclass(slots=True)
class Sequence:
    """One observation sequence: a (tau, d) array of real vectors. Slotted:
    an instance has no ``__dict__`` and takes no attribute it does not declare."""

    observations: np.ndarray
    id: str | None = None

    def __post_init__(self) -> None:
        self.observations = _check_observations(
            self.observations, 2, "observations must be (tau, d) with d >= 1"
        )

    @property
    def length(self) -> int:
        return self.observations.shape[0]

    @property
    def dim(self) -> int:
        return self.observations.shape[1]


def _check_observations(obs, ndim: int, expected: str) -> np.ndarray:
    """``obs``, a sequence (tau, d) or a batch (S, tau, d) as ``ndim`` says, as a
    float array, or InvalidModelError unless tau, d >= 1 and all are finite."""
    obs = np.asarray(obs, dtype=float)
    if obs.ndim != ndim or obs.shape[-1] < 1:
        raise InvalidModelError(f"{expected}, got shape {obs.shape}")
    if obs.shape[-2] < 1:
        raise InvalidModelError("sequence must contain at least one observation")
    if not np.isfinite(obs).all():
        raise InvalidModelError("observations contain non-finite values")
    return obs


def _check_arrays(
    initial, transitions, mix_weights, means, covs, axes: tuple[str, ...] = ()
) -> _Checked:
    """The five parameter arrays of an HMM, as ``Hmm`` names them, or of a
    stack of HMMs with the leading axes ``axes``, as fresh float arrays, or
    InvalidModelError naming the first bad model on ``axes`` and its row,
    state or mixture component: stochastic initial and transition rows, and
    ``_check_emissions`` for the emission arrays."""
    initial = _float_array(initial, "initial distribution")
    transitions = _float_array(transitions, "transitions")
    if initial.ndim != len(axes) + 1:
        raise InvalidModelError("initial must be a vector" + "".join(f" per {a}" for a in axes))
    lead, n = initial.shape[:-1], initial.shape[-1]
    if transitions.shape != lead + (n, n):
        raise InvalidModelError(f"transitions must be {lead + (n, n)}, got {transitions.shape}")
    _check_rows(initial, "initial distribution", axes)
    _check_rows(transitions, "transition row", axes)
    mix_weights, means, covs = _check_emissions(
        mix_weights, means, covs, axes + ("state", "mixture component")
    )
    if means.shape[: len(axes) + 1] != lead + (n,):
        raise InvalidModelError(f"{means.shape[len(axes)]} emission mixtures for {n} states")
    return _Checked(initial, transitions, mix_weights, means, covs)


def _mixtures(
    mix_weights: np.ndarray, means: np.ndarray, covs: np.ndarray
) -> list[GaussianMixture]:
    """One GaussianMixture per state from checked arrays shaped as the ``Hmm``
    attributes of the same names."""
    return [
        GaussianMixture(w, [Gaussian(mu, cov) for mu, cov in zip(mu_row, cov_row)])
        for w, mu_row, cov_row in zip(mix_weights, means, covs)
    ]


class Hmm:
    """HMM with an initial distribution, transition matrix, and per-state
    Gaussian-mixture emissions sharing one component count, dimension and
    covariance layout. It holds five arrays and nothing else: ``initial``
    (N,), ``transitions`` (N, N), ``mix_weights`` (N, M), ``means``
    (N, M, d) and ``covs``, (N, M, d) variances or (N, M, d, d) matrices,
    copied and checked by ``_check_arrays``. Not mutated."""

    def __init__(
        self,
        initial: np.ndarray,
        transitions: np.ndarray,
        mix_weights: np.ndarray,
        means: np.ndarray,
        covs: np.ndarray,
    ) -> None:
        self._set(_check_arrays(initial, transitions, mix_weights, means, covs))

    def _set(self, arrays) -> None:
        for name, value in zip(_Stacked._fields, arrays):
            setattr(self, name, value)

    @property
    def emissions(self) -> list[GaussianMixture]:
        """The emission mixtures as objects, an output view rebuilt from the
        arrays on each read."""
        return _mixtures(self.mix_weights, self.means, self.covs)

    @property
    def n_states(self) -> int:
        return self.initial.shape[0]

    @property
    def n_mix(self) -> int:
        return self.mix_weights.shape[1]

    @property
    def dim(self) -> int:
        return self.means.shape[2]


class _Stacked(NamedTuple):
    """The parameter arrays of K HMMs of one shape, as ``Hmm`` names them,
    stacked along a leading K axis."""

    initial: np.ndarray  # (K, N)
    transitions: np.ndarray  # (K, N, N)
    mix_weights: np.ndarray  # (K, N, M)
    means: np.ndarray  # (K, N, M, d)
    covs: np.ndarray  # (K, N, M, d) or (K, N, M, d, d)


class _Checked(_Stacked):
    """A stack as ``_check_arrays`` returns it, or assembled from checked models or rows."""

    __slots__ = ()


def _models(stack: _Checked) -> list[Hmm]:
    """The Hmm of each row of a stack checked with one leading axis; their
    arrays are views of the stack, not copied and not checked again."""
    models = [Hmm.__new__(Hmm) for _ in stack.initial]
    for model, row in zip(models, zip(*stack)):
        model._set(row)
    return models


def _stack(models: list[Hmm]) -> _Checked:
    """Stack the arrays of HMMs of one shape, where a list of them enters: the
    library's one place that stacks models. InvalidModelError for no models,
    or naming the first whose shape differs from the first model's."""
    if not models:
        raise InvalidModelError("mixture needs at least one component")
    # covs' shape, (N, M, d) variances or (N, M, d, d) matrices, fixes them all.
    for idx, model in enumerate(models):
        if model.covs.shape != models[0].covs.shape:
            got, want = (
                f"(N={m.n_states}, M={m.n_mix}, d={m.dim}, {_layout(m.means, m.covs)})"
                for m in (model, models[0])
            )
            raise InvalidModelError(f"component {idx} has {got}, expected {want}")
    return _Checked(*(np.stack([getattr(m, name) for m in models]) for name in _Stacked._fields))


def _check_counts(minimum: int = 1, **counts) -> None:
    """The library's one count check: ValueError for the first of ``counts`` that
    ``operator.index`` rejects (numpy integers pass, 2.5 and NaN do not) or below ``minimum``."""
    for name, value in counts.items():
        try:
            count = operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if count < minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {value!r}")


def _check_shared(config) -> None:
    """The one check of the knobs that ``EmConfig`` and ``VhemConfig`` share."""
    _check_counts(max_iters=config.max_iters, n_starts=config.n_starts)
    if not (config.tol >= 0 and 0 < config.cov_floor < np.inf):
        raise ValueError("need tol >= 0 and 0 < cov_floor < inf")


@dataclass
class EmConfig:
    """Stopping and regularization knobs for the EM estimators.

    ``max_iters`` counts M-steps: a fit runs at most max_iters + 1 E-steps,
    the last of them forward only (``VhemConfig.max_iters`` counts E-steps).
    ``n_starts`` counts competing seeded fits, and the best final
    log-likelihood wins (``h3m._best_start``, as for ``VhemConfig``)."""

    max_iters: int = 100
    tol: float = 1e-6
    cov_floor: float = 1e-6
    cov_type: str = "diag"  # "diag" | "full"
    n_starts: int = 1

    def __post_init__(self) -> None:
        _check_shared(self)
        if self.cov_type not in ("diag", "full"):
            raise ValueError(f"cov_type must be 'diag' or 'full', got {self.cov_type!r}")


@dataclass
class HmmFit:
    """Fitted model plus the per-iteration total log-likelihood trace."""

    model: Hmm
    loglik_trace: list[float]

    @property
    def n_iters(self) -> int:
        return len(self.loglik_trace) - 1


# ---------------------------------------------------------------------------
# Likelihood


def _log_chain(models: _Stacked, rows=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Log initial distributions and log transition matrices of the stack's
    models ``rows`` (all of them by default)."""
    with np.errstate(divide="ignore"):
        return np.log(models.initial[rows]), np.log(models.transitions[rows])


# Working-memory budget of one block of a pass, in float64 elements of its largest array
# (256 KB): a block holds as many sequences (here) or base components (reduction._blocks)
# as fit, at least one, and a few arrays of one block are all that a pass holds at once.
_BLOCK_ELEMENTS = 1 << 15
# Guards of the scaled pass (see _scaled_forward): a scale factor at or below
# _TINY, or a predicted state weight below _FLOOR, sends the sequence to the
# log-domain pass. Below _FLOOR, what underflowed (< _TINY) exceeds rounding.
_TINY = np.finfo(float).tiny
_FLOOR = _TINY / np.finfo(float).eps


def _blocks(n_items: int, per_item: int) -> list[slice]:
    """The block rule of both estimators' passes: consecutive blocks of as many
    items of per_item elements as fit in _BLOCK_ELEMENTS, at least one."""
    size = max(1, _BLOCK_ELEMENTS // per_item)
    return [slice(i, i + size) for i in range(0, max(n_items, 1), size)]


def _scaled_forward(
    models: _Stacked, log_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Forward recursion in probability domain over (K, S, tau, N) log
    emission densities of equal-length sequences under K stacked models,
    normalized at every step (Rabiner 1989). One batched matmul per step.

    The emissions are shifted by their maximum over states (0 if -inf), and
    the shifts are added back into the log-likelihoods. Returns the shifted
    emissions b (K, S, tau, N), alpha (K, S, tau, N) with each step's row
    summing to one, the scale factors c (K, S, tau), the log-likelihoods
    (K, S) and ``ok`` (K, S). ``ok`` is False where some c_t is NaN or at
    most _TINY, or where a state the chain can reach at step t has a
    predicted weight (alpha_{t-1} A, or the initial probability) below
    _FLOOR: paths whose weight underflowed are lost, and only a state that
    nothing else feeds can make them matter later. Every output of such a
    row, its log-likelihood too, is unusable: ``_block_stats`` reruns it in
    log domain (``_log_pass``).
    """
    shift = _finite(log_b.max(axis=3))
    b = np.exp(log_b - shift[..., None])
    alpha = np.empty_like(b)
    pred = np.empty_like(b)
    scale = np.empty(b.shape[:3])
    reach = np.empty(b.shape[:1] + b.shape[2:], dtype=bool)  # (K, tau, N): P(x_t = state) > 0
    pred[:, :, 0] = models.initial[:, None]
    reach[:, 0] = models.initial > 0
    edges = models.transitions > 0
    # A zero or NaN scale only occurs in rows that ok marks; a log-likelihood
    # below the float range is -inf.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for t in range(b.shape[2]):
            if t:
                pred[:, :, t] = alpha[:, :, t - 1] @ models.transitions
                reach[:, t] = (reach[:, t - 1, None] @ edges)[:, 0]
            np.multiply(pred[:, :, t], b[:, :, t], out=alpha[:, :, t])
            scale[:, :, t] = alpha[:, :, t].sum(axis=2)
            alpha[:, :, t] /= scale[:, :, t, None]
        lls = np.sum(np.log(scale) + shift, axis=2)
    ok = np.all(scale > _TINY, axis=2) & np.all((pred >= _FLOOR) | ~reach[:, None], axis=(2, 3))
    return b, alpha, scale, lls, ok


def forward_loglik_batch(model: Hmm, obs: np.ndarray) -> np.ndarray:
    """Log-likelihood of each sequence in an (S, tau, d) batch, checked as a Sequence is."""
    obs = _check_observations(obs, 3, "batch must be (S, tau, d)")
    if model.dim != obs.shape[2]:
        raise InvalidModelError(
            f"observation dimension {obs.shape[2]} does not match model dimension {model.dim}"
        )
    return _expected_stats(_stack([model]), [obs], False)[1][:, 0]


# ---------------------------------------------------------------------------
# Sampling


def _categorical_rows(cum_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Index drawn per row from inclusive-cumsum probability rows."""
    idx = np.sum(u[..., None] >= cum_rows, axis=-1)
    return np.minimum(idx, cum_rows.shape[-1] - 1)


def _sample(
    models: _Stacked,
    which: np.ndarray,
    u_states: np.ndarray,
    u_comps: np.ndarray,
    normals: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw sequence s from model which[s] of a stack (``_stack``), from
    uniforms u_states (tau, S) for the state chains and u_comps (S, tau) for
    the mixture components, and standard normals (S, tau, d) for the
    observations. Returns (obs, states), shaped (S, tau, d) and (S, tau)."""
    tau, size = u_states.shape
    states = np.empty((size, tau), dtype=int)
    cum_a = np.cumsum(models.transitions, axis=-1)
    states[:, 0] = _categorical_rows(np.cumsum(models.initial, axis=-1)[which], u_states[0])
    for t in range(1, tau):
        states[:, t] = _categorical_rows(cum_a[which, states[:, t - 1]], u_states[t])
    which = which[:, None]
    comps = _categorical_rows(np.cumsum(models.mix_weights, axis=-1)[which, states], u_comps)
    return _draw(models.means, models.covs, (which, states, comps), normals), states


def sample_batch(
    model: Hmm, tau: int, size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``size`` sequences of length ``tau``; returns (obs, states) with
    shapes (size, tau, d) and (size, tau). Deterministic given the generator,
    which gives, in this order, the uniforms of the state chains step by
    step, those of the mixture components sequence by sequence, and the
    normals."""
    _check_counts(tau=tau, size=size)
    u_states = rng.random((tau, size))
    u_comps = rng.random((size, tau))
    normals = rng.standard_normal((size, tau, model.dim))
    return _sample(_stack([model]), np.zeros(size, dtype=int), u_states, u_comps, normals)


# ---------------------------------------------------------------------------
# Expected sufficient statistics (shared by the mixture EM and the reduction)


@dataclass
class _Stats:
    """Expected counts of K stacked models. Per-item statistics (real
    sequences, or the virtual sequences of base components) are item-major,
    with leading (S, K) axes on every field; totals, as the M-step takes
    them, have a leading K axis only."""

    pi: np.ndarray  # (..., N)
    trans: np.ndarray  # (..., N, N)
    mix: np.ndarray  # (..., N, M)
    mean: np.ndarray  # (..., N, M, d)
    sq: np.ndarray  # (..., N, M, d) diagonal second moments or (..., N, M, d, d) outer

    def weighted_sum(self, weights: np.ndarray) -> "_Stats":
        """Totals (K, ...) of per-item statistics, item s weighted by
        weights[s, k] in model k."""
        return _Stats(*(np.einsum("sk,sk...->k...", weights, v) for v in vars(self).values()))


@np.errstate(over="ignore")  # a sum of log terms below the float range is -inf
def _log_pass(
    log_pi: np.ndarray, log_a: np.ndarray, log_b: np.ndarray, stats: bool
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """The log-domain pass, row s under log_pi[s] (S, N) and log_a[s]
    (S, N, N): the fallback for the rows that leave the scaled pass, with
    its contract. A forward recursion normalized at every step gives the
    log-likelihoods (S,), the sums of the per-step log normalizers (-inf,
    not NaN, where one is -inf); if ``stats``, a backward recursion gives
    the state posteriors gamma (S, tau, N) and per-sequence transition
    counts (S, N, N), else both are None."""
    s_count, tau, n = log_b.shape
    alpha = np.empty((s_count, tau, n))
    ll = np.zeros(s_count)
    for t in range(tau):
        prior = logsumexp(alpha[:, t - 1, :, None] + log_a, axis=1) if t else log_pi
        step_alpha = prior + log_b[:, t]
        step = logsumexp(step_alpha, axis=1)
        ll = ll + step
        alpha[:, t] = step_alpha - _finite(step)[:, None]
    if not stats:
        return ll, None, None
    # gamma and xi are renormalized per sequence and step, so neither the
    # scaling of alpha nor the scale of beta enters.
    beta = np.empty_like(alpha)
    beta[:, -1] = 0.0
    for t in range(tau - 2, -1, -1):
        beta[:, t] = logsumexp(log_a + (log_b[:, t + 1] + beta[:, t + 1])[:, None, :], axis=2)
    log_gamma = alpha + beta
    trans = np.zeros(log_a.shape)
    for t in range(tau - 1):
        log_xi = alpha[:, t, :, None] + log_a + (log_b[:, t + 1] + beta[:, t + 1])[:, None, :]
        log_xi = log_xi.reshape(s_count, -1)  # xi is a softmax over the (N, N) pairs
        trans += _responsibilities(log_xi, logsumexp(log_xi, axis=1)).reshape(log_a.shape)
    return ll, _responsibilities(log_gamma, logsumexp(log_gamma, axis=2)), trans


def _block_stats(models: _Stacked, obs: np.ndarray, stats: bool) -> tuple[_Stats | None, np.ndarray]:
    """One block of ``_expected_stats``, and the one place that chooses
    between the scaled pass and the log-domain pass: each (model, sequence)
    row that leaves the scaled pass runs ``_log_pass`` once. Emissions are
    the mixture step (``gaussians._mixture_terms``) of every observation, a
    point, in every state."""
    log_joint, log_b = _mixture_terms(  # (K, B, tau, N, M) and (K, B, tau, N)
        models.mix_weights[:, None, None], obs[None, :, :, None, None], None,
        models.means[:, None, None], models.covs[:, None, None],
    )
    b, alpha, scale, lls, ok = _scaled_forward(models, log_b)
    redo = ~ok
    if stats:
        # Scaled backward pass: w_t = b_t * beta_t / c_t and beta_{t-1} = w_t A^T,
        # so gamma = alpha * beta and xi_t = A * (alpha_t^T w_{t+1}). Where alpha
        # is zero, beta may overflow: such rows come out non-finite here and, like
        # the rows ok marks, are redone in log domain.
        a = models.transitions
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            w = b / scale[..., None]
            beta = np.empty_like(b)
            beta[:, :, -1] = 1.0
            for t in range(b.shape[2] - 1, 0, -1):
                w[:, :, t] *= beta[:, :, t]
                beta[:, :, t - 1] = w[:, :, t] @ np.swapaxes(a, 1, 2)
            trans = a[:, None] * (np.swapaxes(alpha[:, :, :-1], 2, 3) @ w[:, :, 1:])
            gamma = np.multiply(alpha, beta, out=alpha)  # (K, S, tau, N)
        redo |= ~(np.isfinite(gamma).all(axis=(2, 3)) & np.isfinite(trans).all(axis=(2, 3)))
    if redo.any():
        # Only the rows that ok marks take the log-domain likelihood, so it is
        # the same bit for bit with or without statistics.
        log_lls, *posteriors = _log_pass(
            *_log_chain(models, np.nonzero(redo)[0]), log_b[redo], stats
        )
        lls[~ok] = log_lls[~ok[redo]]
        if stats:
            gamma[redo], trans[redo] = posteriors
    if not stats:
        return None, lls.T.copy()

    # Within-state mixture responsibilities; log_b is log_joint's normalizer.
    gamma_mix = _responsibilities(log_joint, log_b)
    gamma_mix *= gamma[..., None]  # (K, S, tau, N, M)
    emissions = _emission_stats(gamma_mix.swapaxes(0, 1), obs, _outer(obs, _full(*models[3:])))
    # Item-major; no field is a view that would keep a (K, S, tau, ...) array alive.
    chain = (np.ascontiguousarray(np.swapaxes(f, 0, 1)) for f in (gamma[:, :, 0], trans))
    return _Stats(*chain, *emissions), lls.T.copy()


def _expected_stats(
    models: _Stacked, batches: list[np.ndarray], stats: bool
) -> tuple[_Stats | None, np.ndarray]:
    """The one pass of K stacked models over batches of S equal-length
    (tau, d) sequences, an (S, tau, d) array or a list of (tau, d) arrays,
    one after another, block by block: forward-backward if ``stats``, else
    forward. A block's sequences are stacked only when the pass reaches
    them. Returns the per-sequence statistics, item-major (leading (S, K)
    axes, no tau axis), or None if not ``stats``, and the log-likelihoods
    (S, K), the same bit for bit either way."""
    # obs[:1] is (1, tau, d), or (0, tau, d) for an empty array.
    blocks = (_block_stats(models, np.asarray(obs[rows]), stats) for obs in batches
              for rows in _blocks(len(obs), np.shape(obs[:1])[1] * models.mix_weights.size))
    return _collect(blocks, sum(map(len, batches)), models.initial.shape[0])


def _collect(parts, n_items: int, k: int) -> tuple[_Stats | None, np.ndarray]:
    """(statistics, objectives) of n_items items under k models, from those
    of consecutive blocks of them: each block's rows are written into one
    (n_items, k, ...) array per field as it comes, so no list of blocks is
    held. The statistics are None if a block has none."""
    objectives = np.empty((n_items, k))
    totals, complete, start = None, True, 0
    for part, values in parts:
        rows = slice(start, start + values.shape[0])
        objectives[rows] = values
        complete = complete and part is not None
        if complete:
            if totals is None:
                totals = _Stats(*(np.empty((n_items, k) + v.shape[2:]) for v in vars(part).values()))
            for whole, piece in zip(vars(totals).values(), vars(part).values()):
                whole[rows] = piece
        start = rows.stop
    return (totals if complete else None), objectives


def _mstep(stats: _Stats, previous: _Stacked, cov_floor: float) -> _Stacked:
    """Parameter updates of K stacked models from their accumulated counts.

    Rows or components that received no mass keep their previous values: the
    objective is flat in them, so leaving them untouched preserves the
    monotone-likelihood guarantee. Each live component's Gaussian is
    ``gaussians._gaussian_update`` of its moments, floored there, which keeps
    each update the maximizer: eigenvalues clipped at cov_floor.
    """
    pi_total = stats.pi.sum(axis=1, keepdims=True)
    initial = np.divide(stats.pi, pi_total, out=previous.initial.copy(), where=pi_total > 0)
    trans_total = stats.trans.sum(axis=2, keepdims=True)
    transitions = np.divide(
        stats.trans, trans_total, out=previous.transitions.copy(), where=trans_total > 0
    )
    mix_total = stats.mix.sum(axis=2, keepdims=True)
    keep_row = mix_total <= 0
    mix_weights = np.divide(stats.mix, mix_total, out=previous.mix_weights.copy(), where=~keep_row)
    live = ~keep_row & ~(stats.mix <= 1e-12)  # NaN mass is updated, and then rejected
    means, covs = previous.means.copy(), previous.covs.copy()
    moments = (stats.mix[live], stats.mean[live], stats.sq[live])
    means[live], covs[live] = _gaussian_update(*moments, cov_floor)
    return _Stacked(initial, transitions, mix_weights, means, covs)


# ---------------------------------------------------------------------------
# Initialization and fitting


# Lloyd iterations of the k-means start; fewer if the centers settle first.
_KMEANS_ITERS = 25


def _kmeans(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Plain Lloyd iterations from k distinct seed points, until one leaves
    the centers exactly as they were (a fixed point at any scale of the
    data) or after ``_KMEANS_ITERS``; deterministic given the generator.
    Returns centers sorted lexicographically.

    Working memory is O(k·P) for P points: squared distances are summed into
    one (k, P) array a coordinate at a time, and each point goes to its first
    nearest center (``argmin``). Each center is the mean of its points; a
    center whose cluster empties keeps its previous value."""
    # The distinct rows in lexicographic order, as np.unique(points, axis=0).
    ordered = points[np.lexsort(points.T[::-1])]
    unique = ordered[np.r_[True, np.any(ordered[1:] != ordered[:-1], axis=1)]]
    if unique.shape[0] < k:
        raise EstimationError(
            f"need at least {k} distinct observation vectors, found {unique.shape[0]}"
        )
    centers = unique[rng.choice(unique.shape[0], size=k, replace=False)]
    d2 = np.empty((k, points.shape[0]))
    term = np.empty_like(d2)
    for _ in range(_KMEANS_ITERS):
        d2.fill(0.0)
        for i in range(points.shape[1]):
            np.subtract(points[:, i], centers[:, i, None], out=term)
            term *= term
            d2 += term
        assign = d2.argmin(axis=0)
        new_centers = centers.copy()
        for j in range(k):
            cluster = points[assign == j]
            if cluster.shape[0]:
                new_centers[j] = cluster.mean(axis=0)
        if np.array_equal(new_centers, centers):
            centers = new_centers
            break
        centers = new_centers
    order = np.lexsort(centers.T[::-1])
    return centers[order]


def _init_hmm(
    data: list[Sequence],
    n_states: int,
    n_mix: int,
    config: EmConfig,
    rng: np.random.Generator,
) -> Hmm:
    """Seeded starting point: emission means from pooled k-means, uniform
    initial/transition rows with a small Dirichlet jitter."""
    pooled = np.concatenate([seq.observations for seq in data], axis=0)
    # k-means and the variance below sum squared differences of these values.
    if not np.abs(pooled).max() < np.sqrt(np.finfo(float).max / (4.0 * pooled.size)):
        raise EstimationError("observations too large to square")
    centers = _kmeans(pooled, n_states * n_mix, rng)
    cov = _covariance(pooled.var(axis=0), config.cov_type, config.cov_floor)
    initial = rng.dirichlet(np.full(n_states, 200.0))
    transitions = rng.dirichlet(np.full(n_states, 200.0), size=n_states)
    mix_weights = np.full((n_states, n_mix), 1.0 / n_mix)
    covs = np.broadcast_to(cov, (n_states, n_mix) + cov.shape)
    means = centers.reshape(n_states, n_mix, -1)
    return Hmm(initial, transitions, mix_weights, means, covs)


def group_by_length(data: list[Sequence]) -> list[np.ndarray]:
    """Indices of the sequences of each length, shortest length first."""
    lengths: dict[int, list[int]] = {}
    for idx, seq in enumerate(data):
        lengths.setdefault(seq.length, []).append(idx)
    return [np.array(lengths[tau], dtype=int) for tau in sorted(lengths)]


def _check_data(data: list[Sequence]) -> None:
    if not data:
        raise EstimationError("no sequences provided")
    d = data[0].dim
    for seq in data:
        if seq.dim != d:
            raise InvalidModelError("sequences have inconsistent dimensions")
