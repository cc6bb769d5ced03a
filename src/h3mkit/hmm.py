"""Hidden Markov models with Gaussian-mixture emissions.

Holds the model type, exact sequence likelihood, seeded sampling, prior
state-occupancy marginals, and the estimation machinery that every estimator
shares. An ``Hmm`` holds its parameters once, as five arrays that every
kernel reads; its ``emissions`` objects are a view rebuilt from them on each
read. ``Hmm.from_arrays`` is the one way from arrays to a model, and no model
is mutated after construction. One forward recursion, in
probability domain and normalized at every step (Rabiner's scaling), serves
both the likelihood and the forward-backward pass, so a single pass over a
batch yields the log-likelihoods and the per-sequence sufficient statistics.
A pass runs over blocks of sequences within a fixed element budget, which
bounds its working memory. The log-domain recursion stays as the fallback
for the sequences where the scaled one would underflow, and only those take
it. One M-step turns a weighted sum of per-item statistics into an HMM; the
items are real sequences for the mixture EM in ``h3m`` (Baum-Welch is its
one-component case) and virtual sequences of base components for the
mixture reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import EstimationError, InvalidModelError
from .gaussians import (
    LOG_2PI,
    Gaussian,
    GaussianMixture,
    _shape,
    check_probability_vector,
    logsumexp,
)


@dataclass
class Sequence:
    """One observation sequence: a (tau, d) array of real vectors."""

    observations: np.ndarray
    id: str | None = None

    def __post_init__(self) -> None:
        self.observations = np.asarray(self.observations, dtype=float)
        if self.observations.ndim != 2:
            raise InvalidModelError(
                f"observations must be (tau, d), got shape {self.observations.shape}"
            )
        if self.observations.shape[0] < 1:
            raise InvalidModelError("sequence must contain at least one observation")
        if not np.all(np.isfinite(self.observations)):
            raise InvalidModelError("observations contain non-finite values")

    @property
    def length(self) -> int:
        return self.observations.shape[0]

    @property
    def dim(self) -> int:
        return self.observations.shape[1]


def _mixtures(
    mix_weights: np.ndarray, means: np.ndarray, covs: np.ndarray
) -> list[GaussianMixture]:
    """One GaussianMixture per state from arrays shaped as the ``Hmm``
    attributes of the same names, each object checked by its constructor."""
    return [
        GaussianMixture(w, [Gaussian(mu, cov) for mu, cov in zip(mu_row, cov_row)])
        for w, mu_row, cov_row in zip(mix_weights, means, covs)
    ]


class Hmm:
    """HMM with an initial distribution, transition matrix, and per-state
    Gaussian-mixture emissions sharing one component count, dimension and
    covariance layout. It holds five arrays and nothing else: ``initial``,
    ``transitions``, ``mix_weights`` (N, M), ``means`` (N, M, d) and ``covs``,
    (N, M, d) variances or (N, M, d, d) matrices. Not mutated."""

    def __init__(
        self, initial: np.ndarray, transitions: np.ndarray, emissions: list[GaussianMixture]
    ) -> None:
        self.initial = np.asarray(initial, dtype=float)
        self.transitions = np.asarray(transitions, dtype=float)
        n = self.initial.shape[0] if self.initial.ndim == 1 else -1
        if self.initial.ndim != 1:
            raise InvalidModelError("initial must be a vector")
        if self.transitions.shape != (n, n):
            raise InvalidModelError(
                f"transitions must be ({n}, {n}), got {self.transitions.shape}"
            )
        check_probability_vector(self.initial, "initial distribution")
        check_probability_vector(self.transitions, "transition row")
        if len(emissions) != n:
            raise InvalidModelError(f"{len(emissions)} emission mixtures for {n} states")
        shapes = [_shape(g.n_components, g.dim, g.is_diagonal) for g in emissions]
        for state, shape in enumerate(shapes):
            if shape != shapes[0]:
                raise InvalidModelError(
                    f"emission for state {state} has ({shape}), expected ({shapes[0]})"
                )
        self.mix_weights = np.array([g.weights for g in emissions])
        self.means = np.array([[c.mean for c in g.components] for g in emissions])
        self.covs = np.array([[c.cov for c in g.components] for g in emissions])

    @classmethod
    def from_arrays(
        cls,
        initial: np.ndarray,
        transitions: np.ndarray,
        mix_weights: np.ndarray,
        means: np.ndarray,
        covs: np.ndarray,
    ) -> "Hmm":
        """The Hmm with these stacked parameters, validated as the emission
        objects ``emissions`` returns."""
        return cls(initial, transitions, _mixtures(mix_weights, means, covs))

    @property
    def emissions(self) -> list[GaussianMixture]:
        """The emission mixtures as objects, rebuilt from the arrays on each read."""
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


@dataclass
class EmConfig:
    """Stopping and regularization knobs for the EM estimators.

    ``n_starts`` > 1 runs that many independently seeded fits and keeps the
    one with the best final log-likelihood (still deterministic given the
    caller's generator)."""

    max_iters: int = 100
    tol: float = 1e-6
    cov_floor: float = 1e-6
    cov_type: str = "diag"  # "diag" | "full"
    n_starts: int = 1

    def __post_init__(self) -> None:
        if self.cov_type not in ("diag", "full"):
            raise ValueError(f"cov_type must be 'diag' or 'full', got {self.cov_type!r}")
        if self.max_iters < 1 or self.tol < 0 or self.cov_floor <= 0 or self.n_starts < 1:
            raise ValueError(
                "max_iters >= 1, tol >= 0, cov_floor > 0 and n_starts >= 1 required"
            )


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


def _check_dim(model: Hmm, dim: int) -> None:
    if model.dim != dim:
        raise InvalidModelError(
            f"observation dimension {dim} does not match model dimension {model.dim}"
        )


def _gaussian_terms(
    obs: np.ndarray, means: np.ndarray, covs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Log-determinants (N, M) of the emission covariances and squared
    Mahalanobis distances (S, tau, N, M) of every observation from every
    emission component."""
    if covs.ndim == 3:
        # Summed over d in place, one coordinate at a time: no (S, tau, N, M, d) array.
        maha = np.zeros(obs.shape[:2] + means.shape[:2])
        term = np.empty_like(maha)
        for k in range(obs.shape[2]):
            np.subtract(obs[:, :, None, None, k], means[..., k], out=term)
            term *= term
            term /= covs[..., k]
            maha += term
        return np.sum(np.log(covs), axis=-1), maha
    diff = obs[:, :, None, None, :] - means[None, None]
    chol = np.linalg.cholesky(covs)
    # One solve, the stacked factors (N, M, d, d) broadcast over (S, tau).
    sol = np.linalg.solve(chol, diff[..., None])[..., 0]
    log_det = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
    return log_det, np.einsum("...d,...d->...", sol, sol)


def _log_emissions(model: Hmm, obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log emission densities (S, tau, N) and the per-component log joint
    weights+densities (S, tau, N, M) they were reduced from."""
    log_det, log_joint = _gaussian_terms(obs, model.means, model.covs)
    with np.errstate(divide="ignore"):
        log_c = np.log(model.mix_weights)
    log_joint += model.dim * LOG_2PI + log_det
    log_joint *= -0.5
    log_joint += log_c
    return logsumexp(log_joint, axis=-1), log_joint


def _log_chain(model: Hmm) -> tuple[np.ndarray, np.ndarray]:
    """Log initial distribution (N,) and log transition matrix (N, N)."""
    with np.errstate(divide="ignore"):
        return np.log(model.initial), np.log(model.transitions)


# Working-memory budget of a pass, in elements of one (B, tau, N, M) array
# (256 KB of float64): a block holds as many sequences as fit, at least one,
# and a few such arrays of one block are all that a pass holds at once.
_BLOCK_ELEMENTS = 1 << 15
# Guards of the scaled pass (see _scaled_forward): a scale factor at or below
# _TINY, or a predicted state weight below _FLOOR, sends the sequence to the
# log-domain pass. Below _FLOOR, what underflowed (< _TINY) exceeds rounding.
_TINY = np.finfo(float).tiny
_FLOOR = _TINY / np.finfo(float).eps


def _blocks(model: Hmm, obs: np.ndarray):
    """The (S, tau, d) batch as consecutive blocks of sequences, each within
    _BLOCK_ELEMENTS for the model's (B, tau, N, M) arrays."""
    size = max(1, _BLOCK_ELEMENTS // (obs.shape[1] * model.n_states * model.n_mix))
    return (obs[i:i + size] for i in range(0, max(obs.shape[0], 1), size))


def _scaled_forward(
    model: Hmm, log_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Forward recursion in probability domain over (S, tau, N) log emission
    densities of equal-length sequences, normalized at every step (Rabiner
    1989). One matmul per step.

    The emissions are shifted by their maximum over states first, and the
    shifts are added back into the log-likelihoods. Returns the shifted
    emissions b (S, tau, N), alpha (S, tau, N) with each step's row summing
    to one, the scale factors c (S, tau), the log-likelihoods (S,) and
    ``ok`` (S,). ``ok`` is False where some c_t is NaN or at most _TINY, or
    where a state the chain can reach at step t has a predicted weight
    (alpha_{t-1} A, or the initial probability) below _FLOOR: paths whose
    weight underflowed are lost, and only a state that nothing else feeds
    can make them matter later. Such a sequence's log-likelihood comes from
    the log-domain recursion instead; its other outputs are unusable.
    """
    shift = log_b.max(axis=2)
    b = np.exp(log_b - shift[..., None])
    alpha = np.empty_like(b)
    pred = np.empty_like(b)
    scale = np.empty(b.shape[:2])
    reach = np.empty(b.shape[1:], dtype=bool)  # (tau, N): P(x_t = state) > 0
    pred[:, 0] = model.initial
    reach[0] = model.initial > 0
    edges = model.transitions > 0
    # A zero or NaN scale only occurs in rows that ok marks.
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(b.shape[1]):
            if t:
                pred[:, t] = alpha[:, t - 1] @ model.transitions
                reach[t] = reach[t - 1] @ edges
            np.multiply(pred[:, t], b[:, t], out=alpha[:, t])
            scale[:, t] = alpha[:, t].sum(axis=1)
            alpha[:, t] /= scale[:, t, None]
        lls = np.sum(np.log(scale) + shift, axis=1)
    ok = np.all(scale > _TINY, axis=1) & np.all((pred >= _FLOOR) | ~reach, axis=(1, 2))
    if not ok.all():
        lls[~ok] = _log_forward(*_log_chain(model), log_b[~ok])[1]
    return b, alpha, scale, lls, ok


def _log_forward(
    log_pi: np.ndarray, log_a: np.ndarray, log_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Forward recursion in log domain, normalized at every step: the
    fallback for sequences whose scaled recursion underflows.

    Returns log alpha (S, tau, N), each step's row summing to one in
    probability, and the log-likelihoods (S,), which are the sums of the
    per-step log normalizers.
    """
    s_count, tau, n = log_b.shape
    alpha = np.empty((s_count, tau, n))
    step_alpha = log_pi[None, :] + log_b[:, 0]
    ll = logsumexp(step_alpha, axis=1)
    alpha[:, 0] = step_alpha - ll[:, None]
    for t in range(1, tau):
        step_alpha = logsumexp(alpha[:, t - 1, :, None] + log_a[None], axis=1) + log_b[:, t]
        step = logsumexp(step_alpha, axis=1)
        ll = ll + step
        alpha[:, t] = step_alpha - step[:, None]
    return alpha, ll


def forward_loglik(model: Hmm, seq: Sequence) -> float:
    """Exact log p(sequence | model)."""
    _check_dim(model, seq.dim)
    return float(forward_loglik_batch(model, seq.observations[None])[0])


def forward_loglik_batch(model: Hmm, obs: np.ndarray) -> np.ndarray:
    """Log-likelihood of each sequence in an (S, tau, d) batch."""
    obs = np.asarray(obs, dtype=float)
    if obs.ndim != 3:
        raise InvalidModelError(f"batch must be (S, tau, d), got shape {obs.shape}")
    _check_dim(model, obs.shape[2])
    return np.concatenate(
        [_scaled_forward(model, _log_emissions(model, block)[0])[3] for block in _blocks(model, obs)]
    )


def state_marginals(model: Hmm, tau: int) -> np.ndarray:
    """Prior state-occupancy P(x_t = state) for t = 1..tau, shape (tau, N)."""
    if tau < 1:
        raise ValueError("tau must be >= 1")
    rows = np.empty((tau, model.n_states))
    rows[0] = model.initial
    for t in range(1, tau):
        rows[t] = rows[t - 1] @ model.transitions
    return rows


# ---------------------------------------------------------------------------
# Sampling


def _categorical_rows(cum_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Index drawn per row from inclusive-cumsum probability rows."""
    idx = np.sum(u[..., None] >= cum_rows, axis=-1)
    return np.minimum(idx, cum_rows.shape[-1] - 1)


def sample_batch(
    model: Hmm, tau: int, size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``size`` sequences of length ``tau``; returns (obs, states) with
    shapes (size, tau, d) and (size, tau). Deterministic given the generator."""
    if tau < 1:
        raise ValueError("tau must be >= 1")
    d = model.dim
    states = np.empty((size, tau), dtype=int)
    cum_pi = np.cumsum(model.initial)
    cum_a = np.cumsum(model.transitions, axis=1)
    states[:, 0] = _categorical_rows(cum_pi[None, :], rng.random(size))
    for t in range(1, tau):
        states[:, t] = _categorical_rows(cum_a[states[:, t - 1]], rng.random(size))
    cum_c = np.cumsum(model.mix_weights, axis=1)
    comps = _categorical_rows(cum_c[states], rng.random((size, tau)))
    normals = rng.standard_normal((size, tau, d))
    means = model.means[states, comps]
    if model.covs.ndim == 3:
        obs = means + normals * np.sqrt(model.covs)[states, comps]
    else:
        chol = np.linalg.cholesky(model.covs)
        obs = means + np.einsum("stij,stj->sti", chol[states, comps], normals)
    return obs, states


# ---------------------------------------------------------------------------
# Expected sufficient statistics (shared by the mixture EM and the reduction)


@dataclass
class _Stats:
    """Expected counts. Per-item statistics (real sequences, or the virtual
    sequences of base components) carry a leading S axis on every field;
    totals, as the M-step takes them, have none."""

    pi: np.ndarray  # (N,)
    trans: np.ndarray  # (N, N)
    mix: np.ndarray  # (N, M)
    mean: np.ndarray  # (N, M, d)
    sq: np.ndarray  # (N, M, d) diagonal second moments or (N, M, d, d) outer

    @classmethod
    def concatenate(cls, parts: list["_Stats"]) -> "_Stats":
        """Per-sequence statistics of several batches, one after another."""
        return cls(*(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(cls)))

    def weighted_sum(self, weights: np.ndarray) -> "_Stats":
        """Totals of per-sequence statistics, sequence s weighted by weights[s]."""
        return _Stats(
            *(np.einsum("s,s...->...", weights, getattr(self, f.name)) for f in fields(self))
        )


def _log_posteriors(
    log_pi: np.ndarray, log_a: np.ndarray, log_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward-backward in log domain: state posteriors gamma (S, tau, N),
    per-sequence transition counts (S, N, N) and log-likelihoods (S,). The
    fallback for sequences whose scaled pass underflows or overflows."""
    tau = log_b.shape[1]
    alpha, lls = _log_forward(log_pi, log_a, log_b)
    # gamma and xi are renormalized per sequence and step, so neither the
    # scaling of alpha nor the scale of beta enters.
    beta = np.empty_like(alpha)
    beta[:, -1] = 0.0
    for t in range(tau - 2, -1, -1):
        beta[:, t] = logsumexp(
            log_a[None] + (log_b[:, t + 1] + beta[:, t + 1])[:, None, :], axis=2
        )
    log_gamma = alpha + beta
    log_gamma -= logsumexp(log_gamma, axis=2, keepdims=True)
    trans = np.zeros(alpha.shape[:1] + log_a.shape)
    for t in range(tau - 1):
        log_xi = (
            alpha[:, t, :, None]
            + log_a[None]
            + (log_b[:, t + 1] + beta[:, t + 1])[:, None, :]
        )
        log_xi -= logsumexp(log_xi, axis=(1, 2), keepdims=True)
        trans += np.exp(log_xi)
    return np.exp(log_gamma), trans, lls


def _block_stats(model: Hmm, obs: np.ndarray) -> tuple[_Stats, np.ndarray]:
    log_b, log_joint = _log_emissions(model, obs)
    b, alpha, scale, lls, ok = _scaled_forward(model, log_b)
    # Scaled backward pass: w_t = b_t * beta_t / c_t and beta_{t-1} = w_t A^T,
    # so gamma = alpha * beta and xi_t = A * (alpha_t^T w_{t+1}). Where alpha
    # is zero, beta may overflow: such rows come out non-finite here and, like
    # the rows ok marks, are redone in log domain.
    a = model.transitions
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        w = b / scale[..., None]
        beta = np.empty_like(b)
        beta[:, -1] = 1.0
        for t in range(b.shape[1] - 1, 0, -1):
            w[:, t] *= beta[:, t]
            beta[:, t - 1] = w[:, t] @ a.T
        trans = a * (np.swapaxes(alpha[:, :-1], 1, 2) @ w[:, 1:])
        gamma = np.multiply(alpha, beta, out=alpha)  # (S, tau, N)
    redo = ~(ok & np.isfinite(gamma).all(axis=(1, 2)) & np.isfinite(trans).all(axis=(1, 2)))
    if redo.any():
        gamma[redo], trans[redo], _ = _log_posteriors(*_log_chain(model), log_b[redo])

    # Within-state mixture responsibilities, in place; log_b is log_joint's normalizer.
    gamma_mix = log_joint
    gamma_mix -= log_b[..., None]
    np.exp(gamma_mix, out=gamma_mix)
    gamma_mix *= gamma[..., None]  # (S, tau, N, M)
    if model.covs.ndim == 3:
        sq = np.einsum("stnm,std->snmd", gamma_mix, obs * obs)
    else:
        sq = np.einsum("stnm,sti,stj->snmij", gamma_mix, obs, obs)
    # Every field is a fresh array: a view would keep the (S, tau, ...) arrays alive.
    stats = _Stats(
        pi=gamma[:, 0].copy(),
        trans=trans,
        mix=gamma_mix.sum(axis=1),
        mean=np.einsum("stnm,std->snmd", gamma_mix, obs),
        sq=sq,
    )
    return stats, lls


def _expected_stats(model: Hmm, obs: np.ndarray) -> tuple[_Stats, np.ndarray]:
    """One forward-backward pass over an equal-length (S, tau, d) batch, run
    block by block.

    Returns the per-sequence sufficient statistics (leading S axis, no tau
    axis) and the per-sequence log-likelihoods, which come from the same
    forward recursion as forward_loglik_batch and equal it bit for bit.
    """
    parts = [_block_stats(model, block) for block in _blocks(model, obs)]
    return _Stats.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def _mstep(stats: _Stats, previous: Hmm, cov_floor: float) -> Hmm:
    """Parameter updates from accumulated counts.

    Rows or components that received no mass keep their previous values: the
    objective is flat in them, so leaving them untouched preserves the
    monotone-likelihood guarantee. Covariances are floored on the diagonal,
    and a full one that is still not positive definite gains cov_floor * I.
    """
    initial = stats.pi / stats.pi.sum()
    trans_total = stats.trans.sum(axis=1, keepdims=True)
    transitions = np.divide(
        stats.trans, trans_total, out=previous.transitions.copy(), where=trans_total > 0
    )
    mix_total = stats.mix.sum(axis=1, keepdims=True)
    keep_row = mix_total <= 0
    mix_weights = np.divide(stats.mix, mix_total, out=previous.mix_weights.copy(), where=~keep_row)
    live = ~keep_row & ~(stats.mix <= 1e-12)  # NaN mass is updated, and then rejected
    mass = stats.mix[live]
    mu = stats.mean[live] / mass[:, None]
    if stats.sq.ndim == 3:
        cov = np.maximum(stats.sq[live] / mass[:, None] - mu * mu, cov_floor)
    else:
        cov = stats.sq[live] / mass[:, None, None] - mu[:, :, None] * mu[:, None, :]
        cov = 0.5 * (cov + np.swapaxes(cov, 1, 2))
        d = mu.shape[1]
        diag = np.arange(d)
        cov[:, diag, diag] = np.maximum(cov[:, diag, diag], cov_floor)
        for matrix in cov:
            try:
                np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError:  # nearly singular off the diagonal
                matrix += cov_floor * np.eye(d)
    means = previous.means.copy()
    means[live] = mu
    covs = previous.covs.copy()
    covs[live] = cov
    return Hmm.from_arrays(initial, transitions, mix_weights, means, covs)


# ---------------------------------------------------------------------------
# Initialization and fitting


def _kmeans(points: np.ndarray, k: int, rng: np.random.Generator, n_iter: int = 25) -> np.ndarray:
    """Plain Lloyd iterations from k distinct seed points; deterministic
    given the generator. Returns centers sorted lexicographically."""
    unique = np.unique(points, axis=0)
    if unique.shape[0] < k:
        raise EstimationError(
            f"need at least {k} distinct observation vectors, found {unique.shape[0]}"
        )
    centers = unique[rng.choice(unique.shape[0], size=k, replace=False)]
    for _ in range(n_iter):
        d2 = np.sum((points[:, None, :] - centers[None]) ** 2, axis=2)
        assign = np.argmin(d2, axis=1)
        new_centers = centers.copy()
        for j in range(k):
            mask = assign == j
            if np.any(mask):
                new_centers[j] = points[mask].mean(axis=0)
        if np.allclose(new_centers, centers):
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
    centers = _kmeans(pooled, n_states * n_mix, rng)
    var = np.maximum(pooled.var(axis=0), config.cov_floor)
    cov = var if config.cov_type == "diag" else np.diag(var)
    initial = rng.dirichlet(np.full(n_states, 200.0))
    transitions = rng.dirichlet(np.full(n_states, 200.0), size=n_states)
    mix_weights = np.full((n_states, n_mix), 1.0 / n_mix)
    covs = np.broadcast_to(cov, (n_states, n_mix) + cov.shape)
    means = centers.reshape(n_states, n_mix, -1)
    return Hmm.from_arrays(initial, transitions, mix_weights, means, covs)


def group_by_length(data: list[Sequence]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Batch sequences of equal length: list of (obs (S, tau, d), indices)."""
    lengths: dict[int, list[int]] = {}
    for idx, seq in enumerate(data):
        lengths.setdefault(seq.length, []).append(idx)
    groups = []
    for tau in sorted(lengths):
        idxs = np.array(lengths[tau], dtype=int)
        obs = np.stack([data[i].observations for i in idxs])
        groups.append((obs, idxs))
    return groups


def _check_data(data: list[Sequence]) -> int:
    if not data:
        raise EstimationError("no sequences provided")
    d = data[0].dim
    for seq in data:
        if seq.dim != d:
            raise InvalidModelError("sequences have inconsistent dimensions")
    return d
