"""Mixtures of HMMs: the model type, EM estimation from raw sequences (and
Baum-Welch as its one-component case), and the Monte Carlo
expected-log-likelihood oracle.

One mixture component is responsible for a whole sequence (the assignment is
drawn once per sequence, not per frame). Each EM iteration runs one
forward-backward pass per component over the data: it yields both the
log-likelihoods behind the responsibilities and the per-sequence statistics
that, weighted by the responsibilities, feed the M-step. The last possible
E-step (at ``max_iters``) has no M-step after it and runs the forward pass
only. ``baum_welch`` is ``h3m_em`` with a single component.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import EstimationError, InvalidModelError
from .gaussians import _shape, check_probability_vector, logsumexp
from .hmm import (
    EmConfig,
    Hmm,
    HmmFit,
    Sequence,
    _check_data,
    _expected_stats,
    _init_hmm,
    _mstep,
    _Stats,
    forward_loglik_batch,
    group_by_length,
    sample_batch,
)


@dataclass
class H3m:
    """Mixture of HMMs with shared state count, mixture size, dimension and
    covariance layout."""

    weights: np.ndarray
    components: list[Hmm]

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 1:
            raise InvalidModelError("mixture weights must be a vector")
        if len(self.components) == 0:
            raise InvalidModelError("mixture needs at least one component")
        if self.weights.shape[0] != len(self.components):
            raise InvalidModelError(
                f"{self.weights.shape[0]} weights for {len(self.components)} components"
            )
        check_probability_vector(self.weights, "mixture weights")
        shapes = [f"(N={h.n_states}, {_shape(h.emissions[0])})" for h in self.components]
        for idx, shape in enumerate(shapes):
            if shape != shapes[0]:
                raise InvalidModelError(f"component {idx} has {shape}, expected {shapes[0]}")

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def n_states(self) -> int:
        return self.components[0].n_states

    @property
    def n_mix(self) -> int:
        return self.components[0].n_mix

    @property
    def dim(self) -> int:
        return self.components[0].dim


@dataclass
class H3mFit:
    """Fitted mixture, per-sequence assignment posteriors, and the
    total log-likelihood trace."""

    model: H3m
    posteriors: np.ndarray  # (n_sequences, K)
    loglik_trace: list[float]
    reseeds: int = 0

    @property
    def n_iters(self) -> int:
        return len(self.loglik_trace) - 1

    @property
    def hard_labels(self) -> np.ndarray:
        return np.argmax(self.posteriors, axis=1)


def mc_expected_loglik(
    base: Hmm, reduced: Hmm, tau: int, n_samples: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte Carlo estimate of E over sequences from ``base`` of the log-
    likelihood under ``reduced``; returns (mean, standard error)."""
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    obs, _ = sample_batch(base, tau, n_samples, rng)
    lls = forward_loglik_batch(reduced, obs)
    return float(lls.mean()), float(lls.std(ddof=1) / np.sqrt(n_samples))


def _estep(
    model: Hmm, groups: list[tuple[np.ndarray, np.ndarray]]
) -> tuple[_Stats, np.ndarray]:
    """One forward-backward pass of ``model`` over every length group:
    per-sequence statistics and log-likelihoods, group after group."""
    parts = [_expected_stats(model, obs) for obs, _ in groups]
    return _Stats.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def h3m_em(
    data: list[Sequence],
    k: int,
    n_states: int,
    n_mix: int,
    config: EmConfig | None = None,
    rng: np.random.Generator | None = None,
) -> H3mFit:
    """EM estimation of a K-component HMM mixture from raw sequences.

    Sequence-level assignments: responsibilities are computed per sequence in
    log domain. A component whose total responsibility falls below
    n_sequences / (10 K) is re-seeded from the sequence the current mixture
    models worst, at most twice per run. With config.n_starts > 1, the best
    of several seeded starts is returned.
    """
    config = config or EmConfig()
    rng = rng if rng is not None else np.random.default_rng()
    if config.n_starts > 1:
        best: H3mFit | None = None
        for child in rng.spawn(config.n_starts):
            fit = h3m_em(data, k, n_states, n_mix, replace(config, n_starts=1), child)
            if best is None or fit.loglik_trace[-1] > best.loglik_trace[-1]:
                best = fit
        return best
    _check_data(data)
    if len(data) < k:
        raise EstimationError(f"{len(data)} sequences cannot support {k} components")
    groups = group_by_length(data)
    rows = np.concatenate([idxs for _, idxs in groups])  # sequence index of each E-step row
    n_seq = len(data)

    if k == 1:
        components = [_init_hmm(data, n_states, n_mix, config, rng)]
    else:
        order = rng.permutation(n_seq)
        components = []
        for j in range(k):
            shard = [data[i] for i in order[j::k]]
            components.append(_init_hmm(shard, n_states, n_mix, config, rng))
    weights = np.full(k, 1.0 / k)

    trace: list[float] = []
    reseeds = 0
    resp = np.full((n_seq, k), 1.0 / k)
    ll_mat = np.empty((n_seq, k))
    for _ in range(config.max_iters + 1):
        estep = None  # release the previous iteration's statistics first
        if len(trace) < config.max_iters:
            estep = [_estep(comp, groups) for comp in components]
            columns = [lls for _, lls in estep]
        else:  # the last possible E-step: no M-step follows, so no statistics
            columns = [
                np.concatenate([forward_loglik_batch(comp, obs) for obs, _ in groups])
                for comp in components
            ]
        for j, lls in enumerate(columns):
            ll_mat[rows, j] = lls
        with np.errstate(divide="ignore"):
            log_resp = np.log(weights)[None, :] + ll_mat
        seq_ll = logsumexp(log_resp, axis=1)
        resp = np.exp(log_resp - seq_ll[:, None])
        trace.append(float(np.sum(seq_ll)))
        if len(trace) > 1:
            improvement = (trace[-1] - trace[-2]) / max(abs(trace[-2]), 1e-300)
            if improvement < config.tol:
                break
        if len(trace) == config.max_iters + 1:
            break

        # Rescue starved components before committing the updates.
        mass = resp.sum(axis=0)
        for j in range(k):
            if mass[j] >= n_seq / (10.0 * k) or reseeds >= 2:
                continue
            worst = int(np.argmin(seq_ll))
            try:
                components[j] = _init_hmm([data[worst]], n_states, n_mix, config, rng)
            except EstimationError:
                components[j] = _init_hmm(data, n_states, n_mix, config, rng)
            estep[j] = _estep(components[j], groups)
            resp[worst] = 0.0
            resp[worst, j] = 1.0
            reseeds += 1
            mass = resp.sum(axis=0)

        weights = resp.sum(axis=0) / n_seq
        components = [
            _mstep(stats.weighted_sum(resp[rows, j]), components[j], config.cov_floor)
            for j, (stats, _) in enumerate(estep)
        ]

    return H3mFit(
        model=H3m(weights, components),
        posteriors=resp,
        loglik_trace=trace,
        reseeds=reseeds,
    )


def baum_welch(
    data: list[Sequence],
    n_states: int,
    n_mix: int,
    config: EmConfig | None = None,
    rng: np.random.Generator | None = None,
) -> HmmFit:
    """Maximum-likelihood HMM estimation: ``h3m_em`` with one component.

    The total log-likelihood is non-decreasing across iterations; stops when
    the relative improvement drops below config.tol or at config.max_iters.
    With config.n_starts > 1, the best of several seeded starts is returned.
    """
    fit = h3m_em(data, 1, n_states, n_mix, config, rng)
    return HmmFit(model=fit.model.components[0], loglik_trace=fit.loglik_trace)
