"""Mixtures of HMMs: the model type, the mixture-EM step that both
estimators share, EM estimation from raw sequences (and Baum-Welch as its
one-component case), and the Monte Carlo expected-log-likelihood oracle.

A mixture holds one stack of its components' arrays, which every kernel
reads; its ``components`` are views of the rows, rebuilt on each read.

Both estimators are EM over items with a per-item, per-component objective:
``h3m_em`` over real sequences (count 1, objective the log-likelihood) and
the reduction over base components (count the virtual sample mass, objective
the pair bound). Each hands one run, ``_em``, a start, its pass and the
source of its repaired rows; ``_em`` owns the rest: the floor of the start
and of every repaired row (``gaussians._floor_covs``, the M-step's floor),
``compute_assignments`` (the soft assignments z, a plain array, and each
item's log-normalizer, whose sum is the objective), ``_converged``, the one
repair rule and ``mstep`` (the weight update and one ``hmm._mstep`` call for
all components). ``_best_start`` keeps the seeded run whose traced objective
ends highest, and the estimator builds its public result once, from it.

One mixture component is responsible for a whole sequence (the assignment is
drawn once per sequence, not per frame). Each EM iteration runs one pass of
all K components, stacked, over all length groups of the data
(``hmm._expected_stats``: scaled, in probability domain, block by block): it
yields both the log-likelihoods behind the responsibilities and the
per-sequence statistics that, weighted by the responsibilities, feed the
M-step. A repair reruns only the repaired rows. The last possible E-step (at
``max_iters``) has no M-step after it, and its pass runs forward only.
``baum_welch`` is ``h3m_em`` with a single component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWeightsError, EstimationError, InvalidModelError
from .gaussians import _floor_covs, _full, _responsibilities, check_probability_vector, logsumexp
from .hmm import (
    EmConfig,
    Hmm,
    HmmFit,
    Sequence,
    _check_arrays,
    _check_counts,
    _check_data,
    _Checked,
    _expected_stats,
    _init_hmm,
    _models,
    _mstep,
    _stack,
    _Stats,
    forward_loglik_batch,
    group_by_length,
    sample_batch,
)


class H3m:
    """Mixture of HMMs with shared state count, mixture size, dimension and
    covariance layout: its weights and ``arrays``, one ``hmm._Checked``
    stack of the components. Built from such a stack, held as given, or
    from a list of ``Hmm``, which ``hmm._stack`` stacks once and rejects if
    the shapes differ. Not mutated."""

    def __init__(self, weights, components: list[Hmm] | _Checked) -> None:
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.ndim != 1:
            raise InvalidModelError("mixture weights must be a vector")
        self.arrays = components if isinstance(components, _Checked) else _stack(components)
        k = self.n_components
        if self.weights.shape[0] != k:
            raise InvalidModelError(f"{self.weights.shape[0]} weights for {k} components")
        check_probability_vector(self.weights, "mixture weights")

    @property
    def components(self) -> list[Hmm]:
        """Models that are views of the rows of ``arrays``, rebuilt on each read."""
        return _models(self.arrays)

    @property
    def n_components(self) -> int:
        return self.arrays.initial.shape[0]

    @property
    def n_states(self) -> int:
        return self.arrays.initial.shape[1]

    @property
    def n_mix(self) -> int:
        return self.arrays.mix_weights.shape[2]

    @property
    def dim(self) -> int:
        return self.arrays.means.shape[3]


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


@dataclass
class AssignmentMatrix:
    """Row-stochastic soft assignment of items (sequences, or base
    components) to mixture components."""

    z: np.ndarray

    def __post_init__(self) -> None:
        self.z = np.asarray(self.z, dtype=float)
        if self.z.ndim != 2:
            raise InvalidModelError("assignment matrix must be 2-dimensional")
        check_probability_vector(self.z, "assignment row")


def compute_assignments(
    objectives: np.ndarray, weights: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Soft assignment z of each item to the components: row i is the softmax
    over j of log w[j] + counts[i] * objectives[i, j], never forming the
    exponentials directly. Also returns each row's log-normalizer; their sum
    is the objective at these assignments (the log-likelihood of the items,
    or of the virtual samples). Non-finite objectives, or ones that overflow
    to either infinity when scaled by their counts, are a numerical failure;
    a row whose log-weights are all -inf has no mass to assign."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scaled = counts[:, None] * objectives
        logits = np.log(weights)[None, :] + scaled
    if not np.isfinite(scaled).all():  # a non-finite objective, or an overflow
        raise EstimationError("pair objectives must be finite")
    norm = logsumexp(logits, axis=1)
    if np.any(norm == -np.inf):
        raise DegenerateWeightsError("an item's assignment log-weights are all -inf")
    probs = _responsibilities(logits, norm)
    return probs / probs.sum(axis=1, keepdims=True), norm


def _starved(z: np.ndarray, counts: np.ndarray) -> list[int]:
    """Components whose soft mass is below a thousandth of the total count."""
    return np.flatnonzero(counts @ z < 1e-3 * counts.sum()).tolist()


def _converged(trace: list[float], tol: float) -> bool:
    """Whether the objective's last change, in absolute value and relative
    to its previous value, is below tol. In absolute value because a repair
    may lower the objective, and the run then goes on."""
    return len(trace) > 1 and abs(trace[-1] - trace[-2]) / max(abs(trace[-2]), 1e-300) < tol


def _em(model: H3m, run, counts: np.ndarray, n_esteps: int, tol: float, item_models,
        cov_floor: float):
    """The mixture-EM run of both estimators, from the start ``model``. Its
    covariances, and those of every repair's rows, are floored at cov_floor
    by ``_floor_covs``, as every M-step floors them: a start below the floor
    would let the first M-step lower the objective. Each E-step is one
    ``run(arrays, stats)`` over all items: their statistics (None unless
    ``stats``) and objectives (items, K), which ``compute_assignments``
    weighs by ``counts`` into z and the traced objective. Stops on
    ``_converged`` or after ``n_esteps`` E-steps, the last possible of which
    builds no statistics. Else ``mstep`` gives the next model, after the
    one repair rule, at most twice per run: each ``_starved`` component takes
    an item, the n-th repair of the run the n-th worst by best objective or
    the next (wrapping round) that no repair took. One ``run`` of the stack
    ``item_models(items)`` gives the components their rows and statistics
    (non-finite objectives are an EstimationError, as in the main pass), and
    the items' z rows turn one-hot on them. Returns (model, z, trace, repairs)."""

    def floored(arrays: _Checked) -> _Checked:
        return _Checked(*arrays[:4], _floor_covs(arrays.covs, cov_floor, _full(*arrays[3:])))

    model = H3m(model.weights, floored(model.arrays))
    trace, taken = [], []
    for _ in range(n_esteps):
        stats = None  # release the previous iteration's statistics first
        stats, objectives = run(model.arrays, len(trace) < n_esteps - 1)
        z, norms = compute_assignments(objectives, model.weights, counts)
        trace.append(float(np.sum(norms)))
        if _converged(trace, tol) or len(trace) == n_esteps:
            break
        starved = _starved(z, counts)[:2 - len(taken)]
        if starved:
            worst_first = np.argsort(objectives.max(axis=1), kind="stable").tolist()
            for _ in starved:
                n = len(taken)
                taken.append(next(i for i in worst_first[n:] + worst_first[:n] if i not in taken))
            items = taken[-len(starved):]
            rows = floored(item_models(items))
            fresh, scores = run(rows, True)
            if not np.all(np.isfinite(scores)):
                raise EstimationError("pair objectives must be finite")
            for column, new in zip(vars(stats).values(), vars(fresh).values()):
                column[:, starved] = new
            arrays = _Checked(*(a.copy() for a in model.arrays))
            for a, row in zip(arrays, rows):
                a[starved] = row
            model = H3m(model.weights, arrays)
            z[items] = 0.0
            z[items, starved] = 1.0
        model = mstep(z, stats, counts, model, cov_floor)
    return model, z, trace, len(taken)


def _best_start(fit, n_starts: int, rng: np.random.Generator):
    """The restart rule of both estimators: the ``_em`` run ``fit(rng)`` if
    ``n_starts`` is 1, else the first of the runs ``fit(child)`` over
    ``rng.spawn(n_starts)`` whose traced objective ends highest."""
    if n_starts == 1:
        return fit(rng)
    return max((fit(child) for child in rng.spawn(n_starts)), key=lambda run: run[2][-1])


def mstep(
    z: np.ndarray,
    stats: _Stats,
    counts: np.ndarray,
    previous: H3m,
    cov_floor: float = 1e-6,
) -> H3m:
    """Closed-form re-estimation of a mixture from weighted item statistics.

    ``stats`` holds every item's statistics under every component, item-major
    (items, K, ...): per sequence for ``h3m_em``, per base component for the
    reduction (``reduction._virtual_stats_all``). Component j is row j of one
    ``hmm._mstep`` call on their sums weighted by z[i, j] * counts[i]; the
    mixture weight of component j is the mean of z[:, j] over the items,
    whatever their counts (HEM's update, Vasconcelos & Lippman 1999: it
    maximizes sum_i log sum_j w_j exp(counts[i] * objectives[i, j]) over
    the weights). Starved components (``_starved``) get no mass and keep
    their previous parameters. A parameter that is not finite, such as a
    covariance whose moments overflowed, is a numerical failure.
    """
    w = z * counts[:, None]
    w[:, _starved(z, counts)] = 0.0
    new = _mstep(stats.weighted_sum(w), previous.arrays, cov_floor)
    if not all(np.isfinite(a).all() for a in new):
        raise EstimationError("M-step parameters are not finite")
    weights = np.full(z.shape[0], 1.0 / z.shape[0]) @ z
    return H3m(weights, _check_arrays(*new, axes=("component",)))


def mc_expected_loglik(
    base: Hmm, reduced: Hmm, tau: int, n_samples: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte Carlo estimate of E over sequences from ``base`` of the log-likelihood
    under ``reduced``: (mean, standard error), (-inf, inf) if it cannot emit a draw.
    Where finite scores sum, or their squared deviations do, beyond the float
    range, both are taken on the scores divided by the largest |score|."""
    _check_counts(2, n_samples=n_samples)
    obs, _ = sample_batch(base, tau, n_samples, rng)
    lls = forward_loglik_batch(reduced, obs)
    with np.errstate(over="ignore"):
        if not np.isfinite(lls).all():
            return float(lls.mean()), np.inf
        scale = 1.0 if np.isfinite([lls.mean(), lls.std(ddof=1)]).all() else np.abs(lls).max()
    scaled = lls / scale
    return float(scale * scaled.mean()), float(scale * scaled.std(ddof=1) / np.sqrt(n_samples))


def h3m_em(
    data: list[Sequence],
    k: int,
    n_states: int,
    n_mix: int,
    config: EmConfig | None = None,
    rng: np.random.Generator | None = None,
) -> H3mFit:
    """EM estimation of a K-component HMM mixture from raw sequences.

    Sequence-level assignments: responsibilities come from
    ``compute_assignments`` with the sequences as items, and the M-step is
    ``mstep``. Stops on ``_converged`` or at config.max_iters M-steps (the
    E-step after the last one runs forward only). A component with less than
    a thousandth of the responsibility is repaired by ``_em``'s rule from a
    start fit to one sequence (``_init_hmm``), or to all the data if that
    sequence has too few distinct vectors. With config.n_starts > 1,
    ``_best_start`` keeps the best of the seeded starts.
    """
    _check_counts(k=k, n_states=n_states, n_mix=n_mix)
    config = config or EmConfig()
    _check_data(data)
    if len(data) < k:
        raise EstimationError(f"{len(data)} sequences cannot support {k} components")
    # Items are the E-step rows: sequences grouped by length, each with count 1.
    groups = group_by_length(data)
    batches = [[data[i].observations for i in idxs] for idxs in groups]
    rows = np.concatenate(groups)  # sequence index of each E-step row
    n_seq = len(data)
    ones = np.ones(n_seq)

    def run(arrays, stats):
        return _expected_stats(arrays, batches, stats)

    def fit(rng):
        order = rng.permutation(n_seq) if k > 1 else range(n_seq)
        shards = ([data[i] for i in order[j::k]] for j in range(k))
        components = [_init_hmm(shard, n_states, n_mix, config, rng) for shard in shards]
        model = H3m(np.full(k, 1.0 / k), components)

        def item_models(items):  # a start fit to each sequence, or to all the data
            starts = []
            for item in items:
                try:
                    starts.append(_init_hmm([data[rows[item]]], n_states, n_mix, config, rng))
                except EstimationError:
                    starts.append(_init_hmm(data, n_states, n_mix, config, rng))
            return _stack(starts)

        return _em(model, run, ones, config.max_iters + 1, config.tol, item_models,
                   config.cov_floor)

    rng = rng if rng is not None else np.random.default_rng()
    model, z, trace, reseeds = _best_start(fit, config.n_starts, rng)
    posteriors = np.empty_like(z)
    posteriors[rows] = z
    return H3mFit(model=model, posteriors=posteriors, loglik_trace=trace, reseeds=reseeds)


def baum_welch(
    data: list[Sequence],
    n_states: int,
    n_mix: int,
    config: EmConfig | None = None,
    rng: np.random.Generator | None = None,
) -> HmmFit:
    """Maximum-likelihood HMM estimation: ``h3m_em`` with one component.

    The total log-likelihood is non-decreasing across iterations; stops when
    its relative change drops below config.tol or at config.max_iters.
    With config.n_starts > 1, the best of several seeded starts is returned.
    """
    fit = h3m_em(data, 1, n_states, n_mix, config, rng)
    return HmmFit(model=fit.model.components[0], loglik_trace=fit.loglik_trace)
