"""Gaussian and Gaussian-mixture primitives, on arrays.

All likelihood-like quantities are carried in log domain; probabilities are
never multiplied together directly. Covariances come in two layouts: diagonal
(a length-d vector of variances) or full (a d x d symmetric positive-definite
matrix). This module alone tells them apart, by one rule, ``_full``: a
covariance with one more axis than its mean is a matrix. Every covariance
operation of the library lives here and supports both layouts, one at a time:
the checks, the log-density kernel, the floor (``_floor_covs``), the M-step's
Gaussian from weighted moments (``_gaussian_update``), the sampling draw
(``_draw``) and a covariance of a chosen ``cov_type`` built from variances
(``_covariance``); no other module calls ``np.linalg``.
``_check_emissions`` checks the emission arrays of every stack of HMMs,
``_check_rows`` every stack of stochastic rows and ``_check_pair`` every pair
of stacks. ``_cross_terms``, the one Gaussian log-density kernel (points and
Gaussians alike), both estimators' mixture step around it (``_mixture_terms``,
``_responsibilities``) and their one emission-statistics kernel
(``_emission_stats``, with ``_outer``, the one outer product of means or
observations) check nothing: their callers hand them checked stacks.
``Gaussian`` and ``GaussianMixture`` are plain records that only
``Hmm.emissions`` builds, from checked arrays: an output view that no function
takes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, InvalidModelError

# Tolerance for "sums to one" checks on probability vectors.
WEIGHT_TOL = 1e-12

LOG_2PI = float(np.log(2.0 * np.pi))


def logsumexp(a, axis=None, keepdims: bool = False):
    """log(sum(exp(a))) over ``axis`` (an int, a tuple of ints or None for
    all), shifted by the maximum so nothing overflows. A slice that is all
    -inf gives -inf, without a warning."""
    a = np.asarray(a, dtype=float)
    hi = np.maximum.reduce(a, axis=axis, keepdims=True)
    if np.isfinite(hi).all():  # every slice holds exp(0) = 1: log cannot warn
        out = np.log(np.add.reduce(np.exp(a - hi), axis=axis, keepdims=keepdims))
    else:  # a slice that is all -inf, or holds +inf or NaN, is shifted by 0
        hi = _finite(hi)
        with np.errstate(divide="ignore"):
            out = np.log(np.add.reduce(np.exp(a - hi), axis=axis, keepdims=keepdims))
    return out + (hi if keepdims else hi.reshape(np.shape(out)))


def _finite(shift: np.ndarray) -> np.ndarray:
    """A log shift (maximum or normalizer) where finite, else 0: -inf stays -inf, not NaN."""
    return np.where(np.isfinite(shift), shift, 0.0)


def _full(mean: np.ndarray, cov: np.ndarray) -> bool:
    """The library's one covariance layout rule: a covariance with one more
    axis than its mean is a (..., d, d) matrix, else (..., d) variances."""
    return cov.ndim > mean.ndim


def _layout(mean: np.ndarray, cov: np.ndarray) -> str:
    """The layout's name in messages: "full" or "diagonal"."""
    return "full" if _full(mean, cov) else "diagonal"


def _covariance(variances: np.ndarray, cov_type: str, cov_floor: float = 0.0) -> np.ndarray:
    """A covariance of layout ``cov_type`` ("diag" or "full") with the given
    variances (d,), floored at cov_floor: the variances, or their diagonal matrix."""
    variances = _floor_covs(variances, cov_floor, full=False)
    return np.diag(variances) if cov_type == "full" else variances


def check_probability_vector(vec: np.ndarray, name: str) -> None:
    """Raise InvalidModelError unless vec, a vector or a matrix of row
    vectors, is finite, nonnegative and sums to 1 within WEIGHT_TOL along every row.
    For a matrix the message names the first bad row as ``{name} {index}``."""
    _check_rows(np.atleast_1d(vec), name, ())


def _check_rows(rows: np.ndarray, name: str, axes: tuple[str, ...]) -> None:
    """``check_probability_vector`` over a stack with the leading axes
    ``axes``, each entry a vector or a matrix of row vectors, in one pass; a
    failure names its entry on ``axes`` (``_at``), then the row."""
    # A NaN or infinite entry makes its row's total NaN or infinite, which
    # fails the tolerance. With no negative (or NaN) entry no row holds -inf, so
    # no total is inf - inf. A valid input costs one minimum and one row sum;
    # the totals are then compared as Python floats, in the same arithmetic.
    if rows.size and rows.min() >= 0:
        if all(abs(total - 1.0) <= WEIGHT_TOL for total in np.ravel(rows.sum(axis=-1)).tolist()):
            return
    with np.errstate(invalid="ignore"):
        totals = rows.sum(axis=-1)
    ok = ~(rows < 0).any(axis=-1) & (np.abs(totals - 1.0) <= WEIGHT_TOL)
    index = np.unravel_index(int(ok.argmin()), ok.shape)
    label = _at(axes, ok) + (name if ok.ndim == len(axes) else f"{name} {index[-1]}")
    if (rows[index] < 0).any():
        raise InvalidModelError(f"{label} has negative entries: {rows[index]}")
    total = float(totals[index])
    raise InvalidModelError(f"{label} sums to {total!r}, expected 1 within {WEIGHT_TOL}")


def _float_array(value, name: str) -> np.ndarray:
    """A fresh float array of value; a ragged or non-numeric value is an
    InvalidModelError."""
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidModelError(f"{name} is not a numeric array: {exc}") from exc


def _at(axes: tuple[str, ...], ok: np.ndarray) -> str:
    """Where the first failure of an elementwise test over arrays with the
    leading axes ``axes`` is, as a message prefix such as
    ``"state 1, mixture component 0: "``; empty with no axes."""
    if not axes:
        return ""
    bad = ~ok.reshape(ok.shape[: len(axes)] + (-1,)).all(axis=-1)
    index = np.unravel_index(int(bad.argmax()), bad.shape)
    return ", ".join(f"{axis} {i}" for axis, i in zip(axes, index)) + ": "


def _check_emissions(
    weights, means, covs, axes: tuple[str, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Emission parameters as fresh float arrays, or InvalidModelError
    naming the first bad one by its position on ``axes``, one name per
    leading axis, the last two the state and the mixture component. Means
    are (..., d), covs (..., d) variances or (..., d, d) matrices, and
    weights (...) rows of mixture weights. Checked: shapes, stochastic rows,
    finite means and covariances, positive variances, symmetric full
    covariances, and positive definite ones (one batched Cholesky; if it
    fails, one batched ``eigvalsh`` names the entry)."""
    means = _float_array(means, "means")
    covs = _float_array(covs, "covs")
    if means.ndim != len(axes) + 1:
        raise InvalidModelError(
            f"means must be {len(axes) + 1}-dimensional, got shape {means.shape}"
        )
    shape = means.shape + means.shape[-1:]
    if covs.shape not in (means.shape, shape):
        raise InvalidModelError(
            f"covs have shape {covs.shape}, expected {means.shape} variances"
            f" or {shape} matrices for means of shape {means.shape}"
        )
    weights = _float_array(weights, "mixture weights")
    if weights.shape != means.shape[:-1]:
        raise InvalidModelError(
            f"mixture weights have shape {weights.shape}, expected {means.shape[:-1]}"
        )
    _check_rows(weights, f"mixture weights of {axes[-2]}", axes[:-2])
    for ok, problem in (
        (np.isfinite(means), "mean contains non-finite entries"),
        (np.isfinite(covs), "cov contains non-finite entries"),
    ):
        if not ok.all():
            raise InvalidModelError(_at(axes, ok) + problem)
    if not _full(means, covs):
        ok = covs > 0
        if not ok.all():
            raise InvalidModelError(_at(axes, ok) + "diagonal cov has non-positive variances")
        return weights, means, covs
    # np.allclose(cov, cov.T, atol=1e-10), for every matrix at once.
    transposed = np.swapaxes(covs, -1, -2)
    ok = np.abs(covs - transposed) <= 1e-10 + 1e-5 * np.abs(transposed)
    if not ok.all():
        raise InvalidModelError(_at(axes, ok) + "full cov is not symmetric")
    try:
        np.linalg.cholesky(covs)
    except np.linalg.LinAlgError as exc:
        # The first entry with an eigenvalue <= 0, or, where rounding leaves
        # none, the one with the smallest eigenvalue.
        lowest = np.linalg.eigvalsh(covs)[..., 0]
        ok = lowest > 0 if (lowest <= 0).any() else lowest > lowest.min()
        raise InvalidModelError(_at(axes, ok) + "full cov is not positive definite") from exc
    return weights, means, covs


def _check_pair(base: tuple, reduced: tuple) -> None:
    """InvalidModelError unless two (means, covs) stacks of any depth share
    a dimension and a covariance layout (covs with one more axis are full)."""
    (mu_b, cov_b), (mu_r, cov_r) = base, reduced
    if mu_b.shape[-1] != mu_r.shape[-1]:
        raise InvalidModelError(
            f"dimension mismatch: base d={mu_b.shape[-1]}, reduced d={mu_r.shape[-1]}"
        )
    if _full(mu_b, cov_b) != _full(mu_r, cov_r):
        layouts = _layout(*base), _layout(*reduced)
        raise InvalidModelError("covariance layout mismatch: base {}, reduced {}".format(*layouts))


@dataclass(frozen=True)
class Gaussian:
    """One emission component of ``Hmm.emissions``: its mean (d,) and its
    covariance, (d,) variances or a (d, d) matrix."""

    mean: np.ndarray
    cov: np.ndarray


@dataclass(frozen=True)
class GaussianMixture:
    """One state's emission mixture of ``Hmm.emissions``: its weights (M,)
    and its components."""

    weights: np.ndarray
    components: list[Gaussian]


def _cross_terms(
    mu_b: np.ndarray, cov_b: np.ndarray | None, mu_r: np.ndarray, cov_r: np.ndarray
) -> np.ndarray:
    """E over y ~ N(mu_b, cov_b) of log N(y; mu_r, cov_r), over the broadcast
    leading axes of the stacked arguments, or with ``cov_b`` None the
    log-density of the point mu_b (the trace term 0). Means are (..., d);
    covariances (..., d) variances or (..., d, d) matrices, in one layout:
    -1/2 [ d log 2pi + log|S_r| + tr(S_r^-1 S_b) + (m_r - m_b)^T S_r^-1 (m_r - m_b) ].
    The diagonal layout sums the last term in place, a coordinate at a time;
    the full one solves against one batched Cholesky factor L of each S_r.
    Arguments are trusted, checked on entry."""
    d = mu_b.shape[-1]
    with np.errstate(over="ignore"):  # a term that overflows is inf, and the value -inf
        if not _full(mu_r, cov_r):
            log_det = np.sum(np.log(cov_r), axis=-1)
            trace = 0.0 if cov_b is None else np.sum(cov_b / cov_r, axis=-1)
            maha = np.zeros(np.broadcast_shapes(mu_b.shape, mu_r.shape, cov_r.shape)[:-1])
            term = np.empty_like(maha)
            for i in range(d):
                np.subtract(mu_r[..., i], mu_b[..., i], out=term)
                term *= term
                term /= cov_r[..., i]
                maha += term
        else:
            chol = np.linalg.cholesky(cov_r)
            log_det = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
            trace = 0.0
            if cov_b is not None:
                whole = np.linalg.solve(np.swapaxes(chol, -1, -2), np.linalg.solve(chol, cov_b))
                trace = np.trace(whole, axis1=-2, axis2=-1)
            solved = np.linalg.solve(chol, (mu_r - mu_b)[..., None])[..., 0]
            maha = np.einsum("...d,...d->...", solved, solved)
        maha += d * LOG_2PI + log_det + trace  # in place: a block's arrays are allocated once
        maha *= -0.5
        return maha


def _mixture_terms(weights: np.ndarray, *gaussians) -> tuple[np.ndarray, np.ndarray]:
    """The mixture step of both estimators, components on the last axis:
    log weight + ``_cross_terms(*gaussians)`` per component, and their logsumexp."""
    table = _cross_terms(*gaussians)
    with np.errstate(divide="ignore"):
        table += np.log(weights)
    return table, logsumexp(table, axis=-1)


def _responsibilities(table: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """Softmax over the last axis from its logsumexp ``norm``, written over
    ``table``; a row all -inf gets 0."""
    table -= _finite(norm)[..., None]
    return np.exp(table, out=table)


def _outer(x: np.ndarray, full: bool) -> np.ndarray:
    """x x^T over the last axis (..., d, d) if ``full``, else its diagonal
    x * x (..., d); an entry beyond the float range is inf, without a warning."""
    with np.errstate(over="ignore"):
        return x[..., :, None] * x[..., None, :] if full else x * x


def _emission_stats(weights: np.ndarray, points: np.ndarray, second: np.ndarray) -> tuple:
    """The emission statistics of both estimators, item-major as
    ``hmm._Stats`` holds them: from the weights (I, K, S, N, M) of the S
    samples of each item I in every state and component of K models, and
    the samples' points (I, S, d) and second moments (I, S, d) or
    (I, S, d, d), their masses (I, K, N, M) and weighted sums of points
    (I, K, N, M, d) and of second moments. An observation is a point with
    second moment ``_outer(x)``; a virtual sample of a Gaussian (mu, cov) is
    mu with cov + ``_outer(mu)``. A sample with no weight adds exactly 0,
    whatever its moments."""
    live = weights.any(axis=(1, 3, 4))  # (I, S)
    kept = (np.where(live[(...,) + (None,) * (x.ndim - 2)], x, 0.0) for x in (points, second))
    return weights.sum(axis=2), *(np.einsum("iksnm,is...->iknm...", weights, x) for x in kept)


def _floor_covs(covs: np.ndarray, cov_floor: float, full: bool) -> np.ndarray:
    """Variances, or (..., d, d) matrices if ``full``, with eigenvalues below
    cov_floor raised to it and eigenvectors kept: the Gaussian likelihood
    maximizer over covariances with eigenvalues >= cov_floor (Won, Lim, Kim
    & Rajaratnam 2013). Non-finite matrices are left to the parameter check.
    ``covs`` itself if none is below; EstimationError if a rebuilt one fails Cholesky."""
    if not full:
        return np.maximum(covs, cov_floor) if np.any(covs < cov_floor) else covs
    finite = np.isfinite(covs).all(axis=(-2, -1))  # eigh may fail on the others
    values, vectors = np.linalg.eigh(np.where(finite[..., None, None], covs, 0.0))
    low = (values[..., 0] < cov_floor) & finite
    if low.any():
        v = vectors[low]
        rebuilt = (v * np.maximum(values[low], cov_floor)[:, None]) @ np.swapaxes(v, 1, 2)
        covs = covs.copy()
        covs[low] = 0.5 * (rebuilt + np.swapaxes(rebuilt, 1, 2))
        try:
            np.linalg.cholesky(covs[low])
        except np.linalg.LinAlgError as exc:
            raise EstimationError(f"covariance floored at {cov_floor} is lost to rounding") from exc
    return covs


def _gaussian_update(
    mass: np.ndarray, mean: np.ndarray, sq: np.ndarray, cov_floor: float
) -> tuple[np.ndarray, np.ndarray]:
    """The M-step's Gaussians from weighted moments: masses (n,), weighted
    sums of points (n, d) and of second moments (n, d) or (n, d, d) give
    mu = mean / mass and cov = sq / mass - ``_outer(mu)``, full matrices
    symmetrized (for bases whose covariances are symmetric only within the
    check's tolerance), then floored by ``_floor_covs``. A moment beyond the
    float range gives a non-finite Gaussian without a warning: the caller
    rejects it."""
    full = _full(mean, sq)
    with np.errstate(over="ignore", invalid="ignore"):
        mu = mean / mass[:, None]
        cov = sq / (mass[:, None, None] if full else mass[:, None]) - _outer(mu, full)
        if full:
            cov = 0.5 * (cov + np.swapaxes(cov, 1, 2))
    return mu, _floor_covs(cov, cov_floor, full)


def _draw(means: np.ndarray, covs: np.ndarray, index: tuple, normals: np.ndarray) -> np.ndarray:
    """Draws from the Gaussians at ``index`` of a stack of means and
    covariances, given standard normals (S, tau, d): mean + sqrt(var) * normal
    per coordinate, or mean + L @ normal with L the Cholesky factor, each
    factored once per stacked covariance."""
    if not _full(means, covs):
        return means[index] + normals * np.sqrt(covs)[index]
    return means[index] + np.einsum("stij,stj->sti", np.linalg.cholesky(covs)[index], normals)
