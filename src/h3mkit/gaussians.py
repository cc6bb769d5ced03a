"""Gaussian and Gaussian-mixture primitives.

All likelihood-like quantities are carried in log domain; probabilities are
never multiplied together directly. Covariances come in two layouts: diagonal
(a length-d vector of variances) or full (a d x d symmetric positive-definite
matrix). Every operation supports both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWeightsError, InvalidModelError

# Tolerance for "sums to one" checks on probability vectors.
WEIGHT_TOL = 1e-12

LOG_2PI = float(np.log(2.0 * np.pi))


def logsumexp(a, axis=None, keepdims: bool = False):
    """log(sum(exp(a))) over ``axis`` (an int, a tuple of ints or None for
    all), shifted by the maximum so nothing overflows. A slice that is all
    -inf gives -inf, without a warning."""
    a = np.asarray(a, dtype=float)
    hi = np.amax(a, axis=axis, keepdims=True)
    hi[~np.isfinite(hi)] = 0.0
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - hi), axis=axis, keepdims=keepdims))
    return out + (hi if keepdims else hi.reshape(np.shape(out)))


def _float_array(value, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != ndim:
        raise InvalidModelError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidModelError(f"{name} contains non-finite entries")
    return arr


def check_probability_vector(vec: np.ndarray, name: str, tol: float = WEIGHT_TOL) -> None:
    """Raise InvalidModelError unless vec, a vector or a matrix of row
    vectors, is finite, nonnegative and sums to 1 within tol along every row.
    For a matrix the message names the first bad row as ``{name} {index}``."""
    rows = np.atleast_2d(vec)
    # A NaN or infinite entry makes its row's total NaN or infinite, which
    # fails "<= tol" (inf - inf is NaN, quietly).
    with np.errstate(invalid="ignore"):
        totals = rows.sum(axis=1)
    bad = (rows < 0).any(axis=1) | ~(np.abs(totals - 1.0) <= tol)
    if bad.any():
        idx = int(bad.argmax())
        label = name if vec.ndim == 1 else f"{name} {idx}"
        if (rows[idx] < 0).any():
            raise InvalidModelError(f"{label} has negative entries: {rows[idx]}")
        raise InvalidModelError(f"{label} sums to {float(totals[idx])!r}, expected 1 within {tol}")


@dataclass
class Gaussian:
    """A single Gaussian with diagonal or full covariance.

    ``cov`` with ndim 1 holds the variances of a diagonal covariance;
    ndim 2 holds a full symmetric positive-definite matrix.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        self.mean = _float_array(self.mean, "mean", 1)
        self.cov = np.asarray(self.cov, dtype=float)
        if self.cov.ndim not in (1, 2):
            raise InvalidModelError(f"cov must have ndim 1 or 2, got shape {self.cov.shape}")
        if not np.all(np.isfinite(self.cov)):
            raise InvalidModelError("cov contains non-finite entries")
        d = self.mean.shape[0]
        if self.is_diagonal:
            if self.cov.shape != (d,):
                raise InvalidModelError(
                    f"diagonal cov has shape {self.cov.shape}, mean has dimension {d}"
                )
            if np.any(self.cov <= 0):
                raise InvalidModelError("diagonal cov has non-positive variances")
        else:
            if self.cov.shape != (d, d):
                raise InvalidModelError(
                    f"cov has shape {self.cov.shape}, mean has dimension {d}"
                )
            if not np.allclose(self.cov, self.cov.T, atol=1e-10):
                raise InvalidModelError("full cov is not symmetric")
            try:
                np.linalg.cholesky(self.cov)
            except np.linalg.LinAlgError as exc:
                raise InvalidModelError("full cov is not positive definite") from exc

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def is_diagonal(self) -> bool:
        return self.cov.ndim == 1


@dataclass
class GaussianMixture:
    """Mixture of Gaussians sharing one dimension and covariance layout."""

    weights: np.ndarray
    components: list[Gaussian]

    def __post_init__(self) -> None:
        self.weights = _float_array(self.weights, "mixture weights", 1)
        if len(self.components) == 0:
            raise InvalidModelError("mixture needs at least one component")
        if self.weights.shape[0] != len(self.components):
            raise InvalidModelError(
                f"{self.weights.shape[0]} weights for {len(self.components)} components"
            )
        check_probability_vector(self.weights, "mixture weights")
        d = self.components[0].dim
        diag = self.components[0].is_diagonal
        for k, comp in enumerate(self.components):
            if comp.dim != d:
                raise InvalidModelError(f"component {k} has dimension {comp.dim}, expected {d}")
            if comp.is_diagonal != diag:
                raise InvalidModelError("components mix diagonal and full covariances")

    @property
    def dim(self) -> int:
        return self.components[0].dim

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def is_diagonal(self) -> bool:
        return self.components[0].is_diagonal


def _shape(n_mix: int, dim: int, is_diagonal: bool) -> str:
    """Component count, dimension and covariance layout, as messages name them."""
    return f"M={n_mix}, d={dim}, {'diagonal' if is_diagonal else 'full'}"


def _as_full(cov: np.ndarray, is_diagonal: bool) -> np.ndarray:
    """Variances (..., d) as diagonal matrices (..., d, d); matrices as they are."""
    return cov[..., None] * np.eye(cov.shape[-1]) if is_diagonal else cov


def _cross_terms(
    mu_b: np.ndarray, cov_b: np.ndarray, mu_r: np.ndarray, cov_r: np.ndarray
) -> np.ndarray:
    """E over y ~ N(mu_b, cov_b) of log N(y; mu_r, cov_r), over the broadcast
    leading axes of the stacked arguments.

    Means are (..., d); both covariances are (..., d) variances or both are
    (..., d, d) matrices. Closed form:
    -1/2 [ d log 2pi + log|S_r| + tr(S_r^-1 S_b) + (m_r - m_b)^T S_r^-1 (m_r - m_b) ].
    The full layout takes one batched Cholesky factor L of each S_r and
    batched solves against it.
    """
    d = mu_b.shape[-1]
    diff = mu_r - mu_b
    if cov_r.ndim == mu_r.ndim:
        if cov_r.min() <= 0:
            raise InvalidModelError("reduced covariance is not positive definite")
        log_det = np.sum(np.log(cov_r), axis=-1)
        trace = np.sum(cov_b / cov_r, axis=-1)
        with np.errstate(over="ignore"):  # inf for far-apart pairs: compute_assignments rejects it
            maha = np.sum(diff * diff / cov_r, axis=-1)
    else:
        try:
            chol = np.linalg.cholesky(cov_r)
        except np.linalg.LinAlgError as exc:
            raise InvalidModelError("reduced covariance is not positive definite") from exc
        log_det = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
        half = np.linalg.solve(chol, cov_b)
        trace = np.trace(np.linalg.solve(np.swapaxes(chol, -1, -2), half), axis1=-2, axis2=-1)
        solved = np.linalg.solve(chol, diff[..., None])[..., 0]
        maha = np.sum(solved * solved, axis=-1)
    return -0.5 * (d * LOG_2PI + log_det + trace + maha)


def _check_dims(base, reduced) -> None:
    if base.dim != reduced.dim:
        raise InvalidModelError(
            f"dimension mismatch: base d={base.dim}, reduced d={reduced.dim}"
        )


def gauss_expected_loglik(base: Gaussian, reduced: Gaussian) -> float:
    """Expectation over y ~ base of the log density of reduced at y
    (``_cross_terms`` for one pair)."""
    _check_dims(base, reduced)
    cov_b, cov_r = base.cov, reduced.cov
    if base.is_diagonal != reduced.is_diagonal:
        cov_b, cov_r = _as_full(cov_b, base.is_diagonal), _as_full(cov_r, reduced.is_diagonal)
    return float(_cross_terms(base.mean, cov_b, reduced.mean, cov_r))


def expected_loglik_table(base: GaussianMixture, reduced: GaussianMixture) -> np.ndarray:
    """Matrix of gauss_expected_loglik over all (base m, reduced l) pairs."""
    _check_dims(base, reduced)
    mu_b = np.stack([g.mean for g in base.components])  # (Mb, d)
    cov_b = np.stack([g.cov for g in base.components])
    mu_r = np.stack([g.mean for g in reduced.components])  # (Mr, d)
    cov_r = np.stack([g.cov for g in reduced.components])
    if base.is_diagonal != reduced.is_diagonal:
        cov_b, cov_r = _as_full(cov_b, base.is_diagonal), _as_full(cov_r, reduced.is_diagonal)
    return _cross_terms(mu_b[:, None], cov_b[:, None], mu_r[None], cov_r[None])


def gmm_expected_loglik_opt(base: GaussianMixture, reduced: GaussianMixture) -> float:
    """Tightest lower bound on E over y ~ base of log density of reduced,
    attained by the optimal matching of components (Hershey and Olsen):
    sum_m c_b[m] * log sum_l c_r[l] exp(gauss_expected_loglik(m, l)).
    """
    table = expected_loglik_table(base, reduced)
    with np.errstate(divide="ignore"):
        logits = np.log(reduced.weights)[None, :] + table
    return float(base.weights @ logsumexp(logits, axis=1))


def solve_softmax_log(beta: np.ndarray) -> tuple[np.ndarray, float]:
    """Distribution maximizing sum_l alpha[l] (beta[l] - log alpha[l]).

    ``beta`` is in log domain; -inf entries get zero mass. Returns the
    maximizer (softmax of beta, renormalized so that it sums to 1 to
    rounding) and the optimum value log sum_l exp beta[l].
    """
    b = np.asarray(beta, dtype=float)
    if np.any(np.isnan(b)) or np.any(b == np.inf):
        raise ValueError(f"log-weights must be finite or -inf, got {b}")
    value = float(logsumexp(b))
    if value == -np.inf:
        raise DegenerateWeightsError("all log-weights are -inf")
    probs = np.exp(b - value)
    return probs / probs.sum(), value
