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
    """Raise InvalidModelError unless vec is nonnegative and sums to 1 within tol."""
    if np.any(vec < 0):
        raise InvalidModelError(f"{name} has negative entries: {vec}")
    total = float(vec.sum())
    if abs(total - 1.0) > tol:
        raise InvalidModelError(f"{name} sums to {total!r}, expected 1 within {tol}")


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

    def log_det(self) -> float:
        if self.is_diagonal:
            return float(np.sum(np.log(self.cov)))
        chol = np.linalg.cholesky(self.cov)
        return float(2.0 * np.sum(np.log(np.diag(chol))))

    def log_density(self, points: np.ndarray) -> np.ndarray:
        """Log density at each row of ``points`` (shape (n, d) or (d,))."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        diff = pts - self.mean
        if self.is_diagonal:
            maha = np.sum(diff * diff / self.cov, axis=-1)
        else:
            chol = np.linalg.cholesky(self.cov)
            solved = np.linalg.solve(chol, diff.T)
            maha = np.sum(solved * solved, axis=0)
        return -0.5 * (self.dim * LOG_2PI + self.log_det() + maha)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        normals = rng.standard_normal((size, self.dim))
        if self.is_diagonal:
            return self.mean + normals * np.sqrt(self.cov)
        return self.mean + normals @ np.linalg.cholesky(self.cov).T


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

    def log_density(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        per_comp = np.stack([g.log_density(pts) for g in self.components], axis=-1)
        with np.errstate(divide="ignore"):
            log_w = np.log(self.weights)
        return logsumexp(per_comp + log_w, axis=-1)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` points; deterministic given the generator state."""
        comps = rng.choice(self.n_components, size=size, p=self.weights)
        out = np.empty((size, self.dim))
        normals = rng.standard_normal((size, self.dim))
        for k, g in enumerate(self.components):
            mask = comps == k
            if not np.any(mask):
                continue
            if g.is_diagonal:
                out[mask] = g.mean + normals[mask] * np.sqrt(g.cov)
            else:
                chol = np.linalg.cholesky(g.cov)
                out[mask] = g.mean + normals[mask] @ chol.T
        return out


@dataclass
class EmissionResponsibility:
    """Soft matching between the components of two mixtures.

    ``eta[m, l]`` is the probability that an observation from base component m
    corresponds to reduced component l; each row is a distribution over l.
    """

    eta: np.ndarray

    def __post_init__(self) -> None:
        self.eta = np.asarray(self.eta, dtype=float)
        if self.eta.ndim != 2:
            raise InvalidModelError(f"eta must be a matrix, got shape {self.eta.shape}")
        if np.any(self.eta < 0):
            raise InvalidModelError("eta has negative entries")
        sums = self.eta.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > WEIGHT_TOL):
            raise InvalidModelError(f"eta rows sum to {sums}, expected 1")


def gauss_expected_loglik(base: Gaussian, reduced: Gaussian) -> float:
    """Expectation over y ~ base of the log density of reduced at y.

    Closed form: -1/2 [ d log 2pi + log|S_r| + tr(S_r^-1 S_b)
                        + (m_r - m_b)^T S_r^-1 (m_r - m_b) ].
    """
    if base.dim != reduced.dim:
        raise InvalidModelError(
            f"dimension mismatch: base d={base.dim}, reduced d={reduced.dim}"
        )
    d = base.dim
    diff = reduced.mean - base.mean
    if base.is_diagonal and reduced.is_diagonal:
        if np.any(reduced.cov <= 0):
            raise InvalidModelError("reduced covariance is not positive definite")
        log_det = float(np.sum(np.log(reduced.cov)))
        trace = float(np.sum(base.cov / reduced.cov))
        maha = float(np.sum(diff * diff / reduced.cov))
    else:
        cov_r = np.diag(reduced.cov) if reduced.is_diagonal else reduced.cov
        cov_b = np.diag(base.cov) if base.is_diagonal else base.cov
        try:
            chol = np.linalg.cholesky(cov_r)
        except np.linalg.LinAlgError as exc:
            raise InvalidModelError("reduced covariance is not positive definite") from exc
        log_det = float(2.0 * np.sum(np.log(np.diag(chol))))
        half = np.linalg.solve(chol, cov_b)
        trace = float(np.trace(np.linalg.solve(chol.T, half)))
        solved = np.linalg.solve(chol, diff)
        maha = float(solved @ solved)
    return -0.5 * (d * LOG_2PI + log_det + trace + maha)


def expected_loglik_table(base: GaussianMixture, reduced: GaussianMixture) -> np.ndarray:
    """Matrix of gauss_expected_loglik over all (base m, reduced l) pairs."""
    if base.dim != reduced.dim:
        raise InvalidModelError(
            f"dimension mismatch: base d={base.dim}, reduced d={reduced.dim}"
        )
    if base.is_diagonal and reduced.is_diagonal:
        mu_b = np.stack([g.mean for g in base.components])  # (Mb, d)
        var_b = np.stack([g.cov for g in base.components])
        mu_r = np.stack([g.mean for g in reduced.components])  # (Mr, d)
        var_r = np.stack([g.cov for g in reduced.components])
        log_det = np.sum(np.log(var_r), axis=1)  # (Mr,)
        trace = np.sum(var_b[:, None, :] / var_r[None, :, :], axis=2)
        diff = mu_r[None, :, :] - mu_b[:, None, :]
        maha = np.sum(diff * diff / var_r[None, :, :], axis=2)
        return -0.5 * (base.dim * LOG_2PI + log_det[None, :] + trace + maha)
    table = np.empty((base.n_components, reduced.n_components))
    for m, gb in enumerate(base.components):
        for l, gr in enumerate(reduced.components):
            table[m, l] = gauss_expected_loglik(gb, gr)
    return table


def gmm_responsibilities(
    base: GaussianMixture, reduced: GaussianMixture
) -> EmissionResponsibility:
    """Optimal soft matching of base components to reduced components.

    Row m is the softmax over l of log c_r[l] + gauss_expected_loglik(m, l),
    computed in log domain.
    """
    table = expected_loglik_table(base, reduced)
    with np.errstate(divide="ignore"):
        logits = np.log(reduced.weights)[None, :] + table
    log_norm = logsumexp(logits, axis=1, keepdims=True)
    return EmissionResponsibility(np.exp(logits - log_norm))


def gmm_expected_loglik_opt(base: GaussianMixture, reduced: GaussianMixture) -> float:
    """Tightest lower bound on E over y ~ base of log density of reduced.

    Equals gmm_expected_loglik_bound at the matching from gmm_responsibilities:
    sum_m c_b[m] * log sum_l c_r[l] exp(gauss_expected_loglik(m, l)).
    """
    table = expected_loglik_table(base, reduced)
    with np.errstate(divide="ignore"):
        logits = np.log(reduced.weights)[None, :] + table
    return float(base.weights @ logsumexp(logits, axis=1))


def gmm_expected_loglik_bound(
    base: GaussianMixture, reduced: GaussianMixture, eta: EmissionResponsibility
) -> float:
    """Lower bound on the expected log density for an arbitrary matching eta.

    sum_m c_b[m] sum_l eta[m,l] (log c_r[l] + L_G(m,l) - log eta[m,l]),
    with 0 log 0 treated as 0.
    """
    table = expected_loglik_table(base, reduced)
    e = eta.eta
    if e.shape != table.shape:
        raise InvalidModelError(
            f"eta has shape {e.shape}, expected {table.shape} for these mixtures"
        )
    with np.errstate(divide="ignore"):
        log_w = np.log(reduced.weights)[None, :]
        log_e = np.where(e > 0, np.log(np.where(e > 0, e, 1.0)), 0.0)
    terms = np.where(e > 0, e * (log_w + table - log_e), 0.0)
    return float(base.weights @ terms.sum(axis=1))


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
