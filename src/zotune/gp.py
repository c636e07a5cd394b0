"""Gaussian beliefs over candidates and GP interpolation between them.

Two layers share one vocabulary.  A ``CandidateBelief`` is the per-metric
Gaussian summary of a measured candidate, built directly from aggregated
lift statistics.  A ``GpSurrogate`` is a set of independent per-metric
Gaussian-process regressors fitted through those beliefs, used to predict a
belief at configurations that have never been measured.

Each metric's regressor uses a squared-exponential kernel on inputs
normalized to the unit box, a zero prior mean, signal variance from the
second moment of the targets about the (zero) prior mean, and per-point
observation noise equal to each belief's aggregated variance.  A small
diagonal jitter keeps the Cholesky factorization well posed; it escalates
by factors of ten on failure up to a hard cap.

The metrics share one input normalization and one set of per-dimension
length scales (the median pairwise-distance heuristic), so they differ only
in signal variance, noise and targets.  The unit kernel
``exp(-0.5 * sum_k ((x1_k - x2_k) / l_k)**2)`` is therefore computed once
per fit and once per prediction, and each metric scales it by its signal
variance (Rasmussen & Williams, *GPML*, 2006, Alg. 2.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from .problem import HyperParam

BASE_JITTER = 1e-8
MAX_JITTER = 1e-4
SIGNAL_VAR_FLOOR = 1e-8


class FitFailureError(RuntimeError):
    """Kernel factorization failed even at the maximum jitter."""


class RejectedInputError(ValueError):
    """A prediction was requested outside the fitted bounds box."""


@dataclass(frozen=True)
class CandidateBelief:
    """Independent per-metric Gaussian summary of one candidate's lifts."""

    candidate_id: int | None
    mu: np.ndarray
    sigma2: np.ndarray

    def __post_init__(self) -> None:
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        sigma2 = np.atleast_1d(np.asarray(self.sigma2, dtype=float))
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma2", sigma2)
        if mu.shape != sigma2.shape or mu.ndim != 1:
            raise ValueError("mu and sigma2 must be 1-d arrays of equal length")
        if np.any(sigma2 < 0):
            raise ValueError("belief variances must be nonnegative")


def sample_delta(belief: CandidateBelief, rng: np.random.Generator) -> np.ndarray:
    """One joint draw of the lift vector; metrics are independent."""
    return belief.mu + np.sqrt(belief.sigma2) * rng.standard_normal(belief.mu.shape)


def _normalize(thetas: np.ndarray, lo: np.ndarray, span: np.ndarray) -> np.ndarray:
    return (thetas - lo) / span


def _median_lengthscales(x: np.ndarray) -> np.ndarray:
    """Per-dimension median pairwise distance, with positive fallbacks.

    Each dimension's distances ``|x_i - x_j|``, ``i < j``, are laid out in
    row-major upper-triangle order, so the mean fallback sums them in the
    order of a condensed distance vector.
    """
    n, d = x.shape
    if n < 2:
        return np.ones(d)
    xt = x.T
    dists = np.empty((d, n * (n - 1) // 2))
    start = 0
    for i in range(n - 1):
        stop = start + n - 1 - i
        np.subtract(xt[:, i, None], xt[:, i + 1 :], out=dists[:, start:stop])
        start = stop
    np.abs(dists, out=dists)
    scales = np.median(dists, axis=1)
    for k in np.flatnonzero(scales <= 0.0):
        m = float(np.mean(dists[k]))
        scales[k] = m if m > 0.0 else 1.0
    return scales


def _unit_kernel(x1: np.ndarray, x2: np.ndarray, ls: np.ndarray) -> np.ndarray:
    """``exp(-0.5 * sum_k ((x1_k - x2_k) / ls_k)**2)``, shape ``(len(x1), len(x2))``.

    Squared scaled distances are accumulated in place one dimension at a
    time, in dimension order.  ``np.sum`` adds a last axis of up to seven
    elements in that order too, so for d <= 7 the result equals the summed
    ``(q, n, d)`` form bit for bit.  A metric's kernel is ``s2 * unit``.
    """
    out = np.empty((x1.shape[0], x2.shape[0]))
    term = np.empty_like(out) if x1.shape[1] > 1 else out
    for k in range(x1.shape[1]):
        buf = out if k == 0 else term
        np.subtract(x1[:, k, None], x2[None, :, k], out=buf)
        buf /= ls[k]
        np.square(buf, out=buf)
        if k > 0:
            out += term
    out *= -0.5
    return np.exp(out, out=out)


@dataclass(frozen=True)
class _MetricGp:
    """Fitted state of one metric's regressor (immutable after fit)."""

    signal_var: float
    chol: np.ndarray       # lower Cholesky factor of s2 * unit + diag(noise + jitter)
    alpha: np.ndarray      # (s2 * unit + diag(noise + jitter))^-1 y
    jitter: float


def _box(bounds: tuple[tuple[float, float], ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(lo, hi, span)`` of a bounds box; constant dims get span 1 and normalize to 0."""
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    span = hi - lo
    span[span == 0.0] = 1.0
    return lo, hi, span


class GpSurrogate:
    """Independent per-metric GP regressors over a shared input box.

    Build one with :meth:`fit`; instances are immutable and prediction is a
    pure function of the fitted state, so repeated calls are bitwise
    reproducible.
    """

    def __init__(
        self,
        bounds: tuple[tuple[float, float], ...],
        x: np.ndarray,
        lengthscales: np.ndarray,
        metrics_gps: tuple[_MetricGp, ...],
    ) -> None:
        self._bounds = bounds
        self._lo, self._hi, self._span = _box(bounds)
        self._x = x                  # normalized training inputs, (n, d)
        self._ls = lengthscales      # shared by every metric
        self._gps = metrics_gps

    @property
    def n_metrics(self) -> int:
        return len(self._gps)

    @property
    def bounds(self) -> tuple[tuple[float, float], ...]:
        return self._bounds

    def signal_var(self, metric_index: int) -> float:
        return self._gps[metric_index].signal_var

    def lengthscales(self, metric_index: int) -> np.ndarray:
        """Length scales in normalized coordinates; every metric shares them."""
        self._gps[metric_index]  # IndexError for an unknown metric
        return self._ls.copy()

    def jitter(self, metric_index: int) -> float:
        """Diagonal jitter the metric's factorization needed."""
        return self._gps[metric_index].jitter

    @classmethod
    def fit(
        cls,
        bucket: Sequence[HyperParam],
        beliefs: Sequence[CandidateBelief],
        *,
        lengthscales: np.ndarray | None = None,
        signal_var: float | Sequence[float] | None = None,
        jitter: float = BASE_JITTER,
    ) -> "GpSurrogate":
        """Fit per-metric regressors through the beliefs of measured candidates.

        ``bucket`` and ``beliefs`` must align one-to-one.  ``lengthscales``
        and ``signal_var`` override the data-driven heuristics when given
        (length scales apply in normalized coordinates).
        """
        if len(bucket) == 0:
            raise ValueError("cannot fit on an empty bucket")
        if len(bucket) != len(beliefs):
            raise ValueError("bucket and beliefs must align one-to-one")
        bounds = bucket[0].bounds
        for hp in bucket:
            if hp.bounds != bounds:
                raise ValueError("all candidates must share one bounds box")
        n_metrics = beliefs[0].mu.shape[0]
        for b in beliefs:
            if b.mu.shape[0] != n_metrics:
                raise ValueError("all beliefs must cover the same metrics")

        thetas = np.array([hp.theta for hp in bucket], dtype=float)
        lo, _, span = _box(bounds)
        x = _normalize(thetas, lo, span)

        if lengthscales is None:
            ls = _median_lengthscales(x)
        else:
            ls = np.array(lengthscales, dtype=float)
            if ls.shape != (x.shape[1],) or np.any(ls <= 0):
                raise ValueError("lengthscales must be positive, one per dimension")

        mus = np.array([b.mu for b in beliefs], dtype=float)        # (n, M)
        noises = np.array([b.sigma2 for b in beliefs], dtype=float)  # (n, M)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(mus)) and np.all(np.isfinite(noises))):
            raise FitFailureError("training inputs, targets, and noise must be finite")

        if signal_var is None:
            # Huge finite targets overflow the second moment; that is a
            # failed fit, caught below, not a numpy warning.
            with np.errstate(over="ignore"):
                s2_all = np.maximum(np.mean(mus**2, axis=0), SIGNAL_VAR_FLOOR)
        else:
            s2_arr = np.atleast_1d(np.asarray(signal_var, dtype=float))
            if s2_arr.shape == (1,):
                s2_arr = np.repeat(s2_arr, n_metrics)
            if s2_arr.shape != (n_metrics,) or np.any(s2_arr <= 0):
                raise ValueError("signal_var must be positive, one per metric")
            s2_all = s2_arr
        if not np.all(np.isfinite(s2_all)):
            raise FitFailureError("signal variance must be finite")

        unit = _unit_kernel(x, x, ls)
        n = x.shape[0]
        gps = []
        for k in range(n_metrics):
            s2 = float(s2_all[k])
            jit = float(jitter)
            while True:
                kmat = s2 * unit
                kmat.reshape(-1)[:: n + 1] += noises[:, k] + jit  # the diagonal
                try:
                    # kmat is symmetric, so its transpose is the same matrix
                    # in Fortran order and LAPACK factorizes it in place.
                    chol = cholesky(kmat.T, lower=True, overwrite_a=True)
                    break
                except np.linalg.LinAlgError:
                    jit *= 10.0
                    if jit > MAX_JITTER * (1 + 1e-12):
                        raise FitFailureError(
                            f"kernel factorization failed for metric {k} "
                            f"even at jitter {MAX_JITTER}"
                        ) from None
            alpha = cho_solve((chol, True), mus[:, k], check_finite=False)
            gps.append(_MetricGp(signal_var=s2, chol=chol, alpha=alpha, jitter=jit))
        return cls(bounds=bounds, x=x, lengthscales=ls, metrics_gps=tuple(gps))

    def _check_inside(self, thetas: np.ndarray) -> None:
        if not np.all(np.isfinite(thetas)):
            raise RejectedInputError("query must be finite")
        if np.any(thetas < self._lo) or np.any(thetas > self._hi):
            raise RejectedInputError("query outside the fitted bounds box")

    def predict_batch(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at query points.

        Returns ``(mu, var)`` of shape ``(q, M)``.  Variances are the latent
        posterior variances, clamped at zero, and never exceed the signal
        variance plus jitter.
        """
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        if thetas.shape[1] != self._lo.shape[0]:
            raise RejectedInputError(
                f"query dimension {thetas.shape[1]} does not match the box"
            )
        self._check_inside(thetas)
        xq = _normalize(thetas, self._lo, self._span)
        unit = _unit_kernel(xq, self._x, self._ls)                   # (q, n)
        kq = np.empty_like(unit)
        mu = np.empty((xq.shape[0], self.n_metrics))
        var = np.empty_like(mu)
        # Queries are checked finite and every factor came from a finite
        # matrix, so the solves skip scipy's finiteness scans.
        for k, gk in enumerate(self._gps):
            np.multiply(gk.signal_var, unit, out=kq)
            mu[:, k] = kq @ gk.alpha
            w = solve_triangular(                                     # (n, q), in kq's buffer
                gk.chol, kq.T, lower=True, overwrite_b=True, check_finite=False
            )
            np.square(w, out=w)
            var[:, k] = np.maximum(gk.signal_var - np.sum(w, axis=0), 0.0)
        return mu, var

    def predict(self, theta: Sequence[float]) -> CandidateBelief:
        """Posterior belief at one configuration inside the bounds box."""
        mu, var = self.predict_batch(np.asarray(theta, dtype=float)[None, :])
        return CandidateBelief(candidate_id=None, mu=mu[0], sigma2=var[0])
