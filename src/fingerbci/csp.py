"""Common Spatial Patterns: variance-contrast spatial filters and features.

Class covariances are trace-normalized means of per-trial covariances.
Filters solve the generalized eigenproblem ``C_a w = lambda (C_a + C_b) w``
so eigenvalues fall in [0, 1] and sum to 1 across the two classes; rows of
the filter matrix are sorted by eigenvalue descending.  Features are log
variance ratios of the projections through the first and last ``n_pairs``
filters, read from each trial's centred covariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Ridge added to a composite covariance whose Cholesky factorisation fails,
# scaled by trace/N; guards rank deficiency from short trimmed trials.
RIDGE = 1e-8


@dataclass
class CspModel:
    """Spatial filter matrix (rows = filters, eigenvalue descending)."""

    filters: np.ndarray
    eigenvalues: np.ndarray
    n_pairs: int
    band: tuple[float, float] | None = None

    @property
    def n_channels(self) -> int:
        return self.filters.shape[1]

    def selected_filters(self) -> np.ndarray:
        """The first and last ``n_pairs`` filter rows (2 * n_pairs, channels)."""
        m = self.n_pairs
        return np.vstack([self.filters[:m], self.filters[-m:]])


def fit_csp_stack(cov_a: np.ndarray, cov_b: np.ndarray, n_pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """Fit CSP to every slice of a stack of class covariance pairs.

    ``cov_a`` and ``cov_b`` are ``(..., C, C)``.  Each slice solves
    ``C_a w = lambda (C_a + C_b) w`` by Cholesky whitening: with
    ``C_a + C_b = L L^T``, the eigenvectors ``v`` of ``L^-1 C_a L^-T`` give
    filters ``w = L^-T v``.  Returns ``(filters, eigenvalues)``, shaped
    ``(..., C, C)`` and ``(..., C)``: filter rows sorted by eigenvalue
    descending, eigenvalues clipped to [0, 1], and the largest-magnitude
    entry of each filter positive.
    """
    n = cov_a.shape[-1]
    if 2 * n_pairs > n:
        raise ValueError(f"cannot keep 2 x {n_pairs} filters from {n} channels")
    inverse = np.linalg.inv(_cholesky(cov_a + cov_b))
    eigenvalues, vectors = np.linalg.eigh(inverse @ cov_a @ inverse.swapaxes(-1, -2))
    order = np.argsort(eigenvalues, axis=-1)[..., ::-1]
    eigenvalues = np.clip(np.take_along_axis(eigenvalues, order, axis=-1), 0.0, 1.0)
    filters = np.take_along_axis((inverse.swapaxes(-1, -2) @ vectors).swapaxes(-1, -2), order[..., np.newaxis], -2)
    peaks = np.take_along_axis(filters, np.argmax(np.abs(filters), axis=-1)[..., np.newaxis], -1)
    return np.where(peaks < 0.0, -filters, filters), eigenvalues


def _cholesky(composite: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(composite)
    except np.linalg.LinAlgError:
        pass
    factors = np.empty_like(composite)
    n = composite.shape[-1]
    for index in np.ndindex(composite.shape[:-2]):
        try:
            factors[index] = np.linalg.cholesky(composite[index])
        except np.linalg.LinAlgError:
            # Rank-deficient composite (e.g. noise-free planted sources):
            # retry this slice with a small ridge instead of failing outright.
            regularized = composite[index] + RIDGE * np.trace(composite[index]) / n * np.eye(n)
            try:
                factors[index] = np.linalg.cholesky(regularized)
            except np.linalg.LinAlgError as exc:
                raise ValueError(f"composite covariance is singular after regularization: {exc}") from exc
    return factors


def log_variance_features(covariances: np.ndarray, model: CspModel) -> np.ndarray:
    """Log variance-ratio features from centred spatial covariances.

    The variance of a trial projected through filter ``w`` is ``w S w^T``
    for its centred covariance ``S``, so the features are
    ``log(diag(W S W^T) / sum(diag(W S W^T)))`` over the kept filters ``W``.
    ``(..., C, C)`` covariances give ``(..., 2 * n_pairs)`` features; each
    trial's row is computed on its own, so a batch equals its single trials.
    """
    covariances = np.asarray(covariances, dtype=np.float64)
    if covariances.shape[-1] != model.n_channels:
        raise ValueError(f"trial has {covariances.shape[-1]} channels, model expects {model.n_channels}")
    filters = model.selected_filters()
    return log_ratios(np.sum((filters @ covariances) * filters, axis=-1))


def log_ratios(variances: np.ndarray) -> np.ndarray:
    """``log(v / sum(v))`` over the last axis of projected variances ``v``."""
    totals = variances.sum(axis=-1, keepdims=True)
    if np.any(totals <= 0.0):
        raise ValueError("projected signal has zero total variance")
    return np.log(np.maximum(variances / totals, np.finfo(np.float64).tiny))
