"""Common Spatial Patterns: variance-contrast spatial filters and features.

Class covariances are means of each trial's centred covariance divided by
its trace (:func:`class_covariances`).
Filters solve the generalized eigenproblem ``C_a w = lambda (C_a + C_b) w``
so eigenvalues fall in [0, 1] and sum to 1 across the two classes; rows of
the filter matrix are sorted by eigenvalue descending.  Features are log
variance ratios (:func:`log_ratios`) of the projections through the first
and last ``n_pairs`` filters.
"""

from __future__ import annotations

import numpy as np

# Ridge added to a composite covariance whose Cholesky factorisation fails,
# scaled by trace/N; guards rank deficiency, as of few trials with many channels.
RIDGE = 1e-8


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


def class_covariances(covariances: np.ndarray, by_class: np.ndarray) -> np.ndarray:
    """``(B, K, 2, C, C)`` means of ``S / trace(S)`` over the centred covariances ``S = covariances[b, n]`` that the
    0/1 ``by_class[b, k, c, n]`` pick: one ``einsum`` weighting each ``S`` by ``1 / trace(S)``, with no copy of it
    unless some trial is in no set of its band; such a trial enters the sums as zeros, so even NaN stays out."""
    by_class = np.broadcast_to(by_class, np.broadcast_shapes(np.shape(by_class), (len(covariances), 1, 1, 1)))
    read = by_class.any(axis=(1, 2))
    if not read.all():
        covariances = np.where(read[..., np.newaxis, np.newaxis], covariances, 0.0)
    weights = by_class / np.where(read, np.trace(covariances, axis1=-2, axis2=-1), 1.0)[:, np.newaxis, np.newaxis]
    means = np.einsum("bkcn,bnij->bkcij", weights, covariances) / by_class.sum(axis=-1)[..., np.newaxis, np.newaxis]
    if not np.isfinite(means).all():
        raise ValueError("CSP class covariances are not finite")
    return means


def kept_filters(filters: np.ndarray, n_pairs: int) -> np.ndarray:
    """The first and last ``n_pairs`` rows of ``(..., C, C)`` filters: ``(..., 2 * n_pairs, C)``."""
    return np.concatenate([filters[..., :n_pairs, :], filters[..., -n_pairs:, :]], axis=-2)


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


def log_ratios(variances: np.ndarray) -> np.ndarray:
    """``log(v / sum(v))`` over the last axis of projected variances ``v``."""
    totals = variances.sum(axis=-1, keepdims=True)
    if np.any(totals <= 0.0):
        raise ValueError("projected signal has zero total variance")
    return np.log(np.maximum(variances / totals, np.finfo(np.float64).tiny))
