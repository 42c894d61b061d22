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
import scipy.linalg

from .trialstore import Trial

# Ridge added to the composite covariance before eigendecomposition, scaled
# by trace/N; guards rank deficiency from short trimmed trials.
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


def trial_covariance(trial: Trial) -> np.ndarray:
    """Trace-normalized spatial covariance ``X X^T / trace(X X^T)``."""
    x = trial.samples.astype(np.float64)
    if x.shape[1] < 2:
        raise ValueError("trial needs at least 2 samples for a covariance")
    c = x @ x.T
    trace = np.trace(c)
    if trace <= 0.0:
        raise ValueError("all-zero trial has no covariance")
    return c / trace


def class_covariance(trials: list[Trial]) -> np.ndarray:
    """Arithmetic mean of per-trial covariances."""
    if not trials:
        raise ValueError("cannot average covariances of an empty trial list")
    acc = trial_covariance(trials[0])
    for trial in trials[1:]:
        acc = acc + trial_covariance(trial)
    return acc / len(trials)


def fit_csp_from_covariances(
    cov_a: np.ndarray,
    cov_b: np.ndarray,
    n_pairs: int,
    band: tuple[float, float] | None = None,
) -> CspModel:
    """Fit from precomputed class covariances (see :func:`fit_csp`)."""
    n = cov_a.shape[0]
    if 2 * n_pairs > n:
        raise ValueError(f"cannot keep 2 x {n_pairs} filters from {n} channels")
    composite = cov_a + cov_b
    try:
        eigenvalues, vectors = scipy.linalg.eigh(cov_a, composite)
    except scipy.linalg.LinAlgError:
        # Rank-deficient composite (e.g. noise-free planted sources): retry
        # with a small ridge instead of failing outright.
        regularized = composite + RIDGE * np.trace(composite) / n * np.eye(n)
        try:
            eigenvalues, vectors = scipy.linalg.eigh(cov_a, regularized)
        except scipy.linalg.LinAlgError as exc:
            raise ValueError(f"composite covariance is singular after regularization: {exc}") from exc
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = np.clip(eigenvalues[order], 0.0, 1.0)
    filters = vectors[:, order].T
    # Sign convention: largest-magnitude entry of each filter is positive.
    peaks = np.argmax(np.abs(filters), axis=1)
    signs = np.sign(filters[np.arange(n), peaks])
    signs[signs == 0] = 1.0
    filters = filters * signs[:, np.newaxis]
    return CspModel(filters=filters, eigenvalues=eigenvalues, n_pairs=n_pairs, band=band)


def fit_csp(
    class_a: list[Trial],
    class_b: list[Trial],
    n_pairs: int,
    band: tuple[float, float] | None = None,
) -> CspModel:
    """Learn spatial filters contrasting two sets of trials.

    Rows of the result are generalized eigenvectors of
    ``C_a w = lambda (C_a + C_b) w`` sorted by eigenvalue descending: early
    rows maximize class-a variance share, late rows class-b's.
    """
    return fit_csp_from_covariances(class_covariance(class_a), class_covariance(class_b), n_pairs, band)


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
    variances = np.sum((filters @ covariances) * filters, axis=-1)
    totals = variances.sum(axis=-1, keepdims=True)
    if np.any(totals <= 0.0):
        raise ValueError("projected signal has zero total variance")
    return np.log(np.maximum(variances / totals, np.finfo(np.float64).tiny))


def extract_features(trial: Trial, model: CspModel) -> np.ndarray:
    """Log variance-ratio features of one trial (length 2 * n_pairs).

    Invariant to overall trial scaling and to per-filter sign flips;
    ``exp`` of the features sums to one.
    """
    x = trial.samples.astype(np.float64)
    x = x - x.mean(axis=1, keepdims=True)
    return log_variance_features(x @ x.T / x.shape[1], model)
