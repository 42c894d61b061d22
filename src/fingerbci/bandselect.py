"""Score frequency subbands with cross-validated LDA and pick the best ones.

Each band gets a score: mean held-out accuracy of a Fisher discriminant on
CSP log-variance features, with the CSP refit inside every training fold
(no leakage).  Every (band, fold) of a binary problem is fitted and scored
in one stacked pass (:func:`fit_folds`).  Bands scoring at least ``max(score) - std(score)`` are kept;
the argmax band always clears its own threshold, so the selection is never
empty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crossval import stratified_folds
from .csp import class_covariances, fit_csp_stack, kept_filters, log_ratios
from .dsp import BandDecomposition
from .rng import stream

DEFAULT_SHRINKAGE = 1e-3


@dataclass
class SelectionResult:
    scores: np.ndarray
    threshold: float
    selected: list[int]


def fit_folds(
    covariances: np.ndarray, labels: np.ndarray, train: np.ndarray, n_pairs: int, shrinkage: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fit CSP, then a Fisher discriminant, to every training set at once.

    ``covariances`` is the ``(n_bands, n_trials, C, C)`` stack of centred
    covariances and ``train[b, k]`` masks the trials of training set ``k`` in
    band ``b``; fits read those trials only, so held-out data cannot leak in.
    CSP contrasts the class means of :func:`~fingerbci.csp.class_covariances`.  The
    discriminant is ``w = (S_pooled + shrinkage * mean(diag) * I)^-1 (mu_1 -
    mu_0)`` with the bias placing the decision point midway between the
    projected class means.

    Returns ``(filters, features, weights, biases)``: each set's kept CSP
    filters ``(B, K, 2m, C)``, the features of every trial through them
    ``(B, K, n_trials, 2m)``, and the discriminants ``(B, K, 2m)`` and
    ``(B, K)``; trial ``n`` is predicted 1 iff ``features @ weights + bias >
    0``.
    """
    by_class = np.stack([train & (labels == 0), train & (labels == 1)], axis=2).astype(np.float64)
    counts = by_class.sum(axis=-1)
    means = class_covariances(covariances, by_class)
    kept = kept_filters(fit_csp_stack(means[:, :, 0], means[:, :, 1], n_pairs)[0], n_pairs)
    # Projected variances w S w^T of every (set, trial, filter): one product per band.
    n_bands, n_sets, n_kept, n_channels = kept.shape
    flat = kept.reshape(n_bands, -1, n_channels)
    projected = covariances.reshape(n_bands, -1, n_channels) @ flat.swapaxes(1, 2)
    projected = projected.reshape(n_bands, -1, n_channels, n_sets, n_kept)
    features = log_ratios(np.einsum("bnckp,bkpc->bknp", projected, kept))

    # Held-out trials enter the sums as zeros, never as 0 x NaN.
    trained = np.where(train[..., np.newaxis], features, 0.0)
    class_means = np.einsum("bkcn,bknp->bkcp", by_class, trained) / counts[..., np.newaxis]
    centred = np.where(train[..., np.newaxis], features - class_means[:, :, labels], 0.0)
    denominators = np.maximum(counts.sum(axis=-1) - 2, 1)[..., np.newaxis, np.newaxis]
    pooled = centred.swapaxes(-1, -2) @ centred / denominators
    if shrinkage > 0:
        ridge = shrinkage * np.diagonal(pooled, axis1=-2, axis2=-1).mean(axis=-1)
        pooled = pooled + ridge[..., np.newaxis, np.newaxis] * np.eye(n_kept)
    try:
        weights = np.linalg.solve(pooled, (class_means[:, :, 1] - class_means[:, :, 0])[..., np.newaxis])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"pooled covariance is singular after shrinkage: {exc}") from exc
    if not np.isfinite(weights).all():
        raise ValueError("non-finite discriminant weights")
    midpoints = (class_means[:, :, 0] + class_means[:, :, 1]) / 2.0
    biases = -np.sum(weights * midpoints, axis=-1)
    return kept, features, weights, biases


def score_bands_for_labels(
    decomp: BandDecomposition,
    labels: np.ndarray,
    n_pairs: int = 2,
    folds: int = 5,
    seed: int = 0,
    shrinkage: float = DEFAULT_SHRINKAGE,
) -> np.ndarray:
    """Per-band CV accuracy for an arbitrary binary labeling of the trials: ``(n_bands,)``, aligned with
    ``decomp.bands``."""
    labels = np.asarray(labels)
    if len(labels) != decomp.n_trials:
        raise ValueError(f"{len(labels)} labels for {decomp.n_trials} trials")
    if set(np.unique(labels)) != {0, 1}:
        raise ValueError("labels must be binary (0/1) with both classes present")
    labels = (labels == 1).astype(np.int64)
    # Band i draws its folds from stream(seed, i); every (band, fold) is then scored in one pass.
    fold_ids = np.stack([stratified_folds(labels, folds, stream(seed, i)) for i in range(decomp.n_bands)])
    test = fold_ids[:, np.newaxis, :] == np.arange(folds)[:, np.newaxis]
    _, features, weights, biases = fit_folds(decomp.feature_covariances, labels, ~test, n_pairs, shrinkage)
    predictions = (features @ weights[..., np.newaxis])[..., 0] + biases[..., np.newaxis] > 0.0
    accuracies = ((predictions == (labels == 1)) & test).sum(axis=-1) / test.sum(axis=-1)
    return accuracies.mean(axis=-1)


def select_bands(scores: np.ndarray) -> SelectionResult:
    """Keep bands scoring at least ``max - sample_std`` (never empty)."""
    values = np.asarray(scores, dtype=np.float64)
    if values.size == 0:
        raise ValueError("no band scores to select from")
    spread = float(values.std(ddof=1)) if len(values) > 1 else 0.0
    threshold = float(values.max() - spread)
    return SelectionResult(scores=values, threshold=threshold, selected=np.flatnonzero(values >= threshold).tolist())
