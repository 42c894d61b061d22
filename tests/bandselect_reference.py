"""Per-band reference for the stacked band-scoring pass.

Scores one band at a time and one fold at a time, as the pipeline once did:
class means of the training fold's centred covariances, each divided by its
trace before averaging (:func:`fold_class_means`), a scipy generalised
eigensolver for CSP (with the ridge retry), log-variance features of the
training and held-out trials, and a two-class Fisher discriminant.  The
fold streams are the pipeline's own (``stream(seed, band)`` through
``stratified_folds``), so scores are comparable number for number.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from fingerbci.bandselect import DEFAULT_SHRINKAGE, BandScore
from fingerbci.crossval import stratified_folds
from fingerbci.csp import RIDGE, log_ratios
from fingerbci.rng import stream


@dataclass
class LdaModel:
    """Fisher discriminant: label 1 iff ``weights . x + bias > 0``."""

    weights: np.ndarray
    bias: float


def lda_fit(features: np.ndarray, labels: np.ndarray, shrinkage: float = DEFAULT_SHRINKAGE) -> LdaModel:
    """Fit a two-class Fisher discriminant.

    ``w = (S_pooled + shrinkage * mean(diag) * I)^-1 (mu_1 - mu_0)`` with the
    bias placing the decision point at the midpoint of the projected means.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    mask1 = labels == 1
    x0, x1 = features[~mask1], features[mask1]
    if len(x0) == 0 or len(x1) == 0:
        raise ValueError("both classes must be present")
    mu0, mu1 = x0.mean(axis=0), x1.mean(axis=0)
    centered = np.concatenate([x0 - mu0, x1 - mu1])
    denominator = max(len(features) - 2, 1)
    pooled = centered.T @ centered / denominator
    if shrinkage > 0:
        pooled = pooled + shrinkage * np.mean(np.diag(pooled)) * np.eye(pooled.shape[0])
    try:
        weights = np.linalg.solve(pooled, mu1 - mu0)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"pooled covariance is singular after shrinkage: {exc}") from exc
    if not np.isfinite(weights).all():
        raise ValueError("non-finite discriminant weights")
    bias = -float(weights @ ((mu0 + mu1) / 2.0))
    return LdaModel(weights=weights, bias=bias)


def lda_predict(model: LdaModel, features: np.ndarray) -> np.ndarray:
    """Binary labels; a point exactly on the boundary goes to class 0."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape[-1] != len(model.weights):
        raise ValueError(f"feature dimension {features.shape[-1]} != model dimension {len(model.weights)}")
    return (features @ model.weights + model.bias > 0.0).astype(np.int64)


def fit_csp_from_covariances(cov_a: np.ndarray, cov_b: np.ndarray, n_pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """CSP ``(filters, eigenvalues)`` of one covariance pair through scipy's generalised eigensolver."""
    n = cov_a.shape[0]
    if 2 * n_pairs > n:
        raise ValueError(f"cannot keep 2 x {n_pairs} filters from {n} channels")
    composite = cov_a + cov_b
    try:
        eigenvalues, vectors = scipy.linalg.eigh(cov_a, composite)
    except scipy.linalg.LinAlgError:
        regularized = composite + RIDGE * np.trace(composite) / n * np.eye(n)
        try:
            eigenvalues, vectors = scipy.linalg.eigh(cov_a, regularized)
        except scipy.linalg.LinAlgError as exc:
            raise ValueError(f"composite covariance is singular after regularization: {exc}") from exc
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = np.clip(eigenvalues[order], 0.0, 1.0)
    filters = vectors[:, order].T
    peaks = np.argmax(np.abs(filters), axis=1)
    signs = np.sign(filters[np.arange(n), peaks])
    signs[signs == 0] = 1.0
    filters = filters * signs[:, np.newaxis]
    return filters, eigenvalues


def fold_class_means(covariances, labels, train_mask):
    """CSP's two class covariances of one band's ``(n_trials, C, C)`` centred
    covariances on one training fold: each trial divided by its trace, then
    the plain mean over the fold's trials of each class."""
    normalised = [covariance / np.trace(covariance) for covariance in covariances]
    means = [np.mean([normalised[n] for n in np.flatnonzero(train_mask & (labels == c))], axis=0) for c in (0, 1)]
    if not all(np.isfinite(mean).all() for mean in means):
        raise ValueError("CSP class covariances are not finite")
    return tuple(means)


def features(covariances, kept):
    """Log variance ratios of each trial's projections through the ``kept`` filter rows."""
    return log_ratios(np.einsum("ki,nij,kj->nk", kept, covariances, kept))


def fit_fold_model(covariances, labels, train_mask, n_pairs, shrinkage):
    """Kept CSP filters (first and last ``n_pairs`` rows) and discriminant of
    one band fitted on one training fold."""
    filters, _ = fit_csp_from_covariances(*fold_class_means(covariances, labels, train_mask), n_pairs)
    kept = np.vstack([filters[:n_pairs], filters[-n_pairs:]])
    lda = lda_fit(features(covariances[train_mask], kept), labels[train_mask], shrinkage)
    return kept, lda


def cv_band_score(covariances, labels, n_pairs, folds, rng, shrinkage) -> float:
    """Mean held-out accuracy of one band over the folds drawn from ``rng``."""
    fold_ids = stratified_folds(labels, folds, rng)
    accuracies = []
    for k in range(folds):
        test_mask = fold_ids == k
        kept, lda = fit_fold_model(covariances, labels, ~test_mask, n_pairs, shrinkage)
        predictions = lda_predict(lda, features(covariances[test_mask], kept))
        accuracies.append(float(np.mean(predictions == labels[test_mask])))
    return float(np.mean(accuracies))


def score_bands_for_labels(decomp, labels, n_pairs=2, folds=5, seed=0, shrinkage=DEFAULT_SHRINKAGE):
    """Per-band scores of :func:`fingerbci.bandselect.score_bands_for_labels`, one band at a time."""
    labels = np.asarray(labels)
    return [
        BandScore(
            band=band,
            score=cv_band_score(decomp.feature_covariances[i], labels, n_pairs, folds, stream(seed, i), shrinkage),
        )
        for i, band in enumerate(decomp.bands)
    ]
