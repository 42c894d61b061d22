"""Score frequency subbands with cross-validated LDA and pick the best ones.

Each band gets a score: mean held-out accuracy of a Fisher discriminant on
CSP log-variance features, with the CSP refit inside every training fold
(no leakage).  Bands scoring at least ``max(score) - std(score)`` are kept;
the argmax band always clears its own threshold, so the selection is never
empty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crossval import stratified_folds
from .csp import CspModel, fit_csp_from_covariances, log_variance_features
from .dsp import BandDecomposition
from .rng import stream

DEFAULT_SHRINKAGE = 1e-3


@dataclass
class LdaModel:
    """Fisher discriminant: label 1 iff ``weights . x + bias > 0``."""

    weights: np.ndarray
    bias: float


@dataclass
class BandScore:
    band: tuple[float, float]
    score: float


@dataclass
class SelectionResult:
    scores: list[BandScore]
    threshold: float
    selected: list[int]


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


def _fit_fold_model(
    csp_covariances: np.ndarray,
    feature_covariances: np.ndarray,
    labels: np.ndarray,
    train_mask: np.ndarray,
    n_pairs: int,
    shrinkage: float,
    band: tuple[float, float],
) -> tuple[CspModel, LdaModel]:
    # Fits see training-fold trials only; held-out data cannot leak in.
    cov_a = csp_covariances[train_mask & (labels == 0)].mean(axis=0)
    cov_b = csp_covariances[train_mask & (labels == 1)].mean(axis=0)
    csp = fit_csp_from_covariances(cov_a, cov_b, n_pairs, band)
    lda = lda_fit(log_variance_features(feature_covariances[train_mask], csp), labels[train_mask], shrinkage)
    return csp, lda


def _cv_band_score(
    csp_covariances: np.ndarray,
    feature_covariances: np.ndarray,
    labels: np.ndarray,
    band: tuple[float, float],
    n_pairs: int,
    folds: int,
    rng: np.random.Generator,
    shrinkage: float,
) -> float:
    fold_ids = stratified_folds(labels, folds, rng)
    accuracies = []
    for k in range(folds):
        test_mask = fold_ids == k
        csp, lda = _fit_fold_model(
            csp_covariances, feature_covariances, labels, ~test_mask, n_pairs, shrinkage, band
        )
        predictions = lda_predict(lda, log_variance_features(feature_covariances[test_mask], csp))
        accuracies.append(float(np.mean(predictions == labels[test_mask])))
    return float(np.mean(accuracies))


def _score(
    decomp: BandDecomposition,
    labels: np.ndarray,
    n_pairs: int,
    folds: int,
    seed: int,
    shrinkage: float,
) -> list[BandScore]:
    labels = np.asarray(labels)
    if len(labels) != decomp.n_trials:
        raise ValueError(f"{len(labels)} labels for {decomp.n_trials} trials")
    if set(np.unique(labels)) != {0, 1}:
        raise ValueError("labels must be binary (0/1) with both classes present")
    return [
        BandScore(
            band=band,
            score=_cv_band_score(
                decomp.csp_covariances[i], decomp.feature_covariances[i], labels, band,
                n_pairs, folds, stream(seed, i), shrinkage,
            ),
        )
        for i, band in enumerate(decomp.bands)
    ]


def score_bands_for_labels(
    decomp: BandDecomposition,
    labels: np.ndarray,
    n_pairs: int = 2,
    folds: int = 5,
    seed: int = 0,
    shrinkage: float = DEFAULT_SHRINKAGE,
) -> list[BandScore]:
    """Per-band CV accuracy for an arbitrary binary labeling of the trials."""
    return _score(decomp, labels, n_pairs, folds, seed, shrinkage)


def score_bands(
    decomp: BandDecomposition,
    class_a: int,
    class_b: int,
    n_pairs: int = 2,
    folds: int = 5,
    seed: int = 0,
    shrinkage: float = DEFAULT_SHRINKAGE,
) -> list[BandScore]:
    """Score every band for the binary problem ``class_a`` vs ``class_b``."""
    pair = decomp.classes(class_a, class_b)
    return _score(pair, pair.labels, n_pairs, folds, seed, shrinkage)


def select_bands(scores: list[BandScore]) -> SelectionResult:
    """Keep bands scoring at least ``max - sample_std`` (never empty)."""
    if not scores:
        raise ValueError("no band scores to select from")
    values = np.array([s.score for s in scores], dtype=np.float64)
    spread = float(values.std(ddof=1)) if len(values) > 1 else 0.0
    threshold = float(values.max() - spread)
    selected = [i for i, v in enumerate(values) if v >= threshold]
    return SelectionResult(scores=list(scores), threshold=threshold, selected=selected)
