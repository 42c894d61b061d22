"""Metrics and the repeated stratified-holdout evaluation harness.

Reports follow the Mean+/-SD (Max) accuracy shape plus one Cohen's kappa
per repetition, computed on the pooled test confusion of that repetition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import PipelineConfig
from .dsp import BandDecomposition, decompose, make_bank
from .ecoc import (
    exhaustive_code,
    fit_binary,
    fit_ecoc,
    predict_binary_from_bands,
    predict_from_bands,
)
from .rng import child_seed
from .trialstore import Dataset, stratified_split


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray, n_classes: int) -> np.ndarray:
    """Counts matrix, rows = true class, columns = predicted class."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ValueError("label vectors must have equal length")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (y_true, y_pred), 1)
    return cm


def accuracy(cm: np.ndarray) -> float:
    """Fraction of correctly classified trials: trace / total."""
    cm = np.asarray(cm)
    total = cm.sum()
    if total <= 0:
        raise ValueError("empty confusion matrix")
    return float(np.trace(cm) / total)


def cohen_kappa(cm: np.ndarray) -> float:
    """Chance-corrected agreement ``(p_o - p_e) / (1 - p_e)``.

    ``p_e`` sums the products of row and column marginals; if ``p_e`` is 1
    (all mass in one cell row/column combination) the kappa is 0 by
    convention.
    """
    cm = np.asarray(cm, dtype=np.float64)
    total = cm.sum()
    if total <= 0:
        raise ValueError("empty confusion matrix")
    p_observed = np.trace(cm) / total
    p_expected = float(np.sum(cm.sum(axis=1) * cm.sum(axis=0)) / total**2)
    if p_expected >= 1.0:
        return 0.0
    return float((p_observed - p_expected) / (1.0 - p_expected))


@dataclass
class RunReport:
    """Per-repetition accuracies, kappas and confusion matrices."""

    accuracies: list[float]
    kappas: list[float]
    confusions: list[np.ndarray] = field(repr=False)

    @property
    def mean(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def sd(self) -> float:
        if len(self.accuracies) < 2:
            return 0.0
        return float(np.std(self.accuracies, ddof=1))

    @property
    def max(self) -> float:
        return float(np.max(self.accuracies))

    @property
    def kappa_mean(self) -> float:
        return float(np.mean(self.kappas))

    def summary(self) -> dict:
        return {
            "accuracies": self.accuracies,
            "accuracy_mean": self.mean,
            "accuracy_sd": self.sd,
            "accuracy_max": self.max,
            "kappas": self.kappas,
            "kappa_mean": self.kappa_mean,
            "confusions": [cm.tolist() for cm in self.confusions],
        }


def repeated_holdout(
    data: Dataset | BandDecomposition,
    config: PipelineConfig,
    repetitions: int | None = None,
    seed: int | None = None,
    pair: tuple[int, int] | None = None,
) -> RunReport:
    """R seeded stratified holdout rounds of the full pipeline.

    Multiclass by default (exhaustive-code ECOC); with ``pair`` given, a
    single binary pipeline on those two classes.  ``data`` is a dataset or
    its decomposition through the config's filter bank; filtering is
    per-trial and label-free, so one decomposition serves the multiclass
    run and every pair run.  Every fit only ever sees training-trial
    indices.
    """
    repetitions = config.repetitions if repetitions is None else repetitions
    seed = config.seed if seed is None else seed
    if repetitions < 1:
        raise ValueError("need at least one repetition")

    bank = make_bank(config.band_start, config.band_stop, config.band_width, config.fir_taps)
    if isinstance(data, BandDecomposition):
        if data.bands != bank.bands or data.taps != bank.taps:
            raise ValueError("decomposition was not made with the config's filter bank")
        decomp = data
    else:
        decomp = decompose(data, bank)
    if pair is not None:
        decomp = decomp.classes(pair[0], pair[1])
    n_classes = decomp.n_classes
    labels = decomp.labels
    code = exhaustive_code(n_classes) if pair is None else None

    accuracies: list[float] = []
    kappas: list[float] = []
    confusions: list[np.ndarray] = []
    for r in range(repetitions):
        # The split reads only n_classes and class_indices, which a decomposition has too.
        split = stratified_split(decomp, config.test_fraction, child_seed(seed, r, 0))
        train_decomp = decomp.subset(split.train)
        fit_seed = child_seed(seed, r, 1)
        if pair is None:
            model = fit_ecoc(
                train_decomp, labels[split.train], code,
                n_pairs=config.csp_pairs, folds=config.cv_folds,
                max_features_grid=config.et_max_features,
                min_samples_split_grid=config.et_min_samples_split,
                n_estimators_grid=config.et_n_estimators,
                seed=fit_seed, shrinkage=config.lda_shrinkage,
            )
            predicted = predict_from_bands(model, decomp.feature_covariances, split.test)
        else:
            model = fit_binary(
                train_decomp, labels[split.train], (0, 1), decomp.class_names,
                n_pairs=config.csp_pairs, folds=config.cv_folds,
                max_features_grid=config.et_max_features,
                min_samples_split_grid=config.et_min_samples_split,
                n_estimators_grid=config.et_n_estimators,
                seed=fit_seed, shrinkage=config.lda_shrinkage,
            )
            predicted = predict_binary_from_bands(model, decomp.feature_covariances, split.test)
        cm = confusion_matrix(labels[split.test], predicted, n_classes)
        accuracies.append(accuracy(cm))
        kappas.append(cohen_kappa(cm))
        confusions.append(cm)
    return RunReport(accuracies=accuracies, kappas=kappas, confusions=confusions)
