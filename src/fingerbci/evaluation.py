"""Metrics and the repeated stratified-holdout evaluation harness.

The harness reads a dataset's band decomposition, not its raw trials:
callers run :func:`~fingerbci.dsp.decompose` once and evaluate the
multiclass decoder and every class pair on it.  Reports follow the Mean+/-SD (Max) accuracy shape plus one Cohen's kappa
per repetition, computed on the pooled test confusion of that repetition.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .config import PipelineConfig
from .dsp import BandDecomposition
from .ecoc import PAIR_CODE, exhaustive_code, fit_ecoc, predict_from_bands
from .rng import child_seed
from .trialstore import stratified_split


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


def repeated_holdout(
    decomp: BandDecomposition, config: PipelineConfig, pair: tuple[int, int] | None = None
) -> dict:
    """``config.repetitions`` seeded stratified holdout rounds of the full pipeline, as a section of
    ``report.json``: per repetition the ``accuracies``, ``kappas`` and ``confusions``, and the
    ``accuracy_mean``, ``accuracy_sd`` (sample SD, 0 for one repetition), ``accuracy_max`` and ``kappa_mean``.

    Multiclass by default (exhaustive-code ECOC); with ``pair`` given, the
    one-column :data:`PAIR_CODE` decoder on those two classes.  ``decomp``
    is a dataset's decomposition through the config's filter bank
    (:func:`~fingerbci.dsp.decompose`); filtering is per-trial and
    label-free, so one decomposition serves the multiclass run and every
    pair run.  Every fit only ever sees training-trial indices.
    """
    bank = config.bank()
    if decomp.bands != bank.bands or decomp.taps != bank.taps:
        raise ValueError("decomposition was not made with the config's filter bank")
    if pair is not None:
        decomp = decomp.classes(pair[0], pair[1])
    n_classes = decomp.n_classes
    code = exhaustive_code(n_classes) if pair is None else PAIR_CODE

    confusions = []
    for r in range(config.repetitions):
        train, test = stratified_split(decomp.labels, config.test_fraction, child_seed(config.seed, r, 0))
        model = fit_ecoc(decomp.subset(train), code, replace(config, seed=child_seed(config.seed, r, 1)))
        predicted = predict_from_bands(model, decomp.feature_covariances[:, test])
        confusions.append(confusion_matrix(decomp.labels[test], predicted, n_classes))
    accuracies = [accuracy(cm) for cm in confusions]
    kappas = [cohen_kappa(cm) for cm in confusions]
    return {
        "accuracies": accuracies,
        "accuracy_mean": float(np.mean(accuracies)),
        "accuracy_sd": float(np.std(accuracies, ddof=1)) if len(accuracies) > 1 else 0.0,
        "accuracy_max": float(np.max(accuracies)),
        "kappas": kappas,
        "kappa_mean": float(np.mean(kappas)),
        "confusions": [cm.tolist() for cm in confusions],
    }
