"""Stratified fold assignment shared by band scoring and classifier tuning."""

from __future__ import annotations

import numpy as np


def stratified_folds(labels: np.ndarray, folds: int, rng: np.random.Generator) -> np.ndarray:
    """Fold id per sample: per-class shuffle, then round-robin assignment.

    Keeps class proportions near-equal across folds and is deterministic
    given the generator state.  Every class must have at least ``folds``
    samples so each fold sees both classes.
    """
    labels = np.asarray(labels)
    if folds < 2:
        raise ValueError("need at least 2 folds")
    fold_ids = np.empty(len(labels), dtype=np.int64)
    for label in np.unique(labels):
        indices = np.flatnonzero(labels == label)
        if len(indices) < folds:
            raise ValueError(f"class {label} has {len(indices)} samples, fewer than {folds} folds")
        fold_ids[indices[rng.permutation(len(indices))]] = np.arange(len(indices)) % folds
    return fold_ids
