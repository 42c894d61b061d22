"""Slow reference for extra-trees growth and tuning.

:func:`grow` is the recursive grower the package once used: one numpy pass
per candidate attribute, and a Python stack frame per tree level, so trees
deeper than the recursion limit raise ``RecursionError``.  :func:`tune` is
the grid search that fitted one forest per grid point and fold.  It keyed
each fold forest's seed by the grid point's index, ``child_seed(seed, 1,
index, fold)``; here the key is ``(max_features, min_samples_split,
fold)``, the seed the prefix-scored :func:`fingerbci.extratrees.tune`
gives the forest whose prefixes it scores.  :func:`predict` votes tree by
tree and sample by sample.
"""

import numpy as np

from fingerbci.crossval import stratified_folds
from fingerbci.extratrees import EtForest, EtNode, EtParams, _draw_cut, _entropy, tree_predict
from fingerbci.rng import child_seed, stream


def grow(x: np.ndarray, y: np.ndarray, min_samples_split: int, max_features: int, rng: np.random.Generator) -> EtNode:
    counts = (int(np.sum(y == 0)), int(np.sum(y == 1)))
    if len(y) < min_samples_split or counts[0] == 0 or counts[1] == 0:
        return EtNode(counts=counts)
    lows = x.min(axis=0)
    highs = x.max(axis=0)
    candidates = np.flatnonzero(lows < highs)
    if len(candidates) == 0:
        return EtNode(counts=counts)

    k = min(max_features, len(candidates))
    drawn = rng.choice(candidates, size=k, replace=False)
    parent_entropy = _entropy(counts)
    best = None  # (gain, attribute, cut, mask)
    for attribute in drawn:
        attribute = int(attribute)
        cut = _draw_cut(rng, float(lows[attribute]), float(highs[attribute]))
        mask = x[:, attribute] <= cut
        n_left = int(mask.sum())
        left_ones = int(np.sum(y[mask]))
        right_ones = counts[1] - left_ones
        n = len(y)
        gain = (
            parent_entropy
            - n_left / n * _entropy((n_left - left_ones, left_ones))
            - (n - n_left) / n * _entropy((n - n_left - right_ones, right_ones))
        )
        if (
            best is None
            or gain > best[0]
            or (gain == best[0] and (attribute < best[1] or (attribute == best[1] and cut < best[2])))
        ):
            best = (gain, attribute, cut, mask)

    _, attribute, cut, mask = best
    return EtNode(
        attribute=attribute,
        cut=cut,
        left=grow(x[mask], y[mask], min_samples_split, max_features, rng),
        right=grow(x[~mask], y[~mask], min_samples_split, max_features, rng),
    )


def fit(features: np.ndarray, labels: np.ndarray, params: EtParams) -> EtForest:
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    params.validate(x.shape[1])
    trees = [
        grow(x, y, params.min_samples_split, params.max_features, stream(params.seed, t))
        for t in range(params.n_estimators)
    ]
    return EtForest(trees=trees, params=params, feature_dim=x.shape[1])


def predict(forest: EtForest, features: np.ndarray) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    votes = np.zeros(len(x), dtype=np.int64)
    for tree in forest.trees:
        for i in range(len(x)):
            votes[i] += tree_predict(tree, x[i])
    return (votes * 2 > len(forest.trees)).astype(np.int64)


def tune(features, labels, max_features_grid, min_samples_split_grid, n_estimators_grid,
         folds=5, seed=0) -> EtParams:
    """Fit and score every grid point on every fold; same tie-break as the package."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    grid = [
        EtParams(max_features=mf, min_samples_split=ms, n_estimators=ne, seed=seed)
        for mf in max_features_grid
        for ms in min_samples_split_grid
        for ne in n_estimators_grid
    ]
    if len(grid) == 1:
        return grid[0]
    fold_ids = stratified_folds(y, folds, stream(seed, 0))
    best_params = None
    best_key = None
    for params in grid:
        accuracies = []
        for k in range(folds):
            test_mask = fold_ids == k
            forest = fit(
                x[~test_mask],
                y[~test_mask],
                EtParams(params.max_features, params.min_samples_split, params.n_estimators,
                         seed=child_seed(seed, 1, params.max_features, params.min_samples_split, k)),
            )
            accuracies.append(float(np.mean(predict(forest, x[test_mask]) == y[test_mask])))
        key = (np.mean(accuracies), -params.n_estimators, -params.max_features, params.min_samples_split)
        if best_key is None or key > best_key:
            best_key = key
            best_params = params
    return best_params
