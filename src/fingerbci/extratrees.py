"""Extremely randomized trees for binary classification.

Every tree is grown unpruned on the full training set (no bootstrap).  At
each node a handful of candidate attributes is drawn, one uniformly random
cut per attribute, and the split with the highest Shannon information gain
wins.  The forest predicts by majority vote over trees.  All tie-breaks
are deterministic (lowest attribute index / smaller cut / class 0), so a
fixed seed gives bit-identical forests and predictions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .crossval import stratified_folds
from .rng import child_seed, stream


@dataclass(frozen=True)
class EtParams:
    """Forest settings: attributes drawn per split, minimum node size to
    split, number of trees, and the seed for all growth randomness."""

    max_features: int
    min_samples_split: int
    n_estimators: int
    seed: int = 0

    def validate(self, feature_dim: int) -> None:
        if not 1 <= self.max_features <= feature_dim:
            raise ValueError(f"max_features must be in [1, {feature_dim}], got {self.max_features}")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")


class EtNode:
    """Internal node (attribute, cut, children) or leaf (class counts)."""

    __slots__ = ("attribute", "cut", "left", "right", "counts")

    def __init__(self, attribute=None, cut=None, left=None, right=None, counts=None):
        self.attribute = attribute
        self.cut = cut
        self.left = left
        self.right = right
        self.counts = counts

    @property
    def is_leaf(self) -> bool:
        return self.attribute is None


@dataclass
class EtForest:
    trees: list[EtNode]
    params: EtParams
    feature_dim: int


@functools.lru_cache(maxsize=4096)  # pure in the two counts; nodes repeat them
def _entropy(counts: tuple[int, int]) -> float:
    total = counts[0] + counts[1]
    h = 0.0
    for c in counts:
        if 0 < c < total:
            p = c / total
            h -= p * np.log2(p)
    return h


def _draw_cut(rng: np.random.Generator, lo: float, hi: float) -> float:
    u = rng.random()
    while u == 0.0:
        u = rng.random()
    cut = lo + (hi - lo) * u
    if cut >= hi:  # float rounding; keep the right child non-empty
        cut = np.nextafter(hi, lo)
    return float(cut)


def _grow(x: np.ndarray, y: np.ndarray, min_samples_split: int, max_features: int, rng: np.random.Generator) -> EtNode:
    """Grow one tree from a stack of (node, sample indices).  Children are pushed
    right then left: nodes split in pre-order, drawing as a recursive grower would."""
    root = EtNode()
    stack = [(root, np.arange(len(y)))]
    while stack:
        node, idx = stack.pop()
        ys = y[idx]
        n, ones = len(idx), int(ys.sum())
        candidates = ()
        if n >= min_samples_split and 0 < ones < n:
            xs = x[idx]
            lows, highs = xs.min(axis=0), xs.max(axis=0)
            candidates = np.flatnonzero(lows < highs)
        if len(candidates) == 0:
            node.counts = (n - ones, ones)
            continue
        drawn = rng.choice(candidates, size=min(max_features, len(candidates)), replace=False)
        cuts = [_draw_cut(rng, lo, hi) for lo, hi in zip(lows[drawn].tolist(), highs[drawn].tolist())]
        masks = xs[:, drawn] <= np.array(cuts)  # column j: left side of candidate j's split
        parent_entropy = _entropy((n - ones, ones))
        splits = []
        for j, (attribute, cut, n_left, left_ones) in enumerate(
            zip(drawn.tolist(), cuts, masks.sum(axis=0).tolist(), (ys @ masks).tolist())
        ):
            right_ones = ones - left_ones
            gain = (
                parent_entropy
                - n_left / n * _entropy((n_left - left_ones, left_ones))
                - (n - n_left) / n * _entropy((n - n_left - right_ones, right_ones))
            )
            splits.append((gain, -attribute, -cut, j))
        j = max(splits)[3]  # the best gain; ties go to the lower attribute, then the smaller cut
        node.attribute, node.cut = int(drawn[j]), cuts[j]
        node.left, node.right = EtNode(), EtNode()
        stack += [(node.right, idx[~masks[:, j]]), (node.left, idx[masks[:, j]])]
    return root


def fit(features: np.ndarray, labels: np.ndarray, params: EtParams) -> EtForest:
    """Grow ``n_estimators`` trees, each on the full training set."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or len(x) != len(y):
        raise ValueError("features must be (n_samples, n_features) matching labels")
    if len(y) < 2:
        raise ValueError("need at least 2 samples")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("training labels must be 0 or 1")
    if len(np.unique(y)) < 2:
        raise ValueError("training labels contain a single class")
    params.validate(x.shape[1])
    trees = [
        _grow(x, y, params.min_samples_split, params.max_features, stream(params.seed, t))
        for t in range(params.n_estimators)
    ]
    return EtForest(trees=trees, params=params, feature_dim=x.shape[1])


def tree_predict(node: EtNode, x: np.ndarray | list[float]) -> int:
    """Single tree vote for one sample; leaf ties go to class 0."""
    while not node.is_leaf:
        node = node.left if x[node.attribute] <= node.cut else node.right
    return 1 if node.counts[1] > node.counts[0] else 0


def _tree_votes(trees: list[EtNode], x: np.ndarray) -> np.ndarray:
    """``(n_trees, n_samples)`` class-1 votes, one row per tree."""
    rows = x.tolist()
    return np.array([[tree_predict(tree, row) for row in rows] for tree in trees], dtype=np.int64)


def predict(forest: EtForest, features: np.ndarray) -> np.ndarray:
    """Majority vote over trees; a tied forest votes class 0."""
    x = np.asarray(features, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[np.newaxis, :]
    if x.shape[1] != forest.feature_dim:
        raise ValueError(f"feature dimension {x.shape[1]} != trained dimension {forest.feature_dim}")
    votes = _tree_votes(forest.trees, x).sum(axis=0)
    labels = (votes * 2 > len(forest.trees)).astype(np.int64)
    return labels[0] if single else labels


def tune(
    features: np.ndarray,
    labels: np.ndarray,
    max_features_grid: list[int],
    min_samples_split_grid: list[int],
    n_estimators_grid: list[int],
    folds: int = 5,
    seed: int = 0,
) -> EtParams:
    """Pick the grid point with the best mean stratified-CV accuracy.

    One forest of ``max(n_estimators_grid)`` trees is grown per
    ``(max_features, min_samples_split)`` and fold ``k``, seeded by
    ``child_seed(seed, 1, max_features, min_samples_split, k)``.  Tree ``t``
    draws from ``stream(forest_seed, t)``, so the first ``n`` trees are the
    ``n``-tree forest of that seed and each ``n_estimators`` is scored on
    that prefix.  Ties prefer the cheapest model: fewer trees, then fewer
    attributes per split, then a larger minimum node size.  The returned
    params carry ``seed`` so a subsequent :func:`fit` is reproducible.
    """
    if not max_features_grid or not min_samples_split_grid or not n_estimators_grid:
        raise ValueError("parameter grids must be non-empty")
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    grid = [
        EtParams(max_features=mf, min_samples_split=ms, n_estimators=ne, seed=seed)
        for mf in max_features_grid
        for ms in min_samples_split_grid
        for ne in n_estimators_grid
    ]
    for params in grid:
        params.validate(x.shape[1])
    if len(grid) == 1:
        return grid[0]

    fold_ids = stratified_folds(y, folds, stream(seed, 0))
    n_max = max(n_estimators_grid)
    keys = []
    for mf in max_features_grid:
        for ms in min_samples_split_grid:
            accuracies = {ne: [] for ne in n_estimators_grid}
            for k in range(folds):
                test_mask = fold_ids == k
                forest = fit(x[~test_mask], y[~test_mask], EtParams(mf, ms, n_max, seed=child_seed(seed, 1, mf, ms, k)))
                # Row n - 1 holds the class-1 votes of the first n trees.
                votes = np.cumsum(_tree_votes(forest.trees, x[test_mask]), axis=0)
                for ne, fold_accuracies in accuracies.items():
                    fold_accuracies.append(float(np.mean((votes[ne - 1] * 2 > ne) == y[test_mask])))
            keys += [(np.mean(accuracies[ne]), -ne, -mf, ms) for ne in n_estimators_grid]
    _, ne, mf, ms = max(keys)
    return EtParams(max_features=-mf, min_samples_split=ms, n_estimators=-ne, seed=seed)
