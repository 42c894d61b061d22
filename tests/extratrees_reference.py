"""Slow reference for extra-trees growth and tuning.

:func:`grow` grows one tree recursively, one node and one candidate
attribute at a time, from the node-keyed draws the package uses: Python
ints masked to 64 bits for splitmix64, and a Python stack frame per tree
level, so trees deeper than the recursion limit raise ``RecursionError``.
:func:`tune` fits one forest per grid point and fold, each fold forest
seeded ``child_seed(seed, 1, max_features, fold)`` as
:func:`fingerbci.extratrees.tune` seeds the forest it truncates and
prefix-scores.  :func:`predict` votes tree by tree and sample by sample
through :func:`tree_predict`, the scalar walk that the package's node
table replaces; :func:`table_predict` is that node table's vote of one
forest.  Trees here are linked :class:`Node` objects;
:func:`array_forest` lays them out as the package's array forest, and
:func:`link` links a grown batch of package nodes.
"""

import math
from collections import deque

import numpy as np

from fingerbci.crossval import stratified_folds
from fingerbci.extratrees import EtForest, EtParams, majority, node_table
from fingerbci.rng import child_seed, stream

MASK = (1 << 64) - 1


class Node:
    """Internal node (attribute, cut, children) or leaf (class counts)."""

    __slots__ = ("attribute", "cut", "left", "right", "counts")

    def __init__(self, attribute=None, cut=None, left=None, right=None, counts=None):
        self.attribute, self.cut, self.left, self.right, self.counts = attribute, cut, left, right, counts

    @property
    def is_leaf(self) -> bool:
        return self.attribute is None


def array_forest(trees: list, params: EtParams, feature_dim: int) -> EtForest:
    """The package's array forest of linked ``trees``: each tree's nodes
    breadth first, left child before right, walked with a queue."""
    attribute, cut, counts, sizes = [], [], [], []
    for tree in trees:
        queue = deque([tree])
        sizes.append(0)
        while queue:
            node = queue.popleft()
            sizes[-1] += 1
            if node.is_leaf:
                attribute.append(-1)
                counts.append(node.counts)
            else:
                attribute.append(node.attribute)
                cut.append(node.cut)
                queue += [node.left, node.right]
    forest = EtForest(np.array(attribute, dtype=np.int64), np.array(cut, dtype=np.float64),
                      np.array(counts, dtype=np.int64).reshape(-1, 2), params, feature_dim)
    assert forest.sizes.tolist() == sizes, "tree sizes derived from the attributes differ from the trees walked"
    return forest


def link(nodes, min_samples_split: int) -> list:
    """The trees of a batch grown by ``fingerbci.extratrees._grow`` as linked
    nodes, every node of fewer than ``min_samples_split`` samples made a
    leaf; one pass, parents first."""
    attribute = np.where(nodes.counts.sum(axis=1) < min_samples_split, -1, nodes.attribute).tolist()
    cut, left, counts = nodes.cut.tolist(), nodes.left.tolist(), nodes.counts.tolist()
    linked = [None] * len(attribute)
    for root in nodes.roots.tolist():
        linked[root] = Node()
    for i, node in enumerate(linked):
        if node is None:  # below a node made a leaf
            continue
        if attribute[i] < 0:
            node.counts = tuple(counts[i])
        else:
            node.attribute, node.cut = attribute[i], cut[i]
            node.left = linked[left[i]] = Node()
            node.right = linked[left[i] + 1] = Node()
    return [linked[root] for root in nodes.roots.tolist()]


def mix(key: int, value: int) -> int:
    z = (key + 0x9E3779B97F4A7C15 * (value + 1)) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def uniform(key: int) -> float:
    return ((key >> 12) + 0.5) * 2.0**-52


def xlogx(count: int) -> float:
    return count * math.log2(count) if count else 0.0


def grow(x: np.ndarray, y: np.ndarray, key: int, max_features: int, min_samples_split: int) -> Node:
    n, ones = len(y), int(y.sum())
    lows, highs = x.min(axis=0).tolist(), x.max(axis=0).tolist()
    varying = [a for a in range(x.shape[1]) if lows[a] < highs[a]]
    if n < min_samples_split or ones in (0, n) or not varying:
        return Node(counts=(n - ones, ones))

    drawn = sorted(varying, key=lambda a: (mix(key, 2 + 2 * a), a))[:max_features]
    best = None  # (score, attribute, cut, mask)
    for attribute in sorted(drawn):
        lo, hi = lows[attribute], highs[attribute]
        cut = lo + (hi - lo) * uniform(mix(key, 3 + 2 * attribute))
        if cut >= hi:
            cut = float(np.nextafter(hi, lo))
        mask = x[:, attribute] <= cut
        n_left, left_ones = int(mask.sum()), int(y[mask].sum())
        n_right, right_ones = n - n_left, ones - left_ones
        # -(n_left H(left) + n_right H(right)): information gain times n, less the parent's n H.
        score = (
            xlogx(n_left - left_ones) + xlogx(left_ones) + xlogx(n_right - right_ones) + xlogx(right_ones)
            - xlogx(n_left) - xlogx(n_right)
        )
        if best is None or score > best[0]:
            best = (score, attribute, cut, mask)

    _, attribute, cut, mask = best
    return Node(
        attribute=attribute,
        cut=cut,
        left=grow(x[mask], y[mask], mix(key, 0), max_features, min_samples_split),
        right=grow(x[~mask], y[~mask], mix(key, 1), max_features, min_samples_split),
    )


def tree_predict(node, x) -> int:
    """Single tree vote for one sample; leaf ties go to class 0.  ``node``
    is a :class:`Node` or a node of the package's ``EtForest.trees``."""
    while not node.is_leaf:
        node = node.left if x[node.attribute] <= node.cut else node.right
    return 1 if node.counts[1] > node.counts[0] else 0


def fit(features: np.ndarray, labels: np.ndarray, params: EtParams) -> EtForest:
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    params.validate(x.shape[1])
    trees = [
        grow(x, y, mix(params.seed, t), params.max_features, params.min_samples_split)
        for t in range(params.n_estimators)
    ]
    return array_forest(trees, params, x.shape[1])


def table_predict(forest: EtForest, features: np.ndarray) -> np.ndarray:
    """The package's vote of one forest: its node table's majority, the path serving takes."""
    return majority(node_table([forest]), np.asarray(features, dtype=np.float64))[:, 0]


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
                         seed=child_seed(seed, 1, params.max_features, k)),
            )
            accuracies.append(float(np.mean(predict(forest, x[test_mask]) == y[test_mask])))
        key = (np.mean(accuracies), -params.n_estimators, -params.max_features, params.min_samples_split)
        if best_key is None or key > best_key:
            best_key = key
            best_params = params
    return best_params
