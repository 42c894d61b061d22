"""Extremely randomized trees for binary classification.

Every tree is grown unpruned on the full training set (no bootstrap).  At
each node ``max_features`` candidate attributes are drawn without
replacement among the non-constant ones, one uniformly random cut each, and
the split with the highest Shannon information gain wins, ties to the lower
attribute.  The forest predicts by majority vote over trees, a tie voting
class 0.

Draws are keyed by node, not by position in a random stream.  Tree ``t`` of
a forest seeded ``s`` has root key ``mix(s, t)``; a node keyed ``k`` has
children ``mix(k, 0)`` (left) and ``mix(k, 1)`` (right), ranks attribute
``a`` by ``mix(k, 2 + 2a)`` and cuts it at the uniform of ``mix(k, 3 + 2a)``.
A node's split thus depends only on its key and its samples: all trees grow
together one level at a time, and the forest for a larger
``min_samples_split`` is the forest for a smaller one with every node of
fewer samples made a leaf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .crossval import stratified_folds
from .rng import child_seed, stream

# (tree, sample) pairs times features gathered together while growing, and
# (row, node) pairs compared together while voting: bounds the float64,
# integer and boolean temporaries of one batch near 2 MB each.
BATCH_PAIRS = 1 << 18


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


def mix(keys, values) -> np.ndarray:
    """splitmix64 output ``values + 1`` of the generator started at ``keys``,
    broadcast as ``uint64`` arrays of at least one dimension, whose
    arithmetic wraps modulo 2**64 without overflow warnings."""
    steps = np.array(values, dtype=np.uint64, ndmin=1) + 1
    z = np.array(keys, dtype=np.uint64, ndmin=1) + np.uint64(0x9E3779B97F4A7C15) * steps
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> 31)


def _uniform(keys: np.ndarray) -> np.ndarray:
    # ((k >> 12) + 1/2) / 2**52 is exact in float64 and lies strictly inside (0, 1).
    return ((keys >> 12).astype(np.float64) + 0.5) * 2.0**-52


def _draw(keys: np.ndarray, lows: np.ndarray, highs: np.ndarray, max_features: np.ndarray):
    """Candidate mask and cut of every (node, attribute): the
    ``max_features`` non-constant attributes with the smallest rank keys
    (ties to the lower attribute), each cut uniformly in ``[low, high)``."""
    codes = 2 * np.arange(lows.shape[1], dtype=np.uint64)
    order = np.argsort(mix(keys[:, np.newaxis], codes + 2), axis=1, kind="stable")
    varying = np.take_along_axis(lows < highs, order, axis=1)
    candidates = np.empty_like(varying)
    np.put_along_axis(candidates, order, varying & (np.cumsum(varying, axis=1) <= max_features[:, np.newaxis]), axis=1)
    cuts = lows + (highs - lows) * _uniform(mix(keys[:, np.newaxis], codes + 3))
    cuts = np.where(cuts >= highs, np.nextafter(highs, lows), cuts)  # float rounding; keep the right child non-empty
    return candidates, cuts


class _Nodes(NamedTuple):
    """Every node of a batch of trees, parents before children: the split
    attribute (-1 for a leaf), its cut, the left child's index (the right
    child follows it) and the class counts, internal nodes included."""

    attribute: np.ndarray
    cut: np.ndarray
    left: np.ndarray
    counts: np.ndarray  # (n_nodes, 2)
    roots: np.ndarray  # node index of each tree's root


def _grow_levels(x, y, masks, max_features, keys, min_samples_split, xlogx, first: int) -> _Nodes:
    """Grow trees ``t`` on samples ``masks[t]`` one level at a time, into
    nodes numbered from ``first``.

    The (tree, sample) pairs stay grouped by node; each level takes every
    node's counts, ranges, draws and split scores in one array pass.  A
    split's score is ``-(n_left H(left) + n_right H(right))``, which orders
    candidates as their information gain does, summed from ``xlogx[c] =
    c log2 c`` of the integer counts.
    """
    roots = first + np.arange(len(keys))
    pair_node, pair_sample = np.nonzero(masks)
    pair_node, levels = roots[pair_node], []
    while len(keys):
        n_nodes = len(keys)
        sizes = np.bincount(pair_node - first, minlength=n_nodes)
        starts = np.cumsum(sizes) - sizes
        ones = np.add.reduceat(y[pair_sample], starts)
        xs = x[pair_sample]
        lows, highs = np.minimum.reduceat(xs, starts), np.maximum.reduceat(xs, starts)
        split = (sizes >= min_samples_split) & (ones > 0) & (ones < sizes) & (lows < highs).any(axis=1)
        attribute, cut, left = np.full(n_nodes, -1), np.zeros(n_nodes), np.full(n_nodes, -1)
        levels.append((attribute, cut, left, np.stack([sizes - ones, ones], axis=1)))
        rows = np.flatnonzero(split)
        if not len(rows):
            break
        keys, sizes, ones = keys[rows], sizes[rows], ones[rows]
        candidates, cuts = _draw(keys, lows[rows], highs[rows], max_features[rows])
        keep = split[pair_node - first]
        xs, pair_sample = xs[keep], pair_sample[keep]
        row = np.repeat(np.arange(len(rows)), sizes)
        goes_left = xs <= cuts[row]
        starts = np.cumsum(sizes) - sizes
        n_left = np.add.reduceat(goes_left, starts, dtype=np.intp)
        left_ones = np.add.reduceat(goes_left & (y[pair_sample] == 1)[:, np.newaxis], starts, dtype=np.intp)
        n, k = sizes[:, np.newaxis], ones[:, np.newaxis]
        score = (
            xlogx[n_left - left_ones] + xlogx[left_ones] + xlogx[n - n_left - k + left_ones] + xlogx[k - left_ones]
            - xlogx[n_left] - xlogx[n - n_left]
        )
        best = np.argmax(np.where(candidates, score, -np.inf), axis=1)  # ties to the lower attribute
        first += n_nodes
        attribute[rows], cut[rows] = best, cuts[np.arange(len(rows)), best]
        left[rows] = first + 2 * np.arange(len(rows))
        child = 2 * row + ~goes_left[np.arange(len(row)), best[row]]
        order = np.argsort(child, kind="stable")
        pair_node, pair_sample = first + child[order], pair_sample[order]
        keys = mix(keys[:, np.newaxis], np.arange(2)).ravel()
        max_features = np.repeat(max_features[rows], 2)
    return _Nodes(*(np.concatenate(parts) for parts in zip(*levels)), roots)


def _grow(x, y, masks, max_features, keys, min_samples_split) -> _Nodes:
    """Grow tree ``t`` on the samples of ``masks[t]`` with ``max_features[t]``
    from root key ``keys[t]``, in chunks of about ``BATCH_PAIRS`` pair
    features; the nodes of later chunks follow those of earlier ones."""
    xlogx = np.array([0.0] + [c * math.log2(c) for c in range(1, len(y) + 1)])
    chunk = np.cumsum(masks.sum(axis=1)) * x.shape[1] // BATCH_PAIRS
    bounds = [0, *(np.flatnonzero(np.diff(chunk)) + 1).tolist(), len(keys)]
    parts, first = [], 0
    for a, b in zip(bounds[:-1], bounds[1:]):
        parts.append(_grow_levels(x, y, masks[a:b], max_features[a:b], keys[a:b], min_samples_split, xlogx, first))
        first += len(parts[-1].attribute)
    return _Nodes(*(np.concatenate(field) for field in zip(*parts)))


def _root_keys(seed: int, n_trees: int) -> np.ndarray:
    return mix(np.full(n_trees, seed, dtype=np.uint64), np.arange(n_trees))


def _link(nodes: _Nodes, min_samples_split: int) -> list[EtNode]:
    """The trees as linked nodes, with every node of fewer than
    ``min_samples_split`` samples made a leaf; one pass, parents first."""
    attribute = np.where(nodes.counts.sum(axis=1) < min_samples_split, -1, nodes.attribute).tolist()
    cut, left, counts = nodes.cut.tolist(), nodes.left.tolist(), nodes.counts.tolist()
    linked: list[EtNode | None] = [None] * len(attribute)
    for root in nodes.roots.tolist():
        linked[root] = EtNode()
    for i, node in enumerate(linked):
        if node is None:  # below a node made a leaf
            continue
        if attribute[i] < 0:
            node.counts = tuple(counts[i])
        else:
            node.attribute, node.cut = attribute[i], cut[i]
            node.left = linked[left[i]] = EtNode()
            node.right = linked[left[i] + 1] = EtNode()
    return [linked[root] for root in nodes.roots.tolist()]


def _training_set(features, labels) -> tuple[np.ndarray, np.ndarray]:
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
    return x, y


def fit(features: np.ndarray, labels: np.ndarray, params: EtParams) -> EtForest:
    """Grow ``n_estimators`` trees, each on the full training set."""
    x, y = _training_set(features, labels)
    params.validate(x.shape[1])
    n = params.n_estimators
    nodes = _grow(
        x, y, np.ones((n, len(y)), dtype=bool), np.full(n, params.max_features), _root_keys(params.seed, n),
        params.min_samples_split,
    )
    return EtForest(trees=_link(nodes, params.min_samples_split), params=params, feature_dim=x.shape[1])


class NodeTable(NamedTuple):
    """Trees of one or more forests in one pre-order node table, tree after
    tree and forest after forest.

    Node ``i`` sends a row whose feature ``attribute[i]`` is at most ``cut[i]`` to node ``left[i] = i + 1``
    and any other row to ``right[i]``.  A leaf has a NaN cut and itself as right child, so every row that
    reaches it stays, and votes ``vote[i]``: 1 when it holds more class-1 samples.  ``roots`` is the first
    node of each tree, ``trees`` the number of trees of each forest, ``first_trees`` the first tree of each
    forest and ``depth`` the most splits on any path.
    """

    attribute: np.ndarray
    cut: np.ndarray
    left: np.ndarray
    right: np.ndarray
    vote: np.ndarray
    roots: np.ndarray
    trees: np.ndarray
    first_trees: np.ndarray
    depth: int


def node_table(forests: list[EtForest]) -> NodeTable:
    """The table of ``forests``, walked with a stack; the attributes of each
    forest are offset by the ``feature_dim`` of the forests before it, so the
    table reads their features side by side."""
    attribute, cut, right, vote, roots = [], [], [], [], []
    depth, offset = 0, 0
    for forest in forests:
        for tree in forest.trees:
            roots.append(len(attribute))
            stack = [(tree, 0, -1)]  # node, its level, and the split whose right child it is
            while stack:
                node, level, parent = stack.pop()
                i = len(attribute)
                if parent >= 0:
                    right[parent] = i
                leaf = node.is_leaf
                attribute.append(0 if leaf else offset + node.attribute)
                cut.append(math.nan if leaf else node.cut)
                right.append(i)  # a split's is set when its right child is reached
                vote.append(leaf and node.counts[1] > node.counts[0])
                depth = max(depth, level)
                if not leaf:
                    stack += [(node.right, level + 1, i), (node.left, level + 1, -1)]
        offset += forest.feature_dim
    trees = np.array([len(forest.trees) for forest in forests], dtype=np.intp)
    return NodeTable(
        np.array(attribute, dtype=np.intp), np.array(cut, dtype=np.float64), np.arange(1, len(attribute) + 1),
        np.array(right, dtype=np.intp), np.array(vote, dtype=np.int64), np.array(roots, dtype=np.intp),
        trees, np.cumsum(trees) - trees, depth,
    )


def majority(table: NodeTable, features: np.ndarray) -> np.ndarray:
    """``(n_rows, n_forests)`` majority vote of each forest of ``table`` for
    each row of ``features``; a tied forest votes class 0.

    Each row first compares its features with the cut of every node, which
    picks every node's next node; then all trees descend together, one
    gather per level, for ``table.depth`` levels.  Rows go in chunks of
    about ``BATCH_PAIRS`` (row, node) pairs.
    """
    x = np.asarray(features, dtype=np.float64)
    n_nodes = len(table.attribute)
    step = max(1, BATCH_PAIRS // n_nodes)
    votes = np.empty((len(x), len(table.trees)), dtype=np.int64)
    for start in range(0, len(x), step):
        rows = x[start : start + step]
        offsets = np.arange(len(rows))[:, np.newaxis] * n_nodes
        # The next node of every (row, node), as an index into ``after`` itself.
        after = np.where(rows[:, table.attribute] <= table.cut, table.left, table.right) + offsets
        after = after.ravel()
        node = table.roots + offsets
        for _ in range(table.depth):
            node = after[node]
        votes[start : start + step] = np.add.reduceat(table.vote[node - offsets], table.first_trees, axis=1)
    return (votes * 2 > table.trees).astype(np.int64)


def predict(forest: EtForest, features: np.ndarray) -> np.ndarray:
    """Majority vote over trees for each row of ``features``; a tied forest votes class 0."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != forest.feature_dim:
        raise ValueError(f"features of shape {x.shape} are not rows of the trained dimension {forest.feature_dim}")
    return majority(node_table([forest]), x)[:, 0]


def _stops(nodes: _Nodes, x: np.ndarray, trees: np.ndarray, samples: np.ndarray, min_samples_split_grid) -> np.ndarray:
    """``(len(grid), n_pairs)`` node where sample ``samples[i]`` stops in tree
    ``trees[i]`` at each ``min_samples_split``: the first node on its path
    that is a leaf or has fewer samples."""
    leaf = nodes.attribute < 0
    small = nodes.counts.sum(axis=1) < np.asarray(min_samples_split_grid)[:, np.newaxis]
    stops = np.full((len(small), len(trees)), -1)
    active, node = np.arange(len(trees)), nodes.roots[trees]
    while len(active):
        here = stops[:, active]
        stops[:, active] = np.where((here < 0) & (leaf[node] | small[:, node]), node, here)
        inner = ~leaf[node]
        active, node = active[inner], node[inner]
        node = nodes.left[node] + (x[samples[active], nodes.attribute[node]] > nodes.cut[node])
    return stops


def _fold_votes(x, y, fold_ids, folds: int, max_features_grid, min_samples_split_grid, n_trees: int, seed: int) -> dict:
    """Class-1 votes of every fold forest on its held-out samples.

    ``votes[mf, k]`` is ``(len(min_samples_split_grid), n_trees, held-out
    samples of fold k)`` for ``max_features`` ``mf``.  The forest of
    ``(max_features, k)`` is seeded ``child_seed(seed, 1, max_features, k)``
    and grown on the other folds; all of them grow in one batch at the
    smallest ``min_samples_split``, and a larger one stops each descent at
    the first node with fewer samples.
    """
    forests = [(mf, k) for mf in max_features_grid for k in range(folds)]
    nodes = _grow(
        x, y,
        np.repeat(np.stack([fold_ids != k for _, k in forests]), n_trees, axis=0),
        np.repeat([mf for mf, _ in forests], n_trees),
        np.concatenate([_root_keys(child_seed(seed, 1, mf, k), n_trees) for mf, k in forests]),
        min(min_samples_split_grid),
    )
    held_out = [np.flatnonzero(fold_ids == k) for _, k in forests]
    trees = np.concatenate([np.repeat(f * n_trees + np.arange(n_trees), len(h)) for f, h in enumerate(held_out)])
    samples = np.concatenate([np.tile(h, n_trees) for h in held_out])
    stops = _stops(nodes, x, trees, samples, min_samples_split_grid)
    votes = nodes.counts[stops, 1] > nodes.counts[stops, 0]
    ends = np.cumsum([n_trees * len(h) for h in held_out])
    blocks = np.split(votes, ends[:-1], axis=1)
    return {forest: v.reshape(len(min_samples_split_grid), n_trees, -1) for forest, v in zip(forests, blocks)}


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
    ``max_features`` and fold (see :func:`_fold_votes`).  Each
    ``min_samples_split`` is scored on that forest cut at nodes with fewer
    samples, and each ``n_estimators`` on its first trees.  Ties prefer the
    cheapest model: fewer trees, then fewer attributes per split, then a
    larger minimum node size.  The returned params carry ``seed`` so a
    subsequent :func:`fit` is reproducible.
    """
    if not max_features_grid or not min_samples_split_grid or not n_estimators_grid:
        raise ValueError("parameter grids must be non-empty")
    x, y = _training_set(features, labels)
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
    votes = _fold_votes(x, y, fold_ids, folds, max_features_grid, min_samples_split_grid, max(n_estimators_grid), seed)
    held_out = [y[fold_ids == k] for k in range(folds)]
    keys = []
    for mf in max_features_grid:
        # Row n - 1 of a cumulative sum holds the class-1 votes of the first n trees.
        prefix_votes = [np.cumsum(votes[mf, k], axis=1) for k in range(folds)]
        for s, ms in enumerate(min_samples_split_grid):
            for ne in n_estimators_grid:
                accuracy = np.mean([float(np.mean((v[s, ne - 1] * 2 > ne) == h)) for v, h in zip(prefix_votes, held_out)])
                keys.append((accuracy, -ne, -mf, ms))
    _, ne, mf, ms = max(keys)
    return EtParams(max_features=-mf, min_samples_split=ms, n_estimators=-ne, seed=seed)
