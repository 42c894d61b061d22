import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

import extratrees_reference as reference
from extratrees_reference import Node, array_forest, table_predict, tree_predict
from fingerbci import extratrees
from fingerbci.crossval import stratified_folds
from fingerbci.extratrees import (
    EtParams, _draw, _fold_votes, _grow, _root_keys, fit, majority, mix, node_table, tree_sizes, tune,
)
from fingerbci.rng import child_seed, stream


def separable_clusters(rng, n=30, margin=20.0):
    x0 = rng.standard_normal((n, 2))
    x1 = rng.standard_normal((n, 2)) + margin
    features = np.vstack([x0, x1])
    labels = np.array([0] * n + [1] * n)
    return features, labels


def nodes_equal(a, b) -> bool:
    """Equal shape, attributes, cuts and leaf counts (Python ints), walked with a stack."""
    stack = [(a, b)]
    while stack:
        p, q = stack.pop()
        if p.is_leaf != q.is_leaf:
            return False
        if p.is_leaf:
            if p.counts != q.counts or not all(type(c) is int for c in p.counts):
                return False
        elif type(p.attribute) is not int or (p.attribute, p.cut) != (q.attribute, q.cut):
            return False
        else:
            stack += [(p.left, q.left), (p.right, q.right)]
    return True


def depth(tree) -> int:
    deepest, stack = 0, [(tree, 0)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        if not node.is_leaf:
            stack += [(node.left, level + 1), (node.right, level + 1)]
    return deepest


def leaf_count_total(node) -> int:
    if node.is_leaf:
        return node.counts[0] + node.counts[1]
    return leaf_count_total(node.left) + leaf_count_total(node.right)


class TestFit:
    def test_separable_resubstitution_perfect(self):
        features, labels = separable_clusters(np.random.default_rng(0))
        forest = fit(features, labels, EtParams(max_features=2, min_samples_split=2, n_estimators=50, seed=1))
        assert np.array_equal(table_predict(forest, features), labels)

    def test_large_min_split_gives_single_leaf_majority(self):
        rng = np.random.default_rng(1)
        features = rng.standard_normal((10, 3))
        labels = np.array([1] * 7 + [0] * 3)
        forest = fit(features, labels, EtParams(max_features=2, min_samples_split=11, n_estimators=5, seed=2))
        assert all(tree.is_leaf for tree in forest.trees)
        probes = rng.standard_normal((20, 3))
        assert np.array_equal(table_predict(forest, probes), np.ones(20, dtype=int))

    def test_deterministic_same_seed(self):
        features, labels = separable_clusters(np.random.default_rng(3), margin=2.0)
        params = EtParams(max_features=2, min_samples_split=2, n_estimators=10, seed=7)
        first = fit(features, labels, params)
        second = fit(features, labels, params)
        assert all(nodes_equal(a, b) for a, b in zip(first.trees, second.trees))
        probes = np.random.default_rng(4).standard_normal((50, 2))
        assert np.array_equal(table_predict(first, probes), table_predict(second, probes))

    def test_every_tree_sees_all_samples(self):
        # No bootstrap: leaf counts of each tree partition the full set.
        features, labels = separable_clusters(np.random.default_rng(5), margin=1.0)
        forest = fit(features, labels, EtParams(max_features=1, min_samples_split=2, n_estimators=8, seed=6))
        for tree in forest.trees:
            assert leaf_count_total(tree) == len(labels)

    def test_zero_resubstitution_on_conflict_free_data(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            features = rng.standard_normal((40, 4))
            labels = rng.integers(0, 2, 40)
            labels[:2] = [0, 1]
            forest = fit(features, labels, EtParams(max_features=2, min_samples_split=2, n_estimators=5, seed=8))
            assert np.array_equal(table_predict(forest, features), labels)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="single class"):
            fit(np.random.default_rng(9).standard_normal((6, 2)), np.zeros(6, dtype=int),
                EtParams(max_features=1, min_samples_split=2, n_estimators=1))

    def test_labels_outside_zero_one_rejected(self):
        features, labels = separable_clusters(np.random.default_rng(9), n=5)
        with pytest.raises(ValueError, match="0 or 1"):
            fit(features, labels * 2, EtParams(max_features=1, min_samples_split=2, n_estimators=1))

    def test_max_features_beyond_dimension_rejected(self):
        features, labels = separable_clusters(np.random.default_rng(10), n=5)
        with pytest.raises(ValueError, match="max_features"):
            fit(features, labels, EtParams(max_features=3, min_samples_split=2, n_estimators=1))

    def test_constant_feature_handled(self):
        rng = np.random.default_rng(11)
        features = np.hstack([np.ones((20, 1)), rng.standard_normal((20, 1))])
        labels = (features[:, 1] > 0).astype(int)
        forest = fit(features, labels, EtParams(max_features=2, min_samples_split=2, n_estimators=5, seed=12))
        assert np.array_equal(table_predict(forest, features), labels)


class TestPredict:
    def test_single_tree_forest_matches_tree(self):
        features, labels = separable_clusters(np.random.default_rng(13), margin=1.5)
        forest = fit(features, labels, EtParams(max_features=2, min_samples_split=2, n_estimators=1, seed=14))
        probes = np.random.default_rng(15).standard_normal((25, 2))
        forest_votes = table_predict(forest, probes)
        tree_votes = np.array([tree_predict(forest.trees[0], p) for p in probes])
        assert np.array_equal(forest_votes, tree_votes)

    def test_cluster_centers_classified(self):
        features, labels = separable_clusters(np.random.default_rng(16))
        forest = fit(features, labels, EtParams(max_features=2, min_samples_split=2, n_estimators=30, seed=17))
        centers = np.array([[0.0, 0.0], [20.0, 20.0]])
        assert np.array_equal(table_predict(forest, centers), [0, 1])

    def test_unanimous_vote_wins(self):
        features = np.array([[0.0], [0.0], [1.0]])
        labels = np.array([1, 1, 0])
        # min_samples_split > n: every tree is the same majority-1 leaf.
        forest = fit(features, labels, EtParams(max_features=1, min_samples_split=10, n_estimators=9, seed=18))
        votes = [tree_predict(t, np.array([5.0])) for t in forest.trees]
        assert set(votes) == {1}
        assert table_predict(forest, np.array([[5.0]]))[0] == 1

    def test_leaf_tie_votes_class_zero(self):
        leaf = Node(counts=(3, 3))
        assert tree_predict(leaf, np.zeros(1)) == 0
        assert table_predict(array_forest([leaf], EtParams(1, 2, 1), 1), np.zeros((1, 1)))[0] == 0


def chain(length: int, feature_dim: int = 1) -> Node:
    """A tree of ``length`` splits, each with a leaf on the left: node ``k``
    sends values up to ``k`` of feature ``k % feature_dim`` to a leaf voting
    ``k % 2``; built bottom-up, without recursion."""
    node = Node(counts=(0, 1))
    for k in reversed(range(length)):
        node = Node(attribute=k % feature_dim, cut=float(k), left=Node(counts=(1 - k % 2, k % 2)), right=node)
    return node


def reference_votes(forests, rows) -> np.ndarray:
    """``(n_rows, n_forests)`` per-tree majority of the scalar walk, each
    forest reading its own block of the rows' features."""
    ends = np.cumsum([forest.feature_dim for forest in forests])
    return np.stack([reference.predict(forest, rows[:, end - forest.feature_dim : end])
                     for forest, end in zip(forests, ends)], axis=1)


class TestNodeTable:
    """The node-table descent against the per-tree majority of the scalar
    ``tree_predict`` walk; votes are integers, so they must be equal."""

    def test_random_forests(self):
        rng = np.random.default_rng(80)
        for i in range(120):
            features, labels, params = random_problem(rng, i)
            forest = fit(features, labels, params)
            # Probes at every cut of the first tree exercise the ``<=`` side.
            probes = np.vstack([features, rng.standard_normal((10, features.shape[1]))])
            table = node_table([forest])
            cuts = table.cut[table.attribute >= 0][np.isfinite(table.cut[table.attribute >= 0])]
            probes = np.vstack([probes, np.repeat(cuts[:, np.newaxis], features.shape[1], axis=1)])
            assert np.array_equal(table_predict(forest, probes), reference.predict(forest, probes)), f"problem {i}"

    def test_single_leaf_tree(self):
        for counts, vote in (((1, 2), 1), ((2, 1), 0), ((0, 0), 0)):
            forest = array_forest([Node(counts=counts)], EtParams(1, 2, 1), 2)
            assert node_table([forest]).depth == 0
            assert np.array_equal(table_predict(forest, np.zeros((3, 2))), [vote] * 3)

    def test_tied_forest_votes_zero(self):
        trees = [Node(counts=(0, 4)), Node(0, 0.0, Node(counts=(5, 0)), Node(counts=(0, 5)))]
        forest = array_forest(trees, EtParams(1, 2, 2), 1)
        # -1 splits left (two votes 1 and 0: a tie), 1 splits right (two votes 1).
        assert np.array_equal(table_predict(forest, np.array([[-1.0], [1.0]])), [0, 1])
        assert np.array_equal(reference.predict(forest, np.array([[-1.0], [1.0]])), [0, 1])

    def test_chain_deeper_than_recursion_limit(self):
        length = 2000
        assert length > sys.getrecursionlimit()
        forest = array_forest([chain(length)], EtParams(1, 2, 1), 1)
        table = node_table([forest])
        assert table.depth == length and len(table.attribute) == 2 * length + 1
        rows = np.array([[-1.0], [0.5], [1.0], [1000.5], [1998.0], [1999.0], [1999.5], [np.inf]])
        expected = [0, 1, 1, 1, 0, 1, 1, 1]
        assert [tree_predict(forest.trees[0], row) for row in rows] == expected
        assert np.array_equal(table_predict(forest, rows), expected)

    def test_forests_of_different_dimensions_side_by_side(self):
        rng = np.random.default_rng(81)
        forests = []
        for i, dim in enumerate((3, 1, 5, 2)):
            features = rng.standard_normal((30, dim))
            labels = (features[:, -1] + 0.5 * rng.standard_normal(30) > 0).astype(np.int64)
            labels[:2] = [0, 1]
            forests.append(fit(features, labels, EtParams(max_features=dim, min_samples_split=2, n_estimators=5 + i,
                                                          seed=i)))
        forests.append(array_forest([chain(40, feature_dim=2)], EtParams(1, 2, 1), 2))
        rows = rng.standard_normal((25, 13)) * np.r_[np.ones(11), 20.0, 20.0]
        table = node_table(forests)
        assert list(table.trees) == [5, 6, 7, 8, 1]
        expected = reference_votes(forests, rows)
        assert np.array_equal(majority(table, rows), expected)
        for i, row in enumerate(rows):
            assert np.array_equal(majority(table, row[np.newaxis]), expected[i : i + 1])
        assert majority(table, rows[:0]).shape == (0, 5)

    def test_row_chunks_change_no_vote(self, monkeypatch):
        rng = np.random.default_rng(82)
        features, labels, params = random_problem(rng, 5)
        forest = fit(features, labels, replace(params, n_estimators=9))
        rows = rng.standard_normal((23, features.shape[1]))
        whole = table_predict(forest, rows)
        monkeypatch.setattr(extratrees, "BATCH_PAIRS", 4 * len(node_table([forest]).attribute))  # four rows a chunk
        assert np.array_equal(table_predict(forest, rows), whole)
        assert np.array_equal(whole, reference.predict(forest, rows))


class TestArrayForest:
    """Forests hold each tree's arrays in level order; ``trees`` links them."""

    def test_hand_made_tree_in_level_order(self):
        # A split on feature 0 whose right child splits feature 1: the k-th
        # internal node's children are nodes 2k + 1 and 2k + 2.
        tree = Node(0, 0.5, Node(counts=(1, 0)), Node(1, 2.5, Node(counts=(0, 2)), Node(counts=(3, 0))))
        forest = array_forest([Node(counts=(4, 1)), tree], EtParams(1, 2, 2), 2)
        assert forest.attribute.tolist() == [-1, 0, -1, 1, -1, -1]
        assert forest.cut.tolist() == [0.5, 2.5]
        assert forest.counts.tolist() == [[4, 1], [1, 0], [0, 2], [3, 0]]
        assert forest.sizes.tolist() == [1, 5]
        assert all(nodes_equal(a, b) for a, b in zip(forest.trees, [Node(counts=(4, 1)), tree]))
        table = node_table([forest])
        assert table.left.tolist() == [0, 2, 2, 4, 4, 5] and table.right.tolist() == [0, 3, 2, 5, 4, 5]
        assert table.roots.tolist() == [0, 1] and table.depth == 2
        rows = np.array([[0.0, 0.0], [1.0, 2.0], [1.0, 3.0]])
        assert np.array_equal(table_predict(array_forest([tree], EtParams(1, 2, 1), 2), rows), [0, 1, 0])

    def test_trees_view_lays_out_as_the_arrays(self):
        # The view, laid out again breadth first by the reference, gives the arrays back.
        rng = np.random.default_rng(83)
        for i in range(40):
            features, labels, params = random_problem(rng, i)
            forest = fit(features, labels, params)
            again = array_forest(forest.trees, params, features.shape[1])
            for name in ("attribute", "cut", "counts", "sizes"):
                assert np.array_equal(getattr(forest, name), getattr(again, name)), f"problem {i}: {name}"
            assert forest.trees[0] is not forest.trees[0]  # linked anew at every call

    def test_tree_sizes_from_attributes_alone(self):
        # Every fitted forest's sizes, from its attributes; nodes of a tree cut short are not counted.
        rng = np.random.default_rng(84)
        for i in range(40):
            features, labels, params = random_problem(rng, i)
            forest = fit(features, labels, params)
            assert np.array_equal(tree_sizes(forest.attribute), forest.sizes), f"problem {i}"
            assert np.array_equal(tree_sizes(forest.attribute[:-1]), forest.sizes[:-1]), f"problem {i}"
        assert tree_sizes(np.array([-1, 0, -1, 1, -1, -1, 0, -1])).tolist() == [1, 5]
        assert tree_sizes(np.array([0, 0])).tolist() == [] and tree_sizes(np.array([], dtype=np.int64)).tolist() == []


class TestTune:
    def test_single_point_grid_returned(self):
        features, labels = separable_clusters(np.random.default_rng(20), n=10)
        params = tune(features, labels, [2], [2], [10], folds=2, seed=21)
        assert params == EtParams(max_features=2, min_samples_split=2, n_estimators=10, seed=21)

    def test_pure_noise_deterministic_and_near_chance(self):
        rng = np.random.default_rng(22)
        features = rng.standard_normal((40, 3))
        labels = rng.integers(0, 2, 40)
        labels[:2] = [0, 1]
        first = tune(features, labels, [1, 3], [2, 10], [5, 15], folds=4, seed=23)
        second = tune(features, labels, [1, 3], [2, 10], [5, 15], folds=4, seed=23)
        assert first == second
        # Winner's CV accuracy sits near chance.
        from fingerbci.crossval import stratified_folds
        from fingerbci.rng import stream

        fold_ids = stratified_folds(labels, 4, stream(23, 0))
        accuracies = []
        for k in range(4):
            mask = fold_ids == k
            forest = fit(features[~mask], labels[~mask], first)
            accuracies.append(np.mean(table_predict(forest, features[mask]) == labels[mask]))
        assert 0.35 <= np.mean(accuracies) <= 0.65

    def test_separable_data_tunes_well(self):
        features, labels = separable_clusters(np.random.default_rng(24), n=20)
        params = tune(features, labels, [1, 2], [2, 5], [10, 20], folds=4, seed=25)
        from fingerbci.crossval import stratified_folds
        from fingerbci.rng import stream

        fold_ids = stratified_folds(labels, 4, stream(99))
        accuracies = []
        for k in range(4):
            mask = fold_ids == k
            forest = fit(features[~mask], labels[~mask], params)
            accuracies.append(np.mean(table_predict(forest, features[mask]) == labels[mask]))
        assert np.mean(accuracies) >= 0.95

    def test_tie_break_prefers_cheapest(self):
        # Perfectly separable: every grid point reaches accuracy 1, so the
        # cheapest configuration must win.
        features, labels = separable_clusters(np.random.default_rng(26), n=12, margin=50.0)
        params = tune(features, labels, [1, 2], [2, 4], [5, 25], folds=3, seed=27)
        assert params.n_estimators == 5
        assert params.max_features == 1
        assert params.min_samples_split == 4

    def test_empty_grid_rejected(self):
        features, labels = separable_clusters(np.random.default_rng(28), n=5)
        with pytest.raises(ValueError, match="non-empty"):
            tune(features, labels, [], [2], [5])


def random_problem(rng, i):
    """Small binary problem; some with rounded features (tied values), a
    constant column, a column of two adjacent floats (every cut there equals
    the lower one), or min_samples_split above the sample count."""
    n, d = int(rng.integers(2, 50)), int(rng.integers(1, 7))
    features = rng.standard_normal((n, d))
    if i % 3 == 0:
        features = np.round(features, 1)
    if i % 4 == 0:
        features[:, int(rng.integers(d))] = 0.5
    if i % 7 == 0:
        features[:, int(rng.integers(d))] = 1.0 + np.spacing(1.0) * rng.integers(0, 2, n)
    labels = rng.integers(0, 2, n)
    labels[:2] = [0, 1]
    min_split = n + int(rng.integers(1, 5)) if i % 10 == 0 else int(rng.integers(2, 8))
    params = EtParams(max_features=int(rng.integers(1, d + 1)), min_samples_split=min_split, n_estimators=3, seed=i)
    return features, labels, params


class TestNodeKeyedDraws:
    def test_mix_equals_python_int_splitmix64(self):
        rng = np.random.default_rng(50)
        keys = rng.integers(0, 2**64, 200, dtype=np.uint64, endpoint=False)
        values = rng.integers(0, 1000, 200)
        assert mix(keys, values).tolist() == [reference.mix(int(k), int(v)) for k, v in zip(keys, values)]

    @pytest.mark.parametrize("max_features", [1, 4, 9, 12])
    def test_candidate_frequency_is_max_features_over_varying_attributes(self, max_features):
        n_nodes, constant = 20000, [0, 5, 11]
        lows, highs = np.zeros((n_nodes, 12)), np.ones((n_nodes, 12))
        highs[:, constant] = 0.0
        candidates, _ = _draw(mix(np.arange(n_nodes), 7), lows, highs, np.full(n_nodes, max_features))
        drawn = min(max_features, 9)
        assert (candidates.sum(axis=1) == drawn).all()
        assert not candidates[:, constant].any()
        p = drawn / 9
        frequency = np.delete(candidates, constant, axis=1).mean(axis=0)
        assert np.abs(frequency - p).max() <= 5 * np.sqrt(p * (1 - p) / n_nodes) + 1e-12

    def test_cuts_uniform_between_low_and_high(self):
        n_nodes = 5000
        lows, highs = np.full((n_nodes, 2), -2.0), np.full((n_nodes, 2), 3.0)
        _, cuts = _draw(mix(np.arange(n_nodes), 11), lows, highs, np.full(n_nodes, 2))
        assert ((cuts >= -2.0) & (cuts < 3.0)).all()
        for column in cuts.T:  # each attribute's cuts, and their independence of the other's
            assert stats.kstest((column + 2.0) / 5.0, "uniform").pvalue > 1e-3
        assert abs(stats.pearsonr(cuts[:, 0], cuts[:, 1]).statistic) < 0.05

    def test_chunked_growth_equals_one_batch(self, monkeypatch):
        features, labels, params = random_problem(np.random.default_rng(55), 1)
        params = replace(params, n_estimators=12, min_samples_split=2)
        whole = fit(features, labels, params)
        monkeypatch.setattr(extratrees, "BATCH_PAIRS", 3 * features.shape[1])
        chunked = fit(features, labels, params)
        assert all(nodes_equal(a, b) for a, b in zip(whole.trees, chunked.trees))


class TestReferenceEquivalence:
    """The level-synchronous grower and truncation-scored tuning against the
    slow reference of the same node-keyed draws."""

    def test_forests_bit_identical_to_recursive_grower(self):
        rng = np.random.default_rng(30)
        for i in range(240):
            features, labels, params = random_problem(rng, i)
            fast, slow = fit(features, labels, params), reference.fit(features, labels, params)
            for name in ("attribute", "cut", "counts", "sizes"):
                assert np.array_equal(getattr(fast, name), getattr(slow, name)), f"problem {i}: {name}"
            assert all(nodes_equal(a, b) for a, b in zip(fast.trees, slow.trees)), f"problem {i}: {params}"
            probes = np.vstack([features, rng.standard_normal((10, features.shape[1]))])
            assert np.array_equal(table_predict(fast, probes), reference.predict(slow, probes)), f"problem {i}"

    def test_truncated_forest_equals_forest_grown_at_that_m(self):
        rng = np.random.default_rng(60)
        for i in range(60):
            features, labels, params = random_problem(rng, i)
            n = params.n_estimators
            nodes = _grow(features, labels, np.ones((n, len(labels)), dtype=bool), np.full(n, params.max_features),
                          _root_keys(params.seed, n), 2)
            for m in (2, 3, 5, 9, 60):
                grown = fit(features, labels, replace(params, min_samples_split=m))
                linked = reference.link(nodes, m)
                assert all(nodes_equal(a, b) for a, b in zip(linked, grown.trees)), f"problem {i}, m {m}"

    @pytest.mark.parametrize("seed", range(3))
    def test_tune_votes_equal_the_fitted_fold_forests(self, seed):
        # At the smallest min_samples_split the votes are those of fit's
        # forest; at a larger one, those of the forest fit at that value.
        rng = np.random.default_rng(70 + seed)
        features = rng.standard_normal((36, 5))
        labels = (features[:, 0] + rng.standard_normal(36) > 0).astype(np.int64)
        folds, max_features_grid, min_samples_split_grid, n_trees = 4, [1, 3, 5], [2, 4, 7], 6
        fold_ids = stratified_folds(labels, folds, stream(seed, 0))
        votes = _fold_votes(features, labels, fold_ids, folds, max_features_grid, min_samples_split_grid, n_trees, seed)
        for mf in max_features_grid:
            for k in range(folds):
                test = fold_ids == k
                for s, ms in enumerate(min_samples_split_grid):
                    params = EtParams(mf, ms, n_trees, seed=child_seed(seed, 1, mf, k))
                    forest = fit(features[~test], labels[~test], params)
                    expected = [[tree_predict(tree, row) for row in features[test]] for tree in forest.trees]
                    assert np.array_equal(votes[mf, k][s], expected), (mf, k, ms)

    @pytest.mark.parametrize("seed", range(6))
    def test_prefix_tune_equals_brute_force(self, seed):
        rng = np.random.default_rng(40 + seed)
        n, d = 30 + 4 * seed, 4
        features = rng.standard_normal((n, d))
        if seed % 2:
            features = np.round(features, 1)
        labels = (features[:, 0] + rng.standard_normal(n) > 0).astype(np.int64)
        grids = ([1, 2, 4], [2, 6], [9, 3, 1, 5])
        fast = tune(features, labels, *grids, folds=3, seed=seed)
        slow = reference.tune(features, labels, *grids, folds=3, seed=seed)
        assert fast == slow

    def test_trees_deeper_than_recursion_limit_grow(self):
        # Each cut is uniform between the smallest and the largest value,
        # so on powers of two it peels off only the top few samples.
        features = (2.0 ** np.arange(-1000, 1000))[:, np.newaxis]
        labels = np.zeros(len(features), dtype=np.int64)
        labels[0] = 1
        params = EtParams(max_features=1, min_samples_split=2, n_estimators=1, seed=0)
        forest = fit(features, labels, params)
        assert depth(forest.trees[0]) > sys.getrecursionlimit()
        assert np.array_equal(table_predict(forest, features), labels)
        assert np.array_equal(table_predict(forest, features[::40]), reference.predict(forest, features[::40]))
        with pytest.raises(RecursionError):
            reference.fit(features, labels, params)
