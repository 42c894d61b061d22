import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fingerbci import (
    SynthConfig,
    generate,
    decompose,
    lda_fit,
    lda_predict,
    make_bank,
    score_bands,
    select_bands,
)
from fingerbci.bandselect import BandScore, _fit_fold_model
from fingerbci.crossval import stratified_folds
from fingerbci.rng import stream


class TestLda:
    def gaussian_clusters(self, rng, n=50, separation=10.0, dims=1):
        x0 = rng.standard_normal((n, dims))
        x1 = rng.standard_normal((n, dims)) + separation
        features = np.vstack([x0, x1])
        labels = np.array([0] * n + [1] * n)
        return features, labels

    def test_separated_clusters_perfect_training_accuracy(self):
        rng = np.random.default_rng(0)
        features, labels = self.gaussian_clusters(rng)
        model = lda_fit(features, labels)
        assert np.mean(lda_predict(model, features) == labels) == 1.0

    def test_identical_means_chance_level(self):
        rng = np.random.default_rng(1)
        train = rng.standard_normal((200, 2))
        labels = np.array([0, 1] * 100)
        model = lda_fit(train, labels)
        fresh = rng.standard_normal((500, 2))
        fresh_labels = rng.integers(0, 2, 500)
        accuracy = np.mean(lda_predict(model, fresh) == fresh_labels)
        assert 0.4 <= accuracy <= 0.6

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(2)
        features, labels = self.gaussian_clusters(rng, n=20, dims=3)
        order = rng.permutation(len(labels))
        base = lda_fit(features, labels)
        permuted = lda_fit(features[order], labels[order])
        assert np.allclose(base.weights, permuted.weights, atol=1e-9)
        assert base.bias == pytest.approx(permuted.bias, abs=1e-9)

    def test_midpoint_ties_to_class_zero(self):
        features = np.array([[-1.0], [1.0], [9.0], [11.0]])
        labels = np.array([0, 0, 1, 1])
        model = lda_fit(features, labels, shrinkage=1e-3)
        assert lda_predict(model, np.array([[5.0]]))[0] == 0  # exactly on the boundary
        assert lda_predict(model, np.array([[10.0]]))[0] == 1  # at the class-1 mean

    def test_zero_spread_rejected(self):
        # Degenerate: no within-class variance, shrinkage scales to zero.
        features = np.array([[0.0], [0.0], [2.0], [2.0]])
        with pytest.raises(ValueError, match="singular"):
            lda_fit(features, np.array([0, 0, 1, 1]))

    def test_linear_map_equivariance_without_shrinkage(self):
        rng = np.random.default_rng(3)
        train = rng.standard_normal((60, 3))
        labels = (rng.random(60) > 0.5).astype(int)
        labels[:2] = [0, 1]  # both classes present
        test = rng.standard_normal((40, 3))
        transform = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        base = lda_predict(lda_fit(train, labels, shrinkage=0.0), test)
        mapped = lda_predict(lda_fit(train @ transform, labels, shrinkage=0.0), test @ transform)
        assert np.array_equal(base, mapped)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            lda_fit(np.zeros((4, 2)), np.zeros(4, dtype=int))

    def test_dimension_mismatch_rejected(self):
        model = lda_fit(np.array([[0.0], [2.0], [10.0], [12.0]]), np.array([0, 0, 1, 1]))
        with pytest.raises(ValueError, match="dimension"):
            lda_predict(model, np.zeros((3, 2)))


class TestStratifiedFolds:
    def test_balanced_assignment(self):
        labels = np.array([0] * 10 + [1] * 10)
        fold_ids = stratified_folds(labels, 5, stream(0))
        for k in range(5):
            mask = fold_ids == k
            assert np.sum(labels[mask] == 0) == 2
            assert np.sum(labels[mask] == 1) == 2

    def test_deterministic(self):
        labels = np.array([0, 1] * 15)
        a = stratified_folds(labels, 3, stream(9))
        b = stratified_folds(labels, 3, stream(9))
        assert np.array_equal(a, b)

    def test_insufficient_samples(self):
        with pytest.raises(ValueError, match="fewer than"):
            stratified_folds(np.array([0, 0, 1]), 2, stream(0))


@pytest.fixture(scope="module")
def scored_decomposition():
    """Three bands; only 9-11 Hz carries class information."""
    config = SynthConfig(
        n_classes=2,
        trials_per_class=40,
        n_channels=4,
        sample_rate=128.0,
        trial_duration=2.5,
        class_sources=[[(9.0, 11.0, 4.0)], [(9.0, 11.0, 4.0)]],
        mixing_seed=41,
        noise_variance=1.0,
        noise_seed=42,
    )
    dataset = generate(config)
    bank = make_bank(8.0, 26.0, 2.0, taps=63)
    return decompose(dataset, bank)


class TestScoreBands:
    def test_planted_band_scores_high(self, scored_decomposition):
        scores = score_bands(scored_decomposition, 0, 1, n_pairs=2, folds=5, seed=3)
        by_band = {s.band: s.score for s in scores}
        assert by_band[(8.0, 10.0)] >= 0.9 or by_band[(10.0, 12.0)] >= 0.9

    def test_noise_band_scores_chance(self, scored_decomposition):
        scores = score_bands(scored_decomposition, 0, 1, n_pairs=2, folds=5, seed=3)
        by_band = {s.band: s.score for s in scores}
        assert 0.35 <= by_band[(22.0, 24.0)] <= 0.65

    def test_deterministic(self, scored_decomposition):
        first = score_bands(scored_decomposition, 0, 1, seed=11)
        second = score_bands(scored_decomposition, 0, 1, seed=11)
        assert [s.score for s in first] == [s.score for s in second]

    def test_missing_class_rejected(self, scored_decomposition):
        with pytest.raises(ValueError, match="present"):
            score_bands(scored_decomposition, 0, 5)

    def test_insufficient_trials_for_folds(self, scored_decomposition):
        with pytest.raises(ValueError, match="fewer than"):
            score_bands(scored_decomposition, 0, 1, folds=50)

    def test_fold_fit_ignores_heldout_trials(self, scored_decomposition):
        # Leakage guard: corrupting the held-out fold must not move the fitted models.
        first = scored_decomposition.subset(list(range(20)))
        csp_covariances = first.csp_covariances[0]
        feature_covariances = first.feature_covariances[0]
        labels = np.array([0, 1] * 10)
        train_mask = np.arange(20) < 12
        base = _fit_fold_model(csp_covariances, feature_covariances, labels, train_mask, 1, 1e-3, (8.0, 10.0))
        # Scaling samples by 100 scales the centred covariance by 1e4; the
        # trace-normalised one is scale-free, so replace it outright.
        corrupted_csp = csp_covariances.copy()
        corrupted_csp[~train_mask] = np.eye(csp_covariances.shape[-1]) / csp_covariances.shape[-1]
        corrupted_features = feature_covariances.copy()
        corrupted_features[~train_mask] *= 1e4
        perturbed = _fit_fold_model(corrupted_csp, corrupted_features, labels, train_mask, 1, 1e-3, (8.0, 10.0))
        assert np.array_equal(base[0].filters, perturbed[0].filters)
        assert np.array_equal(base[1].weights, perturbed[1].weights)


class TestSelectBands:
    def score_list(self, values):
        return [BandScore(band=(float(i), float(i + 2)), score=v) for i, v in enumerate(values)]

    def test_hand_computed_threshold(self):
        result = select_bands(self.score_list([0.8, 0.7, 0.6]))
        assert result.threshold == pytest.approx(0.7, abs=1e-12)
        assert result.selected == [0, 1]

    def test_all_equal_selects_all(self):
        result = select_bands(self.score_list([0.6, 0.6, 0.6, 0.6]))
        assert result.threshold == pytest.approx(0.6)
        assert result.selected == [0, 1, 2, 3]

    def test_single_band_selected(self):
        result = select_bands(self.score_list([0.42]))
        assert result.selected == [0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_bands([])

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=17))
    def test_selection_never_empty(self, values):
        result = select_bands(self.score_list(values))
        assert result.selected
        assert int(np.argmax(values)) in result.selected

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12),
        extra=st.floats(0.0, 1.0),
    )
    def test_monotone_safety(self, values, extra):
        before = select_bands(self.score_list(values))
        after = select_bands(self.score_list(values + [extra]))
        for i in before.selected:
            if values[i] >= after.threshold:
                assert i in after.selected
