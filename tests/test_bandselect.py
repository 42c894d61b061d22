import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fingerbci import (
    SynthConfig,
    generate,
    decompose,
    exhaustive_code,
    make_bank,
    select_bands,
)
from fingerbci.bandselect import DEFAULT_SHRINKAGE, BandScore, fit_folds, score_bands_for_labels
from fingerbci.crossval import stratified_folds
from fingerbci.csp import class_covariances
from fingerbci.dsp import BandDecomposition
from fingerbci.rng import child_seed, stream

import bandselect_reference as reference
import spectral_reference
from bandselect_reference import lda_fit, lda_predict


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

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31), n_classes=st.integers(2, 5), folds=st.integers(2, 6))
    def test_matches_per_sample_loop(self, seed, n_classes, folds):
        rng = np.random.default_rng(seed)
        labels = np.concatenate([np.arange(n_classes).repeat(folds), rng.integers(0, n_classes, 40)])
        labels = labels[rng.permutation(len(labels))] * 3  # any label values, not only 0..p-1
        expected = np.empty(len(labels), dtype=np.int64)
        loop_rng = stream(seed)
        for label in np.unique(labels):
            indices = np.flatnonzero(labels == label)
            for position, j in enumerate(loop_rng.permutation(len(indices))):
                expected[indices[j]] = position % folds
        assert np.array_equal(stratified_folds(labels, folds, stream(seed)), expected)


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
        scores = score_bands_for_labels(scored_decomposition, scored_decomposition.labels, n_pairs=2, folds=5, seed=3)
        by_band = {s.band: s.score for s in scores}
        assert by_band[(8.0, 10.0)] >= 0.9 or by_band[(10.0, 12.0)] >= 0.9

    def test_noise_band_scores_chance(self, scored_decomposition):
        scores = score_bands_for_labels(scored_decomposition, scored_decomposition.labels, n_pairs=2, folds=5, seed=3)
        by_band = {s.band: s.score for s in scores}
        assert 0.35 <= by_band[(22.0, 24.0)] <= 0.65

    def test_deterministic(self, scored_decomposition):
        first = score_bands_for_labels(scored_decomposition, scored_decomposition.labels, seed=11)
        second = score_bands_for_labels(scored_decomposition, scored_decomposition.labels, seed=11)
        assert [s.score for s in first] == [s.score for s in second]

    def test_missing_class_rejected(self, scored_decomposition):
        with pytest.raises(ValueError, match="present"):
            scored_decomposition.classes(0, 5)

    def test_insufficient_trials_for_folds(self, scored_decomposition):
        with pytest.raises(ValueError, match="fewer than"):
            score_bands_for_labels(scored_decomposition, scored_decomposition.labels, folds=50)

    def test_fold_fit_ignores_heldout_trials(self, scored_decomposition):
        # Leakage guard: corrupting the held-out fold must not move the fitted models.
        first = scored_decomposition.subset(list(range(20)))
        covariances = first.feature_covariances[:1]
        labels = np.array([0, 1] * 10)
        train_mask = (np.arange(20) < 12)[np.newaxis, np.newaxis]
        base = fit_folds(covariances, labels, train_mask, 1, 1e-3)
        # Scaling a covariance leaves CSP's trace-normalised class means as
        # they are, so replace the held-out covariances outright.
        heldout = ~train_mask[0, 0]
        corrupted = covariances.copy()
        corrupted[:, heldout] = 1e4 * np.eye(covariances.shape[-1])
        perturbed = fit_folds(corrupted, labels, train_mask, 1, 1e-3)
        assert np.array_equal(base[0], perturbed[0])
        assert np.array_equal(base[2], perturbed[2])
        assert np.array_equal(base[3], perturbed[3])

    def test_fold_fit_ignores_non_finite_heldout_trials(self, scored_decomposition):
        # Held-out trials enter no sum: a NaN trial that no training set reads leaves every fit as it is.
        covariances = scored_decomposition.subset(list(range(20))).feature_covariances[:1]
        labels = np.array([0, 1] * 10)
        train_mask = np.stack([np.arange(20) % 10 < 6, np.arange(20) % 10 >= 6])[np.newaxis]
        train_mask[..., 5] = False
        corrupted = covariances.copy()
        corrupted[:, 5] = np.nan
        base = fit_folds(covariances, labels, train_mask, 1, 1e-3)
        perturbed = fit_folds(corrupted, labels, train_mask, 1, 1e-3)
        for i in (0, 2, 3):
            assert np.array_equal(base[i], perturbed[i])
        assert np.array_equal(np.delete(base[1], 5, axis=2), np.delete(perturbed[1], 5, axis=2))
        train_mask[0, 1, 5] = True  # a training trial is still read, NaN and all
        with pytest.raises(ValueError, match="CSP class covariances are not finite"):
            fit_folds(corrupted, labels, train_mask, 1, 1e-3)


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


def wishart(rng, shape, n_channels, dof):
    x = rng.standard_normal(shape + (n_channels, dof))
    return x @ x.swapaxes(-1, -2) / dof


def covariance_decomposition(covariances, labels):
    n_bands, _, n_channels = covariances.shape[:3]
    return BandDecomposition(
        bands=[(8.0 + 2 * b, 10.0 + 2 * b) for b in range(n_bands)], taps=63, sample_rate=128.0,
        channel_names=[f"ch{c}" for c in range(n_channels)], class_names=["a", "b"],
        labels=np.asarray(labels), feature_covariances=covariances,
    )


def random_problem(seed, n_bands=3, trials_per_class=10, n_channels=4, dof=None):
    """Wishart covariances with a class-dependent variance boost on channel 0."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(2).repeat(trials_per_class))
    shape = (n_bands, len(labels))
    features = wishart(rng, shape, n_channels, dof or 3 * n_channels)
    features[:, :, 0, 0] += rng.uniform(0.0, 1.0, n_bands)[:, np.newaxis] * labels
    return covariance_decomposition(features, labels)


def stacked_and_reference(decomp, labels, **kwargs):
    return (
        [s.score for s in score_bands_for_labels(decomp, labels, **kwargs)],
        [s.score for s in reference.score_bands_for_labels(decomp, labels, **kwargs)],
    )


def ecoc_columns(decomp, seed):
    """(labels, seed) of every column of the exhaustive code, as fit_ecoc scores them."""
    code = exhaustive_code(decomp.n_classes)
    return [
        (np.isin(decomp.labels, np.flatnonzero(code[:, j])).astype(np.int64), child_seed(seed, j, 0))
        for j in range(code.shape[1])
    ]


def oracle_like(seed, trials_per_class, n_channels, source_variance, seconds):
    return SynthConfig(
        n_classes=4, trials_per_class=trials_per_class, n_channels=n_channels, sample_rate=512.0,
        trial_duration=seconds, class_sources=[[(9.0, 11.0, source_variance)] for _ in range(4)],
        mixing_seed=child_seed(seed, 0), noise_variance=1.0, noise_seed=child_seed(seed, 1),
    )


class TestStackedEquivalence:
    """The stacked pass gives the per-band reference's scores exactly (difference 0)."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_problems(self, seed):
        n_pairs, folds = [(1, 5), (2, 3), (1, 2), (3, 8)][seed % 4]
        decomp = random_problem(seed, n_channels=2 * n_pairs + seed % 3, trials_per_class=2 * folds + seed)
        stacked, expected = stacked_and_reference(
            decomp, decomp.labels, n_pairs=n_pairs, folds=folds, seed=seed, shrinkage=[1e-3, 0.0, 0.5][seed % 3]
        )
        assert stacked == expected

    def test_ridge_retry_slices(self, monkeypatch):
        # Noise-free axis-aligned sources: every composite is rank 2 of 6 and
        # needs the ridge, mixed here with full-rank bands that must not get it.
        planted = decompose(generate(SynthConfig(
            n_classes=2, trials_per_class=15, n_channels=6, sample_rate=128.0, trial_duration=2.5,
            class_sources=[[(9.0, 11.0, 4.0)], [(9.0, 11.0, 4.0)]], mixing_seed=0, noise_variance=0.0,
            noise_seed=1, mixing_vectors=[[[1, 0, 0, 0, 0, 0]], [[0, 1, 0, 0, 0, 0]]],
        )), make_bank(8.0, 14.0, 2.0, taps=63))
        noisy = random_problem(5, n_bands=3, trials_per_class=15, n_channels=6)
        # Reorder the planted trials so that their labels line up with the noisy problem's.
        order = np.argsort(planted.labels, kind="stable")[np.argsort(np.argsort(noisy.labels, kind="stable"))]
        decomp = covariance_decomposition(
            np.concatenate([planted.feature_covariances[:, order], noisy.feature_covariances])[[0, 3, 1, 4, 2, 5]],
            noisy.labels,
        )
        failures = []
        cholesky = np.linalg.cholesky

        def counting_cholesky(a):
            try:
                return cholesky(a)
            except np.linalg.LinAlgError:
                failures.append(a.shape)
                raise

        monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
        stacked, expected = stacked_and_reference(decomp, decomp.labels, n_pairs=2, folds=5, seed=4)
        # The whole stack fails once, then the 15 planted (band, fold) slices
        # fail alone and are retried with the ridge.
        assert failures.count((6, 5, 6, 6)) == 1 and failures.count((6, 6)) == 15
        assert stacked == expected

    def test_oracle_pairs_and_columns(self):
        decomp = decompose(generate(oracle_like(0, 40, 8, 4.0, 3.0)), make_bank(5.0, 39.0, 2.0))
        pair = decomp.classes(0, 1)
        problems = [(pair.labels, child_seed(0, 2))] + ecoc_columns(decomp, 1)[:2]
        for labels, seed in problems:
            view = pair if labels is pair.labels else decomp
            stacked, expected = stacked_and_reference(view, labels, seed=seed)
            assert stacked == expected

    def test_holdout_round_columns(self):
        # The benchmark's holdout round geometry: 4 x 10 two-second trials, 8 channels.
        decomp = decompose(generate(oracle_like(3, 10, 8, 4.0, 2.0)), make_bank(5.0, 39.0, 2.0))
        for labels, seed in ecoc_columns(decomp, 7):
            stacked, expected = stacked_and_reference(decomp, labels, seed=seed)
            assert stacked == expected

    def test_bool_and_float_labels(self):
        decomp = random_problem(2, trials_per_class=12)
        expected = [s.score for s in reference.score_bands_for_labels(decomp, decomp.labels)]
        for labels in (decomp.labels == 1, decomp.labels.astype(np.float64)):
            assert [s.score for s in score_bands_for_labels(decomp, labels)] == expected

    def test_thirty_two_channels(self):
        decomp = decompose(generate(oracle_like(4, 8, 32, 0.1, 2.0)), make_bank(5.0, 39.0, 2.0))
        for labels, seed in ecoc_columns(decomp, 2)[:3]:
            stacked, expected = stacked_and_reference(decomp, labels, seed=seed)
            assert stacked == expected


class TestClassMeans:
    """CSP's class means, one weighted ``einsum`` over the stack, against
    averages of each covariance divided by its trace.  They sum the same
    terms in another order, so they agree to 1e-12 of the largest entry; the
    time-series reference rounds band trials to float32, so 1e-6 there."""

    def test_fold_means_equal_reference(self):
        for decomp, folds in ((random_problem(6), 5), (random_problem(7, n_channels=6, trials_per_class=9), 3)):
            fold_ids = stratified_folds(decomp.labels, folds, stream(1))
            train = fold_ids[np.newaxis, np.newaxis, :] != np.arange(folds)[np.newaxis, :, np.newaxis]
            train = np.repeat(train, decomp.n_bands, axis=0)
            by_class = np.stack([train & (decomp.labels == 0), train & (decomp.labels == 1)], axis=2)
            means = class_covariances(decomp.feature_covariances, by_class)
            for b in range(decomp.n_bands):
                for k in range(folds):
                    expected = reference.fold_class_means(decomp.feature_covariances[b], decomp.labels, train[b, k])
                    for c in (0, 1):
                        tolerance = 1e-12 * np.abs(expected[c]).max()
                        np.testing.assert_allclose(means[b, k, c], expected[c], rtol=0, atol=tolerance)

    def test_column_means_equal_time_series_reference(self):
        # fit_column's form: one training set, broadcast over the bands.  The reference sums each trial's
        # time series one DFT bin at a time (spectral_reference).
        dataset = generate(oracle_like(5, 6, 4, 4.0, 2.0))
        bank = make_bank(5.0, 39.0, 2.0)
        decomp = decompose(dataset, bank)
        y = (decomp.labels >= 2).astype(np.int64)
        means = class_covariances(decomp.feature_covariances, np.stack([y == 0, y == 1])[np.newaxis, np.newaxis])
        covariances = spectral_reference.band_covariances(dataset.trials, bank.bands, bank.taps)
        for b in range(decomp.n_bands):
            for c in (0, 1):
                expected = np.mean([s / np.trace(s) for s in covariances[b, y == c]], axis=0)
                np.testing.assert_allclose(means[b, 0, c], expected, rtol=0, atol=1e-9 * np.abs(expected).max())


class TestPreservedErrors:
    """Each error of the per-band path keeps its message in the stacked pass."""

    def both_raise(self, decomp, match, **kwargs):
        for score in (score_bands_for_labels, reference.score_bands_for_labels):
            with pytest.raises(ValueError, match=match):
                score(decomp, decomp.labels, **kwargs)

    def test_too_few_trials_for_folds(self):
        self.both_raise(random_problem(0, trials_per_class=4), "class 0 has 4 samples, fewer than 5 folds", folds=5)

    def test_too_many_filter_pairs(self):
        self.both_raise(random_problem(1, n_channels=3), r"cannot keep 2 x 2 filters from 3 channels", n_pairs=2)

    def test_composite_singular_after_ridge(self):
        decomp = random_problem(2)
        # Positive trace, one negative eigenvalue: CSP's class means are indefinite, and the ridge is too small.
        decomp.feature_covariances[1] = np.diag([1.0, 1.0, 1.0, -2.5])
        self.both_raise(decomp, "composite covariance is singular after regularization", n_pairs=1)

    def test_pooled_covariance_singular(self):
        # One scalar covariance for every trial: CSP's class means are equal,
        # and every trial has the same features, each log(1/2).
        decomp = random_problem(3)
        decomp.feature_covariances[2] = np.eye(4)
        self.both_raise(decomp, "pooled covariance is singular after shrinkage", n_pairs=1)

    def test_non_finite_weights(self):
        # A non-finite covariance stops at CSP (see the next test); an infinite ridge reaches the discriminant.
        with np.errstate(invalid="ignore"):
            self.both_raise(random_problem(4), "non-finite discriminant weights", n_pairs=1, shrinkage=np.inf)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_covariances(self, value):
        decomp = random_problem(4)
        decomp.feature_covariances[0, 3, 1, 2] = value
        with np.errstate(invalid="ignore"):
            self.both_raise(decomp, "CSP class covariances are not finite", n_pairs=1)

    def test_zero_total_projected_variance(self):
        # Trial 6 of band 1 gets a covariance of trace 1 that is negative on the
        # span of the kept filters of the fold holding it out.
        decomp = random_problem(5)
        fold_ids = stratified_folds(decomp.labels, 5, stream(0, 1))
        covariances = decomp.feature_covariances[1]
        kept, _ = reference.fit_fold_model(covariances, decomp.labels, fold_ids != fold_ids[6], 1, DEFAULT_SHRINKAGE)
        basis = np.linalg.qr(kept.T)[0]
        covariances[6] = np.eye(4) - 1.5 * basis @ basis.T
        self.both_raise(decomp, "projected signal has zero total variance", n_pairs=1)
