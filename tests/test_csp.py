import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fingerbci import SynthConfig, Trial, generate
from fingerbci.csp import fit_csp_stack
from fingerbci.ecoc import _column_features

from timeseries_reference import (
    centred_covariance,
    class_covariance,
    extract_features,
    fit_csp,
    trial_covariance,
    variance_features,
)


def make_trial(values, label=0):
    return Trial(label=label, samples=np.array(values, dtype=np.float32), sample_rate=100.0)


@pytest.fixture(scope="module")
def planted_two_class():
    """8-channel two-class data with axis-aligned sources plus noise."""
    config = SynthConfig(
        n_classes=2,
        trials_per_class=40,
        n_channels=8,
        sample_rate=512.0,
        trial_duration=2.0,
        class_sources=[[(9.0, 11.0, 4.0)], [(9.0, 11.0, 4.0)]],
        mixing_seed=0,
        noise_variance=1.0,
        noise_seed=5,
        mixing_vectors=[[[1, 0, 0, 0, 0, 0, 0, 0]], [[0, 1, 0, 0, 0, 0, 0, 0]]],
    )
    dataset = generate(config)
    class_a = [t for t in dataset.trials if t.label == 0]
    class_b = [t for t in dataset.trials if t.label == 1]
    return class_a, class_b


class TestTrialCovariance:
    def test_orthogonal_equal_power_rows(self):
        trial = make_trial([[1, 1, 1, 1], [1, -1, 1, -1]])
        cov = trial_covariance(trial)
        assert np.allclose(cov, np.diag([0.5, 0.5]), atol=1e-12)

    def test_unit_trace(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            trial = make_trial(rng.standard_normal((3, 50)))
            assert abs(np.trace(trial_covariance(trial)) - 1.0) < 1e-12

    def test_duplicated_channel_singular(self):
        row = [1.0, 2.0, -1.0, 0.5]
        cov = trial_covariance(make_trial([row, row]))
        assert np.linalg.matrix_rank(cov) == 1

    def test_zero_trial_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            trial_covariance(make_trial(np.zeros((2, 8))))


class TestClassCovariance:
    def test_single_trial(self):
        trial = make_trial([[1, 2, 3], [0, -1, 1]])
        assert np.allclose(class_covariance([trial]), trial_covariance(trial))

    def test_mean_of_axis_aligned(self):
        a = make_trial([[1, -1], [0, 0]])  # -> diag(1, 0)
        b = make_trial([[0, 0], [1, -1]])  # -> diag(0, 1)
        assert np.allclose(class_covariance([a, b]), np.diag([0.5, 0.5]), atol=1e-15)

    def test_unit_trace_preserved(self):
        rng = np.random.default_rng(1)
        trials = [make_trial(rng.standard_normal((4, 30))) for _ in range(6)]
        assert abs(np.trace(class_covariance(trials)) - 1.0) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            class_covariance([])


class TestFitCsp:
    def test_closed_form_two_by_two(self):
        # Variance ratios 2:1 / 1:2 on exactly representable values.
        class_a = [make_trial([[1, 1, 1, 1], [1, -1, 0, 0]])]
        class_b = [make_trial([[1, -1, 0, 0], [1, 1, 1, 1]])]
        filters, eigenvalues = fit_csp(class_a, class_b, n_pairs=1)
        assert abs(eigenvalues[0] - 2 / 3) < 1e-9
        assert abs(eigenvalues[1] - 1 / 3) < 1e-9
        # Filters align with the coordinate axes up to sign/scale.
        for row, axis in zip(filters, np.eye(2)):
            direction = np.abs(row) / np.linalg.norm(row)
            assert np.allclose(direction, axis, atol=1e-9)

    def test_identical_classes_half_eigenvalues(self):
        rng = np.random.default_rng(2)
        trials = [make_trial(rng.standard_normal((4, 64))) for _ in range(8)]
        _, eigenvalues = fit_csp(trials, trials, n_pairs=1)
        assert np.allclose(eigenvalues, 0.5, atol=1e-10)

    def test_composite_diagonalization_residual(self, planted_two_class):
        class_a, class_b = planted_two_class
        cov_a = class_covariance(class_a)
        cov_b = class_covariance(class_b)
        filters, _ = fit_csp(class_a, class_b, n_pairs=2)
        identity_residual = filters @ (cov_a + cov_b) @ filters.T - np.eye(8)
        assert np.linalg.norm(identity_residual) <= 1e-8

    def test_simultaneous_diagonalization(self, planted_two_class):
        class_a, class_b = planted_two_class
        cov_a = class_covariance(class_a)
        cov_b = class_covariance(class_b)
        filters, _ = fit_csp(class_a, class_b, n_pairs=2)
        for cov in (cov_a, cov_b):
            rotated = filters @ cov @ filters.T
            off_diagonal = rotated - np.diag(np.diag(rotated))
            assert np.linalg.norm(off_diagonal) <= 1e-6

    def test_eigenvalue_pairing(self, planted_two_class):
        class_a, class_b = planted_two_class
        _, eigenvalues_ab = fit_csp(class_a, class_b, n_pairs=2)
        _, eigenvalues_ba = fit_csp(class_b, class_a, n_pairs=2)
        paired = eigenvalues_ab + eigenvalues_ba[::-1]
        assert np.allclose(paired, 1.0, atol=1e-8)

    def test_trial_permutation_invariance(self, planted_two_class):
        class_a, class_b = planted_two_class
        filters, eigenvalues = fit_csp(class_a, class_b, n_pairs=2)
        permuted_filters, permuted_eigenvalues = fit_csp(class_a[::-1], class_b[::-1], n_pairs=2)
        assert np.allclose(eigenvalues, permuted_eigenvalues, atol=1e-12)
        assert np.allclose(filters, permuted_filters, atol=1e-9)

    def test_too_many_pairs(self):
        class_a = [make_trial([[1, 1], [1, -1]])]
        with pytest.raises(ValueError, match="filters"):
            fit_csp(class_a, class_a, n_pairs=2)


class TestFeatures:
    # The kept rows of a two-channel CSP with one pair: both filters.
    identity = np.eye(2)

    def test_known_variance_ratio(self):
        trial = make_trial([[3, -3, 3, -3], [1, -1, 1, -1]])  # variances 9 and 1
        features = extract_features(trial, self.identity)
        assert np.allclose(features, [np.log(0.9), np.log(0.1)], atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2**31))
    def test_scale_invariance(self, scale, seed):
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal((2, 32))
        base = extract_features(make_trial(samples), self.identity)
        scaled = extract_features(make_trial(samples * np.float32(scale)), self.identity)
        assert np.allclose(base, scaled, atol=1e-6)

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(3)
        trial = make_trial(rng.standard_normal((2, 40)))
        flipped = self.identity * np.array([[-1.0], [1.0]])
        assert np.allclose(extract_features(trial, self.identity), extract_features(trial, flipped), atol=1e-12)

    def test_features_sum_exp_to_one(self):
        rng = np.random.default_rng(4)
        trial = make_trial(rng.standard_normal((2, 64)))
        features = extract_features(trial, self.identity)
        assert abs(np.exp(features).sum() - 1.0) < 1e-9

    def test_zero_variance_rejected(self):
        trial = make_trial(np.zeros((2, 16)))
        with pytest.raises(ValueError, match="zero total variance"):
            extract_features(trial, self.identity)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(6)
        trials = [make_trial(rng.standard_normal((2, 32))) for _ in range(5)]
        covariances = np.stack([centred_covariance(t) for t in trials])
        batch = _column_features([0], self.identity[np.newaxis], covariances[np.newaxis])
        singles = np.array([extract_features(t, self.identity) for t in trials])
        assert np.allclose(batch, singles, atol=1e-12)
        assert np.allclose(variance_features(trials, self.identity), singles, atol=1e-12)


class TestFitCspStack:
    """The stacked Cholesky-whitened solver against scipy's generalised eigensolver, slice by slice."""

    def test_matches_scipy_reference(self):
        from bandselect_reference import fit_csp_from_covariances

        rng = np.random.default_rng(11)
        n_channels, pairs = 6, []
        for slice_index in range(12):
            # Odd slices live on 3 channels only: their composite fails
            # Cholesky and takes the ridge, the others must not.
            active = n_channels if slice_index % 2 == 0 else 3
            x = rng.standard_normal((2, active, 4 * n_channels))
            covs = np.zeros((2, n_channels, n_channels))
            covs[:, :active, :active] = x @ x.swapaxes(-1, -2) / x.shape[-1]
            pairs.append(covs / np.trace(covs, axis1=-2, axis2=-1)[:, np.newaxis, np.newaxis])
        pairs = np.array(pairs)
        filters, eigenvalues = fit_csp_stack(pairs[:, 0], pairs[:, 1], n_pairs=2)
        for i, (cov_a, cov_b) in enumerate(pairs):
            expected, expected_eigenvalues = fit_csp_from_covariances(cov_a, cov_b, n_pairs=2)
            np.testing.assert_allclose(eigenvalues[i], expected_eigenvalues, rtol=0, atol=1e-12)
            # Eigenvectors of the ridge slices' repeated zero eigenvalue are
            # any basis of the idle channels; their norms 1 / sqrt(ridge) are not.
            np.testing.assert_allclose(
                np.sort(np.linalg.norm(filters[i], axis=1)), np.sort(np.linalg.norm(expected, axis=1)),
                rtol=1e-9,
            )
            if i % 2 == 0:
                scale = np.abs(expected).max()
                np.testing.assert_allclose(filters[i], expected, rtol=0, atol=1e-10 * scale)
