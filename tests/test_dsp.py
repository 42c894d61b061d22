import numpy as np
import pytest
import scipy.fft
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

from fingerbci import (
    Dataset,
    Trial,
    apply_filter,
    band_covariances,
    decompose,
    design_bandpass,
    make_bank,
)
from fingerbci import dsp
from fingerbci.csp import class_covariances, fit_csp_stack, kept_filters
from fingerbci.ecoc import _column_features

import spectral_reference as reference
from conftest import random_dataset


def dtft_magnitude(coefficients, freq_hz, sample_rate):
    """Independent oracle: evaluate the filter's DTFT at one frequency."""
    n = np.arange(len(coefficients))
    return abs(np.sum(coefficients * np.exp(-2j * np.pi * freq_hz * n / sample_rate)))


def sinusoid_trial(freq_hz, sample_rate=512.0, seconds=4.0, label=0):
    t = np.arange(int(sample_rate * seconds)) / sample_rate
    return Trial(label=label, samples=np.sin(2 * np.pi * freq_hz * t)[np.newaxis, :], sample_rate=sample_rate)


class TestDesign:
    def test_reference_band_response(self):
        fir = design_bandpass(9.0, 11.0, 512.0, 257)
        assert 0.95 <= dtft_magnitude(fir.coefficients, 10.0, 512.0) <= 1.05
        assert dtft_magnitude(fir.coefficients, 0.0, 512.0) <= 0.01
        assert dtft_magnitude(fir.coefficients, 30.0, 512.0) <= 0.01

    def test_coefficients_exactly_symmetric(self):
        fir = design_bandpass(9.0, 11.0, 512.0, 257)
        assert np.array_equal(fir.coefficients, fir.coefficients[::-1])

    @settings(max_examples=30, deadline=None)
    @given(
        low=st.floats(1.0, 40.0),
        width=st.floats(0.5, 20.0),
        half_taps=st.integers(15, 200),
    )
    def test_symmetry_property(self, low, width, half_taps):
        fir = design_bandpass(low, low + width, 512.0, 2 * half_taps + 1)
        assert np.array_equal(fir.coefficients, fir.coefficients[::-1])

    def test_invalid_edges(self):
        with pytest.raises(ValueError):
            design_bandpass(11.0, 9.0, 512.0, 257)
        with pytest.raises(ValueError):
            design_bandpass(9.0, 9.0, 512.0, 257)
        with pytest.raises(ValueError):
            design_bandpass(9.0, 300.0, 512.0, 257)

    def test_invalid_taps(self):
        with pytest.raises(ValueError):
            design_bandpass(9.0, 11.0, 512.0, 256)
        with pytest.raises(ValueError):
            design_bandpass(9.0, 11.0, 512.0, 15)


class TestApplyFilter:
    def test_in_band_sinusoid_passes(self):
        fir = design_bandpass(9.0, 11.0, 512.0, 257)
        trial = sinusoid_trial(10.0)
        out = apply_filter(trial, fir)
        in_rms = np.sqrt(np.mean(trial.samples.astype(float) ** 2))
        out_rms = np.sqrt(np.mean(out.samples.astype(float) ** 2))
        assert out_rms >= 0.9 * in_rms

    def test_out_of_band_sinusoid_blocked(self):
        fir = design_bandpass(9.0, 11.0, 512.0, 257)
        trial = sinusoid_trial(30.0)
        out = apply_filter(trial, fir)
        in_rms = np.sqrt(np.mean(trial.samples.astype(float) ** 2))
        out_rms = np.sqrt(np.mean(out.samples.astype(float) ** 2))
        assert out_rms <= 0.02 * in_rms

    def test_zero_in_zero_out(self):
        fir = design_bandpass(9.0, 11.0, 512.0, 257)
        trial = Trial(label=3, samples=np.zeros((2, 2048), dtype=np.float32), sample_rate=512.0)
        out = apply_filter(trial, fir)
        assert np.array_equal(out.samples, np.zeros_like(out.samples))
        assert out.label == 3

    def test_output_length_trimmed(self):
        fir = design_bandpass(9.0, 11.0, 512.0, 257)
        trial = sinusoid_trial(10.0, seconds=3.0)
        out = apply_filter(trial, fir)
        assert out.n_samples == trial.n_samples - 2 * (fir.taps - 1)

    def test_too_short_rejected(self):
        fir = design_bandpass(9.0, 11.0, 512.0, 257)
        trial = Trial(label=0, samples=np.zeros((1, 500), dtype=np.float32), sample_rate=512.0)
        with pytest.raises(ValueError, match="too short"):
            apply_filter(trial, fir)

    def test_rate_mismatch_rejected(self):
        fir = design_bandpass(9.0, 11.0, 512.0, 257)
        trial = Trial(label=0, samples=np.zeros((1, 2048), dtype=np.float32), sample_rate=256.0)
        with pytest.raises(ValueError, match="rate"):
            apply_filter(trial, fir)

    def test_energy_confinement_white_noise(self):
        # >= 85% of output power within [low - 1, high + 1] Hz.
        rng = np.random.default_rng(12)
        for low, high in ((5.0, 7.0), (9.0, 11.0), (25.0, 27.0)):
            fir = design_bandpass(low, high, 512.0, 257)
            trial = Trial(label=0, samples=rng.standard_normal((1, 8192)), sample_rate=512.0)
            out = apply_filter(trial, fir).samples[0].astype(np.float64)
            spectrum = np.abs(np.fft.rfft(out)) ** 2
            freqs = np.fft.rfftfreq(len(out), d=1 / 512.0)
            inside = spectrum[(freqs >= low - 1.0) & (freqs <= high + 1.0)].sum()
            assert inside / spectrum.sum() >= 0.85


class TestBanks:
    def test_default_bank_is_seventeen_two_hz_bands(self):
        bank = make_bank(5.0, 39.0, 2.0)
        assert len(bank.bands) == 17
        assert bank.bands[0] == (5.0, 7.0)
        assert bank.bands[-1] == (37.0, 39.0)
        for low, high in bank.bands:
            assert high - low == pytest.approx(2.0)
        for (_, high), (low, _) in zip(bank.bands, bank.bands[1:]):
            assert low == high

    def test_make_bank_misaligned(self):
        with pytest.raises(ValueError):
            make_bank(5.0, 12.0, 2.0)


class TestDecompose:
    def test_structure_and_labels(self):
        dataset = random_dataset(np.random.default_rng(5), n_channels=2, n_samples=2048)
        # 100 Hz dataset: use a low, valid bank
        bank = make_bank(8.0, 14.0, 2.0, taps=63)
        decomp = decompose(dataset, bank)
        assert decomp.n_bands == 3
        assert list(decomp.labels) == [t.label for t in dataset.trials]
        assert decomp.feature_covariances.shape == (3, len(dataset.trials), 2, 2)

    def test_default_bank_trim_arithmetic(self):
        t = np.arange(int(512 * 3.0)) / 512.0
        trials = []
        for label in range(2):
            samples = np.sin(2 * np.pi * 10.0 * t)[np.newaxis, :]
            trials.append(Trial(label=label, samples=samples, sample_rate=512.0))
        from fingerbci import Dataset

        dataset = Dataset(sample_rate=512.0, channel_names=["c"], class_names=["a", "b"], trials=trials)
        decomp = decompose(dataset, make_bank(5.0, 39.0, 2.0))
        assert decomp.n_bands == 17
        assert len(decomp.feature_covariances) == 17

    def test_decomposition_holds_one_stack(self):
        # One float64 covariance per (band, trial): B * N * C^2 * 8 bytes in all.
        dataset = random_dataset(np.random.default_rng(6), trials_per_class=4, n_channels=3, n_samples=1024)
        decomp = decompose(dataset, make_bank(8.0, 14.0, 2.0, taps=63))
        held = [v for v in vars(decomp).values() if isinstance(v, np.ndarray) and v.dtype == np.float64]
        assert sum(v.nbytes for v in held) == decomp.n_bands * decomp.n_trials * 3 * 3 * 8

    def test_subset_and_classes_copy_one_stack(self):
        dataset = random_dataset(np.random.default_rng(7), n_classes=3, trials_per_class=3, n_channels=3, n_samples=512)
        decomp = decompose(dataset, make_bank(8.0, 14.0, 2.0, taps=63))
        for view, picked in ((decomp.subset([4, 0, 7]), [4, 0, 7]), (decomp.classes(2, 0), [0, 1, 2, 6, 7, 8])):
            held = [v for v in vars(view).values() if isinstance(v, np.ndarray) and v.dtype == np.float64]
            assert sum(v.nbytes for v in held) == decomp.n_bands * len(picked) * 3 * 3 * 8
            assert not np.shares_memory(view.feature_covariances, decomp.feature_covariances)
            assert np.array_equal(view.feature_covariances, decomp.feature_covariances[:, picked])

    @pytest.mark.parametrize("value", [5.0, 1e-3, 1e4])
    def test_constant_trial_refused_in_its_first_band(self, value):
        # Mean removal leaves a constant trial all zero, so its centred power
        # and its power in every band are 0: refused in the first band.
        dataset = random_dataset(np.random.default_rng(8), trials_per_class=3, n_channels=3, n_samples=512)
        dataset.trials[4] = Trial(label=1, samples=np.full((3, 512), value), sample_rate=100.0)
        with pytest.raises(ValueError, match=r"^trial 4 is all zero in band \(8.0, 10.0\)$"):
            decompose(dataset, make_bank(8.0, 14.0, 2.0, taps=63))

    @pytest.mark.parametrize("offset", [1e3, 1e6, 1e7])
    def test_offset_trial_served_and_flat_trials_refused(self, offset):
        # The silent-trial rule compares a band's power with the centred power, which an offset does not
        # enter: unit noise on an offset of 1e6 or 1e7 keeps a few percent of it in each 2 Hz band.
        bank, rng = make_bank(8.0, 14.0, 2.0, taps=63), np.random.default_rng(19)
        dataset = random_dataset(rng, trials_per_class=3, n_channels=3, n_samples=512)
        dataset.trials[4] = Trial(label=1, samples=offset + rng.standard_normal((3, 512)), sample_rate=100.0)
        covariances = decompose(dataset, bank).feature_covariances
        rows, row_bands = np.eye(3)[[0, 2, 0, 2, 0, 2]], np.repeat(np.arange(3), 2)
        variances = dsp.row_variances(dataset.trials, 100.0, bank.bands, bank.taps, rows, row_bands)
        expected = np.diagonal(covariances[:, :, [0, 2]][..., [0, 2]], axis1=-2, axis2=-1)
        np.testing.assert_allclose(variances, expected.transpose(1, 0, 2).reshape(6, 6), rtol=1e-9)
        assert np.trace(covariances[:, 4], axis1=-2, axis2=-1).min() > 0.01
        for value in (0.0, offset):
            dataset.trials[4] = Trial(label=1, samples=np.full((3, 512), value), sample_rate=100.0)
            with pytest.raises(ValueError, match=r"^trial 4 is all zero in band \(8.0, 10.0\)$"):
                decompose(dataset, bank)
            with pytest.raises(ValueError, match=r"^trial 4 is all zero in band \(8.0, 10.0\)$"):
                dsp.row_variances(dataset.trials, 100.0, bank.bands, bank.taps, rows, row_bands)

    def test_wide_band_passthrough(self):
        fir = design_bandpass(1.0, 200.0, 512.0, 257)
        trial = sinusoid_trial(50.0)
        out = apply_filter(trial, fir)
        in_rms = np.sqrt(np.mean(trial.samples.astype(float) ** 2))
        out_rms = np.sqrt(np.mean(out.samples.astype(float) ** 2))
        assert out_rms == pytest.approx(in_rms, rel=0.02)


@pytest.mark.parametrize("picked", [[2, 3, 4], [16, 0, 9], [7]])
def test_weight_row_does_not_depend_on_its_band_list(picked):
    # Training caches the weights of all 17 default bands; serving caches the few bands a model reads,
    # at the union of their supports.
    bank = make_bank(5.0, 39.0, 2.0)
    n_fft = scipy.fft.next_fast_len(3 * 512, real=True)

    def every_bin(bands):
        bins, weights = dsp._band_weights(tuple(bands), 512.0, bank.taps, n_fft)
        rows = np.zeros((len(bands), n_fft // 2 + 1))
        rows[:, bins] = weights
        return rows

    full = every_bin(bank.bands)
    assert np.array_equal(every_bin([bank.bands[b] for b in picked]), full[picked])
    for b in picked:
        expected = reference.band_weights(*bank.bands[b], 512.0, bank.taps, n_fft)
        assert np.flatnonzero(full[b]).tolist() == list(expected)
        np.testing.assert_allclose(full[b, list(expected)], list(expected.values()), rtol=1e-9)


def unequal_dataset(rng, lengths=(700, 900, 700, 1100), n_channels=3):
    """100 Hz trials of several lengths with a shared 10 Hz source."""
    trials = []
    for i, n_samples in enumerate(lengths):
        t = np.arange(n_samples) / 100.0
        source = np.sin(2 * np.pi * (9.5 + 0.2 * i) * t)
        samples = rng.standard_normal((n_channels, n_samples)) + np.outer(rng.standard_normal(n_channels), source)
        trials.append(Trial(label=i % 2, samples=samples, sample_rate=100.0))
    return Dataset(sample_rate=100.0, channel_names=[f"ch{c}" for c in range(n_channels)],
                   class_names=["a", "b"], trials=trials)


class TestFilterBankEquivalence:
    """The filter bank against the per-bin reference in ``spectral_reference``.

    Both compute the same sums in float64 in different orders, so they
    agree far within 1e-9 relative.
    """

    bank = make_bank(8.0, 14.0, 2.0, taps=63)

    @pytest.fixture(scope="class")
    def dataset(self):
        return random_dataset(np.random.default_rng(8), trials_per_class=4, n_channels=3, n_samples=1024)

    def test_stack_matches_reference(self, dataset):
        decomp = decompose(dataset, self.bank)
        expected = reference.band_covariances(dataset.trials, self.bank.bands, self.bank.taps)
        np.testing.assert_allclose(decomp.feature_covariances, expected, rtol=1e-9, atol=1e-9 * np.abs(expected).max())

    def test_features_match_reference(self, dataset):
        decomp = decompose(dataset, self.bank)
        means = class_covariances(decomp.feature_covariances, np.stack([decomp.labels == 0, decomp.labels == 1]))
        for b in range(decomp.n_bands):
            kept = kept_filters(fit_csp_stack(means[b, 0, 0], means[b, 0, 1], n_pairs=1)[0], 1)
            variances = reference.row_variances(dataset.trials, self.bank.bands, self.bank.taps, kept, [b, b])
            np.testing.assert_allclose(
                _column_features([b], kept[np.newaxis], decomp.feature_covariances),
                np.log(variances / variances.sum(axis=1, keepdims=True)),
                rtol=0, atol=1e-9,
            )

    def test_single_trial_equals_batch_bit_for_bit(self, dataset):
        bands = range(len(self.bank.bands))
        kept = np.stack([np.eye(3)[[0, 2]]] * len(bands))  # first and last rows of a three-channel CSP with one pair
        batch = band_covariances(dataset.trials, 100.0, self.bank.bands, self.bank.taps)
        features = _column_features(bands, kept, batch)
        for i, trial in enumerate(dataset.trials):
            single = band_covariances([trial], 100.0, self.bank.bands, self.bank.taps)
            assert np.array_equal(single[:, 0], batch[:, i])
            assert np.array_equal(_column_features(bands, kept, single)[0], features[i])

    def test_batch_size_changes_no_bit(self, dataset, monkeypatch):
        whole = band_covariances(dataset.trials, 100.0, self.bank.bands, self.bank.taps)
        monkeypatch.setattr(dsp, "BATCH_SAMPLES", 3 * 3 * 1024)  # three trials per batch
        assert np.array_equal(band_covariances(dataset.trials, 100.0, self.bank.bands, self.bank.taps), whole)

    def test_cached_band_weights_change_no_bit(self, dataset):
        cached = band_covariances(dataset.trials, 100.0, self.bank.bands, self.bank.taps)
        dsp._band_weights.cache_clear()
        dsp._window.cache_clear()
        assert np.array_equal(band_covariances(dataset.trials, 100.0, self.bank.bands, self.bank.taps), cached)
        bands = ((8.0, 10.0), (10.0, 12.0))
        bins, weights = dsp._band_weights(bands, 100.0, 63, 1024)
        assert dsp._band_weights(bands, 100.0, 63, 1024)[1] is weights
        for array in (bins, weights, dsp._window(1024)[1]):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    @pytest.mark.parametrize("picked", [[2], [1, 0], [2, 0, 1], [0, 2]])
    def test_band_subsets_and_orders_change_no_bit(self, dataset, picked):
        whole = band_covariances(dataset.trials, 100.0, self.bank.bands, self.bank.taps)
        bands = [self.bank.bands[b] for b in picked]
        assert np.array_equal(band_covariances(dataset.trials, 100.0, bands, self.bank.taps), whole[picked])

    def test_unequal_lengths(self):
        dataset = unequal_dataset(np.random.default_rng(9))
        decomp = decompose(dataset, self.bank)
        expected = reference.band_covariances(dataset.trials, self.bank.bands, self.bank.taps)
        np.testing.assert_allclose(decomp.feature_covariances, expected, rtol=1e-9, atol=1e-9 * np.abs(expected).max())

    @pytest.mark.parametrize("n_samples", [3 * 63, 3 * 63 - 40])
    def test_short_trial_rejected_like_apply_filter(self, n_samples):
        dataset = random_dataset(np.random.default_rng(10), n_samples=n_samples)
        fir = design_bandpass(8.0, 10.0, 100.0, 63)
        with pytest.raises(ValueError) as expected:
            apply_filter(dataset.trials[0], fir)
        with pytest.raises(ValueError) as raised:
            decompose(dataset, self.bank)
        assert str(raised.value) == str(expected.value)

    def test_pair_view_equals_decomposed_pair_subset(self):
        from fingerbci import subset_classes

        dataset = random_dataset(np.random.default_rng(11), n_classes=3, trials_per_class=3, n_samples=512)
        view = decompose(dataset, self.bank).classes(2, 0)
        direct = decompose(subset_classes(dataset, 2, 0), self.bank)
        assert view.class_names == direct.class_names == ["class_2", "class_0"]
        assert np.array_equal(view.labels, direct.labels)
        assert np.array_equal(view.feature_covariances, direct.feature_covariances)


class TestProjectedVariances:
    """``row_variances`` against ``diag(W S W^T)`` of the covariance bank.

    Both read the same spectra and weights, so they differ only in the
    order of roundings; 1e-9 relative is far above that and far below any
    real difference.
    """

    bank = make_bank(8.0, 14.0, 2.0, taps=63)

    @staticmethod
    def projections(rng, n_channels, rows_per_band):
        return [rng.standard_normal((k, n_channels)) for k in rows_per_band]

    def variances(self, trials, projections):
        """Per band ``(n_trials, k_b)``: the rows of every band stacked into one call."""
        row_bands = np.repeat(np.arange(len(projections)), [len(rows) for rows in projections])
        stacked = dsp.row_variances(trials, 100.0, self.bank.bands, self.bank.taps, np.vstack(projections), row_bands)
        return np.split(stacked, np.cumsum([len(rows) for rows in projections])[:-1], axis=1)

    @pytest.mark.parametrize("rows_per_band", [(1, 2, 3), (4, 5, 9), (2, 4, 8)], ids=["fewer", "more", "mixed"])
    def test_equals_covariance_diagonals(self, rows_per_band):
        # Four channels: every band of (1, 2, 3) has fewer rows than
        # channels, every band of (4, 5, 9) at least as many, and (2, 4, 8)
        # has both kinds.  Every row projects the spectra either way.
        rng = np.random.default_rng(12)
        dataset = unequal_dataset(rng, n_channels=4)
        projections = self.projections(rng, 4, rows_per_band)
        variances = self.variances(dataset.trials, projections)
        feature = band_covariances(dataset.trials, 100.0, self.bank.bands, self.bank.taps)
        for b, rows in enumerate(projections):
            expected = np.einsum("kc,ncd,kd->nk", rows, feature[b], rows)
            assert variances[b].shape == (len(dataset.trials), len(rows))
            np.testing.assert_allclose(variances[b], expected, rtol=1e-9, atol=0)

    def test_equals_reference(self):
        rng = np.random.default_rng(19)
        dataset = unequal_dataset(rng, n_channels=4)
        rows, row_bands = rng.standard_normal((5, 4)), [2, 0, 1, 2, 0]
        expected = reference.row_variances(dataset.trials, self.bank.bands, self.bank.taps, rows, row_bands)
        served = dsp.row_variances(dataset.trials, 100.0, self.bank.bands, self.bank.taps, rows, row_bands)
        np.testing.assert_allclose(served, expected, rtol=1e-9, atol=0)

    # As many rows as channels times bands, and fewer: serving takes the
    # same path for both.
    BOTH_WAYS = [(2, 4, 6), (1, 2, 3)]

    def test_single_trial_equals_batch_bit_for_bit(self):
        rng = np.random.default_rng(13)
        dataset = random_dataset(rng, trials_per_class=4, n_channels=4, n_samples=512)
        for rows_per_band in self.BOTH_WAYS:
            projections = self.projections(rng, 4, rows_per_band)
            batch = self.variances(dataset.trials, projections)
            for i, trial in enumerate(dataset.trials):
                single = self.variances([trial], projections)
                for b in range(len(projections)):
                    assert np.array_equal(single[b][0], batch[b][i])

    def test_batch_size_changes_no_bit(self, monkeypatch):
        rng = np.random.default_rng(14)
        dataset = random_dataset(rng, trials_per_class=4, n_channels=4, n_samples=512)
        for rows_per_band in self.BOTH_WAYS:
            projections = self.projections(rng, 4, rows_per_band)
            monkeypatch.undo()
            whole = self.variances(dataset.trials, projections)
            # Three trials per batch: a batch counts the channels of its trials.
            monkeypatch.setattr(dsp, "BATCH_SAMPLES", 3 * 4 * 512)
            split = self.variances(dataset.trials, projections)
            for joined, parts in zip(whole, split):
                assert np.array_equal(joined, parts)

    def test_row_order_changes_no_bit(self):
        # Rows of one band need not be adjacent: each row's variance depends
        # only on the row and its band.
        rng = np.random.default_rng(17)
        dataset = unequal_dataset(rng, n_channels=4)
        rows, row_bands = rng.standard_normal((9, 4)), np.array([2, 0, 1, 2, 0, 0, 1, 2, 1])
        order = rng.permutation(9)
        stacked = dsp.row_variances(dataset.trials, 100.0, self.bank.bands, self.bank.taps, rows, row_bands)
        shuffled = dsp.row_variances(dataset.trials, 100.0, self.bank.bands, 63, rows[order], row_bands[order])
        assert np.array_equal(shuffled, stacked[:, order])

    @pytest.mark.parametrize("rows", [2, 6])
    def test_all_zero_trial_named_with_its_band(self, rows):
        # Both reductions refuse the same trial in the same band, with fewer
        # rows per band than channels or more.
        dataset = random_dataset(np.random.default_rng(15), n_channels=4, n_samples=512)
        trials = dataset.trials[:2] + [Trial(label=0, samples=np.zeros((4, 512)), sample_rate=100.0)]
        projections = self.projections(np.random.default_rng(16), 4, (rows,) * 3)
        message = r"trial 2 is all zero in band \(8.0, 10.0\)"
        with pytest.raises(ValueError, match=message):
            band_covariances(trials, 100.0, self.bank.bands, self.bank.taps)
        with pytest.raises(ValueError, match=message):
            self.variances(trials, projections)

    @pytest.mark.parametrize("rows", [2, 6])
    @pytest.mark.parametrize("value", [5.0, 1e-3, 1e4])
    def test_constant_trial_named_with_its_first_band(self, rows, value):
        # Serving refuses a constant trial where the filter bank does: in the first band.
        dataset = random_dataset(np.random.default_rng(15), n_channels=4, n_samples=512)
        trials = dataset.trials[:2] + [Trial(label=0, samples=np.full((4, 512), value), sample_rate=100.0)]
        projections = self.projections(np.random.default_rng(16), 4, (rows,) * 3)
        with pytest.raises(ValueError, match=r"^trial 2 is all zero in band \(8.0, 10.0\)$"):
            self.variances(trials, projections)


def direct_causal(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Time-domain causal FIR pass of each row, same length as the row."""
    return np.stack([np.convolve(row, h)[: len(row)] for row in x])


class TestFftPath:
    """The numpy FFT path against references that do not share its code."""

    def test_fast_length_equals_scipy(self):
        lengths = range(1, 20_001)
        assert [dsp._next_fast_len(n) for n in lengths] == [scipy.fft.next_fast_len(n, real=True) for n in lengths]

    # 700 + 62 pads to 768 and 1000 + 256 to 1280; 1025 + 62 = 1087 pads to 1125.
    @pytest.mark.parametrize("n_samples, taps", [(700, 63), (1000, 257), (1025, 63)])
    def test_apply_filter_matches_direct_convolution(self, n_samples, taps):
        rng = np.random.default_rng(n_samples)
        trial = Trial(label=0, samples=rng.standard_normal((3, n_samples)), sample_rate=100.0)
        fir = design_bandpass(8.0, 12.0, 100.0, taps)
        x, h = trial.samples.astype(np.float64), fir.coefficients
        forward = direct_causal(x, h)
        expected = direct_causal(forward[:, ::-1], h)[:, ::-1][:, taps - 1 : n_samples - (taps - 1)]
        scale = np.max(np.abs(expected))
        # The float64 passes agree within 1e-12 of the signal's scale ...
        assert np.max(np.abs(dsp._causal(x, h) - forward)) <= 1e-12 * np.max(np.abs(forward))
        twice = dsp._causal(dsp._causal(x, h)[:, ::-1], h)[:, ::-1][:, taps - 1 : n_samples - (taps - 1)]
        assert np.max(np.abs(twice - expected)) <= 1e-12 * scale
        # ... and the stored float32 output is the reference's rounding, up to one unit in the last place.
        out = apply_filter(trial, fir).samples
        assert out.dtype == np.float32
        np.testing.assert_array_max_ulp(out, expected.astype(np.float32), maxulp=1)

    def test_spectra_are_complex128_for_float32_trials(self):
        # numpy >= 2 transforms float32 in single precision; the bank casts first.  At 513 and 1025 samples
        # the window's ramps end on a sample, where it equals scipy's Tukey window.
        dataset = unequal_dataset(np.random.default_rng(18), lengths=(513, 1025, 513))
        assert all(trial.samples.dtype == np.float32 for trial in dataset.trials)
        bands = ((8.0, 10.0), (10.0, 12.0))
        for batch, power, spectra, weights in dsp._spectra(dataset.trials, 100.0, bands, 63):
            assert spectra.dtype == np.complex128
            samples = np.stack([dataset.trials[i].samples.astype(np.float64) for i in batch])
            n = samples.shape[-1]
            n_fft = scipy.fft.next_fast_len(n, real=True)
            bins, _ = dsp._band_weights(bands, 100.0, 63, n_fft)
            centred = samples - samples.mean(axis=-1, keepdims=True)
            expected = scipy.fft.rfft(centred * scipy.signal.windows.tukey(n, dsp.TAPER), n_fft)[..., bins]
            expected *= np.sqrt(2 / (n_fft * n))
            np.testing.assert_allclose(spectra, expected, rtol=0, atol=1e-12 * np.abs(expected).max())
            np.testing.assert_allclose(power, np.einsum("ict,ict->i", centred, centred) / n, rtol=1e-12)
