import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fingerbci import (
    Dataset,
    Trial,
    apply_filter,
    band_covariances,
    decompose,
    default_bank,
    design_bandpass,
    log_variance_features,
    make_bank,
)
from fingerbci import dsp
from fingerbci.csp import CspModel, fit_csp_stack

import timeseries_reference as reference
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
        bank = default_bank(512.0)
        assert len(bank.bands) == 17
        assert bank.bands[0] == (5.0, 7.0)
        assert bank.bands[-1] == (37.0, 39.0)
        for low, high in bank.bands:
            assert high - low == pytest.approx(2.0)
        for (_, high), (low, _) in zip(bank.bands, bank.bands[1:]):
            assert low == high

    def test_default_bank_rate_too_low(self):
        with pytest.raises(ValueError):
            default_bank(80.0)

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
        assert all(n == 2048 - 2 * 62 for n in decomp.n_samples)
        for stack in (decomp.csp_covariances, decomp.feature_covariances):
            assert stack.shape == (3, len(dataset.trials), 2, 2)

    def test_default_bank_trim_arithmetic(self):
        t = np.arange(int(512 * 3.0)) / 512.0
        trials = []
        for label in range(2):
            samples = np.sin(2 * np.pi * 10.0 * t)[np.newaxis, :]
            trials.append(Trial(label=label, samples=samples, sample_rate=512.0))
        from fingerbci import Dataset

        dataset = Dataset(sample_rate=512.0, channel_names=["c"], class_names=["a", "b"], trials=trials)
        decomp = decompose(dataset, default_bank(512.0))
        assert decomp.n_bands == 17
        for stack in (decomp.csp_covariances, decomp.feature_covariances):
            assert len(stack) == 17
            assert decomp.n_samples[0] == 1536 - 2 * 256

    def test_wide_band_passthrough(self):
        fir = design_bandpass(1.0, 200.0, 512.0, 257)
        trial = sinusoid_trial(50.0)
        out = apply_filter(trial, fir)
        in_rms = np.sqrt(np.mean(trial.samples.astype(float) ** 2))
        out_rms = np.sqrt(np.mean(out.samples.astype(float) ** 2))
        assert out_rms == pytest.approx(in_rms, rel=0.02)


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
    """The filter bank against the time-series reference in ``timeseries_reference``.

    The reference rounds each band trial to float32, so the stacks can
    differ by that rounding (about 6e-8 relative) and no more.
    """

    bank = make_bank(8.0, 14.0, 2.0, taps=63)

    @pytest.fixture(scope="class")
    def dataset(self):
        return random_dataset(np.random.default_rng(8), trials_per_class=4, n_channels=3, n_samples=1024)

    def test_both_stacks_match_reference(self, dataset):
        decomp = decompose(dataset, self.bank)
        csp, feature = reference.band_covariances(dataset.trials, self.bank.bands, self.bank.taps)
        np.testing.assert_allclose(decomp.csp_covariances, csp, rtol=1e-6, atol=1e-6 * np.abs(csp).max())
        np.testing.assert_allclose(
            decomp.feature_covariances, feature, rtol=1e-6, atol=1e-6 * np.abs(feature).max()
        )

    def test_features_match_reference(self, dataset):
        decomp = decompose(dataset, self.bank)
        filtered = reference.filter_bank(dataset.trials, self.bank.bands, self.bank.taps)
        labels = decomp.labels
        for b, band in enumerate(decomp.bands):
            filters, eigenvalues = fit_csp_stack(
                decomp.csp_covariances[b][labels == 0].mean(axis=0),
                decomp.csp_covariances[b][labels == 1].mean(axis=0),
                n_pairs=1,
            )
            model = CspModel(filters=filters, eigenvalues=eigenvalues, n_pairs=1, band=band)
            np.testing.assert_allclose(
                log_variance_features(decomp.feature_covariances[b], model),
                reference.variance_features(filtered[b], model),
                rtol=0, atol=1e-6,
            )

    def test_single_trial_equals_batch_bit_for_bit(self, dataset):
        model = CspModel(filters=np.eye(3), eigenvalues=np.array([0.6, 0.3, 0.1]), n_pairs=1)
        _, batch, _ = band_covariances(dataset.trials, 100.0, self.bank.bands, self.bank.taps)
        for i, trial in enumerate(dataset.trials):
            _, single, _ = band_covariances([trial], 100.0, self.bank.bands, self.bank.taps)
            assert np.array_equal(single[:, 0], batch[:, i])
            assert np.array_equal(log_variance_features(single[:, 0], model), log_variance_features(batch[:, i], model))

    def test_batch_size_changes_no_bit(self, dataset, monkeypatch):
        whole = band_covariances(dataset.trials, 100.0, self.bank.bands, self.bank.taps)
        monkeypatch.setattr(dsp, "BATCH_SAMPLES", 3 * 3 * 1024)  # three trials per batch
        for split, joined in zip(band_covariances(dataset.trials, 100.0, self.bank.bands, self.bank.taps), whole):
            assert np.array_equal(split, joined)

    def test_cached_kernel_spectra_change_no_bit(self, dataset):
        cached = band_covariances(dataset.trials, 100.0, self.bank.bands, self.bank.taps)
        dsp._kernel_spectrum.cache_clear()
        for fresh, again in zip(band_covariances(dataset.trials, 100.0, self.bank.bands, self.bank.taps), cached):
            assert np.array_equal(fresh, again)
        spectrum = dsp._kernel_spectrum(8.0, 10.0, 100.0, 63, 1024)
        assert spectrum is dsp._kernel_spectrum(8.0, 10.0, 100.0, 63, 1024)
        with pytest.raises(ValueError, match="read-only"):
            spectrum[0] = 0.0

    def test_unequal_lengths(self):
        dataset = unequal_dataset(np.random.default_rng(9))
        decomp = decompose(dataset, self.bank)
        assert list(decomp.n_samples) == [t.n_samples - 2 * 62 for t in dataset.trials]
        csp, feature = reference.band_covariances(dataset.trials, self.bank.bands, self.bank.taps)
        np.testing.assert_allclose(decomp.csp_covariances, csp, rtol=1e-6, atol=1e-6 * np.abs(csp).max())
        np.testing.assert_allclose(
            decomp.feature_covariances, feature, rtol=1e-6, atol=1e-6 * np.abs(feature).max()
        )

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
        assert np.array_equal(view.csp_covariances, direct.csp_covariances)
        assert np.array_equal(view.feature_covariances, direct.feature_covariances)
