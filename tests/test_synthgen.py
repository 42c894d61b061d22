import hashlib

import numpy as np
import pytest

import synthgen_reference
from fingerbci import SynthConfig, generate, synthgen
from fingerbci.synthgen import mixing_vector


def base_config(**overrides):
    settings = dict(
        n_classes=2,
        trials_per_class=4,
        n_channels=6,
        sample_rate=128.0,
        trial_duration=2.0,
        class_sources=[[(9.0, 11.0, 4.0)], [(9.0, 11.0, 4.0)]],
        mixing_seed=1,
        noise_variance=1.0,
        noise_seed=2,
    )
    settings.update(overrides)
    return SynthConfig(**settings)


class TestConfigValidation:
    def test_invalid_band_rejected(self):
        config = base_config(class_sources=[[(11.0, 9.0, 1.0)], [(9.0, 11.0, 1.0)]])
        with pytest.raises(ValueError, match="invalid band"):
            generate(config)

    def test_band_above_nyquist_rejected(self):
        config = base_config(class_sources=[[(9.0, 70.0, 1.0)], [(9.0, 11.0, 1.0)]])
        with pytest.raises(ValueError):
            generate(config)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            generate(base_config(n_classes=1, class_sources=[[(9.0, 11.0, 1.0)]]))

    @pytest.mark.parametrize("field, value", [
        ("sample_rate", 10**400), ("n_channels", 10.5 * 10**300), ("noise_seed", "7" * 5000),
        ("class_names", "x" * 5000), ("channel_names", ["c"] * 5000 + [1]),
        ("class_sources", [[(9.0, 11.0, "x" * 5000)], [(9.0, 11.0, 1.0)]]),
        ("mixing_vectors", [[["x" * 5000] * 6], [[1.0] * 6]]), ("n_channels", np.int64(6)),
        ("sample_rate", np.float64(128.0)),
    ])
    def test_refusal_names_its_field_briefly(self, field, value):
        # 10**400 or a 5,000-character string is named by its type and size, not repeated in full.  Fields
        # take the types JSON gives, as PipelineConfig's do, so a numpy scalar is refused too.
        with pytest.raises(ValueError, match=field) as caught:
            base_config(**{field: value}).validate()
        assert len(str(caught.value)) < 200

    def test_from_dict_unknown_key(self):
        with pytest.raises(ValueError, match="unknown synth config keys"):
            SynthConfig.from_dict({"bogus": 1})

    def test_mixing_vector_shape_checked(self):
        config = base_config(mixing_vectors=[[[1.0, 0.0]], [[0.0, 1.0]]])
        with pytest.raises(ValueError, match="length"):
            generate(config)


class TestGenerate:
    def test_deterministic(self):
        first = generate(base_config())
        second = generate(base_config())
        for a, b in zip(first.trials, second.trials):
            assert np.array_equal(a.samples, b.samples)

    def test_noise_seed_changes_data(self):
        first = generate(base_config())
        second = generate(base_config(noise_seed=3))
        assert not np.array_equal(first.trials[0].samples, second.trials[0].samples)

    def test_dataset_structure(self):
        dataset = generate(base_config())
        assert dataset.n_classes == 2
        assert len(dataset.trials) == 8
        assert dataset.trials[0].n_samples == 256
        assert [t.label for t in dataset.trials] == [0] * 4 + [1] * 4
        assert len(dataset.channel_names) == 6

    def test_rank_one_covariance_without_noise(self):
        config = base_config(noise_variance=0.0, trials_per_class=2)
        dataset = generate(config)
        for trial in dataset.trials:
            x = trial.samples.astype(np.float64)
            covariance = x @ x.T / x.shape[1]
            eigenvalues = np.sort(np.linalg.eigvalsh(covariance))[::-1]
            assert eigenvalues[1] < 0.01 * eigenvalues[0]

    def test_planted_variance_scale(self):
        config = base_config(noise_variance=0.0, trials_per_class=2)
        dataset = generate(config)
        # Unit-norm mixing: total signal power equals the source variance.
        power = np.var(dataset.trials[0].samples.astype(np.float64), axis=1).sum()
        assert power == pytest.approx(4.0, rel=0.05)

    def test_band_confinement(self):
        config = base_config(
            noise_variance=0.0,
            trials_per_class=10,
            trial_duration=4.0,
            sample_rate=512.0,
            class_sources=[[(9.0, 11.0, 1.0)], [(9.0, 11.0, 1.0)]],
        )
        dataset = generate(config)
        total = 0.0
        inside = 0.0
        for trial in dataset.trials:
            signal = trial.samples.astype(np.float64).sum(axis=0)  # rank-1: sum recovers the source shape
            spectrum = np.abs(np.fft.rfft(signal)) ** 2
            freqs = np.fft.rfftfreq(len(signal), d=1 / 512.0)
            total += spectrum.sum()
            inside += spectrum[(freqs >= 9.0) & (freqs <= 11.0)].sum()
        assert inside / total >= 0.9

    def test_custom_names_used(self):
        dataset = generate(base_config(class_names=["rest", "move"], channel_names=list("abcdef")))
        assert dataset.class_names == ["rest", "move"]
        assert dataset.channel_names == list("abcdef")


class TestMixing:
    def test_unit_norm_and_deterministic(self):
        config = base_config()
        for c in range(2):
            v1 = mixing_vector(config, c, 0)
            v2 = mixing_vector(config, c, 0)
            assert np.array_equal(v1, v2)
            assert np.linalg.norm(v1) == pytest.approx(1.0, abs=1e-12)

    def test_distinct_across_classes(self):
        config = base_config()
        assert not np.allclose(mixing_vector(config, 0, 0), mixing_vector(config, 1, 0))

    def test_override_normalized(self):
        config = base_config(mixing_vectors=[[[2.0, 0, 0, 0, 0, 0]], [[0, 3.0, 0, 0, 0, 0]]])
        assert np.allclose(mixing_vector(config, 0, 0), [1, 0, 0, 0, 0, 0])
        assert np.allclose(mixing_vector(config, 1, 0), [0, 1, 0, 0, 0, 0])


# One feature of source shaping per config, each kept byte for byte by the chunked pass.
EQUIVALENCE_CASES = {
    "two sources in one class": dict(class_sources=[[(9.0, 11.0, 4.0), (20.0, 24.0, 1.0)], [(9.0, 11.0, 2.0)]]),
    "band shared by two classes": dict(n_classes=3, class_sources=[[(9.0, 11.0, 4.0)], [(13.0, 15.0, 1.0)], [(9.0, 11.0, 0.5)]]),
    "zero-variance source": dict(class_sources=[[(9.0, 11.0, 0.0), (20.0, 24.0, 1.0)], [(9.0, 11.0, 0.0)]]),
    "class with no source": dict(n_classes=3, class_sources=[[], [(9.0, 11.0, 4.0)], []]),
    "noise_variance 0": dict(noise_variance=0.0),
    "trials_per_class 1": dict(trials_per_class=1),
}


class TestChunkedShaping:
    """Shaping a run of trials in one filter pass changes no byte of any trial."""

    # 760 padded samples per trial at 128 Hz, 2 s: chunks of 1, 1, 3 and every trial of a class.
    @pytest.mark.parametrize("chunk_samples", [1, 3, 3 * 760, 1 << 16])
    @pytest.mark.parametrize("case", EQUIVALENCE_CASES)
    def test_equal_to_per_trial_reference(self, monkeypatch, case, chunk_samples):
        monkeypatch.setattr(synthgen, "CHUNK_SAMPLES", chunk_samples)
        config = base_config(**{"trials_per_class": 7, **EQUIVALENCE_CASES[case]})
        expected = synthgen_reference.generate(config)
        actual = generate(config)
        assert [t.label for t in actual.trials] == [t.label for t in expected.trials]
        for a, b in zip(actual.trials, expected.trials, strict=True):
            assert a.samples.tobytes() == b.samples.tobytes()
        assert (actual.class_names, actual.channel_names) == (expected.class_names, expected.channel_names)

    def test_pinned_digest(self):
        # Two sources, a band shared by two classes, a zero-variance source and a class with no source.
        config = base_config(
            n_classes=4, trials_per_class=5, n_channels=4, mixing_seed=11, noise_variance=0.5, noise_seed=12,
            class_sources=[[(9.0, 11.0, 4.0), (20.0, 24.0, 1.0)], [(9.0, 11.0, 2.0)], [(13.0, 15.0, 0.0)], []],
        )
        digest = hashlib.sha256()
        for trial in generate(config).trials:
            digest.update(np.int64(trial.label).tobytes())
            digest.update(trial.samples.tobytes())
        assert digest.hexdigest() == "a761e086339f2fc098ae639c8b77c135ac82c617cb4cc419595f8d6dce0af8c5"

    def test_zero_variance_source_is_not_filtered(self, monkeypatch):
        monkeypatch.setattr(synthgen, "apply_filter", lambda *args: pytest.fail("filtered a zero-variance source"))
        dataset = generate(base_config(class_sources=[[(9.0, 11.0, 0.0)], []], noise_variance=0.0))
        assert all(not trial.samples.any() for trial in dataset.trials)
