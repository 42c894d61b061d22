import numpy as np
import pytest

from fingerbci import Dataset, SynthConfig, Trial, generate
from fingerbci.config import PipelineConfig


@pytest.fixture(scope="session")
def mini_four_class() -> Dataset:
    """Small 4-class dataset with one discriminative 9-11 Hz source per class."""
    config = SynthConfig(
        n_classes=4,
        trials_per_class=8,
        n_channels=4,
        sample_rate=128.0,
        trial_duration=2.0,
        class_sources=[[(9.0, 11.0, 4.0)] for _ in range(4)],
        mixing_seed=21,
        noise_variance=1.0,
        noise_seed=22,
        class_names=["rest", "thumb", "index", "middle"],
    )
    return generate(config)


@pytest.fixture(scope="session")
def mini_pair() -> Dataset:
    """Two well-separated classes, 4 channels, short trials."""
    config = SynthConfig(
        n_classes=2,
        trials_per_class=10,
        n_channels=4,
        sample_rate=128.0,
        trial_duration=2.0,
        class_sources=[[(9.0, 11.0, 4.0)], [(9.0, 11.0, 4.0)]],
        mixing_seed=31,
        noise_variance=1.0,
        noise_seed=32,
    )
    return generate(config)


@pytest.fixture()
def fast_config() -> PipelineConfig:
    """Pipeline settings sized for unit tests: 3 bands, tiny forests."""
    return PipelineConfig(
        band_start=8.0,
        band_stop=14.0,
        band_width=2.0,
        fir_taps=63,
        csp_pairs=1,
        cv_folds=2,
        et_max_features=[1],
        et_min_samples_split=[2],
        et_n_estimators=[10],
        test_fraction=0.25,
        repetitions=1,
        seed=7,
    )


def random_dataset(rng: np.random.Generator, n_classes=2, trials_per_class=3, n_channels=2, n_samples=16) -> Dataset:
    trials = []
    for label in range(n_classes):
        for _ in range(trials_per_class):
            samples = rng.standard_normal((n_channels, n_samples)).astype(np.float32)
            trials.append(Trial(label=label, samples=samples, sample_rate=100.0))
    return Dataset(
        sample_rate=100.0,
        channel_names=[f"ch{i}" for i in range(n_channels)],
        class_names=[f"class_{c}" for c in range(n_classes)],
        trials=trials,
    )


def failing_json_dump(obj, fh, **kwargs):
    # Gets part of the way through a file, then fails like a full disk.
    fh.write("{")
    raise OSError("no space left on device")
