"""Per-trial reference for the synthetic generator.

:func:`fingerbci.synthgen.generate` shapes each source of a run of
consecutive trials in one filter pass.  This module builds the same dataset
the slow way, as the generator once did: one filter pass per (trial,
source), zero-variance sources included, then mixing and sensor noise.
"""

import numpy as np

from fingerbci import Dataset, Trial, design_bandpass
from fingerbci.rng import stream
from fingerbci.synthgen import (
    _SENSOR_STREAM, _SOURCE_STREAM, SynthConfig, _forward_backward, _synth_taps, mixing_vector,
)


def _bandlimited_noise(rng: np.random.Generator, h: np.ndarray, n_samples: int, variance: float) -> np.ndarray:
    # The white and the shaped row rounded to float32, as a stored trial would be.
    white = rng.standard_normal(n_samples + 2 * (len(h) - 1)).astype(np.float32).astype(np.float64)
    shaped = _forward_backward(white[np.newaxis, :], h)[0].astype(np.float32).astype(np.float64)
    if variance == 0.0:
        return np.zeros(n_samples)
    return shaped * (np.sqrt(variance) / shaped.std())


def generate(config: SynthConfig) -> Dataset:
    """The dataset of ``config``, one trial and one source at a time."""
    config.validate()
    n_samples = int(round(config.sample_rate * config.trial_duration))
    taps = _synth_taps(config.sample_rate, n_samples)
    kernels = {}
    for sources in config.class_sources:
        for low, high, _ in sources:
            if (low, high) not in kernels:
                kernels[(low, high)] = design_bandpass(low, high, config.sample_rate, taps)

    trials = []
    trial_index = 0
    for c in range(config.n_classes):
        for _ in range(config.trials_per_class):
            samples = np.zeros((config.n_channels, n_samples))
            for s, (low, high, variance) in enumerate(config.class_sources[c]):
                rng = stream(config.noise_seed, _SOURCE_STREAM, trial_index, s)
                source = _bandlimited_noise(rng, kernels[(low, high)], n_samples, variance)
                samples += mixing_vector(config, c, s)[:, np.newaxis] * source[np.newaxis, :]
            if config.noise_variance > 0:
                rng = stream(config.noise_seed, _SENSOR_STREAM, trial_index)
                samples += np.sqrt(config.noise_variance) * rng.standard_normal(samples.shape)
            trials.append(Trial(label=c, samples=samples, sample_rate=config.sample_rate))
            trial_index += 1

    return Dataset(
        sample_rate=config.sample_rate,
        channel_names=config.channel_names or [f"ch{i:02d}" for i in range(config.n_channels)],
        class_names=config.class_names or [f"class_{c}" for c in range(config.n_classes)],
        trials=trials,
    )
