"""Synthetic EEG with planted class-specific band-limited spatial sources.

Each trial of class ``c`` is a sum of narrowband Gaussian sources projected
through fixed unit-norm mixing vectors, plus white sensor noise:

    samples = sum_s  a[c, s] * x[c, s](t)  +  noise

Mixing vectors are constant per (class, source) across trials while source
realizations are fresh per trial, which is exactly the spatial-variance
structure a CSP decoder is built to find.  Everything is deterministic
given the two seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import apply_filter, design_bandpass
from .rng import stream
from .trialstore import Dataset, Trial, describe, is_finite_number, is_list_of

# Path tags distinguishing the noise-seed streams.
_SOURCE_STREAM = 0
_SENSOR_STREAM = 1

_MIN_TAPS = 31

# Padded white-noise samples (trials x length) of one source per filter pass:
# enough to amortise the pass's overhead, few enough for ~1 MB temporaries.
CHUNK_SAMPLES = 1 << 16


@dataclass
class SynthConfig:
    """Generator settings.

    ``class_sources[c]`` lists ``(band_low_hz, band_high_hz, variance)``
    triples for class ``c``.  ``mixing_vectors``, when given, overrides the
    random unit-norm mixing with explicit per-(class, source) vectors (they
    are normalized); this is how tests plant axis-aligned sources.
    """

    n_classes: int
    trials_per_class: int
    n_channels: int
    sample_rate: float
    trial_duration: float
    class_sources: list[list[tuple[float, float, float]]]
    mixing_seed: int
    noise_variance: float
    noise_seed: int
    class_names: list[str] | None = None
    channel_names: list[str] | None = None
    mixing_vectors: list[list[list[float]]] | None = None

    def validate(self) -> None:
        """Raise ``ValueError`` naming the first field of the wrong type or range."""
        for name in ("n_classes", "trials_per_class", "n_channels", "mixing_seed", "noise_seed"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {describe(getattr(self, name))}")
        for name in ("sample_rate", "trial_duration", "noise_variance"):
            if not is_finite_number(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {describe(getattr(self, name))}")
        for name in ("class_names", "channel_names"):
            names = getattr(self, name)
            if names is not None and not is_list_of(names, str):
                raise ValueError(f"{name} must be null or a list of strings, got {describe(names)}")
            if names is not None and len(set(names)) < len(names):
                raise ValueError(f"{name} must not repeat a name, got {describe(names)}")
        if self.n_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.trials_per_class < 1:
            raise ValueError("need at least 1 trial per class")
        if self.n_channels < 1:
            raise ValueError("need at least 1 channel")
        if self.mixing_seed < 0 or self.noise_seed < 0:
            raise ValueError("mixing_seed and noise_seed must be >= 0")
        if self.sample_rate <= 0 or self.trial_duration <= 0:
            raise ValueError("sample_rate and trial_duration must be positive")
        if self.noise_variance < 0:
            raise ValueError("noise_variance must be >= 0")
        if not isinstance(self.class_sources, list) or len(self.class_sources) != self.n_classes:
            raise ValueError(f"class_sources must list {self.n_classes} classes")
        for c, sources in enumerate(self.class_sources):
            if not (isinstance(sources, (list, tuple)) and all(_numbers(s) and len(s) == 3 for s in sources)):
                raise ValueError(f"class_sources: class {c} has {describe(sources)}, not (low, high, variance) triples")
            for low, high, variance in sources:
                if not 0.0 < low < high < self.sample_rate / 2.0:
                    raise ValueError(f"class {c}: invalid band ({low}, {high}) at {self.sample_rate} Hz")
                if variance < 0:
                    raise ValueError(f"class {c}: negative source variance")
        if self.class_names is not None and len(self.class_names) != self.n_classes:
            raise ValueError("class_names length must equal n_classes")
        if self.channel_names is not None and len(self.channel_names) != self.n_channels:
            raise ValueError("channel_names length must equal n_channels")
        if self.mixing_vectors is not None:
            if not isinstance(self.mixing_vectors, list) or len(self.mixing_vectors) != self.n_classes:
                raise ValueError("mixing_vectors must list every class")
            for c, vectors in enumerate(self.mixing_vectors):
                if not (isinstance(vectors, (list, tuple)) and all(map(_numbers, vectors))):
                    raise ValueError(f"mixing_vectors: class {c} has {describe(vectors)}, not lists of finite numbers")
                if len(vectors) != len(self.class_sources[c]):
                    raise ValueError(f"class {c}: one mixing vector per source required")
                for v in vectors:
                    if len(v) != self.n_channels:
                        raise ValueError(f"class {c}: mixing vector length != n_channels")
                    if not np.linalg.norm(v) > 0:
                        raise ValueError(f"class {c}: zero mixing vector")

    @classmethod
    def from_dict(cls, data: dict) -> "SynthConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown synth config keys: {sorted(unknown)}")
        cfg = cls(**data)
        cfg.validate()
        cfg.class_sources = [[(float(l), float(h), float(v)) for l, h, v in sources] for sources in cfg.class_sources]
        return cfg


def _numbers(values) -> bool:
    return isinstance(values, (list, tuple)) and all(map(is_finite_number, values))


def _synth_taps(sample_rate: float, n_samples: int) -> int:
    # Long kernel (about 2 s) for steep band edges, capped at n_samples - 3 so
    # the padded noise segment passes apply_filter's length > 3 * taps check.
    taps = min(int(2 * sample_rate), n_samples - 3)
    if taps % 2 == 0:
        taps -= 1
    if taps < _MIN_TAPS:
        raise ValueError("trial_duration too short to synthesize band-limited sources")
    return taps


def mixing_vector(config: SynthConfig, class_index: int, source_index: int) -> np.ndarray:
    """Unit-norm mixing vector for one (class, source) pair."""
    if config.mixing_vectors is not None:
        v = np.asarray(config.mixing_vectors[class_index][source_index], dtype=np.float64)
    else:
        v = stream(config.mixing_seed, class_index, source_index).standard_normal(config.n_channels)
    return v / np.linalg.norm(v)


def _bandlimited_noise(noise_seed: int, trials: range, s: int, fir, n_samples: int, variance: float) -> np.ndarray:
    """Source ``s`` of ``trials``, one row per trial, shaped in one filter pass."""
    if variance == 0.0:
        return np.zeros((len(trials), n_samples))
    draws = [stream(noise_seed, _SOURCE_STREAM, t, s).standard_normal(n_samples + 2 * (fir.taps - 1)) for t in trials]
    white = Trial(label=0, samples=np.stack(draws), sample_rate=fir.sample_rate)  # float32, like a stored trial
    shaped = apply_filter(white, fir).samples.astype(np.float64)
    return shaped * (np.sqrt(variance) / shaped.std(axis=1, keepdims=True))


def generate(config: SynthConfig) -> Dataset:
    """Build the synthetic dataset described by ``config``."""
    config.validate()
    n_samples = int(round(config.sample_rate * config.trial_duration))
    taps = _synth_taps(config.sample_rate, n_samples)

    bands = {(low, high) for sources in config.class_sources for low, high, _ in sources}
    filters = {band: design_bandpass(*band, config.sample_rate, taps) for band in bands}

    chunk = max(1, CHUNK_SAMPLES // (n_samples + 2 * (taps - 1)))
    trials = []
    for c in range(config.n_classes):
        mixing = [mixing_vector(config, c, s) for s in range(len(config.class_sources[c]))]
        end = (c + 1) * config.trials_per_class
        for start in range(c * config.trials_per_class, end, chunk):
            indices = range(start, min(start + chunk, end))
            sources = [
                _bandlimited_noise(config.noise_seed, indices, s, filters[(low, high)], n_samples, variance)
                for s, (low, high, variance) in enumerate(config.class_sources[c])
            ]
            for row, trial_index in enumerate(indices):
                samples = np.zeros((config.n_channels, n_samples))
                for s, source in enumerate(sources):
                    samples += mixing[s][:, np.newaxis] * source[row][np.newaxis, :]
                if config.noise_variance > 0:
                    rng = stream(config.noise_seed, _SENSOR_STREAM, trial_index)
                    samples += np.sqrt(config.noise_variance) * rng.standard_normal(samples.shape)
                trials.append(Trial(label=c, samples=samples, sample_rate=config.sample_rate))

    class_names = config.class_names or [f"class_{c}" for c in range(config.n_classes)]
    channel_names = config.channel_names or [f"ch{i:02d}" for i in range(config.n_channels)]
    return Dataset(
        sample_rate=config.sample_rate,
        channel_names=list(channel_names),
        class_names=list(class_names),
        trials=trials,
    )
