"""Labeled multichannel EEG epochs: in-memory model, disk format, splitting.

A dataset lives on disk as a directory with two files:

``manifest.json``
    ``{"sample_rate": <Hz>, "channel_names": [...], "class_names": [...],
    "trials": [{"label": <int>, "n_samples": <int>, "offset_bytes": <int>}, ...]}``

``trials.bin``
    Concatenated trial payloads.  Each payload is ``channels x n_samples``
    32-bit little-endian floats, channel-major (all samples of channel 0,
    then channel 1, ...).  ``offset_bytes`` points at the payload start and
    payloads are packed back to back with no gaps.

Samples are kept as float32 in memory as well, so save -> load round trips
are bit-exact.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from sys import float_info

import numpy as np

from .rng import stream

MANIFEST_NAME = "manifest.json"
TRIALS_NAME = "trials.bin"

_SAMPLE_DTYPE = np.dtype("<f4")


@dataclass
class Trial:
    """One fixed-length epoch: a channels x time float32 matrix in microvolts."""

    label: int
    samples: np.ndarray
    sample_rate: float

    def __post_init__(self) -> None:
        self.samples = np.ascontiguousarray(self.samples, dtype=np.float32)
        if self.samples.ndim != 2:
            raise ValueError(f"samples must be 2-D (channels x time), got shape {self.samples.shape}")
        if self.samples.shape[0] == 0 or self.samples.shape[1] == 0:
            raise ValueError("trial must have at least one channel and one sample")
        if not np.isfinite(self.samples).all():
            raise ValueError("trial samples contain non-finite values")
        if isinstance(self.label, bool) or not isinstance(self.label, (int, np.integer)) or self.label < 0:
            raise ValueError(f"trial field 'label': {self.label!r} is not an integer >= 0")
        self.label = int(self.label)  # a numpy integer would not serialise to the manifest
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]


@dataclass
class Dataset:
    """Immutable collection of trials sharing channels, rate and class set."""

    sample_rate: float
    channel_names: list[str]
    class_names: list[str]
    trials: list[Trial]

    def __post_init__(self) -> None:
        if not self.trials:
            raise ValueError("dataset must contain at least one trial")
        if not self.class_names:
            raise ValueError("dataset must declare at least one class")
        n_channels = len(self.channel_names)
        if n_channels == 0:
            raise ValueError("dataset must declare at least one channel")
        seen = [0] * len(self.class_names)
        for i, trial in enumerate(self.trials):
            if trial.label >= len(self.class_names):
                raise ValueError(f"trial {i} label {trial.label} out of range for {len(self.class_names)} classes")
            if trial.n_channels != n_channels:
                raise ValueError(f"trial {i} has {trial.n_channels} channels, expected {n_channels}")
            if trial.sample_rate != self.sample_rate:
                raise ValueError(f"trial {i} sample rate {trial.sample_rate} differs from dataset {self.sample_rate}")
            seen[trial.label] += 1
        for c, count in enumerate(seen):
            if count == 0:
                raise ValueError(f"class {c} ({self.class_names[c]}) has no trials")

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def n_channels(self) -> int:
        return len(self.channel_names)

    def labels(self) -> np.ndarray:
        return np.array([t.label for t in self.trials], dtype=np.int64)


@dataclass
class SplitIndices:
    """Disjoint train/test trial indices covering a whole dataset."""

    train: list[int]
    test: list[int]


@contextmanager
def replacing(path: Path, mode: str):
    """Write to a temporary sibling of ``path`` that replaces it when the
    block succeeds and is removed when it raises: a failed write keeps the old file."""
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write ``manifest.json`` + ``trials.bin`` for a dataset.

    Inverse of :func:`load_dataset`; payloads are packed in trial order.
    """
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    records = []
    offset = 0
    # Both files are staged before either replaces its predecessor.
    with replacing(directory / TRIALS_NAME, "wb") as fh, replacing(directory / MANIFEST_NAME, "w") as manifest_fh:
        for trial in dataset.trials:
            payload = np.ascontiguousarray(trial.samples, dtype=_SAMPLE_DTYPE).tobytes()
            records.append({"label": trial.label, "n_samples": trial.n_samples, "offset_bytes": offset})
            fh.write(payload)
            offset += len(payload)
        manifest = {
            "sample_rate": dataset.sample_rate,
            "channel_names": list(dataset.channel_names),
            "class_names": list(dataset.class_names),
            "trials": records,
        }
        json.dump(manifest, manifest_fh, indent=2)
        manifest_fh.write("\n")


def load_dataset(path: str | Path) -> Dataset:
    """Read a dataset directory written by :func:`save_dataset`.

    Raises ``FileNotFoundError`` for missing files and ``ValueError`` naming
    the field of a manifest value of the wrong type or range, or when the
    manifest and the binary disagree on dimensions or payloads overlap.
    """
    directory = Path(path)
    manifest_path = directory / MANIFEST_NAME
    trials_path = directory / TRIALS_NAME
    if not manifest_path.is_file():
        raise FileNotFoundError(f"missing {manifest_path}")
    if not trials_path.is_file():
        raise FileNotFoundError(f"missing {trials_path}")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:  # not UTF-8 or not JSON
            raise ValueError(f"corrupt manifest: {exc}") from exc
    if type(manifest) is not dict:
        raise ValueError("corrupt manifest: not a JSON object")
    sample_rate = float(_field(manifest, "sample_rate", lambda v: type(v) in (int, float) and 0 < v <= float_info.max,
                               "a positive finite number"))
    channel_names = _field(manifest, "channel_names", _is_list_of_strings, "a list of strings")
    class_names = _field(manifest, "class_names", _is_list_of_strings, "a list of strings")
    records = _field(manifest, "trials", lambda v: type(v) is list and all(type(r) is dict for r in v),
                     "a list of objects")
    n_channels = len(channel_names)
    # One read of the whole file; each trial's samples are a view of it.
    size = trials_path.stat().st_size
    values = np.fromfile(trials_path, dtype=_SAMPLE_DTYPE, count=size // _SAMPLE_DTYPE.itemsize)

    trials = []
    expected_offset = 0
    for i, record in enumerate(records):
        label, n_samples, offset = (
            _field(record, name, lambda v: type(v) is int and v >= least, f"an integer >= {least}", f" of trial {i}")
            for name, least in (("label", 0), ("n_samples", 1), ("offset_bytes", 0))
        )
        if offset != expected_offset:
            raise ValueError(f"trial {i} offset {offset} does not match packed layout ({expected_offset})")
        count = n_channels * n_samples
        nbytes = count * _SAMPLE_DTYPE.itemsize
        if offset + nbytes > size:
            raise ValueError(
                f"trial {i} payload runs past end of {TRIALS_NAME} "
                f"({offset + nbytes} > {size} bytes)"
            )
        start = offset // _SAMPLE_DTYPE.itemsize
        samples = values[start : start + count].reshape(n_channels, n_samples)
        trials.append(Trial(label=label, samples=samples, sample_rate=sample_rate))
        expected_offset = offset + nbytes
    if expected_offset != size:
        raise ValueError(f"{TRIALS_NAME} has {size} bytes, manifest accounts for {expected_offset}")

    return Dataset(sample_rate=sample_rate, channel_names=channel_names, class_names=class_names, trials=trials)


def _field(data: dict, name: str, valid, need: str, where: str = ""):
    """``data[name]`` as read, refused by field name unless ``valid`` accepts it."""
    if name not in data:
        raise ValueError(f"manifest lacks field {name!r}{where}")
    if not valid(data[name]):
        raise ValueError(f"manifest field {name!r}{where}: {data[name]!r} is not {need}")
    return data[name]


def _is_list_of_strings(value) -> bool:
    return type(value) is list and all(type(v) is str for v in value)


def stratified_split(labels: np.ndarray, test_fraction: float, seed: int) -> SplitIndices:
    """Seeded stratified holdout split of the trials with these labels.

    Per class present, in increasing label order, the test count is
    round-half-up(class_count * test_fraction) with a minimum of one trial,
    and at least one trial must remain for training.  Identical inputs give
    identical splits.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie strictly between 0 and 1")
    labels = np.asarray(labels)
    rng = stream(seed)
    train: list[int] = []
    test: list[int] = []
    for label in np.unique(labels):
        indices = np.flatnonzero(labels == label)
        if len(indices) < 2:
            raise ValueError(f"class {label} needs at least 2 trials to split, has {len(indices)}")
        n_test = max(1, math.floor(len(indices) * test_fraction + 0.5))
        if n_test >= len(indices):
            raise ValueError(f"class {label}: {len(indices)} trials leave no training trial at fraction {test_fraction}")
        order = rng.permutation(len(indices))
        test.extend(indices[order[:n_test]].tolist())
        train.extend(indices[order[n_test:]].tolist())
    return SplitIndices(train=sorted(train), test=sorted(test))


def subset_classes(dataset: Dataset, class_a: int, class_b: int) -> Dataset:
    """Two-class view of a dataset, relabeled so ``class_a`` -> 0, ``class_b`` -> 1."""
    if class_a == class_b:
        raise ValueError("class_a and class_b must differ")
    for c in (class_a, class_b):
        if not 0 <= c < dataset.n_classes:
            raise ValueError(f"class index {c} out of range")
    trials = []
    for trial in dataset.trials:
        if trial.label == class_a:
            trials.append(Trial(label=0, samples=trial.samples, sample_rate=trial.sample_rate))
        elif trial.label == class_b:
            trials.append(Trial(label=1, samples=trial.samples, sample_rate=trial.sample_rate))
    return Dataset(
        sample_rate=dataset.sample_rate,
        channel_names=list(dataset.channel_names),
        class_names=[dataset.class_names[class_a], dataset.class_names[class_b]],
        trials=trials,
    )
