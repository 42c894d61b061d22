"""Pipeline configuration shared by the CLI commands and the harness."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .bandselect import DEFAULT_SHRINKAGE
from .dsp import DEFAULT_TAPS, FilterBank, make_bank
from .trialstore import describe, is_finite_number, is_list_of


@dataclass(frozen=True)
class PipelineConfig:
    """All tunables of the decoding pipeline, checked on construction.

    The band grid defaults to seventeen 2 Hz bands from 5 to 39 Hz; the
    extra-trees grids are searched by cross-validation per binary task
    (``et_max_features`` of ``None`` means {1, ceil(sqrt(d)), d} for the
    task's feature dimension d).  ``dataclasses.replace`` checks the new
    values too.
    """

    band_start: float = 5.0
    band_stop: float = 39.0
    band_width: float = 2.0
    fir_taps: int = DEFAULT_TAPS
    csp_pairs: int = 2
    lda_shrinkage: float = DEFAULT_SHRINKAGE
    cv_folds: int = 5
    et_max_features: list[int] | None = None
    et_min_samples_split: list[int] = field(default_factory=lambda: [2, 5, 10])
    et_n_estimators: list[int] = field(default_factory=lambda: [50, 100, 200])
    test_fraction: float = 0.2
    repetitions: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def bank(self) -> FilterBank:
        """The filter bank of the band grid."""
        return make_bank(self.band_start, self.band_stop, self.band_width, self.fir_taps)

    def validate(self) -> None:
        for name in ("csp_pairs", "cv_folds", "repetitions", "seed"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {describe(value)}")
        for name in ("band_start", "band_stop", "band_width", "lda_shrinkage", "test_fraction"):
            value = getattr(self, name)
            if not is_finite_number(value):
                raise ValueError(f"{name} must be a finite number, got {describe(value)}")
        for name in ("et_max_features", "et_min_samples_split", "et_n_estimators"):
            values = getattr(self, name)
            if values is not None and not is_list_of(values, int):
                raise ValueError(f"{name} must be a list of integers, got {describe(values)}")
        try:
            self.bank()
        except ValueError as exc:
            raise ValueError(f"band grid (band_start, band_stop, band_width, fir_taps): {exc}") from None
        if self.csp_pairs < 1:
            raise ValueError("csp_pairs must be >= 1")
        if self.lda_shrinkage < 0:
            raise ValueError("lda_shrinkage must be >= 0")
        if self.cv_folds < 2:
            raise ValueError("cv_folds must be >= 2")
        if self.et_max_features is not None and not self.et_max_features:
            raise ValueError("et_max_features must be null or a non-empty list")
        if not self.et_min_samples_split or min(self.et_min_samples_split) < 2:
            raise ValueError("et_min_samples_split must be a non-empty list of values >= 2")
        if not self.et_n_estimators or min(self.et_n_estimators) < 1:
            raise ValueError("et_n_estimators must be a non-empty list of values >= 1")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must lie strictly between 0 and 1")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path: str | Path) -> "PipelineConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
