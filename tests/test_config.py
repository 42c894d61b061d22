import json
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from fingerbci import PipelineConfig, make_bank

# Values whose refusal must name the field without repeating the value in full.
LONG_VALUES = [
    ("band_width", 10**400), ("band_width", 10**300), ("band_start", "5" * 5000), ("fir_taps", 10**400),
    ("csp_pairs", -(10**400)), ("seed", "x" * 5000), ("et_n_estimators", [0.5] * 5000), ("et_max_features", "x" * 5000),
    ("seed", np.array(5)), ("band_width", np.array("x" * 5000)),  # 0-d arrays have __len__, and len() refuses them
]


@pytest.mark.parametrize("field, value", LONG_VALUES)
def test_refusal_names_its_field_briefly(field, value):
    with pytest.raises(ValueError, match=field) as caught:
        PipelineConfig(**{field: value})
    assert len(str(caught.value)) < 200


def test_band_grid_of_more_bands_than_taps_refused():
    # 100,000 bands of 2 Hz were listed before any check; a stop of 1e300 would never have returned.
    fields = r"band grid \(band_start, band_stop, band_width, fir_taps\)"
    with pytest.raises(ValueError, match=fields + ".*100000 bands of 2.0 Hz, more than 257 taps"):
        PipelineConfig(band_stop=2e5 + 5)
    assert len(PipelineConfig(band_start=1.0, band_stop=32.5, band_width=0.5, fir_taps=63).bank().bands) == 63
    with pytest.raises(ValueError, match="band grid.*64 bands of 0.5 Hz, more than 63 taps"):
        PipelineConfig(band_start=1.0, band_stop=33.0, band_width=0.5, fir_taps=63)


# Settings that construction refuses, each with a fragment of its message.
REJECTED = {
    "zero band width": ({"band_width": 0.0}, "band grid"),
    "stop below start": ({"band_start": 20.0, "band_stop": 10.0}, "band grid"),
    "band at zero": ({"band_start": 0.0}, "band grid"),
    "width not dividing the range": ({"band_width": 3.0}, "band grid.*integer number of 3.0 Hz bands"),
    "even taps": ({"fir_taps": 256}, "band grid.*taps"),
    "too few taps": ({"fir_taps": 29}, "band grid.*taps"),
    "fractional taps": ({"fir_taps": 63.5}, "band grid.*taps"),
    "no CSP pairs": ({"csp_pairs": 0}, "csp_pairs"),
    "negative shrinkage": ({"lda_shrinkage": -0.1}, "lda_shrinkage"),
    "one fold": ({"cv_folds": 1}, "cv_folds"),
    "empty max_features grid": ({"et_max_features": []}, "et_max_features"),
    "empty min_samples_split grid": ({"et_min_samples_split": []}, "et_min_samples_split"),
    "min_samples_split below 2": ({"et_min_samples_split": [1, 5]}, "et_min_samples_split"),
    "empty n_estimators grid": ({"et_n_estimators": []}, "et_n_estimators"),
    "no trees": ({"et_n_estimators": [0, 50]}, "et_n_estimators"),
    "zero test fraction": ({"test_fraction": 0.0}, "test_fraction"),
    "whole test fraction": ({"test_fraction": 1.0}, "test_fraction"),
    "no repetitions": ({"repetitions": 0}, "repetitions"),
    "negative seed": ({"seed": -1}, "seed"),
    "fractional csp_pairs": ({"csp_pairs": 1.5}, "csp_pairs"),
    "fractional cv_folds": ({"cv_folds": 2.5}, "cv_folds"),
    "fractional repetitions": ({"repetitions": 2.5}, "repetitions"),
    "fractional seed": ({"seed": 1.5}, "seed"),
    "fractional n_estimators": ({"et_n_estimators": [10.5]}, "et_n_estimators"),
    "fractional min_samples_split": ({"et_min_samples_split": [2.5]}, "et_min_samples_split"),
    "fractional max_features": ({"et_max_features": [1, 2.5]}, "et_max_features"),
    "grid not a list": ({"et_n_estimators": 10}, "et_n_estimators"),
    "NaN shrinkage": ({"lda_shrinkage": float("nan")}, "lda_shrinkage must be a finite number"),
    "infinite shrinkage": ({"lda_shrinkage": float("inf")}, "lda_shrinkage must be a finite number"),
    "shrinkage a string": ({"lda_shrinkage": "0.1"}, "lda_shrinkage must be a finite number"),
    "shrinkage null": ({"lda_shrinkage": None}, "lda_shrinkage must be a finite number"),
    "test fraction a string": ({"test_fraction": "0.2"}, "test_fraction must be a finite number"),
    "test fraction null": ({"test_fraction": None}, "test_fraction must be a finite number"),
    "band start a string": ({"band_start": "5"}, "band_start must be a finite number"),
    "band start true": ({"band_start": True}, "band_start must be a finite number"),
    "band stop null": ({"band_stop": None}, "band_stop must be a finite number"),
    "infinite band stop": ({"band_stop": float("inf")}, "band_stop must be a finite number"),
    "band width a string": ({"band_width": "2"}, "band_width must be a finite number"),
    "NaN band width": ({"band_width": float("nan")}, "band_width must be a finite number"),
    "integer band width beyond float64": ({"band_width": 10**400}, "band_width must be a finite number"),
}


@pytest.mark.parametrize("case", list(REJECTED))
def test_rejected_at_construction(case):
    fields, message = REJECTED[case]
    with pytest.raises(ValueError, match=message):
        PipelineConfig(**fields)


@pytest.mark.parametrize("case", list(REJECTED))
def test_rejected_by_replace_and_from_dict(case):
    fields, message = REJECTED[case]
    with pytest.raises(ValueError, match=message):
        replace(PipelineConfig(), **fields)
    with pytest.raises(ValueError, match=message):
        PipelineConfig.from_dict({**PipelineConfig().to_dict(), **fields})


def test_replace_rechecks_repetitions():
    with pytest.raises(ValueError, match="repetitions"):
        replace(PipelineConfig(), repetitions=0)


def test_fields_cannot_be_set_past_the_checks():
    with pytest.raises(FrozenInstanceError):
        PipelineConfig().seed = -1


@pytest.mark.parametrize("fields", [{}, {"band_start": 8.0, "band_stop": 14.0, "band_width": 2.0, "fir_taps": 63}])
def test_bank_is_make_bank_of_the_fields(fields):
    config = PipelineConfig(**fields)
    assert config.bank() == make_bank(config.band_start, config.band_stop, config.band_width, config.fir_taps)


def test_default_bank_has_seventeen_bands():
    bank = PipelineConfig().bank()
    assert bank.taps == 257
    assert bank.bands[0] == (5.0, 7.0) and bank.bands[-1] == (37.0, 39.0) and len(bank.bands) == 17


def test_dict_and_json_round_trip(tmp_path):
    config = PipelineConfig(
        band_start=8.0, band_stop=14.0, fir_taps=63, et_max_features=[1, 3], et_n_estimators=[10], seed=5
    )
    assert PipelineConfig.from_dict(config.to_dict()) == config
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps(config.to_dict()))
    assert PipelineConfig.from_json(path) == config


def test_unknown_keys_rejected():
    with pytest.raises(ValueError, match=r"unknown config keys: \['band_stopp', 'trees'\]"):
        PipelineConfig.from_dict({"band_stopp": 39.0, "trees": 5, "seed": 1})


def test_missing_keys_take_defaults():
    assert PipelineConfig.from_dict({"seed": 3}) == PipelineConfig(seed=3)
