"""The decoder's decisions on three small fixed workloads, and their pinned record.

``record()`` trains and evaluates on fixed synthetic data and returns, per
workload and ECOC column: the band scores, the selected bands, the mean CV
accuracy of every extra-trees grid point, the tuned parameters and the
forest's node and leaf counts; per workload, the predictions on a fixed test
set (train workloads) or the confusion matrix (the holdout repetition).
Scores and accuracies are ratios of counts, kept to 12 significant digits.

``tests/test_golden.py`` compares ``record()`` with ``tests/golden/decisions.json``
and names the first (workload, column, field) that differs.  A change that
means to move results regenerates the file and says what moved and why::

    PYTHONPATH=src python tests/golden_decisions.py
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from fingerbci import ecoc
from fingerbci.config import PipelineConfig
from fingerbci.crossval import stratified_folds
from fingerbci.dsp import decompose
from fingerbci.evaluation import repeated_holdout
from fingerbci.extratrees import EtParams, fit as et_fit
from fingerbci.rng import child_seed, stream
from fingerbci.synthgen import SynthConfig, generate

from extratrees_reference import table_predict

PATH = Path(__file__).parent / "golden" / "decisions.json"
COLUMN_FIELDS = ("band_scores", "selected_bands", "cv_accuracies", "tuned_params", "nodes", "leaves")


def _synth(n_classes, trials_per_class, n_channels, source_variance, duration, noise_seed) -> SynthConfig:
    return SynthConfig(
        n_classes=n_classes,
        trials_per_class=trials_per_class,
        n_channels=n_channels,
        sample_rate=512.0,
        trial_duration=duration,
        class_sources=[[(9.0, 11.0, source_variance)] for _ in range(n_classes)],
        mixing_seed=child_seed(n_classes, n_channels),
        noise_variance=1.0,
        noise_seed=noise_seed,
    )


def _digits(value: float) -> float:
    return float(f"{value:.12g}")


def _cv_accuracies(features, labels, max_features_grid, min_samples_split_grid, n_estimators_grid, folds, seed):
    """Mean CV accuracy of every grid point, in the order :func:`extratrees.tune` lists them.

    Each fold forest is grown by :func:`extratrees.fit` on the other folds,
    with the fold ids and seeds that ``tune`` documents; ``None`` for a
    one-point grid, which ``tune`` returns without scoring.
    """
    grid = [(mf, ms, ne) for mf in max_features_grid for ms in min_samples_split_grid for ne in n_estimators_grid]
    if len(grid) == 1:
        return None
    fold_ids = stratified_folds(labels, folds, stream(seed, 0))
    accuracies = []
    for mf, ms, ne in grid:
        per_fold = []
        for k in range(folds):
            test = fold_ids == k
            forest = et_fit(features[~test], labels[~test], EtParams(mf, ms, ne, seed=child_seed(seed, 1, mf, k)))
            per_fold.append(float(np.mean(table_predict(forest, features[test]) == labels[test])))
        accuracies.append(_digits(np.mean(per_fold)))
    return accuracies


@contextmanager
def _columns_recorded():
    """Yield a list that gains one decision record per ECOC column fitted.

    Band scores, tuned parameters and the fitted column are read where
    :func:`ecoc.fit_column` makes them.  ``tune`` does not return its CV
    accuracies, so :func:`_cv_accuracies` recomputes them from its inputs.
    """
    columns, pending = [], {}
    score, tune, fit_column = ecoc.score_bands_for_labels, ecoc.et_tune, ecoc.fit_column

    def scored(*args, **kwargs):
        scores = score(*args, **kwargs)
        pending["band_scores"] = [_digits(score) for score in scores.tolist()]
        return scores

    def tuned(features, labels, max_features_grid, min_samples_split_grid, n_estimators_grid, folds, seed):
        params = tune(features, labels, max_features_grid, min_samples_split_grid, n_estimators_grid, folds, seed)
        pending["cv_accuracies"] = _cv_accuracies(
            np.asarray(features), np.asarray(labels), max_features_grid, min_samples_split_grid, n_estimators_grid,
            folds, seed,
        )
        pending["tuned_params"] = [params.max_features, params.min_samples_split, params.n_estimators]
        return params

    def fitted(*args, **kwargs):
        column = fit_column(*args, **kwargs)
        nodes, leaves = len(column.forest.attribute), len(column.forest.counts)
        pending.update(selected_bands=list(column.selected_bands), nodes=nodes, leaves=leaves)
        columns.append({name: pending.pop(name) for name in COLUMN_FIELDS})
        return column

    ecoc.score_bands_for_labels, ecoc.et_tune, ecoc.fit_column = scored, tuned, fitted
    try:
        yield columns
    finally:
        ecoc.score_bands_for_labels, ecoc.et_tune, ecoc.fit_column = score, tune, fit_column


def _train(calibration: SynthConfig, test: SynthConfig, config: PipelineConfig) -> dict:
    dataset = generate(calibration)
    with _columns_recorded() as columns:
        model = ecoc.fit_ecoc(decompose(dataset, config.bank()), ecoc.exhaustive_code(dataset.n_classes), config)
    predictions = ecoc.predict_trials(model, generate(test).trials)
    return {"columns": columns, "predictions": [int(p) for p in predictions]}


def _repetition(dataset: SynthConfig, config: PipelineConfig) -> dict:
    with _columns_recorded() as columns:
        report = repeated_holdout(decompose(generate(dataset), config.bank()), config)
    return {"columns": columns, "confusion": report["confusions"][0]}


def record() -> dict:
    """Decisions of the three workloads, in a fixed order.

    - ``tune``: a 3-class, 8-channel train over the 27-point grid with
      forests a tenth of the default sizes;
    - ``wide``: a 4-class, 32-channel train with one grid point;
    - ``repetition``: one criterion-7-style holdout repetition (4 classes,
      40 trials each, 3 s, 8 channels).

    Source variances are low (0.08 to 0.1 against unit noise), so band
    scores, tuned parameters and predictions are not all at their ceiling.
    """
    tune_grids = {"et_max_features": None, "et_min_samples_split": [2, 5, 10], "et_n_estimators": [5, 10, 20]}
    one_point = {"et_max_features": [2], "et_min_samples_split": [2], "et_n_estimators": [50]}
    return {
        "tune": _train(_synth(3, 10, 8, 0.08, 2.0, 11), _synth(3, 10, 8, 0.08, 2.0, 12),
                       PipelineConfig(**tune_grids, seed=3)),
        "wide": _train(_synth(4, 8, 32, 0.1, 2.0, 21), _synth(4, 5, 32, 0.1, 2.0, 22),
                       PipelineConfig(**one_point, seed=5)),
        "repetition": _repetition(_synth(4, 40, 8, 0.1, 3.0, 31), PipelineConfig(**one_point, repetitions=1, seed=1234)),
    }


def first_difference(expected: dict, actual: dict) -> str | None:
    """The first (workload, column, field) whose decisions differ, or ``None``."""
    if list(expected) != list(actual):
        return f"workloads {list(actual)} != {list(expected)}"
    for name, want in expected.items():
        got = actual[name]
        if len(want["columns"]) != len(got["columns"]):
            return f"workload {name!r}: {len(got['columns'])} columns, expected {len(want['columns'])}"
        for j, (want_column, got_column) in enumerate(zip(want["columns"], got["columns"])):
            for field in COLUMN_FIELDS:
                if want_column[field] != got_column[field]:
                    return (f"workload {name!r}, column {j}, field {field!r}: "
                            f"{got_column[field]} != expected {want_column[field]}")
        for field in sorted((set(want) | set(got)) - {"columns"}):
            if want.get(field) != got.get(field):
                return f"workload {name!r}, field {field!r}: {got.get(field)} != expected {want.get(field)}"
    return None


def _to_json(value, indent: str = "") -> str:
    # Objects one key per line; every list of numbers or of number lists on one line.
    if type(value) is dict:
        inner = indent + "  "
        items = ",\n".join(f"{inner}{json.dumps(k)}: {_to_json(v, inner)}" for k, v in value.items())
        return "{\n" + items + "\n" + indent + "}"
    if type(value) is list and value and type(value[0]) is dict:
        inner = indent + "  "
        return "[\n" + ",\n".join(inner + _to_json(v, inner) for v in value) + "\n" + indent + "]"
    return json.dumps(value)


def load() -> dict:
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    PATH.parent.mkdir(exist_ok=True)
    PATH.write_text(_to_json(record()) + "\n", encoding="utf-8")
    print(f"wrote {PATH}")
