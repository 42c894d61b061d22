import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fingerbci
from fingerbci import cli
from fingerbci.cli import main
from fingerbci import load_dataset

SYNTH_CONFIG = {
    "n_classes": 4,
    "trials_per_class": 6,
    "n_channels": 4,
    "sample_rate": 128.0,
    "trial_duration": 2.0,
    "class_sources": [[[9.0, 11.0, 4.0]], [[9.0, 11.0, 4.0]], [[9.0, 11.0, 4.0]], [[9.0, 11.0, 4.0]]],
    "mixing_seed": 51,
    "noise_variance": 1.0,
    "noise_seed": 52,
    "class_names": ["rest", "thumb", "index", "middle"],
}

PIPELINE_CONFIG = {
    "band_start": 8.0,
    "band_stop": 14.0,
    "band_width": 2.0,
    "fir_taps": 63,
    "csp_pairs": 1,
    "cv_folds": 2,
    "et_max_features": [1],
    "et_min_samples_split": [2],
    "et_n_estimators": [10],
    "test_fraction": 0.25,
    "repetitions": 1,
    "seed": 5,
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    synth_config = root / "synth.json"
    synth_config.write_text(json.dumps(SYNTH_CONFIG))
    pipeline_config = root / "pipeline.json"
    pipeline_config.write_text(json.dumps(PIPELINE_CONFIG))
    dataset_dir = root / "dataset"
    assert main(["synth", "--config", str(synth_config), "--out", str(dataset_dir)]) == 0
    return root


class TestSynth:
    def test_writes_dataset_directory(self, workspace):
        dataset = load_dataset(workspace / "dataset")
        assert len(dataset.trials) == 24
        assert dataset.class_names == ["rest", "thumb", "index", "middle"]

    def test_deterministic_bytes(self, workspace, tmp_path):
        config = workspace / "synth.json"
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "again")]) == 0
        original = (workspace / "dataset" / "trials.bin").read_bytes()
        repeated = (tmp_path / "again" / "trials.bin").read_bytes()
        assert original == repeated

    def test_bad_band_fails(self, tmp_path, capsys):
        config = dict(SYNTH_CONFIG)
        config["class_sources"] = [[[11.0, 9.0, 1.0]]] * 4
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert main(["synth", "--config", str(path), "--out", str(tmp_path / "d")]) == 1
        assert "error:" in capsys.readouterr().err


# Malformed synth config values, each refused by field name.
SYNTH_REJECTED = {
    "fractional n_channels": ({"n_channels": 2.5}, "n_channels must be an integer, got 2.5"),
    "trials_per_class a string": ({"trials_per_class": "3"}, "trials_per_class must be an integer, got '3'"),
    "n_classes true": ({"n_classes": True}, "n_classes must be an integer"),
    "seed null": ({"noise_seed": None}, "noise_seed must be an integer"),
    "negative seed": ({"mixing_seed": -1}, "mixing_seed and noise_seed must be >= 0"),
    "sample rate a string": ({"sample_rate": "128"}, "sample_rate must be a finite number"),
    "infinite duration": ({"trial_duration": float("inf")}, "trial_duration must be a finite number"),
    "noise variance null": ({"noise_variance": None}, "noise_variance must be a finite number"),
    "source with two entries": ({"class_sources": [[[9.0, 11.0]]] * 4}, "class_sources: class 0 .*triples"),
    "source band a string": ({"class_sources": [[["9", 11.0, 4.0]]] * 4}, "class_sources: class 0 .*triples"),
    "sources not a list": ({"class_sources": "9-11"}, "class_sources must list 4 classes"),
    "class names a string": ({"class_names": "abcd"}, "class_names must be null or a list of strings"),
    "channel name a number": ({"channel_names": [1, 2, 3, 4]}, "channel_names must be null or a list of strings"),
    "repeated channel name": ({"channel_names": ["c", "c", "d", "e"]}, "channel_names must not repeat a name"),
    "repeated class name": ({"class_names": ["a", "a", "b", "c"]}, "class_names must not repeat a name"),
    "mixing vector of strings": ({"mixing_vectors": [[["1", "0", "0", "0"]]] * 4}, "mixing_vectors: class 0"),
    # json.dumps writes 10**400 out in digits, an integer beyond float64's range.
    "integer sample rate beyond float64": ({"sample_rate": 10**400}, "sample_rate must be a finite number"),
    "integer source variance beyond float64": ({"class_sources": [[[9.0, 11.0, 10**400]]] * 4}, "class_sources: class 0"),
}


@pytest.mark.parametrize("case", list(SYNTH_REJECTED))
def test_synth_rejects_malformed_values_by_name(case, tmp_path, capsys):
    fields, message = SYNTH_REJECTED[case]
    path = tmp_path / "synth.json"
    path.write_text(json.dumps({**SYNTH_CONFIG, **fields}))
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "d")]) == 1
    assert re.search(message, capsys.readouterr().err)
    assert not (tmp_path / "d").exists()


class TestScoreBands:
    def test_schema_and_planted_band(self, workspace):
        out = workspace / "scores.json"
        code = main([
            "score-bands", "--dataset", str(workspace / "dataset"),
            "--classes", "rest,thumb", "--config", str(workspace / "pipeline.json"),
            "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["pair"] == [0, 1]
        assert len(payload["scores"]) == 3
        assert all(set(entry) == {"band", "score"} for entry in payload["scores"])
        assert isinstance(payload["threshold"], float)
        assert payload["selected"]
        selected_bands = [tuple(payload["scores"][i]["band"]) for i in payload["selected"]]
        assert (8.0, 10.0) in selected_bands or (10.0, 12.0) in selected_bands
        # plot-ready CSV alongside
        with open(out.with_suffix(".csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["band_low_hz", "band_high_hz", "score", "selected"]
        assert len(rows) == 4

    def test_csv_out_refused_before_any_work(self, workspace, tmp_path, capsys, monkeypatch):
        # The CSV beside the JSON would take the same path and overwrite it.
        monkeypatch.setattr(cli, "load_dataset", lambda *args: pytest.fail("read the dataset"))
        out = tmp_path / "scores.csv"
        code = main([
            "score-bands", "--dataset", str(workspace / "dataset"),
            "--classes", "rest,thumb", "--config", str(workspace / "pipeline.json"), "--out", str(out),
        ])
        assert code == 1
        assert f"--out {out} is also the path of the CSV written beside it" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_beyond_float64_refused_by_name(self, workspace, tmp_path, capsys):
        config = tmp_path / "pipeline.json"
        config.write_text(json.dumps({**PIPELINE_CONFIG, "band_width": 10**400}))
        assert f'"band_width": 1{"0" * 400},' in config.read_text()
        code = main([
            "score-bands", "--dataset", str(workspace / "dataset"),
            "--classes", "rest,thumb", "--config", str(config), "--out", str(tmp_path / "scores.json"),
        ])
        assert code == 1
        assert "band_width must be a finite number" in capsys.readouterr().err

    def test_unknown_class_fails(self, workspace, capsys):
        code = main([
            "score-bands", "--dataset", str(workspace / "dataset"),
            "--classes", "rest,pinky", "--out", str(workspace / "nope.json"),
        ])
        assert code == 1
        assert "unknown class" in capsys.readouterr().err


class TestTrain:
    def test_multiclass_bundle_has_seven_columns(self, workspace):
        model_dir = workspace / "model"
        code = main([
            "train", "--dataset", str(workspace / "dataset"),
            "--config", str(workspace / "pipeline.json"), "--out", str(model_dir),
        ])
        assert code == 0
        bundle = json.loads((model_dir / "model.json").read_text())
        assert bundle["classes"] == [0, 1, 2, 3]
        assert len(bundle["code"]) == 4
        assert len(bundle["columns"]) == 7

    def test_binary_pair_bundle(self, workspace):
        model_dir = workspace / "model_pair"
        code = main([
            "train", "--dataset", str(workspace / "dataset"),
            "--config", str(workspace / "pipeline.json"),
            "--classes", "rest,thumb", "--out", str(model_dir),
        ])
        assert code == 0
        bundle = json.loads((model_dir / "model.json").read_text())
        assert bundle["code"] == [[0], [1]]
        assert bundle["classes"] == [0, 1]
        assert bundle["class_names"] == SYNTH_CONFIG["class_names"]
        assert len(bundle["columns"]) == 1

    def test_two_class_multiclass_rejected(self, tmp_path, capsys):
        config = dict(SYNTH_CONFIG)
        config.update(n_classes=2, class_sources=SYNTH_CONFIG["class_sources"][:2], class_names=["rest", "thumb"])
        synth_path = tmp_path / "two.json"
        synth_path.write_text(json.dumps(config))
        assert main(["synth", "--config", str(synth_path), "--out", str(tmp_path / "two")]) == 0
        pipeline_path = tmp_path / "p.json"
        pipeline_path.write_text(json.dumps(PIPELINE_CONFIG))
        code = main([
            "train", "--dataset", str(tmp_path / "two"),
            "--config", str(pipeline_path), "--out", str(tmp_path / "m"),
        ])
        assert code == 1
        assert "--classes" in capsys.readouterr().err


@pytest.mark.parametrize("command, extra, message", [
    ("train", [], "code column 0 has 4 trials on side 1 (classes class_0), fewer than cv_folds 5"),
    ("train", ["--classes", "class_2,class_1"], "code column 0 has 4 trials on side 0 (classes class_2), fewer than cv_folds 5"),
    ("evaluate", [], "code column 0 has 3 trials on side 1 (classes class_0), fewer than cv_folds 5"),
    ("score-bands", ["--classes", "class_2,class_1"], "code column 0 has 4 trials on side 0 (classes class_2), fewer than cv_folds 5"),
])
def test_small_pools_named_by_column_and_class(tmp_path, capsys, monkeypatch, command, extra, message):
    # Three classes of four trials: every side of every column has 4 (or 8) trials, and 3 after a holdout split.
    synth = {**SYNTH_CONFIG, "n_classes": 3, "trials_per_class": 4, "class_sources": SYNTH_CONFIG["class_sources"][:3]}
    del synth["class_names"]
    (tmp_path / "synth.json").write_text(json.dumps(synth))
    (tmp_path / "pipeline.json").write_text(json.dumps({**PIPELINE_CONFIG, "cv_folds": 5}))
    assert main(["synth", "--config", str(tmp_path / "synth.json"), "--out", str(tmp_path / "data")]) == 0
    if command == "score-bands":  # refused before the filter bank runs
        monkeypatch.setattr(cli, "decompose", lambda *args: pytest.fail("decomposed a pair with a small pool"))
    code = main([
        command, "--dataset", str(tmp_path / "data"), "--config", str(tmp_path / "pipeline.json"),
        "--out", str(tmp_path / "out"), *extra,
    ])
    assert code == 1
    assert message in capsys.readouterr().err


class TestEvaluate:
    def test_report_files_and_determinism(self, workspace, tmp_path):
        out_one = tmp_path / "report_one"
        out_two = tmp_path / "report_two"
        for out in (out_one, out_two):
            code = main([
                "evaluate", "--dataset", str(workspace / "dataset"),
                "--config", str(workspace / "pipeline.json"), "--out", str(out),
            ])
            assert code == 0
        payload = json.loads((out_one / "report.json").read_text())
        assert set(payload["multiclass"]) >= {
            "accuracies", "accuracy_mean", "accuracy_sd", "accuracy_max", "kappas", "kappa_mean",
        }
        assert len(payload["rest_vs_finger"]) == 3
        assert len(payload["pairwise"]) == 3
        assert payload["config"]["seed"] == 5
        assert (out_one / "rest_vs_finger.csv").exists()
        assert (out_one / "pairwise.csv").exists()
        with open(out_one / "kappa.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["repetition", "kappa"]
        assert len(rows) == 2  # header + 1 repetition
        assert (out_one / "report.json").read_bytes() == (out_two / "report.json").read_bytes()


def _train(workspace, name: str, *extra: str):
    model_dir = workspace / name
    assert main([
        "train", "--dataset", str(workspace / "dataset"),
        "--config", str(workspace / "pipeline.json"), "--out", str(model_dir), *extra,
    ]) == 0
    return model_dir


@pytest.fixture(scope="module")
def model(workspace):
    return _train(workspace, "predict_model")


@pytest.fixture(scope="module")
def pair_model(workspace):
    return _train(workspace, "predict_pair_model", "--classes", "thumb,middle")


def _predict(model_dir, dataset_dir, out) -> list[list[str]]:
    assert main(["predict", "--model", str(model_dir), "--dataset", str(dataset_dir), "--out", str(out)]) == 0
    with open(out) as fh:
        return list(csv.reader(fh))


class TestPredict:
    def test_row_per_trial_and_accuracy(self, workspace, model, tmp_path):
        rows = _predict(model, workspace / "dataset", tmp_path / "predictions.csv")
        assert rows[0] == ["trial", "predicted_index", "predicted_name"]
        assert len(rows) == 25  # header + 24 trials
        dataset = load_dataset(workspace / "dataset")
        predicted = np.array([int(r[1]) for r in rows[1:]])
        assert np.mean(predicted == dataset.labels()) >= 0.6

    def test_pair_model_predicts_its_classes(self, workspace, pair_model, tmp_path):
        # Code rows 0 and 1 map to thumb (1) and middle (3) in the full class list.
        rows = _predict(pair_model, workspace / "dataset", tmp_path / "predictions.csv")
        assert len(rows) == 25
        names = SYNTH_CONFIG["class_names"]
        assert {int(r[1]) for r in rows[1:]} <= {1, 3}
        assert all(r[2] == names[int(r[1])] for r in rows[1:])

    def test_channel_mismatch_fails(self, workspace, model, tmp_path, capsys):
        config = dict(SYNTH_CONFIG)
        config["n_channels"] = 3
        path = tmp_path / "threech.json"
        path.write_text(json.dumps(config))
        assert main(["synth", "--config", str(path), "--out", str(tmp_path / "threech")]) == 0
        code = main([
            "predict", "--model", str(model),
            "--dataset", str(tmp_path / "threech"), "--out", str(tmp_path / "p.csv"),
        ])
        assert code == 1
        assert "channels" in capsys.readouterr().err

    @pytest.mark.parametrize("change", ["reversed montage", "renamed channel", "sample rate"])
    def test_montage_mismatch_fails(self, workspace, model, tmp_path, capsys, change):
        from fingerbci import Dataset, Trial, save_dataset

        dataset = load_dataset(workspace / "dataset")
        names, rate, rows = list(dataset.channel_names), dataset.sample_rate, slice(None)
        if change == "reversed montage":
            names, rows = names[::-1], slice(None, None, -1)
        elif change == "renamed channel":
            names[0] = "cz"
        else:
            rate = 2 * rate
        altered = Dataset(
            sample_rate=rate, channel_names=names, class_names=dataset.class_names,
            trials=[Trial(label=t.label, samples=t.samples[rows], sample_rate=rate) for t in dataset.trials],
        )
        save_dataset(altered, tmp_path / "altered")
        code = main([
            "predict", "--model", str(model),
            "--dataset", str(tmp_path / "altered"), "--out", str(tmp_path / "p.csv"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert str(names) in err and str(dataset.channel_names) in err and f"{rate} Hz" in err
        assert not (tmp_path / "p.csv").exists()


# The synth and pipeline configs of CI's installed console-script step.
TINY_SYNTH = {
    "n_classes": 3, "trials_per_class": 8, "n_channels": 4, "sample_rate": 128.0, "trial_duration": 2.0,
    "class_sources": [[[9.0, 11.0, 4.0]]] * 3, "mixing_seed": 1, "noise_variance": 1.0, "noise_seed": 2,
}
TINY_PIPELINE = {
    "band_start": 8.0, "band_stop": 14.0, "band_width": 2.0, "fir_taps": 63, "csp_pairs": 1, "cv_folds": 2,
    "et_max_features": [1], "et_min_samples_split": [2], "et_n_estimators": [10],
}
NO_SCIPY_RUN = """
import sys
sys.modules["scipy"] = None  # any import of scipy or one of its subpackages now fails
import fingerbci, fingerbci.cli
loaded = [name for name, module in sys.modules.items() if name.split(".")[0] == "scipy" and module is not None]
assert not loaded, loaded
work = sys.argv[1]
for argv in (
    ["synth", "--config", f"{work}/synth.json", "--out", f"{work}/data"],
    ["train", "--dataset", f"{work}/data", "--config", f"{work}/pipeline.json", "--out", f"{work}/model"],
    ["predict", "--model", f"{work}/model", "--dataset", f"{work}/data", "--out", f"{work}/p.csv"],
):
    assert fingerbci.cli.main(argv) == 0, argv
"""


def test_runtime_needs_no_scipy(tmp_path):
    # numpy is the only runtime dependency: the CLI imports and runs with scipy unimportable.
    (tmp_path / "synth.json").write_text(json.dumps(TINY_SYNTH))
    (tmp_path / "pipeline.json").write_text(json.dumps(TINY_PIPELINE))
    src = str(Path(fingerbci.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN, str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    with open(tmp_path / "p.csv") as fh:
        assert len(list(csv.reader(fh))) == 25  # a header and one row per trial
