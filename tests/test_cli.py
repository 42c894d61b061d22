import csv
import json

import numpy as np
import pytest

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
        assert bundle["mode"] == "multiclass"
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
        assert bundle["mode"] == "binary"
        assert bundle["pair"] == [0, 1]
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


class TestPredict:
    def test_row_per_trial_and_accuracy(self, workspace, tmp_path):
        out = tmp_path / "predictions.csv"
        code = main([
            "predict", "--model", str(workspace / "model"),
            "--dataset", str(workspace / "dataset"), "--out", str(out),
        ])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["trial", "predicted_index", "predicted_name"]
        assert len(rows) == 25  # header + 24 trials
        dataset = load_dataset(workspace / "dataset")
        predicted = np.array([int(r[1]) for r in rows[1:]])
        assert np.mean(predicted == dataset.labels()) >= 0.6

    def test_channel_mismatch_fails(self, workspace, tmp_path, capsys):
        config = dict(SYNTH_CONFIG)
        config["n_channels"] = 3
        path = tmp_path / "threech.json"
        path.write_text(json.dumps(config))
        assert main(["synth", "--config", str(path), "--out", str(tmp_path / "threech")]) == 0
        code = main([
            "predict", "--model", str(workspace / "model"),
            "--dataset", str(tmp_path / "threech"), "--out", str(tmp_path / "p.csv"),
        ])
        assert code == 1
        assert "channels" in capsys.readouterr().err

    @pytest.mark.parametrize("change", ["reversed montage", "renamed channel", "sample rate"])
    def test_montage_mismatch_fails(self, workspace, tmp_path, capsys, change):
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
            "predict", "--model", str(workspace / "model"),
            "--dataset", str(tmp_path / "altered"), "--out", str(tmp_path / "p.csv"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert str(names) in err and str(dataset.channel_names) in err and f"{rate} Hz" in err
        assert not (tmp_path / "p.csv").exists()
