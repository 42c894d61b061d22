"""Workloads of the fingerbci benchmark and the client session that runs them.

Load is a closed loop: one client in one process issues the next command or
prediction only after the previous one returns.  The program receives only
the generated dataset directories; the client talks to it through the CLI
(``evaluate``, ``train``) and the bundle API (``load_model``,
``save_model``, ``predict_ecoc``, ``predict_trials``).  Every call goes
through a module attribute (``ecoc.load_model``), so the traced run sees it.

A session first trains the deployed decoder from one fixed calibration, then
runs rounds until its time is up.  Each round runs the workload's command on
a fresh dataset drawn from the workload seed and the round number, then
serves test trials with the deployed decoder for a while.  Many short
rounds, each timing the command and the serving side by side, let a run
report medians over its whole length.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from fingerbci import cli, ecoc, synthgen, trialstore

CLASS_NAMES = ["rest", "thumb", "index", "middle"]

# Criterion-7 extra-trees grids: one grid point, so tuning returns at once.
CRITERION_7_GRIDS = {"et_max_features": [2], "et_min_samples_split": [2], "et_n_estimators": [50]}
# The default grid's 27 points (3 x 3 x 3, 5 CV folds each) with forests a
# tenth of the default sizes, so that one tuned train takes about two seconds.
TUNE_GRIDS = {"et_max_features": None, "et_min_samples_split": [2, 5, 10], "et_n_estimators": [5, 10, 20]}
SMOKE_GRIDS = {"et_max_features": [1, 2], "et_min_samples_split": [2], "et_n_estimators": [5, 10]}

CALIBRATION_SEED = 0  # the deployed decoder is the same for every workload seed
SETUPS = 5  # set-ups per run; setup_s is their median
WARMUP_PREDICTIONS = 5  # untimed single-trial calls before latency sampling
MIN_ROUNDS = 4  # rounds per run at least
ROUND_TRIALS = 50  # single-trial predictions per round, at least
ROUND_SERVE_SECONDS = 1.0  # time spent on single-trial predictions per round, at least
TRIAL_SECONDS = 2.0  # the shortest trial the 257-tap filter bank accepts, rounded up


@dataclass(frozen=True)
class Data:
    """One synthetic recording: a montage of 9-11 Hz class sources in noise."""

    n_classes: int
    trials_per_class: int
    n_channels: int
    source_variance: float
    grids: dict  # PipelineConfig extra-trees grids for the decoder trained on it


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "evaluate" or "train": the command that command_p90_s times
    rounds: Data  # the command's input, drawn afresh each round
    deployed: Data  # calibration of the deployed decoder that serves test trials
    test_trials_per_class: int
    kappa_floor: float = 0.1  # a kappa at or below this counts as a failed check


# Oracle geometry of acceptance criteria 6 and 7: 8 channels, source variance 4.
ORACLE_EVALUATE = Data(n_classes=4, trials_per_class=10, n_channels=8, source_variance=4.0, grids=CRITERION_7_GRIDS)
ORACLE_TUNE = Data(n_classes=3, trials_per_class=10, n_channels=8, source_variance=4.0, grids=TUNE_GRIDS)
# A wide montage at low SNR: noisy data grows deep trees, and C = 32 shows
# the C^2 covariance and C^3 CSP costs.
WIDE_NOISY = Data(n_classes=4, trials_per_class=8, n_channels=32, source_variance=0.1, grids=CRITERION_7_GRIDS)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("holdout", "evaluate", rounds=ORACLE_EVALUATE, deployed=WIDE_NOISY, test_trials_per_class=25),
        Workload("tune", "train", rounds=ORACLE_TUNE, deployed=ORACLE_TUNE, test_trials_per_class=134),
    )
}


def get(name: str, smoke: bool = False) -> Workload:
    """The workload, or its smoke size: every code path in seconds."""
    workload = WORKLOADS[name]
    if not smoke:
        return workload

    def tiny(data: Data) -> Data:
        grids = SMOKE_GRIDS if data.grids is TUNE_GRIDS else data.grids
        return replace(data, trials_per_class=8, n_channels=4, grids=grids)

    return replace(
        workload, rounds=tiny(workload.rounds), deployed=tiny(workload.deployed), test_trials_per_class=5,
        kappa_floor=-1.0,
    )


def derive_seed(seed: int, *path: int) -> int:
    """Input seeds come from the workload seed alone, not from program code."""
    return int(np.random.SeedSequence((seed, *path)).generate_state(1)[0])


def synth_config(data: Data, trials_per_class: int, mixing_seed: int, noise_seed: int) -> synthgen.SynthConfig:
    return synthgen.SynthConfig(
        n_classes=data.n_classes,
        trials_per_class=trials_per_class,
        n_channels=data.n_channels,
        sample_rate=512.0,
        trial_duration=TRIAL_SECONDS,
        class_sources=[[(9.0, 11.0, data.source_variance)] for _ in range(data.n_classes)],
        mixing_seed=mixing_seed,
        noise_variance=1.0,
        noise_seed=noise_seed,
        class_names=CLASS_NAMES[: data.n_classes],
    )


def set_up(workload: Workload, work: Path):
    """Synthesize, save and load the calibration and test sets.

    The calibration (the deployed decoder's training data) is the same for
    every seed, and so is the test set it is scored on; the workload seed
    draws the command input of each round (see :func:`round_dataset`) and
    the serving order.  Returns the calibration directory and the loaded
    test set.
    """
    data = workload.deployed
    montage = derive_seed(CALIBRATION_SEED, 0)
    calibration = synth_config(data, data.trials_per_class, montage, derive_seed(CALIBRATION_SEED, 1))
    test = synth_config(data, workload.test_trials_per_class, montage, derive_seed(CALIBRATION_SEED, 2))
    calibration_dir, test_dir = work / "calibration", work / "test"
    trialstore.save_dataset(synthgen.generate(calibration), calibration_dir)
    trialstore.save_dataset(synthgen.generate(test), test_dir)
    trialstore.load_dataset(calibration_dir)
    return calibration_dir, trialstore.load_dataset(test_dir)


def round_dataset(workload: Workload, seed: int, index: int, directory: Path) -> None:
    """The command's input in round ``index``: a new montage and new noise."""
    data = workload.rounds
    config = synth_config(data, data.trials_per_class, derive_seed(seed, 4, index), derive_seed(seed, 5, index))
    trialstore.save_dataset(synthgen.generate(config), directory)


class Checks:
    """Correctness checks; each one is an attempted operation."""

    def __init__(self) -> None:
        self.results: dict[str, bool] = {}

    def add(self, name: str, passed: bool) -> None:
        passed = bool(passed) and self.results.get(name, True)
        self.results[name] = passed
        if not passed:
            print(f"check failed: {name}", file=sys.stderr)

    @property
    def failed(self) -> int:
        return sum(not ok for ok in self.results.values())


@dataclass
class Outcome:
    metrics: dict[str, float]
    context: dict
    checks: Checks
    operations: int
    fingerprint: tuple  # outputs that tracing must not change
    latencies: list[float]  # every single-trial latency, in seconds, for the record file


def _cli(args: list) -> int:
    # The CLI reports progress on stdout; keep stdout for the result line.
    with contextlib.redirect_stdout(sys.stderr):
        return cli.main([str(a) for a in args])


def _timed_cli(args: list) -> float:
    start = time.perf_counter()
    code = _cli(args)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"fingerbci {args[0]} exited with code {code}")
    return elapsed


def _write_config(path: Path, data: Data, pipeline_seed: int) -> Path:
    path.write_text(json.dumps({**data.grids, "repetitions": 1, "seed": pipeline_seed}))
    return path


def cohen_kappa(truth: np.ndarray, predicted: np.ndarray, n_classes: int) -> float:
    confusion = np.zeros((n_classes, n_classes))
    np.add.at(confusion, (truth, predicted), 1)
    total = confusion.sum()
    expected = confusion.sum(axis=0) @ confusion.sum(axis=1) / total**2
    return float((np.trace(confusion) / total - expected) / (1.0 - expected))


def _check_report(report: dict, n_classes: int, checks: Checks) -> float:
    """Evaluate output: multiclass plus every class pair, finite kappas."""
    pairs = {**report.get("rest_vs_finger", {}), **report.get("pairwise", {})}
    sections = [report.get("multiclass")] + list(pairs.values())
    checks.add("evaluate_has_multiclass", report.get("multiclass") is not None)
    checks.add("evaluate_has_every_pair", len(pairs) == n_classes * (n_classes - 1) // 2)
    checks.add(
        "evaluate_kappas_finite",
        all(s is not None and s["kappas"] and all(math.isfinite(k) for k in s["kappas"]) for s in sections),
    )
    return float(report["multiclass"]["kappas"][0]) if report.get("multiclass") else 0.0


def _command(workload: Workload, seed: int, index: int, work: Path, tracer, checks: Checks) -> tuple[float, object]:
    """One round's command on a fresh dataset: its time and its output."""
    data_dir, out_dir = work / f"round-{index}", work / f"round-{index}-out"
    with tracer.span("bench.round_data"):
        round_dataset(workload, seed, index, data_dir)
    config = _write_config(work / f"round-{index}.json", workload.rounds, derive_seed(seed, 3, index))
    with tracer.span("bench.command"):
        elapsed = _timed_cli([workload.command, "--dataset", data_dir, "--config", config, "--out", out_dir])
    if workload.command == "evaluate":
        report = json.loads((out_dir / "report.json").read_text())
        output = _check_report(report, workload.rounds.n_classes, checks)
    else:
        bundle = (out_dir / ecoc.MODEL_NAME).read_bytes()
        checks.add("train_wrote_bundle", len(bundle) > 0)
        output = hashlib.sha256(bundle).hexdigest()
    shutil.rmtree(data_dir)
    shutil.rmtree(out_dir)
    return elapsed, output


def run_session(
    workload: Workload, seed: int, calibration_dir: Path, test, work: Path, tracer,
    seconds: float, rounds: int | None = None,
) -> Outcome:
    """The measured client session: deploy, then rounds of command and serving.

    Rounds run until ``seconds`` are nearly used up, and at least
    MIN_ROUNDS of them; ``rounds`` fixes their number, and the number of
    trials each serves, instead.
    """
    checks = Checks()
    bundle_dir = work / "model"
    config = _write_config(work / "deploy.json", workload.deployed, derive_seed(CALIBRATION_SEED, 3))
    with tracer.span("bench.deploy"):
        deploy_s = _timed_cli(["train", "--dataset", calibration_dir, "--config", config, "--out", bundle_dir])
    saved = (bundle_dir / ecoc.MODEL_NAME).read_bytes()
    with tracer.span("bench.bundle"):
        model = ecoc.load_model(bundle_dir)
        ecoc.save_model(model, work / "resaved")
    checks.add("bundle_save_load_save_identical", (work / "resaved" / ecoc.MODEL_NAME).read_bytes() == saved)

    server = _Server(model, bundle_dir, test.trials, derive_seed(seed, 6), tracer)
    kappa = cohen_kappa(test.labels(), server.batch, workload.deployed.n_classes)
    checks.add("kappa_above_floor", kappa > workload.kappa_floor)
    command_s, outputs = [], []
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        elapsed, output = _command(workload, seed, len(command_s), work, tracer, checks)
        command_s.append(elapsed)
        outputs.append(output)
        server.serve_round(ROUND_TRIALS if rounds is not None else None)
        round_s = time.perf_counter() - round_start
        if rounds is not None:
            if len(command_s) == rounds:
                break
        elif len(command_s) >= MIN_ROUNDS and time.perf_counter() - started + round_s > seconds:
            break
    checks.add("single_trial_equals_batch", server.singles_match_batch)

    latencies = server.latencies
    metrics = {
        "command_p90_s": float(np.percentile(command_s, 90)),
        "command_p50_s": statistics.median(command_s),
        "predict_p90_ms": float(np.percentile(latencies, 90)) * 1e3,
        "predict_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "predict_p95_ms": float(np.percentile(latencies, 95)) * 1e3,
        "predict_batch_tps": server.batch_tps,
        "bundle_load_ms": statistics.median(server.load_s) * 1e3,
        "bundle_mb": len(saved) / 1e6,
        "kappa": kappa,
    }
    context = {
        "command": workload.command,
        "deploy_train_s": deploy_s,
        "command_s_all": command_s,
        "selected_bands": [list(column.selected_bands) for column in model.columns],
        "samples": {
            "rounds": len(command_s),
            "single_predictions": len(latencies),
            "batch_trials": len(test.trials),
            "bundle_loads": len(server.load_s),
        },
    }
    if workload.command == "evaluate":
        context["evaluate_kappas"] = outputs
        checks.add("evaluate_kappa_above_floor", statistics.median(outputs) > workload.kappa_floor)
    operations = 3 + len(command_s) + server.operations
    fingerprint = (hashlib.sha256(saved).hexdigest(), tuple(server.batch.tolist()), tuple(outputs))
    return Outcome(metrics, context, checks, operations + len(checks.results), fingerprint, latencies)


class _Server:
    """Serves the test set with the deployed decoder.

    The whole test set is predicted once as one batch; that gives the kappa
    and the reference for single-trial predictions.  Each round then reloads
    the bundle and predicts test trials one at a time, at least ROUND_TRIALS
    of them and for at least ROUND_SERVE_SECONDS, so that latency samples
    cover a steady share of every round.  The trials are taken in an order
    drawn from the workload seed.
    """

    def __init__(self, model, bundle_dir: Path, trials: list, order_seed: int, tracer) -> None:
        self.trials, self.bundle_dir, self.tracer = trials, bundle_dir, tracer
        self.order = np.random.default_rng(order_seed).permutation(len(trials))
        self.latencies: list[float] = []
        self.load_s: list[float] = []
        self.singles_match_batch = True
        with tracer.span("bench.serve"):
            for trial in trials[:WARMUP_PREDICTIONS]:
                ecoc.predict_ecoc(model, trial)
            start = time.perf_counter()
            self.batch = np.asarray(ecoc.predict_trials(model, trials))
            self.batch_tps = len(trials) / (time.perf_counter() - start)

    def serve_round(self, count: int | None = None) -> None:
        """Reload the bundle and predict single trials; ``count`` fixes how many."""
        gc.collect()  # each round starts from the same heap, not from leftover garbage
        with self.tracer.span("bench.serve"):
            start = time.perf_counter()
            model = ecoc.load_model(self.bundle_dir)
            self.load_s.append(time.perf_counter() - start)
            served, started = 0, time.perf_counter()
            while served < (count or ROUND_TRIALS) or (
                count is None and time.perf_counter() - started < ROUND_SERVE_SECONDS
            ):
                index = int(self.order[len(self.latencies) % len(self.order)])
                start = time.perf_counter()
                predicted = ecoc.predict_ecoc(model, self.trials[index])
                self.latencies.append(time.perf_counter() - start)
                self.singles_match_batch &= int(predicted) == int(self.batch[index])
                served += 1

    @property
    def operations(self) -> int:
        # Warm-up calls, the batch, single predictions, one load per round.
        return WARMUP_PREDICTIONS + 1 + len(self.latencies) + len(self.load_s)
