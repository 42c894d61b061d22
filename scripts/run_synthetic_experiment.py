#!/usr/bin/env python3
"""End-to-end synthetic study: generate one 'subject', score bands, evaluate.

Builds a 4-class dataset (rest, thumb, index, middle) with class-specific
9-11 Hz sources, then reports the frequency-score curve for rest vs thumb
and the three standard result tables: rest-vs-finger accuracy, pairwise
finger accuracy (both Mean+/-SD (Max)), and per-repetition multiclass kappa.
It runs ``fingerbci synth``, ``score-bands`` and ``evaluate`` and prints
their outputs (``bands.json`` and ``report/report.json`` under ``--out``).

    python scripts/run_synthetic_experiment.py --out results/ --repetitions 5
"""

import argparse
import json
from pathlib import Path

from fingerbci import PipelineConfig, cli
from fingerbci.rng import child_seed

CLASS_NAMES = ["rest", "thumb", "index", "middle"]


def run(*args) -> None:
    if cli.main([str(a) for a in args]) != 0:
        raise SystemExit(f"fingerbci {args[0]} failed")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials-per-class", type=int, default=30)
    parser.add_argument("--repetitions", type=int, default=5)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    synth = {"n_classes": 4, "trials_per_class": args.trials_per_class, "n_channels": 8, "sample_rate": 512.0,
             "trial_duration": 3.0, "class_sources": [[[9.0, 11.0, 4.0]]] * 4, "mixing_seed": child_seed(args.seed, 0),
             "noise_variance": 1.0, "noise_seed": child_seed(args.seed, 1), "class_names": CLASS_NAMES}
    (out / "synth.json").write_text(json.dumps(synth, indent=2) + "\n")
    config = PipelineConfig(et_max_features=[2], et_min_samples_split=[2], et_n_estimators=[50],
                            repetitions=args.repetitions, seed=child_seed(args.seed, 2))
    (out / "pipeline.json").write_text(json.dumps(config.to_dict(), indent=2) + "\n")
    run("synth", "--config", out / "synth.json", "--out", out / "dataset")
    run("score-bands", "--dataset", out / "dataset", "--classes", "rest,thumb", "--config", out / "pipeline.json",
        "--out", out / "bands.json")
    run("evaluate", "--dataset", out / "dataset", "--config", out / "pipeline.json", "--out", out / "report")

    bands = json.loads((out / "bands.json").read_text())
    print(f"\nrest vs thumb band scores: threshold {bands['threshold']:.3f}")
    for i, s in enumerate(bands["scores"]):
        marker = " <- selected" if i in bands["selected"] else ""
        print(f"  {s['band'][0]:4.0f}-{s['band'][1]:2.0f} Hz  score {s['score']:.3f}{marker}")
    report = json.loads((out / "report" / "report.json").read_text())
    print("\nbinary pipelines (Mean+/-SD (Max) over repetitions)")
    for section in ("rest_vs_finger", "pairwise"):
        for label, s in report[section].items():
            print(f"  {label:18s} {s['accuracy_mean']:.2f}+/-{s['accuracy_sd']:.2f} ({s['accuracy_max']:.2f})")
    print("\nmulticlass decoding (exhaustive-code ensemble)")
    multiclass = report["multiclass"]
    for r, kappa in enumerate(multiclass["kappas"]):
        print(f"  repetition {r}: accuracy {multiclass['accuracies'][r]:.2f}, kappa {kappa:.2f}")
    print(f"  mean kappa {multiclass['kappa_mean']:.3f}")


if __name__ == "__main__":
    main()
