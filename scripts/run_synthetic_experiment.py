#!/usr/bin/env python3
"""End-to-end synthetic study: generate one 'subject', score bands, evaluate.

Builds a 4-class dataset (rest, thumb, index, middle) with class-specific
9-11 Hz sources, then reports the frequency-score curve for rest vs thumb
and the three standard result tables: rest-vs-finger accuracy, pairwise
finger accuracy (both Mean+/-SD (Max)), and per-repetition multiclass kappa.

    python scripts/run_synthetic_experiment.py --out results/ --repetitions 5

Equivalent CLI flow: fingerbci synth / score-bands / evaluate.
"""

import argparse
import json
import time
from pathlib import Path

from fingerbci import (
    PipelineConfig,
    SynthConfig,
    decompose,
    generate,
    make_bank,
    repeated_holdout,
    save_dataset,
    score_bands,
    select_bands,
)
from fingerbci.rng import child_seed

CLASS_NAMES = ["rest", "thumb", "index", "middle"]


def build_dataset(seed: int, trials_per_class: int) -> SynthConfig:
    return SynthConfig(
        n_classes=4,
        trials_per_class=trials_per_class,
        n_channels=8,
        sample_rate=512.0,
        trial_duration=3.0,
        class_sources=[[(9.0, 11.0, 4.0)] for _ in range(4)],
        mixing_seed=child_seed(seed, 0),
        noise_variance=1.0,
        noise_seed=child_seed(seed, 1),
        class_names=CLASS_NAMES,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials-per-class", type=int, default=30)
    parser.add_argument("--repetitions", type=int, default=5)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()

    print(f"generating synthetic subject (seed {args.seed}, {args.trials_per_class} trials/class)")
    dataset = generate(build_dataset(args.seed, args.trials_per_class))
    save_dataset(dataset, out / "dataset")

    config = PipelineConfig(
        et_max_features=[2],
        et_min_samples_split=[2],
        et_n_estimators=[50],
        repetitions=args.repetitions,
        seed=child_seed(args.seed, 2),
    )
    (out / "pipeline.json").write_text(json.dumps(config.to_dict(), indent=2) + "\n")

    # One pass through the filter bank serves the band scores and every evaluation below.
    bank = make_bank(config.band_start, config.band_stop, config.band_width, config.fir_taps)
    decomp = decompose(dataset, bank)

    print("scoring the 17-band grid for rest vs thumb")
    scores = score_bands(decomp, 0, 1, n_pairs=config.csp_pairs, folds=config.cv_folds, seed=config.seed)
    selection = select_bands(scores)
    print(f"  threshold {selection.threshold:.3f}")
    for i, s in enumerate(scores):
        marker = " <- selected" if i in selection.selected else ""
        print(f"  {s.band[0]:4.0f}-{s.band[1]:2.0f} Hz  score {s.score:.3f}{marker}")

    print("\nbinary pipelines (Mean+/-SD (Max) over repetitions)")
    rows = []
    pairs = [(0, c) for c in range(1, 4)] + [(a, b) for a in range(1, 4) for b in range(a + 1, 4)]
    for a, b in pairs:
        report = repeated_holdout(decomp, config, pair=(a, b))
        label = f"{CLASS_NAMES[a]} vs {CLASS_NAMES[b]}"
        rows.append((label, report))
        print(f"  {label:18s} {report.mean:.2f}+/-{report.sd:.2f} ({report.max:.2f})")

    print("\nmulticlass decoding (exhaustive-code ensemble)")
    multiclass = repeated_holdout(decomp, config)
    for r, kappa in enumerate(multiclass.kappas):
        print(f"  repetition {r}: accuracy {multiclass.accuracies[r]:.2f}, kappa {kappa:.2f}")
    print(f"  mean kappa {multiclass.kappa_mean:.3f}")

    summary = {
        "config": config.to_dict(),
        "band_scores": [{"band": list(s.band), "score": s.score} for s in scores],
        "band_threshold": selection.threshold,
        "selected_bands": selection.selected,
        "binary": {label: report.summary() for label, report in rows},
        "multiclass": multiclass.summary(),
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {out / 'summary.json'} in {time.perf_counter() - started:.0f}s")


if __name__ == "__main__":
    main()
