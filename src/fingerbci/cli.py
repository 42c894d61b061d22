"""Command-line interface: synth, score-bands, train, evaluate, predict."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

from .config import PipelineConfig
from .dsp import decompose
from .ecoc import PAIR_CODE, column_pools, exhaustive_code, fit_ecoc, load_model, predict_trials, save_model
from .evaluation import repeated_holdout
from .bandselect import score_bands_for_labels, select_bands
from .synthgen import SynthConfig, generate
from .trialstore import load_dataset, save_dataset, subset_classes


def _load_pipeline_config(path: str | None, seed_override: int | None) -> PipelineConfig:
    config = PipelineConfig.from_json(path) if path else PipelineConfig()
    return config if seed_override is None else replace(config, seed=seed_override)


def _parse_classes(spec: str, class_names: list[str]) -> tuple[int, int]:
    parts = [p.strip() for p in spec.split(",")]
    if len(parts) != 2:
        raise ValueError(f"--classes expects two comma-separated entries, got {spec!r}")
    indices = []
    for part in parts:
        if part in class_names:
            indices.append(class_names.index(part))
        else:
            try:
                index = int(part)
            except ValueError:
                raise ValueError(f"unknown class {part!r}; choices: {class_names}") from None
            if not 0 <= index < len(class_names):
                raise ValueError(f"class index {index} out of range for {len(class_names)} classes")
            indices.append(index)
    if indices[0] == indices[1]:
        raise ValueError("--classes entries must differ")
    return indices[0], indices[1]


def _write_json(payload: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_synth(args: argparse.Namespace) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = SynthConfig.from_dict(json.load(fh))
    dataset = generate(config)
    save_dataset(dataset, args.out)
    print(f"wrote {len(dataset.trials)} trials to {args.out}")
    return 0


def cmd_score_bands(args: argparse.Namespace) -> int:
    out = Path(args.out)
    if out.with_suffix(".csv") == out:
        raise ValueError(f"--out {out} is also the path of the CSV written beside it; give the JSON another suffix")
    config = _load_pipeline_config(args.config, args.seed)
    dataset = load_dataset(args.dataset)
    class_a, class_b = _parse_classes(args.classes, dataset.class_names)
    pair_data = subset_classes(dataset, class_a, class_b)
    column_pools(PAIR_CODE, pair_data.labels(), pair_data.class_names, config.cv_folds)
    pair = decompose(pair_data, config.bank())
    scores = score_bands_for_labels(
        pair, pair.labels, config.csp_pairs, config.cv_folds, config.seed, config.lda_shrinkage
    )
    selection = select_bands(scores)
    _write_json(
        {
            "pair": [class_a, class_b],
            "pair_names": [dataset.class_names[class_a], dataset.class_names[class_b]],
            "scores": [{"band": list(s.band), "score": s.score} for s in selection.scores],
            "threshold": selection.threshold,
            "selected": selection.selected,
            "config": config.to_dict(),
        },
        out,
    )
    # Plot-ready frequency-score curve next to the JSON.
    with open(out.with_suffix(".csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["band_low_hz", "band_high_hz", "score", "selected"])
        for i, s in enumerate(selection.scores):
            writer.writerow([s.band[0], s.band[1], s.score, int(i in selection.selected)])
    print(f"scored {len(scores)} bands; threshold {selection.threshold:.3f}; selected {selection.selected}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _load_pipeline_config(args.config, args.seed)
    dataset = load_dataset(args.dataset)
    bank = config.bank()
    if args.classes is not None:
        pair = _parse_classes(args.classes, dataset.class_names)
        decomp, code = decompose(subset_classes(dataset, *pair), bank), PAIR_CODE
    else:
        if dataset.n_classes < 3:
            raise ValueError(
                "multiclass training needs at least 3 classes (the exhaustive code for 2 "
                "classes has a single column); train a pair model with --classes instead"
            )
        decomp, code = decompose(dataset, bank), exhaustive_code(dataset.n_classes)
    model = fit_ecoc(decomp, code, config)
    if args.classes is not None:
        # Code rows 0 and 1 stand for the pair's classes in the full class list.
        model = replace(model, classes=list(pair), class_names=list(dataset.class_names))
    save_model(model, args.out)
    print(f"trained a {len(model.columns)}-column model for classes {model.classes} -> {args.out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = _load_pipeline_config(args.config, args.seed)
    dataset = load_dataset(args.dataset)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = dataset.class_names

    payload: dict = {"config": config.to_dict(), "class_names": names}
    # One pass through the filter bank serves the multiclass run and every pair run.
    decomp = decompose(dataset, config.bank())
    if dataset.n_classes >= 3:
        multiclass = repeated_holdout(decomp, config)
        payload["multiclass"] = multiclass.summary()
        pairs_rest = [(0, c) for c in range(1, dataset.n_classes)]
        pairs_other = [
            (a, b) for a in range(1, dataset.n_classes) for b in range(a + 1, dataset.n_classes)
        ]
    else:
        multiclass = None
        pairs_rest = [(0, 1)]
        pairs_other = []

    for section, pairs in (("rest_vs_finger", pairs_rest), ("pairwise", pairs_other)):
        payload[section] = {
            f"{names[a]} vs {names[b]}": repeated_holdout(decomp, config, pair=(a, b)).summary() for a, b in pairs
        }

    _write_json(payload, out_dir / "report.json")
    columns = ["accuracy_mean", "accuracy_sd", "accuracy_max"]
    for section in ("rest_vs_finger", "pairwise"):
        with open(out_dir / f"{section}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["pair", *columns])
            writer.writerows([pair, *(summary[c] for c in columns)] for pair, summary in payload[section].items())
    with open(out_dir / "kappa.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["repetition", "kappa"])
        if multiclass is not None:
            for r, kappa in enumerate(multiclass.kappas):
                writer.writerow([r, kappa])
    if multiclass is not None:
        print(
            f"multiclass accuracy {multiclass.mean:.3f}+/-{multiclass.sd:.3f} "
            f"(max {multiclass.max:.3f}), mean kappa {multiclass.kappa_mean:.3f}"
        )
    print(f"report written to {out_dir}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    dataset = load_dataset(args.dataset)
    predicted = predict_trials(model, dataset.trials, channel_names=dataset.channel_names)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "predicted_index", "predicted_name"])
        for i, label in enumerate(predicted):
            writer.writerow([i, int(label), model.class_names[int(label)]])
    print(f"predicted {len(predicted)} trials -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fingerbci", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--config", required=True, help="synth config JSON")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("score-bands", help="score frequency bands for a class pair")
    p.add_argument("--dataset", required=True)
    p.add_argument("--classes", required=True, help="two classes, e.g. rest,thumb or 0,1")
    p.add_argument("--config", help="pipeline config JSON (defaults used if omitted)")
    p.add_argument("--out", required=True, help="output JSON, not .csv (a CSV is written alongside)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=cmd_score_bands)

    p = sub.add_parser("train", help="train a model bundle")
    p.add_argument("--dataset", required=True)
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--out", required=True, help="output model directory")
    p.add_argument("--classes", help="train a binary pair model instead of multiclass")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="repeated-holdout evaluation with report tables")
    p.add_argument("--dataset", required=True)
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--out", required=True, help="output report directory")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="predict classes for every trial of a dataset")
    p.add_argument("--model", required=True, help="model bundle directory")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=cmd_predict)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # CLI boundary: fail with a message, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
