#!/usr/bin/env python3
"""Decoding quality at the paper's operating point, per seed, and a paired comparison of two runs.

Each seed regenerates the ``snr_sweep.py`` dataset at SNR 0.012 (4 classes x
20 trials, 8 channels, 3 s), decomposes it once and runs the repeated
holdout with criterion 7's extra-trees grid (5 repetitions): the multiclass
decoder, each rest-vs-finger pair and each finger pair.  The JSON written to
``--out`` holds, per seed, the mean multiclass kappa, each pair's mean
accuracy and the selected bands of every column fitted, in fitting order.

    python scripts/quality_gate.py --out gate.json
    python scripts/quality_gate.py --compare parent.json change.json

``--compare a.json b.json`` prints the paired kappa difference (b - a) over
the seeds with its standard error, the seeds whose kappa differs, the mean
pair accuracy differences and the fraction of columns whose selected bands
agree.  It reports and sets no pass mark.
"""

import argparse
import json
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from fingerbci import decompose, ecoc, repeated_holdout
from snr_sweep import sweep_config, sweep_dataset

SNR = 0.012  # the paper's operating point; every run of the gate uses it


@contextmanager
def selected_bands():
    """Yield a list that gains the selected bands of each column fitted meanwhile."""
    bands, fit_column = [], ecoc.fit_column

    def fitted(*args, **kwargs):
        column = fit_column(*args, **kwargs)
        bands.append([int(b) for b in column.selected_bands])
        return column

    ecoc.fit_column = fitted
    try:
        yield bands
    finally:
        ecoc.fit_column = fit_column


def run_seed(seed: int, settings: dict) -> dict:
    """One seed's kappa, pair accuracies and selected bands."""
    dataset = sweep_dataset(settings["snr"], seed, settings["trials_per_class"])
    config = sweep_config(seed, settings["repetitions"])
    decomp = decompose(dataset, config.bank())
    names = dataset.class_names
    with selected_bands() as bands:
        multiclass = repeated_holdout(decomp, config)
    record = {"seed": seed, "kappa": multiclass.kappa_mean, "kappas": multiclass.kappas}
    record["columns"] = {"multiclass": bands}
    for section, pairs in (("rest_vs_finger", [(0, c) for c in (1, 2, 3)]), ("pairwise", [(1, 2), (1, 3), (2, 3)])):
        record[section] = {}
        for a, b in pairs:
            name = f"{names[a]} vs {names[b]}"
            with selected_bands() as bands:
                record[section][name] = repeated_holdout(decomp, config, pair=(a, b)).mean
            record["columns"][name] = bands
    return record


def _mean_se(values) -> tuple[float, float]:
    values = np.asarray(values, dtype=np.float64)
    se = float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
    return float(values.mean()), se


def compare(path_a: str, path_b: str) -> None:
    """Print the paired comparison of two runs made with the same settings."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    if a["settings"] != b["settings"]:
        raise SystemExit(f"runs differ in settings: {a['settings']} != {b['settings']}")
    seeds_a, seeds_b = a["seeds"], b["seeds"]
    n = len(seeds_a)
    kappa_a, kappa_b = (np.array([s["kappa"] for s in seeds]) for seeds in (seeds_a, seeds_b))
    difference, se = _mean_se(kappa_b - kappa_a)
    print(f"settings: {a['settings']}")
    print("mean kappa: a {:.4f} (SE {:.4f}), b {:.4f} (SE {:.4f})".format(*_mean_se(kappa_a), *_mean_se(kappa_b)))
    print(f"paired kappa difference (b - a): {difference:+.4f} (SE {se:.4f})")
    differ = [s["seed"] for s, ka, kb in zip(seeds_a, kappa_a, kappa_b) if ka != kb]
    print(f"seeds whose kappa differs: {len(differ)} of {n} {differ}")
    for section in ("rest_vs_finger", "pairwise"):
        for name in seeds_a[0][section]:
            pair, pair_se = _mean_se([sb[section][name] - sa[section][name] for sa, sb in zip(seeds_a, seeds_b)])
            print(f"{section} {name} accuracy difference (b - a): {pair:+.4f} (SE {pair_se:.4f})")
    agree = total = 0
    for sa, sb in zip(seeds_a, seeds_b):
        for name, columns in sa["columns"].items():
            agree += sum(x == y for x, y in zip(columns, sb["columns"][name]))
            total += max(len(columns), len(sb["columns"][name]))
    print(f"columns whose selected bands agree: {agree} of {total} ({agree / total:.3f})")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", help="JSON file for the per-seed results")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two --out files instead of running")
    parser.add_argument("--seeds", type=int, default=20, help="run seeds 0 .. SEEDS-1")
    parser.add_argument("--trials-per-class", type=int, default=20)
    parser.add_argument("--repetitions", type=int, default=5)
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return
    if not args.out:
        parser.error("give --out to run, or --compare A B")
    settings = {"seeds": args.seeds, "snr": SNR, "trials_per_class": args.trials_per_class,
                "repetitions": args.repetitions}
    seeds = []
    for seed in range(args.seeds):
        seeds.append(run_seed(seed, settings))
        print(f"seed {seed}: kappa {seeds[-1]['kappa']:.4f}", flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps({"settings": settings, "seeds": seeds}, indent=1) + "\n")
    print(f"mean kappa {np.mean([s['kappa'] for s in seeds]):.4f} over {len(seeds)} seeds -> {args.out}")


if __name__ == "__main__":
    main()
