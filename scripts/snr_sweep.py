#!/usr/bin/env python3
"""Sweep planted-source SNR and report multiclass decoding kappa.

Each point regenerates the 4-class dataset with a different source-to-noise
variance ratio and runs the repeated-holdout harness, showing where the
decoder falls off as the 9-11 Hz sources sink into the noise floor.

    python scripts/snr_sweep.py --snr 0.002 0.01 0.05 --repetitions 3
"""

import argparse

from fingerbci import Dataset, PipelineConfig, SynthConfig, decompose, generate, repeated_holdout
from fingerbci.rng import child_seed


def sweep_dataset(snr: float, seed: int, trials_per_class: int) -> Dataset:
    """4 classes (rest, thumb, index, middle) of 3 s, 8-channel trials at 512 Hz, each class with a
    9-11 Hz source of variance ``snr`` over unit noise; ``seed`` keys the mixing and the noise."""
    return generate(SynthConfig(
        n_classes=4,
        trials_per_class=trials_per_class,
        n_channels=8,
        sample_rate=512.0,
        trial_duration=3.0,
        class_sources=[[(9.0, 11.0, float(snr))] for _ in range(4)],
        mixing_seed=child_seed(seed, 0),
        noise_variance=1.0,
        noise_seed=child_seed(seed, 1),
        class_names=["rest", "thumb", "index", "middle"],
    ))


def sweep_config(seed: int, repetitions: int) -> PipelineConfig:
    """The default pipeline with criterion 7's one-point extra-trees grid."""
    return PipelineConfig(
        et_max_features=[2],
        et_min_samples_split=[2],
        et_n_estimators=[50],
        repetitions=repetitions,
        seed=child_seed(seed, 100),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--snr", type=float, nargs="+", default=[0.002, 0.01, 0.05, 0.25, 1.0],
                        help="source variance over unit noise variance")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials-per-class", type=int, default=20)
    parser.add_argument("--repetitions", type=int, default=3)
    args = parser.parse_args()

    config = sweep_config(args.seed, args.repetitions)
    print(f"{'snr':>8}  {'accuracy':>8}  {'kappa':>6}")
    for snr in args.snr:
        dataset = sweep_dataset(snr, args.seed, args.trials_per_class)
        report = repeated_holdout(decompose(dataset, config.bank()), config)
        print(f"{snr:8.4g}  {report.mean:8.3f}  {report.kappa_mean:6.3f}")


if __name__ == "__main__":
    main()
