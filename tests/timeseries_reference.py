"""Time-series reference for the covariance-domain filter bank.

The filter bank reduces each band-filtered trial straight to two spatial
covariances.  This module computes the same statistics the slow way, as the
pipeline once did: filter every trial into every band with
:func:`fingerbci.apply_filter` (float32 band trials), then take
:func:`fingerbci.trial_covariance`, the centred covariance, and the variance
of each CSP projection over time.
"""

import numpy as np

from fingerbci import Trial, apply_filter, design_bandpass, trial_covariance


def filter_bank(trials: list[Trial], bands, taps: int) -> list[list[Trial]]:
    """Band-filtered trials, one list per band."""
    sample_rate = trials[0].sample_rate
    return [
        [apply_filter(trial, design_bandpass(low, high, sample_rate, taps)) for trial in trials]
        for low, high in bands
    ]


def centred_covariance(trial: Trial) -> np.ndarray:
    x = trial.samples.astype(np.float64)
    x = x - x.mean(axis=1, keepdims=True)
    return x @ x.T / x.shape[1]


def band_covariances(trials: list[Trial], bands, taps: int) -> tuple[np.ndarray, np.ndarray]:
    """(csp_covariances, feature_covariances), each (n_bands, n_trials, C, C)."""
    filtered = filter_bank(trials, bands, taps)
    csp = np.array([[trial_covariance(t) for t in band] for band in filtered])
    feature = np.array([[centred_covariance(t) for t in band] for band in filtered])
    return csp, feature


def variance_features(trials: list[Trial], model) -> np.ndarray:
    """Log variance ratios of the CSP projections over time, (n_trials, 2 * n_pairs)."""
    rows = []
    for trial in trials:
        variances = (model.selected_filters() @ trial.samples.astype(np.float64)).var(axis=-1)
        rows.append(np.log(np.maximum(variances / variances.sum(), np.finfo(np.float64).tiny)))
    return np.array(rows)
