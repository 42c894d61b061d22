"""Time-series reference for the covariance-domain filter bank.

The filter bank reduces each band-filtered trial straight to two spatial
covariances.  This module computes the same statistics the slow way, as the
pipeline once did: filter every trial into every band with
:func:`fingerbci.apply_filter` (float32 band trials), then take
:func:`trial_covariance`, the centred covariance, and the variance of each
CSP projection over time.  :func:`fit_csp` and :func:`extract_features` fit
and apply CSP to time-series trials through the pipeline's own solver and
features.
"""

import numpy as np

from fingerbci import CspModel, Trial, apply_filter, design_bandpass, log_variance_features
from fingerbci.csp import fit_csp_stack


def trial_covariance(trial: Trial) -> np.ndarray:
    """Trace-normalized spatial covariance ``X X^T / trace(X X^T)``."""
    x = trial.samples.astype(np.float64)
    if x.shape[1] < 2:
        raise ValueError("trial needs at least 2 samples for a covariance")
    c = x @ x.T
    trace = np.trace(c)
    if trace <= 0.0:
        raise ValueError("all-zero trial has no covariance")
    return c / trace


def class_covariance(trials: list[Trial]) -> np.ndarray:
    """Arithmetic mean of per-trial covariances."""
    if not trials:
        raise ValueError("cannot average covariances of an empty trial list")
    return np.mean([trial_covariance(trial) for trial in trials], axis=0)


def fit_csp(class_a: list[Trial], class_b: list[Trial], n_pairs: int, band=None) -> CspModel:
    """CSP filters contrasting two sets of trials (rows by eigenvalue descending)."""
    filters, eigenvalues = fit_csp_stack(class_covariance(class_a), class_covariance(class_b), n_pairs)
    return CspModel(filters=filters, eigenvalues=eigenvalues, n_pairs=n_pairs, band=band)


def extract_features(trial: Trial, model: CspModel) -> np.ndarray:
    """Log variance-ratio features of one trial (length 2 * n_pairs)."""
    return log_variance_features(centred_covariance(trial), model)


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
