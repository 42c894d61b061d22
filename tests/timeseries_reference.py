"""Time-series reference for CSP.

:func:`centred_covariance` is a trial's centred spatial covariance, and
:func:`variance_features` the log variance ratios of its CSP projections over
time.  :func:`fit_csp` and :func:`extract_features` fit and apply CSP to
time-series trials through the pipeline's own solver and features; features
take the kept filter rows, a ``(2 * n_pairs, C)`` array.
:func:`trial_covariance` is the uncentred ``X X^T / trace(X X^T)``, on which
the solver's tests state exact values.
"""

import numpy as np

from fingerbci import Trial
from fingerbci.csp import fit_csp_stack, log_ratios


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


def fit_csp(class_a: list[Trial], class_b: list[Trial], n_pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """CSP ``(filters, eigenvalues)`` contrasting two sets of trials (rows by eigenvalue descending)."""
    return fit_csp_stack(class_covariance(class_a), class_covariance(class_b), n_pairs)


def extract_features(trial: Trial, filters: np.ndarray) -> np.ndarray:
    """Log variance-ratio features of one trial through the kept ``filters`` (length 2 * n_pairs)."""
    return log_ratios(np.sum((filters @ centred_covariance(trial)) * filters, axis=-1))


def centred_covariance(trial: Trial) -> np.ndarray:
    x = trial.samples.astype(np.float64)
    x = x - x.mean(axis=1, keepdims=True)
    return x @ x.T / x.shape[1]


def variance_features(trials: list[Trial], filters: np.ndarray) -> np.ndarray:
    """Log variance ratios of the projections through the kept ``filters`` over time, (n_trials, 2 * n_pairs)."""
    rows = []
    for trial in trials:
        variances = (filters @ trial.samples.astype(np.float64)).var(axis=-1)
        rows.append(np.log(np.maximum(variances / variances.sum(), np.finfo(np.float64).tiny)))
    return np.array(rows)
