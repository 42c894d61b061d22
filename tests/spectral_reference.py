"""Reference for the filter bank's band covariances and served variances, from their definition.

Shares no code with :mod:`fingerbci.dsp` but the kernel design and its two constants.  Each trial's time
series is mean-removed per channel and multiplied, sample by sample, by a Tukey window whose half-cosine
ramps cover ``TAPER`` of the trial.  An explicit DFT matrix gives its spectrum ``X`` at ``n_fft`` points,
the least 5-smooth length of at least ``n`` samples.  Band ``b`` weights bin ``k`` by ``w_b(k) =
|H_b(k)|^4``, the kernel's DTFT at that bin, on the bins where the weight exceeds ``WEIGHT_CUTOFF`` of its
peak.  Then, summed one bin at a time over those bins::

    S_b = 2 Re sum_k w_b(k) X_k X_k^H / (n_fft n)        v_r = 2 sum_k w_b(k) |r . X_k|^2 / (n_fft n)
"""

import functools
import math

import numpy as np
import scipy.fft

from fingerbci import design_bandpass
from fingerbci.dsp import TAPER, WEIGHT_CUTOFF


def window(n: int) -> np.ndarray:
    """The Tukey window of ``n`` samples, one sample at a time."""
    ramp = TAPER * (n - 1) / 2
    edges = [min(t, n - 1 - t) for t in range(n)]
    return np.array([0.5 - 0.5 * math.cos(math.pi * e / ramp) if e < ramp else 1.0 for e in edges])


@functools.lru_cache(maxsize=None)
def dft_matrix(n: int, n_fft: int) -> np.ndarray:
    """``(n_fft // 2 + 1, n)``: row ``k`` maps ``n`` samples to their ``n_fft``-point DFT at bin ``k``."""
    return np.exp(-2j * np.pi * np.outer(np.arange(n_fft // 2 + 1), np.arange(n)) / n_fft)


@functools.lru_cache(maxsize=None)
def band_weights(low: float, high: float, sample_rate: float, taps: int, n_fft: int) -> dict[int, float]:
    """``{bin: w_b(bin)}`` over the band's support."""
    gain = np.abs(dft_matrix(taps, n_fft) @ design_bandpass(low, high, sample_rate, taps).coefficients)
    weights = gain**4
    return {int(k): float(weights[k]) for k in np.flatnonzero(weights > WEIGHT_CUTOFF * weights.max())}


def spectrum(trial) -> tuple[np.ndarray, int]:
    """``(X, n_fft)``: the trial's spectrum at every bin, ``(C, n_fft // 2 + 1)``."""
    x = trial.samples.astype(np.float64)
    n = x.shape[1]
    n_fft = scipy.fft.next_fast_len(n, real=True)
    return (x - x.mean(axis=1, keepdims=True)) * window(n) @ dft_matrix(n, n_fft).T, n_fft


def band_covariances(trials, bands, taps: int) -> np.ndarray:
    """``S_b`` of every trial in every band, ``(n_bands, n_trials, C, C)``."""
    out = np.empty((len(bands), len(trials), trials[0].n_channels, trials[0].n_channels))
    for i, trial in enumerate(trials):
        spectra, n_fft = spectrum(trial)
        for b, (low, high) in enumerate(bands):
            total = np.zeros((trial.n_channels, trial.n_channels))
            for k, w in band_weights(low, high, trial.sample_rate, taps, n_fft).items():
                total += w * np.outer(spectra[:, k], spectra[:, k].conj()).real
            out[b, i] = 2 * total / (n_fft * trial.n_samples)
    return out


def row_variances(trials, bands, taps: int, rows: np.ndarray, row_bands) -> np.ndarray:
    """``v_r`` of every trial, ``(n_trials, R)``: row ``r`` read in band ``bands[row_bands[r]]``."""
    out = np.empty((len(trials), len(rows)))
    for i, trial in enumerate(trials):
        spectra, n_fft = spectrum(trial)
        for r, (row, b) in enumerate(zip(rows, row_bands)):
            weights = band_weights(*bands[b], trial.sample_rate, taps, n_fft)
            total = sum(w * abs(row @ spectra[:, k]) ** 2 for k, w in weights.items())
            out[i, r] = 2 * total / (n_fft * trial.n_samples)
    return out
