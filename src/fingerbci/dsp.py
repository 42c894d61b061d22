"""FIR bandpass design and filter-bank decomposition.

Filters are linear-phase windowed-sinc bandpasses (Hamming window),
normalized to unit gain at the band center.  Application is zero-phase
forward-backward filtering with the warm-up transients trimmed, so band
power estimates downstream are not biased by edge effects.

:func:`apply_filter` runs one filter over one trial's time series.  The
filter bank (:func:`band_covariances`, :func:`decompose`) computes the same
output in one valid-mode convolution per band and keeps only the spatial
covariances that everything downstream reads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.fft
from scipy.signal import fftconvolve

from .trialstore import Dataset, Trial

DEFAULT_TAPS = 257

# Samples (channels x time, summed over trials) filtered together by the
# bank: large enough to amortise per-call overhead, small enough that the
# float64 and spectral temporaries of one batch stay near 2 MB each.
BATCH_SAMPLES = 1 << 18


@dataclass(frozen=True)
class FirFilter:
    """Linear-phase FIR bandpass: symmetric coefficients, odd tap count."""

    coefficients: np.ndarray
    band: tuple[float, float]
    sample_rate: float

    @property
    def taps(self) -> int:
        return len(self.coefficients)


@dataclass(frozen=True)
class FilterBank:
    """Ordered list of (low, high) bands sharing one tap count."""

    bands: list[tuple[float, float]]
    taps: int = DEFAULT_TAPS


@dataclass(frozen=True, eq=False)
class BandDecomposition:
    """Band covariances of a labelled dataset; band time series are not kept.

    ``csp_covariances[b, i]`` is the trace-normalised covariance
    ``Y Y^T / trace(Y Y^T)`` of trial ``i`` filtered into band ``b`` (what
    CSP class covariances average), and ``feature_covariances[b, i]`` its
    centred covariance ``(Y - mean)(Y - mean)^T / T`` (what the log-variance
    features read).  ``n_samples[i]`` is the filtered length ``T`` of trial
    ``i``.  Both stacks have shape ``(n_bands, n_trials, C, C)``.
    """

    bands: list[tuple[float, float]]
    taps: int
    sample_rate: float
    channel_names: list[str]
    class_names: list[str]
    labels: np.ndarray
    n_samples: np.ndarray = field(repr=False)
    csp_covariances: np.ndarray = field(repr=False)
    feature_covariances: np.ndarray = field(repr=False)

    @property
    def n_bands(self) -> int:
        return len(self.bands)

    @property
    def n_trials(self) -> int:
        return len(self.labels)

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def class_indices(self, label: int) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.labels == label)]

    def subset(self, indices: list[int]) -> "BandDecomposition":
        """The given trials, in the given order."""
        indices = np.asarray(indices, dtype=np.int64)
        return replace(
            self,
            labels=self.labels[indices],
            n_samples=self.n_samples[indices],
            csp_covariances=self.csp_covariances[:, indices],
            feature_covariances=self.feature_covariances[:, indices],
        )

    def classes(self, class_a: int, class_b: int) -> "BandDecomposition":
        """Two-class view relabelled ``class_a`` -> 0, ``class_b`` -> 1, trial order kept."""
        if class_a == class_b:
            raise ValueError("class_a and class_b must differ")
        if not (np.any(self.labels == class_a) and np.any(self.labels == class_b)):
            raise ValueError(f"classes {class_a} and {class_b} must both be present")
        view = self.subset(np.flatnonzero((self.labels == class_a) | (self.labels == class_b)))
        return replace(
            view,
            labels=(view.labels == class_b).astype(np.int64),
            class_names=[self.class_names[class_a], self.class_names[class_b]],
        )


class BankError(ValueError):
    """A filter-bank setting that cannot be designed; ``field`` names it."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field


def check_bank(bands, sample_rate: float, taps: int) -> None:
    """Raise :class:`BankError` unless every band of ``bands`` can be designed.

    The rules: a positive finite ``sample_rate``, odd ``taps`` of at least 31
    and ``0 < low < high < sample_rate / 2`` for each ``(low, high)``.
    """
    if not (np.isfinite(sample_rate) and sample_rate > 0.0):
        raise BankError("sample_rate", f"sample rate must be positive and finite, got {sample_rate}")
    if taps % 2 == 0 or taps < 31:
        raise BankError("taps", f"taps must be odd and >= 31, got {taps}")
    for low, high in bands:
        if not 0.0 < low < high < sample_rate / 2.0:
            raise BankError(
                "bands", f"band edges must satisfy 0 < low < high < Nyquist, got ({low}, {high}) at {sample_rate} Hz"
            )


def design_bandpass(low: float, high: float, sample_rate: float, taps: int) -> FirFilter:
    """Windowed-sinc bandpass: ideal impulse response x Hamming window.

    The kernel is normalized to unit magnitude response at the band center
    (narrow bands would otherwise sit far below unity gain), and built by
    mirroring one half so the coefficients are exactly symmetric.

    Parameters
    ----------
    low, high : float
        Band edges in Hz, ``0 < low < high < sample_rate / 2``.
    taps : int
        Filter length; odd, at least 31.
    """
    check_bank([(low, high)], sample_rate, taps)
    center = (taps - 1) // 2
    w1 = 2.0 * np.pi * low / sample_rate
    w2 = 2.0 * np.pi * high / sample_rate
    # Right half including center, mirrored for exact symmetry.
    n = np.arange(1, center + 1, dtype=np.float64)
    right = (np.sin(w2 * n) - np.sin(w1 * n)) / (np.pi * n)
    right *= np.hamming(taps)[center + 1 :]
    h = np.empty(taps, dtype=np.float64)
    h[center] = (w2 - w1) / np.pi
    h[center + 1 :] = right
    h[:center] = right[::-1]

    f0 = 0.5 * (low + high)
    gain = np.abs(np.sum(h * np.exp(-2j * np.pi * f0 / sample_rate * np.arange(taps))))
    h /= gain
    return FirFilter(coefficients=h, band=(low, high), sample_rate=sample_rate)


def _causal(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    # Causal FIR pass along the last axis, same length as the input.
    return fftconvolve(x, h[np.newaxis, :], mode="full", axes=1)[:, : x.shape[1]]


def apply_filter(trial: Trial, fir: FirFilter) -> Trial:
    """Zero-phase forward-backward filtering of one trial.

    Runs the kernel causally, reverses, runs it again and reverses back, so
    the net phase is zero and the magnitude response is squared.  The first
    and last ``taps - 1`` samples (filter warm-up in each direction) are
    discarded.
    """
    if trial.sample_rate != fir.sample_rate:
        raise ValueError(f"trial rate {trial.sample_rate} != filter rate {fir.sample_rate}")
    taps = fir.taps
    if trial.n_samples <= 3 * taps:
        raise ValueError(f"trial too short to filter: {trial.n_samples} samples <= 3 x {taps} taps")
    x = trial.samples.astype(np.float64)
    y = _causal(x, fir.coefficients)
    y = _causal(y[:, ::-1], fir.coefficients)[:, ::-1]
    y = y[:, taps - 1 : trial.n_samples - (taps - 1)]
    return Trial(label=trial.label, samples=y, sample_rate=trial.sample_rate)


def make_bank(start: float, stop: float, width: float, taps: int = DEFAULT_TAPS) -> FilterBank:
    """Contiguous bank of ``width``-Hz bands covering [start, stop]."""
    if width <= 0 or stop <= start:
        raise ValueError("need width > 0 and stop > start")
    n_bands = int(round((stop - start) / width))
    if n_bands < 1 or abs(start + n_bands * width - stop) > 1e-9:
        raise ValueError(f"({start}, {stop}) is not an integer number of {width} Hz bands")
    bands = [(start + i * width, start + (i + 1) * width) for i in range(n_bands)]
    return FilterBank(bands=bands, taps=taps)


def default_bank(sample_rate: float) -> FilterBank:
    """The standard 17-band bank: 2 Hz bands from (5, 7) up to (37, 39)."""
    if sample_rate <= 80.0:
        raise ValueError(f"sample rate {sample_rate} too low for the 5-39 Hz bank")
    return make_bank(5.0, 39.0, 2.0)


@functools.lru_cache(maxsize=64)
def _kernel_spectrum(low: float, high: float, sample_rate: float, taps: int, n_fft: int) -> np.ndarray:
    # The n_fft-point spectrum of the band kernel's autocorrelation, built
    # once per band and length and shared read-only by every later call.
    h = design_bandpass(low, high, sample_rate, taps).coefficients
    spectrum = scipy.fft.rfft(np.convolve(h, h[::-1]), n_fft)
    spectrum.flags.writeable = False
    return spectrum


def band_covariances(
    trials: list[Trial], sample_rate: float, bands: list[tuple[float, float]], taps: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Filter each trial into each band and reduce it to its covariances.

    Zero-phase forward-backward filtering with ``taps - 1`` samples trimmed
    at each end is a valid-mode convolution with the kernel's
    autocorrelation ``h * h[::-1]`` (length ``2 * taps - 1``).  So each
    trial takes one rfft; each band multiplies it by that kernel's spectrum,
    inverts, keeps the valid part and reduces it straight to the two
    covariances of :class:`BandDecomposition` before the next band starts.
    Trials of equal length go through in batches of about
    ``BATCH_SAMPLES`` samples, and each trial's result does not depend on
    which others share its batch.

    Returns ``(csp_covariances, feature_covariances, n_samples)``.
    """
    if not trials:
        raise ValueError("no trials to filter")
    for trial in trials:
        if trial.sample_rate != sample_rate:
            raise ValueError(f"trial rate {trial.sample_rate} != filter rate {sample_rate}")
        if trial.n_samples <= 3 * taps:
            raise ValueError(f"trial too short to filter: {trial.n_samples} samples <= 3 x {taps} taps")
    n_channels = trials[0].n_channels
    lengths = np.array([trial.n_samples for trial in trials])
    batches = []
    for length in np.unique(lengths):
        same_length = np.flatnonzero(lengths == length)
        step = max(1, BATCH_SAMPLES // (n_channels * int(length)))
        batches += [same_length[i : i + step] for i in range(0, len(same_length), step)]
    shape = (len(bands), len(trials), n_channels, n_channels)
    csp_covariances, feature_covariances = np.empty(shape), np.empty(shape)
    for batch in batches:
        length = int(lengths[batch[0]])
        n_fft = scipy.fft.next_fast_len(length, real=True)
        samples = np.stack([trials[i].samples for i in batch]).astype(np.float64)
        spectra = scipy.fft.rfft(samples, n_fft, axis=-1)
        for b, (low, high) in enumerate(bands):
            # Output k of a circular convolution of n_fft >= length points
            # wraps nothing for k >= 2 * (taps - 1): the valid part.
            y = scipy.fft.irfft(spectra * _kernel_spectrum(low, high, sample_rate, taps, n_fft), n_fft, axis=-1)
            y = y[..., 2 * (taps - 1) : length]
            products = y @ y.swapaxes(-1, -2)
            traces = np.trace(products, axis1=-2, axis2=-1)
            if np.any(traces <= 0.0):
                index = int(batch[np.argmax(traces <= 0.0)])
                raise ValueError(f"trial {index} is all zero in band {bands[b]}: it has no covariance")
            means = y.mean(axis=-1)
            csp_covariances[b, batch] = products / traces[:, np.newaxis, np.newaxis]
            feature_covariances[b, batch] = (
                products / y.shape[-1] - means[:, :, np.newaxis] * means[:, np.newaxis, :]
            )
    return csp_covariances, feature_covariances, lengths - 2 * (taps - 1)


def decompose(dataset: Dataset, bank: FilterBank) -> BandDecomposition:
    """Run every trial through the filter bank (see :func:`band_covariances`).

    Trial order and labels are preserved; each trial loses
    ``2 * (taps - 1)`` samples to edge trimming.
    """
    csp_covariances, feature_covariances, n_samples = band_covariances(
        dataset.trials, dataset.sample_rate, bank.bands, bank.taps
    )
    return BandDecomposition(
        bands=list(bank.bands),
        taps=bank.taps,
        sample_rate=dataset.sample_rate,
        channel_names=list(dataset.channel_names),
        class_names=list(dataset.class_names),
        labels=dataset.labels(),
        n_samples=n_samples,
        csp_covariances=csp_covariances,
        feature_covariances=feature_covariances,
    )
