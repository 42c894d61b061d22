"""FIR bandpass design and the filter bank's band covariances.

Filters are linear-phase windowed-sinc bandpasses (Hamming window),
normalized to unit gain at the band center.  :func:`apply_filter` runs one
filter over one trial's time series: zero-phase forward-backward filtering
with the warm-up transients trimmed.

The decoder reads only second-order band statistics, and forward-backward
filtering weights each frequency bin by ``|H_b(k)|^4``.  So every band
covariance the decoder trains on (:func:`band_covariances`,
:func:`decompose`) and every variance it serves (:func:`row_variances`) is
a weighted sum over one rfft of the trial, mean-removed and tapered: the
spectrally weighted view of CSP (Tomioka et al., 2006).  No band time series
is formed, and serving has one path for any number of rows or trial length.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .trialstore import Dataset, Trial, describe

DEFAULT_TAPS = 257

# Samples (channels x time, summed over trials) transformed together by the
# bank: large enough to amortise per-call overhead, small enough that the
# float64 and spectral temporaries of one batch stay near 2 MB each.
BATCH_SAMPLES = 1 << 18

# The share of a trial that the window's two half-cosine ramps cover (see _window).
TAPER = 0.25
# The share of a band's peak weight |H_b(k)|^4 that a bin of its support exceeds.
WEIGHT_CUTOFF = 1e-6


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
    """Band covariances of a labelled dataset.

    ``feature_covariances[b, i]`` is trial ``i``'s covariance in band ``b``
    (:func:`band_covariances`), one ``(n_bands, n_trials, C, C)`` stack: the
    log-variance features read it, and CSP averages it over a class divided
    by its trace.
    """

    bands: list[tuple[float, float]]
    taps: int
    sample_rate: float
    channel_names: list[str]
    class_names: list[str]
    labels: np.ndarray
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

    def subset(self, indices: list[int]) -> "BandDecomposition":
        """The given trials, in the given order."""
        indices = np.asarray(indices, dtype=np.int64)
        return replace(self, labels=self.labels[indices], feature_covariances=self.feature_covariances[:, indices])

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


def _check_taps(taps: int) -> None:
    if not isinstance(taps, (int, np.integer)) or taps % 2 == 0 or taps < 31:
        raise BankError("taps", f"taps must be an odd integer >= 31, got {describe(taps)}")


def check_bank(bands, sample_rate: float, taps: int) -> None:
    """Raise :class:`BankError` unless every band of ``bands`` can be designed.

    The rules: a positive finite ``sample_rate``, an odd integer ``taps`` of
    at least 31 and ``0 < low < high < sample_rate / 2`` for each
    ``(low, high)``.
    """
    if not 0.0 < sample_rate < np.inf:  # exact comparisons: NaN fails, and an integer is never converted
        raise BankError("sample_rate", f"sample rate must be positive and finite, got {sample_rate}")
    _check_taps(taps)
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


def _next_fast_len(n: int) -> int:
    """The least ``2^a 3^b 5^c >= n``: a length the FFT factors into small radices."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # The least power of two times p35 that reaches n.
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _causal(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    # Causal FIR pass along the last axis, same length as the input: the
    # full linear convolution by one zero-padded real FFT product, truncated.
    n = x.shape[1]
    n_fft = _next_fast_len(n + len(h) - 1)
    return np.fft.irfft(np.fft.rfft(x, n_fft, axis=1) * np.fft.rfft(h, n_fft), n_fft, axis=1)[:, :n]


def _check_filterable(trial: Trial, sample_rate: float, taps: int) -> None:
    if trial.sample_rate != sample_rate:
        raise ValueError(f"trial rate {trial.sample_rate} != filter rate {sample_rate}")
    if trial.n_samples <= 3 * taps:
        raise ValueError(f"trial too short to filter: {trial.n_samples} samples <= 3 x {taps} taps")


def apply_filter(trial: Trial, fir: FirFilter) -> Trial:
    """Zero-phase forward-backward filtering of one trial.

    Runs the kernel causally, reverses, runs it again and reverses back, so
    the net phase is zero and the magnitude response is squared.  The first
    and last ``taps - 1`` samples (filter warm-up in each direction) are
    discarded.
    """
    taps = fir.taps
    _check_filterable(trial, fir.sample_rate, taps)
    x = trial.samples.astype(np.float64)
    y = _causal(x, fir.coefficients)
    y = _causal(y[:, ::-1], fir.coefficients)[:, ::-1]
    y = y[:, taps - 1 : trial.n_samples - (taps - 1)]
    return Trial(label=trial.label, samples=y, sample_rate=trial.sample_rate)


def make_bank(start: float, stop: float, width: float, taps: int = DEFAULT_TAPS) -> FilterBank:
    """Contiguous bank of ``width``-Hz bands covering [start, stop] (``0 < start``)."""
    if width <= 0 or stop <= start or start <= 0:
        raise ValueError("need width > 0 and 0 < start < stop")
    _check_taps(taps)
    count = (stop - start) / width
    # Below Nyquist, more bands than taps would each be narrower than half a bin of a kernel's spectrum.
    if not count <= taps:
        raise ValueError(f"({start}, {stop}) holds {count:.6g} bands of {describe(width)} Hz, more than {taps} taps")
    n_bands = int(round(count))
    if n_bands < 1 or abs(start + n_bands * width - stop) > 1e-9:
        raise ValueError(f"({start}, {stop}) is not an integer number of {describe(width)} Hz bands")
    bands = [(start + i * width, start + (i + 1) * width) for i in range(n_bands)]
    return FilterBank(bands=bands, taps=taps)


@functools.lru_cache(maxsize=16)
def _band_weights(bands: tuple, sample_rate: float, taps: int, n_fft: int) -> tuple[np.ndarray, np.ndarray]:
    # Forward-backward filtering weights the power in bin k by |H_b(k)|^4; a band's support is the bins whose
    # weight exceeds WEIGHT_CUTOFF of its peak.  The union of the supports and the (n_bands, bins) weights there,
    # zero off each band's own support, built once per band list and length and shared read-only.  Each row
    # comes from its own kernel, so a band's weights do not depend on the list they are cached with.
    kernels = [design_bandpass(low, high, sample_rate, taps).coefficients for low, high in bands]
    weights = np.abs(np.stack([np.fft.rfft(h, n_fft) for h in kernels])) ** 4
    weights[weights <= WEIGHT_CUTOFF * weights.max(axis=1, keepdims=True)] = 0.0
    bins = np.flatnonzero(weights.any(axis=0))
    weights = weights[:, bins]
    bins.flags.writeable = weights.flags.writeable = False
    return bins, weights


@functools.lru_cache(maxsize=16)
def _window(length: int) -> tuple[int, np.ndarray]:
    # n_fft and the read-only window of length-sample trials: 1, with half-cosine ramps over TAPER / 2 of the
    # trial at each end (a Tukey window), times sqrt(2 / (n_fft * length)).
    n_fft, ramp = _next_fast_len(length), np.minimum(np.arange(length), np.arange(length)[::-1])
    window = 0.5 - 0.5 * np.cos(np.pi * np.minimum(ramp / (TAPER * (length - 1) / 2), 1.0))
    window *= np.sqrt(2.0 / (n_fft * length))
    window.flags.writeable = False
    return n_fft, window


def _spectra(trials, sample_rate, bands, taps):
    """Yield ``(batch, power, spectra, weights)``: each trial of ``batch``'s centred power ``trace(x x^T) / n``,
    its spectrum ``(len(batch), C, bins)`` at the bins of ``bands`` and the bands' weights there.

    The spectrum is the ``_next_fast_len(n)``-point rfft of the trial mean-removed and multiplied by
    :func:`_window`, whose scale makes a signal's weighted power over a band's bins its variance in that band.
    Trials of equal length go through in batches of about ``BATCH_SAMPLES`` samples, and each trial's spectrum
    does not depend on its batch.
    """
    if not trials:
        raise ValueError("no trials to filter")
    same_length: dict[int, list[int]] = {}
    for i, trial in enumerate(trials):
        _check_filterable(trial, sample_rate, taps)
        same_length.setdefault(trial.n_samples, []).append(i)
    for length, indices in sorted(same_length.items()):
        n_fft, window = _window(length)
        bins, weights = _band_weights(tuple(map(tuple, bands)), sample_rate, taps, n_fft)
        step = max(1, BATCH_SAMPLES // (trials[0].n_channels * length))
        for batch in (indices[i : i + step] for i in range(0, len(indices), step)):
            samples = np.stack([trials[i].samples for i in batch], dtype=np.float64)
            samples -= samples.mean(axis=-1, keepdims=True)
            power = np.einsum("ict,ict->i", samples, samples) / length
            samples *= window
            yield batch, power, np.fft.rfft(samples, n_fft, axis=-1).take(bins, axis=-1), weights


def _refuse_silent(band_power: np.ndarray, power: np.ndarray, batch: list[int], bands) -> None:
    # A trial keeping at most 1e-12 of its centred power (``power[i, b]``, as the band's rows see it) in band b is
    # all zero there: an all-zero or constant trial, which mean removal leaves all zero.  A DC offset does not count.
    # Names the first band with a silent trial, and its first such trial.
    silent = band_power <= 1e-12 * power
    if np.any(silent):
        b = int(np.argmax(silent.any(axis=0)))
        raise ValueError(f"trial {int(batch[np.argmax(silent[:, b])])} is all zero in band {bands[b]}")


def band_covariances(
    trials: list[Trial], sample_rate: float, bands: list[tuple[float, float]], taps: int
) -> np.ndarray:
    """Each trial's covariance in each band, the ``(n_bands, n_trials, C, C)`` stack of :class:`BandDecomposition`:
    ``S_b = 2 Re sum_k w_b(k) X_k X_k^H / (n_fft * n)`` over the support of band ``b``, from the spectrum ``X`` and
    weights ``w_b = |H_b|^4`` of :func:`_spectra`.  A trial whose trace in a band is at most 1e-12 of its
    centred power is refused by name.
    """
    shape = (len(bands), len(trials), trials[0].n_channels, trials[0].n_channels) if trials else ()
    covariances = np.empty(shape)
    for batch, power, spectra, weights in _spectra(trials, sample_rate, bands, taps):
        traces = np.empty((len(batch), len(bands)))
        for b, weight in enumerate(weights):
            support = np.flatnonzero(weight)
            # Each bin as its (re, im) pair, so that the real product is Re(Y Y^H).
            y = (spectra.take(support, axis=-1) * np.sqrt(weight[support])).view(np.float64)
            covariances[b, batch] = covariance = y @ y.swapaxes(-1, -2)
            traces[:, b] = np.trace(covariance, axis1=-2, axis2=-1)
        _refuse_silent(traces, power[:, np.newaxis], batch, bands)
    return covariances


def row_variances(
    trials: list[Trial], sample_rate: float, bands: list[tuple[float, float]], taps: int,
    rows: np.ndarray, row_bands: np.ndarray,
) -> np.ndarray:
    """``(n_trials, R)`` variance of each trial in band ``bands[row_bands[r]]`` through spatial row ``rows[r]``
    (``rows`` is ``(R, C)``): ``diag(W S W^T)`` of :func:`band_covariances`' ``S`` up to rounding, from one
    product of all rows with the spectrum.  A trial is refused as there, with a band's rows in place of the
    channels: where their variances sum to at most 1e-12 of its power times their mean squared norm.
    """
    row_bands = np.asarray(row_bands)
    in_band = (row_bands[:, np.newaxis] == np.arange(len(bands))).astype(np.float64)
    scale = np.einsum("rc,rc->r", rows, rows) @ in_band / rows.shape[1]
    variances = np.empty((len(trials), len(rows)))
    for batch, power, spectra, weights in _spectra(trials, sample_rate, bands, taps):
        projected = rows @ spectra.view(np.float64)  # (re, im) pairs
        projected *= projected
        variances[batch] = variance = np.sum(weights[row_bands] * (projected[..., ::2] + projected[..., 1::2]), -1)
        _refuse_silent(variance @ in_band, power[:, np.newaxis] * scale, batch, bands)
    return variances


def decompose(dataset: Dataset, bank: FilterBank) -> BandDecomposition:
    """Every trial's covariance in every band of ``bank`` (see :func:`band_covariances`),
    trial order and labels preserved."""
    return BandDecomposition(
        bands=list(bank.bands),
        taps=bank.taps,
        sample_rate=dataset.sample_rate,
        channel_names=list(dataset.channel_names),
        class_names=list(dataset.class_names),
        labels=dataset.labels(),
        feature_covariances=band_covariances(dataset.trials, dataset.sample_rate, bank.bands, bank.taps),
    )
