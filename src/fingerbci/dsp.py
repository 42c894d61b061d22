"""FIR bandpass design and filter-bank decomposition.

Filters are linear-phase windowed-sinc bandpasses (Hamming window),
normalized to unit gain at the band center.  Application is zero-phase
forward-backward filtering with the warm-up transients trimmed, so band
power estimates downstream are not biased by edge effects.

:func:`apply_filter` runs one filter over one trial's time series.  The
filter bank (:func:`band_covariances`, :func:`decompose`) computes the same
output in one valid-mode convolution per band and keeps only the spatial
covariances that training reads.  Serving (:func:`row_variances`) keeps
only the centred variances of given spatial rows, each in its own band,
and filters all bands in one pass: one product, one kernel multiply and
one irfft over the rows or the channels, whichever are fewer.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

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
    features read).  Both stacks have shape ``(n_bands, n_trials, C, C)``.
    """

    bands: list[tuple[float, float]]
    taps: int
    sample_rate: float
    channel_names: list[str]
    class_names: list[str]
    labels: np.ndarray
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

    def subset(self, indices: list[int]) -> "BandDecomposition":
        """The given trials, in the given order."""
        indices = np.asarray(indices, dtype=np.int64)
        return replace(
            self,
            labels=self.labels[indices],
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


def _check_taps(taps: int) -> None:
    if not isinstance(taps, (int, np.integer)) or taps % 2 == 0 or taps < 31:
        raise BankError("taps", f"taps must be an odd integer >= 31, got {taps!r}")


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
    n_bands = int(round((stop - start) / width))
    if n_bands < 1 or abs(start + n_bands * width - stop) > 1e-9:
        raise ValueError(f"({start}, {stop}) is not an integer number of {width} Hz bands")
    bands = [(start + i * width, start + (i + 1) * width) for i in range(n_bands)]
    return FilterBank(bands=bands, taps=taps)


@functools.lru_cache(maxsize=16)
def _kernel_spectra(bands: tuple, sample_rate: float, taps: int, n_fft: int) -> np.ndarray:
    # The n_fft-point spectrum of each band kernel's autocorrelation, one row
    # per band, built once per band list and length and shared read-only by
    # every later call.  Each row is its own rfft, so a band's row does not
    # depend on the list it is cached with.
    kernels = [design_bandpass(low, high, sample_rate, taps).coefficients for low, high in bands]
    spectra = np.stack([np.fft.rfft(np.convolve(h, h[::-1]), n_fft) for h in kernels])
    spectra.flags.writeable = False
    return spectra


def _spectra(trials, sample_rate, taps, n_signals=0, fft_len=_next_fast_len):
    """Yield ``(batch, length, n_fft, spectra)``: the ``n_fft = fft_len(length)``-point rfft of the
    trials of ``batch``, each ``length`` samples long, ``(len(batch), C, n_fft // 2 + 1)``.

    Trials of equal length go through in batches of about ``BATCH_SAMPLES``
    samples of the ``max(C, n_signals)`` signals that the caller filters per
    trial, and each trial's spectrum does not depend on its batch.
    """
    if not trials:
        raise ValueError("no trials to filter")
    same_length: dict[int, list[int]] = {}
    for i, trial in enumerate(trials):
        _check_filterable(trial, sample_rate, taps)
        same_length.setdefault(trial.n_samples, []).append(i)
    for length in sorted(same_length):
        n_fft, indices = fft_len(length), same_length[length]
        step = max(1, BATCH_SAMPLES // (max(trials[0].n_channels, n_signals) * length))
        for batch in (indices[i : i + step] for i in range(0, len(indices), step)):
            samples = np.stack([trials[i].samples for i in batch], dtype=np.float64)
            yield batch, length, n_fft, np.fft.rfft(samples, n_fft, axis=-1)


def _refuse_silent(totals: np.ndarray, batch: list[int], bands) -> None:
    # ``totals[i, b]``: trial ``batch[i]``'s total variance in ``bands[b]``;
    # names the first band with a silent trial, and its first such trial.
    silent = totals <= 0.0
    if np.any(silent):
        b = int(np.argmax(silent.any(axis=0)))
        raise ValueError(f"trial {int(batch[np.argmax(silent[:, b])])} is all zero in band {bands[b]}")


def band_covariances(
    trials: list[Trial], sample_rate: float, bands: list[tuple[float, float]], taps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Filter each trial into each band and reduce it straight to the two
    covariances of :class:`BandDecomposition`.

    Zero-phase forward-backward filtering with ``taps - 1`` samples trimmed
    at each end is a valid-mode convolution with the kernel's
    autocorrelation ``h * h[::-1]`` (length ``2 * taps - 1``).  So each
    trial takes one rfft, and each band multiplies it by that kernel's
    spectrum, inverts and keeps the valid part.

    Returns ``(csp_covariances, feature_covariances)``.
    """
    shape = (len(bands), len(trials), trials[0].n_channels, trials[0].n_channels) if trials else ()
    csp_covariances, feature_covariances = np.empty(shape), np.empty(shape)
    for batch, length, n_fft, spectra in _spectra(trials, sample_rate, taps):
        kernels = _kernel_spectra(tuple(map(tuple, bands)), sample_rate, taps, n_fft)
        for b, (low, high) in enumerate(bands):
            y = np.fft.irfft(spectra * kernels[b], n_fft, axis=-1)[..., 2 * (taps - 1) : length]
            products = y @ y.swapaxes(-1, -2)
            traces = np.trace(products, axis1=-2, axis2=-1)
            _refuse_silent(traces[:, np.newaxis], batch, [(low, high)])
            means = y.mean(axis=-1)
            csp_covariances[b, batch] = products / traces[:, np.newaxis, np.newaxis]
            feature_covariances[b, batch] = products / y.shape[-1] - means[:, :, np.newaxis] * means[:, np.newaxis, :]
    return csp_covariances, feature_covariances


class RowPlan(NamedTuple):
    """What :func:`row_variances` reads for trials of one length: ``n_fft``, the ``valid`` samples, whether the rows
    ``project`` the spectra, the ``kernels`` laid out for that branch and the mask ``in_band`` of each row's band."""

    n_fft: int
    valid: slice
    project: bool
    kernels: np.ndarray
    in_band: np.ndarray


def row_plan(sample_rate: float, bands, taps: int, rows: np.ndarray, row_bands, length: int) -> RowPlan:
    """The :class:`RowPlan` of ``length``-sample trials; arguments as for :func:`row_variances`."""
    n_fft, row_bands = _next_fast_len(length), np.asarray(row_bands, dtype=np.intp)
    kernels = _kernel_spectra(tuple(map(tuple, bands)), sample_rate, taps, n_fft)
    project = len(rows) < len(bands) * rows.shape[1]
    in_band = (row_bands[:, np.newaxis] == np.arange(len(bands))).astype(np.float64)
    valid = slice(2 * (taps - 1), length)  # the outputs that the n_fft-point circular convolution does not wrap
    return RowPlan(n_fft, valid, project, kernels[row_bands] if project else kernels[:, np.newaxis], in_band)


def row_variances(
    trials: list[Trial], sample_rate: float, bands: list[tuple[float, float]], taps: int,
    rows: np.ndarray, row_bands: np.ndarray, plans=None,
) -> np.ndarray:
    """``(n_trials, R)`` centred variances of each trial filtered into band
    ``bands[row_bands[r]]`` and projected through ``rows[r]``, a ``(R, C)``
    stack of spatial rows: ``diag(W S W^T)`` of the centred covariances ``S``
    of :func:`band_covariances`, up to rounding.

    A spatial projection commutes with the filter, so all bands take one product, one
    kernel multiply, one irfft and one reduction, on whichever signals are fewer.  With
    fewer rows than ``len(bands) * C``, each row projects the trial's spectrum and gives
    its variance; otherwise every band filters the ``C`` channels, and each row reads its
    variance from its band's centred covariance.  A trial whose rows of one band have no
    variance in total is refused by name.  ``plans`` maps a trial length to its
    :func:`row_plan`, which a caller may keep for the same rows.
    """
    plans = plans or functools.partial(row_plan, sample_rate, bands, taps, rows, row_bands)
    variances = np.empty((len(trials), len(rows)))
    n_signals = min(len(rows), len(bands) * rows.shape[1])
    for batch, length, n_fft, spectra in _spectra(trials, sample_rate, taps, n_signals, lambda n: plans(n).n_fft):
        plan = plans(length)
        if plan.project:
            # Projected as one real product over (re, im) pairs.
            projected = (rows @ spectra.view(np.float64)).view(np.complex128)
            y = np.fft.irfft(projected * plan.kernels, n_fft, axis=-1)[..., plan.valid]
            variance = np.einsum("...t,...t->...", y, y) / y.shape[-1] - y.mean(axis=-1) ** 2
        else:
            y = np.fft.irfft(spectra[:, np.newaxis] * plan.kernels, n_fft, axis=-1)[..., plan.valid]
            means = y.mean(axis=-1)
            covariances = y @ y.swapaxes(-1, -2) / y.shape[-1] - means[..., :, np.newaxis] * means[..., np.newaxis, :]
            variance = np.einsum("rc,nrcd,rd->nr", rows, covariances[:, row_bands], rows)
        _refuse_silent(variance @ plan.in_band, batch, bands)
        variances[batch] = variance
    return variances


def decompose(dataset: Dataset, bank: FilterBank) -> BandDecomposition:
    """Run every trial through the filter bank (see :func:`band_covariances`).

    Trial order and labels are preserved; each trial loses
    ``2 * (taps - 1)`` samples to edge trimming.
    """
    csp_covariances, feature_covariances = band_covariances(
        dataset.trials, dataset.sample_rate, bank.bands, bank.taps
    )
    return BandDecomposition(
        bands=list(bank.bands),
        taps=bank.taps,
        sample_rate=dataset.sample_rate,
        channel_names=list(dataset.channel_names),
        class_names=list(dataset.class_names),
        labels=dataset.labels(),
        csp_covariances=csp_covariances,
        feature_covariances=feature_covariances,
    )
