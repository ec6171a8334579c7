"""DCO-OFDM modem: Hermitian-symmetric frames, pulse shaping, clipping,
synchronization, channel estimation, one-tap equalization and SNR/BER/rate
bookkeeping.

The transmitter works on a stack of frames [n_frames, n_carriers]: one real
inverse FFT of the positive-frequency bins along the last axis gives every
block's FFT core (the negative frequencies are their conjugate mirror, so
the cores are real by construction), the cyclic-prefixed blocks are laid
end to end and shaped by one root-raised-cosine filter at the oversampled
rate.  A single frame is a stack of one.

Both RRC filters run in polyphase form through one chunked overlap-save
routine, so no zero of the oversampled grid is filtered and no output the
modem does not use is computed.  TX shaping filters the symbol-rate stream
with each of the ``osf`` tap phases and interleaves the phases into the
result, which equals zero-stuffing and filtering at the full rate.  The
receiver locates the preamble by cross-correlation (the link searches only
the burst header), then filters the ``osf`` polyphase components of the
received stream into the one oversampling phase its FFT windows read,
gathers every block's zero-ISI samples into one matrix and runs one FFT
over it.  Filtering the whole stream at once equals overlap-adding
per-block shaped segments at the block stride in exact arithmetic; in
floating point the two differ by rounding only (about 1e-15 of the peak
sample).

DC bias is deliberately not applied here: biasing is a transmitter-side
operation of the link layer, and the DC and Nyquist bins are always zero.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# scipy.signal (about half a second to load) is imported by the two
# functions that convolve with it, not here: a harvest fit imports this
# module through ``link`` but never modulates.

from .loading import BitLoadingPlan
from .qam import VALID_ORDERS, qam_demodulate, qam_modulate

__all__ = [
    "OfdmConfig",
    "SubcarrierSnr",
    "SyncError",
    "generate_bits",
    "ofdm_core",
    "assemble_frame",
    "overlap_add",
    "rrc_taps",
    "make_preamble",
    "clip",
    "synchronize",
    "matched_filter",
    "receive_blocks",
    "estimate_channel",
    "equalize",
    "estimate_snr",
    "measure_ber",
    "data_rate",
    "modulate_plan",
    "demodulate_plan",
]

# root-raised-cosine filter span in symbols, half on each side of the peak
_RRC_SPAN = 96

# reported SNR of an error-free carrier, dB
_SNR_CEILING_DB = 60.0

# smallest preamble peak-to-sidelobe ratio the synchronizer accepts, dB
_MIN_PSL_DB = 3.0


class SyncError(RuntimeError):
    """Preamble correlation produced no usable peak."""


@dataclass(frozen=True)
class OfdmConfig:
    """Modem constants; defaults follow the experimental parameter set."""

    fft_size: int = 1024
    cp_length: int = 5
    clip_sigma: float | None = 3.2
    max_qam_order: int = 1024
    oversampling_factor: int = 4
    rolloff: float = 0.1
    sample_rate_hz: float = 7.68e9

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # None switches clipping off
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.fft_size < 8 or self.fft_size & (self.fft_size - 1):
            raise ValueError("fft_size must be a power of two >= 8")
        if not 0 <= self.cp_length < self.fft_size:
            raise ValueError("cp_length must satisfy 0 <= cp < fft_size")
        if self.max_qam_order not in VALID_ORDERS:
            raise ValueError(f"max_qam_order must be one of {VALID_ORDERS}")
        if self.oversampling_factor < 1:
            raise ValueError("oversampling_factor must be >= 1")
        if not 0.0 < self.rolloff < 1.0:
            raise ValueError("rolloff must lie in (0, 1)")
        if self.clip_sigma is not None and self.clip_sigma <= 0:
            raise ValueError("clip_sigma must be positive (None disables)")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")

    @property
    def data_subcarriers(self) -> int:
        """Unique-information carriers under Hermitian symmetry."""
        return self.fft_size // 2 - 1

    @property
    def block_length(self) -> int:
        """CP plus FFT core, at symbol rate."""
        return self.fft_size + self.cp_length

    @property
    def block_stride(self) -> int:
        """Shaped-stream samples consumed per block."""
        return self.block_length * self.oversampling_factor

    @property
    def preamble_length(self) -> int:
        # fft/4 at the default size; floored so miniature test configs still
        # give the correlator enough processing gain
        return max(self.fft_size // 4, 64)

    @property
    def subcarrier_spacing_hz(self) -> float:
        return self.sample_rate_hz / (self.fft_size * self.oversampling_factor)

    def carrier_frequencies_hz(self) -> np.ndarray:
        return (np.arange(self.data_subcarriers) + 1) * self.subcarrier_spacing_hz


@dataclass
class SubcarrierSnr:
    """Per-carrier linear SNR; ``measured`` is False where no symbols ran."""

    snr_linear: np.ndarray
    measured: np.ndarray

    def __post_init__(self):
        self.snr_linear = np.asarray(self.snr_linear, dtype=float)
        self.measured = np.asarray(self.measured, dtype=bool)
        if np.any(~np.isfinite(self.snr_linear)) or np.any(self.snr_linear < 0):
            raise ValueError("snr values must be finite and non-negative")

    def db(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return 10.0 * np.log10(self.snr_linear)


# ---------------------------------------------------------------------------
# Bit source
# ---------------------------------------------------------------------------

def generate_bits(seed, count: int) -> np.ndarray:
    """Deterministic pseudorandom bit sequence (uint8 zeros/ones)."""
    if count < 0:
        raise ValueError("count must be non-negative")
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=count, dtype=np.uint8)


# ---------------------------------------------------------------------------
# Frame cores
# ---------------------------------------------------------------------------

def _real_ifft(bins: np.ndarray, n: int) -> np.ndarray:
    """Real length-``n`` inverse FFT of positive-frequency ``bins`` [..., n/2 - 1]
    placed on bins 1 .. n/2 - 1, with DC and Nyquist zero.  The negative
    frequencies are the conjugate mirror, so the signal is real by
    construction."""
    half = np.zeros(bins.shape[:-1] + (n // 2 + 1,), dtype=complex)
    half[..., 1 : n // 2] = bins
    return np.fft.irfft(half, n, axis=-1)


def ofdm_core(symbols, config: OfdmConfig) -> np.ndarray:
    """Real IFFT cores of a block or a stack of blocks [..., n_carriers]."""
    symbols = np.asarray(symbols, dtype=complex)
    n_data = config.data_subcarriers
    if symbols.shape[-1] != n_data:
        raise ValueError(f"expected {n_data} data symbols, got {symbols.shape[-1]}")
    return _real_ifft(symbols, config.fft_size)


# ---------------------------------------------------------------------------
# Pulse shaping
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _rrc_taps_cached(osf: int, rolloff: float) -> np.ndarray:
    """Windowed root-raised-cosine taps, passband gain = osf.

    The mild Kaiser window keeps truncation sidelobes below -80 dB while the
    transmit/receive cascade, sampled at the zero-ISI instants, leaves less
    than -50 dB of energy outside the cyclic-prefix window; the one-tap
    equalizer removes everything inside it.
    """
    n = _RRC_SPAN * osf + 1
    t = (np.arange(n) - (n - 1) / 2) / osf
    beta = rolloff
    taps = np.empty(n)
    for i, ti in enumerate(t):
        if abs(ti) < 1e-12:
            taps[i] = 1.0 + beta * (4.0 / math.pi - 1.0)
        elif abs(abs(ti) - 1.0 / (4.0 * beta)) < 1e-9:
            taps[i] = (beta / math.sqrt(2.0)) * (
                (1.0 + 2.0 / math.pi) * math.sin(math.pi / (4.0 * beta))
                + (1.0 - 2.0 / math.pi) * math.cos(math.pi / (4.0 * beta))
            )
        else:
            num = (
                math.sin(math.pi * ti * (1.0 - beta))
                + 4.0 * beta * ti * math.cos(math.pi * ti * (1.0 + beta))
            )
            den = math.pi * ti * (1.0 - (4.0 * beta * ti) ** 2)
            taps[i] = num / den
    taps *= np.kaiser(n, 5.0)
    taps = taps * (osf / taps.sum())
    taps.setflags(write=False)
    return taps


def rrc_taps(config: OfdmConfig) -> np.ndarray:
    """The RRC taps of ``config``: a cached array, read-only because every
    caller shares it."""
    return _rrc_taps_cached(config.oversampling_factor, config.rolloff)


@lru_cache(maxsize=8)
def _polyphase_taps_cached(osf: int, rolloff: float) -> np.ndarray:
    """The RRC taps split into their ``osf`` phases: row p holds taps p,
    p + osf, p + 2*osf, ..., zero-padded to ``ceil(len(taps) / osf)``."""
    taps = _rrc_taps_cached(osf, rolloff)
    n_phase = -(-len(taps) // osf)
    table = np.zeros(n_phase * osf)
    table[: len(taps)] = taps
    table = np.ascontiguousarray(table.reshape(n_phase, osf).T)
    table.setflags(write=False)
    return table


# overlap-save blocks transformed per chunk by both RRC filters (TX shaping
# and the phase-only matched filter): it bounds their working memory (about
# 2 MB at 4x oversampling) whatever the stream length
_CHUNK_BLOCKS = 64


def _fft_size(n_taps: int) -> int:
    """Overlap-save transform length for ``n_taps`` taps: the smallest power
    of two of at least ``8 * n_taps``, so the overlap costs under an eighth
    of each transform."""
    return 1 << (8 * n_taps - 1).bit_length()


def _window(x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """``x[lo:hi]`` with zeros where the range leaves ``x``."""
    if 0 <= lo and hi <= len(x):
        return x[lo:hi]
    out = np.zeros(hi - lo)
    a, b = max(lo, 0), min(hi, len(x))
    if a < b:
        out[a - lo : b - lo] = x[a:b]
    return out


def _overlap_save(
    x: np.ndarray, bank: np.ndarray, first: int, count: int
) -> np.ndarray:
    """A bank of multi-input FIR filters, by chunked overlap-save.

    ``bank`` is [n_out, n_in, K].  The input ``x`` interleaves ``n_in``
    components, ``x_r[i] = x[n_in*i + r]`` (zero outside ``x``), and the
    result ``y`` [count, n_out] holds ``y[j, k] = sum_r (x_r * bank[k, r])
    [first + j]``, indexing the full convolutions.  Overlap-save blocks of
    ``nfft`` samples per component give ``nfft - K + 1`` outputs each: per
    block the components are transformed once, weighted by every filter's
    spectrum, summed over the components and inverted once per output.
    Blocks are transformed ``_CHUNK_BLOCKS`` at a time, so the result is the
    only array that grows with ``count``.
    """
    n_out, n_in, n_taps = bank.shape
    nfft = _fft_size(n_taps)
    step = nfft - n_taps + 1
    b_spec = np.fft.rfft(bank, nfft)[:, :, None, :]
    out = np.empty((count, n_out))
    for j in range(0, count, step * _CHUNK_BLOCKS):
        n = min(step * _CHUNK_BLOCKS, count - j)
        n_blk = -(-n // step)
        lo = first + j - (n_taps - 1)
        hi = lo + (n_blk - 1) * step + nfft
        comps = _window(x, n_in * lo, n_in * hi).reshape(-1, n_in).T
        blocks = sliding_window_view(comps, nfft, axis=-1)[:, ::step]
        spec = np.fft.rfft(blocks, axis=-1)
        y = np.fft.irfft((spec * b_spec).sum(axis=1), nfft, axis=-1)
        out[j : j + n] = y[..., n_taps - 1 :].reshape(n_out, -1)[:, :n].T
    return out


def _shape(samples_1x: np.ndarray, config: OfdmConfig) -> np.ndarray:
    """The RRC filter applied to the zero-stuffed oversampled stream (full
    convolution), computed in polyphase form.

    Output sample ``j*osf + p`` is the symbol-rate input convolved with tap
    phase p, so no zero is filtered: one input, ``osf`` filters, written
    phase-interleaved straight into the result.  Equals the full-rate
    convolution up to rounding; an empty input gives an empty output.
    """
    if len(samples_1x) == 0:
        return np.zeros(0)
    osf = config.oversampling_factor
    n = len(samples_1x) * osf + len(rrc_taps(config)) - 1
    phases = _polyphase_taps_cached(osf, config.rolloff)
    count = -(-n // osf)  # outputs per phase
    return _overlap_save(samples_1x, phases[:, None, :], 0, count).ravel()[:n]


def assemble_frame(symbols, config: OfdmConfig) -> np.ndarray:
    """Shaped real sample stream of a frame or a stack of frames.

    ``symbols`` is [n_carriers] or [n_frames, n_carriers].  Each block is
    IFFT'd and cyclic-prefixed; the blocks are laid end to end at
    ``config.block_length`` symbols each, so block b of the returned full
    convolution starts at sample ``b * config.block_stride``.
    """
    core = np.atleast_2d(ofdm_core(symbols, config))
    cp = config.cp_length
    blocks = np.concatenate([core[:, -cp:], core], axis=1) if cp else core
    del core  # shaping holds the stream and its result, not the bare cores
    return _shape(blocks.ravel(), config)


def overlap_add(segments, stride: int) -> np.ndarray:
    """Combine shaped segments at fixed stride (linearity of the filter)."""
    segments = list(segments)
    if not segments:
        return np.zeros(0)
    length = stride * (len(segments) - 1) + len(segments[-1])
    out = np.zeros(length)
    for i, seg in enumerate(segments):
        out[i * stride : i * stride + len(seg)] += seg
    return out


def group_delay(config: OfdmConfig) -> int:
    """One-way filter delay in oversampled samples."""
    return (len(rrc_taps(config)) - 1) // 2


# ---------------------------------------------------------------------------
# Preamble and synchronization
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _preamble_core_cached(n_p: int, rms: float) -> np.ndarray:
    """Real constant-amplitude-spectrum preamble core of length n_p.

    A Zadoff-Chu sequence fills the positive-frequency bins; their real
    inverse FFT keeps the flat magnitude spectrum that gives the sharp
    correlation peak.
    """
    n_bins = n_p // 2 - 1
    k = np.arange(n_bins)
    zc = np.exp(-1j * math.pi * 25 * k * (k + 1) / n_bins)
    core = _real_ifft(zc, n_p)
    core = core * (rms / np.sqrt(np.mean(core**2)))
    core.setflags(write=False)
    return core


def make_preamble(config: OfdmConfig) -> tuple[np.ndarray, np.ndarray]:
    """(unshaped core at symbol rate, shaped segment) of the sync preamble.

    The preamble RMS matches a fully loaded unit-energy frame so it neither
    stresses the transmitter's linear window nor skews the stream's
    standard deviation.  The core is cached and read-only.
    """
    frame_rms = math.sqrt(2.0 * config.data_subcarriers) / config.fft_size
    core = _preamble_core_cached(config.preamble_length, frame_rms)
    return core, _shape(core, config)


def synchronize(stream, reference) -> int:
    """Locate the reference waveform in the stream by cross-correlation.

    Returns the start index of the reference within the stream.  The peak
    must clear the largest sidelobe (outside the correlation main lobe) by
    3 dB in power, otherwise a :class:`SyncError` is raised; so is a stream
    that does not correlate with the reference at all (a silent burst).
    The sidelobe level is taken over every lag of the given stream, so it
    depends on how much of a burst is passed: ``link.run_link`` passes only
    the burst header (preamble, pilot blocks and one block of margin), and
    its check is measured over that fixed window, not over the payload.
    """
    from scipy.signal import oaconvolve

    stream = np.asarray(stream, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if len(stream) < len(reference):
        raise ValueError("stream shorter than the reference")
    corr = oaconvolve(stream, reference[::-1], mode="valid")
    mag = np.abs(corr)
    peak = int(np.argmax(mag))
    if mag[peak] == 0.0:
        raise SyncError("the stream does not correlate with the reference")
    exclusion = max(len(reference) // 8, 4)
    lo = max(peak - exclusion, 0)
    hi = min(peak + exclusion + 1, len(mag))
    sidelobes = np.concatenate([mag[:lo], mag[hi:]])
    sidelobe = sidelobes.max() if sidelobes.size else 0.0
    if sidelobe > 0 and 20.0 * math.log10(mag[peak] / sidelobe) < _MIN_PSL_DB:
        raise SyncError(
            f"peak-to-sidelobe ratio "
            f"{20.0 * math.log10(mag[peak] / max(sidelobe, 1e-300)):.2f} dB "
            f"below the {_MIN_PSL_DB:.1f} dB threshold"
        )
    return peak


def matched_filter(stream, config: OfdmConfig) -> np.ndarray:
    """Receive RRC (matched to the transmit filter), unit passband gain.

    The full-rate reference: every sample of the full convolution, length
    ``len(stream) + len(taps) - 1``.  The link does not call it:
    :func:`receive_blocks` filters the one phase it reads.
    """
    from scipy.signal import oaconvolve

    taps = rrc_taps(config) / config.oversampling_factor
    return oaconvolve(np.asarray(stream, dtype=float), taps)


def _matched_filter_phase(
    stream: np.ndarray, start: int, count: int, config: OfdmConfig
) -> np.ndarray:
    """Samples ``start + k*osf``, ``k < count``, of :func:`matched_filter`'s
    output, without computing the other phases.

    Let ``first, q = divmod(start, osf)`` and ``s_r[i] = stream[osf*i + r]``
    be the r-th polyphase component of the input.  Output sample
    ``q + osf*j`` is ``sum_r (s_r * c_r)[j]``, where ``c_r`` is tap phase
    ``(q - r) mod osf``, delayed one sample when ``r > q``: ``osf`` inputs,
    one filter.
    """
    osf = config.oversampling_factor
    first, q = divmod(start, osf)
    phases = _polyphase_taps_cached(osf, config.rolloff) / osf
    c = np.zeros((1, osf, phases.shape[1] + 1))
    for r in range(osf):
        delay = int(r > q)
        c[0, r, delay : delay + phases.shape[1]] = phases[(q - r) % osf]
    return _overlap_save(stream, c, first, count)[:, 0]


def receive_blocks(
    stream,
    first_block_start: int,
    n_blocks: int,
    config: OfdmConfig,
) -> np.ndarray:
    """Matched-filter, down-sample, strip CP and FFT a run of blocks of the
    received (unfiltered) stream.

    ``first_block_start`` is the index in ``stream`` where the first shaped
    block segment begins; the two filter group delays are compensated here.
    The FFT window is advanced by half the cyclic prefix so the symmetric
    filter-cascade tails (pre- and post-cursors) both land inside the CP,
    where the one-tap equalizer removes them exactly.

    Every sample read lies on one phase of the oversampled grid (the block
    stride is a multiple of the oversampling factor), so only that phase of
    the matched filter is computed, over the span the windows cover; it
    equals :func:`matched_filter` at those samples up to rounding.  Window
    bounds are checked against the full-rate filter output, of length
    ``len(stream) + len(taps) - 1``.

    Returns data-carrier symbols [n_blocks, data_subcarriers].
    """
    stream = np.asarray(stream, dtype=float)
    osf = config.oversampling_factor
    delay = 2 * group_delay(config)
    advance = config.cp_length // 2
    first = first_block_start + delay + (config.cp_length - advance) * osf
    last = first + (n_blocks - 1) * config.block_stride + (config.fft_size - 1) * osf
    if n_blocks > 0 and first < 0:
        raise ValueError("first FFT window starts before the stream")
    if n_blocks > 0 and last >= len(stream) + len(rrc_taps(config)) - 1:
        raise ValueError("stream too short for the requested block count")
    n_sym = config.block_length
    y = _matched_filter_phase(stream, first, n_blocks * n_sym, config)
    windows = y.reshape(n_blocks, n_sym)[:, : config.fft_size]
    return np.fft.rfft(windows, axis=-1)[:, 1 : config.fft_size // 2]


# ---------------------------------------------------------------------------
# Clipping
# ---------------------------------------------------------------------------

def clip(
    samples,
    sigma_multiple: float,
    sigma: float | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Symmetric clipping at +/- sigma_multiple times the stream's std-dev.

    ``sigma`` is the stream's std-dev when the caller has already computed
    it.  A constant (zero-variance) stream is returned unchanged: there is
    no scale to clip against.  The result is written into ``out`` (a float
    array of the stream's length) when given, else into a new array; the
    input is never modified unless it is ``out``.
    """
    if sigma_multiple <= 0:
        raise ValueError("sigma_multiple must be positive")
    samples = np.asarray(samples, dtype=float)
    if sigma is None:
        sigma = samples.std()
    if out is None:
        out = np.empty_like(samples)
    rms = math.sqrt(np.dot(samples, samples) / samples.size) if samples.size else 0.0
    # a (numerically) constant stream has no scale to clip against
    if sigma == 0.0 or sigma <= 1e-12 * rms:
        out[...] = samples
        return out
    limit = sigma_multiple * sigma
    return np.clip(samples, -limit, limit, out=out)


# ---------------------------------------------------------------------------
# Channel estimation, equalization, measurement
# ---------------------------------------------------------------------------

def estimate_channel(rx_pilot_symbols, tx_pilot_symbols) -> np.ndarray:
    """Least-squares one-tap gains averaged over pilot repetitions.

    Carriers whose pilot is zero get gain 0 (flagged unusable downstream).
    """
    rx = np.atleast_2d(np.asarray(rx_pilot_symbols, dtype=complex))
    tx = np.asarray(tx_pilot_symbols, dtype=complex)
    if rx.shape[1] != tx.shape[0]:
        raise ValueError("pilot shape mismatch")
    gains = np.zeros(tx.shape[0], dtype=complex)
    nz = tx != 0
    gains[nz] = rx[:, nz].mean(axis=0) / tx[nz]
    return gains


def equalize(symbols, gains) -> np.ndarray:
    """One-tap division per carrier; zero-gain carriers equalize to zero."""
    symbols = np.asarray(symbols, dtype=complex)
    gains = np.asarray(gains, dtype=complex)
    return np.divide(symbols, gains, out=np.zeros_like(symbols), where=gains != 0)


def estimate_snr(equalized_symbols, reference_symbols) -> SubcarrierSnr:
    """EVM-based per-carrier SNR: E[|ref|^2] / E[|eq - ref|^2].

    Carriers that never carried a symbol are flagged unmeasured (snr 0).
    Error-free carriers report a 60 dB ceiling.  Accuracy needs on
    the order of a hundred symbols per carrier.
    """
    eq = np.atleast_2d(np.asarray(equalized_symbols, dtype=complex))
    ref = np.atleast_2d(np.asarray(reference_symbols, dtype=complex))
    if eq.shape != ref.shape:
        raise ValueError("equalized and reference symbol shapes differ")
    if eq.shape[0] < 100:
        warnings.warn(
            f"SNR estimated from only {eq.shape[0]} symbols per carrier; "
            "accuracy needs on the order of 100",
            stacklevel=2,
        )
    sig = np.mean(np.abs(ref) ** 2, axis=0)
    err = np.mean(np.abs(eq - ref) ** 2, axis=0)
    ceiling = 10.0 ** (_SNR_CEILING_DB / 10.0)
    measured = sig > 0
    snr = np.zeros(eq.shape[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = np.where(err > 0, sig / np.maximum(err, 1e-300), np.inf)
    snr[measured] = np.minimum(raw[measured], ceiling)
    return SubcarrierSnr(snr, measured)


def measure_ber(tx_bits, rx_bits) -> float:
    """Fraction of mismatched bits; streams must have equal length."""
    tx = np.asarray(tx_bits).ravel()
    rx = np.asarray(rx_bits).ravel()
    if tx.shape != rx.shape:
        raise ValueError(f"bit stream lengths differ: {tx.size} vs {rx.size}")
    if tx.size == 0:
        return 0.0
    return float(np.mean(tx != rx))


def data_rate(plan: BitLoadingPlan, config: OfdmConfig) -> float:
    """Payload rate in bits/s: sum(b_k) * fs / ((fft + cp) * osf)."""
    return plan.total_bits * config.sample_rate_hz / config.block_stride


# ---------------------------------------------------------------------------
# Plan-driven modulation
# ---------------------------------------------------------------------------

def modulate_plan(bits, plan: BitLoadingPlan, n_frames: int) -> np.ndarray:
    """Map a bit stream onto per-carrier constellations and power scales.

    Bits are consumed frame-major, carrier by carrier in index order.
    Returns frequency-domain symbols [n_frames, n_carriers].
    """
    bits = np.asarray(bits, dtype=np.uint8)
    bpf = plan.total_bits
    if bpf == 0:
        return np.zeros((n_frames, plan.bits.size), dtype=complex)
    if bits.size != n_frames * bpf:
        raise ValueError(f"need {n_frames * bpf} bits, got {bits.size}")
    frame_bits = bits.reshape(n_frames, bpf)
    offsets = np.concatenate([[0], np.cumsum(plan.bits)])
    out = np.zeros((n_frames, plan.bits.size), dtype=complex)
    for b in np.unique(plan.bits):
        if b == 0:
            continue
        carriers = np.nonzero(plan.bits == b)[0]
        cols = np.concatenate(
            [np.arange(offsets[k], offsets[k] + b) for k in carriers]
        )
        chunk = frame_bits[:, cols].reshape(-1, b)
        syms = qam_modulate(chunk.ravel(), 2**b).reshape(n_frames, len(carriers))
        out[:, carriers] = syms * np.sqrt(plan.power[carriers])
    return out


def demodulate_plan(symbols, plan: BitLoadingPlan) -> np.ndarray:
    """Inverse of :func:`modulate_plan`: recover the frame-major bit stream."""
    symbols = np.atleast_2d(np.asarray(symbols, dtype=complex))
    n_frames = symbols.shape[0]
    bpf = plan.total_bits
    if bpf == 0:
        return np.zeros(0, dtype=np.uint8)
    frame_bits = np.zeros((n_frames, bpf), dtype=np.uint8)
    offsets = np.concatenate([[0], np.cumsum(plan.bits)])
    for b in np.unique(plan.bits):
        if b == 0:
            continue
        carriers = np.nonzero(plan.bits == b)[0]
        scaled = symbols[:, carriers] / np.sqrt(plan.power[carriers])
        rec = qam_demodulate(scaled.ravel(), 2**b).reshape(n_frames, len(carriers), b)
        cols = np.concatenate(
            [np.arange(offsets[k], offsets[k] + b) for k in carriers]
        )
        frame_bits[:, cols] = rec.reshape(n_frames, -1)
    return frame_bits.ravel()
