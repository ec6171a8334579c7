"""DCO-OFDM modem: Hermitian-symmetric frames, pulse shaping, clipping,
synchronization, channel estimation, one-tap equalization and SNR/BER/rate
bookkeeping.

The frame pipeline is block-based: each OFDM block (FFT core plus cyclic
prefix) is zero-stuffed by the oversampling factor and shaped with a
root-raised-cosine filter; whole-stream assembly overlap-adds the shaped
segments, which is numerically identical to filtering the concatenated
sample stream.  The receiver applies the matched filter, locates the
preamble by cross-correlation, and samples the raised-cosine cascade at its
zero-ISI instants before the FFT.

DC bias is deliberately not applied here: biasing is a transmitter-side
operation of the link layer, and the DC and Nyquist bins are always zero.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.signal import fftconvolve

from .loading import BitLoadingPlan
from .qam import VALID_ORDERS, qam_demodulate, qam_modulate

__all__ = [
    "OfdmConfig",
    "SubcarrierSnr",
    "SyncError",
    "generate_bits",
    "hermitian_spectrum",
    "symbols_from_spectrum",
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

REALNESS_TOL = 1e-10


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
    rrc_span: int = 96
    snr_ceiling_db: float = 60.0

    def __post_init__(self):
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
    def symbol_rate_hz(self) -> float:
        return self.sample_rate_hz / self.block_stride

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
# Spectrum construction
# ---------------------------------------------------------------------------

def hermitian_spectrum(symbols, fft_size: int) -> np.ndarray:
    """Full FFT bin vector with X[N-k] = conj(X[k]); DC and Nyquist zero."""
    symbols = np.asarray(symbols, dtype=complex)
    n_data = fft_size // 2 - 1
    if symbols.shape[-1] != n_data:
        raise ValueError(f"expected {n_data} data symbols, got {symbols.shape[-1]}")
    spectrum = np.zeros(symbols.shape[:-1] + (fft_size,), dtype=complex)
    spectrum[..., 1 : n_data + 1] = symbols
    spectrum[..., fft_size - 1 : fft_size // 2 : -1] = np.conj(symbols)
    return spectrum


def symbols_from_spectrum(spectrum) -> np.ndarray:
    """Data payload of a full bin vector (bins 1 .. N/2-1)."""
    spectrum = np.asarray(spectrum)
    fft_size = spectrum.shape[-1]
    return spectrum[..., 1 : fft_size // 2]


def ofdm_core(symbols, config: OfdmConfig) -> np.ndarray:
    """Real IFFT core of one block; verifies the Hermitian realness residue."""
    spectrum = hermitian_spectrum(symbols, config.fft_size)
    core = np.fft.ifft(spectrum, axis=-1)
    rms = np.sqrt(np.mean(np.abs(core) ** 2))
    if rms > 0:
        residue = np.sqrt(np.mean(core.imag**2)) / rms
        if residue > REALNESS_TOL:
            raise AssertionError(
                f"Hermitian construction left imaginary residue {residue:.3e}"
            )
    return core.real


# ---------------------------------------------------------------------------
# Pulse shaping
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _rrc_taps_cached(osf: int, rolloff: float, span: int) -> np.ndarray:
    """Windowed root-raised-cosine taps, passband gain = osf.

    The mild Kaiser window keeps truncation sidelobes below -80 dB while the
    transmit/receive cascade, sampled at the zero-ISI instants, leaves less
    than -50 dB of energy outside the cyclic-prefix window (at the default
    span); the one-tap equalizer removes everything inside it.
    """
    n = span * osf + 1
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
    return taps * (osf / taps.sum())


def rrc_taps(config: OfdmConfig) -> np.ndarray:
    return _rrc_taps_cached(config.oversampling_factor, config.rolloff, config.rrc_span)


def _shape(block_1x: np.ndarray, config: OfdmConfig) -> np.ndarray:
    """Zero-stuff to the oversampled rate and apply the RRC filter (full)."""
    osf = config.oversampling_factor
    up = np.zeros(len(block_1x) * osf)
    up[::osf] = block_1x
    return fftconvolve(up, rrc_taps(config))


def assemble_frame(symbols, config: OfdmConfig) -> np.ndarray:
    """Shaped real sample segment of one block: IFFT, CP, oversample, RRC.

    The returned segment is the full convolution; adjacent blocks are
    combined with :func:`overlap_add` at ``config.block_stride`` spacing.
    """
    core = ofdm_core(symbols, config)
    block = np.concatenate([core[-config.cp_length :], core]) if config.cp_length else core
    return _shape(block, config)


def overlap_add(segments, stride: int, total_pad: int = 0) -> np.ndarray:
    """Combine shaped segments at fixed stride (linearity of the filter)."""
    segments = list(segments)
    if not segments:
        return np.zeros(total_pad)
    length = stride * (len(segments) - 1) + len(segments[-1]) + total_pad
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

    A Zadoff-Chu sequence fills the positive-frequency bins; Hermitian
    symmetry makes the time signal real while keeping the flat magnitude
    spectrum that gives the sharp correlation peak.
    """
    n_bins = n_p // 2 - 1
    k = np.arange(n_bins)
    zc = np.exp(-1j * math.pi * 25 * k * (k + 1) / n_bins)
    spectrum = np.zeros(n_p, dtype=complex)
    spectrum[1 : n_bins + 1] = zc
    spectrum[n_p - 1 : n_p // 2 : -1] = np.conj(zc)
    core = np.fft.ifft(spectrum).real
    return core * (rms / np.sqrt(np.mean(core**2)))


def make_preamble(config: OfdmConfig) -> tuple[np.ndarray, np.ndarray]:
    """(unshaped core at symbol rate, shaped segment) of the sync preamble.

    The preamble RMS matches a fully loaded unit-energy frame so it neither
    stresses the transmitter's linear window nor skews the stream's
    standard deviation.
    """
    frame_rms = math.sqrt(2.0 * config.data_subcarriers) / config.fft_size
    core = _preamble_core_cached(config.preamble_length, frame_rms)
    return core, _shape(core, config)


def synchronize(stream, reference, min_psl_db: float = 3.0) -> int:
    """Locate the reference waveform in the stream by cross-correlation.

    Returns the start index of the reference within the stream.  The peak
    must clear the largest sidelobe (outside the correlation main lobe) by
    ``min_psl_db`` dB in power, otherwise a :class:`SyncError` is raised.
    """
    stream = np.asarray(stream, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if len(stream) < len(reference):
        raise ValueError("stream shorter than the reference")
    corr = fftconvolve(stream, reference[::-1], mode="valid")
    mag = np.abs(corr)
    peak = int(np.argmax(mag))
    exclusion = max(len(reference) // 8, 4)
    lo = max(peak - exclusion, 0)
    hi = min(peak + exclusion + 1, len(mag))
    sidelobes = np.concatenate([mag[:lo], mag[hi:]])
    sidelobe = sidelobes.max() if sidelobes.size else 0.0
    if sidelobe > 0 and 20.0 * math.log10(mag[peak] / sidelobe) < min_psl_db:
        raise SyncError(
            f"peak-to-sidelobe ratio "
            f"{20.0 * math.log10(mag[peak] / max(sidelobe, 1e-300)):.2f} dB "
            f"below the {min_psl_db:.1f} dB threshold"
        )
    return peak


def matched_filter(stream, config: OfdmConfig) -> np.ndarray:
    """Receive RRC (matched to the transmit filter), unit passband gain."""
    taps = rrc_taps(config) / config.oversampling_factor
    return fftconvolve(np.asarray(stream, dtype=float), taps)


def receive_blocks(
    mf_stream,
    first_block_start: int,
    n_blocks: int,
    config: OfdmConfig,
) -> np.ndarray:
    """Down-sample, strip CP and FFT a run of blocks from a matched-filtered
    stream.

    ``first_block_start`` is the index (in the *unfiltered* stream) where the
    first shaped block segment begins; the two filter group delays are
    compensated here.  The FFT window is advanced by half the cyclic prefix
    so the symmetric filter-cascade tails (pre- and post-cursors) both land
    inside the CP, where the one-tap equalizer removes them exactly.

    Returns data-carrier symbols [n_blocks, data_subcarriers].
    """
    mf_stream = np.asarray(mf_stream)
    osf = config.oversampling_factor
    delay = 2 * group_delay(config)
    advance = config.cp_length // 2
    out = np.empty((n_blocks, config.data_subcarriers), dtype=complex)
    for b in range(n_blocks):
        base = first_block_start + b * config.block_stride + delay
        start = base + (config.cp_length - advance) * osf
        idx = start + np.arange(config.fft_size) * osf
        if idx[-1] >= len(mf_stream):
            raise ValueError("stream too short for the requested block count")
        core = mf_stream[idx]
        spectrum = np.fft.fft(core)
        out[b] = symbols_from_spectrum(spectrum)
    return out


# ---------------------------------------------------------------------------
# Clipping
# ---------------------------------------------------------------------------

def clip(samples, sigma_multiple: float) -> np.ndarray:
    """Symmetric clipping at +/- sigma_multiple times the stream's std-dev.

    A constant (zero-variance) stream is returned unchanged: there is no
    scale to clip against.
    """
    if sigma_multiple <= 0:
        raise ValueError("sigma_multiple must be positive")
    samples = np.asarray(samples, dtype=float)
    sigma = samples.std()
    rms = math.sqrt(np.mean(samples**2)) if samples.size else 0.0
    # a (numerically) constant stream has no scale to clip against
    if sigma == 0.0 or sigma <= 1e-12 * rms:
        return samples.copy()
    limit = sigma_multiple * sigma
    return np.clip(samples, -limit, limit)


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
    out = np.zeros_like(symbols)
    nz = gains != 0
    out[..., nz] = symbols[..., nz] / gains[nz]
    return out


def estimate_snr(
    equalized_symbols,
    reference_symbols,
    ceiling_db: float = 60.0,
) -> SubcarrierSnr:
    """EVM-based per-carrier SNR: E[|ref|^2] / E[|eq - ref|^2].

    Carriers that never carried a symbol are flagged unmeasured (snr 0).
    Error-free carriers report the configured ceiling.  Accuracy needs on
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
    ceiling = 10.0 ** (ceiling_db / 10.0)
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
