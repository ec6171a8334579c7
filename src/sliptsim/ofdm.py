"""DCO-OFDM modem: Hermitian-symmetric frames, pulse shaping,
synchronization, channel estimation, one-tap equalization and SNR/BER/rate
bookkeeping.

The transmitter works on stacks of frames [n_frames, n_carriers]: a real
inverse FFT of the positive-frequency bins along the last axis gives each
block's FFT core (the negative frequencies are their conjugate mirror, so
the cores are real by construction), and the cyclic-prefixed blocks laid
end to end form a symbol-rate stream that one root-raised-cosine filter
shapes at the oversampled rate.  A burst (:func:`assemble_burst`) is the
sync preamble followed by the blocks of its stacks, shaped into one stream
with the preamble added into its head.  Every stack of a burst is bits
mapped onto a plan, (bits, plan): the pilots, the measurement frames and
the payload alike.  A frame stack given as symbols (:func:`assemble_frame`)
is shaped alone, without the preamble, and a single frame is a stack of
one.

Both RRC filters run in polyphase form through one chunked overlap-save
routine, so no zero of the oversampled grid is filtered and no output the
modem does not use is computed.  The routine reads its input a window at a
time and yields its output a chunk at a time, so the oversampled stream is
the only array of a burst's length the modem builds.  TX shaping filters
the symbol-rate stream with each of the ``osf`` tap phases and interleaves
the phases into the result, which equals zero-stuffing and filtering at the
full rate; each chunk builds the blocks its window covers straight from the
stacks, whose bits are mapped ``_PLAN_ROWS`` frames at a time as the
chunks reach them.  The receiver locates the preamble by
cross-correlation, through the same routine with the reversed preamble as
its one filter (the link searches only the burst header), then filters the
``osf`` polyphase components of the received stream into the one
oversampling phase its FFT windows read, and FFTs each chunk's complete
windows into the data-carrier result, whole or in batches of ``_PLAN_ROWS``
blocks.  Filtering the whole stream at once equals overlap-adding per-block
shaped segments at the block stride in exact arithmetic; in floating point
the two differ by rounding only (about 1e-15 of the peak sample).  Every
chunk size gives the same bits.

Neither the DC bias nor the clip is applied here: the link's channel clips
the shaped stream at ``OfdmConfig.clip_sigma`` std-devs and scales and
biases it into the VCSEL drive in the same pass, at one std-dev.  The DC
and Nyquist bins are always zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParameterError, SliptsimError
from .loading import BitLoadingPlan
from .qam import VALID_ORDERS, qam_demodulate, qam_modulate

__all__ = [
    "OfdmConfig",
    "SubcarrierSnr",
    "SyncError",
    "generate_bits",
    "ofdm_core",
    "assemble_frame",
    "assemble_burst",
    "overlap_add",
    "rrc_taps",
    "make_preamble",
    "synchronize",
    "matched_filter",
    "receive_blocks",
    "estimate_channel",
    "equalize",
    "estimate_snr",
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

# frames mapped per chunk by the plan (de)modulators, and per group and
# batch by a burst's transmitter and a payload's receiver: it bounds their
# temporaries (about 0.5 MB of symbols at the default size) whatever the
# frame count, so none of them is a burst's length
_PLAN_ROWS = 64


class SyncError(SliptsimError, RuntimeError):
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
        ParameterError.require_finite(self)
        for name in ("fft_size", "cp_length", "max_qam_order", "oversampling_factor"):
            ParameterError.require_integer(name, getattr(self, name))
        if self.fft_size < 8 or self.fft_size & (self.fft_size - 1):
            raise ParameterError("fft_size must be a power of two >= 8")
        if not 0 <= self.cp_length < self.fft_size:
            raise ParameterError("cp_length must satisfy 0 <= cp < fft_size")
        if self.max_qam_order not in VALID_ORDERS:
            raise ParameterError(f"max_qam_order must be one of {VALID_ORDERS}")
        if self.oversampling_factor < 1:
            raise ParameterError("oversampling_factor must be >= 1")
        if not 0.0 < self.rolloff < 1.0:
            raise ParameterError("rolloff must lie in (0, 1)")
        if self.clip_sigma is not None and self.clip_sigma <= 0:
            raise ParameterError("clip_sigma must be positive (None disables)")
        if self.sample_rate_hz <= 0:
            raise ParameterError("sample_rate_hz must be positive")

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
            raise ParameterError("snr values must be finite and non-negative")

    def db(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return 10.0 * np.log10(self.snr_linear)


# ---------------------------------------------------------------------------
# Bit source
# ---------------------------------------------------------------------------

def generate_bits(seed, count: int) -> np.ndarray:
    """Deterministic pseudorandom bit sequence (uint8 zeros/ones)."""
    if count < 0:
        raise ParameterError("count must be non-negative")
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
        raise ParameterError(f"expected {n_data} data symbols, got {symbols.shape[-1]}")
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


# overlap-save blocks transformed per chunk by every filter of the modem (TX
# shaping, the matched filter and the preamble correlator): it bounds their
# working memory whatever the stream length.  At the default config a chunk
# spans about 14.5 OFDM blocks, and the traced working sets beside the
# result are 2.25 MiB for TX shaping (the chunk's blocks and their IFFT
# included) and 1.60 MiB for the receiver's filter phase and window FFTs
# (8.8 and 6.0 MiB at 64 blocks).  The size moves no bit: overlap-save
# blocks sit at ``first + k*step`` whatever the chunk size
_CHUNK_BLOCKS = 16


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


def _overlap_save_chunks(read, bank: np.ndarray, first: int, count: int):
    """A bank of multi-input FIR filters, by chunked overlap-save: a
    generator of the result's consecutive chunks.

    ``bank`` is [n_out, n_in, K].  The input ``x`` interleaves ``n_in``
    components, ``x_r[i] = x[n_in*i + r]``, and ``read(lo, hi)`` returns
    ``x[lo:hi]`` (zero outside ``x``).  The result ``y`` [count, n_out]
    holds ``y[j, k] = sum_r (x_r * bank[k, r])[first + j]``, indexing the
    full convolutions, and is yielded as consecutive [n, n_out] chunks.
    Overlap-save blocks of ``nfft`` samples per component give
    ``nfft - K + 1`` outputs each: per block the components are transformed
    once, weighted by every filter's spectrum, summed over the components
    and inverted once per output.  Blocks are transformed
    ``_CHUNK_BLOCKS`` at a time, and each chunk reads only the input window
    its blocks cover, so nothing here grows with ``count``.
    """
    n_out, n_in, n_taps = bank.shape
    nfft = _fft_size(n_taps)
    step = nfft - n_taps + 1
    b_spec = np.fft.rfft(bank, nfft)[:, :, None, :]
    for j in range(0, count, step * _CHUNK_BLOCKS):
        n = min(step * _CHUNK_BLOCKS, count - j)
        n_blk = -(-n // step)
        lo = first + j - (n_taps - 1)
        hi = lo + (n_blk - 1) * step + nfft
        comps = read(n_in * lo, n_in * hi).reshape(-1, n_in).T
        blocks = sliding_window_view(comps, nfft, axis=-1)[:, ::step]
        spec = np.fft.rfft(blocks, axis=-1)
        y = np.fft.irfft((spec * b_spec).sum(axis=1), nfft, axis=-1)
        yield y[..., n_taps - 1 :].reshape(n_out, -1)[:, :n].T


def _overlap_save(read, bank: np.ndarray, first: int, out: np.ndarray) -> np.ndarray:
    """:func:`_overlap_save_chunks` written into ``out`` [count, n_out],
    which is returned."""
    j = 0
    for y in _overlap_save_chunks(read, bank, first, len(out)):
        out[j : j + len(y)] = y
        j += len(y)
    return out


def _shape(read, n_samples: int, config: OfdmConfig, lead: int) -> np.ndarray:
    """``lead`` zero samples, then the RRC filter applied to the zero-stuffed
    oversampled stream (full convolution), computed in polyphase form.

    The symbol-rate input has ``n_samples`` samples, read through
    ``read(lo, hi)`` as in :func:`_overlap_save_chunks`.  Output sample
    ``j*osf + p`` after the lead is the input convolved with tap phase p, so
    no zero is filtered: one input, ``osf`` filters, written
    phase-interleaved straight into the result.  Equals the full-rate
    convolution up to rounding; an empty input gives the lead alone.
    """
    if n_samples == 0:
        return np.zeros(lead)
    osf = config.oversampling_factor
    n = n_samples * osf + len(rrc_taps(config)) - 1
    phases = _polyphase_taps_cached(osf, config.rolloff)
    count = -(-n // osf)  # outputs per phase
    out = np.empty(lead + count * osf)
    out[:lead] = 0.0
    _overlap_save(read, phases[:, None, :], 0, out[lead:].reshape(count, osf))
    return out[: lead + n]


def _frame_source(bits, plan: BitLoadingPlan):
    """(n_frames, ``pieces``) of one stack of a burst: ``bits`` mapped onto
    whole frames of ``plan``.

    ``pieces(i, j)`` yields (first frame, symbols) pieces that cover frames
    i..j-1 in order.  The bits are mapped by :func:`modulate_plan`
    ``_PLAN_ROWS`` frames at a time, one call per group, and only the group
    read last and the one before are held: shaping reads move forward and
    overlap by fewer samples than a group's blocks, so no group is mapped
    twice.  The mapping treats rows independently, so every frame equals
    the one the whole bit stream maps to, bit for bit.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    bpf = plan.total_bits
    if bpf == 0 or bits.size % bpf:
        raise ParameterError(
            f"a stack needs whole frames of its plan's {bpf} bits, got {bits.size} bits"
        )
    n_frames = bits.size // bpf
    held = {}  # group index -> symbols, for the group read last and the one before

    def pieces(i: int, j: int):
        for g in range(i // _PLAN_ROWS, -(-j // _PLAN_ROWS)):
            lo = g * _PLAN_ROWS
            if g not in held:
                for old in [k for k in held if k != g - 1]:
                    del held[old]
                n = min(_PLAN_ROWS, n_frames - lo)
                held[g] = modulate_plan(bits[lo * bpf : (lo + n) * bpf], plan, n)
            a, b = max(i, lo), min(j, lo + _PLAN_ROWS)
            yield a, held[g][a - lo : b - lo]

    return n_frames, pieces


def _block_reader(sources, config: OfdmConfig):
    """(``read``, length) of the symbol-rate stream of the cyclic-prefixed
    blocks of the sources' frames laid end to end, in order; each source is
    (n_frames, ``pieces``), as :func:`_frame_source` gives.

    ``read(lo, hi)`` returns samples lo..hi-1 of that stream, zero outside
    it, and builds only the blocks the range covers: their frames are
    IFFT'd by :func:`ofdm_core` and cyclic-prefixed into a buffer of those
    blocks alone.  A frame on the edge of two ranges is transformed once for
    each; the real IFFT transforms rows independently, so every block
    equals the one :func:`ofdm_core` gives for the whole stack, bit for bit.
    """
    ends = np.cumsum([count for count, _ in sources])
    n, cp, length = config.fft_size, config.cp_length, config.block_length
    total = sum(count for count, _ in sources) * length

    def read(lo: int, hi: int) -> np.ndarray:
        out = np.zeros(hi - lo)
        a, b = max(lo, 0), min(hi, total)
        if a >= b:
            return out
        first, last = a // length, -(-b // length)
        blocks = np.empty((last - first, length))
        for (count, pieces), end in zip(sources, ends):
            start = end - count
            i, j = max(first, start), min(last, end)
            if i < j:
                for k, symbols in pieces(i - start, j - start):
                    core = ofdm_core(symbols, config)
                    rows = blocks[start + k - first :][: len(core)]
                    rows[:, cp:] = core
                    rows[:, :cp] = core[:, n - cp :]
        out[a - lo : b - lo] = blocks.ravel()[a - first * length : b - first * length]
        return out

    return read, total


def assemble_frame(symbols, config: OfdmConfig) -> np.ndarray:
    """Shaped real sample stream of a frame or a stack of frames.

    ``symbols`` is [n_carriers] or [n_frames, n_carriers].  Each block is
    IFFT'd and cyclic-prefixed; the blocks are laid end to end at
    ``config.block_length`` symbols each, so block b of the returned full
    convolution starts at sample ``b * config.block_stride``.
    """
    frames = np.atleast_2d(symbols)
    read, n_samples = _block_reader([(len(frames), lambda i, j: [(i, frames[i:j])])], config)
    return _shape(read, n_samples, config, 0)


def assemble_burst(stacks, config: OfdmConfig) -> tuple[np.ndarray, np.ndarray, int]:
    """Shaped real sample stream of a burst: the sync preamble, then the
    blocks of the stacks in order (pilot repeats, then frames).

    Each stack is a (bits, :class:`BitLoadingPlan`) pair, whose frames are
    the bits mapped by :func:`modulate_plan`; anything else raises
    :class:`ParameterError`.  The blocks are shaped into one stream after
    ``first`` leading samples, the preamble's stride of ``preamble_length``
    symbols, and the shaped preamble is added into its head, so block b
    starts at sample ``first + b * config.block_stride``.  Each shaping
    chunk builds the blocks it reads, and the bits are mapped
    ``_PLAN_ROWS`` frames at a time as the chunks reach them, so the stream
    is the only array of the burst's length made here.

    Returns (stream, shaped preamble segment, first block offset).
    """
    for k, stack in enumerate(stacks):
        if not (isinstance(stack, tuple) and len(stack) == 2
                and isinstance(stack[1], BitLoadingPlan)):
            raise ParameterError(f"stack {k} of a burst is not a (bits, BitLoadingPlan) pair")
    _, pre_seg = make_preamble(config)
    first = config.preamble_length * config.oversampling_factor
    read, n_samples = _block_reader([_frame_source(*stack) for stack in stacks], config)
    stream = _shape(read, n_samples, config, first)
    stream[: len(pre_seg)] += pre_seg
    return stream, pre_seg, first


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
    return core, _shape(partial(_window, core), len(core), config, 0)


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
    stream = np.asarray(stream, dtype=float)
    reference = np.asarray(reference, dtype=float)
    n_ref = len(reference)
    if len(stream) < n_ref:
        raise ParameterError("stream shorter than the reference")
    # lag j correlates stream[j : j + n_ref]: the full convolution with the
    # reversed reference at j + n_ref - 1, over the lags inside the stream
    bank = reference[::-1].reshape(1, 1, n_ref)
    corr = np.empty((len(stream) - n_ref + 1, 1))
    corr = _overlap_save(partial(_window, stream), bank, n_ref - 1, corr)[:, 0]
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
    ``len(stream) + len(taps) - 1``, by the modem's overlap-save routine
    with the taps as its one filter; an empty stream gives an empty output.
    The link does not call it: :func:`receive_blocks` filters the one phase
    it reads.
    """
    stream = np.asarray(stream, dtype=float)
    if len(stream) == 0:
        return np.zeros(0)
    taps = rrc_taps(config) / config.oversampling_factor
    count = len(stream) + len(taps) - 1
    out = np.empty((count, 1))
    return _overlap_save(partial(_window, stream), taps.reshape(1, 1, -1), 0, out)[:, 0]


def _matched_filter_phase(stream: np.ndarray, start: int, count: int, config: OfdmConfig):
    """Samples ``start + k*osf``, ``k < count``, of :func:`matched_filter`'s
    output, without computing the other phases: a generator of consecutive
    chunks of them.

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
    chunks = _overlap_save_chunks(partial(_window, stream), c, first, count)
    return (y[:, 0] for y in chunks)


def _receive_batches(
    stream, first_block_start: int, n_blocks: int, config: OfdmConfig, rows: int = _PLAN_ROWS
):
    """:func:`receive_blocks`'s data-carrier symbols in consecutive batches
    of ``rows`` blocks (the last one shorter): a generator of new arrays,
    each filled as the matched filter's chunks complete its windows.  The
    arguments are checked when the first batch is asked for."""
    if n_blocks < 0:
        raise ParameterError(f"n_blocks must be non-negative, got {n_blocks}")
    stream = np.asarray(stream, dtype=float)
    osf = config.oversampling_factor
    delay = len(rrc_taps(config)) - 1  # both RRC filters' group delays
    advance = config.cp_length // 2
    first = first_block_start + delay + (config.cp_length - advance) * osf
    last = first + (n_blocks - 1) * config.block_stride + (config.fft_size - 1) * osf
    if n_blocks > 0 and first < 0:
        raise ParameterError("first FFT window starts before the stream")
    if n_blocks > 0 and last >= len(stream) + len(rrc_taps(config)) - 1:
        raise ParameterError("stream too short for the requested block count")
    n, n_sym = config.fft_size, config.block_length
    batch, filled, done, rest = None, 0, 0, np.zeros(0)
    for chunk in _matched_filter_phase(stream, first, n_blocks * n_sym, config):
        y = np.concatenate([rest, chunk])
        k = len(y) // n_sym
        windows = y[: k * n_sym].reshape(k, n_sym)[:, :n]
        spectra = np.fft.rfft(windows, axis=-1)[:, 1 : n // 2]
        rest = y[k * n_sym :]
        while len(spectra):
            if batch is None:
                batch = np.empty((min(rows, n_blocks - done), n // 2 - 1), dtype=complex)
                filled = 0
            m = min(len(spectra), len(batch) - filled)
            batch[filled : filled + m] = spectra[:m]
            spectra, filled = spectra[m:], filled + m
            if filled == len(batch):
                yield batch
                batch, done = None, done + filled


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
    equals :func:`matched_filter` at those samples up to rounding.  The
    phase is taken a filter chunk at a time, and the windows it completes
    are transformed straight into the result, so the result is the only
    array that grows with ``n_blocks``.  Window bounds are checked against
    the full-rate filter output, of length ``len(stream) + len(taps) - 1``.
    The result is the one batch of ``_receive_batches`` with ``n_blocks``
    rows, the receive path the link's payload burst takes batch by batch.

    Returns data-carrier symbols [n_blocks, data_subcarriers].
    """
    batches = _receive_batches(stream, first_block_start, n_blocks, config, max(n_blocks, 1))
    return next(batches, np.empty((0, config.data_subcarriers), dtype=complex))


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
        raise ParameterError("pilot shape mismatch")
    gains = np.zeros(tx.shape[0], dtype=complex)
    nz = tx != 0
    gains[nz] = rx[:, nz].mean(axis=0) / tx[nz]
    return gains


def equalize(symbols, gains) -> np.ndarray:
    """One-tap division per carrier; zero-gain carriers equalize to zero.

    ``gains`` holds one gain per carrier, the last axis of ``symbols``."""
    symbols = np.asarray(symbols, dtype=complex)
    gains = np.asarray(gains, dtype=complex)
    if gains.shape != symbols.shape[-1:]:
        raise ParameterError(
            f"gains must have shape {symbols.shape[-1:]}, one per carrier, "
            f"got {gains.shape}"
        )
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
        raise ParameterError("equalized and reference symbol shapes differ")
    sig = np.mean(np.abs(ref) ** 2, axis=0)
    err = np.mean(np.abs(eq - ref) ** 2, axis=0)
    ceiling = 10.0 ** (_SNR_CEILING_DB / 10.0)
    measured = sig > 0
    snr = np.zeros(eq.shape[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = np.where(err > 0, sig / np.maximum(err, 1e-300), np.inf)
    snr[measured] = np.minimum(raw[measured], ceiling)
    return SubcarrierSnr(snr, measured)


def data_rate(plan: BitLoadingPlan, config: OfdmConfig) -> float:
    """Payload rate in bits/s: sum(b_k) * fs / ((fft + cp) * osf)."""
    return plan.total_bits * config.sample_rate_hz / config.block_stride


# ---------------------------------------------------------------------------
# Plan-driven modulation
# ---------------------------------------------------------------------------

def _plan_groups(plan: BitLoadingPlan):
    """(bit count b, carriers, frame-bit columns, amplitude scales) of each
    loaded bit count of the plan, b increasing: a carrier's b bits are the
    frame-bit columns from its offset on, carrier by carrier."""
    offsets = np.concatenate([[0], np.cumsum(plan.bits)])
    for b in np.unique(plan.bits[plan.bits > 0]):
        carriers = np.nonzero(plan.bits == b)[0]
        columns = (offsets[carriers, None] + np.arange(b)).ravel()
        yield int(b), carriers, columns, np.sqrt(plan.power[carriers])


def modulate_plan(bits, plan: BitLoadingPlan, n_frames: int) -> np.ndarray:
    """Map a bit stream onto per-carrier constellations and power scales.

    Bits are consumed frame-major, carrier by carrier in index order.
    Frames are mapped ``_PLAN_ROWS`` at a time, one :func:`qam_modulate`
    call per bit count.  Returns frequency-domain symbols [n_frames,
    n_carriers].
    """
    if n_frames < 0:
        raise ParameterError(f"n_frames must be non-negative, got {n_frames}")
    bits = np.asarray(bits, dtype=np.uint8)
    bpf = plan.total_bits
    if bpf == 0:
        return np.zeros((n_frames, plan.bits.size), dtype=complex)
    if bits.size != n_frames * bpf:
        raise ParameterError(f"need {n_frames * bpf} bits, got {bits.size}")
    frame_bits = bits.reshape(n_frames, bpf)
    groups = list(_plan_groups(plan))
    out = np.zeros((n_frames, plan.bits.size), dtype=complex)
    for lo in range(0, n_frames, _PLAN_ROWS):
        rows = frame_bits[lo : lo + _PLAN_ROWS]
        for b, carriers, columns, scale in groups:
            # take, not fancy indexing: its gather is C-ordered, so ravel is a view
            syms = qam_modulate(np.take(rows, columns, axis=1).ravel(), 2**b)
            syms = syms.reshape(len(rows), len(carriers))
            syms *= scale
            out[lo : lo + len(rows), carriers] = syms
    return out


def demodulate_plan(symbols, plan: BitLoadingPlan) -> np.ndarray:
    """Inverse of :func:`modulate_plan`: recover the frame-major bit stream
    from symbols [n_frames, n_carriers] (one frame may be 1-D), demapped
    ``_PLAN_ROWS`` frames at a time."""
    symbols = np.atleast_2d(np.asarray(symbols, dtype=complex))
    if symbols.ndim != 2 or symbols.shape[1] != plan.bits.size:
        raise ParameterError(
            f"symbols must be [n_frames, {plan.bits.size}] for the plan's "
            f"carriers, got shape {symbols.shape}"
        )
    n_frames = symbols.shape[0]
    bpf = plan.total_bits
    if bpf == 0:
        return np.zeros(0, dtype=np.uint8)
    groups = list(_plan_groups(plan))
    frame_bits = np.zeros((n_frames, bpf), dtype=np.uint8)
    for lo in range(0, n_frames, _PLAN_ROWS):
        rows = symbols[lo : lo + _PLAN_ROWS]
        for b, carriers, columns, scale in groups:
            scaled = np.take(rows, carriers, axis=1)
            scaled /= scale
            rec = qam_demodulate(scaled.ravel(), 2**b)
            frame_bits[lo : lo + len(rows), columns] = rec.reshape(len(rows), -1)
    return frame_bits.ravel()
