"""Gray-mapped QAM modulation with exact AWGN bit-error-rate expressions.

Even-bit orders use square constellations; odd-bit orders use rectangular
(2^ceil(b/2) x 2^floor(b/2)) ones.  Rectangular grids keep a perfect Gray
labelling on each PAM axis, which makes the closed-form BER exact rather
than a nearest-neighbour approximation; cross-shaped constellations cannot
be Gray-labelled exactly and are deliberately not used.

All constellations are normalized to unit average symbol energy.  SNR is the
ratio of symbol energy to total complex noise variance.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import ndtr

from .errors import ParameterError
from .roots import MIN_RTOL, brent_root

__all__ = [
    "VALID_ORDERS",
    "constellation",
    "qam_modulate",
    "qam_demodulate",
    "exact_ber",
    "required_snr",
]

VALID_ORDERS = (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


def _check_order(order: int) -> int:
    if order not in VALID_ORDERS:
        raise ParameterError(f"QAM order must be one of {VALID_ORDERS}, got {order}")
    return int(np.log2(order))


def _gray(n: np.ndarray | int):
    return n ^ (n >> 1)


@lru_cache(maxsize=None)
def _axis_tables(order: int):
    """Per-axis metadata: level counts, amplitude scale, Gray lookup tables
    (level -> uint16 label, label -> level)."""
    b = _check_order(order)
    b_i = (b + 1) // 2
    b_q = b // 2
    l_i, l_q = 1 << b_i, 1 << b_q
    # unit average symbol energy over both axes
    scale = np.sqrt(3.0 / ((l_i**2 - 1) + (l_q**2 - 1)))
    tables = {}
    for l_count in {l_i, l_q}:
        idx = np.arange(l_count)
        gray = _gray(idx)
        inv = np.empty(l_count, dtype=np.int64)
        inv[gray] = idx
        tables[l_count] = (gray.astype(np.uint16), inv)
    return b_i, b_q, l_i, l_q, float(scale), tables


def _axis_amplitudes(l_count: int, scale: float) -> np.ndarray:
    return scale * (2.0 * np.arange(l_count) - (l_count - 1))


def constellation(order: int) -> np.ndarray:
    """All symbols indexed by their bit label (MSB-first, I bits then Q bits)."""
    b_i, b_q, l_i, l_q, scale, tables = _axis_tables(order)
    labels = np.arange(order)
    w_i = labels >> b_q
    w_q = labels & ((1 << b_q) - 1)
    amp_i = _axis_amplitudes(l_i, scale)[tables[l_i][1][w_i]]
    amp_q = (
        _axis_amplitudes(l_q, scale)[tables[l_q][1][w_q]]
        if b_q > 0 else np.zeros(order)
    )
    return amp_i + 1j * amp_q


def qam_modulate(bits, order: int) -> np.ndarray:
    """Map a bit stream to Gray-labelled QAM symbols of unit average energy.

    Each symbol's ``log2(order)`` bits, MSB first, are shifted into a
    16-bit label one column at a time, so the bits are read as uint8."""
    b = _check_order(order)
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    if bits.size % b != 0:
        raise ParameterError(f"bit count {bits.size} not divisible by log2(M)={b}")
    if bits.size == 0:
        return np.zeros(0, dtype=complex)
    columns = bits.reshape(-1, b)
    words = columns[:, 0].astype(np.uint16)
    for k in range(1, b):
        words <<= 1
        words |= columns[:, k]
    return constellation(order)[words]


def qam_demodulate(symbols, order: int) -> np.ndarray:
    """Hard-decision demap: slice each PAM axis, invert the Gray labels.

    A component beyond the outer levels, however large or infinite,
    decides the outer level; a NaN symbol is refused.

    Returns the uint8 bit stream, each symbol's label MSB first: the label
    is shifted to the top of a big-endian 16-bit word whose first
    ``log2(order)`` bits are unpacked."""
    b_i, b_q, l_i, l_q, scale, tables = _axis_tables(order)
    b = b_i + b_q
    symbols = np.asarray(symbols, dtype=complex).ravel()
    if np.isnan(symbols).any():
        raise ParameterError("symbols must not be NaN")

    def slice_axis(values, l_count):
        # clipped before rounding, so no value overflows the conversion
        x = values / scale
        x += l_count - 1
        x /= 2.0
        np.clip(x, 0, l_count - 1, out=x)
        return np.rint(x, out=x).astype(np.intp)

    words = tables[l_i][0][slice_axis(symbols.real, l_i)]
    words <<= b_q
    if b_q > 0:
        words |= tables[l_q][0][slice_axis(symbols.imag, l_q)]
    words <<= 16 - b
    top = words.astype(">u2").view(np.uint8).reshape(-1, 2)
    return np.unpackbits(top, axis=1, count=b).ravel()


def _axis_bit_error_count(l_count: int, scale: float, sigma: float) -> float:
    """Expected erroneous bits per symbol on one Gray-PAM axis.

    Enumerates transmit levels against decision cells; each cell probability
    is a difference of Gaussian CDFs, so the result is exact for hard-decision
    slicing.
    """
    if l_count == 1:
        return 0.0
    amps = _axis_amplitudes(l_count, scale)
    thresholds = 0.5 * (amps[:-1] + amps[1:])
    edges = np.concatenate([[-np.inf], thresholds, [np.inf]])
    gray = _gray(np.arange(l_count))
    # cell_prob[l, m] = P(decide level m | sent level l)
    z = (edges[None, :] - amps[:, None]) / sigma
    cdf = ndtr(z)
    cell_prob = np.diff(cdf, axis=1)
    xor = gray[:, None] ^ gray[None, :]
    hamming = np.array([bin(v).count("1") for v in range(l_count)])
    distances = hamming[xor]
    return float(np.mean(np.sum(cell_prob * distances, axis=1)))


def exact_ber(order: int, snr_linear: float) -> float:
    """Exact Gray-mapped BER of hard-decision QAM over complex AWGN.

    ``snr_linear`` is symbol energy over total noise variance; each real axis
    sees half the noise power.
    """
    if snr_linear <= 0:
        return 0.5
    b_i, b_q, l_i, l_q, scale, _ = _axis_tables(order)
    sigma = np.sqrt(0.5 / snr_linear)
    errs = _axis_bit_error_count(l_i, scale, sigma)
    if b_q > 0:
        errs += _axis_bit_error_count(l_q, scale, sigma)
    return errs / (b_i + b_q)


def required_snr(order: int, ber_target: float) -> float:
    """Smallest SNR at which the exact BER meets the target."""
    if not 0.0 < ber_target < 0.5:
        raise ParameterError("ber_target must lie in (0, 0.5)")

    def f(log_snr):
        return exact_ber(order, 10.0**log_snr) - ber_target

    lo, hi = -6.0, 12.0
    if f(lo) < 0:
        return 10.0**lo
    return 10.0 ** brent_root(f, lo, hi, 1e-12, MIN_RTOL)
