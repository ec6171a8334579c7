"""End-to-end link composition: VCSEL transmitter, optical path and channel,
and the modem round trip, run on a receiver chain from :mod:`sliptsim.ppc`.

The simulated chain, per run:

1. DC path: the beam's sector powers set the per-segment photocurrents; the
   string I-V curve, the load-line operating point, Pmp, PCE and Imp/Isc
   come from :mod:`sliptsim.ppc`.
2. AC path: the modem waveform modulates the optical power inside the
   transmitter's linear window; the series string passes the average of the
   per-segment small-signal photocurrents; a single-pole low-pass at the
   string's RC corner plus additive thermal/shot/amplifier noise form the
   receive signal.
3. Modem: preamble sync, pilot channel estimation, EVM-based SNR profile,
   adaptive bit/power loading, payload BER and the resulting data rate.
   The preamble opens every burst, so the receiver searches only the burst
   header (preamble, pilot blocks and one block of margin) for it; the
   synchronizer's peak-to-sidelobe check is measured over that window and
   does not depend on the payload length.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING

import numpy as np

from .constants import BER_TARGET, DEFAULT_EMITTED_POWER_W
from .errors import ParameterError, SliptsimError
from .loading import BitLoadingPlan, bit_power_loading
from .ofdm import (
    OfdmConfig,
    SubcarrierSnr,
    _receive_batches,
    assemble_burst,
    data_rate,
    demodulate_plan,
    estimate_channel,
    equalize,
    estimate_snr,
    generate_bits,
    modulate_plan,
    receive_blocks,
    synchronize,
)
from .ppc import dc_operating_point, find_mpp, sector_fractions, string_iv

if TYPE_CHECKING:  # annotations only: ppc owns the receiver chain
    from .ppc import ReceiverChain

__all__ = [
    "BER_TARGET",
    "TransmitterModel",
    "LinkReport",
    "channel_response",
    "snr_crossing_bandwidth",
    "run_link",
    "sweep",
]


@dataclass(frozen=True)
class TransmitterModel:
    """VCSEL drive model: piecewise-linear L-I with hard clipping.

    The emitted power is authoritative for the bias point; slope efficiency
    and transconductance convert the drive voltage into an optical swing
    around it.  Swings leaving [0, 2 * emitted_power] are clipped and the
    clipped fraction is reported as ``LinkReport.clip_fraction``; the
    channel's digital clip at ``OfdmConfig.clip_sigma`` std-devs acts
    before it and is not counted.  The defaults are the documented VCSEL
    operating point: biased at 1.78 V and 6 mA (1 mA threshold), driven at
    1 Vpp, emitting 2.3 mW.  The wavelength is the beam's
    (``IlluminationProfile.wavelength_nm``).
    """

    drive_vpp: float = 1.0
    slope_efficiency_w_per_a: float = 0.46
    emitted_power_w: float = DEFAULT_EMITTED_POWER_W
    transconductance_a_per_v: float = 8e-3

    def __post_init__(self):
        ParameterError.require_finite(self)
        if self.emitted_power_w <= 0 or self.drive_vpp <= 0:
            raise ParameterError("emitted power and drive amplitude must be positive")
        if self.slope_efficiency_w_per_a <= 0 or self.transconductance_a_per_v <= 0:
            raise ParameterError("slope efficiency and transconductance must be positive")

    def optical_waveform(
        self, drive_v: np.ndarray, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, float]:
        """Optical power waveform and the fraction of clipped samples.

        The waveform is written into ``out`` when given (``drive_v`` itself
        for an in-place pass), else into a new array; ``drive_v`` is modified
        only when it is ``out``.  Samples at exactly 0 and 2 * emitted power
        are not clipped.  The count reads the waveform's minimum and
        maximum, and builds a side's comparison mask only when that side
        leaves the window, so a waveform inside it allocates nothing more.
        """
        gain = self.slope_efficiency_w_per_a * self.transconductance_a_per_v
        p = np.multiply(drive_v, gain, out=out)
        p += self.emitted_power_w
        lo, hi = 0.0, 2.0 * self.emitted_power_w
        n_clipped = 0
        if p.min() < lo:
            n_clipped += int(np.count_nonzero(p < lo))
        if p.max() > hi:
            n_clipped += int(np.count_nonzero(p > hi))
        if n_clipped:
            np.clip(p, lo, hi, out=p)
        return p, n_clipped / p.size


@dataclass
class LinkReport:
    """Per-run record of the communication and harvesting figures.

    ``imp_isc`` is NaN for a dark string (zero short-circuit current).
    ``clip_fraction`` is the fraction of samples the VCSEL's [0, 2P] optical
    window clips, not the digital clip at ``OfdmConfig.clip_sigma``
    std-devs, which keeps the drive inside that window at the defaults.
    """

    device_id: str
    n_segments: int
    seed: int
    f3db_hz: float
    bandwidth_snr0_hz: float
    data_rate_bps: float
    ber: float
    pmp_w: float
    pce_emitted: float
    pce_incident: float
    imp_isc: float
    harvested_w: float
    operating_voltage_v: float
    operating_current_a: float
    emitted_power_w: float
    captured_power_w: float
    clip_fraction: float
    total_bits_per_frame: int
    n_active_carriers: int
    snr: SubcarrierSnr | None = None
    plan: BitLoadingPlan | None = None
    carrier_freqs_hz: np.ndarray | None = None
    error: str = ""

    def csv_row(self) -> list:
        return [getattr(self, c) for c in self.CSV_COLUMNS]


# the report.csv columns: every field but the per-carrier records
LinkReport.CSV_COLUMNS = tuple(
    f.name for f in fields(LinkReport) if f.name not in ("snr", "plan", "carrier_freqs_hz")
)


# ---------------------------------------------------------------------------
# Analytic channel pieces
# ---------------------------------------------------------------------------

def channel_response(chain: ReceiverChain, config: OfdmConfig):
    """Per-carrier complex gain of the first-order receive chain, as the
    waveform path applies it.

    H(f) = g (1 - a) / (1 - a exp(-j 2 pi f / fs)): the discrete pole of
    ``_one_pole`` at the chain's RC corner, with ``a`` from ``_pole`` and
    g = responsivity * AC load resistance.

    Returns:
        (gains ndarray over the data carriers, f3dB in Hz)
    """
    f3db = chain.f3db_hz()
    fs = config.sample_rate_hz
    a = _pole(f3db, fs)
    g = chain.beam.responsivity_a_w * chain.ac_load_ohm
    freqs = config.carrier_frequencies_hz()
    return g * (1.0 - a) / (1.0 - a * np.exp(-2j * math.pi * freqs / fs)), f3db


def snr_crossing_bandwidth(snr: SubcarrierSnr, freqs_hz) -> float:
    """Highest frequency at which the SNR profile still exceeds 0 dB.

    Linear interpolation between the last carrier above 1 and its neighbour;
    0 if no carrier clears 0 dB, the last carrier frequency if all do.
    """
    freqs = np.asarray(freqs_hz, dtype=float)
    values = snr.snr_linear
    above = values >= 1.0
    if not np.any(above):
        return 0.0
    last = int(np.nonzero(above)[0][-1])
    if last == len(values) - 1:
        return float(freqs[-1])
    s0, s1 = values[last], values[last + 1]
    frac = (s0 - 1.0) / max(s0 - s1, 1e-300)
    return float(freqs[last] + frac * (freqs[last + 1] - freqs[last]))


# ---------------------------------------------------------------------------
# Discrete channel application
# ---------------------------------------------------------------------------

# samples per chunk of the single-pole filter (256 KB of float64, so each
# doubling pass runs in cache); a pole whose taps outlast it takes longer chunks
_POLE_CHUNK = 1 << 15

# samples per chunk of the channel's other passes (the std-dev's leaves and
# the noise draw): the length of its one scratch, 512 KB of float64
_CHANNEL_CHUNK = 1 << 16


def _pole(f3db_hz: float, fs_hz: float) -> float:
    """Pole ``a = exp(-2 pi f3db / fs)`` of the impulse-invariant discrete
    single-pole low-pass at corner ``f3db_hz``, sampled at ``fs_hz``."""
    return math.exp(-2.0 * math.pi * f3db_hz / fs_hz)


def _one_pole(samples: np.ndarray, f3db_hz: float, fs_hz: float) -> np.ndarray:
    """Impulse-invariant discrete single-pole low-pass, unit DC gain, from
    zero state: ``y[n] = sum_k (1 - a) a**k x[n - k]``, with ``a`` from
    ``_pole``, written into ``samples``, which is returned.

    The recurrence is evaluated by recursive doubling (Kogge & Stone 1973):
    starting from ``w = (1 - a) x``, the step ``w[s:] += a**s * w[:-s]`` for
    ``s = 1, 2, 4, ...`` below ``span`` sums the first ``span`` taps.
    ``span`` is the smallest power of two past which the taps fall below
    2**-60 of the first (under rounding), or past which no sample of the
    stream lies.  The stream is filtered in chunks of at least
    ``_POLE_CHUNK`` samples, last to first, each in place over its window:
    the ``span - 1`` samples of history its first output reads, then the
    chunk.  The history's input samples are saved before the doubling
    overwrites them and put back after, for the chunk before to read, so
    the scratch is that history and one doubling product: 0.3 MB at GHz
    corners, never more than the stream's length as the corner falls to 0.
    Equals ``lfilter([1 - a], [1, -a], samples)`` up to rounding.
    """
    a = _pole(f3db_hz, fs_hz)
    n = len(samples)
    span = 1
    while span < n and a**span >= 2.0**-60:
        span *= 2
    chunk = max(_POLE_CHUNK, span)
    for start in reversed(range(0, n, chunk)):
        lo = max(start - (span - 1), 0)
        w = samples[lo : start + chunk]
        history = w[: start - lo].copy()
        w *= 1.0 - a
        step = 1
        while step < span:
            w[step:] += a**step * w[:-step]
            step *= 2
        w[: start - lo] = history
    return samples


def _std(samples: np.ndarray, scratch: np.ndarray) -> float:
    """``np.std(samples)``, bit for bit, with ``x - mean`` squared a leaf at
    a time in ``scratch`` (at least ``min(len(samples), _CHANNEL_CHUNK)``
    samples, whose contents are overwritten): numpy's steps (mean, subtract,
    square, sum, divide, square root), with the sum taken by
    :func:`_sum_of_squares`."""
    total = _sum_of_squares(samples, samples.mean(), scratch, 0, samples.size)
    return math.sqrt(total / samples.size)


def _sum_of_squares(
    samples: np.ndarray, mean: float, scratch: np.ndarray, lo: int, hi: int
) -> float:
    """``np.sum((samples[lo:hi] - mean) ** 2)``, bit for bit, without the
    full-length squares.

    numpy sums a float64 array along one fixed pairwise tree (Higham 1993):
    a range of more than 128 samples splits after half its length rounded
    down to a multiple of 8, and the two halves' sums are added.  This walks
    that tree down to ranges of at most ``_CHANNEL_CHUNK`` samples, whose
    squares are formed in ``scratch`` and summed by numpy along the same
    tree.
    """
    n = hi - lo
    if n > _CHANNEL_CHUNK:
        mid = lo + n // 2 - n // 2 % 8
        return _sum_of_squares(samples, mean, scratch, lo, mid) + _sum_of_squares(
            samples, mean, scratch, mid, hi
        )
    leaf = scratch[:n]
    np.subtract(samples[lo:hi], mean, out=leaf)
    np.multiply(leaf, leaf, out=leaf)
    return leaf.sum()


def _apply_channel(
    stream: np.ndarray,
    tx: TransmitterModel,
    chain: ReceiverChain,
    config: OfdmConfig,
    mean_fraction: float,
    operating_current_a: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """Waveform -> optics -> photocurrent -> RC -> load voltage + noise.

    The stream is clipped in place at +/- ``config.clip_sigma`` std-devs,
    the transmitter's digital clip, at the std-dev the drive scaling reads.
    It is not clipped when ``clip_sigma`` is None, nor when it is
    numerically constant (std-dev 0, or at most 1e-12 of its rms), which
    leaves no scale to clip against.  The stream is consumed: each physical
    step is one pass in its buffer, which carries the clipped drive, the
    optical waveform, the AC photocurrent, the filtered load voltage and
    then the received samples that are returned.  Both std-devs and the
    noise draw work through one scratch of ``_CHANNEL_CHUNK`` samples, so
    no other array of the stream's length exists.  The noise is drawn a
    chunk at a time and added in place: the generator values of
    ``rng.normal(0, sigma_v, n)``, in the same order.
    """
    scratch = np.empty(min(len(stream), _CHANNEL_CHUNK))
    sigma_x = _std(stream, scratch)
    scale_sigma = config.clip_sigma
    if scale_sigma is None:
        # unclipped: the drive is scaled as the default clip level would scale it
        scale_sigma = OfdmConfig.clip_sigma
    elif sigma_x > 1e-12 * math.sqrt(np.dot(stream, stream) / stream.size):
        np.clip(stream, -scale_sigma * sigma_x, scale_sigma * sigma_x, out=stream)
    stream *= tx.drive_vpp / (2.0 * scale_sigma * max(sigma_x, 1e-300))
    _, clipped = tx.optical_waveform(stream, out=stream)
    stream -= stream.mean()
    stream *= chain.beam.responsivity_a_w * mean_fraction
    _one_pole(stream, chain.f3db_hz(), config.sample_rate_hz)
    stream *= chain.ac_load_ohm
    psd = chain.noise.current_psd(chain.ac_load_ohm, operating_current_a)
    sigma_thermal = math.sqrt(psd * config.sample_rate_hz / 2.0) * chain.ac_load_ohm
    sigma_q = chain.noise.quantization_sigma(_std(stream, scratch))
    sigma_v = math.hypot(sigma_thermal, sigma_q)
    for lo in range(0, len(stream), _CHANNEL_CHUNK):
        rx = stream[lo : lo + _CHANNEL_CHUNK]
        noise = rng.standard_normal(out=scratch[: len(rx)])
        noise *= sigma_v
        rx += noise
    return stream, clipped


# ---------------------------------------------------------------------------
# Full link run
# ---------------------------------------------------------------------------

def _header_length(
    config: OfdmConfig, n_pilot_frames: int, pre_stride: int, preamble_samples: int
) -> int:
    """Samples at the head of a received burst searched for the preamble.

    The header spans the preamble stride, the pilot blocks and one block of
    margin, and at least two shaped preambles, so the correlation always has
    lags beyond its main lobe to measure the sidelobe level on.
    """
    header = pre_stride + (n_pilot_frames + 1) * config.block_stride
    return max(header, 2 * preamble_samples)


def _send_burst(
    stacks,
    n_pilot_frames: int,
    tx: TransmitterModel,
    chain: ReceiverChain,
    config: OfdmConfig,
    mean_fraction: float,
    operating_current_a: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int, float]:
    """Transmit one burst (the preamble, then the blocks of ``stacks``,
    whose first ``n_pilot_frames`` are pilots) through the channel and
    locate it.

    Returns (received samples, start of the first block, clip fraction).
    The stacks are (bits, plan) pairs, mapped as shaping reaches them
    (:func:`assemble_burst`), and the channel turns the stream's own buffer
    into the received samples, so the burst holds one array of its length.
    Each burst carries its own pilot repetitions, so the equalizer always
    matches the burst's drive scaling.  The preamble sits at the start of
    the burst, so it is searched for only in the burst header
    (:func:`_header_length`), and the synchronizer's peak-to-sidelobe check
    is measured over that fixed window, whatever the burst's length.
    """
    stream, pre_seg, pre_stride = assemble_burst(stacks, config)
    rx_samples, clip_fraction = _apply_channel(
        stream, tx, chain, config, mean_fraction, operating_current_a, rng
    )
    header = _header_length(config, n_pilot_frames, pre_stride, len(pre_seg))
    first = synchronize(rx_samples[:header], pre_seg) + pre_stride
    return rx_samples, first, clip_fraction


def _count_errors(
    batches, pilot: np.ndarray, n_pilot_frames: int, bits: np.ndarray, plan: BitLoadingPlan
) -> int:
    """Bit errors of a received payload burst, from its blocks in
    consecutive batches: the first ``n_pilot_frames`` blocks estimate the
    gains, and the frames of each batch are equalized, demapped and
    compared with their bits.  Rows are equalized and demapped
    independently, so the count equals the whole burst's, bit for bit."""
    bpf = plan.total_bits
    pilots = np.empty((n_pilot_frames, len(pilot)), dtype=complex)
    gains, row, errors = None, 0, 0
    for batch in batches:
        k = min(max(n_pilot_frames - row, 0), len(batch))
        pilots[row : row + k] = batch[:k]
        if gains is None and row + k == n_pilot_frames:
            gains = estimate_channel(pilots, pilot)
        lo = (row + k - n_pilot_frames) * bpf
        row += len(batch)
        if k < len(batch):
            rx_bits = demodulate_plan(equalize(batch[k:], gains), plan)
            errors += int(np.count_nonzero(rx_bits != bits[lo : lo + rx_bits.size]))
    return errors


def run_link(
    tx: TransmitterModel,
    chain: ReceiverChain,
    config: OfdmConfig,
    ber_target: float = BER_TARGET,
    seed: int = 0,
    n_pilot_frames: int = 8,
    n_measurement_frames: int = 100,
    n_payload_frames: int = 32,
) -> LinkReport:
    """Simulate one complete link: harvest figures plus the modem round trip.

    Deterministic for a given seed.  The measurement burst transmits known
    QPSK on every carrier so each carrier's SNR estimate averages at least
    ``n_measurement_frames`` symbols before the loading decision; the payload
    burst then runs the loaded plan and measures the bit error rate.  Each
    burst needs at least one pilot frame, and the SNR estimate at least one
    measurement frame.  A run with no payload frames, or whose plan loads no
    bits (no carrier meets the BER target), reports a BER of 0.
    """
    for name, value, least in (
        ("seed", seed, 0),
        ("n_pilot_frames", n_pilot_frames, 1),
        ("n_measurement_frames", n_measurement_frames, 1),
        ("n_payload_frames", n_payload_frames, 0),
    ):
        ParameterError.require_integer(name, value)
        if value < least:
            raise ParameterError(f"{name} must be at least {least}, got {value}")
    if config.oversampling_factor < 2:
        raise ParameterError(
            "oversampling_factor must be >= 2 so the shaped band fits below "
            "the stream Nyquist frequency"
        )
    rng = np.random.default_rng([seed, 0xC0FFEE])

    # --- DC / harvesting path -------------------------------------------
    device = chain.device
    p_at_device = tx.emitted_power_w
    beam = replace(chain.beam, total_power_w=p_at_device)
    fractions = sector_fractions(device.geometry, beam)
    photocurrents = beam.responsivity_a_w * p_at_device * fractions
    captured_w = p_at_device * float(fractions.sum())

    curve = string_iv(device, photocurrents)
    mpp = find_mpp(curve)
    op = dc_operating_point(curve, chain.load_resistance_ohm)
    i_sc = curve.short_circuit_current_a()
    ratio = mpp.current_a / i_sc if i_sc > 0 else math.nan

    # --- measurement burst -------------------------------------------------
    f3db = chain.f3db_hz()
    mean_fraction = float(fractions.mean())

    nd = config.data_subcarriers
    qpsk = BitLoadingPlan(np.full(nd, 2), np.ones(nd))
    pilot_bits = generate_bits([seed, 1], 2 * nd)
    pilot = modulate_plan(pilot_bits, qpsk, 1)[0]
    pilots = (np.tile(pilot_bits, n_pilot_frames), qpsk)
    channel = (tx, chain, config, mean_fraction, op.current_a, rng)

    measurement_bits = generate_bits([seed, 2], 2 * nd * n_measurement_frames)
    rx_samples, first, clip_fraction = _send_burst(
        [pilots, (measurement_bits, qpsk)], n_pilot_frames, *channel
    )
    blocks = receive_blocks(rx_samples, first, n_pilot_frames + n_measurement_frames, config)
    del rx_samples
    gains = estimate_channel(blocks[:n_pilot_frames], pilot)
    eq_measure = equalize(blocks[n_pilot_frames:], gains)
    del blocks
    if n_measurement_frames < 100:
        warnings.warn(
            f"SNR estimated from only {n_measurement_frames} symbols per carrier; "
            "accuracy needs on the order of 100",
            stacklevel=2,
        )
    snr = estimate_snr(eq_measure, modulate_plan(measurement_bits, qpsk, n_measurement_frames))
    del eq_measure

    usable = snr.measured & (np.abs(gains) > 0)
    plan = bit_power_loading(
        snr.snr_linear, ber_target, config.max_qam_order, usable=usable
    )

    # --- payload burst ------------------------------------------------------
    if plan.total_bits > 0:
        payload_bits = generate_bits([seed, 3], n_payload_frames * plan.total_bits)
        rx_samples, first, _ = _send_burst(
            [pilots, (payload_bits, plan)], n_pilot_frames, *channel
        )
        batches = _receive_batches(rx_samples, first, n_pilot_frames + n_payload_frames, config)
        errors = _count_errors(batches, pilot, n_pilot_frames, payload_bits, plan)
        ber = errors / payload_bits.size if payload_bits.size else 0.0
    else:
        ber = 0.0

    return LinkReport(
        device_id=device.device_id or "custom",
        n_segments=device.n_segments,
        seed=seed,
        f3db_hz=f3db,
        bandwidth_snr0_hz=snr_crossing_bandwidth(snr, config.carrier_frequencies_hz()),
        data_rate_bps=data_rate(plan, config),
        ber=ber,
        pmp_w=mpp.power_w,
        pce_emitted=mpp.power_w / tx.emitted_power_w,
        pce_incident=mpp.power_w / captured_w if captured_w > 0 else math.nan,
        imp_isc=ratio,
        harvested_w=op.power_w,
        operating_voltage_v=op.voltage_v,
        operating_current_a=op.current_a,
        emitted_power_w=tx.emitted_power_w,
        captured_power_w=captured_w,
        clip_fraction=clip_fraction,
        total_bits_per_frame=plan.total_bits,
        n_active_carriers=plan.n_active,
        snr=snr,
        plan=plan,
        carrier_freqs_hz=config.carrier_frequencies_hz(),
    )


def sweep(
    entries,
    tx: TransmitterModel,
    config: OfdmConfig,
    ber_target: float = BER_TARGET,
    seed: int = 0,
) -> list[LinkReport]:
    """Run a list of receiver chains; a ``SliptsimError`` is recorded in its
    entry's row, not raised, and any other exception (a bug) propagates.

    Each entry is (label, ReceiverChain).  Entry i runs with seed ``seed + i``
    so results are deterministic and order-independent.
    """
    reports = []
    for i, (label, chain) in enumerate(entries):
        try:
            report = run_link(tx, chain, config, ber_target=ber_target, seed=seed + i)
            report.device_id = label
        except SliptsimError as exc:  # recorded per row; the sweep continues
            report = LinkReport(**{
                **dict.fromkeys(LinkReport.CSV_COLUMNS, math.nan),
                "device_id": label, "n_segments": chain.device.n_segments,
                "seed": seed + i, "emitted_power_w": tx.emitted_power_w,
                "total_bits_per_frame": 0, "n_active_carriers": 0,
                "error": f"{type(exc).__name__}: {exc}",
            })
        reports.append(report)
    return reports

