"""End-to-end link composition: VCSEL transmitter, optical path, segmented
receiver with noise, and the modem round trip.

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

The DC operating point and the small-signal model share the same load
resistor; the AC path additionally sees the amplifier input impedance in
parallel, which is what lets pF-scale string capacitances reach GHz corner
frequencies at a 950-ohm bias load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .constants import (
    BOLTZMANN_J_PER_K, DEFAULT_TEMPERATURE_K, DEFAULT_WAVELENGTH_NM, ELEMENTARY_CHARGE_C,
)
from .loading import BitLoadingPlan, bit_power_loading
from .ofdm import (
    OfdmConfig,
    SubcarrierSnr,
    assemble_frame,
    clip,
    data_rate,
    demodulate_plan,
    estimate_channel,
    equalize,
    estimate_snr,
    generate_bits,
    make_preamble,
    measure_ber,
    modulate_plan,
    overlap_add,
    receive_blocks,
    synchronize,
)
from .ppc import (
    IlluminationProfile,
    SegmentedDevice,
    dc_operating_point,
    find_mpp,
    harvest_figures,
    sector_fractions,
    small_signal_bandwidth,
    string_capacitance,
    string_iv,
)

__all__ = [
    "BER_TARGET",
    "TransmitterModel",
    "NoiseModel",
    "ReceiverChain",
    "LinkReport",
    "channel_response",
    "snr_crossing_bandwidth",
    "run_link",
    "sweep",
    "mismatch_study",
]

# per-carrier bit-error-rate ceiling of the loaded plan (the measured rates
# were recorded at this threshold)
BER_TARGET = 4.7e-3


@dataclass(frozen=True)
class TransmitterModel:
    """VCSEL drive model: piecewise-linear L-I with hard clipping.

    The emitted power is authoritative for the bias point; slope efficiency
    and transconductance convert the drive voltage into an optical swing
    around it.  Swings leaving [0, 2 * emitted_power] are clipped and the
    clipped fraction is reported.  The defaults are the documented VCSEL
    operating point: biased at 1.78 V and 6 mA (1 mA threshold), driven at
    1 Vpp, emitting 2.3 mW at 847 nm.
    """

    drive_vpp: float = 1.0
    slope_efficiency_w_per_a: float = 0.46
    emitted_power_w: float = 2.3e-3
    wavelength_nm: float = DEFAULT_WAVELENGTH_NM
    transconductance_a_per_v: float = 8e-3

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.emitted_power_w <= 0 or self.drive_vpp <= 0:
            raise ValueError("emitted power and drive amplitude must be positive")
        if self.slope_efficiency_w_per_a <= 0 or self.transconductance_a_per_v <= 0:
            raise ValueError("slope efficiency and transconductance must be positive")

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


@dataclass(frozen=True)
class NoiseModel:
    """Receiver noise: load thermal + shot of the mean photocurrent, scaled
    by the amplifier noise figure, plus a digitizer term that tracks the
    received signal level (the oscilloscope auto-ranges, so its quantization
    noise keeps a fixed ratio to the signal RMS).  Current PSDs are
    input-referred densities (A^2/Hz)."""

    temperature_k: float = DEFAULT_TEMPERATURE_K
    noise_figure_db: float = 6.0
    include_thermal: bool = True
    include_shot: bool = True
    extra_current_psd_a2_hz: float = 0.0
    quantization_snr_db: float | None = 4.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # None switches the digitizer term off
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.temperature_k <= 0:
            raise ValueError("temperature must be positive")
        if self.extra_current_psd_a2_hz < 0:
            raise ValueError("extra noise PSD must be non-negative")

    def current_psd(self, load_ohm: float, mean_current_a: float) -> float:
        psd = self.extra_current_psd_a2_hz
        if self.include_thermal:
            psd += 4.0 * BOLTZMANN_J_PER_K * self.temperature_k / load_ohm
        if self.include_shot:
            psd += 2.0 * ELEMENTARY_CHARGE_C * abs(mean_current_a)
        return psd * 10.0 ** (self.noise_figure_db / 10.0)

    def quantization_sigma(self, signal_rms_v: float) -> float:
        """Std-dev of the signal-tracking digitizer noise, in volts."""
        if self.quantization_snr_db is None:
            return 0.0
        return signal_rms_v * 10.0 ** (-self.quantization_snr_db / 20.0)


@dataclass(frozen=True)
class ReceiverChain:
    """Segmented device, beam geometry and the electrical read-out.

    The beam's power is the power at the device: optics losses are absorbed
    in its (fitted) responsivity.
    """

    device: SegmentedDevice
    beam: IlluminationProfile
    load_resistance_ohm: float = 950.0
    amplifier_input_ohm: float = 50.0
    effective_series_resistance_ohm: float = 0.0
    noise: NoiseModel = field(default_factory=NoiseModel)

    def __post_init__(self):
        for name in (
            "load_resistance_ohm", "amplifier_input_ohm", "effective_series_resistance_ohm"
        ):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not 0.0 < self.load_resistance_ohm <= 10e3:
            raise ValueError("load resistance must lie in (0, 10 kOhm]")
        if self.amplifier_input_ohm <= 0:
            raise ValueError("amplifier input impedance must be positive")
        if self.effective_series_resistance_ohm < 0:
            raise ValueError("effective series resistance must be non-negative")

    @property
    def ac_load_ohm(self) -> float:
        """Small-signal load: bias resistor in parallel with the amplifier."""
        r1, r2 = self.load_resistance_ohm, self.amplifier_input_ohm
        return r1 * r2 / (r1 + r2)

    def string_capacitance_f(self) -> float:
        return string_capacitance(self.device.geometry, self.device.diode)

    def f3db_hz(self) -> float:
        return small_signal_bandwidth(
            self.string_capacitance_f(),
            self.ac_load_ohm,
            self.effective_series_resistance_ohm,
        )


@dataclass
class LinkReport:
    """Per-run record of the communication and harvesting figures."""

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

    CSV_COLUMNS = (
        "device_id", "n_segments", "seed", "f3db_hz", "bandwidth_snr0_hz",
        "data_rate_bps", "ber", "pmp_w", "pce_emitted", "pce_incident",
        "imp_isc", "harvested_w", "operating_voltage_v", "operating_current_a",
        "emitted_power_w", "captured_power_w", "clip_fraction",
        "total_bits_per_frame", "n_active_carriers", "error",
    )

    def csv_row(self) -> list:
        return [getattr(self, c) for c in self.CSV_COLUMNS]


# ---------------------------------------------------------------------------
# Analytic channel pieces
# ---------------------------------------------------------------------------

def channel_response(chain: ReceiverChain, config: OfdmConfig):
    """Per-carrier complex gain of the first-order receive chain.

    H(f) = g / (1 + j f / f3dB) with g = responsivity * AC load resistance.

    Returns:
        (gains ndarray over the data carriers, f3dB in Hz)
    """
    f3db = chain.f3db_hz()
    g = chain.beam.responsivity_a_w * chain.ac_load_ohm
    freqs = config.carrier_frequencies_hz()
    return g / (1.0 + 1j * freqs / f3db), f3db


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

def _one_pole(samples: np.ndarray, f3db_hz: float, fs_hz: float) -> np.ndarray:
    """Impulse-invariant discrete single-pole low-pass, unit DC gain."""
    # imported here: a harvest fit never filters, and scipy.signal is slow to load
    from scipy.signal import lfilter

    a = math.exp(-2.0 * math.pi * f3db_hz / fs_hz)
    return lfilter([1.0 - a], [1.0, -a], samples)


def _std(samples: np.ndarray, scratch: np.ndarray) -> float:
    """``np.std(samples)`` by its own steps (mean, subtract, square in place,
    sum, divide, square root), with ``x - mean`` written into ``scratch``, a
    buffer of the same length whose contents are overwritten (a spent one
    spares the new temporary)."""
    np.subtract(samples, samples.mean(), out=scratch)
    np.multiply(scratch, scratch, out=scratch)
    return math.sqrt(scratch.sum() / samples.size)


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

    The stream is clipped at ``config.clip_sigma`` std-devs (not at all
    when it is None).  The stream is consumed: each physical step is one
    pass in its buffer, which carries the clipped drive, the optical
    waveform and the AC photocurrent, and then the received samples that
    are returned.  The single-pole filter's output is the only other
    full-length array held with it.  The drive's std-dev takes a scratch
    array that is dropped at once; the received level's std-dev uses the
    spent stream as scratch once the filter has consumed the photocurrent.
    The noise draw takes the same generator values as
    ``rng.normal(0, sigma_v, n)``.
    """
    sigma_x = _std(stream, np.empty_like(stream))
    clip_sigma = config.clip_sigma
    if clip_sigma is None:
        # unclipped: the drive is scaled as the default clip level would scale it
        scale_sigma = OfdmConfig.clip_sigma
    else:
        clip(stream, clip_sigma, sigma=sigma_x, out=stream)
        scale_sigma = clip_sigma
    stream *= tx.drive_vpp / (2.0 * scale_sigma * max(sigma_x, 1e-300))
    _, clipped = tx.optical_waveform(stream, out=stream)
    stream -= stream.mean()
    stream *= chain.beam.responsivity_a_w * mean_fraction
    v_sig = _one_pole(stream, chain.f3db_hz(), config.sample_rate_hz)
    v_sig *= chain.ac_load_ohm
    psd = chain.noise.current_psd(chain.ac_load_ohm, operating_current_a)
    sigma_thermal = math.sqrt(psd * config.sample_rate_hz / 2.0) * chain.ac_load_ohm
    sigma_q = chain.noise.quantization_sigma(_std(v_sig, stream))  # stream is spent
    rx = rng.standard_normal(out=stream)
    rx *= math.hypot(sigma_thermal, sigma_q)
    rx += v_sig
    return rx, clipped


# ---------------------------------------------------------------------------
# Full link run
# ---------------------------------------------------------------------------

def _pilot_symbols(config: OfdmConfig, seed) -> np.ndarray:
    """Known QPSK reference frame used for channel estimation."""
    nd = config.data_subcarriers
    plan = BitLoadingPlan(np.full(nd, 2), np.ones(nd))
    return modulate_plan(generate_bits(seed, 2 * nd), plan, 1)[0]


def _build_stream(
    config: OfdmConfig, frames: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Preamble plus the shaped frame stack.

    Returns (stream, shaped preamble segment, first block offset).
    """
    _, pre_seg = make_preamble(config)
    pre_stride = config.preamble_length * config.oversampling_factor
    stream = overlap_add([pre_seg, assemble_frame(frames, config)], pre_stride)
    return stream, pre_seg, pre_stride


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


def _run_burst(
    frames: np.ndarray,
    pilot: np.ndarray,
    n_pilot_frames: int,
    tx: TransmitterModel,
    chain: ReceiverChain,
    config: OfdmConfig,
    mean_fraction: float,
    operating_current_a: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Transmit one burst (preamble + pilots + frames) through the channel.

    Returns (equalized frame symbols, estimated gains, clip fraction).  Each
    burst carries its own pilot repetitions, so the equalizer always matches
    the burst's drive scaling.  The preamble sits at the start of the burst,
    so it is searched for only in the burst header (:func:`_header_length`),
    and the synchronizer's peak-to-sidelobe check is measured over that
    fixed window, whatever the payload length.
    """
    all_frames = np.vstack([np.tile(pilot, (n_pilot_frames, 1)), frames])
    n_blocks = len(all_frames)
    stream, pre_seg, pre_stride = _build_stream(config, all_frames)
    del all_frames  # the stream carries the frames from here on
    # the channel consumes the stream: its buffer returns the received samples
    rx_samples, clip_fraction = _apply_channel(
        stream, tx, chain, config, mean_fraction, operating_current_a, rng
    )
    header = _header_length(config, n_pilot_frames, pre_stride, len(pre_seg))
    start = synchronize(rx_samples[:header], pre_seg)
    blocks = receive_blocks(rx_samples, start + pre_stride, n_blocks, config)
    gains = estimate_channel(blocks[:n_pilot_frames], pilot)
    return equalize(blocks[n_pilot_frames:], gains), gains, clip_fraction


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
    burst then runs the loaded plan and measures the bit error rate.
    """
    if config.oversampling_factor < 2:
        raise ValueError(
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

    pilot = _pilot_symbols(config, [seed, 1])
    measurement_bits = generate_bits(
        [seed, 2], 2 * config.data_subcarriers * n_measurement_frames
    )
    qpsk_plan = BitLoadingPlan(
        np.full(config.data_subcarriers, 2), np.ones(config.data_subcarriers)
    )
    measurement = modulate_plan(measurement_bits, qpsk_plan, n_measurement_frames)

    eq_measure, gains, clip_fraction = _run_burst(
        measurement, pilot, n_pilot_frames, tx, chain, config,
        mean_fraction, op.current_a, rng,
    )
    snr = estimate_snr(eq_measure, measurement)

    usable = snr.measured & (np.abs(gains) > 0)
    plan = bit_power_loading(
        snr.snr_linear, ber_target, config.max_qam_order, usable=usable
    )

    # --- payload burst ------------------------------------------------------
    if plan.total_bits > 0:
        payload_bits = generate_bits([seed, 3], n_payload_frames * plan.total_bits)
        payload = modulate_plan(payload_bits, plan, n_payload_frames)
        eq_payload, _, _ = _run_burst(
            payload, pilot, n_pilot_frames, tx, chain, config,
            mean_fraction, op.current_a, rng,
        )
        rx_bits = demodulate_plan(eq_payload, plan)
        ber = measure_ber(payload_bits, rx_bits)
    else:
        ber = math.nan

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
    """Run a list of receiver chains; failures are recorded, not raised.

    Each entry is (label, ReceiverChain).  Entry i runs with seed ``seed + i``
    so results are deterministic and order-independent.
    """
    entries = list(entries)
    if not entries:
        return []
    reports = []
    for i, (label, chain) in enumerate(entries):
        try:
            report = run_link(tx, chain, config, ber_target=ber_target, seed=seed + i)
            report.device_id = label
        except Exception as exc:  # recorded per row; the sweep continues
            report = LinkReport(
                device_id=label, n_segments=chain.device.n_segments,
                seed=seed + i, f3db_hz=math.nan, bandwidth_snr0_hz=math.nan,
                data_rate_bps=math.nan, ber=math.nan, pmp_w=math.nan,
                pce_emitted=math.nan, pce_incident=math.nan, imp_isc=math.nan,
                harvested_w=math.nan, operating_voltage_v=math.nan,
                operating_current_a=math.nan, emitted_power_w=tx.emitted_power_w,
                captured_power_w=math.nan, clip_fraction=math.nan,
                total_bits_per_frame=0, n_active_carriers=0,
                error=f"{type(exc).__name__}: {exc}",
            )
        reports.append(report)
    return reports


def mismatch_study(
    device: SegmentedDevice,
    beam: IlluminationProfile,
    offsets_mm,
) -> list[tuple[float, float, float]]:
    """(offset, Imp/Isc, Pmp) with the beam offset along +x.

    Pmp is non-increasing in |offset| for a centered Gaussian on a symmetric
    device; Imp/Isc degrades as the least-illuminated sector loses share.
    """
    rows = []
    for off in offsets_mm:
        b = replace(beam, center_mm=(off, 0.0))
        photocurrents = b.responsivity_a_w * b.total_power_w * sector_fractions(
            device.geometry, b
        )
        pmp, ratio = harvest_figures(device, photocurrents)
        rows.append((float(off), ratio, pmp))
    return rows
