"""Shared helpers for tests: the beam's closed-form irradiance, an
independent oracle of the device solver (per-segment bracketed ``brentq``
solves of the implicit single-diode equation, the string I-V and a
golden-section MPP), calibration targets generated from known fit
parameters, the complex IFFT of a DCO-OFDM block's full Hermitian spectrum,
the burst of a frame stack given as symbols, the modem's whole-buffer
transmit and receive paths and its integer bit mapping, a configurable
digital loopback, a plain reference of the link's optical/electrical
channel, a reader of the CSV artifacts and a runner of probes in a fresh
interpreter."""

import csv
import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
from scipy.optimize import brentq
from scipy.special import erfc

import sliptsim
from sliptsim import ofdm
from sliptsim.calibrate import CalibrationTargets
from sliptsim.errors import ParameterError
from sliptsim.link import _one_pole
from sliptsim.loading import BitLoadingPlan
from sliptsim.ofdm import (
    OfdmConfig,
    assemble_frame,
    demodulate_plan,
    equalize,
    estimate_channel,
    generate_bits,
    make_preamble,
    modulate_plan,
    ofdm_core,
    overlap_add,
    receive_blocks,
    rrc_taps,
    synchronize,
)
from sliptsim.ppc import (
    BracketError,
    DiodeParams,
    harvest_figures,
    sector_fractions,
)
from sliptsim.presets import PRESET_NAMES, default_beam, default_receiver
from sliptsim.qam import _axis_tables, _check_order, constellation


# ---------------------------------------------------------------------------
# Device solver oracle
# ---------------------------------------------------------------------------

# Exponent clamp keeping exp() finite during bracket searches.
_EXP_MAX = 600.0


def irradiance(beam, x_mm, y_mm):
    """Irradiance (W/mm^2) of the Gaussian ``beam`` at device-plane
    coordinates: 2 P / (pi w^2) exp(-2 r^2 / w^2) about its center."""
    w2 = beam.beam_radius_mm**2
    dx = np.asarray(x_mm) - beam.center_mm[0]
    dy = np.asarray(y_mm) - beam.center_mm[1]
    return (2.0 * beam.total_power_w / (math.pi * w2)) * np.exp(-2.0 * (dx**2 + dy**2) / w2)


def segment_photocurrents(geometry, beam, rel_tol=1e-6) -> np.ndarray:
    """Photocurrent (A) generated in each sector: responsivity x sector power."""
    fractions = sector_fractions(geometry, beam, rel_tol=rel_tol)
    return beam.responsivity_a_w * beam.total_power_w * fractions


def sector_beam_power(beam, radius_mm, theta0, theta1, panels=8) -> float:
    """Beam power (W) captured by one angular sector at a fixed resolution:
    ``panels`` composite 16-point Gauss-Legendre panels over [theta0, theta1]
    of the closed-form radial integral, the quadrature the adaptive
    ``sector_fractions`` doubles."""
    x, w = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(theta0, theta1, panels + 1)
    half = 0.5 * np.diff(edges)
    theta = ((edges[:-1] + half)[:, None] + half[:, None] * x).ravel()
    weights = (half[:, None] * w).ravel()
    # along the ray at theta, |r*u - c|^2 = (r - b)^2 + t with b = c.u and
    # t = |c|^2 - b^2; the integral of exp(-k*((r - b)^2 + t))*r over [0, R]
    # splits into an exact Gaussian term and b times an erf term
    k = 2.0 / beam.beam_radius_mm**2
    x0, y0 = beam.center_mm
    b = x0 * np.cos(theta) + y0 * np.sin(theta)
    t = np.maximum(x0**2 + y0**2 - b**2, 0.0)
    gaussian = (np.exp(-k * b**2) - np.exp(-k * (radius_mm - b) ** 2)) / (2.0 * k)
    # erf(sqrt(k)*b) + erf(sqrt(k)*(R - b)), free of cancellation for rays
    # that miss the beam
    erfs = erfc(-math.sqrt(k) * b) - erfc(math.sqrt(k) * (radius_mm - b))
    along_ray = np.exp(-k * t) * (gaussian + b * 0.5 * math.sqrt(math.pi / k) * erfs)
    peak = k * beam.total_power_w / math.pi
    return float(peak * np.dot(along_ray, weights))


def _diode_residual(diode: DiodeParams, i0: float, photocurrent: float,
                    voltage: float, current: float) -> float:
    """I_ph - I0*(exp((V+I*Rs)/(n*VT)) - 1) - (V+I*Rs)/Rsh - I."""
    nvt = diode.ideality * diode.thermal_voltage_v
    vj = voltage + current * diode.series_resistance_ohm
    arg = min(vj / nvt, _EXP_MAX)
    shunt = 0.0 if math.isinf(diode.shunt_resistance_ohm) else vj / diode.shunt_resistance_ohm
    return photocurrent - i0 * math.expm1(arg) - shunt - current


def segment_current(
    diode: DiodeParams,
    area_mm2: float,
    photocurrent_a: float,
    voltage_v: float,
) -> float:
    """Current through one segment at a given terminal voltage.

    The forward direction of the single-diode equation, solved by bracketed
    root finding (1e-12 A absolute / 1e-9 relative) independently of the
    library's voltage-domain solver; negative voltages are legal.

    Raises:
        BracketError: if no sign change is found in the expanding search.
    """
    if area_mm2 <= 0:
        raise ValueError("area must be positive")
    i0 = diode.saturation_current_density_a_mm2 * area_mm2
    if diode.series_resistance_ohm == 0.0:
        # explicit with Rs = 0
        nvt = diode.ideality * diode.thermal_voltage_v
        arg = min(voltage_v / nvt, _EXP_MAX)
        shunt = 0.0 if math.isinf(diode.shunt_resistance_ohm) else voltage_v / diode.shunt_resistance_ohm
        return photocurrent_a - i0 * math.expm1(arg) - shunt

    def g(i):
        return _diode_residual(diode, i0, photocurrent_a, voltage_v, i)

    # g is strictly decreasing in I; expand a bracket around a crude estimate.
    i_est = photocurrent_a
    if not math.isinf(diode.shunt_resistance_ohm):
        i_est -= voltage_v / diode.shunt_resistance_ohm
    step = max(abs(i_est), i0, 1e-9)
    lo, hi = i_est - step, i_est + step
    for _ in range(200):
        if g(lo) > 0.0 >= g(hi):
            break
        if g(lo) <= 0.0:
            lo -= step
        if g(hi) > 0.0:
            hi += step
        step *= 2.0
    else:
        raise BracketError(
            f"no current bracket in [{lo:.6g}, {hi:.6g}] A for V={voltage_v:.6g} V"
        )
    return float(brentq(g, lo, hi, xtol=1e-12, rtol=1e-9))


def segment_voltage(
    diode: DiodeParams,
    area_mm2: float,
    photocurrent_a: float,
    current_a: float,
) -> float:
    """Terminal voltage of one segment carrying a given current.

    Solves the implicit single-diode equation for V by an expanding bracket
    and ``brentq`` (1e-12 V).  With the shunt disabled the equation is
    explicit, and currents above I_ph + I0 raise BracketError.
    """
    i0 = diode.saturation_current_density_a_mm2 * area_mm2
    nvt = diode.ideality * diode.thermal_voltage_v
    rsh = diode.shunt_resistance_ohm
    i_rs = current_a * diode.series_resistance_ohm
    if math.isinf(rsh):
        headroom = photocurrent_a - current_a + i0
        if headroom <= 0:
            raise BracketError(
                f"current {current_a:.6g} A exceeds I_ph + I0 = "
                f"{photocurrent_a + i0:.6g} A with shunt disabled"
            )
        return nvt * math.log(headroom / i0) - i_rs

    def h(v):
        return _diode_residual(diode, i0, photocurrent_a, v, current_a)

    # h is strictly decreasing in V.
    v_est = nvt * math.log1p(max(photocurrent_a - current_a, 0.0) / i0) - i_rs
    step = max(abs(v_est), nvt, 1.0)
    lo, hi = v_est - step, v_est + step
    h_lo, h_hi = h(lo), h(hi)
    for _ in range(200):
        if h_lo > 0.0 >= h_hi:
            break
        if h_lo <= 0.0:
            lo -= step
            h_lo = h(lo)
        if h_hi > 0.0:
            hi += step
            h_hi = h(hi)
        step *= 2.0
    else:
        raise BracketError(
            f"no voltage bracket in [{lo:.6g}, {hi:.6g}] V for I={current_a:.6g} A"
        )
    return float(brentq(h, lo, hi, xtol=1e-12))


def string_voltage(device, photocurrents, current_a):
    """(string voltage, clamp flag) at one series current: the sum of the
    segment voltages, each clamped at -reverse_breakdown_v when enabled."""
    area = device.geometry.sector_area_mm2
    limit = device.reverse_breakdown_v
    clamped = False
    total = 0.0
    for iph in photocurrents:
        try:
            v = segment_voltage(device.diode, area, float(iph), float(current_a))
        except BracketError:
            if limit is None:
                raise
            v = -math.inf
        if limit is not None and v < -limit:
            v = -limit
            clamped = True
        total += v
    return total, clamped


def string_voltages(device, photocurrents, currents):
    """:func:`string_voltage` once per current: (voltages, clamp flags)."""
    voltages = np.empty(len(currents))
    clamped = np.zeros(len(currents), dtype=bool)
    for k, i in enumerate(currents):
        voltages[k], clamped[k] = string_voltage(device, photocurrents, i)
    return voltages, clamped


def short_circuit_current(device, photocurrents) -> float:
    """Zero crossing of the string voltage: an expanding bracket (or, for a
    conduction-limited string, a geometric approach to its current limit),
    then ``brentq``."""
    photocurrents = np.asarray(photocurrents, dtype=float)
    if np.all(photocurrents <= 0):
        return 0.0
    i0 = device.diode.saturation_current_density_a_mm2 * device.geometry.sector_area_mm2

    def v_of_i(i):
        return string_voltage(device, photocurrents, i)[0]

    if v_of_i(0.0) <= 0.0:
        return 0.0
    if math.isinf(device.diode.shunt_resistance_ohm) and device.reverse_breakdown_v is None:
        limit = float(photocurrents.min()) + i0
        gap, hi = i0 * 0.5, None
        while True:
            candidate = limit - gap
            if candidate <= 0.0 or candidate == limit:
                break
            if v_of_i(candidate) < 0.0:
                hi = candidate
                break
            gap *= 0.5
        if hi is None:
            return float(np.nextafter(limit, 0.0))
        return float(brentq(v_of_i, 0.0, hi, xtol=1e-15, rtol=8.9e-16))
    hi = float(photocurrents.min())
    step = max(hi * 1e-3, i0, 1e-15)
    for _ in range(200):
        if v_of_i(hi) < 0.0:
            break
        hi += step
        step *= 2.0
    else:
        raise BracketError("short-circuit current bracket not found")
    return float(brentq(v_of_i, 0.0, hi, xtol=1e-15, rtol=8.9e-16))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(f, lo: float, hi: float, iterations: int = 90):
    """Golden-section maximization of f over [lo, hi]: (x, f(x))."""
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iterations):
        if b - a < 1e-15 * max(abs(a), abs(b), 1e-12):
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)


def reference_mpp(device, photocurrents):
    """(Pmp, Imp/Isc) from the oracle: a 97-point power scan one current at a
    time, then golden-section refinement between the neighbours of the best
    scan point."""
    photocurrents = np.asarray(photocurrents, dtype=float)
    i_sc = short_circuit_current(device, photocurrents)
    if i_sc <= 0:
        return 0.0, math.nan

    def power(i):
        return i * string_voltage(device, photocurrents, i)[0]

    grid = np.linspace(0.0, i_sc * (1.0 - 1e-12), 97)
    values = np.array([power(i) for i in grid])
    k = int(np.argmax(values))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    i_mp, p_mp = golden_max(power, lo, hi)
    return p_mp, i_mp / i_sc


def reference_harvest_figures(device, beam):
    """``harvest_figures`` from the oracle."""
    return reference_mpp(device, segment_photocurrents(device.geometry, beam))


# ---------------------------------------------------------------------------
# Calibration targets
# ---------------------------------------------------------------------------


def synthesize_targets(
    capacitance_density_f_mm2: dict,
    series_resistance_ohm: dict,
    responsivity_a_w: dict,
    beam_radius_mm: float,
    beam_offset_mm: dict,
) -> CalibrationTargets:
    """Bandwidth, Pmp and Imp/Isc targets of every preset, forward-generated
    from known fit parameters (keyed by cell size, segment count or preset
    name) under the default read-out the fit assumes."""
    bw, pmp, ii = {}, {}, {}
    for name in PRESET_NAMES:
        size, n = name[0], int(name[1:])
        beam = default_beam(
            responsivity_a_w[size], beam_radius_mm,
            center_mm=(beam_offset_mm.get(name, 0.0), 0.0),
        )
        chain = default_receiver(
            name, DiodeParams(capacitance_density_f_mm2=capacitance_density_f_mm2[size]),
            beam=beam, effective_series_resistance_ohm=series_resistance_ohm[n],
        )
        bw[name] = chain.f3db_hz()
        pmp[name], ii[name] = harvest_figures(
            chain.device, segment_photocurrents(chain.device.geometry, beam)
        )
    return CalibrationTargets(bandwidth_hz=bw, pmp_w=pmp, imp_isc=ii)


# ---------------------------------------------------------------------------
# Modem and channel references
# ---------------------------------------------------------------------------


def reference_core(symbols, fft_size: int) -> np.ndarray:
    """Complex IFFT of the full Hermitian spectrum, X[N-k] = conj(X[k]) with
    the data on bins 1 .. N/2-1 and DC and Nyquist zero: the DCO-OFDM block
    core [..., fft_size] with its rounding-level imaginary part kept."""
    symbols = np.asarray(symbols, dtype=complex)
    n_data = fft_size // 2 - 1
    assert symbols.shape[-1] == n_data
    spectrum = np.zeros(symbols.shape[:-1] + (fft_size,), dtype=complex)
    spectrum[..., 1 : n_data + 1] = symbols
    spectrum[..., fft_size - 1 : fft_size // 2 : -1] = np.conj(symbols)
    return np.fft.ifft(spectrum, axis=-1)


def whole_buffer_blocks(stacks, config: OfdmConfig) -> np.ndarray:
    """Cyclic-prefixed blocks [n_blocks, block_length] of the frame stacks
    in order, from one IFFT of every frame at once: the symbol-rate buffer
    the transmitter shaped before it built each chunk's blocks on demand."""
    core = ofdm_core(np.vstack([np.atleast_2d(stack) for stack in stacks]), config)
    return np.concatenate([core[:, config.fft_size - config.cp_length :], core], axis=1)


def frames_burst(frames, config: OfdmConfig):
    """The burst of a frame stack [n_frames, n_carriers] given as symbols:
    the preamble's stride of zeros, then the frames shaped by
    ``assemble_frame``, with the shaped preamble added into the head.
    (stream, shaped preamble, first block offset), as ``assemble_burst``
    gives for the bits the frames map from."""
    _, pre_seg = make_preamble(config)
    first = config.preamble_length * config.oversampling_factor
    stream = np.concatenate([np.zeros(first), assemble_frame(frames, config)])
    stream[: len(pre_seg)] += pre_seg
    return stream, pre_seg, first


def whole_buffer_burst(stacks, config: OfdmConfig):
    """``assemble_burst`` shaping the whole block buffer at once: (stream,
    shaped preamble, first block offset)."""
    _, pre_seg = make_preamble(config)
    first = config.preamble_length * config.oversampling_factor
    samples = whole_buffer_blocks(stacks, config).ravel()
    stream = ofdm._shape(partial(ofdm._window, samples), len(samples), config, first)
    stream[: len(pre_seg)] += pre_seg
    return stream, pre_seg, first


def whole_buffer_receive(stream, first_block_start, n_blocks, config: OfdmConfig):
    """``receive_blocks`` holding the whole matched-filter phase ``y`` and
    one FFT of every window: [n_blocks, data_subcarriers]."""
    osf, n, n_sym = config.oversampling_factor, config.fft_size, config.block_length
    # both RRC filters' group delays, then the CP samples ahead of the window
    first = (
        first_block_start + len(rrc_taps(config)) - 1
        + (config.cp_length - config.cp_length // 2) * osf
    )
    chunks = ofdm._matched_filter_phase(stream, first, n_blocks * n_sym, config)
    y = np.concatenate([np.zeros(0), *chunks])
    windows = y.reshape(n_blocks, n_sym)[:, :n]
    return np.fft.rfft(windows, axis=-1)[:, 1 : n // 2]


def integer_qam_modulate(bits, order: int) -> np.ndarray:
    """Gray-QAM mapping through int64 words formed by an integer matmul."""
    b = _check_order(order)
    bits = np.asarray(bits, dtype=np.int64).ravel()
    if bits.size == 0:
        return np.zeros(0, dtype=complex)
    words = bits.reshape(-1, b) @ (1 << np.arange(b - 1, -1, -1, dtype=np.int64))
    return constellation(order)[words]


def integer_qam_demodulate(symbols, order: int) -> np.ndarray:
    """Hard-decision demap unpacked through int64 [n, b] shift arrays."""
    b_i, b_q, l_i, l_q, scale, tables = _axis_tables(order)
    b = b_i + b_q
    symbols = np.asarray(symbols, dtype=complex).ravel()

    def slice_axis(values, l_count):
        idx = np.rint((values / scale + (l_count - 1)) / 2.0).astype(np.int64)
        return np.clip(idx, 0, l_count - 1)

    words = tables[l_i][0][slice_axis(symbols.real, l_i)].astype(np.int64) << b_q
    if b_q > 0:
        words |= tables[l_q][0][slice_axis(symbols.imag, l_q)].astype(np.int64)
    shifts = np.arange(b - 1, -1, -1, dtype=np.int64)
    return ((words[:, None] >> shifts[None, :]) & 1).ravel().astype(np.uint8)


def _listed_columns(plan: BitLoadingPlan, carriers) -> np.ndarray:
    """Frame-bit columns of ``carriers``, one ``np.arange`` per carrier."""
    offsets = np.concatenate([[0], np.cumsum(plan.bits)])
    return np.concatenate(
        [np.arange(offsets[k], offsets[k] + plan.bits[k]) for k in carriers]
    )


def integer_modulate_plan(bits, plan: BitLoadingPlan, n_frames: int) -> np.ndarray:
    """``modulate_plan`` through per-carrier column lists and the integer
    mapping."""
    frame_bits = np.asarray(bits, dtype=np.uint8).reshape(n_frames, plan.total_bits)
    out = np.zeros((n_frames, plan.bits.size), dtype=complex)
    for b in np.unique(plan.bits[plan.bits > 0]):
        carriers = np.nonzero(plan.bits == b)[0]
        chunk = frame_bits[:, _listed_columns(plan, carriers)]
        syms = integer_qam_modulate(chunk.ravel(), 2**b).reshape(n_frames, len(carriers))
        out[:, carriers] = syms * np.sqrt(plan.power[carriers])
    return out


def integer_demodulate_plan(symbols, plan: BitLoadingPlan) -> np.ndarray:
    """``demodulate_plan`` through per-carrier column lists and the integer
    demapping."""
    symbols = np.atleast_2d(np.asarray(symbols, dtype=complex))
    n_frames = symbols.shape[0]
    frame_bits = np.zeros((n_frames, plan.total_bits), dtype=np.uint8)
    for b in np.unique(plan.bits[plan.bits > 0]):
        carriers = np.nonzero(plan.bits == b)[0]
        scaled = symbols[:, carriers] / np.sqrt(plan.power[carriers])
        rec = integer_qam_demodulate(scaled.ravel(), 2**b)
        frame_bits[:, _listed_columns(plan, carriers)] = rec.reshape(n_frames, -1)
    return frame_bits.ravel()


def measure_ber(tx_bits, rx_bits) -> float:
    """Fraction of mismatched bits; streams must have equal length: the
    whole-burst BER the link's batch-by-batch error count equals."""
    tx = np.asarray(tx_bits).ravel()
    rx = np.asarray(rx_bits).ravel()
    if tx.shape != rx.shape:
        raise ParameterError(f"bit stream lengths differ: {tx.size} vs {rx.size}")
    if tx.size == 0:
        return 0.0
    return float(np.mean(tx != rx))


def build_tx_stream(frames, config: OfdmConfig, lead_pad=0, tail_pad=256):
    """Preamble + overlap-added frames, embedded at an offset in a longer
    stream.  Returns (stream, preamble_start, first_block_start)."""
    _, pre_seg = make_preamble(config)
    pre_stride = config.preamble_length * config.oversampling_factor
    segs = [assemble_frame(f, config) for f in frames]
    body = overlap_add(segs, config.block_stride)
    total = lead_pad + pre_stride + len(body) + tail_pad
    stream = np.zeros(total)
    stream[lead_pad : lead_pad + len(pre_seg)] += pre_seg
    stream[lead_pad + pre_stride : lead_pad + pre_stride + len(body)] += body
    return stream, lead_pad, lead_pad + pre_stride


def digital_loopback(
    order,
    config: OfdmConfig,
    n_frames=3,
    noise_sigma=0.0,
    channel=None,
    seed=7,
    offset=777,
):
    """Full chain over an optional LTI channel; returns (ber, max imag residue,
    sync error, tx bits, rx bits)."""
    rng = np.random.default_rng(seed)
    nd = config.data_subcarriers
    b = int(np.log2(order))
    plan = BitLoadingPlan(np.full(nd, b), np.ones(nd))
    bits = generate_bits(seed, n_frames * plan.total_bits)
    payload = modulate_plan(bits, plan, n_frames)
    pilot_plan = BitLoadingPlan(np.full(nd, 2), np.ones(nd))
    pilot = modulate_plan(generate_bits([seed, 1], 2 * nd), pilot_plan, 1)[0]

    frames = [pilot] + list(payload)
    stream, pre_start, block_start = build_tx_stream(
        frames, config, lead_pad=offset
    )
    if channel is not None:
        stream = channel(stream)
    if noise_sigma > 0:
        stream = stream + rng.normal(0.0, noise_sigma, len(stream))

    _, pre_seg = make_preamble(config)
    found = synchronize(stream, pre_seg)
    sync_error = found - pre_start

    first_block = found + config.preamble_length * config.oversampling_factor
    blocks = receive_blocks(stream, first_block, len(frames), config)
    gains = estimate_channel(blocks[:1], pilot)
    eq = equalize(blocks[1:], gains)
    rx_bits = demodulate_plan(eq, plan)
    return measure_ber(bits, rx_bits), sync_error, bits, rx_bits, eq, payload


def reference_channel(
    stream, tx, chain, config, mean_fraction, operating_current_a, rng, clip_sigma
):
    """The link channel written out step by step, one temporary per step.

    Symmetric clipping of the stream at +/- clip_sigma std-devs (a
    numerically constant stream passes unchanged), drive scaling, the
    transmitter's clipped L-I line, AC coupling,
    responsivity, the single-pole RC corner, the AC load and Gaussian noise.
    The single-pole step is the production filter: this reference checks
    the order of the channel's in-place steps, and the filter is checked
    against ``lfilter`` on its own.
    Returns (received samples, fraction of samples outside the optical
    window).
    """
    sigma_x = stream.std()
    if clip_sigma is not None and sigma_x > 0:
        rms = math.sqrt(np.mean(stream**2))
        if not sigma_x <= 1e-12 * rms:
            stream = np.clip(stream, -clip_sigma * sigma_x, clip_sigma * sigma_x)
    scale_sigma = clip_sigma if clip_sigma is not None else 3.2
    drive = stream * (tx.drive_vpp / (2.0 * scale_sigma * max(sigma_x, 1e-300)))
    swing = tx.slope_efficiency_w_per_a * tx.transconductance_a_per_v * drive
    p = tx.emitted_power_w + swing
    lo, hi = 0.0, 2.0 * tx.emitted_power_w
    clipped = float(np.mean((p < lo) | (p > hi)))
    optical = np.clip(p, lo, hi)
    i_ac = chain.beam.responsivity_a_w * mean_fraction * (optical - optical.mean())
    v_sig = _one_pole(i_ac, chain.f3db_hz(), config.sample_rate_hz) * chain.ac_load_ohm
    psd = chain.noise.current_psd(chain.ac_load_ohm, operating_current_a)
    sigma_thermal = math.sqrt(psd * config.sample_rate_hz / 2.0) * chain.ac_load_ohm
    sigma_q = chain.noise.quantization_sigma(float(v_sig.std()))
    sigma_v = math.hypot(sigma_thermal, sigma_q)
    return v_sig + rng.normal(0.0, sigma_v, len(v_sig)), clipped


# ---------------------------------------------------------------------------
# Artifacts and fresh interpreters
# ---------------------------------------------------------------------------


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """(columns, string rows) of a CSV artifact, skipping comment lines."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = [row for row in csv.reader(lines) if row]
    if not rows:
        raise ValueError(f"{path}: no header row")
    return rows[0], rows[1:]


def run_fresh(probe: str, *args: str) -> str:
    """The last line ``probe`` prints in a fresh interpreter that imports
    the ``sliptsim`` this one does; ``args`` become its ``sys.argv[1:]``."""
    src = Path(sliptsim.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", probe, *args],
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True, capture_output=True, text=True, timeout=300,
    )
    return done.stdout.splitlines()[-1]
