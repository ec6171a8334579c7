"""Electrical and small-signal model of a segmented photonic power converter.

A circular active area of diameter ``cell_diameter_mm`` is split into
``n_segments`` equal angular sectors ("pizza" layout), each a pn-junction
subcell; the subcells are series-connected on chip.  This module models

* the per-sector photocurrent generated by a (possibly offset) Gaussian beam,
* the single-diode I-V characteristic of each subcell,
* the composed string I-V curve, short-circuit current and maximum power
  point,
* the string capacitance (reciprocal sum of the subcell junction
  capacitances) and the resulting first-order RC bandwidth.

Units: lengths in mm, areas in mm^2, everything electrical in SI
(A, V, W, F, Ohm, Hz).  Sector ``i`` spans the angle range
``[2*pi*i/n, 2*pi*(i+1)/n)`` measured counter-clockwise from the +x axis.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy.special import erfc

from .constants import responsivity_quantum_limit, thermal_voltage

__all__ = [
    "SegmentGeometry",
    "DiodeParams",
    "IlluminationProfile",
    "SegmentedDevice",
    "IVCurve",
    "OperatingPoint",
    "QuadratureError",
    "BracketError",
    "UndefinedRatioError",
    "sector_beam_power",
    "sector_fractions",
    "segment_photocurrents",
    "segment_current",
    "segment_voltage",
    "string_voltage",
    "short_circuit_current",
    "string_iv",
    "find_mpp",
    "imp_isc_ratio",
    "harvest_figures",
    "pce",
    "series_capacitance",
    "string_capacitance",
    "small_signal_bandwidth",
]

PREFERRED_SEGMENT_COUNTS = (1, 2, 4, 6)

# Exponent clamp keeping exp() finite during bracket searches.
_EXP_MAX = 600.0


class QuadratureError(RuntimeError):
    """Sector-power quadrature failed to reach the requested tolerance."""

    def __init__(self, message, achieved_tol=None):
        super().__init__(message)
        self.achieved_tol = achieved_tol


class BracketError(RuntimeError):
    """Root bracketing for the implicit diode equation failed."""


class UndefinedRatioError(ValueError):
    """Imp/Isc requested for a curve with zero short-circuit current."""


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SegmentGeometry:
    """Geometry of an n-segment circular device.

    ``junction_area_mm2`` is the per-segment junction area used for
    capacitance.  It may exceed (active area)/n because interconnect junction
    regions lie outside the circular active area; when not given it defaults
    to the equal circular split.  The illumination integral always uses the
    circular active area only.
    """

    cell_diameter_mm: float
    n_segments: int
    junction_area_mm2: float | None = None

    def __post_init__(self):
        if self.cell_diameter_mm <= 0:
            raise ValueError("cell_diameter_mm must be positive")
        if self.n_segments < 1:
            raise ValueError("n_segments must be a positive integer")
        if self.n_segments not in PREFERRED_SEGMENT_COUNTS:
            warnings.warn(
                f"n_segments={self.n_segments} is outside the fabricated set "
                f"{PREFERRED_SEGMENT_COUNTS}; proceeding anyway",
                stacklevel=2,
            )
        if self.junction_area_mm2 is not None and self.junction_area_mm2 <= 0:
            raise ValueError("junction_area_mm2 override must be positive")

    @property
    def active_area_mm2(self) -> float:
        """Total circular active area."""
        return math.pi * (self.cell_diameter_mm / 2.0) ** 2

    @property
    def sector_area_mm2(self) -> float:
        """Equal angular share of the circular active area."""
        return self.active_area_mm2 / self.n_segments

    @property
    def segment_junction_area_mm2(self) -> float:
        """Per-segment junction area (override or derived equal split)."""
        if self.junction_area_mm2 is not None:
            return self.junction_area_mm2
        return self.sector_area_mm2


@dataclass(frozen=True)
class DiodeParams:
    """Single-diode parameters of one subcell segment.

    The two-diode model is deliberately not used: it cannot be calibrated
    from the available measurements.
    """

    saturation_current_density_a_mm2: float = 1e-18
    ideality: float = 1.2
    series_resistance_ohm: float = 1.0
    shunt_resistance_ohm: float = 1.2e5
    capacitance_density_f_mm2: float = 10e-12
    temperature_k: float = 298.15

    def __post_init__(self):
        if self.saturation_current_density_a_mm2 <= 0:
            raise ValueError("saturation current density must be positive")
        if not 1.0 <= self.ideality <= 2.5:
            raise ValueError("ideality factor must lie in [1, 2.5]")
        if self.series_resistance_ohm < 0:
            raise ValueError("series resistance must be non-negative")
        if self.shunt_resistance_ohm <= 0:
            raise ValueError("shunt resistance must be positive (inf disables)")
        if self.capacitance_density_f_mm2 <= 0:
            raise ValueError("capacitance density must be positive")
        if self.temperature_k <= 0:
            raise ValueError("temperature must be positive")

    @property
    def thermal_voltage_v(self) -> float:
        """kT/q; computed, never stored."""
        return thermal_voltage(self.temperature_k)


@dataclass(frozen=True)
class IlluminationProfile:
    """Circular Gaussian beam hitting the device plane.

    ``beam_radius_mm`` is the 1/e^2 intensity radius; ``center_mm`` is the
    lateral offset of the beam axis from the device center.
    """

    total_power_w: float
    beam_radius_mm: float
    center_mm: tuple[float, float] = (0.0, 0.0)
    responsivity_a_w: float = 0.6
    wavelength_nm: float = 847.0

    def __post_init__(self):
        if self.total_power_w < 0:
            raise ValueError("total_power_w must be non-negative")
        if self.beam_radius_mm <= 0:
            raise ValueError("beam_radius_mm must be positive")
        if self.responsivity_a_w <= 0:
            raise ValueError("responsivity must be positive")
        limit = responsivity_quantum_limit(self.wavelength_nm)
        if self.responsivity_a_w > limit:
            warnings.warn(
                f"responsivity {self.responsivity_a_w:.3f} A/W exceeds the "
                f"quantum limit {limit:.3f} A/W at {self.wavelength_nm:.0f} nm",
                stacklevel=2,
            )

    def irradiance(self, x_mm, y_mm):
        """Irradiance (W/mm^2) at device-plane coordinates."""
        w2 = self.beam_radius_mm**2
        dx = np.asarray(x_mm) - self.center_mm[0]
        dy = np.asarray(y_mm) - self.center_mm[1]
        return (2.0 * self.total_power_w / (math.pi * w2)) * np.exp(
            -2.0 * (dx**2 + dy**2) / w2
        )


@dataclass(frozen=True)
class SegmentedDevice:
    """Geometry plus diode parameters of one series-connected chip.

    ``reverse_breakdown_v`` is the magnitude of the reverse voltage at which
    a shadowed segment is hard-clamped (no bypass diodes are modeled; the
    fabricated devices have none).  ``None`` disables the clamp.
    """

    geometry: SegmentGeometry
    diode: DiodeParams = field(default_factory=DiodeParams)
    reverse_breakdown_v: float | None = 6.0
    device_id: str = ""

    def __post_init__(self):
        if self.reverse_breakdown_v is not None and self.reverse_breakdown_v <= 0:
            raise ValueError("reverse_breakdown_v is a magnitude; must be positive")

    @property
    def n_segments(self) -> int:
        return self.geometry.n_segments


@dataclass(frozen=True)
class OperatingPoint:
    """One (V, I) point; power is definitionally V*I."""

    voltage_v: float
    current_a: float

    @property
    def power_w(self) -> float:
        return self.voltage_v * self.current_a


@dataclass
class IVCurve:
    """Sampled I-V characteristic, voltage ascending / current non-increasing.

    ``model`` is an optional continuous current-vs-voltage callable used by
    :func:`find_mpp` for sub-grid refinement; curves built by
    :func:`string_iv` carry the exact solver as their model.
    ``clamped`` marks points where at least one segment hit the reverse
    breakdown clamp.
    """

    voltages_v: np.ndarray
    currents_a: np.ndarray
    device_id: str = ""
    illumination_id: str = ""
    clamped: np.ndarray | None = None
    model: object = None  # callable voltage -> current

    MONOTONICITY_TOL = 1e-9

    def __post_init__(self):
        self.voltages_v = np.asarray(self.voltages_v, dtype=float)
        self.currents_a = np.asarray(self.currents_a, dtype=float)
        if self.voltages_v.shape != self.currents_a.shape:
            raise ValueError("voltage and current arrays must match in shape")
        if len(self.voltages_v) > 1:
            dv = np.diff(self.voltages_v)
            if np.any(dv <= 0):
                raise ValueError("voltages must be strictly increasing")
            di = np.diff(self.currents_a)
            scale = max(abs(self.currents_a).max(), 1.0)
            if np.any(di > self.MONOTONICITY_TOL * scale):
                raise ValueError("current must be non-increasing with voltage")

    def __len__(self):
        return len(self.voltages_v)

    def current_at(self, voltage_v: float) -> float:
        """Continuous-model current if available, else linear interpolation."""
        if self.model is not None:
            return float(self.model(voltage_v))
        return float(np.interp(voltage_v, self.voltages_v, self.currents_a))

    def short_circuit_current_a(self) -> float:
        """Current at V = 0 (interpolated if 0 is not a grid point)."""
        return float(np.interp(0.0, self.voltages_v, self.currents_a))


# ---------------------------------------------------------------------------
# Beam-to-sector power: analytic radial integral + adaptive angular quadrature
# ---------------------------------------------------------------------------

# 16-point Gauss-Legendre nodes/weights on [-1, 1]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def _radial_profile(theta, beam: IlluminationProfile, radius_mm: float):
    """Closed-form radial integral of the Gaussian over one ray.

    For a fixed angle theta, integrates irradiance * r for r in [0, R].
    Vectorized over theta.
    """
    w2 = beam.beam_radius_mm**2
    a = 2.0 / w2
    x0, y0 = beam.center_mm
    b = x0 * np.cos(theta) + y0 * np.sin(theta)
    r0sq = x0 * x0 + y0 * y0
    # perpendicular distance squared from the ray to the beam center; >= 0
    transverse = np.maximum(r0sq - b * b, 0.0)
    sqrt_a = math.sqrt(a)
    gauss_part = (np.exp(-a * b * b) - np.exp(-a * (radius_mm - b) ** 2)) / (2 * a)
    # erf(x) + erf(y) written as erfc(-y) - erfc(x): rays that miss the beam
    # have both arguments large, and the erfc form avoids the cancellation
    # against 1 that erf would suffer there
    erf_part = (
        b * 0.5 * math.sqrt(math.pi / a)
        * (erfc(-sqrt_a * b) - erfc(sqrt_a * (radius_mm - b)))
    )
    prefactor = 2.0 * beam.total_power_w / (math.pi * w2)
    return prefactor * np.exp(-a * transverse) * (gauss_part + erf_part)


def sector_beam_power(
    beam: IlluminationProfile,
    radius_mm: float,
    theta0: float,
    theta1: float,
    panels: int = 8,
) -> float:
    """Beam power (W) captured by one angular sector, at fixed resolution.

    Composite 16-point Gauss-Legendre over ``panels`` equal sub-intervals of
    [theta0, theta1]; the radial direction is integrated in closed form, so
    arbitrarily narrow beams cost nothing extra radially.
    """
    edges = np.linspace(theta0, theta1, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    theta = (mid[:, None] + half * _GL_X[None, :]).ravel()
    vals = _radial_profile(theta, beam, radius_mm)
    weights = np.tile(half * _GL_W, panels)
    return float(np.dot(vals, weights))


def sector_fractions(
    geometry: SegmentGeometry,
    beam: IlluminationProfile,
    rel_tol: float = 1e-6,
    max_panels: int = 1 << 14,
    return_panels: bool = False,
):
    """Fraction of the total beam power captured by each sector.

    Adaptive panel doubling until successive resolutions agree to ``rel_tol``
    relative per sector.  Sectors essentially in the dark sit at the
    floating-point cancellation floor of the radial closed form, so the
    comparison is floored at an absolute share of 1e-12 of the total power
    (a femtowatt-scale power for the links modeled here).  With
    ``return_panels`` the terminal panel count per sector is returned
    alongside the fractions.

    Raises:
        QuadratureError: if doubling up to ``max_panels`` never converges.
    """
    n = geometry.n_segments
    if beam.total_power_w == 0.0:
        zeros = np.zeros(n)
        return (zeros, np.zeros(n, dtype=int)) if return_panels else zeros
    radius = geometry.cell_diameter_mm / 2.0
    bounds = np.linspace(0.0, 2.0 * math.pi, n + 1)
    fractions = np.empty(n)
    terminal = np.empty(n, dtype=int)
    for i in range(n):
        prev = sector_beam_power(beam, radius, bounds[i], bounds[i + 1], panels=4)
        panels = 8
        achieved = math.inf
        while panels <= max_panels:
            cur = sector_beam_power(beam, radius, bounds[i], bounds[i + 1], panels)
            floor = 1e-12 * beam.total_power_w
            achieved = abs(cur - prev) / max(abs(cur), floor)
            if achieved <= rel_tol:
                prev = cur
                break
            prev = cur
            panels *= 2
        else:
            raise QuadratureError(
                f"sector {i} quadrature did not reach rel_tol={rel_tol:g} "
                f"within {max_panels} panels (achieved {achieved:.3g})",
                achieved_tol=achieved,
            )
        fractions[i] = max(prev, 0.0) / beam.total_power_w
        terminal[i] = panels
    if return_panels:
        return fractions, terminal
    return fractions


def segment_photocurrents(
    geometry: SegmentGeometry,
    beam: IlluminationProfile,
    rel_tol: float = 1e-6,
) -> np.ndarray:
    """Photocurrent (A) generated in each sector: responsivity x sector power."""
    fractions = sector_fractions(geometry, beam, rel_tol=rel_tol)
    return beam.responsivity_a_w * beam.total_power_w * fractions


# ---------------------------------------------------------------------------
# Single-diode equation
# ---------------------------------------------------------------------------

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

    Solves the implicit single-diode equation by bracketed root finding
    (1e-12 A absolute / 1e-9 relative).  Negative voltages are legal: a
    shadowed segment in a string operates in reverse.

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

    Inverse of :func:`segment_current`.  With the shunt disabled the diode
    cannot conduct more than I_ph + I0; such currents have no solution and
    raise BracketError.
    """
    if area_mm2 <= 0:
        raise ValueError("area must be positive")
    i0 = diode.saturation_current_density_a_mm2 * area_mm2
    nvt = diode.ideality * diode.thermal_voltage_v
    rs = diode.series_resistance_ohm
    if math.isinf(diode.shunt_resistance_ohm):
        # closed form: I = I_ph - I0*(exp(Vj/nvt) - 1)
        headroom = photocurrent_a - current_a + i0
        if headroom <= 0:
            raise BracketError(
                f"current {current_a:.6g} A exceeds I_ph + I0 = "
                f"{photocurrent_a + i0:.6g} A with shunt disabled"
            )
        return nvt * math.log(headroom / i0) - current_a * rs

    def h(v):
        return _diode_residual(diode, i0, photocurrent_a, v, current_a)

    # h is strictly decreasing in V.
    v_est = nvt * math.log1p(max(photocurrent_a - current_a, 0.0) / i0) - current_a * rs
    step = max(abs(v_est), nvt, 1.0)
    lo, hi = v_est - step, v_est + step
    for _ in range(200):
        if h(lo) > 0.0 >= h(hi):
            break
        if h(lo) <= 0.0:
            lo -= step
        if h(hi) > 0.0:
            hi += step
        step *= 2.0
    else:
        raise BracketError(
            f"no voltage bracket in [{lo:.6g}, {hi:.6g}] V for I={current_a:.6g} A"
        )
    return float(brentq(h, lo, hi, xtol=1e-12))


# ---------------------------------------------------------------------------
# Series string composition
# ---------------------------------------------------------------------------

def string_voltage(
    device: SegmentedDevice,
    photocurrents,
    current_a: float,
    with_clamp_flag: bool = False,
):
    """String voltage at a given series current: sum of segment voltages.

    Each segment voltage is clamped at -reverse_breakdown_v (flagged) when
    the clamp is enabled.
    """
    area = device.geometry.sector_area_mm2
    clamped = False
    total = 0.0
    for iph in photocurrents:
        try:
            v = segment_voltage(device.diode, area, float(iph), current_a)
        except BracketError:
            if device.reverse_breakdown_v is None:
                raise
            v = -math.inf
        if device.reverse_breakdown_v is not None and v < -device.reverse_breakdown_v:
            v = -device.reverse_breakdown_v
            clamped = True
        total += v
    if with_clamp_flag:
        return total, clamped
    return total


def short_circuit_current(device: SegmentedDevice, photocurrents) -> float:
    """Series current at which the string voltage crosses zero.

    With both shunt and reverse conduction disabled the string cannot carry
    more than min(I_ph) + I0; the zero crossing then sits exponentially close
    to that limit (well inside one double-precision ulp for realistic I0),
    and the limit itself is returned.
    """
    photocurrents = np.asarray(photocurrents, dtype=float)
    if np.all(photocurrents <= 0):
        return 0.0
    area = device.geometry.sector_area_mm2
    i0 = device.diode.saturation_current_density_a_mm2 * area

    def v_of_i(i):
        return string_voltage(device, photocurrents, i)

    if v_of_i(0.0) <= 0.0:
        return 0.0

    conduction_limited = (
        math.isinf(device.diode.shunt_resistance_ohm)
        and device.reverse_breakdown_v is None
    )
    if conduction_limited:
        limit = float(photocurrents.min()) + i0
        # approach the domain edge geometrically; stop at the ulp floor
        gap = i0 * 0.5
        hi = None
        while True:
            candidate = limit - gap
            if candidate <= 0.0 or candidate == limit:
                break
            if v_of_i(candidate) < 0.0:
                hi = candidate
                break
            gap *= 0.5
        if hi is None:
            # crossing is closer to the limit than one representable step
            return np.nextafter(limit, 0.0)
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


def default_current_grid(i_sc: float, n_points: int = 2048, decades: float = 12.0) -> np.ndarray:
    """Current grid on [0, I_sc] logarithmically refined toward I_sc.

    Most of the curve's voltage variation happens at the knee near I_sc, so
    the grid clusters there.
    """
    if i_sc <= 0:
        return np.array([0.0])
    tail = 1.0 - np.logspace(0.0, -decades, n_points - 1)
    return np.concatenate([i_sc * tail, [i_sc]])


def string_iv(
    device: SegmentedDevice,
    photocurrents,
    current_grid=None,
    n_points: int = 2048,
    illumination_id: str = "",
) -> IVCurve:
    """I-V curve of the series string for the given per-segment photocurrents.

    For each series current the string voltage is the sum of the individual
    segment voltages (each an independent inverse solve of the single-diode
    equation).  The returned curve spans V = 0 (at the string short-circuit
    current) up to V_oc (at zero current) and carries the continuous solver
    as its ``model`` for later refinement.

    Args:
        device: segment geometry, diode parameters and reverse clamp.
        photocurrents: one photocurrent (A) per segment.
        current_grid: explicit series currents; default is a 2048-point grid
            log-refined near I_sc.
        n_points: grid size when ``current_grid`` is not given.
        illumination_id: metadata tag for the curve.

    Returns:
        IVCurve sorted by ascending voltage with per-point clamp flags.
    """
    photocurrents = np.asarray(photocurrents, dtype=float)
    if len(photocurrents) != device.n_segments:
        raise ValueError(
            f"expected {device.n_segments} photocurrents, got {len(photocurrents)}"
        )
    i_sc = short_circuit_current(device, photocurrents)
    if i_sc <= 0.0:
        return IVCurve(
            np.array([0.0]), np.array([0.0]),
            device_id=device.device_id, illumination_id=illumination_id,
            clamped=np.array([False]), model=lambda v: 0.0,
        )
    if current_grid is None:
        current_grid = default_current_grid(i_sc, n_points)
    currents = np.asarray(current_grid, dtype=float)

    voltages = np.empty_like(currents)
    clamp_flags = np.zeros(len(currents), dtype=bool)
    for k, i in enumerate(currents):
        voltages[k], clamp_flags[k] = string_voltage(
            device, photocurrents, float(i), with_clamp_flag=True
        )

    order = np.argsort(voltages)
    voltages = voltages[order]
    currents = currents[order]
    clamp_flags = clamp_flags[order]
    # collapse numerically duplicate voltages (knee points can coincide)
    keep = np.concatenate([[True], np.diff(voltages) > 0])
    voltages, currents, clamp_flags = voltages[keep], currents[keep], clamp_flags[keep]

    def current_at_voltage(v):
        if v >= voltages[-1]:
            return 0.0 if v > voltages[-1] else float(currents[-1])
        if v <= voltages[0]:
            # below the lowest sampled voltage the knee is effectively
            # vertical (conduction-limited string); current pins at I_sc
            return float(currents[0])
        return float(
            brentq(lambda i: string_voltage(device, photocurrents, i) - v,
                   0.0, i_sc, xtol=1e-15, rtol=8.9e-16)
        )

    return IVCurve(
        voltages, currents,
        device_id=device.device_id, illumination_id=illumination_id,
        clamped=clamp_flags, model=current_at_voltage,
    )


# ---------------------------------------------------------------------------
# Curve analysis
# ---------------------------------------------------------------------------

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo: float, hi: float, iterations: int = 90):
    """Golden-section maximization of f over [lo, hi]."""
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


def find_mpp(curve: IVCurve) -> OperatingPoint:
    """Maximum power point of an I-V curve.

    Locates the best grid sample, then refines with golden-section search on
    the continuous model between the bracketing grid points.  If the sampled
    power profile is not unimodal (numerical noise, clamped regions) every
    local maximum is refined and the best is returned, with a warning.

    The returned power is never below the best grid sample.
    """
    if len(curve) == 1 and curve.voltages_v[0] == 0.0 and curve.currents_a[0] == 0.0:
        return OperatingPoint(0.0, 0.0)
    if len(curve) < 8:
        raise ValueError("curve must have at least 8 points spanning V=0 to V_oc")

    v = curve.voltages_v
    p = curve.voltages_v * curve.currents_a
    idx = int(np.argmax(p))

    # local maxima of the sampled power, with a noise floor
    tol = 1e-12 * max(p.max(), 1e-300)
    interior = np.arange(1, len(p) - 1)
    is_max = (p[interior] >= p[interior - 1] - tol) & (p[interior] >= p[interior + 1] - tol)
    strict = (p[interior] > p[interior - 1] + tol) & (p[interior] > p[interior + 1] + tol)
    n_strict = int(np.count_nonzero(strict))
    candidates = [idx]
    if n_strict > 1:
        warnings.warn(
            "sampled power is not unimodal; falling back to exhaustive grid "
            "maximum with local refinement",
            stacklevel=2,
        )
        candidates = sorted(set(interior[is_max]) | {idx})

    def power_at(x):
        return x * curve.current_at(x)

    best_v, best_p = v[idx], power_at(v[idx])
    for c in candidates:
        lo = v[max(c - 1, 0)]
        hi = v[min(c + 1, len(v) - 1)]
        if hi <= lo:
            continue
        vx, px = _golden_max(power_at, lo, hi)
        if px > best_p:
            best_v, best_p = vx, px
    return OperatingPoint(best_v, curve.current_at(best_v))


def imp_isc_ratio(curve: IVCurve) -> float:
    """Ratio of MPP current to short-circuit current, in (0, 1]."""
    isc = curve.short_circuit_current_a()
    if isc <= 0:
        raise UndefinedRatioError("short-circuit current is zero; ratio undefined")
    mpp = find_mpp(curve)
    return mpp.current_a / isc


def harvest_figures(
    device: SegmentedDevice, beam: IlluminationProfile
) -> tuple[float, float]:
    """(Pmp, Imp/Isc) straight from the continuous string model.

    Mismatched strings have a double-knee power profile, so a coarse scan
    picks the knee before golden-section refinement.
    """
    fractions = sector_fractions(device.geometry, beam)
    photocurrents = beam.responsivity_a_w * beam.total_power_w * fractions
    i_sc = short_circuit_current(device, photocurrents)
    if i_sc <= 0:
        return 0.0, math.nan

    def power(i):
        return i * string_voltage(device, photocurrents, i)

    grid = np.linspace(0.0, i_sc * (1.0 - 1e-12), 97)
    values = np.array([power(i) for i in grid])
    k = int(np.argmax(values))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    i_mp, p_mp = _golden_max(power, lo, hi)
    return p_mp, i_mp / i_sc


def pce(mpp: OperatingPoint, incident_power_w: float) -> float:
    """Power conversion efficiency: Pmp over incident optical power."""
    if incident_power_w <= 0:
        raise ValueError("incident power must be positive")
    return mpp.power_w / incident_power_w


# ---------------------------------------------------------------------------
# Small-signal model
# ---------------------------------------------------------------------------

def series_capacitance(capacitances_f) -> float:
    """Reciprocal-sum composition of series capacitances."""
    caps = np.asarray(capacitances_f, dtype=float)
    if np.any(caps <= 0):
        raise ValueError("capacitances must be positive")
    return float(1.0 / np.sum(1.0 / caps))


def string_capacitance(geometry: SegmentGeometry, diode: DiodeParams) -> float:
    """Capacitance of the series string of equal-area junction segments."""
    c_segment = diode.capacitance_density_f_mm2 * geometry.segment_junction_area_mm2
    return series_capacitance([c_segment] * geometry.n_segments)


def small_signal_bandwidth(
    c_string_f: float,
    load_resistance_ohm: float,
    effective_series_resistance_ohm: float = 0.0,
) -> float:
    """First-order RC 3-dB frequency: 1 / (2*pi*(R_load + R_s)*C)."""
    if c_string_f <= 0 or load_resistance_ohm <= 0:
        raise ValueError("capacitance and load resistance must be positive")
    if effective_series_resistance_ohm < 0:
        raise ValueError("series resistance must be non-negative")
    r_total = load_resistance_ohm + effective_series_resistance_ohm
    return 1.0 / (2.0 * math.pi * r_total * c_string_f)
