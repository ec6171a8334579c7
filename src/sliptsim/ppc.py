"""Electrical and small-signal model of a segmented photonic power converter.

A circular active area of diameter ``cell_diameter_mm`` is split into
``n_segments`` equal angular sectors ("pizza" layout), each a pn-junction
subcell; the subcells are series-connected on chip.  This module models

* the per-sector photocurrent generated by a (possibly offset) Gaussian beam
  (composite Gauss-Legendre quadrature whose node tables are cached per
  segment count and panel count),
* the single-diode I-V characteristic of each subcell, solved explicitly:
  one string voltage V(I) with its slope dV/dI (Wright omega form),
  prepared once per string, serves every grid and every bracketed search.
  It has two kernels with the same bits, chosen by the type of the input:
  a vector kernel for arrays of currents (the I-V grid, the harvest scan)
  and a scalar kernel, a plain loop over the segments, for the one float
  the root finder passes,
* the composed string I-V curve, the short-circuit current (a bracketed
  root of V(I), kept as the curve's first sample), the maximum power point
  (one search: the best sample, then a bracketed root of
  dP/dI = V + I*dV/dI) and the load-line operating point; every bracketed
  root is the package's one Brent root finder, ``roots.brent_root``,
* the beam-offset (alignment) study of Pmp and Imp/Isc,
* the string capacitance (reciprocal sum of the subcell junction
  capacitances) and the receiver read-out around the device: the load and
  amplifier that set the first-order RC bandwidth, and the receiver noise.

Units: lengths in mm, areas in mm^2, everything electrical in SI
(A, V, W, F, Ohm, Hz).  Sector ``i`` spans the angle range
``[2*pi*i/n, 2*pi*(i+1)/n)`` measured counter-clockwise from the +x axis.

``scipy.special`` is imported by the two bodies that evaluate it, the
radial profile and :func:`string_model`, so importing this module loads
numpy alone and a job that only reads the read-out never loads scipy.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache
from numbers import Real

import numpy as np

from .constants import (
    AMPLIFIER_INPUT_OHM, AMPLIFIER_NOISE_FIGURE_DB, BOLTZMANN_J_PER_K, DEFAULT_TEMPERATURE_K,
    DEFAULT_WAVELENGTH_NM, ELEMENTARY_CHARGE_C, responsivity_quantum_limit, thermal_voltage,
)
from .errors import ParameterError, SliptsimError
from .roots import brent_root

__all__ = [
    "SegmentGeometry",
    "DiodeParams",
    "IlluminationProfile",
    "SegmentedDevice",
    "IVCurve",
    "OperatingPoint",
    "QuadratureError",
    "BracketError",
    "sector_fractions",
    "string_model",
    "string_voltage",
    "short_circuit_current",
    "string_iv",
    "find_mpp",
    "dc_operating_point",
    "imp_isc_ratio",
    "harvest_figures",
    "mismatch_study",
    "series_capacitance",
    "string_capacitance",
    "NoiseModel",
    "ReceiverChain",
]

PREFERRED_SEGMENT_COUNTS = (1, 2, 4, 6)


class QuadratureError(SliptsimError, RuntimeError):
    """Sector-power quadrature failed to reach the requested tolerance."""

    def __init__(self, message, achieved_tol=None):
        super().__init__(message)
        self.achieved_tol = achieved_tol


class BracketError(SliptsimError, RuntimeError):
    """The single-diode equation has no solution at the requested current."""


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
        ParameterError.require_finite(self)
        ParameterError.require_integer("n_segments", self.n_segments)
        if self.cell_diameter_mm <= 0:
            raise ParameterError("cell_diameter_mm must be positive")
        if self.n_segments < 1:
            raise ParameterError("n_segments must be a positive integer")
        if self.n_segments not in PREFERRED_SEGMENT_COUNTS:
            warnings.warn(
                f"n_segments={self.n_segments} is outside the fabricated set "
                f"{PREFERRED_SEGMENT_COUNTS}; proceeding anyway",
                stacklevel=3,
            )
        if self.junction_area_mm2 is not None and self.junction_area_mm2 <= 0:
            raise ParameterError("junction_area_mm2 override must be positive")

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
    temperature_k: float = DEFAULT_TEMPERATURE_K

    def __post_init__(self):
        ParameterError.require_finite(self, may_be_inf="shunt_resistance_ohm")
        if self.saturation_current_density_a_mm2 <= 0:
            raise ParameterError("saturation current density must be positive")
        if not 1.0 <= self.ideality <= 2.5:
            raise ParameterError("ideality factor must lie in [1, 2.5]")
        if self.series_resistance_ohm < 0:
            raise ParameterError("series resistance must be non-negative")
        if self.shunt_resistance_ohm <= 0:
            raise ParameterError("shunt resistance must be positive (inf disables)")
        if self.capacitance_density_f_mm2 <= 0:
            raise ParameterError("capacitance density must be positive")
        if self.temperature_k <= 0:
            raise ParameterError("temperature must be positive")

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
    wavelength_nm: float = DEFAULT_WAVELENGTH_NM

    def __post_init__(self):
        ParameterError.require_finite(self)
        center = self.center_mm
        if not (isinstance(center, (tuple, list)) and len(center) == 2
                and all(isinstance(c, Real) and math.isfinite(c) for c in center)):
            raise ParameterError(f"center_mm must be two finite numbers, got {center!r}")
        if self.total_power_w < 0:
            raise ParameterError("total_power_w must be non-negative")
        # a subnormal power leaves the quadrature too few digits to converge
        if 0.0 < self.total_power_w < sys.float_info.min:
            raise ParameterError(
                f"total_power_w {self.total_power_w!r} is out of range: a positive "
                f"power must be at least {sys.float_info.min:.4g} W"
            )
        if self.beam_radius_mm <= 0:
            raise ParameterError("beam_radius_mm must be positive")
        # the radial quadrature reads r^2 and 2/r^2
        w2 = self.beam_radius_mm * self.beam_radius_mm
        if not (0.0 < w2 < math.inf and 2.0 / w2 < math.inf):
            raise ParameterError(
                f"beam_radius_mm {self.beam_radius_mm!r} is out of range: "
                "r^2 and 2/r^2 must be finite and positive"
            )
        if self.responsivity_a_w <= 0:
            raise ParameterError("responsivity must be positive")
        limit = responsivity_quantum_limit(self.wavelength_nm)
        if self.responsivity_a_w > limit:
            warnings.warn(
                f"responsivity {self.responsivity_a_w:.3f} A/W exceeds the "
                f"quantum limit {limit:.3f} A/W at {self.wavelength_nm:.0f} nm",
                stacklevel=3,
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
        if self.reverse_breakdown_v is not None and not self.reverse_breakdown_v > 0:
            raise ParameterError(
                f"reverse_breakdown_v is a magnitude; must be positive, "
                f"got {self.reverse_breakdown_v!r}"
            )

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

    ``model`` is the continuous model of the curve, a callable
    current -> (voltage, dV/dI), which :func:`find_mpp` and
    :func:`dc_operating_point` search; curves built by :func:`string_iv`
    carry the string's prepared V(I) (:func:`string_model`) as their model.
    """

    voltages_v: np.ndarray
    currents_a: np.ndarray
    model: object = None  # callable current -> (voltage, dV/dI)

    MONOTONICITY_TOL = 1e-9

    def __post_init__(self):
        self.voltages_v = np.asarray(self.voltages_v, dtype=float)
        self.currents_a = np.asarray(self.currents_a, dtype=float)
        v, i = self.voltages_v, self.currents_a
        if v.ndim != 1 or v.shape != i.shape:
            raise ParameterError(
                "voltages and currents must be 1-D arrays of equal length, got "
                f"shapes {v.shape} and {i.shape}"
            )
        if not len(v):
            raise ParameterError("a curve needs at least one sample, got none")
        bad = np.count_nonzero(~(np.isfinite(v) & np.isfinite(i)))
        if bad:
            raise ParameterError(
                f"voltages and currents must be finite, got {bad} non-finite samples"
            )
        if len(self.voltages_v) > 1:
            dv = np.diff(self.voltages_v)
            if np.any(dv <= 0):
                raise ParameterError("voltages must be strictly increasing")
            di = np.diff(self.currents_a)
            scale = max(abs(self.currents_a).max(), 1.0)
            if np.any(di > self.MONOTONICITY_TOL * scale):
                raise ParameterError("current must be non-increasing with voltage")

    def __len__(self):
        return len(self.voltages_v)

    def short_circuit_current_a(self) -> float:
        """Current of the lowest-voltage sample: the solved I_sc on curves
        from :func:`string_iv`, the current at V = 0 on curves that start
        there."""
        return float(self.currents_a[0])


# ---------------------------------------------------------------------------
# Beam-to-sector power: analytic radial integral + adaptive angular quadrature
# ---------------------------------------------------------------------------

# 16-point Gauss-Legendre nodes/weights on [-1, 1]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)

# panel count per sector at which the adaptive doubling gives up
_MAX_PANELS = 1 << 14

# Node tables up to this many panels per sector are cached; every deeper
# doubling builds its nodes per call, so the cache stays a few tables per
# segment count.
_CACHED_PANELS = 64


def _radial_profile(cos_t, sin_t, beam: IlluminationProfile, radius_mm: float):
    """Closed-form radial integral of the Gaussian over one ray.

    For a fixed angle theta (given by its cosine and sine), integrates
    irradiance * r for r in [0, R].  Vectorized over theta.
    """
    from scipy.special import erfc

    w2 = beam.beam_radius_mm**2
    a = 2.0 / w2
    x0, y0 = beam.center_mm
    b = x0 * cos_t + y0 * sin_t
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


def _sector_nodes(n_segments: int, panels: int):
    """(cos theta, sin theta, weights) of the composite 16-point
    Gauss-Legendre rule over ``panels`` equal sub-intervals of each of the
    ``n_segments`` sectors: one read-only row per sector.

    Every row depends only on its own sector's bounds, so a row picked from
    the table equals the row built for that sector alone.
    """
    bounds = np.linspace(0.0, 2.0 * math.pi, n_segments + 1)
    edges = np.linspace(bounds[:-1], bounds[1:], panels + 1).T
    mid = 0.5 * (edges[:, :-1] + edges[:, 1:])
    half = 0.5 * (edges[:, 1] - edges[:, 0])
    theta = (mid[:, :, None] + (half[:, None] * _GL_X[None, :])[:, None, :]).reshape(
        n_segments, -1
    )
    nodes = np.cos(theta), np.sin(theta), np.tile(half[:, None] * _GL_W[None, :], panels)
    for table in nodes:
        table.setflags(write=False)
    return nodes


_cached_sector_nodes = lru_cache(maxsize=32)(_sector_nodes)


def _sector_powers(beam: IlluminationProfile, radius_mm: float, n_segments: int,
                   sectors, panels: int):
    """Beam power (W) captured by each of the given ``sectors`` (indices).

    Composite 16-point Gauss-Legendre over ``panels`` equal sub-intervals of
    every sector, evaluated in one pass; each sector's sum is its own
    ``np.dot``, so a sector's power does not depend on which others are
    evaluated with it.
    """
    if panels <= _CACHED_PANELS:
        cos_t, sin_t, weights = _cached_sector_nodes(n_segments, panels)
    else:
        cos_t, sin_t, weights = _sector_nodes(n_segments, panels)
    vals = _radial_profile(cos_t[sectors], sin_t[sectors], beam, radius_mm)
    return np.array([np.dot(v, w) for v, w in zip(vals, weights[sectors])])


def sector_fractions(
    geometry: SegmentGeometry,
    beam: IlluminationProfile,
    rel_tol: float = 1e-6,
    return_panels: bool = False,
):
    """Fraction of the total beam power captured by each sector.

    Adaptive panel doubling until successive resolutions agree to ``rel_tol``
    relative per sector.  Sectors essentially in the dark sit at the
    floating-point cancellation floor of the radial closed form, so the
    comparison is floored at an absolute share of 1e-12 of the total power
    (a femtowatt-scale power for the links modeled here).  All sectors
    double in lockstep; a converged sector leaves the evaluation set.  With
    ``return_panels`` the terminal panel count per sector is returned
    alongside the fractions.

    Raises:
        ValueError: if ``rel_tol`` is not a non-negative number, or the beam
            center lies so far out that the radial closed form overflows.
        QuadratureError: if doubling up to 16384 panels never converges.
    """
    if not (isinstance(rel_tol, Real) and rel_tol >= 0.0):
        raise ParameterError(f"rel_tol must be a non-negative number, got {rel_tol!r}")
    n = geometry.n_segments
    if beam.total_power_w == 0.0:
        zeros = np.zeros(n)
        return (zeros, np.zeros(n, dtype=int)) if return_panels else zeros
    radius = geometry.cell_diameter_mm / 2.0
    # the radial closed form squares distances of up to |center| + R and
    # scales them by 2/r^2
    x0, y0 = beam.center_mm
    reach = math.hypot(x0, y0) + radius
    if not 2.0 / beam.beam_radius_mm**2 * (reach * reach) < math.inf:
        raise ParameterError(
            f"center_mm ({x0:g}, {y0:g}) is out of range for beam_radius_mm "
            f"{beam.beam_radius_mm:g} on a {geometry.cell_diameter_mm:g} mm cell: "
            "2*(|center| + R)^2/r^2 must be finite"
        )
    floor = 1e-12 * beam.total_power_w
    live = np.arange(n)
    prev = _sector_powers(beam, radius, n, live, 4)
    fractions = np.empty(n)
    terminal = np.empty(n, dtype=int)
    panels = 8
    achieved = np.full(n, math.inf)
    while live.size:
        if panels > _MAX_PANELS:
            i = int(live[0])
            raise QuadratureError(
                f"sector {i} quadrature did not reach rel_tol={rel_tol:g} "
                f"within {_MAX_PANELS} panels (achieved {achieved[i]:.3g})",
                achieved_tol=float(achieved[i]),
            )
        cur = _sector_powers(beam, radius, n, live, panels)
        achieved[live] = np.abs(cur - prev[live]) / np.maximum(np.abs(cur), floor)
        done = achieved[live] <= rel_tol
        fractions[live[done]] = np.maximum(cur[done], 0.0) / beam.total_power_w
        terminal[live[done]] = panels
        prev[live] = cur
        live = live[~done]
        panels *= 2
    if return_panels:
        return fractions, terminal
    return fractions


# ---------------------------------------------------------------------------
# Single-diode equation and series string
# ---------------------------------------------------------------------------

# Below this Wright omega argument omega(z) ~ exp(z) nears the end of the
# normal floating-point range (exp(-708)) and then underflows; the junction
# voltage comes from the linear form there.
_Z_DEEP_REVERSE = -700.0

# Tolerances of the bracketed current roots (short circuit, load line, MPP).
_I_XTOL = 1e-15
_I_RTOL = 8.9e-16


def _least(values) -> float:
    """Smallest value that is not NaN (inf for an empty array)."""
    return np.fmin.reduce(values, axis=None, initial=math.inf)


def string_model(device: SegmentedDevice, photocurrents):
    """The string voltage V(I) of ``device`` under ``photocurrents``, prepared
    once: a callable ``currents -> (voltages, slopes)``.

    Each segment obeys the single-diode equation
    ``I = I_ph - I0*(exp(Vj/a) - 1) - Vj/Rsh``, with ``Vj = V + I*Rs`` and
    ``a = n*kT/q``, whose explicit solution is ``Vj = a*ln(a*w/(I0*Rsh))``
    (Jain & Kapoor 2004), where ``w`` is the Wright omega function
    (Lawrence, Corless & Jeffrey 2012) of ``z = ln(I0*Rsh/a) + Rsh*B/a`` and
    ``B = (I_ph - I) + I0``; no term of it cancels.  The slope follows as
    ``dVj/dI = -Rsh/(1 + w)``.  In deep reverse bias ``w`` underflows, and
    ``Vj = Rsh*B - a*w`` is used there.  With the shunt disabled
    ``Vj = a*ln(B/I0)``, which is -inf where ``B <= 0``: the diode cannot
    carry that current.  With the reverse clamp enabled a segment voltage
    below -reverse_breakdown_v is clamped there and adds nothing to the
    slope.  The string voltage and slope are the sums over the segments.

    The device constants are read here, once, so a bracketed search pays
    only for the arithmetic at each of its currents.  The returned callable
    has two kernels with the same bits:

    * the vector kernel takes any shape of currents (a grid, an array) and
      returns arrays of that shape;
    * the scalar kernel takes one float, the current the bracketed searches'
      root finder (``roots.brent_root``) passes, and returns Python floats.
      It loops over the segments with the vector kernel's operations in the
      same order, clamp and deep reverse bias included, and sums them
      sequentially, as numpy sums fewer than 8 values.  Every current of a
      string with the shunt disabled or with 8 segments or more goes to the
      vector kernel.

    Raises:
        ValueError: ``photocurrents`` does not hold one value per segment.
        BracketError (from the callable): a current exceeds I_ph + I0 of a
            segment while both the shunt and the clamp are disabled; the
            diode has no solution.
    """
    from scipy.special import wrightomega

    photocurrents = np.asarray(photocurrents, dtype=float)
    if photocurrents.shape != (device.n_segments,):
        raise ParameterError(
            f"expected {device.n_segments} photocurrents, got shape {photocurrents.shape}"
        )
    diode = device.diode
    i0 = float(diode.saturation_current_density_a_mm2 * device.geometry.sector_area_mm2)
    a = float(diode.ideality * diode.thermal_voltage_v)
    rsh = float(diode.shunt_resistance_ohm)
    rs = float(diode.series_resistance_ohm)
    limit = device.reverse_breakdown_v
    shunted = not math.isinf(rsh)
    if shunted:
        rsh_over_a = rsh / a
        z_offset = math.log(i0 * rsh / a)
        w_scale = a / (i0 * rsh)

    def vector(currents):
        currents = np.asarray(currents, dtype=float)
        i = currents[..., None]
        # I_ph - I is exact near the knee, so I0 is not rounded away there
        b = (photocurrents - i) + i0
        if shunted:
            z = b * rsh_over_a + z_offset
            w = wrightomega(z)
            # w underflows in deep reverse bias, where the linear form is exact
            if _least(z) < _Z_DEEP_REVERSE:
                deep = z < _Z_DEEP_REVERSE
                vj = np.where(
                    deep, rsh * b - a * w, a * np.log(w_scale * np.where(deep, 1.0, w))
                )
            else:
                vj = a * np.log(w_scale * w)
            slope = -rsh / (1.0 + w)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                vj = np.where(b > 0.0, a * np.log(b / i0), -math.inf)
                slope = -a / b
        v = vj - i * rs
        slope = slope - rs
        if limit is None:
            # only a string without a shunt has currents the diodes cannot
            # carry; a shunted string's voltage is -inf only by overflow
            if not shunted and _least(v) == -math.inf:
                raise BracketError(
                    f"current {currents.max():.6g} A exceeds I_ph + I0 of the darkest "
                    f"segment ({photocurrents.min():.6g} A + I0) with shunt disabled"
                )
        elif _least(v) < -limit:
            below = v < -limit
            v = np.where(below, -limit, v)
            slope = np.where(below, 0.0, slope)
        return v.sum(axis=-1), slope.sum(axis=-1)

    if not (shunted and device.n_segments < 8):
        return vector
    segment_photocurrents = photocurrents.tolist()
    floor = -math.inf if limit is None else -limit

    def model(currents):
        if not isinstance(currents, float):
            return vector(currents)
        i = float(currents)
        # numpy's scalar log and Wright omega give the bits of its vector
        # loops (math.log does not, in the last ulp).  -0.0 + x is x, so each
        # sum starts from its first term, as numpy's does.
        v_sum = slope_sum = -0.0
        for i_ph in segment_photocurrents:
            b = (i_ph - i) + i0
            z = b * rsh_over_a + z_offset
            w = float(wrightomega(z))
            if z < _Z_DEEP_REVERSE:
                v = rsh * b - a * w - i * rs
            else:
                v = a * float(np.log(w_scale * w)) - i * rs
            if v < floor:
                v, slope = floor, 0.0
            else:
                slope = -rsh / (1.0 + w) - rs
            v_sum += v
            slope_sum += slope
        return v_sum, slope_sum

    return model


def string_voltage(device: SegmentedDevice, photocurrents, currents):
    """String voltage and its slope dV/dI at series currents.

    The one V(I) of this module (:func:`string_model` prepares it; see there
    for the model).  One call serves any shape of ``currents``, through the
    vector kernel.

    Returns:
        (voltages, slopes), each shaped like ``currents``.

    Raises:
        BracketError: a current exceeds I_ph + I0 of a segment while both the
            shunt and the clamp are disabled; the diode has no solution.
    """
    return string_model(device, photocurrents)(np.asarray(currents, dtype=float))


def short_circuit_current(device: SegmentedDevice, photocurrents) -> float:
    """Series current at which the string voltage crosses zero.

    A bracketed root of the explicit string voltage.  Above max(I_ph) + I0
    every segment is reverse biased, so that current closes the bracket, and
    a voltage that still reads >= 0 there is rounding: that bound is
    returned.  With both shunt and reverse clamp disabled the string cannot
    carry more than min(I_ph) + I0, and the bracket closes one ulp below
    that limit; when the voltage there is still not negative, the crossing
    lies closer to the limit than one ulp, and that ulp is returned.
    """
    return _short_circuit_current(device, photocurrents, string_model(device, photocurrents))


def _short_circuit_current(device: SegmentedDevice, photocurrents, model) -> float:
    """:func:`short_circuit_current` on the string's prepared ``model``."""
    photocurrents = np.asarray(photocurrents, dtype=float)
    if np.all(photocurrents <= 0):
        return 0.0

    def v_of_i(i):
        return model(i)[0]

    if v_of_i(0.0) <= 0.0:
        return 0.0
    i0 = device.diode.saturation_current_density_a_mm2 * device.geometry.sector_area_mm2
    if math.isinf(device.diode.shunt_resistance_ohm) and device.reverse_breakdown_v is None:
        hi = float(np.nextafter(float(photocurrents.min()) + i0, 0.0))
    else:
        hi = float(photocurrents.max()) + i0
    if v_of_i(hi) >= 0.0:
        return hi
    return brent_root(v_of_i, 0.0, hi, _I_XTOL, _I_RTOL)


# The default I-V grid runs 12 decades toward I_sc: most of the curve's
# voltage variation happens at the knee there.
_GRID_DECADES = 12.0


def string_iv(device: SegmentedDevice, photocurrents, n_points: int = 2048) -> IVCurve:
    """I-V curve of the series string for the given per-segment photocurrents.

    For each series current the string voltage is the sum of the explicit
    segment voltages; the whole grid is one call of the string's prepared
    V(I) (:func:`string_model`).
    The returned curve spans V = 0 (its first sample is the solved string
    short-circuit current) up to V_oc (at zero current) and carries the
    explicit string voltage and its slope as its ``model``.

    Args:
        device: segment geometry, diode parameters and reverse clamp.
        photocurrents: one photocurrent (A) per segment.
        n_points: size (an integer >= 2) of the current grid on [0, I_sc],
            logarithmically refined toward I_sc.

    Returns:
        IVCurve sorted by ascending voltage.
    """
    ParameterError.require_integer("n_points", n_points)
    if n_points < 2:
        raise ParameterError(f"n_points must be >= 2 (both ends of [0, I_sc]), got {n_points}")
    model = string_model(device, photocurrents)
    i_sc = _short_circuit_current(device, photocurrents, model)
    if i_sc <= 0.0:
        return IVCurve(np.array([0.0]), np.array([0.0]))
    tail = 1.0 - np.logspace(0.0, -_GRID_DECADES, n_points - 1)
    currents = np.concatenate([[i_sc], i_sc * tail])

    voltages, _ = model(currents)

    # a stable sort keeps I_sc ahead of any sample at the same voltage
    order = np.argsort(voltages, kind="stable")
    voltages = voltages[order]
    currents = currents[order]
    # collapse numerically duplicate voltages (knee points can coincide)
    keep = np.concatenate([[True], np.diff(voltages) > 0])
    return IVCurve(voltages[keep], currents[keep], model=model)


# ---------------------------------------------------------------------------
# Curve analysis
# ---------------------------------------------------------------------------

def _power_maximum(model, currents, voltages) -> tuple[float, float]:
    """(voltage, current) of the string's maximum power, searched from its
    samples: the best sample, then the root of ``dP/dI = V + I*dV/dI``
    between that sample's neighbours (the best sample itself if ``dP/dI``
    does not change sign there).

    ``model`` maps a current to (voltage, dV/dI); ``currents`` and
    ``voltages`` are samples of it, in either order of current.
    """
    k = int(np.argmax(currents * voltages))
    lo, hi = sorted((currents[max(k - 1, 0)], currents[min(k + 1, len(currents) - 1)]))

    def dp_di(i):
        v, slope = model(i)
        return v + i * slope

    if not dp_di(lo) > 0.0 > dp_di(hi):
        return float(voltages[k]), float(currents[k])
    i_mp = brent_root(dp_di, lo, hi, _I_XTOL, _I_RTOL)
    return float(model(i_mp)[0]), float(i_mp)


def find_mpp(curve: IVCurve) -> OperatingPoint:
    """Maximum power point of an I-V curve and its model.

    The search of :func:`harvest_figures`, run on the curve's samples: the
    best sample, refined to the root of ``dP/dI`` between its neighbours
    by the curve's ``model``, which the curve must carry.  Any number of
    samples serves: on a string so dimly lit that its voltages round to a
    few values, :func:`string_iv` keeps only those few.  The dark string's
    one-sample curve (0, 0) carries no model and is its own maximum.
    """
    if len(curve) == 1 and curve.voltages_v[0] == 0.0 and curve.currents_a[0] == 0.0:
        return OperatingPoint(0.0, 0.0)
    if curve.model is None:
        raise ParameterError("curve must carry its model (the curves of string_iv do)")
    return OperatingPoint(*_power_maximum(curve.model, curve.currents_a, curve.voltages_v))


def dc_operating_point(curve: IVCurve, load_ohm: float) -> OperatingPoint:
    """Intersection of an I-V curve with the resistive load line V = I*R:
    a bracketed root on [0, I_sc] of the curve's ``model``, which any curve
    but a dark one must carry."""
    i_sc = curve.short_circuit_current_a()
    if i_sc <= 0:
        return OperatingPoint(0.0, 0.0)
    if curve.model is None:
        raise ParameterError("curve must carry its model (the curves of string_iv do)")

    def mismatch(i):
        return curve.model(i)[0] - i * load_ohm

    if mismatch(i_sc) >= 0.0:
        # load line crosses inside the (numerically) vertical knee at I_sc
        return OperatingPoint(i_sc * load_ohm, i_sc)
    i_op = brent_root(mismatch, 0.0, i_sc, _I_XTOL, _I_RTOL)
    return OperatingPoint(i_op * load_ohm, i_op)


def imp_isc_ratio(curve: IVCurve) -> float:
    """Ratio of MPP current to short-circuit current, in (0, 1]; NaN for a
    dark curve (zero short-circuit current), as :func:`harvest_figures`."""
    isc = curve.short_circuit_current_a()
    if isc <= 0:
        return math.nan
    mpp = find_mpp(curve)
    return mpp.current_a / isc


def harvest_figures(device: SegmentedDevice, photocurrents) -> tuple[float, float]:
    """(Pmp, Imp/Isc) of the string under the given per-segment
    photocurrents, straight from the continuous string model.

    Mismatched strings have a double-knee power profile, so a coarse
    97-point scan picks the knee, and the search of :func:`find_mpp` refines
    it.
    """
    model = string_model(device, photocurrents)
    i_sc = _short_circuit_current(device, photocurrents, model)
    if i_sc <= 0:
        return 0.0, math.nan
    grid = np.linspace(0.0, i_sc * (1.0 - 1e-12), 97)
    v_mp, i_mp = _power_maximum(model, grid, model(grid)[0])
    return v_mp * i_mp, i_mp / i_sc


def mismatch_study(
    device: SegmentedDevice,
    beam: IlluminationProfile,
    offsets_mm,
) -> list[tuple[float, float, float]]:
    """(offset, Imp/Isc, Pmp) with the beam offset along +x.

    Pmp is non-increasing in |offset| for a centered Gaussian on a symmetric
    device; Imp/Isc degrades as the least-illuminated sector loses share.
    At an offset that leaves the string dark (zero short-circuit current)
    Imp/Isc is NaN and Pmp 0.
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


# ---------------------------------------------------------------------------
# Small-signal model and receiver read-out
# ---------------------------------------------------------------------------

def series_capacitance(capacitances_f) -> float:
    """Reciprocal-sum composition of series capacitances."""
    caps = np.asarray(capacitances_f, dtype=float)
    if not (caps.size and np.all(caps > 0)):
        raise ParameterError(f"capacitances_f must be one or more positive values, got {caps!r}")
    return float(1.0 / np.sum(1.0 / caps))


def string_capacitance(geometry: SegmentGeometry, diode: DiodeParams) -> float:
    """Capacitance of the series string of equal-area junction segments."""
    c_segment = diode.capacitance_density_f_mm2 * geometry.segment_junction_area_mm2
    return series_capacitance([c_segment] * geometry.n_segments)


@dataclass(frozen=True)
class NoiseModel:
    """Receiver noise: load thermal + shot of the mean photocurrent, scaled
    by the amplifier's fixed noise figure (``AMPLIFIER_NOISE_FIGURE_DB``),
    plus a digitizer term that tracks the received signal level (the
    oscilloscope auto-ranges, so its quantization noise keeps a fixed ratio
    to the signal RMS).  Current PSDs are input-referred densities
    (A^2/Hz)."""

    temperature_k: float = DEFAULT_TEMPERATURE_K
    include_thermal: bool = True
    include_shot: bool = True
    extra_current_psd_a2_hz: float = 0.0
    quantization_snr_db: float | None = 4.0

    def __post_init__(self):
        ParameterError.require_finite(self)
        if self.temperature_k <= 0:
            raise ParameterError("temperature must be positive")
        if self.extra_current_psd_a2_hz < 0:
            raise ParameterError("extra noise PSD must be non-negative")

    def current_psd(self, load_ohm: float, mean_current_a: float) -> float:
        psd = self.extra_current_psd_a2_hz
        if self.include_thermal:
            psd += 4.0 * BOLTZMANN_J_PER_K * self.temperature_k / load_ohm
        if self.include_shot:
            psd += 2.0 * ELEMENTARY_CHARGE_C * abs(mean_current_a)
        return psd * 10.0 ** (AMPLIFIER_NOISE_FIGURE_DB / 10.0)

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

    The DC operating point and the small-signal model share the same load
    resistor; the AC path additionally sees the fixed amplifier input
    impedance (``AMPLIFIER_INPUT_OHM``) in parallel, which is what lets
    pF-scale string capacitances reach GHz corner frequencies at a 950-ohm
    bias load.
    """

    device: SegmentedDevice
    beam: IlluminationProfile
    load_resistance_ohm: float = 950.0
    effective_series_resistance_ohm: float = 0.0
    noise: NoiseModel = field(default_factory=NoiseModel)

    def __post_init__(self):
        ParameterError.require_finite(self)
        if not 0.0 < self.load_resistance_ohm <= 10e3:
            raise ParameterError("load resistance must lie in (0, 10 kOhm]")
        if self.effective_series_resistance_ohm < 0:
            raise ParameterError("effective series resistance must be non-negative")

    @property
    def ac_load_ohm(self) -> float:
        """Small-signal load: bias resistor in parallel with the amplifier."""
        r1, r2 = self.load_resistance_ohm, AMPLIFIER_INPUT_OHM
        return r1 * r2 / (r1 + r2)

    def string_capacitance_f(self) -> float:
        return string_capacitance(self.device.geometry, self.device.diode)

    def f3db_hz(self) -> float:
        """First-order RC 3-dB frequency: 1 / (2*pi*(R_ac + R_s)*C)."""
        r_total = self.ac_load_ohm + self.effective_series_resistance_ohm
        return 1.0 / (2.0 * math.pi * r_total * self.string_capacitance_f())
