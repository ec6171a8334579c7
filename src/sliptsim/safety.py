"""IEC 60825-1 extended-source ocular exposure check for the 700-1050 nm band.

Implements the angular-subtense, MPE and pupil-irradiance formulas for a
large (alpha > alpha_max) continuous-wave source, which is the only branch
the collimated-beam transmitter needs.  All other IEC branches (point and
intermediate sources, other wavelength bands, pulsed emission) raise
:class:`UnsupportedBranchError` instead of silently extrapolating.

Inputs use display units (mm, nm, s, W); all internal math is SI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError, SliptsimError

__all__ = [
    "ALPHA_MIN_RAD",
    "ALPHA_MAX_RAD",
    "SafetyScenario",
    "SafetyReport",
    "UnsupportedBranchError",
    "angular_subtense",
    "classify",
    "mpe_extended",
    "pupil_irradiance",
    "assess",
]

ALPHA_MIN_RAD = 1.5e-3
ALPHA_MAX_RAD = 100e-3

WAVELENGTH_RANGE_NM = (700.0, 1050.0)

MM_PER_M = 1e3


class UnsupportedBranchError(SliptsimError, ValueError):
    """Requested a branch of the standard outside the implemented family."""


@dataclass(frozen=True)
class SafetyScenario:
    """One continuous-wave exposure geometry."""

    wavelength_nm: float
    source_diameter_mm: float
    evaluation_distance_mm: float
    exposure_time_s: float
    received_power_w: float
    pupil_radius_mm: float

    def __post_init__(self):
        ParameterError.require_finite(self)
        lo, hi = WAVELENGTH_RANGE_NM
        if not lo <= self.wavelength_nm <= hi:
            raise UnsupportedBranchError(
                f"wavelength {self.wavelength_nm:g} nm outside the implemented "
                f"{lo:g}-{hi:g} nm MPE branch"
            )
        for name in ("source_diameter_mm", "evaluation_distance_mm",
                     "exposure_time_s", "received_power_w", "pupil_radius_mm"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive")


@dataclass(frozen=True)
class SafetyReport:
    """Result of one exposure assessment; margin = MPE / E exactly."""

    angular_subtense_rad: float
    source_class: str
    c4: float
    c6: float
    mpe_w_m2: float
    irradiance_w_m2: float
    safety_margin: float

    @property
    def verdict(self) -> str:
        if self.safety_margin > 1.0:
            return "safe"
        if self.safety_margin == 1.0:
            return "unsafe-boundary"
        return "unsafe"


def angular_subtense(source_diameter_mm: float, distance_mm: float) -> float:
    """Apparent angular size of the source: 2*atan(D_s / (2*Z)), in rad."""
    # written so that NaN fails them too
    if not distance_mm > 0:
        raise ParameterError(f"distance must be positive, got {distance_mm!r}")
    if not source_diameter_mm >= 0:
        raise ParameterError(f"source diameter must be non-negative, got {source_diameter_mm!r}")
    return 2.0 * math.atan(source_diameter_mm / (2.0 * distance_mm))


def classify(alpha_rad: float) -> str:
    """Point / intermediate / large classification with half-open boundaries."""
    if not alpha_rad >= 0:  # NaN fails too
        raise ParameterError(f"angular subtense must be non-negative, got {alpha_rad!r}")
    if alpha_rad < ALPHA_MIN_RAD:
        return "point"
    if alpha_rad < ALPHA_MAX_RAD:
        return "intermediate"
    return "large"


def wavelength_correction(wavelength_nm: float) -> float:
    """C4 = 10^(0.002*(lambda - 700)) for the 700-1050 nm band."""
    lo, hi = WAVELENGTH_RANGE_NM
    if not lo <= wavelength_nm <= hi:
        raise UnsupportedBranchError(
            f"wavelength {wavelength_nm:g} nm outside {lo:g}-{hi:g} nm"
        )
    return 10.0 ** (0.002 * (wavelength_nm - 700.0))


def mpe_extended(wavelength_nm: float, alpha_rad: float, exposure_time_s: float) -> float:
    """Maximum permissible exposure 18 * C4 * C6 * t^-0.25, in W/m^2.

    Only the large-source branch (alpha strictly above alpha_max, where
    C6 = alpha_max / alpha_min) is implemented; the intermediate-range C6 is
    not defined by the source material and is refused explicitly.
    """
    if alpha_rad <= ALPHA_MAX_RAD:
        raise UnsupportedBranchError(
            f"alpha = {alpha_rad * 1e3:.4g} mrad is not in the large-source "
            f"branch (requires alpha > {ALPHA_MAX_RAD * 1e3:.0f} mrad)"
        )
    if exposure_time_s <= 0:
        raise ParameterError("exposure time must be positive")
    c4 = wavelength_correction(wavelength_nm)
    c6 = ALPHA_MAX_RAD / ALPHA_MIN_RAD
    return 18.0 * c4 * c6 * exposure_time_s**-0.25


def pupil_irradiance(received_power_w: float, pupil_radius_mm: float) -> float:
    """Irradiance at the pupil: E = P_r / (pi * r_p^2), in W/m^2."""
    if pupil_radius_mm <= 0:
        raise ParameterError("pupil radius must be positive")
    if received_power_w < 0:
        raise ParameterError("received power must be non-negative")
    r_m = pupil_radius_mm / MM_PER_M
    return received_power_w / (math.pi * r_m**2)


def assess(scenario: SafetyScenario) -> SafetyReport:
    """Full exposure assessment: subtense, class, MPE, irradiance, margin."""
    alpha = angular_subtense(
        scenario.source_diameter_mm, scenario.evaluation_distance_mm
    )
    source_class = classify(alpha)
    mpe = mpe_extended(scenario.wavelength_nm, alpha, scenario.exposure_time_s)
    irradiance = pupil_irradiance(scenario.received_power_w, scenario.pupil_radius_mm)
    return SafetyReport(
        angular_subtense_rad=alpha,
        source_class=source_class,
        c4=wavelength_correction(scenario.wavelength_nm),
        c6=ALPHA_MAX_RAD / ALPHA_MIN_RAD,
        mpe_w_m2=mpe,
        irradiance_w_m2=irradiance,
        safety_margin=mpe / irradiance,
    )
