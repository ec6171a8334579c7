"""Fit the free device parameters to the measured link figures.

The measurements give seven communication bandwidths, seven harvested
powers and seven Imp/Isc ratios, but no junction capacitance, lateral
series resistance, effective responsivity, spot size or alignment.  Those
are recovered in two stages:

* Stage A (bandwidths): per-cell-size junction capacitance density and a
  per-segment-count effective series resistance, jointly least-squares
  fitted to the bandwidth targets through the first-order RC model.  The
  segmented interconnect adds lateral conduction resistance, so the series
  term legitimately grows with the segment count.
* Stage B (harvest): effective responsivity (which absorbs optics losses),
  the Gaussian spot radius, and one beam offset magnitude per configuration,
  fitted to the Pmp and Imp/Isc targets through the full string I-V model.

Both stages assume the default read-out: the ``ReceiverChain`` load,
amplifier input and AC load, and the ``TransmitterModel`` emitted power and
wavelength.  ``calibrated_receiver`` refuses a result fitted for any other.

The fit refuses (``CalibrationError``) when any relative residual exceeds
25%, and raises ``UnderdeterminedError`` when fewer targets than free
parameters are supplied.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import least_squares

from .ppc import DiodeParams, IlluminationProfile, harvest_figures
from .link import NoiseModel, ReceiverChain
from .presets import (
    MEASURED_BANDWIDTH_HZ,
    MEASURED_IMP_ISC,
    MEASURED_PMP_W,
    PRESET_NAMES,
    default_receiver,
    default_transmitter,
    preset_geometry,
)

__all__ = [
    "CalibrationTargets",
    "CalibrationResult",
    "CalibrationError",
    "UnderdeterminedError",
    "measured_targets",
    "calibrate",
    "synthesize_targets",
    "calibrated_receiver",
]

RESIDUAL_REFUSAL = 0.25


class CalibrationError(RuntimeError):
    """A residual exceeded the refusal bound; the fit is not trustworthy."""


class UnderdeterminedError(ValueError):
    """Fewer targets than free parameters."""


@dataclass(frozen=True)
class CalibrationTargets:
    """Measured values keyed by preset name (e.g. "L6")."""

    bandwidth_hz: dict
    pmp_w: dict = field(default_factory=dict)
    imp_isc: dict = field(default_factory=dict)

    def configs(self):
        return sorted(self.bandwidth_hz)


def measured_targets() -> CalibrationTargets:
    """The bundled measured values for all seven configurations."""
    return CalibrationTargets(
        bandwidth_hz=dict(MEASURED_BANDWIDTH_HZ),
        pmp_w=dict(MEASURED_PMP_W),
        imp_isc=dict(MEASURED_IMP_ISC),
    )


@dataclass
class CalibrationResult:
    """Fitted parameters plus per-target relative residuals."""

    capacitance_density_f_mm2: dict
    series_resistance_ohm: dict
    responsivity_a_w: dict
    beam_radius_mm: float
    beam_offset_mm: dict
    bandwidth_residuals: dict
    pmp_residuals: dict
    imp_isc_residuals: dict
    ac_load_ohm: float
    emitted_power_w: float

    def max_residual(self) -> float:
        pools = [self.bandwidth_residuals, self.pmp_residuals, self.imp_isc_residuals]
        values = [abs(v) for pool in pools for v in pool.values()]
        return max(values) if values else 0.0

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "capacitance_density_f_mm2": dict(self.capacitance_density_f_mm2),
            "series_resistance_ohm": {str(k): v for k, v in self.series_resistance_ohm.items()},
            "responsivity_a_w": dict(self.responsivity_a_w),
            "beam_radius_mm": self.beam_radius_mm,
            "beam_offset_mm": dict(self.beam_offset_mm),
            "bandwidth_residuals": dict(self.bandwidth_residuals),
            "pmp_residuals": dict(self.pmp_residuals),
            "imp_isc_residuals": dict(self.imp_isc_residuals),
            "ac_load_ohm": self.ac_load_ohm,
            "emitted_power_w": self.emitted_power_w,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CalibrationResult":
        return cls(
            capacitance_density_f_mm2=dict(data["capacitance_density_f_mm2"]),
            series_resistance_ohm={int(k): v for k, v in data["series_resistance_ohm"].items()},
            responsivity_a_w=dict(data["responsivity_a_w"]),
            beam_radius_mm=data["beam_radius_mm"],
            beam_offset_mm=dict(data["beam_offset_mm"]),
            bandwidth_residuals=dict(data["bandwidth_residuals"]),
            pmp_residuals=dict(data["pmp_residuals"]),
            imp_isc_residuals=dict(data["imp_isc_residuals"]),
            ac_load_ohm=data["ac_load_ohm"],
            emitted_power_w=data["emitted_power_w"],
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "CalibrationResult":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def series_resistance_for(self, n_segments: int) -> float:
        """Fitted value, or a linear inter/extrapolation for other counts."""
        known = sorted(self.series_resistance_ohm)
        if n_segments in self.series_resistance_ohm:
            return self.series_resistance_ohm[n_segments]
        xs = np.array(known, dtype=float)
        ys = np.array([self.series_resistance_ohm[k] for k in known])
        if len(xs) == 1:
            return float(ys[0])
        slope = (ys[-1] - ys[0]) / (xs[-1] - xs[0])
        return float(max(ys[0] + slope * (n_segments - xs[0]), 0.0))


# ---------------------------------------------------------------------------
# Forward models
# ---------------------------------------------------------------------------

def _bandwidth_model(name: str, cap_density: float, rs: float) -> float:
    """RC corner of one preset under the default read-out (no beam needed)."""
    diode = DiodeParams(capacitance_density_f_mm2=cap_density)
    return default_receiver(name, diode, effective_series_resistance_ohm=rs).f3db_hz()


def _receiver(
    name: str,
    capacitance_density_f_mm2: float,
    series_resistance_ohm: float,
    responsivity_a_w: float,
    beam_radius_mm: float,
    beam_offset_mm: float,
) -> ReceiverChain:
    """Default read-out around one preset with the fitted parameters applied."""
    tx = default_transmitter()
    beam = IlluminationProfile(
        total_power_w=tx.emitted_power_w,
        beam_radius_mm=beam_radius_mm,
        center_mm=(beam_offset_mm, 0.0),
        responsivity_a_w=responsivity_a_w,
        wavelength_nm=tx.wavelength_nm,
    )
    return default_receiver(
        name,
        DiodeParams(capacitance_density_f_mm2=capacitance_density_f_mm2),
        beam=beam,
        effective_series_resistance_ohm=series_resistance_ohm,
    )


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def _parse_configs(names):
    sizes = sorted({n[0] for n in names})
    counts = sorted({int(n[1:]) for n in names})
    return sizes, counts


def _solve_offset(ratio_of_offset, target: float, max_offset: float) -> float:
    """Beam offset magnitude at which the modeled Imp/Isc meets the target.

    The ratio starts at the aligned (matched) value and falls with offset,
    though not necessarily monotonically once the power maximum jumps
    between knees; a scan brackets the first crossing, bisection refines it.
    Targets above the aligned value are unreachable and map to offset 0.
    """
    aligned = ratio_of_offset(0.0)
    if not math.isfinite(aligned) or target >= aligned:
        return 0.0
    grid = np.linspace(0.0, max_offset, 33)
    prev_off, prev_val = 0.0, aligned
    for off in grid[1:]:
        val = ratio_of_offset(off)
        if not math.isfinite(val):
            break
        if (prev_val - target) * (val - target) <= 0.0:
            lo, hi = prev_off, off
            f_lo = prev_val - target
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                f_mid = ratio_of_offset(mid) - target
                if f_lo * f_mid <= 0.0:
                    hi = mid
                else:
                    lo, f_lo = mid, f_mid
                if hi - lo < 1e-12:
                    break
            return 0.5 * (lo + hi)
        prev_off, prev_val = off, val
    # no crossing found: return the offset with the closest ratio
    vals = [abs(ratio_of_offset(o) - target) for o in grid]
    return float(grid[int(np.argmin(vals))])


def calibrate(
    targets: CalibrationTargets,
    refuse_above: float = RESIDUAL_REFUSAL,
) -> CalibrationResult:
    """Least-squares fit of the free model parameters to measured targets.

    The targets are taken under the default read-out (see the module
    docstring), which the result records.

    Args:
        targets: bandwidth (required, >= number of free stage-A parameters),
            Pmp and Imp/Isc targets keyed by preset name.
        refuse_above: relative-residual refusal bound.

    Returns:
        CalibrationResult with fitted values and per-target residuals.

    Raises:
        UnderdeterminedError: fewer targets than free parameters.
        CalibrationError: a converged fit still misses a target by more than
            the refusal bound, or the optimizer fails.
    """
    names = targets.configs()
    if not names:
        raise UnderdeterminedError("no bandwidth targets supplied")
    sizes, counts = _parse_configs(names)
    # The RC model only pins R*C products, so the lowest segment count is the
    # gauge anchor: its lateral resistance is defined as zero and the other
    # counts fit the excess resistance.
    free_counts = counts[1:]
    n_params_a = len(sizes) + len(free_counts)
    if len(names) < n_params_a:
        raise UnderdeterminedError(
            f"{len(names)} bandwidth target(s) cannot determine {n_params_a} "
            f"free parameters ({len(sizes)} capacitance densities + "
            f"{len(free_counts)} excess series resistances)"
        )

    # --- stage A: capacitance densities + series resistances --------------
    def unpack_a(x):
        caps = dict(zip(sizes, x[: len(sizes)]))
        rss = {counts[0]: 0.0}
        rss.update(zip(free_counts, x[len(sizes) :]))
        return caps, rss

    def resid_a(x):
        caps, rss = unpack_a(x)
        out = []
        for name in names:
            model = _bandwidth_model(name, caps[name[0]] * 1e-12, rss[int(name[1:])])
            out.append(model / targets.bandwidth_hz[name] - 1.0)
        return np.array(out)

    x0 = np.concatenate([np.full(len(sizes), 10.0), np.full(len(free_counts), 50.0)])
    lower = np.concatenate([np.full(len(sizes), 1e-3), np.zeros(len(free_counts))])
    upper = np.concatenate([np.full(len(sizes), 1e4), np.full(len(free_counts), 1e5)])
    sol_a = least_squares(
        resid_a, x0, bounds=(lower, upper), xtol=1e-15, ftol=1e-15, gtol=1e-15,
        max_nfev=20000,
    )
    if not sol_a.success:
        raise CalibrationError(f"bandwidth fit did not converge: {sol_a.message}")
    caps, rss = unpack_a(sol_a.x)
    bw_resid = dict(zip(names, resid_a(sol_a.x)))

    # --- stage B: responsivity, beam radius and offsets ---------------------
    # A joint least-squares over (responsivity, radius, per-config offsets)
    # finds the global balance (current-mismatch residuals weighted up, since
    # the Imp/Isc targets carry the alignment information), then each offset
    # is refined so the modeled Imp/Isc meets its target exactly; targets
    # above the aligned-beam value are unreachable and keep offset 0.
    pmp_resid: dict = {}
    ii_resid: dict = {}
    responsivity: dict = {}
    beam_radius = math.nan
    offsets: dict = {}
    harvest_names = sorted(set(targets.pmp_w) & set(names))
    if harvest_names:
        n_params_b = len({n[0] for n in harvest_names}) + 1 + len(harvest_names)
        n_targets_b = len(harvest_names) + len(
            set(targets.imp_isc) & set(harvest_names)
        )
        if n_targets_b < n_params_b:
            raise UnderdeterminedError(
                f"{n_targets_b} harvest target(s) cannot determine "
                f"{n_params_b} free parameters"
            )

        harvest_sizes = sorted({n[0] for n in harvest_names})

        def figures(name, resp, radius, offset):
            chain = _receiver(
                name, caps[name[0]] * 1e-12, rss[int(name[1:])], resp, radius, offset
            )
            return harvest_figures(chain.device, chain.beam)

        ratio_weight = 3.0
        n_resp = len(harvest_sizes)

        def unpack_b(x):
            resps = dict(zip(harvest_sizes, x[:n_resp]))
            radius = x[n_resp]
            offs = dict(zip(harvest_names, x[n_resp + 1 :]))
            return resps, radius, offs

        def resid_b(x):
            resps, radius, offs = unpack_b(x)
            out = []
            for name in harvest_names:
                pmp, ratio = figures(name, resps[name[0]], radius, offs[name])
                out.append(pmp / targets.pmp_w[name] - 1.0)
                if name in targets.imp_isc:
                    out.append(
                        ratio_weight * (ratio / targets.imp_isc[name] - 1.0)
                    )
            return np.array(out)

        x0 = np.concatenate(
            [np.full(n_resp, 0.42), [0.8], np.full(len(harvest_names), 0.1)]
        )
        lo = np.concatenate([np.full(n_resp, 0.05), [0.1], np.zeros(len(harvest_names))])
        hi = np.concatenate(
            [np.full(n_resp, 0.68), [3.0],
             [0.95 * preset_geometry(n).cell_diameter_mm / 2 for n in harvest_names]]
        )
        sol_b = least_squares(
            resid_b, x0, bounds=(lo, hi), xtol=1e-14, ftol=1e-14, gtol=1e-14,
            diff_step=1e-6, max_nfev=4000,
        )
        if not sol_b.success:
            raise CalibrationError(f"harvest fit did not converge: {sol_b.message}")
        resps, beam_radius, offsets = unpack_b(sol_b.x)
        responsivity = {k: float(v) for k, v in resps.items()}
        beam_radius = float(beam_radius)
        offsets = {k: float(v) for k, v in offsets.items()}

        for name in harvest_names:
            target_ratio = targets.imp_isc.get(name)
            if target_ratio is None:
                continue
            offsets[name] = _solve_offset(
                lambda off, nm=name: figures(
                    nm, responsivity[nm[0]], beam_radius, off
                )[1],
                target_ratio,
                0.95 * preset_geometry(name).cell_diameter_mm / 2.0,
            )

        for name in harvest_names:
            pmp, ratio = figures(name, responsivity[name[0]], beam_radius, offsets[name])
            pmp_resid[name] = float(pmp / targets.pmp_w[name] - 1.0)
            if name in targets.imp_isc:
                ii_resid[name] = float(ratio / targets.imp_isc[name] - 1.0)

    result = CalibrationResult(
        capacitance_density_f_mm2={k: v * 1e-12 for k, v in caps.items()},
        series_resistance_ohm={k: float(v) for k, v in rss.items()},
        responsivity_a_w=responsivity,
        beam_radius_mm=beam_radius,
        beam_offset_mm=offsets,
        bandwidth_residuals={k: float(v) for k, v in bw_resid.items()},
        pmp_residuals=pmp_resid,
        imp_isc_residuals=ii_resid,
        # the read-out every chain of the fit shares
        ac_load_ohm=default_receiver(names[0]).ac_load_ohm,
        emitted_power_w=default_transmitter().emitted_power_w,
    )
    worst = result.max_residual()
    if worst > refuse_above:
        raise CalibrationError(
            f"worst relative residual {worst:.1%} exceeds the "
            f"{refuse_above:.0%} refusal bound"
        )
    return result


def synthesize_targets(
    capacitance_density_f_mm2: dict,
    series_resistance_ohm: dict,
    responsivity_a_w: dict,
    beam_radius_mm: float,
    beam_offset_mm: dict,
    names=PRESET_NAMES,
) -> CalibrationTargets:
    """Forward-generate targets from known parameters (self-test support)."""
    bw, pmp, ii = {}, {}, {}
    for name in names:
        size, n = name[0], int(name[1:])
        chain = _receiver(
            name, capacitance_density_f_mm2[size], series_resistance_ohm[n],
            responsivity_a_w[size], beam_radius_mm, beam_offset_mm.get(name, 0.0),
        )
        bw[name] = chain.f3db_hz()
        pmp[name], ii[name] = harvest_figures(chain.device, chain.beam)
    return CalibrationTargets(bandwidth_hz=bw, pmp_w=pmp, imp_isc=ii)


def calibrated_receiver(
    result: CalibrationResult,
    name: str,
    noise: NoiseModel | None = None,
) -> ReceiverChain:
    """Receiver chain for one preset with the fitted parameters applied.

    Raises:
        ValueError: the result holds no fit for the preset's cell size, or
            it was fitted for another read-out (AC load or emitted power)
            than the default one this chain is built with.
    """
    name = name.upper()
    size, n = name[0], int(name[1:])
    if size not in result.capacitance_density_f_mm2 or size not in result.responsivity_a_w:
        raise ValueError(
            f"calibration holds no bandwidth and harvest fit for cell size "
            f"{size!r} (preset {name})"
        )
    chain = _receiver(
        name,
        result.capacitance_density_f_mm2[size],
        result.series_resistance_for(n),
        result.responsivity_a_w[size],
        result.beam_radius_mm,
        result.beam_offset_mm.get(name, 0.0),
    )
    if (result.ac_load_ohm, result.emitted_power_w) != (
        chain.ac_load_ohm, chain.beam.total_power_w
    ):
        raise ValueError(
            f"calibration was fitted for a {result.ac_load_ohm!r} ohm AC load "
            f"and {result.emitted_power_w!r} W emitted; the default read-out "
            f"has {chain.ac_load_ohm!r} ohm and {chain.beam.total_power_w!r} W"
        )
    return chain if noise is None else replace(chain, noise=noise)
