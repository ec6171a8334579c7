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
  fitted to the Pmp and Imp/Isc targets through the DC string model, which
  reads only the preset's device and the beam.  An Imp/Isc target at or
  above the aligned-beam ratio cannot be reached by any offset; the fit
  holds that configuration's offset at 0.

Every least-squares stage leaves a record on the result (``fit_record``):
its evaluation count, status and cost, the singular values of its Jacobian
and the parameters that end on a bound.

Both stages assume the default read-out: the ``ReceiverChain`` load,
amplifier input and AC load, and the ``TransmitterModel`` emitted power.
``calibrated_receiver`` refuses a result fitted for another AC load or
emitted power.

The fit refuses (``CalibrationError``) when any relative residual exceeds
25%, and raises ``UnderdeterminedError`` when fewer targets than free
parameters are supplied.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .constants import DEFAULT_EMITTED_POWER_W
from .errors import ParameterError, SliptsimError
from .ppc import DiodeParams, ReceiverChain, harvest_figures, sector_fractions
from .presets import (
    MEASURED_BANDWIDTH_HZ,
    MEASURED_IMP_ISC,
    MEASURED_PMP_W,
    default_beam,
    default_receiver,
    device_preset,
    preset_geometry,
)
from .roots import MIN_RTOL, brent_root

__all__ = [
    "CalibrationTargets",
    "CalibrationResult",
    "CalibrationError",
    "UnderdeterminedError",
    "measured_targets",
    "calibrate",
    "calibrated_receiver",
]

RESIDUAL_REFUSAL = 0.25

SCHEMA_VERSION = 2

# the per-key value dicts of a saved result
_FITTED_DICTS = (
    "capacitance_density_f_mm2", "series_resistance_ohm", "responsivity_a_w",
    "beam_offset_mm", "bandwidth_residuals", "pmp_residuals", "imp_isc_residuals",
)


def least_squares(*args, **kwargs):
    """``scipy.optimize.least_squares``, imported by the first fit, so that
    no other job loads ``scipy.optimize``.  Stages A and B call it through
    this module global."""
    from scipy.optimize import least_squares as scipy_least_squares

    return scipy_least_squares(*args, **kwargs)


class CalibrationError(SliptsimError, RuntimeError):
    """A residual exceeded the refusal bound; the fit is not trustworthy."""


class UnderdeterminedError(SliptsimError, ValueError):
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
    # per least-squares stage: nfev, status, cost, Jacobian singular values
    # and the parameters at a bound (schema 2; empty when read from schema 1)
    fit_record: dict = field(default_factory=dict)

    def max_residual(self) -> float:
        pools = [self.bandwidth_residuals, self.pmp_residuals, self.imp_isc_residuals]
        values = [abs(v) for pool in pools for v in pool.values()]
        return max(values) if values else 0.0

    def to_dict(self) -> dict:
        """JSON-ready fields; a fit without harvest targets has no beam
        radius, written as None (JSON null) instead of NaN."""
        radius = None if math.isnan(self.beam_radius_mm) else self.beam_radius_mm
        return {
            "schema_version": SCHEMA_VERSION,
            **{name: dict(getattr(self, name)) for name in _FITTED_DICTS},
            "series_resistance_ohm": {str(k): v for k, v in self.series_resistance_ohm.items()},
            "beam_radius_mm": radius,
            "ac_load_ohm": self.ac_load_ohm,
            "emitted_power_w": self.emitted_power_w,
            "fit_record": self.fit_record,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CalibrationResult":
        """Read schema 2, or schema 1, which has no fit record.

        Raises:
            ParameterError: a missing key, a non-object section, an empty or
                non-count series section, an unknown schema version, or a
                non-finite value (the beam radius of a fit without harvest
                targets is null).
        """
        if not isinstance(data, dict):
            raise ParameterError(f"calibration must be a JSON object, got {data!r}")
        version = data.get("schema_version")
        if version not in (1, SCHEMA_VERSION):
            raise ParameterError(f"unsupported calibration schema_version {version!r}")
        for name in (*_FITTED_DICTS, "beam_radius_mm", "ac_load_ohm", "emitted_power_w"):
            if name not in data:
                raise ParameterError(f"calibration is missing {name!r}")
            if name in _FITTED_DICTS and not isinstance(data[name], dict):
                raise ParameterError(f"calibration {name} must be an object, got {data[name]!r}")
        series = data["series_resistance_ohm"]
        if not series or not all(str(k).isdecimal() for k in series):
            raise ParameterError(
                f"calibration series_resistance_ohm keys must be one or more "
                f"segment counts, got {list(series)!r}"
            )
        numbers = {
            f"{name}.{key}": value
            for name in _FITTED_DICTS for key, value in data[name].items()
        }
        numbers.update(ac_load_ohm=data["ac_load_ohm"], emitted_power_w=data["emitted_power_w"])
        if data["beam_radius_mm"] is not None:
            numbers["beam_radius_mm"] = data["beam_radius_mm"]
        for name, value in numbers.items():
            if type(value) not in (int, float) or not math.isfinite(value):
                raise ParameterError(f"calibration {name} must be a finite number, got {value!r}")
        fitted = {name: dict(data[name]) for name in _FITTED_DICTS}
        fitted["series_resistance_ohm"] = {int(k): v for k, v in series.items()}
        return cls(
            **fitted,
            beam_radius_mm=math.nan if data["beam_radius_mm"] is None else data["beam_radius_mm"],
            ac_load_ohm=data["ac_load_ohm"],
            emitted_power_w=data["emitted_power_w"],
            fit_record=data.get("fit_record", {}),
        )

    def save(self, path) -> None:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(self.to_dict(), fh, indent=2, sort_keys=True, allow_nan=False)
                fh.write("\n")
        except OSError as exc:  # a directory, or unwritable
            raise ParameterError(f"{path}: cannot write the calibration: {exc.strerror}") from exc

    @classmethod
    def load(cls, path) -> "CalibrationResult":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:  # missing, a directory, or unreadable
            raise ParameterError(f"{path}: cannot read the calibration: {exc.strerror}") from exc
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ParameterError(f"{path}: not a calibration JSON file: {exc}") from exc
        return cls.from_dict(data)

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
# Fitting
# ---------------------------------------------------------------------------

def _stage_record(sol, names) -> dict:
    """JSON-ready record of one ``least_squares`` stage with parameters ``names``.

    Singular values of the final Jacobian at or below the numerical-rank
    threshold (largest value x matrix dimension x machine epsilon) are
    recorded as 0: those directions are flat to working precision.
    """
    sv = np.linalg.svd(sol.jac, compute_uv=False)
    sv[sv <= sv.max(initial=0.0) * max(sol.jac.shape) * np.finfo(float).eps] = 0.0
    return {
        "nfev": int(sol.nfev),
        "status": int(sol.status),
        "cost": float(sol.cost),
        "jacobian_singular_values": [float(v) for v in sv],
        "active_bounds": {
            name: "lower" if mask < 0 else "upper"
            for name, mask in zip(names, sol.active_mask) if mask
        },
    }


def _unreachable(target: float, aligned: float) -> bool:
    """True when no offset reaches the Imp/Isc ``target``: it is not below
    the aligned-beam ratio, or that ratio is undefined (NaN).  The fit holds
    such a configuration's offset at 0."""
    return not target < aligned


def _solve_offset(ratio_of_offset, target: float, max_offset: float) -> float:
    """Beam offset magnitude at which the modeled Imp/Isc meets the target.

    The ratio starts at the aligned (matched) value and falls with offset,
    though not necessarily monotonically once the power maximum jumps
    between knees; a 33-point scan brackets the first crossing and
    ``brent_root`` refines it.  An unreachable target maps to offset 0; a
    target the scan never crosses maps to the grid offset with the closest
    finite ratio.

    Raises:
        ParameterError: the ratio is NaN inside the bracket.
    """
    aligned = ratio_of_offset(0.0)
    if _unreachable(target, aligned):
        return 0.0
    grid = np.linspace(0.0, max_offset, 33)
    for lo, hi in zip(grid[:-1], grid[1:]):
        val = ratio_of_offset(hi)
        if not math.isfinite(val):
            break
        if val <= target:
            return brent_root(
                lambda off: ratio_of_offset(off) - target, lo, hi, 1e-12, MIN_RTOL
            )
    # no crossing found: return the offset with the closest finite ratio
    # (grid offset 0 has one: an undefined aligned ratio returned above)
    vals = [abs(ratio_of_offset(o) - target) for o in grid]
    return float(grid[int(np.nanargmin(vals))])


def calibrate(targets: CalibrationTargets) -> CalibrationResult:
    """Least-squares fit of the free model parameters to measured targets.

    The targets are taken under the default read-out (see the module
    docstring), which the result records.

    Args:
        targets: bandwidth (required, >= number of free stage-A parameters),
            Pmp and Imp/Isc targets keyed by preset name.

    Returns:
        CalibrationResult with fitted values and per-target residuals.

    Raises:
        UnderdeterminedError: fewer targets than free parameters.
        CalibrationError: a converged fit still misses a target by more than
            ``RESIDUAL_REFUSAL`` (25%), or the optimizer fails.
    """
    names = targets.configs()
    if not names:
        raise UnderdeterminedError("no bandwidth targets supplied")
    sizes = sorted({n[0] for n in names})
    counts = sorted({int(n[1:]) for n in names})
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
            # the RC corner under the default read-out
            diode = DiodeParams(capacitance_density_f_mm2=caps[name[0]] * 1e-12)
            rc = default_receiver(name, diode, effective_series_resistance_ohm=rss[int(name[1:])])
            out.append(rc.f3db_hz() / targets.bandwidth_hz[name] - 1.0)
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
    fit_record = {
        "stage_a": _stage_record(
            sol_a,
            [f"capacitance_density_f_mm2.{k}" for k in sizes]
            + [f"series_resistance_ohm.{k}" for k in free_counts],
        )
    }

    # --- stage B: responsivity, beam radius and offsets ---------------------
    # A joint least-squares over (responsivity, radius, per-config offsets)
    # finds the global balance (current-mismatch residuals weighted up, since
    # the Imp/Isc targets carry the alignment information), then each offset
    # is refined so the modeled Imp/Isc meets its target exactly.  A target
    # at or above the aligned-beam ratio is unreachable: the least-squares
    # already evaluates that configuration at offset 0, so its Pmp residual
    # is the one the result reports.
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
        # The DC model reads only the device and the beam, so nothing from
        # stage A enters: each preset's device is built once.  Finite-
        # difference columns that move one preset's offset or one size's
        # responsivity leave every other preset at its last arguments; those
        # repeats are served from this fit's memo.  The sector quadrature
        # does not depend on the responsivity, so it is shared by every
        # responsivity step at one (preset, radius, offset).
        devices = {name: device_preset(name) for name in harvest_names}
        memo: dict = {}
        quadrature: dict = {}

        def figures(name, resp, radius, offset):
            key = (name, float(resp), float(radius), float(offset))
            if key not in memo:
                where = (name, float(radius), float(offset))
                if where not in quadrature:
                    beam = default_beam(beam_radius_mm=radius, center_mm=(offset, 0.0))
                    quadrature[where] = sector_fractions(devices[name].geometry, beam)
                memo[key] = harvest_figures(
                    devices[name], resp * DEFAULT_EMITTED_POWER_W * quadrature[where]
                )
            return memo[key]

        ratio_weight = 3.0
        n_resp = len(harvest_sizes)
        # the offset stays on the cell: at most 95 % of its radius
        max_offset = {
            name: 0.95 * preset_geometry(name).cell_diameter_mm / 2 for name in harvest_names
        }

        def unpack_b(x):
            resps = dict(zip(harvest_sizes, x[:n_resp]))
            radius = x[n_resp]
            offs = dict(zip(harvest_names, x[n_resp + 1 :]))
            return resps, radius, offs

        def held_offset(name, resp, radius, offset):
            target = targets.imp_isc.get(name)
            if target is not None and _unreachable(target, figures(name, resp, radius, 0.0)[1]):
                return 0.0
            return offset

        def resid_b(x):
            resps, radius, offs = unpack_b(x)
            out = []
            for name in harvest_names:
                resp = resps[name[0]]
                pmp, ratio = figures(
                    name, resp, radius, held_offset(name, resp, radius, offs[name])
                )
                out.append(pmp / targets.pmp_w[name] - 1.0)
                if name in targets.imp_isc:
                    out.append(
                        ratio_weight * (ratio / targets.imp_isc[name] - 1.0)
                    )
            return np.array(out)

        start = default_beam()
        x0 = np.concatenate([
            np.full(n_resp, start.responsivity_a_w), [start.beam_radius_mm],
            np.full(len(harvest_names), 0.1),
        ])
        lo = np.concatenate([np.full(n_resp, 0.05), [0.1], np.zeros(len(harvest_names))])
        hi = np.concatenate(
            [np.full(n_resp, 0.68), [3.0], [max_offset[n] for n in harvest_names]]
        )
        sol_b = least_squares(
            resid_b, x0, bounds=(lo, hi), xtol=1e-14, ftol=1e-14, gtol=1e-14,
            diff_step=1e-6, max_nfev=4000,
        )
        if not sol_b.success:
            raise CalibrationError(f"harvest fit did not converge: {sol_b.message}")
        fit_record["stage_b"] = _stage_record(
            sol_b,
            [f"responsivity_a_w.{k}" for k in harvest_sizes]
            + ["beam_radius_mm"]
            + [f"beam_offset_mm.{k}" for k in harvest_names],
        )
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
                max_offset[name],
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
        emitted_power_w=DEFAULT_EMITTED_POWER_W,
        fit_record=fit_record,
    )
    worst = result.max_residual()
    if worst > RESIDUAL_REFUSAL:
        raise CalibrationError(
            f"worst relative residual {worst:.1%} exceeds the "
            f"{RESIDUAL_REFUSAL:.0%} refusal bound"
        )
    return result


def calibrated_receiver(result: CalibrationResult, name: str) -> ReceiverChain:
    """Receiver chain for one preset with the fitted parameters applied.

    Raises:
        UnknownPresetError: ``name`` is not a bundled preset.
        ParameterError: the result holds no fit for the preset's cell size,
            or it was fitted for another read-out (AC load or emitted power)
            than the default one this chain is built with.
    """
    n = preset_geometry(name).n_segments  # refuses a name that is not bundled
    name = name.upper()
    size = name[0]
    if size not in result.capacitance_density_f_mm2 or size not in result.responsivity_a_w:
        raise ParameterError(
            f"calibration holds no bandwidth and harvest fit for cell size "
            f"{size!r} (preset {name})"
        )
    chain = default_receiver(
        name,
        DiodeParams(capacitance_density_f_mm2=result.capacitance_density_f_mm2[size]),
        beam=default_beam(
            result.responsivity_a_w[size],
            result.beam_radius_mm,
            center_mm=(result.beam_offset_mm.get(name, 0.0), 0.0),
        ),
        effective_series_resistance_ohm=result.series_resistance_for(n),
    )
    if (result.ac_load_ohm, result.emitted_power_w) != (
        chain.ac_load_ohm, chain.beam.total_power_w
    ):
        raise ParameterError(
            f"calibration was fitted for a {result.ac_load_ohm!r} ohm AC load "
            f"and {result.emitted_power_w!r} W emitted; the default read-out "
            f"has {chain.ac_load_ohm!r} ohm and {chain.beam.total_power_w!r} W"
        )
    return chain
