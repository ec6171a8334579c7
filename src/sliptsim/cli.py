"""Command-line harness: device curves, link runs, sweeps, calibration,
eye-safety checks and table/figure reproduction, all emitting deterministic
CSV artifacts.

Every artifact starts with a comment line carrying the schema version, the
experiment kind, a hash of the effective parameters and the seed, so two
invocations with the same inputs produce byte-identical files.

Exit codes: 0 success, 1 run error, 2 malformed spec or arguments (an
unknown kind or preset, a named file that does not exist).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .calibrate import (
    CalibrationError,
    CalibrationResult,
    UnderdeterminedError,
    calibrate,
    calibrated_receiver,
    measured_targets,
)
from .io import iv_curve_to_csv, plan_to_csv, spec_hash, write_csv
from .link import run_link, mismatch_study
from .ppc import find_mpp, harvest_figures, sector_fractions, string_iv
from .presets import (
    JUNCTION_AREA_MM2,
    MEASURED_BANDWIDTH_HZ,
    MEASURED_DATA_RATE_BPS,
    MEASURED_IMP_ISC,
    MEASURED_PMP_W,
    PRESET_NAMES,
    default_beam,
    default_modem,
    default_receiver,
    default_transmitter,
)
from .safety import SafetyScenario, assess

SCHEMA_VERSION = 1
CONFIG_DIR_ENV = "SLIPTSIM_CONFIG_DIR"

EXPERIMENT_KINDS = (
    "iv",
    "bandwidth-sweep",
    "link",
    "sweep",
    "mismatch",
    "safety",
    "calibrate",
    "reproduce-table1",
    "reproduce-fig6",
)

_KIND_BY_COMMAND = {
    "iv": "iv",
    "bandwidth": "bandwidth-sweep",
    "link": "link",
    "sweep": "sweep",
    "mismatch": "mismatch",
    "safety": "safety",
    "calibrate": "calibrate",
}


class SpecError(ValueError):
    """Malformed experiment spec or command arguments."""


def _resolve_config_path(path_str: str) -> Path:
    path = Path(path_str)
    if path.exists():
        return path
    config_dir = os.environ.get(CONFIG_DIR_ENV)
    if config_dir and not path.is_absolute():
        candidate = Path(config_dir) / path
        if candidate.exists():
            return candidate
    raise SpecError(f"config file not found: {path_str}")


def load_spec(path_str: str) -> dict:
    """Parse and validate an experiment spec file."""
    path = _resolve_config_path(path_str)
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SpecError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    if not isinstance(spec, dict):
        raise SpecError(f"{path}: spec must be a JSON object")
    if "kind" not in spec:
        raise SpecError(f"{path}: missing required field 'kind'")
    if spec["kind"] not in EXPERIMENT_KINDS:
        raise SpecError(
            f"{path}: unknown kind {spec['kind']!r}; expected one of "
            f"{', '.join(EXPERIMENT_KINDS)}"
        )
    version = spec.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise SpecError(
            f"{path}: unsupported schema_version {version!r} "
            f"(this build reads {SCHEMA_VERSION})"
        )
    return spec


def _header(kind: str, payload: dict, seed) -> list[str]:
    return [
        f"sliptsim v{__version__} schema_version={SCHEMA_VERSION} kind={kind} "
        f"spec_sha256={spec_hash(payload)} seed={seed}"
    ]


def _load_calibration(spec: dict, out_dir: Path, required: bool):
    explicit = spec.get("calibration")
    candidates = []
    if explicit:
        if not Path(explicit).exists():
            raise SpecError(f"calibration file not found: {explicit}")
        candidates.append(Path(explicit))
    candidates.append(out_dir / "calibration.json")
    config_dir = os.environ.get(CONFIG_DIR_ENV)
    if config_dir:
        candidates.append(Path(config_dir) / "calibration.json")
    for cand in candidates:
        if cand.exists():
            return CalibrationResult.load(cand)
    if required:
        searched = ", ".join(str(c) for c in candidates)
        raise RuntimeError(
            "calibration artifact not found (searched: "
            f"{searched}); run `sliptsim calibrate --out <dir>` first"
        )
    return None


def _receiver_for(spec: dict, name: str, calibration):
    if calibration is not None:
        return calibrated_receiver(calibration, name)
    beam = default_beam(
        beam_radius_mm=spec.get("beam_radius_mm", 0.8),
        center_mm=(spec.get("beam_offset_mm", 0.0), 0.0),
    )
    return default_receiver(name, beam=beam)


def _preset_name(value) -> str:
    """Upper-cased name of a bundled preset; anything else is a spec error."""
    name = str(value).upper()
    if name not in PRESET_NAMES:
        raise SpecError(
            f"unknown preset {value!r}; expected one of {', '.join(PRESET_NAMES)}"
        )
    return name


def _spec_presets(spec: dict) -> list[str]:
    presets = spec.get("presets", list(PRESET_NAMES))
    if isinstance(presets, str):
        presets = [p for p in presets.split(",") if p]
    return [_preset_name(p) for p in presets]


# ---------------------------------------------------------------------------
# Handlers (one per experiment kind)
# ---------------------------------------------------------------------------

def _handle_iv(spec: dict, out_dir: Path, seed: int) -> None:
    name = _preset_name(spec.get("preset", "L6"))
    calibration = _load_calibration(spec, out_dir, required=False)
    chain = _receiver_for(spec, name, calibration)
    power_w = spec.get("power_w", default_transmitter().emitted_power_w)
    beam = replace(chain.beam, total_power_w=power_w)
    fractions = sector_fractions(chain.device.geometry, beam)
    photocurrents = beam.responsivity_a_w * beam.total_power_w * fractions
    curve = string_iv(chain.device, photocurrents, illumination_id=name)
    header = _header("iv", {**spec, "preset": name}, seed)
    iv_curve_to_csv(curve, out_dir / "iv.csv", header_comments=header)
    mpp = find_mpp(curve)
    print(
        f"{name}: Voc {curve.voltages_v[-1]:.4f} V, "
        f"Isc {curve.short_circuit_current_a() * 1e3:.4f} mA, "
        f"Pmp {mpp.power_w * 1e3:.4f} mW -> {out_dir / 'iv.csv'}"
    )


def _handle_bandwidth(spec: dict, out_dir: Path, seed: int) -> None:
    calibration = _load_calibration(spec, out_dir, required=False)
    rows = []
    for name in _spec_presets(spec):
        chain = _receiver_for(spec, name, calibration)
        rows.append(
            (
                name,
                chain.device.n_segments,
                JUNCTION_AREA_MM2[name],
                chain.string_capacitance_f(),
                chain.f3db_hz(),
                MEASURED_BANDWIDTH_HZ.get(name, math.nan),
            )
        )
    write_csv(
        out_dir / "bandwidth.csv",
        ["preset", "n_segments", "junction_area_mm2", "string_capacitance_f",
         "f3db_hz", "measured_bandwidth_hz"],
        rows,
        header_comments=_header("bandwidth-sweep", spec, seed),
    )
    print(f"{len(rows)} configurations -> {out_dir / 'bandwidth.csv'}")


def _emit_link_artifacts(report, out_dir: Path, header, suffix: str = "") -> None:
    from .link import LinkReport

    write_csv(
        out_dir / f"report{suffix}.csv",
        LinkReport.CSV_COLUMNS,
        [report.csv_row()],
        header_comments=header,
    )
    if report.snr is not None:
        write_csv(
            out_dir / f"snr_profile{suffix}.csv",
            ["carrier", "frequency_hz", "snr_db", "measured"],
            zip(
                range(len(report.snr.snr_linear)),
                report.carrier_freqs_hz,
                report.snr.db(),
                report.snr.measured,
            ),
            header_comments=header,
        )
    if report.plan is not None:
        plan_to_csv(report.plan, out_dir / f"loading{suffix}.csv", header_comments=header)


def _handle_link(spec: dict, out_dir: Path, seed: int) -> None:
    name = _preset_name(spec.get("preset", "L6"))
    calibration = _load_calibration(spec, out_dir, required=False)
    chain = _receiver_for(spec, name, calibration)
    report = run_link(
        default_transmitter(),
        chain,
        default_modem(),
        ber_target=spec.get("ber_target", 4.7e-3),
        seed=seed,
    )
    report.device_id = name
    _emit_link_artifacts(report, out_dir, _header("link", {**spec, "preset": name}, seed))
    print(
        f"{name}: rate {report.data_rate_bps / 1e9:.3f} Gbps, "
        f"BER {report.ber:.3e}, f3dB {report.f3db_hz / 1e9:.3f} GHz "
        f"-> {out_dir / 'report.csv'}"
    )


def _handle_sweep(spec: dict, out_dir: Path, seed: int) -> None:
    from .link import LinkReport, sweep as run_sweep

    names = _spec_presets(spec)
    calibration = _load_calibration(spec, out_dir, required=False)
    entries = [(n, _receiver_for(spec, n, calibration)) for n in names]
    reports = run_sweep(
        entries,
        default_transmitter(),
        default_modem(),
        ber_target=spec.get("ber_target", 4.7e-3),
        seed=seed,
    )
    header = _header("sweep", {**spec, "presets": names}, seed)
    write_csv(
        out_dir / "report.csv",
        LinkReport.CSV_COLUMNS,
        [r.csv_row() for r in reports],
        header_comments=header,
    )
    for report in reports:
        if not report.error:
            _emit_link_artifacts(report, out_dir, header, suffix=f"_{report.device_id}")
    failures = sum(1 for r in reports if r.error)
    print(f"{len(reports)} runs ({failures} failed) -> {out_dir / 'report.csv'}")
    if failures:
        raise RuntimeError(f"{failures} sweep entr{'y' if failures == 1 else 'ies'} failed")


def _handle_mismatch(spec: dict, out_dir: Path, seed: int) -> None:
    name = _preset_name(spec.get("preset", "L6"))
    calibration = _load_calibration(spec, out_dir, required=False)
    chain = _receiver_for(spec, name, calibration)
    max_offset = spec.get("max_offset_mm", 0.45 * chain.device.geometry.cell_diameter_mm)
    n_points = int(spec.get("points", 20))
    offsets = np.linspace(0.0, max_offset, n_points)
    rows = mismatch_study(chain.device, chain.beam, offsets)
    write_csv(
        out_dir / "mismatch.csv",
        ["offset_mm", "imp_isc", "pmp_w"],
        rows,
        header_comments=_header("mismatch", {**spec, "preset": name}, seed),
    )
    print(f"{name}: {n_points} offsets -> {out_dir / 'mismatch.csv'}")


def _handle_safety(spec: dict, out_dir: Path, seed: int) -> None:
    scenario = SafetyScenario(
        wavelength_nm=spec.get("wavelength_nm", 850.0),
        source_diameter_mm=spec.get("source_diameter_mm", 35.0),
        evaluation_distance_mm=spec.get("distance_mm", 100.0),
        exposure_time_s=spec.get("exposure_time_s", 30000.0),
        received_power_w=spec.get("received_power_w", 80e-6),
        pupil_radius_mm=spec.get("pupil_radius_mm", 3.5),
    )
    report = assess(scenario)
    write_csv(
        out_dir / "safety.csv",
        ["wavelength_nm", "source_diameter_mm", "distance_mm", "exposure_time_s",
         "received_power_w", "pupil_radius_mm", "alpha_mrad", "source_class",
         "c4", "c6", "mpe_w_m2", "irradiance_w_m2", "safety_margin", "verdict"],
        [(
            scenario.wavelength_nm, scenario.source_diameter_mm,
            scenario.evaluation_distance_mm, scenario.exposure_time_s,
            scenario.received_power_w, scenario.pupil_radius_mm,
            report.angular_subtense_rad * 1e3, report.source_class,
            report.c4, report.c6, report.mpe_w_m2, report.irradiance_w_m2,
            report.safety_margin, report.verdict,
        )],
        header_comments=_header("safety", spec, seed),
    )
    print(
        f"{report.verdict}: margin {report.safety_margin:.4g} "
        f"(MPE {report.mpe_w_m2:.4g} W/m^2, E {report.irradiance_w_m2:.4g} W/m^2, "
        f"alpha {report.angular_subtense_rad * 1e3:.4g} mrad, {report.source_class} source)"
    )


def _handle_calibrate(spec: dict, out_dir: Path, seed: int) -> None:
    result = calibrate(measured_targets())
    result.save(out_dir / "calibration.json")
    rows = []
    for name in PRESET_NAMES:
        rows.append(
            (
                name,
                result.bandwidth_residuals.get(name, math.nan),
                result.pmp_residuals.get(name, math.nan),
                result.imp_isc_residuals.get(name, math.nan),
            )
        )
    write_csv(
        out_dir / "calibration_residuals.csv",
        ["preset", "bandwidth_residual", "pmp_residual", "imp_isc_residual"],
        rows,
        header_comments=_header("calibrate", spec, seed),
    )
    print(
        f"calibrated (max residual {result.max_residual():.1%}) "
        f"-> {out_dir / 'calibration.json'}"
    )


def _handle_reproduce_table1(spec: dict, out_dir: Path, seed: int) -> None:
    calibration = _load_calibration(spec, out_dir, required=True)
    rows = []
    for name in PRESET_NAMES:
        chain = calibrated_receiver(calibration, name)
        pmp_sim, ratio_sim = harvest_figures(chain.device, chain.beam)
        pmp_measured = MEASURED_PMP_W[name]
        ratio_measured = MEASURED_IMP_ISC[name]
        f3_sim = chain.f3db_hz()
        bw_measured = MEASURED_BANDWIDTH_HZ[name]
        rows.append(
            (
                name,
                chain.device.n_segments,
                JUNCTION_AREA_MM2[name],
                pmp_sim,
                pmp_measured,
                (pmp_sim - pmp_measured) / pmp_measured,
                ratio_sim,
                ratio_measured,
                (ratio_sim - ratio_measured) / ratio_measured,
                f3_sim,
                bw_measured,
                (f3_sim - bw_measured) / bw_measured,
            )
        )
    write_csv(
        out_dir / "table1.csv",
        ["preset", "n_segments", "junction_area_mm2",
         "pmp_sim_w", "pmp_measured_w", "pmp_residual",
         "imp_isc_sim", "imp_isc_measured", "imp_isc_residual",
         "f3db_sim_hz", "bandwidth_measured_hz", "bandwidth_residual"],
        rows,
        header_comments=_header("reproduce-table1", spec, seed),
    )
    print(f"{len(rows)} rows -> {out_dir / 'table1.csv'}")


def _handle_reproduce_fig6(spec: dict, out_dir: Path, seed: int) -> None:
    calibration = _load_calibration(spec, out_dir, required=True)
    rows = []
    for i, name in enumerate(PRESET_NAMES):
        chain = calibrated_receiver(calibration, name)
        report = run_link(
            default_transmitter(), chain, default_modem(),
            ber_target=spec.get("ber_target", 4.7e-3), seed=seed + i,
        )
        rows.append(
            (
                name,
                JUNCTION_AREA_MM2[name],
                report.data_rate_bps,
                MEASURED_DATA_RATE_BPS[name],
            )
        )
    write_csv(
        out_dir / "fig6.csv",
        ["preset", "junction_area_mm2", "data_rate_bps", "measured_data_rate_bps"],
        rows,
        header_comments=_header("reproduce-fig6", spec, seed),
    )
    print(f"{len(rows)} points -> {out_dir / 'fig6.csv'}")


_HANDLERS = {
    "iv": _handle_iv,
    "bandwidth-sweep": _handle_bandwidth,
    "link": _handle_link,
    "sweep": _handle_sweep,
    "mismatch": _handle_mismatch,
    "safety": _handle_safety,
    "calibrate": _handle_calibrate,
    "reproduce-table1": _handle_reproduce_table1,
    "reproduce-fig6": _handle_reproduce_fig6,
}


def run_spec(spec_path: str, out_dir=None, seed=None) -> int:
    """Execute the experiment described by a spec file.

    Returns the process exit code (0 ok, 1 run error, 2 spec error).
    """
    try:
        spec = load_spec(spec_path)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    return _dispatch(spec, out_dir, seed)


def _dispatch(spec: dict, out_dir, seed) -> int:
    kind = spec["kind"]
    out = Path(out_dir if out_dir is not None else spec.get("out_dir", "out"))
    effective_seed = int(seed if seed is not None else spec.get("seed", 0))
    out.mkdir(parents=True, exist_ok=True)
    try:
        _HANDLERS[kind](spec, out, effective_seed)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except (CalibrationError, UnderdeterminedError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="experiment spec file (JSON)")
    common.add_argument("--out", help="output directory (default: out)")
    common.add_argument("--seed", type=int, help="run seed (default: 0)")
    common.add_argument("--preset", help="device preset, e.g. L6")

    parser = argparse.ArgumentParser(
        prog="sliptsim",
        description="Segmented photonic-power-converter SLIPT link simulator",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command")

    for cmd in ("iv", "link", "mismatch"):
        p = sub.add_parser(cmd, parents=[common])
        p.add_argument("--calibration", help="calibration.json path")
        if cmd == "mismatch":
            p.add_argument("--max-offset-mm", type=float, dest="max_offset_mm")
            p.add_argument("--points", type=int)
        if cmd == "link":
            p.add_argument("--ber-target", type=float, dest="ber_target")

    p = sub.add_parser("bandwidth", parents=[common])
    p.add_argument("--calibration")
    p.add_argument("--presets", help="comma-separated preset list (default: all)")

    p = sub.add_parser("sweep", parents=[common])
    p.add_argument("--calibration")
    p.add_argument("--presets", help="comma-separated preset list (default: all)")
    p.add_argument("--ber-target", type=float, dest="ber_target")

    p = sub.add_parser("safety", parents=[common])
    p.add_argument("--wavelength-nm", type=float, dest="wavelength_nm")
    p.add_argument("--source-diameter-mm", type=float, dest="source_diameter_mm")
    p.add_argument("--distance-mm", type=float, dest="distance_mm")
    p.add_argument("--exposure-time-s", type=float, dest="exposure_time_s")
    p.add_argument("--received-power-w", type=float, dest="received_power_w")
    p.add_argument("--pupil-radius-mm", type=float, dest="pupil_radius_mm")

    sub.add_parser("calibrate", parents=[common])

    p = sub.add_parser("reproduce", parents=[common])
    p.add_argument("target", choices=["table1", "fig6"])
    p.add_argument("--calibration")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    spec: dict = {}
    if args.config:
        try:
            spec = load_spec(args.config)
        except SpecError as exc:
            print(f"spec error: {exc}", file=sys.stderr)
            return 2

    if args.command is None:
        if not spec:
            parser.print_help()
            return 2
        kind = spec["kind"]
    else:
        if args.command == "reproduce":
            kind = f"reproduce-{args.target}"
        else:
            kind = _KIND_BY_COMMAND[args.command]
        if spec and spec.get("kind") not in (None, kind):
            print(
                f"spec error: config kind {spec['kind']!r} does not match "
                f"subcommand {args.command!r}",
                file=sys.stderr,
            )
            return 2
        spec["kind"] = kind

    # CLI flags override spec fields
    for key in (
        "preset", "calibration", "ber_target", "max_offset_mm", "points",
        "presets", "wavelength_nm", "source_diameter_mm", "distance_mm",
        "exposure_time_s", "received_power_w", "pupil_radius_mm",
    ):
        value = getattr(args, key, None)
        if value is not None:
            spec[key] = value

    return _dispatch(spec, args.out, args.seed)


if __name__ == "__main__":
    sys.exit(main())
