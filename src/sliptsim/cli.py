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
from importlib import resources
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
from .link import BER_TARGET, LinkReport, ReceiverChain, mismatch_study, sweep
from .ppc import find_mpp, harvest_figures, sector_fractions, string_iv
from .presets import (
    JUNCTION_AREA_MM2,
    MEASURED_BANDWIDTH_HZ,
    MEASURED_DATA_RATE_BPS,
    MEASURED_IMP_ISC,
    MEASURED_PMP_W,
    PRESET_NAMES,
    default_modem,
    default_transmitter,
)
from .safety import SafetyScenario, assess

SCHEMA_VERSION = 1
CONFIG_DIR_ENV = "SLIPTSIM_CONFIG_DIR"


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


def _spec_field(spec: dict, key: str, default, convert):
    """``convert`` of the spec's ``key`` (``default`` when absent); a value
    ``convert`` refuses is a malformed spec, wherever the field is read."""
    value = spec.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"field {key!r}: {exc}") from exc


def _number(value):
    """A JSON number (int or float, not bool), returned unchanged."""
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, got {value!r}")
    return value


def _integer(value) -> int:
    """A JSON integer (not bool), returned unchanged."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _count(value) -> int:
    """A non-negative JSON integer."""
    count = _integer(value)
    if count < 0:
        raise ValueError(f"expected a non-negative count, got {value!r}")
    return count


def _spec_number(spec: dict, key: str, default):
    return _spec_field(spec, key, default, _number)


def _header(kind: str, payload: dict, seed) -> list[str]:
    return [
        f"sliptsim v{__version__} schema_version={SCHEMA_VERSION} kind={kind} "
        f"spec_sha256={spec_hash(payload)} seed={seed}"
    ]


def _load_calibration(spec: dict) -> CalibrationResult:
    """The fit named by the spec's ``calibration`` field, or else the bundled
    fit of the seven measured presets (``data/calibration.json``)."""
    path = _spec_field(spec, "calibration", None, lambda v: Path(v) if v else None)
    if path is None:
        path = resources.files("sliptsim").joinpath("data/calibration.json")
    elif not path.exists():
        raise SpecError(f"calibration file not found: {path}")
    return CalibrationResult.load(path)


def _receivers(spec: dict, names) -> list[tuple[str, ReceiverChain]]:
    """(name, chain) per preset: its chain under the spec's calibration, with
    the spec's beam offset and radius applied on top."""
    calibration = _load_calibration(spec)
    beam = {}
    if "beam_offset_mm" in spec:
        beam["center_mm"] = (_spec_number(spec, "beam_offset_mm", None), 0.0)
    if "beam_radius_mm" in spec:
        beam["beam_radius_mm"] = _spec_number(spec, "beam_radius_mm", None)
    chains = []
    for name in names:
        chain = calibrated_receiver(calibration, name)
        chains.append((name, replace(chain, beam=replace(chain.beam, **beam))))
    return chains


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
    if not isinstance(presets, list):
        raise SpecError(f"field 'presets': expected a list or a string, got {presets!r}")
    return [_preset_name(p) for p in presets]


def _preset_chain(spec: dict) -> tuple[str, ReceiverChain]:
    """The spec's single preset (default L6) and its receiver chain."""
    return _receivers(spec, [_preset_name(spec.get("preset", "L6"))])[0]


def _run_links(spec: dict, entries, seed: int) -> list[LinkReport]:
    """One link report per (label, chain) entry, entry i run with seed
    ``seed + i``; a failed entry's report carries its error."""
    ber_target = _spec_number(spec, "ber_target", BER_TARGET)
    return sweep(entries, default_transmitter(), default_modem(), ber_target=ber_target, seed=seed)


def _raise_failures(reports) -> None:
    """A run error naming each failed entry, if any failed."""
    failed = [f"{r.device_id}: {r.error}" for r in reports if r.error]
    if failed:
        raise RuntimeError(f"{len(failed)} link run(s) failed: {'; '.join(failed)}")


# ---------------------------------------------------------------------------
# Handlers (one per experiment kind)
# ---------------------------------------------------------------------------

def _handle_iv(spec: dict, out_dir: Path, seed: int) -> None:
    name, chain = _preset_chain(spec)
    power_w = _spec_number(spec, "power_w", default_transmitter().emitted_power_w)
    beam = replace(chain.beam, total_power_w=power_w)
    fractions = sector_fractions(chain.device.geometry, beam)
    photocurrents = beam.responsivity_a_w * beam.total_power_w * fractions
    curve = string_iv(chain.device, photocurrents)
    header = _header("iv", {**spec, "preset": name}, seed)
    iv_curve_to_csv(curve, out_dir / "iv.csv", header_comments=header)
    mpp = find_mpp(curve)
    print(
        f"{name}: Voc {curve.voltages_v[-1]:.4f} V, "
        f"Isc {curve.short_circuit_current_a() * 1e3:.4f} mA, "
        f"Pmp {mpp.power_w * 1e3:.4f} mW -> {out_dir / 'iv.csv'}"
    )


def _handle_bandwidth(spec: dict, out_dir: Path, seed: int) -> None:
    rows = []
    for name, chain in _receivers(spec, _spec_presets(spec)):
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
    [report] = _run_links(spec, [_preset_chain(spec)], seed)
    _raise_failures([report])
    name = report.device_id
    _emit_link_artifacts(report, out_dir, _header("link", {**spec, "preset": name}, seed))
    print(
        f"{name}: rate {report.data_rate_bps / 1e9:.3f} Gbps, "
        f"BER {report.ber:.3e}, f3dB {report.f3db_hz / 1e9:.3f} GHz "
        f"-> {out_dir / 'report.csv'}"
    )


def _handle_sweep(spec: dict, out_dir: Path, seed: int) -> None:
    names = _spec_presets(spec)
    reports = _run_links(spec, _receivers(spec, names), seed)
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
    _raise_failures(reports)


def _handle_mismatch(spec: dict, out_dir: Path, seed: int) -> None:
    name, chain = _preset_chain(spec)
    max_offset = _spec_number(
        spec, "max_offset_mm", 0.45 * chain.device.geometry.cell_diameter_mm
    )
    n_points = _spec_field(spec, "points", 20, _count)
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
        wavelength_nm=_spec_number(spec, "wavelength_nm", 850.0),
        source_diameter_mm=_spec_number(spec, "source_diameter_mm", 35.0),
        evaluation_distance_mm=_spec_number(spec, "distance_mm", 100.0),
        exposure_time_s=_spec_number(spec, "exposure_time_s", 30000.0),
        received_power_w=_spec_number(spec, "received_power_w", 80e-6),
        pupil_radius_mm=_spec_number(spec, "pupil_radius_mm", 3.5),
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
    rows = []
    for name, chain in _receivers(spec, PRESET_NAMES):
        beam = chain.beam
        pmp_sim, ratio_sim = harvest_figures(
            chain.device,
            beam.responsivity_a_w * beam.total_power_w
            * sector_fractions(chain.device.geometry, beam),
        )
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
    reports = _run_links(spec, _receivers(spec, PRESET_NAMES), seed)
    _raise_failures(reports)
    rows = [
        (r.device_id, JUNCTION_AREA_MM2[r.device_id], r.data_rate_bps,
         MEASURED_DATA_RATE_BPS[r.device_id])
        for r in reports
    ]
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

EXPERIMENT_KINDS = tuple(_HANDLERS)

# fields a kind would ignore, and so change only the artifact's spec hash:
# refused as malformed.  Only iv, link and mismatch run a single preset; the
# bandwidth sweep reads no beam, the mismatch study scans the offset itself,
# and the reproductions run the calibrated beams.
_IGNORED_FIELDS = {
    "bandwidth-sweep": ("preset", "beam_offset_mm", "beam_radius_mm"),
    "sweep": ("preset",),
    "mismatch": ("beam_offset_mm",),
    "safety": ("preset",),
    "calibrate": ("preset",),
    "reproduce-table1": ("preset", "beam_offset_mm", "beam_radius_mm"),
    "reproduce-fig6": ("preset", "beam_offset_mm", "beam_radius_mm"),
}


def _dispatch(spec: dict, out_dir, seed) -> int:
    kind = spec["kind"]
    try:
        for key in _IGNORED_FIELDS.get(kind, ()):
            if key in spec:
                raise SpecError(f"field {key!r} is not used by kind {kind!r}")
        out = Path(out_dir) if out_dir is not None else _spec_field(spec, "out_dir", "out", Path)
        effective_seed = seed if seed is not None else _spec_field(spec, "seed", 0, _integer)
        out.mkdir(parents=True, exist_ok=True)
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

# parsed values that are not spec fields; every other flag overrides the
# spec field of its destination name
_RUN_ARGUMENTS = ("command", "target", "config", "out", "seed")

_CALIBRATION = ("--calibration", str, "calibration.json to run (default: the bundled fit)")
_PRESETS = ("--presets", str, "comma-separated preset list (default: all)")
_BER_TARGET = ("--ber-target", float, None)

# subcommand -> (experiment kind, the subcommand's own flags as (flag, type,
# help)); `reproduce <target>` runs the kind "reproduce-<target>"
_COMMANDS = {
    "iv": ("iv", (_CALIBRATION,)),
    "link": ("link", (_CALIBRATION, _BER_TARGET)),
    "mismatch": ("mismatch", (
        _CALIBRATION, ("--max-offset-mm", float, None), ("--points", int, None),
    )),
    "bandwidth": ("bandwidth-sweep", (_CALIBRATION, _PRESETS)),
    "sweep": ("sweep", (_CALIBRATION, _PRESETS, _BER_TARGET)),
    "safety": ("safety", tuple(
        (flag, float, None)
        for flag in ("--wavelength-nm", "--source-diameter-mm", "--distance-mm",
                     "--exposure-time-s", "--received-power-w", "--pupil-radius-mm")
    )),
    "calibrate": ("calibrate", ()),
    "reproduce": ("reproduce", (_CALIBRATION,)),
}


def _add_global_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="experiment spec file (JSON)")
    parser.add_argument("--out", help="output directory (default: out)")
    parser.add_argument("--seed", type=int, help="run seed (default: 0)")
    parser.add_argument("--preset", help="device preset, e.g. L6")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sliptsim",
        description="Segmented photonic-power-converter SLIPT link simulator",
    )
    _add_global_flags(parser)
    # The subcommands repeat the global flags, so they parse after the
    # subcommand too.  Their copies have no default: a subcommand that is
    # not given a flag leaves the value parsed before it in place.
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    _add_global_flags(common)
    sub = parser.add_subparsers(dest="command")
    for command, (kind, flags) in _COMMANDS.items():
        p = sub.add_parser(command, parents=[common])
        if command == "reproduce":
            targets = [k.removeprefix(f"{kind}-") for k in _HANDLERS if k.startswith(f"{kind}-")]
            p.add_argument("target", choices=targets)
        for flag, type_, help_ in flags:
            p.add_argument(flag, type=type_, help=help_)
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
        kind = _COMMANDS[args.command][0]
        if args.command == "reproduce":
            kind = f"{kind}-{args.target}"
        if spec and spec.get("kind") not in (None, kind):
            print(
                f"spec error: config kind {spec['kind']!r} does not match "
                f"subcommand {args.command!r}",
                file=sys.stderr,
            )
            return 2
        spec["kind"] = kind

    # CLI flags override spec fields
    for key, value in vars(args).items():
        if key not in _RUN_ARGUMENTS and value is not None:
            spec[key] = value

    return _dispatch(spec, args.out, args.seed)


if __name__ == "__main__":
    sys.exit(main())
