"""Command-line harness: device curves, link runs, sweeps, calibration,
eye-safety checks and table/figure reproduction, all emitting deterministic
CSV artifacts.

One table, ``_KINDS``, declares each experiment kind: its handler and its
spec fields (name, default, converter and flag type).  A kind's subcommand
is its name up to the first ``-``; a subcommand that runs several kinds
takes the rest of the name as its positional target (``reproduce fig6``
runs ``reproduce-fig6``).  A spec key that is neither a field of its kind
nor a global one (``kind``, ``schema_version``, ``seed``, ``out_dir``) is
refused, and each subcommand's flags are its kinds' fields.

Every artifact starts with a comment line carrying the schema version, the
experiment kind, a hash of the resolved fields (every field of the kind,
defaults filled in) and the seed, so two invocations that run the same job
produce byte-identical files.

Each handler imports the model modules it runs: the module itself loads
no numpy, so ``--help``, a malformed spec and ``safety`` run without it.

Exit codes: 0 success; 2 for a malformed spec or arguments (a ``SpecError``:
an unknown kind, field or preset, a named file that does not exist); 1 for
any other ``SliptsimError``.  Any other exception is a bug: it propagates.
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
from typing import Callable, NamedTuple

from . import __version__
from .constants import BER_TARGET, DEFAULT_EMITTED_POWER_W
from .errors import ParameterError, SliptsimError
from .io import spec_hash, write_csv
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

SCHEMA_VERSION = 1
CONFIG_DIR_ENV = "SLIPTSIM_CONFIG_DIR"


class SpecError(SliptsimError, ValueError):
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
    except OSError as exc:  # a directory, or unreadable
        raise SpecError(f"{path}: cannot read the spec: {exc.strerror}") from exc
    except ValueError as exc:  # not JSON, or not UTF-8
        raise SpecError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise SpecError(f"{path}: spec must be a JSON object")
    if "kind" not in spec:
        raise SpecError(f"{path}: missing required field 'kind'")
    if spec["kind"] not in _KINDS:
        raise SpecError(
            f"{path}: unknown kind {spec['kind']!r}; expected one of {', '.join(_KINDS)}"
        )
    version = spec.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise SpecError(
            f"{path}: unsupported schema_version {version!r} "
            f"(this build reads {SCHEMA_VERSION})"
        )
    return spec


def _spec_field(spec: dict, key: str, default, convert):
    """``convert`` of the spec's ``key`` (``default`` when absent); a field
    whose default is None stays None when absent or null.  A value
    ``convert`` refuses is a malformed spec, wherever the field is read."""
    value = spec.get(key, default)
    if value is None and default is None:
        return None
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecError(f"field {key!r}: {exc}") from exc


def _number(value) -> float:
    """A JSON number (int or float, not bool), as a float."""
    if type(value) not in (int, float):
        raise ParameterError(f"expected a number, got {value!r}")
    return float(value)


def _count(value) -> int:
    """A non-negative JSON integer (not bool), returned unchanged."""
    if type(value) is not int:
        raise ParameterError(f"expected an integer, got {value!r}")
    if value < 0:
        raise ParameterError(f"expected a non-negative count, got {value!r}")
    return value


def _preset_name(value) -> str:
    """Upper-cased name of a bundled preset."""
    name = str(value).upper()
    if name not in PRESET_NAMES:
        raise ParameterError(
            f"unknown preset {value!r}; expected one of {', '.join(PRESET_NAMES)}"
        )
    return name


def _preset_list(value) -> list[str]:
    """A list of preset names, or one comma-separated string of them."""
    if isinstance(value, str):
        value = [p for p in value.split(",") if p]
    if not isinstance(value, list):
        raise ParameterError(f"expected a list or a string, got {value!r}")
    return [_preset_name(p) for p in value]


def _fit_file(value) -> str | None:
    """Path of a fit file that exists, as given; "" names the bundled fit."""
    if type(value) is not str:
        raise ParameterError(f"expected a path, got {value!r}")
    if value and not Path(value).is_file():
        raise ParameterError(f"calibration file not found: {value}")
    return value or None


class _Field(NamedTuple):
    """One spec field of a kind.  ``default`` stands in for an absent value
    (and, when it is None, for null); ``flag_type`` parses the subcommand's
    ``--name-with-dashes`` flag, None where a global flag sets the field."""

    name: str
    default: object
    convert: Callable
    flag_type: type | None
    help: str | None = None


class _Kind(NamedTuple):
    """One experiment kind: the handler that runs it and its spec fields."""

    handler: Callable
    fields: tuple


_PRESET = _Field("preset", "L6", _preset_name, None)
_PRESET_LIST = _Field("presets", list(PRESET_NAMES), _preset_list, str,
                      "comma-separated preset list (default: all)")
# the fit every preset chain is built from; None is the bundled seven-preset
# fit (data/calibration.json)
_FIT = _Field("calibration", None, _fit_file, str,
              "calibration.json to run (default: the bundled fit)")
# set on top of the calibrated beam; None keeps the calibrated value
_BEAM_OFFSET = _Field("beam_offset_mm", None, _number, float)
_BEAM_RADIUS = _Field("beam_radius_mm", None, _number, float)
_BER = _Field("ber_target", BER_TARGET, _number, float)

# spec keys every kind accepts; none of them enters the spec hash (the
# header carries the seed, and the output directory does not change the job)
_GLOBAL_KEYS = ("kind", "schema_version", "seed", "out_dir")


def _resolve(spec: dict) -> dict:
    """The kind and every field of the spec's kind, converted or defaulted;
    a key that is neither a field of the kind nor a global one is refused."""
    kind = spec["kind"]
    fields = _KINDS[kind].fields
    names = [f.name for f in fields]
    for key in spec:
        if key not in names and key not in _GLOBAL_KEYS:
            raise SpecError(f"field {key!r} is not used by kind {kind!r}")
    return {"kind": kind, **{
        f.name: _spec_field(spec, f.name, f.default, f.convert) for f in fields
    }}


def _header(run: dict, seed: int) -> list[str]:
    return [
        f"sliptsim v{__version__} schema_version={SCHEMA_VERSION} kind={run['kind']} "
        f"spec_sha256={spec_hash(run)} seed={seed}"
    ]


def _receivers(run: dict, names) -> list[tuple]:
    """(name, chain) per preset: its chain under the run's calibration, with
    the run's beam offset and radius, where set, applied on top."""
    from .calibrate import CalibrationResult, calibrated_receiver
    fit = run["calibration"] or resources.files("sliptsim").joinpath("data/calibration.json")
    calibration = CalibrationResult.load(fit)
    beam = {}
    if run.get("beam_offset_mm") is not None:
        beam["center_mm"] = (run["beam_offset_mm"], 0.0)
    if run.get("beam_radius_mm") is not None:
        beam["beam_radius_mm"] = run["beam_radius_mm"]
    chains = []
    for name in names:
        chain = calibrated_receiver(calibration, name)
        chains.append((name, replace(chain, beam=replace(chain.beam, **beam))))
    return chains


def _run_links(run: dict, names, seed: int) -> list:
    """``link.sweep``'s report per preset: the default transmitter and modem
    into each preset's chain, at the run's BER target."""
    from .link import sweep
    return sweep(_receivers(run, names), default_transmitter(), default_modem(),
                 ber_target=run["ber_target"], seed=seed)


def _raise_failures(reports) -> None:
    """A run error naming each failed entry, if any failed."""
    failed = [f"{r.device_id}: {r.error}" for r in reports if r.error]
    if failed:
        raise SliptsimError(f"{len(failed)} link run(s) failed: {'; '.join(failed)}")


# ---------------------------------------------------------------------------
# Handlers (one per experiment kind)
# ---------------------------------------------------------------------------

def _handle_iv(run: dict, out_dir: Path, seed: int) -> None:
    from .ppc import find_mpp, sector_fractions, string_iv
    [(name, chain)] = _receivers(run, [run["preset"]])
    beam = replace(chain.beam, total_power_w=run["power_w"])
    fractions = sector_fractions(chain.device.geometry, beam)
    photocurrents = beam.responsivity_a_w * beam.total_power_w * fractions
    curve = string_iv(chain.device, photocurrents)
    write_csv(
        out_dir / "iv.csv",
        ["voltage_V", "current_A"],
        zip(curve.voltages_v, curve.currents_a),
        header_comments=_header(run, seed),
    )
    mpp = find_mpp(curve)
    print(
        f"{name}: Voc {curve.voltages_v[-1]:.4f} V, "
        f"Isc {curve.short_circuit_current_a() * 1e3:.4f} mA, "
        f"Pmp {mpp.power_w * 1e3:.4f} mW -> {out_dir / 'iv.csv'}"
    )


def _handle_bandwidth(run: dict, out_dir: Path, seed: int) -> None:
    rows = [
        (name, chain.device.n_segments, JUNCTION_AREA_MM2[name], chain.string_capacitance_f(),
         chain.f3db_hz(), MEASURED_BANDWIDTH_HZ.get(name, math.nan))
        for name, chain in _receivers(run, run["presets"])
    ]
    write_csv(
        out_dir / "bandwidth.csv",
        ["preset", "n_segments", "junction_area_mm2", "string_capacitance_f",
         "f3db_hz", "measured_bandwidth_hz"],
        rows,
        header_comments=_header(run, seed),
    )
    print(f"{len(rows)} configurations -> {out_dir / 'bandwidth.csv'}")


def _emit_link_artifacts(report, out_dir: Path, header, suffix: str = "") -> None:
    """The report, SNR-profile and loading CSVs of one successful run
    (a failed sweep row carries no SNR profile or plan)."""
    write_csv(
        out_dir / f"report{suffix}.csv",
        report.CSV_COLUMNS,
        [report.csv_row()],
        header_comments=header,
    )
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
    write_csv(
        out_dir / f"loading{suffix}.csv",
        ["carrier", "bits", "power_scale"],
        zip(range(report.plan.bits.size), report.plan.bits, report.plan.power),
        header_comments=header,
    )


def _handle_link(run: dict, out_dir: Path, seed: int) -> None:
    [report] = _run_links(run, [run["preset"]], seed)
    _raise_failures([report])
    _emit_link_artifacts(report, out_dir, _header(run, seed))
    print(
        f"{report.device_id}: rate {report.data_rate_bps / 1e9:.3f} Gbps, "
        f"BER {report.ber:.3e}, f3dB {report.f3db_hz / 1e9:.3f} GHz "
        f"-> {out_dir / 'report.csv'}"
    )


def _handle_sweep(run: dict, out_dir: Path, seed: int) -> None:
    from .link import LinkReport
    reports = _run_links(run, run["presets"], seed)
    header = _header(run, seed)
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


def _handle_mismatch(run: dict, out_dir: Path, seed: int) -> None:
    import numpy as np
    from .ppc import mismatch_study
    [(name, chain)] = _receivers(run, [run["preset"]])
    max_offset = run["max_offset_mm"]
    if max_offset is None:
        max_offset = 0.45 * chain.device.geometry.cell_diameter_mm
    rows = mismatch_study(chain.device, chain.beam, np.linspace(0.0, max_offset, run["points"]))
    write_csv(
        out_dir / "mismatch.csv",
        ["offset_mm", "imp_isc", "pmp_w"],
        rows,
        header_comments=_header(run, seed),
    )
    print(f"{name}: {run['points']} offsets -> {out_dir / 'mismatch.csv'}")


def _handle_safety(run: dict, out_dir: Path, seed: int) -> None:
    from .safety import SafetyScenario, assess
    # the scenario's inputs in CSV column order; distance_mm is its evaluation distance
    inputs = [f.name for f in _KINDS["safety"].fields]
    kwargs = {name: run[name] for name in inputs}
    report = assess(SafetyScenario(evaluation_distance_mm=kwargs.pop("distance_mm"), **kwargs))
    outputs = ["source_class", "c4", "c6", "mpe_w_m2", "irradiance_w_m2", "safety_margin"]
    write_csv(
        out_dir / "safety.csv",
        [*inputs, "alpha_mrad", *outputs, "verdict"],
        [(*(run[name] for name in inputs), report.angular_subtense_rad * 1e3,
          *(getattr(report, name) for name in outputs), report.verdict)],
        header_comments=_header(run, seed),
    )
    print(
        f"{report.verdict}: margin {report.safety_margin:.4g} "
        f"(MPE {report.mpe_w_m2:.4g} W/m^2, E {report.irradiance_w_m2:.4g} W/m^2, "
        f"alpha {report.angular_subtense_rad * 1e3:.4g} mrad, {report.source_class} source)"
    )


def _handle_calibrate(run: dict, out_dir: Path, seed: int) -> None:
    from .calibrate import calibrate, measured_targets
    result = calibrate(measured_targets())
    result.save(out_dir / "calibration.json")
    rows = [
        (name, result.bandwidth_residuals.get(name, math.nan),
         result.pmp_residuals.get(name, math.nan), result.imp_isc_residuals.get(name, math.nan))
        for name in PRESET_NAMES
    ]
    write_csv(
        out_dir / "calibration_residuals.csv",
        ["preset", "bandwidth_residual", "pmp_residual", "imp_isc_residual"],
        rows,
        header_comments=_header(run, seed),
    )
    print(
        f"calibrated (max residual {result.max_residual():.1%}) "
        f"-> {out_dir / 'calibration.json'}"
    )


def _handle_reproduce_table1(run: dict, out_dir: Path, seed: int) -> None:
    from .ppc import harvest_figures, sector_fractions
    rows = []
    for name, chain in _receivers(run, PRESET_NAMES):
        beam = chain.beam
        photocurrents = (beam.responsivity_a_w * beam.total_power_w
                         * sector_fractions(chain.device.geometry, beam))
        # (simulated, measured) Pmp, Imp/Isc and bandwidth
        pairs = zip((*harvest_figures(chain.device, photocurrents), chain.f3db_hz()),
                    (MEASURED_PMP_W[name], MEASURED_IMP_ISC[name], MEASURED_BANDWIDTH_HZ[name]))
        rows.append((name, chain.device.n_segments, JUNCTION_AREA_MM2[name],
                     *(v for sim, meas in pairs for v in (sim, meas, (sim - meas) / meas))))
    write_csv(
        out_dir / "table1.csv",
        ["preset", "n_segments", "junction_area_mm2",
         "pmp_sim_w", "pmp_measured_w", "pmp_residual",
         "imp_isc_sim", "imp_isc_measured", "imp_isc_residual",
         "f3db_sim_hz", "bandwidth_measured_hz", "bandwidth_residual"],
        rows,
        header_comments=_header(run, seed),
    )
    print(f"{len(rows)} rows -> {out_dir / 'table1.csv'}")


def _handle_reproduce_fig6(run: dict, out_dir: Path, seed: int) -> None:
    reports = _run_links(run, PRESET_NAMES, seed)
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
        header_comments=_header(run, seed),
    )
    print(f"{len(rows)} points -> {out_dir / 'fig6.csv'}")


# experiment kind -> its handler and spec fields, in the order ``--help``
# lists the subcommands.  Only iv, link and mismatch run a single preset;
# the bandwidth sweep reads no beam, the mismatch study scans the offset
# itself, and the reproductions run the calibrated beams.
_KINDS = {
    "iv": _Kind(_handle_iv, (_PRESET, _FIT, _BEAM_OFFSET, _BEAM_RADIUS,
                             _Field("power_w", DEFAULT_EMITTED_POWER_W, _number, float))),
    "link": _Kind(_handle_link, (_PRESET, _FIT, _BEAM_OFFSET, _BEAM_RADIUS, _BER)),
    "mismatch": _Kind(_handle_mismatch, (
        _PRESET, _FIT, _BEAM_RADIUS,
        # None scans to 0.45 of the preset's cell diameter
        _Field("max_offset_mm", None, _number, float),
        _Field("points", 20, _count, int),
    )),
    "bandwidth-sweep": _Kind(_handle_bandwidth, (_FIT, _PRESET_LIST)),
    "sweep": _Kind(_handle_sweep, (_FIT, _PRESET_LIST, _BEAM_OFFSET, _BEAM_RADIUS, _BER)),
    "safety": _Kind(_handle_safety, (
        # 850 nm, not the link's 847 nm (constants.DEFAULT_WAVELENGTH_NM):
        # the documented eye-safety scenario and its margin are at 850 nm
        _Field("wavelength_nm", 850.0, _number, float),
        _Field("source_diameter_mm", 35.0, _number, float),
        _Field("distance_mm", 100.0, _number, float),
        _Field("exposure_time_s", 30000.0, _number, float),
        _Field("received_power_w", 80e-6, _number, float),
        _Field("pupil_radius_mm", 3.5, _number, float),
    )),
    "calibrate": _Kind(_handle_calibrate, ()),
    "reproduce-table1": _Kind(_handle_reproduce_table1, (_FIT,)),
    "reproduce-fig6": _Kind(_handle_reproduce_fig6, (_FIT, _BER)),
}


def _subcommands() -> dict[str, list[str]]:
    """Subcommand -> the kinds it runs: each kind's name up to its first "-"."""
    commands = {}
    for kind in _KINDS:
        commands.setdefault(kind.partition("-")[0], []).append(kind)
    return commands


def _dispatch(flags: dict) -> int:
    """Run the job of the ``--config`` file, the subcommand and the other
    flags; the one place that maps errors to exit codes (module docstring)."""
    config, command, target = (flags.pop(k, None) for k in ("config", "command", "target"))
    try:
        spec = load_spec(config) if config else {}
        if command is not None:
            kind = f"{command}-{target}" if target else _subcommands()[command][0]
            if spec.get("kind", kind) != kind:
                raise SpecError(
                    f"config kind {spec['kind']!r} does not match subcommand {command!r}"
                )
            spec["kind"] = kind
        # flags override spec fields; a field the kind lacks is refused
        spec.update({key: value for key, value in flags.items() if value is not None})
        run = _resolve(spec)
        out = _spec_field(spec, "out_dir", "out", Path)
        seed = _spec_field(spec, "seed", 0, _count)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file in the way, or no permission
            raise SpecError(f"out_dir {str(out)!r}: {exc.strerror}") from exc
        _KINDS[run["kind"]].handler(run, out, seed)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except SliptsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_global_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="experiment spec file (JSON)")
    parser.add_argument("--out", dest="out_dir", metavar="OUT",
                        help="output directory (default: out)")
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
    for command, kinds in _subcommands().items():
        p = sub.add_parser(command, parents=[common])
        if len(kinds) > 1:
            p.add_argument("target", choices=[k.removeprefix(f"{command}-") for k in kinds])
        fields = {f.name: f for kind in kinds for f in _KINDS[kind].fields if f.flag_type}
        for f in fields.values():
            p.add_argument(f"--{f.name.replace('_', '-')}", type=f.flag_type, help=f.help)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    flags = vars(parser.parse_args(argv))
    if not flags["config"] and flags["command"] is None:
        parser.print_help()
        return 2
    return _dispatch(flags)


if __name__ == "__main__":
    sys.exit(main())
