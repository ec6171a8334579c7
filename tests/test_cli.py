import argparse
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from chain import read_csv
from sliptsim import ParameterError, cli, link
from sliptsim.calibrate import CalibrationResult
from sliptsim.cli import SpecError, load_spec, main
from sliptsim.io import spec_hash
from sliptsim.ofdm import SyncError
from sliptsim.ppc import IVCurve
from sliptsim.presets import PRESET_NAMES


def write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestSpecParsing:
    def test_missing_kind_names_field(self, tmp_path):
        path = write_spec(tmp_path, {"schema_version": 1})
        with pytest.raises(SpecError, match="kind"):
            load_spec(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = write_spec(tmp_path, {"kind": "explode"})
        with pytest.raises(SpecError, match="unknown kind"):
            load_spec(path)

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": "link",,}')
        with pytest.raises(SpecError, match="line"):
            load_spec(str(path))

    def test_spec_that_is_not_utf8_is_spec_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"kind": "safety", "note": "\u00e9"}'.encode("latin-1"))
        assert main(["--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("spec error:")

    def test_wrong_schema_version(self, tmp_path):
        path = write_spec(tmp_path, {"kind": "link", "schema_version": 99})
        with pytest.raises(SpecError, match="schema_version"):
            load_spec(path)

    def test_run_spec_exit_codes(self, tmp_path):
        bad = write_spec(tmp_path, {"schema_version": 1})
        assert main(["--config", bad]) == 2

    def test_config_that_is_a_directory_is_spec_error(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("spec error:")
        assert not (tmp_path / "o").exists()

    def test_config_dir_environment(self, tmp_path, monkeypatch):
        cfg_dir = tmp_path / "configs"
        cfg_dir.mkdir()
        write_spec(cfg_dir, {"kind": "safety"}, name="s.json")
        monkeypatch.setenv("SLIPTSIM_CONFIG_DIR", str(cfg_dir))
        spec = load_spec("s.json")
        assert spec["kind"] == "safety"


class TestCommands:
    def test_safety_documented_scenario(self, tmp_path, capsys):
        assert main(["safety", "--out", str(tmp_path)]) == 0
        cols, rows = read_csv(tmp_path / "safety.csv")
        row = dict(zip(cols, rows[0]))
        assert float(row["safety_margin"]) == pytest.approx(87.42, rel=1e-2)
        assert row["verdict"] == "safe"
        out = capsys.readouterr().out
        assert "safe" in out and "margin" in out

    def test_empty_sweep_header_only(self, tmp_path):
        spec = write_spec(tmp_path, {"kind": "sweep", "presets": []})
        assert main(["sweep", "--config", spec, "--out", str(tmp_path)]) == 0
        cols, rows = read_csv(tmp_path / "report.csv")
        assert cols[0] == "device_id"
        assert rows == []

    def test_unknown_preset_is_spec_error(self, tmp_path):
        assert main(["iv", "--preset", "Q9", "--out", str(tmp_path)]) == 2

    def test_kind_subcommand_mismatch(self, tmp_path):
        spec = write_spec(tmp_path, {"kind": "safety"})
        assert main(["iv", "--config", spec, "--out", str(tmp_path)]) == 2

    def test_iv_artifact(self, tmp_path):
        assert main(["iv", "--preset", "L2", "--out", str(tmp_path)]) == 0
        cols, _ = read_csv(tmp_path / "iv.csv")
        assert cols == ["voltage_V", "current_A"]
        first = (tmp_path / "iv.csv").read_text().splitlines()[0]
        assert first.startswith("#") and "seed=" in first and "spec_sha256=" in first

    def test_reproduce_without_a_named_calibration_runs_the_bundled_fit(
        self, tmp_path, calibration
    ):
        path = tmp_path / "fit.json"
        calibration.save(path)
        assert main(["reproduce", "table1", "--out", str(tmp_path / "bundled")]) == 0
        assert main(["reproduce", "table1", "--calibration", str(path),
                     "--out", str(tmp_path / "named")]) == 0
        bundled, named = (
            (tmp_path / d / "table1.csv").read_text().splitlines()[1:]
            for d in ("bundled", "named")
        )
        assert bundled == named

    @pytest.mark.parametrize("where", ["out", "config_dir"])
    def test_stray_calibration_file_is_ignored(self, tmp_path, monkeypatch, calibration, where):
        altered = replace(
            calibration,
            capacitance_density_f_mm2={
                k: 2.0 * v for k, v in calibration.capacitance_density_f_mm2.items()
            },
            responsivity_a_w={k: 0.5 * v for k, v in calibration.responsivity_a_w.items()},
        )
        stray = tmp_path / where
        stray.mkdir()
        altered.save(stray / "calibration.json")
        monkeypatch.setenv("SLIPTSIM_CONFIG_DIR", str(tmp_path / "config_dir"))
        runs = {
            "stray": ["--out", str(tmp_path / "out")],
            "clean": ["--out", str(tmp_path / "clean")],
            "altered": ["--calibration", str(stray / "calibration.json"),
                        "--out", str(tmp_path / "altered")],
        }
        for args in runs.values():
            assert main(["reproduce", "table1", *args]) == 0
        table = {run: (Path(args[-1]) / "table1.csv").read_text() for run, args in runs.items()}
        assert table["stray"] == table["clean"]
        assert table["altered"].splitlines()[1:] != table["clean"].splitlines()[1:]

    def test_link_emits_profile_and_loading(self, tmp_path):
        assert main(["link", "--preset", "L6", "--out", str(tmp_path),
                     "--seed", "2"]) == 0
        cols, rows = read_csv(tmp_path / "snr_profile.csv")
        assert cols == ["carrier", "frequency_hz", "snr_db", "measured"]
        assert len(rows) == 511
        cols, rows = read_csv(tmp_path / "loading.csv")
        assert cols == ["carrier", "bits", "power_scale"]
        assert len(rows) == 511
        cols, rows = read_csv(tmp_path / "report.csv")
        assert len(rows) == 1
        assert float(dict(zip(cols, rows[0]))["data_rate_bps"]) > 0

    def test_run_spec_safety_scenario(self, tmp_path):
        spec = write_spec(tmp_path, {
            "kind": "safety", "out_dir": str(tmp_path / "artifacts"),
        })
        assert main(["--config", spec]) == 0
        cols, rows = read_csv(tmp_path / "artifacts" / "safety.csv")
        margin = float(dict(zip(cols, rows[0]))["safety_margin"])
        assert margin == pytest.approx(87.42, rel=1e-2)

    def test_config_only_dispatch_without_subcommand(self, tmp_path):
        spec = write_spec(tmp_path, {"kind": "safety"})
        assert main(["--config", spec, "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "safety.csv").exists()

    def test_iv_artifact_round_trips(self, tmp_path):
        assert main(["iv", "--preset", "M4", "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "iv.csv")
        curve = IVCurve(*np.array(rows, dtype=float).T)
        assert len(curve) > 100
        assert curve.short_circuit_current_a() > 0

    def test_link_artifacts_deterministic(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["link", "--preset", "S2", "--out", str(out),
                         "--seed", "11"]) == 0
        for name in ("report.csv", "snr_profile.csv", "loading.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_link_artifacts_identical_in_a_fresh_interpreter(self, tmp_path):
        # the RRC taps, preamble and SNR tables are cached: warm here, empty
        # in a new process; the written bytes must not depend on that
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["link", "--preset", "S2", "--seed", "11", "--out"]
        assert main([*args, str(out_a)]) == 0
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        subprocess.run(
            [sys.executable, "-m", "sliptsim.cli", *args, str(out_b)],
            env={**os.environ, "PYTHONPATH": path},
            check=True, capture_output=True, timeout=300,
        )
        for name in ("report.csv", "snr_profile.csv", "loading.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    @pytest.mark.parametrize("field", ["beam_offset_mm", "beam_radius_mm"])
    def test_spec_beam_field_applies_on_top_of_a_calibration(
        self, tmp_path, calibration, field
    ):
        path = tmp_path / "calibration.json"
        calibration.save(path)
        bodies = []
        for spec in ({"kind": "iv", "preset": "L6"}, {"kind": "iv", "preset": "L6", field: 0.3}):
            out = tmp_path / str(len(bodies))
            config = write_spec(tmp_path, spec)
            assert main(["iv", "--config", config, "--calibration", str(path),
                         "--out", str(out)]) == 0
            bodies.append((out / "iv.csv").read_text().splitlines()[1:])
        assert bodies[0] != bodies[1]

    def test_bandwidth_artifact_deterministic(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["bandwidth", "--out", str(out_a), "--seed", "3"]) == 0
        assert main(["bandwidth", "--out", str(out_b), "--seed", "3"]) == 0
        assert (out_a / "bandwidth.csv").read_bytes() == (
            out_b / "bandwidth.csv"
        ).read_bytes()


def subcommand_of(kind: str) -> str:
    """The command line that runs ``kind``: its subcommand, then its target
    where the subcommand runs several kinds."""
    command, _, target = kind.partition("-")
    return f"{command} {target}" if len(cli._subcommands()[command]) > 1 else command


def test_the_kind_table_builds_the_parser(capsys):
    parser = cli._build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(commands.choices) == [
        "iv", "link", "mismatch", "bandwidth", "sweep", "safety", "calibrate", "reproduce",
    ]
    assert [subcommand_of(kind) for kind in cli._KINDS] == [
        "iv", "link", "mismatch", "bandwidth", "sweep", "safety", "calibrate",
        "reproduce table1", "reproduce fig6",
    ]
    for command, kinds in cli._subcommands().items():
        targets = [a for a in commands.choices[command]._actions if a.dest == "target"]
        assert [t.choices for t in targets] == (
            [[k.removeprefix(f"{command}-") for k in kinds]] if len(kinds) > 1 else []
        )
        with pytest.raises(SystemExit) as done:
            main([command, "--help"])
        assert done.value.code == 0
        usage = capsys.readouterr().out
        for field in (f for kind in kinds for f in cli._KINDS[kind].fields):
            assert f"--{field.name.replace('_', '-')} " in usage
    for field in (f for kind in cli._KINDS.values() for f in kind.fields):
        # a None default marks an optional field; its handler or the
        # calibration supplies the value
        assert field.default is None or field.convert(field.default) == field.default


def test_readme_kind_table_matches_the_cli():
    # README's "kind (subcommand) | fields" table lists each kind of the CLI
    # table, in order, with its command line and its field names
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| kind (subcommand) | fields (default) |\n|---|---|\n")[1]
    rows = []
    for line in table.split("\n\n")[0].splitlines():
        kind_cell, fields_cell = line.strip("|").split(" | ")
        kind, subcommand = re.fullmatch(r" ?`([\w-]+)` \(`([\w ]+)`\)", kind_cell).groups()
        # a field is a backquoted name, then its default in parentheses if any
        rows.append((kind, subcommand, re.findall(r"`(\w+)`(?: \([^)]*\))?", fields_cell)))
    assert rows == [
        (kind, subcommand_of(kind), [f.name for f in spec.fields])
        for kind, spec in cli._KINDS.items()
    ]


class TestGlobalFlags:
    """--config, --out, --seed and --preset work before and after the
    subcommand."""

    @pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
    def test_out_seed_and_preset(self, tmp_path, monkeypatch, capsys, before):
        monkeypatch.chdir(tmp_path)
        flags = ["--out", "d", "--preset", "S2", "--seed", "5"]
        assert main([*flags, "iv"] if before else ["iv", *flags]) == 0
        first = (tmp_path / "d" / "iv.csv").read_text().splitlines()[0]
        resolved = {"kind": "iv", "preset": "S2", "calibration": None, "beam_offset_mm": None,
                    "beam_radius_mm": None, "power_w": 2.3e-3}
        assert f"spec_sha256={spec_hash(resolved)}" in first
        assert first.endswith("seed=5")
        assert capsys.readouterr().out.startswith("S2:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
    def test_config(self, tmp_path, before):
        spec = write_spec(tmp_path, {"kind": "safety", "distance_mm": 50})
        flags = ["--config", spec, "--out", str(tmp_path / "o")]
        assert main([*flags, "safety"] if before else ["safety", *flags]) == 0
        cols, rows = read_csv(tmp_path / "o" / "safety.csv")
        row = dict(zip(cols, rows[0]))
        assert float(row["distance_mm"]) == 50.0
        assert float(row["alpha_mrad"]) == pytest.approx(
            2e3 * math.atan(35.0 / 100.0), rel=1e-12
        )

    def test_flag_after_the_subcommand_wins(self, tmp_path):
        assert main(["--seed", "1", "safety", "--seed", "2", "--out", str(tmp_path)]) == 0
        first = (tmp_path / "safety.csv").read_text().splitlines()[0]
        assert first.endswith("seed=2")


class TestSameJobSameBytes:
    """Two invocations that run the same job write the same bytes, headers
    included: the hash covers the resolved fields, not how they were given."""

    @pytest.mark.parametrize("jobs", [
        ((["iv"], None),
         (["iv"], {"kind": "iv", "preset": "L6", "power_w": 0.0023, "calibration": None,
                   "beam_offset_mm": None, "beam_radius_mm": None})),
        ((["mismatch", "--preset", "S2", "--points", "3"], None),
         (["mismatch"], {"kind": "mismatch", "preset": "S2", "points": 3,
                         "max_offset_mm": None, "beam_radius_mm": None})),
        ((["safety", "--distance-mm", "50"], None),
         (["safety"], {"kind": "safety", "distance_mm": 50})),
        ((["bandwidth", "--presets", "s2,S4"], None),
         (["bandwidth", "--presets", "S2,S4"], None)),
        ((["iv", "--preset", "s2"], None),
         (["iv"], {"kind": "iv", "preset": "S2"})),
        ((["iv", "--seed", "5"], None),
         (["iv"], {"kind": "iv", "seed": 5})),
        ((["safety", "--out", "{out}"], None),
         ([], {"kind": "safety", "out_dir": "{out}"})),
    ], ids=["iv-defaults", "mismatch-defaults", "safety-integer", "presets-case",
            "preset-case", "seed", "out_dir"])
    def test_same_job_writes_the_same_bytes(self, tmp_path, jobs):
        written = []
        for i, (argv, spec) in enumerate(jobs):
            out = str(tmp_path / str(i))
            if "{out}" not in repr(jobs):
                argv = [*argv, "--out", "{out}"]
            argv = [a.replace("{out}", out) for a in argv]
            if spec is not None:
                spec = {k: v.replace("{out}", out) if isinstance(v, str) else v
                        for k, v in spec.items()}
                argv += ["--config", write_spec(tmp_path, spec, name=f"{i}.json")]
            assert main(argv) == 0
            written.append({p.name: p.read_bytes() for p in sorted(Path(out).iterdir())})
        assert written[0] and written[0] == written[1]


class TestNonFiniteInputs:
    def test_nan_distance_flag(self, tmp_path, capsys):
        assert main(["safety", "--distance-mm", "nan", "--out", str(tmp_path)]) == 1
        assert "evaluation_distance_mm" in capsys.readouterr().err
        assert not (tmp_path / "safety.csv").exists()

    def test_nan_source_diameter_in_spec(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"kind": "safety", "source_diameter_mm": math.nan})
        assert main(["--config", spec, "--out", str(tmp_path)]) == 1
        assert "source_diameter_mm" in capsys.readouterr().err

    def test_nan_beam_radius_in_spec(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"kind": "iv", "beam_radius_mm": math.nan})
        assert main(["--config", spec, "--out", str(tmp_path)]) == 1
        assert "beam_radius_mm" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["iv", "--preset", "S2"], ["link", "--preset", "S2"],
        ["sweep", "--presets", "S2"], ["mismatch", "--preset", "S2"],
    ], ids=["iv", "link", "sweep", "mismatch"])
    @pytest.mark.parametrize("radius", ["1e-300", "1e300"])
    def test_beam_radius_whose_square_leaves_the_float_range(
        self, tmp_path, capsys, command, radius
    ):
        # r^2 underflowed to 0 (a ZeroDivisionError) or overflowed (an OverflowError)
        assert main([*command, "--beam-radius-mm", radius, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "beam_radius_mm" in err
        assert list(tmp_path.iterdir()) == []

    def test_power_whose_string_voltage_overflows(self, tmp_path, capsys):
        with np.errstate(all="ignore"):
            assert main(["iv", "--power-w", "1e300", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err
        assert not (tmp_path / "iv.csv").exists()

    def test_nan_max_offset_flag(self, tmp_path, capsys):
        code = main(["mismatch", "--preset", "S2", "--max-offset-mm", "nan",
                     "--points", "3", "--out", str(tmp_path)])
        assert code == 1
        assert "center_mm" in capsys.readouterr().err


class TestExitCodes:
    def test_calibrate_spec_runs_through_dispatch(self, tmp_path, monkeypatch, calibration):
        # the fit itself is covered elsewhere; this checks the routing only
        monkeypatch.setattr("sliptsim.calibrate.calibrate", lambda targets: calibration)
        out = tmp_path / "o"
        spec = write_spec(tmp_path, {"kind": "calibrate", "out_dir": str(out)})
        assert main(["--config", spec]) == 0
        saved = CalibrationResult.load(out / "calibration.json")
        assert saved.to_dict() == calibration.to_dict()
        cols, rows = read_csv(out / "calibration_residuals.csv")
        assert cols[0] == "preset" and len(rows) == 7

    def test_preset_missing_from_calibration_is_run_error(self, tmp_path, calibration, capsys):
        s_only = replace(
            calibration,
            capacitance_density_f_mm2={"S": calibration.capacitance_density_f_mm2["S"]},
            responsivity_a_w={"S": calibration.responsivity_a_w["S"]},
        )
        path = tmp_path / "calibration.json"
        s_only.save(path)
        code = main(["link", "--preset", "L6", "--calibration", str(path),
                     "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "spec error" not in err and "L6" in err

    def test_missing_named_calibration_is_spec_error(self, tmp_path, capsys):
        code = main(["link", "--preset", "L6", "--calibration",
                     str(tmp_path / "absent.json"), "--out", str(tmp_path)])
        assert code == 2
        assert "absent.json" in capsys.readouterr().err
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("spec", [
        {"kind": "safety", "seed": "x"},
        {"kind": "safety", "seed": 7.9},
        {"kind": "safety", "seed": True},
        {"kind": "safety", "seed": "7"},
        {"kind": "safety", "out_dir": 5},
        {"kind": "mismatch", "preset": "S2", "points": "x"},
        {"kind": "mismatch", "preset": "S2", "points": -1},
        {"kind": "mismatch", "preset": "S2", "points": 2.7},
        {"kind": "safety", "distance_mm": "far"},
        {"kind": "iv", "preset": "S2", "beam_offset_mm": [0.1]},
        {"kind": "bandwidth-sweep", "presets": 2},
        # beam fields the job would ignore
        {"kind": "mismatch", "preset": "S2", "beam_offset_mm": 0.1},
        {"kind": "reproduce-table1", "beam_offset_mm": 0.1},
        {"kind": "reproduce-fig6", "beam_radius_mm": 0.5},
        {"kind": "bandwidth-sweep", "beam_offset_mm": 0.3},
        {"kind": "bandwidth-sweep", "beam_radius_mm": 0.5},
        # a single preset where the kind runs none or a list
        {"kind": "safety", "preset": "S2"},
        {"kind": "bandwidth-sweep", "preset": "S2"},
        {"kind": "sweep", "preset": "S2"},
        {"kind": "calibrate", "preset": "S2"},
        {"kind": "reproduce-table1", "preset": "S2"},
        {"kind": "reproduce-fig6", "preset": "S2"},
        # unknown or misspelled fields, and a fit where the kind runs no preset
        {"kind": "iv", "preset": "L6", "beam_ofset_mm": 0.3},
        {"kind": "link", "preset": "S2", "n_payload_frames": 5},
        {"kind": "safety", "extra": 1},
        {"kind": "safety", "calibration": "calibration.json"},
        {"kind": "calibrate", "calibration": "calibration.json"},
        {"kind": "iv", "calibration": "."},
    ], ids=["seed", "seed-float", "seed-bool", "seed-string", "out_dir", "points",
            "points-negative", "points-float", "distance_mm", "beam_offset_mm", "presets",
            "mismatch-beam_offset_mm", "table1-beam_offset_mm", "fig6-beam_radius_mm",
            "bandwidth-beam_offset_mm", "bandwidth-beam_radius_mm", "safety-preset",
            "bandwidth-preset", "sweep-preset", "calibrate-preset", "table1-preset",
            "fig6-preset", "iv-beam_ofset_mm", "link-n_payload_frames", "safety-extra",
            "safety-calibration", "calibrate-calibration", "calibration-directory"])
    def test_malformed_spec_field_is_spec_error(self, tmp_path, capsys, spec):
        # the malformed field is the last one given; resolving the spec refuses it
        path = write_spec(tmp_path, {**spec, "out_dir": spec.get("out_dir", str(tmp_path / "o"))})
        assert main(["--config", path]) == 2
        err = capsys.readouterr().err
        field = list(spec)[-1]
        assert err.startswith("spec error:") and repr(field) in err
        assert not any((tmp_path / "o").glob("*"))

    @pytest.mark.parametrize("argv", [
        ["reproduce", "table1", "--ber-target", "1e-3"],
        ["safety", "--preset", "S2"],
        ["bandwidth", "--preset", "S2"],
    ], ids=["table1-ber-target", "safety-preset", "bandwidth-preset"])
    def test_flag_the_kind_ignores_is_spec_error(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path / "o")]) == 2
        field = argv[-2].removeprefix("--").replace("-", "_")
        err = capsys.readouterr().err
        assert err.startswith("spec error:") and repr(field) in err
        assert not (tmp_path / "o").exists()

    def test_non_finite_calibration_value_is_run_error(self, tmp_path, capsys, calibration):
        data = calibration.to_dict()
        data["capacitance_density_f_mm2"]["S"] = math.nan
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code = main(["bandwidth", "--presets", "S2", "--calibration", str(path),
                     "--out", str(tmp_path)])
        assert code == 1
        assert "capacitance_density_f_mm2.S" in capsys.readouterr().err
        assert not (tmp_path / "bandwidth.csv").exists()

    def test_failed_link_is_run_error_naming_the_preset(self, tmp_path, monkeypatch, capsys):
        def failing(tx, chain, config, **kwargs):
            raise SyncError(f"no link on {chain.device.device_id}")

        monkeypatch.setattr(link, "run_link", failing)
        assert main(["link", "--preset", "S2", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "S2: SyncError: no link on S2" in err
        assert list(tmp_path.iterdir()) == []

    def test_failed_fig6_entries_are_named_before_any_artifact(
        self, tmp_path, monkeypatch, capsys
    ):
        def failing(tx, chain, config, **kwargs):
            raise SyncError("no link")

        monkeypatch.setattr(link, "run_link", failing)
        assert main(["reproduce", "fig6", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert all(f"{name}: SyncError: no link" in err for name in PRESET_NAMES)
        assert not (tmp_path / "fig6.csv").exists()

    @pytest.mark.parametrize("command", [["link", "--preset", "S2"], ["sweep", "--presets", "S2"]])
    def test_bug_in_a_link_stage_propagates(self, tmp_path, monkeypatch, command):
        # a builtin exception is a bug: a traceback, not an exit code or a row
        def broken(*args):
            raise TypeError("injected bug")

        monkeypatch.setattr(link, "estimate_snr", broken)
        with pytest.raises(TypeError, match="injected bug"):
            main([*command, "--out", str(tmp_path)])
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("command", [["link", "--preset", "S2"], ["iv"], ["safety"]])
    def test_negative_seed_is_spec_error(self, tmp_path, capsys, command):
        assert main([*command, "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("spec error:") and "'seed'" in err
        assert not (tmp_path / "o").exists()

    def test_artifact_onto_a_directory_is_run_error(self, tmp_path, capsys):
        (tmp_path / "iv.csv").mkdir()
        assert main(["iv", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(tmp_path / "iv.csv") in err

    def test_calibration_onto_a_directory_is_run_error(
        self, tmp_path, monkeypatch, capsys, calibration
    ):
        monkeypatch.setattr("sliptsim.calibrate.calibrate", lambda targets: calibration)
        (tmp_path / "calibration.json").mkdir()
        assert main(["calibrate", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(tmp_path / "calibration.json") in err
        assert not (tmp_path / "calibration_residuals.csv").exists()

    def test_out_that_is_an_existing_file_is_spec_error(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("keep")
        assert main(["safety", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("spec error:") and "out_dir" in err
        assert out.read_text() == "keep" and os.listdir(tmp_path) == ["taken"]

    @pytest.mark.parametrize("text, problem", [
        ('{"schema_version": 2}', "missing 'capacitance_density_f_mm2'"),
        ("{", "not a calibration JSON file"),
        ('{"schema_version": 2, "capacitance_density_f_mm2": 1}',
         "capacitance_density_f_mm2 must be an object"),
        ("[2]", "must be a JSON object"),
    ], ids=["missing-key", "invalid-json", "section-not-object", "not-an-object"])
    def test_malformed_calibration_file_is_run_error(self, tmp_path, capsys, text, problem):
        path = tmp_path / "f.json"
        path.write_text(text)
        with pytest.raises(ParameterError, match=problem):
            CalibrationResult.load(path)
        assert main(["iv", "--calibration", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and problem in err
        assert not (tmp_path / "o" / "iv.csv").exists()

    def test_series_resistance_key_that_is_no_count_is_run_error(
        self, tmp_path, capsys, calibration
    ):
        data = calibration.to_dict()
        data["series_resistance_ohm"]["four"] = 1.0
        path = tmp_path / "f.json"
        path.write_text(json.dumps(data))
        assert main(["iv", "--calibration", str(path), "--out", str(tmp_path)]) == 1
        assert "series_resistance_ohm keys" in capsys.readouterr().err

    def test_handler_bug_is_not_a_spec_error(self, tmp_path, monkeypatch):
        def broken(spec, out_dir, seed):
            raise KeyError("internal")

        monkeypatch.setitem(cli._KINDS, "safety", cli._KINDS["safety"]._replace(handler=broken))
        with pytest.raises(KeyError):
            main(["safety", "--out", str(tmp_path)])
