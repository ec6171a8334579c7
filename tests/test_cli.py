import argparse
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sliptsim import cli, link
from sliptsim.calibrate import CalibrationResult
from sliptsim.cli import SpecError, load_spec, main
from sliptsim.io import read_csv, spec_hash
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

    def test_wrong_schema_version(self, tmp_path):
        path = write_spec(tmp_path, {"kind": "link", "schema_version": 99})
        with pytest.raises(SpecError, match="schema_version"):
            load_spec(path)

    def test_run_spec_exit_codes(self, tmp_path):
        bad = write_spec(tmp_path, {"schema_version": 1})
        assert main(["--config", bad]) == 2

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

    def test_reproduce_without_calibration_is_instructive(self, tmp_path, capsys):
        code = main(["reproduce", "table1", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "calibrate" in err

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


def test_fit_and_cli_imports_leave_out_the_signal_stack():
    # scipy.signal, with the scipy.stats it loads, is about half a second of
    # every fresh `sliptsim calibrate`; only the modem calls it
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = (
        "import sys, sliptsim.calibrate, sliptsim.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[:2] in (['scipy', 'signal'], ['scipy', 'stats'])))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
        check=True, capture_output=True, text=True, timeout=120,
    )
    assert done.stdout.strip() == "[]"


def test_command_table_parser_and_handlers_agree(capsys):
    parser = cli._build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(commands.choices) == list(cli._COMMANDS)
    [target] = [a for a in commands.choices["reproduce"]._actions if a.dest == "target"]
    kinds = [kind for command, (kind, _) in cli._COMMANDS.items() if command != "reproduce"]
    kinds += [f"{cli._COMMANDS['reproduce'][0]}-{t}" for t in target.choices]
    assert sorted(kinds) == sorted(cli._HANDLERS) == sorted(cli.EXPERIMENT_KINDS)
    for command, (_, flags) in cli._COMMANDS.items():
        with pytest.raises(SystemExit) as done:
            main([command, "--help"])
        assert done.value.code == 0
        usage = capsys.readouterr().out
        assert all(flag in usage for flag, _, _ in flags)


class TestGlobalFlags:
    """--config, --out, --seed and --preset work before and after the
    subcommand."""

    @pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
    def test_out_seed_and_preset(self, tmp_path, monkeypatch, capsys, before):
        monkeypatch.chdir(tmp_path)
        flags = ["--out", "d", "--preset", "S2", "--seed", "5"]
        assert main([*flags, "iv"] if before else ["iv", *flags]) == 0
        first = (tmp_path / "d" / "iv.csv").read_text().splitlines()[0]
        assert f"spec_sha256={spec_hash({'kind': 'iv', 'preset': 'S2'})}" in first
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

    def test_nan_max_offset_flag(self, tmp_path, capsys):
        code = main(["mismatch", "--preset", "S2", "--max-offset-mm", "nan",
                     "--points", "3", "--out", str(tmp_path)])
        assert code == 1
        assert "center_mm" in capsys.readouterr().err


class TestExitCodes:
    def test_calibrate_spec_runs_through_dispatch(self, tmp_path, monkeypatch, calibration):
        # the fit itself is covered elsewhere; this checks the routing only
        monkeypatch.setattr(cli, "calibrate", lambda targets: calibration)
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
    ], ids=["seed", "seed-float", "seed-bool", "seed-string", "out_dir", "points",
            "points-negative", "points-float", "distance_mm", "beam_offset_mm", "presets",
            "mismatch-beam_offset_mm", "table1-beam_offset_mm", "fig6-beam_radius_mm"])
    def test_malformed_spec_field_is_spec_error(self, tmp_path, capsys, spec):
        # whether dispatch or a handler reads the field
        path = write_spec(tmp_path, {**spec, "out_dir": spec.get("out_dir", str(tmp_path / "o"))})
        assert main(["--config", path]) == 2
        err = capsys.readouterr().err
        field = next(k for k in spec if k not in ("kind", "preset"))
        assert err.startswith("spec error:") and repr(field) in err
        assert not any((tmp_path / "o").glob("*"))

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
            raise ValueError(f"no link on {chain.device.device_id}")

        monkeypatch.setattr(link, "run_link", failing)
        assert main(["link", "--preset", "S2", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "S2: ValueError: no link on S2" in err
        assert list(tmp_path.iterdir()) == []

    def test_failed_fig6_entries_are_named_before_any_artifact(
        self, tmp_path, monkeypatch, capsys, calibration
    ):
        calibration.save(tmp_path / "calibration.json")

        def failing(tx, chain, config, **kwargs):
            raise ValueError("no link")

        monkeypatch.setattr(link, "run_link", failing)
        assert main(["reproduce", "fig6", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert all(f"{name}: ValueError: no link" in err for name in PRESET_NAMES)
        assert not (tmp_path / "fig6.csv").exists()

    def test_handler_bug_is_not_a_spec_error(self, tmp_path, monkeypatch):
        def broken(spec, out_dir, seed):
            raise KeyError("internal")

        monkeypatch.setitem(cli._HANDLERS, "safety", broken)
        with pytest.raises(KeyError):
            main(["safety", "--out", str(tmp_path)])
