import json
from dataclasses import replace

import pytest

from sliptsim import cli
from sliptsim.calibrate import CalibrationResult
from sliptsim.cli import SpecError, load_spec, main, run_spec
from sliptsim.io import iv_curve_from_csv, read_csv


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
        assert run_spec(bad) == 2

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
        assert run_spec(spec) == 0
        cols, rows = read_csv(tmp_path / "artifacts" / "safety.csv")
        margin = float(dict(zip(cols, rows[0]))["safety_margin"])
        assert margin == pytest.approx(87.42, rel=1e-2)

    def test_config_only_dispatch_without_subcommand(self, tmp_path):
        spec = write_spec(tmp_path, {"kind": "safety"})
        assert main(["--config", spec, "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "safety.csv").exists()

    def test_iv_artifact_round_trips(self, tmp_path):
        assert main(["iv", "--preset", "M4", "--out", str(tmp_path)]) == 0
        curve = iv_curve_from_csv(tmp_path / "iv.csv")
        assert len(curve) > 100
        assert curve.short_circuit_current_a() > 0

    def test_link_artifacts_deterministic(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["link", "--preset", "S2", "--out", str(out),
                         "--seed", "11"]) == 0
        for name in ("report.csv", "snr_profile.csv", "loading.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_bandwidth_artifact_deterministic(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["bandwidth", "--out", str(out_a), "--seed", "3"]) == 0
        assert main(["bandwidth", "--out", str(out_b), "--seed", "3"]) == 0
        assert (out_a / "bandwidth.csv").read_bytes() == (
            out_b / "bandwidth.csv"
        ).read_bytes()


class TestExitCodes:
    def test_calibrate_spec_runs_through_dispatch(self, tmp_path, monkeypatch, calibration):
        # the fit itself is covered elsewhere; this checks the routing only
        monkeypatch.setattr(cli, "calibrate", lambda targets: calibration)
        out = tmp_path / "o"
        spec = write_spec(tmp_path, {"kind": "calibrate", "out_dir": str(out)})
        assert run_spec(spec) == 0
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

    def test_handler_bug_is_not_a_spec_error(self, tmp_path, monkeypatch):
        def broken(spec, out_dir, seed):
            raise KeyError("internal")

        monkeypatch.setitem(cli._HANDLERS, "safety", broken)
        with pytest.raises(KeyError):
            main(["safety", "--out", str(tmp_path)])
