import json
import math
import re
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest

from chain import run_fresh, synthesize_targets
from sliptsim import ParameterError
from sliptsim import calibrate as calibrate_module
from sliptsim.calibrate import (
    CalibrationError,
    CalibrationResult,
    CalibrationTargets,
    UnderdeterminedError,
    _solve_offset,
    calibrate,
    calibrated_receiver,
    measured_targets,
)
from sliptsim.cli import main
from sliptsim.ppc import ReceiverChain
from sliptsim.presets import MEASURED_BANDWIDTH_HZ, UnknownPresetError, device_preset

FROZEN_FIT = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "calibration.json"
BUNDLED_FIT = resources.files("sliptsim").joinpath("data/calibration.json")

TRUE_CAPS = {"S": 12e-12, "M": 8e-12, "L": 5e-12}
TRUE_RS = {2: 0.0, 4: 120.0, 6: 260.0}


class TestBandwidthStage:
    def test_inverse_crime_recovery(self):
        synth = synthesize_targets(
            TRUE_CAPS, TRUE_RS,
            responsivity_a_w={"S": 0.4, "M": 0.4, "L": 0.4},
            beam_radius_mm=0.7,
            beam_offset_mm={},
        )
        bw_only = CalibrationTargets(bandwidth_hz=synth.bandwidth_hz)
        result = calibrate(bw_only)
        for size, cap in TRUE_CAPS.items():
            assert result.capacitance_density_f_mm2[size] == pytest.approx(
                cap, rel=1e-6
            )
        for n, rs in TRUE_RS.items():
            assert result.series_resistance_ohm[n] == pytest.approx(
                rs, rel=1e-6, abs=1e-6
            )
        assert max(abs(v) for v in result.bandwidth_residuals.values()) < 1e-9

    def test_underdetermined_single_target(self):
        with pytest.raises(UnderdeterminedError):
            calibrate(
                CalibrationTargets(
                    bandwidth_hz={"L6": 0.96e9},
                    pmp_w={"L6": 0.23e-3},
                    imp_isc={"L6": 0.661},
                )
            )

    def test_no_targets_rejected(self):
        with pytest.raises(UnderdeterminedError):
            calibrate(CalibrationTargets(bandwidth_hz={}))

    def test_fit_without_harvest_targets_saves_strict_json(self, tmp_path):
        result = calibrate(CalibrationTargets(bandwidth_hz=dict(MEASURED_BANDWIDTH_HZ)))
        assert math.isnan(result.beam_radius_mm)
        path = tmp_path / "calibration.json"
        result.save(path)

        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        data = json.loads(path.read_text(), parse_constant=refuse)
        assert data["beam_radius_mm"] is None
        loaded = CalibrationResult.load(path)
        assert math.isnan(loaded.beam_radius_mm)
        assert loaded.to_dict() == result.to_dict()

    def test_inconsistent_targets_refused(self):
        bad = dict(MEASURED_BANDWIDTH_HZ)
        bad["L6"] = 40e9  # physically impossible alongside the L2/L4 values
        with pytest.raises(CalibrationError):
            calibrate(CalibrationTargets(bandwidth_hz=bad))


class TestSchema:
    def test_schema_1_file_still_loads(self):
        data = json.loads(FROZEN_FIT.read_text())
        assert data["schema_version"] == 1 and "fit_record" not in data
        loaded = CalibrationResult.load(FROZEN_FIT)
        assert loaded.fit_record == {}
        assert loaded.beam_radius_mm == data["beam_radius_mm"]
        assert calibrated_receiver(loaded, "L6").device.n_segments == 6
        # written back as schema 2, with every fitted value unchanged
        rewritten = loaded.to_dict()
        assert rewritten.pop("schema_version") == 2 and rewritten.pop("fit_record") == {}
        data.pop("schema_version")
        assert rewritten == data

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_path_is_a_parameter_error(self, tmp_path, kind):
        # a builtin FileNotFoundError or IsADirectoryError escaped once
        path = tmp_path / "absent.json" if kind == "missing" else tmp_path
        with pytest.raises(ParameterError, match=re.escape(f"{path}: cannot read")):
            CalibrationResult.load(path)

    def test_save_onto_a_directory_is_a_parameter_error(self, tmp_path):
        # like load: a builtin IsADirectoryError escaped save once
        with pytest.raises(ParameterError, match=re.escape(f"{tmp_path}: cannot write")):
            CalibrationResult.load(FROZEN_FIT).save(tmp_path)

    def test_unknown_schema_refused(self):
        data = json.loads(FROZEN_FIT.read_text())
        data["schema_version"] = 3
        with pytest.raises(ValueError, match="schema_version"):
            CalibrationResult.from_dict(data)

    @pytest.mark.parametrize("name, value", [
        ("capacitance_density_f_mm2.S", math.nan),
        ("series_resistance_ohm.4", math.inf),
        ("responsivity_a_w.L", -math.inf),
        ("beam_offset_mm.L6", math.nan),
        ("pmp_residuals.M4", math.nan),
        ("beam_radius_mm", math.nan),
        ("emitted_power_w", math.inf),
        ("ac_load_ohm", "47.5"),
    ])
    def test_non_finite_values_refused(self, name, value):
        data = json.loads(FROZEN_FIT.read_text())
        *parents, key = name.split(".")
        holder = data
        for parent in parents:
            holder = holder[parent]
        holder[key] = value
        with pytest.raises(ValueError, match=re.escape(name)):
            CalibrationResult.from_dict(data)

    def test_empty_series_section_refused(self, tmp_path, capsys):
        # accepted once; calibrated_receiver then raised IndexError inside
        # series_resistance_for, and the CLI died with its traceback
        data = json.loads(BUNDLED_FIT.read_text())
        data["series_resistance_ohm"] = {}
        with pytest.raises(ParameterError, match="series_resistance_ohm"):
            CalibrationResult.from_dict(data)
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps(data))
        code = main(["bandwidth", "--calibration", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "series_resistance_ohm" in err


class TestSolveOffset:
    # closed-form ratio curves of the offset, each crossing known exactly

    def test_monotone_fall_meets_its_root(self):
        offset = _solve_offset(lambda off: math.exp(-off), math.exp(-0.3), 1.0)
        assert abs(offset - 0.3) <= 1e-12

    def test_the_first_of_two_crossings_is_returned(self):
        # 0.25 is crossed at 1/6, 1/3, 2/3 and 5/6
        ratio = lambda off: 0.5 + 0.5 * math.cos(4.0 * math.pi * off)
        assert abs(_solve_offset(ratio, 0.25, 1.0) - 1.0 / 6.0) <= 1e-12

    @pytest.mark.parametrize("aligned, target", [(1.0, 1.0), (1.0, 1.5), (math.nan, 0.5)])
    def test_an_unreachable_target_holds_offset_zero(self, aligned, target):
        assert _solve_offset(lambda off: aligned - off, target, 1.0) == 0.0

    def test_no_crossing_returns_the_nearest_grid_offset(self):
        # falls to 0.6 at 0.5 (a point of the 33-point grid), then rises
        ratio = lambda off: 1.0 - 0.4 * math.sin(math.pi * off)
        assert _solve_offset(ratio, 0.5, 1.0) == 0.5

    def test_a_nan_before_any_crossing_returns_the_nearest_finite_ratio(self):
        # the scan stops at the NaN at 0.5; of the finite grid ratios,
        # 1 - 0.1 * 0.46875 (the grid point before it) is closest to 0.5
        ratio = lambda off: math.nan if off >= 0.5 else 1.0 - 0.1 * off
        assert _solve_offset(ratio, 0.5, 1.0) == 0.46875

    def test_a_ratio_undefined_past_alignment_holds_offset_zero(self):
        ratio = lambda off: 1.0 if off == 0.0 else math.nan
        assert _solve_offset(ratio, 0.5, 1.0) == 0.0

    def test_nan_inside_the_bracket_is_refused(self):
        # the scan brackets the crossing at 0.3 in [0.28125, 0.3125]; the
        # ratio is undefined around it, but at neither grid point
        ratio = lambda off: math.nan if 0.29 < off < 0.31 else 1.0 - off
        with pytest.raises(ParameterError, match="NaN"):
            _solve_offset(ratio, 0.7, 1.0)


class TestFullCalibration:
    def test_measured_fit_is_pinned(self, calibration, tmp_path):
        # the bundled default fit is the saved seven-preset fit, byte for
        # byte; any change to the solver or the fit that moves a digit of
        # the fit shows here first (re-record data/calibration.json)
        calibration.save(tmp_path / "calibration.json")
        bundled = resources.files("sliptsim").joinpath("data/calibration.json")
        assert (tmp_path / "calibration.json").read_bytes() == bundled.read_bytes()

    def test_harvest_memo_skips_repeated_evaluations(self, monkeypatch):
        measured = measured_targets()
        pick = lambda values: {k: values[k] for k in ("S2", "S4")}
        targets = CalibrationTargets(
            bandwidth_hz=pick(measured.bandwidth_hz),
            pmp_w=pick(measured.pmp_w),
            imp_isc=pick(measured.imp_isc),
        )
        unpatched = calibrate(targets).to_dict()

        sector_fractions = calibrate_module.sector_fractions
        harvest_figures = calibrate_module.harvest_figures
        quadratures, evaluations, chains = [], [], []

        def recording_fractions(geometry, beam):
            quadratures.append((geometry, beam.beam_radius_mm, beam.center_mm))
            return sector_fractions(geometry, beam)

        def recording_harvest(device, photocurrents):
            # the preset's own device: nothing of the bandwidth stage enters
            assert device == device_preset(device.device_id)
            evaluations.append((device, tuple(photocurrents)))
            return harvest_figures(device, photocurrents)

        check_chain = ReceiverChain.__post_init__

        def recording_chain(chain):
            chains.append(chain)
            check_chain(chain)

        monkeypatch.setattr(calibrate_module, "sector_fractions", recording_fractions)
        monkeypatch.setattr(calibrate_module, "harvest_figures", recording_harvest)
        monkeypatch.setattr(ReceiverChain, "__post_init__", recording_chain)
        assert calibrate(targets).to_dict() == unpatched
        assert len(evaluations) == len(set(evaluations)) > 0
        # each preset's device is built once
        assert len({id(device) for device, _ in evaluations}) == len(targets.pmp_w)
        # one quadrature per (preset, radius, offset), shared across the
        # responsivity steps at that beam
        assert len(quadratures) == len(set(quadratures)) > 0
        assert len(quadratures) < len(evaluations)
        # the harvest stage builds no receiver chain: the fit builds as many
        # as the same fit without harvest targets
        full = len(chains)
        calibrate(CalibrationTargets(bandwidth_hz=targets.bandwidth_hz))
        assert len(chains) == 2 * full > 0

    def test_measured_fit_quality(self, calibration):
        assert max(abs(v) for v in calibration.bandwidth_residuals.values()) <= 0.15
        assert calibration.max_residual() <= 0.25
        # reachable current-mismatch targets are met essentially exactly
        for name in ("S4", "M4", "L4", "L6"):
            assert abs(calibration.imp_isc_residuals[name]) < 1e-6

    def test_l6_offset_reproduces_measured_ratio(self, calibration):
        assert calibration.beam_offset_mm["L6"] > 0

    def test_series_resistance_grows_with_segments(self, calibration):
        rs = calibration.series_resistance_ohm
        assert rs[2] <= rs[4] <= rs[6]

    def test_interpolated_series_resistance(self, calibration):
        r3 = calibration.series_resistance_for(3)
        assert calibration.series_resistance_ohm[2] <= r3
        assert r3 <= calibration.series_resistance_ohm[4]

    def test_fit_record_shows_the_stages(self, calibration):
        record = calibration.fit_record
        assert set(record) == {"stage_a", "stage_b"}
        stage_b = record["stage_b"]
        assert stage_b["status"] > 0 and stage_b["nfev"] > 0
        # three responsivities, the radius and seven offsets
        assert len(stage_b["jacobian_singular_values"]) == 11
        # the M responsivity ends on the 0.68 A/W upper bound
        assert stage_b["active_bounds"] == {"responsivity_a_w.M": "upper"}
        assert calibration.responsivity_a_w["M"] == pytest.approx(0.68, rel=1e-12)

    def test_unreachable_ratio_targets_hold_offset_zero(self, calibration):
        # S2, M2 and L2 ask for more Imp/Isc than an aligned beam gives; their
        # offsets never move, so their Jacobian columns are zero
        for name in ("L2", "M2", "S2"):
            assert calibration.beam_offset_mm[name] == 0.0
            assert calibration.imp_isc_residuals[name] < 0.0
        assert calibration.fit_record["stage_b"]["jacobian_singular_values"][-3:] == [0.0] * 3

    def test_round_trip_serialization(self, calibration, tmp_path):
        path = tmp_path / "calibration.json"
        calibration.save(path)
        loaded = CalibrationResult.load(path)
        assert loaded.to_dict() == calibration.to_dict()

    def test_calibrated_receiver_consistency(self, calibration):
        chain = calibrated_receiver(calibration, "L6")
        assert chain.device.n_segments == 6
        assert chain.effective_series_resistance_ohm == pytest.approx(
            calibration.series_resistance_ohm[6]
        )
        assert chain.beam.center_mm[0] == pytest.approx(
            calibration.beam_offset_mm["L6"]
        )
        # modeled corner frequency lands within 15% of the measured value
        assert chain.f3db_hz() == pytest.approx(0.96e9, rel=0.15)

    def test_calibrated_receiver_refuses_another_readout(self, calibration):
        other_load = replace(calibration, ac_load_ohm=calibration.ac_load_ohm * 1.5)
        with pytest.raises(ValueError, match="AC load"):
            calibrated_receiver(other_load, "S2")
        other_power = replace(calibration, emitted_power_w=2 * calibration.emitted_power_w)
        with pytest.raises(ValueError, match="emitted"):
            calibrated_receiver(other_power, "S2")

    @pytest.mark.parametrize("name", ["XYZ", "", "L8"])
    def test_calibrated_receiver_refuses_an_unknown_preset(self, name):
        # refused before the name is parsed into a size and a segment count
        fit = CalibrationResult.load(BUNDLED_FIT)
        with pytest.raises(UnknownPresetError, match="unknown preset"):
            calibrated_receiver(fit, name)

    def test_calibrated_receiver_needs_a_fit_for_the_cell_size(self, calibration):
        s_only = replace(
            calibration,
            capacitance_density_f_mm2={"S": calibration.capacitance_density_f_mm2["S"]},
            responsivity_a_w={"S": calibration.responsivity_a_w["S"]},
        )
        assert calibrated_receiver(s_only, "S4").device.n_segments == 4
        with pytest.raises(ValueError, match="cell size 'L'"):
            calibrated_receiver(s_only, "L6")


class TestOptimizerImport:
    # scipy.optimize costs 0.2-0.3 s CPU of a fresh process; only a fit needs it

    def test_calibrated_chain_and_link_load_no_optimizer(self):
        probe = "\n".join([
            "import sys, warnings",
            "from importlib import resources",
            "from sliptsim.calibrate import CalibrationResult, calibrated_receiver",
            "from sliptsim.link import run_link",
            "from sliptsim.ofdm import OfdmConfig",
            "from sliptsim.presets import default_transmitter",
            "fit = CalibrationResult.load(",
            "    resources.files('sliptsim').joinpath('data/calibration.json'))",
            "warnings.simplefilter('ignore')  # one frame is too few for the SNR estimate",
            "run_link(default_transmitter(), calibrated_receiver(fit, 'S2'), OfdmConfig(),",
            "         n_pilot_frames=1, n_measurement_frames=1, n_payload_frames=1)",
            "print('scipy.optimize' in sys.modules)",
        ])
        assert run_fresh(probe) == "False"

    def test_the_fit_loads_it_and_its_stages_call_the_module_global(self):
        probe = "\n".join([
            "import sys",
            "import sliptsim.calibrate as module",
            "loaded = ['scipy.optimize' in sys.modules]",
            "forward, stages = module.least_squares, []",
            "def recording(*args, **kwargs):",
            "    stages.append(len(args[1]))",
            "    return forward(*args, **kwargs)",
            "module.least_squares = recording",
            "measured = module.measured_targets()",
            "pick = lambda values: {k: values[k] for k in ('S2', 'S4')}",
            "module.calibrate(module.CalibrationTargets(",
            "    pick(measured.bandwidth_hz), pick(measured.pmp_w), pick(measured.imp_isc)))",
            "loaded.append('scipy.optimize' in sys.modules)",
            "print(loaded, stages)",
        ])
        # stage A fits one capacitance and the 4-segment excess resistance,
        # stage B one responsivity, the radius and two offsets
        assert run_fresh(probe) == "[False, True] [2, 4]"
