from dataclasses import replace

import pytest

from sliptsim.calibrate import (
    CalibrationError,
    CalibrationResult,
    CalibrationTargets,
    UnderdeterminedError,
    calibrate,
    calibrated_receiver,
    synthesize_targets,
)
from sliptsim.presets import MEASURED_BANDWIDTH_HZ

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

    def test_inconsistent_targets_refused(self):
        bad = dict(MEASURED_BANDWIDTH_HZ)
        bad["L6"] = 40e9  # physically impossible alongside the L2/L4 values
        with pytest.raises(CalibrationError):
            calibrate(CalibrationTargets(bandwidth_hz=bad))


class TestFullCalibration:
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

    def test_calibrated_receiver_needs_a_fit_for_the_cell_size(self, calibration):
        s_only = replace(
            calibration,
            capacitance_density_f_mm2={"S": calibration.capacitance_density_f_mm2["S"]},
            responsivity_a_w={"S": calibration.responsivity_a_w["S"]},
        )
        assert calibrated_receiver(s_only, "S4").device.n_segments == 4
        with pytest.raises(ValueError, match="cell size 'L'"):
            calibrated_receiver(s_only, "L6")
