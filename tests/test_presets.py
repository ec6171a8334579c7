import math

import pytest

from sliptsim.presets import (
    CELL_DIAMETER_MM,
    JUNCTION_AREA_MM2,
    MEASURED_BANDWIDTH_HZ,
    MEASURED_DATA_RATE_BPS,
    MEASURED_IMP_ISC,
    MEASURED_PCE,
    MEASURED_PMP_W,
    PRESET_NAMES,
    device_preset,
    default_modem,
    default_transmitter,
    load_preset_file,
    preset_geometry,
)


class TestPresets:
    def test_seven_fabricated_configurations(self):
        assert set(PRESET_NAMES) == {"S2", "S4", "M2", "M4", "L2", "L4", "L6"}

    def test_preset_order_follows_diameter_then_segments(self):
        assert PRESET_NAMES == ("S2", "S4", "M2", "M4", "L2", "L4", "L6")

    def test_bundled_file_identical_to_constants(self):
        data = load_preset_file()
        assert set(data) == {
            "schema_version", "cell_diameter_mm", "junction_area_mm2",
            "measured_bandwidth_hz", "measured_pmp_w", "measured_imp_isc",
            "measured_data_rate_bps", "measured_pce",
        }
        assert CELL_DIAMETER_MM == data["cell_diameter_mm"]
        for section, constants in (
            ("junction_area_mm2", JUNCTION_AREA_MM2),
            ("measured_bandwidth_hz", MEASURED_BANDWIDTH_HZ),
            ("measured_pmp_w", MEASURED_PMP_W),
            ("measured_imp_isc", MEASURED_IMP_ISC),
            ("measured_data_rate_bps", MEASURED_DATA_RATE_BPS),
            ("measured_pce", MEASURED_PCE),
        ):
            assert constants == data[section], section
            assert tuple(constants) == PRESET_NAMES, section
        assert MEASURED_BANDWIDTH_HZ["L6"] == 0.96e9
        assert MEASURED_PMP_W["S2"] == 0.49e-3

    def test_cell_areas_match_documented(self):
        # quoted cell sizes: 0.785 / 1.767 / 3.397 mm^2
        for size, area in (("S", 0.785), ("M", 1.767), ("L", 3.397)):
            d = CELL_DIAMETER_MM[size]
            assert math.pi * (d / 2) ** 2 == pytest.approx(area, abs=2e-3)

    def test_geometry_uses_table_junction_area(self):
        g = preset_geometry("L6")
        assert g.segment_junction_area_mm2 == 0.62
        assert g.n_segments == 6
        assert g.cell_diameter_mm == 2.08

    def test_device_preset_ids(self):
        device = device_preset("m4")
        assert device.device_id == "M4"
        assert device.geometry.segment_junction_area_mm2 == JUNCTION_AREA_MM2["M4"]

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError):
            device_preset("XL9")

    def test_default_modem_matches_documented_constants(self):
        cfg = default_modem()
        assert (cfg.fft_size, cfg.data_subcarriers, cfg.cp_length) == (1024, 511, 5)
        assert cfg.clip_sigma == 3.2
        assert cfg.max_qam_order == 1024

    def test_default_transmitter_constants(self):
        tx = default_transmitter()
        assert tx.bias_voltage_v == 1.78
        assert tx.bias_current_a == 6e-3
        assert tx.drive_vpp == 1.0
        assert tx.emitted_power_w == 2.3e-3
        assert tx.wavelength_nm == 847.0

    def test_targets_complete(self):
        for name in PRESET_NAMES:
            assert name in MEASURED_BANDWIDTH_HZ
            assert name in MEASURED_PMP_W
