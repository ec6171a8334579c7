import math
from dataclasses import replace

import pytest

from chain import run_fresh
from sliptsim import cli
from sliptsim.safety import (
    ALPHA_MAX_RAD,
    ALPHA_MIN_RAD,
    SafetyReport,
    SafetyScenario,
    UnsupportedBranchError,
    angular_subtense,
    assess,
    classify,
    mpe_extended,
    pupil_irradiance,
)

REFERENCE_SCENARIO = SafetyScenario(
    wavelength_nm=850.0,
    source_diameter_mm=35.0,
    evaluation_distance_mm=100.0,
    exposure_time_s=30000.0,
    received_power_w=80e-6,
    pupil_radius_mm=3.5,
)


class TestAngularSubtense:
    def test_documented_value(self):
        alpha = angular_subtense(35.0, 100.0)
        assert alpha == pytest.approx(346.4e-3, abs=0.2e-3)

    def test_zero_source(self):
        assert angular_subtense(0.0, 100.0) == 0.0

    def test_analytic_right_angle(self):
        # D_s = 2Z -> 2*atan(1) = pi/2
        assert angular_subtense(200.0, 100.0) == pytest.approx(math.pi / 2, rel=1e-15)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            angular_subtense(35.0, 0.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="distance"):
            angular_subtense(35.0, math.nan)
        with pytest.raises(ValueError, match="diameter"):
            angular_subtense(math.nan, 100.0)


class TestClassify:
    def test_point(self):
        assert classify(1.0e-3) == "point"

    def test_intermediate(self):
        assert classify(50e-3) == "intermediate"

    def test_large_documented_value(self):
        assert classify(346.4e-3) == "large"

    def test_boundaries_half_open(self):
        assert classify(ALPHA_MIN_RAD) == "intermediate"
        assert classify(ALPHA_MAX_RAD) == "large"

    def test_nan_is_not_a_large_source(self):
        with pytest.raises(ValueError):
            classify(math.nan)


class TestMpe:
    def test_documented_value(self):
        mpe = mpe_extended(850.0, 346.4e-3, 30000.0)
        assert mpe == pytest.approx(181.84, rel=5e-3)

    def test_c4_unity_at_700(self):
        # exponent is zero at 700 nm, so MPE = 18 * C6 * t^-0.25
        mpe = mpe_extended(700.0, 0.2, 16.0)
        assert mpe == pytest.approx(18.0 * (100.0 / 1.5) / 2.0, rel=1e-12)

    def test_time_scaling_law(self):
        base = mpe_extended(850.0, 0.3464, 1000.0)
        assert mpe_extended(850.0, 0.3464, 16000.0) == pytest.approx(base / 2, rel=1e-12)

    def test_intermediate_branch_refused(self):
        with pytest.raises(UnsupportedBranchError):
            mpe_extended(850.0, 50e-3, 100.0)
        with pytest.raises(UnsupportedBranchError):
            mpe_extended(850.0, ALPHA_MAX_RAD, 100.0)

    def test_wavelength_range_enforced(self):
        with pytest.raises(UnsupportedBranchError):
            mpe_extended(650.0, 0.3, 100.0)
        with pytest.raises(UnsupportedBranchError):
            mpe_extended(1100.0, 0.3, 100.0)


class TestIrradiance:
    def test_documented_value(self):
        assert pupil_irradiance(80e-6, 3.5) == pytest.approx(2.08, rel=5e-3)

    def test_zero_power(self):
        assert pupil_irradiance(0.0, 3.5) == 0.0

    def test_radius_scaling(self):
        assert pupil_irradiance(80e-6, 7.0) == pytest.approx(
            pupil_irradiance(80e-6, 3.5) / 4, rel=1e-12
        )


class TestAssess:
    def test_documented_scenario_margin(self):
        report = assess(REFERENCE_SCENARIO)
        assert report.safety_margin == pytest.approx(87.42, rel=1e-2)
        assert report.source_class == "large"
        assert report.verdict == "safe"

    def test_margin_definition_exact(self):
        report = assess(REFERENCE_SCENARIO)
        assert report.safety_margin == report.mpe_w_m2 / report.irradiance_w_m2

    def test_power_linearity(self):
        base = assess(REFERENCE_SCENARIO).safety_margin
        scaled = assess(
            SafetyScenario(850.0, 35.0, 100.0, 30000.0, 800e-6, 3.5)
        ).safety_margin
        assert scaled == pytest.approx(base / 10, rel=1e-12)

    def test_time_quarter_power_law(self):
        base = assess(REFERENCE_SCENARIO).safety_margin
        scaled = assess(
            SafetyScenario(850.0, 35.0, 100.0, 30000.0 / 16.0, 80e-6, 3.5)
        ).safety_margin
        assert scaled == pytest.approx(base * 2, rel=1e-12)

    def test_boundary_verdict(self):
        report = SafetyReport(0.3, "large", 1.0, 100 / 1.5, 100.0, 100.0, 1.0)
        assert report.verdict == "unsafe-boundary"
        hot = SafetyReport(0.3, "large", 1.0, 100 / 1.5, 50.0, 100.0, 0.5)
        assert hot.verdict == "unsafe"

    def test_unit_round_trip_discipline(self):
        # display units convert to SI and back with < 1e-12 relative error
        for mm in (3.5, 35.0, 0.07, 123.456):
            assert abs((mm / 1e3) * 1e3 - mm) <= 1e-12 * mm
        report = assess(REFERENCE_SCENARIO)
        # irradiance computed in SI from mm inputs matches a direct SI path
        direct = 80e-6 / (3.141592653589793 * (3.5e-3) ** 2)
        assert report.irradiance_w_m2 == pytest.approx(direct, rel=1e-12)

    def test_scenario_validation(self):
        with pytest.raises(UnsupportedBranchError):
            SafetyScenario(600.0, 35.0, 100.0, 30000.0, 80e-6, 3.5)
        with pytest.raises(ValueError):
            SafetyScenario(850.0, -1.0, 100.0, 30000.0, 80e-6, 3.5)

    @pytest.mark.parametrize("field", [
        "wavelength_nm", "source_diameter_mm", "evaluation_distance_mm",
        "exposure_time_s", "received_power_w", "pupil_radius_mm",
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_scenario_refuses_non_finite_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            replace(REFERENCE_SCENARIO, **{field: value})


def test_assessing_the_cli_default_scenario_loads_no_numpy():
    # the check is pure math: neither numpy nor scipy may load for it
    scenario = {field.name: field.default for field in cli._KINDS["safety"].fields}
    scenario["evaluation_distance_mm"] = scenario.pop("distance_mm")
    probe = "\n".join([
        "import sys",
        "from sliptsim.safety import SafetyScenario, assess",
        f"verdict = assess(SafetyScenario(**{scenario!r})).verdict",
        "print(verdict, sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))",
    ])
    assert run_fresh(probe) == "safe []"
