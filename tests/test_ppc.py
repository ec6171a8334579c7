import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chain as oracle
from chain import (
    irradiance, run_fresh, sector_beam_power, segment_current, segment_photocurrents,
)
from sliptsim import ParameterError, ppc
from sliptsim.constants import thermal_voltage
from sliptsim.ppc import (
    BracketError,
    DiodeParams,
    IlluminationProfile,
    IVCurve,
    OperatingPoint,
    ReceiverChain,
    SegmentGeometry,
    SegmentedDevice,
    dc_operating_point,
    find_mpp,
    harvest_figures,
    imp_isc_ratio,
    sector_fractions,
    series_capacitance,
    short_circuit_current,
    string_capacitance,
    string_iv,
    string_model,
    string_voltage,
)
from sliptsim.presets import (
    JUNCTION_AREA_MM2, PRESET_NAMES, default_beam, default_receiver, device_preset,
)


def ideal_diode(j0=1e-18, n=1.2, rs=0.0):
    return DiodeParams(
        saturation_current_density_a_mm2=j0,
        ideality=n,
        series_resistance_ohm=rs,
        shunt_resistance_ohm=math.inf,
    )


# non-finite numpy floating scalars, refused like the floats; only the
# float64 one is a ``float``
NUMPY_NON_FINITE = {
    "float32-nan": np.float32("nan"),
    "float64-inf": np.float64("inf"),
    "float32-neg-inf": np.float32("-inf"),
}


def numpy_non_finite(*fields, may_be_inf=""):
    """(field, value) cases of each numpy scalar for each field; the field
    ``may_be_inf`` takes +inf."""
    return [
        pytest.param(field, value, id=f"{field}-{tag}")
        for field in fields
        for tag, value in NUMPY_NON_FINITE.items()
        if not (field == may_be_inf and value == math.inf)
    ]


def segment_voltage(diode, area_mm2, photocurrent_a, current_a):
    """Voltage of one unclamped segment: a one-segment string of that area."""
    geometry = SegmentGeometry(2.0 * math.sqrt(area_mm2 / math.pi), 1)
    device = SegmentedDevice(geometry, diode, reverse_breakdown_v=None)
    return float(string_voltage(device, [photocurrent_a], current_a)[0])


# ---------------------------------------------------------------------------
# Geometry and illumination types
# ---------------------------------------------------------------------------

class TestGeometry:
    def test_derived_junction_area(self):
        g = SegmentGeometry(2.0, 4)
        assert g.segment_junction_area_mm2 == pytest.approx(math.pi / 4)

    def test_table_override_may_exceed_equal_split(self):
        # L(2): 1.92 mm^2 * 2 > pi * 1.04^2 because interconnects sit outside
        g = SegmentGeometry(2.08, 2, junction_area_mm2=1.92)
        assert g.segment_junction_area_mm2 == 1.92
        assert 2 * 1.92 > g.active_area_mm2

    def test_unusual_segment_count_warns(self):
        # the warning names the caller, not the dataclass's generated __init__
        with pytest.warns(UserWarning, match="fabricated set") as seen:
            SegmentGeometry(1.0, 5)
        assert [w.filename for w in seen] == [__file__]

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            SegmentGeometry(-1.0, 2)
        with pytest.raises(ValueError):
            SegmentGeometry(1.0, 0)
        with pytest.raises(ValueError):
            SegmentGeometry(1.0, 2, junction_area_mm2=-0.5)

    @pytest.mark.parametrize("field, value", [
        ("cell_diameter_mm", math.nan),
        ("cell_diameter_mm", math.inf),
        ("junction_area_mm2", math.nan),
        ("junction_area_mm2", math.inf),
        *numpy_non_finite("cell_diameter_mm", "junction_area_mm2"),
    ])
    def test_non_finite_values_refused(self, field, value):
        kwargs = {"cell_diameter_mm": 1.0, "n_segments": 2, field: value}
        with pytest.raises(ValueError, match=field):
            SegmentGeometry(**kwargs)

    def test_finite_numpy_scalars_accepted(self):
        g = SegmentGeometry(np.float32(1.0), np.int64(2), junction_area_mm2=np.float16(0.5))
        assert g.segment_junction_area_mm2 == 0.5

    @pytest.mark.parametrize("n_segments", [2.5, 2.0, True])
    def test_segment_count_must_be_an_integer(self, n_segments):
        # was accepted, then failed in sector_fractions with a TypeError
        with pytest.raises(ParameterError, match="n_segments must be an integer"):
            SegmentGeometry(1.0, n_segments)


DIODE_FIELDS = ("saturation_current_density_a_mm2", "ideality", "series_resistance_ohm",
                "shunt_resistance_ohm", "capacitance_density_f_mm2", "temperature_k")


class TestDiodeParams:
    # an infinite shunt resistance is allowed: it disables the shunt
    @pytest.mark.parametrize("field, value", [
        (field, value)
        for field in DIODE_FIELDS
        for value in (math.nan, math.inf)
        if (field, value) != ("shunt_resistance_ohm", math.inf)
    ] + numpy_non_finite(*DIODE_FIELDS, may_be_inf="shunt_resistance_ohm"))
    def test_non_finite_values_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            DiodeParams(**{field: value})

    def test_infinite_shunt_disables_it(self):
        assert DiodeParams(shunt_resistance_ohm=math.inf).shunt_resistance_ohm == math.inf
        with pytest.raises(ValueError, match="shunt"):
            DiodeParams(shunt_resistance_ohm=-math.inf)

    def test_nan_breakdown_voltage_refused(self):
        with pytest.raises(ValueError, match="reverse_breakdown_v"):
            SegmentedDevice(SegmentGeometry(1.0, 2), reverse_breakdown_v=math.nan)


class TestIllumination:
    def test_upper_responsivity_warns(self):
        # the warning names the caller, not the dataclass's generated __init__
        with pytest.warns(UserWarning, match="quantum limit") as seen:
            IlluminationProfile(1e-3, 0.5, responsivity_a_w=0.70, wavelength_nm=847)
        assert [w.filename for w in seen] == [__file__]

    @pytest.mark.parametrize("field, value", [
        ("total_power_w", math.nan),
        ("total_power_w", math.inf),
        ("beam_radius_mm", math.nan),
        ("beam_radius_mm", math.inf),
        pytest.param("center_mm", (math.nan, 0.0), id="center_mm-nan"),
        pytest.param("center_mm", (0.0, -math.inf), id="center_mm-inf"),
        ("responsivity_a_w", math.nan),
        *numpy_non_finite("total_power_w", "beam_radius_mm", "responsivity_a_w"),
    ])
    def test_non_finite_values_refused(self, field, value):
        # refused at construction, not after the quadrature runs out of panels
        kwargs = {"total_power_w": 1e-3, "beam_radius_mm": 0.5, field: value}
        with pytest.raises(ValueError, match=field):
            IlluminationProfile(**kwargs)

    @pytest.mark.parametrize("radius", [1e-300, 1e-160, 1e300])
    def test_radius_whose_square_leaves_the_float_range_refused(self, radius):
        # r^2 underflowed to 0 (a ZeroDivisionError in the quadrature's 2/r^2)
        # or overflowed (an OverflowError)
        with pytest.raises(ParameterError, match="beam_radius_mm"):
            IlluminationProfile(1e-3, radius)

    def test_subnormal_power_refused(self):
        # the quadrature's sums kept too few digits to converge, and it ran
        # out of panels with "achieved nan"
        with pytest.raises(ParameterError, match="total_power_w 1e-320 is out of range"):
            IlluminationProfile(1e-320, 0.5)
        beam = IlluminationProfile(sys.float_info.min, 0.5)
        reference = IlluminationProfile(1e-3, 0.5)
        g = SegmentGeometry(2.08, 6)
        assert sector_fractions(g, beam) == pytest.approx(sector_fractions(g, reference))

    def test_finite_numpy_scalars_accepted(self):
        beam = IlluminationProfile(np.float32(1e-3), np.float64(0.5),
                                   responsivity_a_w=np.float32(0.5))
        assert beam.beam_radius_mm == 0.5

    @pytest.mark.parametrize("center", [
        (0.1,), (0.1, 0.0, 0.0), [math.nan, 0.0], [0.0, math.inf], ("0.1", 0.0), 0.1, None,
    ], ids=["one-entry", "three-entries", "list-nan", "list-inf", "text", "scalar", "none"])
    def test_center_must_be_two_finite_numbers(self, center):
        # short and long tuples failed later with an unpack ValueError, and a
        # list escaped the finiteness check
        with pytest.raises(ParameterError, match="center_mm must be two finite numbers"):
            IlluminationProfile(1e-3, 0.5, center_mm=center)

    def test_center_may_be_a_list_or_numpy_scalars(self):
        g = SegmentGeometry(1.0, 2)
        as_tuple = IlluminationProfile(1e-3, 0.5, center_mm=(0.125, -0.0625))
        for center in ([0.125, -0.0625], (np.float64(0.125), np.float32(-0.0625))):
            beam = IlluminationProfile(1e-3, 0.5, center_mm=center)
            assert np.array_equal(sector_fractions(g, beam), sector_fractions(g, as_tuple))

    def test_plane_integral_is_total_power(self):
        beam = IlluminationProfile(2.3e-3, 0.4, center_mm=(0.2, -0.1),
                                   responsivity_a_w=0.5)
        x = np.linspace(-4, 4, 1201)
        xx, yy = np.meshgrid(x, x)
        total = irradiance(beam, xx, yy).sum() * (x[1] - x[0]) ** 2
        assert total == pytest.approx(2.3e-3, rel=1e-6)


# ---------------------------------------------------------------------------
# Sector photocurrents
# ---------------------------------------------------------------------------

class TestSectorPhotocurrents:
    def test_centered_narrow_beam_six_equal(self):
        g = SegmentGeometry(2.08, 6)
        beam = IlluminationProfile(2.3e-3, 0.05, responsivity_a_w=0.42)
        currents = segment_photocurrents(g, beam)
        expected = 0.42 * 2.3e-3 / 6
        assert currents == pytest.approx(np.full(6, expected), rel=1e-6)

    def test_zero_power_gives_zeros(self):
        g = SegmentGeometry(1.0, 4)
        beam = IlluminationProfile(0.0, 0.3, responsivity_a_w=0.42)
        assert np.all(segment_photocurrents(g, beam) == 0.0)

    @pytest.mark.parametrize("rel_tol", [math.nan, -1.0, -math.inf, "x", None])
    def test_bad_rel_tol_refused(self, rel_tol):
        g = SegmentGeometry(2.08, 6)
        beam = IlluminationProfile(2.3e-3, 0.6, center_mm=(0.2, 0.1))
        with pytest.raises(ValueError, match="rel_tol"):
            sector_fractions(g, beam, rel_tol=rel_tol)

    @pytest.mark.parametrize("offset", [1e154, 1e300])
    def test_center_whose_distances_overflow_refused(self, offset):
        # the radial closed form squared the distance to the beam center with
        # overflow warnings and ran out of panels with "achieved nan"
        g = SegmentGeometry(2.08, 6)
        beam = IlluminationProfile(2.3e-3, 0.6, center_mm=(0.0, -offset))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=r"center_mm \(0, -1e\+\d+\) is out of range"):
                sector_fractions(g, beam)

    def test_far_center_in_range_is_dark(self):
        g = SegmentGeometry(2.08, 6)
        beam = IlluminationProfile(2.3e-3, 0.6, center_mm=(1e150, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(sector_fractions(g, beam), np.zeros(6))

    def test_zero_rel_tol_converges(self):
        # agreement to the last bit between two resolutions is reachable
        g = SegmentGeometry(2.08, 6)
        beam = IlluminationProfile(2.3e-3, 0.6, center_mm=(0.2, 0.1))
        fractions = sector_fractions(g, beam, rel_tol=0.0)
        assert fractions == pytest.approx(sector_fractions(g, beam), rel=1e-6)

    def test_node_tables_are_read_only(self):
        # the cached tables are shared by every later quadrature
        sector_fractions(SegmentGeometry(2.08, 6), IlluminationProfile(2.3e-3, 0.6))
        for table in ppc._cached_sector_nodes(6, 8):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0.0

    def test_narrow_beam_inside_one_sector_riemann_oracle(self):
        # beam centered inside segment 0 of a two-segment cell, radius much
        # smaller than the segment; brute-force 2000x2000 Riemann oracle
        g = SegmentGeometry(2.0, 2)
        beam = IlluminationProfile(
            1.0e-3, 0.06, center_mm=(0.35, 0.35), responsivity_a_w=0.5
        )
        currents = segment_photocurrents(g, beam)
        assert currents[0] == pytest.approx(0.5 * 1.0e-3, rel=1e-4)
        assert currents[1] < 1e-9

        x = np.linspace(-1.0, 1.0, 2000)
        xx, yy = np.meshgrid(x, x)
        irr = irradiance(beam, xx, yy)
        da = (x[1] - x[0]) ** 2
        theta = np.arctan2(yy, xx) % (2 * math.pi)
        inside = np.hypot(xx, yy) <= 1.0
        for i in range(2):
            mask = inside & (theta >= i * math.pi) & (theta < (i + 1) * math.pi)
            oracle = 0.5 * irr[mask].sum() * da
            assert currents[i] == pytest.approx(oracle, abs=0.5e-3 * 2e-3)

    def test_capture_bounded_by_total(self):
        g = SegmentGeometry(1.0, 6)
        beam = IlluminationProfile(2.0e-3, 0.9, center_mm=(0.3, 0.0),
                                   responsivity_a_w=0.6)
        currents = segment_photocurrents(g, beam)
        assert currents.sum() <= 0.6 * 2.0e-3 + 1e-15

    @given(
        offset_r=st.floats(0.0, 0.9),
        offset_t=st.floats(0.0, 2 * math.pi),
        radius=st.floats(0.05, 1.5),
        n=st.sampled_from([1, 2, 4, 6]),
    )
    @settings(max_examples=40, deadline=None)
    def test_quadrature_doubling_agrees(self, offset_r, offset_t, radius, n):
        # at the adaptive routine's terminal resolution N, resolution 2N
        # agrees within 4x the requested tolerance
        beam = IlluminationProfile(
            1e-3, radius,
            center_mm=(offset_r * math.cos(offset_t), offset_r * math.sin(offset_t)),
            responsivity_a_w=0.5,
        )
        tol = 1e-6
        geometry = SegmentGeometry(1.5, n)
        fractions, panels = sector_fractions(
            geometry, beam, rel_tol=tol, return_panels=True
        )
        bounds = np.linspace(0, 2 * math.pi, n + 1)
        for i in range(n):
            at_n = sector_beam_power(
                beam, 0.75, bounds[i], bounds[i + 1], panels=int(panels[i])
            )
            at_2n = sector_beam_power(
                beam, 0.75, bounds[i], bounds[i + 1], panels=2 * int(panels[i])
            )
            scale = max(abs(at_2n), 1e-15 * beam.total_power_w)
            assert abs(at_2n - at_n) / scale < 4 * tol
            assert fractions[i] * beam.total_power_w == pytest.approx(
                at_2n, abs=4 * tol * scale
            )


class TestSpecialFunctionImport:
    # scipy.special costs about 0.3 s CPU of a fresh process; a job that
    # evaluates no special function (sliptsim bandwidth) does not load it

    def test_the_import_loads_none_and_the_first_quadrature_loads_it(self):
        probe = "\n".join([
            "import sys",
            "import sliptsim.ppc as ppc, sliptsim.qam",
            "loaded = ['scipy.special' in sys.modules]",
            "ppc.sector_fractions(ppc.SegmentGeometry(2.08, 6),",
            "                     ppc.IlluminationProfile(2.3e-3, 0.6))",
            "loaded.append('scipy.special' in sys.modules)",
            "print(loaded)",
        ])
        assert run_fresh(probe) == "[False, True]"


# ---------------------------------------------------------------------------
# Single-diode equation
# ---------------------------------------------------------------------------

class TestSegmentDiode:
    def test_short_circuit_equals_photocurrent_without_rs(self):
        d = ideal_diode(rs=0.0)
        assert segment_current(d, 1.0, 1e-3, 0.0) == pytest.approx(1e-3, rel=1e-12)

    def test_dark_unbiased_is_zero(self):
        d = ideal_diode()
        assert segment_current(d, 1.0, 0.0, 0.0) == 0.0

    def test_open_circuit_voltage_closed_form(self):
        # I_ph = 1 mA, I0 = 1e-15 A, n = 1, T = 298.15 K, Rs = 0, Rsh -> inf
        d = DiodeParams(
            saturation_current_density_a_mm2=1e-15,
            ideality=1.0,
            series_resistance_ohm=0.0,
            shunt_resistance_ohm=math.inf,
            temperature_k=298.15,
        )
        voc = d.thermal_voltage_v * math.log(1e-3 / 1e-15 + 1.0)
        assert abs(segment_current(d, 1.0, 1e-3, voc)) < 1e-12
        assert segment_voltage(d, 1.0, 1e-3, 0.0) == pytest.approx(voc, abs=1e-9)

    def test_implicit_rs_solution_consistency(self):
        d = DiodeParams(series_resistance_ohm=5.0, shunt_resistance_ohm=2e5)
        i = segment_current(d, 0.5, 2e-4, 0.6)
        # residual of the implicit equation at the solution
        nvt = d.ideality * d.thermal_voltage_v
        vj = 0.6 + i * 5.0
        resid = 2e-4 - 1e-18 * 0.5 * math.expm1(vj / nvt) - vj / 2e5 - i
        assert abs(resid) < 1e-12

    def test_voltage_current_inverse_pair(self):
        d = DiodeParams(series_resistance_ohm=2.0, shunt_resistance_ohm=1.5e5)
        for i_target in [0.0, 5e-5, 2.4e-4]:
            v = segment_voltage(d, 0.8, 2.5e-4, i_target)
            assert segment_current(d, 0.8, 2.5e-4, v) == pytest.approx(
                i_target, abs=1e-11
            )

    def test_overcurrent_without_shunt_raises(self):
        d = ideal_diode()
        with pytest.raises(BracketError):
            segment_voltage(d, 1.0, 1e-4, 2e-4)

    def test_reverse_voltage_shunt_conduction(self):
        d = DiodeParams(series_resistance_ohm=1.0, shunt_resistance_ohm=1e5)
        v = segment_voltage(d, 1.0, 1e-4, 1.5e-4)  # above photocurrent
        assert v < 0
        # linear reverse conduction: excess ~ |V|/Rsh
        assert -v == pytest.approx((1.5e-4 - 1e-4) * 1e5, rel=0.05)


# ---------------------------------------------------------------------------
# Series string
# ---------------------------------------------------------------------------

class TestStringIV:
    def test_uniform_series_additivity(self):
        device = SegmentedDevice(
            SegmentGeometry(2.08, 6), DiodeParams(series_resistance_ohm=2.0)
        )
        area = device.geometry.sector_area_mm2
        ph = [2e-4] * 6
        for frac in [0.0, 0.35, 0.9, 0.999]:
            i = 2e-4 * frac
            v_string = string_voltage(device, ph, i)[0]
            v_single = segment_voltage(device.diode, area, 2e-4, i)
            assert v_string == pytest.approx(6 * v_single, rel=1e-6)

    def test_least_illuminated_limit(self):
        device = SegmentedDevice(
            SegmentGeometry(2.0, 2), ideal_diode(rs=0.0), reverse_breakdown_v=None
        )
        isc = short_circuit_current(device, [1e-3, 0.5e-3])
        assert isc == pytest.approx(0.5e-3, abs=1e-12)

    def test_isc_bracket_when_i0_rounds_away(self):
        # I0 = 3.9e-21 A is below half an ulp of I_ph (2.7e-20 A), so the
        # bracket end I_ph + I0 rounds to I_ph, where V is zero up to rounding
        device = device_preset(
            "S2",
            DiodeParams(saturation_current_density_a_mm2=1e-20, series_resistance_ohm=0.0),
        )
        ph = [3.2e-4, 3.2e-4]
        isc = short_circuit_current(device, ph)
        above = np.nextafter(isc, math.inf)
        assert 3.2e-4 <= isc < above <= 3.2e-4 + 2 * np.spacing(3.2e-4)
        v, _ = string_voltage(device, ph, np.array([isc, above]))
        assert v[0] >= 0.0 > v[1]
        curve = string_iv(device, ph)
        assert curve.short_circuit_current_a() == isc
        pmp, ratio = harvest_figures(device, ph)
        assert math.isfinite(pmp) and pmp > 0.0 and 0.0 < ratio < 1.0

    # a dim 1-ohm-shunt string: its voltages near short circuit are at the
    # model's rounding floor (a few 1e-16 V)
    DIM_DIODE = DiodeParams(
        saturation_current_density_a_mm2=1e-30, ideality=2.0872910875407324,
        series_resistance_ohm=0.0, shunt_resistance_ohm=1.0,
    )

    def test_isc_when_rounding_holds_v_positive_far_above_i_ph(self):
        # V reads +5.5e-16 V by rounding from 0 A to about 100 * I_ph, where
        # a search for its sign change ended (3.8e-16 A); above max(I_ph) + I0
        # every segment is reverse biased, so Isc is that bound
        device = SegmentedDevice(SegmentGeometry(2.0, 2), self.DIM_DIODE, reverse_breakdown_v=None)
        ph = [4.2e-18, 5.2e-22]
        i0 = self.DIM_DIODE.saturation_current_density_a_mm2 * device.geometry.sector_area_mm2
        isc = short_circuit_current(device, ph)
        assert isc == max(ph) + i0
        v, _ = string_voltage(device, ph, np.array([isc]))
        assert v[0] >= 0.0

    def test_mpp_of_a_curve_with_few_distinct_voltages(self):
        # the grid's voltages round to 5 distinct values; find_mpp once
        # refused any curve of fewer than 8 samples
        device = SegmentedDevice(SegmentGeometry(2.0, 2), self.DIM_DIODE, reverse_breakdown_v=None)
        ph = [3e-15, 3e-17]
        curve = string_iv(device, ph)
        assert 1 < len(curve) < 8
        mpp = find_mpp(curve)
        assert math.isfinite(mpp.power_w)
        assert mpp.power_w >= (curve.voltages_v * curve.currents_a).max()

    def test_random_string_against_per_point_oracle(self, rng):
        device = SegmentedDevice(
            SegmentGeometry(2.08, 6),
            DiodeParams(series_resistance_ohm=3.0, shunt_resistance_ohm=2e5),
        )
        ph = rng.uniform(0.5, 2.0, 6) * 1e-4
        curve = string_iv(device, ph, n_points=48)
        area = device.geometry.sector_area_mm2
        d = device.diode
        nvt = d.ideality * d.thermal_voltage_v
        i0 = d.saturation_current_density_a_mm2 * area

        def oracle_voltage(i_str):
            total = 0.0
            for iph in ph:
                lo, hi = -50.0, 10.0
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    vj = mid + i_str * d.series_resistance_ohm
                    g = iph - i0 * math.expm1(min(vj / nvt, 600)) \
                        - vj / d.shunt_resistance_ohm - i_str
                    if g > 0:
                        lo = mid
                    else:
                        hi = mid
                total += 0.5 * (lo + hi)
            return total

        for v, i in zip(curve.voltages_v[::7], curve.currents_a[::7]):
            assert v == pytest.approx(oracle_voltage(i), abs=1e-9)

    def test_reverse_clamp_flags(self):
        device = SegmentedDevice(
            SegmentGeometry(2.08, 6),
            DiodeParams(series_resistance_ohm=2.0, shunt_resistance_ohm=1e7),
            reverse_breakdown_v=2.0,
        )
        ph = np.array([2.0, 2.0, 2.0, 2.0, 2.0, 0.2]) * 1e-4
        curve = string_iv(device, ph, n_points=128)
        ref_v, ref_c = oracle.string_voltages(device, ph, curve.currents_a)
        assert ref_c.any()
        assert np.all(np.abs(curve.voltages_v - ref_v) <= TestBatchedStringSolve.V_TOL)

    def test_user_grid_with_reverse_currents(self):
        # negative series current: every segment forward-biases above Voc;
        # currents beyond the photocurrent pull clamped reverse voltages
        dev = SegmentedDevice(
            SegmentGeometry(2.08, 4), DiodeParams(shunt_resistance_ohm=2e5)
        )
        ph = [2e-4] * 4
        grid = np.concatenate(
            [np.linspace(-5e-5, 0, 8), np.linspace(1e-5, 2.6e-4, 24)]
        )
        voltages, _ = string_voltage(dev, ph, grid)
        voc = string_voltage(dev, ph, 0.0)[0]
        assert voltages.max() > voc          # boosted above Voc
        assert voltages.min() <= -4 * 5.99   # clamped reverse knee
        ref_v, ref_c = oracle.string_voltages(dev, ph, grid)
        assert ref_c.any()
        assert np.all(np.abs(voltages - ref_v) <= TestBatchedStringSolve.V_TOL)

    def test_photocurrent_count_checked(self):
        device = SegmentedDevice(SegmentGeometry(1.0, 4))
        with pytest.raises(ValueError):
            string_iv(device, [1e-4, 1e-4])

    @pytest.mark.parametrize("n_points", [0, 1, -3, 16.0, True])
    def test_grid_size_refused(self, n_points):
        # n_points=0 let numpy's "Number of samples, -1" ValueError escape
        device = SegmentedDevice(SegmentGeometry(1.0, 2))
        with pytest.raises(ParameterError, match="n_points"):
            string_iv(device, [1e-4, 1e-4], n_points=n_points)

    def test_two_points_span_isc_to_voc(self):
        device = SegmentedDevice(SegmentGeometry(1.0, 2))
        curve = string_iv(device, [1e-4, 1e-4], n_points=np.int64(2))
        assert curve.currents_a[-1] == 0.0 and curve.voltages_v[0] < curve.voltages_v[-1]

    def test_curve_monotonicity_validated(self):
        with pytest.raises(ValueError):
            IVCurve(np.array([0.0, 1.0, 0.5]), np.array([3.0, 2.0, 1.0]))
        with pytest.raises(ValueError):
            IVCurve(np.array([0.0, 0.5, 1.0]), np.array([1.0, 2.0, 0.0]))

    @pytest.mark.parametrize("voltages, currents, problem", [
        ([], [], "at least one sample"),
        (np.zeros((2, 3)), np.zeros((2, 3)), r"1-D .*\(2, 3\)"),
        (0.0, 1.0, r"1-D .*\(\)"),
        ([0.0, 1.0], [1.0, 0.5, 0.0], r"equal length.*\(2,\) and \(3,\)"),
    ])
    def test_curve_shape_validated(self, voltages, currents, problem):
        # an empty curve escaped as ValueError (find_mpp) or IndexError
        # (dc_operating_point, imp_isc_ratio); a 2-D one as "voltages must
        # be strictly increasing"
        with pytest.raises(ParameterError, match=problem):
            IVCurve(voltages, currents)

    @pytest.mark.parametrize("voltages, currents", [
        ([0.0, math.inf], [1.0, 0.0]),
        ([0.0, 1.0], [math.nan, 0.0]),
    ])
    def test_curve_refuses_non_finite_samples(self, voltages, currents):
        with pytest.raises(ParameterError, match="finite"):
            IVCurve(voltages, currents)

    def test_string_whose_voltage_overflows_raises(self):
        # a V(I) past the float range wrote Voc inf and a negative Pmp
        device = SegmentedDevice(SegmentGeometry(1.0, 2))
        with np.errstate(all="ignore"), pytest.raises(ParameterError, match="finite"):
            string_iv(device, [1e299, 1e299])

    def test_load_line_needs_the_model(self):
        # a lit curve without its model raised "'NoneType' object is not
        # callable"; the dark one-sample curve is its own answer
        curve = IVCurve(np.linspace(0.0, 1.0, 5), np.linspace(1e-3, 0.0, 5))
        with pytest.raises(ParameterError, match="model"):
            dc_operating_point(curve, 100.0)
        dark = string_iv(SegmentedDevice(SegmentGeometry(1.0, 2)), [0.0, 0.0])
        assert dark.model is None
        assert dc_operating_point(dark, 100.0) == OperatingPoint(0.0, 0.0)


class TestBatchedStringSolve:
    """``string_voltage`` on whole grids, and the MPP, against the
    per-segment ``brentq`` oracle with its golden-section MPP."""

    V_TOL = 1e-11
    PMP_REL = 1e-12
    RATIO_ABS = 1e-8

    @classmethod
    def check(cls, device, ph, currents):
        """Compare the voltages with the oracle's; return the oracle's clamp
        flags."""
        voltages, slopes = string_voltage(device, ph, currents)
        ref_v, ref_c = oracle.string_voltages(device, ph, currents)
        assert voltages.shape == slopes.shape == ref_v.shape
        assert np.all(np.abs(voltages - ref_v) <= cls.V_TOL)
        return ref_c

    @classmethod
    def check_mpp(cls, device, ph):
        mpp = find_mpp(string_iv(device, ph))
        ref_pmp, _ = oracle.reference_mpp(device, ph)
        assert mpp.power_w == pytest.approx(ref_pmp, rel=cls.PMP_REL, abs=0.0)

    @staticmethod
    def grid(ph, past_isc=1.3, n=64):
        # reverse currents, the forward range and currents past every I_ph
        return np.concatenate([
            [-3e-5, 0.0], np.linspace(1e-7, past_isc * max(ph), n),
        ])

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_preset(self, name):
        device = device_preset(name, DiodeParams(series_resistance_ohm=20.0))
        beam = default_beam(beam_radius_mm=0.6, center_mm=(0.15, 0.05))
        ph = segment_photocurrents(device.geometry, beam)
        assert self.check(device, ph, self.grid(ph)).any()
        self.check_mpp(device, ph)

    @pytest.mark.parametrize("rs", [0.0, 1.0, 50.0, 300.0])
    def test_series_resistances(self, rs):
        device = SegmentedDevice(
            SegmentGeometry(2.08, 6),
            DiodeParams(series_resistance_ohm=rs, shunt_resistance_ohm=1.2e5),
        )
        ph = np.array([2.1, 1.9, 1.5, 1.2, 0.9, 0.4]) * 1e-4
        self.check(device, ph, self.grid(ph, n=97))
        self.check_mpp(device, ph)

    def test_random_diodes(self):
        # wide parameter draws, on grids that run past every photocurrent
        rng = np.random.default_rng(5)
        for _ in range(150):
            n = int(rng.choice([1, 2, 4, 6]))
            diode = DiodeParams(
                saturation_current_density_a_mm2=10 ** rng.uniform(-20, -14),
                ideality=rng.uniform(1.0, 2.0),
                series_resistance_ohm=rng.uniform(0.0, 300.0),
                shunt_resistance_ohm=10 ** rng.uniform(3.5, 7.0),
            )
            device = SegmentedDevice(SegmentGeometry(rng.uniform(1.0, 2.1), n), diode)
            ph = rng.uniform(0.0, 5e-4, n)
            self.check(device, ph, rng.uniform(-1e-4, 1.2 * ph.max(), 40))
            self.check_mpp(device, ph)

    def test_slopes_match_implicit_derivative(self):
        # dVj/dI = -1/(I0/a*exp(Vj/a) + 1/Rsh) at the oracle's voltage
        device = SegmentedDevice(
            SegmentGeometry(1.5, 4),
            DiodeParams(series_resistance_ohm=30.0, shunt_resistance_ohm=2e5),
        )
        ph = np.array([2e-4, 1.5e-4, 1.2e-4, 1e-4])
        currents = np.linspace(0.0, 0.99e-4, 40)
        _, slopes = string_voltage(device, ph, currents)
        assert not oracle.string_voltages(device, ph, currents)[1].any()
        d = device.diode
        a = d.ideality * d.thermal_voltage_v
        area = device.geometry.sector_area_mm2
        i0 = d.saturation_current_density_a_mm2 * area
        for i, slope in zip(currents, slopes):
            expected = 0.0
            for iph in ph:
                vj = oracle.segment_voltage(d, area, iph, i) + i * d.series_resistance_ohm
                expected += -1.0 / (i0 / a * math.exp(vj / a) + 1.0 / d.shunt_resistance_ohm)
                expected -= d.series_resistance_ohm
            assert slope == pytest.approx(expected, rel=1e-9)

    def test_dark_segment_clamps(self):
        device = SegmentedDevice(
            SegmentGeometry(1.5, 4), DiodeParams(series_resistance_ohm=5.0),
            reverse_breakdown_v=3.0,
        )
        ph = np.array([2e-4, 1.5e-4, 0.0, 1e-4])
        clamped = self.check(device, ph, self.grid(ph))
        # the dark segment reverse-conducts through its shunt, then clamps
        assert not clamped[:8].any() and clamped[-8:].all()

    def test_ideal_shunt_with_clamp(self):
        device = SegmentedDevice(SegmentGeometry(2.08, 4), ideal_diode(rs=2.0))
        ph = np.array([2e-4, 1.8e-4, 1.2e-4, 0.0])
        clamped = self.check(device, ph, self.grid(ph))
        assert clamped.any() and not clamped.all()

    def test_ideal_shunt_without_clamp_raises(self):
        device = SegmentedDevice(
            SegmentGeometry(2.08, 2), ideal_diode(rs=2.0), reverse_breakdown_v=None
        )
        ph = np.array([2e-4, 1e-4])
        self.check(device, ph, np.linspace(0.0, 0.9e-4, 16))
        with pytest.raises(BracketError, match="exceeds I_ph"):
            string_voltage(device, ph, 1.5e-4)
        with pytest.raises(BracketError, match="exceeds I_ph"):
            string_voltage(device, ph, [0.0, 5e-5, 1.5e-4])

    def test_deep_reverse_bias_without_clamp_is_finite(self):
        # a segment driven 1 mA past its photocurrent: z ~ -4000, where the
        # Wright omega function underflows to 0
        device = SegmentedDevice(
            SegmentGeometry(2.08, 2), DiodeParams(series_resistance_ohm=5.0),
            reverse_breakdown_v=None,
        )
        ph = np.array([2e-4, 1e-4])
        currents = np.array([1.1e-3, 2e-3])
        voltages, _ = string_voltage(device, ph, currents)
        assert np.all(np.isfinite(voltages))
        ref_v, _ = oracle.string_voltages(device, ph, currents)
        assert voltages == pytest.approx(ref_v, rel=1e-12)

    def test_empty_grid(self):
        device = SegmentedDevice(SegmentGeometry(1.0, 2))
        voltages, slopes = string_voltage(device, [1e-4, 1e-4], [])
        assert voltages.shape == slopes.shape == (0,)

    @pytest.mark.parametrize("name", ["S2", "M4", "L6"])
    def test_string_iv_equals_per_point_loop(self, name):
        device = device_preset(name, DiodeParams(series_resistance_ohm=40.0))
        beam = default_beam(beam_radius_mm=0.6, center_mm=(0.2, 0.0))
        ph = segment_photocurrents(device.geometry, beam)
        curve = string_iv(device, ph, n_points=512)
        ref_v, _ = oracle.string_voltages(device, ph, curve.currents_a)
        assert np.all(np.abs(curve.voltages_v - ref_v) <= self.V_TOL)
        assert curve.currents_a[0] == pytest.approx(
            oracle.short_circuit_current(device, ph), rel=1e-12
        )

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_harvest_figures_equal_per_point_scan(self, name):
        device = device_preset(name, DiodeParams(series_resistance_ohm=60.0))
        beam = default_beam(beam_radius_mm=0.6, center_mm=(0.12, 0.0))
        pmp, ratio = harvest_figures(device, segment_photocurrents(device.geometry, beam))
        ref_pmp, ref_ratio = oracle.reference_harvest_figures(device, beam)
        assert pmp == pytest.approx(ref_pmp, rel=self.PMP_REL, abs=0.0)
        assert ratio == pytest.approx(ref_ratio, rel=0.0, abs=self.RATIO_ABS)


class TestScalarKernel:
    """The prepared V(I) at one float (the scalar kernel a root finder
    reaches) against the same V(I) at a 0-d array (the vector kernel), bit
    for bit, the sign of a zero included."""

    @staticmethod
    def vector_at(model, current):
        voltage, slope = model(np.array(current))
        return float(voltage).hex(), float(slope).hex()

    def test_random_strings_bit_for_bit(self):
        rng = np.random.default_rng(17)
        served = dict.fromkeys(["scalar", "clamped", "deep reverse", "clamp disabled"], 0)
        for _ in range(300):
            n = int(rng.choice([1, 2, 4, 6]))
            rsh = math.inf if rng.random() < 0.2 else 10 ** rng.uniform(3.0, 7.0)
            device = SegmentedDevice(
                SegmentGeometry(rng.uniform(1.0, 2.1), n),
                DiodeParams(
                    saturation_current_density_a_mm2=10 ** rng.uniform(-20, -14),
                    ideality=rng.uniform(1.0, 2.0),
                    series_resistance_ohm=rng.uniform(0.0, 300.0),
                    shunt_resistance_ohm=rsh,
                ),
                reverse_breakdown_v=None if rng.random() < 0.3 else rng.uniform(1.0, 10.0),
            )
            ph = rng.uniform(0.0, 5e-4, n)
            model = string_model(device, ph)
            unclamped = string_model(
                SegmentedDevice(device.geometry, device.diode, reverse_breakdown_v=None), ph
            )
            # to tell a segment in deep reverse bias by its Wright omega argument
            a = device.diode.ideality * device.diode.thermal_voltage_v
            i0 = device.diode.saturation_current_density_a_mm2 * device.geometry.sector_area_mm2
            currents = np.concatenate([
                rng.uniform(0.0, 1.2 * ph.max(), 30), rng.uniform(1e-3, 5e-3, 5),
            ])
            for current in currents.tolist():
                try:
                    expected = self.vector_at(model, current)
                except BracketError:
                    with pytest.raises(BracketError):
                        model(current)
                    continue
                voltage, slope = model(current)
                assert (float(voltage).hex(), float(slope).hex()) == expected
                if math.isinf(rsh):
                    # a string without a shunt takes the vector kernel
                    assert isinstance(voltage, np.floating)
                    continue
                assert type(voltage) is float and type(slope) is float
                served["scalar"] += 1
                if device.reverse_breakdown_v is None:
                    served["clamp disabled"] += 1
                    z = ((ph - current) + i0) * (rsh / a) + math.log(i0 * rsh / a)
                    served["deep reverse"] += bool(z.min() < -700.0)
                else:
                    served["clamped"] += bool(voltage != unclamped(np.array(current))[0])
        # every shunted string's float currents took the scalar kernel
        assert served["scalar"] >= 8155 and served["clamped"] >= 2414
        assert served["deep reverse"] >= 811 and served["clamp disabled"] >= 2695

    def test_a_float_takes_the_scalar_kernel(self):
        device = device_preset("S4", DiodeParams(series_resistance_ohm=20.0))
        ph = segment_photocurrents(device.geometry, default_beam(center_mm=(0.2, 0.0)))
        model = string_model(device, ph)
        for current in (0.5 * ph.min(), ph.max()):
            voltage, slope = model(current)
            assert type(voltage) is float and type(slope) is float
            assert (voltage.hex(), slope.hex()) == self.vector_at(model, current)
        # ph.max() clamps a segment, on the scalar kernel as well
        assert oracle.string_voltage(device, ph, ph.max())[1]
        assert type(model(np.float64(0.5 * ph.min()))[0]) is float
        # arrays take the vector kernel
        assert isinstance(model(np.array(0.5 * ph.min()))[0], np.floating)

    def test_an_overflowing_current_reads_minus_inf_on_both_kernels(self):
        # a shunted string carries any current; past the float range its
        # voltage overflows to -inf, with no BracketError on either kernel
        device = SegmentedDevice(SegmentGeometry(2.0, 2), reverse_breakdown_v=None)
        model = string_model(device, [1e-4, 2e-4])
        with np.errstate(over="ignore", invalid="ignore"):
            expected = self.vector_at(model, 1e305)
        voltage, slope = model(1e305)
        assert voltage == -math.inf and (voltage.hex(), slope.hex()) == expected

    def test_eight_segments_take_the_vector_kernel(self):
        # numpy sums 8 or more values pairwise, not in sequence
        with pytest.warns(UserWarning, match="fabricated set"):
            geometry = SegmentGeometry(2.08, 8)
        ph = np.linspace(1e-4, 2e-4, 8)
        model = string_model(SegmentedDevice(geometry), ph)
        assert isinstance(model(0.5e-4)[0], np.floating)

    def test_each_dc_call_prepares_the_string_once(self, monkeypatch):
        prepared = []

        def counting_model(device, photocurrents):
            prepared.append(device)
            return string_model(device, photocurrents)

        monkeypatch.setattr(ppc, "string_model", counting_model)
        device = device_preset("S4")
        ph = segment_photocurrents(device.geometry, default_beam(center_mm=(0.2, 0.0)))
        harvest_figures(device, ph)
        assert len(prepared) == 1
        string_iv(device, ph)
        assert len(prepared) == 2


# ---------------------------------------------------------------------------
# MPP and curve figures
# ---------------------------------------------------------------------------

def analytic_curve(iph, j0, ideality, rsh, temperature=298.15, points=400):
    """IVCurve of an ideal single diode with an exact continuous model: the
    voltage at a current by bisection, and its slope dV/dI."""
    nvt = ideality * thermal_voltage(temperature)

    def current(v):
        return iph - j0 * math.expm1(v / nvt) - v / rsh

    def voltage(i):
        lo, hi = 0.0, nvt * math.log(iph / j0 + 1.0)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if current(mid) > i:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def model(i):
        v = voltage(i)
        return v, -1.0 / (j0 / nvt * math.exp(v / nvt) + 1.0 / rsh)

    v = np.linspace(0.0, voltage(0.0), points)
    return IVCurve(v, [current(x) for x in v], model=model)


class TestMpp:
    def test_matches_dense_grid(self):
        curve = analytic_curve(1e-3, 1e-15, 1.1, 5e5)
        mpp = find_mpp(curve)
        v = np.linspace(0.0, curve.voltages_v[-1], 1_000_000)
        nvt = 1.1 * thermal_voltage(298.15)
        p = v * (1e-3 - 1e-15 * np.expm1(v / nvt) - v / 5e5)
        assert mpp.power_w == pytest.approx(p.max(), rel=1e-6)

    def test_zero_illumination(self):
        device = SegmentedDevice(SegmentGeometry(1.0, 2))
        curve = string_iv(device, [0.0, 0.0])
        mpp = find_mpp(curve)
        assert mpp.power_w == 0.0 and mpp.voltage_v == 0.0

    def test_dominates_grid_points(self):
        curve = analytic_curve(5e-4, 1e-16, 1.3, 1e6)
        mpp = find_mpp(curve)
        grid_p = curve.voltages_v * curve.currents_a
        assert mpp.power_w >= grid_p.max() - 1e-12 * grid_p.max()

    def test_rejects_short_curves(self):
        with pytest.raises(ValueError):
            find_mpp(IVCurve(np.linspace(0, 1, 4), np.linspace(1, 0.9, 4)))

    def test_energy_sanity(self):
        curve = analytic_curve(2e-4, 1e-17, 1.2, 3e5)
        mpp = find_mpp(curve)
        voc = curve.voltages_v[-1]
        isc = curve.short_circuit_current_a()
        assert 0 < mpp.power_w <= voc * isc


class TestImpIscAndPce:
    def test_matched_segments_preserve_single_cell_ratio(self):
        diode = DiodeParams(series_resistance_ohm=0.0, shunt_resistance_ohm=5e5)
        single = SegmentedDevice(SegmentGeometry(2.08, 1), diode)
        hexa = SegmentedDevice(SegmentGeometry(2.08, 6), diode)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            r1 = imp_isc_ratio(string_iv(single, [1.2e-4], n_points=512))
            r6 = imp_isc_ratio(
                string_iv(hexa, [1.2e-4] * 6, n_points=512)
            )
        assert r6 == pytest.approx(r1, rel=2e-3)

    def test_two_segment_toy_against_dense_grid(self):
        device = SegmentedDevice(
            SegmentGeometry(2.0, 2),
            DiodeParams(series_resistance_ohm=1.0, shunt_resistance_ohm=2e5),
        )
        ph = [1e-3, 0.9e-3]
        curve = string_iv(device, ph, n_points=1024)
        ratio = imp_isc_ratio(curve)
        isc = curve.short_circuit_current_a()
        dense_i = np.linspace(0.0, isc, 200_001)
        dense_p = dense_i * string_voltage(device, ph, dense_i)[0]
        i_mp_oracle = dense_i[np.argmax(dense_p)]
        assert ratio == pytest.approx(i_mp_oracle / isc, rel=1e-4)

    def test_zero_isc_ratio_is_nan(self):
        curve = IVCurve(np.linspace(0, 1, 10), np.zeros(10))
        assert math.isnan(imp_isc_ratio(curve))


# ---------------------------------------------------------------------------
# Capacitance and bandwidth
# ---------------------------------------------------------------------------

class TestCapacitance:
    def test_single_identity(self):
        assert series_capacitance([7e-12]) == 7e-12

    def test_four_equal(self):
        assert series_capacitance([10e-12] * 4) == pytest.approx(2.5e-12, rel=1e-12)

    def test_two_three_pf(self):
        assert series_capacitance([2e-12, 3e-12]) == pytest.approx(1.2e-12, rel=1e-12)

    def test_string_equal_split_law(self):
        # n equal segments of a cell of total area A: C = c*A/n^2
        diode = DiodeParams(capacitance_density_f_mm2=30e-12)
        for n in (1, 2, 4, 6):
            g = SegmentGeometry(2.0, n)
            expected = 30e-12 * g.active_area_mm2 / n**2
            assert string_capacitance(g, diode) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("caps", [[], [math.nan], [1e-12, 0.0], [-1e-12]],
                             ids=["empty", "nan", "zero", "negative"])
    def test_no_or_non_positive_capacitances_refused(self, caps):
        # [] returned inf with a RuntimeWarning, [nan] returned nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="capacitances_f"):
                series_capacitance(caps)

    @given(st.lists(st.floats(1e-15, 1e-9), min_size=1, max_size=8))
    @settings(max_examples=200)
    def test_reciprocal_law_bounded_by_min(self, caps):
        total = series_capacitance(caps)
        assert total <= min(caps) * (1 + 1e-12)


class TestBandwidth:
    """The chain's RC corner 1 / (2 pi (R_ac + R_s) C), where R_ac is the
    950-ohm bias load in parallel with the 50-ohm amplifier, 47.5 ohm."""

    # (C, R_load, R_s) of the corner: a bad C is refused by the diode's
    # capacitance density, a bad resistance by the chain that declares it
    @pytest.mark.parametrize("args, name", [
        ((math.nan, 50.0), "c_string_f"),
        ((0.0, 50.0), "c_string_f"),
        ((1e-12, math.nan), "load_resistance_ohm"),
        ((1e-12, -50.0), "load_resistance_ohm"),
        ((1e-12, 50.0, math.nan), "effective_series_resistance_ohm"),
        ((1e-12, 50.0, -1.0), "effective_series_resistance_ohm"),
    ])
    def test_bad_arguments_are_named(self, args, name):
        density, load, series = (*args, 0.0)[:3]
        refusal = {
            "c_string_f": "capacitance.density",
            "load_resistance_ohm": "load.resistance",
            "effective_series_resistance_ohm": "effective.series.resistance",
        }[name]
        with pytest.raises(ParameterError, match=refusal):
            default_receiver(
                "L4", DiodeParams(capacitance_density_f_mm2=density),
                load_resistance_ohm=load, effective_series_resistance_ohm=series,
            )

    def test_analytic_value(self):
        chain = default_receiver("L4", DiodeParams(capacitance_density_f_mm2=5e-12))
        c_string = 5e-12 * JUNCTION_AREA_MM2["L4"] / 4
        assert chain.f3db_hz() == pytest.approx(
            1.0 / (2 * math.pi * 47.5 * c_string), rel=1e-12
        )

    def test_halved_capacitance_doubles(self):
        def f3db(density):
            return default_receiver(
                "L4", DiodeParams(capacitance_density_f_mm2=density)
            ).f3db_hz()

        assert f3db(2.5e-12) == pytest.approx(2 * f3db(5e-12), rel=1e-12)

    def test_series_resistance_lowers(self):
        def f3db(series):
            return default_receiver("L4", effective_series_resistance_ohm=series).f3db_hz()

        assert f3db(50.0) < f3db(0.0)

    def test_monotone_in_segments_fixed_area(self):
        diode = DiodeParams(capacitance_density_f_mm2=30e-12)
        values = [
            ReceiverChain(SegmentedDevice(SegmentGeometry(2.0, n), diode), default_beam())
            .f3db_hz()
            for n in (1, 2, 4, 6)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))
