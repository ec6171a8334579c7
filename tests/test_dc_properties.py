"""Property tests of the DC entry points.

Over the legal boxes of the diode, the geometry and the beam (a 2-D beam
centre; the reverse clamp on and off), the short-circuit current, the string
I-V curve, its maximum power point and load-line point, and the harvest
figures are finite, or the call raises one of the package's typed errors.
The short-circuit current never exceeds max(I_ph) + I0, above which every
segment is reverse biased.  The only non-finite value is the documented
undefined ratio: a dark string (zero short-circuit current) has Imp/Isc NaN,
from ``harvest_figures`` and from ``imp_isc_ratio`` of its curve alike.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliptsim import SliptsimError
from sliptsim.ppc import (
    DiodeParams,
    IlluminationProfile,
    SegmentedDevice,
    SegmentGeometry,
    dc_operating_point,
    find_mpp,
    harvest_figures,
    imp_isc_ratio,
    sector_fractions,
    short_circuit_current,
    string_iv,
)

TYPED_ERRORS = SliptsimError


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


diodes = st.builds(
    DiodeParams,
    saturation_current_density_a_mm2=log_uniform(1e-30, 1e-6),
    ideality=st.floats(1.0, 2.5),
    series_resistance_ohm=st.one_of(st.just(0.0), log_uniform(1e-3, 1e4)),
    shunt_resistance_ohm=st.one_of(st.just(math.inf), log_uniform(1.0, 1e10)),
    capacitance_density_f_mm2=log_uniform(1e-14, 1e-9),
    temperature_k=st.floats(4.0, 600.0),
)
geometries = st.builds(
    SegmentGeometry,
    cell_diameter_mm=log_uniform(0.05, 20.0),
    # counts outside the fabricated set warn and proceed
    n_segments=st.integers(1, 12),
    junction_area_mm2=st.one_of(st.none(), log_uniform(1e-3, 1e2)),
)
centres = st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0))
beams = st.builds(
    IlluminationProfile,
    total_power_w=st.one_of(st.just(0.0), log_uniform(1e-9, 1.0)),
    beam_radius_mm=log_uniform(0.01, 20.0),
    center_mm=centres,
    # above the quantum limit a beam warns and proceeds
    responsivity_a_w=log_uniform(1e-3, 1.0),
)
clamps = st.one_of(st.none(), log_uniform(0.1, 100.0))
loads = log_uniform(1e-2, 1e4)


def finite(*values):
    return all(np.all(np.isfinite(v)) for v in values)


@pytest.mark.filterwarnings("ignore::UserWarning")
@given(diode=diodes, geometry=geometries, beam=beams, clamp=clamps, load_ohm=loads)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_dc_entry_points_are_finite_or_typed(diode, geometry, beam, clamp, load_ohm):
    device = SegmentedDevice(geometry, diode, reverse_breakdown_v=clamp)
    try:
        fractions = sector_fractions(geometry, beam)
        photocurrents = beam.responsivity_a_w * beam.total_power_w * fractions
        i_sc = short_circuit_current(device, photocurrents)
        curve = string_iv(device, photocurrents)
        mpp = find_mpp(curve)
        op = dc_operating_point(curve, load_ohm)
        pmp, ratio = harvest_figures(device, photocurrents)
        curve_ratio = imp_isc_ratio(curve)
    except TYPED_ERRORS:
        return
    assert finite(fractions, i_sc, curve.voltages_v, curve.currents_a)
    assert finite(mpp.voltage_v, mpp.current_a, op.voltage_v, op.current_a, pmp)
    i0 = diode.saturation_current_density_a_mm2 * geometry.sector_area_mm2
    assert 0.0 <= i_sc <= float(np.max(photocurrents)) + i0
    assert curve.short_circuit_current_a() == i_sc
    if i_sc > 0.0:
        assert math.isfinite(ratio) and math.isfinite(curve_ratio)
    else:
        assert math.isnan(ratio) and math.isnan(curve_ratio)
