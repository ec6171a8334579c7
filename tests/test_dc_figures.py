"""DC figures of the bundled receivers, pinned to the values recorded with
the implicit per-segment ``brentq`` string solve and its golden-section MPP.

The frozen fit (perfbench/data/calibration.json) and the seven default
receivers are evaluated along ``run_link``'s DC path (string I-V curve,
MPP, load line) and through ``harvest_figures``.  Any solver change must
keep Pmp, Isc and the load-line point within 1e-12 relative; Imp/Isc is
held to 1e-8 absolute, because the golden section located the flat power
maximum only to about 2.5e-9.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sliptsim.calibrate import CalibrationResult, calibrated_receiver
from sliptsim.ppc import (
    dc_operating_point,
    find_mpp,
    harvest_figures,
    sector_fractions,
    short_circuit_current,
    string_iv,
)
from sliptsim.presets import PRESET_NAMES, default_receiver

FROZEN_FIT = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "calibration.json"

REL_TOL = 1e-12
RATIO_TOL = 1e-8
# find_mpp's recorded Pmp came from a model that inverted V(I) for the
# current to 1e-15 A, so it may sit up to V_mp * 1e-15 A off the curve
MPP_CURRENT_XTOL = 1e-15

# (pmp_w, isc_a, imp_isc, load_v, load_i, harvest_pmp_w, harvest_imp_isc)
PINNED = {
    'frozen-S2': (
        0.0005802044899927652, 0.00032284329571861676, 0.9455790559883601,
        0.30549190222987854, 0.00032157042339987216, 0.0005802044899927653, 0.9455790521131436,
    ),
    'default-S2': (
        0.00046472487974681404, 0.0002618643040617764, 0.9402246507906036,
        0.24779026058409062, 0.0002608318532464112, 0.00046472487974681524, 0.9402246488356953,
    ),
    'frozen-S4': (
        0.00038804930621492636, 0.00011697899395460843, 0.8500000000705967,
        0.11069345495652226, 0.00011651942627002343, 0.0003880493062149264, 0.8499999980695074,
    ),
    'default-S4': (
        0.00044996792603949054, 0.00013093215203088828, 0.9121532962290093,
        0.12413985301767314, 0.0001306735294922875, 0.0004499679260399419, 0.9121532919001286,
    ),
    'frozen-M2': (
        0.0009015771187181747, 0.0005030287825206602, 0.9536395922249299,
        0.4759932192674713, 0.0005010454939657592, 0.0009015771187181757, 0.9536395864194733,
    ),
    'default-M2': (
        0.0007081929284547331, 0.0003997170246841117, 0.9497893913901945,
        0.37823400963773046, 0.0003981410627765584, 0.0007081929284547331, 0.9497893872438699,
    ),
    'frozen-M4': (
        0.0006540357962895904, 0.00018762014439784968, 0.9010000041249309,
        0.17753786060748594, 0.00018688195853419572, 0.0006540357962904724, 0.901000001058644,
    ),
    'default-M4': (
        0.000693851689376455, 0.00019985851234205528, 0.931604142304119,
        0.1894905564572153, 0.00019946374363917399, 0.0006938516893764549, 0.9316041382678727,
    ),
    'frozen-L2': (
        0.0008918345771012432, 0.0005080736565095817, 0.9534565606867459,
        0.48076695368021366, 0.0005060704775581196, 0.0008918345771012436, 0.95345655702086,
    ),
    'default-L2': (
        0.0008155350052328842, 0.0004665511914365933, 0.9521589722968488,
        0.4414761367172774, 0.000464711722860292, 0.0008155350052328843, 0.952158969684341,
    ),
    'frozen-L4': (
        0.000585360166572313, 0.00017218673302716063, 0.8950000032389441,
        0.16293347479546177, 0.0001715089208373282, 0.000585360166572313, 0.8950000011169235,
    ),
    'default-L4': (
        0.0008016986862985477, 0.00023327559571829673, 0.9368380733577282,
        0.22117407921506702, 0.00023281482022638632, 0.000801698686297723, 0.9368380709078014,
    ),
    'frozen-L6': (
        0.00026881847122239676, 7.087602098566696e-05, 0.6609999937849329,
        0.06706848737533543, 7.059840776351098e-05, 0.00026881847122240565, 0.6609999913254703,
    ),
    'default-L6': (
        0.0007877584733455507, 0.00015551706381219745, 0.921544426801334,
        0.14754653279091434, 0.00015531213977990982, 0.0007877584733455788, 0.921544425220269,
    ),
}


def dc_figures(chain):
    """``run_link``'s DC figures and ``harvest_figures`` of one receiver."""
    beam = chain.beam
    photocurrents = beam.responsivity_a_w * beam.total_power_w * sector_fractions(
        chain.device.geometry, beam
    )
    curve = string_iv(chain.device, photocurrents)
    mpp = find_mpp(curve)
    isc = curve.short_circuit_current_a()
    load = dc_operating_point(curve, chain.load_resistance_ohm)
    pmp, ratio = harvest_figures(chain.device, photocurrents)
    return (
        mpp.power_w, isc, mpp.current_a / isc, load.voltage_v, load.current_a,
        pmp, ratio,
    )


def receivers():
    frozen = CalibrationResult.load(FROZEN_FIT)
    for name in PRESET_NAMES:
        yield f"frozen-{name}", calibrated_receiver(frozen, name)
        yield f"default-{name}", default_receiver(name)


@pytest.mark.parametrize("key,chain", list(receivers()), ids=lambda v: v if isinstance(v, str) else "")
def test_dc_figures_are_pinned(key, chain):
    got = dc_figures(chain)
    want = PINNED[key]
    for index in (1, 3, 4, 5):
        assert got[index] == pytest.approx(want[index], rel=REL_TOL, abs=0.0)
    for index in (2, 6):
        assert got[index] == pytest.approx(want[index], rel=0.0, abs=RATIO_TOL)
    v_mp = want[0] / (want[2] * want[1])
    assert got[0] == pytest.approx(want[0], rel=REL_TOL, abs=v_mp * MPP_CURRENT_XTOL)


def offset_receivers():
    """Every receiver with its beam moved along x, up to 0.45 of the cell
    diameter: mismatched strings, whose power profile has two knees."""
    for key, chain in receivers():
        diameter = chain.device.geometry.cell_diameter_mm
        for offset in np.linspace(0.0, 0.45 * diameter, 6)[1:]:
            beam = replace(chain.beam, center_mm=(float(offset), 0.0))
            yield f"{key}@{offset:.3f}mm", replace(chain, beam=beam)


@pytest.mark.parametrize(
    "key,chain", [*receivers(), *offset_receivers()],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_find_mpp_and_harvest_figures_agree(key, chain):
    # one search on two sample sets (the curve's, and a 97-point scan) of the
    # same continuous string model
    got = dc_figures(chain)
    assert got[0] == pytest.approx(got[5], rel=REL_TOL, abs=0.0)
    assert got[2] == pytest.approx(got[6], rel=0.0, abs=RATIO_TOL)


def test_curve_short_circuit_current_is_the_solved_one():
    # a slightly offset beam: the curve's lowest-voltage sample sits a little
    # off V = 0, where interpolating to V = 0 missed the solved I_sc
    chain = default_receiver("S4")
    beam = replace(chain.beam, center_mm=(0.45 / 19, 0.0))
    photocurrents = beam.responsivity_a_w * beam.total_power_w * sector_fractions(
        chain.device.geometry, beam
    )
    curve = string_iv(chain.device, photocurrents)
    assert curve.short_circuit_current_a() == short_circuit_current(chain.device, photocurrents)
