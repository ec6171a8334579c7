"""The package's one bracketed root finder against scipy's ``brentq``, which
it ports: the same bits on seeded problems and at every search that uses it,
and package errors where scipy raises builtin ones."""

import math
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from scipy.optimize import brentq

from sliptsim import ParameterError, SliptsimError, ppc, qam
from sliptsim.calibrate import CalibrationResult, calibrated_receiver
from sliptsim.presets import PRESET_NAMES
from sliptsim.roots import MIN_RTOL, ConvergenceError, brent_root

# scipy's defaults, the ppc current searches' and qam's
TOLERANCES = [(2e-12, MIN_RTOL), (1e-15, 8.9e-16), (1e-12, MIN_RTOL), (1e-6, 1e-3)]


def _outcome(solve):
    """The root's bits, or the builtin class of the error raised."""
    try:
        root = solve()
    except (ValueError, RuntimeError) as exc:
        return ValueError if isinstance(exc, ValueError) else RuntimeError
    return np.float64(root).view(np.int64)


def _problem(rng):
    """A bracketed problem: a function with a root at ``c`` in [a, b] (or
    [b, a]), its values scaled from 1e-310 up to 1e300."""
    kind = int(rng.integers(5))
    c, e, w = (float(v) for v in (rng.uniform(-2, 2), 10.0 ** rng.uniform(-2, 3), rng.uniform(0, 2)))
    s = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-310, 300))
    f = [
        lambda x: s * (x - c),
        lambda x: s * ((x - c) ** 3 + w * (x - c)),
        lambda x: s * math.tanh(e * (x - c)),
        lambda x: s * (math.exp(min(e * (x - c), 700.0)) - 1.0),
        # may hold several roots, or none in the bracket
        lambda x: s * (math.atan(e * (x - c)) + w * math.sin(7.0 * x)),
    ][kind]
    a, b = c - float(10.0 ** rng.uniform(-6, 1)), c + float(10.0 ** rng.uniform(-6, 1))
    return (f, b, a) if rng.random() < 0.5 else (f, a, b)


def test_equals_scipy_on_seeded_problems():
    rng = np.random.default_rng(20261019)
    mismatches, refused = [], 0
    for k in range(10_000):
        f, a, b = _problem(rng)
        xtol, rtol = TOLERANCES[k % len(TOLERANCES)]
        theirs = _outcome(lambda: brentq(f, a, b, xtol=xtol, rtol=rtol))
        ours = _outcome(lambda: brent_root(f, a, b, xtol, rtol))
        refused += theirs is ValueError
        if ours != theirs:
            mismatches.append((k, theirs, ours))
    assert not mismatches
    # the set exercises the refusals too, but is mostly roots
    assert 0 < refused < 2_000


@pytest.fixture()
def scipy_checked(monkeypatch):
    """Run every ``brent_root`` call of ``ppc`` and ``qam`` through scipy's
    ``brentq`` too; returns the (search, ours, scipy's) of each call."""
    calls = []

    def both(f, lo, hi, xtol, rtol):
        ours = brent_root(f, lo, hi, xtol, rtol)
        calls.append((f.__name__, ours, brentq(f, lo, hi, xtol=xtol, rtol=rtol)))
        return ours

    monkeypatch.setattr(ppc, "brent_root", both)
    monkeypatch.setattr(qam, "brent_root", both)
    return calls


def _bits(values):
    return np.array(values, dtype=float).view(np.int64)


def test_dc_searches_equal_scipy(scipy_checked):
    fit = CalibrationResult.load(resources.files("sliptsim").joinpath("data/calibration.json"))
    for name in PRESET_NAMES:
        chain = calibrated_receiver(fit, name)
        for offset in (0.0, 0.05, 0.2):
            beam = replace(chain.beam, center_mm=(offset, 0.0))
            photocurrents = beam.responsivity_a_w * beam.total_power_w * ppc.sector_fractions(
                chain.device.geometry, beam
            )
            curve = ppc.string_iv(chain.device, photocurrents)
            ppc.find_mpp(curve)
            ppc.dc_operating_point(curve, chain.load_resistance_ohm)
            ppc.harvest_figures(chain.device, photocurrents)
    searches = {name for name, _, _ in scipy_checked}
    # Isc, the MPP and the load line
    assert searches == {"v_of_i", "dp_di", "mismatch"}
    assert len(scipy_checked) >= 7 * 3 * 4
    ours, theirs = zip(*[(o, t) for _, o, t in scipy_checked])
    assert (_bits(ours) == _bits(theirs)).all()


def test_required_snr_equals_scipy(scipy_checked):
    for order in qam.VALID_ORDERS:
        for target in (1e-3, 4.7e-3):
            qam.required_snr(order, target)
    assert len(scipy_checked) == 2 * len(qam.VALID_ORDERS)
    assert {name for name, _, _ in scipy_checked} == {"f"}
    ours, theirs = zip(*[(o, t) for _, o, t in scipy_checked])
    assert (_bits(ours) == _bits(theirs)).all()


def test_an_endpoint_root_is_returned_as_given():
    assert brent_root(lambda x: x - 1.0, 1.0, 3.0, 1e-12, MIN_RTOL) == 1.0
    assert brent_root(lambda x: x - 3.0, 1.0, 3.0, 1e-12, MIN_RTOL) == 3.0


def test_nan_value_is_parameter_error():
    def f(x):
        return math.nan if x > 0.5 else x - 1.0

    with pytest.raises(ParameterError, match="NaN"):
        brent_root(f, 0.0, 2.0, 1e-12, MIN_RTOL)
    with pytest.raises(ParameterError, match="NaN"):
        brent_root(lambda x: math.nan, 0.0, 2.0, 1e-12, MIN_RTOL)


def test_same_signed_bracket_is_parameter_error():
    with pytest.raises(ParameterError, match="different signs"):
        brent_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, MIN_RTOL)
    with pytest.raises(ValueError):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)


def test_no_convergence_is_a_package_runtime_error():
    # a jump at 1/3: bisecting a 1e300-wide bracket down to 1e-300 takes
    # about 2,000 halvings, far beyond the 100-iteration budget
    def step(x):
        return 1.0 if x > 1.0 / 3.0 else -1.0

    with pytest.raises(ConvergenceError, match="100 iterations") as info:
        brent_root(step, -1e300, 1e300, 1e-300, MIN_RTOL)
    assert isinstance(info.value, SliptsimError) and isinstance(info.value, RuntimeError)
    with pytest.raises(RuntimeError, match="100 iterations"):
        brentq(step, -1e300, 1e300, xtol=1e-300)


@pytest.mark.parametrize("xtol, rtol", [(0.0, MIN_RTOL), (-1e-12, MIN_RTOL), (1e-12, MIN_RTOL / 2)])
def test_tolerance_below_the_resolvable_is_parameter_error(xtol, rtol):
    with pytest.raises(ParameterError, match="xtol"):
        brent_root(lambda x: x, -1.0, 1.0, xtol, rtol)
