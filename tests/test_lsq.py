"""The bounded least squares against scipy's ``least_squares``, which it
ports: the same bits on seeded bounded problems that reach each branch of
the trust-region reflective method and in both stages of the fit, and
package errors where scipy raises builtin ones."""

import inspect
import sys
import warnings

import numpy as np
import pytest
from scipy.optimize import least_squares as scipy_least_squares

from sliptsim import ParameterError, lsq
from sliptsim import calibrate as calibrate_module
from sliptsim.presets import PRESET_NAMES

FIELDS = ("x", "cost", "fun", "jac", "nfev", "status", "active_mask")

# (ftol, xtol, gtol): each set ends most problems by another test
TOLERANCES = [
    (1e-8, 1e-8, 1e-8), (1e-15, 1e-15, 1e-3), (1e-4, 1e-15, 1e-15),
    (1e-15, 1e-4, 1e-15), (1e-4, 1e-4, 1e-15), (1e-15, 1e-15, 1e-15),
]
FAMILIES = ("interior", "on a bound", "rank-deficient", "non-finite trial", "zero start")
SEEDS = range(300)

# source lines of lsq that only some problems reach
BRANCHES = [
    "return p, 0.0",  # the Gauss-Newton step fits the trust region
    "alpha_lower = 0.0",  # a rank-deficient Jacobian
    "return p, p_h, -p_value",  # the step stays inside the bounds
    "r_h *= r_stride",  # a reflection off a bound is available
    "r_value = np.inf",  # ... or is not
    "r_stride_l = 0",  # the reflected direction leaves at once
    "return r, r_h, -r_value",  # the reflected step wins
    "return ag, ag_h, -ag_value",  # the scaled anti-gradient wins
    "ag_stride = theta * to_bound",  # ... stepped back from a bound
    "Delta = 0.25 * step_h_norm",  # a non-finite trial residual
    "Delta *= 2.0",  # a good step on the region's edge doubles it
    "Delta = 1.0",  # the initial radius of a start at 0
]


def bits(value):
    array = np.asarray(value)
    return array.shape, array.dtype.str, array.tobytes()


def assert_same_bits(expected, got):
    for name in FIELDS:
        assert bits(getattr(got, name)) == bits(getattr(expected, name)), name
    assert (got.success, got.message) == (expected.success, expected.message)


def problem(seed):
    """(family, residuals, x0, bounds, options) of one seeded problem."""
    rng = np.random.default_rng(seed)
    family = FAMILIES[seed % len(FAMILIES)]
    n = int(rng.integers(2 if family == "rank-deficient" else 1, 5))
    m = int(rng.integers(n if family == "rank-deficient" else 1, 7))
    A = rng.normal(size=(m, n))
    b = 3.0 * rng.normal(size=m)
    c = rng.normal(size=m)
    lb = rng.uniform(-2.0, 0.0, n)
    ub = lb + rng.uniform(0.1, 3.0, n)
    x0 = rng.uniform(lb, ub)
    if family == "on a bound":
        x0[0] = lb[0] if seed % 2 else ub[0]
    elif family == "rank-deficient":
        A[:, 1] = A[:, 0]  # the residuals see only x[0] + x[1]
        c[:] = 0.0
    elif family == "zero start":
        lb, ub = -rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, n)
        x0 = np.zeros(n)

    def fun(x):
        Ax = A @ x
        return Ax - b + 0.3 * Ax**2 + c * np.sin(x).sum()

    if family == "non-finite trial":
        # arctan(x - root), whose first step from a start 1 to 1.5 from the
        # root overshoots it into a region of infinite residuals
        root = rng.uniform(5.0, 15.0, n)
        side = rng.choice([-1.0, 1.0], n)
        lb, ub = root - 3.0, root + 3.0
        x0 = root + side * rng.uniform(1.0, 1.5, n)

        def fun(x):
            if np.any((x - root) * side < -0.05):
                return np.full(n, np.inf)
            return np.arctan(x - root)

    ftol, xtol, gtol = TOLERANCES[int(rng.integers(len(TOLERANCES)))]
    options = dict(
        ftol=ftol, xtol=xtol, gtol=gtol,
        diff_step=[None, 1e-6][int(rng.integers(2))],
        max_nfev=[None, None, 3][int(rng.integers(3))],
    )
    return family, fun, x0, (lb, ub), options


def run_traced(call):
    """``call()`` and the stripped source lines of lsq it ran."""
    path = inspect.getsourcefile(lsq)
    lines = inspect.getsource(lsq).splitlines()
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add(lines[frame.f_lineno - 1].strip())
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code.co_filename == path else None)
    try:
        return call(), ran
    finally:
        sys.settrace(None)


@pytest.fixture(scope="module")
def seeded_runs():
    """(seed, family, x0, bounds, scipy's result, the port's result, lines run)."""
    runs = []
    for seed in SEEDS:
        family, fun, x0, bounds, options = problem(seed)
        expected = scipy_least_squares(fun, x0, bounds=bounds, method="trf", **options)
        got, ran = run_traced(lambda: lsq.least_squares(fun, x0, bounds, **options))
        runs.append((seed, family, x0, bounds, expected, got, ran))
    return runs


def test_seeded_problems_return_scipys_bits(seeded_runs):
    for seed, _, _, _, expected, got, _ in seeded_runs:
        try:
            assert_same_bits(expected, got)
        except AssertionError as exc:
            raise AssertionError(f"seed {seed}: {exc}") from None


def test_the_seeded_problems_reach_every_branch_and_status(seeded_runs):
    ran = set().union(*(run[-1] for run in seeded_runs))
    assert [line for line in BRANCHES if line not in ran] == []
    assert {run[4].status for run in seeded_runs} == set(lsq.TERMINATION_MESSAGES)


def test_each_family_shows_its_feature(seeded_runs):
    def some(family, feature):
        return any(feature(*run[2:]) for run in seeded_runs if run[1] == family)

    assert some("on a bound", lambda x0, bounds, *_: x0[0] in (bounds[0][0], bounds[1][0]))
    assert some("interior", lambda x0, bounds, expected, *_: np.any(expected.active_mask))
    assert some("rank-deficient", lambda x0, bounds, expected, *_: (
        np.linalg.matrix_rank(expected.jac) < expected.jac.shape[1] <= expected.jac.shape[0]
    ))
    assert some("non-finite trial", lambda *run: "Delta = 0.25 * step_h_norm" in run[-1])


@pytest.mark.parametrize("presets", [("S2", "S4"), PRESET_NAMES], ids=["S2+S4", "seven"])
def test_both_stages_of_the_fit_return_scipys_bits(presets, monkeypatch):
    stages = []

    def both(fun, x0, **options):
        expected = scipy_least_squares(fun, x0, method="trf", **options)
        got = lsq.least_squares(fun, x0, **options)
        assert_same_bits(expected, got)
        stages.append(got.status)
        return got

    monkeypatch.setattr(calibrate_module, "least_squares", both)
    measured = calibrate_module.measured_targets()
    pick = lambda values: {k: values[k] for k in presets}
    result = calibrate_module.calibrate(calibrate_module.CalibrationTargets(
        pick(measured.bandwidth_hz), pick(measured.pmp_w), pick(measured.imp_isc)
    ))
    assert len(stages) == 2
    if presets == ("S2", "S4"):
        # stage B ends on a rank-deficient Jacobian
        assert 0.0 in result.fit_record["stage_b"]["jacobian_singular_values"]


def non_finite_jacobian(x):
    # finite at the start, NaN one forward-difference step above it
    return np.array([x[0] ** 2 - 1.0, np.nan if x[0] > 0.5 + 1e-9 else x[0]])


REFUSED = {
    "start outside the bounds": (lambda x: x, [3.0], ([0.0], [2.0]), {}),
    "lower bound not below the upper": (lambda x: x, [1.0], ([1.0], [1.0]), {}),
    "residuals NaN at the start": (lambda x: x * np.nan, [1.0], ([0.0], [2.0]), {}),
    "no evaluations": (lambda x: x, [1.0], ([0.0], [2.0]), {"max_nfev": 0}),
    "every tolerance below EPS": (
        lambda x: x, [1.0], ([0.0], [2.0]), {"ftol": 1e-17, "xtol": 1e-17, "gtol": 1e-17},
    ),
    "a NaN Jacobian step": (non_finite_jacobian, [0.5], ([0.0], [2.0]), {}),
}


@pytest.mark.parametrize("case", REFUSED)
def test_package_errors_where_scipy_raises_builtin_ones(case):
    fun, x0, bounds, options = REFUSED[case]
    with pytest.raises(ValueError), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns of each tolerance below EPS
        scipy_least_squares(fun, x0, bounds=bounds, method="trf", **options)
    with pytest.raises(ParameterError):
        lsq.least_squares(fun, x0, bounds, **options)
