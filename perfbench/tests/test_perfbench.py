"""Tests of the benchmark itself: inputs, tracing, metrics and BENCHMARK.json.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import sys
import warnings

import pytest

import inputs
import metrics
import worker
from tracer import Tracer, _count_fallbacks


def _runs(ops, n_ops):
    return [run for _ in range(n_ops) for run in ops.next()]


@pytest.mark.parametrize("workload", ["fig6", "ber-burst"])
def test_same_seed_gives_same_inputs(workload):
    assert _runs(inputs.LinkOps(workload, 7), 30) == _runs(inputs.LinkOps(workload, 7), 30)


def test_seed_changes_drawn_ops_but_not_check_pass():
    a, b = inputs.LinkOps("fig6", 1), inputs.LinkOps("fig6", 2)
    check = a.next()
    assert check == b.next()
    assert [r.preset for r in check] == list(inputs.FIG6_PRESETS)
    assert all(r.emitted_power_w == inputs.NOMINAL_POWER_W for r in check)
    assert all(x != y for x, y in zip(_runs(a, 3), _runs(b, 3)))


@pytest.mark.parametrize("workload", ["fig6", "ber-burst"])
def test_no_repeated_dc_inputs(workload):
    runs = _runs(inputs.LinkOps(workload, 3), 100)
    assert inputs.repeated_share(run.dc_input for run in runs) == 0.0
    nominal = inputs.NOMINAL_POWER_W
    assert all(abs(r.emitted_power_w / nominal - 1.0) <= inputs.POWER_JITTER for r in runs)


def test_repeated_share_counts_repeats():
    assert inputs.repeated_share(["a", "b", "a", "a"]) == 0.5


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_time_minus_child_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.open("outer")
    clock.now = 1.0
    tracer.open("child")
    clock.now = 3.0
    tracer.open("grandchild")
    clock.now = 3.5
    tracer.close()
    clock.now = 4.0
    tracer.close()
    clock.now = 4.5
    tracer.open("child")
    clock.now = 5.0
    tracer.close(items=2)
    clock.now = 10.0
    tracer.close()
    s = tracer.summary()
    assert s["outer"]["total_s"] == 10.0
    assert s["outer"]["self_s"] == 10.0 - (3.0 + 0.5)
    assert s["child"] == {"calls": 2, "total_s": 3.5, "self_s": 3.5 - 0.5, "items": 2}
    assert s["grandchild"]["self_s"] == 0.5


def _bindings():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "sliptsim" or name.startswith("sliptsim.")
        for attr, value in vars(module).items()
    }


def test_install_wraps_bindings_and_uninstall_restores_them():
    from sliptsim import calibrate, link, ppc

    before = _bindings()
    tracer = Tracer()
    with tracer:
        assert ppc.string_voltage is not before[("sliptsim.ppc", "string_voltage")]
        assert link.string_iv is not before[("sliptsim.link", "string_iv")]
        assert calibrate.least_squares is not before[("sliptsim.calibrate", "least_squares")]
        assert link.string_iv is ppc.string_iv
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_calibrate_spans_label_the_least_squares_stages():
    from sliptsim import calibrate
    from sliptsim.presets import MEASURED_BANDWIDTH_HZ

    targets = calibrate.CalibrationTargets(bandwidth_hz=dict(MEASURED_BANDWIDTH_HZ))
    with Tracer() as tracer:
        calibrate.calibrate(targets)  # bandwidths only: stage A, no harvest fit
    spans = tracer.summary()
    assert spans["calibrate.calibrate"]["calls"] == 1
    assert spans["calibrate.stage_a"]["calls"] == 1 and spans["calibrate.stage_a"]["nfev"] > 0
    assert "calibrate.stage_b" not in spans and "ppc.sector_fractions" not in spans


def test_sector_fractions_wrapper_keeps_the_callers_return_shape():
    from sliptsim import ppc
    from sliptsim.presets import default_beam, preset_geometry

    geometry, beam = preset_geometry("L6"), default_beam(center_mm=(0.2, 0.0))
    plain = ppc.sector_fractions(geometry, beam)
    with Tracer() as tracer:
        traced = ppc.sector_fractions(geometry, beam)
        fractions, panels = ppc.sector_fractions(geometry, beam, return_panels=True)
    assert (traced == plain).all() and (fractions == plain).all()
    assert tracer.summary()["ppc.sector_fractions"]["panels"] == 2 * int(panels.sum())


def test_fallback_warnings_are_counted_and_passed_on():
    tracer = Tracer()

    def fake_find_mpp():
        warnings.warn("sampled power is not unimodal; falling back", stacklevel=2)
        warnings.warn("unrelated", stacklevel=2)
        return 42

    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert _count_fallbacks(tracer, "ppc.find_mpp", fake_find_mpp, None, (), {}) == 42
    assert tracer.summary()["ppc.find_mpp"]["fallbacks"] == 1
    assert len(seen) == 2


def test_traced_digest_equals_untraced_digest():
    from sliptsim.calibrate import CalibrationResult

    ctx = worker.LinkContext(
        CalibrationResult.load(worker.FROZEN_CALIBRATION), inputs.LinkOps("fig6", 0)
    )
    run = inputs.LinkRun("L6", 0, inputs.NOMINAL_POWER_W, 2)
    untraced = worker.digest(worker.check_values(run, ctx.run(run)))
    with Tracer() as tracer:
        traced = worker.digest(worker.check_values(run, ctx.run(run)))
    assert traced == untraced
    spans = tracer.summary()
    assert spans["link.channel"]["calls"] == 1
    assert spans["ppc.string_iv"]["calls"] == 1
    assert spans["ofdm.receive_blocks"]["blocks"] > 0


def test_tail_is_p90_until_ten_samples_lie_beyond_a_higher_percentile():
    times = [float(i) for i in range(1000)]
    value, label = metrics.tail(times)
    assert sum(t > value for t in times) == 10 and "10 beyond" in label
    assert metrics.tail([float(i) for i in range(41)]) == (36.0, "p90 of 41")
    assert metrics.tail([3.0, 1.0, 2.0])[0] == pytest.approx(2.8)
    assert metrics.tail([5.0])[0] == 5.0


def test_layer_self_times_use_every_traced_op_and_counts_the_first():
    every = {"ppc.string_iv": {"calls": 3, "self_s": 0.6}, "link.channel": {"self_s": 1.5}}
    first = {"ppc.string_iv": {"calls": 1, "self_s": 0.1}, "link.channel": {"self_s": 0.4}}
    out = metrics.per_layer_metrics(every, 3, first, 1, 3.0, [0.9, 1.0, 1.1], [0.8])
    assert out["ppc.string_iv.self_s"] == pytest.approx(0.2)
    assert out["ppc.string_iv.calls"] == 1.0
    assert out["layers.ppc.self_share"] == pytest.approx(0.2)
    assert out["layers.modem.self_share"] == pytest.approx(0.5)
    assert out["trace.overhead_ratio"] == pytest.approx(0.25)
    assert set(out) == {name for name, _, _ in metrics.per_layer_specs()}


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(inputs.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        metrics.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == (
        metrics.per_layer_specs()
    )


def test_calibrate_op_fits_only_its_family_and_checks_those_presets():
    import calib_op

    targets = calib_op.family_targets()
    family = set(inputs.CALIBRATE_PRESETS)
    assert set(targets.bandwidth_hz) == set(targets.pmp_w) == set(targets.imp_isc) == family
    assert {run.preset for run in inputs.LinkOps("calibrate", 0).next()} == family
