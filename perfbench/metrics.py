"""Metric definitions shared by the worker, the entry point and the tests.

End-to-end metrics come from untraced runs, per-layer metrics from traced
runs.  End-to-end times are CPU seconds of the process doing the work (see
``worker.py``); span times are wall seconds.  ``self_s`` is span time minus
the time of its child spans.
"""

from __future__ import annotations

import statistics

BER_TARGET = 4.7e-3

# Layer groups for the self-time shares.  ``link.channel`` is run_link's own
# time (optics, RC filter, noise draws, bit generation).
PPC_SPANS = (
    "ppc.sector_fractions", "ppc.string_voltage", "ppc.short_circuit_current",
    "ppc.string_iv", "ppc.find_mpp", "ppc.imp_isc_ratio", "link.dc_operating_point",
)
MODEM_PREFIXES = ("ofdm.", "qam.", "loading.", "link.channel")

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_cpu_p50_s", "s", "lower"),
    ("op_cpu_tail_s", "s", "lower"),
    ("ops_per_cpu_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("calib_max_resid", "ratio", "lower"),
    ("rate_log_err", "decade", "lower"),
    ("ber_over_target", "ratio", "lower"),
)


def _per_op(span, key):
    return lambda s, n: s.get(span, {}).get(key, 0) / n


def _per_call(span, key):
    def value(s, n):
        st = s.get(span, {})
        return st.get(key, 0) / st["calls"] if st.get("calls") else 0.0
    return value


def _self_s(summary, spans) -> float:
    return sum(summary.get(x, {}).get("self_s", 0.0) for x in spans)


# name, unit, better, value(summary, traced units of work)
PER_LAYER = (
    ("ppc.sector_fractions.calls", "count", "lower", _per_op("ppc.sector_fractions", "calls")),
    ("ppc.sector_fractions.self_s", "s", "lower", _per_op("ppc.sector_fractions", "self_s")),
    ("ppc.sector_fractions.panels", "count", "lower", _per_op("ppc.sector_fractions", "panels")),
    ("ppc.string_voltage.calls", "count", "lower", _per_op("ppc.string_voltage", "calls")),
    ("ppc.string_voltage.self_s", "s", "lower", _per_op("ppc.string_voltage", "self_s")),
    ("ppc.short_circuit_current.calls", "count", "lower", _per_op("ppc.short_circuit_current", "calls")),
    ("ppc.short_circuit_current.self_s", "s", "lower", _per_op("ppc.short_circuit_current", "self_s")),
    ("ppc.string_iv.calls", "count", "lower", _per_op("ppc.string_iv", "calls")),
    ("ppc.string_iv.self_s", "s", "lower", _per_op("ppc.string_iv", "self_s")),
    ("ppc.find_mpp.calls", "count", "lower", _per_op("ppc.find_mpp", "calls")),
    ("ppc.find_mpp.self_s", "s", "lower", _per_op("ppc.find_mpp", "self_s")),
    ("ppc.find_mpp.fallbacks", "count", "lower", _per_op("ppc.find_mpp", "fallbacks")),
    ("ppc.imp_isc_ratio.self_s", "s", "lower", _per_op("ppc.imp_isc_ratio", "self_s")),
    ("link.dc_operating_point.calls", "count", "lower", _per_op("link.dc_operating_point", "calls")),
    ("link.dc_operating_point.self_s", "s", "lower", _per_op("link.dc_operating_point", "self_s")),
    ("ofdm.tx_shape.self_s", "s", "lower", _per_op("ofdm.tx_shape", "self_s")),
    ("ofdm.tx_shape.samples", "count", "lower", _per_op("ofdm.tx_shape", "samples")),
    ("ofdm.synchronize.self_s", "s", "lower", _per_op("ofdm.synchronize", "self_s")),
    ("ofdm.matched_filter.self_s", "s", "lower", _per_op("ofdm.matched_filter", "self_s")),
    ("ofdm.receive_blocks.self_s", "s", "lower", _per_op("ofdm.receive_blocks", "self_s")),
    ("ofdm.receive_blocks.blocks", "count", "lower", _per_op("ofdm.receive_blocks", "blocks")),
    ("ofdm.equalize.self_s", "s", "lower", _per_op("ofdm.equalize", "self_s")),
    ("ofdm.estimate_snr.self_s", "s", "lower", _per_op("ofdm.estimate_snr", "self_s")),
    ("ofdm.modulate_plan.self_s", "s", "lower", _per_op("ofdm.modulate_plan", "self_s")),
    ("ofdm.demodulate_plan.self_s", "s", "lower", _per_op("ofdm.demodulate_plan", "self_s")),
    ("qam.modulate.self_s", "s", "lower", _per_op("qam.modulate", "self_s")),
    ("qam.demodulate.self_s", "s", "lower", _per_op("qam.demodulate", "self_s")),
    ("qam.demodulate.symbols", "count", "lower", _per_op("qam.demodulate", "symbols")),
    ("loading.bit_power_loading.calls", "count", "lower", _per_op("loading.bit_power_loading", "calls")),
    ("loading.bit_power_loading.self_s", "s", "lower", _per_op("loading.bit_power_loading", "self_s")),
    ("loading.required_snr_table.calls", "count", "lower", _per_op("loading.required_snr_table", "calls")),
    ("loading.bits_per_frame", "bit", "higher", _per_call("loading.bit_power_loading", "bits_per_frame")),
    ("link.channel.self_s", "s", "lower", _per_op("link.channel", "self_s")),
    ("link.clip_fraction", "ratio", "lower", _per_call("link.channel", "clip_fraction")),
    ("calibrate.stage_a.self_s", "s", "lower", _per_op("calibrate.stage_a", "self_s")),
    ("calibrate.stage_a.nfev", "count", "lower", _per_op("calibrate.stage_a", "nfev")),
    ("calibrate.stage_b.self_s", "s", "lower", _per_op("calibrate.stage_b", "self_s")),
    ("calibrate.stage_b.nfev", "count", "lower", _per_op("calibrate.stage_b", "nfev")),
    ("calibrate.stage_b.cost", "ratio", "lower", _per_call("calibrate.stage_b", "cost")),
    ("calibrate.refine.self_s", "s", "lower", _per_op("calibrate.refine", "self_s")),
    ("calibrate.harvest_evals", "count", "lower", _per_op("calibrate.harvest", "evals")),
)

SHARES = (
    ("layers.ppc.self_share", "ratio", "lower"),
    ("layers.modem.self_share", "ratio", "lower"),
)
OVERHEAD = ("trace.overhead_ratio", "ratio", "lower")


def per_layer_metrics(
    summary: dict, n_units: int, check: dict, n_check_units: int,
    traced_wall_s: float, traced_cpu: list, untraced_cpu: list,
) -> dict:
    """Layer values of a traced run, keyed by metric name.

    Values are per unit of work: per ``run_link`` call on the link
    workloads, per ``calibrate`` call on ``calibrate``.  Self times average
    every traced op (``summary``); counts come from the first op alone
    (``check``), whose inputs are fixed, so they repeat exactly however many
    ops a run fits.  Shares divide by the traced ops' wall time; the
    overhead ratio compares the median CPU times of traced and untraced ops.
    """
    out = {
        name: float(value(summary, n_units) if name.endswith(".self_s") else value(check, n_check_units))
        for name, _, _, value in PER_LAYER
    }
    modem = [x for x in summary if x.startswith(MODEM_PREFIXES)]
    out["layers.ppc.self_share"] = _self_s(summary, PPC_SPANS) / traced_wall_s
    out["layers.modem.self_share"] = _self_s(summary, modem) / traced_wall_s
    out[OVERHEAD[0]] = statistics.median(traced_cpu) / statistics.median(untraced_cpu) - 1.0
    return out


def per_layer_specs() -> list[tuple]:
    """(name, unit, better) of every per-layer metric, in report order."""
    return [s[:3] for s in PER_LAYER] + list(SHARES) + [OVERHEAD]


def tail(times: list) -> tuple[float, str]:
    """The run's tail op time and its label.

    The 90th percentile (linear interpolation), or the highest percentile
    with at least ten samples beyond it where that lies higher (from about
    100 ops on).  A run holds 5 to 25 ops, where the ten-beyond percentile
    would sit under the median and the slowest op swings with the host, and
    one rule for every count keeps runs with different op counts comparable.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n == 1:
        return ordered[0], "the only op"
    value, label = statistics.quantiles(ordered, n=10, method="inclusive")[-1], f"p90 of {n}"
    if n >= 11 and ordered[n - 11] > value:
        k = n - 11  # ten samples lie beyond ordered[k]
        value, label = ordered[k], f"p{100.0 * (k + 1) / n:.0f} of {n} (10 beyond)"
    return value, label
