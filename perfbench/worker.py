"""Runs one benchmark workload in a fresh interpreter; started by ``run.py``.

The first line on stdout is ``{"ready": <CLOCK_MONOTONIC seconds>,
"setup_cpu_s": <CPU seconds>}`` once set-up is done (imports, frozen
calibration, inputs, warm-up); the CPU seconds cover this interpreter from
its start.  The last line is the workload result.  Ops run one at a time (a
closed loop with one client) for ``--seconds``.

Op times are CPU seconds (user + system) of the process that runs the op.
Every op is single-threaded and CPU-bound (BLAS pinned to one thread, inputs
in memory), so on a dedicated core this equals its wall time; unlike wall
time it leaves out the time a shared host hands the core to other tenants.
Wall times are kept in the record beside them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import scipy

import sliptsim
from sliptsim import link, presets
from sliptsim.calibrate import CalibrationResult, calibrated_receiver, measured_targets

import inputs
import metrics
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FROZEN_CALIBRATION = HERE / "data" / "calibration.json"
CALIB_OP = HERE / "calib_op.py"
OP_TIMEOUT_S = 170.0


class LinkContext:
    """Calibrated receivers, modem and op stream for the link workloads."""

    def __init__(self, calibration_result: CalibrationResult, ops: inputs.LinkOps):
        self.ops = ops
        self.config = presets.default_modem()
        self.tx = presets.default_transmitter()
        self.chains = {
            name: calibrated_receiver(calibration_result, name)
            for name in ops.presets
        }

    def run(self, run: inputs.LinkRun):
        # through the module attribute, so a traced op reaches the wrappers
        return link.run_link(
            replace(self.tx, emitted_power_w=run.emitted_power_w),
            self.chains[run.preset], self.config,
            ber_target=metrics.BER_TARGET, seed=run.seed,
            n_payload_frames=run.n_payload_frames,
        )


def link_failure(report) -> str:
    """Empty when the op's output passes the per-op checks."""
    if not (math.isfinite(report.data_rate_bps) and math.isfinite(report.ber)):
        return f"non-finite rate {report.data_rate_bps} or BER {report.ber}"
    if report.ber > 2.0 * metrics.BER_TARGET:
        return f"payload BER {report.ber:.3g} above 2x target"
    return ""


def check_values(run: inputs.LinkRun, report) -> dict:
    return {
        **asdict(run),
        "data_rate_bps": report.data_rate_bps, "ber": report.ber,
        "bits_per_frame": report.total_bits_per_frame, "pmp_w": report.pmp_w,
        "imp_isc": report.imp_isc, "f3db_hz": report.f3db_hz,
        "harvested_w": report.harvested_w, "clip_fraction": report.clip_fraction,
    }


def fidelity(checks: list) -> dict:
    """Fidelity figures of the fixed check pass against the measurements."""
    logs = [
        math.log10(c["data_rate_bps"] / presets.MEASURED_DATA_RATE_BPS[c["preset"]])
        for c in checks
    ]
    bits = [c["bits_per_frame"] * c["n_payload_frames"] for c in checks]
    errors = sum(c["ber"] * b for c, b in zip(checks, bits))
    resid = []
    for c in checks:
        name = c["preset"]
        resid.append(abs(c["f3db_hz"] / presets.MEASURED_BANDWIDTH_HZ[name] - 1.0))
        resid.append(abs(c["pmp_w"] / presets.MEASURED_PMP_W[name] - 1.0))
        resid.append(abs(c["imp_isc"] / presets.MEASURED_IMP_ISC[name] - 1.0))
    return {
        "calib_max_resid": max(resid),
        "rate_log_err": math.sqrt(sum(x * x for x in logs) / len(logs)),
        "ber_over_target": errors / sum(bits) / metrics.BER_TARGET,
    }


def digest(values) -> str:
    blob = json.dumps(values, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def source_digest() -> str:
    """sha256 over the program sources, standing in for the commit id."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sliptsim").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    provenance = json.loads((HERE / "data" / "calibration.provenance.json").read_text())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "source_sha256": source_digest(),
        "frozen_calibration_commit": provenance["commit"],
    }


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup(workload: str, seed: int):
    """Everything before the first timed op; returns the workload context."""
    src = (ROOT / "src").resolve()
    if not Path(sliptsim.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"sliptsim imported from {sliptsim.__file__}, not {src}")
    if workload == "calibrate":
        measured_targets()
        return None
    ctx = LinkContext(
        CalibrationResult.load(FROZEN_CALIBRATION), inputs.LinkOps(workload, seed)
    )
    # warm-up: fill the modem's lazy caches at a power no op uses
    ctx.run(inputs.LinkRun(ctx.ops.presets[0], 2**31, 0.9 * inputs.NOMINAL_POWER_W, 1))
    return ctx


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def closed_loop(op, seconds: float, trace: bool):
    """One client, one op at a time, while the next op should end in time.

    ``op(traced)`` runs one op and returns its (CPU, wall) seconds.  At
    least one op runs; a traced run alternates traced and untraced ops (the
    first is traced) and runs at least two, so tracing overhead is measured
    on the same kind of op.  Returns (CPU times, wall times, traced flags).
    """
    cpu, wall, flags = [], [], []
    start = time.monotonic()
    while True:
        traced = trace and len(cpu) % 2 == 0
        op_cpu, op_wall = op(traced)
        cpu.append(op_cpu)
        wall.append(op_wall)
        flags.append(traced)
        elapsed = time.monotonic() - start
        if (not trace or len(cpu) >= 2) and elapsed + statistics.median(wall) > seconds:
            return cpu, wall, flags


def split(times, flags):
    return ([t for t, f in zip(times, flags) if f], [t for t, f in zip(times, flags) if not f])


def timing_metrics(cpu) -> tuple[dict, str]:
    op_tail, label = metrics.tail(cpu)
    return {
        "op_cpu_p50_s": statistics.median(cpu), "op_cpu_tail_s": op_tail,
        "ops_per_cpu_s": len(cpu) / sum(cpu),
    }, label


def trace_metrics(summary, n_units, check, n_check_units, cpu, wall, flags) -> dict:
    traced_cpu, untraced_cpu = split(cpu, flags)
    return metrics.per_layer_metrics(
        summary, n_units, check, n_check_units,
        sum(split(wall, flags)[0]), traced_cpu, untraced_cpu,
    )


def run_link_workload(ctx: LinkContext, seconds: float, trace: bool) -> dict:
    tracer = Tracer()
    checks, failures, dc_inputs, check_spans = [], [], [], []
    counts = {"ops": 0, "failed_ops": 0, "traced_links": 0}

    def op(traced: bool) -> tuple[float, float]:
        check = counts["ops"] == 0
        counts["ops"] += 1
        runs = ctx.ops.next()
        dc_inputs.extend(run.dc_input for run in runs)
        counts["traced_links"] += len(runs) if traced else 0
        reports = []
        if traced:
            tracer.install()
        t0, c0 = time.perf_counter(), time.process_time()
        for run in runs:
            try:
                reports.append(ctx.run(run))
            except Exception:  # counted as a failed op; the run goes on
                reports.append(traceback.format_exc(limit=3))
        dt, dc = time.perf_counter() - t0, time.process_time() - c0
        if traced:
            tracer.uninstall()
            if check:
                check_spans.append(tracer.summary())
        reasons = [r if isinstance(r, str) else link_failure(r) for r in reports]
        counts["failed_ops"] += any(reasons)
        for run, report, reason in zip(runs, reports, reasons):
            if reason:
                failures.append({"run": asdict(run), "reason": reason})
            elif check:
                checks.append(check_values(run, report))
        return dc, dt

    cpu, wall, flags = closed_loop(op, seconds, trace)
    complete = len(checks) == len(ctx.ops.presets)
    out = {
        "attempted": len(cpu), "failed": counts["failed_ops"],
        "correct": not failures and complete,
        "detail": {
            "op_cpu_s": cpu, "op_wall_s": wall, "links_per_op": len(ctx.ops.presets),
            "failures": failures,
            "repeated_input_share": inputs.repeated_share(dc_inputs),
            "check_pass": checks, "digest": digest(checks),
        },
    }
    if trace:
        summary = tracer.summary()
        out["metrics"] = trace_metrics(
            summary, counts["traced_links"], check_spans[0], len(ctx.ops.presets),
            cpu, wall, flags,
        )
        out["detail"]["spans"] = summary
        return out
    out["metrics"], out["detail"]["op_tail"] = timing_metrics(cpu)
    out["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if complete:
        out["metrics"].update(fidelity(checks))
    return out


def run_calibrate_workload(seconds: float, trace: bool) -> dict:
    """Fresh-interpreter ``calibrate`` ops, then the fig6 check pass on the fit's presets."""
    failures, fits, summaries = [], [], []

    def op(traced: bool) -> tuple[float, float]:
        cmd = [sys.executable, str(CALIB_OP)] + (["--trace"] if traced else [])
        # the op's process is this worker's only child, so the growth of the
        # reaped children's usage is its CPU time
        c0 = children_cpu_s()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=OP_TIMEOUT_S)
        dt, dc = time.perf_counter() - t0, children_cpu_s() - c0
        reason = ""
        if proc.returncode != 0:
            reason = f"exit {proc.returncode}: {proc.stderr[-2000:]}"
        else:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if "refused" in result:
                reason = f"fit refused: {result['refused']}"
            elif fits and result["fit"] != fits[0]:
                reason = "fit differs from the run's first op"
            else:
                fits.append(result["fit"])
                if traced:
                    summaries.append(result["trace"])
        if reason:
            failures.append({"reason": reason})
        return dc, dt

    cpu, wall, flags = closed_loop(op, seconds, trace)
    out = {
        "attempted": len(cpu), "failed": len(failures), "correct": not failures,
        "detail": {
            "op_cpu_s": cpu, "op_wall_s": wall, "failures": failures,
            # every op fits the same bundled measurements, each in its own
            # interpreter, so nothing computed by one op reaches the next
            "repeated_input_share": inputs.repeated_share(["measured_targets"] * len(cpu)),
            "fit": fits[0] if fits else None,
            "digest": digest(fits[0]) if fits else None,
        },
    }
    if trace:
        merged = merge_summaries(summaries)
        out["metrics"] = trace_metrics(merged, len(summaries), summaries[0], 1, cpu, wall, flags)
        out["detail"]["spans"] = merged
        return out

    out["metrics"], out["detail"]["op_tail"] = timing_metrics(cpu)
    out["metrics"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    )
    if fits:
        # the fixed fig6 check pass on the fit just made
        fit = CalibrationResult.from_dict(fits[0])
        ctx = LinkContext(fit, inputs.LinkOps("calibrate", 0))
        checks = []
        for run in ctx.ops.next():
            report = ctx.run(run)
            reason = link_failure(report)
            if reason:
                failures.append({"run": asdict(run), "reason": "check pass: " + reason})
            checks.append(check_values(run, report))
        out["correct"] = not failures
        out["detail"]["check_pass"] = checks
        out["metrics"].update(fidelity(checks), calib_max_resid=fit.max_residual())
    return out


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def merge_summaries(summaries: list) -> dict:
    merged: dict = {}
    for summary in summaries:
        for name, stats in summary.items():
            into = merged.setdefault(name, {})
            for key, value in stats.items():
                into[key] = into.get(key, 0) + value
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    ctx = setup(args.workload, args.seed)
    print(json.dumps({"ready": time.monotonic(), "setup_cpu_s": time.process_time()}), flush=True)
    if args.setup_only:
        return 0
    if args.workload == "calibrate":
        result = run_calibrate_workload(args.seconds, bool(args.trace))
    else:
        result = run_link_workload(ctx, args.seconds, bool(args.trace))
    result["detail"]["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
