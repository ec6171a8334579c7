"""sliptsim benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload {calibrate,ber-burst,fig6} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The program is taken from ``src/`` beside
this directory.  This process only times: it pins BLAS/OpenMP to one thread,
starts the worker interpreter (``worker.py``) and, in an untraced run, two
more set-up-only interpreters, so ``setup_s`` is the median of three set-ups.
A set-up is the CPU time a worker spent from its start to its ready signal,
like the op times (see ``worker.py``); the wall time from spawn to ready is
recorded beside it.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The full record (op times, check pass, digest, environment,
spans) goes to ``.bench_results/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RESULTS_DIR = ROOT / ".bench_results"
SETUP_PROBES = 2
RUN_TIMEOUT_S = 175.0
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

sys.path.insert(0, str(HERE))
from inputs import WORKLOADS  # noqa: E402
from metrics import END_TO_END, per_layer_specs  # noqa: E402


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_ENV})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    return env


def stop_group(proc) -> None:
    os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate()


def start_worker(args, setup_only: bool, deadline: float):
    """Run worker.py; returns ((set-up CPU, wall seconds), result dict or None)."""
    cmd = [
        sys.executable, str(WORKER), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + (["--setup-only"] if setup_only else [])
    spawned = time.monotonic()
    # own process group, so a timeout also stops the worker's op processes
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        stop_group(proc)
        raise BenchError("worker ran past the time limit") from None
    except BaseException:  # interrupted or terminated: take the worker down too
        stop_group(proc)
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}")
    ready = json.loads(lines[0])
    setup = (ready["setup_cpu_s"], ready["ready"] - spawned)
    if setup_only:
        return setup, None
    return setup, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a SIGTERM unwinds like Ctrl-C, so the worker's process group is stopped
    signal.signal(signal.SIGTERM, signal.default_int_handler)

    if not (ROOT / "src" / "sliptsim" / "__init__.py").is_file():
        print(f"no sliptsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(start_worker(args, True, deadline)[0])
        setup, result = start_worker(args, False, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)

    measured = dict(result["metrics"])
    if args.trace:
        specs = per_layer_specs()
    else:
        measured["setup_s"] = statistics.median(cpu for cpu, _ in setups)
        specs = END_TO_END
    missing = [name for name, _, _ in specs if name not in measured]
    if missing:
        print(f"benchmark failed: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    line = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": measured[name], "unit": unit} for name, unit, _ in specs
        },
    }
    record = {
        "args": vars(args),
        "setup_cpu_s": [cpu for cpu, _ in setups],
        "setup_wall_s": [wall for _, wall in setups],
        **line,
        "detail": result["detail"],
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record: {path.relative_to(ROOT)}; digest {result['detail'].get('digest')}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
