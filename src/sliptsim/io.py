"""Artifact serialization: the CSV exchange format.

All CSV emitters write deterministic bytes for identical inputs: floats are
rendered with ``repr`` (shortest round-trip form), rows keep input order,
and header comment lines carry the reproducibility context (spec hash and
seed) instead of timestamps.
"""

from __future__ import annotations

import csv
import io as _io
import json
import hashlib
from pathlib import Path

import numpy as np

from .loading import BitLoadingPlan
from .ppc import IVCurve

__all__ = [
    "format_value",
    "write_csv",
    "read_csv",
    "spec_hash",
    "iv_curve_to_csv",
    "iv_curve_from_csv",
    "plan_to_csv",
    "plan_from_csv",
]


def format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path, columns, rows, header_comments=()) -> None:
    """Write rows with one comment line per entry and a column header."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    buf = _io.StringIO()
    for line in header_comments:
        buf.write(f"# {line}\n")
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(format_value(v) for v in row) + "\n")
    path.write_text(buf.getvalue(), encoding="utf-8")


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """(columns, string rows), skipping comment lines."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.reader(lines)
    rows = [row for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: no header row")
    return rows[0], rows[1:]


def spec_hash(payload) -> str:
    """Short stable hash of a spec mapping (canonical JSON, sha256)."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Domain objects
# ---------------------------------------------------------------------------

def iv_curve_to_csv(curve: IVCurve, path, header_comments=()) -> None:
    write_csv(
        path,
        ["voltage_V", "current_A"],
        zip(curve.voltages_v, curve.currents_a),
        header_comments=header_comments,
    )


def iv_curve_from_csv(path) -> IVCurve:
    columns, rows = read_csv(path)
    if columns[:2] != ["voltage_V", "current_A"]:
        raise ValueError(f"{path}: expected header voltage_V,current_A")
    data = np.array([[float(r[0]), float(r[1])] for r in rows])
    return IVCurve(data[:, 0], data[:, 1])


def plan_to_csv(plan: BitLoadingPlan, path, header_comments=()) -> None:
    write_csv(
        path,
        ["carrier", "bits", "power_scale"],
        zip(range(plan.bits.size), plan.bits, plan.power),
        header_comments=header_comments,
    )


def plan_from_csv(path) -> BitLoadingPlan:
    columns, rows = read_csv(path)
    if columns[:3] != ["carrier", "bits", "power_scale"]:
        raise ValueError(f"{path}: expected header carrier,bits,power_scale")
    n = len(rows)
    bits = np.zeros(n, dtype=int)
    power = np.zeros(n)
    for r in rows:
        k = int(r[0])
        bits[k] = int(r[1])
        power[k] = float(r[2])
    return BitLoadingPlan(bits, power)
