"""Golden artifacts of a fixed set of cheap CLI jobs, checked in two layers.

- Digests: the sha256 of every file the jobs write, against the manifest
  `tests/golden_artifacts.json`. The manifest records the numpy and scipy
  versions it was made under; under other versions this layer skips, since
  their last-digit rounding may differ.
- Values: every cell of every CSV the jobs write, against
  `tests/golden_values.json`, under any numpy and scipy. A number may move
  by `RTOL` of its column's largest recorded magnitude; text, non-finite
  cells, column names and row counts must match exactly.

A change that moves a number on purpose re-records both files with
`PYTHONPATH=src python tests/test_golden.py` and names each moved file in
CHANGES.md.
"""

import copy
import csv
import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from sliptsim.cli import main

MANIFEST = Path(__file__).with_name("golden_artifacts.json")
VALUES = Path(__file__).with_name("golden_values.json")

# Allowed move of a number, relative to its column's largest magnitude: far
# above the 1.6e-14 that rounding alone has moved link columns by, far
# below any change of the model
RTOL = 1e-9

JOBS = {
    "iv": ["iv", "--preset", "L6"],
    "bandwidth": ["bandwidth"],
    "safety": ["safety"],
    "mismatch": ["mismatch", "--preset", "L6"],
    "table1": ["reproduce", "table1"],
    "link": ["link", "--preset", "S2", "--seed", "3"],
}


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def run_jobs(root: Path) -> Path:
    """Write every job's files under ``root``/<job>; returns ``root``."""
    for job, argv in JOBS.items():
        assert main([*argv, "--out", str(root / job)]) == 0
    return root


def written(root: Path) -> list:
    """(key "job/file", path) of every file the jobs wrote, in order."""
    return [
        (f"{job}/{path.name}", path)
        for job in JOBS
        for path in sorted((root / job).iterdir())
    ]


def digests(root: Path) -> dict:
    """sha256 of every file the jobs wrote, keyed "job/file"."""
    return {key: hashlib.sha256(path.read_bytes()).hexdigest() for key, path in written(root)}


def cell(text: str):
    """A CSV cell as a finite float, or else as its text."""
    try:
        value = float(text)
    except ValueError:
        return text
    return value if math.isfinite(value) else text


def values(root: Path) -> dict:
    """Every CSV's columns, keyed "job/file" then column name; the comment
    lines (the run header) are left to the digest layer."""
    found = {}
    for key, path in written(root):
        with path.open(newline="", encoding="utf-8") as f:
            rows = list(csv.reader(line for line in f if not line.startswith("#")))
        header, body = rows[0], rows[1:]
        found[key] = {name: [cell(row[i]) for row in body] for i, name in enumerate(header)}
    return found


def mismatches(recorded: dict, found: dict) -> list:
    """"file" or "file:column" for each file or column of ``found`` that
    differs from ``recorded``."""
    bad = []
    for key in sorted(recorded.keys() | found.keys()):
        old, new = recorded.get(key), found.get(key)
        if old is None or new is None or list(old) != list(new):
            bad.append(key)
            continue
        for name, column in old.items():
            scale = max((abs(v) for v in column if isinstance(v, float)), default=0.0)
            same = len(column) == len(new[name]) and all(
                abs(a - b) <= RTOL * scale
                if isinstance(a, float) and isinstance(b, float) else a == b
                for a, b in zip(column, new[name])
            )
            if not same:
                bad.append(f"{key}:{name}")
    return bad


def dump_values(found: dict) -> str:
    """``found`` as JSON text with one column per line."""
    files = []
    for key, columns in found.items():
        lines = ",\n".join(
            f"    {json.dumps(name)}: {json.dumps(column)}" for name, column in columns.items()
        )
        files.append(f"  {json.dumps(key)}: {{\n{lines}\n  }}")
    return "{\n" + ",\n".join(files) + "\n}\n"


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    return run_jobs(tmp_path_factory.mktemp("golden"))


def test_artifacts_match_the_recorded_digests(artifacts):
    recorded = json.loads(MANIFEST.read_text(encoding="utf-8"))
    if recorded["versions"] != versions():
        pytest.skip(f"digests recorded under {recorded['versions']}, running {versions()}")
    assert digests(artifacts) == recorded["sha256"]


def test_artifacts_match_the_recorded_values(artifacts):
    recorded = json.loads(VALUES.read_text(encoding="utf-8"))
    assert mismatches(recorded, values(artifacts)) == []


def test_one_value_moved_beyond_the_tolerance_is_caught():
    recorded = json.loads(VALUES.read_text(encoding="utf-8"))
    rate = recorded["link/report.csv"]["data_rate_bps"]
    for factor, expected in [(0.5, []), (-0.5, []), (2.0, ["link/report.csv:data_rate_bps"])]:
        moved = copy.deepcopy(recorded)
        moved["link/report.csv"]["data_rate_bps"][0] = rate[0] + factor * RTOL * abs(rate[0])
        assert mismatches(recorded, moved) == expected
    # a small entry of a large column moves by its column's scale
    current = recorded["iv/iv.csv"]["current_A"]
    scale = max(map(abs, current))
    k = int(np.argmin(np.abs(current)))
    moved = copy.deepcopy(recorded)
    moved["iv/iv.csv"]["current_A"][k] += 2.0 * RTOL * scale
    assert mismatches(recorded, moved) == ["iv/iv.csv:current_A"]
    # text, a dropped row and a renamed column must match exactly
    moved = copy.deepcopy(recorded)
    moved["safety/safety.csv"]["verdict"][0] = "unsafe"
    moved["mismatch/mismatch.csv"]["pmp_w"].pop()
    moved["table1/table1.csv"]["pmp_sim"] = moved["table1/table1.csv"].pop("pmp_sim_w")
    assert mismatches(recorded, moved) == [
        "mismatch/mismatch.csv:pmp_w", "safety/safety.csv:verdict", "table1/table1.csv",
    ]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        run_jobs(Path(root))
        manifest = {"versions": versions(), "sha256": digests(Path(root))}
        found = values(Path(root))
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    VALUES.write_text(dump_values(found), encoding="utf-8")
