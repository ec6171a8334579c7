"""Golden artifact digests: the sha256 of every file a fixed set of cheap CLI
jobs writes, against the manifest `tests/golden_artifacts.json`.

The manifest records the numpy and scipy versions it was made under; under
other versions the test skips, since their last-digit rounding may differ.
A change that moves a number on purpose re-records the manifest with
`PYTHONPATH=src python tests/test_golden.py` and names each moved file in
CHANGES.md.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from sliptsim.cli import main

MANIFEST = Path(__file__).with_name("golden_artifacts.json")

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


def digests(root: Path) -> dict:
    """sha256 of every file each job writes, keyed "job/file"."""
    found = {}
    for job, argv in JOBS.items():
        out = root / job
        assert main([*argv, "--out", str(out)]) == 0
        for path in sorted(out.iterdir()):
            found[f"{job}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


def test_artifacts_match_the_recorded_digests(tmp_path):
    recorded = json.loads(MANIFEST.read_text(encoding="utf-8"))
    if recorded["versions"] != versions():
        pytest.skip(f"digests recorded under {recorded['versions']}, running {versions()}")
    assert digests(tmp_path) == recorded["sha256"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        manifest = {"versions": versions(), "sha256": digests(Path(root))}
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
