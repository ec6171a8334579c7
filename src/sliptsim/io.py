"""Artifact serialization: the CSV exchange format.  Each artifact's
columns are declared by the CLI handler that writes it.

``write_csv`` writes deterministic bytes for identical inputs: floats are
rendered with ``repr`` (shortest round-trip form), rows keep input order,
and header comment lines carry the reproducibility context (spec hash and
seed) instead of timestamps.
"""

from __future__ import annotations

import io as _io
import json
import hashlib
import sys
from pathlib import Path

from .errors import ParameterError

__all__ = [
    "write_csv",
    "spec_hash",
]


def _format_value(v) -> str:
    # a numpy scalar exists only once numpy is loaded: no import needed
    np = sys.modules.get("numpy")
    if isinstance(v, bool) or (np and isinstance(v, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, int) or (np and isinstance(v, np.integer)):
        return str(int(v))
    if isinstance(v, float) or (np and isinstance(v, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path, columns, rows, header_comments=()) -> None:
    """Write rows with one comment line per entry and a column header."""
    path = Path(path)
    buf = _io.StringIO()
    for line in header_comments:
        buf.write(f"# {line}\n")
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(_format_value(v) for v in row) + "\n")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(buf.getvalue(), encoding="utf-8")
    except OSError as exc:  # a directory in the way, or no permission
        raise ParameterError(f"{path}: cannot write the artifact: {exc.strerror}") from exc


def spec_hash(payload) -> str:
    """Short stable hash of a spec mapping (canonical JSON, sha256)."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]

