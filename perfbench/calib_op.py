"""One ``calibrate`` op: ``calibrate`` of the measured targets of the presets
``inputs.CALIBRATE_PRESETS``, in a fresh interpreter.

The caller takes the CPU time of this process from spawn to exit, imports
included, as a user of a fresh ``calibrate`` run spends it.  Prints one JSON
line: the fitted result (or the refusal message) and, with ``--trace``, the
per-span summary.
"""

from __future__ import annotations

import json
import sys

from sliptsim import calibrate
from inputs import CALIBRATE_PRESETS
from tracer import Tracer


def family_targets() -> calibrate.CalibrationTargets:
    measured = calibrate.measured_targets()
    pick = lambda values: {k: v for k, v in values.items() if k in CALIBRATE_PRESETS}
    return calibrate.CalibrationTargets(
        bandwidth_hz=pick(measured.bandwidth_hz),
        pmp_w=pick(measured.pmp_w),
        imp_isc=pick(measured.imp_isc),
    )


def main(argv) -> int:
    tracer = Tracer() if "--trace" in argv else None
    out: dict = {}
    if tracer is not None:
        tracer.install()
    try:
        # through the module attribute, so a traced op reaches the wrapper
        out["fit"] = calibrate.calibrate(family_targets()).to_dict()
    except calibrate.CalibrationError as exc:
        out["refused"] = str(exc)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        out["trace"] = tracer.summary()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
