"""Span recorder that wraps sliptsim's public layer functions from outside.

Nothing under ``src/`` is edited: :meth:`Tracer.install` replaces each
traced function at its defining module attribute and at every binding a
``sliptsim`` module imported with ``from .x import f``, and
:meth:`Tracer.uninstall` puts the originals back.  Calls inside a module
resolve their globals at call time, so intra-module calls are traced too.

A span's self time is its duration minus the durations of its direct child
spans.  Spans are aggregated per name as they close (calls, total, self and
named counters), which keeps a 48 s calibration with ~270k spans cheap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import warnings

import numpy as np

# span name -> (module, function) pairs it covers.  Several functions may
# share one span name (the TX shaping and equalizer stages).
SPANS = {
    "ppc.sector_fractions": [("ppc", "sector_fractions")],
    "ppc.string_voltage": [("ppc", "string_voltage")],
    "ppc.short_circuit_current": [("ppc", "short_circuit_current")],
    "ppc.string_iv": [("ppc", "string_iv")],
    "ppc.find_mpp": [("ppc", "find_mpp")],
    "ppc.imp_isc_ratio": [("ppc", "imp_isc_ratio")],
    "link.dc_operating_point": [("link", "dc_operating_point")],
    "link.channel": [("link", "run_link")],
    "ofdm.tx_shape": [
        ("ofdm", "make_preamble"), ("ofdm", "assemble_frame"), ("ofdm", "overlap_add"),
    ],
    "ofdm.synchronize": [("ofdm", "synchronize")],
    "ofdm.matched_filter": [("ofdm", "matched_filter")],
    "ofdm.receive_blocks": [("ofdm", "receive_blocks")],
    "ofdm.equalize": [("ofdm", "estimate_channel"), ("ofdm", "equalize")],
    "ofdm.estimate_snr": [("ofdm", "estimate_snr")],
    "ofdm.modulate_plan": [("ofdm", "modulate_plan")],
    "ofdm.demodulate_plan": [("ofdm", "demodulate_plan")],
    "qam.modulate": [("qam", "qam_modulate")],
    "qam.demodulate": [("qam", "qam_demodulate")],
    "loading.bit_power_loading": [("loading", "bit_power_loading")],
    "loading.required_snr_table": [("loading", "required_snr_table")],
}

FALLBACK_TEXT = "not unimodal"


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s", "counters")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counters = {}

    def as_dict(self) -> dict:
        return {
            "calls": self.calls, "total_s": self.total_s, "self_s": self.self_s,
            **self.counters,
        }


class Tracer:
    """Nested span timer plus the module patching that feeds it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[list] = []  # [name, start, child_s]
        self._patched: list[tuple] = []  # (module, attribute, original)
        self._calibrate_depth = 0
        self._stage = 0

    # -- span bookkeeping ---------------------------------------------------

    def open(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def close(self, **counters) -> None:
        name, start, child_s = self._stack.pop()
        duration = self.clock() - start
        st = self._stats(name)
        st.calls += 1
        st.total_s += duration
        st.self_s += duration - child_s
        for key, value in counters.items():
            st.counters[key] = st.counters.get(key, 0) + value
        if self._stack:
            self._stack[-1][2] += duration

    def count(self, name: str, key: str, value=1) -> None:
        st = self._stats(name)
        st.counters[key] = st.counters.get(key, 0) + value

    def _stats(self, name: str) -> SpanStats:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        return st

    def summary(self) -> dict:
        return {name: st.as_dict() for name, st in sorted(self.stats.items())}

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in SPANS, ``calibrate`` and its ``least_squares``."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {
            name: importlib.import_module(f"sliptsim.{name}")
            for name in ("ppc", "link", "ofdm", "qam", "loading", "calibrate")
        }
        for span, targets in SPANS.items():
            for mod_name, attr in targets:
                original = getattr(modules[mod_name], attr)
                self._patch_everywhere(original, self._wrap(span, original))
        calib = modules["calibrate"]
        self._patch_everywhere(calib.calibrate, self._wrap_calibrate(calib.calibrate))
        self._patch(calib, "least_squares", self._wrap_least_squares(calib.least_squares))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _patch(self, module, attr, replacement) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _patch_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "sliptsim" or mod_name.startswith("sliptsim.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    def _wrap(self, span: str, fn):
        counter = _COUNTERS.get(fn.__name__)
        signature = inspect.signature(fn) if counter is not None else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is None:
                tracer.open(span)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close()
            return counter(tracer, span, fn, signature, args, kwargs)

        return traced

    def _wrap_calibrate(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced_calibrate(*args, **kwargs):
            tracer._calibrate_depth += 1
            tracer._stage = 0
            depth = len(tracer._stack)
            tracer.open("calibrate.calibrate")
            try:
                return fn(*args, **kwargs)
            finally:
                # also closes the refine span opened after stage B
                while len(tracer._stack) > depth:
                    tracer.close()
                tracer._calibrate_depth -= 1

        return traced_calibrate

    def _wrap_least_squares(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced_least_squares(*args, **kwargs):
            stage = "calibrate.stage_a" if tracer._stage == 0 else "calibrate.stage_b"
            tracer._stage += 1
            tracer.open(stage)
            sol = None
            try:
                sol = fn(*args, **kwargs)
                return sol
            finally:
                if sol is None:
                    tracer.close()
                else:
                    tracer.close(nfev=int(sol.nfev), cost=float(sol.cost))
                if stage == "calibrate.stage_b" and tracer._calibrate_depth:
                    # offset bisection and final residuals run until
                    # calibrate() returns; the calibrate wrapper closes it
                    tracer.open("calibrate.refine")

        return traced_least_squares


# -- counters taken at the span boundary ---------------------------------------

def _count_panels(tracer, span, fn, signature, args, kwargs):
    bound = signature.bind(*args, **kwargs)
    wants_panels = bound.arguments.get("return_panels", False)
    bound.arguments["return_panels"] = True
    if tracer._calibrate_depth:
        tracer.count("calibrate.harvest", "evals")
    tracer.open(span)
    panels = 0
    try:
        fractions, terminal = fn(*bound.args, **bound.kwargs)
        panels = int(terminal.sum())
    finally:
        tracer.close(panels=panels)
    return (fractions, terminal) if wants_panels else fractions


def _count_fallbacks(tracer, span, fn, signature, args, kwargs):
    tracer.open(span)
    fallbacks = 0
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fn(*args, **kwargs)
        fallbacks = sum(FALLBACK_TEXT in str(w.message) for w in caught)
    finally:
        tracer.close(fallbacks=fallbacks)
    for w in caught:  # pass the warnings on unchanged
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)
    return result


def _result_counter(key, measure):
    def counted(tracer, span, fn, signature, args, kwargs):
        tracer.open(span)
        value = 0
        try:
            result = fn(*args, **kwargs)
            value = measure(result, signature.bind(*args, **kwargs).arguments)
            return result
        finally:
            tracer.close(**{key: value})
    return counted


_COUNTERS = {
    "sector_fractions": _count_panels,
    "find_mpp": _count_fallbacks,
    "overlap_add": _result_counter("samples", lambda r, a: len(r)),
    "receive_blocks": _result_counter("blocks", lambda r, a: int(r.shape[0])),
    "qam_demodulate": _result_counter("symbols", lambda r, a: int(np.size(a["symbols"]))),
    "bit_power_loading": _result_counter("bits_per_frame", lambda r, a: int(r.total_bits)),
    "run_link": _result_counter("clip_fraction", lambda r, a: float(r.clip_fraction)),
}
