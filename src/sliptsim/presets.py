"""Bundled device presets and measured calibration targets.

Seven fabricated configurations exist: the 1 mm (S) and 1.5 mm (M) cells
with 2 and 4 segments, and the 2.08 mm (L) cell with 2, 4 and 6 segments.
Per-segment junction areas exceed (circle area)/n because interconnect
junction regions lie outside the circular active area; the illumination
model still splits the circle into equal sectors.

The constants are read once from ``data/presets.json``.  ``PRESET_NAMES``
orders the configurations by cell diameter, then segment count, and every
per-preset mapping below follows that order.
"""

from __future__ import annotations

import json
from importlib import resources

from .link import ReceiverChain, TransmitterModel
from .ofdm import OfdmConfig
from .ppc import DiodeParams, IlluminationProfile, SegmentGeometry, SegmentedDevice

__all__ = [
    "PRESET_NAMES",
    "CELL_DIAMETER_MM",
    "JUNCTION_AREA_MM2",
    "MEASURED_BANDWIDTH_HZ",
    "MEASURED_PMP_W",
    "MEASURED_IMP_ISC",
    "MEASURED_DATA_RATE_BPS",
    "MEASURED_PCE",
    "preset_geometry",
    "device_preset",
    "default_modem",
    "default_transmitter",
    "default_beam",
    "default_receiver",
    "load_preset_file",
]


def load_preset_file(path=None) -> dict:
    """Load a preset file (the bundled one when no path is given)."""
    if path is None:
        ref = resources.files("sliptsim").joinpath("data/presets.json")
        return json.loads(ref.read_text())
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


_BUNDLED = load_preset_file()

# cell diameter per size letter, mm
CELL_DIAMETER_MM = dict(sorted(_BUNDLED["cell_diameter_mm"].items(), key=lambda kv: kv[1]))

PRESET_NAMES = tuple(
    sorted(
        _BUNDLED["junction_area_mm2"],
        key=lambda name: (CELL_DIAMETER_MM[name[0]], int(name[1:])),
    )
)


def _per_preset(section: str) -> dict:
    values = _BUNDLED[section]
    return {name: values[name] for name in PRESET_NAMES}


# per-segment junction area, mm^2
JUNCTION_AREA_MM2 = _per_preset("junction_area_mm2")

# measured communication bandwidth (SNR > 0 dB extent), Hz
MEASURED_BANDWIDTH_HZ = _per_preset("measured_bandwidth_hz")

# measured harvested power at the maximum power point, W
MEASURED_PMP_W = _per_preset("measured_pmp_w")

# measured MPP-current to short-circuit-current ratio
MEASURED_IMP_ISC = _per_preset("measured_imp_isc")

# recorded data rate at the 4.7e-3 BER threshold, bits/s
MEASURED_DATA_RATE_BPS = _per_preset("measured_data_rate_bps")

# reported power conversion efficiency (against the 2.3 mW emitted power)
MEASURED_PCE = _per_preset("measured_pce")


def _split_name(name: str) -> tuple[str, int]:
    name = name.upper()
    if name not in JUNCTION_AREA_MM2:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        )
    return name[0], int(name[1:])


def preset_geometry(name: str) -> SegmentGeometry:
    size, n = _split_name(name)
    return SegmentGeometry(
        cell_diameter_mm=CELL_DIAMETER_MM[size],
        n_segments=n,
        junction_area_mm2=JUNCTION_AREA_MM2[name.upper()],
    )


def device_preset(name: str, diode: DiodeParams | None = None) -> SegmentedDevice:
    """Segmented device for one of the fabricated configurations."""
    return SegmentedDevice(
        geometry=preset_geometry(name),
        diode=diode if diode is not None else DiodeParams(),
        device_id=name.upper(),
    )


def default_modem() -> OfdmConfig:
    """Modem constants of the experimental system."""
    return OfdmConfig()


def default_transmitter() -> TransmitterModel:
    """VCSEL at its documented bias and drive settings."""
    return TransmitterModel()


def default_beam(
    responsivity_a_w: float = 0.42,
    beam_radius_mm: float = 0.8,
    total_power_w: float = TransmitterModel.emitted_power_w,
    center_mm: tuple[float, float] = (0.0, 0.0),
) -> IlluminationProfile:
    """Focused spot at the receiver plane; values are calibration defaults."""
    return IlluminationProfile(
        total_power_w=total_power_w,
        beam_radius_mm=beam_radius_mm,
        center_mm=center_mm,
        responsivity_a_w=responsivity_a_w,
    )


def default_receiver(
    name: str,
    diode: DiodeParams | None = None,
    beam: IlluminationProfile | None = None,
    **chain_kwargs,
) -> ReceiverChain:
    """Receiver chain around one preset with default read-out values."""
    return ReceiverChain(
        device=device_preset(name, diode),
        beam=beam if beam is not None else default_beam(),
        **chain_kwargs,
    )
