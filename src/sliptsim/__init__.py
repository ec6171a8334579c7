"""Desk-scale simulator for SLIPT optical wireless links built on
multi-segment GaAs photonic power converters.

Subpackages cover the segmented device model (:mod:`sliptsim.ppc`), the
DCO-OFDM modem (:mod:`sliptsim.qam`, :mod:`sliptsim.loading`,
:mod:`sliptsim.ofdm`), end-to-end link composition and calibration
(:mod:`sliptsim.link`, :mod:`sliptsim.calibrate`), the eye-safety
calculator (:mod:`sliptsim.safety`), and the CLI harness
(:mod:`sliptsim.cli`).
"""

from .errors import ParameterError, SliptsimError
from .ppc import (
    DiodeParams,
    IlluminationProfile,
    IVCurve,
    OperatingPoint,
    SegmentGeometry,
    SegmentedDevice,
)
from .ofdm import OfdmConfig
from .loading import BitLoadingPlan, bit_power_loading
from .link import LinkReport, NoiseModel, ReceiverChain, TransmitterModel, run_link
from .safety import SafetyScenario, assess

__version__ = "0.1.0"

__all__ = [
    "DiodeParams",
    "IlluminationProfile",
    "IVCurve",
    "OperatingPoint",
    "SegmentGeometry",
    "SegmentedDevice",
    "OfdmConfig",
    "BitLoadingPlan",
    "bit_power_loading",
    "LinkReport",
    "NoiseModel",
    "ReceiverChain",
    "TransmitterModel",
    "run_link",
    "SafetyScenario",
    "assess",
    "SliptsimError", "ParameterError",
    "__version__",
]
