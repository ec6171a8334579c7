"""Desk-scale simulator for SLIPT optical wireless links built on
multi-segment GaAs photonic power converters.

Subpackages cover the segmented device model (:mod:`sliptsim.ppc`), the
DCO-OFDM modem (:mod:`sliptsim.qam`, :mod:`sliptsim.loading`,
:mod:`sliptsim.ofdm`), end-to-end link composition and calibration
(:mod:`sliptsim.link`, :mod:`sliptsim.calibrate`), the eye-safety
calculator (:mod:`sliptsim.safety`), and the CLI harness
(:mod:`sliptsim.cli`).

The package root holds only the error contract and the version: every
other name is imported from the module that defines it, so ``import
sliptsim`` loads no model.
"""

from .errors import ParameterError, SliptsimError

__version__ = "0.1.0"

__all__ = ["SliptsimError", "ParameterError", "__version__"]
