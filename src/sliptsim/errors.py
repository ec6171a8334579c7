"""The package's errors: each one it raises on purpose is a SliptsimError
with a builtin parent too; any other exception leaving it is a bug."""

import math
from numbers import Integral, Real

__all__ = ["SliptsimError", "ParameterError"]


class SliptsimError(Exception):
    """Base of every error the package raises on purpose."""


class ParameterError(SliptsimError, ValueError):
    """An argument or field outside its legal range."""

    @staticmethod
    def require_finite(obj, may_be_inf: str = "") -> None:
        """Refuse a NaN or infinite float among the fields of dataclass
        ``obj``; the field named ``may_be_inf`` may be +inf.

        A float is any non-integral ``numbers.Real`` (numpy registers its
        floating scalars there); ints are left alone, as ``math.isfinite``
        overflows on a huge one.  The plain ``float`` test comes first only
        because it is ten times cheaper than the abstract ones."""
        for name, value in vars(obj).items():
            if (isinstance(value, float) or (
                isinstance(value, Real) and not isinstance(value, Integral)
            )) and not (math.isfinite(value) or (name == may_be_inf and value == math.inf)):
                raise ParameterError(f"{name} must be finite, got {value!r}")

    @staticmethod
    def require_integer(name: str, value) -> None:
        """Refuse ``value`` unless it is a non-bool ``numbers.Integral``
        (numpy registers its integer scalars there)."""
        if type(value) is not int and (isinstance(value, bool) or not isinstance(value, Integral)):
            raise ParameterError(f"{name} must be an integer, got {value!r}")
