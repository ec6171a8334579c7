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
        """Refuse a NaN or infinite float or tuple entry among the fields of
        dataclass ``obj``; the field named ``may_be_inf`` may be +inf.

        A float is any non-integral ``numbers.Real`` (numpy registers its
        floating scalars there); ints are left alone, as ``math.isfinite``
        overflows on a huge one.  The plain ``float`` test comes first only
        because it is ten times cheaper than the abstract ones."""
        for name, value in vars(obj).items():
            if isinstance(value, float) or (
                isinstance(value, Real) and not isinstance(value, Integral)
            ):
                if math.isfinite(value) or (name == may_be_inf and value == math.inf):
                    continue
            elif type(value) is not tuple or all(map(math.isfinite, value)):
                continue
            raise ParameterError(f"{name} must be finite, got {value!r}")
