"""One bracketed scalar root finder: Brent's method (Brent 1973,
*Algorithms for Minimization Without Derivatives*, ch. 4).

:func:`brent_root` is a line-for-line port of scipy 1.17's ``brentq``: the
iteration of its C ``brentq.c``, with the same float operations in the same
order on Python floats, and its Python wrapper's NaN check and 100-iteration
budget.  It returns the bits ``scipy.optimize.brentq`` returns at the same
tolerances, without loading ``scipy.optimize``.  The searches of ``ppc``
(Isc, MPP, load line), ``qam.required_snr`` and the fit's beam-offset
refine all run on it.
"""

from __future__ import annotations

import math

from .errors import ParameterError, SliptsimError

__all__ = ["ConvergenceError", "MIN_RTOL", "brent_root"]

MAX_ITERATIONS = 100

# the smallest relative tolerance the iteration resolves: a step of half of
# it always moves the iterate
MIN_RTOL = 4 * 2.0**-52


class ConvergenceError(SliptsimError, RuntimeError):
    """The search did not converge within :data:`MAX_ITERATIONS`."""


def brent_root(f, lo: float, hi: float, xtol: float, rtol: float) -> float:
    """A root of ``f`` in the bracket ``[lo, hi]``, to within
    ``xtol + rtol*|root|``.

    ``f`` is called with one Python float and must return a real number;
    ``f(lo)`` and ``f(hi)`` must differ in sign unless one of them is 0.

    Raises:
        ParameterError: ``f`` returns NaN, ``f(lo)`` and ``f(hi)`` have the
            same sign, or ``xtol <= 0`` or ``rtol < MIN_RTOL``.
        ConvergenceError: no convergence within :data:`MAX_ITERATIONS`.
    """
    xtol, rtol = float(xtol), float(rtol)
    if not (xtol > 0.0 and rtol >= MIN_RTOL):
        raise ParameterError(f"need xtol > 0 and rtol >= {MIN_RTOL!r}, got {xtol!r}, {rtol!r}")

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ParameterError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(lo), float(hi)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    # on values that are neither zero nor NaN, "x < 0" is C's signbit
    if (fpre < 0.0) == (fcur < 0.0):
        raise ParameterError("f(a) and f(b) must have different signs")
    for _ in range(MAX_ITERATIONS):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre

            fpre = fcur
            fcur = fblk
            fblk = fpre

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                # C divides a zero (underflowed) denominator to +-inf or NaN,
                # which fails the step test below and bisects
                denominator = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / denominator if denominator else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta

        fcur = value(xcur)
    raise ConvergenceError(
        f"Failed to converge after {MAX_ITERATIONS} iterations, value is {xcur:f}"
    )
