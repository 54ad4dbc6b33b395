"""Brent's method for a bracketed root of a scalar function.

R. P. Brent, *Algorithms for Minimization without Derivatives* (1973),
ch. 4: inverse quadratic interpolation or secant steps, guarded by
bisection, on a bracket whose ends keep opposite signs.  The operations
are scipy's C ``brentq`` in its order, so on the same bracket this returns
scipy's root to the last bit; the tests pin it to ``scipy.optimize.brentq``.
"""

from __future__ import annotations

import math
from typing import Callable

XTOL = 2e-12
RTOL = 4 * 2.220446049250313e-16    # 4 eps, also the smallest rtol allowed
MAXITER = 100


def _value(f: Callable, x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; "
                         "solver cannot continue.")
    return fx


def brentq(f: Callable[[float], float], a: float, b: float,
           xtol: float = XTOL, rtol: float = RTOL) -> float:
    """Root of f in [a, b], where f(a) and f(b) differ in sign.

    Converges once the bracket is below ``xtol + rtol |x|``.  Raises
    ValueError when f(a) and f(b) have the same sign or f returns NaN, and
    RuntimeError after ``MAXITER`` iterations without convergence.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {RTOL:g})")
    xpre, xcur = float(a), float(b)
    fpre, fcur = _value(f, xpre), _value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(MAXITER):
        if fpre != 0 and fcur != 0 and \
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            # make xcur the end with the smaller |f|
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) \
                    / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise RuntimeError(f"Failed to converge after {MAXITER} iterations.")
