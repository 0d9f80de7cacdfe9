"""The continuum integral behind the d=3 correlation-decay analysis.

    J(R) = int_0^inf du/u log[(R^-2 + (u+1)^2) / (R^-2 + (u-1)^2)]
         = 2 pi arctan R,

increasing in R with limit 2 pi * pi/2 = pi^2.  Derivation: with c = 1/R,
differentiating under the integral gives

    dJ/dc = -8c int_0^inf du / [(c^2 + (u+1)^2)(c^2 + (u-1)^2)].

The integrand is even in u, so this is -4c times the integral over the
whole line of a product of two Lorentzians of width c centred at -1 and
+1: their convolution at distance 2, (pi/c)^2 (2c/pi) / (4 + 4c^2).  So
dJ/dc = -2 pi / (1 + c^2).  As c -> inf the integrand is at most
4 / (c^2 + (u-1)^2), so J -> 0, and integrating back from c = inf gives
J = 2 pi (pi/2 - arctan c) = 2 pi arctan R.

The cylindrical double integral of the same analysis follows as
I(R) = (pi / 4R) J(R) = pi^2 arctan(R) / (2R).  The tests hold both closed
forms to independent adaptive quadratures (``tests/conftest.py``).
"""

from __future__ import annotations

import math

PI2 = math.pi ** 2


def j_of_r(R: float) -> float:
    """J(R) = 2 pi arctan R, for R > 0."""
    if not R > 0.0:
        raise ValueError("R must be > 0")
    return 2.0 * math.pi * math.atan(R)
