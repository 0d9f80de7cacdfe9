"""Continuum integrals behind the d=3 correlation-decay analysis.

Two routes to the same asymptotics are kept deliberately independent so
they can cross-check each other:

* ``j_of_r``      1-d integral J(R) = int_0^inf du/u log[(R^-2 + (u+1)^2)
                  / (R^-2 + (u-1)^2)], increasing in R with limit pi^2;
* ``i_of_r``      2-d cylindrical-coordinate integral I(R) over (z, rbar)
                  of rbar / [(1 + (z-R)^2 + rbar^2)(1 + (z+R)^2 + rbar^2)],
                  related by I(R) = (pi / 4R) J(R);
* ``j_limit_reference``  the closed-form limit 8 int_0^1 log x / (x^2 - 1)
                  dx = pi^2.

``sphere_integral`` evaluates int_{S^2} (1 + L^2 |z - e|^2)^{-q} dlambda,
whose large-L power L^{-2q} drives the surface-versus-volume comparison.

Improper integrals are truncated at explicit cutoffs with analytic tail
bounds folded into the reported error, rather than transformed; quadrature
on each finite panel is adaptive Gauss-Kronrod (scipy.integrate.quad).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import NumericalError

PI2 = math.pi ** 2


class QuadratureError(NumericalError):
    """Requested tolerance could not be certified."""


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tolerance: float = 1e-10
    rel_tolerance: float = 1e-8
    max_subdivisions: int = 200
    cutoff: float | None = None  # overrides the derived upper limits

    def __post_init__(self) -> None:
        if not (0.0 < self.abs_tolerance < math.inf
                and 0.0 < self.rel_tolerance < math.inf):
            raise ValueError("tolerances must be > 0 and finite")
        if self.max_subdivisions < 10:
            raise ValueError("max_subdivisions must be >= 10")


DEFAULT_QUADRATURE = QuadratureConfig()


def _quad(f, a: float, b: float, cfg: QuadratureConfig, *,
          points=None, epsabs=None, epsrel=None) -> tuple[float, float]:
    """Adaptive panel integral; returns (value, error estimate) or raises."""
    from scipy.integrate import quad
    try:
        res = quad(f, a, b, points=points, limit=cfg.max_subdivisions,
                   epsabs=cfg.abs_tolerance if epsabs is None else epsabs,
                   epsrel=cfg.rel_tolerance if epsrel is None else epsrel,
                   full_output=1)
    except OverflowError:
        raise QuadratureError(f"quadrature on [{a:g}, {b:g}] failed: "
                              "the integrand overflows") from None
    if len(res) > 3:
        raise QuadratureError(
            f"quadrature on [{a:g}, {b:g}] failed: {res[3]}")
    return float(res[0]), float(res[1])


def _check_budget(value: float, err: float, cfg: QuadratureConfig, label: str) -> None:
    budget = max(cfg.abs_tolerance, cfg.rel_tolerance * abs(value))
    if err > budget:
        raise QuadratureError(
            f"{label}: error estimate {err:.2e} exceeds tolerance {budget:.2e}")


def _geometric_panels(f, lo: float, hi: float, cfg: QuadratureConfig,
                      growth: float = 4.0, epsabs: float | None = None) -> tuple[float, float]:
    """Sum adaptive quadratures over geometrically growing panels [lo, hi]."""
    total = 0.0
    err = 0.0
    a = lo
    while a < hi:
        b = min(a * growth, hi)
        v, e = _quad(f, a, b, cfg,
                     epsabs=cfg.abs_tolerance / 10.0 if epsabs is None else epsabs)
        total += v
        err += e
        a = b
    return total, err


# ---------------------------------------------------------------------------
# J(R) and its limit


def j_integrand(u: float, R: float) -> float:
    """(1/u) log[(R^-2 + (u+1)^2) / (R^-2 + (u-1)^2)].

    The log-ratio vanishes linearly at u = 0, so the integrand extends
    continuously with value 4 / (R^-2 + 1); the log1p form keeps both the
    small-u and large-u regimes stable.
    """
    r2 = R ** -2
    if u < 1e-12:
        return 4.0 / (r2 + 1.0)
    return math.log1p(4.0 * u / (r2 + (u - 1.0) ** 2)) / u


def j_of_r(R: float, cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """J(R), truncated at a cutoff where the tail is provably below tolerance.

    For u >= U > 1 the integrand is bounded by 4 / (u - 1)^2, so the
    discarded tail is at most 4 / (U - 1); the cutoff is chosen to push
    that below the error budget (or taken from cfg.cutoff).
    """
    if R <= 0.0:
        raise ValueError("R must be > 0")
    tail_target = max(cfg.abs_tolerance, cfg.rel_tolerance) / 4.0
    U = cfg.cutoff if cfg.cutoff is not None else 1.0 + 4.0 / tail_target
    if not 2.0 < U < math.inf:
        raise ValueError("cutoff must exceed 2 and be finite")
    f = lambda u: j_integrand(u, R)
    head, err_head = _quad(f, 0.0, 2.0, cfg, points=[1.0],
                           epsabs=cfg.abs_tolerance / 10.0)
    body, err_body = _geometric_panels(f, 2.0, U, cfg)
    tail_bound = 4.0 / (U - 1.0)
    value = head + body
    _check_budget(value, err_head + err_body + tail_bound, cfg, "j_of_r")
    return value


def _j_limit_integrand(x: float) -> float:
    # log x / (x^2 - 1); removable singularity at x = 1 with limit 1/2
    if abs(x - 1.0) < 1e-9:
        return 0.5
    return math.log(x) / (x * x - 1.0)


def j_limit_reference(cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """The limit of J(R) as R -> infinity: 8 int_0^1 log x / (x^2 - 1) dx.

    Evaluates to pi^2; the integrable log singularity at 0 and the removable
    point at 1 are both handled by the adaptive rule.
    """
    v, e = _quad(_j_limit_integrand, 0.0, 1.0, cfg,
                 epsabs=cfg.abs_tolerance / 10.0, epsrel=cfg.rel_tolerance / 10.0)
    value = 8.0 * v
    _check_budget(value, 8.0 * e, cfg, "j_limit_reference")
    return value


# ---------------------------------------------------------------------------
# I(R)


def _i_quadrature(R: float, cfg: QuadratureConfig,
                  eps: float) -> tuple[float, float]:
    """Nested quadrature of I(R) targeting absolute error eps.

    Cutoffs come from analytic tail bounds: per z, the inner integrand
    beyond rbar = S contributes at most 1/(2 S^2); beyond z = Z the inner
    integral is below 1/(2 (z - R)^2).  Choosing S^2 = 4 pi Z / eps and
    Z = R + 4 pi / eps puts each discarded tail below eps / 4.
    """
    Z = R + 4.0 * math.pi / eps
    S = math.sqrt(4.0 * math.pi * Z / eps)
    knee = max(2.0 * R, 2.0)
    n_body = max(1, math.ceil(math.log(Z / knee) / math.log(4.0)))
    quad_budget = eps / (16.0 * math.pi)

    def inner(z: float) -> float:
        a = 1.0 + (z - R) ** 2
        b = 1.0 + (z + R) ** 2

        def f(rb: float) -> float:
            s = rb * rb
            return rb / ((a + s) * (b + s))

        head, _ = _quad(f, 0.0, math.sqrt(a), cfg, epsabs=1e-14, epsrel=1e-11)
        body, _ = _geometric_panels(f, math.sqrt(a), S, cfg, epsabs=1e-14)
        return head + body

    head, err_head = _quad(inner, 0.0, knee, cfg, points=[R],
                           epsabs=quad_budget, epsrel=1e-10)
    body, err_body = 0.0, 0.0
    lo = knee
    while lo < Z:
        hi = min(lo * 4.0, Z)
        v, e = _quad(inner, lo, hi, cfg, epsabs=quad_budget / n_body)
        body += v
        err_body += e
        lo = hi
    value = 2.0 * math.pi * (head + body)
    tails = eps / 2.0  # inner + outer truncation, eps/4 each
    err = 2.0 * math.pi * (err_head + err_body) + tails
    return value, err


def i_of_r(R: float, cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """The cylindrical double integral I(R); symmetric in R -> -R.

        I(R) = 2 pi int_0^inf dz int_0^inf drbar
               rbar / [(1 + (z-R)^2 + rbar^2)(1 + (z+R)^2 + rbar^2)]

    Evaluated as nested adaptive quadratures with explicit cutoffs and
    analytic tail bounds, keeping this 2-d route independent of the 1-d
    form j_of_r.  A cheap first pass estimates the magnitude; the second
    pass re-derives the cutoffs from the requested tolerance and certifies
    the combined error.
    """
    R = abs(float(R))
    if R == 0.0:
        raise ValueError("R must be nonzero")
    coarse, _ = _i_quadrature(R, cfg, eps=1e-4)
    eps = 0.5 * max(cfg.abs_tolerance, cfg.rel_tolerance * abs(coarse))
    value, err = _i_quadrature(R, cfg, eps=eps)
    _check_budget(value, err, cfg, "i_of_r")
    return value


# ---------------------------------------------------------------------------
# sphere integral


def sphere_integral(L: float, q: float,
                    cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """int_{S^2} dlambda(z) (1 + L^2 |z - e|^2)^{-q} for the unit sphere.

    In polar coordinates about e this is 2 pi int_{-1}^1 (1 + 2 L^2 (1-s))^{-q}
    ds, with the exact closed form

        2 pi [(1 + 4 L^2)^{1-q} - 1] / ((1 - q) 2 L^2)        (L > 0)

    and value 4 pi at L = 0.  The closed form is returned after an adaptive
    quadrature of the 1-d integral confirms it within tolerance.  q = 1 has
    a separate logarithmic closed form and is reported unsupported.
    """
    if q <= 0.0:
        raise ValueError("q must be > 0")
    if q == 1.0:
        raise ValueError("q = 1 is unsupported (logarithmic closed form)")
    if L < 0.0:
        raise ValueError("L must be >= 0")
    if L == 0.0:
        closed = 4.0 * math.pi
    else:
        closed = 2.0 * math.pi * ((1.0 + 4.0 * L * L) ** (1.0 - q) - 1.0) \
            / ((1.0 - q) * 2.0 * L * L)

    def f(s: float) -> float:
        return (1.0 + 2.0 * L * L * (1.0 - s)) ** (-q)

    points = None
    if L > 1.0:
        # the integrand is a power-law boundary layer spanning widths from
        # 1/(2 L^2) up to O(1) at s = 1; give the rule one breakpoint per decade
        points = []
        x = 1.0 / (2.0 * L * L)
        while x < 2.0:
            points.append(1.0 - x)
            x *= 10.0
    v, e = _quad(f, -1.0, 1.0, cfg, points=points,
                 epsabs=cfg.abs_tolerance / 10.0)
    check = 2.0 * math.pi * v
    if abs(check - closed) > max(1e-8 * abs(closed), 2.0 * math.pi * e, 1e-12):
        raise QuadratureError(
            f"sphere_integral closed form {closed!r} disagrees with "
            f"quadrature {check!r} at (L={L}, q={q})")
    return closed

