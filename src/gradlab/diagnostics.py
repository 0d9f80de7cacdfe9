"""Measurable statements about the model: residuals, sums, scans and fits.

Everything here reduces a structural identity or a scaling law to numbers
with explicit uncertainties:

* divergence residuals eta_i - sum_j p(j-i) X_ij;
* the four side averages of the boundary flux, whose disorder mean vanishes;
* the boundary identities of the Gaussian model: the surface identity and
  the second-moment identity, from one linear solve;
* the variance of the volume-averaged field across realizations (which
  does not concentrate);
* the growth of the central-edge variance with box size (log-divergent in
  d=2, bounded in d=3);
* the decay of the edge-mean covariance with separation in d=3.

Scans return their rows: a tuple of (control, value, uncertainty) floats,
sorted by control, each uncertainty >= 0.  ``fit`` summarizes rows by
log-linear or power-law least squares and returns plain floats: its two
coefficients and R^2, in [0, 1].  The Gaussian scans take values and
uncertainties from ``gaussian.covariances`` (the sine-mode sum and its
rounding bound for the nearest-neighbour kernel).

Edge sums read a ``VectorField``, values in ``edge_table`` order, through
the cached tables of ``model``, in a fixed order: site fluxes
(``model.site_flux``) add one kernel offset at a time, surface and side
sums fold edge by edge, in one pass, over the boundary slice of
``model.edge_table``, ordered by interior site and then by the rows of
``k.offsets``.  The values match the per-edge loops of the definitions,
which the tests keep as oracles, to the last bit.
"""

from __future__ import annotations

import math

import numpy as np

from . import gaussian
from .model import (BoxGeometry, DisorderSpec, Edge, Kernel, VectorField,
                    edge_table, sample_disorder, site_flux)


#: a scan's (control, value, uncertainty) rows, sorted by control
Rows = tuple[tuple[float, float, float], ...]


# ---------------------------------------------------------------------------
# divergence bookkeeping


def divergence_residual(X: VectorField, eta: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-site residuals r_i = eta_i - sum_j p(j-i) X_ij and their max |.|,
    the flux being ``model.site_flux``."""
    residuals = eta - site_flux(X)
    return residuals, float(np.max(np.abs(residuals)))


def boundary_ergodic_average(X: VectorField) -> tuple[float, float, float, float]:
    """Normalized boundary sums (1/L) sum p(i-j) X_ij over the four sides of
    the square, sides 1..4 in order.

    Sides 1..4 are the faces crossed in the +e1, +e2, -e1, -e2 directions;
    edges are assigned to the dominant component of their jump (ties to the
    lower axis), which partitions the boundary edges exactly.  d = 2 only.
    """
    g = X.geometry
    if g.d != 2:
        raise ValueError("boundary sides are defined for d = 2 only")
    if g.L < 1:
        raise ValueError("L must be >= 1")
    t = edge_table(g, X.kernel)
    weights = t.signs * X.kernel.weights
    terms = weights[t.rows[t.boundary]] * X.values[t.boundary]
    # bincount adds each side left to right from 0.0, in table order: np.sum
    # adds pairwise, in another order, and would move the last digits of the CSVs
    return tuple((np.bincount(t.sides - 1, terms, 4) / g.L).tolist())


# ---------------------------------------------------------------------------
# disorder statistics


def _jackknife_variance_err(samples: np.ndarray) -> float:
    """Delete-one jackknife standard error of the sample variance."""
    n = len(samples)
    if n < 3:
        return 0.0
    total = samples.sum()
    total_sq = (samples ** 2).sum()
    leave_mean = (total - samples) / (n - 1)
    leave_var = (total_sq - samples ** 2 - (n - 1) * leave_mean ** 2) / (n - 2)
    return float(np.sqrt((n - 1) / n * np.sum((leave_var - leave_var.mean()) ** 2)))


def clt_scan(L_list: list[int], n_realizations: int,
             spec: DisorderSpec) -> Rows:
    """Sample variance of (1/L) sum_Lambda eta across realizations, per L.

    For i.i.d. disorder the population value is eta2 (2L+1)^d / L^2, which
    stays above 4 eta2 in d = 2: the volume average scales to a genuine
    Gaussian limit rather than concentrating.
    """
    if n_realizations < 100:
        raise ValueError("need at least 100 realizations")
    rows = []
    for L in sorted(L_list):
        g = BoxGeometry(d=2, L=L)
        stats = np.empty(n_realizations)
        for r in range(n_realizations):
            eta = sample_disorder(DisorderSpec(spec.family, spec.eta2, spec.seed,
                                               spec.realization + r), g)
            stats[r] = eta.sum() / L
        rows.append((float(L), float(stats.var(ddof=1)),
                     _jackknife_variance_err(stats)))
    return tuple(rows)


def clt_population_value(L: int, d: int, eta2: float) -> float:
    """Exact variance of (1/L) sum_Lambda eta for i.i.d. disorder."""
    return eta2 * (2 * L + 1) ** d / L ** 2


# ---------------------------------------------------------------------------
# Gaussian-model scans


def central_edge(d: int) -> Edge:
    origin = (0,) * d
    return (origin, (1,) + (0,) * (d - 1))


def variance_scaling_scan(d: int, L_list: list[int], eta2: float,
                          kernel: Kernel | None = None) -> Rows:
    """Variance of the central-edge mean gradient versus box size.

    The reported uncertainty is the error bound of ``gaussian.covariances``
    (the quantity is deterministic given the box): the rounding bound of
    the mode sum for the nearest-neighbour kernel, ``gaussian.REL_TOLERANCE``
    times the value for any other.
    """
    k = kernel if kernel is not None else Kernel.nearest_neighbor(d)
    edge = central_edge(d)
    rows = []
    for L in sorted(L_list):
        if L < 1:
            raise ValueError("L must be >= 1 for the scaling scan")
        A = gaussian.DirichletLaplacian(BoxGeometry(d, L), k)
        (v,), (err,) = gaussian.covariances(A, [(edge, edge)], eta2)
        rows.append((float(L), float(v), float(err)))
    return tuple(rows)


def decay_scan_d3(L: int, r_list: list[int], eta2: float) -> Rows:
    """Covariance of the edge mean between edges separated by r in d = 3.

    The pair sits symmetrically about the center: base sites at -(r/2) e1
    and +(r/2) e1, both edges oriented along e2, transverse to the
    separation axis.  (For co-oriented edges the transverse arrangement is
    the one that carries the slow 1/r decay; edges oriented along the
    separation axis see only the much smaller curvature of the site-pair
    overlap kernel, which changes sign at finite volume.)  Separations are
    limited to r <= L/2, which bounds the boundary distortion but does not
    make it negligible: the Dirichlet walls screen the covariance and
    steepen its apparent decay (at L = 32 a power-law fit over r in
    {4..12} gives exponent ~1.33 rather than 1), and the 1/r law emerges
    only as L grows at fixed r.

    All separations are one closed-form mode sum (``gaussian.covariances``),
    an exponential sum whose terms factor over the axes, so each separation
    costs O(L) per quadrature node.  The uncertainty is its rounding bound.
    """
    if max(r_list) > L // 2:
        raise ValueError("separations must satisfy r <= L/2")
    if min(r_list) < 0:
        raise ValueError("separations must be >= 0")
    if any(r % 2 for r in r_list):
        raise ValueError("separations must be even (edges straddle the center)")
    k = Kernel.nearest_neighbor(3)
    A = gaussian.DirichletLaplacian(BoxGeometry(3, L), k)
    rs = sorted(r_list)
    pairs = [tuple(((x, 0, 0), (x, 1, 0)) for x in (-(r // 2), r // 2)) for r in rs]
    values, errors = gaussian.covariances(A, pairs, eta2)
    return tuple((float(r), float(c), float(e)) for r, c, e in zip(rs, values, errors))


def boundary_identities(A: gaussian.DirichletLaplacian,
                        eta2: float) -> tuple[float, float, float]:
    """The surface and second-moment identities of the box, from one solve:
    (surface deviation, second-moment sum, its relative difference from
    eta2 |Lambda|).

    A boundary edge a = (i, j) with i inside has T_{a,y} = G_iy (G vanishes
    outside), so the weighted boundary sum of the response to a source at y
    is sum_a p_a T_{a,y} = (G s)_y, s_i = sum_{j outside} p(j - i) the
    kernel weight escaping the box, which is A applied to the constant 1:
    the single solve A w = A 1 gives w.  The surface identity is w = 1, and
    its deviation max_y |w_y - 1|.  The second-moment sum is the double sum
    over boundary-edge pairs of p_a p_b C(a, b) = eta2 ||w||^2, which the
    surface identity makes eta2 |Lambda|.  The tests keep the per-column
    surface sum and the literal double sum as oracles.
    """
    w = gaussian.solve_array(A, A.apply(np.ones(A.n)))
    lhs = eta2 * A.n
    rhs = eta2 * float(w @ w)
    denom = max(abs(lhs), abs(rhs))
    return (float(np.max(np.abs(w - 1.0))), rhs,
            abs(lhs - rhs) / denom if denom else 0.0)


# ---------------------------------------------------------------------------
# least-squares summaries


def fit(model: str, rows: Rows) -> tuple[float, float, float]:
    """Ordinary least squares in transformed coordinates: (a, b, R^2).

    "log-linear": y = a + b log2(L), fit in (log2 L, y); returns (a, b, R^2).
    "power-law":  y = c r^-q, fit as log y = log c - q log r; returns
    (c, q, R^2).  R^2 is taken in the fitted coordinates, clamped to [0, 1].
    """
    if len(rows) < 3:
        raise ValueError("need at least 3 rows to fit")
    x = np.array([r[0] for r in rows])
    y = np.array([r[1] for r in rows])
    if model == "log-linear":
        if np.any(x <= 0.0):
            raise ValueError("log-linear fit requires positive controls")
        t = np.log2(x)
        z = y
    elif model == "power-law":
        if np.any(x <= 0.0) or np.any(y <= 0.0):
            raise ValueError("power-law fit requires positive controls and values")
        t = np.log(x)
        z = np.log(y)
    else:
        raise ValueError(f"unknown fit model {model!r}")
    slope, intercept = np.polyfit(t, z, 1)
    pred = intercept + slope * t
    resid = z - pred
    ss_tot = float(np.sum((z - z.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    r2 = min(max(r2, 0.0), 1.0)
    if model == "log-linear":
        return float(intercept), float(slope), r2
    return float(math.exp(intercept)), float(-slope), r2
