"""Measurable statements about the model: residuals, sums, scans and fits.

Everything here reduces a structural identity or a scaling law to numbers
with explicit uncertainties:

* divergence residuals eta_i - sum_j p(j-i) X_ij;
* per-side boundary averages whose disorder mean vanishes;
* the variance of the volume-averaged field across realizations (which
  does not concentrate);
* the growth of the central-edge variance with box size (log-divergent in
  d=2, bounded in d=3);
* the decay of the edge-mean covariance with separation in d=3.

Scans return plain (control, value, uncertainty) rows; ``fit`` provides the
log-linear and power-law least squares used to summarize them.  The
Gaussian scans take values and uncertainties from ``gaussian.covariances``
(the sine-mode sum and its rounding bound for the nearest-neighbour kernel).
The second-moment identity is one linear solve, the surface identity's.

Edge sums read a ``VectorField`` by array shifts, in a fixed order: site
fluxes (``model.site_flux``) add one kernel offset at a time, surface and
side sums fold edge by edge over the cached ``model.boundary_table``,
ordered by interior site and then by kernel support order.  The values
match the per-edge loops of the definitions, which the tests keep as
oracles, to the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import gaussian
from .model import (BoxGeometry, DisorderSpec, Edge, HeightField, Kernel,
                    VectorField, boundary_table, sample_disorder, site_flux)


@dataclass(frozen=True)
class ScanResult:
    """Rows of (control parameter, observable, uncertainty), sorted by control."""

    rows: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        controls = [r[0] for r in self.rows]
        if controls != sorted(controls):
            raise ValueError("rows must be sorted by control parameter")
        if any(r[2] < 0.0 for r in self.rows):
            raise ValueError("uncertainties must be >= 0")

    def controls(self) -> np.ndarray:
        return np.array([r[0] for r in self.rows])

    def values(self) -> np.ndarray:
        return np.array([r[1] for r in self.rows])


@dataclass(frozen=True)
class FitResult:
    model: str
    coefficients: tuple[float, ...]
    r_squared: float
    residuals: tuple[float, ...]

    def __post_init__(self) -> None:
        if not -1e-12 <= self.r_squared <= 1.0 + 1e-12:
            raise ValueError("R^2 must lie in [0, 1]")


class SecondMomentCheck(NamedTuple):
    lhs: float
    rhs: float
    relative_difference: float


class DecayScan(NamedTuple):
    covariance: ScanResult
    compensated: ScanResult  # value = r * C


# ---------------------------------------------------------------------------
# divergence bookkeeping


def _check_field(X: VectorField, g: BoxGeometry, k: Kernel) -> None:
    if X.geometry != g or X.kernel != k:
        raise ValueError("the field belongs to another geometry or kernel")


def _fold(terms: np.ndarray) -> float:
    """Left-to-right sum from 0.0, edge by edge.  np.sum adds pairwise, in
    another order, and would move the last digits of the CSV outputs."""
    total = 0.0
    for t in terms.tolist():
        total += t
    return total


def _boundary_sum(X: VectorField, g: BoxGeometry, k: Kernel,
                  side: int | None = None) -> float:
    """_fold of p(j - i) X_ij over the boundary edges (i inside, j outside),
    or over those of one side, in ``boundary_table`` order."""
    _check_field(X, g, k)
    table = boundary_table(g, k)
    on = slice(None) if side is None else table.sides == side
    return _fold(table.weights[on] * X.data.ravel()[table.cells[on]])


def divergence_residual(X: VectorField, eta: HeightField, g: BoxGeometry,
                        k: Kernel) -> tuple[np.ndarray, float]:
    """Per-site residuals r_i = eta_i - sum_j p(j-i) X_ij and their max |.|.

    X must be a field of (g, k); the flux is ``model.site_flux``.
    """
    _check_field(X, g, k)
    residuals = eta.values - site_flux(g, k, X.data)
    return residuals, float(np.max(np.abs(residuals)))


def boundary_ergodic_average(X: VectorField, g: BoxGeometry, k: Kernel,
                             side: int) -> float:
    """Normalized boundary sum (1/L) sum p(i-j) X_ij over one side of the square.

    Sides 1..4 are the faces crossed in the +e1, +e2, -e1, -e2 directions;
    edges are assigned to the dominant component of their jump (ties to the
    lower axis), which partitions the boundary edges exactly.  d = 2 only.
    """
    if g.d != 2:
        raise ValueError("boundary sides are defined for d = 2 only")
    if side not in (1, 2, 3, 4):
        raise ValueError("side must be in {1, 2, 3, 4}")
    if g.L < 1:
        raise ValueError("L must be >= 1")
    return _boundary_sum(X, g, k, side) / g.L


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
             spec: DisorderSpec) -> ScanResult:
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
            eta = sample_disorder(spec.with_realization(spec.realization + r), g)
            stats[r] = eta.values.sum() / L
        rows.append((float(L), float(stats.var(ddof=1)),
                     _jackknife_variance_err(stats)))
    return ScanResult(tuple(rows))


def clt_population_value(L: int, d: int, eta2: float) -> float:
    """Exact variance of (1/L) sum_Lambda eta for i.i.d. disorder."""
    return eta2 * (2 * L + 1) ** d / L ** 2


# ---------------------------------------------------------------------------
# Gaussian-model scans


def central_edge(d: int) -> Edge:
    origin = (0,) * d
    return (origin, (1,) + (0,) * (d - 1))


def variance_scaling_scan(d: int, L_list: list[int], eta2: float,
                          kernel: Kernel | None = None,
                          cfg: gaussian.SolverConfig = gaussian.DEFAULT_SOLVER
                          ) -> ScanResult:
    """Variance of the central-edge mean gradient versus box size.

    The reported uncertainty is the error bound of ``gaussian.covariances``
    (the quantity is deterministic given the box): the rounding bound of
    the mode sum for the nearest-neighbour kernel, the solver tolerance
    times the value for any other.
    """
    k = kernel if kernel is not None else Kernel.nearest_neighbor(d)
    edge = central_edge(d)
    rows = []
    for L in sorted(L_list):
        if L < 1:
            raise ValueError("L must be >= 1 for the scaling scan")
        A = gaussian.DirichletLaplacian(BoxGeometry.for_kernel(d, L, k), k)
        (v,), (err,) = gaussian.covariances(A, [(edge, edge)], eta2, cfg)
        rows.append((float(L), float(v), float(err)))
    return ScanResult(tuple(rows))


def decay_scan_d3(L: int, r_list: list[int], eta2: float) -> DecayScan:
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

    All separations are one closed-form mode sum (``gaussian.covariances``):
    the pairs share their transverse factors, so the box enters once and
    each separation costs O(L).  The uncertainty is its rounding bound.
    """
    if max(r_list) > L // 2:
        raise ValueError("separations must satisfy r <= L/2")
    if min(r_list) < 0:
        raise ValueError("separations must be >= 0")
    if any(r % 2 for r in r_list):
        raise ValueError("separations must be even (edges straddle the center)")
    k = Kernel.nearest_neighbor(3)
    A = gaussian.DirichletLaplacian(BoxGeometry.for_kernel(3, L, k), k)
    rs = sorted(r_list)
    pairs = [tuple(((x, 0, 0), (x, 1, 0)) for x in (-(r // 2), r // 2)) for r in rs]
    values, errors = gaussian.covariances(A, pairs, eta2)
    rows = tuple((float(r), float(c), float(e)) for r, c, e in zip(rs, values, errors))
    return DecayScan(ScanResult(rows),
                     ScanResult(tuple((r, r * c, r * e) for r, c, e in rows)))


def second_moment_identity(g: BoxGeometry, k: Kernel, eta2: float,
                           cfg: gaussian.SolverConfig = gaussian.DEFAULT_SOLVER,
                           w: np.ndarray | None = None) -> SecondMomentCheck:
    """eta2 |Lambda| versus the double boundary sum of the edge covariance.

    The right-hand side is the double sum over boundary-edge pairs (a, b) of
    p_a p_b C(a, b) = eta2 sum_y (sum_a p_a T_{a,y}) (sum_b p_b T_{b,y}).  A
    boundary edge a = (i, j) with i inside has T_{a,y} = G_iy (G vanishes
    outside), so sum_a p_a T_{a,y} = (G s)_y with s = ``exterior_leak``, and
    the sum is eta2 ||w||^2 for the single solve A w = s, the same solve as
    the surface identity, which a caller holding it passes as ``w``.  The
    tests keep the literal double sum as the oracle.
    """
    if w is None:
        A = gaussian.DirichletLaplacian(g, k)
        w = gaussian.solve_array(A, gaussian.exterior_leak(A), cfg)
    lhs = eta2 * g.n_sites
    rhs = eta2 * float(w @ w)
    denom = max(abs(lhs), abs(rhs))
    return SecondMomentCheck(lhs, rhs, abs(lhs - rhs) / denom if denom else 0.0)


# ---------------------------------------------------------------------------
# least-squares summaries


def fit(model: str, scan: ScanResult) -> FitResult:
    """Ordinary least squares in transformed coordinates.

    "log-linear": y = a + b log2(L), fit in (log2 L, y); coefficients (a, b).
    "power-law":  y = c r^-q, fit as log y = log c - q log r; coefficients
    (c, q).  R^2 and residuals are reported in the fitted coordinates.
    """
    if len(scan.rows) < 3:
        raise ValueError("need at least 3 rows to fit")
    x = scan.controls()
    y = scan.values()
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
        coeffs = (float(intercept), float(slope))
    else:
        coeffs = (float(math.exp(intercept)), float(-slope))
    return FitResult(model=model, coefficients=coeffs, r_squared=r2,
                     residuals=tuple(float(r) for r in resid))
