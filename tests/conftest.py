import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import LinearOperator, cg

from gradlab.diagnostics import _boundary_sum
from gradlab.gaussian import solve_array
from gradlab.model import (BoxGeometry, DisorderSpec, HeightField, Kernel,
                           Potential, add, sample_disorder)
from gradlab.quadrature import QuadratureError


@pytest.fixture
def nn2():
    return Kernel.nearest_neighbor(2)


@pytest.fixture
def box33(nn2):
    return BoxGeometry.for_kernel(2, 1, nn2)


@pytest.fixture
def box55(nn2):
    return BoxGeometry.for_kernel(2, 2, nn2)


@pytest.fixture
def quadratic():
    return Potential.quadratic(1.0)


@pytest.fixture
def quartic():
    return Potential.quartic(1.0, 0.1)


def gaussian_eta(g, seed=0, realization=0, eta2=1.0):
    return sample_disorder(DisorderSpec("gaussian", eta2, seed, realization), g)


def oracle_boundary_edges(g, k):
    """(i, j, p(j - i)) for each kernel edge from an interior site i to an
    exterior site j, ordered by i and then by kernel support order."""
    out = []
    for i in g.sites():
        for v, w in k.support():
            j = tuple(a + b for a, b in zip(i, v))
            if not g.contains(j):
                out.append((i, j, w))
    return out


def site_of(g, index):
    """The interior site with dense index `index` (inverse of ``g.index_of``)."""
    if not 0 <= index < g.n_sites:
        raise IndexError(index)
    return tuple(int(c) - g.L for c in np.unravel_index(index, g.shape))


def solve_green(A, source):
    """Solve (I - P) u = source on the box, as a HeightField."""
    return HeightField(A.geometry, solve_array(A, source.values))


def loop_residuals(g, w):
    """Maximum absolute circulation of w around interior unit plaquettes.

    A vector field is a gradient field exactly when every such circulation
    vanishes.  Requires d >= 2 and w defined on the nearest-neighbor edges
    of the interior (KeyError otherwise).
    """
    if g.d < 2:
        raise ValueError("no plaquettes in dimension < 2")
    unit = [tuple(int(t == a) for t in range(g.d)) for a in range(g.d)]
    arrays = [w.data[w._offsets[e]] for e in unit]
    zero = (0,) * g.d
    worst = 0.0
    for a in range(g.d):
        for b in range(a + 1, g.d):
            def at(c, shift):
                return _plaquette_view(g, arrays[c], shift, a, b)
            circ = at(a, zero) + at(b, unit[a]) - at(a, unit[b]) - at(b, zero)
            if circ.size:
                worst = max(worst, float(np.max(np.abs(circ))))
    return worst


def _plaquette_view(g, padded, shift, a, b):
    """`padded` at cell i + shift for every corner i of an interior unit
    plaquette in the (a, b) plane (i + e_a, i + e_b also interior)."""
    m = g.shell_width
    return padded[tuple(slice(m + s, m + s + g.side - (ax in (a, b)))
                        for ax, s in enumerate(shift))]


class IntegralFormCheck(NamedTuple):
    volume_sum: float
    surface_sum: float
    difference: float


def integral_form_check(X, eta, g, k):
    """Volume sum of eta versus the weighted boundary-edge sum of X.

    Interior edges cancel pairwise by antisymmetry, so the difference of the
    two sums telescopes to the sum of the per-site divergence residuals.
    """
    volume = float(np.sum(eta.values))
    surface = _boundary_sum(X, g, k)
    return IntegralFormCheck(volume, surface, volume - surface)


def sphere_integral_large_l_limit(q):
    """Leading coefficient of sphere_integral: value * L^{2q} -> this as L grows."""
    if q >= 1.0 or q <= 0.0:
        raise ValueError("requires 0 < q < 1")
    return math.pi * 2.0 ** (2.0 - 2.0 * q) / (1.0 - q)


def oracle_sparse_operator(A):
    """The Dirichlet operator I - P of A as a sparse matrix, assembled site by
    site: the unit diagonal, then one entry -p(v) per kernel offset v whose
    neighbour lies inside the box.  ``.toarray()`` gives the dense one."""
    g = A.geometry
    rows, cols, vals = list(range(g.n_sites)), list(range(g.n_sites)), [1.0] * g.n_sites
    for v, w in A.kernel.support():
        for i in range(g.n_sites):
            j = tuple(a + b for a, b in zip(site_of(g, i), v))
            if g.contains(j):
                rows.append(i)
                cols.append(g.index_of(j))
                vals.append(-w)
    return csr_matrix((vals, (rows, cols)), shape=(g.n_sites, g.n_sites))


def oracle_cg_solve(A, b, rel_tolerance):
    """Unpreconditioned conjugate gradients (scipy) on the matrix-free
    operator, stopped at relative residual rel_tolerance: a reference for
    ``solve_array`` that shares none of its code but ``apply``."""
    op = LinearOperator((A.n, A.n), matvec=A.apply, dtype=float)
    x, info = cg(op, b, rtol=rel_tolerance, atol=0.0, maxiter=10 * A.n)
    assert info == 0, f"oracle CG did not converge in {info} steps"
    return x


def random_heights(g, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, scale, size=g.n_sites)


def conditional_logdensity(g, k, vpot, phi, eta, site, t):
    """Log density of the single-site conditional at `site`, up to a constant:

        -sum_j p(j - i) V(t - phi_j) + eta_i t

    with neighbor heights taken from phi (zero outside the box).
    """
    if not g.contains(site):
        raise ValueError(f"site {site} is not interior")
    total = 0.0
    for v, w in k.support():
        total -= w * float(vpot.value(t - phi.height_at(add(site, v))))
    return total + eta.height_at(site) * t


@dataclass(frozen=True)
class SingleSiteOracle:
    """Quadrature values for one site coupled only to zero boundary heights."""

    mean_height: float
    mean_derivative: float  # <V'(phi)> , the same on every edge to the boundary
    flux: float             # sum_j p_j <V'> over the boundary edges
    field: float            # the external field eta_i the flux should match

    @property
    def residual(self):
        return self.flux - self.field


def single_site_quadrature_oracle(vpot, eta_i, weights):
    """Exact (1-d adaptive quadrature) single-site means for zero neighbors.

    The stationary density is w(t) = exp(-W V(t) + eta_i t) with W the total
    kernel weight to the boundary; partial integration makes the weighted
    mean derivative equal the field, which the returned flux exposes.
    """
    wsum = float(sum(weights))
    if wsum <= 0.0:
        raise ValueError("total boundary weight must be > 0")

    def logw(t):
        return -wsum * np.asarray(vpot.value(t)) + eta_i * np.asarray(t)

    # bracket the support: expand until the log weight has fallen by 80
    half = 2.0
    while True:
        grid = np.linspace(-half, half, 4097)
        lw = logw(grid)
        peak = int(np.argmax(lw))
        if lw[0] < lw[peak] - 80.0 and lw[-1] < lw[peak] - 80.0:
            break
        half *= 2.0
        if half > 1e9:
            raise QuadratureError("single-site weight does not decay; "
                                  "check the potential's growth")
    t0 = float(grid[peak])
    lw0 = float(lw[peak])

    def density(t: float) -> float:
        return math.exp(float(logw(t)) - lw0)

    def integrate(f) -> float:
        res = quad(f, -half, half, points=[t0, 0.0], limit=400,
                   epsabs=1e-13, epsrel=1e-11, full_output=1)
        if len(res) > 3:
            raise QuadratureError(f"single-site quadrature failed: {res[3]}")
        return float(res[0])

    z = integrate(density)
    if z <= 0.0:
        raise QuadratureError("single-site normalization vanished")
    mean_h = integrate(lambda t: t * density(t)) / z
    mean_dv = integrate(lambda t: float(vpot.derivative(t)) * density(t)) / z
    return SingleSiteOracle(mean_height=mean_h, mean_derivative=mean_dv,
                            flux=wsum * mean_dv, field=eta_i)
