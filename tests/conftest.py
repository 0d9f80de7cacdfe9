import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.sparse import csr_matrix

from gradlab.model import (BoxGeometry, DisorderSpec, Kernel, Potential, add,
                           sample_disorder)
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


def oracle_sparse_operator(A):
    """The Dirichlet operator I - P of A as a sparse matrix, assembled site by
    site: the unit diagonal, then one entry -p(v) per kernel offset v whose
    neighbour lies inside the box.  ``.toarray()`` gives the dense one."""
    g = A.geometry
    rows, cols, vals = list(range(g.n_sites)), list(range(g.n_sites)), [1.0] * g.n_sites
    for v, w in A.kernel.support():
        for i in range(g.n_sites):
            j = tuple(a + b for a, b in zip(g.site_of(i), v))
            if g.contains(j):
                rows.append(i)
                cols.append(g.index_of(j))
                vals.append(-w)
    return csr_matrix((vals, (rows, cols)), shape=(g.n_sites, g.n_sites))


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
