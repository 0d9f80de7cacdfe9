import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import LinearOperator, cg

from gradlab.diagnostics import _boundary_sum
from gradlab.gaussian import DEFAULT_SOLVER, covariances, solve_array
from gradlab.model import (BoxGeometry, DisorderSpec, HeightField, Kernel,
                           Potential, add, sample_disorder)


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


def covariance(A, a, b, eta2, cfg=DEFAULT_SOLVER):
    """Disorder covariance of the mean gradient on edges a and b: the one
    pair of ``gaussian.covariances``."""
    return float(covariances(A, [(a, b)], eta2, cfg)[0][0])


def variance(A, a, eta2, cfg=DEFAULT_SOLVER):
    """Disorder variance of the mean gradient on edge a (covariance with
    itself); 0 at eta2 = 0, which ``covariances`` rejects."""
    if eta2 < 0.0:
        raise ValueError("eta2 must be >= 0")
    return covariance(A, a, a, eta2, cfg) if eta2 > 0.0 else 0.0


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


# ---------------------------------------------------------------------------
# quadrature oracles for the closed forms of ``gradlab.quadrature``
#
# Improper integrals are truncated at explicit cutoffs with analytic tail
# bounds folded into the returned error, rather than transformed; each
# finite panel is adaptive Gauss-Kronrod (scipy's quad).


def quad_checked(f, a, b, *, epsabs, epsrel, points=None, limit=200):
    """quad of f over [a, b]: the value and quad's error estimate, failing
    where quad reports that it missed its tolerance."""
    res = quad(f, a, b, points=points, limit=limit, epsabs=epsabs,
               epsrel=epsrel, full_output=1)
    assert len(res) <= 3, f"quadrature on [{a:g}, {b:g}] failed: {res[3]}"
    return float(res[0]), float(res[1])


def geometric_panels(f, lo, hi, *, epsabs, epsrel=1e-8):
    """quad_checked summed over the panels [a, 4a] that cover [lo, hi]."""
    total = err = 0.0
    a = lo
    while a < hi:
        b = min(4.0 * a, hi)
        v, e = quad_checked(f, a, b, epsabs=epsabs, epsrel=epsrel)
        total += v
        err += e
        a = b
    return total, err


def j_integrand(u, R):
    """(1/u) log[(R^-2 + (u+1)^2) / (R^-2 + (u-1)^2)].

    The log-ratio vanishes linearly at u = 0, so the integrand extends
    continuously with value 4 / (R^-2 + 1); the log1p form keeps both the
    small-u and large-u regimes stable.
    """
    r2 = R ** -2
    if u < 1e-12:
        return 4.0 / (r2 + 1.0)
    return math.log1p(4.0 * u / (r2 + (u - 1.0) ** 2)) / u


def j_quadrature(R, *, cutoff=1.0 + 1.6e9, epsabs=1e-11, epsrel=1e-8):
    """J(R) by quadrature up to u = cutoff: the value and a bound on its
    error, quad's estimates plus the dropped tail.

    For u >= U > 1 the integrand is positive and at most 4 / (u - 1)^2, so
    the tail beyond the cutoff U lies in [0, 4 / (U - 1)]: the value sits
    below J(R) by no more than the bound.
    """
    f = lambda u: j_integrand(u, R)
    head, err_head = quad_checked(f, 0.0, 2.0, points=[1.0], epsabs=epsabs,
                                  epsrel=epsrel)
    body, err_body = geometric_panels(f, 2.0, cutoff, epsabs=epsabs, epsrel=epsrel)
    return head + body, err_head + err_body + 4.0 / (cutoff - 1.0)


def j_limit_integrand(x):
    """log x / (x^2 - 1); removable singularity at x = 1 with limit 1/2."""
    if abs(x - 1.0) < 1e-9:
        return 0.5
    return math.log(x) / (x * x - 1.0)


def j_limit_reference(*, epsabs=1e-11, epsrel=1e-9):
    """The limit of J(R) as R -> infinity, 8 int_0^1 log x / (x^2 - 1) dx
    = pi^2, by quadrature: the value and quad's error estimate.  The
    integrable log singularity at 0 and the removable point at 1 are both
    left to the adaptive rule."""
    v, e = quad_checked(j_limit_integrand, 0.0, 1.0, epsabs=epsabs, epsrel=epsrel)
    return 8.0 * v, 8.0 * e


def _i_panels(R, eps):
    """Nested quadrature of I(R) targeting absolute error eps: the value and
    a bound on its error.

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

    def inner(z):
        a = 1.0 + (z - R) ** 2
        b = 1.0 + (z + R) ** 2

        def f(rb):
            s = rb * rb
            return rb / ((a + s) * (b + s))

        head, _ = quad_checked(f, 0.0, math.sqrt(a), epsabs=1e-14, epsrel=1e-11)
        body, _ = geometric_panels(f, math.sqrt(a), S, epsabs=1e-14)
        return head + body

    head, err_head = quad_checked(inner, 0.0, knee, points=[R],
                                  epsabs=quad_budget, epsrel=1e-10)
    body, err_body = geometric_panels(inner, knee, Z, epsabs=quad_budget / n_body)
    tails = eps / 2.0  # inner + outer truncation, eps/4 each
    return (2.0 * math.pi * (head + body),
            2.0 * math.pi * (err_head + err_body) + tails)


def i_quadrature(R, *, abs_tolerance=1e-10, rel_tolerance=1e-8):
    """The cylindrical double integral I(R), symmetric in R -> -R, by nested
    quadrature: the value and a bound on its error.

        I(R) = 2 pi int_0^inf dz int_0^inf drbar
               rbar / [(1 + (z-R)^2 + rbar^2)(1 + (z+R)^2 + rbar^2)]

    A cheap first pass estimates the magnitude; the second re-derives the
    cutoffs from the tolerances.  This 2-d route shares nothing with J.
    """
    R = abs(float(R))
    if R == 0.0:
        raise ValueError("R must be nonzero")
    coarse, _ = _i_panels(R, eps=1e-4)
    return _i_panels(R, eps=0.5 * max(abs_tolerance, rel_tolerance * abs(coarse)))


def sphere_integral(L, q):
    """int_{S^2} dlambda(z) (1 + L^2 |z - e|^2)^{-q} for the unit sphere.

    In polar coordinates about e this is 2 pi int_{-1}^1 (1 + 2 L^2 (1-s))^{-q}
    ds, with the exact closed form

        2 pi [(1 + 4 L^2)^{1-q} - 1] / ((1 - q) 2 L^2)        (L > 0)

    and value 4 pi at L = 0.  The closed form is returned after an adaptive
    quadrature of the 1-d integral confirms it.  q = 1 has a separate
    logarithmic closed form and is reported unsupported.
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

    def f(s):
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
    v, e = quad_checked(f, -1.0, 1.0, points=points, epsabs=1e-11, epsrel=1e-8)
    check = 2.0 * math.pi * v
    assert abs(check - closed) <= max(1e-8 * abs(closed), 2.0 * math.pi * e, 1e-12), \
        f"closed form {closed!r} disagrees with quadrature {check!r} at (L={L}, q={q})"
    return closed


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


def height_at(field, site):
    """Height of a HeightField at any site; sites outside the box read the
    boundary value 0."""
    g = field.geometry
    return float(field.values[g.index_of(site)]) if g.contains(site) else 0.0


def conditional_logdensity(g, k, vpot, phi, eta, site, t):
    """Log density of the single-site conditional at `site`, up to a constant:

        -sum_j p(j - i) V(t - phi_j) + eta_i t

    with neighbor heights taken from phi (zero outside the box).
    """
    if not g.contains(site):
        raise ValueError(f"site {site} is not interior")
    total = 0.0
    for v, w in k.support():
        total -= w * float(vpot.value(t - height_at(phi, add(site, v))))
    return total + height_at(eta, site) * t


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
        assert half <= 1e9, ("single-site weight does not decay; "
                             "check the potential's growth")
    t0 = float(grid[peak])
    lw0 = float(lw[peak])

    def density(t: float) -> float:
        return math.exp(float(logw(t)) - lw0)

    def integrate(f) -> float:
        return quad_checked(f, -half, half, points=[t0, 0.0], limit=400,
                            epsabs=1e-13, epsrel=1e-11)[0]

    z = integrate(density)
    assert z > 0.0, "single-site normalization vanished"
    mean_h = integrate(lambda t: t * density(t)) / z
    mean_dv = integrate(lambda t: float(vpot.derivative(t)) * density(t)) / z
    return SingleSiteOracle(mean_height=mean_h, mean_derivative=mean_dv,
                            flux=wsum * mean_dv, field=eta_i)
