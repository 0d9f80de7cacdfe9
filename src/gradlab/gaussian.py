"""Exact linear algebra for the quadratic model V(t) = t^2/2.

With a quadratic potential the finite-volume measure is Gaussian and the
mean gradient field is linear in the disorder:

    X_ij = (G eta)_i - (G eta)_j,   G = (I - P)^{-1}

where P is the random-walk transition operator restricted to the box with
zero (Dirichlet) exterior.  The response matrix T_{ij,y} = G_iy - G_jy
gives the disorder covariance of X as eta2 T T^t.

``solve_array`` is one path for every kernel.  M, diagonal in the type-I
discrete sine basis with the symbol of the kernel's offsets (``_symbol``),
is I - P for the nearest-neighbour kernel and a spectrally equivalent
preconditioner for any other (Concus & Golub, SIAM J. Numer. Anal. 10,
1973).  A solve starts from M^-1 b (a DST-I pair, each real FFTs of the odd
extension on ``numpy.fft``), where every nearest-neighbour solve ends, and
otherwise continues by conjugate gradients preconditioned by M^-1.  Every
solve meets the one residual target ``REL_TOLERANCE``.
``covariances`` sums the sine modes of the nearest-neighbour kernel as an
exponential sum, O(d L) per node, and edge responses of any other kernel.
Nothing here assembles the operator as a matrix, and nothing here checks
an identity: the boundary identities that read a solve are
``diagnostics.boundary_identities``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import product

import numpy as np

from . import NumericalError
from .model import BoxGeometry, Edge, Kernel, VectorField, _overlap, gradient_of


class SolverError(NumericalError):
    """Linear solve failed to reach the requested residual."""

    def __init__(self, message: str, achieved_residual: float):
        super().__init__(message)
        self.achieved_residual = achieved_residual


#: the residual target of every solve, ||Au - b|| <= REL_TOLERANCE ||b||
REL_TOLERANCE = 1e-10

#: nodes of the exponential sum taken at once, memory side x NODE_CHUNK
NODE_CHUNK = 16


@dataclass(frozen=True)
class DirichletLaplacian:
    """The operator (I - P) on interior height vectors, zero outside the
    box; symmetric positive definite for any kernel."""

    geometry: BoxGeometry
    kernel: Kernel

    def __post_init__(self) -> None:
        if self.kernel.d != self.geometry.d:
            raise ValueError("kernel and geometry dimensions differ")

    @cached_property
    def _sine_divisor(self) -> np.ndarray:
        """lambda_k (2m)^d, lambda_k the sum of ``_symbol`` over the axes."""
        lam = reduce(np.add.outer, _symbol(self.geometry, self.kernel))
        lam[lam == 0.0] = 1.0  # a mode only a kernel with no unit step misses
        return lam * float(2 * self.geometry.side + 2) ** self.geometry.d

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.reshape(x, self.geometry.shape)
        out = x.astype(float)
        for v, w in zip(self.kernel.offsets, self.kernel.weights):
            inner, outer = _overlap(self.geometry, v)
            out[inner] -= w * x[outer]
        return out.ravel()


def sine_diagonal(kernel: Kernel) -> bool:
    """Whether the sine modes diagonalise I - P, so that ``covariances`` sums
    them in closed form: the nearest-neighbour kernel."""
    return kernel == Kernel.nearest_neighbor(kernel.d)


def _sin_pi(n: np.ndarray, M: int) -> np.ndarray:
    """sin(pi n / M) for integers n and even M, the angle reduced exactly to
    [-pi/2, pi/2]: good to a few ulps of itself, and exactly 0 at pi j."""
    t = (n + M // 2) % (2 * M) - M // 2
    return np.sin(np.pi / M * np.where(t > M // 2, M - t, t))


def _symbol(g: BoxGeometry, kernel: Kernel) -> list[np.ndarray]:
    """The per-axis symbol of M over k = 1..side, m = side + 1: each offset v
    adds 2 p(v) sin^2(pi k |v_a| / 2m) on every axis a it moves along.  For
    nearest neighbours that is (2/d) sin^2(pi k / 2m) per axis, and M is
    I - P, its eigenvalues 1 - (1/d) sum_a cos(pi k_a / m) free of their
    cancellation at low k."""
    k, sym = np.arange(1, g.side + 1), [np.zeros(g.side) for _ in range(g.d)]
    for v, w in zip(kernel.offsets, kernel.weights):
        for a in np.flatnonzero(v):
            sym[a] += 2.0 * w * _sin_pi(abs(v[a]) * k, 2 * g.side + 2) ** 2
    return sym


def _sine_solve(A: DirichletLaplacian, b: np.ndarray) -> np.ndarray:
    """M^-1 b on {-L..L}^d: the exact solve for the nearest-neighbour kernel.

    The modes prod_a sin(pi k_a (x_a + L + 1) / m), m = 2L + 2, k_a = 1..2L+1,
    vanish on the exterior layer and diagonalise M with eigenvalues lambda_k
    (``_symbol``), so M^-1 b = (2m)^-d S (S b / lambda) for the DST-I
    S_kn = 2 sin(pi k n / m) along every axis, S S = 2m.

    One pass takes the real FFT of the odd extension [0, x, 0, -x reversed]
    (length 2m) of every line along the last axis, whose bins 1..side are
    -S x, and writes them back into the one padded buffer with that axis
    moved to the front: d passes transform every axis and restore the axis
    order, and the 2d signs cancel.
    """
    g = A.geometry
    n, m = g.side, g.side + 1
    buf = np.zeros(g.shape[:-1] + (2 * m,))
    inner = buf[..., 1:m]
    inner[...] = b.reshape(g.shape)
    for p in range(2 * g.d):
        np.negative(buf[..., n:0:-1], out=buf[..., m + 1:])
        t = np.moveaxis(np.fft.rfft(buf, axis=-1).imag[..., 1:m], -1, 0)
        if p == g.d - 1:
            np.divide(t, A._sine_divisor, out=inner)
        elif p < 2 * g.d - 1:
            inner[...] = t
    return t.ravel()


def solve_array(A: DirichletLaplacian, b: np.ndarray) -> np.ndarray:
    """Solve A u = b to ||Au - b|| <= REL_TOLERANCE ||b||, else SolverError.

    The sine solve u = M^-1 b comes first: for nearest neighbours M is A,
    and the residual evaluation that checks u ends the solve.  Otherwise
    conjugate gradients preconditioned by M^-1 continue from u until the
    updated residual meets the target, for at most 10 * n steps, and one
    more residual evaluation checks their result.  It solves for b / 2^k,
    2^k <= max |b| < 2^(k+1), and scales back: exact, and ||b||^2 neither
    overflows nor underflows.
    """
    b = np.asarray(b, dtype=float)
    peak = float(np.max(np.abs(b)))
    if peak == 0.0:
        return np.zeros_like(b)
    unit = math.ldexp(1.0, math.frexp(peak)[1] - 1)
    b = b / unit
    goal, stopped = REL_TOLERANCE * float(np.linalg.norm(b)), None
    x = _sine_solve(A, b)
    r = b - A.apply(x)
    achieved = float(np.linalg.norm(r))
    if achieved > goal * 1.001:
        p, rho_old = np.zeros_like(r), 1.0
        for _ in range(10 * b.size):
            z = _sine_solve(A, r)
            rho = float(r @ z)
            p = z + (rho / rho_old) * p
            q = A.apply(p)
            alpha = rho / float(p @ q)
            x += alpha * p
            r -= alpha * q
            if np.linalg.norm(r) <= goal:
                break
            rho_old = rho
        else:
            stopped = f"conjugate gradients did not converge within {10 * b.size} steps"
        achieved = float(np.linalg.norm(b - A.apply(x)))
    if stopped is not None or not achieved <= goal * 1.001:
        raise SolverError(f"{stopped or 'solve missed the tolerance'}: residual "
                          f"{achieved * unit:.3e} > {REL_TOLERANCE:.1e} * ||b|| = "
                          f"{goal * unit:.3e}", achieved * unit)
    x *= unit
    return x


def mean_gradient(A: DirichletLaplacian, eta: np.ndarray) -> VectorField:
    """Mean gradient field X_ij = u_i - u_j with u = G eta (one solve), on
    every kernel edge touching the box: the gradient of u, 0 outside."""
    return gradient_of(A.geometry, A.kernel, solve_array(A, eta))


def _edge_response(A: DirichletLaplacian, edge: Edge) -> np.ndarray:
    """The vector y -> T_{edge,y} = G(i, y) - G(j, y): one solve with the
    dipole source e_i - e_j on the interior endpoints (G is symmetric)."""
    b = np.zeros(A.geometry.n_sites)
    for x, sign in zip(edge, (1.0, -1.0)):
        if edge[0] != edge[1] and A.geometry.contains(x):
            b[A.geometry.index_of(x)] = sign
    return solve_array(A, b)


def _mode_terms(g: BoxGeometry, edge: Edge) -> list[np.ndarray]:
    """dpsi_k(edge) as signed rank-1 terms, (d, side) arrays of per-axis
    factors over k_a = 1..side (without the sqrt(2/m) norms).  Endpoints
    outside the box drop out: the sine vanishes one layer out, not two.
    Endpoints one axis apart give one term, whose factor on that axis is
    the sine difference as a product, 2 cos(pi k (p+q)/2m) sin(pi k (p-q)/2m),
    accurate where the two sines nearly cancel."""
    m, k = g.side + 1, np.arange(1, g.side + 1)
    ends = [(x, s) for x, s in zip(edge, (1.0, -1.0)) if g.contains(x)]
    terms = [np.array([_sin_pi(2 * k * (c + g.L + 1), 2 * m) for c in x])
             for x, _ in ends]
    axes = np.flatnonzero(np.subtract(*edge))
    if len(axes) == 1 and len(terms) == 2:
        p, q = (x[axes[0]] + g.L + 1 for x in edge)
        terms[0][axes[0]] = (2.0 * _sin_pi(k * (p + q) + m, 2 * m)
                             * _sin_pi(k * (p - q), 2 * m))
        return terms[:1]
    for f, (_, s) in zip(terms, ends):
        f[0] *= s
    return terms if len(axes) else []


def _exp_nodes(lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t_j, weights w_j with sum_j w_j e^(-t_j lambda) = 1/lambda^2 on
    [lo, hi]: the trapezoidal rule, step h = 0.2 in s = ln t, for
    int t e^(-lambda t) dt, whose strip |Im s| < pi/2 bounds the step's error
    by about 1e-18 (Trefethen & Weideman, SIAM Rev. 56, 2014); the ends cut
    the tails, (lambda t)^2 / 2 and (1 + lambda t) e^(-lambda t), below 1e-17."""
    h = 0.2
    s = h * np.arange(math.floor(0.5 * math.log(2e-17 / hi ** 2) / h),
                      math.ceil(math.log(43.0 / lo) / h) + 1)
    t = np.exp(s)
    return t, h * t * t


def _mode_sum(t: np.ndarray, w: np.ndarray, lam: np.ndarray,
              F: np.ndarray) -> np.ndarray:
    """sum_k prod_a F[r, a, k_a] / lambda_k^2 per row r, lambda_k summing
    lam over the axes, as sum_j w_j prod_a sum_k F[r, a, k] e^(-t_j lam[k])
    (``_exp_nodes``; Beylkin & Monzon, Appl. Comput. Harmon. Anal. 28,
    2010): O(d side) per row and node, NODE_CHUNK nodes at a time."""
    out = np.zeros(len(F))
    for j in range(0, len(t), NODE_CHUNK):
        E = np.multiply.outer(lam, -t[j:j + NODE_CHUNK])
        np.exp(E, out=E)
        P = np.prod([F[:, a] @ E for a in range(F.shape[1])], axis=0)
        out += P @ w[j:j + NODE_CHUNK]
    return out


def covariances(A: DirichletLaplacian, pairs: list[tuple[Edge, Edge]],
                eta2: float) -> tuple[np.ndarray, np.ndarray]:
    """Disorder covariances C(a, b) = eta2 sum_y T_{a,y} T_{b,y} of the mean
    gradient, one per edge pair, and a bound on the error of each.

    For the nearest-neighbour kernel (``sine_diagonal``) I - P is
    diagonal in the orthonormal sine modes psi_k(x) = prod_a sqrt(2/m)
    sin(pi k_a (x_a + L + 1) / m), m = 2L + 2, and nothing is solved:
    C(a, b) = eta2 sum_k dpsi_k(a) dpsi_k(b) / lambda_k^2, dpsi_k(a) being
    the difference of psi_k across the edge, summed over J nodes
    (``_mode_sum``).  The bound is c eps sum_k |terms| with
    c = d (side + 23) + J + 44: sines and lambda carry no cancellation, so
    a term's factors are good to 21 (d + 1) eps and the scaling to d + 2;
    the nodes give 1/lambda^2 to 18 eps (measured: 4); per-axis sums of
    side terms, their product and the node sum add d side + d + J, and a
    pair's at most four terms 3.  Any other kernel takes the inner product
    of two edge responses, one solve per distinct edge, with the bound
    REL_TOLERANCE |C|.  Both sum at unit disorder and multiply by eta2
    once, adding the absolute rounding step of that product, the smallest
    subnormal, to the bound of each nonzero C: it is the error of a
    subnormal C.
    """
    if not 0.0 < eta2 < math.inf:
        raise ValueError("eta2 must be > 0 and finite")
    g = A.geometry
    if not sine_diagonal(A.kernel):
        edges = dict.fromkeys(e for pair in pairs for e in pair)
        response = {e: _edge_response(A, e) for e in edges}
        values = np.array([response[a] @ response[b] for a, b in pairs])
        bounds = REL_TOLERANCE * np.abs(values)
    else:
        rows, terms = [], []
        for n, (a, b) in enumerate(pairs):
            for fa, fb in product(_mode_terms(g, a), _mode_terms(g, b)):
                rows.append(n)
                terms.append(fa * fb)
        values = bounds = np.zeros(len(pairs))
        if terms:
            lam = _symbol(g, A.kernel)[0]  # the same on every axis
            t, w = _exp_nodes(g.d * lam.min(), g.d * lam.max())
            F = np.concatenate([terms, np.abs(terms)])
            value, total = _mode_sum(t, w, lam, F).reshape(2, -1)
            scale = (2.0 / (g.side + 1)) ** g.d
            bound = (g.d * (g.side + 23) + len(t) + 44) * np.finfo(float).eps * scale
            values = scale * np.bincount(rows, value, len(pairs))
            bounds = bound * np.bincount(rows, total, len(pairs))
    step = np.where(values == 0.0, 0.0, np.finfo(float).smallest_subnormal)
    return eta2 * values, eta2 * bounds + step
