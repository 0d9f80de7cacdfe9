"""Exact linear algebra for the quadratic model V(t) = t^2/2.

With a quadratic potential the finite-volume measure is Gaussian and the
mean gradient field is linear in the disorder:

    X_ij = (G eta)_i - (G eta)_j,   G = (I - P)^{-1}

where P is the random-walk transition operator restricted to the box with
zero (Dirichlet) exterior.  The response matrix T_{ij,y} = G_iy - G_jy
gives the disorder covariance of X as eta2 T T^t.

For the nearest-neighbour kernel I - P is diagonal in the type-I discrete
sine basis: ``solve_array`` is one forward and one inverse DST-I, and
``covariances`` is a closed-form sum over the sine modes that solves
nothing.  Every other kernel (the range-2 ``axis2`` stencil is not
DST-diagonalisable) is solved by conjugate gradients on the matrix-free
operator, and its covariances are inner products of Green-column
differences.  ``dense_operator``/``sparse_operator`` provide direct-solver
oracles for small boxes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import product

import numpy as np
from scipy.fft import dstn, idstn
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import LinearOperator, cg

from .model import (BoxGeometry, DisorderField, Edge, HeightField, Kernel,
                    Site, VectorField, _pad_heights, _shifted, gradient_of,
                    neighbor_index, validate_kernel)


class SolverError(RuntimeError):
    """Linear solve failed to reach the requested residual."""

    def __init__(self, message: str, achieved_residual: float):
        super().__init__(message)
        self.achieved_residual = achieved_residual


@dataclass(frozen=True)
class SolverConfig:
    """Residual target ||Au - b|| <= rel_tolerance ||b||, checked after every
    solve; ``max_iterations`` caps the conjugate-gradient path only (default
    10 * n_sites, set at solve time), the sine-transform solve has no
    iterations."""

    rel_tolerance: float = 1e-10
    max_iterations: int | None = None

    def __post_init__(self) -> None:
        if self.rel_tolerance <= 0.0:
            raise ValueError("rel_tolerance must be > 0")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


DEFAULT_SOLVER = SolverConfig()


@dataclass(frozen=True)
class DirichletLaplacian:
    """The operator (I - P) on interior height vectors, zero outside the box.

    Symmetric positive definite for any valid kernel; immutable and safe to
    share across threads (each apply() owns its scratch array).
    """

    geometry: BoxGeometry
    kernel: Kernel

    def __post_init__(self) -> None:
        report = validate_kernel(self.kernel)
        if report is not None:
            raise ValueError(f"invalid kernel: {report}")
        if self.kernel.d != self.geometry.d:
            raise ValueError("kernel and geometry dimensions differ")
        if not self.geometry.covers(self.kernel):
            raise ValueError("geometry shell does not cover the kernel range")

    @property
    def n(self) -> int:
        return self.geometry.n_sites

    @cached_property
    def _support(self) -> tuple[tuple[Site, float], ...]:
        return tuple(self.kernel.support())

    def apply(self, x: np.ndarray) -> np.ndarray:
        g = self.geometry
        full = _pad_heights(g, x)
        out = _shifted(g, full, (0,) * g.d).copy()
        for v, w in self._support:
            out -= w * _shifted(g, full, v)
        return out.ravel()

    def as_linear_operator(self) -> LinearOperator:
        return LinearOperator((self.n, self.n), matvec=self.apply, dtype=float)


def dense_operator(A: DirichletLaplacian) -> np.ndarray:
    """Dense matrix of A, for direct-solver cross-checks on small boxes."""
    return sparse_operator(A).toarray()


def sparse_operator(A: DirichletLaplacian) -> csr_matrix:
    """Sparse CSR form of A, for factorized multi-column solves.

    Assembled in COO order: the unit diagonal, then one block per kernel
    offset with the sites whose neighbour lies inside the box.
    """
    g = A.geometry
    sites = np.arange(g.n_sites)
    rows, cols, vals = [sites], [sites], [np.ones(g.n_sites)]
    for (_, w), nbr in zip(A.kernel.support(), neighbor_index(g, A.kernel)):
        inside = nbr >= 0
        rows.append(sites[inside])
        cols.append(nbr[inside])
        vals.append(np.full(len(cols[-1]), -w))
    return csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(g.n_sites, g.n_sites))


def solver_method(kernel: Kernel) -> str:
    """How ``solve_array`` solves with this kernel: "dst" (exact sine
    transform) for the nearest-neighbour kernel, "cg" for any other."""
    return "dst" if kernel == Kernel.nearest_neighbor(kernel.d) else "cg"


def _dst_solve(A: DirichletLaplacian, b: np.ndarray) -> np.ndarray:
    """Exact solve for the nearest-neighbour kernel on {-L..L}^d.

    The modes prod_a sin(pi k_a (x_a + L + 1) / m), m = 2L + 2, k_a = 1..2L+1,
    vanish on the exterior layer and diagonalise I - P with eigenvalues
    1 - (1/d) sum_a cos(pi k_a / m) (all > 0), so u = DST^-1(DST(b) / lambda).
    """
    g = A.geometry
    c = np.cos(np.pi * np.arange(1, g.side + 1) / (g.side + 1))
    lam = 1.0 - reduce(np.add.outer, [c] * g.d) / g.d
    return idstn(dstn(b.reshape(g.shape), type=1) / lam, type=1).ravel()


def _cg_solve(A: DirichletLaplacian, b: np.ndarray,
              cfg: SolverConfig) -> tuple[np.ndarray, str | None]:
    """Conjugate gradients on the matrix-free operator, stopped at relative
    residual cfg.rel_tolerance or after cfg.max_iterations steps (default
    10 * n).  Returns the iterate and, if the cap stopped it, why."""
    maxiter = cfg.max_iterations if cfg.max_iterations is not None else 10 * A.n
    x, info = cg(A.as_linear_operator(), b, rtol=cfg.rel_tolerance, atol=0.0,
                 maxiter=maxiter)
    if info != 0:
        return x, f"conjugate gradients did not converge within {maxiter} iterations"
    return x, None


def solve_array(A: DirichletLaplacian, b: np.ndarray,
                cfg: SolverConfig = DEFAULT_SOLVER) -> np.ndarray:
    """Solve A u = b to ||Au - b|| <= rel_tolerance ||b||, else SolverError.

    The method follows from the kernel (see ``solver_method``): the exact
    DST-I solve for nearest neighbours, conjugate gradients otherwise.  One
    residual evaluation checks either result.
    """
    b = np.asarray(b, dtype=float)
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return np.zeros_like(b)
    method = solver_method(A.kernel)
    if method == "dst":
        x, stopped = _dst_solve(A, b), None
    else:
        x, stopped = _cg_solve(A, b, cfg)
    achieved = float(np.linalg.norm(A.apply(x) - b))
    if stopped is not None or achieved > cfg.rel_tolerance * norm_b * 1.001:
        raise SolverError(
            f"{stopped or f'{method} solve missed the tolerance'}: "
            f"residual {achieved:.3e} > {cfg.rel_tolerance:.1e} * ||b|| = "
            f"{cfg.rel_tolerance * norm_b:.3e}", achieved)
    return x


def solve_green(A: DirichletLaplacian, source: HeightField,
                cfg: SolverConfig = DEFAULT_SOLVER) -> HeightField:
    """Solve (I - P) u = source on the box."""
    return HeightField(A.geometry, solve_array(A, source.values, cfg))


def green_column(A: DirichletLaplacian, y: Site,
                 cfg: SolverConfig = DEFAULT_SOLVER) -> np.ndarray:
    """Green column G(., y), i.e. the solve with a unit source at interior y."""
    b = np.zeros(A.n)
    b[A.geometry.index_of(y)] = 1.0
    return solve_array(A, b, cfg)


def mean_gradient(A: DirichletLaplacian, eta: DisorderField,
                  cfg: SolverConfig = DEFAULT_SOLVER) -> VectorField:
    """Mean gradient field X_ij = u_i - u_j with u = G eta (one solve).

    Defined on every kernel edge touching the box; u is clamped to 0
    outside, so this is simply the gradient field of the solved heights.
    """
    g = A.geometry
    u = HeightField(g, solve_array(A, eta.values, cfg))
    return gradient_of(g, A.kernel, u)


def _edge_response(A: DirichletLaplacian, edge: Edge,
                   cfg: SolverConfig) -> np.ndarray:
    """The vector y -> T_{edge,y}, assembled from one Green column per
    interior endpoint (columns of G are symmetric in their arguments)."""
    out = np.zeros(A.n)
    for x, sign in zip(edge, (1.0, -1.0)):
        if edge[0] != edge[1] and A.geometry.contains(x):
            out += sign * green_column(A, x, cfg)
    return out


def _sin_pi(n: np.ndarray, M: int) -> np.ndarray:
    """sin(pi n / M) for integers n and even M, the angle reduced exactly to
    [-pi/2, pi/2]: good to a few ulps of itself, and exactly 0 at pi j."""
    t = (n + M // 2) % (2 * M) - M // 2
    return np.sin(np.pi / M * np.where(t > M // 2, M - t, t))


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


def _mode_sum(g: BoxGeometry, F: np.ndarray) -> np.ndarray:
    """sum_k prod_a F[t, a, k_a] / lambda_k^2 for each row t of F.

    Axes 2..d contract first, one slab of k_1 at a time (memory
    O(side^(d-1))), into weights W(k_1) shared by the rows with equal
    factors there; each row then costs O(side).  Modes whose factor
    vanishes in every row are skipped.  lambda_k = (2/d) sum_a
    sin^2(pi k_a / 2m) is 1 - (1/d) sum_a cos(pi k_a / m) without the
    cancellation."""
    d, m = g.d, g.side + 1
    lam = 2.0 / d * _sin_pi(np.arange(1, m), 2 * m) ** 2
    keep = [np.flatnonzero(np.any(F[:, a] != 0.0, axis=0)) for a in range(d)]
    U, which = np.unique(F[:, 1:], axis=0, return_inverse=True)
    rest = reduce(np.add.outer, [lam[kp] for kp in keep[1:]], np.zeros(()))
    step = max(1, min(len(keep[0]), (1 << 19) // rest.size))
    slab = np.empty((step,) + rest.shape)  # reused: fresh pages cost 4x the arithmetic
    W = np.zeros((len(U), g.side))
    for start in range(0, len(keep[0]), step):
        ks = keep[0][start:start + step]
        x = slab[:len(ks)]
        np.add(lam[ks].reshape((-1,) + (1,) * (d - 1)), rest, out=x)
        np.reciprocal(x, out=x)
        x = np.multiply(x, x, out=x)[..., None]
        for a in range(d - 1, 0, -1):
            x = np.einsum("...it,ti->...t", x, U[:, a - 1, keep[a]])
        W[:, ks] = x.T
    return np.einsum("tk,tk->t", F[:, 0], W[which.ravel()])


def covariances(A: DirichletLaplacian, pairs: list[tuple[Edge, Edge]],
                eta2: float, cfg: SolverConfig = DEFAULT_SOLVER
                ) -> tuple[np.ndarray, np.ndarray]:
    """Disorder covariances C(a, b) = eta2 sum_y T_{a,y} T_{b,y} of the mean
    gradient, one per edge pair, and a bound on the error of each.

    For the nearest-neighbour kernel (``solver_method`` "dst") I - P is
    diagonal in the orthonormal sine modes psi_k(x) = prod_a sqrt(2/m)
    sin(pi k_a (x_a + L + 1) / m), m = 2L + 2, and nothing is solved:
    C(a, b) = eta2 sum_k dpsi_k(a) dpsi_k(b) / lambda_k^2, dpsi_k(a) being
    the difference of psi_k across the edge.  The bound is c eps
    sum_k |terms| with c = d (side + 22) + 26: sines and lambda carry no
    cancellation, so a term is good to 21 (d + 1) eps and the scaling to
    d + 2; d nested sums of side terms and a pair's at most four terms add
    d (side - 1) + 3.  Any other kernel takes the inner product of two
    Green-column differences, with the bound rel_tolerance |C|.
    """
    if eta2 <= 0.0:
        raise ValueError("eta2 must be > 0")
    g = A.geometry
    if solver_method(A.kernel) != "dst":
        response = {e: _edge_response(A, e, cfg) for pair in pairs for e in pair}
        values = eta2 * np.array([response[a] @ response[b] for a, b in pairs])
        return values, cfg.rel_tolerance * np.abs(values)
    rows, terms = [], []
    for n, (a, b) in enumerate(pairs):
        for fa, fb in product(_mode_terms(g, a), _mode_terms(g, b)):
            rows.append(n)
            terms.append(fa * fb)
    if not terms:
        return np.zeros(len(pairs)), np.zeros(len(pairs))
    F = np.array(terms)
    value, total = _mode_sum(g, np.concatenate([F, np.abs(F)])).reshape(2, -1)
    scale = eta2 * (2.0 / (g.side + 1)) ** g.d
    bound = (g.d * (g.side + 22) + 26) * np.finfo(float).eps * scale
    return (scale * np.bincount(rows, value, len(pairs)),
            bound * np.bincount(rows, total, len(pairs)))


def covariance(A: DirichletLaplacian, a: Edge, b: Edge, eta2: float,
               cfg: SolverConfig = DEFAULT_SOLVER) -> float:
    """Disorder covariance of the mean gradient on edges a and b (see
    ``covariances``)."""
    return float(covariances(A, [(a, b)], eta2, cfg)[0][0])


def variance(A: DirichletLaplacian, a: Edge, eta2: float,
             cfg: SolverConfig = DEFAULT_SOLVER) -> float:
    """Disorder variance of the mean gradient on edge a (covariance with itself)."""
    if eta2 < 0.0:
        raise ValueError("eta2 must be >= 0")
    return covariance(A, a, a, eta2, cfg) if eta2 > 0.0 else 0.0


def exterior_leak(A: DirichletLaplacian) -> np.ndarray:
    """Per-site kernel weight escaping the box: s_i = sum_{j outside} p(j-i).

    Equals A applied to the constant field 1, since the kernel sums to 1.
    """
    return A.apply(np.ones(A.n))


def surface_identity_check(A: DirichletLaplacian,
                           cfg: SolverConfig = DEFAULT_SOLVER) -> float:
    """Max over interior y of |sum over boundary edges of p * T_{.,y} - 1|.

    The weighted boundary-edge sum of the response matrix is identically 1
    for every source site.  The reference formulation evaluates the sum
    column by column from Green solves at each y; this implementation uses
    the equivalent adjoint form (one solve of A w = exterior_leak, then
    max |w - 1|), which the tests check against the per-column reference.
    """
    w = solve_array(A, exterior_leak(A), cfg)
    return float(np.max(np.abs(w - 1.0)))
