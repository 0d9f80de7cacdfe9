"""Metropolis sampling of the finite-volume measure for general potentials.

The target density on interior heights (zero boundary condition, fixed
disorder eta) is proportional to exp(-H) with H from :mod:`gradlab.model`.
The sampler is random-scan single-site Metropolis with Gaussian proposals:
one sweep proposes |Lambda| moves at uniformly random sites, so detailed
balance holds for the exact target.  The proposal width can be autotuned
toward a target acceptance rate during burn-in only; it is frozen during
measurement.

The main estimator is the time average of V'(phi_i - phi_j) on a set of
edges, with batch-means error bars, which for the quadratic potential can
be checked edge by edge against the exact Gaussian solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping

import numpy as np
from scipy.integrate import quad

from .model import (BoxGeometry, DisorderField, Edge, HeightField, Kernel,
                    Potential, Site, VectorField, add, canonical_edge,
                    chain_stream, neighbor_index)
from .quadrature import QuadratureError

#: proposals beyond this height are rejected outright (and counted); the
#: superlinear growth of V makes genuine excursions this large impossible
HEIGHT_CAP = 1e6

#: number of batches for batch-means error bars
N_BATCHES = 30


@dataclass(frozen=True)
class SamplerConfig:
    proposal_width: float = 1.0
    burn_in_sweeps: int = 2000
    measure_sweeps: int = 20000
    thin: int = 1
    target_acceptance: float = 0.44
    autotune: bool = True

    def __post_init__(self) -> None:
        if self.proposal_width <= 0.0:
            raise ValueError("proposal_width must be > 0")
        if not 0.0 < self.target_acceptance < 1.0:
            raise ValueError("target_acceptance must be in (0, 1)")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.measure_sweeps < 100 * self.thin:
            raise ValueError("measure_sweeps must be >= 100 * thin")
        if self.burn_in_sweeps < 0:
            raise ValueError("burn_in_sweeps must be >= 0")


@dataclass
class ChainState:
    """Mutable chain state: heights, generator, and bookkeeping counters."""

    phi: np.ndarray
    rng: np.random.Generator
    sweeps: int = 0
    cap_rejects: int = 0

    @classmethod
    def cold_start(cls, g: BoxGeometry, seed: int = 0, chain: int = 0) -> "ChainState":
        """Fresh chain at phi = 0 with its own split random stream."""
        return cls(phi=np.zeros(g.n_sites), rng=chain_stream(seed, chain))

    def heights(self, g: BoxGeometry) -> HeightField:
        return HeightField(g, self.phi.copy())


@dataclass(frozen=True)
class EdgeEstimate:
    mean: float
    stderr: float
    n_eff: float


# ---------------------------------------------------------------------------
# site tables and the sweep kernel


@lru_cache(maxsize=16)
def _site_table(g: BoxGeometry, k: Kernel) -> tuple[list[list[int]], list[float]]:
    """Per-site neighbor slots and kernel weights for the sweep loop.

    Slot g.n_sites is the frozen boundary slot (height 0); every site's
    neighbor list has one entry per kernel offset, in kernel support order.
    """
    nbr = neighbor_index(g, k)
    return np.where(nbr < 0, g.n_sites, nbr).T.tolist(), [w for _, w in k.support()]


def _run_sweeps(ph: list[float], table: list[list[int]], weights: list[float],
                eta_list: list[float], vpot: Potential, width: float,
                rng: np.random.Generator, n_sweeps: int) -> tuple[int, int]:
    """Random-scan Metropolis sweeps on the height list (in place).

    Returns (accepted moves, cap rejections).  ph has length n+1 with the
    boundary slot last; the inner loop is plain Python floats for speed.
    """
    n = len(ph) - 1
    a = vpot.a
    b = vpot.b
    pairs = list(zip(range(len(weights)), weights))
    total = n * n_sweeps
    sites = rng.integers(0, n, size=total).tolist()
    steps = rng.normal(0.0, width, size=total).tolist()
    thresholds = rng.exponential(size=total).tolist()
    accepted = 0
    capped = 0
    for t in range(total):
        i = sites[t]
        old = ph[i]
        new = old + steps[t]
        if new > HEIGHT_CAP or new < -HEIGHT_CAP:
            capped += 1
            continue
        de = 0.0
        nbi = table[i]
        for kk, w in pairs:
            hj = ph[nbi[kk]]
            t1 = new - hj
            t2 = old - hj
            q1 = t1 * t1
            q2 = t2 * t2
            de += w * (0.5 * a * (q1 - q2) + b * (q1 * q1 - q2 * q2))
        de -= eta_list[i] * (new - old)
        if de <= 0.0 or thresholds[t] > de:
            ph[i] = new
            accepted += 1
    return accepted, capped


# ---------------------------------------------------------------------------
# public operations


def conditional_logdensity(g: BoxGeometry, k: Kernel, vpot: Potential,
                           phi: HeightField, eta: DisorderField,
                           site: Site, t: float) -> float:
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


def metropolis_sweep(state: ChainState, g: BoxGeometry, k: Kernel,
                     vpot: Potential, eta: DisorderField,
                     cfg: SamplerConfig) -> tuple[ChainState, float]:
    """One random-scan sweep (|Lambda| proposals); returns the acceptance rate.

    Deterministic given the state's generator; the state is advanced in
    place and also returned.
    """
    table, weights = _site_table(g, k)
    ph = state.phi.tolist() + [0.0]
    accepted, capped = _run_sweeps(ph, table, weights, eta.values.tolist(),
                                   vpot, cfg.proposal_width, state.rng, 1)
    state.phi = np.asarray(ph[:-1])
    state.sweeps += 1
    state.cap_rejects += capped
    return state, accepted / g.n_sites


class EdgeEstimates(Mapping[Edge, EdgeEstimate]):
    """Estimates of the mean of V'(phi_i - phi_j) per canonical edge.

    Also carries the per-batch means (n_batches x n_edges) so that derived
    quantities such as per-site divergence residuals can propagate the full
    joint chain fluctuations instead of assuming independent edges.
    """

    def __init__(self, edges: list[Edge], estimates: dict[Edge, EdgeEstimate],
                 batch_means: np.ndarray, acceptance_rate: float,
                 proposal_width: float, cap_rejects: int, retained: int):
        self.edge_list = edges
        self._estimates = estimates
        self.batch_means = batch_means
        self.acceptance_rate = acceptance_rate
        self.proposal_width = proposal_width
        self.cap_rejects = cap_rejects
        self.retained = retained
        self._column = {e: c for c, e in enumerate(edges)}

    def __getitem__(self, edge: Edge) -> EdgeEstimate:
        return self._estimates[edge]

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.edge_list)

    def __len__(self) -> int:
        return len(self.edge_list)

    def signed_mean(self, i: Site, j: Site) -> float:
        """Estimate for the oriented edge (i, j); exact antisymmetry by storage."""
        key, sign = canonical_edge(i, j)
        return sign * self._estimates[key].mean

    def signed_column(self, i: Site, j: Site) -> tuple[int, float]:
        key, sign = canonical_edge(i, j)
        return self._column[key], sign


def estimate_gradient_mean(g: BoxGeometry, k: Kernel, vpot: Potential,
                           eta: DisorderField, edges: list[Edge],
                           cfg: SamplerConfig, seed: int = 0,
                           chain: int = 0) -> EdgeEstimates:
    """Run one chain and estimate the gradient mean on the requested edges.

    Burn-in (with optional proposal autotuning) is followed by measurement
    of V'(phi_i - phi_j) every `thin` sweeps; means and batch-means standard
    errors are reported per canonical edge.  Poor mixing shows up as large
    stderr, never as an error.
    """
    table, weights = _site_table(g, k)
    eta_list = eta.values.tolist()
    state = ChainState.cold_start(g, seed=seed, chain=chain)
    ph = state.phi.tolist() + [0.0]
    width = cfg.proposal_width
    n = g.n_sites

    # burn-in; stochastic-approximation autotuning in chunks, frozen afterward
    chunk = 25
    done = 0
    chunk_index = 0
    while done < cfg.burn_in_sweeps:
        todo = min(chunk, cfg.burn_in_sweeps - done)
        accepted, capped = _run_sweeps(ph, table, weights, eta_list, vpot,
                                       width, state.rng, todo)
        state.cap_rejects += capped
        if cfg.autotune:
            rate = accepted / (todo * n)
            gain = 1.0 / (1.0 + chunk_index) ** 0.6
            width *= math.exp(gain * (rate - cfg.target_acceptance))
        done += todo
        chunk_index += 1

    canon = list(dict.fromkeys(canonical_edge(i, j)[0] for i, j in edges))
    ei = np.array([g.index_of(i) if g.contains(i) else n for i, _ in canon])
    ej = np.array([g.index_of(j) if g.contains(j) else n for _, j in canon])

    retained = (cfg.measure_sweeps // cfg.thin // N_BATCHES) * N_BATCHES
    if retained < N_BATCHES:
        raise ValueError("not enough retained samples for batch means")
    batch_size = retained // N_BATCHES
    n_edges = len(canon)
    batch_sums = np.zeros((N_BATCHES, n_edges))
    total_sq = np.zeros(n_edges)
    accepted_meas = 0
    for s in range(retained):
        acc, capped = _run_sweeps(ph, table, weights, eta_list, vpot, width,
                                  state.rng, cfg.thin)
        accepted_meas += acc
        state.cap_rejects += capped
        arr = np.asarray(ph)
        dv = np.asarray(vpot.derivative(arr[ei] - arr[ej]))
        batch_sums[s // batch_size] += dv
        total_sq += dv * dv

    state.phi = np.asarray(ph[:-1])
    state.sweeps += cfg.burn_in_sweeps + retained * cfg.thin
    batch_means = batch_sums / batch_size
    means = batch_means.mean(axis=0)
    bvar = batch_means.var(axis=0, ddof=1)
    stderr = np.sqrt(bvar / N_BATCHES)
    marginal_var = total_sq / retained - means ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        n_eff = np.where(stderr > 0.0, marginal_var / stderr ** 2, float(retained))
    n_eff = np.clip(np.nan_to_num(n_eff, nan=float(retained)), 1.0, float(retained))

    estimates = {e: EdgeEstimate(float(means[c]), float(stderr[c]), float(n_eff[c]))
                 for c, e in enumerate(canon)}
    return EdgeEstimates(canon, estimates, batch_means,
                         acceptance_rate=accepted_meas / (retained * cfg.thin * n),
                         proposal_width=width, cap_rejects=state.cap_rejects,
                         retained=retained)


def divergence_check(est: EdgeEstimates, eta: DisorderField, g: BoxGeometry,
                     k: Kernel) -> tuple[np.ndarray, np.ndarray]:
    """Per-site divergence residuals of the estimated field, with stderrs.

    residual_i = eta_i - sum_j p(j-i) Xhat_{ij}.  The standard error is
    batch-propagated: the weighted edge sum is re-formed per batch, so
    correlations between edges sharing the chain are handled exactly.
    """
    # an edge field of estimate column + 1 (0: no estimate); read from site
    # i, its sign is the orientation of the stored edge relative to (i, i + v)
    index = VectorField(g, k)
    for c, (i, j) in enumerate(est.edge_list):
        index.set(i, j, c + 1.0)
    signed = index.site_values()
    if not np.all(signed):
        raise KeyError("the estimates miss a kernel edge of an interior site")
    # per-column means summed exactly as batch_means[:, c].mean() does
    means = np.ascontiguousarray(est.batch_means.T).mean(axis=1)
    flux = np.zeros(g.n_sites)
    batch_flux = np.zeros((est.batch_means.shape[0], g.n_sites))
    for (_, w), row in zip(k.support(), signed):
        cols = np.abs(row).astype(int) - 1
        flux += w * np.sign(row) * means[cols]
        batch_flux += w * np.sign(row) * est.batch_means[:, cols]
    residuals = eta.values - flux
    stderrs = batch_flux.std(axis=0, ddof=1) / math.sqrt(batch_flux.shape[0])
    return residuals, stderrs


# ---------------------------------------------------------------------------
# single-site oracle


@dataclass(frozen=True)
class SingleSiteOracle:
    """Quadrature values for one site coupled only to zero boundary heights."""

    mean_height: float
    mean_derivative: float  # <V'(phi)> , the same on every edge to the boundary
    flux: float             # sum_j p_j <V'> over the boundary edges
    field: float            # the external field eta_i the flux should match

    @property
    def residual(self) -> float:
        return self.flux - self.field


def single_site_quadrature_oracle(vpot: Potential, eta_i: float,
                                  weights: list[float]) -> SingleSiteOracle:
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
