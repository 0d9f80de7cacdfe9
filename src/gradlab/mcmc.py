"""Metropolis sampling of the finite-volume measure for general potentials.

The target density on interior heights (zero boundary condition, fixed
disorder eta) is proportional to exp(-H) with H from :mod:`gradlab.model`.
The sampler is systematic-scan single-site Metropolis with Gaussian
proposals, one colour class at a time: the sites are split into classes of
which no two are kernel neighbours (the two parity classes for ``nn``), so
the single-site conditionals within a class do not depend on each other and
the class's moves are one array operation.  Each class update is a product
of single-site Metropolis kernels for the exact conditionals, hence leaves
the target invariant; a sweep is their composition.  The proposal width can
be autotuned toward a target acceptance rate during burn-in only; it is
frozen during measurement.

The main estimator is the time average of V'(phi_i - phi_j) on every
kernel edge, with batch-means error bars, as edge fields like the exact
Gaussian mean gradient, against which it can be checked edge by edge for
the quadratic potential.  ``divergence_check`` forms its site fluxes with
the ``model.site_flux`` of the exact diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .diagnostics import divergence_residual
from .model import (BoxGeometry, DisorderField, HeightField, Kernel, Potential,
                    Site, VectorField, add, chain_stream, edge_table,
                    neighbor_index, site_flux)
from .quadrature import QuadratureError

#: proposals beyond this height are rejected outright (and counted); the
#: superlinear growth of V makes genuine excursions this large impossible
HEIGHT_CAP = 1e6

#: number of batches for batch-means error bars
N_BATCHES = 30

#: most sweeps (burn-in) or retained samples (measurement) per block of
#: random numbers; burn-in autotunes the proposal width once per block
BLOCK = 25


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


@dataclass(frozen=True)
class GradientEstimate:
    """Time averages of V'(phi_i - phi_j) on every kernel edge, as edge fields
    of the sampled (geometry, kernel).

    ``stderr`` (batch means) and ``n_eff`` change sign with the orientation
    like any field.  ``batch_means`` holds the edge-field data of each
    batch's mean, one row per batch, for quantities such as site fluxes
    whose errors must carry the chain's correlations between edges.
    """

    mean: VectorField
    stderr: VectorField
    n_eff: VectorField
    batch_means: np.ndarray
    acceptance_rate: float
    proposal_width: float
    cap_rejects: int
    retained: int


# ---------------------------------------------------------------------------
# colour classes and the sweep


@lru_cache(maxsize=16)
def colour_classes(g: BoxGeometry, k: Kernel) -> tuple[np.ndarray, ...]:
    """Site indices split into classes of which no two sites are kernel neighbours.

    Greedy colouring of ``neighbor_index`` in site order: each site joins the
    first class holding none of its earlier neighbours.  For ``nn`` these are
    the two parity classes; ``axis2`` gets three in d = 1 and four in d >= 2.
    Cached per (geometry, kernel).
    """
    colour: list[int] = []
    for i, row in enumerate(neighbor_index(g, k).T.tolist()):
        taken = {colour[j] for j in row if 0 <= j < i}
        colour.append(min(set(range(len(taken) + 1)) - taken))
    labels = np.array(colour)
    return tuple(np.flatnonzero(labels == c) for c in range(max(colour) + 1))


class Chain:
    """One Metropolis chain on a box: heights, random stream, sweep tables.

    ``ph`` holds the interior heights in site order followed by the frozen
    boundary slot (height 0), which every neighbour outside the box reads.
    """

    def __init__(self, g: BoxGeometry, k: Kernel, vpot: Potential,
                 eta: DisorderField, seed: int = 0, chain: int = 0):
        nbr = neighbor_index(g, k)
        slots = np.where(nbr < 0, g.n_sites, nbr)
        #: per colour class: its sites, their neighbour slots and fields, and
        #: its span of columns in a row of random numbers (any fixed span
        #: will do, as the numbers are i.i.d.)
        self.classes = []
        lo = 0
        for sites in colour_classes(g, k):
            self.classes.append((sites, slots[:, sites], eta.values[sites],
                                 slice(lo, lo + len(sites))))
            lo += len(sites)
        self.weights = np.array([w for _, w in k.support()])
        self.vpot = vpot
        self.ph = np.zeros(g.n_sites + 1)
        self.rng = chain_stream(seed, chain)
        self.cap_rejects = 0

    def energy_change(self, c: int, old: np.ndarray, new: np.ndarray) -> np.ndarray:
        """H after minus H before moving each site of class c alone from old
        (its current height) to new; the other sites keep their heights."""
        _, slots, eta, _ = self.classes[c]
        step = new - old
        t2 = old - self.ph[slots]
        t1 = t2 + step
        q1 = t1 * t1
        q2 = t2 * t2
        # V(t1) - V(t2) = (q1 - q2) (a/2 + b (q1 + q2)) on each edge
        pair = (q1 - q2) * (0.5 * self.vpot.a + self.vpot.b * (q1 + q2))
        return np.dot(self.weights, pair) - eta * step

    def run(self, width: float, n_sweeps: int, every: int = 0) -> tuple[int, np.ndarray]:
        """Run n_sweeps sweeps with Gaussian proposals of the given width.

        A sweep updates the colour classes in turn, each as one vectorised
        Metropolis step.  The random numbers of all n_sweeps sweeps are drawn
        at once, so callers keep n_sweeps small.  Returns the accepted moves
        and a copy of ``ph`` after every `every`-th sweep (none for 0).
        """
        n = len(self.ph) - 1
        steps = self.rng.normal(0.0, width, size=(n_sweeps, n))
        thresholds = self.rng.exponential(size=(n_sweeps, n))
        kept = np.empty((n_sweeps // every if every else 0, n + 1))
        accepted = 0
        for s in range(n_sweeps):
            for c, (sites, _, _, span) in enumerate(self.classes):
                old = self.ph[sites]
                new = old + steps[s, span]
                # Exp(1) >= dH with probability min(1, exp(-dH))
                ok = thresholds[s, span] >= self.energy_change(c, old, new)
                capped = np.abs(new) > HEIGHT_CAP
                n_capped = int(np.count_nonzero(capped))
                if n_capped:
                    ok &= ~capped
                    self.cap_rejects += n_capped
                self.ph[sites] = np.where(ok, new, old)
                accepted += int(np.count_nonzero(ok))
            if every and (s + 1) % every == 0:
                kept[s // every] = self.ph
        return accepted, kept


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


def estimate_gradient_mean(g: BoxGeometry, k: Kernel, vpot: Potential,
                           eta: DisorderField, cfg: SamplerConfig,
                           seed: int = 0, chain: int = 0) -> GradientEstimate:
    """Run one chain and estimate the gradient mean on every kernel edge.

    Burn-in (with optional proposal autotuning) is followed by measurement
    of V'(phi_i - phi_j) every `thin` sweeps, accumulated per block as a
    (retained samples, edges) array in ``kernel_edges`` order.  Poor mixing
    shows up as large stderr, never as an error.
    """
    sampler = Chain(g, k, vpot, eta, seed=seed, chain=chain)
    width = cfg.proposal_width
    n = g.n_sites

    # burn-in; stochastic-approximation autotuning per block, frozen afterward
    for index, done in enumerate(range(0, cfg.burn_in_sweeps, BLOCK)):
        todo = min(BLOCK, cfg.burn_in_sweeps - done)
        accepted, _ = sampler.run(width, todo)
        if cfg.autotune:
            rate = accepted / (todo * n)
            gain = 1.0 / (1.0 + index) ** 0.6
            width *= math.exp(gain * (rate - cfg.target_acceptance))

    ei, ej = edge_table(g, k)[0]
    retained = (cfg.measure_sweeps // cfg.thin // N_BATCHES) * N_BATCHES
    if retained < N_BATCHES:
        raise ValueError("not enough retained samples for batch means")
    batch_size = retained // N_BATCHES
    batch_sums = np.zeros((N_BATCHES, len(ei)))
    total_sq = np.zeros(len(ei))
    accepted_meas = 0
    for batch in range(N_BATCHES):
        for done in range(0, batch_size, BLOCK):
            keep = min(BLOCK, batch_size - done)
            accepted, kept = sampler.run(width, keep * cfg.thin, every=cfg.thin)
            accepted_meas += accepted
            dv = np.asarray(vpot.derivative(kept[:, ei] - kept[:, ej]))
            batch_sums[batch] += dv.sum(axis=0)
            total_sq += (dv * dv).sum(axis=0)

    batch_means = batch_sums / batch_size
    means = batch_means.mean(axis=0)
    bvar = batch_means.var(axis=0, ddof=1)
    stderr = np.sqrt(bvar / N_BATCHES)
    marginal_var = total_sq / retained - means ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        n_eff = np.where(stderr > 0.0, marginal_var / stderr ** 2, float(retained))
    n_eff = np.clip(np.nan_to_num(n_eff, nan=float(retained)), 1.0, float(retained))

    def field(values: np.ndarray) -> VectorField:
        return VectorField.from_edge_values(g, k, values)

    return GradientEstimate(
        field(means), field(stderr), field(n_eff),
        np.stack([field(row).data for row in batch_means]),
        acceptance_rate=accepted_meas / (retained * cfg.thin * n),
        proposal_width=width, cap_rejects=sampler.cap_rejects, retained=retained)


def divergence_check(est: GradientEstimate, eta: DisorderField, g: BoxGeometry,
                     k: Kernel) -> tuple[np.ndarray, np.ndarray]:
    """Per-site divergence residuals of the estimated field, with stderrs.

    residual_i = eta_i - sum_j p(j-i) Xhat_{ij}.  The standard error is
    batch-propagated: the site flux is re-formed per batch, so correlations
    between edges sharing the chain are handled exactly.
    """
    residuals, _ = divergence_residual(est.mean, eta, g, k)
    batch_flux = site_flux(g, k, est.batch_means)
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
