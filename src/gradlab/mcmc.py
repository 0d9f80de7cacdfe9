"""Metropolis sampling of the finite-volume measure for general potentials.

The target density on interior heights (zero boundary condition, fixed
disorder eta) is proportional to exp(-H) with H from :mod:`gradlab.model`.
The sampler is systematic-scan single-site Metropolis-within-Gibbs, one
colour class at a time: the sites are split into classes of which no two
are kernel neighbours (the two parity classes for ``nn``), so the
single-site conditionals within a class do not depend on each other and the
class's moves are one array operation.  Each class update is a product of
single-site Metropolis kernels for the exact conditionals, hence leaves the
target invariant; a sweep is their composition.  A site proposes h' = mu +
alpha (h - mu) + sqrt(1 - alpha^2) w z, z ~ N(0, 1), an AR(1) kernel
reversible for its conditional under a harmonic stand-in of stiffness
1/w^2, N(mu, w^2), mu = m + eta w^2, m = sum_j p(j - i) phi_j its
neighbours' mean, w the proposal width: an independence proposal for alpha
= 0 (Tierney, Ann. Statist. 22, 1994), over-relaxation for alpha < 0
(Adler, Phys. Rev. D 23, 1981; Neal 1998).  It moves iff an Exp(1)
threshold is >= E(h') - E(h), E(x) = sum_j p(j - i) [(a - 1/w^2)/2 (x -
phi_j)^2 + b (x - phi_j)^4], so quadratic V at w = 1/sqrt(a) moves always.
Burn-in starts from w = ``START_WIDTH``, runs at alpha = 0 and sets w^2 =
mean(r^2) / (1 + mean(r eta)), r = h - m, over the later half of its blocks
(exact for a harmonic conditional; 1/a at once for b = 0); measurement
keeps w and every sweep, and reflects with alpha = ``OVERRELAX``, only
after a burn-in: about an untuned centre it can stick.

Heights are stored in class order, so a class is a slice of them, lined up
with its columns of random numbers, and a step updates it in place.  The
offsets h' - (1 - alpha) m - alpha h are formed once per block of sweeps; a
step forms (1 - alpha) m + alpha h in one stencil dot over the neighbours
and the site, and E at both heights in one stacked array and one more dot.
A reflection is no convex combination of heights, so the height cap is
tested on each block's proposals after it; if one passed ``HEIGHT_CAP``,
the block runs again from its start, on the same draws, testing every step.

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
from typing import NamedTuple

import numpy as np

from .diagnostics import divergence_residual
from .model import (BoxGeometry, HeightField, Kernel, Potential, VectorField,
                    chain_stream, edge_table, neighbor_index, site_flux)

#: proposals beyond this height are rejected outright (and counted); the
#: superlinear growth of V makes genuine excursions this large impossible
HEIGHT_CAP = 1e6

#: number of batches for batch-means error bars
N_BATCHES = 30

#: most sweeps per block of random numbers; burn-in sets the proposal
#: width once per block
BLOCK = 25

#: the proposal width burn-in starts from, and a run without burn-in keeps
START_WIDTH = 1.0

#: the over-relaxation alpha of the measurement sweeps that follow a burn-in
OVERRELAX = -0.8


@dataclass(frozen=True)
class SamplerConfig:
    burn_in_sweeps: int = 2000
    measure_sweeps: int = 20000

    def __post_init__(self) -> None:
        if self.measure_sweeps < 100:
            raise ValueError("measure_sweeps must be >= 100")
        if self.burn_in_sweeps < 0:
            raise ValueError("burn_in_sweeps must be >= 0")


@dataclass(frozen=True)
class GradientEstimate:
    """Time averages of V'(phi_i - phi_j) on every kernel edge, as edge fields
    of the sampled (geometry, kernel).

    ``stderr`` (batch means) and ``n_eff`` change sign with the orientation
    like any field.  ``batch_means`` holds each batch's mean, one field per
    row of a leading batch axis, for quantities such as site fluxes whose
    errors must carry the chain's correlations between edges.
    """

    mean: VectorField
    stderr: VectorField
    n_eff: VectorField
    batch_means: VectorField
    acceptance_rate: float
    proposal_width: float
    width_change: float
    cap_rejects: int
    retained: int
    overrelaxation: float


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


class _ColourClass(NamedTuple):
    """A chain's colour class: its spans of the heights and its per-step buffers."""

    span: slice
    heights: np.ndarray  # ph[span], a view
    new: np.ndarray      # the proposed heights, a view of the row above ph
    pair: np.ndarray     # new above heights, (2, 1, m), a view
    slots: np.ndarray    # positions in ph of its sites' neighbours, then theirs, (K + 1, m)
    powers: np.ndarray   # (x - phi_j)^2 above (x - phi_j)^4, x each of pair, (2, 2, K, m)
    flat: np.ndarray     # powers as (4K, m), a view
    change: np.ndarray   # E(h') - E(h), (m,)


class Chain:
    """One Metropolis chain on a box: heights, random stream, sweep tables.

    ``ph`` holds the interior heights in colour-class order (class 0's sites,
    then class 1's, ...) followed by the frozen boundary slot (height 0),
    which every neighbour outside the box reads.  ``slot[i]`` is site i's
    position in ``ph`` (``slot[n_sites]`` the boundary slot's), so
    ``ph[slot]`` lists the heights in site order.  It is the second row of
    a pair whose first row, ``new``, holds each class step's proposed
    heights, so after a sweep it holds every class's.
    """

    def __init__(self, g: BoxGeometry, k: Kernel, vpot: Potential,
                 eta: HeightField, seed: int = 0, chain: int = 0):
        classes = colour_classes(g, k)
        order = np.concatenate(classes)
        self.slot = np.argsort(np.append(order, g.n_sites))  # the inverse permutation
        rows = np.zeros((2, g.n_sites + 1))
        self.new, self.ph = rows
        # -1 (outside the box) reads slot[-1], the boundary slot
        self.slots = self.slot[neighbor_index(g, k)][:, order]
        stencil_slots = np.vstack([self.slots, np.arange(g.n_sites)])  # then each site's own
        bounds = np.cumsum([0] + [len(sites) for sites in classes]).tolist()
        self.classes = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            # C order: the stencil dot's summation order follows the memory layout
            span, slots = slice(lo, hi), np.ascontiguousarray(stencil_slots[:, lo:hi])
            powers = np.empty((2, 2, len(self.slots), hi - lo))
            self.classes.append(_ColourClass(
                span, self.ph[span], self.new[span], rows[:, None, span], slots,
                powers, powers.reshape(4 * len(self.slots), -1), np.empty(hi - lo)))
        self.eta = eta.values[order]
        self.weights = np.array([w for _, w in k.support()])
        self.vpot = vpot
        self.rng = chain_stream(seed, chain)
        self.cap_rejects = 0
        #: block buffers: offsets and Exp(1) thresholds, accept flags, ``new`` per sweep
        self.work = np.empty((2, 0, g.n_sites))
        self.ok = np.empty((0, g.n_sites), dtype=bool)
        self.proposals = np.empty((0, g.n_sites + 1))

    def energy_weights(self, width: float) -> np.ndarray:
        """The row of the stencil dot that forms E(h') - E(h): +-(a - 1/width^2)/2 p_j
        on the squares (x - phi_j)^2, +-b p_j on the fourth powers."""
        stiffness = 0.5 * (self.vpot.a - 1.0 / (width * width))
        return np.outer([stiffness, -stiffness, self.vpot.b, -self.vpot.b],
                        self.weights).ravel()

    def stencil(self, alpha: float) -> np.ndarray:
        """The row of the stencil dot that forms (1 - alpha) m + alpha h over
        a class's ``slots``: (1 - alpha) p_j, then alpha."""
        return np.append((1.0 - alpha) * self.weights, alpha)

    def propose(self, c: int, offset: np.ndarray, stencil: np.ndarray,
                weights: np.ndarray) -> np.ndarray:
        """Propose h' = (1 - alpha) m + alpha h + offset at each site of class
        c, m = sum_j p_j phi_j its neighbours' mean (``stencil`` from
        ``stencil(alpha)``), into the class's ``new``, and return E(h') - E(h)
        (``weights`` from ``energy_weights``) in a buffer that the next call
        overwrites; the other sites keep their heights."""
        _, _, new, pair, slots, (squares, fourths), flat, change = self.classes[c]
        nbrs = self.ph[slots]
        np.dot(stencil, nbrs, out=new)
        new += offset
        np.subtract(pair, nbrs[:-1], out=squares)
        squares *= squares
        np.multiply(squares, squares, out=fourths)
        return np.dot(weights, flat, out=change)

    def run(self, width: float, n_sweeps: int,
            alpha: float = 0.0) -> tuple[int, np.ndarray]:
        """Run n_sweeps sweeps, the colour classes in turn, with AR(1)
        proposals of over-relaxation alpha about each site's conditional
        under the harmonic stand-in of stiffness 1/width^2, drawn at once
        (keep n_sweeps small).  Returns the accepted moves and the heights
        ``ph`` (class order) after each sweep, one row per sweep: the
        transpose of a site-major block.

        A block draws, from the chain's stream and in this order, an
        (n_sweeps, n_sites) array z of standard normals and the Exp(1)
        thresholds; the offsets are sqrt(1 - alpha^2) width z + (1 - alpha)
        eta width^2, and a move is accepted iff its threshold is >= E(h') -
        E(h) and |h'| <= ``HEIGHT_CAP``.
        """
        n = len(self.ph) - 1
        if len(self.ok) < n_sweeps:
            self.work = np.empty((2, n_sweeps, n))
            self.ok = np.empty((n_sweeps, n), dtype=bool)
            self.proposals = np.empty((n_sweeps, n + 1))
        (offsets, limits), ok = self.work[:, :n_sweeps], self.ok[:n_sweeps]
        proposals = self.proposals[:n_sweeps]
        self.rng.standard_normal(out=offsets)
        self.rng.standard_exponential(out=limits)
        offsets *= math.sqrt(1.0 - alpha * alpha) * width
        offsets += self.eta * ((1.0 - alpha) * width * width)
        stencil, weights = self.stencil(alpha), self.energy_weights(width)
        kept = np.empty((n + 1, n_sweeps)).T

        def sweeps(capped: bool) -> None:
            # per class, the rows of its span of each block array
            spans = [zip(*(block[:, c.span] for block in (offsets, limits, ok)))
                     for c in self.classes]
            for s, sweep in enumerate(zip(*spans)):
                for c, (offset, limit, accept) in enumerate(sweep):
                    change = self.propose(c, offset, stencil, weights)
                    np.greater_equal(limit, change, out=accept)
                    cls = self.classes[c]
                    if capped:
                        beyond = np.abs(cls.new) > HEIGHT_CAP
                        accept &= ~beyond
                        self.cap_rejects += int(np.count_nonzero(beyond))
                    np.copyto(cls.heights, cls.new, where=accept)
                proposals[s] = self.new
                kept[s] = self.ph

        start = self.ph.copy()
        sweeps(capped=False)
        # a step can multiply max |phi| by 1 + 2 |alpha|: a proposal past the cap
        # (or NaN) runs the block again from its start, testing every step
        if not np.abs(proposals).max() <= HEIGHT_CAP:
            self.ph[:] = start
            sweeps(capped=True)
        return int(np.count_nonzero(ok)), kept


# ---------------------------------------------------------------------------
# public operations


def estimate_gradient_mean(g: BoxGeometry, k: Kernel, vpot: Potential,
                           eta: HeightField, cfg: SamplerConfig,
                           seed: int = 0, chain: int = 0) -> GradientEstimate:
    """Run one chain and estimate the gradient mean on every kernel edge.

    Burn-in (which sets the proposal width, from ``START_WIDTH``) is
    followed by measurement of V'(phi_i - phi_j) after every sweep,
    accumulated per block as a (sweeps, edges) array in ``kernel_edges``
    order; measurement over-relaxes with ``OVERRELAX`` after a burn-in, and
    not without one.  Poor mixing shows up as large stderr, never as an
    error; proposals past ``HEIGHT_CAP`` are counted in ``cap_rejects``.
    """
    sampler = Chain(g, k, vpot, eta, seed=seed, chain=chain)
    width, change = START_WIDTH, 0.0

    # burn-in sets the width by linear response: under a harmonic conditional
    # of stiffness 1/w^2, E[r^2] = w^2 (1 + E[r eta]); for b = 0 it is a
    if vpot.b == 0.0 and cfg.burn_in_sweeps:
        width = 1.0 / math.sqrt(vpot.a)
    moments = []
    for done in range(0, cfg.burn_in_sweeps, BLOCK):
        todo = min(BLOCK, cfg.burn_in_sweeps - done)
        _, kept = sampler.run(width, todo)
        if vpot.b:
            r = kept[:, :-1] - np.dot(sampler.weights, kept[:, sampler.slots])
            moments.append((np.vdot(r, r), np.dot(r, sampler.eta).sum(), r.size))
            # the later half of the blocks run, the earlier ones a transient
            sq, cross, count = np.sum(moments[len(moments) // 2:], axis=0)
            square = sq / (count + cross) if count + cross > 0.0 else math.nan
            tuned = math.sqrt(square) if 0.0 < square < math.inf else width
            change, width = abs(tuned / width - 1.0), tuned

    # reflect only about a tuned width's centre: at an untuned one it can stick
    alpha = OVERRELAX if cfg.burn_in_sweeps else 0.0
    # edge endpoints as positions in the chain's class-ordered heights
    ei, ej = sampler.slot[edge_table(g, k)[0]]
    retained = cfg.measure_sweeps // N_BATCHES * N_BATCHES
    batch_size = retained // N_BATCHES
    batch_sums = np.zeros((N_BATCHES, len(ei)))
    total_sq = np.zeros(len(ei))
    accepted_meas = 0
    for batch in range(N_BATCHES):
        for done in range(0, batch_size, BLOCK):
            accepted, kept = sampler.run(width, min(BLOCK, batch_size - done), alpha)
            accepted_meas += accepted
            # the gathers come out column-major: sum(axis=0) adds each edge's
            # column in numpy's pairwise order
            dv = vpot.derivative(kept[:, ei] - kept[:, ej])
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

    return GradientEstimate(
        *(VectorField(g, k, values) for values in (means, stderr, n_eff, batch_means)),
        acceptance_rate=accepted_meas / (retained * g.n_sites),
        proposal_width=width, width_change=change, cap_rejects=sampler.cap_rejects,
        retained=retained, overrelaxation=alpha)


def divergence_check(est: GradientEstimate,
                     eta: HeightField) -> tuple[np.ndarray, np.ndarray]:
    """Per-site divergence residuals of the estimated field, with stderrs.

    residual_i = eta_i - sum_j p(j-i) Xhat_{ij}.  The standard error is
    batch-propagated: the site flux is re-formed per batch, so correlations
    between edges sharing the chain are handled exactly.
    """
    residuals, _ = divergence_residual(est.mean, eta)
    batch_flux = site_flux(est.batch_means)
    stderrs = batch_flux.std(axis=0, ddof=1) / math.sqrt(batch_flux.shape[0])
    return residuals, stderrs
