"""Metropolis sampling of the finite-volume measure for general potentials.

The target density on interior heights (zero boundary condition, fixed
disorder eta) is proportional to exp(-H) with H from :mod:`gradlab.model`.
The sampler is systematic-scan single-site Metropolis with Bactrian
proposals, one colour class at a time: the sites are split into classes of
which no two are kernel neighbours (the two parity classes for ``nn``), so
the single-site conditionals within a class do not depend on each other and
the class's moves are one array operation.  Each class update is a product
of single-site Metropolis kernels for the exact conditionals, hence leaves
the target invariant; a sweep is their composition.  A Bactrian proposal
(Yang & Rodriguez, PNAS 110, 2013) is symmetric and bimodal: a step of
+-``SPIKE`` plus Gaussian noise, scaled to unit variance and then by the
proposal width, so it rarely wastes a move on a tiny step.  Burn-in tunes
the width, the proposal's standard deviation, toward
``TARGET_ACCEPTANCE``; measurement keeps it fixed.

Heights are stored in class order, so a class is a slice of them, lined up
with its columns of random numbers, and a step updates it in place.  What
depends on the draws alone is formed once per block of sweeps: the field's
part -eta s of the energy change joins the Exp(1) thresholds, and with the
midpoint u = t + s/2 of each edge difference t, V(t + s) - V(t) =
s u (a + b s^2 + 4 b u^2), so a step makes one stencil dot.  Steps test the
height cap only in a block whose bound, max |phi| plus the sum over its
sweeps of max |s|, exceeds ``HEIGHT_CAP``.

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

#: most sweeps (burn-in) or retained samples (measurement) per block of
#: random numbers; burn-in tunes the proposal width once per block
BLOCK = 25

#: the Bactrian proposal's spike, +-SPIKE, in units of its standard deviation;
#: Gaussian noise of variance 1 - SPIKE^2 makes up the rest.  0.95 mixes
#: faster but leaves too few small steps at a fixed, untuned width
SPIKE = 0.9

#: acceptance rate that burn-in steers the proposal width toward, the best
#: of 0.30, 0.35 and 0.40 for Bactrian proposals; a Gaussian random walk
#: does best at 0.44 (Gelman, Roberts & Gilks 1996)
TARGET_ACCEPTANCE = 0.35


@dataclass(frozen=True)
class SamplerConfig:
    proposal_width: float = 1.0
    burn_in_sweeps: int = 2000
    measure_sweeps: int = 20000
    thin: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.proposal_width < math.inf:
            raise ValueError("proposal_width must be > 0 and finite")
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


class _ColourClass(NamedTuple):
    """A chain's colour class: its span of ``ph`` and its per-step buffers."""

    span: slice
    heights: np.ndarray  # ph[span], a view
    slots: np.ndarray    # positions in ph of its sites' neighbours, (K, m)
    u: np.ndarray        # u = t + s/2 on each edge, (K, m)
    cube: np.ndarray     # u^3, (K, m)
    powers: np.ndarray   # u above u^3, (2K, m), the memory of both
    sums: np.ndarray     # sum_j p_j u_j and 4 b sum_j p_j u_j^3, (2, m)


class Chain:
    """One Metropolis chain on a box: heights, random stream, sweep tables.

    ``ph`` holds the interior heights in colour-class order (class 0's sites,
    then class 1's, ...) followed by the frozen boundary slot (height 0),
    which every neighbour outside the box reads.  ``slot[i]`` is site i's
    position in ``ph`` (``slot[n_sites]`` the boundary slot's), so
    ``ph[slot]`` lists the heights in site order.
    """

    def __init__(self, g: BoxGeometry, k: Kernel, vpot: Potential,
                 eta: HeightField, seed: int = 0, chain: int = 0):
        classes = colour_classes(g, k)
        order = np.concatenate(classes)
        self.slot = np.argsort(np.append(order, g.n_sites))  # the inverse permutation
        self.ph = np.zeros(g.n_sites + 1)
        # -1 (outside the box) reads slot[-1], the boundary slot
        slots = self.slot[neighbor_index(g, k)][:, order]
        bounds = np.cumsum([0] + [len(sites) for sites in classes]).tolist()
        self.classes = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            span, powers = slice(lo, hi), np.empty((2 * len(slots), hi - lo))
            self.classes.append(_ColourClass(span, self.ph[span], slots[:, span],
                                             *np.split(powers, 2), powers,
                                             np.empty((2, hi - lo))))
        self.eta = eta.values[order]
        #: rows of the one stencil dot: sum_j p_j u_j and 4 b sum_j p_j u_j^3
        self.stencil = np.kron(np.diag([1.0, 4.0 * vpot.b]), [w for _, w in k.support()])
        self.vpot = vpot
        self.rng = chain_stream(seed, chain)
        self.cap_rejects = 0
        #: block buffers: steps, limits, s/2 and a + b s^2, and accept flags
        self.work = np.empty((4, 0, g.n_sites))
        self.ok = np.empty((0, g.n_sites), dtype=bool)

    def pair_change(self, c: int, step: np.ndarray, half: np.ndarray,
                    coef: np.ndarray) -> np.ndarray:
        """sum_j p(j - i) [V(t_j + s_i) - V(t_j)] with t_j = phi_i - phi_j,
        for each site i of class c moved alone by s_i; the other sites keep
        their heights.  ``half`` is s/2 and ``coef`` is a + b s^2: with the
        midpoint u = t + s/2, V(t + s) - V(t) = s u (a + b s^2 + 4 b u^2).
        Returns a buffer of the class, overwritten by the next call."""
        _, heights, slots, u, cube, powers, sums = self.classes[c]
        np.subtract(heights + half, self.ph[slots], out=u)
        np.multiply(u, u, out=cube)
        cube *= u
        lin, cub = np.dot(self.stencil, powers, out=sums)
        lin *= coef
        lin += cub
        lin *= step
        return lin

    def run(self, width: float, n_sweeps: int, every: int = 0) -> tuple[int, np.ndarray]:
        """Run n_sweeps sweeps, the colour classes in turn, with Bactrian
        proposals of standard deviation `width`, drawn at once (keep n_sweeps
        small).  Returns the accepted moves and the heights ``ph`` (class
        order) after every `every`-th sweep (none for 0), one row per kept
        sweep: the transpose of a site-major block.

        A block draws, from the chain's stream and in this order, an
        (n_sweeps, n_sites) array z of standard normals, one sign bit per
        entry (``rng.bytes`` unpacked most significant bit first, 1 for +),
        and the Exp(1) thresholds; the steps are
        s = width * (+-SPIKE + sqrt(1 - SPIKE^2) * z).
        """
        n = len(self.ph) - 1
        if len(self.ok) < n_sweeps:
            self.work = np.empty((4, n_sweeps, n))
            self.ok = np.empty((n_sweeps, n), dtype=bool)
        (steps, limits, half, coef), ok = self.work[:, :n_sweeps], self.ok[:n_sweeps]
        self.rng.standard_normal(out=steps)
        signs = np.unpackbits(np.frombuffer(self.rng.bytes(-(-steps.size // 8)), np.uint8),
                              count=steps.size).reshape(steps.shape)
        steps *= math.sqrt(1.0 - SPIKE * SPIKE)
        # +-SPIKE, exactly, in the buffer that later holds s/2
        np.multiply(signs, 2.0 * SPIKE, out=half)
        half -= SPIKE
        steps += half
        steps *= width
        # Exp(1) >= dH with probability min(1, exp(-dH)); the field's part
        # -eta s of dH moves to the left-hand side
        self.rng.standard_exponential(out=limits)
        np.multiply(self.eta, steps, out=half)
        limits += half
        # no height can pass the cap in this block unless this bound does
        capped = (np.abs(self.ph).max() + np.abs(steps, out=half).max(axis=1).sum()
                  > HEIGHT_CAP)
        np.multiply(steps, 0.5, out=half)
        np.multiply(steps, steps, out=coef)
        coef *= self.vpot.b
        coef += self.vpot.a
        kept = np.empty((n + 1, n_sweeps // every if every else 0)).T
        # per class, the rows of its span of each block array
        spans = [zip(*(block[:, c.span] for block in (steps, half, coef, limits, ok)))
                 for c in self.classes]
        for s, sweep in enumerate(zip(*spans)):
            for c, (step, h, cf, limit, accept) in enumerate(sweep):
                np.greater_equal(limit, self.pair_change(c, step, h, cf), out=accept)
                heights = self.classes[c].heights
                new = heights + step
                if capped:
                    beyond = np.abs(new) > HEIGHT_CAP
                    accept &= ~beyond
                    self.cap_rejects += int(np.count_nonzero(beyond))
                np.copyto(heights, new, where=accept)
            if every and (s + 1) % every == 0:
                kept[s // every] = self.ph
        return int(np.count_nonzero(ok)), kept


# ---------------------------------------------------------------------------
# public operations


def estimate_gradient_mean(g: BoxGeometry, k: Kernel, vpot: Potential,
                           eta: HeightField, cfg: SamplerConfig,
                           seed: int = 0, chain: int = 0) -> GradientEstimate:
    """Run one chain and estimate the gradient mean on every kernel edge.

    Burn-in (which tunes the proposal width) is followed by measurement
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
        rate = accepted / (todo * n)
        gain = 1.0 / (1.0 + index) ** 0.6
        width *= math.exp(gain * (rate - TARGET_ACCEPTANCE))

    # edge endpoints as positions in the chain's class-ordered heights
    ei, ej = sampler.slot[edge_table(g, k)[0]]
    retained = (cfg.measure_sweeps // cfg.thin // N_BATCHES) * N_BATCHES
    if retained < N_BATCHES:
        raise ValueError("not enough retained samples for batch means")
    batch_size = retained // N_BATCHES
    batch_sums = np.zeros((N_BATCHES, len(ei)))
    total_sq = np.zeros(len(ei))
    # per-block differences and derivatives, allocated once; column-major, so
    # that sum(axis=0) adds each edge's column in numpy's pairwise order, and
    # the gathers copy rows of the site-major block into rows of their transpose
    diff_buf = np.empty((BLOCK, len(ei)), order="F")
    dv_buf = np.empty_like(diff_buf)
    accepted_meas = 0
    for batch in range(N_BATCHES):
        for done in range(0, batch_size, BLOCK):
            keep = min(BLOCK, batch_size - done)
            accepted, kept = sampler.run(width, keep * cfg.thin, every=cfg.thin)
            accepted_meas += accepted
            diff, dv = diff_buf[:keep], dv_buf[:keep]
            # the indices are slots, all in range: "clip" gathers unbuffered
            np.take(kept.T, ei, axis=0, out=diff.T, mode="clip")
            np.take(kept.T, ej, axis=0, out=dv.T, mode="clip")
            diff -= dv
            # V'(t) = a t + 4 b t^3, in the operation order of Potential.derivative
            np.multiply(diff, 4.0 * vpot.b, out=dv)
            dv *= diff
            dv *= diff
            diff *= vpot.a
            dv += diff
            batch_sums[batch] += dv.sum(axis=0)
            np.multiply(dv, dv, out=diff)
            total_sq += diff.sum(axis=0)

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
        acceptance_rate=accepted_meas / (retained * cfg.thin * n),
        proposal_width=width, cap_rejects=sampler.cap_rejects, retained=retained)


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
