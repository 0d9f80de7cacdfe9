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
Burn-in (``tune``) starts from w = ``START_WIDTH``, runs at alpha = 0 and
sets w^2 = mean(r^2) / (1 + mean(r eta)), r = h - m, over the later half of
its blocks (exact for a harmonic conditional; 1/a at once for b = 0), and
halves w after a block that moved nothing; measurement (``measure``) keeps
w and every sweep, reflects with alpha = ``OVERRELAX`` only after a
burn-in (about an untuned centre it can stick), and reduces the rows an
observer reads of each block to batch means in one pass.

Heights are stored in class order, so a class is a slice of them, lined up
with its columns of random numbers, and a step updates it in place.  A
block is at most ``BLOCK`` sweeps, and every buffer of its steps is built
once per chain.  A step gathers the neighbours' heights and the site's own,
forms (1 - alpha) m + alpha h in one stencil dot, every h' - phi_j and h -
phi_j in one product with a constant matrix of 0 and +-1 (two nonzero terms
per entry, so each is rounded once, as a subtraction is), and E at both
heights in one more dot over their squares and fourth powers; the README's
sampler section gives the details.  A reflection is no convex combination
of heights, so the height cap is tested on each block's proposals after it;
if one passed ``HEIGHT_CAP`` or is NaN, the block runs again from its
start, on the same draws, testing every step.

The main estimator is the time average of V'(phi_i - phi_j) on every
kernel edge, with batch-means error bars, as edge fields like the exact
Gaussian mean gradient, against which it can be checked edge by edge for
the quadratic potential.  Each block's edge values are gathered, one row of
sweeps per edge, into two buffers allocated once per estimate, V' is
formed there in place, and ``measure`` squares it into a buffer of its own.
Burn-in's width rule gathers each sweep's neighbour heights one row per
site and takes one product with the kernel weights.  ``divergence_check``
forms its site fluxes with the ``model.site_flux`` of the exact diagnostics.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .diagnostics import divergence_residual
from .model import (BoxGeometry, Kernel, Potential, STREAM_CHAIN, VectorField,
                    edge_table, neighbor_index, site_flux, stream)

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
class GradientEstimate:
    """Time averages of V'(phi_i - phi_j) on every kernel edge, as edge fields
    of the sampled (geometry, kernel).

    ``mean`` and ``batch_means`` change sign with the orientation like any
    field; ``stderr`` (batch means) and ``n_eff`` are nonnegative magnitudes
    that only reuse the edge order.  ``batch_means`` holds each batch's mean,
    one field per row of a leading batch axis, for quantities such as site
    fluxes whose errors must carry the chain's correlations between edges.
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
    """A chain's colour class: its span of the heights and its per-step buffers."""

    span: slice
    slots: np.ndarray     # positions in ph of its sites' neighbours, then theirs, (K + 1, m)
    gathered: np.ndarray  # ph[slots] above the proposed heights, (K + 2, m)
    nbrs: np.ndarray      # ph[slots], a view
    new: np.ndarray       # the proposed heights, a view
    heights: np.ndarray   # ph[span], a view
    squares: np.ndarray   # (x - phi_j)^2, x = h' then h, (2K, m), a view of powers
    fourths: np.ndarray   # their squares, a view of powers
    powers: np.ndarray    # squares above fourths, (4K, m)
    change: np.ndarray    # E(h') - E(h), (m,)


def _difference_rows(n_nbrs: int) -> np.ndarray:
    """The (2K, K + 2) matrix of 0 and +-1 that takes a class's ``gathered``
    to h' - phi_j, then h - phi_j: one -1 and one +1 in each row, so each
    entry is one difference, rounded once in any order of summation."""
    eye = np.eye(n_nbrs)
    own = np.repeat([[0.0, 1.0], [1.0, 0.0]], n_nbrs, axis=0)
    return np.hstack([-np.vstack([eye, eye]), own])


class Chain:
    """One Metropolis chain on a box: heights, random stream, sweep tables.

    ``ph`` holds the interior heights in colour-class order (class 0's
    sites, then class 1's, ...) followed by the frozen boundary slot (height
    0), which every neighbour outside the box reads.  ``slot[i]`` is site
    i's position in ``ph`` (``slot[n_sites]`` the boundary slot's), so
    ``ph[slot]`` lists the heights in site order.  Each class keeps its
    buffers in ``classes``; after a sweep, a class's ``new`` and ``change``
    hold its last step's proposals and energy changes.  A block is at most
    ``BLOCK`` sweeps: its buffers and step records ``steps`` are built once.
    A disorder ``eta`` not shaped ``(g.n_sites,)`` raises ValueError.
    """

    def __init__(self, g: BoxGeometry, k: Kernel, vpot: Potential,
                 eta: np.ndarray, seed: int = 0, chain: int = 0):
        if np.shape(eta) != (g.n_sites,):
            raise ValueError(f"expected disorder on {g.n_sites} sites, got shape "
                             f"{np.shape(eta)}")
        classes = colour_classes(g, k)
        order = np.concatenate(classes)
        self.slot = np.argsort(np.append(order, g.n_sites))  # the inverse permutation
        self.ph = np.zeros(g.n_sites + 1)
        # -1 (outside the box) reads slot[-1], the boundary slot
        self.slots = self.slot[neighbor_index(g, k)][:, order]
        stencil_slots = np.vstack([self.slots, np.arange(g.n_sites)])  # then each site's own
        n_nbrs = len(self.slots)
        self.differences = _difference_rows(n_nbrs)
        bounds = np.cumsum([0] + [len(sites) for sites in classes]).tolist()
        self.classes = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            # C order: the stencil dot's summation order follows the memory layout
            gathered = np.empty((n_nbrs + 2, hi - lo))
            powers = np.empty((2, 2 * n_nbrs, hi - lo))
            self.classes.append(_ColourClass(
                slice(lo, hi), np.ascontiguousarray(stencil_slots[:, lo:hi]), gathered,
                gathered[:-1], gathered[-1], self.ph[lo:hi], *powers,
                powers.reshape(4 * n_nbrs, -1), np.empty(hi - lo)))
        self.eta = np.asarray(eta, dtype=float)[order]
        self.weights = np.array(k.weights)
        self.vpot = vpot
        self.rng = stream(seed, STREAM_CHAIN, chain)
        self.cap_rejects = 0
        #: block buffers: offsets, Exp(1) thresholds and proposals; accept flags
        self.work = np.empty((3, BLOCK, g.n_sites))
        self.ok = np.empty((BLOCK, g.n_sites), dtype=bool)
        offsets, limits, proposals = self.work
        #: per sweep of a block, per class its buffers beside its rows of
        #: the block buffers (a plain tuple unpacks faster than the NamedTuple)
        self.steps = [[(*c, offsets[s, c.span], limits[s, c.span], self.ok[s, c.span],
                        proposals[s, c.span]) for c in self.classes] for s in range(BLOCK)]
        #: the (width, alpha) that the stencil and energy rows were formed for
        self.formed_for = None

    def run(self, width: float, n_sweeps: int,
            alpha: float = 0.0) -> tuple[int, np.ndarray]:
        """Run one block of n_sweeps sweeps, 1 to ``BLOCK`` (ValueError before
        any draw otherwise), the colour classes in turn, with AR(1) proposals
        of over-relaxation alpha about each site's conditional under the
        harmonic stand-in of stiffness 1/width^2.  Returns the accepted moves
        and the heights ``ph`` (class order) after each sweep, one row per
        sweep: the transpose of a site-major block.

        A block draws, from the chain's stream and in this order, an
        (n_sweeps, n_sites) array z of standard normals and the Exp(1)
        thresholds; the offsets are sqrt(1 - alpha^2) width z + (1 - alpha)
        eta width^2, and a move is accepted iff its threshold is >= E(h') -
        E(h) and |h'| <= ``HEIGHT_CAP``.  A block whose proposals pass the
        cap, or are NaN, runs again from its start on the same draws.  The
        stencil and energy rows are formed again only when (width, alpha)
        differs from the last block's.
        """
        if not 0 < n_sweeps <= BLOCK:
            raise ValueError(f"a block runs 1 to BLOCK = {BLOCK} sweeps, got {n_sweeps}")
        (offsets, limits, proposals), ok = self.work[:, :n_sweeps], self.ok[:n_sweeps]
        self.rng.standard_normal(out=offsets)
        self.rng.standard_exponential(out=limits)
        offsets *= math.sqrt(1.0 - alpha * alpha) * width
        offsets += self.eta * ((1.0 - alpha) * width * width)
        if self.formed_for != (width, alpha):
            self.formed_for = (width, alpha)
            # the stencil dot forms (1 - alpha) m + alpha h over a class's slots
            self.stencil = np.append((1.0 - alpha) * self.weights, alpha)
            # the energy dot forms E(h') - E(h): +-(a - 1/width^2)/2 p_j on
            # the squares (x - phi_j)^2, +-b p_j on the fourth powers
            stiffness = 0.5 * (self.vpot.a - 1.0 / (width * width))
            self.energy = np.outer([stiffness, -stiffness, self.vpot.b, -self.vpot.b],
                                   self.weights).ravel()
        ph = self.ph
        # bound once per block and called with positional outputs: on a small
        # class a keyword out= or np.copyto's where= costs more than the work
        take, stencil_dot, differences_dot, energy_dot = (
            ph.take, self.stencil.dot, self.differences.dot, self.energy.dot)
        multiply, greater_equal, putmask = np.multiply, np.greater_equal, np.putmask
        kept = np.empty((len(ph), n_sweeps)).T

        def sweeps(capped: bool) -> None:
            for s, sweep in enumerate(self.steps[:n_sweeps]):
                for (_, slots, gathered, nbrs, new, heights, squares, fourths, powers,
                     change, offset, limit, accept, proposal) in sweep:
                    # into nbrs: any mode but "raise" writes out unbuffered
                    take(slots, None, nbrs, "wrap")
                    stencil_dot(nbrs, new)
                    new += offset
                    differences_dot(gathered, squares)
                    squares *= squares
                    multiply(squares, squares, fourths)
                    energy_dot(powers, change)
                    greater_equal(limit, change, accept)
                    if capped:
                        beyond = np.abs(new) > HEIGHT_CAP
                        accept &= ~beyond
                        self.cap_rejects += int(np.count_nonzero(beyond))
                    putmask(heights, accept, new)
                    proposal[...] = new
                kept[s] = ph

        start = ph.copy()
        sweeps(capped=False)
        # a step can multiply max |phi| by 1 + 2 |alpha|: a proposal past the cap
        # (or NaN) runs the block again from its start, testing every step
        if not (proposals.max() <= HEIGHT_CAP and proposals.min() >= -HEIGHT_CAP):
            ph[:] = start
            sweeps(capped=True)
        return int(np.count_nonzero(ok)), kept


# ---------------------------------------------------------------------------
# public operations


def tune(chain: Chain, burn_in_sweeps: int) -> tuple[float, float]:
    """Burn the chain in, in blocks of ``BLOCK`` sweeps at alpha = 0, and
    return the proposal width it tuned and |w_k / w_(k-1) - 1| of its last
    block (0 without burn-in or for b = 0); a quartic block that accepted
    no move halves the width (a change of 0.5) and stays out of the rule.
    A negative ``burn_in_sweeps`` raises ValueError before any draw."""
    if burn_in_sweeps < 0:
        raise ValueError(f"burn_in_sweeps must be >= 0, got {burn_in_sweeps}")
    vpot = chain.vpot
    width, change = START_WIDTH, 0.0
    # the width by linear response: under a harmonic conditional of
    # stiffness 1/w^2, E[r^2] = w^2 (1 + E[r eta]); for b = 0 it is a
    if vpot.b == 0.0 and burn_in_sweeps:
        width = 1.0 / math.sqrt(vpot.a)
    n_nbrs, n = chain.slots.shape
    moments = []
    for done in range(0, burn_in_sweeps, BLOCK):
        todo = min(BLOCK, burn_in_sweeps - done)
        accepted, kept = chain.run(width, todo)
        if vpot.b and not accepted:
            # zero moments would keep the width: a narrower proposal can move
            change, width = 0.5, 0.5 * width
        elif vpot.b:
            # each sweep's neighbour heights, one row of K per site
            nbrs = np.take(kept, chain.slots.T, 1, None, "wrap")
            m = nbrs.reshape(-1, n_nbrs).dot(chain.weights)
            r = kept[:, :-1] - m.reshape(todo, n)
            moments.append((np.vdot(r, r), np.dot(r, chain.eta).sum(), r.size))
            # the later half of the blocks run, the earlier ones a transient
            sq, cross, count = np.sum(moments[len(moments) // 2:], axis=0)
            square = sq / (count + cross) if count + cross > 0.0 else math.nan
            tuned = math.sqrt(square) if 0.0 < square < math.inf else width
            change, width = abs(tuned / width - 1.0), tuned
    return width, change


def measure(chain: Chain, width: float, batch_size: int, alpha: float, n_rows: int,
            observe: Callable[[np.ndarray], np.ndarray]
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Run ``N_BATCHES`` batches of ``batch_size`` sweeps in blocks of at
    most ``BLOCK``; ``observe(kept)`` reads each block's ``Chain.run`` heights
    (``kept[:, chain.slot[:-1]]`` in site order) as an (n_rows, sweeps)
    array, which may be a buffer it reuses.  Each row is summed along its
    sweeps, as are its squares in one scratch buffer allocated once; a row
    is summed in numpy's order for the layout it is given, so C-contiguous
    rows pairwise.  Returns per row the mean, the batch-means stderr
    sqrt(var(ddof=1) / N_BATCHES), n_eff clipped to [1, retained] and the
    (N_BATCHES, n_rows) batch means, then the moves accepted."""
    retained = N_BATCHES * batch_size
    batch_sums = np.zeros((N_BATCHES, n_rows))
    total_sq = np.zeros(n_rows)
    squares = np.empty(n_rows * BLOCK)
    accepted = 0
    for batch in range(N_BATCHES):
        for done in range(0, batch_size, BLOCK):
            moved, kept = chain.run(width, min(BLOCK, batch_size - done), alpha)
            accepted += moved
            rows = observe(kept)
            batch_sums[batch] += rows.sum(axis=1)
            sq = squares[:rows.size].reshape(rows.shape)
            np.multiply(rows, rows, sq)
            total_sq += sq.sum(axis=1)
    batch_means = batch_sums / batch_size
    means = batch_means.mean(axis=0)
    stderr = np.sqrt(batch_means.var(axis=0, ddof=1) / N_BATCHES)
    marginal_var = total_sq / retained - means ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        n_eff = np.where(stderr > 0.0, marginal_var / stderr ** 2, float(retained))
    n_eff = np.clip(np.nan_to_num(n_eff, nan=float(retained)), 1.0, float(retained))
    return means, stderr, n_eff, batch_means, accepted


def estimate_gradient_mean(g: BoxGeometry, k: Kernel, vpot: Potential,
                           eta: np.ndarray, burn_in_sweeps: int, measure_sweeps: int,
                           seed: int = 0, chain: int = 0) -> GradientEstimate:
    """Run one chain and estimate the gradient mean on every kernel edge.

    ``tune``, then ``measure`` of V'(phi_i - phi_j) after every sweep,
    formed per block in an (edges, sweeps) buffer, edges in
    ``kernel_edges`` order.  Measurement runs the largest multiple of
    ``N_BATCHES`` sweeps that ``measure_sweeps`` holds (the estimate's
    ``retained``; fewer than ``N_BATCHES``, or a negative
    ``burn_in_sweeps``, raises ValueError before any draw, and the CLI asks
    for at least 100), over-relaxed with ``OVERRELAX`` after a burn-in and
    not without one.  Poor mixing shows up as large stderr, never as an
    error; proposals past ``HEIGHT_CAP`` are counted in ``cap_rejects``.
    """
    if measure_sweeps < N_BATCHES:
        raise ValueError(f"measure_sweeps must be >= N_BATCHES = {N_BATCHES}, "
                         f"got {measure_sweeps}")
    sampler = Chain(g, k, vpot, eta, seed=seed, chain=chain)
    width, change = tune(sampler, burn_in_sweeps)
    # reflect only about a tuned width's centre: at an untuned one it can stick
    alpha = OVERRELAX if burn_in_sweeps else 0.0
    retained = measure_sweeps // N_BATCHES * N_BATCHES
    # edge endpoints as positions in the chain's class-ordered heights
    ei, ej = sampler.slot[edge_table(g, k)[0]]
    # a block's two (edges, sweeps) arrays, a contiguous prefix of the buffer
    buffer = np.empty(2 * len(ei) * BLOCK)

    def derivatives(kept: np.ndarray) -> np.ndarray:
        # C order: each edge's row of sweeps is contiguous, summed pairwise
        t, dv = buffer[:2 * len(ei) * len(kept)].reshape(2, len(ei), len(kept))
        np.take(kept.T, ei, 0, t, "wrap")
        np.take(kept.T, ej, 0, dv, "wrap")
        t -= dv
        return vpot.derivative(t, dv)

    *fields, accepted = measure(sampler, width, retained // N_BATCHES, alpha, len(ei),
                                derivatives)
    return GradientEstimate(
        *(VectorField(g, k, values) for values in fields),
        acceptance_rate=accepted / (retained * g.n_sites),
        proposal_width=width, width_change=change, cap_rejects=sampler.cap_rejects,
        retained=retained, overrelaxation=alpha)


def divergence_check(est: GradientEstimate,
                     eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-site divergence residuals of the estimated field, with stderrs.

    residual_i = eta_i - sum_j p(j-i) Xhat_{ij}.  The standard error is
    batch-propagated: the site flux is re-formed per batch, so correlations
    between edges sharing the chain are handled exactly.
    """
    residuals, _ = divergence_residual(est.mean, eta)
    batch_flux = site_flux(est.batch_means)
    stderrs = batch_flux.std(axis=0, ddof=1) / math.sqrt(batch_flux.shape[0])
    return residuals, stderrs
