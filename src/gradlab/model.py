"""Lattice geometry, random-walk kernels, fields and pair potentials.

The model lives on a finite box Lambda = {-L..L}^d of Z^d.  Heights are
attached to interior sites, with the zero boundary condition outside the
box.  Interactions run along the edges of a finite-range symmetric
random-walk kernel p, and the energy of a height configuration phi in an
external field eta is

    H(phi) = 1/2 sum_{i,j in Lambda} p(i-j) V(phi_i - phi_j)
           + sum_{i in Lambda, j outside} p(i-j) V(phi_i)
           - sum_{i in Lambda} eta_i phi_i

for an even pair potential V that grows faster than linearly.

A box is its dimension and size.  A kernel offset v is an overlap of the
box with itself: the sites whose neighbour i + v is inside, against those
neighbours.  ``neighbor_index`` is the one stencil table built on it,
behind the edge table and the sampler's neighbour table.  Site fields
(heights, the disorder, site fluxes) are float arrays in site order, the
row-major order of ``BoxGeometry.index_of``, under any leading axes.  Edge fields are flat arrays of values in ``edge_table``
order, the order of ``kernel_edges``.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

Site = tuple[int, ...]
Edge = tuple[Site, Site]

#: tolerance for the kernel normalization sum
KERNEL_NORM_TOL = 1e-12


# ---------------------------------------------------------------------------
# kernel


@dataclass(frozen=True)
class Kernel:
    """Finite-range symmetric random-walk weights p(v) on Z^d offsets,
    built from the weight map ``{v: p(v)}``.

    ``offsets`` and ``weights`` hold the nonzero weights, sorted by offset;
    a zero weight is dropped, so two kernels are equal iff their nonzero
    weights are.  Valid by construction: building one raises ValueError
    naming the first violated invariant, checked in the order: offset
    dimension (each offset a d-tuple of integers), nonnegativity, zero
    self-weight, symmetry, finite support, normalization.
    """

    d: int
    weight_map: InitVar[dict[Site, float]]
    offsets: tuple[Site, ...] = field(init=False)
    weights: tuple[float, ...] = field(init=False)

    def __post_init__(self, weight_map: dict[Site, float]) -> None:
        for v in weight_map:
            if len(v) != self.d or not all(isinstance(c, (int, np.integer)) for c in v):
                raise ValueError(f"dimension: offset {v} is not in Z^{self.d}")
        for v, w in weight_map.items():
            if w < 0.0:
                raise ValueError(f"nonnegativity: p({v}) = {w} < 0")
        if weight_map.get((0,) * self.d, 0.0) != 0.0:
            raise ValueError("zero self-weight: p(0) != 0")
        for v, w in weight_map.items():
            neg = tuple(-c for c in v)
            if weight_map.get(neg, 0.0) != w:
                raise ValueError(f"symmetry: p({v}) = {w} but p({neg}) = "
                                 f"{weight_map.get(neg, 0.0)}")
        support = sorted((v, w) for v, w in weight_map.items() if w != 0.0)
        if not support:
            raise ValueError("finite support: kernel has empty support")
        total = sum(weight_map.values())
        if abs(total - 1.0) > KERNEL_NORM_TOL:
            raise ValueError(f"normalization: sum p = {total!r} != 1")
        object.__setattr__(self, "offsets", tuple(v for v, _ in support))
        object.__setattr__(self, "weights", tuple(w for _, w in support))

    @classmethod
    def nearest_neighbor(cls, d: int) -> "Kernel":
        """p(+-e_nu) = 1/(2d), the simple random walk kernel."""
        return cls.axis_kernel(d, 1)

    @classmethod
    def axis_kernel(cls, d: int, reach: int) -> "Kernel":
        """Equal weights on +-k e_nu for 1 <= k <= reach (range-`reach` jumps)."""
        if reach < 1:
            raise ValueError("reach must be >= 1")
        w = 1.0 / (2 * d * reach)
        return cls(d, {tuple(s * k * (a == ax) for a in range(d)): w
                           for ax in range(d) for k in range(1, reach + 1)
                           for s in (1, -1)})


# ---------------------------------------------------------------------------
# geometry


@dataclass(frozen=True)
class BoxGeometry:
    """The box Lambda = {-L..L}^d.

    Interior sites carry a dense index in lexicographic (row-major) order.
    """

    d: int
    L: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if self.L < 0:
            raise ValueError("L must be >= 0")

    @property
    def side(self) -> int:
        return 2 * self.L + 1

    @cached_property
    def n_sites(self) -> int:
        return self.side ** self.d

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return (self.side,) * self.d

    def contains(self, site: Site) -> bool:
        return all(-self.L <= c <= self.L for c in site)

    def index_of(self, site: Site) -> int:
        if not self.contains(site):
            raise KeyError(f"site {site} outside the interior box")
        return int(np.ravel_multi_index(tuple(c + self.L for c in site), self.shape))


# ---------------------------------------------------------------------------
# the stencil: a kernel offset v is an overlap of the box with itself, the
# sites whose neighbour i + v is inside against those neighbours, and the
# edge tables built on it


def _overlap(g: BoxGeometry, v: Site) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    """Slices of a box-shaped array: ``inner`` over the sites i whose
    neighbour i + v is inside, and ``outer`` over those neighbours, in the
    same order.  Each bound is clamped to [0, side]: unclamped, a negative
    stop would wrap, and a jump longer than the box must overlap nothing."""
    inner = tuple(slice(min(max(-c, 0), g.side), min(max(g.side - c, 0), g.side))
                  for c in v)
    outer = tuple(slice(s.start + c, s.stop + c) for s, c in zip(inner, v))
    return inner, outer


@lru_cache(maxsize=16)
def neighbor_index(g: BoxGeometry, k: Kernel) -> np.ndarray:
    """Index of the neighbour i + v of each interior site i, or -1 outside.

    Rows follow ``k.offsets``, columns the site index order.  Each row
    copies the site indices over the overlap of the box with itself
    shifted by v; cached, hence read-only.
    """
    if k.d != g.d:
        raise ValueError("kernel and geometry dimensions differ")
    index = np.arange(g.n_sites).reshape(g.shape)
    out = np.full((len(k.offsets),) + g.shape, -1)
    for row, v in zip(out, k.offsets):
        inner, outer = _overlap(g, v)
        row[inner] = index[outer]
    out = out.reshape(len(k.offsets), g.n_sites)
    out.flags.writeable = False
    return out


class EdgeTable(NamedTuple):
    """Every kernel edge touching the box, once each (see ``edge_table``)."""

    ends: np.ndarray  #: canonical endpoints, 2 x n_edges (``g.n_sites`` outside)
    ids: np.ndarray  #: edge of (i, i + v), per row v of ``k.offsets`` and site i
    signs: np.ndarray  #: per offset row, -1 where ids hold the reverse edge
    sites: np.ndarray  #: the interior site each edge is reached from
    rows: np.ndarray  #: the offset row of the jump it is reached by
    boundary: np.ndarray  #: the edges that leave the box, in table order
    sides: np.ndarray  #: the face each boundary edge crosses


@lru_cache(maxsize=16)
def edge_table(g: BoxGeometry, k: Kernel) -> EdgeTable:
    """The edges of a symmetric kernel touching the box, as arrays.

    Edges are ordered by the interior site they are reached from (their
    canonical, lexicographically smaller, first endpoint, or the interior
    one when that lies outside), then by the rows of ``k.offsets``; an
    edge field holds its values in this order.  ``ids[r, i]`` is the edge
    (i, i + v_r), held as (i, i + v_r) when v_r is lexicographically
    positive (``signs[r]`` = +1) and as its reverse otherwise (-1).  The
    boundary edges (i, i + v), i inside and i + v outside, are the slice
    ``boundary`` of the table, reached from i by v; the side of one is the
    face its jump crosses, by the dominant component of v (ties to the
    lower axis): 1 + a along +e_a, 1 + d + a along -e_a, which are sides
    1..4 for d = 2.  Cached, hence read-only.
    """
    nbr = neighbor_index(g, k)
    forward = np.array([v > (0,) * g.d for v in k.offsets])
    # the (site, row) pairs that reach an edge, site-major: every forward
    # jump, and every backward one that leaves the box
    reached = ((nbr < 0) | forward[:, None]).T.ravel()
    ids = (np.cumsum(reached) - 1).reshape(g.n_sites, len(k.offsets)).T.copy()
    for r, v in enumerate(k.offsets):
        if not forward[r]:  # inside the box, the forward jump -v from i + v
            back = ids[k.offsets.index(tuple(-c for c in v))][nbr[r]]
            np.copyto(ids[r], back, where=nbr[r] >= 0)
    sites, rows = np.divmod(np.flatnonzero(reached), len(k.offsets))
    # an edge reached forward runs (site, neighbour); one reached backward
    # leaves the box, so it runs (outside, site)
    slot = nbr.T.ravel()[reached]
    slot[slot < 0] = g.n_sites
    first = np.where(forward[rows], sites, slot)
    ends = np.stack([first, sites + slot - first])
    boundary = np.flatnonzero(slot == g.n_sites)
    axes = [int(np.argmax(np.abs(v))) for v in k.offsets]  # ties: the lower axis
    sides = np.array([a + 1 + g.d * (v[a] < 0) for v, a in zip(k.offsets, axes)])
    table = EdgeTable(ends, ids, np.where(forward, 1.0, -1.0), sites, rows,
                      boundary, sides[rows[boundary]])
    for array in table:
        array.flags.writeable = False
    return table


@lru_cache(maxsize=16)
def kernel_edges(g: BoxGeometry, k: Kernel) -> tuple[Edge, ...]:
    """The edges of ``edge_table`` as canonical site pairs, in its order.
    Cached per (geometry, kernel), hence a tuple."""
    t = edge_table(g, k)
    site = np.stack(np.unravel_index(t.sites, g.shape), axis=-1) - g.L
    other = site + np.array(k.offsets)[t.rows]
    ahead = (t.signs[t.rows] > 0)[:, None]
    first, second = np.where(ahead, site, other), np.where(ahead, other, site)
    return tuple(zip(map(tuple, first.tolist()), map(tuple, second.tolist())))


# ---------------------------------------------------------------------------
# fields


@dataclass(frozen=True)
class DisorderSpec:
    """Distribution family, second moment and stream identity of the disorder.

    Supported families are all symmetric about 0 with second moment eta2:
    ``gaussian``, ``rademacher`` (values +-sqrt(eta2)) and ``uniform``
    (uniform on [-sqrt(3 eta2), sqrt(3 eta2)]).
    """

    family: str
    eta2: float = 1.0
    seed: int = 0
    realization: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.eta2 < math.inf:
            raise ValueError("eta2 must be > 0 and finite")
        if self.family not in ("gaussian", "rademacher", "uniform"):
            raise ValueError(f"unknown disorder family {self.family!r}")


#: spawn-key tags for the splittable seed streams (see cli module docs)
STREAM_DISORDER = 0
STREAM_CHAIN = 1


def stream(seed: int, tag: int, index: int) -> np.random.Generator:
    """Independent generator for one disorder realization (tag
    STREAM_DISORDER) or one Markov chain (STREAM_CHAIN).

    Streams are split off a master seed with a counter-style spawn key
    (tag, index), so realizations and chains may be generated in any order,
    or concurrently, with bit-identical results.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(tag, index))
    return np.random.default_rng(ss)


class SiteArray(np.ndarray):
    """The float array ``sample_disorder`` returns; ``values`` is its data as
    a plain array, which ``perfbench/workloads.py`` reads from a draw."""

    @property
    def values(self) -> np.ndarray:
        return self.view(np.ndarray)


def sample_disorder(spec: DisorderSpec, g: BoxGeometry) -> SiteArray:
    """Draw the i.i.d. field on the interior of g, in site order.

    Deterministic given (seed, realization): values are filled in site index
    order from the realization's own stream.
    """
    rng = stream(spec.seed, STREAM_DISORDER, spec.realization)
    n = g.n_sites
    scale = np.sqrt(spec.eta2)
    if spec.family == "gaussian":
        vals = rng.normal(0.0, scale, size=n)
    elif spec.family == "rademacher":
        vals = scale * (2.0 * rng.integers(0, 2, size=n) - 1.0)
    else:  # uniform, variance (2a)^2 / 12 = eta2
        a = np.sqrt(3.0 * spec.eta2)
        vals = rng.uniform(-a, a, size=n)
    return vals.view(SiteArray)


@dataclass(frozen=True, eq=False)
class VectorField:
    """Antisymmetric values w(i, j) = -w(j, i) on the kernel edges touching
    the box: ``values[..., e]`` is w on the e-th edge of ``kernel_edges``
    (``edge_table`` order), in its canonical orientation.  Leading axes
    hold several fields of the box at once (a batch axis, say)."""

    geometry: BoxGeometry
    kernel: Kernel
    values: np.ndarray

    def __post_init__(self) -> None:
        n = edge_table(self.geometry, self.kernel).ends.shape[1]
        if np.shape(self.values)[-1:] != (n,):
            raise ValueError(f"expected values on {n} edges, got shape "
                             f"{np.shape(self.values)}")


def site_flux(X: VectorField) -> np.ndarray:
    """sum_v p(v) w(i, i + v) at every interior site i, under any leading
    axes of the field (kept), adding one kernel offset at a time, in the
    order of ``k.offsets``, for all sites at once."""
    t = edge_table(X.geometry, X.kernel)
    flux = np.zeros(X.values.shape[:-1] + (X.geometry.n_sites,))
    row = np.empty_like(flux)
    for w, sign, ids in zip(X.kernel.weights, t.signs, t.ids):
        # the ids are all in range: "clip" gathers unbuffered
        np.take(X.values, ids, axis=-1, out=row, mode="clip")
        row *= sign * w
        flux += row
    return flux


# ---------------------------------------------------------------------------
# potentials


@dataclass(frozen=True)
class Potential:
    """Even pair potential V(t) = a t^2/2 + b t^4 with superlinear growth:
    b > 0, or b = 0 (the Gaussian case) with a > 0."""

    a: float
    b: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("potential coefficients must be finite")
        if self.b < 0.0 or (self.b == 0.0 and self.a <= 0.0):
            raise ValueError("potential requires b > 0, or b = 0 with a > 0")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        t2 = t * t
        out = 0.5 * self.a * t2 + self.b * t2 * t2
        return out if out.ndim else float(out)

    def derivative(self, t, out=None):
        """V'(t) = a t + ((4 b t) t) t, as a new array (a float for a scalar
        t), or written into ``out``, a float array shaped like t; then t must
        be a float array too, and is left holding a t."""
        if out is None:
            t = np.array(t, dtype=float)
            out = np.empty_like(t)
        np.multiply(t, 4.0 * self.b, out)
        out *= t
        out *= t
        t *= self.a
        out += t
        return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# operations


def gradient_of(g: BoxGeometry, k: Kernel, heights: np.ndarray) -> VectorField:
    """Edge differences phi_i - phi_j on every kernel edge touching the box,
    of heights in site order under any leading axes (kept), one gather of
    the heights at each end.

    Heights outside the box are the boundary value 0, so boundary-crossing
    edges carry the interior height itself (up to orientation).
    """
    ends = edge_table(g, k).ends
    padded = np.zeros(np.shape(heights)[:-1] + (g.n_sites + 1,))
    padded[..., :-1] = heights
    return VectorField(g, k, padded.take(ends[0], -1) - padded.take(ends[1], -1))
