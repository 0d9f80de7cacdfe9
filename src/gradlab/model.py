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

Lattice arrays live on the shell-padded box, where a kernel offset is a
shifted view: edge fields are one such array per positive offset, and
``neighbor_index`` is the one stencil table behind the edge table, the
sparse operator and the sampler's neighbour table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

Site = tuple[int, ...]
Edge = tuple[Site, Site]

#: tolerance for the kernel normalization sum
KERNEL_NORM_TOL = 1e-12


def canonical_edge(i: Site, j: Site) -> tuple[Edge, float]:
    """Return the canonical storage key for the unordered edge {i, j}.

    Edge values are antisymmetric, stored once with the lexicographically
    smaller endpoint first.  The returned sign is +1 if (i, j) already is
    the canonical orientation and -1 if it is the reverse.
    """
    if i == j:
        raise ValueError(f"degenerate edge at site {i}")
    if i < j:
        return (i, j), 1.0
    return (j, i), -1.0


# ---------------------------------------------------------------------------
# kernel


@dataclass(frozen=True)
class Kernel:
    """Finite-range symmetric random-walk weights p(v) on Z^d offsets.

    The container itself does not enforce its invariants (so that invalid
    kernels can be built and inspected); use :func:`validate_kernel`.
    """

    d: int
    offsets: tuple[Site, ...]
    weights: tuple[float, ...]

    @classmethod
    def from_map(cls, d: int, weight_map: dict[Site, float]) -> "Kernel":
        items = sorted(weight_map.items())
        return cls(d=d, offsets=tuple(v for v, _ in items),
                   weights=tuple(w for _, w in items))

    @classmethod
    def nearest_neighbor(cls, d: int) -> "Kernel":
        """p(+-e_nu) = 1/(2d), the simple random walk kernel."""
        w = 1.0 / (2 * d)
        wmap: dict[Site, float] = {}
        for ax in range(d):
            for s in (1, -1):
                v = [0] * d
                v[ax] = s
                wmap[tuple(v)] = w
        return cls.from_map(d, wmap)

    @classmethod
    def axis_kernel(cls, d: int, reach: int) -> "Kernel":
        """Equal weights on +-k e_nu for 1 <= k <= reach (range-`reach` jumps)."""
        if reach < 1:
            raise ValueError("reach must be >= 1")
        w = 1.0 / (2 * d * reach)
        wmap: dict[Site, float] = {}
        for ax in range(d):
            for k in range(1, reach + 1):
                for s in (1, -1):
                    v = [0] * d
                    v[ax] = s * k
                    wmap[tuple(v)] = w
        return cls.from_map(d, wmap)

    @cached_property
    def range(self) -> int:
        """Maximum sup-norm of a supported offset."""
        return max((max(abs(c) for c in v) for v, w in zip(self.offsets, self.weights)
                    if w != 0.0), default=0)

    def weight(self, v: Site) -> float:
        try:
            k = self.offsets.index(v)
        except ValueError:
            return 0.0
        return self.weights[k]

    def support(self) -> list[tuple[Site, float]]:
        """Offsets with nonzero weight, in sorted order."""
        return [(v, w) for v, w in zip(self.offsets, self.weights) if w != 0.0]


def validate_kernel(k: Kernel) -> str | None:
    """Check the kernel invariants; return None if valid.

    On failure returns a short report naming the first violated invariant,
    checked in the order: offset dimension, nonnegativity, zero self-weight,
    symmetry, finite support, normalization.
    """
    for v in k.offsets:
        if len(v) != k.d:
            return f"dimension: offset {v} is not in Z^{k.d}"
    wmap = dict(zip(k.offsets, k.weights))
    for v, w in wmap.items():
        if w < 0.0:
            return f"nonnegativity: p({v}) = {w} < 0"
    if wmap.get((0,) * k.d, 0.0) != 0.0:
        return "zero self-weight: p(0) != 0"
    for v, w in wmap.items():
        neg = tuple(-c for c in v)
        if wmap.get(neg, 0.0) != w:
            return f"symmetry: p({v}) = {w} but p({neg}) = {wmap.get(neg, 0.0)}"
    support = [v for v, w in wmap.items() if w != 0.0]
    if not support:
        return "finite support: kernel has empty support"
    total = sum(wmap.values())
    if abs(total - 1.0) > KERNEL_NORM_TOL:
        return f"normalization: sum p = {total!r} != 1"
    return None


# ---------------------------------------------------------------------------
# geometry


@dataclass(frozen=True)
class BoxGeometry:
    """The box Lambda = {-L..L}^d plus a boundary shell of width `shell_width`.

    Interior sites carry a dense index in lexicographic (row-major) order;
    the shell holds every site within sup-distance `shell_width` of the box,
    which covers the kernel neighborhood of each interior site whenever
    shell_width >= kernel.range.
    """

    d: int
    L: int
    shell_width: int = 1

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if self.L < 0:
            raise ValueError("L must be >= 0")
        if self.shell_width < 1:
            raise ValueError("shell_width must be >= 1")

    @classmethod
    def for_kernel(cls, d: int, L: int, kernel: Kernel) -> "BoxGeometry":
        return cls(d=d, L=L, shell_width=max(1, kernel.range))

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

    def covers(self, kernel: Kernel) -> bool:
        """True if interior + shell covers every interior kernel neighborhood."""
        return kernel.range <= self.shell_width

    def index_of(self, site: Site) -> int:
        if not self.contains(site):
            raise KeyError(f"site {site} outside the interior box")
        return int(np.ravel_multi_index(tuple(c + self.L for c in site), self.shape))

    def site_of(self, index: int) -> Site:
        if not 0 <= index < self.n_sites:
            raise IndexError(index)
        return tuple(int(c) - self.L for c in np.unravel_index(index, self.shape))

    def sites(self) -> Iterator[Site]:
        """Interior sites in index order."""
        r = range(-self.L, self.L + 1)
        return itertools.product(*([r] * self.d))


def add(site: Site, v: Site) -> Site:
    return tuple(a + b for a, b in zip(site, v))


# ---------------------------------------------------------------------------
# padded-array stencil: arrays over the box plus its shell, in which a
# kernel offset v is a shifted view


def _padded_shape(g: BoxGeometry) -> tuple[int, ...]:
    return (g.side + 2 * g.shell_width,) * g.d


def _shifted(g: BoxGeometry, padded: np.ndarray, v: Site) -> np.ndarray:
    """View of `padded` whose entry at interior site i is the cell of i + v
    (over the last d axes; leading axes are kept)."""
    m = g.shell_width
    return padded[(...,) + tuple(slice(m + c, m + c + g.side) for c in v)]


def _pad_heights(g: BoxGeometry, values: np.ndarray) -> np.ndarray:
    """Interior values (in site order) embedded in the shell-padded array,
    zero outside the box."""
    full = np.zeros(_padded_shape(g))
    _shifted(g, full, (0,) * g.d)[...] = np.reshape(values, g.shape)
    return full


@lru_cache(maxsize=16)
def _planes(k: Kernel) -> Mapping[Site, int]:
    """The plane of an edge field holding each lexicographically positive
    kernel offset, in sorted order.  Cached, hence read-only."""
    positive = sorted({max(v, tuple(-c for c in v)) for v, _ in k.support()})
    return MappingProxyType({v: q for q, v in enumerate(positive)})


@lru_cache(maxsize=16)
def neighbor_index(g: BoxGeometry, k: Kernel) -> np.ndarray:
    """Index of the neighbour i + v of each interior site i, or -1 outside.

    Rows follow ``k.support()``, columns the site index order.  Shifted
    views of a padded grid of indices; cached, hence read-only.
    """
    if not g.covers(k):
        raise ValueError("geometry shell does not cover the kernel range")
    grid = np.full(_padded_shape(g), -1)
    _shifted(g, grid, (0,) * g.d)[...] = np.arange(g.n_sites).reshape(g.shape)
    out = np.stack([_shifted(g, grid, v).ravel() for v, _ in k.support()])
    out.flags.writeable = False
    return out


@lru_cache(maxsize=16)
def edge_table(g: BoxGeometry, k: Kernel) -> tuple[np.ndarray, np.ndarray]:
    """Every kernel edge touching the box, once each, as arrays.

    Returns the site indices of each edge's canonical endpoints (2 x
    n_edges; ``g.n_sites`` for an endpoint outside the box) and the flat
    index of its cell in ``VectorField.data``.  Edges are ordered by the
    interior site they are reached from (their canonical first endpoint, or
    the interior one when that lies outside), then by kernel support order.
    Cached, hence read-only.
    """
    zero = (0,) * g.d
    support = k.support()
    nbr = neighbor_index(g, k)
    forward = np.array([v > zero for v, _ in support])
    sites, rows = np.nonzero(((nbr < 0) | forward[:, None]).T)
    # an edge reached forward runs (site, neighbour) and has its cell at the
    # site; one reached backward leaves the box, so it runs (outside, site)
    # and has its cell at the outside endpoint
    slot = np.where(nbr < 0, g.n_sites, nbr)[rows, sites]
    ends = np.where(forward[rows], [sites, slot], [slot, sites])
    grid = np.arange(np.prod(_padded_shape(g))).reshape(_padded_shape(g))
    cells = np.stack([_planes(k)[max(v, tuple(-c for c in v))] * grid.size
                      + _shifted(g, grid, min(v, zero)).ravel()
                      for v, _ in support])[rows, sites]
    ends.flags.writeable = cells.flags.writeable = False
    return ends, cells


@lru_cache(maxsize=16)
def kernel_edges(g: BoxGeometry, k: Kernel) -> tuple[Edge, ...]:
    """The edges of ``edge_table`` as canonical site pairs, in its order.
    Cached per (geometry, kernel), hence a tuple."""
    planes = list(_planes(k))
    q, *cell = np.unravel_index(edge_table(g, k)[1], (len(planes),) + _padded_shape(g))
    first = np.stack(cell, axis=-1) - (g.L + g.shell_width)
    second = first + np.array(planes)[q]
    return tuple(zip(map(tuple, first.tolist()), map(tuple, second.tolist())))


# ---------------------------------------------------------------------------
# fields


class HeightField:
    """Real heights on the interior sites; zero outside (the fixed boundary
    condition of the model)."""

    __slots__ = ("geometry", "values")

    def __init__(self, geometry: BoxGeometry, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != (geometry.n_sites,):
            raise ValueError(f"expected {geometry.n_sites} values, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("heights must be finite")
        self.geometry = geometry
        self.values = values

    @classmethod
    def zeros(cls, geometry: BoxGeometry) -> "HeightField":
        return cls(geometry, np.zeros(geometry.n_sites))

    def height_at(self, site: Site) -> float:
        """Height at any site; sites outside the box return the boundary value 0."""
        if self.geometry.contains(site):
            return float(self.values[self.geometry.index_of(site)])
        return 0.0

    def __getitem__(self, site: Site) -> float:
        return float(self.values[self.geometry.index_of(site)])


class DisorderField(HeightField):
    """A frozen realization of the i.i.d. external field."""

    __slots__ = ("spec",)

    def __init__(self, geometry: BoxGeometry, values: np.ndarray, spec: "DisorderSpec"):
        super().__init__(geometry, values)
        self.spec = spec


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
        if self.eta2 <= 0.0:
            raise ValueError("eta2 must be > 0")
        if self.family not in ("gaussian", "rademacher", "uniform"):
            raise ValueError(f"unknown disorder family {self.family!r}")

    def with_realization(self, realization: int) -> "DisorderSpec":
        return DisorderSpec(self.family, self.eta2, self.seed, realization)


#: spawn-key tags for the splittable seed streams (see cli module docs)
STREAM_DISORDER = 0
STREAM_CHAIN = 1


def disorder_stream(seed: int, realization: int) -> np.random.Generator:
    """Independent generator for one disorder realization.

    Streams are split off a master seed with a counter-style spawn key
    (STREAM_DISORDER, realization), so realizations may be generated in any
    order, or concurrently, with bit-identical results.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(STREAM_DISORDER, realization))
    return np.random.default_rng(ss)


def chain_stream(seed: int, chain: int) -> np.random.Generator:
    """Independent generator for one Markov chain, split like disorder_stream."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(STREAM_CHAIN, chain))
    return np.random.default_rng(ss)


def sample_disorder(spec: DisorderSpec, g: BoxGeometry) -> DisorderField:
    """Draw the i.i.d. field on the interior of g.

    Deterministic given (seed, realization): values are filled in site index
    order from the realization's own stream.
    """
    rng = disorder_stream(spec.seed, spec.realization)
    n = g.n_sites
    scale = np.sqrt(spec.eta2)
    if spec.family == "gaussian":
        vals = rng.normal(0.0, scale, size=n)
    elif spec.family == "rademacher":
        vals = scale * (2.0 * rng.integers(0, 2, size=n) - 1.0)
    else:  # uniform, variance (2a)^2 / 12 = eta2
        a = np.sqrt(3.0 * spec.eta2)
        vals = rng.uniform(-a, a, size=n)
    return DisorderField(g, vals, spec)


class VectorField:
    """Antisymmetric values w(i, j) = -w(j, i) on the kernel edges touching the box.

    ``data[q]`` spans the shell-padded box for the q-th lexicographically
    positive offset v and holds the edge (i, i + v), its canonical
    orientation, at cell i; edges start at 0.  get/set take either
    orientation and raise KeyError for any other pair.
    """

    __slots__ = ("geometry", "kernel", "data", "_offsets")

    def __init__(self, geometry: BoxGeometry, kernel: Kernel):
        if not geometry.covers(kernel):
            raise ValueError("geometry shell does not cover the kernel range")
        self.geometry = geometry
        self.kernel = kernel
        self._offsets = _planes(kernel)
        self.data = np.zeros((len(self._offsets),) + _padded_shape(geometry))

    @classmethod
    def from_edge_values(cls, geometry: BoxGeometry, kernel: Kernel,
                         values: np.ndarray) -> "VectorField":
        """The field holding `values` on the ``kernel_edges``, in that order."""
        out = cls(geometry, kernel)
        np.put(out.data, edge_table(geometry, kernel)[1], values)
        return out

    def _cell(self, i: Site, j: Site) -> tuple[tuple[int, ...], float]:
        (a, b), sign = canonical_edge(i, j)
        q = self._offsets.get(tuple(y - x for x, y in zip(a, b)))
        if q is None or not (self.geometry.contains(a) or self.geometry.contains(b)):
            raise KeyError((a, b))
        m = self.geometry.L + self.geometry.shell_width
        return (q,) + tuple(c + m for c in a), sign

    def set(self, i: Site, j: Site, value: float) -> None:
        cell, sign = self._cell(i, j)
        self.data[cell] = sign * value

    def get(self, i: Site, j: Site) -> float:
        cell, sign = self._cell(i, j)
        return sign * float(self.data[cell])

    def edge_values(self) -> np.ndarray:
        """The values on the ``kernel_edges``, in that order: one gather."""
        return self.data.take(edge_table(self.geometry, self.kernel)[1])

    def items(self) -> Iterator[tuple[Edge, float]]:
        """(canonical edge, value) in kernel_edges order."""
        return zip(kernel_edges(self.geometry, self.kernel), self.edge_values().tolist())


def site_values(g: BoxGeometry, k: Kernel, data: np.ndarray) -> np.ndarray:
    """w(i, i + v) for every kernel offset v (first axis, in support order)
    and interior site i (last axis, in index order), read by shifts from
    edge-field data (``VectorField.data``) under any leading axes, which
    stay between the two."""
    planes = np.moveaxis(data, -1 - g.d, 0)
    index = _planes(k)
    zero = (0,) * g.d
    rows = [_shifted(g, planes[index[v]], zero) if v > zero
            else -_shifted(g, planes[index[tuple(-c for c in v)]], v)
            for v, _ in k.support()]
    return np.stack(rows).reshape((len(rows),) + data.shape[:-1 - g.d] + (g.n_sites,))


def site_flux(g: BoxGeometry, k: Kernel, data: np.ndarray) -> np.ndarray:
    """sum_v p(v) w(i, i + v) at every interior site i, from edge-field data
    under any leading axes (kept), adding one kernel offset at a time, in
    support order, for all sites at once."""
    values = site_values(g, k, data)
    flux = np.zeros(values.shape[1:])
    for (_, w), row in zip(k.support(), values):
        flux += w * row
    return flux


# ---------------------------------------------------------------------------
# potentials


@dataclass(frozen=True)
class Potential:
    """Even pair potential V(t) = a t^2/2 + b t^4 with superlinear growth.

    family "quadratic" has b = 0; "quartic" allows b > 0 (or b = 0 with
    a > 0, which degenerates to the quadratic case).
    """

    family: str
    a: float
    b: float = 0.0

    def __post_init__(self) -> None:
        if self.family == "quadratic":
            if self.b != 0.0:
                raise ValueError("quadratic potential has no quartic term")
            if self.a <= 0.0:
                raise ValueError("quadratic coefficient must be > 0")
        elif self.family == "quartic":
            if self.b < 0.0 or (self.b == 0.0 and self.a <= 0.0):
                raise ValueError("quartic potential requires b > 0, or b = 0 with a > 0")
        else:
            raise ValueError(f"unknown potential family {self.family!r}")

    @classmethod
    def quadratic(cls, c: float = 1.0) -> "Potential":
        return cls("quadratic", a=c)

    @classmethod
    def quartic(cls, a: float, b: float) -> "Potential":
        return cls("quartic", a=a, b=b)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        t2 = t * t
        out = 0.5 * self.a * t2 + self.b * t2 * t2
        return out if out.ndim else float(out)

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        out = self.a * t + 4.0 * self.b * t * t * t
        return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# operations


def gradient_of(g: BoxGeometry, k: Kernel, phi: HeightField) -> VectorField:
    """Edge differences phi_i - phi_j on every kernel edge touching the box.

    Heights outside the box are the boundary value 0, so boundary-crossing
    edges carry the interior height itself (up to orientation).
    """
    out = VectorField(g, k)
    padded = _pad_heights(g, phi.values)
    for v, q in out._offsets.items():
        src = tuple(slice(max(0, -c), n - max(0, c)) for c, n in zip(v, padded.shape))
        dst = tuple(slice(max(0, c), n - max(0, -c)) for c, n in zip(v, padded.shape))
        out.data[q][src] = padded[src] - padded[dst]
    return out


def loop_residuals(g: BoxGeometry, w: VectorField) -> float:
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
            def at(c: int, shift: Site) -> np.ndarray:
                return _plaquette_view(g, arrays[c], shift, a, b)
            circ = at(a, zero) + at(b, unit[a]) - at(a, unit[b]) - at(b, zero)
            if circ.size:
                worst = max(worst, float(np.max(np.abs(circ))))
    return worst


def _plaquette_view(g: BoxGeometry, padded: np.ndarray, shift: Site,
                    a: int, b: int) -> np.ndarray:
    """`padded` at cell i + shift for every corner i of an interior unit
    plaquette in the (a, b) plane (i + e_a, i + e_b also interior)."""
    m = g.shell_width
    return padded[tuple(slice(m + s, m + s + g.side - (ax in (a, b)))
                        for ax, s in enumerate(shift))]


def energy_terms(g: BoxGeometry, k: Kernel, vpot: Potential,
                 phi: HeightField, eta: HeightField) -> tuple[float, float, float]:
    """The three energy contributions (interior pair, boundary pair, field).

    interior = 1/2 sum_{i,j in Lambda} p(i-j) V(phi_i - phi_j)
    boundary = sum_{i in Lambda, j outside} p(i-j) V(phi_i)
    field    = -sum_i eta_i phi_i
    """
    core = phi.values.reshape(g.shape)
    padded = _pad_heights(g, phi.values)
    interior = 0.0
    boundary = 0.0
    for (v, w), nbr in zip(k.support(), neighbor_index(g, k)):
        diff = core - _shifted(g, padded, v)
        vmat = np.asarray(vpot.value(diff))
        mask = (nbr >= 0).reshape(g.shape)  # where the neighbor is interior
        interior += w * float(np.sum(0.5 * vmat * mask))
        boundary += w * float(np.sum(vmat * (1.0 - mask)))
    field = -float(np.dot(eta.values, phi.values))
    return interior, boundary, field


def energy(g: BoxGeometry, k: Kernel, vpot: Potential,
           phi: HeightField, eta: HeightField) -> float:
    """Finite-volume energy with the zero boundary condition."""
    interior, bnd, field = energy_terms(g, k, vpot, phi, eta)
    return interior + bnd + field
