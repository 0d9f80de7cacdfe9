import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (gaussian_eta, height_at, loop_residuals,
                      oracle_boundary_edges, random_heights, site_of)
from gradlab.model import (BoxGeometry, DisorderSpec, HeightField, Kernel,
                           Potential, VectorField, canonical_edge, energy,
                           energy_terms, gradient_of, kernel_edges,
                           sample_disorder, validate_kernel)


def shell_sites(g):
    """Sites outside the box within sup-distance shell_width of it."""
    r = range(-g.L - g.shell_width, g.L + g.shell_width + 1)
    return [s for s in itertools.product(*([r] * g.d)) if not g.contains(s)]


# ---------------------------------------------------------------------------
# kernels


def test_validate_kernel_accepts_simple_random_walk():
    for d in (1, 2, 3):
        assert validate_kernel(Kernel.nearest_neighbor(d)) is None


def test_validate_kernel_flags_asymmetry():
    k = Kernel.from_map(2, {(1, 0): 0.5, (-1, 0): 0.25, (0, -1): 0.25})
    report = validate_kernel(k)
    assert report is not None and "symmetry" in report


def test_validate_kernel_flags_normalization():
    k = Kernel.from_map(2, {(1, 0): 0.225, (-1, 0): 0.225,
                            (0, 1): 0.225, (0, -1): 0.225})
    report = validate_kernel(k)
    assert report is not None and "normalization" in report


def test_validate_kernel_flags_negative_weight_and_self_weight():
    k = Kernel.from_map(1, {(1,): -0.5, (-1,): 1.5})
    assert "nonnegativity" in validate_kernel(k)
    k2 = Kernel.from_map(1, {(0,): 0.5, (1,): 0.25, (-1,): 0.25})
    assert "self-weight" in validate_kernel(k2)


def test_axis_kernel_is_valid_and_has_range_two():
    k = Kernel.axis_kernel(2, 2)
    assert validate_kernel(k) is None
    assert k.range == 2


# ---------------------------------------------------------------------------
# geometry


@pytest.mark.parametrize("d,L", [(1, 3), (2, 2), (3, 1)])
def test_geometry_indexing_roundtrip(d, L):
    g = BoxGeometry(d=d, L=L)
    assert g.n_sites == (2 * L + 1) ** d
    for idx, site in enumerate(g.sites()):
        assert g.index_of(site) == idx
        assert site_of(g, idx) == site


def test_geometry_shell_covers_kernel(nn2):
    g = BoxGeometry.for_kernel(2, 2, nn2)
    assert g.covers(nn2)
    assert not BoxGeometry(2, 2, shell_width=1).covers(Kernel.axis_kernel(2, 2))


def test_shell_contains_every_kernel_neighbor(box55, nn2):
    shell = set(shell_sites(box55))
    for i in box55.sites():
        for v, _ in nn2.support():
            j = tuple(a + b for a, b in zip(i, v))
            assert box55.contains(j) or j in shell


# ---------------------------------------------------------------------------
# gradients and loops


def test_gradient_of_zero_field_vanishes(box33, nn2):
    w = gradient_of(box33, nn2, HeightField.zeros(box33))
    assert all(v == 0.0 for _, v in w.items())


def test_gradient_of_constant_field(box33, nn2):
    c = 1.75
    phi = HeightField(box33, np.full(box33.n_sites, c))
    w = gradient_of(box33, nn2, phi)
    for i, j, _ in oracle_boundary_edges(box33, nn2):
        assert w.get(i, j) == pytest.approx(c)  # interior minus the 0 outside
    interior = [(e, v) for e, v in w.items()
                if box33.contains(e[0]) and box33.contains(e[1])]
    assert interior and all(v == 0.0 for _, v in interior)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_gradients_satisfy_loop_condition(seed):
    g = BoxGeometry(2, 1)
    k = Kernel.nearest_neighbor(2)
    phi = HeightField(g, random_heights(g, seed=seed, scale=3.0))
    assert loop_residuals(g, gradient_of(g, k, phi)) <= 1e-14


def test_loop_residual_of_single_edge(box33, nn2):
    w = gradient_of(box33, nn2, HeightField.zeros(box33))
    w.set((0, 0), (0, 1), 1.0)
    assert loop_residuals(box33, w) == pytest.approx(1.0)


def test_loop_residuals_rejects_d1():
    g = BoxGeometry(1, 2)
    with pytest.raises(ValueError):
        loop_residuals(g, VectorField(g, Kernel.nearest_neighbor(1)))


# ---------------------------------------------------------------------------
# boundary edges


def test_boundary_edge_count_3x3(box33, nn2):
    assert len(oracle_boundary_edges(box33, nn2)) == 12


def test_boundary_edge_count_d1():
    k = Kernel.nearest_neighbor(1)
    g = BoxGeometry.for_kernel(1, 2, k)
    assert len(oracle_boundary_edges(g, k)) == 2


def test_boundary_edges_match_pair_enumeration_for_range_two_kernel():
    k = Kernel.axis_kernel(2, 2)
    g = BoxGeometry.for_kernel(2, 1, k)
    got = {(i, j) for i, j, _ in oracle_boundary_edges(g, k)}
    # independent route: scan all (interior, shell) pairs for kernel support
    expected = set()
    for i in g.sites():
        for j in shell_sites(g):
            v = tuple(b - a for a, b in zip(i, j))
            if k.weight(v) > 0.0:
                expected.add((i, j))
    assert got == expected
    assert any(max(abs(a - b) for a, b in zip(i, j)) == 2 for i, j in got)


def test_kernel_edges_cover_gradient_support(box33, nn2):
    edges = kernel_edges(box33, nn2)
    assert len(edges) == len(set(edges)) == 24  # 12 interior + 12 boundary
    w = gradient_of(box33, nn2, HeightField.zeros(box33))
    assert sorted(edges) == sorted(e for e, _ in w.items())


# ---------------------------------------------------------------------------
# disorder


def test_rademacher_support_and_determinism():
    g = BoxGeometry(2, 3)
    spec = DisorderSpec("rademacher", 1.0, seed=7, realization=2)
    eta = sample_disorder(spec, g)
    assert set(np.unique(eta.values)) <= {-1.0, 1.0}
    again = sample_disorder(spec, g)
    assert np.array_equal(eta.values, again.values)


def test_distinct_realizations_differ():
    g = BoxGeometry(2, 3)
    a = sample_disorder(DisorderSpec("gaussian", 1.0, 7, 0), g)
    b = sample_disorder(DisorderSpec("gaussian", 1.0, 7, 1), g)
    assert not np.array_equal(a.values, b.values)


@pytest.mark.parametrize("family", ["gaussian", "rademacher", "uniform"])
def test_disorder_moments(family):
    g = BoxGeometry(2, 49)  # 9801 sites
    eta2 = 2.0
    eta = sample_disorder(DisorderSpec(family, eta2, seed=11), g)
    n = g.n_sites
    assert abs(eta.values.mean()) <= 4.0 * np.sqrt(eta2 / n)
    assert abs((eta.values ** 2).mean() - eta2) <= 0.05 * eta2


def test_unknown_disorder_family_rejected():
    with pytest.raises(ValueError):
        DisorderSpec("cauchy", 1.0)
    for eta2 in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            DisorderSpec("gaussian", eta2)


# ---------------------------------------------------------------------------
# potentials


def test_potential_families_validate():
    with pytest.raises(ValueError):
        Potential.quadratic(0.0)
    with pytest.raises(ValueError):
        Potential.quartic(1.0, -0.1)
    with pytest.raises(ValueError):
        Potential("quartic", a=-1.0, b=0.0)
    for bad in (lambda: Potential.quartic(math.nan, 1.0),
                lambda: Potential.quartic(1.0, math.inf),
                lambda: Potential.quartic(-math.inf, 1.0),
                lambda: Potential.quadratic(math.inf),
                lambda: Potential.quadratic(math.nan)):
        with pytest.raises(ValueError):
            bad()
    Potential.quartic(-1.0, 0.5)  # double well is allowed


@given(st.floats(-50.0, 50.0))
@settings(max_examples=50, deadline=None)
def test_potential_even_and_derivative_odd(t):
    for vpot in (Potential.quadratic(2.0), Potential.quartic(1.0, 0.3)):
        assert vpot.value(t) == pytest.approx(vpot.value(-t), abs=1e-12)
        assert vpot.derivative(-t) == pytest.approx(-vpot.derivative(t), abs=1e-12)


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(5)
    h = 1e-4
    for vpot in (Potential.quadratic(1.5), Potential.quartic(1.0, 0.4)):
        t = rng.uniform(-5.0, 5.0, size=1000)
        fd = (vpot.value(t + h) - vpot.value(t - h)) / (2.0 * h)
        scale = 1.0 + np.abs(t) ** 3
        assert np.all(np.abs(vpot.derivative(t) - fd) <= 10.0 * h * h * scale)


# ---------------------------------------------------------------------------
# energy


def test_energy_of_zero_field_is_zero(box33, nn2, quadratic, quartic):
    phi = HeightField.zeros(box33)
    eta = gaussian_eta(box33)
    assert energy(box33, nn2, quadratic, phi, eta) == 0.0
    assert energy(box33, nn2, quartic, phi, eta) == 0.0


def test_energy_single_site(quadratic):
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry.for_kernel(2, 0, k)
    h = 0.8
    eta = HeightField(g, np.array([h]))
    for t in (-1.3, 0.0, 0.4, 2.0):
        phi = HeightField(g, np.array([t]))
        assert energy(g, k, quadratic, phi, eta) == pytest.approx(t * t / 2 - h * t)


def _energy_reference(g, k, vpot, phi, eta):
    """Literal double loop over site pairs (independent of the array path)."""
    total = 0.0
    for i in g.sites():
        for j in g.sites():
            v = tuple(b - a for a, b in zip(i, j))
            w = k.weight(v)
            if w:
                total += 0.5 * w * float(vpot.value(height_at(phi, i) - height_at(phi, j)))
        for v, w in k.support():
            j = tuple(a + b for a, b in zip(i, v))
            if not g.contains(j):
                total += w * float(vpot.value(height_at(phi, i)))
        total -= height_at(eta, i) * height_at(phi, i)
    return total


def test_energy_matches_double_loop_reference(box33, nn2, quartic):
    phi = HeightField(box33, random_heights(box33, seed=3, scale=2.0))
    eta = gaussian_eta(box33, seed=4)
    got = energy(box33, nn2, quartic, phi, eta)
    ref = _energy_reference(box33, nn2, quartic, phi, eta)
    assert got == pytest.approx(ref, rel=1e-12)


def test_energy_reference_on_range_two_kernel():
    k = Kernel.axis_kernel(2, 2)
    g = BoxGeometry.for_kernel(2, 1, k)
    vpot = Potential.quadratic(1.0)
    phi = HeightField(g, random_heights(g, seed=9))
    eta = gaussian_eta(g, seed=10)
    assert energy(g, k, vpot, phi, eta) == pytest.approx(
        _energy_reference(g, k, vpot, phi, eta), rel=1e-12)


def test_interior_pair_term_is_shift_invariant(box55, nn2, quartic):
    phi = HeightField(box55, random_heights(box55, seed=6))
    eta = gaussian_eta(box55, seed=7)
    shifted = HeightField(box55, phi.values + 4.25)
    before = energy_terms(box55, nn2, quartic, phi, eta)
    after = energy_terms(box55, nn2, quartic, shifted, eta)
    assert after[0] == pytest.approx(before[0], rel=1e-12)
    # while the full energy with fixed boundary is not shift invariant
    assert abs(energy(box55, nn2, quartic, shifted, eta)
               - energy(box55, nn2, quartic, phi, eta)) > 1.0


def test_canonical_edge_signs():
    edge, sign = canonical_edge((1, 0), (0, 0))
    assert edge == ((0, 0), (1, 0)) and sign == -1.0
    with pytest.raises(ValueError):
        canonical_edge((0, 0), (0, 0))


def test_vector_field_antisymmetry(box33, nn2):
    w = VectorField(box33, nn2)
    w.set((1, 0), (0, 0), 2.5)
    assert w.get((1, 0), (0, 0)) == 2.5
    assert w.get((0, 0), (1, 0)) == -2.5
