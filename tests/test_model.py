import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (canonical_edge, edge_value, gaussian_eta, height_at,
                      loop_residuals, oracle_boundary_edges, oracle_energy,
                      random_heights, set_edge, site_of, sites, weight,
                      zero_field, zero_heights)
from gradlab.diagnostics import variance_scaling_scan
from gradlab.gaussian import sine_diagonal
from gradlab.mcmc import Chain
from gradlab.model import (BoxGeometry, DisorderSpec, Kernel, Potential, edge_table,
                           gradient_of, kernel_edges, neighbor_index, sample_disorder)


def shell_sites(g, width):
    """Sites outside the box within sup-distance `width` of it."""
    r = range(-g.L - width, g.L + width + 1)
    return [s for s in itertools.product(*([r] * g.d)) if not g.contains(s)]


# ---------------------------------------------------------------------------
# kernels


def test_validate_kernel_accepts_simple_random_walk():
    for d in (1, 2, 3):
        Kernel.nearest_neighbor(d)


def test_validate_kernel_flags_asymmetry():
    with pytest.raises(ValueError, match="symmetry"):
        Kernel(2, {(1, 0): 0.5, (-1, 0): 0.25, (0, -1): 0.25})
    with pytest.raises(ValueError, match="symmetry"):
        Kernel(2, {(1, 0): 0.6, (-1, 0): 0.4})


def test_validate_kernel_flags_normalization():
    with pytest.raises(ValueError, match="normalization"):
        Kernel(2, {(1, 0): 0.225, (-1, 0): 0.225,
                   (0, 1): 0.225, (0, -1): 0.225})


def test_validate_kernel_flags_negative_weight_and_self_weight():
    with pytest.raises(ValueError, match="nonnegativity"):
        Kernel(1, {(1,): -0.5, (-1,): 1.5})
    with pytest.raises(ValueError, match="self-weight"):
        Kernel(1, {(0,): 0.5, (1,): 0.25, (-1,): 0.25})


def test_kernel_flags_dimension_and_empty_support_first():
    # a 1-d offset in a 2-d kernel that also fails nonnegativity, symmetry
    # and normalization
    with pytest.raises(ValueError, match="dimension"):
        Kernel(2, {(1,): -0.5, (0, 1): 0.5})
    with pytest.raises(ValueError, match="finite support"):
        Kernel(1, {(1,): 0.0, (-1,): 0.0})


@pytest.mark.parametrize("weight_map", [
    pytest.param({(1.5,): 0.5, (-1.5,): 0.5}, id="fractional"),
    pytest.param({(1.0,): 0.5, (-1.0,): 0.5}, id="integral-float"),
])
def test_kernel_flags_offsets_off_the_lattice(weight_map):
    # a fractional offset used to construct and fail later in a slice; an
    # integral float one compared equal to nn and shared its cached tables
    with pytest.raises(ValueError, match=r"dimension: offset .* is not in Z\^1"):
        Kernel(1, weight_map)


def test_kernel_accepts_numpy_integer_offsets():
    k = Kernel(1, {(np.int64(1),): 0.5, (np.int64(-1),): 0.5})
    assert k == Kernel.nearest_neighbor(1)


@pytest.mark.parametrize("weight_map", [
    pytest.param({(1, 0): 0.25, (0, 1): 0.25, (0, -1): 0.25, (-1, 0): 0.25},
                 id="reversed"),
    pytest.param({(0, 0): 0.0, (1, 0): 0.25, (1, 1): 0.0, (-1, 0): 0.25, (2, 0): 0.0,
                  (0, 1): 0.25, (-1, -1): 0.0, (0, -1): 0.25}, id="zero-padded"),
])
def test_a_kernel_is_its_nonzero_weights(weight_map):
    """Every spelling of one weight map is one kernel: the same support, the
    same cached tables, and the same closed-form covariance path."""
    nn, k = Kernel.nearest_neighbor(2), Kernel(2, weight_map)
    assert k == nn and hash(k) == hash(nn)
    assert (k.offsets, k.weights) == (nn.offsets, nn.weights)
    assert sine_diagonal(k)
    g = BoxGeometry(2, 3)
    assert edge_table(g, k) is edge_table(g, nn)
    scan = variance_scaling_scan(2, [32], 1.0, kernel=k)
    assert scan == variance_scaling_scan(2, [32], 1.0)
    assert scan[0][2] == pytest.approx(4.696e-13, rel=1e-3)  # the mode sum's bound


@pytest.mark.parametrize("build", [
    neighbor_index, edge_table,
    lambda g, k: Chain(g, k, Potential(1.0, 0.1), np.zeros(g.n_sites)),
], ids=["neighbor_index", "edge_table", "Chain"])
def test_tables_reject_a_kernel_of_another_dimension(build):
    with pytest.raises(ValueError, match="kernel and geometry dimensions differ"):
        build(BoxGeometry(3, 2), Kernel.nearest_neighbor(2))


# ---------------------------------------------------------------------------
# geometry


@pytest.mark.parametrize("d,L", [(1, 3), (2, 2), (3, 1)])
def test_geometry_indexing_roundtrip(d, L):
    g = BoxGeometry(d=d, L=L)
    assert g.n_sites == (2 * L + 1) ** d
    for idx, site in enumerate(sites(g)):
        assert g.index_of(site) == idx
        assert site_of(g, idx) == site


# ---------------------------------------------------------------------------
# gradients and loops


def test_gradient_of_zero_field_vanishes(box33, nn2):
    w = gradient_of(box33, nn2, zero_heights(box33))
    assert np.all(w.values == 0.0)


def test_gradient_of_constant_field(box33, nn2):
    c = 1.75
    phi = np.full(box33.n_sites, c)
    w = gradient_of(box33, nn2, phi)
    for i, j, _ in oracle_boundary_edges(box33, nn2):
        assert edge_value(w, i, j) == pytest.approx(c)  # interior minus the 0 outside
    interior = [(e, v) for e, v in zip(kernel_edges(box33, nn2), w.values.tolist())
                if box33.contains(e[0]) and box33.contains(e[1])]
    assert interior and all(v == 0.0 for _, v in interior)


def test_gradient_of_lives_on_the_box_of_its_heights(nn2):
    g = BoxGeometry(2, 2)
    phi = np.arange(1.0, g.n_sites + 1.0)
    w = gradient_of(g, nn2, phi)
    assert w.geometry == g
    assert w.values.shape == (len(kernel_edges(g, nn2)),)
    for i, j, _ in oracle_boundary_edges(g, nn2):
        assert edge_value(w, i, j) == height_at(g, phi, i)  # the 0 outside


def test_gradient_of_keeps_leading_axes(nn2):
    g = BoxGeometry(2, 2)
    phi = np.stack([random_heights(g, seed=s) for s in range(6)]).reshape(2, 3, -1)
    w = gradient_of(g, nn2, phi)
    assert w.values.shape == (2, 3, len(kernel_edges(g, nn2)))
    for got, row in zip(w.values.reshape(6, -1), phi.reshape(6, -1)):
        assert np.array_equal(got, gradient_of(g, nn2, row).values)


def test_a_disorder_draw_is_a_plain_site_array():
    g = BoxGeometry(2, 3)
    eta = sample_disorder(DisorderSpec("gaussian", 1.0, seed=2), g)
    assert isinstance(eta, np.ndarray) and eta.shape == (g.n_sites,)
    # values: the same data as an ndarray, for readers of a draw's values
    assert type(eta.values) is np.ndarray and np.shares_memory(eta, eta.values)
    assert np.array_equal(eta.values, eta)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_gradients_satisfy_loop_condition(seed):
    g = BoxGeometry(2, 1)
    k = Kernel.nearest_neighbor(2)
    phi = random_heights(g, seed=seed, scale=3.0)
    assert loop_residuals(g, gradient_of(g, k, phi)) <= 1e-14


def test_loop_residual_of_single_edge(box33, nn2):
    w = gradient_of(box33, nn2, zero_heights(box33))
    set_edge(w, (0, 0), (0, 1), 1.0)
    assert loop_residuals(box33, w) == pytest.approx(1.0)


def test_loop_residuals_rejects_d1():
    g = BoxGeometry(1, 2)
    with pytest.raises(ValueError):
        loop_residuals(g, zero_field(g, Kernel.nearest_neighbor(1)))


# ---------------------------------------------------------------------------
# boundary edges


def test_boundary_edge_count_3x3(box33, nn2):
    assert len(oracle_boundary_edges(box33, nn2)) == 12


def test_boundary_edge_count_d1():
    k = Kernel.nearest_neighbor(1)
    g = BoxGeometry(1, 2)
    assert len(oracle_boundary_edges(g, k)) == 2


def test_boundary_edges_match_pair_enumeration_for_range_two_kernel():
    k = Kernel.axis_kernel(2, 2)
    g = BoxGeometry(2, 1)
    got = {(i, j) for i, j, _ in oracle_boundary_edges(g, k)}
    # independent route: scan all (interior, shell) pairs for kernel support
    expected = set()
    for i in sites(g):
        for j in shell_sites(g, 2):
            v = tuple(b - a for a, b in zip(i, j))
            if weight(k, v) > 0.0:
                expected.add((i, j))
    assert got == expected
    assert any(max(abs(a - b) for a, b in zip(i, j)) == 2 for i, j in got)


def test_kernel_edges_cover_gradient_support(box33, nn2):
    edges = kernel_edges(box33, nn2)
    assert len(edges) == len(set(edges)) == 24  # 12 interior + 12 boundary
    w = gradient_of(box33, nn2, zero_heights(box33))
    assert w.values.shape == (len(edges),)


# ---------------------------------------------------------------------------
# disorder


def test_rademacher_support_and_determinism():
    g = BoxGeometry(2, 3)
    spec = DisorderSpec("rademacher", 1.0, seed=7, realization=2)
    eta = sample_disorder(spec, g)
    assert set(np.unique(eta)) <= {-1.0, 1.0}
    again = sample_disorder(spec, g)
    assert np.array_equal(eta, again)


def test_distinct_realizations_differ():
    g = BoxGeometry(2, 3)
    a = sample_disorder(DisorderSpec("gaussian", 1.0, 7, 0), g)
    b = sample_disorder(DisorderSpec("gaussian", 1.0, 7, 1), g)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("family", ["gaussian", "rademacher", "uniform"])
def test_disorder_moments(family):
    g = BoxGeometry(2, 49)  # 9801 sites
    eta2 = 2.0
    eta = sample_disorder(DisorderSpec(family, eta2, seed=11), g)
    n = g.n_sites
    assert abs(eta.mean()) <= 4.0 * np.sqrt(eta2 / n)
    assert abs((eta ** 2).mean() - eta2) <= 0.05 * eta2


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
        Potential(0.0)
    with pytest.raises(ValueError):
        Potential(1.0, -0.1)
    with pytest.raises(ValueError):
        Potential(-1.0, 0.0)
    for bad in (lambda: Potential(math.nan, 1.0),
                lambda: Potential(1.0, math.inf),
                lambda: Potential(-math.inf, 1.0),
                lambda: Potential(math.inf),
                lambda: Potential(math.nan)):
        with pytest.raises(ValueError):
            bad()
    Potential(-1.0, 0.5)  # double well is allowed


@given(st.floats(-50.0, 50.0))
@settings(max_examples=50, deadline=None)
def test_potential_even_and_derivative_odd(t):
    for vpot in (Potential(2.0), Potential(1.0, 0.3)):
        assert vpot.value(t) == pytest.approx(vpot.value(-t), abs=1e-12)
        assert vpot.derivative(-t) == pytest.approx(-vpot.derivative(t), abs=1e-12)


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(5)
    h = 1e-4
    for vpot in (Potential(1.5), Potential(1.0, 0.4)):
        t = rng.uniform(-5.0, 5.0, size=1000)
        fd = (vpot.value(t + h) - vpot.value(t - h)) / (2.0 * h)
        scale = 1.0 + np.abs(t) ** 3
        assert np.all(np.abs(vpot.derivative(t) - fd) <= 10.0 * h * h * scale)


# ---------------------------------------------------------------------------
# the energy oracle


def test_energy_of_zero_field_is_zero(box33, nn2, quadratic, quartic):
    phi = zero_heights(box33)
    eta = gaussian_eta(box33)
    assert oracle_energy(box33, nn2, quadratic, phi, eta) == 0.0
    assert oracle_energy(box33, nn2, quartic, phi, eta) == 0.0


def test_energy_single_site(quadratic):
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry(2, 0)
    h = 0.8
    eta = np.array([h])
    for t in (-1.3, 0.0, 0.4, 2.0):
        phi = np.array([t])
        assert oracle_energy(g, k, quadratic, phi, eta) == pytest.approx(t * t / 2 - h * t)


def test_interior_pair_term_is_shift_invariant(box55, nn2, quartic):
    # phi -> phi + c changes the energy only through the boundary pairs and
    # the field, counted here edge by edge
    phi = random_heights(box55, seed=6)
    eta = gaussian_eta(box55, seed=7)
    c = 4.25
    shifted = phi + c
    height = lambda i: height_at(box55, phi, i)
    boundary = sum(w * (quartic.value(height(i) + c) - quartic.value(height(i)))
                   for i, _, w in oracle_boundary_edges(box55, nn2))
    change = (oracle_energy(box55, nn2, quartic, shifted, eta)
              - oracle_energy(box55, nn2, quartic, phi, eta))
    assert change == pytest.approx(boundary - c * float(np.sum(eta)), rel=1e-10)
    assert abs(change) > 1.0


def test_canonical_edge_signs():
    edge, sign = canonical_edge((1, 0), (0, 0))
    assert edge == ((0, 0), (1, 0)) and sign == -1.0
    with pytest.raises(ValueError):
        canonical_edge((0, 0), (0, 0))


def test_vector_field_antisymmetry(box33, nn2):
    w = zero_field(box33, nn2)
    set_edge(w, (1, 0), (0, 0), 2.5)
    assert edge_value(w, (1, 0), (0, 0)) == 2.5
    assert edge_value(w, (0, 0), (1, 0)) == -2.5
