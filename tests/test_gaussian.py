import numpy as np
import pytest

from conftest import gaussian_eta, oracle_boundary_edges
from gradlab.diagnostics import divergence_residual
from gradlab.gaussian import (DirichletLaplacian, SolverConfig, SolverError,
                              _cg_solve, covariance, covariances, dense_operator,
                              green_column, mean_gradient, solve_array,
                              solve_green, solver_method, sparse_operator,
                              surface_identity_check, variance)
from gradlab.model import (BoxGeometry, DisorderField, DisorderSpec, HeightField,
                           Kernel, kernel_edges, loop_residuals)

TIGHT = SolverConfig(rel_tolerance=1e-12)


def make_operator(d, L, kernel=None):
    k = kernel if kernel is not None else Kernel.nearest_neighbor(d)
    g = BoxGeometry.for_kernel(d, L, k)
    return DirichletLaplacian(g, k), g, k


def delta_field(g, site):
    vals = np.zeros(g.n_sites)
    vals[g.index_of(site)] = 1.0
    return HeightField(g, vals)


def t_entry(A, edge, y, cfg=SolverConfig()):
    """Response T_{ij,y} = G_iy - G_jy of the edge mean to a unit field at
    y, read off the Green column with a delta source at y (G = 0 outside)."""
    i, j = edge
    if i == j:
        return 0.0
    u = HeightField(A.geometry, green_column(A, y, cfg))
    return u.height_at(i) - u.height_at(j)


# ---------------------------------------------------------------------------
# operator


def test_operator_rejects_invalid_kernel():
    k = Kernel.from_map(2, {(1, 0): 0.6, (-1, 0): 0.4})
    g = BoxGeometry(2, 2)
    with pytest.raises(ValueError):
        DirichletLaplacian(g, k)


@pytest.mark.parametrize("d,L", [(2, 3), (3, 1)])
def test_operator_is_symmetric(d, L):
    A, g, _ = make_operator(d, L)
    rng = np.random.default_rng(0)
    for _ in range(3):
        u = rng.normal(size=g.n_sites)
        v = rng.normal(size=g.n_sites)
        assert np.dot(u, A.apply(v)) == pytest.approx(np.dot(A.apply(u), v), abs=1e-12)


def test_dense_and_sparse_operators_match_apply():
    A, g, _ = make_operator(2, 2)
    dense = dense_operator(A)
    sparse = sparse_operator(A)
    rng = np.random.default_rng(1)
    x = rng.normal(size=g.n_sites)
    np.testing.assert_allclose(dense @ x, A.apply(x), atol=1e-14)
    np.testing.assert_allclose(sparse @ x, A.apply(x), atol=1e-14)


# ---------------------------------------------------------------------------
# solves


def test_solve_zero_source_is_zero():
    A, g, _ = make_operator(2, 2)
    u = solve_green(A, HeightField.zeros(g))
    assert np.all(u.values == 0.0)


def test_single_site_green_is_identity():
    A, g, _ = make_operator(2, 0)
    u = solve_green(A, delta_field(g, (0, 0)))
    assert u[(0, 0)] == pytest.approx(1.0, abs=1e-12)


def test_green_column_matches_dense_inverse():
    A, g, _ = make_operator(2, 1)
    inv = np.linalg.inv(dense_operator(A))
    u = green_column(A, (0, 0), TIGHT)
    np.testing.assert_allclose(u, inv[:, g.index_of((0, 0))], atol=1e-10)


def test_solver_error_reports_residual():
    # the iteration cap exists only on the conjugate-gradient (non-nn) path
    A, g, _ = make_operator(2, 8, Kernel.axis_kernel(2, 2))
    eta = gaussian_eta(g)
    with pytest.raises(SolverError) as err:
        solve_array(A, eta.values, SolverConfig(rel_tolerance=1e-10, max_iterations=2))
    assert err.value.achieved_residual > 0.0
    assert "residual" in str(err.value)


def test_dst_solve_reports_an_unreachable_tolerance():
    A, g, _ = make_operator(2, 8)
    eta = gaussian_eta(g)
    with pytest.raises(SolverError) as err:
        solve_array(A, eta.values, SolverConfig(rel_tolerance=1e-20))
    assert err.value.achieved_residual > 0.0
    assert "residual" in str(err.value)


def test_solver_method_follows_the_kernel():
    for d in (1, 2, 3):
        assert solver_method(Kernel.nearest_neighbor(d)) == "dst"
        assert solver_method(Kernel.axis_kernel(d, 1)) == "dst"  # same weights
        assert solver_method(Kernel.axis_kernel(d, 2)) == "cg"
    lazy = Kernel.from_map(1, {(1,): 0.25, (-1,): 0.25, (0,): 0.5})
    assert solver_method(lazy) == "cg"


@pytest.mark.parametrize("d,L", [(1, 0), (1, 7), (2, 0), (2, 3), (2, 9),
                                 (3, 0), (3, 2), (3, 5)])
def test_dst_solve_matches_conjugate_gradients(d, L):
    A, g, _ = make_operator(d, L)
    # a positive source keeps every entry of u = G b away from zero
    b = np.random.default_rng(10 * d + L).uniform(0.5, 1.5, size=g.n_sites)
    u = solve_array(A, b, TIGHT)
    reference, stopped = _cg_solve(A, b, TIGHT)
    assert stopped is None
    np.testing.assert_allclose(u, reference, rtol=1e-10)
    assert np.linalg.norm(A.apply(u) - b) <= 1e-13 * np.linalg.norm(b)


# ---------------------------------------------------------------------------
# response entries


def test_t_entry_degenerate_edge_is_zero():
    A, _, _ = make_operator(2, 1)
    assert t_entry(A, ((0, 0), (0, 0)), (0, 0)) == 0.0


def test_t_entry_antisymmetry():
    A, _, _ = make_operator(2, 1)
    a = t_entry(A, ((0, 0), (0, 1)), (1, 1), TIGHT)
    b = t_entry(A, ((0, 1), (0, 0)), (1, 1), TIGHT)
    assert a == pytest.approx(-b, abs=1e-13)


def test_t_entry_matches_dense_inverse():
    A, g, _ = make_operator(2, 1)
    inv = np.linalg.inv(dense_operator(A))
    y = (0, 0)
    i, j = (0, 0), (1, 0)
    expected = inv[g.index_of(i), g.index_of(y)] - inv[g.index_of(j), g.index_of(y)]
    assert t_entry(A, (i, j), y, TIGHT) == pytest.approx(expected, abs=1e-10)


# ---------------------------------------------------------------------------
# mean gradient


def test_mean_gradient_of_zero_disorder_vanishes():
    A, g, k = make_operator(2, 1)
    eta = DisorderField(g, np.zeros(g.n_sites), DisorderSpec("gaussian", 1.0))
    X = mean_gradient(A, eta)
    assert all(v == 0.0 for _, v in X.items())


def test_mean_gradient_single_site_unit_field():
    A, g, k = make_operator(2, 0)
    eta = DisorderField(g, np.ones(1), DisorderSpec("gaussian", 1.0))
    X = mean_gradient(A, eta, TIGHT)
    bedges = oracle_boundary_edges(g, k)
    assert len(bedges) == 4
    for i, j, _ in bedges:
        assert X.get(i, j) == pytest.approx(1.0, abs=1e-12)


def test_mean_gradient_matches_entrywise_assembly():
    A, g, k = make_operator(2, 1)
    eta = gaussian_eta(g, seed=2)
    X = mean_gradient(A, eta, TIGHT)
    for edge in kernel_edges(g, k):
        assembled = sum(t_entry(A, edge, y, TIGHT) * eta[y] for y in g.sites())
        assert X.get(*edge) == pytest.approx(assembled, abs=1e-9)


def test_mean_gradient_satisfies_divergence_identity():
    A, g, k = make_operator(2, 5)
    eta = gaussian_eta(g, seed=8)
    X = mean_gradient(A, eta)
    _, mx = divergence_residual(X, eta, g, k)
    assert mx <= 1e-8


def test_mean_gradient_is_loop_free():
    A, g, k = make_operator(2, 2)
    eta = gaussian_eta(g, seed=9)
    X = mean_gradient(A, eta, TIGHT)
    assert loop_residuals(g, X) <= 1e-9


# ---------------------------------------------------------------------------
# covariance and variance


def test_covariance_degenerate_edge_is_zero():
    A, _, _ = make_operator(2, 1)
    assert covariance(A, ((0, 0), (0, 0)), ((0, 0), (1, 0)), 1.0) == 0.0


def test_covariance_is_symmetric():
    A, g, k = make_operator(2, 2)
    rng = np.random.default_rng(3)
    edges = kernel_edges(g, k)
    for _ in range(4):
        a, b = (edges[i] for i in rng.integers(0, len(edges), size=2))
        assert covariance(A, a, b, 1.3) == pytest.approx(
            covariance(A, b, a, 1.3), abs=1e-14)


def test_variance_matches_dense_sum_of_squares():
    A, g, _ = make_operator(2, 1)
    inv = np.linalg.inv(dense_operator(A))
    i, j = (0, 0), (1, 0)
    t_col = inv[g.index_of(i), :] - inv[g.index_of(j), :]
    assert variance(A, (i, j), 1.0, TIGHT) == pytest.approx(
        float(np.sum(t_col ** 2)), abs=1e-10)


def test_variance_zero_eta2_and_single_site():
    A, g, _ = make_operator(2, 0)
    edge = ((0, 0), (1, 0))
    assert variance(A, edge, 0.0) == 0.0
    assert variance(A, edge, 1.0, TIGHT) == pytest.approx(1.0, abs=1e-12)


def test_variance_grows_with_box_in_d2():
    vals = []
    for L in (8, 16, 32):
        A, _, _ = make_operator(2, L)
        vals.append(variance(A, ((0, 0), (1, 0)), 1.0))
    assert vals[0] < vals[1] < vals[2]


def green_column_covariance(A, a, b, eta2, cfg=TIGHT):
    """Oracle: C(a, b) = eta2 <T_a, T_b>, each edge response the difference
    of the Green columns of its interior endpoints (two solves per edge)."""
    def response(edge):
        out = np.zeros(A.n)
        if edge[0] != edge[1]:
            for x, sign in zip(edge, (1.0, -1.0)):
                if A.geometry.contains(x):
                    out += sign * green_column(A, x, cfg)
        return out

    return eta2 * float(response(a) @ response(b))


MODE_SUM_CASES = [
    pytest.param(1, 5, ((0,), (1,)), ((2,), (3,)), id="d1"),
    pytest.param(1, 5, ((5,), (6,)), ((-6,), (-5,)), id="d1-exterior-endpoints"),
    pytest.param(2, 4, ((0, 0), (1, 0)), ((0, 0), (0, 1)), id="d2-crossed-axes"),
    pytest.param(2, 4, ((0, 0), (1, 0)), ((0, 0), (1, 0)), id="d2-a-equals-b"),
    pytest.param(2, 4, ((4, 2), (5, 2)), ((-1, 3), (-1, 4)), id="d2-exterior-endpoint"),
    pytest.param(2, 4, ((6, 0), (6, 1)), ((4, 0), (5, 0)), id="d2-two-layers-out"),
    pytest.param(2, 4, ((5, 1), (6, 1)), ((4, 1), (5, 1)), id="d2-one-and-two-out"),
    pytest.param(2, 4, ((1, 1), (2, 2)), ((-3, 1), (2, -2)), id="d2-site-pairs"),
    pytest.param(3, 3, ((0, 0, 0), (0, 1, 0)), ((2, 0, 0), (2, 1, 0)),
                 id="d3-transverse"),
    pytest.param(3, 3, ((0, 0, 0), (0, 0, 1)), ((1, -2, 0), (2, -2, 0)),
                 id="d3-crossed-axes"),
    pytest.param(3, 3, ((3, 0, 0), (4, 0, 0)), ((0, 0, -3), (0, 0, -4)),
                 id="d3-exterior-endpoints"),
    pytest.param(3, 3, ((-1, 2, 1), (-1, 2, 2)), ((-1, 2, 1), (-1, 2, 2)),
                 id="d3-a-equals-b"),
]


@pytest.mark.parametrize("d,L,a,b", MODE_SUM_CASES)
def test_mode_sum_matches_green_columns(d, L, a, b):
    A, _, _ = make_operator(d, L)
    (value,), (err,) = covariances(A, [(a, b)], 1.3)
    oracle = green_column_covariance(A, a, b, 1.3)
    assert value == pytest.approx(oracle, rel=1e-12, abs=0.0)
    assert 0.0 <= err <= 1e-11 * abs(value)


def test_mode_sum_of_several_pairs_matches_single_pairs():
    A, g, k = make_operator(3, 3)
    edges = kernel_edges(g, k)[::37]
    pairs = [(a, b) for a in edges for b in edges[:4]]
    values, errs = covariances(A, pairs, 1.0)
    for (a, b), v, e in zip(pairs, values, errs):
        (v1,), (e1,) = covariances(A, [(a, b)], 1.0)
        assert v == pytest.approx(v1, rel=1e-14, abs=1e-16)
        assert e == pytest.approx(e1, rel=1e-14)


def test_other_kernels_take_green_columns_with_the_solver_bound():
    A, g, k = make_operator(2, 3, Kernel.axis_kernel(2, 2))
    edges = kernel_edges(g, k)
    pairs = [(edges[0], edges[5]), (edges[9], edges[9])]
    values, errs = covariances(A, pairs, 2.0, TIGHT)
    for (a, b), v, e in zip(pairs, values, errs):
        assert v == pytest.approx(green_column_covariance(A, a, b, 2.0), rel=1e-12)
        assert e == pytest.approx(TIGHT.rel_tolerance * abs(v), rel=1e-15)


def test_covariance_form_is_positive_semidefinite():
    A, g, k = make_operator(2, 1)
    edges = kernel_edges(g, k)[:6]
    gram = np.array([[covariance(A, a, b, 1.0, TIGHT) for b in edges] for a in edges])
    rng = np.random.default_rng(4)
    for _ in range(10):
        c = rng.normal(size=len(edges))
        assert c @ gram @ c >= -1e-10


# ---------------------------------------------------------------------------
# surface identity


def test_surface_identity_single_site_exact():
    A, _, _ = make_operator(2, 0)
    assert surface_identity_check(A, TIGHT) <= 1e-13


@pytest.mark.parametrize("d,L", [(2, 4), (3, 3)])
def test_surface_identity_small_boxes(d, L):
    A, _, _ = make_operator(d, L)
    assert surface_identity_check(A, TIGHT) <= 1e-8


@pytest.mark.parametrize("L", [1, 2])
def test_surface_identity_adjoint_matches_per_column_reference(L):
    A, g, k = make_operator(2, L)
    deviation = surface_identity_check(A, TIGHT)
    # reference: one Green solve per source site y, summed over boundary edges
    bedges = oracle_boundary_edges(g, k)
    worst = 0.0
    for y in g.sites():
        u = green_column(A, y, TIGHT)
        s = sum(w * u[g.index_of(i)] for i, _, w in bedges)
        worst = max(worst, abs(s - 1.0))
    assert deviation == pytest.approx(worst, abs=1e-9)
    assert worst <= 1e-9
