import math

import numpy as np
import pytest

from conftest import (DIAGONAL, covariance, edge_value, gaussian_eta, green_column,
                      height_at, loop_residuals, oracle_boundary_edges,
                      oracle_cg_solve, oracle_sparse_operator, sites,
                      slab_covariance, solve_green, variance, zero_heights)
from gradlab import gaussian
from gradlab.diagnostics import boundary_identities, decay_scan_d3, divergence_residual
from gradlab.gaussian import (DirichletLaplacian, SolverError,
                              _exp_nodes, _sin_pi, _sine_solve, _symbol,
                              covariances, mean_gradient, sine_diagonal,
                              solve_array)
from gradlab.model import BoxGeometry, Kernel, kernel_edges

#: the residual target of the tests that compare solves with oracles
TIGHT = 1e-12
#: jumps of +-3 only: at L = 2 the sine symbol vanishes on mode k = 4
THREE_STEP = Kernel(1, {(3,): 0.5, (-3,): 0.5})


def make_operator(d, L, kernel=None):
    k = kernel if kernel is not None else Kernel.nearest_neighbor(d)
    g = BoxGeometry(d, L)
    return DirichletLaplacian(g, k), g, k


def delta_field(g, site):
    vals = np.zeros(g.n_sites)
    vals[g.index_of(site)] = 1.0
    return vals


def t_entry(A, edge, y):
    """Response T_{ij,y} = G_iy - G_jy of the edge mean to a unit field at
    y, read off the Green column with a delta source at y (G = 0 outside)."""
    i, j = edge
    if i == j:
        return 0.0
    u = green_column(A, y)
    return height_at(A.geometry, u, i) - height_at(A.geometry, u, j)


# ---------------------------------------------------------------------------
# operator


def test_operator_rejects_invalid_kernel():
    with pytest.raises(ValueError, match="symmetry"):
        DirichletLaplacian(BoxGeometry(2, 2), Kernel(2, {(1, 0): 0.6, (-1, 0): 0.4}))
    with pytest.raises(ValueError, match="dimensions differ"):
        DirichletLaplacian(BoxGeometry(2, 2), Kernel.nearest_neighbor(3))


@pytest.mark.parametrize("d,L", [(2, 3), (3, 1)])
def test_operator_is_symmetric(d, L):
    A, g, _ = make_operator(d, L)
    rng = np.random.default_rng(0)
    for _ in range(3):
        u = rng.normal(size=g.n_sites)
        v = rng.normal(size=g.n_sites)
        assert np.dot(u, A.apply(v)) == pytest.approx(np.dot(A.apply(u), v), abs=1e-12)


# ---------------------------------------------------------------------------
# solves


def test_solve_zero_source_is_zero():
    A, g, _ = make_operator(2, 2)
    u = solve_green(A, zero_heights(g))
    assert np.all(u == 0.0)


def test_single_site_green_is_identity():
    A, g, _ = make_operator(2, 0)
    u = solve_green(A, delta_field(g, (0, 0)))
    assert height_at(g, u, (0, 0)) == pytest.approx(1.0, abs=1e-12)


def test_green_column_matches_dense_inverse(rel_tolerance):
    rel_tolerance(TIGHT)
    A, g, _ = make_operator(2, 1)
    inv = np.linalg.inv(oracle_sparse_operator(A).toarray())
    u = green_column(A, (0, 0))
    np.testing.assert_allclose(u, inv[:, g.index_of((0, 0))], atol=1e-10)


def test_solver_error_reports_residual(rel_tolerance):
    rel_tolerance(1e-20)
    # an unreachable residual target, where preconditioned CG must run (axis2)
    A, g, _ = make_operator(2, 6, Kernel.axis_kernel(2, 2))
    eta = gaussian_eta(g)
    with pytest.raises(SolverError) as err:
        solve_array(A, eta)
    assert err.value.achieved_residual > 0.0
    assert "residual" in str(err.value)


def test_a_wrong_sine_solve_of_a_huge_source_is_repaired(monkeypatch):
    # ||b||^2 overflows at 1e200: the gate must still see a wrong answer,
    # which conjugate gradients then repair
    A, g, _ = make_operator(2, 3)
    b = 1e200 * gaussian_eta(g)
    monkeypatch.setattr(gaussian, "_sine_solve", lambda A, b: 1.5 * _sine_solve(A, b))
    u = solve_array(A, b)
    residual = (A.apply(u / 1e200) - b / 1e200) / np.linalg.norm(b / 1e200)
    assert np.linalg.norm(residual) <= gaussian.REL_TOLERANCE


def test_an_unreachable_tolerance_on_a_huge_source_is_reported(rel_tolerance):
    rel_tolerance(1e-20)
    A, g, _ = make_operator(2, 3)
    eta = gaussian_eta(g)
    with pytest.raises(SolverError) as err:
        solve_array(A, 1e200 * eta)
    assert 0.0 < err.value.achieved_residual < math.inf
    # the goal 1e-20 ||b||, in the units of b
    goal = float(str(err.value).rsplit("= ", 1)[1])
    assert goal == pytest.approx(1e180 * np.linalg.norm(eta), rel=1e-3)


@pytest.mark.parametrize("kernel", [None, Kernel.axis_kernel(2, 2)],
                         ids=["nn", "axis2"])
def test_a_tiny_source_is_solved_as_its_scaled_copy(kernel):
    # ||b||^2 underflows at 2^-600: the solve must not see a zero source,
    # nor a residual target of 0
    A, g, _ = make_operator(2, 8, kernel)
    b = gaussian_eta(g)
    assert np.array_equal(solve_array(A, b * 2.0 ** -600),
                          solve_array(A, b) * 2.0 ** -600)


def test_dst_solve_reports_an_unreachable_tolerance(rel_tolerance):
    rel_tolerance(1e-20)
    A, g, _ = make_operator(2, 8)
    eta = gaussian_eta(g)
    with pytest.raises(SolverError) as err:
        solve_array(A, eta)
    assert err.value.achieved_residual > 0.0
    assert "residual" in str(err.value)


def test_only_the_nearest_neighbour_kernel_is_sine_diagonal():
    for d in (1, 2, 3):
        assert sine_diagonal(Kernel.nearest_neighbor(d))
        assert sine_diagonal(Kernel.axis_kernel(d, 1))  # same weights
        assert not sine_diagonal(Kernel.axis_kernel(d, 2))
    assert not sine_diagonal(DIAGONAL)


@pytest.mark.parametrize("kernel,d,L", [
    *(pytest.param(None, d, L, id=f"{d}-{L}")
      for d, L in [(1, 0), (1, 7), (2, 0), (2, 3), (2, 9), (3, 0), (3, 2), (3, 5)]),
    *(pytest.param(Kernel.axis_kernel(d, 2), d, L, id=f"axis2-{d}-{L}")
      for d, L in [(1, 0), (1, 7), (1, 30), (2, 0), (2, 3), (2, 9), (3, 0),
                   (3, 2), (3, 5)]),
    pytest.param(DIAGONAL, 2, 3, id="diagonal-2-3"),
    pytest.param(DIAGONAL, 2, 9, id="diagonal-2-9"),
    pytest.param(THREE_STEP, 1, 2, id="three-step-1-2"),
])
def test_dst_solve_matches_conjugate_gradients(kernel, d, L, rel_tolerance):
    rel_tolerance(TIGHT)
    A, g, k = make_operator(d, L, kernel)
    # a positive source keeps every entry of u = G b away from zero
    b = np.random.default_rng(10 * d + L).uniform(0.5, 1.5, size=g.n_sites)
    u = solve_array(A, b)
    reference = oracle_cg_solve(A, b, TIGHT)
    np.testing.assert_allclose(u, reference, rtol=1e-10)
    bound = 1e-13 if sine_diagonal(k) else 1.001 * TIGHT
    assert np.linalg.norm(A.apply(u) - b) <= bound * np.linalg.norm(b)


def count_applies(monkeypatch):
    """Patch DirichletLaplacian.apply to count its calls; returns the count."""
    calls = [0]
    apply = DirichletLaplacian.apply

    def counted(self, x):
        calls[0] += 1
        return apply(self, x)

    monkeypatch.setattr(DirichletLaplacian, "apply", counted)
    return calls


@pytest.mark.parametrize("d,L", [(1, 7), (2, 9), (3, 5)])
def test_nn_solve_applies_the_operator_once(d, L, monkeypatch, rel_tolerance):
    rel_tolerance(TIGHT)
    # the sine solve is exact, so its one residual check ends the solve
    A, g, _ = make_operator(d, L)
    b = np.random.default_rng(d).normal(size=g.n_sites)
    calls = count_applies(monkeypatch)
    u = solve_array(A, b)
    assert calls == [1]
    assert u.tobytes() == _sine_solve(A, b).tobytes()


@pytest.mark.parametrize("d,Ls", [(2, (8, 16, 32, 64)), (3, (4, 8, 16))])
def test_axis2_steps_do_not_grow_with_the_box(d, Ls, monkeypatch):
    # unpreconditioned CG needs 25-154 steps at d=2 over these boxes
    calls = count_applies(monkeypatch)
    k = Kernel.axis_kernel(d, 2)
    for L in Ls:
        A = DirichletLaplacian(BoxGeometry(d, L), k)
        calls[0] = 0
        green_column(A, (0,) * d)
        assert calls[0] - 2 <= 7, L  # a start and a final residual, then steps


SMALL_BOXES = [(1, 0), (1, 1), (1, 10), (2, 0), (2, 1), (2, 5), (3, 0), (3, 1),
               (3, 2)]


def nn_eigenvalues(g):
    """1 - (1/d) sum_a cos(pi k_a / m) as (2/d) sum_a sin^2(pi k_a / 2m)."""
    m = g.side + 1
    s = 2.0 / g.d * np.sin(np.pi * np.arange(1, m) / (2 * m)) ** 2
    return sum(np.expand_dims(s, [b for b in range(g.d) if b != a])
               for a in range(g.d))


@pytest.mark.parametrize("d,L", SMALL_BOXES)
def test_numpy_dst_solve_matches_scipy_dst(d, L):
    # scipy is a test-only oracle here: the solve itself runs on numpy.fft
    from scipy.fft import dst, idst
    A, g, _ = make_operator(d, L)
    b = np.random.default_rng(d * 100 + L).uniform(0.5, 1.5, size=g.n_sites)
    x = b.reshape(g.shape)
    for a in range(d):
        x = dst(x, type=1, axis=a)
    x = x / nn_eigenvalues(g)
    for a in range(d):
        x = idst(x, type=1, axis=a)
    np.testing.assert_allclose(_sine_solve(A, b), x.ravel(), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("d,L", SMALL_BOXES)
def test_numpy_dst_solve_matches_dense_inverse(d, L):
    A, g, _ = make_operator(d, L)
    b = np.random.default_rng(d * 100 + L + 1).uniform(0.5, 1.5, size=g.n_sites)
    reference = np.linalg.solve(oracle_sparse_operator(A).toarray(), b)
    np.testing.assert_allclose(_sine_solve(A, b), reference, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("d,L", [(1, 3), (2, 1024), (3, 16)])
def test_nn_symbol_has_no_cancellation_at_low_modes(d, L):
    # np.sin of a small angle keeps its relative precision, where
    # 1 - cos(pi k / m) loses about log10(m^2) digits: 2e-11 at d=2, L=1024
    g = BoxGeometry(d, L)
    m = g.side + 1
    want = 2.0 / d * np.sin(np.pi * np.arange(1, m) / (2 * m)) ** 2
    for axis in _symbol(g, Kernel.nearest_neighbor(d)):
        np.testing.assert_allclose(axis, want, rtol=1e-14, atol=0.0)


def nn_axis_symbol(g):
    """(2/d) sin^2(pi k / 2m) for k = 1..side, m = side + 1, as one product:
    the form the nearest-neighbour golden files were recorded with."""
    m = g.side + 1
    return 2.0 / g.d * _sin_pi(np.arange(1, m), 2 * m) ** 2


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_nn_symbol_is_bitwise_the_closed_form(d):
    for L in (0, 1, 6, 37, 500):
        g = BoxGeometry(d, L)
        want = nn_axis_symbol(g).tobytes()
        axes = _symbol(g, Kernel.nearest_neighbor(d))
        assert [a.tobytes() for a in axes] == [want] * d


# ---------------------------------------------------------------------------
# response entries


def test_t_entry_degenerate_edge_is_zero():
    A, _, _ = make_operator(2, 1)
    assert t_entry(A, ((0, 0), (0, 0)), (0, 0)) == 0.0


def test_t_entry_antisymmetry(rel_tolerance):
    rel_tolerance(TIGHT)
    A, _, _ = make_operator(2, 1)
    a = t_entry(A, ((0, 0), (0, 1)), (1, 1))
    b = t_entry(A, ((0, 1), (0, 0)), (1, 1))
    assert a == pytest.approx(-b, abs=1e-13)


def test_t_entry_matches_dense_inverse(rel_tolerance):
    rel_tolerance(TIGHT)
    A, g, _ = make_operator(2, 1)
    inv = np.linalg.inv(oracle_sparse_operator(A).toarray())
    y = (0, 0)
    i, j = (0, 0), (1, 0)
    expected = inv[g.index_of(i), g.index_of(y)] - inv[g.index_of(j), g.index_of(y)]
    assert t_entry(A, (i, j), y) == pytest.approx(expected, abs=1e-10)


# ---------------------------------------------------------------------------
# mean gradient


def test_mean_gradient_of_zero_disorder_vanishes():
    A, g, k = make_operator(2, 1)
    eta = np.zeros(g.n_sites)
    X = mean_gradient(A, eta)
    assert np.all(X.values == 0.0)


def test_mean_gradient_single_site_unit_field(rel_tolerance):
    rel_tolerance(TIGHT)
    A, g, k = make_operator(2, 0)
    eta = np.ones(1)
    X = mean_gradient(A, eta)
    bedges = oracle_boundary_edges(g, k)
    assert len(bedges) == 4
    for i, j, _ in bedges:
        assert edge_value(X, i, j) == pytest.approx(1.0, abs=1e-12)


def test_mean_gradient_matches_entrywise_assembly(rel_tolerance):
    rel_tolerance(TIGHT)
    A, g, k = make_operator(2, 1)
    eta = gaussian_eta(g, seed=2)
    X = mean_gradient(A, eta)
    for edge in kernel_edges(g, k):
        assembled = sum(t_entry(A, edge, y) * height_at(g, eta, y) for y in sites(g))
        assert edge_value(X, *edge) == pytest.approx(assembled, abs=1e-9)


def test_mean_gradient_satisfies_divergence_identity():
    A, g, k = make_operator(2, 5)
    eta = gaussian_eta(g, seed=8)
    X = mean_gradient(A, eta)
    _, mx = divergence_residual(X, eta)
    assert mx <= 1e-8


def test_mean_gradient_is_loop_free(rel_tolerance):
    rel_tolerance(TIGHT)
    A, g, k = make_operator(2, 2)
    eta = gaussian_eta(g, seed=9)
    X = mean_gradient(A, eta)
    assert loop_residuals(g, X) <= 1e-9


# ---------------------------------------------------------------------------
# covariance and variance


def test_covariance_degenerate_edge_is_zero():
    A, _, _ = make_operator(2, 1)
    assert covariance(A, ((0, 0), (0, 0)), ((0, 0), (1, 0)), 1.0) == 0.0


@pytest.mark.parametrize("eta2", [0.0, math.nan, math.inf])
def test_covariances_reject_a_non_positive_or_non_finite_eta2(eta2):
    A, _, _ = make_operator(2, 2)
    edge = ((0, 0), (1, 0))
    with pytest.raises(ValueError):
        covariances(A, [(edge, edge)], eta2)


def test_covariance_is_symmetric():
    A, g, k = make_operator(2, 2)
    rng = np.random.default_rng(3)
    edges = kernel_edges(g, k)
    for _ in range(4):
        a, b = (edges[i] for i in rng.integers(0, len(edges), size=2))
        assert covariance(A, a, b, 1.3) == pytest.approx(
            covariance(A, b, a, 1.3), abs=1e-14)


def test_variance_matches_dense_sum_of_squares(rel_tolerance):
    rel_tolerance(TIGHT)
    A, g, _ = make_operator(2, 1)
    inv = np.linalg.inv(oracle_sparse_operator(A).toarray())
    i, j = (0, 0), (1, 0)
    t_col = inv[g.index_of(i), :] - inv[g.index_of(j), :]
    assert variance(A, (i, j), 1.0) == pytest.approx(
        float(np.sum(t_col ** 2)), abs=1e-10)


def test_variance_zero_eta2_and_single_site(rel_tolerance):
    rel_tolerance(TIGHT)
    A, g, _ = make_operator(2, 0)
    edge = ((0, 0), (1, 0))
    assert variance(A, edge, 0.0) == 0.0
    assert variance(A, edge, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_variance_grows_with_box_in_d2():
    vals = []
    for L in (8, 16, 32):
        A, _, _ = make_operator(2, L)
        vals.append(variance(A, ((0, 0), (1, 0)), 1.0))
    assert vals[0] < vals[1] < vals[2]


def green_column_covariance(A, a, b, eta2):
    """Oracle: C(a, b) = eta2 <T_a, T_b>, each edge response the difference
    of the Green columns of its interior endpoints (two solves per edge)."""
    def response(edge):
        out = np.zeros(A.geometry.n_sites)
        if edge[0] != edge[1]:
            for x, sign in zip(edge, (1.0, -1.0)):
                if A.geometry.contains(x):
                    out += sign * green_column(A, x)
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
def test_mode_sum_matches_green_columns(d, L, a, b, rel_tolerance):
    rel_tolerance(TIGHT)
    A, _, _ = make_operator(d, L)
    (value,), (err,) = covariances(A, [(a, b)], 1.3)
    oracle = green_column_covariance(A, a, b, 1.3)
    assert value == pytest.approx(oracle, rel=1e-12, abs=0.0)
    assert 0.0 <= err <= 1e-11 * abs(value)


@pytest.mark.parametrize("d,L,a,b", MODE_SUM_CASES)
def test_exponential_sum_matches_slab_contraction(d, L, a, b):
    A, _, _ = make_operator(d, L)
    (value,), (err,) = covariances(A, [(a, b)], 1.3)
    assert abs(value - slab_covariance(A, a, b, 1.3)) <= err


@pytest.mark.parametrize("L", [16, 32, 64])
def test_decay_scan_matches_slab_contraction(L):
    scan = decay_scan_d3(L, [r for r in (4, 6, 8, 12) if r <= L // 2], 1.0)
    A, _, _ = make_operator(3, L)
    for r, c, err in scan:
        h = int(r) // 2
        a, b = (((x, 0, 0), (x, 1, 0)) for x in (-h, h))
        assert abs(c - slab_covariance(A, a, b, 1.0)) <= err


@pytest.mark.parametrize("L", [0, 1, 32, 4096])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_exp_nodes_give_inverse_square_over_the_box_range(d, L):
    # 18 eps per mode is what the bound of covariances allows the nodes
    lam = _symbol(BoxGeometry(d, L), Kernel.nearest_neighbor(d))[0]
    lo, hi = d * lam.min(), d * lam.max()
    t, w = _exp_nodes(lo, hi)
    x = np.geomspace(lo, hi, 5001)
    approx = x ** 2 * (np.exp(-np.multiply.outer(x, t)) @ w)
    assert np.max(np.abs(approx - 1.0)) <= 18 * np.finfo(float).eps


def test_mode_sum_of_several_pairs_matches_single_pairs():
    A, g, k = make_operator(3, 3)
    edges = kernel_edges(g, k)[::37]
    pairs = [(a, b) for a in edges for b in edges[:4]]
    values, errs = covariances(A, pairs, 1.0)
    for (a, b), v, e in zip(pairs, values, errs):
        (v1,), (e1,) = covariances(A, [(a, b)], 1.0)
        assert v == pytest.approx(v1, rel=1e-14, abs=1e-16)
        assert e == pytest.approx(e1, rel=1e-14)


def test_other_kernels_take_green_columns_with_the_solver_bound(rel_tolerance):
    rel_tolerance(TIGHT)
    A, g, k = make_operator(2, 3, Kernel.axis_kernel(2, 2))
    edges = kernel_edges(g, k)
    pairs = [(edges[0], edges[5]), (edges[9], edges[9])]
    values, errs = covariances(A, pairs, 2.0)
    for (a, b), v, e in zip(pairs, values, errs):
        assert v == pytest.approx(green_column_covariance(A, a, b, 2.0), rel=1e-12)
        assert e == pytest.approx(TIGHT * abs(v), rel=1e-15)


def test_other_kernels_solve_once_per_distinct_edge(monkeypatch, rel_tolerance):
    rel_tolerance(TIGHT)
    A, g, k = make_operator(2, 3, Kernel.axis_kernel(2, 2))
    a, b = kernel_edges(g, k)[4], kernel_edges(g, k)[11]
    solves = []
    monkeypatch.setattr(gaussian, "solve_array",
                        lambda *args: solves.append(args) or solve_array(*args))
    values, _ = covariances(A, [(a, a), (a, b), (b, a), (b, b)], 1.0)
    assert len(solves) == 2
    assert values[1] == values[2]
    for (x, y), v in zip([(a, a), (a, b)], values):
        assert v == pytest.approx(green_column_covariance(A, x, y, 1.0), rel=1e-12)


def test_covariance_form_is_positive_semidefinite(rel_tolerance):
    rel_tolerance(TIGHT)
    A, g, k = make_operator(2, 1)
    edges = kernel_edges(g, k)[:6]
    gram = np.array([[covariance(A, a, b, 1.0) for b in edges] for a in edges])
    rng = np.random.default_rng(4)
    for _ in range(10):
        c = rng.normal(size=len(edges))
        assert c @ gram @ c >= -1e-10


# ---------------------------------------------------------------------------
# surface identity


def test_surface_identity_single_site_exact(rel_tolerance):
    rel_tolerance(TIGHT)
    A, _, _ = make_operator(2, 0)
    assert boundary_identities(A, 1.0)[0] <= 1e-13


@pytest.mark.parametrize("d,L", [(2, 4), (3, 3)])
def test_surface_identity_small_boxes(d, L, rel_tolerance):
    rel_tolerance(TIGHT)
    A, _, _ = make_operator(d, L)
    assert boundary_identities(A, 1.0)[0] <= 1e-8


@pytest.mark.parametrize("L", [1, 2])
def test_surface_identity_adjoint_matches_per_column_reference(L, rel_tolerance):
    rel_tolerance(TIGHT)
    A, g, k = make_operator(2, L)
    deviation, _, _ = boundary_identities(A, 1.0)
    # reference: one Green solve per source site y, summed over boundary edges
    bedges = oracle_boundary_edges(g, k)
    worst = 0.0
    for y in sites(g):
        u = green_column(A, y)
        s = sum(w * u[g.index_of(i)] for i, _, w in bedges)
        worst = max(worst, abs(s - 1.0))
    assert deviation == pytest.approx(worst, abs=1e-9)
    assert worst <= 1e-9
