import weakref
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gaussian_eta
from gradlab import gaussian
from gradlab.diagnostics import (FitResult, ScanResult,
                                 boundary_ergodic_average, central_edge,
                                 clt_population_value, clt_scan, decay_scan_d3,
                                 divergence_residual, fit, integral_form_check,
                                 second_moment_identity, variance_scaling_scan)
from gradlab.gaussian import (DirichletLaplacian, SolverConfig, covariance,
                              mean_gradient, variance)
from gradlab.model import (BoxGeometry, DisorderField, DisorderSpec, Kernel,
                           VectorField, boundary_edges, kernel_edges,
                           sample_disorder)


def setup_gaussian(d, L, seed=0):
    k = Kernel.nearest_neighbor(d)
    g = BoxGeometry.for_kernel(d, L, k)
    A = DirichletLaplacian(g, k)
    eta = gaussian_eta(g, seed=seed)
    return g, k, A, eta


def random_antisymmetric_field(g, k, seed):
    rng = np.random.default_rng(seed)
    w = VectorField(g, k)
    for edge in kernel_edges(g, k):
        w.set(edge[0], edge[1], rng.normal())
    return w


# ---------------------------------------------------------------------------
# divergence bookkeeping


def test_divergence_residual_of_exact_gaussian_field():
    g, k, A, eta = setup_gaussian(2, 4)
    X = mean_gradient(A, eta)
    _, mx = divergence_residual(X, eta, g, k)
    assert mx <= 1e-8


def test_divergence_residual_zero_everything():
    g, k, A, _ = setup_gaussian(2, 1)
    eta = DisorderField(g, np.zeros(g.n_sites), DisorderSpec("gaussian", 1.0))
    w = VectorField(g, k)
    for edge in kernel_edges(g, k):
        w.set(edge[0], edge[1], 0.0)
    res, mx = divergence_residual(w, eta, g, k)
    assert mx == 0.0 and np.all(res == 0.0)


def test_edge_perturbation_moves_exactly_two_residuals():
    g, k, A, eta = setup_gaussian(2, 2, seed=5)
    X = mean_gradient(A, eta)
    base, _ = divergence_residual(X, eta, g, k)
    eps = 0.37
    i, j = (0, 0), (0, 1)  # interior edge
    X.set(i, j, X.get(i, j) + eps)
    moved, _ = divergence_residual(X, eta, g, k)
    delta = moved - base
    p = k.weight((0, 1))
    assert delta[g.index_of(i)] == pytest.approx(-p * eps, abs=1e-14)
    assert delta[g.index_of(j)] == pytest.approx(p * eps, abs=1e-14)
    others = np.delete(delta, [g.index_of(i), g.index_of(j)])
    assert np.all(others == 0.0)


def test_integral_form_check_gaussian():
    g, k, A, eta = setup_gaussian(2, 4, seed=2)
    X = mean_gradient(A, eta)
    chk = integral_form_check(X, eta, g, k)
    assert abs(chk.difference) <= g.n_sites * 1e-8
    assert chk.volume_sum == pytest.approx(float(np.sum(eta.values)))


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_stokes_telescoping_for_arbitrary_antisymmetric_fields(seed):
    # difference of volume and surface sums == sum of residuals, model-free
    g, k, A, eta = setup_gaussian(2, 2, seed=3)
    w = random_antisymmetric_field(g, k, seed)
    res, _ = divergence_residual(w, eta, g, k)
    chk = integral_form_check(w, eta, g, k)
    assert chk.difference == pytest.approx(float(res.sum()), abs=1e-10)


def test_zero_disorder_arbitrary_field_bookkeeping():
    g, k, A, _ = setup_gaussian(2, 2)
    eta = DisorderField(g, np.zeros(g.n_sites), DisorderSpec("gaussian", 1.0))
    w = random_antisymmetric_field(g, k, 17)
    res, _ = divergence_residual(w, eta, g, k)
    chk = integral_form_check(w, eta, g, k)
    assert chk.volume_sum == 0.0
    assert chk.surface_sum == pytest.approx(-float(res.sum()), abs=1e-10)


# ---------------------------------------------------------------------------
# boundary averages


def test_boundary_average_zero_field():
    g, k, A, _ = setup_gaussian(2, 3)
    w = VectorField(g, k)
    for edge in kernel_edges(g, k):
        w.set(edge[0], edge[1], 0.0)
    assert all(boundary_ergodic_average(w, g, k, s) == 0.0 for s in (1, 2, 3, 4))


def test_boundary_sides_partition_the_surface_sum():
    g, k, A, eta = setup_gaussian(2, 3, seed=7)
    X = mean_gradient(A, eta)
    sides = sum(boundary_ergodic_average(X, g, k, s) for s in (1, 2, 3, 4))
    chk = integral_form_check(X, eta, g, k)
    assert sides * g.L == pytest.approx(chk.surface_sum, rel=1e-12)


def test_boundary_sides_partition_with_range_two_kernel():
    k = Kernel.axis_kernel(2, 2)
    g = BoxGeometry.for_kernel(2, 3, k)
    A = DirichletLaplacian(g, k)
    eta = gaussian_eta(g, seed=8)
    X = mean_gradient(A, eta)
    sides = sum(boundary_ergodic_average(X, g, k, s) for s in (1, 2, 3, 4))
    assert sides * g.L == pytest.approx(integral_form_check(X, eta, g, k).surface_sum,
                                        rel=1e-12)


def test_boundary_average_requires_d2():
    k = Kernel.nearest_neighbor(3)
    g = BoxGeometry.for_kernel(3, 1, k)
    with pytest.raises(ValueError):
        boundary_ergodic_average(VectorField(g, k), g, k, 1)


def test_disorder_mean_of_side_averages_is_small():
    g, k, A, _ = setup_gaussian(2, 8)
    n = 40
    sides = np.zeros((n, 4))
    for r in range(n):
        eta = sample_disorder(DisorderSpec("gaussian", 1.0, 21, r), g)
        X = mean_gradient(A, eta)
        sides[r] = [boundary_ergodic_average(X, g, k, s) for s in (1, 2, 3, 4)]
    means = sides.mean(axis=0)
    stderrs = sides.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(means) <= 4.0 * stderrs)


# ---------------------------------------------------------------------------
# clt scan


def test_clt_population_value_is_decreasing_toward_four():
    vals = [clt_population_value(L, 2, 1.0) for L in (8, 16, 32)]
    assert vals[0] > vals[1] > vals[2] > 4.0


def test_clt_scan_matches_population_value():
    scan = clt_scan([8], 1000, DisorderSpec("gaussian", 1.0, seed=3))
    (_, value, err) = scan.rows[0]
    pop = clt_population_value(8, 2, 1.0)
    assert abs(value - pop) / pop <= 0.15
    assert 0.0 < err < value


def test_clt_scan_requires_enough_realizations():
    with pytest.raises(ValueError):
        clt_scan([8], 50, DisorderSpec("gaussian", 1.0))


# ---------------------------------------------------------------------------
# scaling scans


def test_variance_scan_increases_in_d2():
    scan = variance_scaling_scan(2, [4, 8, 16, 32], 1.0)
    v = scan.values()
    assert np.all(np.diff(v) > 0)
    f = fit("log-linear", scan)
    assert f.coefficients[1] > 0
    assert f.r_squared >= 0.99


def test_variance_scan_rejects_bounded_model_in_d2():
    scan = variance_scaling_scan(2, [4, 8, 16, 32, 64], 1.0)
    f = fit("log-linear", scan)
    residual_scale = float(np.sqrt(np.mean(np.array(f.residuals) ** 2)))
    v = dict(zip(scan.controls(), scan.values()))
    assert v[64.0] - v[8.0] > 5.0 * residual_scale


def test_variance_scan_increments_shrink_in_d3():
    scan = variance_scaling_scan(3, [4, 8, 16], 1.0)
    v = scan.values()
    assert v[2] - v[1] < v[1] - v[0]


def test_variance_scan_rejects_bad_l():
    with pytest.raises(ValueError):
        variance_scaling_scan(2, [0, 4], 1.0)


def test_variance_scan_matches_variance_op():
    scan = variance_scaling_scan(2, [4], 2.0)
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry.for_kernel(2, 4, k)
    A = DirichletLaplacian(g, k)
    assert scan.rows[0][1] == pytest.approx(variance(A, central_edge(2), 2.0),
                                            rel=1e-9)


# ---------------------------------------------------------------------------
# decay scan


def test_decay_scan_same_edge_is_variance():
    scan = decay_scan_d3(6, [0, 2], 1.0)
    k = Kernel.nearest_neighbor(3)
    g = BoxGeometry.for_kernel(3, 6, k)
    A = DirichletLaplacian(g, k)
    edge = ((0, 0, 0), (0, 1, 0))
    v = variance(A, edge, 1.0)
    assert scan.covariance.rows[0][1] == pytest.approx(v, rel=1e-8)
    assert v >= 0.0


def test_decay_scan_decreases_and_matches_covariance_op():
    scan = decay_scan_d3(8, [2, 4], 1.0)
    vals = scan.covariance.values()
    assert vals[0] > vals[1] > 0.0
    k = Kernel.nearest_neighbor(3)
    g = BoxGeometry.for_kernel(3, 8, k)
    A = DirichletLaplacian(g, k)
    a = ((-1, 0, 0), (-1, 1, 0))
    b = ((1, 0, 0), (1, 1, 0))
    assert vals[0] == pytest.approx(covariance(A, a, b, 1.0), abs=1e-8)
    comp = scan.compensated.values()
    assert comp[0] == pytest.approx(2 * vals[0])


def test_decay_scan_solves_two_columns_per_response_and_keeps_none(monkeypatch):
    solve = gaussian.green_column
    returned = []
    alive_at_call = []

    def counting(A, site, cfg):
        alive_at_call.append(sum(ref() is not None for ref in returned))
        column = solve(A, site, cfg)
        returned.append(weakref.ref(column))
        return column

    monkeypatch.setattr(gaussian, "green_column", counting)
    decay_scan_d3(8, [0, 2, 4], 1.0)
    # r = 0 is one response; every other separation is two
    assert len(returned) == 2 + 4 + 4
    # at most the first column of the response being formed is alive
    assert max(alive_at_call) <= 1


def test_decay_scan_validates_arguments():
    with pytest.raises(ValueError):
        decay_scan_d3(8, [2, 6], 1.0)  # 6 > L/2
    with pytest.raises(ValueError):
        decay_scan_d3(8, [3], 1.0)  # odd separation
    with pytest.raises(ValueError):
        decay_scan_d3(8, [-2], 1.0)


# ---------------------------------------------------------------------------
# spectral oracle for the scans


def spectral_edge_covariance(d, L, a, b, eta2):
    """Closed-form C(a, b) = eta2 sum_k dpsi_k(a) dpsi_k(b) / lambda_k^2 for
    the nearest-neighbour Dirichlet Laplacian on {-L..L}^d.

    I - P is diagonalised by the type-I discrete sine transform (DST-I): the
    modes psi_k(x) = prod_a sqrt(2/m) sin(pi k_a (x_a + L + 1) / m), with
    m = 2L + 2 and k_a = 1..2L+1, are orthonormal with eigenvalues
    lambda_k = 1 - (1/d) sum_a cos(pi k_a / m).  dpsi_k(a) = psi_k(i) -
    psi_k(j) is the mode's difference across the edge a = (i, j); the sine
    vanishes at x_a = +-(L + 1), so exterior endpoints need no special
    case.  No Green column, solver or geometry code is involved.
    """
    m = 2 * L + 2
    theta = np.pi * np.arange(1, m) / m
    lam = 1.0 - reduce(np.add.outer, [np.cos(theta)] * d) / d

    def psi(site):
        return reduce(np.multiply.outer,
                      [np.sqrt(2.0 / m) * np.sin(theta * (x + L + 1)) for x in site])

    def dpsi(edge):
        return psi(edge[0]) - psi(edge[1])

    return eta2 * float(np.sum(dpsi(a) * dpsi(b) / lam ** 2))


def test_d3_variance_scan_matches_spectral_oracle():
    scan = variance_scaling_scan(3, [4, 8, 16], 1.0)
    edge = central_edge(3)
    for L, v, _ in scan.rows:
        assert v == pytest.approx(
            spectral_edge_covariance(3, int(L), edge, edge, 1.0), rel=1e-7)


def test_d3_decay_scan_matches_spectral_oracle():
    scan = decay_scan_d3(16, [2, 4, 6, 8], 1.0)
    for r, c, _ in scan.covariance.rows:
        h = int(r) // 2
        a = ((-h, 0, 0), (-h, 1, 0))
        b = ((h, 0, 0), (h, 1, 0))
        assert c == pytest.approx(spectral_edge_covariance(3, 16, a, b, 1.0),
                                  rel=1e-7)


def test_d3_decay_scan_matches_spectral_oracle_at_l64():
    # larger-box evidence for criterion 08: at L = 64 (2.1 M sites) the
    # exact solve still reproduces the closed-form covariances
    scan = decay_scan_d3(64, [8, 12], 1.0)
    for r, c, _ in scan.covariance.rows:
        h = int(r) // 2
        a = ((-h, 0, 0), (-h, 1, 0))
        b = ((h, 0, 0), (h, 1, 0))
        assert c == pytest.approx(spectral_edge_covariance(3, 64, a, b, 1.0),
                                  rel=1e-9)


# ---------------------------------------------------------------------------
# second-moment identity


def test_second_moment_single_site():
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry.for_kernel(2, 0, k)
    chk = second_moment_identity(g, k, 2.5)
    assert chk.lhs == pytest.approx(2.5)
    assert chk.relative_difference <= 1e-12


@pytest.mark.parametrize("d,L", [(2, 4), (3, 2)])
def test_second_moment_small_boxes(d, L):
    k = Kernel.nearest_neighbor(d)
    g = BoxGeometry.for_kernel(d, L, k)
    chk = second_moment_identity(g, k, 1.0)
    assert chk.relative_difference <= 1e-6


def test_second_moment_rhs_entries_match_covariance_op():
    # bridge the factorized multi-column path to the covariance op
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry.for_kernel(2, 2, k)
    A = DirichletLaplacian(g, k)
    edges = boundary_edges(g, k)
    a = (edges[0][0], edges[0][1])
    b = (edges[7][0], edges[7][1])
    tight = SolverConfig(rel_tolerance=1e-12)
    cab = covariance(A, a, b, 1.0, tight)
    # recompute the same entry the identity uses: response inner product
    from gradlab.gaussian import green_column
    ga = green_column(A, a[0], tight)
    gb = green_column(A, b[0], tight)
    assert cab == pytest.approx(float(ga @ gb), abs=1e-10)


# ---------------------------------------------------------------------------
# fits and result types


def test_fit_recovers_exact_log_linear_data():
    ls = [2.0, 4.0, 8.0, 16.0]
    rows = tuple((L, 2.0 + 3.0 * np.log2(L), 0.0) for L in ls)
    f = fit("log-linear", ScanResult(rows, {}))
    assert f.coefficients == pytest.approx((2.0, 3.0), abs=1e-12)
    assert f.r_squared == pytest.approx(1.0)


def test_fit_recovers_exact_power_law():
    rs = [2.0, 4.0, 8.0, 16.0]
    rows = tuple((r, 5.0 / r, 0.0) for r in rs)
    f = fit("power-law", ScanResult(rows, {}))
    amplitude, exponent = f.coefficients
    assert amplitude == pytest.approx(5.0, rel=1e-12)
    assert exponent == pytest.approx(1.0, abs=1e-12)
    assert f.r_squared == pytest.approx(1.0)


def test_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        fit("power-law", ScanResult(((1.0, -1.0, 0.0), (2.0, 1.0, 0.0),
                                     (3.0, 1.0, 0.0)), {}))
    with pytest.raises(ValueError):
        fit("log-linear", ScanResult(((1.0, 1.0, 0.0), (2.0, 2.0, 0.0)), {}))
    with pytest.raises(ValueError):
        fit("cubic", ScanResult(((1.0, 1.0, 0.0), (2.0, 2.0, 0.0),
                                 (3.0, 3.0, 0.0)), {}))


def test_scan_result_validation():
    with pytest.raises(ValueError):
        ScanResult(((2.0, 1.0, 0.0), (1.0, 1.0, 0.0)), {})  # unsorted
    with pytest.raises(ValueError):
        ScanResult(((1.0, 1.0, -0.1),), {})  # negative uncertainty
    with pytest.raises(ValueError):
        FitResult("log-linear", (0.0, 1.0), 1.5, ())
