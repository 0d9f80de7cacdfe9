import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (covariance, edge_value, gaussian_eta, integral_form_check,
                      oracle_boundary_edges, oracle_sparse_operator, set_edge,
                      variance, weight, zero_field)
from gradlab import diagnostics, gaussian
from gradlab.diagnostics import (boundary_ergodic_average, boundary_identities,
                                 central_edge, clt_population_value, clt_scan,
                                 decay_scan_d3, divergence_residual, fit,
                                 variance_scaling_scan)
from gradlab.gaussian import DirichletLaplacian, mean_gradient
from gradlab.model import (BoxGeometry, DisorderSpec, Kernel,
                           VectorField, kernel_edges, sample_disorder)


def setup_gaussian(d, L, seed=0):
    k = Kernel.nearest_neighbor(d)
    g = BoxGeometry(d, L)
    A = DirichletLaplacian(g, k)
    eta = gaussian_eta(g, seed=seed)
    return g, k, A, eta


def random_antisymmetric_field(g, k, seed):
    rng = np.random.default_rng(seed)
    return VectorField(g, k, np.array([rng.normal() for _ in kernel_edges(g, k)]))


# ---------------------------------------------------------------------------
# divergence bookkeeping


def test_divergence_residual_of_exact_gaussian_field():
    g, k, A, eta = setup_gaussian(2, 4)
    X = mean_gradient(A, eta)
    _, mx = divergence_residual(X, eta)
    assert mx <= 1e-8


def test_divergence_residual_zero_everything():
    g, k, A, _ = setup_gaussian(2, 1)
    eta = np.zeros(g.n_sites)
    w = zero_field(g, k)
    res, mx = divergence_residual(w, eta)
    assert mx == 0.0 and np.all(res == 0.0)


def test_edge_perturbation_moves_exactly_two_residuals():
    g, k, A, eta = setup_gaussian(2, 2, seed=5)
    X = mean_gradient(A, eta)
    base, _ = divergence_residual(X, eta)
    eps = 0.37
    i, j = (0, 0), (0, 1)  # interior edge
    set_edge(X, i, j, edge_value(X, i, j) + eps)
    moved, _ = divergence_residual(X, eta)
    delta = moved - base
    p = weight(k, (0, 1))
    assert delta[g.index_of(i)] == pytest.approx(-p * eps, abs=1e-14)
    assert delta[g.index_of(j)] == pytest.approx(p * eps, abs=1e-14)
    others = np.delete(delta, [g.index_of(i), g.index_of(j)])
    assert np.all(others == 0.0)


def test_integral_form_check_gaussian():
    g, k, A, eta = setup_gaussian(2, 4, seed=2)
    X = mean_gradient(A, eta)
    chk = integral_form_check(X, eta)
    assert abs(chk.difference) <= g.n_sites * 1e-8
    assert chk.volume_sum == pytest.approx(float(np.sum(eta)))


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_stokes_telescoping_for_arbitrary_antisymmetric_fields(seed):
    # difference of volume and surface sums == sum of residuals, model-free
    g, k, A, eta = setup_gaussian(2, 2, seed=3)
    w = random_antisymmetric_field(g, k, seed)
    res, _ = divergence_residual(w, eta)
    chk = integral_form_check(w, eta)
    assert chk.difference == pytest.approx(float(res.sum()), abs=1e-10)


def test_zero_disorder_arbitrary_field_bookkeeping():
    g, k, A, _ = setup_gaussian(2, 2)
    eta = np.zeros(g.n_sites)
    w = random_antisymmetric_field(g, k, 17)
    res, _ = divergence_residual(w, eta)
    chk = integral_form_check(w, eta)
    assert chk.volume_sum == 0.0
    assert chk.surface_sum == pytest.approx(-float(res.sum()), abs=1e-10)


# ---------------------------------------------------------------------------
# boundary averages


def test_boundary_average_zero_field():
    g, k, A, _ = setup_gaussian(2, 3)
    w = zero_field(g, k)
    assert boundary_ergodic_average(w) == (0.0, 0.0, 0.0, 0.0)


def test_boundary_sides_partition_the_surface_sum():
    g, k, A, eta = setup_gaussian(2, 3, seed=7)
    X = mean_gradient(A, eta)
    sides = sum(boundary_ergodic_average(X))
    chk = integral_form_check(X, eta)
    assert sides * g.L == pytest.approx(chk.surface_sum, rel=1e-12)


def test_boundary_sides_partition_with_range_two_kernel():
    k = Kernel.axis_kernel(2, 2)
    g = BoxGeometry(2, 3)
    A = DirichletLaplacian(g, k)
    eta = gaussian_eta(g, seed=8)
    X = mean_gradient(A, eta)
    sides = sum(boundary_ergodic_average(X))
    assert sides * g.L == pytest.approx(integral_form_check(X, eta).surface_sum,
                                        rel=1e-12)


def test_boundary_average_requires_d2():
    k = Kernel.nearest_neighbor(3)
    g = BoxGeometry(3, 1)
    with pytest.raises(ValueError):
        boundary_ergodic_average(zero_field(g, k))


def test_disorder_mean_of_side_averages_is_small():
    g, k, A, _ = setup_gaussian(2, 8)
    n = 40
    sides = np.zeros((n, 4))
    for r in range(n):
        eta = sample_disorder(DisorderSpec("gaussian", 1.0, 21, r), g)
        X = mean_gradient(A, eta)
        sides[r] = boundary_ergodic_average(X)
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
    ((_, value, err),) = scan
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
    v = [value for _, value, _ in scan]
    assert np.all(np.diff(v) > 0)
    _, slope, r2 = fit("log-linear", scan)
    assert slope > 0
    assert r2 >= 0.99


def test_variance_scan_rejects_bounded_model_in_d2():
    scan = variance_scaling_scan(2, [4, 8, 16, 32, 64], 1.0)
    a, b, _ = fit("log-linear", scan)
    v = {L: value for L, value, _ in scan}
    residual_scale = math.sqrt(np.mean([(value - (a + b * math.log2(L))) ** 2
                                        for L, value in v.items()]))
    assert v[64.0] - v[8.0] > 5.0 * residual_scale


def test_variance_scan_increments_shrink_in_d3():
    v = [value for _, value, _ in variance_scaling_scan(3, [4, 8, 16], 1.0)]
    assert v[2] - v[1] < v[1] - v[0]


def test_variance_scan_rejects_bad_l():
    with pytest.raises(ValueError):
        variance_scaling_scan(2, [0, 4], 1.0)


def test_variance_scan_matches_variance_op():
    scan = variance_scaling_scan(2, [4], 2.0)
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry(2, 4)
    A = DirichletLaplacian(g, k)
    assert scan[0][1] == pytest.approx(variance(A, central_edge(2), 2.0), rel=1e-9)


# ---------------------------------------------------------------------------
# decay scan


def test_decay_scan_same_edge_is_variance():
    scan = decay_scan_d3(6, [0, 2], 1.0)
    k = Kernel.nearest_neighbor(3)
    g = BoxGeometry(3, 6)
    A = DirichletLaplacian(g, k)
    edge = ((0, 0, 0), (0, 1, 0))
    v = variance(A, edge, 1.0)
    assert scan[0][1] == pytest.approx(v, rel=1e-8)
    assert v >= 0.0


def test_decay_scan_decreases_and_matches_covariance_op():
    vals = [c for _, c, _ in decay_scan_d3(8, [2, 4], 1.0)]
    assert vals[0] > vals[1] > 0.0
    k = Kernel.nearest_neighbor(3)
    g = BoxGeometry(3, 8)
    A = DirichletLaplacian(g, k)
    a = ((-1, 0, 0), (-1, 1, 0))
    b = ((1, 0, 0), (1, 1, 0))
    assert vals[0] == pytest.approx(covariance(A, a, b, 1.0), abs=1e-8)


@pytest.mark.parametrize("scan", [
    pytest.param(lambda: decay_scan_d3(8, [0, 2, 4], 1.0), id="decay"),
    pytest.param(lambda: variance_scaling_scan(3, [2, 4], 1.0), id="scaling"),
])
def test_nearest_neighbour_scans_solve_nothing(scan, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the nn covariance scans take the mode sum")

    monkeypatch.setattr(gaussian, "solve_array", forbidden)
    scan()


def test_scan_errors_are_the_mode_sum_rounding_bound():
    # the nn bound is c eps sum|terms|, far below the solver tolerance the
    # column used to report, and still above the distance to the oracle
    scan = decay_scan_d3(16, [2, 4, 6, 8], 1.0)
    for r, c, err in scan:
        h = int(r) // 2
        oracle = spectral_edge_covariance(3, 16, ((-h, 0, 0), (-h, 1, 0)),
                                          ((h, 0, 0), (h, 1, 0)), 1.0)
        assert abs(c - oracle) <= err <= 1e-11 * abs(c)
    variance_rows = variance_scaling_scan(2, [4, 8], 1.0)
    assert all(0.0 < err <= 1e-12 * v for _, v, err in variance_rows)


@pytest.mark.parametrize("scan", [
    pytest.param(lambda eta2: variance_scaling_scan(2, [4], eta2), id="scaling-nn"),
    pytest.param(lambda eta2: variance_scaling_scan(2, [4], eta2,
                                                    kernel=Kernel.axis_kernel(2, 2)),
                 id="scaling-axis2"),
    pytest.param(lambda eta2: decay_scan_d3(12, [2, 4, 6], eta2), id="decay"),
])
def test_subnormal_covariances_keep_an_error_bound(scan):
    # at eta2 = 1e-320 a covariance is hundreds to thousands of subnormal
    # steps: the bound must cover its distance from eta2 times the
    # unit-disorder value, one step allowed for rounding that product
    eta2, step = 1e-320, 5e-324
    for (_, unit, _), (_, c, err) in zip(scan(1.0), scan(eta2)):
        assert err > 0.0
        assert abs(c - eta2 * unit) <= err + step


def test_scaling_scan_keeps_the_solver_tolerance_for_other_kernels(rel_tolerance):
    k = Kernel.axis_kernel(2, 2)
    rel_tolerance(1e-9)
    for _, v, err in variance_scaling_scan(2, [2, 3], 1.0, kernel=k):
        assert err == pytest.approx(1e-9 * v, rel=1e-15)


def test_scaling_scan_solves_each_box_once_for_other_kernels(monkeypatch):
    # one dipole-source solve per box for the central edge's variance
    calls = []
    solve = gaussian.solve_array

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(gaussian, "solve_array", counted)
    variance_scaling_scan(2, [4, 8, 16, 32], 1.0, kernel=Kernel.axis_kernel(2, 2))
    assert len(calls) == 4


def test_decay_scan_validates_arguments():
    with pytest.raises(ValueError):
        decay_scan_d3(8, [2, 6], 1.0)  # 6 > L/2
    with pytest.raises(ValueError):
        decay_scan_d3(8, [3], 1.0)  # odd separation
    with pytest.raises(ValueError):
        decay_scan_d3(8, [-2], 1.0)


# ---------------------------------------------------------------------------
# spectral oracle for the scans: the full mode tensor, summed at once, as an
# independent check of the exponential sum in gaussian.covariances


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
    for L, v, _ in scan:
        assert v == pytest.approx(
            spectral_edge_covariance(3, int(L), edge, edge, 1.0), rel=1e-7)


def test_d3_decay_scan_matches_spectral_oracle():
    scan = decay_scan_d3(16, [2, 4, 6, 8], 1.0)
    for r, c, _ in scan:
        h = int(r) // 2
        a = ((-h, 0, 0), (-h, 1, 0))
        b = ((h, 0, 0), (h, 1, 0))
        assert c == pytest.approx(spectral_edge_covariance(3, 16, a, b, 1.0),
                                  rel=1e-7)


def test_d3_decay_scan_matches_spectral_oracle_at_l64():
    # larger-box evidence for criterion 08: at L = 64 (2.1 M sites) the
    # exponential sum still reproduces the full-tensor eigen-sum
    scan = decay_scan_d3(64, [8, 12], 1.0)
    for r, c, _ in scan:
        h = int(r) // 2
        a = ((-h, 0, 0), (-h, 1, 0))
        b = ((h, 0, 0), (h, 1, 0))
        assert c == pytest.approx(spectral_edge_covariance(3, 64, a, b, 1.0),
                                  rel=1e-9)


# ---------------------------------------------------------------------------
# continuum amplitudes


def test_d2_variance_gains_the_continuum_amount_per_doubling():
    """Each doubling of L adds (4/pi) ln 2 eta2 = 0.88254 eta2 to the d=2
    central-edge variance.

    For I - P = -Delta/4 the Green function is G(x) ~ -(2/pi) ln|x|, so the
    variance eta2 sum_y (d1 G(y))^2 ~ eta2 (4/pi^2) int cos^2/rho drho dtheta
    grows like (4/pi) ln L eta2.  The increment from L to 2L falls short of
    that by about (2/pi)/L (measured 0.6146/L at L = 32 and 0.6363/L at
    L = 2048; 0.88223 at 2048 -> 4096), so 2 inc(2L) - inc(L) removes the
    1/L term; what remains shrinks fourfold per doubling (-8.7e-5, -2.2e-5,
    -5.5e-6 from L = 128, 256, 512).  The window 1e-4 is about twenty times
    the last of these and excludes any other simple constant.
    """
    amplitude = 4.0 / math.pi * math.log(2.0)
    v = [value for _, value, _ in variance_scaling_scan(2, [128, 256, 512, 1024], 1.0)]
    inc = np.diff(v)
    assert np.all(np.diff(inc) > 0.0) and inc[-1] < amplitude
    extrapolated = 2.0 * inc[1:] - inc[:-1]
    assert abs(extrapolated[-1] - amplitude) <= 1e-4
    assert abs(extrapolated[-1] - amplitude) < abs(extrapolated[0] - amplitude)


def test_d3_transverse_covariance_approaches_the_continuum_amplitude():
    """r C(r) -> 9 eta2 / (2 pi) = 1.43239 eta2 for transverse edges in d=3.

    For I - P = -Delta/6, G(x) ~ 3/(2 pi |x|), and C(a, b) ~ eta2
    d_a2 d_b2 (G*G)(a - b) with (G*G)(x) = const - 2 pi (3/(2 pi))^2 |x|;
    for a - b = r e1 that is 9 eta2 / (2 pi r).  At fixed r the box misses
    O(1/L) (r C(16) = 1.250, 1.342, 1.389 at L = 128, 256, 512), so
    2 r C_2L(r) - r C_L(r) removes it.  What is left is the lattice
    correction, about 0.5/r^2 relative (+0.83 %, +0.35 %, +0.18 % at
    r = 8, 12, 16 from L = 256/512), and the residue of the extrapolation
    (-0.08 % at r = 16 from L = 128/256 against 256/512).  The window at
    r = 16, +-0.5 %, is twice their sum.

    The amplitude does not tie to the continuum I(R) = (pi/4R) J(R)
    = pi^2 arctan(R) / (2R) of ``quadrature``:
    I(R) integrates the product of the two gradient magnitudes over a half
    space, ~ pi^3/(4R), while the covariance integrates their signed e2
    components, int d2(1/|y-a|) d2(1/|y-b|) dy = 2 pi / r.  The two share
    the 1/r law but not the constant, and are independent checks.
    """
    amplitude = 9.0 / (2.0 * math.pi)
    rs = [8, 12, 16]
    small, large = (np.array([r * c for r, c, _ in decay_scan_d3(L, rs, 1.0)])
                    for L in (128, 256))
    deviation = (2.0 * large - small) / amplitude - 1.0
    assert np.all(np.diff(deviation) < 0.0) and deviation[-1] > 0.0
    assert abs(deviation[-1]) <= 0.005


def test_d3_central_edge_variance_limit_is_approached_like_one_over_l():
    """The d=3 central-edge variance converges, to about 3.0327 eta2.

    The Green gradient decays like |y|^-2, so the box misses a tail
    sum_{|y|>L} |y|^-4 ~ 1/L and each doubling increment is about half the
    one before: the ratios 0.5218, 0.5113, 0.5058 (to L = 64, 128, 256)
    fall toward 1/2 with L (ratio - 1/2) = 1.39, 1.45, 1.47.  The halving
    extrapolation V(L) + (V(L) - V(L/2)) removes the 1/L term: 3.03260 at
    L = 128 and 3.03273 at 256, 1.3e-4 apart.  Criterion 07 checks only the
    ratio window; this pins the rate's correction and the limit.
    """
    boxes = np.array([16, 32, 64, 128, 256])
    v = np.array([value for _, value, _ in variance_scaling_scan(3, list(boxes), 1.0)])
    inc = np.diff(v)
    ratio = inc[1:] / inc[:-1]
    assert np.all(np.diff(ratio) < 0.0) and np.all(ratio > 0.5)
    correction = boxes[2:] * (ratio - 0.5)
    assert np.all((1.3 <= correction) & (correction <= 1.6)), correction
    extrapolated = v[1:] + inc
    assert abs(extrapolated[-1] - extrapolated[-2]) <= 2e-4


# ---------------------------------------------------------------------------
# second-moment identity


def test_second_moment_single_site():
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry(2, 0)
    _, second, relative_difference = boundary_identities(DirichletLaplacian(g, k), 2.5)
    assert second == pytest.approx(2.5)
    assert relative_difference <= 1e-12


@pytest.mark.parametrize("d,L", [(2, 4), (3, 2)])
def test_second_moment_small_boxes(d, L):
    k = Kernel.nearest_neighbor(d)
    g = BoxGeometry(d, L)
    _, _, relative_difference = boundary_identities(DirichletLaplacian(g, k), 1.0)
    assert relative_difference <= 1e-6


def oracle_second_moment_rhs(g, k, eta2):
    """The literal double sum eta2 sum_a sum_b p_a p_b T_a . T_b over the
    boundary edges a = (i, j), with T_a = G_i. - G_j. read off a dense
    inverse of the oracle operator (G_j. = 0 for j outside the box)."""
    G = np.linalg.inv(oracle_sparse_operator(DirichletLaplacian(g, k)).toarray())

    def response(i, j):
        return sum(sign * G[g.index_of(x)] for x, sign in ((i, 1.0), (j, -1.0))
                   if g.contains(x))

    edges = [(response(i, j), p) for i, j, p in oracle_boundary_edges(g, k)]
    return eta2 * sum(pa * pb * float(ta @ tb) for ta, pa in edges for tb, pb in edges)


@pytest.mark.parametrize("d,L,name", [(2, 2, "nn"), (3, 1, "nn"), (2, 2, "axis2")])
def test_second_moment_rhs_matches_the_literal_double_sum(d, L, name):
    k = Kernel.nearest_neighbor(d) if name == "nn" else Kernel.axis_kernel(d, 2)
    g = BoxGeometry(d, L)
    _, second, _ = boundary_identities(DirichletLaplacian(g, k), 1.7)
    assert second == pytest.approx(oracle_second_moment_rhs(g, k, 1.7),
                                   rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", ["nn", "axis2"])
def test_boundary_identities_are_one_solve(name, monkeypatch):
    k = Kernel.nearest_neighbor(2) if name == "nn" else Kernel.axis_kernel(2, 2)
    g = BoxGeometry(2, 3)
    calls = []
    solve = gaussian.solve_array

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(gaussian, "solve_array", counted)
    boundary_identities(DirichletLaplacian(g, k), 1.0)
    assert len(calls) == 1
    assert "splu" not in vars(diagnostics)
    assert "splu" not in boundary_identities.__code__.co_names


# ---------------------------------------------------------------------------
# rows and fits


@pytest.mark.parametrize("scan, controls", [
    pytest.param(lambda c: clt_scan(c, 100, DisorderSpec("gaussian", 1.0, seed=3)),
                 [4, 2], id="clt"),
    pytest.param(lambda c: variance_scaling_scan(2, c, 1.0), [4, 1, 2], id="scaling-nn"),
    pytest.param(lambda c: variance_scaling_scan(2, c, 1.0, kernel=Kernel.axis_kernel(2, 2)),
                 [3, 1, 2], id="scaling-axis2"),
    pytest.param(lambda c: decay_scan_d3(8, c, 1.0), [4, 0, 2], id="decay"),
])
def test_scans_return_float_rows_sorted_by_control(scan, controls):
    rows = scan(controls)
    assert [r[0] for r in rows] == sorted(map(float, controls))
    assert all(len(r) == 3 and all(type(x) is float for x in r) for r in rows)
    assert all(err >= 0.0 for _, _, err in rows)


def test_fit_recovers_exact_log_linear_data():
    ls = [2.0, 4.0, 8.0, 16.0]
    rows = tuple((L, 2.0 + 3.0 * np.log2(L), 0.0) for L in ls)
    a, b, r2 = fit("log-linear", rows)
    assert (a, b) == pytest.approx((2.0, 3.0), abs=1e-12)
    assert r2 == pytest.approx(1.0)


def test_fit_recovers_exact_power_law():
    rs = [2.0, 4.0, 8.0, 16.0]
    rows = tuple((r, 5.0 / r, 0.0) for r in rs)
    amplitude, exponent, r2 = fit("power-law", rows)
    assert amplitude == pytest.approx(5.0, rel=1e-12)
    assert exponent == pytest.approx(1.0, abs=1e-12)
    assert r2 == pytest.approx(1.0)


def test_fit_rejects_bad_input():
    with pytest.raises(ValueError, match="positive controls and values"):
        fit("power-law", ((1.0, -1.0, 0.0), (2.0, 1.0, 0.0), (3.0, 1.0, 0.0)))
    with pytest.raises(ValueError, match="positive controls"):
        fit("log-linear", ((0.0, 1.0, 0.0), (1.0, 2.0, 0.0), (2.0, 3.0, 0.0)))
    with pytest.raises(ValueError, match="at least 3 rows"):
        fit("log-linear", ((1.0, 1.0, 0.0), (2.0, 2.0, 0.0)))
    with pytest.raises(ValueError, match="unknown fit model"):
        fit("cubic", ((1.0, 1.0, 0.0), (2.0, 2.0, 0.0), (3.0, 3.0, 0.0)))
