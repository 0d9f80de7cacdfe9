"""The closed form J(R) = 2 pi arctan R, and I(R) = (pi/4R) J(R) with it,
held to the quadrature oracles of ``conftest`` at each oracle's own error."""

import math

import numpy as np
import pytest

from conftest import (i_quadrature, j_integrand, j_limit_integrand,
                      j_limit_reference, j_quadrature, sphere_integral,
                      sphere_integral_large_l_limit)
from gradlab.quadrature import PI2, j_of_r


def test_j_integrand_is_finite_at_the_origin():
    for R in (1.0, 10.0, 200.0):
        v = j_integrand(1e-8, R)
        assert np.isfinite(v)
        assert v == pytest.approx(4.0 / (R ** -2 + 1.0), rel=1e-6)


@pytest.mark.parametrize("R", [0.01, 0.03, 0.1, 0.5, 1.0, 2.0, 10.0, 200.0, 1e4])
def test_j_closed_form_matches_quadrature(R):
    # the quadrature drops a positive tail, so it sits below J(R) by at
    # most its error bound
    value, err = j_quadrature(R)
    assert err <= 1e-7
    assert 0.0 <= j_of_r(R) - value <= err


@pytest.mark.parametrize("R", [0.0, -1.0, math.nan])
def test_j_rejects_a_non_positive_radius(R):
    with pytest.raises(ValueError):
        j_of_r(R)


def test_j_is_increasing_in_r():
    assert j_of_r(1.0) < j_of_r(10.0) < j_of_r(100.0)


def test_j_approaches_pi_squared():
    assert abs(j_of_r(200.0) - PI2) / PI2 <= 0.02


def test_j_monotone_and_converging_on_geometric_grid():
    grid = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0]
    vals = [j_of_r(r) for r in grid]
    gaps = [PI2 - v for v in vals]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(g > 0 for g in gaps)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_j_limit_reference_hits_pi_squared():
    value, err = j_limit_reference()
    assert err <= 1e-6
    assert abs(value - PI2) <= err


def test_j_limit_integrand_continuity_at_one():
    assert j_limit_integrand(1.0) == pytest.approx(0.5)
    assert j_limit_integrand(1.0 - 1e-7) == pytest.approx(0.5, rel=1e-5)


def test_j_limit_stable_under_tighter_tolerances():
    loose, _ = j_limit_reference()
    tight, _ = j_limit_reference(epsabs=5e-12, epsrel=5e-10)
    assert abs(loose - tight) < 1e-8


def test_i_symmetric_in_sign_of_r():
    assert i_quadrature(-3.0)[0] == pytest.approx(i_quadrature(3.0)[0], rel=1e-9)
    with pytest.raises(ValueError):
        i_quadrature(0.0)


@pytest.mark.parametrize("R", [0.5, 1.0, 2.0, 3.0, 10.0])
def test_i_closed_form_matches_quadrature(R):
    value, err = i_quadrature(R)
    assert err <= 1e-8 * value
    assert abs(PI2 * math.atan(R) / (2.0 * R) - value) <= err


@pytest.mark.parametrize("R", [2.0, 10.0, 50.0])
def test_i_j_relation(R):
    lhs = 4.0 * R * i_quadrature(R)[0] / math.pi
    rhs = j_of_r(R)
    assert abs(lhs - rhs) / rhs <= 0.01


def test_r_times_i_approaches_its_limit():
    target = math.pi ** 3 / 4.0
    assert abs(50.0 * i_quadrature(50.0)[0] - target) / target <= 0.03


# ---------------------------------------------------------------------------
# sphere integral


def test_sphere_integral_at_l_zero_is_total_measure():
    for q in (0.3, 0.75, 2.0):
        assert sphere_integral(0.0, q) == pytest.approx(4.0 * math.pi, rel=1e-12)


def test_sphere_integral_closed_form_matches_quadrature_grid():
    # the oracle itself cross-checks; this pins the closed form numerically too
    from scipy.integrate import quad
    for q in (0.3, 0.5, 0.75):
        for L in (1.0, 5.0, 10.0, 100.0):
            got = sphere_integral(L, q)
            ref = 2.0 * math.pi * quad(
                lambda s: (1.0 + 2.0 * L * L * (1.0 - s)) ** (-q), -1.0, 1.0,
                epsabs=1e-13, epsrel=1e-13)[0]
            assert got == pytest.approx(ref, rel=1e-8)


def test_sphere_integral_rejects_q_one_and_bad_arguments():
    with pytest.raises(ValueError):
        sphere_integral(5.0, 1.0)
    with pytest.raises(ValueError):
        sphere_integral(5.0, -0.5)
    with pytest.raises(ValueError):
        sphere_integral(-1.0, 0.5)


def test_sphere_integral_large_l_scaling():
    # the subleading term is relatively (4 L^2)^{q-1}, so q close to 1 needs
    # a larger L to sit within 1% of the leading coefficient
    for q, L in ((0.3, 100.0), (0.5, 100.0), (0.75, 10000.0)):
        coeff = sphere_integral_large_l_limit(q)
        assert sphere_integral(L, q) * L ** (2 * q) == pytest.approx(coeff, rel=0.01)


def test_surface_volume_exponent_comparison():
    # rhs ~ L^4 * sphere_integral(L, q) against the volume L^3: the ratio
    # stays bounded for q = 1/2 and vanishes for q = 3/4
    ratios_half = []
    ratios_three_quarters = []
    for L in (10.0, 100.0, 1000.0):
        ratios_half.append(L ** 4 * sphere_integral(L, 0.5) / L ** 3)
        ratios_three_quarters.append(L ** 4 * sphere_integral(L, 0.75) / L ** 3)
    assert max(ratios_half) <= 2.0 * min(ratios_half)
    assert ratios_three_quarters[0] > 4.0 * ratios_three_quarters[2]
