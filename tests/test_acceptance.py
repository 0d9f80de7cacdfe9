"""Acceptance suite: one test per headline check, each printing a PASS/FAIL
line with the measured values (run pytest with -rA to see the lines for
passing tests too).

Each check pins its tolerance and its runtime budget.  One check (08)
encodes an idealized asymptotic window that the finite box it prescribes
cannot reach; it is implemented exactly as stated and is expected to fail,
with the measured finite-size numbers in the failure message.  See its
docstring.
"""

import math
import time

import numpy as np
import pytest

from conftest import i_quadrature, j_limit_reference, single_site_quadrature_oracle
from gradlab import diagnostics, gaussian, mcmc, quadrature
from gradlab.model import (BoxGeometry, DisorderSpec, Kernel, Potential,
                           kernel_edges, sample_disorder)

MASTER_SEED = 3


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")


class Stopwatch:
    def __init__(self, budget_s: float):
        self.budget = budget_s
        self.t0 = time.perf_counter()

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def check(self) -> None:
        assert self.elapsed < self.budget, \
            f"runtime {self.elapsed:.1f}s exceeded budget {self.budget}s"


def test_criterion_01_quadrature_limit():
    """The limit integral 8 int_0^1 log x / (x^2 - 1) dx, by quadrature, hits
    pi^2 to 1e-6 and J(200) sits within 2% of it."""
    watch = Stopwatch(5.0)
    ref, _ = j_limit_reference()
    ref_err = abs(ref - quadrature.PI2)
    j200 = quadrature.j_of_r(200.0)
    rel = abs(j200 - quadrature.PI2) / quadrature.PI2
    ok = ref_err <= 1e-6 and rel <= 0.02
    report(1, ok, f"|ref - pi^2| = {ref_err:.2e} (<= 1e-6), "
                  f"|J(200) - pi^2|/pi^2 = {rel:.4f} (<= 0.02), "
                  f"{watch.elapsed:.1f}s")
    assert ref_err <= 1e-6
    assert rel <= 0.02
    watch.check()


def test_criterion_02_i_j_relation():
    """The 2-d cylindrical integral, by quadrature, reproduces
    4R I(R)/pi = J(R) to 1%."""
    watch = Stopwatch(30.0)
    rels = {}
    for R in (2.0, 10.0):
        lhs = 4.0 * R * i_quadrature(R)[0] / math.pi
        rhs = quadrature.j_of_r(R)
        rels[R] = abs(lhs - rhs) / rhs
    ok = all(v <= 0.01 for v in rels.values())
    report(2, ok, ", ".join(f"R={R:g}: rel = {v:.2e} (<= 1e-2)"
                            for R, v in rels.items()) + f", {watch.elapsed:.1f}s")
    for R, v in rels.items():
        assert v <= 0.01, f"R={R}"
    watch.check()


def test_criterion_03_divergence_equation():
    """Exact-solver mean gradients satisfy the divergence equation at every
    interior site, for several disorder realizations."""
    watch = Stopwatch(10.0)
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry(2, 16)
    A = gaussian.DirichletLaplacian(g, k)
    worst = 0.0
    for realization in range(5):
        eta = sample_disorder(DisorderSpec("gaussian", 1.0, MASTER_SEED,
                                           realization), g)
        X = gaussian.mean_gradient(A, eta)
        _, mx = diagnostics.divergence_residual(X, eta)
        worst = max(worst, mx)
    ok = worst <= 1e-8
    report(3, ok, f"max interior residual over 5 realizations = {worst:.2e} "
                  f"(<= 1e-8), d=2 L=16, {watch.elapsed:.1f}s")
    assert worst <= 1e-8
    watch.check()


def test_criterion_04_surface_identity(rel_tolerance):
    """The weighted boundary response sums to 1 for every source site."""
    rel_tolerance(1e-12)
    watch = Stopwatch(30.0)
    devs = {}
    for d, L in ((2, 8), (3, 4)):
        k = Kernel.nearest_neighbor(d)
        A = gaussian.DirichletLaplacian(BoxGeometry(d, L), k)
        devs[(d, L)] = diagnostics.boundary_identities(A, 1.0)[0]
    ok = all(v <= 1e-8 for v in devs.values())
    report(4, ok, ", ".join(f"(d={d}, L={L}): max dev = {v:.2e} (<= 1e-8)"
                            for (d, L), v in devs.items())
           + f", {watch.elapsed:.1f}s")
    for key, v in devs.items():
        assert v <= 1e-8, key
    watch.check()


def test_criterion_05_second_moment_identity():
    """eta2 |Lambda| equals the double boundary covariance sum."""
    watch = Stopwatch(60.0)
    rels = {}
    for d, L in ((2, 6), (3, 4)):
        k = Kernel.nearest_neighbor(d)
        g = BoxGeometry(d, L)
        A = gaussian.DirichletLaplacian(g, k)
        rels[(d, L)] = (g.n_sites, diagnostics.boundary_identities(A, 1.0)[2])
    ok = all(rel <= 1e-6 for _, rel in rels.values())
    report(5, ok, ", ".join(
        f"(d={d}, L={L}): lhs = {n:g}, rel diff = {rel:.2e}"
        f" (<= 1e-6)" for (d, L), (n, rel) in rels.items()) + f", {watch.elapsed:.1f}s")
    for key, (_, rel) in rels.items():
        assert rel <= 1e-6, key
    watch.check()


def test_criterion_06_d2_log_divergence():
    """The central-edge variance grows logarithmically with the box:
    positive slope, tight log-linear fit, and a spread of more than three
    slope units between L=4 and L=64."""
    watch = Stopwatch(120.0)
    scan = diagnostics.variance_scaling_scan(2, [4, 8, 16, 32, 64], 1.0)
    _, slope, r2 = diagnostics.fit("log-linear", scan)
    v = {L: value for L, value, _ in scan}
    spread_in_slopes = (v[64.0] - v[4.0]) / slope
    ok = slope > 0 and r2 >= 0.99 and spread_in_slopes > 3.0
    report(6, ok, f"slope = {slope:.4f} (> 0), R^2 = {r2:.5f} "
                  f"(>= 0.99), (V(64) - V(4))/slope = {spread_in_slopes:.2f} "
                  f"(> 3), {watch.elapsed:.1f}s")
    assert slope > 0
    assert r2 >= 0.99
    assert spread_in_slopes > 3.0
    watch.check()


def test_criterion_07_d3_boundedness():
    """d=3 variance increments halve per doubling: bounded, with a 1/L deficit.

    In d=3 the gradient of the Green function decays like |y|^-2, so the
    central-edge variance on the box misses a tail sum_{|y|>L} |y|^-4 ~ 1/L,
    and the Dirichlet image correction is of the same order (Lawler,
    Intersections of Random Walks, 1991, Green-function asymptotics).  A
    1/L deficit makes each doubling increment half the previous one: the
    ratio (V(16) - V(8)) / (V(8) - V(4)) is 1/2 + O(1/L).  The window
    |ratio - 0.5| <= 0.1 leaves room for that correction (the closed-form
    DST-I eigen-sum gives 0.571, 0.541, 0.522, 0.511 for the ratio ending at
    L = 16, 32, 64, 128) and still excludes a 1/L^2 deficit (ratio 0.25)
    and the d=2 log law at the same boxes (ratio 1.07).
    """
    watch = Stopwatch(120.0)
    scan = diagnostics.variance_scaling_scan(3, [4, 8, 16], 1.0)
    v = {L: value for L, value, _ in scan}
    first = v[8.0] - v[4.0]
    second = v[16.0] - v[8.0]
    ratio = second / first
    ok = abs(ratio - 0.5) <= 0.1
    report(7, ok, f"V(8)-V(4) = {first:.5f}, V(16)-V(8) = {second:.5f}, "
                  f"ratio = {ratio:.3f} (needs |ratio - 0.5| <= 0.1), "
                  f"{watch.elapsed:.1f}s")
    watch.check()
    assert abs(ratio - 0.5) <= 0.1, \
        f"increment ratio {ratio:.3f} outside 0.5 +- 0.1 (a 1/L deficit " \
        f"halves increments per doubling)"


def test_criterion_08_d3_sharp_decay():
    """d=3 edge-mean covariance decays like 1/r at L=32.

    EXPECTED TO FAIL at the margins.  With Dirichlet walls at L=32 the
    boundary screening steepens the decay over r in {4..12}: the measured
    exponent is ~1.33 against the window [0.8, 1.2] and the r*C
    drift over {8, 12} is ~16% against < 15%.  The same scan at L=48 gives
    exponent ~1.22 and drift ~10%, converging toward the 1/r law the
    window encodes; the prescribed box is simply too small for it.
    """
    watch = Stopwatch(300.0)
    scan = diagnostics.decay_scan_d3(32, [4, 6, 8, 12], 1.0)
    _, q, _ = diagnostics.fit("power-law", scan)
    comp = {r: r * c for r, c, _ in scan}
    drift = abs(comp[12.0] - comp[8.0]) / abs(comp[8.0])
    ok = 0.8 <= q <= 1.2 and drift < 0.15
    report(8, ok, f"exponent q = {q:.3f} (window [0.8, 1.2]), "
                  f"r*C drift over {{8,12}} = {drift:.3f} (< 0.15), "
                  f"{watch.elapsed:.1f}s")
    watch.check()
    assert 0.8 <= q <= 1.2, f"fitted exponent {q:.3f} outside [0.8, 1.2]"
    assert drift < 0.15, f"r*C drift {drift:.3f} not below 15%"


def test_criterion_09_mcmc_matches_exact_solver():
    """Metropolis edge means agree with the exact Gaussian solver edge by
    edge, within batch-means errors, on one quenched realization."""
    watch = Stopwatch(180.0)
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry(2, 8)
    eta = sample_disorder(DisorderSpec("gaussian", 1.0, MASTER_SEED, 0), g)
    A = gaussian.DirichletLaplacian(g, k)
    X = gaussian.mean_gradient(A, eta)
    est = mcmc.estimate_gradient_mean(g, k, Potential.quadratic(1.0), eta,
                                      2000, 20000, seed=MASTER_SEED)
    edges = kernel_edges(g, k)
    inside = int(np.sum(np.abs(est.mean.values - X.values) <= 3.0 * est.stderr.values))
    frac = inside / len(edges)
    ok = frac >= 0.95
    report(9, ok, f"{inside}/{len(edges)} edges within 3 stderr "
                  f"({frac:.3f} >= 0.95), acceptance {est.acceptance_rate:.2f}, "
                  f"{watch.elapsed:.1f}s")
    assert frac >= 0.95
    watch.check()


def test_criterion_10_anharmonic_divergence_residuals():
    """For the quartic potential the sampled field satisfies the divergence
    equation within propagated errors, and the one-site quadrature oracle
    reproduces the defining flux identity."""
    watch = Stopwatch(300.0)
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry(2, 8)
    vpot = Potential.quartic(1.0, 0.1)
    eta = sample_disorder(DisorderSpec("gaussian", 1.0, MASTER_SEED, 0), g)
    est = mcmc.estimate_gradient_mean(g, k, vpot, eta, 2000, 20000, seed=MASTER_SEED)
    resid, se = mcmc.divergence_check(est, eta)
    ratio = np.abs(resid) / se
    frac = float((ratio <= 4.0).mean())
    oracle = single_site_quadrature_oracle(vpot, 0.6, [0.25] * 4)
    ok = frac >= 0.95 and abs(oracle.residual) <= 1e-8
    report(10, ok, f"{frac:.3f} of sites within 4 propagated stderr "
                   f"(>= 0.95), oracle flux residual = "
                   f"{abs(oracle.residual):.2e} (<= 1e-8), {watch.elapsed:.1f}s")
    assert frac >= 0.95
    assert abs(oracle.residual) <= 1e-8
    watch.check()


def test_criterion_11_clt_non_concentration():
    """The variance of the volume-averaged field across realizations
    matches the i.i.d. value and stays above 4 eta2: no concentration."""
    watch = Stopwatch(60.0)
    spec = DisorderSpec("gaussian", 1.0, MASTER_SEED)
    scan = diagnostics.clt_scan([8, 16], 1000, spec)
    details = []
    ok = True
    for L, value, _ in scan:
        pop = diagnostics.clt_population_value(int(L), 2, spec.eta2)
        rel = abs(value - pop) / pop
        details.append(f"L={int(L)}: var = {value:.3f} vs {pop:.3f} "
                       f"(rel {rel:.3f} <= 0.15)")
        ok = ok and rel <= 0.15 and value >= 4.0 * spec.eta2
    report(11, ok, ", ".join(details) + f", min = "
           f"{min(v for _, v, _ in scan):.3f} (>= 4), {watch.elapsed:.1f}s")
    for L, value, _ in scan:
        pop = diagnostics.clt_population_value(int(L), 2, spec.eta2)
        assert abs(value - pop) / pop <= 0.15, f"L={L}"
        assert value >= 4.0 * spec.eta2, f"L={L}"
    watch.check()


def test_criterion_12_boundary_ergodic_averages():
    """Each side's normalized boundary sum averages to zero over the
    disorder, within four standard errors."""
    watch = Stopwatch(120.0)
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry(2, 32)
    A = gaussian.DirichletLaplacian(g, k)
    n = 200
    sides = np.zeros((n, 4))
    for r in range(n):
        eta = sample_disorder(DisorderSpec("gaussian", 1.0, MASTER_SEED, r), g)
        X = gaussian.mean_gradient(A, eta)
        sides[r] = diagnostics.boundary_ergodic_average(X)
    means = sides.mean(axis=0)
    stderrs = sides.std(axis=0, ddof=1) / math.sqrt(n)
    ratios = np.abs(means) / stderrs
    ok = bool(np.all(ratios <= 4.0))
    report(12, ok, "side |mean|/stderr = "
           + ", ".join(f"{r:.2f}" for r in ratios)
           + f" (all <= 4), n = {n}, d=2 L=32, {watch.elapsed:.1f}s")
    assert np.all(ratios <= 4.0)
    watch.check()
