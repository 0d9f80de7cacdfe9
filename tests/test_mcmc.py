import math

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import (conditional_logdensity, edge_value, gaussian_eta,
                      height_at, single_site_quadrature_oracle, zero_field,
                      zero_heights)
from gradlab.diagnostics import divergence_residual
from gradlab.gaussian import DirichletLaplacian, mean_gradient
from gradlab.mcmc import (BLOCK, HEIGHT_CAP, N_BATCHES, SPIKE, TARGET_ACCEPTANCE,
                          Chain, GradientEstimate, SamplerConfig, colour_classes,
                          divergence_check, estimate_gradient_mean)
from gradlab.model import (BoxGeometry, DisorderSpec, HeightField,
                           Kernel, Potential, VectorField, chain_stream, edge_table,
                           energy, kernel_edges, neighbor_index, sample_disorder)

FAST = SamplerConfig(burn_in_sweeps=300, measure_sweeps=4000)


def single_site_setup(eta_value=0.0):
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry.for_kernel(2, 0, k)
    eta = HeightField(g, np.array([eta_value]))
    return g, k, eta


# ---------------------------------------------------------------------------
# conditional density


def test_conditional_logdensity_single_site_is_gaussian(quadratic):
    g, k, eta = single_site_setup(0.7)
    phi = zero_heights(g)
    ref = lambda t: -t * t / 2 + 0.7 * t
    for t in (-2.0, 0.0, 0.5, 3.0):
        got = conditional_logdensity(g, k, quadratic, phi, eta, (0, 0), t)
        base = conditional_logdensity(g, k, quadratic, phi, eta, (0, 0), 0.0)
        assert got - base == pytest.approx(ref(t) - ref(0.0), abs=1e-12)


def test_conditional_logdensity_matches_energy_difference(quartic):
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry.for_kernel(2, 1, k)
    rng = np.random.default_rng(0)
    eta = gaussian_eta(g, seed=1)
    phi_vals = rng.normal(size=g.n_sites)
    site = (0, 1)
    for t_new in (-1.2, 0.3, 2.4):
        phi_old = HeightField(g, phi_vals.copy())
        new_vals = phi_vals.copy()
        new_vals[g.index_of(site)] = t_new
        phi_new = HeightField(g, new_vals)
        dlog = (conditional_logdensity(g, k, quartic, phi_old, eta, site, t_new)
                - conditional_logdensity(g, k, quartic, phi_old, eta, site,
                                         height_at(phi_old, site)))
        dh = energy(g, k, quartic, phi_new, eta) - energy(g, k, quartic, phi_old, eta)
        assert dlog == pytest.approx(-dh, abs=1e-10)


def test_conditional_logdensity_derivative_matches_energy_fd(quartic):
    # two-site chain in d=1
    k = Kernel.nearest_neighbor(1)
    g = BoxGeometry.for_kernel(1, 1, k)
    eta = gaussian_eta(g, seed=2)
    vals = np.array([0.4, -0.2, 1.1])
    phi = HeightField(g, vals)
    site = (0,)
    h = 1e-5
    t0 = height_at(phi, site)
    dlog = (conditional_logdensity(g, k, quartic, phi, eta, site, t0 + h)
            - conditional_logdensity(g, k, quartic, phi, eta, site, t0 - h)) / (2 * h)

    def h_at(t):
        v = vals.copy()
        v[g.index_of(site)] = t
        return energy(g, k, quartic, HeightField(g, v), eta)

    dh = (h_at(t0 + h) - h_at(t0 - h)) / (2 * h)
    assert dlog == pytest.approx(-dh, rel=1e-6)


def test_conditional_logdensity_rejects_exterior_site(quadratic):
    g, k, eta = single_site_setup()
    with pytest.raises(ValueError):
        conditional_logdensity(g, k, quadratic, zero_heights(g), eta, (5, 5), 0.0)


# ---------------------------------------------------------------------------
# sweeps


def test_tiny_proposals_are_all_accepted(quartic):
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry.for_kernel(2, 2, k)
    eta = gaussian_eta(g, seed=3)
    chain = Chain(g, k, quartic, eta, seed=1)
    accepted, _ = chain.run(1e-12, 1)
    assert accepted / g.n_sites == 1.0


def test_sweeps_are_deterministic_given_seed(quartic):
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry.for_kernel(2, 2, k)
    eta = gaussian_eta(g, seed=4)
    runs = []
    for _ in range(2):
        chain = Chain(g, k, quartic, eta, seed=42)
        chain.run(1.5, 20)
        runs.append(chain.ph[chain.slot])
    assert np.array_equal(runs[0], runs[1])
    assert runs[0].any()


def test_proposals_beyond_the_height_cap_are_rejected_and_counted(quadratic):
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry.for_kernel(2, 2, k)
    chain = Chain(g, k, quadratic, gaussian_eta(g, seed=5), seed=5)
    chain.ph[:-1] = HEIGHT_CAP
    chain.run(1.0, 1)
    assert chain.cap_rejects > 0
    assert np.all(chain.ph[chain.slot] <= HEIGHT_CAP)


@pytest.mark.parametrize("name", ["nn", "axis2"])
def test_sweep_energy_change_matches_energy_difference(name, quartic):
    k = Kernel.nearest_neighbor(2) if name == "nn" else Kernel.axis_kernel(2, 2)
    g = BoxGeometry.for_kernel(2, 3, k)
    eta = gaussian_eta(g, seed=9)
    chain = Chain(g, k, quartic, eta)
    rng = np.random.default_rng(10)
    chain.ph[chain.slot[:-1]] = rng.normal(0.0, 1.5, size=g.n_sites)
    before = HeightField(g, chain.ph[chain.slot][:-1])
    e_before = energy(g, k, quartic, before, eta)
    for c, sites in enumerate(colour_classes(g, k)):
        step = rng.normal(0.0, 1.0, size=len(sites))
        # the per-block terms as the sweep forms them; the field's part
        # -eta s, which the sweep folds into its thresholds, added back
        coef = step * step * quartic.b + quartic.a
        dh = chain.pair_change(c, step, 0.5 * step, coef) - eta.values[sites] * step
        for site, s, got in zip(sites, step, dh):
            vals = before.values.copy()
            vals[site] += s
            want = energy(g, k, quartic, HeightField(g, vals), eta) - e_before
            assert got == pytest.approx(want, abs=1e-10)


# ---------------------------------------------------------------------------
# the site-order sweep, kept as the oracle of Chain.run


def bactrian_steps(rng, width, shape):
    """A block's proposals as ``Chain.run`` documents them: normals, then one
    sign bit per entry from ``rng.bytes``, most significant bit first."""
    z = rng.normal(0.0, 1.0, size=shape)
    bits = np.unpackbits(np.frombuffer(rng.bytes((z.size + 7) // 8), dtype=np.uint8))
    sign = np.where(bits[:z.size].reshape(shape) == 1, SPIKE, -SPIKE)
    return width * (sign + math.sqrt(1.0 - SPIKE ** 2) * z)


class SiteOrderChain:
    """The sweep as first written: heights in site order, each class read by
    a fancy gather and written back with np.where, the energy change as
    (q1 - q2)(a/2 + b (q1 + q2)) per edge, and the height cap tested at
    every step.  Same stream, classes and spans of random numbers as
    ``Chain``, so the two agree bit for bit."""

    def __init__(self, g, k, vpot, eta, seed=0, chain=0):
        nbr = neighbor_index(g, k)
        slots = np.where(nbr < 0, g.n_sites, nbr)
        self.classes = []
        lo = 0
        for sites in colour_classes(g, k):
            self.classes.append((sites, slots[:, sites], eta.values[sites],
                                 slice(lo, lo + len(sites))))
            lo += len(sites)
        self.weights = np.array([w for _, w in k.support()])
        self.vpot = vpot
        self.ph = np.zeros(g.n_sites + 1)
        self.rng = chain_stream(seed, chain)
        self.cap_rejects = 0

    def energy_change(self, c, old, new):
        _, slots, eta, _ = self.classes[c]
        step = new - old
        t2 = old - self.ph[slots]
        t1 = t2 + step
        q1 = t1 * t1
        q2 = t2 * t2
        pair = (q1 - q2) * (0.5 * self.vpot.a + self.vpot.b * (q1 + q2))
        return np.dot(self.weights, pair) - eta * step

    def run(self, width, n_sweeps, every=0):
        n = len(self.ph) - 1
        steps = bactrian_steps(self.rng, width, (n_sweeps, n))
        thresholds = self.rng.exponential(size=(n_sweeps, n))
        kept = np.empty((n_sweeps // every if every else 0, n + 1))
        accepted = 0
        for s in range(n_sweeps):
            for c, (sites, _, _, span) in enumerate(self.classes):
                old = self.ph[sites]
                new = old + steps[s, span]
                ok = thresholds[s, span] >= self.energy_change(c, old, new)
                capped = np.abs(new) > HEIGHT_CAP
                n_capped = int(np.count_nonzero(capped))
                if n_capped:
                    ok &= ~capped
                    self.cap_rejects += n_capped
                self.ph[sites] = np.where(ok, new, old)
                accepted += int(np.count_nonzero(ok))
            if every and (s + 1) % every == 0:
                kept[s // every] = self.ph
        return accepted, kept


def assert_chain_matches_oracle(g, k, vpot, blocks, start=0.0, seed=3):
    """Run Chain and SiteOrderChain from the same heights through the same
    (width, n_sweeps, every) blocks; compare every result exactly."""
    eta = gaussian_eta(g, seed=seed)
    chain = Chain(g, k, vpot, eta, seed=seed)
    oracle = SiteOrderChain(g, k, vpot, eta, seed=seed)
    chain.ph[:-1] = oracle.ph[:-1] = start
    for width, n_sweeps, every in blocks:
        accepted, kept = chain.run(width, n_sweeps, every)
        want_accepted, want_kept = oracle.run(width, n_sweeps, every)
        assert accepted == want_accepted
        assert np.array_equal(kept[:, chain.slot], want_kept)
        assert np.array_equal(chain.ph[chain.slot], oracle.ph)
        assert chain.cap_rejects == oracle.cap_rejects
    return chain


ORACLE_BOXES = [
    pytest.param(1, 6, "nn", id="d1-nn"),
    pytest.param(1, 5, "axis2", id="d1-axis2"),
    pytest.param(2, 3, "nn", id="d2-nn"),
    pytest.param(2, 3, "axis2", id="d2-axis2"),
    pytest.param(3, 2, "nn", id="d3-nn"),
    pytest.param(3, 2, "axis2", id="d3-axis2"),
    pytest.param(2, 0, "nn", id="one-site"),
]


@pytest.mark.parametrize("vpot", [Potential.quadratic(1.0), Potential.quartic(1.0, 0.1),
                                  Potential.quartic(-1.0, 0.5)],
                         ids=["quadratic", "quartic", "double-well"])
@pytest.mark.parametrize("d,L,name", ORACLE_BOXES)
def test_chain_matches_site_order_oracle(d, L, name, vpot):
    k = Kernel.nearest_neighbor(d) if name == "nn" else Kernel.axis_kernel(d, 2)
    g = BoxGeometry.for_kernel(d, L, k)
    # burn-in-like blocks of changing width, then thinned measurement blocks
    blocks = [(2.5, 25, 0), (1.2, 25, 0), (0.7, 7, 0), (1.0, 75, 3), (1.0, 24, 1)]
    assert_chain_matches_oracle(g, k, vpot, blocks)


@pytest.mark.parametrize("name", ["nn", "axis2"])
def test_chain_matches_oracle_where_the_cap_bound_trips(name):
    # heights 20 below the cap: over a block the bound max|phi| + sum of the
    # sweeps' largest |s| passes the cap, so every step tests it, but the
    # chain only falls, and no proposal goes past the cap
    k = Kernel.nearest_neighbor(2) if name == "nn" else Kernel.axis_kernel(2, 2)
    g = BoxGeometry.for_kernel(2, 2, k)
    steps = bactrian_steps(chain_stream(3, 0), 1.0, (25, g.n_sites))
    assert HEIGHT_CAP - 20.0 + np.abs(steps).max(axis=1).sum() > HEIGHT_CAP
    chain = assert_chain_matches_oracle(g, k, Potential.quadratic(1.0),
                                        [(1.0, 25, 5), (1.0, 25, 0)],
                                        start=HEIGHT_CAP - 20.0)
    assert chain.cap_rejects == 0
    # heights at the cap: about half the proposals go past it
    chain = assert_chain_matches_oracle(g, k, Potential.quartic(1.0, 0.1),
                                        [(1.0, 25, 5), (1.0, 3, 1)],
                                        start=HEIGHT_CAP)
    assert chain.cap_rejects > 0
    assert np.all(np.abs(chain.ph[chain.slot]) <= HEIGHT_CAP)


def test_block_draw_is_bactrian(quadratic):
    # the steps a block proposes, which Chain.run leaves in Chain.work[0]
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry.for_kernel(2, 8, k)
    chain = Chain(g, k, quadratic, gaussian_eta(g, seed=20), seed=20)
    width, n_sweeps = 1.7, 700
    chain.run(width, n_sweeps)
    steps = chain.work[0, :n_sweeps].ravel() / width
    n = steps.size
    assert abs(steps.mean()) <= 4.0 / math.sqrt(n)
    assert abs(steps.var() - 1.0) <= 0.02
    assert abs(np.count_nonzero(steps > 0) / n - 0.5) <= 2.0 / math.sqrt(n)
    # E|s| of the mixture of N(+-SPIKE, 1 - SPIKE^2), larger than a Gaussian's
    sd = math.sqrt(1.0 - SPIKE ** 2)
    mean_abs = (sd * math.sqrt(2.0 / math.pi) * math.exp(-SPIKE ** 2 / (2.0 * sd * sd))
                + SPIKE * math.erf(SPIKE / (sd * math.sqrt(2.0))))
    assert abs(np.abs(steps).mean() - mean_abs) <= 4.0 * math.sqrt((1.0 - mean_abs ** 2) / n)


@pytest.mark.parametrize("width", [0.5, 3.0])
def test_untuned_single_site_chain_matches_quadrature_oracle(width):
    # no burn-in, so the width stays as given, far from the tuned one
    g, k, eta = single_site_setup(1.0)
    vpot = Potential.quartic(1.0, 0.5)
    cfg = SamplerConfig(proposal_width=width, burn_in_sweeps=0, measure_sweeps=30000)
    est = estimate_gradient_mean(g, k, vpot, eta, cfg, seed=9)
    assert est.proposal_width == width
    oracle = single_site_quadrature_oracle(vpot, 1.0, [w for _, w in k.support()])
    for v, _ in k.support():
        got = edge_value(est.mean, (0, 0), v)
        stderr = abs(edge_value(est.stderr, (0, 0), v))
        assert abs(got - oracle.mean_derivative) <= 4.0 * stderr


def test_single_site_chain_reproduces_gaussian_moments(quadratic):
    g, k, eta = single_site_setup(0.9)
    chain = Chain(g, k, quadratic, eta, seed=7)
    n_sweeps = 100_000
    burn = 1000
    chain.run(2.4, burn)
    _, kept = chain.run(2.4, n_sweeps, every=1)
    samples = kept[:, 0]
    # conditional given zero neighbors is N(0.9, 1); stderr ~ sqrt(2 tau / n)
    stderr = math.sqrt(8.0 / n_sweeps)
    assert abs(samples.mean() - 0.9) <= 4.0 * stderr
    assert abs(samples.var() - 1.0) <= 0.05


def test_stationary_histogram_matches_oracle_density(quartic):
    g, k, eta = single_site_setup(0.8)
    vpot = Potential.quartic(1.0, 0.5)
    chain = Chain(g, k, vpot, eta, seed=11)
    thin = 10
    n_keep = 100_000
    chain.run(2.0, 2000)
    _, kept = chain.run(2.0, n_keep * thin, every=thin)
    samples = kept[:, 0]

    def density(t):
        return math.exp(-float(vpot.value(t)) + 0.8 * t)

    z = quad(density, -8.0, 8.0, limit=200)[0]
    mean = quad(lambda t: t * density(t), -8.0, 8.0, limit=200)[0] / z
    std = math.sqrt(quad(lambda t: (t - mean) ** 2 * density(t), -8.0, 8.0,
                         limit=200)[0] / z)
    edges = np.linspace(mean - 6 * std, mean + 6 * std, 51)
    obs, _ = np.histogram(samples, bins=edges)
    chi2 = 0.0
    dof = 0
    inside = (samples >= edges[0]) & (samples <= edges[-1])
    n_in = int(inside.sum())
    for b in range(50):
        p = quad(density, edges[b], edges[b + 1], limit=100)[0] / z
        expected = n_in * p / (quad(density, edges[0], edges[-1], limit=200)[0] / z)
        if expected >= 5.0:
            chi2 += (obs[b] - expected) ** 2 / expected
            dof += 1
    assert dof >= 15  # bins with expected count >= 5
    assert chi2 / dof < 2.0


def site_order_estimate(g, k, vpot, eta, cfg, seed):
    """estimate_gradient_mean's batch means and n_eff on SiteOrderChain, with
    fresh per-block arrays kept[:, ei] - kept[:, ej] and vpot.derivative."""
    chain = SiteOrderChain(g, k, vpot, eta, seed=seed)
    width = cfg.proposal_width
    for index, done in enumerate(range(0, cfg.burn_in_sweeps, BLOCK)):
        todo = min(BLOCK, cfg.burn_in_sweeps - done)
        accepted, _ = chain.run(width, todo)
        gain = 1.0 / (1.0 + index) ** 0.6
        width *= math.exp(gain * (accepted / (todo * g.n_sites) - TARGET_ACCEPTANCE))
    ei, ej = edge_table(g, k)[0]
    retained = (cfg.measure_sweeps // cfg.thin // N_BATCHES) * N_BATCHES
    batch_size = retained // N_BATCHES
    sums = np.zeros((N_BATCHES, len(ei)))
    total_sq = np.zeros(len(ei))
    for batch in range(N_BATCHES):
        for done in range(0, batch_size, BLOCK):
            keep = min(BLOCK, batch_size - done)
            _, kept = chain.run(width, keep * cfg.thin, every=cfg.thin)
            dv = vpot.derivative(kept[:, ei] - kept[:, ej])
            sums[batch] += dv.sum(axis=0)
            total_sq += (dv * dv).sum(axis=0)
    batch_means = sums / batch_size
    means = batch_means.mean(axis=0)
    stderr = np.sqrt(batch_means.var(axis=0, ddof=1) / N_BATCHES)
    with np.errstate(divide="ignore", invalid="ignore"):
        n_eff = (total_sq / retained - means ** 2) / stderr ** 2
    return batch_means, n_eff, width, chain.cap_rejects


@pytest.mark.parametrize("d,L,name,vpot,thin", [
    pytest.param(2, 3, "nn", Potential.quartic(1.0, 0.1), 3, id="d2-nn-quartic-thin3"),
    pytest.param(2, 2, "axis2", Potential.quadratic(1.0), 1, id="d2-axis2-quadratic"),
    pytest.param(1, 4, "axis2", Potential.quartic(-1.0, 0.5), 2, id="d1-axis2-double-well"),
    pytest.param(2, 0, "nn", Potential.quartic(1.0, 0.5), 1, id="one-site"),
])
def test_estimates_match_site_order_oracle(d, L, name, vpot, thin):
    k = Kernel.nearest_neighbor(d) if name == "nn" else Kernel.axis_kernel(d, 2)
    g = BoxGeometry.for_kernel(d, L, k)
    eta = gaussian_eta(g, seed=17)
    cfg = SamplerConfig(burn_in_sweeps=130, measure_sweeps=1800, thin=thin)
    est = estimate_gradient_mean(g, k, vpot, eta, cfg, seed=8)
    batch_means, n_eff, width, cap_rejects = site_order_estimate(g, k, vpot, eta, cfg, 8)
    assert np.array_equal(est.batch_means.values, batch_means)
    # every n_eff inside its clip [1, retained] is the unclipped ratio
    inside = (n_eff > 1.0) & (n_eff < est.retained)
    assert inside.any()
    assert np.array_equal(est.n_eff.values[inside], n_eff[inside])
    assert est.proposal_width == width and est.cap_rejects == cap_rejects


# ---------------------------------------------------------------------------
# gradient-mean estimation


def test_zero_disorder_estimates_vanish(quartic):
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry.for_kernel(2, 2, k)
    eta = HeightField(g, np.zeros(g.n_sites))
    est = estimate_gradient_mean(g, k, quartic, eta, FAST, seed=5)
    for e in kernel_edges(g, k):
        assert abs(edge_value(est.mean, *e)) <= 4.0 * edge_value(est.stderr, *e) + 1e-12
        assert edge_value(est.n_eff, *e) <= est.retained


def test_estimates_are_exactly_antisymmetric(quartic):
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry.for_kernel(2, 1, k)
    eta = gaussian_eta(g, seed=6)
    est = estimate_gradient_mean(g, k, quartic, eta, FAST, seed=6)
    for i, j in kernel_edges(g, k):
        assert edge_value(est.mean, j, i) == -edge_value(est.mean, i, j)


def test_single_site_estimate_matches_quadrature_oracle():
    g, k, eta = single_site_setup(1.0)
    vpot = Potential.quartic(1.0, 0.5)
    cfg = SamplerConfig(burn_in_sweeps=2000, measure_sweeps=60000)
    est = estimate_gradient_mean(g, k, vpot, eta, cfg, seed=8)
    oracle = single_site_quadrature_oracle(vpot, 1.0, [w for _, w in k.support()])
    for v, _ in k.support():
        j = (v[0], v[1])
        got = edge_value(est.mean, (0, 0), j)  # oriented from the interior site out
        stderr = abs(edge_value(est.stderr, (0, 0), j))  # a magnitude, either orientation
        assert abs(got - oracle.mean_derivative) <= 3.0 * stderr


def test_gaussian_cross_validation_multiple_realizations(quadratic):
    # quadratic model: every edge estimate should sit near the exact solver
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry.for_kernel(2, 8, k)
    A = DirichletLaplacian(g, k)
    edges = kernel_edges(g, k)
    cfg = SamplerConfig(burn_in_sweeps=2000, measure_sweeps=20000)
    total = 0
    covered = 0
    for realization in range(5):
        eta = sample_disorder(DisorderSpec("gaussian", 1.0, 3, realization), g)
        X = mean_gradient(A, eta)
        est = estimate_gradient_mean(g, k, quadratic, eta, cfg,
                                     seed=3, chain=realization)
        assert est.cap_rejects == 0
        for e in edges:
            total += 1
            error = edge_value(est.mean, *e) - edge_value(X, *e)
            if abs(error) <= 3.0 * edge_value(est.stderr, *e):
                covered += 1
    assert covered / total >= 0.95


def test_divergence_check_within_propagated_errors(quartic):
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry.for_kernel(2, 3, k)
    eta = gaussian_eta(g, seed=12)
    cfg = SamplerConfig(burn_in_sweeps=1000, measure_sweeps=12000)
    est = estimate_gradient_mean(g, k, quartic, eta, cfg, seed=12)
    resid, se = divergence_check(est, eta)
    ratio = np.abs(resid) / se
    assert (ratio <= 4.0).mean() >= 0.95


def test_divergence_check_of_exact_batches_is_the_exact_residual():
    # every batch is the exact Gaussian field: the residuals are its own,
    # and the batches carry no spread
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry.for_kernel(2, 3, k)
    eta = gaussian_eta(g, seed=14)
    X = mean_gradient(DirichletLaplacian(g, k), eta)
    zero = zero_field(g, k)
    batches = VectorField(g, k, np.stack([X.values] * N_BATCHES))
    est = GradientEstimate(X, zero, zero, batches,
                           acceptance_rate=1.0, proposal_width=1.0,
                           cap_rejects=0, retained=N_BATCHES)
    resid, se = divergence_check(est, eta)
    exact, _ = divergence_residual(X, eta)
    assert np.max(np.abs(resid - exact)) <= 1e-13
    assert np.max(se) <= 1e-13


def test_autotune_reaches_target_window():
    cases = [
        (1, 6, Potential.quadratic(1.0)),
        (2, 3, Potential.quartic(1.0, 0.1)),
        (2, 2, Potential.quartic(-1.0, 0.5)),
    ]
    for d, L, vpot in cases:
        k = Kernel.nearest_neighbor(d)
        g = BoxGeometry.for_kernel(d, L, k)
        eta = sample_disorder(DisorderSpec("gaussian", 1.0, 13), g)
        cfg = SamplerConfig(proposal_width=8.0, burn_in_sweeps=1500,
                            measure_sweeps=3000)
        est = estimate_gradient_mean(g, k, vpot, eta, cfg)
        assert 0.3 <= est.acceptance_rate <= 0.6, (d, L, vpot, est.acceptance_rate)


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(measure_sweeps=500, thin=10)
    for width in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            SamplerConfig(proposal_width=width)


# ---------------------------------------------------------------------------
# single-site oracle


def test_oracle_quadratic_field_recovery():
    oracle = single_site_quadrature_oracle(Potential.quadratic(1.0), 0.7,
                                           [0.25] * 4)
    assert oracle.mean_height == pytest.approx(0.7, abs=1e-10)
    assert oracle.flux == pytest.approx(0.7, abs=1e-10)
    assert abs(oracle.residual) <= 1e-10


def test_oracle_zero_field_is_symmetric():
    for vpot in (Potential.quadratic(2.0), Potential.quartic(1.0, 0.5)):
        oracle = single_site_quadrature_oracle(vpot, 0.0, [0.25] * 4)
        assert abs(oracle.mean_height) <= 1e-10
        assert abs(oracle.mean_derivative) <= 1e-10


def test_oracle_partial_integration_identity_quartic():
    oracle = single_site_quadrature_oracle(Potential.quartic(1.0, 0.5), 1.0,
                                           [0.25] * 4)
    assert abs(oracle.flux - 1.0) <= 1e-8


def test_oracle_double_well_and_unequal_weights():
    oracle = single_site_quadrature_oracle(Potential.quartic(-2.0, 0.25), 0.4,
                                           [0.5, 0.3, 0.2])
    assert abs(oracle.residual) <= 1e-8
