import hashlib
import math

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import (conditional_logdensity, edge_value, gaussian_eta,
                      height_at, oracle_energy, run_sweeps,
                      single_site_quadrature_oracle, site_of, zero_field,
                      zero_heights)
from gradlab.diagnostics import divergence_residual
from gradlab.gaussian import DirichletLaplacian, mean_gradient
from gradlab import mcmc
from gradlab.mcmc import (BLOCK, HEIGHT_CAP, N_BATCHES, OVERRELAX, START_WIDTH,
                          Chain, GradientEstimate, colour_classes,
                          divergence_check, estimate_gradient_mean, measure,
                          tune)
from gradlab.model import (BoxGeometry, DisorderSpec, Kernel, Potential,
                           STREAM_CHAIN, VectorField, edge_table, gradient_of,
                           kernel_edges, neighbor_index, sample_disorder, site_flux,
                           stream)

#: burn-in and measurement sweeps
FAST = (300, 4000)


def with_overrelaxation(names, cases):
    """Each case as given at alpha = 0, then again at OVERRELAX, its id
    suffixed "-overrelaxed"; `cases` maps ids to argument tuples."""
    return pytest.mark.parametrize(names + ",alpha", [
        pytest.param(*args, alpha, id=case + suffix)
        for alpha, suffix in ((0.0, ""), (OVERRELAX, "-overrelaxed"))
        for case, args in cases.items()])


def single_site_setup(eta_value=0.0):
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry(2, 0)
    eta = np.array([eta_value])
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


@pytest.mark.parametrize("name", ["nn", "axis2"])
def test_conditional_logdensity_matches_energy_difference(name, quartic):
    k = Kernel.nearest_neighbor(2) if name == "nn" else Kernel.axis_kernel(2, 2)
    g = BoxGeometry(2, 1)
    rng = np.random.default_rng(0)
    eta = gaussian_eta(g, seed=1)
    phi_vals = rng.normal(size=g.n_sites)
    site = (0, 1)
    for t_new in (-1.2, 0.3, 2.4):
        phi_old = phi_vals.copy()
        phi_new = phi_vals.copy()
        phi_new[g.index_of(site)] = t_new
        dlog = (conditional_logdensity(g, k, quartic, phi_old, eta, site, t_new)
                - conditional_logdensity(g, k, quartic, phi_old, eta, site,
                                         height_at(g, phi_old, site)))
        dh = (oracle_energy(g, k, quartic, phi_new, eta)
              - oracle_energy(g, k, quartic, phi_old, eta))
        assert dlog == pytest.approx(-dh, abs=1e-10)


def test_conditional_logdensity_derivative_matches_energy_fd(quartic):
    # two-site chain in d=1
    k = Kernel.nearest_neighbor(1)
    g = BoxGeometry(1, 1)
    eta = gaussian_eta(g, seed=2)
    phi = np.array([0.4, -0.2, 1.1])
    site = (0,)
    h = 1e-5
    t0 = height_at(g, phi, site)
    dlog = (conditional_logdensity(g, k, quartic, phi, eta, site, t0 + h)
            - conditional_logdensity(g, k, quartic, phi, eta, site, t0 - h)) / (2 * h)

    def h_at(t):
        v = phi.copy()
        v[g.index_of(site)] = t
        return oracle_energy(g, k, quartic, v, eta)

    dh = (h_at(t0 + h) - h_at(t0 - h)) / (2 * h)
    assert dlog == pytest.approx(-dh, rel=1e-6)


def test_conditional_logdensity_rejects_exterior_site(quadratic):
    g, k, eta = single_site_setup()
    with pytest.raises(ValueError):
        conditional_logdensity(g, k, quadratic, zero_heights(g), eta, (5, 5), 0.0)


# ---------------------------------------------------------------------------
# sweeps


@pytest.mark.parametrize("name", ["nn", "axis2"])
@with_overrelaxation("a", {"1.0": (1.0,), "4.0": (4.0,)})
def test_quadratic_proposals_are_all_accepted(name, a, alpha):
    # width 1/sqrt(a) makes the harmonic stand-in exact: heat bath, or its
    # over-relaxed reflection
    k = Kernel.nearest_neighbor(2) if name == "nn" else Kernel.axis_kernel(2, 2)
    g = BoxGeometry(2, 3)
    chain = Chain(g, k, Potential(a), gaussian_eta(g, seed=3), seed=1)
    accepted, _ = run_sweeps(chain, 1.0 / math.sqrt(a), 60, alpha)
    assert accepted == 60 * g.n_sites


def test_sweeps_are_deterministic_given_seed(quartic):
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry(2, 2)
    eta = gaussian_eta(g, seed=4)
    runs = []
    for _ in range(2):
        chain = Chain(g, k, quartic, eta, seed=42)
        chain.run(1.5, 20)
        runs.append(chain.ph[chain.slot])
    assert np.array_equal(runs[0], runs[1])
    assert runs[0].any()


def test_a_block_longer_than_block_is_rejected_before_any_draw(quartic):
    # the block buffers hold BLOCK sweeps: a longer block raises, and the
    # next block sees the draws a fresh chain sees
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry(2, 2)
    eta = gaussian_eta(g, seed=4)
    chain, fresh = Chain(g, k, quartic, eta, seed=42), Chain(g, k, quartic, eta, seed=42)
    with pytest.raises(ValueError, match="BLOCK"):
        chain.run(1.5, BLOCK + 1)
    accepted, kept = chain.run(1.5, BLOCK)
    want_accepted, want_kept = fresh.run(1.5, BLOCK)
    assert accepted == want_accepted and np.array_equal(kept, want_kept)
    assert np.array_equal(chain.ph, fresh.ph)


@pytest.mark.parametrize("batch_size", [0, -1])
def test_a_batch_of_no_sweeps_is_rejected_before_any_draw(quartic, batch_size):
    # no sweep would make every mean 0 / 0: measure raises, and the next
    # block sees the draws a fresh chain sees
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry(2, 1)
    eta = gaussian_eta(g, seed=4)
    chain, fresh = Chain(g, k, quartic, eta, seed=42), Chain(g, k, quartic, eta, seed=42)
    with pytest.raises(ValueError, match="batch_size"):
        measure(chain, 1.5, batch_size, OVERRELAX, 1, lambda kept: kept[:1])
    accepted, kept = chain.run(1.5, BLOCK)
    want_accepted, want_kept = fresh.run(1.5, BLOCK)
    assert accepted == want_accepted and np.array_equal(kept, want_kept)
    assert np.array_equal(chain.ph, fresh.ph)


def test_proposals_beyond_the_height_cap_are_rejected_and_counted(quadratic):
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry(2, 2)
    chain = Chain(g, k, quadratic, gaussian_eta(g, seed=5), seed=5)
    chain.ph[:-1] = HEIGHT_CAP
    chain.run(1.0, 1)
    assert chain.cap_rejects > 0
    assert np.all(chain.ph[chain.slot] <= HEIGHT_CAP)


def neighbour_mean(g, k, values):
    """sum_j p(j - i) phi_j at every site i, zero outside the box, for the
    heights in site order along the last axis of `values`."""
    padded = np.concatenate([values, np.zeros(values.shape[:-1] + (1,))], axis=-1)
    return sum(w * padded[..., row] for w, row in zip(k.weights, neighbor_index(g, k)))


@with_overrelaxation("name", {"nn": ("nn",), "axis2": ("axis2",)})
def test_sweep_energy_change_matches_energy_difference(name, alpha, quartic):
    # E(h') - E(h) is the energy change plus the proposal's log-ratio
    # log q(h') - log q(h), q the density of N(m + eta w^2, w^2), whatever
    # alpha; a one-site energy change is minus that of the site's
    # conditional log density.  One sweep leaves each class's last step in
    # its buffers; a class step sees the earlier classes' new heights.
    k = Kernel.nearest_neighbor(2) if name == "nn" else Kernel.axis_kernel(2, 2)
    g = BoxGeometry(2, 3)
    eta = gaussian_eta(g, seed=9)
    chain = Chain(g, k, quartic, eta)
    start = np.random.default_rng(10).normal(0.0, 1.5, size=g.n_sites)
    for width in (0.6, 1.7):
        chain.ph[chain.slot[:-1]] = start
        chain.run(width, 1, alpha=alpha)
        after, offsets = chain.ph[chain.slot][:-1], chain.work[0, 0]
        seen = start.copy()
        for cls, sites in zip(chain.classes, colour_classes(g, k)):
            before = seen.copy()
            mean = neighbour_mean(g, k, before)
            new, got = cls.new, cls.change
            centre = (1.0 - alpha) * mean[sites] + alpha * before[sites]
            assert new == pytest.approx(centre + offsets[cls.span], abs=1e-12)
            centre = mean[sites] + eta[sites] * width ** 2
            log_q = lambda x: -(x - centre) ** 2 / (2.0 * width ** 2)
            log_ratio = log_q(new) - log_q(before[sites])
            for site, h, change, want_q in zip(sites, new, got, log_ratio):
                i = site_of(g, site)
                dh = (conditional_logdensity(g, k, quartic, before, eta, i, before[site])
                      - conditional_logdensity(g, k, quartic, before, eta, i, h))
                assert change == pytest.approx(dh + want_q, abs=1e-10)
            seen[sites] = after[sites]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("name", ["nn", "axis2"])
def test_difference_product_is_exact_subtraction(d, name):
    # a class step forms h' - phi_j and h - phi_j as one product with a
    # matrix of 0 and +-1: two nonzero terms per entry, so it is rounded
    # once whatever order BLAS sums in.  Only the sign of a zero can differ
    # (-0 - +0 is -0, the product's extra 0 * phi terms give +0), and the
    # step only squares it
    k = Kernel.nearest_neighbor(d) if name == "nn" else Kernel.axis_kernel(d, 2)
    g = BoxGeometry(d, 1)
    chain = Chain(g, k, Potential(1.0, 0.1), zero_heights(g))
    n_nbrs = len(chain.slots)
    values = np.array([0.0, -0.0, HEIGHT_CAP, -HEIGHT_CAP, np.nextafter(HEIGHT_CAP, 0.0),
                       5e-324, -5e-324, 1e-310, -3e-309, 2.2250738585072014e-308,
                       1e-300, 1.0, -1.0, 0.1, -0.3, math.pi, -math.e * 1e5])
    # every ordered triple (h', h, phi_0), the other neighbours drawn from values
    triples = np.array(np.meshgrid(values, values, values, indexing="ij")).reshape(3, -1)
    rng = np.random.default_rng(1)
    gathered = rng.choice(values, size=(n_nbrs + 2, triples.shape[1]))
    gathered[-1], gathered[-2], gathered[0] = triples
    got = np.empty((2 * n_nbrs, triples.shape[1]))
    chain.differences.dot(gathered, got)
    want = np.vstack([gathered[-1] - gathered[:-2], gathered[-2] - gathered[:-2]])
    assert np.array_equal(got, want)
    nonzero = want != 0.0
    assert np.array_equal(got[nonzero].view(np.int64), want[nonzero].view(np.int64))
    assert np.array_equal((got * got).view(np.int64), (want * want).view(np.int64))


#: SHA-256 of every class step's E(h') - E(h) over 40 one-sweep runs of
#: test_every_step_energy_change_is_unchanged, recorded before the step loop's
#: calls were rebound; keyed by (kernel, alpha)
CHANGE_DIGESTS = {
    ("nn", 0.0):
        "cc326f33791da99dd53e0c335e1c61afa901fa86294c0e994b0950047f642826",
    ("axis2", 0.0):
        "06af01551255b72373a4a7c86162bea692b544598e73e45c8cc32ecebc0b91c4",
    ("nn", OVERRELAX):
        "34e5d7bb3cdf026a4ae0d2ed55c5436fbbba9697ac7ec932a957be2970adea16",
    ("axis2", OVERRELAX):
        "42675f081c6ab196b92f5fd205ee6521170a5de246ae90725530bc7e37cb8dbe",
}


@with_overrelaxation("name,L", {"d2-nn": ("nn", 3), "d2-axis2": ("axis2", 2)})
def test_every_step_energy_change_is_unchanged(name, L, alpha, quartic):
    # the oracle comparisons see the energy arithmetic only through accept
    # decisions, which an error of an ulp in E(h) rarely flips; one sweep per
    # run leaves every class step's energy changes in its change buffer
    k = Kernel.nearest_neighbor(2) if name == "nn" else Kernel.axis_kernel(2, 2)
    g = BoxGeometry(2, L)
    chain = Chain(g, k, quartic, gaussian_eta(g, seed=22), seed=22)
    digest = hashlib.sha256()
    for _ in range(40):
        chain.run(1.3, 1, alpha=alpha)
        for cls in chain.classes:
            digest.update(cls.change.tobytes())
    assert digest.hexdigest() == CHANGE_DIGESTS[name, alpha]


# ---------------------------------------------------------------------------
# the site-order sweep, kept as the oracle of Chain.run


def block_draws(rng, width, eta, shape, alpha=0.0):
    """A block's draws as ``Chain.run`` documents them: normals, then the
    Exp(1) thresholds; the offsets are sqrt(1 - alpha^2) width z + (1 -
    alpha) eta width^2, eta in the columns' (class) order."""
    z = rng.normal(0.0, 1.0, size=shape)
    thresholds = rng.exponential(size=shape)
    return (z * (math.sqrt(1.0 - alpha * alpha) * width)
            + eta * ((1.0 - alpha) * width * width)), thresholds


class SiteOrderChain:
    """The sweep as first written: heights in site order, each class read by
    a fancy gather and written back with np.where, E(h') and E(h) evaluated
    one after the other, and the height cap tested at every step.  Same
    stream, classes and spans of random numbers and the same stencil dot
    for (1 - alpha) m + alpha h as ``Chain``, so the two agree bit for bit."""

    def __init__(self, g, k, vpot, eta, seed=0, chain=0):
        nbr = neighbor_index(g, k)
        slots = np.where(nbr < 0, g.n_sites, nbr)
        stencil_slots = np.vstack([slots, np.arange(g.n_sites)])
        self.classes = []
        lo = 0
        for sites in colour_classes(g, k):
            # the neighbours, then the site itself; C order, so that the
            # stencil dot adds each site's column in the order of the chain's
            # gathered buffer
            self.classes.append((sites, np.ascontiguousarray(stencil_slots[:, sites]),
                                 slice(lo, lo + len(sites))))
            lo += len(sites)
        self.eta = np.concatenate([eta[sites] for sites, _, _ in self.classes])
        self.weights = np.array(k.weights)
        self.vpot = vpot
        self.ph = np.zeros(g.n_sites + 1)
        self.rng = stream(seed, STREAM_CHAIN, chain)
        self.cap_rejects = 0

    def conditional_energy(self, nbrs, x, width):
        """sum_j p_j [(a - 1/width^2)/2 (x - phi_j)^2 + b (x - phi_j)^4]."""
        t2 = (x - nbrs) ** 2
        stiffness = self.vpot.a - 1.0 / (width * width)
        return np.dot(self.weights, 0.5 * stiffness * t2 + self.vpot.b * t2 * t2)

    def run(self, width, n_sweeps, alpha=0.0):
        n = len(self.ph) - 1
        offsets, thresholds = block_draws(self.rng, width, self.eta, (n_sweeps, n), alpha)
        stencil = np.append((1.0 - alpha) * self.weights, alpha)
        kept = np.empty((n_sweeps, n + 1))
        accepted = 0
        for s in range(n_sweeps):
            for sites, slots, span in self.classes:
                nbrs = self.ph[slots]
                old = self.ph[sites]
                new = np.dot(stencil, nbrs) + offsets[s, span]
                nbrs = nbrs[:-1]
                change = (self.conditional_energy(nbrs, new, width)
                          - self.conditional_energy(nbrs, old, width))
                ok = thresholds[s, span] >= change
                capped = np.abs(new) > HEIGHT_CAP
                n_capped = int(np.count_nonzero(capped))
                if n_capped:
                    ok &= ~capped
                    self.cap_rejects += n_capped
                self.ph[sites] = np.where(ok, new, old)
                accepted += int(np.count_nonzero(ok))
            kept[s] = self.ph
        return accepted, kept


def assert_chain_matches_oracle(g, k, vpot, blocks, start=0.0, seed=3):
    """Run Chain and SiteOrderChain from the same heights through the same
    (width, n_sweeps, alpha) blocks; compare every result exactly."""
    eta = gaussian_eta(g, seed=seed)
    chain = Chain(g, k, vpot, eta, seed=seed)
    oracle = SiteOrderChain(g, k, vpot, eta, seed=seed)
    chain.ph[:-1] = oracle.ph[:-1] = start
    for block in blocks:
        accepted, kept = chain.run(*block)
        want_accepted, want_kept = oracle.run(*block)
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
    pytest.param(2, 8, "nn", id="d2-nn-L8"),
]


@with_overrelaxation("vpot", {"quadratic": (Potential(1.0),),
                              "quartic": (Potential(1.0, 0.1),),
                              "double-well": (Potential(-1.0, 0.5),)})
@pytest.mark.parametrize("d,L,name", ORACLE_BOXES)
def test_chain_matches_site_order_oracle(d, L, name, vpot, alpha):
    k = Kernel.nearest_neighbor(d) if name == "nn" else Kernel.axis_kernel(d, 2)
    g = BoxGeometry(d, L)
    # burn-in-like blocks of changing width, then measurement blocks
    blocks = [(2.5, 25, 0.0), (1.2, 25, 0.0), (0.7, 7, 0.0),
              *[(1.0, 25, alpha)] * 3, (1.0, 24, alpha)]
    assert_chain_matches_oracle(g, k, vpot, blocks)


@with_overrelaxation("name", {"nn": ("nn",), "axis2": ("axis2",)})
def test_chain_matches_oracle_where_the_cap_bound_trips(name, alpha):
    # heights 20 below the cap: over a block max|phi| + the sum of each class
    # step's largest |offset| passes the cap, the bound of a convex
    # combination; without reflection the chain only falls, and no proposal
    # goes past the cap
    k = Kernel.nearest_neighbor(2) if name == "nn" else Kernel.axis_kernel(2, 2)
    g = BoxGeometry(2, 2)
    eta = np.concatenate([gaussian_eta(g, seed=3)[sites]
                          for sites in colour_classes(g, k)])
    offsets, _ = block_draws(stream(3, STREAM_CHAIN, 0), 1.0, eta, (25, g.n_sites))
    # each sweep's largest |offset| is at most the sum of its classes'
    assert HEIGHT_CAP - 20.0 + np.abs(offsets).max(axis=1).sum() > HEIGHT_CAP
    chain = assert_chain_matches_oracle(g, k, Potential(1.0),
                                        [(1.0, 25, alpha), (1.0, 25, alpha)],
                                        start=HEIGHT_CAP - 20.0)
    # a reflection about the mean of fallen neighbours' heights overshoots
    # past the cap, and its block runs again testing every step
    assert (chain.cap_rejects > 0) == (alpha != 0.0)
    # heights at the cap: in the first class step, about half the proposals
    # of the sites with no neighbour outside the box go past it
    g = BoxGeometry(2, 4)
    chain = assert_chain_matches_oracle(g, k, Potential(1.0, 0.1),
                                        [(1.0, 25, alpha), (1.0, 3, alpha)],
                                        start=HEIGHT_CAP)
    assert chain.cap_rejects > 0
    assert np.all(np.abs(chain.ph[chain.slot]) <= HEIGHT_CAP)


@pytest.mark.parametrize("start", [1e300, math.inf], ids=["overflow", "infinite"])
def test_chain_matches_oracle_where_proposals_are_not_finite(start):
    # from 1e300 the reflected proposals pass the cap and their squares
    # overflow, so E(h') - E(h) is NaN; from inf they are NaN themselves:
    # either runs the block again, and no height moves
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry(2, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        chain = assert_chain_matches_oracle(g, k, Potential(1.0, 0.1),
                                            [(1.0, 25, OVERRELAX), (1.0, 3, OVERRELAX)],
                                            start=start)
    assert (chain.cap_rejects > 0) == (start < math.inf)
    assert np.all(chain.ph[:-1] == start)


def assert_block_draw(quartic, alpha):
    """The offsets a block draws, which Chain.run leaves in Chain.work[0]:
    h' = (1 - alpha) m + alpha h + offset = mu + alpha (h - mu) + N(0, (1 -
    alpha^2) w^2), mu = m + eta w^2."""
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry(2, 8)
    eta = gaussian_eta(g, seed=20)
    chain = Chain(g, k, quartic, eta, seed=20)
    width, n_sweeps = 1.7, 700
    blocks = []
    for _ in range(n_sweeps // BLOCK):
        chain.run(width, BLOCK, alpha=alpha)
        blocks.append(chain.work[0].copy())
    offsets = np.concatenate(blocks)
    scale = math.sqrt(1.0 - alpha ** 2) * width
    z = (offsets - (1.0 - alpha) * chain.eta * width ** 2).ravel() / scale
    assert abs(z.mean()) <= 4.0 / math.sqrt(z.size)
    assert abs(z.var() - 1.0) <= 0.02
    # the mean offset of each site against its eta has slope (1 - alpha) w^2
    site_means = offsets.mean(axis=0)
    slope = np.dot(site_means, chain.eta) / np.dot(chain.eta, chain.eta)
    slope_se = scale / math.sqrt(n_sweeps * np.dot(chain.eta, chain.eta))
    assert abs(slope - (1.0 - alpha) * width ** 2) <= 4.0 * slope_se
    # and the centre is (1 - alpha) m + alpha h, m the neighbours' mean
    heights = chain.ph[chain.slot][:-1]
    sites = colour_classes(g, k)[0]
    centre = (1.0 - alpha) * neighbour_mean(g, k, heights)[sites] + alpha * heights[sites]
    chain.run(width, 1, alpha=alpha)
    first = chain.classes[0]
    assert first.new - chain.work[0, 0, first.span] == pytest.approx(centre, abs=1e-12)


def test_block_draw_is_the_harmonic_conditional(quartic):
    assert_block_draw(quartic, 0.0)


def test_overrelaxed_block_draw_reflects_about_the_harmonic_conditional(quartic):
    assert_block_draw(quartic, OVERRELAX)


@pytest.mark.parametrize("width", [0.5, 3.0])
def test_untuned_single_site_chain_matches_quadrature_oracle(width, monkeypatch):
    # no burn-in, so the width stays the starting one, far from the tuned one
    monkeypatch.setattr(mcmc, "START_WIDTH", width)
    g, k, eta = single_site_setup(1.0)
    vpot = Potential(1.0, 0.5)
    est = estimate_gradient_mean(g, k, vpot, eta, 0, 30000, seed=9)
    # without burn-in neither the width is tuned nor the proposals reflected
    assert est.proposal_width == width and est.overrelaxation == 0.0
    oracle = single_site_quadrature_oracle(vpot, 1.0, k.weights)
    for v in k.offsets:
        got = edge_value(est.mean, (0, 0), v)
        stderr = abs(edge_value(est.stderr, (0, 0), v))
        assert abs(got - oracle.mean_derivative) <= 4.0 * stderr


def test_single_site_chain_reproduces_gaussian_moments(quadratic):
    g, k, eta = single_site_setup(0.9)
    chain = Chain(g, k, quadratic, eta, seed=7)
    n_sweeps = 100_000
    burn = 1000
    run_sweeps(chain, 2.4, burn)
    _, kept = run_sweeps(chain, 2.4, n_sweeps)
    samples = kept[:, 0]
    # conditional given zero neighbors is N(0.9, 1); stderr ~ sqrt(2 tau / n)
    stderr = math.sqrt(8.0 / n_sweeps)
    assert abs(samples.mean() - 0.9) <= 4.0 * stderr
    assert abs(samples.var() - 1.0) <= 0.05


@pytest.mark.parametrize("a", [1.0, 4.0])
def test_overrelaxed_single_site_heights_are_ar1_with_coefficient_alpha(a):
    # quadratic V at w = 1/sqrt(a): every move is accepted, so the heights are
    # the AR(1) process h' = mu + alpha (h - mu) + sqrt(1 - alpha^2) w z, whose
    # lag-1 autocorrelation is alpha exactly (0 for heat bath); its estimate
    # over n samples has stderr about sqrt((1 - alpha^2) / n)
    g, k, eta = single_site_setup(0.9)
    chain = Chain(g, k, Potential(a), eta, seed=21)
    width, n_sweeps = 1.0 / math.sqrt(a), 20_000
    run_sweeps(chain, width, 200, OVERRELAX)
    accepted, kept = run_sweeps(chain, width, n_sweeps, OVERRELAX)
    assert accepted == n_sweeps
    h = kept[:, 0] - kept[:, 0].mean()
    lag1 = np.dot(h[:-1], h[1:]) / np.dot(h, h)
    assert abs(lag1 - OVERRELAX) <= 4.0 * math.sqrt((1.0 - OVERRELAX ** 2) / n_sweeps)


def test_stationary_histogram_matches_oracle_density(quartic):
    g, k, eta = single_site_setup(0.8)
    vpot = Potential(1.0, 0.5)
    chain = Chain(g, k, vpot, eta, seed=11)
    thin = 10
    n_keep = 100_000
    run_sweeps(chain, 2.0, 2000)
    _, kept = run_sweeps(chain, 2.0, n_keep * thin)
    samples = kept[thin - 1::thin, 0]

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


def site_order_estimate(g, k, vpot, eta, burn_in_sweeps, measure_sweeps, seed, alpha):
    """estimate_gradient_mean's batch means and n_eff on SiteOrderChain,
    from the per-block arrays vpot.derivative(kept[:, ei] - kept[:, ej]);
    measurement over-relaxes with alpha after a burn-in."""
    chain = SiteOrderChain(g, k, vpot, eta, seed=seed)
    width = mcmc.START_WIDTH
    if vpot.b == 0.0 and burn_in_sweeps:
        width = 1.0 / math.sqrt(vpot.a)
    # the linear-response width over the later half of the blocks run, its
    # sums formed in class order as the chain forms them: each sweep's
    # neighbour heights one row per site, and one product with the weights
    order = np.concatenate([sites for sites, _, _ in chain.classes])
    nbrs = neighbor_index(g, k)[:, order].T
    moments = []
    for done in range(0, burn_in_sweeps, BLOCK):
        _, kept = chain.run(width, min(BLOCK, burn_in_sweeps - done))
        if vpot.b:
            heights = kept[:, order]
            gathered = np.ascontiguousarray(kept[:, nbrs]).reshape(-1, len(chain.weights))
            r = heights - gathered.dot(chain.weights).reshape(heights.shape)
            moments.append((np.vdot(r, r), np.dot(r, chain.eta).sum(), r.size))
            sq, cross, count = np.sum(moments[len(moments) // 2:], axis=0)
            if count + cross > 0.0 and 0.0 < sq / (count + cross) < math.inf:
                width = math.sqrt(sq / (count + cross))
    alpha = alpha if burn_in_sweeps else 0.0
    ei, ej = edge_table(g, k)[0]
    retained = measure_sweeps // N_BATCHES * N_BATCHES
    batch_size = retained // N_BATCHES
    sums = np.zeros((N_BATCHES, len(ei)))
    total_sq = np.zeros(len(ei))
    for batch in range(N_BATCHES):
        for done in range(0, batch_size, BLOCK):
            keep = min(BLOCK, batch_size - done)
            _, kept = chain.run(width, keep, alpha)
            dv = vpot.derivative(kept[:, ei] - kept[:, ej])
            sums[batch] += dv.sum(axis=0)
            total_sq += (dv * dv).sum(axis=0)
    batch_means = sums / batch_size
    means = batch_means.mean(axis=0)
    stderr = np.sqrt(batch_means.var(axis=0, ddof=1) / N_BATCHES)
    with np.errstate(divide="ignore", invalid="ignore"):
        n_eff = (total_sq / retained - means ** 2) / stderr ** 2
    return batch_means, n_eff, width, chain.cap_rejects, alpha


@with_overrelaxation("d,L,name,vpot,burn_in", {
    "d2-nn-quartic": (2, 3, "nn", Potential(1.0, 0.1), 130),
    "d2-axis2-quartic": (2, 3, "axis2", Potential(1.0, 0.1), 130),
    "d3-nn-quartic": (3, 2, "nn", Potential(1.0, 0.1), 130),
    "d2-axis2-quadratic": (2, 2, "axis2", Potential(1.0), 130),
    "d1-axis2-double-well": (1, 4, "axis2", Potential(-1.0, 0.5), 130),
    "one-site": (2, 0, "nn", Potential(1.0, 0.5), 130),
    "d2-nn-no-burn-in": (2, 2, "nn", Potential(1.0, 0.1), 0),
})
def test_estimates_match_site_order_oracle(d, L, name, vpot, burn_in, alpha,
                                           monkeypatch):
    # the estimator reads OVERRELAX when it runs: alpha = 0 is the old sampler
    monkeypatch.setattr(mcmc, "OVERRELAX", alpha)
    k = Kernel.nearest_neighbor(d) if name == "nn" else Kernel.axis_kernel(d, 2)
    g = BoxGeometry(d, L)
    eta = gaussian_eta(g, seed=17)
    est = estimate_gradient_mean(g, k, vpot, eta, burn_in, 1800, seed=8)
    batch_means, n_eff, width, cap_rejects, used = site_order_estimate(
        g, k, vpot, eta, burn_in, 1800, 8, alpha)
    assert np.array_equal(est.batch_means.values, batch_means)
    # every n_eff is the ratio clipped to [1, retained]
    assert np.array_equal(est.n_eff.values, np.clip(n_eff, 1.0, est.retained))
    assert est.proposal_width == width and est.cap_rejects == cap_rejects
    assert est.overrelaxation == used


# ---------------------------------------------------------------------------
# gradient-mean estimation


def test_zero_disorder_estimates_vanish(quartic):
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry(2, 2)
    eta = np.zeros(g.n_sites)
    est = estimate_gradient_mean(g, k, quartic, eta, *FAST, seed=5)
    for e in kernel_edges(g, k):
        assert abs(edge_value(est.mean, *e)) <= 4.0 * edge_value(est.stderr, *e) + 1e-12
        assert edge_value(est.n_eff, *e) <= est.retained


def no_draws(*args):
    pytest.fail("the chain ran before the sweep counts were checked")


@pytest.mark.parametrize("measure", [10, N_BATCHES - 1])
def test_estimator_rejects_fewer_measure_sweeps_than_batches(measure, quartic,
                                                             monkeypatch):
    # one sweep per batch at least: fewer left the batch means empty
    g, k, eta = single_site_setup(0.3)
    monkeypatch.setattr(Chain, "run", no_draws)
    with pytest.raises(ValueError, match="measure_sweeps"):
        estimate_gradient_mean(g, k, quartic, eta, 300, measure)


@pytest.mark.parametrize("vpot", [Potential(1.0), Potential(1.0, 0.1)],
                         ids=["quadratic", "quartic"])
def test_negative_burn_in_is_rejected(vpot, monkeypatch):
    # a negative count is truthy: it would over-relax about the untuned width
    g, k, eta = single_site_setup(0.3)
    monkeypatch.setattr(Chain, "run", no_draws)
    with pytest.raises(ValueError, match="burn_in_sweeps"):
        tune(Chain(g, k, vpot, eta), -5)
    with pytest.raises(ValueError, match="burn_in_sweeps"):
        estimate_gradient_mean(g, k, vpot, eta, -5, 4000)


@pytest.mark.parametrize("n", [32, 24], ids=["longer", "shorter"])
def test_disorder_of_the_wrong_length_is_rejected(n, quartic, monkeypatch):
    # a longer array ran on the first 25 sites; a shorter one hit an IndexError
    g, k = BoxGeometry(2, 2), Kernel.nearest_neighbor(2)
    monkeypatch.setattr(Chain, "run", no_draws)
    with pytest.raises(ValueError, match="25 sites"):
        estimate_gradient_mean(g, k, quartic, np.ones(n), 50, 60)


@pytest.mark.parametrize("vpot", [Potential(1.0), Potential(1.0, 0.1)],
                         ids=["quadratic", "quartic"])
def test_a_tuned_chain_reads_as_the_estimator_reads_it(vpot):
    # a second reader of the same seed: tune once, then measure the
    # site-ordered heights, with no second burn-in
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry(2, 3)
    eta = gaussian_eta(g, seed=4)
    est = estimate_gradient_mean(g, k, vpot, eta, 300, 1500, seed=6)
    chain = Chain(g, k, vpot, eta, seed=6)
    width, change = tune(chain, 300)
    sweeps = []

    def heights(kept):
        sweeps.append(len(kept))
        return kept[:, chain.slot[:-1]].T

    mean, *_, accepted = measure(chain, width, est.retained // N_BATCHES, OVERRELAX,
                                 g.n_sites, heights)
    assert sum(sweeps) == est.retained and max(sweeps) == BLOCK
    assert (width, change) == (est.proposal_width, est.width_change)
    assert accepted / (est.retained * g.n_sites) == est.acceptance_rate
    assert chain.cap_rejects == est.cap_rejects
    if vpot.b == 0.0:
        # V' is linear: its mean on an edge is the gradient of the mean heights
        np.testing.assert_allclose(gradient_of(g, k, mean).values, est.mean.values,
                                   rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name", ["nn", "axis2"])
def test_two_observables_in_one_pass_equal_two_passes(name, quartic):
    # measure reduces each row alone: V' on the edges and the site-ordered
    # heights stacked in one C-contiguous buffer read exactly as each read by
    # itself from a fresh chain of the same seed; batches of 40 sweeps end
    # in a partial block
    k = Kernel.nearest_neighbor(2) if name == "nn" else Kernel.axis_kernel(2, 2)
    g = BoxGeometry(2, 3)
    eta = gaussian_eta(g, seed=4)
    ends = edge_table(g, k)[0]
    sizes = {"edges": ends.shape[1], "sites": g.n_sites}

    def one_pass(*names):
        chain = Chain(g, k, quartic, eta, seed=6)
        width, _ = tune(chain, 300)
        ei, ej = chain.slot[ends]
        forms = {"edges": lambda kept: quartic.derivative(kept[:, ei] - kept[:, ej]).T,
                 "sites": lambda kept: kept[:, chain.slot[:-1]].T}
        n_rows = sum(sizes[name] for name in names)
        buffer = np.empty(n_rows * BLOCK)

        def observe(kept):
            out = buffer[:n_rows * len(kept)].reshape(n_rows, len(kept))
            return np.concatenate([forms[name](kept) for name in names], out=out)

        return measure(chain, width, 40, OVERRELAX, n_rows, observe)

    *both, accepted = one_pass("edges", "sites")
    *edges, edges_accepted = one_pass("edges")
    *sites, sites_accepted = one_pass("sites")
    for got, alone_edges, alone_sites in zip(both, edges, sites):
        assert np.array_equal(got[..., :sizes["edges"]], alone_edges)
        assert np.array_equal(got[..., sizes["edges"]:], alone_sites)
    assert accepted == edges_accepted == sites_accepted
    # the estimator is the V' pass
    est = estimate_gradient_mean(g, k, quartic, eta, 300, 40 * N_BATCHES, seed=6)
    for field, values in zip((est.mean, est.stderr, est.n_eff, est.batch_means), edges):
        assert np.array_equal(field.values, values)


@pytest.mark.parametrize("potential", [Potential(1e9, 0.1), Potential(1.0, 1e20)],
                         ids=["stiff", "steep"])
def test_a_burn_in_block_that_moves_nothing_halves_the_width(potential):
    # from the all-zero start no proposal of START_WIDTH survives so stiff a
    # V: the block's moments are 0, and the width is halved, not kept
    g, k = BoxGeometry(2, 2), Kernel.nearest_neighbor(2)
    eta = sample_disorder(DisorderSpec("gaussian", 1.0, 1), g)
    for blocks in (1, 2):
        chain = Chain(g, k, potential, eta, seed=1)
        assert tune(chain, blocks * BLOCK) == (START_WIDTH / 2 ** blocks, 0.5)
        assert not chain.ph.any()


def test_estimates_are_exactly_antisymmetric(quartic):
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry(2, 1)
    eta = gaussian_eta(g, seed=6)
    est = estimate_gradient_mean(g, k, quartic, eta, *FAST, seed=6)
    for i, j in kernel_edges(g, k):
        assert edge_value(est.mean, j, i) == -edge_value(est.mean, i, j)


def test_single_site_estimate_matches_quadrature_oracle():
    g, k, eta = single_site_setup(1.0)
    vpot = Potential(1.0, 0.5)
    est = estimate_gradient_mean(g, k, vpot, eta, 2000, 60000, seed=8)
    oracle = single_site_quadrature_oracle(vpot, 1.0, k.weights)
    for v in k.offsets:
        j = (v[0], v[1])
        got = edge_value(est.mean, (0, 0), j)  # oriented from the interior site out
        stderr = abs(edge_value(est.stderr, (0, 0), j))  # a magnitude, either orientation
        assert abs(got - oracle.mean_derivative) <= 3.0 * stderr


def test_overrelaxed_estimates_after_a_noisy_width_match_quadrature_oracle():
    # 200 burn-in sweeps on the one-site box average 100 snapshots in the
    # width rule, which leaves the width 0.45-0.68 around a fixed point near
    # 0.6 (acceptance 0.55-0.94); the reflected proposals stay exact
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry(2, 0)
    vpot = Potential(1.0, 0.5)
    for seed in range(12):
        eta = sample_disorder(DisorderSpec("gaussian", 1.0, seed), g)
        est = estimate_gradient_mean(g, k, vpot, eta, 200, 6000, seed=seed)
        assert est.overrelaxation == OVERRELAX
        oracle = single_site_quadrature_oracle(vpot, float(eta[0]), k.weights)
        for v in k.offsets:
            got = edge_value(est.mean, (0, 0), v)
            stderr = abs(edge_value(est.stderr, (0, 0), v))
            assert abs(got - oracle.mean_derivative) <= 4.0 * stderr, (seed, v)


def test_gaussian_cross_validation_multiple_realizations(quadratic):
    # quadratic model: every edge estimate should sit near the exact solver
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry(2, 8)
    A = DirichletLaplacian(g, k)
    edges = kernel_edges(g, k)
    total = 0
    covered = 0
    for realization in range(5):
        eta = sample_disorder(DisorderSpec("gaussian", 1.0, 3, realization), g)
        X = mean_gradient(A, eta)
        est = estimate_gradient_mean(g, k, quadratic, eta, 2000, 20000,
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
    g = BoxGeometry(2, 3)
    eta = gaussian_eta(g, seed=12)
    est = estimate_gradient_mean(g, k, quartic, eta, 1000, 12000, seed=12)
    resid, se = divergence_check(est, eta)
    ratio = np.abs(resid) / se
    assert (ratio <= 4.0).mean() >= 0.95


def test_divergence_check_of_exact_batches_is_the_exact_residual():
    # every batch is the exact Gaussian field: the residuals are its own,
    # and the batches carry no spread
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry(2, 3)
    eta = gaussian_eta(g, seed=14)
    X = mean_gradient(DirichletLaplacian(g, k), eta)
    zero = zero_field(g, k)
    batches = VectorField(g, k, np.stack([X.values] * N_BATCHES))
    est = GradientEstimate(X, zero, zero, batches,
                           acceptance_rate=1.0, proposal_width=1.0, width_change=0.0,
                           cap_rejects=0, retained=N_BATCHES, overrelaxation=0.0)
    resid, se = divergence_check(est, eta)
    exact, _ = divergence_residual(X, eta)
    assert np.max(np.abs(resid - exact)) <= 1e-13
    assert np.max(se) <= 1e-13


def width_rule_fixed_point(g, k, vpot, eta, width):
    """The fixed point w of the burn-in rule w^2 = E[r^2] / (1 + E[r eta]),
    r = h - m, and the standard error of the rule over 750 sweeps, the later
    half of a 1500-sweep burn-in.

    On the one-site box m = 0, and both come by quadrature: the delta method
    gives the variance of one sweep's term of the rule, and the snapshots'
    integrated autocorrelation time is taken as at most 1 (Sokal's
    convention, 1/2 for independent draws; about 0.65 measured at acceptance
    0.92), so 750 sweeps count as at least 375 independent ones.  Elsewhere
    both come from a chain of 12,000 sweeps: the rule over all of it, and the
    spread of its 16 windows of 750 sweeps, widened by the reference's own
    error."""
    if g.n_sites == 1:
        eta_i = float(eta[0])
        density = lambda t: math.exp(-float(vpot.value(t)) + eta_i * t)
        z = quad(density, -10.0, 10.0, limit=200)[0]
        moment = lambda f: quad(lambda t: f(t) * density(t), -10.0, 10.0, limit=200)[0] / z
        sq, cross = moment(lambda t: t * t), eta_i * moment(lambda t: t)
        fixed = sq / (1.0 + cross)
        term_var = moment(lambda t: (t * t - fixed * (1.0 + eta_i * t)) ** 2) / (1.0 + cross) ** 2
        return math.sqrt(fixed), math.sqrt(term_var / 375.0) / (2.0 * math.sqrt(fixed))
    chain = Chain(g, k, vpot, eta, seed=99)
    run_sweeps(chain, width, 1000)
    sums = []
    for _ in range(12000 // BLOCK):
        _, kept = chain.run(width, BLOCK)
        heights = kept[:, chain.slot[:-1]]
        r = heights - neighbour_mean(g, k, heights)
        sums.append(np.stack([(r * r).sum(axis=1), r @ eta]))
    sq, cross = np.concatenate(sums, axis=1)
    rule = lambda a, b: math.sqrt(a.sum() / (a.size * g.n_sites + b.sum()))
    windows = [rule(a, b) for a, b in zip(sq.reshape(16, -1), cross.reshape(16, -1))]
    return rule(sq, cross), float(np.std(windows, ddof=1)) * math.sqrt(1.0 + 1.0 / 16)


def test_burn_in_reaches_the_width_rule_fixed_point(monkeypatch):
    # from a width far too wide, burn-in must end within 4 standard errors of
    # its rule's fixed point, and the tuned proposals accept >= 75 %
    monkeypatch.setattr(mcmc, "START_WIDTH", 8.0)
    cases = [
        (1, 6, Potential(1.0)),
        (2, 3, Potential(1.0, 0.1)),
        (2, 2, Potential(-1.0, 0.5)),
        (2, 0, Potential(1.0, 0.5)),
    ]
    for d, L, vpot in cases:
        k = Kernel.nearest_neighbor(d)
        g = BoxGeometry(d, L)
        eta = sample_disorder(DisorderSpec("gaussian", 1.0, 13), g)
        est = estimate_gradient_mean(g, k, vpot, eta, 1500, 3000)
        assert est.acceptance_rate >= 0.75, (d, L, vpot, est.acceptance_rate)
        if vpot.b == 0.0:
            # the harmonic stand-in is exact: heat bath
            assert est.proposal_width == 1.0 / math.sqrt(vpot.a)
            assert est.acceptance_rate == 1.0 and est.width_change == 0.0
            continue
        fixed, stderr = width_rule_fixed_point(g, k, vpot, eta, est.proposal_width)
        assert abs(est.proposal_width - fixed) <= 4.0 * stderr, \
            (d, L, vpot, est.proposal_width, fixed, stderr)


# ---------------------------------------------------------------------------
# the temperature of the sampled measure


def configurational_temperature(vpot, beta):
    """The site mean of phi_i dH/dphi_i, dH/dphi_i = site_flux(V'(grad
    phi))_i - eta_i, per batch of a chain of exp(-beta H) (V and eta times
    beta), read with the H of beta = 1: d=2, L=8, ``nn``, disorder seed 0,
    chain seed 0, 2,000 burn-in sweeps and 30 batches of 200 over-relaxed
    ones.  Its mean and batch stderr."""
    g, k = BoxGeometry(2, 8), Kernel.nearest_neighbor(2)
    eta = sample_disorder(DisorderSpec("gaussian", 1.0, 0, 0), g)
    chain = Chain(g, k, Potential(beta * vpot.a, beta * vpot.b), beta * eta, seed=0)
    width, _ = tune(chain, 2000)

    def virial(kept):
        phi = kept[:, chain.slot[:-1]]
        dv = vpot.derivative(gradient_of(g, k, phi).values)
        force = site_flux(VectorField(g, k, dv)) - eta
        return (phi * force).mean(axis=1)[None]

    (mean,), (stderr,), *_ = measure(chain, width, 200, OVERRELAX, 1, virial)
    return mean, stderr


@pytest.mark.parametrize("vpot,beta", [
    pytest.param(Potential(1.0, 0.1), 1, id="quartic"),
    pytest.param(Potential(-1.0, 0.25), 1, id="double-well"),
    pytest.param(Potential(1.0), 1, id="quadratic"),
    pytest.param(Potential(1.0, 0.1), 2, id="quartic-doubled"),
    pytest.param(Potential(1.0), 2, id="quadratic-doubled"),
])
def test_configurational_temperature_is_that_of_the_measure(vpot, beta):
    # integration by parts: E[phi_i dH/dphi_i] = 1 / beta for every V.  The
    # divergence identity and the quadratic mean hold at every beta; this
    # reads the temperature, so a chain of exp(-2H) fails the gate at 1
    mean, stderr = configurational_temperature(vpot, beta)
    assert abs(mean - 1.0 / beta) <= 4.0 * stderr
    assert (abs(mean - 1.0) <= 4.0 * stderr) == (beta == 1)


# ---------------------------------------------------------------------------
# the exact d=1 means


#: the d=1 box of the transfer-matrix oracle, L and disorder (the Gaussian
#: heights reach |u| = 28.9), and two grids of step 0.05 that cover them
D1_BOX = (8, DisorderSpec("gaussian", 1.0, 3, 0))
D1_GRIDS = ((-40.0, 40.0, 1601), (-60.0, 60.0, 2401))


def test_transfer_oracle_is_the_gaussian_mean_at_quadratic_v(d1_means):
    g, k = BoxGeometry(1, D1_BOX[0]), Kernel.nearest_neighbor(1)
    want = mean_gradient(DirichletLaplacian(g, k), sample_disorder(D1_BOX[1], g)).values
    got = d1_means(*D1_BOX, Potential(1.0), -60.0, 60.0, 2001)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("vpot", [Potential(1.0, 0.1), Potential(-1.0, 0.25)],
                         ids=["quartic", "double-well"])
def test_transfer_oracle_converges_in_the_grid(vpot, d1_means):
    coarse, fine = (d1_means(*D1_BOX, vpot, *grid) for grid in D1_GRIDS)
    np.testing.assert_allclose(coarse, fine, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("beta", [1, 2], ids=["beta1", "beta2"])
@pytest.mark.parametrize("vpot", [Potential(1.0, 0.1), Potential(-1.0, 0.25)],
                         ids=["quartic", "double-well"])
def test_d1_estimates_match_the_transfer_oracle(vpot, beta, d1_means):
    # a chain of exp(-beta H), V and eta times beta, estimates beta E[V'];
    # halved, the beta = 2 means are those of another temperature, which the
    # anharmonic means see
    L, spec = D1_BOX
    g, k = BoxGeometry(1, L), Kernel.nearest_neighbor(1)
    eta = sample_disorder(spec, g)
    est = estimate_gradient_mean(g, k, Potential(beta * vpot.a, beta * vpot.b), beta * eta,
                                 2000, 30000, seed=0)
    z = (est.mean.values - beta * d1_means(L, spec, vpot, *D1_GRIDS[1])) / est.stderr.values
    assert (math.sqrt(np.mean(z * z)) <= 1.5) == (beta == 1)


# ---------------------------------------------------------------------------
# single-site oracle


def test_oracle_quadratic_field_recovery():
    oracle = single_site_quadrature_oracle(Potential(1.0), 0.7,
                                           [0.25] * 4)
    assert oracle.mean_height == pytest.approx(0.7, abs=1e-10)
    assert oracle.flux == pytest.approx(0.7, abs=1e-10)
    assert abs(oracle.residual) <= 1e-10


def test_oracle_zero_field_is_symmetric():
    for vpot in (Potential(2.0), Potential(1.0, 0.5)):
        oracle = single_site_quadrature_oracle(vpot, 0.0, [0.25] * 4)
        assert abs(oracle.mean_height) <= 1e-10
        assert abs(oracle.mean_derivative) <= 1e-10


def test_oracle_partial_integration_identity_quartic():
    oracle = single_site_quadrature_oracle(Potential(1.0, 0.5), 1.0,
                                           [0.25] * 4)
    assert abs(oracle.flux - 1.0) <= 1e-8


def test_oracle_double_well_and_unequal_weights():
    oracle = single_site_quadrature_oracle(Potential(-2.0, 0.25), 0.4,
                                           [0.5, 0.3, 0.2])
    assert abs(oracle.residual) <= 1e-8
