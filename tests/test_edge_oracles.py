"""Site-by-site tuple-loop references for the array-native edge-field layer.

Each oracle follows its definition literally, one site and one kernel
offset at a time.  The array versions perform the same floating-point
operations in the same order (per-site fluxes add one offset at a time in
kernel support order; surface and per-side sums fold edge by edge in
boundary-edge order: by interior site, then kernel support order), so
every comparison here is exact equality, except the operator's: its
oracle is a sparse matrix, whose product adds each row in its own order.
"""

import math

import numpy as np
import pytest

from conftest import (height_at, integral_form_check, loop_residuals,
                      oracle_boundary_edges, oracle_sparse_operator, random_heights,
                      site_of)
from gradlab import gaussian, mcmc
from gradlab.diagnostics import boundary_ergodic_average, divergence_residual
from gradlab.model import (BoxGeometry, DisorderSpec,
                           HeightField, Kernel, Potential, VectorField,
                           boundary_table, canonical_edge, edge_table,
                           gradient_of, kernel_edges, sample_disorder)


def add(site, v):
    return tuple(a + b for a, b in zip(site, v))


# ---------------------------------------------------------------------------
# reference loops; fields are read through a get(i, j) callable


def oracle_gradient(g, k, phi):
    """Canonical edge -> phi_i - phi_j, in insertion order."""
    out = {}
    for i in g.sites():
        hi = height_at(phi, i)
        for v, _ in k.support():
            j = add(i, v)
            if g.contains(j) and j < i:
                continue
            key, sign = canonical_edge(i, j)
            out[key] = sign * (hi - height_at(phi, j))
    return out


def oracle_kernel_edges(g, k):
    out = []
    for i in g.sites():
        for v, _ in k.support():
            j = add(i, v)
            if g.contains(j) and j < i:
                continue
            key, _ = canonical_edge(i, j)
            out.append(key)
    return out


def oracle_divergence_residual(get, eta, g, k):
    residuals = np.zeros(g.n_sites)
    for idx, i in enumerate(g.sites()):
        flux = 0.0
        for v, w in k.support():
            flux += w * get(i, add(i, v))
        residuals[idx] = eta.values[idx] - flux
    return residuals, float(np.max(np.abs(residuals)))


def oracle_surface_sum(get, g, k):
    surface = 0.0
    for i, j, w in oracle_boundary_edges(g, k):
        surface += w * get(i, j)
    return surface


def oracle_boundary_ergodic_average(get, g, k, side):
    total = 0.0
    for i, j, w in oracle_boundary_edges(g, k):
        delta = tuple(b - a for a, b in zip(i, j))
        axis = 0 if abs(delta[0]) >= abs(delta[1]) else 1
        edge_side = (1 + axis) if delta[axis] > 0 else (3 + axis)
        if edge_side == side:
            total += w * get(i, j)
    return total / g.L


def oracle_loop_residuals(g, get):
    worst = 0.0
    for i in g.sites():
        for a in range(g.d):
            ea = tuple(1 if t == a else 0 for t in range(g.d))
            ia = add(i, ea)
            if not g.contains(ia):
                continue
            for b in range(a + 1, g.d):
                eb = tuple(1 if t == b else 0 for t in range(g.d))
                ib = add(i, eb)
                iab = add(ia, eb)
                if not (g.contains(ib) and g.contains(iab)):
                    continue
                circ = get(i, ia) + get(ia, iab) + get(iab, ib) + get(ib, i)
                worst = max(worst, abs(circ))
    return worst


def oracle_divergence_check(est, eta, g, k):
    n = g.n_sites
    residuals = np.zeros(n)
    batches = []
    for row in est.batch_means:
        field = VectorField(g, k)
        field.data[...] = row
        batches.append(field)
    batch_flux = np.zeros((len(batches), n))
    for idx, i in enumerate(g.sites()):
        flux = 0.0
        for v, w in k.support():
            j = add(i, v)
            flux += w * est.mean.get(i, j)
            batch_flux[:, idx] += w * np.array([b.get(i, j) for b in batches])
        residuals[idx] = eta.values[idx] - flux
    stderrs = batch_flux.std(axis=0, ddof=1) / math.sqrt(batch_flux.shape[0])
    return residuals, stderrs


# ---------------------------------------------------------------------------
# cases


KERNELS = {"nn": Kernel.nearest_neighbor, "axis2": lambda d: Kernel.axis_kernel(d, 2)}
CASES = [(1, "nn", 5), (2, "nn", 1), (2, "nn", 4), (2, "nn", 7), (2, "axis2", 5),
         (3, "nn", 3)]
CASE_IDS = [f"d{d}-{name}-L{L}" for d, name, L in CASES]


@pytest.fixture(params=CASES, ids=CASE_IDS)
def case(request):
    d, name, L = request.param
    k = KERNELS[name](d)
    g = BoxGeometry.for_kernel(d, L, k)
    eta = sample_disorder(DisorderSpec("gaussian", 1.0, 41, L), g)
    return g, k, eta


def solved_field(g, k, eta):
    return gaussian.mean_gradient(gaussian.DirichletLaplacian(g, k), eta)


def random_field(g, k, seed):
    """An antisymmetric field with no gradient structure (nonzero loops)."""
    rng = np.random.default_rng(seed)
    w = VectorField(g, k)
    for i, j in kernel_edges(g, k):
        w.set(i, j, rng.normal())
    return w


def test_edge_lists_match_reference(case):
    g, k, _ = case
    assert list(kernel_edges(g, k)) == oracle_kernel_edges(g, k)


def test_edge_table_matches_reference(case):
    g, k, _ = case
    edges = kernel_edges(g, k)
    ends, cells = edge_table(g, k)
    index = [[g.index_of(s) if g.contains(s) else g.n_sites for s in e] for e in edges]
    assert ends.T.tolist() == index
    values = np.arange(1.0, len(edges) + 1.0)
    w = VectorField.from_edge_values(g, k, values)
    assert [w.get(*e) for e in edges] == values.tolist()
    assert np.count_nonzero(w.data) == len(edges) == len(set(cells.tolist()))
    assert np.array_equal(w.edge_values(), values)


def test_boundary_table_matches_reference(case):
    g, k, _ = case
    table = boundary_table(g, k)
    support = list(k.support())
    edges = [(site_of(g, i), add(site_of(g, i), support[r][0]), support[r][1])
             for i, r in zip(table.sites.tolist(), table.rows.tolist())]
    assert edges == oracle_boundary_edges(g, k)
    X = random_field(g, k, 3)
    terms = table.weights * X.data.ravel()[table.cells]
    assert terms.tolist() == [w * X.get(i, j) for i, j, w in edges]
    for (i, j, _), side in zip(edges, table.sides.tolist()):
        jump = [b - a for a, b in zip(i, j)]
        axis = max(range(g.d), key=lambda a: (abs(jump[a]), -a))
        assert side == (1 + axis if jump[axis] > 0 else 1 + g.d + axis)
    assert not any(array.flags.writeable for array in table)


def test_gradient_matches_reference(case):
    g, k, _ = case
    phi = HeightField(g, random_heights(g, seed=g.L, scale=2.0))
    assert list(gradient_of(g, k, phi).items()) == list(oracle_gradient(g, k, phi).items())


def test_divergence_and_surface_sums_match_reference(case):
    g, k, eta = case
    for X in (solved_field(g, k, eta), random_field(g, k, 7)):
        res, mx = divergence_residual(X, eta, g, k)
        ref, ref_mx = oracle_divergence_residual(X.get, eta, g, k)
        assert np.array_equal(res, ref) and mx == ref_mx
        chk = integral_form_check(X, eta, g, k)
        assert chk.surface_sum == oracle_surface_sum(X.get, g, k)
        assert chk.volume_sum == float(np.sum(eta.values))
        if g.d == 2:
            for side in (1, 2, 3, 4):
                assert boundary_ergodic_average(X, g, k, side) == \
                    oracle_boundary_ergodic_average(X.get, g, k, side)
        if g.d >= 2:
            assert loop_residuals(g, X) == oracle_loop_residuals(g, X.get)


def test_operator_assembly_and_sampler_table_match_reference(case):
    g, k, _ = case
    A = gaussian.DirichletLaplacian(g, k)
    x = random_heights(g, seed=g.n_sites)
    # the sparse product adds each row in another order than the shifts
    np.testing.assert_allclose(oracle_sparse_operator(A) @ x, A.apply(x),
                               rtol=0.0, atol=1e-13)
    # the sampler's colour classes partition the sites into independent sets
    classes = mcmc.colour_classes(g, k)
    assert sorted(np.concatenate(classes).tolist()) == list(range(g.n_sites))
    label = {s: c for c, sites in enumerate(classes) for s in sites.tolist()}
    for i, j in kernel_edges(g, k):
        if g.contains(i) and g.contains(j):
            assert label[g.index_of(i)] != label[g.index_of(j)], (i, j)
    if k == Kernel.nearest_neighbor(g.d):
        assert len(classes) == 2


@pytest.mark.parametrize("name", ["nn", "axis2"])
def test_mcmc_divergence_check_matches_reference(name):
    k = KERNELS[name](2)
    g = BoxGeometry.for_kernel(2, 2, k)
    eta = sample_disorder(DisorderSpec("gaussian", 1.0, 43, 0), g)
    cfg = mcmc.SamplerConfig(burn_in_sweeps=50, measure_sweeps=300)
    est = mcmc.estimate_gradient_mean(g, k, Potential.quartic(1.0, 0.1), eta,
                                      cfg, seed=4)
    res, se = mcmc.divergence_check(est, eta, g, k)
    ref_res, ref_se = oracle_divergence_check(est, eta, g, k)
    assert np.array_equal(res, ref_res) and np.array_equal(se, ref_se)


def test_vector_field_rejects_edges_it_does_not_hold():
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry.for_kernel(2, 2, k)
    w = VectorField(g, k)
    for i, j in [((0, 0), (1, 1)),      # not a kernel offset
                 ((3, 0), (4, 0)),      # both endpoints outside the box
                 ((9, 9), (9, 10))]:    # beyond the padded array
        with pytest.raises(KeyError):
            w.get(i, j)
        with pytest.raises(KeyError):
            w.set(i, j, 1.0)
    w.set((3, 0), (2, 0), 0.5)  # boundary edge, stored from the outside end
    assert w.get((2, 0), (3, 0)) == -0.5


def test_divergence_rejects_a_field_of_another_kernel():
    k = Kernel.nearest_neighbor(2)
    g = BoxGeometry.for_kernel(2, 2, Kernel.axis_kernel(2, 2))
    X = VectorField(g, Kernel.axis_kernel(2, 2))
    eta = HeightField(g, np.zeros(g.n_sites))
    with pytest.raises(ValueError):
        divergence_residual(X, eta, g, k)
