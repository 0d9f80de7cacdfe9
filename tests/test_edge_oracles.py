"""Site-by-site tuple-loop references for the array-native edge-field layer.

Each oracle follows its definition literally, one site and one kernel
offset at a time.  The array versions perform the same floating-point
operations in the same order (per-site fluxes add one offset at a time in
kernel support order; surface and per-side sums fold edge by edge in
boundary-edge order: by interior site, then kernel support order), so
every comparison here is exact equality, except the operator's: its
oracle is a sparse matrix, whose product adds each row in its own order.
The oracles read edge fields through ``conftest.edge_value``.
"""

import math
from functools import partial

import numpy as np
import pytest

from conftest import (DIAGONAL, add, canonical_edge, edge_value, height_at,
                      integral_form_check, loop_residuals, oracle_boundary_edges,
                      oracle_sparse_operator, random_heights, site_of, sites)
from gradlab import gaussian, mcmc
from gradlab.diagnostics import boundary_ergodic_average, divergence_residual
from gradlab.model import (BoxGeometry, DisorderSpec, Kernel,
                           Potential, VectorField, edge_table,
                           gradient_of, kernel_edges, sample_disorder)


# ---------------------------------------------------------------------------
# reference loops; fields are read through a get(i, j) callable


def oracle_gradient(g, k, phi):
    """Canonical edge -> phi_i - phi_j, in insertion order."""
    out = {}
    for i in sites(g):
        hi = height_at(g, phi, i)
        for v in k.offsets:
            j = add(i, v)
            if g.contains(j) and j < i:
                continue
            key, sign = canonical_edge(i, j)
            out[key] = sign * (hi - height_at(g, phi, j))
    return out


def oracle_kernel_edges(g, k):
    out = []
    for i in sites(g):
        for v in k.offsets:
            j = add(i, v)
            if g.contains(j) and j < i:
                continue
            key, _ = canonical_edge(i, j)
            out.append(key)
    return out


def oracle_divergence_residual(get, eta, g, k):
    residuals = np.zeros(g.n_sites)
    for idx, i in enumerate(sites(g)):
        flux = 0.0
        for v, w in zip(k.offsets, k.weights):
            flux += w * get(i, add(i, v))
        residuals[idx] = eta[idx] - flux
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
    for i in sites(g):
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
    batches = [VectorField(g, k, row) for row in est.batch_means.values]
    batch_flux = np.zeros((len(batches), n))
    for idx, i in enumerate(sites(g)):
        flux = 0.0
        for v, w in zip(k.offsets, k.weights):
            j = add(i, v)
            flux += w * edge_value(est.mean, i, j)
            batch_flux[:, idx] += w * np.array([edge_value(b, i, j) for b in batches])
        residuals[idx] = eta[idx] - flux
    stderrs = batch_flux.std(axis=0, ddof=1) / math.sqrt(batch_flux.shape[0])
    return residuals, stderrs


# ---------------------------------------------------------------------------
# cases


KERNELS = {"nn": Kernel.nearest_neighbor, "axis2": lambda d: Kernel.axis_kernel(d, 2),
           "reach4": lambda d: Kernel.axis_kernel(d, 4),
           "diag": lambda d: DIAGONAL}  # d = 2 only
# reach4 on L = 1 has jumps longer than the side-3 box
CASES = [(1, "nn", 5), (2, "nn", 1), (2, "nn", 4), (2, "nn", 7), (2, "axis2", 5),
         (2, "diag", 4), (3, "nn", 3), (1, "reach4", 1), (2, "reach4", 1)]
CASE_IDS = [f"d{d}-{name}-L{L}" for d, name, L in CASES]


@pytest.fixture(params=CASES, ids=CASE_IDS)
def case(request):
    d, name, L = request.param
    k = KERNELS[name](d)
    g = BoxGeometry(d, L)
    eta = sample_disorder(DisorderSpec("gaussian", 1.0, 41, L), g)
    return g, k, eta


def solved_field(g, k, eta):
    return gaussian.mean_gradient(gaussian.DirichletLaplacian(g, k), eta)


def random_field(g, k, seed):
    """An antisymmetric field with no gradient structure (nonzero loops)."""
    rng = np.random.default_rng(seed)
    return VectorField(g, k, rng.normal(size=len(kernel_edges(g, k))))


def test_edge_lists_match_reference(case):
    g, k, _ = case
    assert list(kernel_edges(g, k)) == oracle_kernel_edges(g, k)


def test_edge_table_matches_reference(case):
    g, k, _ = case
    edges = kernel_edges(g, k)
    table = edge_table(g, k)
    index = [[g.index_of(s) if g.contains(s) else g.n_sites for s in e] for e in edges]
    assert table.ends.T.tolist() == index
    assert not any(array.flags.writeable for array in table)
    values = np.arange(1.0, len(edges) + 1.0)
    w = VectorField(g, k, values)
    assert [edge_value(w, *e) for e in edges] == values.tolist()


def test_edge_ids_match_reference(case):
    """ids[r, i] is the index of (i, i + v_r) in the oracle's edge list, held
    in the canonical orientation, which signs[r] gives relative to it."""
    g, k, _ = case
    number = {e: n for n, e in enumerate(oracle_kernel_edges(g, k))}
    table = edge_table(g, k)
    for r, v in enumerate(k.offsets):
        for n, i in enumerate(sites(g)):
            key, sign = canonical_edge(i, add(i, v))
            assert (table.ids[r, n], table.signs[r]) == (number[key], sign)


def test_boundary_table_matches_reference(case):
    """The boundary slice of the edge table: the oracle's boundary edges in
    its order, their terms p(v) w(i, i + v) and sides, read-only."""
    g, k, _ = case
    table = edge_table(g, k)
    rows = table.rows[table.boundary]
    edges = [(site_of(g, i), add(site_of(g, i), k.offsets[r]), k.weights[r])
             for i, r in zip(table.sites[table.boundary].tolist(), rows.tolist())]
    assert edges == oracle_boundary_edges(g, k)
    X = random_field(g, k, 3)
    terms = (table.signs * k.weights)[rows] * X.values[table.boundary]
    assert terms.tolist() == [w * edge_value(X, i, j) for i, j, w in edges]
    assert len(table.sides) == len(edges)
    for (i, j, _), side in zip(edges, table.sides.tolist()):
        jump = [b - a for a, b in zip(i, j)]
        axis = max(range(g.d), key=lambda a: (abs(jump[a]), -a))
        assert side == (1 + axis if jump[axis] > 0 else 1 + g.d + axis)
    assert not table.boundary.flags.writeable and not table.sides.flags.writeable


def test_gradient_matches_reference(case):
    g, k, _ = case
    phi = random_heights(g, seed=g.L, scale=2.0)
    field = gradient_of(g, k, phi)
    assert list(zip(kernel_edges(g, k), field.values.tolist())) == \
        list(oracle_gradient(g, k, phi).items())


def test_divergence_and_surface_sums_match_reference(case):
    g, k, eta = case
    for X in (solved_field(g, k, eta), random_field(g, k, 7)):
        get = partial(edge_value, X)
        res, mx = divergence_residual(X, eta)
        ref, ref_mx = oracle_divergence_residual(get, eta, g, k)
        assert np.array_equal(res, ref) and mx == ref_mx
        chk = integral_form_check(X, eta)
        assert chk.surface_sum == oracle_surface_sum(get, g, k)
        assert chk.volume_sum == float(np.sum(eta))
        if g.d == 2:
            sides = boundary_ergodic_average(X)
            for side in (1, 2, 3, 4):
                assert sides[side - 1] == oracle_boundary_ergodic_average(get, g, k, side)
        if g.d >= 2:
            assert loop_residuals(g, X) == oracle_loop_residuals(g, get)


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
    g = BoxGeometry(2, 2)
    eta = sample_disorder(DisorderSpec("gaussian", 1.0, 43, 0), g)
    est = mcmc.estimate_gradient_mean(g, k, Potential(1.0, 0.1), eta,
                                      50, 300, seed=4)
    res, se = mcmc.divergence_check(est, eta)
    ref_res, ref_se = oracle_divergence_check(est, eta, g, k)
    assert np.array_equal(res, ref_res) and np.array_equal(se, ref_se)
