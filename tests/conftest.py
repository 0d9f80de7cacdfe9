import numpy as np
import pytest

from gradlab.model import BoxGeometry, DisorderSpec, Kernel, Potential, sample_disorder


@pytest.fixture
def nn2():
    return Kernel.nearest_neighbor(2)


@pytest.fixture
def box33(nn2):
    return BoxGeometry.for_kernel(2, 1, nn2)


@pytest.fixture
def box55(nn2):
    return BoxGeometry.for_kernel(2, 2, nn2)


@pytest.fixture
def quadratic():
    return Potential.quadratic(1.0)


@pytest.fixture
def quartic():
    return Potential.quartic(1.0, 0.1)


def gaussian_eta(g, seed=0, realization=0, eta2=1.0):
    return sample_disorder(DisorderSpec("gaussian", eta2, seed, realization), g)


def oracle_boundary_edges(g, k):
    """(i, j, p(j - i)) for each kernel edge from an interior site i to an
    exterior site j, ordered by i and then by kernel support order."""
    out = []
    for i in g.sites():
        for v, w in k.support():
            j = tuple(a + b for a, b in zip(i, v))
            if not g.contains(j):
                out.append((i, j, w))
    return out


def random_heights(g, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, scale, size=g.n_sites)
