"""gradlab: a numerical laboratory for gradient interface models on Z^d
in a quenched random field.

The quadratic model is solved exactly by lattice Green functions; general
even superlinear potentials are sampled by Metropolis Monte Carlo; the
diagnostics layer turns the model's structural identities (divergence
equation, surface sums, variance scaling, covariance decay) into checks
with explicit tolerances, driven reproducibly from the command line.
"""

__version__ = "0.1.0"

# cli is left out so that ``python -m gradlab.cli`` runs it fresh
from . import diagnostics, gaussian, mcmc, model, quadrature  # noqa: F401,E402
