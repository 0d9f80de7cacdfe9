"""gradlab: a numerical laboratory for gradient interface models on Z^d
in a quenched random field.

The quadratic model is solved exactly by lattice Green functions; general
even superlinear potentials are sampled by Metropolis Monte Carlo; the
diagnostics layer turns the model's structural identities (divergence
equation, surface sums, variance scaling, covariance decay) into checks
with explicit tolerances, driven reproducibly from the command line.

Importing the package loads none of its modules: each run of ``gradlab.cli``
imports the ones it calls.
"""

__version__ = "0.1.0"


class NumericalError(RuntimeError):
    """A computation could not reach its requested accuracy, as a linear solve
    that misses its residual target (``gaussian.SolverError``)."""
