"""The three benchmark workloads: the config each CLI process runs, the work
units it completes, and the correctness gate its outputs must pass.

A workload only ever hands the program a generated config file; the seed of
the benchmark run is folded into that file and nowhere else.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from pathlib import Path

#: a process seed is derived from the run seed and the process index
SEED_STRIDE = 1000

#: gate on the CLI's per-realization divergence residual, and the per-site
#: slack of the Stokes check sum_boundary p X = sum_i eta_i
DIVERGENCE_TOL = 1e-8

#: decay.csv against the recorded reference.  CG stops at
#: ||Au - b|| <= 1e-10 ||b||, so with cond(A) = 1.76e3 at d=3, L=32 a Green
#: column is good to 1.8e-7 relative; the covariance of two edge responses
#: amplifies that by at most 2 * ||g0|| ||g1|| / |<g0, g1>| = 2 * 9.1 at
#: r=4, a worst case of 3.2e-6.  A sine-transform solve differs from the
#: recorded CG value by 6e-10.  1e-5 accepts any solver meeting the CLI's
#: rel_tolerance and rejects a wrong one.
DECAY_REL_TOL = 1e-5

#: covariance per separation r, recorded from the CG solver at the commit
#: that introduced this benchmark: {L: {r: C(r)}}
DECAY_REFERENCE = {
    32: {4: 0.32797978085790075},
    4: {2: 0.51909705299496978},
}

#: criterion 10's coverage floor for the divergence residuals
MIN_WITHIN_4SE = 0.95


def process_seed(run_seed: int, index: int) -> int:
    return run_seed * SEED_STRIDE + index


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_manifest(out: Path) -> dict:
    with open(out / "run_manifest.json") as fh:
        return json.load(fh)


class Workload:
    """One CLI config shape.  ``toy`` shrinks it for the harness tests."""

    name = ""
    d = 2
    L = 0
    #: the experiment runs in the interpreter rather than in numpy kernels,
    #: so its speed follows the host's the way the calibration loop does
    interpreted = True

    def __init__(self, toy: bool = False):
        self.toy = toy

    @property
    def n_sites(self) -> int:
        return (2 * self.L + 1) ** self.d

    def config(self, seed: int) -> str:
        raise NotImplementedError

    def units(self) -> float:
        """Work units one process completes."""
        raise NotImplementedError

    def effective_samples(self, out: Path) -> float:
        """Independent samples of the experiment's answer in one process."""
        return self.units()

    def check(self, out: Path, seed: int) -> list[str]:
        """Gate the outputs of one process; return what failed (empty: ok)."""
        raise NotImplementedError


class BoundarySweep(Workload):
    """Criterion 12's shape: per realization one small CG solve, then the
    edge-field work (gradient, divergence residual, four boundary sides)."""

    name = "boundary-sweep"
    d = 2

    def __init__(self, toy: bool = False):
        super().__init__(toy)
        self.L = 4 if toy else 32
        self.n_realizations = 2 if toy else 10

    def config(self, seed: int) -> str:
        return (f"experiment=gaussian-exact\nd=2\nL={self.L}\nkernel=nn\n"
                f"n_realizations={self.n_realizations}\nseed={seed}\n")

    def units(self) -> float:
        # every realization is an exact solve of an independent disorder draw
        return float(self.n_realizations)

    def check(self, out: Path, seed: int) -> list[str]:
        from gradlab.model import BoxGeometry, DisorderSpec, sample_disorder

        rows = _read_csv(out / "gaussian.csv")
        if [int(r["realization"]) for r in rows] != list(range(self.n_realizations)):
            return [f"gaussian.csv realizations are not 0..{self.n_realizations - 1}"]
        errors = []
        g = BoxGeometry(d=2, L=self.L)
        slack = g.n_sites * DIVERGENCE_TOL
        for row in rows:
            r = int(row["realization"])
            resid = float(row["max_divergence_residual"])
            if not resid <= DIVERGENCE_TOL:
                errors.append(f"realization {r}: divergence residual {resid:.3e}")
            eta = sample_disorder(DisorderSpec("gaussian", 1.0, seed, r), g)
            surface = self.L * sum(float(row[f"side_{s}"]) for s in (1, 2, 3, 4))
            volume = float(eta.values.sum())
            if not abs(surface - volume) <= slack:
                errors.append(f"realization {r}: boundary flux {surface!r} != "
                              f"sum of eta {volume!r}")
        return errors


class GreenColumns(Workload):
    """Criterion 08's shape: unit-source CG solves on the d=3 box, shared
    per site across separations.  No disorder, so the seed is unused."""

    name = "green-columns"
    d = 3
    interpreted = False

    def __init__(self, toy: bool = False):
        super().__init__(toy)
        self.L = 4 if toy else 32
        self.r_list = (2,) if toy else (4,)

    def config(self, seed: int) -> str:
        rs = ",".join(str(r) for r in self.r_list)
        return f"experiment=decay\nd=3\nL={self.L}\nkernel=nn\nr_list={rs}\n"

    def units(self) -> float:
        # one Green column per distinct edge endpoint, as decay_scan_d3 caches
        sites = set()
        for r in self.r_list:
            for x in {-(r // 2), r // 2}:
                sites.update({(x, 0, 0), (x, 1, 0)})
        return float(len(sites))

    def check(self, out: Path, seed: int) -> list[str]:
        rows = _read_csv(out / "decay.csv")
        reference = DECAY_REFERENCE[self.L]
        if [int(r["r"]) for r in rows] != sorted(self.r_list):
            return [f"decay.csv separations are not {sorted(self.r_list)}"]
        errors = []
        for row in rows:
            r = int(row["r"])
            for col, want in (("covariance", reference[r]),
                              ("r_times_covariance", r * reference[r])):
                got = float(row[col])
                if not abs(got - want) <= DECAY_REL_TOL * abs(want):
                    errors.append(f"r={r}: {col} {got!r} != reference {want!r}")
        return errors


class Metropolis(Workload):
    """Criteria 09/10's shape: the pure-Python sampler with a quartic
    potential, default burn-in, no linear solve."""

    name = "metropolis"
    d = 2

    def __init__(self, toy: bool = False):
        super().__init__(toy)
        self.L = 4 if toy else 8
        # 2000 is the CLI default, which the full-size config leaves unset
        self.burn_in_sweeps = 100 if toy else 2000
        # a multiple of the 30 batch-means batches, so every sweep is kept
        self.measure_sweeps = 300 if toy else 6000

    def config(self, seed: int) -> str:
        burn = f"burn_in_sweeps={self.burn_in_sweeps}\n" if self.toy else ""
        return (f"experiment=mcmc\nd=2\nL={self.L}\nkernel=nn\n"
                f"potential=quartic:1:0.1\n{burn}"
                f"measure_sweeps={self.measure_sweeps}\nseed={seed}\n")

    @property
    def sweeps(self) -> int:
        return self.burn_in_sweeps + self.measure_sweeps

    def units(self) -> float:
        return float(self.sweeps * self.n_sites)

    def n_edges(self) -> int:
        side = 2 * self.L + 1
        return self.d * side ** (self.d - 1) * (side + 1)

    def effective_samples(self, out: Path) -> float:
        return statistics.median(float(r["n_eff"]) for r in _read_csv(out / "edges.csv"))

    def check(self, out: Path, seed: int) -> list[str]:
        errors = []
        rows = _read_csv(out / "edges.csv")
        if len(rows) != self.n_edges():
            errors.append(f"edges.csv has {len(rows)} edges, expected {self.n_edges()}")
        for row in rows:
            if not (math.isfinite(float(row["mean"])) and float(row["stderr"]) > 0
                    and float(row["n_eff"]) >= 1):
                errors.append(f"edge {row['edge_i']}-{row['edge_j']}: bad estimate")
                break
        summary = read_manifest(out)["summaries"]
        within = summary["divergence_within_4se_fraction"]
        if not within >= MIN_WITHIN_4SE:
            errors.append(f"divergence_within_4se_fraction {within} < {MIN_WITHIN_4SE}")
        if summary["cap_rejects"] != 0:
            errors.append(f"cap_rejects {summary['cap_rejects']} != 0")
        return errors


WORKLOADS = {w.name: w for w in (BoundarySweep, GreenColumns, Metropolis)}
