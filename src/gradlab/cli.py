"""Reproducible experiment driver.

Configs are flat UTF-8 ``key=value`` files ('#' starts a comment).  Every
run writes one or more CSV result files plus ``run_manifest.json`` echoing
the config, the versions, the timings and the derived per-task seeds;
re-running the same config with the same version reproduces the CSVs byte
for byte.  Floats are serialized with 17 significant digits.

Each experiment is one ``Experiment`` record in ``EXPERIMENTS``: its
runner, its keys, the sizes, dimension and kernel it requires, the kind of
its exact Gaussian numbers and its preloads.  ``_validate`` is one pass
that checks a config against its record.

Seed discipline: a single master ``seed`` is split into independent
streams with counter-style spawn keys, (0, realization) for disorder
fields and (1, chain) for Markov chains, so execution order never changes
results.

The manifest's ``solver`` key records the method of the Gaussian numbers:
"pcg" for every run that solves (``gaussian.solve_array``: the sine solve,
continued by preconditioned conjugate gradients where it alone misses the
tolerance), or "spectral" for the ``nn`` covariance scans (``scaling``,
``decay``), which solve nothing.

Exit codes: 0 success; 1 config error; 2 numerical failure (solver
non-convergence); 3 invariant-check failure (an identity above its
tolerance); 4 any other error raised by the experiment (its type and message
in the manifest's ``summaries.error``).  The ``identities`` gates are the
constants ``DIVERGENCE_TOLERANCE``, ``SURFACE_TOLERANCE`` and
``SECOND_MOMENT_TOLERANCE``, and the sampler's Bactrian proposals have the
shape ``mcmc.SPIKE`` and a width that burn-in tunes toward the acceptance
``mcmc.TARGET_ACCEPTANCE``; none of them is a config key.

Usage::

    gradlab CONFIG [--out DIR] [--seed S]

with environment overrides GRADLAB_OUT, GRADLAB_SEED (flags win over the
environment), validated together with the file.  A usage error, such as
any other flag or GRADLAB_* variable, is a config error.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, NoReturn

import numpy as np

from . import NumericalError, __version__, diagnostics, gaussian
from .model import (BoxGeometry, DisorderSpec, Kernel, Potential,
                    STREAM_CHAIN, STREAM_DISORDER, kernel_edges,
                    sample_disorder)

if TYPE_CHECKING:
    from . import mcmc

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_INVARIANT = 3
EXIT_ERROR = 4

#: the ``identities`` experiment's gates, written to its ``tolerance`` column
DIVERGENCE_TOLERANCE = 1e-8
SURFACE_TOLERANCE = 1e-8
SECOND_MOMENT_TOLERANCE = 1e-6

#: the keys of every run on a box, and of every run that samples disorder
_BOX = frozenset({"d", "L", "kernel", "eta2"})
_MODEL = _BOX | {"potential", "disorder", "seed"}

#: the largest lattice dimension: the padded one-site box alone has 3^d
#: cells (5^d for ``axis2``), and the nearest-neighbour kernel 2d offsets of
#: d entries, which ``_validate`` builds
MAX_D = 8


class ConfigError(ValueError):
    """Invalid config text; carries the offending line number (1-based)."""

    def __init__(self, message: str, line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    d: int = 2
    L: int | None = None
    L_list: tuple[int, ...] | None = None
    r_list: tuple[int, ...] | None = None
    R_list: tuple[float, ...] | None = None
    kernel: str = "nn"
    potential: Potential = Potential.quadratic(1.0)
    disorder: str = "gaussian"
    eta2: float = 1.0
    seed: int = 0
    n_realizations: int = 1
    proposal_width: float = 1.0
    burn_in_sweeps: int = 2000
    measure_sweeps: int = 20000
    thin: int = 1
    rel_tolerance: float = 1e-10

    def make_kernel(self) -> Kernel:
        if self.kernel == "nn":
            return Kernel.nearest_neighbor(self.d)
        if self.kernel == "axis2":
            return Kernel.axis_kernel(self.d, 2)
        raise ConfigError(f"unknown kernel {self.kernel!r}")

    def solver(self) -> gaussian.SolverConfig:
        return gaussian.SolverConfig(rel_tolerance=self.rel_tolerance)

    def sampler(self) -> mcmc.SamplerConfig:
        from . import mcmc
        return mcmc.SamplerConfig(
            proposal_width=self.proposal_width,
            burn_in_sweeps=self.burn_in_sweeps,
            measure_sweeps=self.measure_sweeps, thin=self.thin)

    def disorder_spec(self, realization: int = 0) -> DisorderSpec:
        return DisorderSpec(self.disorder, self.eta2, self.seed, realization)


def _float(raw: str) -> float:
    x = float(raw)
    if not math.isfinite(x):
        raise ValueError(f"not a finite number: {raw.strip()!r}")
    return x


def _parse_potential(raw: str) -> Potential:
    parts = raw.split(":")
    if parts[0] == "quadratic" and len(parts) == 2:
        return Potential.quadratic(_float(parts[1]))
    if parts[0] == "quartic" and len(parts) == 3:
        return Potential.quartic(_float(parts[1]), _float(parts[2]))
    raise ValueError(f"potential must be quadratic:C or quartic:A:B, got {raw!r}")


def _distinct(values: tuple) -> tuple:
    """`values`, unless one repeats: a scan would write its row twice."""
    for n, x in enumerate(values):
        if x in values[:n]:
            raise ValueError(f"duplicate entry {x!r}")
    return values


def _int_list(raw: str) -> tuple[int, ...]:
    return _distinct(tuple(int(p.strip()) for p in raw.split(",") if p.strip()))


def _float_list(raw: str) -> tuple[float, ...]:
    return _distinct(tuple(_float(p) for p in raw.split(",") if p.strip()))


#: the parser of each field type of ExperimentConfig: the fields are the keys
_PARSERS: dict[str, Callable[[str], Any]] = {
    "str": str, "int": int, "int | None": int, "float": _float,
    "Potential": _parse_potential,
    "tuple[int, ...] | None": _int_list, "tuple[float, ...] | None": _float_list}
_CASTERS = {f.name: _PARSERS[f.type] for f in fields(ExperimentConfig)}


def parse_config(text: str, overrides: dict[str, Any] | None = None) -> ExperimentConfig:
    """Parse and validate a flat key=value config; raise ConfigError on the
    first problem, naming its line.

    ``overrides`` (typed values, as from command-line flags or the
    environment) replace keys of the text before the one validation pass.
    """
    values: dict[str, Any] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key=value, got {raw!r}", lineno)
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _CASTERS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        lines[key] = lineno
        try:
            values[key] = _CASTERS[key](val)
        except ConfigError:
            raise
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key}: {exc}", lineno) from exc
    values.update(overrides or {})
    if "experiment" not in values:
        raise ConfigError("missing required key 'experiment'")
    try:
        config = ExperimentConfig(**values)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    _validate(config, {key: lines.get(key) for key in values})
    return config


def _sizes(cfg: ExperimentConfig) -> tuple[int, ...]:
    """The box sizes of the run: ``L_list`` when set, else ``L`` if set."""
    return cfg.L_list or ((cfg.L,) if cfg.L is not None else ())


def _validate(cfg: ExperimentConfig, given: dict[str, int | None]) -> None:
    """Check cfg; `given` maps each key set to its line (None: an override)."""
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}; "
                          f"choose one of {', '.join(EXPERIMENTS)}")
    if not 1 <= cfg.d <= MAX_D:
        raise ConfigError(f"d must be between 1 and {MAX_D}")
    if cfg.seed < 0:
        raise ConfigError("seed must be >= 0")
    cfg.make_kernel()
    exp, spec = cfg.experiment, EXPERIMENTS[cfg.experiment]
    reads = spec.keys | {"experiment"} | (
        {"rel_tolerance"} if _solver(cfg) == "pcg" else set())
    if cfg.L_list and "L_list" in reads:
        reads -= {"L"}
    for key, line in given.items():
        if key not in reads:
            raise ConfigError(f"{exp} experiment does not read {key!r}", line)
    if spec.min_L is not None:
        if not _sizes(cfg):
            raise ConfigError(f"{exp} experiment requires "
                              + " or ".join(sorted(spec.keys & {"L", "L_list"})))
        if min(_sizes(cfg)) < spec.min_L:
            raise ConfigError(f"L must be >= {spec.min_L} for {exp}")
    if spec.d is not None and cfg.d != spec.d:
        raise ConfigError(f"{exp} experiment requires d={spec.d}")
    for key in sorted(spec.keys & {"r_list", "R_list"}):
        if not getattr(cfg, key):
            raise ConfigError(f"{exp} experiment requires {key}")
    if any(r <= 0 for r in cfg.R_list or ()):
        raise ConfigError("R_list entries must be > 0")
    if any(r < 0 or r % 2 or r > cfg.L // 2 for r in cfg.r_list or ()):
        raise ConfigError("r_list entries must be even separations r with "
                          f"0 <= r <= L//2 = {cfg.L // 2}")
    if spec.nn_only and cfg.kernel != "nn":
        raise ConfigError(f"{exp} experiment requires kernel=nn")
    if spec.min_realizations is not None and cfg.n_realizations < spec.min_realizations:
        raise ConfigError(f"{exp} experiment requires n_realizations >= "
                          f"{spec.min_realizations}")
    if spec.gaussian is not None and cfg.potential.b != 0.0:
        raise ConfigError(f"{exp} experiment requires a quadratic potential "
                          "(no quartic term)")
    try:
        cfg.disorder_spec()
        cfg.solver()
        if exp == "mcmc":
            cfg.sampler()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# output helpers


def _fmt(x: Any) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _site_str(site: tuple[int, ...]) -> str:
    return ":".join(str(c) for c in site)


def _write_csv(path: Path, header: list[str], rows: list[list[Any]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


class RunResult(NamedTuple):
    exit_code: int
    files: list[Path]
    manifest: dict[str, Any]


# ---------------------------------------------------------------------------
# experiments


def _run_quadrature(cfg: ExperimentConfig, out: Path) -> tuple[list[Path], dict, int]:
    from . import quadrature
    rows = []
    for R in cfg.R_list:
        j = quadrature.j_of_r(R)
        rows.append([R, j, abs(j - quadrature.PI2) / quadrature.PI2])
    path = out / "quadrature.csv"
    _write_csv(path, ["R", "J", "rel_dev_pi2"], rows)
    return [path], {"pi_squared": quadrature.PI2}, EXIT_OK


def _run_identities(cfg: ExperimentConfig, out: Path) -> tuple[list[Path], dict, int]:
    k = cfg.make_kernel()
    g = BoxGeometry.for_kernel(cfg.d, cfg.L, k)
    A = gaussian.DirichletLaplacian(g, k)
    solver = cfg.solver()

    w = gaussian.solve_array(A, gaussian.exterior_leak(A), solver)
    surface_dev = gaussian.surface_identity_check(A, solver, w)
    second = diagnostics.second_moment_identity(g, k, cfg.eta2, solver, w)
    rows = [
        ["surface_identity_max_deviation", surface_dev, SURFACE_TOLERANCE,
         surface_dev <= SURFACE_TOLERANCE],
        ["second_moment_relative_difference", second.relative_difference,
         SECOND_MOMENT_TOLERANCE,
         second.relative_difference <= SECOND_MOMENT_TOLERANCE],
    ]
    worst_resid = 0.0
    for r in range(cfg.n_realizations):
        eta = sample_disorder(cfg.disorder_spec(r), g)
        X = gaussian.mean_gradient(A, eta, solver)
        _, mx = diagnostics.divergence_residual(X, eta, g, k)
        worst_resid = max(worst_resid, mx)
    rows.append(["divergence_max_residual", worst_resid, DIVERGENCE_TOLERANCE,
                 worst_resid <= DIVERGENCE_TOLERANCE])
    path = out / "identities.csv"
    _write_csv(path, ["check", "value", "tolerance", "pass"], rows)
    ok = all(r[3] for r in rows)
    summary = {"checks": {r[0]: r[1] for r in rows}, "all_pass": ok}
    return [path], summary, EXIT_OK if ok else EXIT_INVARIANT


def _run_gaussian_exact(cfg: ExperimentConfig, out: Path) -> tuple[list[Path], dict, int]:
    k = cfg.make_kernel()
    g = BoxGeometry.for_kernel(cfg.d, cfg.L, k)
    A = gaussian.DirichletLaplacian(g, k)
    solver = cfg.solver()

    rows = []
    for r in range(cfg.n_realizations):
        eta = sample_disorder(cfg.disorder_spec(r), g)
        X = gaussian.mean_gradient(A, eta, solver)
        _, mx = diagnostics.divergence_residual(X, eta, g, k)
        rows.append([r, mx] + [diagnostics.boundary_ergodic_average(X, g, k, s)
                               for s in (1, 2, 3, 4)])
    path = out / "gaussian.csv"
    _write_csv(path, ["realization", "max_divergence_residual",
                      "side_1", "side_2", "side_3", "side_4"], rows)
    sides = np.array([r[2:] for r in rows], dtype=float)
    n = len(rows)
    summary = {
        "side_means": [float(m) for m in sides.mean(axis=0)],
        "side_stderrs": [float(s) for s in sides.std(axis=0, ddof=1) / math.sqrt(n)]
        if n > 1 else [0.0] * 4,
        "max_divergence_residual": max(r[1] for r in rows),
    }
    return [path], summary, EXIT_OK


def _run_mcmc(cfg: ExperimentConfig, out: Path) -> tuple[list[Path], dict, int]:
    from . import mcmc
    k = cfg.make_kernel()
    g = BoxGeometry.for_kernel(cfg.d, cfg.L, k)
    eta = sample_disorder(cfg.disorder_spec(0), g)
    exact = None
    if cfg.potential.family == "quadratic":
        # X = E[V'(phi')] matches the unit-stiffness response for any c:
        # the measure's mean gradient scales by 1/c and V' by c.
        A = gaussian.DirichletLaplacian(g, k)
        exact = gaussian.mean_gradient(A, eta, cfg.solver()).edge_values()
    est = mcmc.estimate_gradient_mean(g, k, cfg.potential, eta, cfg.sampler(),
                                      seed=cfg.seed)
    header = ["edge_i", "edge_j", "mean", "stderr", "n_eff"]
    mean, stderr, n_eff = (f.edge_values() for f in (est.mean, est.stderr, est.n_eff))
    columns = [mean, stderr, n_eff]
    if exact is not None:
        header.append("exact")
        columns.append(exact)
    rows = [[_site_str(i), _site_str(j)] + values for (i, j), values
            in zip(kernel_edges(g, k), np.stack(columns, axis=1).tolist())]
    path = out / "edges.csv"
    _write_csv(path, header, rows)
    resid, se = mcmc.divergence_check(est, eta, g, k)
    ratio = np.abs(resid) / np.where(se > 0, se, np.inf)
    # np.median would load numpy.ma inside the clock
    ordered = np.sort(n_eff)
    summary = {
        "proposal": f"bactrian:{mcmc.SPIKE}",
        "target_acceptance": mcmc.TARGET_ACCEPTANCE,
        "acceptance_rate": est.acceptance_rate,
        "proposal_width": est.proposal_width,
        "cap_rejects": est.cap_rejects,
        "n_eff_median": float(ordered[(len(ordered) - 1) // 2] + ordered[len(ordered) // 2]) / 2,
        "n_eff_min": float(ordered[0]),
        "divergence_within_4se_fraction": float((ratio <= 4.0).mean()),
    }
    if exact is not None:
        covered = np.abs(mean - exact) <= 3.0 * stderr
        summary["fraction_within_3se_of_exact"] = np.count_nonzero(covered) / len(exact)
    return [path], summary, EXIT_OK


def _run_scaling(cfg: ExperimentConfig, out: Path) -> tuple[list[Path], dict, int]:
    scan = diagnostics.variance_scaling_scan(cfg.d, list(_sizes(cfg)), cfg.eta2,
                                             kernel=cfg.make_kernel(),
                                             cfg=cfg.solver())
    path = out / "scaling.csv"
    _write_csv(path, ["L", "variance", "err"], [list(r) for r in scan.rows])
    summary: dict[str, Any] = {}
    if len(scan.rows) >= 3:
        f = diagnostics.fit("log-linear", scan)
        summary["log_linear_fit"] = {"intercept": f.coefficients[0],
                                     "slope_per_log2": f.coefficients[1],
                                     "r_squared": f.r_squared}
    return [path], summary, EXIT_OK


def _run_decay(cfg: ExperimentConfig, out: Path) -> tuple[list[Path], dict, int]:
    scan = diagnostics.decay_scan_d3(cfg.L, list(cfg.r_list), cfg.eta2)
    rows = [[r, c, rc] for (r, c, _), (_, rc, _)
            in zip(scan.covariance.rows, scan.compensated.rows)]
    path = out / "decay.csv"
    _write_csv(path, ["r", "covariance", "r_times_covariance"], rows)
    summary: dict[str, Any] = {}
    positive = [r for r in scan.covariance.rows if r[0] > 0]
    if len(positive) >= 3:
        f = diagnostics.fit("power-law", diagnostics.ScanResult(tuple(positive)))
        summary["power_law_fit"] = {"amplitude": f.coefficients[0],
                                    "exponent": f.coefficients[1],
                                    "r_squared": f.r_squared}
    return [path], summary, EXIT_OK


def _run_clt(cfg: ExperimentConfig, out: Path) -> tuple[list[Path], dict, int]:
    scan = diagnostics.clt_scan(list(_sizes(cfg)), cfg.n_realizations,
                                cfg.disorder_spec(0))
    rows = [[L, v, e, diagnostics.clt_population_value(int(L), 2, cfg.eta2)]
            for L, v, e in scan.rows]
    path = out / "clt.csv"
    _write_csv(path, ["L", "variance", "jackknife_err", "analytic"], rows)
    worst = max(abs(v - a) / a for _, v, _, a in rows)
    return [path], {"max_relative_deviation": worst}, EXIT_OK


class Experiment(NamedTuple):
    """What one experiment reads, requires and loads.  A run given a key
    outside ``keys`` rejects it, except that a run that solves (``_solver``
    gives "pcg") reads ``rel_tolerance``, and ``L_list`` replaces ``L``.
    Exact Gaussian numbers (``gaussian`` not None) admit no quartic term."""

    run: Callable[[ExperimentConfig, Path], tuple[list[Path], dict, int]]
    keys: frozenset[str]                 # the keys read besides ``experiment``
    d: int | None = None                 # the one dimension it runs in
    min_L: int | None = None             # None: it runs on no box
    min_realizations: int | None = None  # None: it reads no n_realizations
    nn_only: bool = False                # it accepts only ``kernel=nn``
    gaussian: str | None = None          # "solve", "scan" (covariances) or None
    preloads: tuple[str, ...] = ()       # its own modules (see _preloads)


#: the experiments, in the order the "choose one of" message lists them
EXPERIMENTS = {
    "gaussian-exact": Experiment(_run_gaussian_exact, _MODEL | {"n_realizations"},
                                 d=2, min_L=1, min_realizations=1, gaussian="solve"),
    "mcmc": Experiment(_run_mcmc, _MODEL | {"proposal_width", "burn_in_sweeps",
                                            "measure_sweeps", "thin"},
                       min_L=0, preloads=("gradlab.mcmc",)),
    "scaling": Experiment(_run_scaling, _BOX | {"L_list", "potential"},
                          min_L=1, gaussian="scan"),
    "decay": Experiment(_run_decay, _BOX | {"potential", "r_list"},
                        d=3, min_L=0, nn_only=True, gaussian="scan"),
    "clt": Experiment(_run_clt, _BOX | {"L_list", "n_realizations", "disorder", "seed"},
                      d=2, min_L=1, min_realizations=100, nn_only=True),
    "quadrature": Experiment(_run_quadrature, frozenset({"R_list"}),
                             preloads=("gradlab.quadrature",)),
    "identities": Experiment(_run_identities, _MODEL | {"n_realizations"},
                             min_L=0, min_realizations=1, gaussian="solve"),
}


def _draws(cfg: ExperimentConfig) -> bool:
    """Whether the run draws random numbers: the runs that read ``seed``."""
    return "seed" in EXPERIMENTS[cfg.experiment].keys


def _task_seeds(cfg: ExperimentConfig) -> dict[str, Any]:
    """The master seed and its streams; neither for a run that draws nothing."""
    if not _draws(cfg):
        return {"disorder_spawn_keys": [], "chain_spawn_keys": []}
    n = cfg.n_realizations if EXPERIMENTS[cfg.experiment].min_realizations else 1
    return {"master": cfg.seed,
            "disorder_spawn_keys": [[STREAM_DISORDER, r] for r in range(n)],
            "chain_spawn_keys": [[STREAM_CHAIN, 0]] if cfg.experiment == "mcmc" else []}


def _solver(cfg: ExperimentConfig) -> str | None:
    """The manifest's ``solver``; None for a run with no Gaussian numbers."""
    kind = EXPERIMENTS[cfg.experiment].gaussian
    if kind == "scan" and gaussian.sine_diagonal(cfg.make_kernel()):
        return "spectral"
    exact_column = cfg.experiment == "mcmc" and cfg.potential.family == "quadratic"
    return "pcg" if kind or exact_column else None


def _preloads(cfg: ExperimentConfig) -> list[str]:
    """What ``run`` imports before its clock: the modules the run calls that
    importing ``cli`` does not load.  numpy 2 loads ``numpy.fft`` and
    ``numpy.random`` on first use, and no module imports ``mcmc`` or
    ``quadrature`` at load, so each would otherwise load inside the clock."""
    return ([module for module, called in (("numpy.fft", _solver(cfg) == "pcg"),
                                           ("numpy.random", _draws(cfg)))
             if called] + list(EXPERIMENTS[cfg.experiment].preloads))


def _config_echo(cfg: ExperimentConfig) -> dict[str, Any]:
    echo: dict[str, Any] = {}
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, Potential):
            v = f"{v.family}:{v.a}" + (f":{v.b}" if v.family == "quartic" else "")
        elif isinstance(v, tuple):
            v = list(v)
        echo[f.name] = v
    return echo


def _environment() -> dict[str, Any]:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "cpu_count": os.cpu_count()}


def run(cfg: ExperimentConfig, out_dir: str | Path = ".") -> RunResult:
    """Execute the experiment, writing CSVs and a JSON manifest into out_dir
    (ConfigError, before any work, if out_dir cannot be created)."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from None
    start = time.perf_counter()
    for module in _preloads(cfg):
        importlib.import_module(module)
    t0 = time.perf_counter()
    files: list[Path] = []
    try:
        files, summary, code = EXPERIMENTS[cfg.experiment].run(cfg, out)
    except NumericalError as exc:
        summary, code = {"error": str(exc)}, EXIT_NUMERICAL
    except Exception as exc:  # a fault of the run, say an unwritable CSV
        summary, code = {"error": f"{type(exc).__name__}: {exc}"}, EXIT_ERROR
    status = {EXIT_OK: "ok", EXIT_INVARIANT: "invariant-failure",
              EXIT_NUMERICAL: "numerical-failure", EXIT_ERROR: "error"}[code]
    solver = _solver(cfg)
    manifest = {
        "experiment": cfg.experiment,
        "version": __version__,
        "status": status,
        "partial_outputs": status != "ok",
        "wall_time_s": time.perf_counter() - t0,
        "timings": {"import_s": t0 - start},
        "environment": _environment(),
        "seeds": _task_seeds(cfg),
        "config": _config_echo(cfg),
        "summaries": summary,
        "outputs": [f.name for f in files],
        **({"solver": solver} if solver else {}),
    }
    manifest_path = out / "run_manifest.json"
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    files.append(manifest_path)
    return RunResult(code, files, manifest)


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {raw!r}") from None


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:  # exit 1 like any config error
        raise ConfigError(message)


def main(argv: list[str] | None = None) -> int:
    parser = _ArgumentParser(
        prog="gradlab",
        description="Run a gradient-interface experiment from a config file.")
    parser.add_argument("config", help="path to a key=value config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    try:
        args = parser.parse_args(argv)
        stray = sorted(name for name in os.environ if name.startswith("GRADLAB_")
                       and name not in ("GRADLAB_OUT", "GRADLAB_SEED"))
        if stray:
            raise ConfigError(f"unrecognized environment variables: {' '.join(stray)}")
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        seed = args.seed if args.seed is not None else _env_int("GRADLAB_SEED")
        cfg = parse_config(text, {"seed": seed} if seed is not None else None)
        result = run(cfg, args.out or os.environ.get("GRADLAB_OUT") or ".")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    for f in result.files:
        print(f)
    if result.exit_code != EXIT_OK:
        print(f"status: {result.manifest['status']}", file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
