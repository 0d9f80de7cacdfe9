"""Reproducible experiment driver.

Configs are flat UTF-8 ``key=value`` files ('#' starts a comment).  Every
run writes one or more CSV result files plus ``run_manifest.json`` echoing
the config, the versions, the timings and the derived per-task seeds;
re-running the same config with the same version reproduces the CSVs byte
for byte.  Floats are serialized with 17 significant digits.

Seed discipline: a single master ``seed`` is split into independent
streams with counter-style spawn keys, (0, realization) for disorder
fields and (1, chain) for Markov chains, so execution order never changes
results.

The manifest's ``solver`` key records the method of the Gaussian numbers:
"dst" or "cg" (``gaussian.solver_method``), or "spectral" for the ``nn``
covariance scans (``scaling``, ``decay``), which solve nothing.

Exit codes: 0 success; 1 config error; 2 numerical failure (solver or
quadrature non-convergence); 3 invariant-check failure (an identity above
its tolerance).  The ``identities`` gates are the constants
``DIVERGENCE_TOLERANCE``, ``SURFACE_TOLERANCE`` and
``SECOND_MOMENT_TOLERANCE``; the ``quadrature`` experiment runs at
``quadrature.DEFAULT_QUADRATURE`` and the sampler's burn-in tunes its
proposal width toward ``mcmc.TARGET_ACCEPTANCE``; none of them is a
config key.

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
from typing import Any, Callable, NamedTuple, NoReturn

import numpy as np

from . import __version__
from . import diagnostics, gaussian, mcmc, quadrature
from .model import (BoxGeometry, DisorderSpec, Kernel, Potential,
                    STREAM_CHAIN, STREAM_DISORDER, kernel_edges,
                    sample_disorder)

EXPERIMENTS = ("gaussian-exact", "mcmc", "scaling", "decay", "clt",
               "quadrature", "identities")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_INVARIANT = 3

#: the ``identities`` experiment's gates, written to its ``tolerance`` column
DIVERGENCE_TOLERANCE = 1e-8
SURFACE_TOLERANCE = 1e-8
SECOND_MOMENT_TOLERANCE = 1e-6

#: the scipy module a run calls, by ``_solver`` or else by experiment; no
#: other module imports scipy at load, and ``dst`` solves need none
SCIPY_MODULES = {"cg": "scipy.sparse.linalg", "quadrature": "scipy.integrate"}
#: what ``run`` imports before its clock: the scipy module, or for a ``dst``
#: solve ``numpy.fft``, which numpy 2 loads on first use, inside the clock
PRELOADS = {"dst": "numpy.fft", **SCIPY_MODULES}

#: the keys each experiment reads besides ``experiment``; a run given any
#: other key rejects it.  Beyond these, a run that solves (``_solver`` gives
#: "dst" or "cg") reads ``rel_tolerance``, and ``L_list`` replaces ``L``.
_MODEL = {"d", "L", "kernel", "potential", "disorder", "eta2", "seed"}
KEYS = {
    "identities": _MODEL | {"n_realizations"},
    "gaussian-exact": _MODEL | {"n_realizations"},
    "mcmc": _MODEL | {"proposal_width", "burn_in_sweeps", "measure_sweeps", "thin"},
    "scaling": {"d", "L", "L_list", "kernel", "potential", "eta2"},
    "decay": {"d", "L", "kernel", "potential", "eta2", "r_list"},
    "clt": {"d", "L", "L_list", "kernel", "n_realizations", "disorder", "eta2", "seed"},
    "quadrature": {"R_list"},
}

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


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(p.strip()) for p in raw.split(",") if p.strip())


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(_float(p) for p in raw.split(",") if p.strip())


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
    exp = cfg.experiment
    reads = KEYS[exp] | {"experiment"} | (
        {"rel_tolerance"} if _solver(cfg) in ("dst", "cg") else set())
    if cfg.L_list and "L_list" in reads:
        reads.discard("L")
    for key, line in given.items():
        if key not in reads:
            raise ConfigError(f"{exp} experiment does not read {key!r}", line)
    if exp == "quadrature":
        if not cfg.R_list:
            raise ConfigError("quadrature experiment requires R_list")
        if any(r <= 0 for r in cfg.R_list):
            raise ConfigError("R_list entries must be > 0")
    if exp in ("scaling", "clt"):
        ls = cfg.L_list if cfg.L_list else ((cfg.L,) if cfg.L is not None else None)
        if not ls:
            raise ConfigError(f"{exp} experiment requires L or L_list")
        if any(L < 1 for L in ls):
            raise ConfigError(f"L must be >= 1 for {exp}")
    if exp in ("gaussian-exact", "mcmc", "identities", "decay"):
        if cfg.L is None:
            raise ConfigError(f"{exp} experiment requires L")
        if cfg.L < 0:
            raise ConfigError("L must be >= 0")
    if exp == "decay":
        if cfg.d != 3:
            raise ConfigError("decay experiment requires d=3")
        if not cfg.r_list:
            raise ConfigError("decay experiment requires r_list")
        if any(r < 0 or r % 2 or r > cfg.L // 2 for r in cfg.r_list):
            raise ConfigError("r_list entries must be even separations r with "
                              f"0 <= r <= L//2 = {cfg.L // 2}")
    if exp == "gaussian-exact":
        if cfg.d != 2:
            raise ConfigError("gaussian-exact experiment requires d=2 "
                              "(per-side boundary averages)")
        if cfg.L < 1:
            raise ConfigError("gaussian-exact experiment requires L >= 1")
    if exp in ("decay", "clt") and cfg.kernel != "nn":
        raise ConfigError(f"{exp} experiment requires kernel=nn")
    if exp in ("gaussian-exact", "identities") and cfg.n_realizations < 1:
        raise ConfigError(f"{exp} experiment requires n_realizations >= 1")
    if exp in ("gaussian-exact", "identities", "scaling", "decay") and cfg.potential.b != 0.0:
        raise ConfigError(f"{exp} experiment requires a quadratic potential "
                          "(no quartic term)")
    if exp == "clt":
        if cfg.d != 2:
            raise ConfigError("clt experiment requires d=2")
        if cfg.n_realizations < 100:
            raise ConfigError("clt experiment requires n_realizations >= 100")
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
    rows = []
    for R in cfg.R_list:
        j = quadrature.j_of_r(R)
        rows.append([R, j, abs(j - quadrature.PI2) / quadrature.PI2])
    path = out / "quadrature.csv"
    _write_csv(path, ["R", "J", "rel_dev_pi2"], rows)
    summary = {"j_limit_reference": quadrature.j_limit_reference(),
               "pi_squared": quadrature.PI2}
    return [path], summary, EXIT_OK


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
    mean, stderr = est.mean.edge_values(), est.stderr.edge_values()
    columns = [mean, stderr, est.n_eff.edge_values()]
    if exact is not None:
        header.append("exact")
        columns.append(exact)
    rows = [[_site_str(i), _site_str(j)] + values for (i, j), values
            in zip(kernel_edges(g, k), np.stack(columns, axis=1).tolist())]
    path = out / "edges.csv"
    _write_csv(path, header, rows)
    resid, se = mcmc.divergence_check(est, eta, g, k)
    ratio = np.abs(resid) / np.where(se > 0, se, np.inf)
    summary = {
        "acceptance_rate": est.acceptance_rate,
        "proposal_width": est.proposal_width,
        "cap_rejects": est.cap_rejects,
        "divergence_within_4se_fraction": float((ratio <= 4.0).mean()),
    }
    if exact is not None:
        covered = np.abs(mean - exact) <= 3.0 * stderr
        summary["fraction_within_3se_of_exact"] = np.count_nonzero(covered) / len(exact)
    return [path], summary, EXIT_OK


def _run_scaling(cfg: ExperimentConfig, out: Path) -> tuple[list[Path], dict, int]:
    ls = list(cfg.L_list if cfg.L_list else (cfg.L,))
    scan = diagnostics.variance_scaling_scan(cfg.d, ls, cfg.eta2,
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
    ls = list(cfg.L_list if cfg.L_list else (cfg.L,))
    scan = diagnostics.clt_scan(ls, cfg.n_realizations, cfg.disorder_spec(0))
    rows = [[L, v, e, diagnostics.clt_population_value(int(L), 2, cfg.eta2)]
            for L, v, e in scan.rows]
    path = out / "clt.csv"
    _write_csv(path, ["L", "variance", "jackknife_err", "analytic"], rows)
    worst = max(abs(v - a) / a for _, v, _, a in rows)
    return [path], {"max_relative_deviation": worst}, EXIT_OK


_RUNNERS = {
    "quadrature": _run_quadrature,
    "identities": _run_identities,
    "gaussian-exact": _run_gaussian_exact,
    "mcmc": _run_mcmc,
    "scaling": _run_scaling,
    "decay": _run_decay,
    "clt": _run_clt,
}


def _task_seeds(cfg: ExperimentConfig) -> dict[str, Any]:
    n = cfg.n_realizations if "n_realizations" in KEYS[cfg.experiment] else 1
    return {
        "master": cfg.seed,
        "disorder_spawn_keys": [[STREAM_DISORDER, r] for r in range(n)],
        "chain_spawn_keys": [[STREAM_CHAIN, 0]] if cfg.experiment == "mcmc" else [],
    }


def _solver(cfg: ExperimentConfig) -> str | None:
    """The manifest's ``solver``; None for a run with no Gaussian numbers."""
    if cfg.experiment in ("gaussian-exact", "identities", "scaling", "decay") or (
            cfg.experiment == "mcmc" and cfg.potential.family == "quadratic"):
        method = gaussian.solver_method(cfg.make_kernel())
        scan = cfg.experiment in ("scaling", "decay")
        return "spectral" if scan and method == "dst" else method
    return None


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
    scipy = sys.modules.get("scipy")  # present only if the run called scipy
    return {"python": platform.python_version(), "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            **({"scipy": scipy.__version__} if scipy else {})}


def run(cfg: ExperimentConfig, out_dir: str | Path = ".") -> RunResult:
    """Execute the experiment, writing CSVs and a JSON manifest into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    if module := PRELOADS.get(_solver(cfg) or cfg.experiment):
        importlib.import_module(module)
    t0 = time.perf_counter()
    status = "ok"
    files: list[Path] = []
    summary: dict[str, Any] = {}
    try:
        files, summary, code = _RUNNERS[cfg.experiment](cfg, out)
        if code == EXIT_INVARIANT:
            status = "invariant-failure"
    except (gaussian.SolverError, quadrature.QuadratureError) as exc:
        status = "numerical-failure"
        summary = {"error": str(exc)}
        code = EXIT_NUMERICAL
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
    }
    solver = _solver(cfg)
    if solver is not None:
        manifest["solver"] = solver
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out = args.out or os.environ.get("GRADLAB_OUT") or "."
    result = run(cfg, out)
    for f in result.files:
        print(f)
    if result.exit_code != EXIT_OK:
        print(f"status: {result.manifest['status']}", file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
