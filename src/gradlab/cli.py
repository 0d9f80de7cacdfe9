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
non-convergence, a CSV holding a non-finite number, or an ``mcmc`` chain
with a proposal past ``mcmc.HEIGHT_CAP``; the CSV is still written), which
takes precedence over 3 invariant-check failure (an identity above its
tolerance); 4 any other error raised by the experiment (its type and message
in the manifest's ``summaries.error``), or a ``run_manifest.json`` that
cannot be written (``error: cannot write run_manifest.json: ...`` on stderr,
after the outputs already written).  The manifest is strict JSON: a
non-finite summary is written as ``null``.

The solver's residual target is ``gaussian.REL_TOLERANCE`` and the
``identities`` gates are ``DIVERGENCE_TOLERANCE``, ``SURFACE_TOLERANCE`` and
``SECOND_MOMENT_TOLERANCE``; the sampler proposes from each site's harmonic
conditional with a width that burn-in sets by linear response from
``mcmc.START_WIDTH``, over-relaxed in measurement by ``mcmc.OVERRELAX``, and
keeps every sweep.  None of these is a config key.

Usage::

    gradlab CONFIG [--out DIR]

Every input of a run, the seed and the box sizes included, is a key of the
config file; ``--out`` (default ``.``) only places the outputs.  Any other
flag, and any GRADLAB_* environment variable, is a config error.
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

from . import NumericalError, __version__, diagnostics, gaussian
from .model import (BoxGeometry, DisorderSpec, Kernel, Potential,
                    STREAM_CHAIN, STREAM_DISORDER, kernel_edges,
                    sample_disorder)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_INVARIANT = 3
EXIT_ERROR = 4

#: the ``identities`` experiment's gates, written to its ``tolerance`` column;
#: the divergence residual, linear in eta, is gated at DIVERGENCE_TOLERANCE sqrt(eta2)
DIVERGENCE_TOLERANCE = 1e-8
SURFACE_TOLERANCE = 1e-8
SECOND_MOMENT_TOLERANCE = 1e-6

#: the keys of every run on a lattice, and of every run that draws on one box
_LATTICE = frozenset({"d", "kernel", "eta2"})
_MODEL = _LATTICE | {"L", "disorder", "seed"}

#: the largest lattice dimension: the L = 1 box already has 3^d sites
#: (6,561 at d = 8), and the nearest-neighbour kernel 2d offsets of d
#: entries, which ``_validate`` builds
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
    burn_in_sweeps: int = 2000
    measure_sweeps: int = 20000

    def make_kernel(self) -> Kernel:
        if self.kernel == "nn":
            return Kernel.nearest_neighbor(self.d)
        if self.kernel == "axis2":
            return Kernel.axis_kernel(self.d, 2)
        raise ConfigError(f"unknown kernel {self.kernel!r}")

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


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a flat key=value config; raise ConfigError on the
    first problem, naming its line."""
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
    if "experiment" not in values:
        raise ConfigError("missing required key 'experiment'")
    try:
        config = ExperimentConfig(**values)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    _validate(config, lines)
    return config


def _validate(cfg: ExperimentConfig, given: dict[str, int]) -> None:
    """Check cfg; `given` maps each key set to its line."""
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}; "
                          f"choose one of {', '.join(EXPERIMENTS)}")
    if not 1 <= cfg.d <= MAX_D:
        raise ConfigError(f"d must be between 1 and {MAX_D}")
    if cfg.seed < 0:
        raise ConfigError("seed must be >= 0")
    cfg.make_kernel()
    exp, spec = cfg.experiment, EXPERIMENTS[cfg.experiment]
    for key, line in given.items():
        if key not in spec.keys | {"experiment"}:
            raise ConfigError(f"{exp} experiment does not read {key!r}", line)
    for key in sorted(spec.keys & {"L", "L_list", "r_list", "R_list"}):
        if getattr(cfg, key) in (None, ()):
            raise ConfigError(f"{exp} experiment requires {key}")
    if spec.min_L is not None and min(cfg.L_list or (cfg.L,)) < spec.min_L:
        raise ConfigError(f"L must be >= {spec.min_L} for {exp}")
    if spec.d is not None and cfg.d != spec.d:
        raise ConfigError(f"{exp} experiment requires d={spec.d}")
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
    if cfg.measure_sweeps < 100:
        raise ConfigError("measure_sweeps must be >= 100")
    if cfg.burn_in_sweeps < 0:
        raise ConfigError("burn_in_sweeps must be >= 0")
    try:
        cfg.disorder_spec()
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


def _finite(rows: Any) -> bool:
    """Whether every float in the rows is finite."""
    return all(math.isfinite(x) for row in rows for x in row if isinstance(x, float))


def _strict(x: Any) -> Any:
    """x with every non-finite float replaced by None, for strict JSON."""
    if isinstance(x, dict):
        return {k: _strict(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_strict(v) for v in x]
    return None if isinstance(x, float) and not math.isfinite(x) else x


class RunResult(NamedTuple):
    exit_code: int
    files: list[Path]
    manifest: dict[str, Any]
    #: why ``run_manifest.json`` could not be written, if it could not
    unwritten: str | None = None


#: what a runner returns: the CSV's header and rows, the manifest's
#: summaries and the exit code
Outcome = tuple[list[str], list[list[Any]], dict[str, Any], int]


# ---------------------------------------------------------------------------
# experiments


def _run_quadrature(cfg: ExperimentConfig) -> Outcome:
    from . import quadrature
    rows = []
    for R in cfg.R_list:
        j = quadrature.j_of_r(R)
        rows.append([R, j, abs(j - quadrature.PI2) / quadrature.PI2])
    return ["R", "J", "rel_dev_pi2"], rows, {"pi_squared": quadrature.PI2}, EXIT_OK


def _run_identities(cfg: ExperimentConfig) -> Outcome:
    k = cfg.make_kernel()
    g = BoxGeometry(cfg.d, cfg.L)
    A = gaussian.DirichletLaplacian(g, k)

    surface_dev, _, second_rel = diagnostics.boundary_identities(A, cfg.eta2)
    rows = [
        ["surface_identity_max_deviation", surface_dev, SURFACE_TOLERANCE,
         surface_dev <= SURFACE_TOLERANCE],
        ["second_moment_relative_difference", second_rel, SECOND_MOMENT_TOLERANCE,
         second_rel <= SECOND_MOMENT_TOLERANCE],
    ]
    worst_resid = 0.0
    for r in range(cfg.n_realizations):
        eta = sample_disorder(cfg.disorder_spec(r), g)
        X = gaussian.mean_gradient(A, eta)
        _, mx = diagnostics.divergence_residual(X, eta)
        worst_resid = max(worst_resid, mx)
    tolerance = DIVERGENCE_TOLERANCE * math.sqrt(cfg.eta2)
    rows.append(["divergence_max_residual", worst_resid, tolerance,
                 worst_resid <= tolerance])
    ok = all(r[3] for r in rows)
    summary = {"checks": {r[0]: r[1] for r in rows}, "all_pass": ok}
    return (["check", "value", "tolerance", "pass"], rows, summary,
            EXIT_OK if ok else EXIT_INVARIANT)


def _run_gaussian_exact(cfg: ExperimentConfig) -> Outcome:
    k = cfg.make_kernel()
    g = BoxGeometry(cfg.d, cfg.L)
    A = gaussian.DirichletLaplacian(g, k)

    rows = []
    for r in range(cfg.n_realizations):
        eta = sample_disorder(cfg.disorder_spec(r), g)
        X = gaussian.mean_gradient(A, eta)
        _, mx = diagnostics.divergence_residual(X, eta)
        rows.append([r, mx, *diagnostics.boundary_ergodic_average(X)])
    sides = np.array([r[2:] for r in rows], dtype=float)
    n = len(rows)
    summary = {
        "side_means": [float(m) for m in sides.mean(axis=0)],
        "side_stderrs": [float(s) for s in sides.std(axis=0, ddof=1) / math.sqrt(n)]
        if n > 1 else None,
        "max_divergence_residual": max(r[1] for r in rows),
    }
    return (["realization", "max_divergence_residual",
             "side_1", "side_2", "side_3", "side_4"], rows, summary, EXIT_OK)


def _run_mcmc(cfg: ExperimentConfig) -> Outcome:
    from . import mcmc
    k = cfg.make_kernel()
    g = BoxGeometry(cfg.d, cfg.L)
    eta = sample_disorder(cfg.disorder_spec(0), g)
    exact = None
    if cfg.potential.b == 0.0:
        # X = E[V'(phi')] matches the unit-stiffness response for any c:
        # the measure's mean gradient scales by 1/c and V' by c.
        A = gaussian.DirichletLaplacian(g, k)
        exact = gaussian.mean_gradient(A, eta).values
    est = mcmc.estimate_gradient_mean(g, k, cfg.potential, eta, cfg.burn_in_sweeps,
                                      cfg.measure_sweeps, seed=cfg.seed)
    header = ["edge_i", "edge_j", "mean", "stderr", "n_eff"]
    mean, stderr, n_eff = (f.values for f in (est.mean, est.stderr, est.n_eff))
    columns = [mean, stderr, n_eff]
    if exact is not None:
        header.append("exact")
        columns.append(exact)
    rows = [[_site_str(i), _site_str(j)] + values for (i, j), values
            in zip(kernel_edges(g, k), np.stack(columns, axis=1).tolist())]
    resid, se = mcmc.divergence_check(est, eta)
    # np.median would load numpy.ma inside the clock
    ordered = np.sort(n_eff)
    summary = {
        "proposal": "overrelaxed-harmonic-conditional",
        "overrelaxation": est.overrelaxation,
        "acceptance_rate": est.acceptance_rate,
        "proposal_width": est.proposal_width,
        "width_change_last_block": est.width_change,
        "cap_rejects": est.cap_rejects,
        "retained_sweeps": est.retained,
        "n_eff_median": float(ordered[(len(ordered) - 1) // 2] + ordered[len(ordered) // 2]) / 2,
        "n_eff_min": float(ordered[0]),
        "divergence_within_4se_fraction": float((np.abs(resid) <= 4.0 * se).mean()),
    }
    if exact is not None:
        covered = np.abs(mean - exact) <= 3.0 * stderr
        summary["fraction_within_3se_of_exact"] = np.count_nonzero(covered) / len(exact)
    # a proposal past the cap is no sample of the measure: the means are off
    return header, rows, summary, EXIT_NUMERICAL if est.cap_rejects else EXIT_OK


def _run_scaling(cfg: ExperimentConfig) -> Outcome:
    scan = diagnostics.variance_scaling_scan(cfg.d, list(cfg.L_list), cfg.eta2,
                                             kernel=cfg.make_kernel())
    summary: dict[str, Any] = {}
    if len(scan) >= 3 and _finite(scan):
        a, b, r2 = diagnostics.fit("log-linear", scan)
        summary["log_linear_fit"] = {"intercept": a, "slope_per_log2": b,
                                     "r_squared": r2}
    return ["L", "variance", "err"], [list(r) for r in scan], summary, EXIT_OK


def _run_decay(cfg: ExperimentConfig) -> Outcome:
    covs = diagnostics.decay_scan_d3(cfg.L, list(cfg.r_list), cfg.eta2)
    rows = [[r, c, r * c] for r, c, _ in covs]
    # a covariance that overflowed, or underflowed to 0, has no relative error bound
    bounded = _finite(covs) and all(c for _, c, _ in covs)
    summary: dict[str, Any] = {
        "max_relative_err": max(e / abs(c) for _, c, e in covs) if bounded else None}
    # the power law fits log c: only the rows of a positive, finite covariance
    fitted = tuple(row for row in covs if row[0] > 0 and 0.0 < row[1] < math.inf)
    if len(fitted) >= 3 and _finite(fitted):
        c, q, r2 = diagnostics.fit("power-law", fitted)
        summary["power_law_fit"] = {"amplitude": c, "exponent": q, "r_squared": r2}
    return ["r", "covariance", "r_times_covariance"], rows, summary, EXIT_OK


def _run_clt(cfg: ExperimentConfig) -> Outcome:
    scan = diagnostics.clt_scan(list(cfg.L_list), cfg.n_realizations,
                                cfg.disorder_spec(0))
    rows = [[L, v, e, diagnostics.clt_population_value(int(L), 2, cfg.eta2)]
            for L, v, e in scan]
    worst = max(abs(v - a) / a for _, v, _, a in rows)
    return (["L", "variance", "jackknife_err", "analytic"], rows,
            {"max_relative_deviation": worst}, EXIT_OK)


class Experiment(NamedTuple):
    """What one experiment reads, requires, loads and writes.  A run given a
    key outside ``keys`` rejects it.  ``cli.run`` writes the rows ``run``
    returns to the file named ``csv``."""

    run: Callable[[ExperimentConfig], Outcome]
    csv: str                             # the file name of its CSV
    keys: frozenset[str]                 # the keys read besides ``experiment``
    d: int | None = None                 # the one dimension it runs in
    min_L: int | None = None             # None: it runs on no box
    min_realizations: int | None = None  # None: it reads no n_realizations
    nn_only: bool = False                # it accepts only ``kernel=nn``
    gaussian: str | None = None          # "solve", "scan" (covariances) or None
    preloads: tuple[str, ...] = ()       # its own modules (see _preloads)


#: the experiments, in the order the "choose one of" message lists them
EXPERIMENTS = {
    "gaussian-exact": Experiment(_run_gaussian_exact, "gaussian.csv",
                                 _MODEL | {"n_realizations"}, d=2, min_L=1,
                                 min_realizations=1, gaussian="solve"),
    "mcmc": Experiment(_run_mcmc, "edges.csv",
                       _MODEL | {"potential", "burn_in_sweeps", "measure_sweeps"},
                       min_L=0, preloads=("gradlab.mcmc",)),
    "scaling": Experiment(_run_scaling, "scaling.csv", _LATTICE | {"L_list"},
                          min_L=1, gaussian="scan"),
    "decay": Experiment(_run_decay, "decay.csv", _LATTICE | {"L", "r_list"},
                        d=3, min_L=0, nn_only=True, gaussian="scan"),
    "clt": Experiment(_run_clt, "clt.csv",
                      _LATTICE | {"L_list", "n_realizations", "disorder", "seed"},
                      d=2, min_L=1, min_realizations=100, nn_only=True),
    "quadrature": Experiment(_run_quadrature, "quadrature.csv", frozenset({"R_list"}),
                             preloads=("gradlab.quadrature",)),
    "identities": Experiment(_run_identities, "identities.csv",
                             _MODEL | {"n_realizations"}, min_L=0,
                             min_realizations=1, gaussian="solve"),
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
    exact_column = cfg.experiment == "mcmc" and cfg.potential.b == 0.0
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
    """The keys the run reads, with their values."""
    echo: dict[str, Any] = {}
    for key in sorted(EXPERIMENTS[cfg.experiment].keys | {"experiment"}):
        v = getattr(cfg, key)
        if isinstance(v, Potential):
            v = f"quadratic:{v.a}" if v.b == 0.0 else f"quartic:{v.a}:{v.b}"
        elif isinstance(v, tuple):
            v = list(v)
        echo[key] = v
    return echo


def _environment() -> dict[str, Any]:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "cpu_count": os.cpu_count()}


def run(cfg: ExperimentConfig, out_dir: str | Path = ".") -> RunResult:
    """Execute the experiment, writing its CSV and a JSON manifest into
    out_dir (ConfigError, before any work, if out_dir cannot be created).
    A CSV holding a non-finite number is a numerical failure."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from None
    start = time.perf_counter()
    for module in _preloads(cfg):
        importlib.import_module(module)
    t0 = time.perf_counter()
    spec = EXPERIMENTS[cfg.experiment]
    files: list[Path] = []
    try:
        header, rows, summary, code = spec.run(cfg)
        _write_csv(out / spec.csv, header, rows)
        files.append(out / spec.csv)
        if not _finite(rows):
            summary["error"] = f"{spec.csv} holds a non-finite number"
            code = EXIT_NUMERICAL
    except NumericalError as exc:
        summary, code = {"error": str(exc)}, EXIT_NUMERICAL
    except Exception as exc:  # a fault of the run, say an unwritable CSV
        summary, code = {"error": f"{type(exc).__name__}: {exc}"}, EXIT_ERROR
    status = {EXIT_OK: "ok", EXIT_INVARIANT: "invariant-failure",
              EXIT_NUMERICAL: "numerical-failure", EXIT_ERROR: "error"}[code]
    solver = _solver(cfg)
    manifest = _strict({
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
    })
    manifest_path = out / "run_manifest.json"
    try:
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    except OSError as exc:
        return RunResult(EXIT_ERROR, files, manifest, f"{type(exc).__name__}: {exc}")
    files.append(manifest_path)
    return RunResult(code, files, manifest)


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:  # exit 1 like any config error
        raise ConfigError(message)


def main(argv: list[str] | None = None) -> int:
    parser = _ArgumentParser(
        prog="gradlab",
        description="Run a gradient-interface experiment from a config file.")
    parser.add_argument("config", help="path to a key=value config file")
    parser.add_argument("--out", default=".", help="output directory")
    try:
        args = parser.parse_args(argv)
        stray = sorted(name for name in os.environ if name.startswith("GRADLAB_"))
        if stray:
            raise ConfigError(f"unrecognized environment variables: {' '.join(stray)}")
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        result = run(parse_config(text), args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    for f in result.files:
        print(f)
    if result.manifest["status"] != "ok":
        print(f"status: {result.manifest['status']}", file=sys.stderr)
    if result.unwritten:
        print(f"error: cannot write run_manifest.json: {result.unwritten}", file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
