"""gradlab benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` runs the workload's config through the real CLI
(``gradlab.cli.main``), one single-threaded process after another, for
about S seconds (at least three processes), gates every process's outputs
and reports the end-to-end metrics over the processes (see ``measure``).

``--trace 1`` runs the same config in one process, untraced and then
traced, as often as fits in S seconds (see ``tracer.py``), gates every run
and reports the per-layer metrics of the traced run with the median time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the environment, the failure fraction and each metric with its
unit.  Workloads, metrics and what each should move are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave nothing behind in the checkout

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

from workloads import WORKLOADS, Workload, process_seed, read_manifest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"

CLI_MAIN = "import sys; from gradlab.cli import main; sys.exit(main())"
PROBE = """\
import json, platform, time
t = time.perf_counter()
import gradlab
t = time.perf_counter() - t
import numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"import_s": t, "python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}"}))
"""

#: every run ends within this many seconds, whatever --seconds says
HARD_LIMIT_S = 170.0
MIN_PROCESSES = 3
MAX_PROCESSES = 60
IMPORT_PROBES = 3

#: the speed probe: a pure-Python loop of PROBE_ITERATIONS, run every
#: PROBE_PERIOD_S, and the CPU seconds it takes at the reference host speed
#: (the median on the 2.1 GHz Xeon vCPU the baseline was recorded on)
PROBE_ITERATIONS = 50_000
PROBE_PERIOD_S = 0.25
REFERENCE_PROBE_S = 0.0044

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "units_per_s": "1/s",
    "ess_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: traced functions, named module.function as in tracer.py
SPANS = ("cli.run", "model.sample_disorder", "model.boundary_edges",
         "model.gradient_of", "diagnostics.divergence_residual",
         "diagnostics.boundary_ergodic_average", "gaussian.apply",
         "gaussian.solve_array", "gaussian.green_column",
         "mcmc.estimate_gradient_mean", "mcmc.divergence_check")
COUNTED = ("model.boundary_edges", "model.gradient_of", "gaussian.apply",
           "gaussian.solve_array", "gaussian.green_column")

PER_LAYER = {
    **{f"{name}.calls": "count" for name in COUNTED},
    **{f"{name}.self_s": "s" for name in SPANS},
    "gaussian.apply.ns_per_site": "ns",
    "gaussian.matvecs_per_solve": "count",
    "mcmc.site_updates_per_s": "1/s",
    "mcmc.acceptance": "ratio",
    "mcmc.cap_rejects": "count",
    "mcmc.n_eff_median": "samples",
    "setup.import_s": "s",
    "trace.overhead_s": "s",
    "trace.wall_s": "s",
}


def child_env() -> dict[str, str]:
    """Single-threaded BLAS, the checkout's sources, no bytecode files, and
    none of the CLI's own environment overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GRADLAB_")}
    env.update(PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def run_child(argv: list[str], log: Path, timeout: float) -> tuple[int | None, float, float]:
    """Run one process to its end; return (exit code or None on timeout,
    seconds from launch to exit, peak RSS in MB)."""
    with open(log, "w") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return (None if code == -9 else code), wall, usage.ru_maxrss / 1024.0


def environment(probe: dict) -> dict:
    sha = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True).stdout.strip() or "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            **{k: v for k, v in probe.items() if k != "import_s"}}


def probe(work: Path, count: int, timeout: float) -> list[dict]:
    """Fresh interpreters that time ``import gradlab`` and report versions."""
    out = []
    for i in range(count):
        log = work / f"probe-{i}.log"
        code, _, _ = run_child([sys.executable, "-c", PROBE], log, timeout)
        if code != 0:
            raise RuntimeError(f"import probe failed:\n{log.read_text()}")
        out.append(json.loads(log.read_text().strip().splitlines()[-1]))
    return out


class SpeedProbe:
    """Samples the host's speed while CLI processes run.

    A thread of this process times a short pure-Python loop every
    PROBE_PERIOD_S in its own CPU time, so time spent waiting for the CPU
    does not count but a slower CPU does.  With this process and its
    children pinned to one CPU (``pin_to_one_cpu``), the samples taken
    during a CLI process measure the CPU it ran on; the probe costs that
    process under 2 % of its CPU time."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            start = time.thread_time()
            total = 0
            for i in range(PROBE_ITERATIONS):
                total += i * i
            self.samples.append((time.perf_counter(), time.thread_time() - start))

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_PROBE_S over the mean probe time from start to end (or
        over all samples, if none fell in that interval)."""
        during = [s for t, s in self.samples if start <= t <= end] \
            or [s for _, s in self.samples]
        return REFERENCE_PROBE_S / statistics.mean(during) if during else 1.0


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def gate(w: Workload, out: Path, seed: int, code: int | None) -> list[str]:
    """Every reason this CLI run failed: exit code, manifest status, outputs."""
    errors = []
    if code is None:
        errors.append("timed out")
    elif code != 0:
        errors.append(f"exit code {code}")
    try:
        status = read_manifest(out)["status"]
        if status != "ok":
            errors.append(f"manifest status {status!r}")
        errors += w.check(out, seed)
    except (OSError, KeyError, ValueError) as exc:
        errors.append(f"unreadable output: {exc!r}")
    return errors


def measure(w: Workload, seed: int, seconds: float, work: Path,
            deadline: float) -> tuple[dict, int, dict[str, list[str]]]:
    """Untraced CLI processes until the next would end more than half a
    process past `seconds`; medians over the processes.

    Timings are taken from every process that exits 0, gated or not; the
    gate decides only correctness.  On a shared host the interpreter's
    speed swings by up to 1.9x over seconds to minutes while other tenants
    are busy, and a slow stretch can outlast a run.  So the times of an
    ``interpreted`` workload are scaled to the reference host speed by the
    ``SpeedProbe`` samples taken during each process.  Peak RSS is the
    largest of the run."""
    pin_to_one_cpu()
    start = time.perf_counter()
    raw: list[tuple[float, ...]] = []
    failed: dict[str, list[str]] = {}
    durations: list[float] = []
    attempted = 0
    speed = SpeedProbe() if w.interpreted else contextlib.nullcontext()
    with speed:
        while attempted < MAX_PROCESSES:
            now = time.perf_counter()
            if attempted >= MIN_PROCESSES and \
                    now - start + statistics.median(durations) / 2 > seconds:
                break
            i = attempted
            attempted += 1
            pseed = process_seed(seed, i)
            config, out = work / f"run-{i}.cfg", work / f"run-{i}"
            config.write_text(w.config(pseed))
            code, wall, rss = run_child(
                [sys.executable, "-c", CLI_MAIN, str(config), "--out", str(out)],
                work / f"run-{i}.log", max(1.0, deadline - now))
            ended = time.perf_counter()
            durations.append(ended - now)
            errors = gate(w, out, pseed, code)
            if errors:
                failed[f"run {i} (seed {pseed})"] = errors
            if code is None:
                break
            if code != 0:
                continue
            try:
                exp = read_manifest(out)["wall_time_s"]
                ess = w.effective_samples(out)
            except (OSError, KeyError, ValueError):
                continue
            raw.append((now, ended, wall, exp, ess, rss))
    samples: dict[str, list[float]] = defaultdict(list)
    for began, ended, wall, exp, ess, rss in raw:
        scale = speed.scale(began, ended) if w.interpreted else 1.0
        samples["raw wall"].append(wall)
        samples["scale"].append(scale)
        samples["wall"].append(wall * scale)
        samples["experiment"].append(exp * scale)
        samples["setup"].append((wall - exp) * scale)
        samples["effective"].append(ess)
        samples["rss"].append(rss)
    for name, values in samples.items():
        print(f"per process {name}: " + " ".join(f"{v:.6g}" for v in values))
    if not samples:
        return {}, attempted, failed
    experiment = statistics.median(samples["experiment"])
    metrics = {
        "wall_s": statistics.median(samples["wall"]),
        "setup_s": statistics.median(samples["setup"]),
        "units_per_s": w.units() / experiment,
        "ess_per_s": statistics.median(samples["effective"]) / experiment,
        "peak_rss_mb": max(samples["rss"]),
    }
    return metrics, attempted, failed


def layer_metrics(w: Workload, spans: list[list], run_id: int, out: Path) -> dict:
    """Per-layer numbers of one traced run from its spans and outputs."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[4] == run_id and s[3] >= 0:
            covered[s[3]] += s[2] - s[1]
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    solve_matvecs = 0
    for idx, (name, start, end, parent, rid) in enumerate(spans):
        if rid != run_id:
            continue
        self_s[name] += end - start - covered[idx]
        total_s[name] += end - start
        calls[name] += 1
        if name == "gaussian.apply" and parent >= 0 \
                and spans[parent][0] == "gaussian.solve_array":
            solve_matvecs += 1
    m = {f"{n}.calls": float(calls[n]) for n in COUNTED}
    m.update({f"{n}.self_s": self_s[n] for n in SPANS})
    applies = calls["gaussian.apply"]
    m["gaussian.apply.ns_per_site"] = \
        1e9 * self_s["gaussian.apply"] / applies / w.n_sites if applies else 0.0
    solves = calls["gaussian.solve_array"]
    m["gaussian.matvecs_per_solve"] = solve_matvecs / solves if solves else 0.0
    sampling = total_s["mcmc.estimate_gradient_mean"]
    m["mcmc.site_updates_per_s"] = \
        getattr(w, "sweeps", 0) * w.n_sites / sampling if sampling else 0.0
    m["mcmc.acceptance"] = m["mcmc.cap_rejects"] = m["mcmc.n_eff_median"] = 0.0
    if calls["mcmc.estimate_gradient_mean"]:
        summary = read_manifest(out)["summaries"]
        m["mcmc.acceptance"] = float(summary.get("acceptance_rate", 0.0))
        m["mcmc.cap_rejects"] = float(summary.get("cap_rejects", 0.0))
        m["mcmc.n_eff_median"] = w.effective_samples(out)
    m["trace.wall_s"] = total_s["cli.run"]
    return m


def trace(w: Workload, seed: int, seconds: float, work: Path,
          deadline: float) -> tuple[dict, int, dict[str, list[str]], list[str]]:
    """Untraced/traced in-process pairs; per-layer metrics of the median
    traced run, with `import gradlab` timed in fresh processes."""
    start = time.perf_counter()
    import_s = statistics.median(
        p["import_s"] for p in probe(work, IMPORT_PROBES, deadline - start))
    pseed = process_seed(seed, 0)
    config = work / "trace.cfg"
    config.write_text(w.config(pseed))
    budget = max(0.0, seconds - (time.perf_counter() - start))
    code, _, _ = run_child([sys.executable, str(TRACER), str(config), str(work), str(budget)],
                           work / "trace.log", max(1.0, deadline - time.perf_counter()))
    if code != 0:
        raise RuntimeError(f"tracer exited with {code}:\n{(work / 'trace.log').read_text()}")
    record = json.loads((work / "trace.json").read_text())
    failed: dict[str, list[str]] = {}
    pairs = len(record["traced_s"])
    for k in range(pairs):
        for kind in ("untraced", "traced"):
            errors = gate(w, work / f"{kind}-{k}", pseed, 0)
            if errors:
                failed[f"{kind} run {k} (seed {pseed})"] = errors
    traced_s = record["traced_s"]
    median_run = sorted(range(pairs), key=traced_s.__getitem__)[(pairs - 1) // 2]
    metrics = layer_metrics(w, record["spans"], median_run, work / f"traced-{median_run}")
    metrics["setup.import_s"] = import_s
    metrics["trace.overhead_s"] = \
        statistics.median(traced_s) - statistics.median(record["untraced_s"])
    return metrics, 2 * pairs, failed, record["absent"]


def main(argv: list[str] | None = None) -> int:
    began = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny configs, for the harness tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "gradlab" / "cli.py").is_file():
        print(f"error: no gradlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the gates regenerate inputs with gradlab

    w = WORKLOADS[args.workload](toy=args.toy)
    deadline = began + HARD_LIMIT_S
    absent: list[str] = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work = Path(tmp)
        try:
            if args.trace:
                metrics, attempted, failed, absent = trace(
                    w, args.seed, args.seconds, work, deadline)
                units = PER_LAYER
            else:
                metrics, attempted, failed = measure(
                    w, args.seed, args.seconds, work, deadline)
                units = END_TO_END
            env = environment(probe(work, 1, deadline - time.perf_counter())[0])
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if set(metrics) != set(units):
        print(f"error: no run of {w.name} could be measured", file=sys.stderr)
        for label, errors in failed.items():
            print(f"{label}: {'; '.join(errors)}", file=sys.stderr)
        return 1

    print("environment " + json.dumps(env, sort_keys=True))
    for label, errors in failed.items():
        print(f"FAILED {label}: {'; '.join(errors)}")
    if absent:
        print("absent, reported as 0: " + ", ".join(absent))
    print(f"{w.name}: {attempted} CLI runs, {len(failed)} failed, "
          f"fail_frac {len(failed) / attempted!r}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
