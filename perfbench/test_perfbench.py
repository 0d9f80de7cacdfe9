"""Tests of the benchmark harness at toy sizes.

    python3 -m pytest perfbench -q

The gate tests run each workload's config once through ``gradlab.cli.run``
and check that its gate accepts the outputs and rejects hand-corrupted
copies.  The smoke tests run ``run.py --toy`` end to end.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One good toy output directory per workload."""
    from gradlab import cli

    base = tmp_path_factory.mktemp("good")
    dirs = {}
    for name, cls in WORKLOADS.items():
        w = cls(toy=True)
        result = cli.run(cli.parse_config(w.config(SEED)), base / name)
        assert result.exit_code == 0
        dirs[name] = base / name
    return dirs


def corrupt_copy(src: Path, dst: Path, csv_name: str | None = None, edit=None,
                 summary: dict | None = None) -> Path:
    shutil.copytree(src, dst)
    if csv_name is not None:
        path = dst / csv_name
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        rows = edit(rows)
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    if summary is not None:
        manifest = json.loads((dst / "run_manifest.json").read_text())
        manifest["summaries"].update(summary)
        (dst / "run_manifest.json").write_text(json.dumps(manifest))
    return dst


def set_field(column: str, value):
    def edit(rows):
        rows[0][column] = value(rows[0][column])
        return rows
    return edit


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_gate_accepts_good_output(outputs, name):
    assert run.gate(WORKLOADS[name](toy=True), outputs[name], SEED, 0) == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_gate_rejects_failed_process(outputs, tmp_path, name):
    w = WORKLOADS[name](toy=True)
    assert run.gate(w, outputs[name], SEED, 3) == ["exit code 3"]
    assert run.gate(w, outputs[name], SEED, None) == ["timed out"]
    bad = corrupt_copy(outputs[name], tmp_path / "status")
    manifest = json.loads((bad / "run_manifest.json").read_text())
    manifest["status"] = "invariant-failure"
    (bad / "run_manifest.json").write_text(json.dumps(manifest))
    assert run.gate(w, bad, SEED, 0) == ["manifest status 'invariant-failure'"]
    empty = tmp_path / "empty"
    empty.mkdir()
    assert "unreadable output" in run.gate(w, empty, SEED, 0)[0]


def test_boundary_sweep_gate_rejects_divergence_residual(outputs, tmp_path):
    w = WORKLOADS["boundary-sweep"](toy=True)
    bad = corrupt_copy(outputs[w.name], tmp_path / "bad", "gaussian.csv",
                       set_field("max_divergence_residual", lambda v: "1e-07"))
    assert w.check(bad, SEED) == ["realization 0: divergence residual 1.000e-07"]


def test_boundary_sweep_gate_rejects_boundary_flux(outputs, tmp_path):
    w = WORKLOADS["boundary-sweep"](toy=True)
    bad = corrupt_copy(outputs[w.name], tmp_path / "bad", "gaussian.csv",
                       set_field("side_2", lambda v: repr(float(v) + 1e-3)))
    errors = w.check(bad, SEED)
    assert len(errors) == 1 and errors[0].startswith("realization 0: boundary flux")
    # the same outputs checked against another seed's disorder fail too
    assert len(w.check(outputs[w.name], SEED + 1)) == w.n_realizations


def test_green_columns_gate_tolerance(outputs, tmp_path):
    w = WORKLOADS["green-columns"](toy=True)
    close = corrupt_copy(outputs[w.name], tmp_path / "close", "decay.csv",
                         set_field("covariance", lambda v: repr(float(v) * (1 + 1e-7))))
    assert w.check(close, SEED) == []
    bad = corrupt_copy(outputs[w.name], tmp_path / "bad", "decay.csv",
                       set_field("covariance", lambda v: repr(float(v) * (1 + 1e-4))))
    errors = w.check(bad, SEED)
    assert len(errors) == 1 and errors[0].startswith("r=2: covariance")


def test_metropolis_gate_rejects_coverage_and_caps(outputs, tmp_path):
    w = WORKLOADS["metropolis"](toy=True)
    bad = corrupt_copy(outputs[w.name], tmp_path / "cover",
                       summary={"divergence_within_4se_fraction": 0.9})
    assert w.check(bad, SEED) == ["divergence_within_4se_fraction 0.9 < 0.95"]
    bad = corrupt_copy(outputs[w.name], tmp_path / "caps", summary={"cap_rejects": 2})
    assert w.check(bad, SEED) == ["cap_rejects 2 != 0"]
    bad = corrupt_copy(outputs[w.name], tmp_path / "rows", "edges.csv", lambda rows: rows[1:])
    assert w.check(bad, SEED)[0].startswith("edges.csv has")
    bad = corrupt_copy(outputs[w.name], tmp_path / "stderr", "edges.csv",
                       set_field("stderr", lambda v: "0"))
    assert w.check(bad, SEED)[0].endswith("bad estimate")


def bench(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke(name, trace):
    lines, result = bench(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for metric, unit in units.items():
        value = result["metrics"][metric]["value"]
        assert f"{metric} {value!r} {unit}" in lines
    assert any(line.startswith(f"{name}: ") and "fail_frac 0.0" in line for line in lines)
    m = result["metrics"]
    if trace:
        self_total = sum(v["value"] for k, v in m.items() if k.endswith(".self_s"))
        assert self_total == pytest.approx(m["trace.wall_s"]["value"], rel=1e-9)
    else:
        assert all(v["value"] > 0 for v in m.values())
        scales = next(line for line in lines if line.startswith("per process scale: "))
        scales = [float(v) for v in scales.split(": ")[1].split()]
        assert all(v > 0 for v in scales)
        if not WORKLOADS[name].interpreted:
            assert scales == [1.0] * len(scales)


def test_speed_probe_scale():
    probe = run.SpeedProbe()
    probe.samples = [(1.0, run.REFERENCE_PROBE_S), (2.0, 2 * run.REFERENCE_PROBE_S),
                     (3.0, 4 * run.REFERENCE_PROBE_S)]
    assert probe.scale(1.5, 2.5) == 0.5
    assert probe.scale(0.5, 2.5) == pytest.approx(1 / 1.5)
    # no sample in the interval: the mean of all of them
    assert probe.scale(5.0, 6.0) == pytest.approx(3 / 7)
    with run.SpeedProbe() as live:
        time.sleep(3 * run.PROBE_PERIOD_S)
    assert len(live.samples) >= 1 and all(s > 0 for _, s in live.samples)


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "metropolis", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""
