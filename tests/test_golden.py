"""Byte-identity of the CLI's outputs against recorded golden files.

Each ``tests/data/golden/NAME.cfg`` was run once: its CSV is saved as
``NAME.csv`` and its manifest's summaries as ``NAME.summaries.json``, and a
change that moves any digit of either fails here.  The boxes stay at or below
about 300 sites, where the conjugate-gradient reductions and the sine-matrix
products are too small for a threaded BLAS to reorder: one and two OpenBLAS
threads write the same bytes.

A subdirectory ``golden/IMPL/`` keeps an older implementation's recording of
``NAME.csv`` only while a row of ``OLDER`` compares it with today's
``NAME.csv``.  A change that re-records ``NAME.csv`` moves the old file into
a subdirectory named for the implementation that wrote it and adds its row to
``OLDER`` in the same change; an older file whose comparison no longer holds
against the new one is deleted with its row.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gradlab
from conftest import strict_json
from gradlab.cli import DIVERGENCE_TOLERANCE, EXIT_OK, parse_config, run

GOLDEN = Path(__file__).parent / "data" / "golden"
CONFIGS = sorted(p.stem for p in GOLDEN.glob("*.cfg"))

# Columns that measure how far a solve or an identity misses; the exact
# solve leaves only rounding there.
DEVIATIONS = {"gaussian-nn": {"max_divergence_residual"},
              "identities-d2": {"value"}, "identities-d3": {"value"},
              "identities-eta2": {"value"}}
#: the same columns of the ``axis2`` files, which conjugate gradients take
#: below the run's divergence gate, not to rounding
PCG_RESIDUALS = {"gaussian-axis2": {"max_divergence_residual"},
                 "identities-d2-axis2": {"value"}}

#: the columns the numpy-FFT solve moved, by file; all others kept their bytes
FFT_MOVED = {"gaussian-nn": {"max_divergence_residual", "side_1", "side_2",
                             "side_3", "side_4"},
             "identities-d2": {"value"}, "identities-d3": {"value"}}


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _within_cg_tolerance(name, new, old):
    """Older: unpreconditioned conjugate gradients."""
    assert len(new) == len(old)
    assert new[0].keys() == old[0].keys()
    for row_new, row_old in zip(new, old):
        for col, text in row_new.items():
            if col in DEVIATIONS.get(name, ()):
                assert abs(float(text)) <= 1e-12, (col, text)
            elif _number(text) is None:
                assert text == row_old[col]
            else:
                assert float(text) == pytest.approx(float(row_old[col]),
                                                    rel=1e-8, abs=1e-9), col


def _only_fft_columns_moved(name, new, old):
    """Older: the sine transform from ``scipy.fft``, eigenvalues ``2 - 2 cos``."""
    assert len(new) == len(old)
    assert new[0].keys() == old[0].keys()
    for row_new, row_old in zip(new, old):
        for col, text in row_new.items():
            if col not in FFT_MOVED[name]:
                assert text == row_old[col], col
            elif col in DEVIATIONS.get(name, ()):
                assert abs(float(text)) <= 1e-12 and abs(float(row_old[col])) <= 1e-12
            else:
                assert float(text) == pytest.approx(float(row_old[col]),
                                                    rel=1e-12, abs=0.0), col


def _within_rounding(name, new, old):
    """Older: the sine transform as real FFTs of the odd extension.

    A residual column stays at rounding for ``nn`` and below the divergence
    gate for ``axis2``; every other number moves by at most 1e-12 relative."""
    assert len(new) == len(old)
    assert new[0].keys() == old[0].keys()
    for row_new, row_old in zip(new, old):
        for col, text in row_new.items():
            bound = (1e-12 if col in DEVIATIONS.get(name, ())
                     else DIVERGENCE_TOLERANCE if col in PCG_RESIDUALS.get(name, ())
                     else None)
            if bound is not None:
                assert abs(float(text)) <= bound and abs(float(row_old[col])) <= bound
            elif _number(text) is None:
                assert text == row_old[col], col
            else:
                assert float(text) == pytest.approx(float(row_old[col]),
                                                    rel=1e-12, abs=0.0), col


def _covers_exact(name, new, old):
    """Older: independence proposals from each site's harmonic conditional.

    Both repeat the edge columns byte for byte and the exact column to
    1e-12 relative (the solve's rounding), and 95 % of the new means lie
    within 3 stderr of exact."""
    assert [(r["edge_i"], r["edge_j"]) for r in new] == \
        [(r["edge_i"], r["edge_j"]) for r in old]
    for row_new, row_old in zip(new, old):
        assert float(row_new["exact"]) == pytest.approx(float(row_old["exact"]),
                                                        rel=1e-12, abs=0.0)
    within = [abs(float(r["mean"]) - float(r["exact"])) <= 3.0 * float(r["stderr"])
              for r in new]
    assert sum(within) >= 0.95 * len(within)


def _decay_agrees(name, new, old):
    """Older: the slab contraction over every sine mode."""
    assert [r["r"] for r in new] == [r["r"] for r in old]
    for row_new, row_old in zip(new, old):
        for col in ("covariance", "r_times_covariance"):
            assert float(row_new[col]) == pytest.approx(float(row_old[col]),
                                                        rel=1e-12, abs=0.0), col


#: subdirectory -> (comparison with today's recording, the names it keeps)
OLDER = {
    "cg": (_within_cg_tolerance, ["gaussian-axis2", "gaussian-nn", "identities-d2",
                                  "identities-d2-axis2", "identities-d3"]),
    "scipy-fft": (_only_fft_columns_moved, sorted(FFT_MOVED)),
    "harmonic-conditional": (_covers_exact, ["edges"]),
    "mode-sum": (_decay_agrees, ["decay"]),
    "rfft": (_within_rounding, ["edges", "gaussian-axis2", "gaussian-nn",
                                "identities-d2", "identities-d2-axis2",
                                "identities-d3", "identities-eta2"]),
}
CASES = [(older, name) for older, (_, names) in OLDER.items() for name in names]


def test_golden_set_is_complete():
    assert CONFIGS == ["clt", "decay", "decay-fit", "edges", "edges-quartic",
                       "gaussian-axis2", "gaussian-nn", "identities-d2",
                       "identities-d2-axis2", "identities-d3", "identities-eta2",
                       "scaling"]
    assert {p.name for p in GOLDEN.iterdir() if p.is_file()} == \
        {name + ext for name in CONFIGS for ext in (".cfg", ".csv", ".summaries.json")}
    assert {p.name for p in GOLDEN.iterdir() if p.is_dir()} == set(OLDER)
    assert {(p.parent.name, p.name) for p in GOLDEN.glob("*/*")} == \
        {(older, f"{name}.csv") for older, name in CASES}
    assert {name for _, name in CASES} <= set(CONFIGS)


@pytest.mark.parametrize("name", CONFIGS)
def test_csv_matches_golden_bytes(name, tmp_path):
    cfg = parse_config((GOLDEN / f"{name}.cfg").read_text(encoding="utf-8"))
    result = run(cfg, tmp_path)
    assert result.exit_code == EXIT_OK
    (csv_path,) = [f for f in result.files if f.suffix == ".csv"]
    assert csv_path.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
    manifest = strict_json((tmp_path / "run_manifest.json").read_text(encoding="utf-8"))
    assert manifest["summaries"] == json.loads(
        (GOLDEN / f"{name}.summaries.json").read_text(encoding="utf-8"))


def test_a_quartic_potential_with_no_quartic_term_writes_the_gaussian_golden(tmp_path):
    # quartic:1:0 is quadratic:1: the same chain, and the exact column with it
    text = (GOLDEN / "edges.cfg").read_text(encoding="utf-8")
    assert "potential=quadratic:1\n" in text
    cfg = parse_config(text.replace("potential=quadratic:1\n",
                                    "potential=quartic:1:0\n"))
    assert run(cfg, tmp_path).exit_code == EXIT_OK
    assert (tmp_path / "edges.csv").read_bytes() == (GOLDEN / "edges.csv").read_bytes()
    manifest = strict_json((tmp_path / "run_manifest.json").read_text(encoding="utf-8"))
    assert manifest["summaries"] == json.loads(
        (GOLDEN / "edges.summaries.json").read_text(encoding="utf-8"))
    assert manifest["solver"] == "pcg"


@pytest.mark.parametrize("older, name", CASES)
def test_recording_matches_older_recording(older, name):
    compare, _ = OLDER[older]
    compare(name, _read(GOLDEN / f"{name}.csv"), _read(GOLDEN / older / f"{name}.csv"))


@pytest.mark.parametrize("name", ["gaussian-nn", "identities-d3"])
def test_one_and_two_blas_threads_write_the_golden_bytes(name, tmp_path):
    src = str(Path(gradlab.__file__).resolve().parent.parent)
    written = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        out = tmp_path / threads
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from gradlab.cli import main; "
             "sys.exit(main())", str(GOLDEN / f"{name}.cfg"), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
        (csv_path,) = out.glob("*.csv")
        written.append(csv_path.read_bytes())
    assert written[0] == written[1] == (GOLDEN / f"{name}.csv").read_bytes()
