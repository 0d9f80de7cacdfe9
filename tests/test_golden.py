"""Byte-identity of the CLI's outputs against recorded golden files.

Each ``tests/data/golden/NAME.cfg`` was run once: its CSV is saved as
``NAME.csv`` and its manifest's summaries as ``NAME.summaries.json``, and a
change that moves any digit of either fails here.  The boxes stay at or below
about 300 sites, where the conjugate-gradient reductions and sine transforms
are too small for a threaded BLAS to reorder.

A subdirectory ``golden/IMPL/`` keeps an older implementation's recording of
``NAME.csv`` only while a row of ``OLDER`` compares it with today's
``NAME.csv``.  A change that re-records ``NAME.csv`` moves the old file into
a subdirectory named for the implementation that wrote it and adds its row to
``OLDER`` in the same change; an older file whose comparison no longer holds
against the new one is deleted with its row.
"""

import csv
import json
from pathlib import Path

import pytest

from conftest import strict_json
from gradlab.cli import EXIT_OK, parse_config, run

GOLDEN = Path(__file__).parent / "data" / "golden"
CONFIGS = sorted(p.stem for p in GOLDEN.glob("*.cfg"))

# Columns that measure how far a solve or an identity misses; the exact
# solve leaves only rounding there.
DEVIATIONS = {"gaussian-nn": {"max_divergence_residual"},
              "identities-d2": {"value"}, "identities-d3": {"value"}}

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


def _covers_exact(name, new, old):
    """Older: independence proposals from each site's harmonic conditional.

    Both repeat the edge and exact columns byte for byte, and 95 % of the new
    means lie within 3 stderr of exact."""
    assert [(r["edge_i"], r["edge_j"], r["exact"]) for r in new] == \
        [(r["edge_i"], r["edge_j"], r["exact"]) for r in old]
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
