"""Byte-identity of the CLI's CSV outputs against recorded golden files.

Each ``tests/data/golden/NAME.cfg`` was run once and its CSV saved as
``NAME.csv``; a change that moves any digit of any value fails here.  The
boxes stay at or below about 300 sites, where the conjugate-gradient
reductions and sine transforms are too small for a threaded BLAS to reorder.

The nearest-neighbour files were re-recorded when those solves moved from
conjugate gradients to the exact DST-I solve; ``golden/cg/`` keeps the
conjugate-gradient recordings, which the new files must match to within the
old solver tolerance.

``edges.csv`` was re-recorded again when the sampler moved from random-scan
to colour-class sweeps, which draw other random numbers; ``golden/random-scan/``
keeps the random-scan recording, whose exact column the new file repeats
byte for byte.

``decay.csv`` was re-recorded when the covariance scans moved from DST
Green columns to the closed-form mode sum; ``golden/dst/`` keeps the DST
recording, which the new file matches to rounding.

The three ``identities`` files were re-recorded when the second-moment
identity moved from a sparse LU factorization to the single solve of the
surface identity; ``golden/splu/`` keeps the factorized recordings, which
the new files repeat byte for byte except for that identity's value, a
rounding-level relative difference in both.

The files of the ``dst`` solves were re-recorded when the sine transform
moved from ``scipy.fft`` to numpy's real FFT and its eigenvalues to the
cancellation-free sine-squared form; ``golden/scipy-fft/`` keeps the
``scipy.fft`` recordings.  The new files move only the solved columns, each
cell within 1e-12 of its old value, and repeat every other cell byte for
byte.  The comparisons with the older recordings above read the
``scipy-fft`` files, the recordings they were written against.

The two ``axis2`` files were re-recorded when their solves moved from
unpreconditioned conjugate gradients to conjugate gradients preconditioned
by the sine solve; ``golden/cg/`` keeps their conjugate-gradient recordings
too, which the new files match within the solver tolerance, and the
comparison with the factorized recording reads the ``cg`` copy.

``edges.csv`` was re-recorded once more when the sampler's Gaussian
random-walk proposals gave way to Bactrian ones, which draw other random
numbers; ``golden/gaussian-proposal/`` keeps the Gaussian-proposal
recording.  The new file repeats its edge and exact columns byte for byte,
and its means cover the exact values as the old ones did.  The comparison
with the ``scipy.fft`` recording reads the Gaussian-proposal copy, the
recording it was written against.
"""

import csv
from pathlib import Path

import pytest

from gradlab.cli import EXIT_OK, parse_config, run

GOLDEN = Path(__file__).parent / "data" / "golden"
CONFIGS = sorted(p.stem for p in GOLDEN.glob("*.cfg"))
CG_RECORDED = sorted(p.stem for p in (GOLDEN / "cg").glob("*.csv"))
RANDOM_SCAN = GOLDEN / "random-scan"
DST = GOLDEN / "dst"
SPLU = GOLDEN / "splu"
SCIPY_FFT = GOLDEN / "scipy-fft"
GAUSSIAN_PROPOSAL = GOLDEN / "gaussian-proposal"

# Columns that measure how far a solve or an identity misses; the exact
# solve leaves only rounding there.
DEVIATIONS = {"gaussian-nn": {"max_divergence_residual"},
              "identities-d2": {"value"}, "identities-d3": {"value"}}


def test_golden_set_is_complete():
    assert CONFIGS == ["decay", "edges", "gaussian-axis2", "gaussian-nn",
                       "identities-d2", "identities-d2-axis2", "identities-d3"]
    assert CG_RECORDED == ["decay", "edges", "gaussian-axis2", "gaussian-nn",
                           "identities-d2", "identities-d2-axis2", "identities-d3"]
    assert sorted(p.name for p in RANDOM_SCAN.iterdir()) == ["edges.csv"]
    assert sorted(p.name for p in DST.iterdir()) == ["decay.csv"]
    assert sorted(p.name for p in SPLU.iterdir()) == [
        "identities-d2-axis2.csv", "identities-d2.csv", "identities-d3.csv"]
    assert sorted(p.name for p in SCIPY_FFT.iterdir()) == [
        "edges.csv", "gaussian-nn.csv", "identities-d2.csv", "identities-d3.csv"]
    assert sorted(p.name for p in GAUSSIAN_PROPOSAL.iterdir()) == ["edges.csv"]


@pytest.mark.parametrize("name", CONFIGS)
def test_csv_matches_golden_bytes(name, tmp_path):
    cfg = parse_config((GOLDEN / f"{name}.cfg").read_text(encoding="utf-8"))
    result = run(cfg, tmp_path)
    assert result.exit_code == EXIT_OK
    (csv_path,) = [f for f in result.files if f.suffix == ".csv"]
    assert csv_path.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


@pytest.mark.parametrize("name", CG_RECORDED)
def test_dst_recording_matches_cg_recording(name):
    # the CG edges recording came from the random-scan sampler, and the DST
    # decay recording was kept when the mode sum re-recorded it
    dst = next(p for p in (RANDOM_SCAN / f"{name}.csv", DST / f"{name}.csv",
                           GOLDEN / f"{name}.csv") if p.exists())
    new, old = _read(dst), _read(GOLDEN / "cg" / f"{name}.csv")
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


def test_colour_class_recording_matches_random_scan_recording():
    new, old = _read(SCIPY_FFT / "edges.csv"), _read(RANDOM_SCAN / "edges.csv")
    assert [(r["edge_i"], r["edge_j"], r["exact"]) for r in new] == \
        [(r["edge_i"], r["edge_j"], r["exact"]) for r in old]
    within = [abs(float(r["mean"]) - float(r["exact"])) <= 3.0 * float(r["stderr"])
              for r in new]
    assert sum(within) >= 0.95 * len(within)


def test_bactrian_recording_matches_gaussian_proposal_recording():
    new, old = _read(GOLDEN / "edges.csv"), _read(GAUSSIAN_PROPOSAL / "edges.csv")
    assert [(r["edge_i"], r["edge_j"], r["exact"]) for r in new] == \
        [(r["edge_i"], r["edge_j"], r["exact"]) for r in old]
    within = [abs(float(r["mean"]) - float(r["exact"])) <= 3.0 * float(r["stderr"])
              for r in new]
    assert sum(within) >= 0.95 * len(within)


def test_mode_sum_recording_matches_dst_recording():
    new, old = _read(GOLDEN / "decay.csv"), _read(DST / "decay.csv")
    assert [r["r"] for r in new] == [r["r"] for r in old]
    for row_new, row_old in zip(new, old):
        for col in ("covariance", "r_times_covariance"):
            assert float(row_new[col]) == pytest.approx(float(row_old[col]),
                                                        rel=1e-12, abs=0.0), col


@pytest.mark.parametrize("name", ["identities-d2", "identities-d2-axis2",
                                  "identities-d3"])
def test_one_solve_recording_matches_splu_recording(name):
    new = _read(next(p for p in (SCIPY_FFT / f"{name}.csv",
                                 GOLDEN / "cg" / f"{name}.csv") if p.exists()))
    old = _read(SPLU / f"{name}.csv")
    assert [r["check"] for r in new] == [r["check"] for r in old]
    for row_new, row_old in zip(new, old):
        if row_new["check"] == "second_moment_relative_difference":
            assert {k: v for k, v in row_new.items() if k != "value"} == \
                {k: v for k, v in row_old.items() if k != "value"}
            assert float(row_new["value"]) <= 1e-12
            assert float(row_old["value"]) <= 1e-12
        else:
            assert row_new == row_old


#: the columns the numpy-FFT solve moved, by file; all others kept their bytes
FFT_MOVED = {"edges": {"exact"},
             "gaussian-nn": {"max_divergence_residual", "side_1", "side_2",
                             "side_3", "side_4"},
             "identities-d2": {"value"}, "identities-d3": {"value"}}


@pytest.mark.parametrize("name", sorted(FFT_MOVED))
def test_numpy_fft_recording_matches_scipy_fft_recording(name):
    new = _read(next(p for p in (GAUSSIAN_PROPOSAL / f"{name}.csv",
                                 GOLDEN / f"{name}.csv") if p.exists()))
    old = _read(SCIPY_FFT / f"{name}.csv")
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
