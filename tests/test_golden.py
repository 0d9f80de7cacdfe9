"""Byte-identity of the CLI's CSV outputs against recorded golden files.

Each ``tests/data/golden/NAME.cfg`` was run once and its CSV saved as
``NAME.csv``; a change that moves any digit of any value fails here.  The
boxes stay at or below about 300 sites, where the conjugate-gradient
reductions are too small for a threaded BLAS to reorder.
"""

from pathlib import Path

import pytest

from gradlab.cli import EXIT_OK, parse_config, run

GOLDEN = Path(__file__).parent / "data" / "golden"
CONFIGS = sorted(p.stem for p in GOLDEN.glob("*.cfg"))


def test_golden_set_is_complete():
    assert CONFIGS == ["decay", "edges", "gaussian-axis2", "gaussian-nn",
                       "identities-d2", "identities-d2-axis2", "identities-d3"]


@pytest.mark.parametrize("name", CONFIGS)
def test_csv_matches_golden_bytes(name, tmp_path):
    cfg = parse_config((GOLDEN / f"{name}.cfg").read_text(encoding="utf-8"))
    result = run(cfg, tmp_path)
    assert result.exit_code == EXIT_OK
    (csv_path,) = [f for f in result.files if f.suffix == ".csv"]
    assert csv_path.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
