import ast
import csv
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradlab
from gradlab import cli, diagnostics, gaussian, mcmc
from gradlab.cli import (_CASTERS, EXIT_CONFIG, EXIT_ERROR, EXIT_INVARIANT,
                         EXIT_NUMERICAL, EXIT_OK, EXPERIMENTS, MAX_D,
                         ConfigError, ExperimentConfig, main, parse_config, run)
from gradlab.model import Potential

#: config keys that became constants; each is now an unknown key
REMOVED_KEYS = ("corrupt_field", "max_iterations", "autotune",
                "target_acceptance", "quad_abs_tolerance", "quad_rel_tolerance",
                "divergence_tolerance", "surface_tolerance",
                "second_moment_tolerance")


# ---------------------------------------------------------------------------
# parsing


def test_parse_minimal_quadrature_config():
    cfg = parse_config("experiment=quadrature\nR_list=1,10,100\n")
    assert cfg.experiment == "quadrature"
    assert cfg.R_list == (1.0, 10.0, 100.0)


def test_parse_rejects_l_zero_for_scaling():
    with pytest.raises(ConfigError, match="L must be >= 1 for scaling"):
        parse_config("experiment=scaling\nd=2\nL=0\n")


def test_parse_potential_round_trip():
    cfg = parse_config("experiment=mcmc\nL=2\npotential=quartic:1.0:0.1\n")
    assert cfg.potential == Potential.quartic(1.0, 0.1)
    cfg2 = parse_config("experiment=identities\nL=2\npotential=quadratic:2.5\n")
    assert cfg2.potential == Potential.quadratic(2.5)


def test_parse_rejects_unknown_key_with_line_number():
    with pytest.raises(ConfigError, match="line 3") as err:
        parse_config("experiment=quadrature\nR_list=1\nwibble=2\n")
    assert err.value.line == 3


def test_parse_rejects_type_mismatch():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("experiment=quadrature\nR_list=banana\n")


def test_parse_rejects_duplicates_missing_experiment_and_bad_lines():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("experiment=quadrature\nexperiment=clt\n")
    with pytest.raises(ConfigError, match="experiment"):
        parse_config("L=4\n")
    with pytest.raises(ConfigError, match="key=value"):
        parse_config("experiment=quadrature\nR_list\n")


@pytest.mark.parametrize("text,key,line", [
    pytest.param("experiment=decay\nd=3\nL=4\nr_list=4,4,2\n", "r_list", 4,
                 id="r_list"),
    pytest.param("experiment=scaling\nd=2\nL_list=3,3,2\n", "L_list", 3,
                 id="L_list"),
    pytest.param("experiment=quadrature\nR_list=10,1,10.0\n", "R_list", 2,
                 id="R_list"),
])
def test_parse_rejects_duplicate_list_entries(text, key, line):
    with pytest.raises(ConfigError, match=f"line {line}: bad value for {key}: "
                       "duplicate entry") as err:
        parse_config(text)
    assert err.value.line == line


def test_parse_handles_comments_and_blanks():
    cfg = parse_config("# full line comment\n\nexperiment=clt  # trailing\n"
                       "L_list=8\nn_realizations=100\n")
    assert cfg.experiment == "clt"
    assert cfg.L_list == (8,)


def test_parse_validates_experiment_requirements():
    with pytest.raises(ConfigError, match="requires R_list"):
        parse_config("experiment=quadrature\n")
    with pytest.raises(ConfigError, match="requires d=3"):
        parse_config("experiment=decay\nL=8\nr_list=2\n")
    with pytest.raises(ConfigError, match="unknown experiment"):
        parse_config("experiment=banana\n")
    with pytest.raises(ConfigError, match="n_realizations"):
        parse_config("experiment=clt\nL_list=8\nn_realizations=10\n")


@pytest.mark.parametrize("text,message", [
    pytest.param("experiment=clt\nL_list=8\nn_realizations=100\nkernel=axis2\n",
                 "clt experiment requires kernel=nn", id="clt-axis2"),
    pytest.param("experiment=clt\nL_list=8\nn_realizations=100\n"
                 "potential=quartic:1:0.1\n",
                 "line 4: clt experiment does not read 'potential'", id="clt-quartic"),
    pytest.param("experiment=quadrature\nR_list=10\npotential=quartic:1:0.1\n",
                 "line 3: quadrature experiment does not read 'potential'",
                 id="quadrature-quartic"),
    pytest.param("experiment=quadrature\nR_list=10\nd=3\n",
                 "line 3: quadrature experiment does not read 'd'", id="quadrature-d"),
    pytest.param("experiment=quadrature\nR_list=10\nL=5\n",
                 "line 3: quadrature experiment does not read 'L'", id="quadrature-L"),
    pytest.param("experiment=quadrature\nR_list=10\nkernel=axis2\n",
                 "line 3: quadrature experiment does not read 'kernel'",
                 id="quadrature-kernel"),
    pytest.param("experiment=quadrature\nR_list=10\nn_realizations=7\n",
                 "line 3: quadrature experiment does not read 'n_realizations'",
                 id="quadrature-n_realizations"),
    pytest.param("experiment=clt\nL_list=8\nn_realizations=100\n"
                 "potential=quadratic:3\n",
                 "line 4: clt experiment does not read 'potential'", id="clt-stiffness"),
    pytest.param("experiment=scaling\nd=2\nL_list=2,4\nn_realizations=3\n",
                 "line 4: scaling experiment does not read 'n_realizations'",
                 id="scaling-n_realizations"),
    pytest.param("experiment=scaling\nd=2\nL_list=2,4\nseed=3\n",
                 "line 4: scaling experiment does not read 'seed'", id="scaling-seed"),
    pytest.param("experiment=mcmc\nd=2\nL=1\nn_realizations=5\n",
                 "line 4: mcmc experiment does not read 'n_realizations'",
                 id="mcmc-n_realizations"),
    pytest.param("experiment=mcmc\nd=2\nL=1\nL_list=1,2\n",
                 "line 4: mcmc experiment does not read 'L_list'", id="mcmc-L_list"),
    pytest.param("experiment=mcmc\nd=2\nL=1\nr_list=0\n",
                 "line 4: mcmc experiment does not read 'r_list'", id="mcmc-r_list"),
    pytest.param("experiment=mcmc\nd=2\nL=1\nR_list=10\n",
                 "line 4: mcmc experiment does not read 'R_list'", id="mcmc-R_list"),
    pytest.param("experiment=scaling\nd=2\nL=8\nL_list=2,4\n",
                 "line 3: scaling experiment does not read 'L'", id="scaling-L-beside-L_list"),
    pytest.param("experiment=decay\nd=3\nL=4\nr_list=0,2\nrel_tolerance=1e-9\n",
                 "line 5: decay experiment does not read 'rel_tolerance'",
                 id="decay-rel_tolerance"),
    pytest.param("experiment=mcmc\nd=2\nL=1\npotential=quartic:1:0.1\n"
                 "rel_tolerance=1e-9\n",
                 "line 5: mcmc experiment does not read 'rel_tolerance'",
                 id="quartic-mcmc-rel_tolerance"),
])
def test_main_rejects_keys_the_experiment_ignores(text, message, tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(text)
    assert main([str(cfg_path), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "run_manifest.json").exists()


def test_every_golden_and_benchmark_config_parses():
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(root / "perfbench"))
    golden = [p.read_text() for p in sorted((root / "tests/data/golden").glob("*.cfg"))]
    benchmark = [w(toy).config(1000) for w in WORKLOADS.values() for toy in (False, True)]
    assert golden and benchmark
    for text in golden + benchmark:
        parse_config(text)


def test_overrides_of_a_key_the_run_ignores_are_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("experiment=quadrature\nR_list=10\n")
    assert main([str(cfg_path), "--out", str(tmp_path), "--seed", "3"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "error: quadrature experiment does not read 'seed'\n"
    assert not (tmp_path / "run_manifest.json").exists()


def test_dimension_is_bounded():
    assert parse_config(f"experiment=identities\nd={MAX_D}\nL=0\n").d == MAX_D
    for d in (0, MAX_D + 1):
        with pytest.raises(ConfigError, match=f"d must be between 1 and {MAX_D}"):
            parse_config(f"experiment=identities\nd={d}\nL=0\n")


def test_main_rejects_a_huge_dimension_before_building_its_kernel(tmp_path, capsys):
    # the nearest-neighbour kernel of d=100000 would hold 2e10 offset entries
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("experiment=identities\nd=100000\nL=0\n")
    start = time.perf_counter()
    assert main([str(cfg_path), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert time.perf_counter() - start < 0.1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "d must be between" in err
    assert not (tmp_path / "run_manifest.json").exists()


config_values = st.one_of(
    st.text(),
    st.from_regex(r"-?[0-9]{1,3}(\.[0-9]*)?(e-?[0-9]{1,2})?", fullmatch=True),
    st.sampled_from(tuple(EXPERIMENTS) + ("nn", "axis2", "quartic:1:0.1",
                                          "quadratic:0", "nan", "0,2", ",")))
config_lines = st.one_of(
    st.text(),
    st.builds("{}={}".format, st.sampled_from(sorted(_CASTERS)), config_values))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.lists(config_lines).map("\n".join)))
def test_parse_config_raises_only_config_errors(text):
    """Arbitrary text, and lines of real keys with arbitrary values."""
    try:
        parse_config(text)
    except ConfigError:
        pass


# ---------------------------------------------------------------------------
# running


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_identities_run_writes_expected_rows(tmp_path):
    cfg = parse_config("experiment=identities\nd=2\nL=6\n")
    result = run(cfg, tmp_path)
    assert result.exit_code == EXIT_OK
    rows = read_csv(tmp_path / "identities.csv")
    assert rows[0] == ["check", "value", "tolerance", "pass"]
    checks = {r[0] for r in rows[1:]}
    assert checks == {"surface_identity_max_deviation",
                      "second_moment_relative_difference",
                      "divergence_max_residual"}
    assert all(r[3] == "true" for r in rows[1:])
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["config"]["L"] == 6
    assert manifest["outputs"] == ["identities.csv"]


@pytest.mark.parametrize("kernel", ["nn", "axis2"])
def test_identities_solves_once_for_both_boundary_identities(kernel, tmp_path,
                                                            monkeypatch):
    calls = []
    solve = gaussian.solve_array

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(gaussian, "solve_array", counted)
    cfg = parse_config(f"experiment=identities\nd=2\nL=3\nkernel={kernel}\n"
                       "n_realizations=2\n")
    assert run(cfg, tmp_path).exit_code == EXIT_OK
    assert len(calls) == 1 + 2  # the boundary identities, then one per realization


def test_quadrature_run_reports_pi_squared_row(tmp_path):
    cfg = parse_config("experiment=quadrature\nR_list=200\n")
    result = run(cfg, tmp_path)
    assert result.exit_code == EXIT_OK
    rows = read_csv(tmp_path / "quadrature.csv")
    assert rows[0] == ["R", "J", "rel_dev_pi2"]
    r, j, dev = (float(x) for x in rows[1])
    assert r == 200.0
    assert dev <= 0.02
    assert abs(j - math.pi ** 2) / math.pi ** 2 == pytest.approx(dev, rel=1e-12)


def test_corrupted_field_hook_exits_invariant_failure(tmp_path, monkeypatch):
    exact = gaussian.mean_gradient

    def corrupted(A, eta, cfg):
        X = exact(A, eta, cfg)
        i, j = diagnostics.central_edge(A.geometry.d)
        X.set(i, j, X.get(i, j) + 1.0)
        return X

    monkeypatch.setattr(gaussian, "mean_gradient", corrupted)
    cfg = parse_config("experiment=identities\nd=2\nL=3\n")
    result = run(cfg, tmp_path)
    assert result.exit_code == EXIT_INVARIANT
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["status"] == "invariant-failure"
    assert manifest["partial_outputs"] is True


def test_numerical_failure_exit_code(tmp_path):
    # an unreachable residual target, where preconditioned CG must run (axis2)
    cfg = parse_config("experiment=identities\nd=2\nL=6\nkernel=axis2\n"
                       "rel_tolerance=1e-20\n")
    result = run(cfg, tmp_path)
    assert result.exit_code == EXIT_NUMERICAL
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["status"] == "numerical-failure"
    assert "error" in manifest["summaries"]


def test_unreachable_tolerance_on_the_dst_path_exits_numerical_failure(tmp_path,
                                                                       capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("experiment=identities\nd=2\nL=6\nrel_tolerance=1e-20\n")
    assert main([str(cfg_path), "--out", str(tmp_path)]) == EXIT_NUMERICAL
    assert "status: numerical-failure" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["solver"] == "pcg"
    assert "residual" in manifest["summaries"]["error"]


@pytest.mark.parametrize("R_list", ["0.1,0.03,0.01", "1e-150", "1e-200"])
def test_quadrature_at_small_radii_writes_the_closed_form(R_list, tmp_path):
    # R^-2 of the integrand overflows at R = 1e-200; J = 2 pi arctan R does not
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(f"experiment=quadrature\nR_list={R_list}\n")
    assert main([str(cfg_path), "--out", str(tmp_path)]) == EXIT_OK
    rows = read_csv(tmp_path / "quadrature.csv")[1:]
    assert [float(r) for r, _, _ in rows] == [float(r) for r in R_list.split(",")]
    for r, j, _ in rows:
        R, J = float(r), float(j)
        assert J == pytest.approx(2.0 * math.pi * math.atan(R), rel=1e-15)
        if R < 1e-100:
            assert J == pytest.approx(2.0 * math.pi * R, rel=1e-15)


def raise_in_the_runner(exc):
    def runner(cfg, out):
        raise exc
    return EXPERIMENTS["quadrature"]._replace(run=runner)


def test_an_unexpected_error_exits_with_a_manifest(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(EXPERIMENTS, "quadrature",
                        raise_in_the_runner(RuntimeError("boom")))
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("experiment=quadrature\nR_list=10\n")
    assert main([str(cfg_path), "--out", str(tmp_path)]) == EXIT_ERROR == 4
    assert "status: error" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["partial_outputs"] is True
    assert manifest["summaries"] == {"error": "RuntimeError: boom"}


def test_an_unwritable_csv_exits_with_a_manifest(tmp_path):
    (tmp_path / "quadrature.csv").mkdir()
    result = run(parse_config("experiment=quadrature\nR_list=10\n"), tmp_path)
    assert result.exit_code == EXIT_ERROR
    assert result.manifest["summaries"]["error"].startswith("IsADirectoryError: ")


@pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
def test_an_interrupt_passes_through_the_run(exc, tmp_path, monkeypatch):
    monkeypatch.setitem(EXPERIMENTS, "quadrature", raise_in_the_runner(exc()))
    with pytest.raises(exc):
        run(parse_config("experiment=quadrature\nR_list=10\n"), tmp_path)
    assert not (tmp_path / "run_manifest.json").exists()


@pytest.mark.parametrize("text,method", [
    pytest.param("experiment=identities\nd=2\nL=3\n", "pcg", id="nn"),
    pytest.param("experiment=identities\nd=2\nL=3\nkernel=axis2\n", "pcg",
                 id="axis2"),
    pytest.param("experiment=decay\nd=3\nL=4\nr_list=2\n", "spectral", id="decay"),
    pytest.param("experiment=scaling\nd=2\nL_list=2,4\n", "spectral",
                 id="scaling-nn"),
    pytest.param("experiment=scaling\nd=2\nL_list=2,4\nkernel=axis2\n", "pcg",
                 id="scaling-axis2"),
    pytest.param("experiment=quadrature\nR_list=10\n", None, id="no-solve"),
])
def test_manifest_records_the_solver_method(text, method, tmp_path):
    result = run(parse_config(text), tmp_path)
    assert result.exit_code == EXIT_OK
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest.get("solver") == method


def test_runs_are_byte_identical(tmp_path):
    text = ("experiment=gaussian-exact\nd=2\nL=4\nn_realizations=3\nseed=5\n")
    outs = []
    for sub in ("a", "b"):
        cfg = parse_config(text)
        run(cfg, tmp_path / sub)
        outs.append((tmp_path / sub / "gaussian.csv").read_bytes())
    assert outs[0] == outs[1]


def test_floats_are_serialized_with_17_significant_digits(tmp_path):
    cfg = parse_config("experiment=scaling\nd=2\nL_list=4,8,16\n")
    result = run(cfg, tmp_path)
    assert result.exit_code == EXIT_OK
    rows = read_csv(tmp_path / "scaling.csv")
    for row in rows[1:]:
        val = row[1]
        assert float(val) != 0.0
        digits = val.replace(".", "").replace("-", "").lstrip("0")
        assert len(digits.split("e")[0]) >= 16  # 17 significant digits requested
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert "log_linear_fit" in manifest["summaries"]


def test_scaling_accepts_single_l(tmp_path):
    cfg = parse_config("experiment=scaling\nd=2\nL=4\n")
    result = run(cfg, tmp_path)
    assert result.exit_code == EXIT_OK
    assert len(read_csv(tmp_path / "scaling.csv")) == 2


def test_decay_run_emits_compensated_column(tmp_path):
    cfg = parse_config("experiment=decay\nd=3\nL=6\nr_list=0,2\n")
    result = run(cfg, tmp_path)
    rows = read_csv(tmp_path / "decay.csv")
    assert rows[0] == ["r", "covariance", "r_times_covariance"]
    assert result.exit_code == EXIT_OK
    r2 = [float(x) for x in rows[2]]
    assert r2[2] == pytest.approx(r2[0] * r2[1])


def test_clt_run_includes_analytic_column(tmp_path):
    cfg = parse_config("experiment=clt\nL_list=8\nn_realizations=200\nseed=3\n")
    result = run(cfg, tmp_path)
    rows = read_csv(tmp_path / "clt.csv")
    assert rows[0] == ["L", "variance", "jackknife_err", "analytic"]
    assert float(rows[1][3]) == pytest.approx((17 / 8) ** 2)
    assert result.exit_code == EXIT_OK


def test_mcmc_run_reports_exact_column_and_coverage(tmp_path):
    cfg = parse_config("experiment=mcmc\nd=2\nL=2\nseed=3\n"
                       "burn_in_sweeps=500\nmeasure_sweeps=6000\n")
    result = run(cfg, tmp_path)
    assert result.exit_code == EXIT_OK
    rows = read_csv(tmp_path / "edges.csv")
    assert rows[0] == ["edge_i", "edge_j", "mean", "stderr", "n_eff", "exact"]
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["summaries"]["fraction_within_3se_of_exact"] >= 0.9
    assert manifest["summaries"]["divergence_within_4se_fraction"] >= 0.9
    assert 0.2 <= manifest["summaries"]["acceptance_rate"] <= 0.7


def test_mcmc_manifest_reports_sampler_telemetry(tmp_path):
    cfg = parse_config("experiment=mcmc\nd=2\nL=2\npotential=quartic:1:0.1\nseed=3\n"
                       "burn_in_sweeps=300\nmeasure_sweeps=3000\n")
    assert run(cfg, tmp_path).exit_code == EXIT_OK
    summary = json.loads((tmp_path / "run_manifest.json").read_text())["summaries"]
    assert summary["proposal"] == f"bactrian:{mcmc.SPIKE}" == "bactrian:0.9"
    assert summary["target_acceptance"] == mcmc.TARGET_ACCEPTANCE
    n_eff = [float(row[4]) for row in read_csv(tmp_path / "edges.csv")[1:]]
    assert summary["n_eff_median"] == statistics.median(n_eff)
    assert summary["n_eff_min"] == min(n_eff)
    assert {"acceptance_rate", "proposal_width", "cap_rejects",
            "divergence_within_4se_fraction"} <= summary.keys()


# ---------------------------------------------------------------------------
# entry point


def test_main_runs_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("experiment=quadrature\nR_list=10\n")
    code = main([str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "quadrature.csv" in printed
    assert (tmp_path / "out" / "quadrature.csv").exists()


def test_main_reports_config_errors(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("experiment=scaling\nL=0\n")
    assert main([str(cfg_path)]) == EXIT_CONFIG
    assert "L must be >= 1" in capsys.readouterr().err
    assert main([str(tmp_path / "missing.cfg")]) == EXIT_CONFIG


def test_main_seed_flag_and_env_override(tmp_path, monkeypatch):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("experiment=gaussian-exact\nd=2\nL=2\nn_realizations=2\n")
    main([str(cfg_path), "--out", str(tmp_path / "flag"), "--seed", "9"])
    monkeypatch.setenv("GRADLAB_SEED", "9")
    monkeypatch.setenv("GRADLAB_OUT", str(tmp_path / "env"))
    main([str(cfg_path)])
    flag_bytes = (tmp_path / "flag" / "gaussian.csv").read_bytes()
    env_bytes = (tmp_path / "env" / "gaussian.csv").read_bytes()
    assert flag_bytes == env_bytes
    m = json.loads((tmp_path / "env" / "run_manifest.json").read_text())
    assert m["seeds"]["master"] == 9
    assert m["seeds"]["disorder_spawn_keys"] == [[0, 0], [0, 1]]


@pytest.mark.parametrize("text", [
    pytest.param("experiment=decay\nd=3\nL=4\nr_list=2\n", id="decay"),
    pytest.param("experiment=scaling\nd=2\nL_list=2\n", id="scaling"),
    pytest.param("experiment=quadrature\nR_list=10\n", id="quadrature"),
])
def test_manifest_lists_no_streams_for_a_run_that_draws_nothing(text, tmp_path):
    manifest = run(parse_config(text), tmp_path).manifest
    assert "master" not in manifest["seeds"]
    assert manifest["seeds"]["disorder_spawn_keys"] == []
    assert manifest["seeds"]["chain_spawn_keys"] == []


def test_main_rejects_an_output_path_that_is_a_file(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("experiment=quadrature\nR_list=10\n")
    out = tmp_path / "taken"
    out.write_text("")
    assert main([str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: cannot create output directory")
    assert "Traceback" not in err
    assert out.read_text() == ""
    assert not (tmp_path / "run_manifest.json").exists()


def test_run_rejects_an_output_path_that_is_a_file(tmp_path):
    out = tmp_path / "taken"
    out.write_text("")
    with pytest.raises(ConfigError, match="cannot create output directory"):
        run(parse_config("experiment=scaling\nd=2\nL_list=2\n"), out)
    assert out.read_text() == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_experiment_config_defaults_are_valid():
    cfg = ExperimentConfig(experiment="quadrature", R_list=(1.0,))
    assert cfg.solver().rel_tolerance == 1e-10


# ---------------------------------------------------------------------------
# entry-point validation: overrides pass through the same checks as the file


@pytest.mark.parametrize("key,flag,env", [
    pytest.param("threads=2\n", [], None, id="key"),
    pytest.param("", ["--threads", "2"], None, id="flag"),
    pytest.param("", ["--threads=1"], None, id="flag-equals"),
    pytest.param("", [], "2", id="environment"),
])
def test_main_rejects_the_removed_threads_option(key, flag, env, tmp_path, capsys,
                                                 monkeypatch):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("experiment=gaussian-exact\nd=2\nL=2\n" + key)
    if env is not None:
        monkeypatch.setenv("GRADLAB_THREADS", env)
    assert main([str(cfg_path), "--out", str(tmp_path)] + flag) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "threads" in err.lower()
    assert "Traceback" not in err
    assert not (tmp_path / "run_manifest.json").exists()


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_main_rejects_the_removed_constant_keys(key, tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(f"experiment=identities\nd=2\nL=2\n{key}=1\n")
    assert main([str(cfg_path), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"unknown key {key!r}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run_manifest.json").exists()


def test_readme_documents_every_config_key_and_no_removed_one():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    for f in fields(ExperimentConfig):
        assert f"`{f.name}`" in readme, f.name
    for name in REMOVED_KEYS:
        assert f"`{name}`" not in readme, name


def test_readme_reads_table_matches_each_experiments_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    table = readme.split("| reads besides `experiment` |\n", 1)[1].split("\n\n")[0]
    documented = {}
    for row in table.splitlines()[1:]:
        names, reads = (cell.strip() for cell in row.strip("|").split("|"))
        for name in names.split(", "):
            documented[name] = frozenset(reads.replace(" or ", ", ").split(", "))
    assert documented == {name: spec.keys for name, spec in EXPERIMENTS.items()}


def test_experiment_names_appear_in_cli_only_as_table_keys():
    # besides its key, "mcmc" names the sampler, the chain stream and the
    # quadratic exact column
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    names = Counter(node.value for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and node.value in EXPERIMENTS)
    assert names == {**dict.fromkeys(EXPERIMENTS, 1), "mcmc": 4}


@pytest.mark.parametrize("args,message", [
    pytest.param(["--seed", "abc"], "invalid int value", id="bad-seed"),
    pytest.param(["--unknown"], "unrecognized arguments", id="unknown-flag"),
    pytest.param(None, "arguments are required", id="no-config"),
])
def test_main_reports_usage_errors_as_config_errors(args, message, tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("experiment=quadrature\nR_list=10\n")
    argv = [] if args is None else [str(cfg_path), "--out", str(tmp_path)] + args
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "run_manifest.json").exists()


def test_main_rejects_negative_seed(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("experiment=mcmc\nd=2\nL=1\nmeasure_sweeps=100\n")
    assert main([str(cfg_path), "--out", str(tmp_path), "--seed", "-1"]) == EXIT_CONFIG
    assert "seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["GRADLAB_SEED"])
def test_main_reports_non_integer_environment_override(name, tmp_path, capsys,
                                                       monkeypatch):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("experiment=quadrature\nR_list=10\n")
    monkeypatch.setenv(name, "abc")
    assert main([str(cfg_path), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err and "Traceback" not in err


@pytest.mark.parametrize("r_list", ["3", "2,4", "-2"])
def test_main_rejects_decay_separations_the_scan_cannot_place(r_list, tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(f"experiment=decay\nd=3\nL=4\nr_list={r_list}\n")
    assert main([str(cfg_path), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "r_list entries must be even" in capsys.readouterr().err


def test_main_rejects_a_decay_kernel_other_than_nn(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("experiment=decay\nd=3\nL=4\nr_list=0,2\nkernel=axis2\n")
    assert main([str(cfg_path), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "kernel=nn" in err
    assert not (tmp_path / "decay.csv").exists()


@pytest.mark.parametrize("text,message", [
    pytest.param("experiment=gaussian-exact\nd=2\nL=1\nn_realizations=0\n",
                 "n_realizations >= 1", id="n_realizations"),
    pytest.param("experiment=identities\nd=2\nL=1\nn_realizations=0\n",
                 "n_realizations >= 1", id="identities-n_realizations-zero"),
    pytest.param("experiment=identities\nd=2\nL=1\nn_realizations=-1\n",
                 "n_realizations >= 1", id="identities-n_realizations-negative"),
    pytest.param("experiment=gaussian-exact\nd=2\nL=0\n",
                 "L must be >= 1 for gaussian-exact", id="gaussian-exact-L-zero"),
    pytest.param("experiment=mcmc\nd=2\nL=1\nthin=0\n", "thin must be >= 1",
                 id="thin"),
    pytest.param("experiment=identities\nd=2\nL=1\nrel_tolerance=0\n",
                 "rel_tolerance must be > 0", id="rel_tolerance"),
])
def test_main_reports_bad_solver_sampler_and_realization_keys(text, message,
                                                              tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(text)
    assert main([str(cfg_path), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "run_manifest.json").exists()


@pytest.mark.parametrize("text", [
    "experiment=gaussian-exact\nd=2\nL=2\n",
    "experiment=identities\nd=2\nL=2\n",
    "experiment=scaling\nd=2\nL_list=2,4\n",
    "experiment=decay\nd=3\nL=4\nr_list=0,2\n",
], ids=["gaussian-exact", "identities", "scaling", "decay"])
def test_main_rejects_a_quartic_potential_in_the_quadratic_experiments(
        text, tmp_path, capsys):
    # X does not depend on the stiffness, so quadratic:C and quartic:A:0 stay valid
    for potential in ("quadratic:2.5", "quartic:2.5:0"):
        assert parse_config(text + f"potential={potential}\n").potential.a == 2.5
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(text + "potential=quartic:1:0.1\n")
    assert main([str(cfg_path), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "requires a quadratic potential" in err
    assert not (tmp_path / "run_manifest.json").exists()


@pytest.mark.parametrize("d", [1, 3])
def test_main_rejects_clt_outside_d2(d, tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(f"experiment=clt\nd={d}\nL_list=4\nn_realizations=100\n")
    assert main([str(cfg_path), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "clt experiment requires d=2" in err
    assert not (tmp_path / "run_manifest.json").exists()


@pytest.mark.parametrize("text,key", [
    pytest.param("experiment=gaussian-exact\nd=2\nL=2\neta2=nan\n", "eta2",
                 id="eta2-nan"),
    pytest.param("experiment=scaling\nd=2\nL_list=2,4\neta2=inf\n", "eta2",
                 id="eta2-inf"),
    pytest.param("experiment=identities\nd=2\nL=2\nrel_tolerance=nan\n",
                 "rel_tolerance", id="rel_tolerance-nan"),
    pytest.param("experiment=mcmc\nd=2\nL=1\npotential=quartic:nan:1\n",
                 "potential", id="potential-nan"),
    pytest.param("experiment=mcmc\nd=2\nL=1\nproposal_width=nan\n",
                 "proposal_width", id="proposal_width-nan"),
])
def test_main_rejects_non_finite_floats(text, key, tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(text)
    assert main([str(cfg_path), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"bad value for {key}" in err
    assert "not a finite number" in err and "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))
    assert not (tmp_path / "run_manifest.json").exists()


def test_module_entry_point_runs_without_runpy_warning(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("experiment=quadrature\nR_list=10\n")
    src = Path(gradlab.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "gradlab.cli",
         str(cfg_path), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "quadrature.csv").exists()
