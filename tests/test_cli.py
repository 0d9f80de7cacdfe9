import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gradlab
from gradlab.cli import (EXIT_CONFIG, EXIT_INVARIANT, EXIT_NUMERICAL, EXIT_OK,
                         ConfigError, ExperimentConfig, main, parse_config, run)
from gradlab.model import Potential


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
    cfg = parse_config("experiment=identities\nL=2\npotential=quartic:1.0:0.1\n")
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


def test_corrupted_field_hook_exits_invariant_failure(tmp_path):
    cfg = parse_config("experiment=identities\nd=2\nL=3\ncorrupt_field=true\n")
    result = run(cfg, tmp_path)
    assert result.exit_code == EXIT_INVARIANT
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["status"] == "invariant-failure"
    assert manifest["partial_outputs"] is True


def test_numerical_failure_exit_code(tmp_path):
    # the iteration cap exists only on the conjugate-gradient (non-nn) path
    cfg = parse_config("experiment=identities\nd=2\nL=6\nkernel=axis2\n"
                       "max_iterations=2\n")
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
    assert manifest["solver"] == "dst"
    assert "residual" in manifest["summaries"]["error"]


@pytest.mark.parametrize("text,method", [
    pytest.param("experiment=identities\nd=2\nL=3\n", "dst", id="nn"),
    pytest.param("experiment=identities\nd=2\nL=3\nkernel=axis2\n", "cg",
                 id="axis2"),
    pytest.param("experiment=decay\nd=3\nL=4\nr_list=2\n", "spectral", id="decay"),
    pytest.param("experiment=scaling\nd=2\nL_list=2,4\n", "spectral",
                 id="scaling-nn"),
    pytest.param("experiment=scaling\nd=2\nL_list=2,4\nkernel=axis2\n", "cg",
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


def test_experiment_config_defaults_are_valid():
    cfg = ExperimentConfig(experiment="quadrature", R_list=(1.0,))
    assert cfg.solver().rel_tolerance == 1e-10
    assert cfg.sampler().target_acceptance == 0.44
    assert cfg.quadrature_config().rel_tolerance == 1e-8


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
    pytest.param("experiment=mcmc\nd=2\nL=1\nthin=0\n", "thin must be >= 1",
                 id="thin"),
    pytest.param("experiment=identities\nd=2\nL=1\nrel_tolerance=0\n",
                 "rel_tolerance must be > 0", id="rel_tolerance"),
    pytest.param("experiment=identities\nd=2\nL=1\nmax_iterations=0\n",
                 "max_iterations must be >= 1", id="max_iterations"),
])
def test_main_reports_bad_solver_sampler_and_realization_keys(text, message,
                                                              tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(text)
    assert main([str(cfg_path), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
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
