"""What each experiment imports, and when.

No module of the package names scipy, and the package imports none of its
modules; ``cli.run`` imports the modules its run calls (``cli._preloads``:
``numpy.fft``, ``numpy.random``, ``gradlab.mcmc`` or ``gradlab.quadrature``)
before it starts the clock of ``wall_time_s``.  Each run here is a fresh
interpreter, so ``sys.modules`` shows what that experiment alone loaded.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gradlab
from gradlab import cli

PACKAGE = Path(gradlab.__file__).resolve().parent

#: runs the CLI on argv[1] into argv[2] with the experiment's runner wrapped,
#: and prints the modules the runner added, the scipy and gradlab modules
#: loaded and whether numpy.fft and numpy.random were
PROBE = """\
import json, sys
from gradlab import cli
config, out, experiment = sys.argv[1:]
record = cli.EXPERIMENTS[experiment]
added = []

def watched(cfg):
    before = set(sys.modules)
    result = record.run(cfg)
    added.extend(sorted(set(sys.modules) - before))
    return result

cli.EXPERIMENTS[experiment] = record._replace(run=watched)
code = cli.main([config, "--out", out])
print(json.dumps({"code": code, "added": added,
                  "scipy": sorted(m for m in sys.modules
                                  if m.split(".")[0] == "scipy"),
                  "gradlab": sorted(m for m in sys.modules
                                    if m.startswith("gradlab.")),
                  "numpy_fft": "numpy.fft" in sys.modules,
                  "numpy_random": "numpy.random" in sys.modules}))
"""

#: what every run loads: the CLI module and the modules it calls on every path
CORE = ["gradlab.cli", "gradlab.diagnostics", "gradlab.gaussian", "gradlab.model"]
#: the runs that draw random numbers, disorder or a chain
DRAWS = {"gaussian-exact", "identities", "mcmc", "clt"}


def fresh_env():
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}


@pytest.mark.parametrize("text", [
    pytest.param("experiment=decay\nd=3\nL=4\nr_list=2\n", id="decay"),
    pytest.param("experiment=clt\nL_list=2,3\nn_realizations=100\n", id="clt"),
    pytest.param("experiment=scaling\nd=2\nL_list=2,3\n", id="scaling-nn"),
    pytest.param("experiment=mcmc\nd=2\nL=1\npotential=quartic:1:0.1\n"
                 "burn_in_sweeps=20\nmeasure_sweeps=200\n", id="mcmc-quartic"),
    pytest.param("experiment=gaussian-exact\nd=2\nL=2\n", id="gaussian-nn"),
    pytest.param("experiment=identities\nd=2\nL=2\n", id="identities-nn"),
    pytest.param("experiment=mcmc\nd=2\nL=1\nburn_in_sweeps=20\n"
                 "measure_sweeps=200\n", id="mcmc-quadratic"),
    pytest.param("experiment=gaussian-exact\nd=2\nL=2\nkernel=axis2\n",
                 id="gaussian-axis2"),
    pytest.param("experiment=identities\nd=2\nL=2\nkernel=axis2\n",
                 id="identities-axis2"),
    pytest.param("experiment=scaling\nd=2\nL_list=2\nkernel=axis2\n",
                 id="scaling-axis2"),
    pytest.param("experiment=quadrature\nR_list=10\n", id="quadrature"),
])
def test_each_run_loads_only_the_scipy_module_it_calls(text, tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text(text)
    experiment = text.split("\n", 1)[0].partition("=")[2]
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(config), str(tmp_path / "out"), experiment],
        env=fresh_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["code"] == 0
    # no run calls scipy
    assert report["scipy"] == []
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    # every solve, and only a solve, runs the sine transform on numpy.fft
    assert report["numpy_fft"] == (manifest.get("solver") == "pcg")
    assert report["numpy_random"] == (experiment in DRAWS)
    assert ("numpy.random" in cli._preloads(cli.parse_config(text))) == \
        (experiment in DRAWS)
    own = {"mcmc": ["gradlab.mcmc"], "quadrature": ["gradlab.quadrature"]}
    assert report["gradlab"] == sorted(CORE + own.get(experiment, []))
    # the pre-clock import left the runner, and so the clock, nothing to load
    assert report["added"] == []
    assert manifest["timings"]["import_s"] >= 0.0
    assert set(manifest["environment"]) == {"python", "numpy", "cpu_count"}


def test_dst_solves_preload_numpy_fft_and_no_scipy():
    for text in ("experiment=identities\nd=2\nL=2\n",
                 "experiment=identities\nd=2\nL=2\nkernel=axis2\n",
                 "experiment=mcmc\nd=2\nL=1\n"):
        preloads = cli._preloads(cli.parse_config(text))
        assert "numpy.fft" in preloads
        assert [m for m in preloads if m.split(".")[0] == "scipy"] == []


def test_importing_the_package_loads_none_of_its_modules():
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys, gradlab; print(json.dumps("
         "sorted(m for m in sys.modules if m.startswith(('gradlab', 'numpy')))))"],
        env=fresh_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["gradlab"]


def import_time_modules(tree: ast.Module) -> list[str]:
    """Modules a file imports when it is imported: every import statement
    outside a function body (class bodies and module-level branches run)."""
    names, stack = [], list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_no_module_imports_scipy_at_import_time():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 7
    offenders = {p.name: mods for p in sources
                 if (mods := [m for m in import_time_modules(ast.parse(p.read_text()))
                              if m.split(".")[0] == "scipy"])}
    assert offenders == {}


def test_no_module_names_scipy_sparse():
    # nor scipy at all: the linear solve is numpy alone and J(R) a closed
    # form; scipy's cg and quad are test oracles
    sources = sorted(PACKAGE.glob("*.py"))
    assert [p.name for p in sources if "scipy" in p.read_text()] == []


def test_the_import_guard_sees_nested_and_conditional_imports():
    tree = ast.parse("import scipy.fft\n"
                     "if True:\n    from scipy.integrate import quad\n"
                     "class C:\n    import scipy.sparse\n"
                     "def f():\n    import scipy.linalg\n")
    assert sorted(import_time_modules(tree)) == ["scipy.fft", "scipy.integrate",
                                                 "scipy.sparse"]
