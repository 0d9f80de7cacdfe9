"""Traced in-process runs of ``gradlab.cli.run``, for the per-layer metrics.

Usage::

    PYTHONPATH=src python3 perfbench/tracer.py CONFIG OUT_DIR BUDGET_S

Runs the config untraced, then traced, and repeats the pair while another
fits into BUDGET_S seconds (at least one pair).  Pair k writes its CLI
outputs to OUT_DIR/untraced-k and OUT_DIR/traced-k, and the whole record
(untraced experiment times, spans, names not found) to OUT_DIR/trace.json.

Spans are recorded by wrappers around public functions, installed from
here and removed again between runs, so the program itself is unchanged.
A wrapper replaces the function in every gradlab module namespace that
holds it, so calls through ``from .model import gradient_of`` are seen.
A name that no longer exists is reported as absent.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

#: (module, function) pairs whose calls become spans
FUNCTIONS = (
    ("cli", "run"),
    ("model", "sample_disorder"),
    ("model", "boundary_edges"),
    ("model", "gradient_of"),
    ("diagnostics", "divergence_residual"),
    ("diagnostics", "boundary_ergodic_average"),
    ("gaussian", "solve_array"),
    ("gaussian", "green_column"),
    ("mcmc", "estimate_gradient_mean"),
    ("mcmc", "divergence_check"),
)
#: (module, class, method) triples patched on the class
METHODS = (("gaussian", "DirichletLaplacian", "apply"),)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, run id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else -1, self.run_id])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "gradlab" or n.startswith("gradlab.")]
        self.absent = []
        for mod_name, fn_name in FUNCTIONS:
            mod = importlib.import_module(f"gradlab.{mod_name}")
            original = getattr(mod, fn_name, None)
            if original is None:
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            traced = self._wrap(f"{mod_name}.{fn_name}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, attr, value))
                        setattr(m, attr, traced)
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"gradlab.{mod_name}"), cls_name, None)
            original = vars(cls).get(meth) if cls is not None else None
            if original is None:
                self.absent.append(f"{mod_name}.{meth}")
                continue
            self._undo.append((cls, meth, original))
            setattr(cls, meth, self._wrap(f"{mod_name}.{meth}", original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def main(argv: list[str]) -> int:
    config_path, out_dir, budget = Path(argv[0]), Path(argv[1]), float(argv[2])
    start = time.perf_counter()
    from gradlab import cli

    cfg = cli.parse_config(config_path.read_text(encoding="utf-8"))
    tracer = Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    while True:
        pair_start = time.perf_counter()
        untraced.append(cli.run(cfg, out_dir / f"untraced-{tracer.run_id}")
                        .manifest["wall_time_s"])
        tracer.install()
        try:
            result = cli.run(cfg, out_dir / f"traced-{tracer.run_id}")
        finally:
            tracer.uninstall()
        traced.append(result.manifest["wall_time_s"])
        tracer.run_id += 1
        now = time.perf_counter()
        if now + (now - pair_start) - start > budget:
            break
    record = {"untraced_s": untraced, "traced_s": traced,
              "spans": tracer.spans, "absent": tracer.absent}
    (out_dir / "trace.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
