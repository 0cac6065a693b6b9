"""Module imports, and the names that perfbench looks up by name.

perfbench/spans.py traces the functions of its TRACED table by looking
each up on curvecheb.<home>, and reads the arguments of minimax_solve by
position and keyword; perfbench/setup_probe.py calls
cli.RunConfig.from_file.  A name moved or dropped, or a call shape
changed, would otherwise show only when the bench runs.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import curvecheb
from curvecheb import chebyshev, verify
from curvecheb.cli import RunConfig

SRC = Path(curvecheb.__file__).resolve().parents[1]
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
MODULES = ["curvecheb"] + sorted(f"curvecheb.{p.stem}" for p in (SRC / "curvecheb").glob("*.py")
                                 if p.stem != "__init__")


def traced_names():
    """The TRACED table of perfbench/spans.py, read without importing it."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} defines no TRACED table")


def test_bench_names_resolve():
    missing = [f"{home}.{name}" for home, names in traced_names().items() for name in names
               if not callable(getattr(importlib.import_module(f"curvecheb.{home}"), name, None))]
    assert not missing
    assert callable(RunConfig.from_file)


def test_minimax_solve_call_shape():
    # spans.py's _solve_info reads free_basis and K as args[1] and args[2],
    # and spec from the keywords
    params = list(inspect.signature(chebyshev.minimax_solve).parameters.values())
    assert [(p.name, p.kind) for p in params[:3]] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD) for name in ("leading", "free_basis", "K")]
    assert {p.name: p.kind for p in params[3:]}["spec"] is inspect.Parameter.KEYWORD_ONLY


def test_comparison_report_alias_is_the_verify_function():
    # the tracer wraps the object it finds under chebyshev in every module
    # that holds the same object, so verify_report's call is traced too
    assert chebyshev.comparison_report is verify.comparison_report


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first_in_a_fresh_interpreter(module):
    run = subprocess.run([sys.executable, "-c", f"import {module}"], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert run.returncode == 0, run.stderr
