"""Every name the traced benchmark run wraps must exist on the package.

``perfbench/tracing.py`` wraps functions and methods at the names listed in
its ``TARGETS`` table; a rename or deletion in the package would break the
traced run.  The table is read from the file's source, so nothing under
``perfbench/`` is imported or written.
"""

import ast
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = ("sfunc", "symbolcas", "symbolint", "spectra", "zetadet", "geom", "cli")


def _tracer_targets():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS table in the tracer")


def test_tracer_targets_resolve():
    missing = []
    for modname, attr, _ in _tracer_targets():
        owner = importlib.import_module(f"dtnzeta.{modname}")
        *path, leaf = attr.split(".")
        try:
            for part in path:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, leaf)
        except AttributeError:
            missing.append(f"{modname}.{attr}")
            continue
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        if not callable(fn):
            missing.append(f"{modname}.{attr} is a {type(raw).__name__}")
    assert not missing, missing


def test_all_names_exist():
    for name in ("dtnzeta", *(f"dtnzeta.{m}" for m in MODULES)):
        mod = importlib.import_module(name)
        absent = [n for n in mod.__all__ if not hasattr(mod, n)]
        assert not absent, f"{name}.__all__ lists missing names {absent}"
