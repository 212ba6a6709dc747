"""Source-level checks of the package and its tests.

Every name the traced benchmark run wraps must exist on the package:
``perfbench/tracing.py`` wraps functions and methods at the names listed in
its ``TARGETS`` table, and a rename or deletion in the package would break the
traced run.  The table is read from the file's source, so nothing under
``perfbench/`` is imported or written.  Every name of a module's
``__all__`` must have a caller: the package, a script or the benchmark
refers to it, or the tracer wraps it; no name is reached from tests alone.

The numeric layer (``spectra``, ``zetadet``) imports no sympy itself, so the
computer algebra system stays in the symbolic modules.  It takes no working
precision either: its values leave it as float64, so no function there has a
``dps`` parameter, and the CLI reads ``cfg.dps`` only in ``specfun-selftest``.

Every exact zero decision goes through ``dtnzeta.sfunc.exact_zero``: no
``simplify``/``gammasimp``/``cancel`` result may decide a comparison or a
branch in the package, and no test keeps its own ``_exact_zero``.  Neither
heuristic simplifier, ``simplify`` or ``gammasimp``, appears in the package,
and deriving a density does not import ``sympy.physics.units`` (which
``simplify`` loads); importing the CLI does not import numpy.  The geometry
densities are lambdified for ``math``, which takes the float64 columns as they
are, so computing a geometry constant does not load ``numpy.f2py``; a
``numpy``-lambdified density would, through its ``from numpy import *``, with
some two hundred other modules.  The Gamma normal form ``_gamma_class`` is referred to only inside ``sfunc.py``; other
modules use ``exact_zero`` and ``rationalize``.  Both go through the one
sparse rational-function field built in ``sfunc._field``, in one walk over the
input with each Gamma factor rewritten at its leaf: ``_field`` and
``_gamma_class`` refer to no ``xreplace``, ``atoms`` or ``Dummy``.  No module
of the package refers to ``together`` or ``cancel``.  The ``s``-jet is taken at
``s = 0`` only, from that field: ``sfunc.py`` refers to no ``series``,
``diff``, ``subs`` or ``_branch_point``; it is read from the element of
the whole expression, so ``sfunc.py`` defines no per-factor ``_laurent`` and
splits no expression into its terms (``as_independent``, ``Add.make_args``).
``symbolcas._laurent_expansion`` returns its ring element, which
``canonical_zero_form`` and ``projected_square_correction_defect`` read
without rebuilding it (``from_dict``).  A resolvent trace is reduced in
one walk into its Laurent ring, the substitutions made at the leaves:
``symbolint.boundary_reduce`` and ``symbolcas._laurent_expansion`` refer to no
``expand``, ``xreplace`` or ``eval_at_boundary_point``, and the projected-square
proof ``symbolcas.projected_square_correction_defect`` reads its defect at the
point through the same walk, with neither of the last two.  The graded symbols
and the resolvent are built with ``BoundaryChart._compose_term``;
``star_compose`` and the three proofs do not refer to it, so the proofs check
the construction against a composition they do not share with it.

A ``@given`` test that fails on a generated example is reported as a failure,
and the session runs on: ``tests/conftest.py`` imports the module Hypothesis's
pytest plugin loads on a failure, whose import warning would otherwise end the
session with ``INTERNALERROR`` under ``filterwarnings = ["error"]``.

The opaque jets of the boundary-point table, the must-cancel jets and the
first jets of ``omega``, are named in string literals only inside
``BoundaryChart._point_table``, which builds the table.

No method of ``symbolcas.BoundaryChart`` but ``__init__`` assigns to an
attribute of the chart or to an item inside one: a chart is shared through
the cached ``chart(m, q)``, and its stage methods are memoized with
``functools.cache`` instead of writing into the instance.

Importing the package sizes sympy's expression cache to ``2**14`` entries
unless ``SYMPY_CACHE_SIZE`` is already set; sympy reads the size on its first
import, so a program that imports sympy first keeps sympy's default.
"""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracing.py"
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
    for name in (f"dtnzeta.{m}" for m in MODULES):
        mod = importlib.import_module(name)
        absent = [n for n in mod.__all__ if not hasattr(mod, n)]
        assert not absent, f"{name}.__all__ lists missing names {absent}"


# public names that only tests reach
TEST_ONLY = set()


def test_every_public_name_has_a_caller():
    # a name in a module's __all__ must be read by the package, a script or
    # the benchmark (a tracer target counts), not by tests alone
    used = {part for _, attr, _ in _tracer_targets() for part in attr.split(".")}
    for path in [*(ROOT / "src" / "dtnzeta").glob("*.py"), *(ROOT / "scripts").rglob("*.py"),
                 *(ROOT / "perfbench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    uncalled = {f"{module}.{name}" for module in MODULES
                for name in importlib.import_module(f"dtnzeta.{module}").__all__
                if name not in used}
    assert uncalled == TEST_ONLY


@pytest.mark.parametrize("module", ["spectra", "zetadet"])
def test_numeric_layer_imports_no_sympy(module):
    tree = ast.parse((ROOT / "src" / "dtnzeta" / f"{module}.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module]
    assert not [name for name in imported if name.split(".")[0] == "sympy"]


def test_numeric_layer_has_one_precision():
    # the cylinder values leave zetadet as float64, so no function of the
    # numeric layer takes a working precision, and the CLI reads --dps only
    # for specfun-selftest
    params = []
    for module in ("spectra", "zetadet"):
        tree = ast.parse((ROOT / "src" / "dtnzeta" / f"{module}.py").read_text())
        params += [f"{module}.{node.name}" for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef)
                   and "dps" in [a.arg for a in node.args.args + node.args.kwonlyargs]]
    assert not params, params
    tree = ast.parse((ROOT / "src" / "dtnzeta" / "cli.py").read_text())
    readers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Attribute)
               and node.attr == "dps" and getattr(node.value, "id", None) == "cfg"}
    assert readers == {"_run_specfun_selftest"}


SIMPLIFIERS = {"simplify", "gammasimp", "cancel"}


def _simplifier_call(node) -> bool:
    return any(isinstance(n, ast.Call)
               and getattr(n.func, "attr", getattr(n.func, "id", None)) in SIMPLIFIERS
               for n in ast.walk(node))


def _decisions(tree):
    """Every expression whose value a comparison, branch or ``not`` decides on."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(isinstance(op, (ast.Eq, ast.NotEq))
                                                 for op in node.ops):
            yield node
        elif isinstance(node, (ast.If, ast.IfExp, ast.While, ast.Assert)):
            yield node.test
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield node.operand
        elif isinstance(node, ast.comprehension):
            yield from node.ifs


def _tested_names(decision) -> set[str]:
    """Names a decision tests as they are: the whole test or a compared side."""
    parts = ([decision.left, *decision.comparators] if isinstance(decision, ast.Compare)
             else [decision])
    return {p.id for p in parts if isinstance(p, ast.Name)}


def _simplified_decisions(fn) -> list[int]:
    """Lines of ``fn`` where a simplifier result decides a comparison or
    branch, directly or through a local name assigned from it."""
    simplified = {t.id for n in ast.walk(fn) if isinstance(n, ast.Assign)
                  and _simplifier_call(n.value) for t in n.targets if isinstance(t, ast.Name)}
    return [d.lineno for d in _decisions(fn)
            if _simplifier_call(d) or _tested_names(d) & simplified]


def test_no_simplifier_decides_zero():
    found = []
    for path in sorted((ROOT / "src" / "dtnzeta").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{line}" for line in _simplified_decisions(fn)]
    assert not found, f"zero decided by simplify/gammasimp/cancel at {sorted(set(found))}"


def test_no_private_exact_zero():
    copies = [f"{path.relative_to(ROOT)}:{node.lineno}"
              for path in sorted([*(ROOT / "tests").glob("*.py"),
                                  *(ROOT / "src" / "dtnzeta").glob("*.py")])
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.FunctionDef) and node.name == "_exact_zero"]
    assert not copies, f"use dtnzeta.sfunc.exact_zero instead of {copies}"


# the functions of the package that may refer to each heuristic simplifier
HEURISTIC_HOMES = {"simplify": set(), "gammasimp": set()}


def _references(node, function=None):
    """``(name, innermost enclosing function)`` of every name or attribute."""
    for child in ast.iter_child_nodes(node):
        inner = function
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = child.name
        elif isinstance(child, (ast.Name, ast.Attribute)):
            yield getattr(child, "attr", getattr(child, "id", None)), function
        elif isinstance(child, ast.alias):
            yield child.name.rsplit(".", 1)[-1], function
        yield from _references(child, inner)


def test_heuristic_simplifiers_have_one_home():
    found = {name: set() for name in HEURISTIC_HOMES}
    for path in sorted((ROOT / "src" / "dtnzeta").glob("*.py")):
        for name, function in _references(ast.parse(path.read_text())):
            if name in found:
                found[name].add((path.name, function))
    assert found == HEURISTIC_HOMES


def test_gamma_normal_form_has_one_home():
    homes = set()
    for path in sorted((ROOT / "src" / "dtnzeta").glob("*.py")):
        tree = ast.parse(path.read_text())
        names = [name for name, _ in _references(tree)]
        names += [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names]
        if "_gamma_class" in names:
            homes.add(path.name)
    assert homes == {"sfunc.py"}


def test_rational_field_has_one_home():
    # every exact zero and every rational form goes through the one sparse
    # field of sfunc._field: no other function builds a FracField, and no
    # module keeps an Expr-level rational normalization (together/cancel)
    homes, normalizers = set(), set()
    for path in sorted((ROOT / "src" / "dtnzeta").glob("*.py")):
        for name, function in _references(ast.parse(path.read_text())):
            if name == "FracField":
                homes.add((path.name, function))
            if name in {"together", "cancel"}:
                normalizers.add((path.name, function, name))
    assert homes == {("sfunc.py", "_field")}
    assert not normalizers


def test_field_is_one_walk():
    # sfunc._field maps each Gamma factor to its class generator at its leaf,
    # in the walk that builds the field element: no rewritten copy of the
    # input (xreplace), no pre-pass over its atoms and no Dummy representative
    tree = ast.parse((ROOT / "src" / "dtnzeta" / "sfunc.py").read_text())
    found = []
    for function in ("_field", "_gamma_class"):
        fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function)
        names = {name for name, _ in _references(fn)}
        found += [f"{function}: {name}" for name in sorted(names & {"xreplace", "atoms", "Dummy"})]
    assert not found, found


def test_jet_is_read_at_zero_from_the_field():
    # the s-jet is taken at s = 0 from the field element of the expression:
    # no series, no subs/diff at a point and no branch-point test
    names = {name for name, _ in
             _references(ast.parse((ROOT / "src" / "dtnzeta" / "sfunc.py").read_text()))}
    assert not names & {"series", "diff", "subs", "_branch_point"}


def test_trace_reduction_is_one_walk():
    # a resolvent trace reaches its Laurent ring in one walk, with the jets,
    # lam and mu substituted at its leaves: no sympy tree is rebuilt by
    # xreplace or eval_at_boundary_point before it, nor expanded after it;
    # the projected-square defect is read at the point by the same walk
    found = []
    for module, function, banned in (
            ("symbolint.py", "boundary_reduce", {"expand", "xreplace", "eval_at_boundary_point"}),
            ("symbolcas.py", "_laurent_expansion", {"expand", "xreplace", "eval_at_boundary_point"}),
            ("symbolcas.py", "projected_square_correction_defect",
             {"xreplace", "eval_at_boundary_point"})):
        tree = ast.parse((ROOT / "src" / "dtnzeta" / module).read_text())
        fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function)
        names = {name for name, _ in _references(fn)}
        found += [f"{function}: {name}" for name in sorted(names & banned)]
    assert not found, found


def test_jet_is_read_from_the_whole_expression():
    # one cached s-jet per expression, read from its one field element: no
    # per-factor _laurent, and no split of a transform into its terms or its
    # s-free coefficients
    tree = ast.parse((ROOT / "src" / "dtnzeta" / "sfunc.py").read_text())
    assert "_laurent" not in {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    regroups = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and (node.attr == "as_independent"
                     or node.attr == "make_args" and getattr(node.value, "attr", None) == "Add")]
    assert not regroups, regroups


def test_laurent_walk_returns_its_ring_element():
    # the readers of the walk take its ring element whole: none rebuilds it
    from sympy.polys.rings import PolyElement

    from dtnzeta.symbolcas import _laurent_expansion, chart
    tree = ast.parse((ROOT / "src" / "dtnzeta" / "symbolcas.py").read_text())
    found = []
    for function in ("canonical_zero_form", "projected_square_correction_defect"):
        fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function)
        if "from_dict" in {name for name, _ in _references(fn)}:
            found.append(function)
    assert not found, found
    ch = chart(2, 0)
    gap = _laurent_expansion(ch, 1 / (ch.mu - ch.w))
    assert isinstance(gap, PolyElement) and gap.as_expr() == 1 / gap.ring.symbols[0]
    zero = _laurent_expansion(ch, ch.mu / (ch.w * (ch.mu - ch.w)) - 1 / (ch.mu - ch.w) - 1 / ch.w)
    assert isinstance(zero, PolyElement) and not zero


def test_proofs_do_not_share_the_composition_term():
    # the graded symbols and the resolvent are built with
    # BoundaryChart._compose_term; the composition the proofs check them with
    # keeps its own loop, so a fault in the routine cannot hide from them
    tree = ast.parse((ROOT / "src" / "dtnzeta" / "symbolcas.py").read_text())
    found = []
    for function in ("star_compose", "riccati_residual", "parametrix_defect",
                     "projected_square_correction_defect"):
        fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function)
        if "_compose_term" in {name for name, _ in _references(fn)}:
            found.append(function)
    assert not found, found


# the names of the opaque jets: must-cancel jets and first jets of omega
OPAQUE_NAME = re.compile(r"\b(Jgu|Gmmo?|Jlngm|dom|RicM|RM)(\d|\b)")


def _strings(node, function=None):
    """``(text, enclosing method or function)`` of every string literal, each
    literal piece of an f-string included; a nested function counts as the
    one that encloses it."""
    for child in ast.iter_child_nodes(node):
        inner = function
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and function is None:
            inner = child.name
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            yield child.value, function
        yield from _strings(child, inner)


def test_opaque_jet_names_have_one_home():
    # the opaque values of the boundary-point table are named where the table
    # is built and nowhere else: no second list of what must cancel, and no
    # caller formats a jet name to look its value up
    homes = set()
    for path in sorted((ROOT / "src" / "dtnzeta").glob("*.py")):
        for text, function in _strings(ast.parse(path.read_text())):
            if OPAQUE_NAME.search(text):
                homes.add((path.name, function))
    assert homes == {("symbolcas.py", "_point_table")}


def _written_self_attr(target):
    """``attr`` when an assignment to ``target`` writes ``self.attr`` or an item
    or attribute inside it, else None."""
    while isinstance(target, (ast.Subscript, ast.Attribute)):
        if isinstance(target, ast.Attribute) and getattr(target.value, "id", None) == "self":
            return target.attr
        target = target.value
    return None


def _assigned(node):
    """Every target an assignment statement writes, tuples unpacked."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            targets += target.elts
        elif isinstance(target, ast.Starred):
            targets.append(target.value)
        else:
            yield target


def test_boundary_chart_state_set_only_in_init():
    # charts are shared through the cached chart(m, q): a method that writes
    # to self would hide mutable state inside a cached object
    tree = ast.parse((ROOT / "src" / "dtnzeta" / "symbolcas.py").read_text())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "BoundaryChart")
    writes = [f"{method.name}:{node.lineno} self.{attr}"
              for method in cls.body
              if isinstance(method, ast.FunctionDef) and method.name != "__init__"
              for node in ast.walk(method)
              if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
              for attr in map(_written_self_attr, _assigned(node)) if attr]
    assert not writes, writes


def test_density_derivation_imports_no_units():
    code = ("import sys\n"
            "from dtnzeta.symbolint import a0_density, q_density\n"
            "a0_density(2, 1), q_density(3, 0)\n"
            "print('sympy.physics.units' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_geometry_constant_loads_no_numpy_namespace():
    code = ("import sys\n"
            "from dtnzeta.cli import RunConfig, run\n"
            "run(RunConfig(command='geom-constants', geometry='unit-ball', q=0))\n"
            "print('numpy.f2py' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_cli_import_loads_no_numpy():
    # numpy is imported where a numeric kernel first needs it, so the
    # derivations and the cylinder checks never load it; a quadrature does
    code = ("import sys\n"
            "from dtnzeta.cli import RunConfig, run\n"
            "print('numpy' in sys.modules)\n"
            "run(RunConfig(command='verify-cylinder'))\n"
            "print('numpy' in sys.modules)\n"
            "run(RunConfig(command='conformal-check'))\n"
            "print('numpy' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False", "False", "True"]


@pytest.mark.parametrize("preamble, env_size, size", [
    pytest.param("", None, 2 ** 14, id="package-size"),
    pytest.param("", "1000", 1000, id="caller-size-wins"),
    pytest.param("import sympy\n", None, 1000, id="sympy-imported-first"),
])
def test_sympy_cache_size(preamble, env_size, size):
    # the package sizes sympy's expression cache to hold the proofs' working
    # set; the caller's SYMPY_CACHE_SIZE wins, and the size takes effect only
    # when the package is imported before sympy (1000 is sympy's default)
    code = (preamble + "import dtnzeta.cli\n"
            "from sympy.core.operations import AssocOp\n"
            "print(AssocOp.__new__.cache_info().maxsize)\n")
    env = {k: v for k, v in os.environ.items() if k != "SYMPY_CACHE_SIZE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if env_size is not None:
        env["SYMPY_CACHE_SIZE"] = env_size
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == str(size)


def test_failing_given_test_does_not_end_session(tmp_path):
    # a falsified @given test used to end the session with INTERNALERROR, so
    # the passing test after it never ran and the summary read "1 failed"
    (tmp_path / "test_x.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x > 10**9\n\n\n"
        "def test_passes():\n"
        "    pass\n")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "tests"), str(ROOT / "src")])}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "conftest",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_x.py")],
        env=env, capture_output=True, text=True)
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output
    assert re.fullmatch(r"1 failed, 1 passed in [0-9.]+s", output.strip().splitlines()[-1])
