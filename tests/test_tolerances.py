"""config.Tolerances is the only source of thresholds: no small literal and no
tolerance parameter outside the few functions whose callers need one."""
import ast
import dataclasses
import pathlib
import re

import pytest

from lkholonomy.config import Tolerances

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "lkholonomy"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "config.py")

# (module, qualified function name) of the tol/sigma parameters callers set:
# is_real_valued takes the metric's residual and compare_expected takes --tol.
KEEP = {("jets", "Jet.is_real_valued"), ("serialization", "compare_expected")}


def _functions(tree, prefix=""):
    """(qualified name, node) of every function, methods as Class.method."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}{node.name}", node
            yield from _functions(node, f"{prefix}{node.name}.")


def small_literals(source: str) -> list[str]:
    """Numeric constants 0 < |x| < 1e-3, as 'line: value'."""
    return [f"{n.lineno}: {n.value!r}" for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Constant) and type(n.value) in (int, float, complex)
            and 0 < abs(n.value) < 1e-3]


def tolerance_parameters(source: str, module: str) -> list[str]:
    """Functions outside KEEP with a parameter named tol or sigma."""
    out = []
    for name, fn in _functions(ast.parse(source)):
        args = fn.args
        names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        if names & {"tol", "sigma"} and (module, name) not in KEEP:
            out.append(name)
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_threshold_literal_outside_config(path):
    assert small_literals(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_tolerance_parameters_only_where_callers_set_them(path):
    assert tolerance_parameters(path.read_text(), path.stem) == []


def test_the_checks_catch_a_literal_and_a_parameter():
    source = "def f(x, tol=1e-9):\n    return x > 1e-10\n"
    assert small_literals(source) == ["1: 1e-09", "2: 1e-10"]
    assert tolerance_parameters(source, "lie") == ["f"]
    assert tolerance_parameters("def numerical_rank(s, tol): pass", "lie") == ["numerical_rank"]
    assert tolerance_parameters("def compare_expected(e, a, tol): pass", "serialization") == []


def test_every_field_is_read_outside_config():
    """Each Tolerances field is read as DEFAULT_TOL.<field> by some module
    other than config.py: a field that nothing reads is a dead threshold."""
    read = {node.attr for path in MODULES for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "DEFAULT_TOL"}
    assert [f.name for f in dataclasses.fields(Tolerances) if f.name not in read] == []


def test_tolerances_docstring_has_one_entry_per_field():
    """The docstring's entries are the dataclass fields, in order, and each
    field name occurs once: a folded or renamed field left in it fails."""
    doc = Tolerances.__doc__
    names = [f.name for f in dataclasses.fields(Tolerances)]
    assert re.findall(r"^ {4}(\w+) \d", doc, re.M) == names
    assert [len(re.findall(rf"\b{name}\b", doc)) for name in names] == [1] * len(names)
