"""One d_nn recursion and no regime dispatch for it.  theory.dnn_overlay is
one expression for every 0 < A < 1, with no branch on A and no other d_nn
function inside.  Its boundary at d = m and its k(d) recursion
(theory._boundary) are read by every d_nn curve: dnn_overlay,
build_theory_curve and dnn_hypothesis.  The paper's one A >= 1/2
predictor is printed, not overlaid: in src/panet only theory.py names it
or defines theory_tables, and only theory_tables calls it.  The paper's
own forms (X_const and the two predictors it replaced) live in
tests/reference.py, and no == or != against 0.5 is left in src/panet.  A
dispatch anywhere else fails here.  The sources are only parsed, never
imported."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "panet"
PREDICTORS = {"dnn_hypothesis"}
GONE = {"X_const", "dnn_hypothesis_critical", "dnn_hypothesis_supercritical", "_check_subcritical"}
BOUNDARY_READERS = ("dnn_overlay", "build_theory_curve", "dnn_hypothesis")


def _tree(name: str) -> ast.Module:
    path = SRC / name
    return ast.parse(path.read_text(), filename=str(path))


def _names(node: ast.AST) -> list[str]:
    """Every identifier under node: names, attributes, imports, definitions
    and string constants (a getattr by name counts too)."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.alias):
            out += [sub.name.split(".")[-1], sub.asname or ""]
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append(sub.name)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.append(sub.value)
    return out


def _functions(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    return {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}


def _calls(node: ast.AST, name: str) -> list[ast.Call]:
    """Every call under node to a function named name, plain or attribute."""
    return [
        c for c in ast.walk(node)
        if isinstance(c, ast.Call) and name in (getattr(c.func, "id", None), getattr(c.func, "attr", None))
    ]


def _half_equalities(node: ast.AST) -> list[int]:
    """Lines of every == or != with 0.5 on either side."""
    return [
        c.lineno for c in ast.walk(node)
        if isinstance(c, ast.Compare)
        and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in c.ops)
        and any(isinstance(x, ast.Constant) and x.value == 0.5 for x in [c.left, *c.comparators])
    ]


OTHERS = sorted(p.name for p in SRC.glob("*.py") if p.name != "theory.py")
ALL = sorted(p.name for p in SRC.glob("*.py"))


def test_sources_found():
    # Guards against an empty scan passing vacuously.
    assert {"cli.py", "experiments.py", "__init__.py"} <= set(OTHERS)
    assert "theory.py" in ALL


def test_scanners_find_what_they_look_for():
    # Each scanner below fires on a planted case, so none passes on nothing.
    planted = ast.parse(
        "def f(p):\n"
        "    if p.A == 0.5:\n"
        "        return theory.dnn_hypothesis(p)\n"
        "    x = 0.5 != p.A\n"
        "    return p.A < 0.5 or dnn_hypothesis(p, 1)\n"
    )
    assert _half_equalities(planted) == [2, 4]
    assert len(_calls(planted, "dnn_hypothesis")) == 2
    assert "dnn_hypothesis" in _names(planted)


@pytest.mark.parametrize("name", OTHERS)
def test_only_theory_names_the_predictors(name):
    tree = _tree(name)
    assert not PREDICTORS & set(_names(tree)), f"{name} names a hypothesis predictor"
    defs = {f.name for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert "theory_tables" not in defs, f"{name} defines theory_tables"


def test_theory_picks_the_predictor_in_one_place():
    # theory_tables is dnn_hypothesis's only caller: one call per form.
    tree = _tree("theory.py")
    inside = _calls(_functions(tree)["theory_tables"], "dnn_hypothesis")
    assert len(inside) == 2
    assert _calls(tree, "dnn_hypothesis") == inside


@pytest.mark.parametrize("name", ALL)
def test_replaced_forms_are_gone(name):
    tree = _tree(name)
    assert not GONE & set(_names(tree)), f"{name} names {sorted(GONE & set(_names(tree)))}"
    assert not _half_equalities(tree), f"{name} tests == or != 0.5 at lines {_half_equalities(tree)}"


def test_every_dnn_curve_reads_the_one_boundary():
    funcs = _functions(_tree("theory.py"))
    assert "_boundary" in funcs
    for name in BOUNDARY_READERS:
        assert _calls(funcs[name], "_boundary"), f"{name} does not read _boundary"
    for name in OTHERS:
        assert "_boundary" not in _names(_tree(name)), f"{name} names theory._boundary"


def test_dnn_overlay_has_no_branch_on_A():
    funcs = _functions(_tree("theory.py"))
    overlay = funcs["dnn_overlay"]
    for node in ast.walk(overlay):
        assert not isinstance(node, ast.If), f"dnn_overlay branches at line {node.lineno}"
        if isinstance(node, (ast.IfExp, ast.Compare)):
            assert "A" not in _names(node), f"dnn_overlay tests A at line {node.lineno}"
    others = PREDICTORS | {"build_theory_curve", "dnn_theory", "_hypothesis"}
    assert not others & set(_names(overlay)), "dnn_overlay reads another d_nn function"
    assert "_hypothesis" not in funcs


def test_experiments_imports_dnn_overlay_and_build_theory_curve():
    # The finite-n overlay, and the n -> oo closed form that the fig1a,
    # fig1b and fig2 A-ordering rules measure distance from.
    imported = [
        alias.name
        for node in ast.walk(_tree("experiments.py"))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "theory"
        for alias in node.names
    ]
    assert imported == ["build_theory_curve", "dnn_overlay"]
