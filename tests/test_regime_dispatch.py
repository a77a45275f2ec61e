"""No regime dispatch for d_nn: theory.dnn_overlay is one expression for
every 0 < A < 1, with no branch on A and no other d_nn function inside.
The paper's hypothesis predictors are printed, not overlaid: in src/panet
only theory.py names them or defines theory_tables, and inside theory.py
only theory_tables picks between them.  A dispatch anywhere else fails
here.  The sources are only parsed, never imported."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "panet"
PREDICTORS = {"dnn_hypothesis_supercritical", "dnn_hypothesis_critical"}


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


OTHERS = sorted(p.name for p in SRC.glob("*.py") if p.name != "theory.py")


def test_sources_found():
    # Guards against an empty scan passing vacuously.
    assert {"cli.py", "experiments.py", "__init__.py"} <= set(OTHERS)


@pytest.mark.parametrize("name", OTHERS)
def test_only_theory_names_the_predictors(name):
    tree = _tree(name)
    assert not PREDICTORS & set(_names(tree)), f"{name} names a hypothesis predictor"
    defs = {f.name for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert "theory_tables" not in defs, f"{name} defines theory_tables"


def test_theory_picks_the_predictor_in_one_place():
    tree = _tree("theory.py")
    inside = _names(_functions(tree)["theory_tables"])
    assert PREDICTORS <= set(inside)
    # Outside theory_tables the predictors are only defined and exported.
    loads = [n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id in PREDICTORS]
    assert sorted(loads) == sorted(n for n in inside if n in PREDICTORS)


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
