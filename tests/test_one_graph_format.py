"""One owner of the edge format: only graphgen, where Multigraph lives,
reads a graph's source storage (the attribute _u) or builds sources from
the slot layout, as e // m or np.repeat(np.arange(...), m).  Every other
module takes sources through Multigraph.sources or u, so a generated
graph, which holds its targets alone, reads like an imported one.  The
sources are only parsed, never imported."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "panet"
FILES = sorted(p.name for p in SRC.glob("*.py"))
OWNER = "graphgen.py"


def _name(node) -> str | None:
    """The name of a Name node, or the attribute of an Attribute node."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _calls(node, name: str) -> bool:
    return isinstance(node, ast.Call) and _name(node.func) == name


def _reads_format(node) -> bool:
    if isinstance(node, ast.Attribute) and node.attr == "_u":
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv):
        return _name(node.right) == "m"
    if _calls(node, "repeat"):
        method_of = node.func.value if isinstance(node.func, ast.Attribute) else None  # x.repeat(m)
        return _calls(method_of, "arange") or bool(node.args) and _calls(node.args[0], "arange")
    return False


def _format_reads(text: str) -> list[int]:
    """Line of every read of ._u, floor division by a name or attribute m,
    and repeat of an arange (np.repeat(np.arange(k), m) or
    np.arange(k).repeat(m)) in the text."""
    return sorted(node.lineno for node in ast.walk(ast.parse(text)) if _reads_format(node))


def test_scan_finds_reads():
    # Guards against an empty scan passing vacuously: the owner's own
    # reads are found, and so is each form.
    assert {OWNER, "metrics.py", "experiments.py", "cli.py"} <= set(FILES)
    assert _format_reads((SRC / OWNER).read_text())
    text = "a = g._u[lo:hi]\nb = e // m\nc = e // g.m\nd = np.repeat(np.arange(n), m)\ne = np.arange(n).repeat(2)"
    assert _format_reads(text) == [1, 2, 3, 4, 5]
    assert _format_reads("x = g.u\ny = g.sources(0, 4, deg)\nz = a // k\nw = np.repeat(ids, m)") == []


@pytest.mark.parametrize("name", [f for f in FILES if f != OWNER])
def test_no_format_read_outside_graphgen(name):
    assert not _format_reads((SRC / name).read_text()), f"{name} reads the edge format itself"
