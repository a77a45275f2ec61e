"""One path for uniform slot draws: no call in src/panet is named
.integers, so every slot comes from graphgen's raw-word kernel, which
tests/test_graphgen.py compares with numpy's integers.  The sources are
only parsed, never imported."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "panet"
FILES = sorted(p.name for p in SRC.glob("*.py"))


def _integers_calls(text: str) -> list[int]:
    """Line of every call of an attribute named integers in the text."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "integers"
    ]


def test_scan_finds_calls():
    # Guards against an empty scan passing vacuously.
    assert {"graphgen.py", "experiments.py", "metrics.py"} <= set(FILES)
    assert _integers_calls("x = 1\nrng.integers(np.repeat(b, m)).reshape(-1, m)") == [2]


@pytest.mark.parametrize("name", FILES)
def test_no_integers_call(name):
    assert not _integers_calls((SRC / name).read_text()), f"{name} calls .integers"
