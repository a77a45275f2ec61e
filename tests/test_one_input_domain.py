"""One owner of the input domain: in src/panet only params.py raises the
integer rules' messages (m, sizes, seeds, slot counts), so a second copy of "n >= m+1"
or "seed >= 0" with its own wording fails here.  The sources are only
parsed, never imported."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "panet"
OTHERS = sorted(p.name for p in SRC.glob("*.py") if p.name != "params.py")
# Text of the rules' messages, then of the copies they replaced.
RULES = ("must be an integer >=", "at least one size", "none twice", "edge slots")
RULE_TEXT = RULES + ("appears twice", "seed size", "must be >= 0", "must be >= 1")


def _raised_text(name: str) -> str:
    """Every string constant inside a raise statement of the file, f-string
    parts included, one per line."""
    path = SRC / name
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Raise):
            out += [c.value for c in ast.walk(node) if isinstance(c, ast.Constant) and isinstance(c.value, str)]
    return "\n".join(out)


def test_rules_found_in_params():
    # Guards against an empty scan passing vacuously.
    assert {"experiments.py", "graphgen.py", "oracle.py", "theory.py"} <= set(OTHERS)
    text = _raised_text("params.py")
    assert all(t in text for t in RULES), text


@pytest.mark.parametrize("name", OTHERS)
def test_only_params_raises_the_rules(name):
    text = _raised_text(name)
    assert not [t for t in RULE_TEXT if t in text], f"{name} raises {text!r}"
