"""One owner of execution: in src/panet only parallel.py imports threading,
concurrent.futures, multiprocessing or ctypes, so the process pool, the
thread map and the malloc tuning live there alone.  A second pool or a
second mallopt call site fails here.  The sources are only parsed, never
imported."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "panet"
EXECUTION = {"threading", "concurrent", "multiprocessing", "ctypes"}
OTHERS = sorted(p.name for p in SRC.glob("*.py") if p.name != "parallel.py")


def _imported(name: str) -> set[str]:
    """Top-level package of every module the file imports."""
    path = SRC / name
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            out |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_sources_found():
    # Guards against an empty scan passing vacuously.
    assert {"cli.py", "experiments.py", "metrics.py"} <= set(OTHERS)
    assert {"threading", "concurrent", "ctypes"} <= _imported("parallel.py")


@pytest.mark.parametrize("name", OTHERS)
def test_only_parallel_imports_execution_modules(name):
    assert not EXECUTION & _imported(name), f"{name} imports {sorted(EXECUTION & _imported(name))}"
