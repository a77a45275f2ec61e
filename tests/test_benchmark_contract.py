"""What the benchmark under perfbench/ uses of panet must exist: every
name it imports from panet, every panet.cli attribute it reads, and every
panet.cli function traced.CLI_LAYERS swaps a timing wrapper into.  A
deletion then fails here instead of in a benchmark run.  perfbench/ is
only parsed, never imported or edited."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import panet.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _trees() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(PERFBENCH.glob("*.py"))}


def _is_panet(module: str | None) -> bool:
    return module is not None and module.split(".")[0] == "panet"


def _uses() -> list[tuple[str, str, str | None]]:
    """(file, module, name or None) of each panet import and panet.cli
    attribute read; None stands for the module itself."""
    uses = []
    for fname, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and _is_panet(node.module):
                uses += [(fname, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                uses += [(fname, a.name, None) for a in node.names if _is_panet(a.name)]
            elif isinstance(node, ast.Attribute) and ast.unparse(node.value) == "panet.cli":
                uses.append((fname, "panet.cli", node.attr))
    return uses


def _cli_layers() -> dict[str, str]:
    for node in ast.walk(_trees()["traced.py"]):
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["CLI_LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/traced.py defines no CLI_LAYERS")


def test_perfbench_uses_panet():
    # Guards against an empty scan passing vacuously.
    modules = {module for _, module, _ in _uses()}
    assert {"panet", "panet.cli"} <= modules


@pytest.mark.parametrize("fname, module, name", _uses(), ids=str)
def test_imported_name_exists(fname, module, name):
    mod = importlib.import_module(module)
    assert name is None or hasattr(mod, name), f"{fname} uses {module}.{name}"


@pytest.mark.parametrize("name", sorted({*_cli_layers(), "main"}))
def test_cli_layer_exists(name):
    assert callable(getattr(panet.cli, name, None)), f"panet.cli.{name} is gone"
