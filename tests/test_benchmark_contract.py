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
from panet import derive_generator_params, export_edge_list, generate
from panet.metrics import ClusteringProfile

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


def test_metrics_calls_each_cli_layer_once(monkeypatch, tmp_path):
    # traced.py wraps each CLI_LAYERS name of panet.cli for the analyze
    # pass and keeps each wrapper's last return value; a missing clustering
    # capture counts as a failed operation.
    path = tmp_path / "g.txt"
    export_edge_list(generate(derive_generator_params(2, 0.25, 0.3), 500, seed=3), path)
    returned = {name: [] for name in _cli_layers()}

    def wrapped(fn, out):
        def call(*args, **kwargs):
            out.append(fn(*args, **kwargs))
            return out[-1]

        return call

    for name, out in returned.items():
        monkeypatch.setattr(panet.cli, name, wrapped(getattr(panet.cli, name), out))
    assert panet.cli.main(["metrics", "--in", str(path), "--out", str(tmp_path / "m.csv")]) == 0
    assert {name: len(out) for name, out in returned.items()} == dict.fromkeys(returned, 1)
    assert isinstance(returned["clustering"][0], ClusteringProfile)
