"""One preset table: the figure presets are the keys of the table that
experiments.make_preset reads, and no other module of src/panet holds a
preset name in a string literal, so a preset is added, renamed or dropped
in one place.  PRESETS, the golden parametrization and the CLI's choices
follow the table's order.  The other modules are only parsed, never
imported."""

from __future__ import annotations

import argparse
import ast
import re
from pathlib import Path

import pytest
import test_golden

from panet import experiments
from panet.cli import build_parser

SRC = Path(__file__).resolve().parents[1] / "src" / "panet"
OTHERS = sorted(p.name for p in SRC.glob("*.py") if p.name != "experiments.py")
ORDER = ("fig1a", "fig1b", "fig2", "fig3", "fig4", "fig5a", "fig5b", "fig6a", "fig6b")
NAMED = re.compile(r"\b(" + "|".join(map(re.escape, experiments.PRESETS)) + r")\b")


def _named_presets(name: str) -> list[str]:
    """Each string constant of the file (docstrings and f-string parts
    included) that names a preset."""
    path = SRC / name
    tree = ast.parse(path.read_text(), filename=str(path))
    strings = [c.value for c in ast.walk(tree) if isinstance(c, ast.Constant) and isinstance(c.value, str)]
    return [text for text in strings if NAMED.search(text)]


def _subparser(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[name]


def test_scan_finds_names():
    # Guards against an empty scan passing vacuously.
    assert {"cli.py", "theory.py", "params.py"} <= set(OTHERS)
    assert "fig6a" in "\n".join(_named_presets("experiments.py"))


@pytest.mark.parametrize("name", OTHERS)
def test_no_preset_name_outside_experiments(name):
    assert not _named_presets(name), f"{name} names a preset: {_named_presets(name)}"


def test_presets_follow_the_table():
    assert experiments.PRESETS == tuple(experiments._PRESET_TABLE) == ORDER


def test_golden_and_cli_follow_the_table():
    marks = [m for m in test_golden.test_preset_outputs_and_check.pytestmark if m.name == "parametrize"]
    assert [tuple(m.args[1]) for m in marks] == [ORDER]
    preset = _subparser(_subparser(build_parser(), "experiment"), "preset")
    assert tuple(next(a.choices for a in preset._actions if a.dest == "name")) == ORDER
