"""Golden referee: sha256 digests of what the CLI writes at a small, fixed
size.  For each of the nine presets, `experiment preset <name> --n 2000
--seeds 2 --gnuplot --check` must write the same files with the same bytes
and end with the same exit code and stderr (most presets fail their check
at this size, which pins the failure messages).  Two `theory` tables, one
subcritical and one supercritical, are pinned the same way, and so is
`metrics` (its CSV and stdout) on two generated edge lists of n = 5000,
whose own bytes, as `generate` writes them, are pinned under "edges".

Refactors that keep the generator's RNG stream must keep every digest.  A
deliberate output change regenerates the file once, with a CHANGES.md note
that lists the keys it moved; the script prints them:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from panet import parallel
from panet.cli import main
from panet.experiments import PRESETS

DIGESTS = Path(__file__).with_name("golden_digests.json")

# Sizes only where the table has a size column: below A = 1/2, --n exits 2.
THEORY_ARGS = {
    "A0.2": ["--m", "2", "--A", "0.2", "--D", "0.3"],
    "A0.6": ["--m", "2", "--A", "0.6", "--D", "0.2", "--n", "1000", "10000"],
}

METRICS_ARGS = {
    "A0.25": ["--m", "2", "--A", "0.25", "--D", "0.3"],
    "A0.6": ["--m", "2", "--A", "0.6", "--D", "0.2"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str]) -> tuple[int, str, str]:
    # numpy's RuntimeWarnings (a correlation over one size) carry install
    # paths; only the CLI's own stderr lines are pinned.
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue(), out.getvalue()


def preset_digest(name: str, out_dir: Path) -> dict:
    code, err, _ = _run(
        [
            "experiment", "preset", name, "--n", "2000", "--seeds", "2",
            "--gnuplot", "--check", "--out-dir", str(out_dir),
        ]
    )
    files = {p.name: _sha(p.read_bytes()) for p in sorted(out_dir.iterdir())}
    return {"exit": code, "stderr": _sha(err.encode()), "files": files}


def theory_digest(key: str, out_dir: Path) -> str:
    out = out_dir / f"theory_{key}.csv"
    code, _, _ = _run(
        ["theory", *THEORY_ARGS[key], "--d-max", "200", "--out", str(out)]
    )
    assert code == 0
    return _sha(out.read_bytes())


def generated_edges(key: str, out_dir: Path) -> Path:
    edges = out_dir / f"edges_{key}.txt"
    code, _, _ = _run(["generate", *METRICS_ARGS[key], "--n", "5000", "--seed", "7", "--out", str(edges)])
    assert code == 0
    return edges


def metrics_digest(key: str, out_dir: Path) -> dict:
    edges, out = generated_edges(key, out_dir), out_dir / f"metrics_{key}.csv"
    code, _, stdout = _run(["metrics", "--in", str(edges), "--out", str(out)])
    assert code == 0
    return {"csv": _sha(out.read_bytes()), "stdout": _sha(stdout.replace(str(out), "OUT").encode())}


def _golden() -> dict:
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("name", PRESETS)
def test_preset_outputs_and_check(name, tmp_path):
    assert preset_digest(name, tmp_path) == _golden()["presets"][name]


@pytest.mark.parametrize("key", sorted(THEORY_ARGS))
def test_theory_table(key, tmp_path):
    assert theory_digest(key, tmp_path) == _golden()["theory"][key]


@pytest.mark.parametrize("key", sorted(METRICS_ARGS))
def test_metrics_table(key, tmp_path):
    assert metrics_digest(key, tmp_path) == _golden()["metrics"][key]


# The import, the profile beside clustering and the wedge runs each split
# their work by the CPU count; the bytes written must not depend on it.
@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("key", sorted(METRICS_ARGS))
def test_metrics_table_on_any_cpu_count(key, threads, tmp_path, monkeypatch):
    monkeypatch.setattr(parallel, "cpu_count", lambda: threads)
    assert metrics_digest(key, tmp_path) == _golden()["metrics"][key]


@pytest.mark.parametrize("key", sorted(METRICS_ARGS))
def test_generated_edge_list(key, tmp_path):
    assert _sha(generated_edges(key, tmp_path).read_bytes()) == _golden()["edges"][key]


def _leaves(tree: dict, prefix: str = "") -> dict[str, object]:
    """Each non-dict value of a nested dict, keyed by its /-joined path."""
    out = {}
    for key, value in tree.items():
        path = f"{prefix}{key}"
        out.update(_leaves(value, path + "/") if isinstance(value, dict) else {path: value})
    return out


def _regenerate() -> None:
    old = _leaves(_golden()) if DIGESTS.exists() else {}
    out = {"presets": {}, "theory": {}, "metrics": {}, "edges": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name in PRESETS:
            d = Path(tmp) / name
            d.mkdir()
            out["presets"][name] = preset_digest(name, d)
        for key in sorted(THEORY_ARGS):
            out["theory"][key] = theory_digest(key, Path(tmp))
        for key in sorted(METRICS_ARGS):
            out["metrics"][key] = metrics_digest(key, Path(tmp))
            out["edges"][key] = _sha(generated_edges(key, Path(tmp)).read_bytes())
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    new = _leaves(out)
    for key in sorted(old.keys() | new.keys()):
        if old.get(key) != new.get(key):
            print(f"moved: {key}")
    n_files = sum(len(v["files"]) for v in out["presets"].values())
    print(
        f"wrote {DIGESTS} ({n_files} preset files, {len(out['theory'])} theory tables, "
        f"{len(out['metrics'])} metrics tables, {len(out['edges'])} edge lists)"
    )


if __name__ == "__main__":
    sys.exit(_regenerate())
