"""Output checks.  Each check returns a list of problems; an empty list
means the output passed.

The exact invariants hold for every graph the generator grows:
sum N(d) = n, sum d*N(d) = 2E, E = m*n and sum S(d) = W.  They are
applied in pooled form to every ScenarioResult and in CSV form to the
output of ``panet metrics``.  The triangle reference is computed here
with scipy sparse products, independently of ``panet.metrics``.
"""

from __future__ import annotations

import csv
import math

import numpy as np


def pooled_invariants(res) -> list[str]:
    """sum_d pooled_N = seeds*n, sum_d d*pooled_N = seeds*2mn and
    sum_d pooled_S = sum of W over seeds, for every size of the scenario."""
    s = res.scenario
    problems = []
    for n, seeds in zip(s.n_list, s.seeds_for_n):
        N = res.pooled_N.get(n, {})
        S = res.pooled_S.get(n, {})
        W = res.W_per_seed.get(n, [])
        tag = f"{s.name} n={n}"
        if len(W) != seeds or len(res.probe_per_seed.get(n, [])) != seeds:
            problems.append(f"{tag}: {len(W)} per-seed records, expected {seeds}")
        if sum(N.values()) != seeds * n:
            problems.append(f"{tag}: sum N = {sum(N.values())} != seeds*n = {seeds * n}")
        two_e = sum(d * c for d, c in N.items())
        if two_e != seeds * 2 * s.m * n:
            problems.append(f"{tag}: sum d*N = {two_e} != seeds*2mn = {seeds * 2 * s.m * n}")
        if sum(S.values()) != sum(W):
            problems.append(f"{tag}: sum S = {sum(S.values())} != sum W = {sum(W)}")
    return problems


def ac04_bound(res, threshold: int = 500, tol: float = 0.10) -> list[str]:
    """AC04: pooled dnn within 10% of the closed form at every degree with
    pooled N(d) >= 500, on more than ten such degrees."""
    from panet import build_theory_curve

    s = res.scenario
    n = s.n_list[-1]
    ds = res.populated_degrees(n, threshold=threshold)
    if len(ds) <= 10:
        return [f"{s.name}: only {len(ds)} degrees with N >= {threshold}"]
    curve = build_theory_curve(s.model, ds)
    worst = max(abs(res.dnn_pooled(n, d) / curve.dnn_exact[i] - 1.0) for i, d in enumerate(ds))
    return [] if worst <= tol else [f"{s.name}: dnn off theory by {worst:.1%} (> {tol:.0%})"]


def same_pooled(a, b) -> list[str]:
    """Two runs of one scenario (parallel and serial replay) must pool to
    identical N, S and W."""
    if a.pooled_N != b.pooled_N or a.pooled_S != b.pooled_S or a.W_per_seed != b.W_per_seed:
        return [f"{a.scenario.name}: serial replay differs from run_scenario"]
    return []


# ---------------------------------------------------------------------------
# Triangle reference for the analyze inputs.


def read_edges(path) -> np.ndarray:
    """Edge list file -> (E, 2) int64 array, without panet's importer."""
    with open(path) as fh:
        flat = np.array(fh.read().split(), dtype=np.int64)
    return flat.reshape(-1, 2)


def triangle_reference(path, rows_per_chunk: int = 20_000) -> dict:
    """C1, C2, C(d) and the triangle count of the simple projection, from
    per-vertex triangle counts diag(A^3)/2 = rowsum((A@A) o A)/2 (taken in
    row chunks so hub rows never materialise one huge product)."""
    import scipy.sparse as sp

    edges = read_edges(path)
    n = int(edges.max()) + 1
    mdeg = np.bincount(edges.ravel(), minlength=n)
    lo = edges.min(axis=1)
    hi = edges.max(axis=1)
    keys = np.unique(lo * n + hi)
    a, b = keys // n, keys % n
    ones = np.ones(2 * len(keys), dtype=np.int64)
    A = sp.csr_matrix((ones, (np.r_[a, b], np.r_[b, a])), shape=(n, n))
    tri = np.zeros(n, dtype=np.int64)
    for r0 in range(0, n, rows_per_chunk):
        block = A[r0 : r0 + rows_per_chunk]
        tri[r0 : r0 + rows_per_chunk] = np.asarray((block @ A).multiply(block).sum(axis=1)).ravel() // 2
    sdeg = np.diff(A.indptr)
    p2 = sdeg * (sdeg - 1) // 2
    local = np.divide(tri, p2, out=np.zeros(n), where=p2 > 0)
    by_deg_sum = np.bincount(mdeg, weights=local)
    by_deg_cnt = np.bincount(mdeg)
    C_of_d = {int(d): float(by_deg_sum[d] / c) for d, c in enumerate(by_deg_cnt) if c > 0}
    triangles = int(tri.sum()) // 3
    p2_total = int(p2.sum())
    return {
        "n": n,
        "edges": int(len(edges)),
        "W": int(np.sum(mdeg * mdeg)),
        "simple_edges": int(len(keys)),
        "triangles": triangles,
        "p2_total": p2_total,
        "C1": 3.0 * triangles / p2_total,
        "C2": float(local.sum() / n),
        "C_of_d": C_of_d,
        "max_degree": int(mdeg.max()),
    }


def _close(x: float, y: float, rel: float) -> bool:
    return math.isclose(x, y, rel_tol=rel, abs_tol=1e-12)


def clustering_vs_reference(cp, ref: dict) -> list[str]:
    """A ClusteringProfile from panet.metrics.clustering against the
    reference: the triangle count behind C1 must match exactly."""
    problems = []
    tri = round(cp.C1 * ref["p2_total"] / 3.0)
    if tri != ref["triangles"]:
        problems.append(f"clustering: {tri} triangles, reference {ref['triangles']}")
    if not _close(cp.C2, ref["C2"], 1e-9):
        problems.append(f"clustering: C2 = {cp.C2!r}, reference {ref['C2']!r}")
    return problems


def cli_metrics_output(rc, stdout: str, csv_path, ref: dict, m: int) -> list[str]:
    """CSV form of the invariants plus the summary lines of ``panet metrics``,
    checked against the reference computed from the same edge list."""
    if rc != 0:
        return [f"panet metrics exited {rc}"]
    fields = {}
    for tok in stdout.split():
        key, sep, val = tok.partition("=")
        if sep:
            fields[key] = val
    try:
        n, edges, W = int(fields["n"]), int(fields["edges"]), int(fields["W"])
        C1, C2 = float(fields["C1"]), float(fields["C2"])
        float(fields["pearson"])
    except (KeyError, ValueError) as exc:
        return [f"panet metrics summary unreadable ({exc!r}): {stdout!r}"]
    problems = []
    if (n, edges, W) != (ref["n"], ref["edges"], ref["W"]):
        problems.append(f"summary n/edges/W {(n, edges, W)} != reference {(ref['n'], ref['edges'], ref['W'])}")
    if edges != m * n:
        problems.append(f"E = {edges} != m*n = {m * n}")
    # The summary prints 6 significant digits.
    if not _close(C1, ref["C1"], 1e-5) or not _close(C2, ref["C2"], 1e-5):
        problems.append(f"C1/C2 = {C1}/{C2}, reference {ref['C1']:.6g}/{ref['C2']:.6g}")

    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    d = np.array([int(r["d"]) for r in rows])
    N = np.array([int(r["N"]) for r in rows])
    S = np.array([int(r["S"]) for r in rows])
    if int(N.sum()) != n:
        problems.append(f"csv: sum N = {int(N.sum())} != n = {n}")
    if int((d * N).sum()) != 2 * edges:
        problems.append(f"csv: sum d*N = {int((d * N).sum())} != 2E = {2 * edges}")
    if int(S.sum()) != W:
        problems.append(f"csv: sum S = {int(S.sum())} != W = {W}")
    for r in rows:
        dd = int(r["d"])
        dnn = float(r["dnn"])
        if not _close(dnn, int(r["S"]) / (int(r["N"]) * dd), 1e-8):
            problems.append(f"csv: dnn({dd}) = {dnn} != S/(N d)")
            break
        if not _close(float(r["C_of_d"]), ref["C_of_d"].get(dd, math.nan), 1e-8):
            problems.append(f"csv: C({dd}) = {r['C_of_d']}, reference {ref['C_of_d'].get(dd)}")
            break
    return problems


# ---------------------------------------------------------------------------
# Numerics.


def oracle_table(tab, n_values) -> list[str]:
    """Checkpoints as requested; N mass conserved (sum N = n) at each."""
    problems = []
    if list(tab.n_values) != list(n_values):
        problems.append(f"integrate_S checkpoints {list(tab.n_values)} != {list(n_values)}")
        return problems
    for i, n in enumerate(n_values):
        mass = float(tab.N[i].sum())
        if not _close(mass, n, 1e-6):
            problems.append(f"integrate_S: sum N = {mass} at n = {n}")
        if not np.all(np.isfinite(tab.S[i])):
            problems.append(f"integrate_S: non-finite S at n = {n}")
    return problems


def ac03_gaps(tab, curve, d_range=range(2, 11)) -> list[str]:
    """AC03: S(d)/n within 2% of M(d) for d in [2, 10] at the last
    checkpoint, and the gap shrinking across the checkpoints."""
    gaps = [
        max(abs(tab.S[i][d] / n - curve.M_at(d)) / curve.M_at(d) for d in d_range)
        for i, n in enumerate(tab.n_values)
    ]
    ok = gaps[-1] < 0.02 and all(a > b for a, b in zip(gaps, gaps[1:]))
    return [] if ok else [f"oracle gaps by n {gaps} (need < 2% and decreasing)"]


def compare_report(report, d_range=range(2, 11)) -> list[str]:
    """compare_closed_form's final-checkpoint gaps agree with AC03's bound."""
    worst = max(report[d]["rel_err_S"] for d in d_range)
    return [] if worst < 0.02 else [f"compare_closed_form: rel_err_S {worst:.3e} >= 2%"]


def theory_curve_sums(curve, m: int) -> list[str]:
    """c(m, d) is a distribution with mean degree 2m (the tail past the
    largest d is far below the tolerance for A <= 0.2)."""
    d = np.asarray(curve.d_values, dtype=float)
    total = float(curve.c_exact.sum())
    mean = float((d * curve.c_exact).sum())
    problems = []
    if not _close(total, 1.0, 1e-9):
        problems.append(f"sum c(m,d) = {total}")
    if not _close(mean, 2.0 * m, 1e-9):
        problems.append(f"sum d c(m,d) = {mean} != 2m")
    if not np.all(np.isfinite(curve.dnn_exact)) or np.any(curve.dnn_exact <= 0):
        problems.append("dnn_exact not finite and positive")
    return problems


def ratio_within(name: str, value: float, target: float, tol: float) -> list[str]:
    r = value / target
    return [] if abs(r - 1.0) < tol else [f"{name}: ratio {r:.4f} outside 1 +/- {tol}"]


def theory_rows(rows, expected: int) -> list[str]:
    if len(rows) != expected:
        return [f"theory_tables: {len(rows)} rows, expected {expected}"]
    for r in rows:
        for k, v in r.items():
            if not (math.isfinite(v) and v > 0):
                return [f"theory_tables: {k} = {v} at d = {r['d']}"]
    return []
