"""Acceptance suite: one test per criterion, each emitting a single
PASS/FAIL line.  Simulation-based criteria pin their scenario (sizes,
seed schedule, root seed) so reruns are bit-reproducible.

Criterion 9 (clustering spectrum) compares the measured d*C(d) with the
model's finite-d profile 2t(d)/(d-1), t(d) from theory.expected_triangles.
That profile tends to the 2D/(Am) limit only slowly (0.55-0.78 of it at
d = 10-41 for (m=2, A=0.25, D=0.3)), so the limit itself is checked in
test_theory rather than against simulated degrees.
"""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from panet.cli import main as cli_main
from panet.experiments import (
    Scenario,
    fit_power_exponent,
    run_scenario,
)
from panet.graphgen import child_seed, generate
from panet.metrics import clustering, degree_profile
from panet.oracle import integrate_S
from panet.params import derive_generator_params, make_model_params
from panet.theory import (
    M_exact,
    Y_term,
    build_theory_curve,
    dnn_asymptotic,
    dnn_theory,
    expected_triangles,
)

from reference import brute_force_profile, ccdf_slope, log_binned_curve

N_DESK = 10**5


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"AC{num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def fig1a_run():
    s = Scenario(name="ac_fig1a", m=2, A=0.2, D=0.3, n_list=(N_DESK,), seeds=10)
    return run_scenario(s)


@pytest.fixture(scope="module")
def fig1b_run():
    s = Scenario(name="ac_fig1b", m=2, A=0.4, D=0.3, n_list=(N_DESK,), seeds=10)
    return run_scenario(s)


def test_ac01_theory_identities():
    """c-ratio identity, M-recurrence and normalization of the closed
    forms, relative 1e-10 over d in [m+1, 1e5]."""
    worst = 0.0
    d = np.arange(2, 100_001)
    for A in (0.2, 0.25, 0.4):
        for D in (0.0, 0.3):
            p = make_model_params(2, A, D)
            cu = build_theory_curve(p, d)
            ratio = cu.c_exact[1:] / cu.c_exact[:-1]
            expect = (p.A * (d[1:] - 1) + p.B) / (p.A * d[1:] + p.B + 1)
            worst = max(worst, float(np.max(np.abs(ratio / expect - 1.0))))
            inner = cu.M_exact / (cu.c_exact * (p.A * d + p.B + 1.0))
            rhs = (
                cu.c_exact[1:]
                * (p.A * d[1:] + p.B + 1.0)
                * (inner[:-1] + Y_term(p, d[1:]))
            )
            worst = max(worst, float(np.max(np.abs(rhs / cu.M_exact[1:] - 1.0))))
    p = make_model_params(2, 0.25, 0.3)
    norm_gap = abs(float(build_theory_curve(p, d).c_exact.sum()) - 1.0)
    ok = worst < 1e-10 and norm_gap < 1e-6
    _report(1, ok, f"max identity error {worst:.2e}, sum c gap {norm_gap:.2e}")


def test_ac02_asymptotic_agreement():
    """Large-d asymptotics of M(d) and dnn at (m=2, A=0.4, D=0.3): this is
    the only tabulated A where the log-corrected forms are within a few
    percent by d = 1e6-1e7 (smaller A converge only far beyond)."""
    p = make_model_params(2, 0.4, 0.3)
    m, A, B = p.m, p.A, p.B
    target = (A * m + B) / A**2 * math.exp(gammaln(m + (B + 1) / A) - gammaln(m + B / A))
    r1 = M_exact(p, 10**6) * (10**6) ** (1 / A) / math.log(10**6) / target
    r2 = dnn_theory(p, 10**7) / dnn_asymptotic(p, 10**7)
    # Slow-convergence regime: the ratio must still move toward 1 with d.
    p_slow = make_model_params(2, 0.25, 0.3)
    t1 = dnn_theory(p_slow, 10**6) / dnn_asymptotic(p_slow, 10**6)
    t2 = dnn_theory(p_slow, 10**7) / dnn_asymptotic(p_slow, 10**7)
    ok = abs(r1 - 1) < 0.03 and abs(r2 - 1) < 0.05 and abs(t2 - 1) < abs(t1 - 1)
    _report(
        2,
        ok,
        f"M ratio {r1:.4f} (3%), dnn ratio {r2:.4f} (5%), "
        f"A=0.25 trend {t1:.3f}->{t2:.3f}",
    )


def test_ac03_oracle_vs_closed_form():
    """Recurrence integration converges onto M(d): < 2% at n = 1e5 for
    d in [2, 10], gap shrinking across n in {1e3, 1e4, 1e5}."""
    p = make_model_params(2, 0.25, 0.3)
    t = integrate_S(p, N_DESK, d_max=300, record_at=[10**3, 10**4, 10**5])
    cu = build_theory_curve(p, np.arange(2, 11))
    gaps = []
    for i, n in enumerate(t.n_values):
        gaps.append(
            max(abs(t.S[i][d] / n - cu.M_at(d)) / cu.M_at(d) for d in range(2, 11))
        )
    ok = gaps[-1] < 0.02 and gaps[0] > gaps[1] > gaps[2]
    _report(3, ok, f"max rel gap by n: {[f'{g:.2e}' for g in gaps]}")


def test_ac04_subcritical_dnn_matches_theory(fig1a_run):
    """fig1a (m=2, A=0.2, D=0.3, n=1e5, 10 seeds): pooled dnn within 10%
    of the closed form on every degree with pooled N(d) >= 500."""
    res = fig1a_run
    ds = res.populated_degrees(N_DESK, threshold=500)
    cu = build_theory_curve(res.scenario.model, ds)
    devs = [
        abs(res.dnn_pooled(N_DESK, d) / cu.dnn_exact[i] - 1.0)
        for i, d in enumerate(ds)
    ]
    ok = len(ds) > 10 and max(devs) <= 0.10
    _report(4, ok, f"max dev {max(devs):.3f} over {len(ds)} degrees (d <= {ds[-1]})")


def test_ac05_sign_structure_at_A04(fig1b_run):
    """A=0.4: empirical dnn below theory on >= 90% of populated degrees."""
    res = fig1b_run
    ds = res.populated_degrees(N_DESK)
    cu = build_theory_curve(res.scenario.model, ds)
    below = sum(
        1 for i, d in enumerate(ds) if res.dnn_pooled(N_DESK, d) <= cu.dnn_exact[i]
    )
    frac = below / len(ds)
    _report(5, frac >= 0.90, f"{below}/{len(ds)} degrees below theory ({frac:.1%})")


def test_ac06_error_decreases_with_n():
    """err(m+1) = |dnn(3) - theory| decreases with n for each A.  Sizes
    (1e3, 5e3, 3e4) with per-A seed schedules sized so the bias exceeds
    the seed noise (the A=0.2 bias at these sizes is ~3e-2..3e-3, needing
    thousands of pooled runs at the small sizes)."""
    plans = {0.2: (2000, 600, 150), 0.3: (200, 60, 30), 1 / 3: (200, 60, 30), 0.4: (100, 30, 20)}
    sizes = (1000, 5000, 30_000)
    details = []
    ok = True
    final = {}
    for A, seeds in plans.items():
        s = Scenario(
            name=f"ac6_A{A:g}", m=2, A=A, D=0.2, n_list=sizes, seeds=seeds, root_seed=606
        )
        res = run_scenario(s)
        t = dnn_theory(s.model, 3)
        errs = [abs(res.dnn_pooled(n, 3) - t) for n in sizes]
        ok &= errs[0] > errs[1] > errs[2]
        final[A] = errs[-1]
        details.append(f"A={A:.2f}: " + ">".join(f"{e:.3f}" for e in errs))
    ok &= final[0.4] > final[0.2]  # slower convergence at A = 0.4
    _report(6, ok, "; ".join(details))


def test_ac07_degree_distribution_exponent(fig1b_run):
    """Pooled CCDF tail slope at A=0.4 equals -1/A = -2.5 +/- 0.3."""
    slope, _, stderr = ccdf_slope(fig1b_run, N_DESK, d_min=10)
    ok = abs(slope + 2.5) <= 0.3
    _report(7, ok, f"CCDF slope {slope:.3f} (se {stderr:.3f}) vs -2.5 +/- 0.3")


def test_ac08_sum_of_squares(fig1a_run):
    """Mean W_n at (m=2, A=0.2, D=0.3, n=1e5) within 5% of 26n."""
    w = float(np.mean(fig1a_run.W_per_seed[N_DESK])) / N_DESK
    _report(8, abs(w / 26.0 - 1.0) <= 0.05, f"W/n = {w:.3f} vs 26")


def test_ac09_clustering_spectrum():
    """d*C(d) within 25% of the finite-d profile 2t(d)/(d-1) per log bin
    on d in [10, 100] at (m=2, A=0.25, D=0.3, n=1e5); the cnt >= 50 cut
    leaves d = 10-41.  Ratios to the 2D/(Am) = 1.2 limit are printed
    alongside to show how far this window is from it."""
    p = make_model_params(2, 0.25, 0.3)
    gp = derive_generator_params(p.m, p.A, p.D)
    num: dict[int, float] = {}
    cnt: dict[int, int] = {}
    for i in range(10):
        g = generate(gp, N_DESK, child_seed(909, i))
        cp = clustering(g)
        prof = degree_profile(g)
        for d, c in cp.C_by_degree.items():
            if 10 <= d <= 100:
                num[d] = num.get(d, 0.0) + c * prof.N[d]
                cnt[d] = cnt.get(d, 0) + prof.N[d]
    points = {d: d * num[d] / cnt[d] for d in num if cnt[d] >= 50}
    finite = {d: 2.0 * expected_triangles(p, d) / (d - 1) for d in points}
    weights = {d: float(cnt[d]) for d in points}
    binned = log_binned_curve(points, bins_per_decade=4, weights=weights)
    ref = log_binned_curve(finite, bins_per_decade=4, weights=weights)
    ratios = [v / r for (_, v, _), (_, r, _) in zip(binned, ref)]
    limit = 2.0 * p.D / (p.A * p.m)
    ok = all(abs(r - 1.0) <= 0.25 for r in ratios)
    _report(
        9,
        ok,
        "d*C(d) / finite-d profile per bin: "
        + ", ".join(f"{r:.3f}" for r in ratios)
        + f"; / limit {limit:.1f}: "
        + ", ".join(f"{v / limit:.2f}" for _, v, _ in binned),
    )


def test_ac10_supercritical_hypothesis():
    """(m=2, A=0.6, D=0.2): dnn(3) grows as n^(2A-1) = n^0.2 +/- 0.1 and
    falls as d^(1/A-2) = d^(-1/3) +/- 0.15 over d in [4, 100]."""
    s = Scenario(
        name="ac10", m=2, A=0.6, D=0.2, n_list=(10**4, 3 * 10**4, N_DESK), seeds=10
    )
    res = run_scenario(s)
    n_slope = fit_power_exponent([(n, res.dnn_pooled(n, 3)) for n in s.n_list])[0]
    d_pts = [
        (d, res.dnn_pooled(N_DESK, d))
        for d in res.populated_degrees(N_DESK)
        if 4 <= d <= 100
    ]
    d_slope = fit_power_exponent(d_pts)[0]
    ok = abs(n_slope - 0.2) <= 0.1 and abs(d_slope + 1 / 3) <= 0.15
    _report(10, ok, f"n-slope {n_slope:.3f} (0.2+/-0.1), d-slope {d_slope:.3f} (-0.33+/-0.15)")


def test_ac11_critical_hypothesis():
    """(m=2, A=0.5, D=0.2): dnn(d) flat in d (|log-log slope| <= 0.08 on
    d in [15, 150], clear of the (d+2)/d small-d correction) and dnn(3)
    linear in ln n with correlation >= 0.99 over 5 sizes."""
    flat = Scenario(name="ac11f", m=2, A=0.5, D=0.2, n_list=(N_DESK,), seeds=20)
    res = run_scenario(flat)
    pts = [
        (d, res.dnn_pooled(N_DESK, d))
        for d in res.populated_degrees(N_DESK)
        if 15 <= d <= 150
    ]
    slope = fit_power_exponent(pts)[0]

    grow = Scenario(
        name="ac11g",
        m=2,
        A=0.5,
        D=0.2,
        n_list=(3000, 10**4, 3 * 10**4, N_DESK, 3 * N_DESK),
        seeds=(150, 100, 60, 50, 45),
    )
    res_g = run_scenario(grow)
    xs = np.log([float(n) for n in grow.n_list])
    ys = np.array([res_g.dnn_pooled(n, 3) for n in grow.n_list])
    corr = float(np.corrcoef(xs, ys)[0, 1])
    ok = abs(slope) <= 0.08 and corr >= 0.99
    _report(11, ok, f"d-flatness slope {slope:.4f} (<=0.08), ln-n corr {corr:.4f} (>=0.99)")


def test_ac12_profile_oracle_equivalence():
    """Streaming profile equals brute force exactly on 200 graphs (n=500)
    spanning the parameter points used by the figure presets."""
    param_sets = [
        (0.2, 0.3), (0.4, 0.3), (0.25, 0.0), (0.25, 0.45), (0.2, 0.2),
        (0.3, 0.2), (1 / 3, 0.2), (0.4, 0.2), (0.5, 0.2), (0.6, 0.2),
    ]
    checked = 0
    for A, D in param_sets:
        gp = derive_generator_params(2, A, D)
        for i in range(20):
            g = generate(gp, 500, child_seed(1212, checked))
            fast = degree_profile(g)
            slow = brute_force_profile(g)
            assert fast.N == slow.N and fast.S == slow.S and fast.W == slow.W
            checked += 1
    _report(12, checked == 200, f"{checked} graphs, exact N/S/W agreement")


def test_ac13_preset_determinism(tmp_path):
    """Rerunning a preset with the same root seed reproduces every CSV
    byte for byte."""
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code = cli_main(
            ["experiment", "preset", "fig4", "--n", "600", "--seeds", "2",
             "--out-dir", str(d)]
        )
        assert code == 0
    names = sorted(p.name for p in dirs[0].iterdir())
    same = names == sorted(p.name for p in dirs[1].iterdir()) and all(
        (dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes() for n in names
    )
    _report(13, same, f"{len(names)} output files byte-identical across reruns")
