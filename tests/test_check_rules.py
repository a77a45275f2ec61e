"""The presets' --check rules on hand-built results, without simulating:
for each of the eight rules one input that passes and one or more that
fail, each with the rule's exact messages, and the inputs on which a rule
cannot be computed.  Passing and failing inputs sit close to each bound
on either side, so a moved bound fails here.  A pooled curve is given as d_nn per degree (pooled
S = d_nn * N * d, rounded to an integer as a real pool is), and a probe
series as its seed values per size; both are read back through ScenarioResult."""

import math

import pytest

from panet.experiments import ScenarioResult, check_preset, make_preset
from panet.theory import build_theory_curve, dnn_overlay


def result(s, counts=None, dnn=None, probe=None) -> ScenarioResult:
    """A ScenarioResult of scenario s: at each size n, pooled N = counts[d]
    and d_nn = dnn(n, d) at each degree d of counts, and the probe values
    probe(n), one per seed."""
    res = ScenarioResult(scenario=s)
    for n in s.n_list:
        if counts is not None:
            res.pooled_N[n] = dict(counts)
            res.pooled_S[n] = {d: round(dnn(n, d) * N * d) for d, N in counts.items()}
        if probe is not None:
            res.probe_per_seed[n] = probe(n)
    return res


def fig1a(bad):
    """d_nn off the closed form by 9% at two degrees, by 11% ("off"), or
    no degree with pooled N >= 500 ("sparse"); d = 7 has just 500."""
    s = make_preset("fig1a")[0]
    counts = {d: 10**6 for d in range(2, 30)} | {7: 500, 40: 499}  # d = 40 is below the rule's 500
    off = {5: 1.11, 7: 0.89} if bad == "off" else {5: 1.09, 7: 0.91}
    if bad == "sparse":
        counts = {d: 499 for d in counts}
    curve = build_theory_curve(s.model, list(counts))
    return [result(s, counts, lambda n, d: curve.dnn_at(d) * (9.0 if d == 40 else off.get(d, 1.0)))]


def fig1b(bad):
    """90 of 100 populated degrees below the closed form, or 89 ("above")."""
    s = make_preset("fig1b")[0]
    counts = {d: 100 for d in range(3, 103)} | {150: 9}  # d = 150 is below the support threshold
    high = set(range(3, 14 if bad == "above" else 13)) | {150}
    curve = build_theory_curve(s.model, list(counts))
    return [result(s, counts, lambda n, d: curve.dnn_at(d) * (1.05 if d in high else 0.95))]


def fig2(bad):
    """Two seeds per size, their mean 3.9 stderr above d_nn(m+1) at that
    size; "far" puts A = 0.3 4.1 stderr above at its largest size,
    "swapped" puts A = 0.4 on the closed form and A = 0.2 one unit off it,
    with a stderr of 2 that keeps every |z| below 1.2, and "one seed"
    leaves no stderr.  "one size" passes: the rule needs no second size."""

    def probe(n, s):
        h, mean = 0.01, dnn_overlay(s.model, 3, n) + 0.039
        if bad == "far" and s.A == 0.3 and n == s.n_list[-1]:
            mean += 0.002
        if bad == "swapped" and s.A in (0.2, 0.4):
            h, mean = 2.0, build_theory_curve(s.model, [3]).dnn_at(3) + (1.0 if s.A == 0.2 else 0.0)
        return [mean] if bad == "one seed" else [mean - h, mean + h]

    return [
        result(s, probe=lambda n, s=s: probe(n, s))
        for s in make_preset("fig2", n=1000 if bad == "one size" else None)
    ]


def fig4(bad):
    """d_nn(d0) across D: a spread of 14% and a slope of 0.95 per unit D,
    one D 16% high ("spread"), or a slope of 1.1 ("slope")."""
    values = {
        None: lambda D: 4.0 + 1.05 * D + (0.35 if D == 0.2 else 0.0),
        "spread": lambda D: 5.8 if D == 0.2 else 5.0,
        "slope": lambda D: 10.0 + 1.1 * D,
    }[bad]
    return [result(s, probe=lambda n, D=s.D: [values(D)]) for s in make_preset("fig4")]


def fig5a(bad):
    """A power law d^0.07 (inside |slope| <= 0.08) or d^-0.09 on degrees
    15-150; degrees outside that window, or below the support threshold,
    are wild."""
    s = make_preset("fig5a")[0]
    counts = {d: 10**4 for d in range(10, 200)} | {100: 9}
    if bad == "few":
        counts = {d: 10**4 for d in (15, 150, 151)}
    slope = -0.09 if bad == "sloped" else 0.07
    return [result(s, counts, lambda n, d: 1000.0 if d < 15 or d > 150 or d == 100 else 8.0 * d**slope)]


def fig5b(bad):
    s = make_preset("fig5b")[0]  # target slope 1/A - 2 = -1/3 on degrees 4-100
    slope = -1 / 3 - 0.16 if bad == "steep" else -1 / 3 + 0.14
    counts = {d: 10**4 for d in range(3, 300)}
    return [result(s, counts, lambda n, d: 1000.0 if d < 4 or d > 100 else 50.0 * d**slope)]


def fig6a(bad):
    s = make_preset("fig6a", n=1000 if bad == "one size" else None)[0]
    w = 0.13 if bad == "wobble" else 0.1  # corr 0.9888 or 0.9933
    wobble = {2 * 10**4: w, 7 * 10**4: w}
    return [result(s, probe=lambda n: [3.0 + 0.5 * math.log(n) + wobble.get(n, 0.0)])]


def fig6b(bad):
    s = make_preset("fig6b")[0]  # target slope 2A - 1 = 0.2 over n
    slope = 0.31 if bad == "steep" else 0.29
    return [result(s, probe=lambda n: [2.0 * n**slope])]


BUILD = {f.__name__: f for f in (fig1a, fig1b, fig2, fig4, fig5a, fig5b, fig6a, fig6b)}
CANNOT = "cannot compute the check: "

CASES = [
    ("fig1a", None, []),
    ("fig1a", "off", ["d=5: dnn off theory by 11.0% (> 10%)", "d=7: dnn off theory by 11.0% (> 10%)"]),
    ("fig1a", "sparse", [CANNOT + "no degree with pooled N >= 500 at n=100000"]),
    ("fig1b", None, []),
    ("fig1b", "above", ["only 89% of bins below theory (< 90%)"]),
    ("fig2", None, []),
    ("fig2", "far", ["fig2_A0.3: d_nn(3) at n=100000 is +4.10 stderr off the finite-n theory (|z| > 4)"]),
    ("fig2", "swapped", ["A=0.4 error not above A=0.2 error at the largest n"]),
    ("fig2", "one size", []),
    ("fig2", "one seed", [CANNOT + "fig2_A0.2: a z-score at n=1000 needs at least 2 seeds that differ"]),
    ("fig4", None, []),
    ("fig4", "spread", ["dnn(d0) varies 16.0% across D (> 15%)"]),
    ("fig4", "slope", ["dnn(d0)-vs-D slope 1.100 not small"]),
    ("fig5a", None, []),
    ("fig5a", "sloped", ["critical d-slope -0.090 (|.| > 0.08)"]),
    ("fig5a", "few", [CANNOT + "need at least 3 points"]),
    ("fig5b", None, []),
    ("fig5b", "steep", ["supercritical d-slope -0.493 vs -0.333 +/- 0.15"]),
    ("fig6a", None, []),
    ("fig6a", "wobble", ["corr(dnn, ln n) = 0.9888 (< 0.99)"]),
    ("fig6a", "one size", [CANNOT + "corr(dnn, ln n) needs at least 3 sizes, got 1"]),
    ("fig6b", None, []),
    ("fig6b", "steep", ["supercritical n-slope 0.310 vs 0.200 +/- 0.1"]),
]


@pytest.mark.parametrize("preset, bad, messages", CASES, ids=[f"{p}-{b or 'pass'}" for p, b, _ in CASES])
def test_rule(preset, bad, messages):
    assert check_preset(preset, BUILD[preset](bad)) == messages


def test_every_rule_has_a_passing_and_a_failing_case():
    assert {p for p, b, _ in CASES if b is None} == set(BUILD)
    assert {p for p, b, m in CASES if m and not m[0].startswith(CANNOT)} == set(BUILD)


def test_theory_only_preset_has_no_rule():
    assert check_preset("fig3", []) == []


def test_dnn_pooled_at_an_empty_degree_is_nan():
    s = make_preset("fig1a", n=1000)[0]
    res = result(s, {3: 4, 5: 2}, lambda n, d: 2.5)
    assert res.dnn_pooled(1000, 3) == 2.5
    assert math.isnan(res.dnn_pooled(1000, 4))
    assert res.populated_degrees(1000, threshold=3) == [3]
