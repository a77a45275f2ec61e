"""Closed-form degree-distribution and neighbor-degree curves.

Everything here is a pure function of ModelParams, computed with numpy and
the standard library alone.  The degree-distribution coefficient c(m,d) runs
its defining recursion, and the neighbor-degree-sum coefficient M(d) and the
triangle profile t(d) are prefix sums from i = m+1; c, M and t share one
chunked scan (_scan), each caller asking only for what it reads.
d_nn's boundary at d = m and its k(d) recursion are written once
(_boundary), and every d_nn curve reads them: dnn_overlay, the expected
d_nn(d) at size n for every 0 < A < 1, linear in E W_n (expected_W); the
n -> oo closed form below A = 1/2 (build_theory_curve), whose constant is
the overlay's at E W_n/n = s/(1-2A); and the A >= 1/2 predictor
(dnn_hypothesis), the overlay's E W_n term, which is the paper's
supercritical hypothesis above A = 1/2 and its critical one at 1/2.  No
theory value is fitted to simulation.

"log" means the natural logarithm throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ModelParams, integer, size, sizes

__all__ = [
    "TheoryCurve",
    "c_exact",
    "c_asymptotic",
    "Y_term",
    "M_exact",
    "dnn_theory",
    "dnn_asymptotic",
    "expected_triangles",
    "expected_W",
    "dnn_hypothesis",
    "dnn_overlay",
    "theory_tables",
    "build_theory_curve",
]

_CHUNK = 1 << 20


def _check_degree(p: ModelParams, d) -> None:
    if np.any(np.asarray(d) < p.m):
        raise ValueError(f"degree must be >= m = {p.m}")


def _integer_degrees(d, some: bool = False) -> np.ndarray:
    """d as int64; a non-integer or non-finite degree raises (integral
    floats pass), and so does an empty d if some."""
    d = np.asarray(d)
    if not np.all(np.isfinite(d)) or np.any(np.floor(d) != d):
        raise ValueError("degree must be an integer")
    if some and d.size == 0:
        raise ValueError("no degrees to tabulate the theory curve at")
    return d.astype(np.int64)


def _scan(p: ModelParams, d, *quantities) -> list[np.ndarray]:
    """Per quantity (ufunc, value at m, term), the value at m combined by
    ufunc with term(i, *earlier) for i = m+1, ..., d in order, earlier being
    the values at i of the quantities before it, at integer degrees d >= m
    of any shape.  One pass of _CHUNK-degree chunks up to max(d): O(max d),
    and each value the same whichever degrees are asked for."""
    _check_degree(p, d)
    d = _integer_degrees(d)
    d_values, inv = np.unique(d.ravel(), return_inverse=True)
    runs = [start for _, start, _ in quantities]
    outs = [np.full(len(d_values), start) for start in runs]
    d_end = int(d_values.max(initial=p.m)) + 1
    for lo in range(p.m + 1, d_end, _CHUNK):
        i = np.arange(lo, min(lo + _CHUNK, d_end), dtype=float)
        here = (d_values >= lo) & (d_values < lo + len(i))
        accs = []
        for k, (ufunc, _, term) in enumerate(quantities):
            accs.append(ufunc(runs[k], ufunc.accumulate(term(i, *accs))))
            outs[k][here] = accs[k][d_values[here] - lo]
            runs[k] = accs[k][-1]
    return [out[inv].reshape(d.shape) for out in outs]


def _c_recursion(p: ModelParams):
    """c(m,d)'s recursion c(m) = 1/(Am+B+1), c(d) = c(d-1)*(A(d-1)+B)/(Ad+B+1),
    as a _scan quantity: exact to rounding (log-gamma differences lose ~1e-9)."""
    A, B = p.A, p.B
    return np.multiply, 1.0 / (A * p.m + B + 1.0), lambda i: (A * (i - 1.0) + B) / (A * i + B + 1.0)


def _log_gamma_ratio(p: ModelParams) -> float:
    """log Gamma(m+(B+1)/A) - log Gamma(m+B/A), the constant of c(m,d)'s
    power-law tail; ModelParams's 0 < A < 1 keeps m + B/A = m(1-A)/A off
    the poles of Gamma."""
    m, A, B = p.m, p.A, p.B
    return math.lgamma(m + (B + 1.0) / A) - math.lgamma(m + B / A)


def _boundary(p: ModelParams):
    """d_nn's first-order solution from d = m, for every 0 < A < 1: (M0, s,
    k, delta), with r(d) = A(d-1)+B, M0 = [(B-D/m) m/(Am+B+1) + (2B+1) m]
    /(1+r(m)), s = m(m+4B+1), and the _scan quantities k(d) =
    k(d-1)(1+r(d))/(A(d+1)+B) from k(m) = A/(A(m+1)+B) and delta(d) =
    delta(d-1) - k(d)/(1+r(d)) from delta(m) = -k(m)/(1+r(m)), each
    holding its value at m as its start, delta reading k just before it.
    c(m,d) is divided out of all of them, so nothing underflows."""
    m, A, B, D = p.m, p.A, p.B, p.D
    one_r = lambda i: A * (i - 1.0) + B + 1.0
    k_m = A / (A * (m + 1.0) + B)
    M0 = ((B - D / m) * m / (A * m + B + 1.0) + (2.0 * B + 1.0) * m) / one_r(m)
    k = (np.multiply, k_m, lambda i, *_: one_r(i) / (A * (i + 1.0) + B))
    delta = (np.add, -k_m / one_r(m), lambda i, k: -k / one_r(i))
    return M0, m * (m + 4.0 * B + 1.0), k, delta


def c_exact(p: ModelParams, d):
    """Limiting degree-distribution coefficient c(m,d), for every 0 < A < 1
    ModelParams admits: build_theory_curve's values, bit for bit.  Accepts a
    scalar or array of integer degrees d >= m (integral floats too)."""
    (out,) = _scan(p, d, _c_recursion(p))
    return float(out) if out.ndim == 0 else out


def c_asymptotic(p: ModelParams, d):
    """Power-law tail approximation of c(m,d), proportional to d^(-1-1/A).
    At small A and small d the tail exceeds the largest float and reads
    inf, on purpose and without a warning."""
    _check_degree(p, d)
    d = np.asarray(d, dtype=float)
    with np.errstate(over="ignore"):
        out = np.exp(_log_gamma_ratio(p) - np.log(p.A) - (1.0 + 1.0 / p.A) * np.log(d))
    return float(out) if out.ndim == 0 else out


def Y_term(p: ModelParams, i):
    """Summand Y(i) of the M(d) prefix sum, defined for i >= m+1."""
    if np.any(np.asarray(i) <= p.m):
        raise ValueError(f"Y(i) is defined for i >= m+1 = {p.m + 1}")
    m, A, B, D = p.m, p.A, p.B, p.D
    i = np.asarray(i, dtype=float)
    num = (
        (B - D / m) * i / (A * i + B + 1.0)
        + (D / m) * (i - 1.0) / (A * (i - 1.0) + B)
        + m
    )
    out = num / (A * (i - 1.0) + B + 1.0)
    return float(out) if out.ndim == 0 else out


def M_exact(p: ModelParams, d: int) -> float:
    """Limiting coefficient M(d) of the expected neighbor-degree sum, A < 1/2.

    A one-degree TheoryCurve; for a range of degrees build the curve once.
    """
    return build_theory_curve(p, [d]).M_at(d)


def dnn_theory(p: ModelParams, d: int) -> float:
    """Expected average neighbor degree M(d)/(d*c(m,d)) for A < 1/2."""
    return build_theory_curve(p, [d]).dnn_at(d)


def dnn_asymptotic(p: ModelParams, d) -> float:
    """Large-d logarithmic growth (Am+B)/A * log(d); ModelParams keeps A > 0."""
    _check_degree(p, d)
    return (p.A * p.m + p.B) / p.A * np.log(d)


def expected_triangles(p: ModelParams, d):
    """Mean triangle count t(d) of a degree-d vertex, to leading order in n.

    A vertex gains a triangle exactly when an edge-copy picks one of its
    d edges, which happens with probability (D/m)*d/n per step, and that
    same event moves it from degree d to d+1.  Degree moves up from j at
    rate (Aj+B)/n, so each step j -> j+1 closes a triangle with
    probability (D/m)*j/(Aj+B).  A new vertex starts with t(m) = D (its k
    pair-slots copy an edge with probability beta each), hence

        t(d) = D + (D/m) * sum_{j=m}^{d-1} j/(Aj+B)
             = D + D/(mA) * [(d-m) - (B/A)(psi(d+B/A) - psi(m+B/A))].

    The sum is what is evaluated, on the scan shared with c and M; the
    digamma form is the identity the tests check it against.

    The clustering spectrum is d*C(d) = 2t(d)/(d-1), which tends to
    2D/(Am) with an O((B/A) log(d)/d) correction.  Only the per-vertex
    step probabilities enter, not A < 1/2, so every 0 < A < 1 ModelParams
    admits is accepted.  Accepts a scalar or array of integer degrees d >= m.
    """
    m, A, B, D = p.m, p.A, p.B, p.D
    (steps,) = _scan(p, d, (np.add, 0.0, lambda i: (i - 1.0) / (A * (i - 1.0) + B)))
    out = D + D / m * steps
    return float(out) if out.ndim == 0 else out


def dnn_hypothesis(p: ModelParams, d, n: int, C: float, form: str = "preasymptotic"):
    """The paper's A >= 1/2 average-neighbor-degree predictor, E W_n ~ C n^(2A).

    form="preasymptotic" is C n^(2A-1) (Ad+B+1)/d k(d), with _boundary's
    k(d): dnn_overlay's E W_n term.  It equals the paper's supercritical
    A C (Am+B) n^(2A-1)/((Ad+B)(A(d+1)+B) d c(m,d)) with c(m,d) divided out,
    and at A = 1/2 its critical C2/(2(m+1)) log(n) (d+2)/d, C = C2 log(n);
    form="asymptotic" is the pure power law
    C (Am+B) Gamma(m+B/A)/Gamma(m+(B+1)/A) d^(1/A-2) n^(2A-1), at A = 1/2
    the flat C2/(2(m+1)) log(n).  Takes integer degrees d >= m.
    """
    if p.A < 0.5:
        raise ValueError(f"hypothesis predictor needs A >= 1/2, got A={p.A}")
    if C <= 0:
        raise ValueError(f"C must be > 0, got {C}")
    n = size(n, p.m)
    m, A, B = p.m, p.A, p.B
    (k,) = _scan(p, d, _boundary(p)[2])
    d = np.asarray(d, dtype=float)
    if form == "asymptotic":
        out = C * (A * m + B) * np.exp(-_log_gamma_ratio(p)) * d ** (1.0 / A - 2.0) * n ** (2.0 * A - 1.0)
    elif form == "preasymptotic":
        out = C * n ** (2.0 * A - 1.0) * (A * d + B + 1.0) / d * k
    else:
        raise ValueError(f"unknown form {form!r}")
    return float(out) if out.ndim == 0 else out


def expected_W(p: ModelParams, n: int) -> float:
    """E W_n, the expected sum of squared degrees at size n >= n0 = m+1.

    E W_{k+1} = (1 + 2A/k) E W_k + s, s = m(m+4B+1), from the seed's
    W_{n0} = (m+1)(2m)^2, solves to (W_{n0} + s sum_{k=n0+1}^{n} q_k)/q_n
    with q_k = prod_{j=n0}^{k-1} j/(j+2A), run in _CHUNK-size chunks.  In
    closed form that is w n + (W_{n0} - w n0) Gamma(n+2A)Gamma(n0) /
    (Gamma(n)Gamma(n0+2A)), w = s/(1-2A), and n (W_{n0}/n0 + s (H_n - H_{n0}))
    at A = 1/2, H the harmonic numbers.  Near A = 1/2 the two terms of the
    Gamma form cancel; the products, all positive, keep full precision."""
    m, A, n0, n = p.m, p.A, p.m + 1, size(n, p.m)
    total, q, s = n0 * (2.0 * m) ** 2, 1.0, m * (m + 4.0 * p.B + 1.0)
    for lo in range(n0, n, _CHUNK):
        j = np.arange(lo, min(lo + _CHUNK, n), dtype=float)
        qs = q * np.cumprod(j / (j + 2.0 * A))
        total, q = total + s * float(qs.sum()), float(qs[-1])
    return total / q


def dnn_overlay(p: ModelParams, d, n: int):
    """Expected d_nn(d) at size n, one expression for every 0 < A < 1:
    (Ad+B+1)/d [M0 + sum_{i=m+1}^d Y(i) + (E W_n/n) k(d) + s delta(d)], with
    _boundary's M0, s, k and delta.
    It solves the oracle's recurrences to first order in E W_n and has no
    pole at A = 1/2; below it, it tends to build_theory_curve's closed form
    as n^(2A-1).

    Being first order in (d/n^A)^((1-2A)/A), below A = 1/2 it turns <= 0
    past a breakdown degree, above the largest degree of 10 seeds (D =
    0.2-0.3, default root seed): at A = 0.2, 162 against 59 at n = 2000 and
    407 against 150 at n = 1e5; at A = 0.4 and n = 2000, ~4070 against 135;
    at A = 0.1 (D = 0.1) and n = 1e5, 122 against 70.  At A >= 1/2 it stays
    positive to d = 2e5.  Takes a scalar or array of integer degrees d >= m."""
    A, B = p.A, p.B
    d = _integer_degrees(d, some=True)
    M0, s, *k_delta = _boundary(p)
    k, delta, y = _scan(p, d, *k_delta, (np.add, 0.0, lambda i, *_: Y_term(p, i)))
    out = (A * d + B + 1.0) / d * (M0 + y + expected_W(p, n) / n * k + s * delta)
    return float(out) if out.ndim == 0 else out


def _rows(**columns) -> list[dict]:
    """One dict per row of equal-length columns, keyed in argument order;
    .tolist() makes each cell a Python int or float of the same value."""
    return [dict(zip(columns, r)) for r in zip(*(np.asarray(c).tolist() for c in columns.values()))]


def theory_tables(p: ModelParams, d_max: int, n_list=()) -> list[dict]:
    """Theory-only rows per degree d in [m, d_max]: subcritical closed
    forms for A < 1/2; for A >= 1/2 dnn_hypothesis in its two forms, with
    C = E W_n/n^(2A), one block per size n (10^5 if none).  Below A = 1/2
    n_list is checked but ignored, since the closed forms have no size; a
    theory-only preset passes its sizes there (at A = 0.2), while `panet
    theory` rejects --n there."""
    if d_max < p.m:
        raise ValueError(f"d_max must be >= m = {p.m}, got {d_max}")
    d = np.arange(p.m, integer(d_max, "d_max", p.m) + 1)
    n_list = sizes(n_list, p.m) if len(n_list) else (10**5,)
    if p.A < 0.5:
        curve, d_f = build_theory_curve(p, d), d.astype(float)
        return _rows(
            d=d, c_exact=curve.c_exact, c_asym=c_asymptotic(p, d_f),
            M=curve.M_exact, dnn_theory=curve.dnn_exact, dnn_asym=dnn_asymptotic(p, d_f),
        )
    c = c_exact(p, d)
    rows = []
    for n in n_list:
        n_col = np.full(d.shape, n, dtype=np.int64)
        C = expected_W(p, n) / n ** (2.0 * p.A)
        y, y_asym = dnn_hypothesis(p, d, n, C), dnn_hypothesis(p, d, n, C, form="asymptotic")
        rows += _rows(d=d, n=n_col, c_exact=c, dnn_hyp=y, dnn_hyp_asym=y_asym)
    return rows


@dataclass(frozen=True)
class TheoryCurve:
    """Tabulated theory values at the degrees d_values.

    Valid for A < 1/2 (M and dnn need the subcritical closed form).
    Arrays are aligned with d_values.
    """

    params: ModelParams
    d_values: np.ndarray
    c_exact: np.ndarray
    M_exact: np.ndarray
    dnn_exact: np.ndarray

    def _index(self, d: int) -> int:
        idx = int(np.searchsorted(self.d_values, d))
        if idx >= len(self.d_values) or self.d_values[idx] != d:
            raise KeyError(f"degree {d} not tabulated")
        return idx

    def M_at(self, d: int) -> float:
        return float(self.M_exact[self._index(d)])

    def dnn_at(self, d: int) -> float:
        return float(self.dnn_exact[self._index(d)])


def build_theory_curve(p: ModelParams, d_values) -> TheoryCurve:
    """Tabulate c, M and dnn at the given integer degrees (at least one, all
    >= m), from one _scan pass: O(max d) for any number of degrees."""
    if p.A >= 0.5:
        raise ValueError(f"the n -> oo closed form needs A < 1/2, got A={p.A}")
    d_values = np.unique(_integer_degrees(d_values, some=True))
    A, B = p.A, p.B
    c_ex, y_prefix = _scan(p, d_values, _c_recursion(p), (np.add, 0.0, lambda i, _: Y_term(p, i)))
    d_f = d_values.astype(float)
    # dnn_overlay's bracket at E W_n/n = w = s/(1-2A), the n -> oo limit:
    # w k(d) + s delta(d) steps by (w(1-2A) - s) k(d)/(1+r(d)) = 0, so it
    # is its value at d = m (the paper's X/(Am+B+1) to rounding).
    M0, s, (_, k_m, _), (_, delta_m, _) = _boundary(p)
    inner = M0 + s / (1.0 - 2.0 * A) * k_m + s * delta_m + y_prefix
    # M = scale*c, so d_nn = M/(d*c) = scale/d: dividing c back out would
    # give 0/0 once c underflows (small A, large d).
    scale = (A * d_f + B + 1.0) * inner
    return TheoryCurve(params=p, d_values=d_values, c_exact=c_ex, M_exact=scale * c_ex, dnn_exact=scale / d_f)
