"""Closed-form degree-distribution and neighbor-degree curves.

Everything here is a pure function of ModelParams, computed with numpy and
the standard library alone.  The degree-distribution coefficient c(m,d) runs
its defining recursion, and the neighbor-degree-sum coefficient M(d) and the
triangle profile t(d) are prefix sums from i = m+1; c, M and t share one
chunked scan (_scan), each caller asking only for what it reads.
d_nn has three regimes: the closed form below A = 1/2, the critical
predictor at A = 1/2 and the supercritical one above.  _hypothesis picks
the predictor at A >= 1/2 for both dnn_overlay (the d_nn curve of A's
regime) and theory_tables (the theory-only CSV rows).

"log" means the natural logarithm throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ModelParams

__all__ = [
    "TheoryCurve",
    "c_exact",
    "c_asymptotic",
    "Y_term",
    "X_const",
    "M_exact",
    "dnn_theory",
    "dnn_asymptotic",
    "expected_triangles",
    "dnn_hypothesis_supercritical",
    "dnn_hypothesis_critical",
    "dnn_overlay",
    "theory_tables",
    "build_theory_curve",
]

_CHUNK = 1 << 20


def _check_subcritical(p: ModelParams, what: str) -> None:
    if p.A >= 0.5:
        raise ValueError(
            f"{what} requires A < 1/2 (got A={p.A}); in the supercritical "
            "regime use the hypothesis predictors instead"
        )


def _check_degree(p: ModelParams, d) -> None:
    if np.any(np.asarray(d) < p.m):
        raise ValueError(f"degree must be >= m = {p.m}")


def _integer_degrees(d) -> np.ndarray:
    """d as int64; a non-integer or non-finite degree raises (integral
    floats pass)."""
    d = np.asarray(d)
    if not np.all(np.isfinite(d)) or np.any(np.floor(d) != d):
        raise ValueError("degree must be an integer")
    return d.astype(np.int64)


def _scan(p: ModelParams, d, *quantities) -> list[np.ndarray]:
    """Per quantity (ufunc, value at m, term), the value at m combined by
    ufunc with term(m+1), ..., term(d) in order, at integer degrees d >= m
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
        for k, (ufunc, _, term) in enumerate(quantities):
            acc = ufunc(runs[k], ufunc.accumulate(term(i)))
            outs[k][here] = acc[d_values[here] - lo]
            runs[k] = acc[-1]
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


def X_const(p: ModelParams) -> float:
    """Boundary constant X of the M(d) closed form (pole at A = 1/2)."""
    _check_subcritical(p, "X")
    m, A, B, D = p.m, p.A, p.B, p.D
    bracket = (
        B
        - D / m
        + (A * (m - 1) + 2.0 * B + 1.0) * (A * m + B + 1.0) / (1.0 - 2.0 * A)
    )
    return m / (A * (m - 1) + B + 1.0) * bracket


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


def dnn_hypothesis_supercritical(
    p: ModelParams, d, n: int, C1: float, form: str = "preasymptotic"
):
    """Supercritical (A > 1/2) average-neighbor-degree predictor.

    form="asymptotic" is the pure power law
    C1*(Am+B)*Gamma(m+B/A)/Gamma(m+(B+1)/A) * d^(1/A-2) * n^(2A-1);
    form="preasymptotic" keeps the finite-d factors
    A*C1*(Am+B) * n^(2A-1) / ((Ad+B)(A(d+1)+B) * d * c(m,d)).
    """
    if p.A <= 0.5:
        raise ValueError(f"supercritical predictor needs A > 1/2, got A={p.A}")
    if C1 <= 0:
        raise ValueError(f"C1 must be > 0, got {C1}")
    if n < p.m + 1:
        raise ValueError(f"size n must be >= seed size m+1 = {p.m + 1}, got {n}")
    _check_degree(p, d)
    m, A, B = p.m, p.A, p.B
    d = np.asarray(d, dtype=float)
    if form == "asymptotic":
        scale = np.exp(-_log_gamma_ratio(p))
        out = C1 * (A * m + B) * scale * d ** (1.0 / A - 2.0) * n ** (2.0 * A - 1.0)
    elif form == "preasymptotic":
        out = (
            A
            * C1
            * (A * m + B)
            * n ** (2.0 * A - 1.0)
            / ((A * d + B) * (A * (d + 1.0) + B) * d * c_exact(p, d))
        )
    else:
        raise ValueError(f"unknown form {form!r}")
    return float(out) if out.ndim == 0 else out


def dnn_hypothesis_critical(
    p: ModelParams, d, n: int, C2: float, form: str = "preasymptotic"
):
    """Critical (A = 1/2) average-neighbor-degree predictor.

    form="asymptotic" is the degree-independent C2/(2(m+1)) * log(n);
    form="preasymptotic" applies the finite-d factor (d+2)/d to it.
    """
    if p.A != 0.5:
        raise ValueError(f"critical predictor needs A = 1/2, got A={p.A}")
    if C2 <= 0:
        raise ValueError(f"C2 must be > 0, got {C2}")
    if n < p.m + 1:
        raise ValueError(f"size n must be >= seed size m+1 = {p.m + 1}, got {n}")
    _check_degree(p, d)
    d = np.asarray(d, dtype=float)
    base = C2 / (2.0 * (p.m + 1.0)) * np.log(n)
    if form == "asymptotic":
        out = np.full_like(d, base)
    elif form == "preasymptotic":
        out = base * (d + 2.0) / d
    else:
        raise ValueError(f"unknown form {form!r}")
    return float(out) if out.ndim == 0 else out


def dnn_overlay(p: ModelParams, d, n: int, C: float):
    """The d_nn(d) curve of the regime A falls in, at size n.

    A < 1/2: the exact closed form (n and C unused).  A = 1/2: the
    critical predictor with its (d+2)/d factor.  A > 1/2: the
    preasymptotic supercritical predictor.  C scales the hypothesis
    predictors.  Accepts a scalar or array of degrees d >= m, integers
    below A = 1/2.
    """
    if p.A < 0.5:
        curve = build_theory_curve(p, np.atleast_1d(d))
        out = curve.dnn_exact[np.searchsorted(curve.d_values, d)]
        return float(out) if out.ndim == 0 else out
    return _hypothesis(p)(p, d, n, C)


def _hypothesis(p: ModelParams):
    """The hypothesis predictor of A's regime, for A >= 1/2."""
    return dnn_hypothesis_critical if p.A == 0.5 else dnn_hypothesis_supercritical


def _rows(**columns) -> list[dict]:
    """One dict per row of equal-length columns, keyed in argument order;
    .tolist() makes each cell a Python int or float of the same value."""
    return [dict(zip(columns, r)) for r in zip(*(np.asarray(c).tolist() for c in columns.values()))]


def theory_tables(p: ModelParams, d_max: int, n_list=()) -> list[dict]:
    """Theory-only rows per degree d in [m, d_max]: subcritical closed
    forms for A < 1/2; for A >= 1/2 the hypothesis predictor (constant 1)
    and its asymptotic form, one block per size n (10^5 if none)."""
    if d_max < p.m:
        raise ValueError(f"d_max must be >= m = {p.m}, got {d_max}")
    if any(n < p.m + 1 for n in n_list):
        raise ValueError(f"all sizes must be >= seed size m+1 = {p.m + 1}")
    for i, n in enumerate(n_list):
        if n in n_list[:i]:  # its block would be written twice
            raise ValueError(f"size {n} appears twice in n_list")
    d = np.arange(p.m, d_max + 1)
    if p.A < 0.5:
        curve, d_f = build_theory_curve(p, d), d.astype(float)
        return _rows(
            d=d, c_exact=curve.c_exact, c_asym=c_asymptotic(p, d_f),
            M=curve.M_exact, dnn_theory=curve.dnn_exact, dnn_asym=dnn_asymptotic(p, d_f),
        )
    hyp, c = _hypothesis(p), c_exact(p, d)
    rows = []
    for n in tuple(n_list) or (10**5,):
        n_col = np.full(d.shape, n, dtype=np.int64)
        y, y_asym = hyp(p, d, n, 1.0), hyp(p, d, n, 1.0, form="asymptotic")
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
    _check_subcritical(p, "TheoryCurve")
    d_values = np.unique(_integer_degrees(d_values))
    if d_values.size == 0:
        raise ValueError("no degrees to tabulate the theory curve at")
    m, A, B = p.m, p.A, p.B
    c_ex, y_prefix = _scan(p, d_values, _c_recursion(p), (np.add, 0.0, lambda i: Y_term(p, i)))
    d_f = d_values.astype(float)
    inner = X_const(p) / (A * m + B + 1.0) + y_prefix
    # M = scale*c, so d_nn = M/(d*c) = scale/d: dividing c back out would
    # give 0/0 once c underflows (small A, large d).
    scale = (A * d_f + B + 1.0) * inner
    return TheoryCurve(params=p, d_values=d_values, c_exact=c_ex, M_exact=scale * c_ex, dnn_exact=scale / d_f)
