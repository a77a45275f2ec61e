"""Closed-form degree-distribution and neighbor-degree curves.

Everything here is a pure function of ModelParams.  The degree-distribution
coefficient c(m,d) is evaluated through log-gamma differences (direct gamma
ratios overflow past d ~ 170).  The neighbor-degree-sum coefficient M(d)
needs a prefix sum of Y(i) terms from i = m+1; build_theory_curve runs that
sum in vectorized chunks, and every M and dnn entry point is a view of it.
dnn_overlay picks the d_nn curve of the regime A falls in.

"log" means the natural logarithm throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gammaln

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


def c_exact(p: ModelParams, d):
    """Limiting degree-distribution coefficient c(m,d), log-gamma evaluated.

    Accepts a scalar or array of degrees d >= m.
    """
    if p.A == 0.0:
        raise ValueError("c(m,d) diverges at A = 0")
    _check_degree(p, d)
    m, A, B = p.m, p.A, p.B
    d = np.asarray(d, dtype=float)
    log_c = (
        gammaln(d + B / A)
        - gammaln(d + (B + A + 1.0) / A)
        + gammaln(m + (B + 1.0) / A)
        - gammaln(m + B / A)
        - np.log(A)
    )
    out = np.exp(log_c)
    return float(out) if out.ndim == 0 else out


def c_asymptotic(p: ModelParams, d):
    """Power-law tail approximation of c(m,d), proportional to d^(-1-1/A)."""
    if p.A == 0.0:
        raise ValueError("c(m,d) diverges at A = 0")
    _check_degree(p, d)
    m, A, B = p.m, p.A, p.B
    d = np.asarray(d, dtype=float)
    log_c = (
        gammaln(m + (B + 1.0) / A)
        - gammaln(m + B / A)
        - np.log(A)
        - (1.0 + 1.0 / A) * np.log(d)
    )
    out = np.exp(log_c)
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
    """Large-d logarithmic growth (Am+B)/A * log(d)."""
    if p.A == 0.0:
        raise ValueError("asymptotic slope diverges at A = 0")
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

    The clustering spectrum is d*C(d) = 2t(d)/(d-1), which tends to
    2D/(Am) with an O((B/A) log(d)/d) correction.  Only the per-vertex
    step probabilities enter, not A < 1/2, so every 0 < A < 1 is accepted
    (m + B/A = m(1-A)/A > 0 keeps psi finite there).  Accepts a scalar or
    array of degrees d >= m.
    """
    if p.A <= 0.0 or p.A >= 1.0:
        raise ValueError(f"triangle profile requires 0 < A < 1, got A={p.A}")
    _check_degree(p, d)
    m, A, B, D = p.m, p.A, p.B, p.D
    d = np.asarray(d, dtype=float)
    b = B / A
    out = D + D / (m * A) * ((d - m) - b * (digamma(d + b) - digamma(m + b)))
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
    _check_degree(p, d)
    m, A, B = p.m, p.A, p.B
    d = np.asarray(d, dtype=float)
    if form == "asymptotic":
        scale = np.exp(gammaln(m + B / A) - gammaln(m + (B + 1.0) / A))
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
    predictors.  Accepts a scalar or array of degrees d >= m.
    """
    if p.A < 0.5:
        curve = build_theory_curve(p, np.atleast_1d(d))
        out = curve.dnn_exact[np.searchsorted(curve.d_values, d)]
        return float(out) if out.ndim == 0 else out
    if p.A > 0.5:
        return dnn_hypothesis_supercritical(p, d, n, C)
    return dnn_hypothesis_critical(p, d, n, C)


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
    """Tabulate c, M and dnn at the given degrees (at least one, all >= m).

    The Y prefix sum is accumulated once up to max(d_values) in chunks, so
    the cost is O(max d) regardless of how many degrees are requested.
    """
    _check_subcritical(p, "TheoryCurve")
    d_values = np.unique(np.asarray(d_values, dtype=np.int64))
    if d_values.size == 0:
        raise ValueError("no degrees to tabulate the theory curve at")
    _check_degree(p, d_values)
    m, A, B = p.m, p.A, p.B

    # Prefix sums of Y and running products of the c-recursion factors at
    # the requested degrees.  Tabulating c through its defining recursion
    # c(d) = c(d-1)*(A(d-1)+B)/(Ad+B+1), rather than per-degree log-gamma,
    # keeps the ratio and recurrence identities exact to rounding over the
    # whole table (log-gamma differences lose ~1e-9 by d ~ 1e5).
    c_run = 1.0 / (A * m + B + 1.0)  # c(m); the Y sum is empty at d = m
    y_prefix = np.zeros(len(d_values))
    c_ex = np.full(len(d_values), c_run)
    total = 0.0
    d_end = int(d_values[-1]) + 1
    for lo in range(m + 1, d_end, _CHUNK):
        i = np.arange(lo, min(lo + _CHUNK, d_end), dtype=float)
        cum = np.cumsum(Y_term(p, i))
        c_chunk = c_run * np.cumprod((A * (i - 1.0) + B) / (A * i + B + 1.0))
        here = (d_values >= lo) & (d_values < lo + len(i))
        y_prefix[here] = total + cum[d_values[here] - lo]
        c_ex[here] = c_chunk[d_values[here] - lo]
        total += cum[-1]
        c_run = c_chunk[-1]

    d_f = d_values.astype(float)
    inner = X_const(p) / (A * m + B + 1.0) + y_prefix
    M = (A * d_f + B + 1.0) * inner * c_ex
    return TheoryCurve(params=p, d_values=d_values, c_exact=c_ex, M_exact=M, dnn_exact=M / (d_f * c_ex))
