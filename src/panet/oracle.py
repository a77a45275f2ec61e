"""Numeric integration of the expectation recurrences for N_n(d), S_n(d)
and W_n, used to cross-check the closed forms without simulation noise.

One loop iterates the leading-order master equations (all O-terms
dropped) from the exact seed-graph values.  The sum of squared degrees
W_n = sum_d S_n(d) is iterated as state too, by the recurrence
W_{n+1} = (1 + 2A/n) W_n + m(m+4B+1), and drives the d = m row.  It is
not E W_n exactly: it leaves out the double-hit term (two PA draws of one
step landing on one vertex), and simulated means exceed it by about 2.5%
at A = 0.6, n = 30.  It has no pole at A = 1/2, so the integrator holds
for every 0 < A < 1; against the closed forms its only discrepancy is
the finite-n error, the n^{2A} term of W_n included.

Degree rows move mass with factors (Ad+B)/n clamped into [0, 1]: for
degrees d with (Ad+B) > n the factor would exceed 1, but those rows carry
no mass at such small n (the recurrence moves mass up one degree per
step), so clamping never distorts a populated row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ModelParams, integer, size, sizes
from .theory import build_theory_curve

__all__ = [
    "RecurrenceTable",
    "integrate_S",
    "compare_closed_form",
]


@dataclass(frozen=True)
class RecurrenceTable:
    """Integrated expectations recorded at the checkpoint sizes n_values.

    N[i][d], S[i][d] and W[i] are the integrated N_n(d), S_n(d) and W_n
    at n = n_values[i]: leading-order expectations, W[i] short of E W_n
    by the double-hit term (see the module docstring).
    """

    params: ModelParams
    n_values: np.ndarray
    d_max: int
    N: np.ndarray
    S: np.ndarray
    W: np.ndarray


def _seed_state(p: ModelParams, d_max: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Exact N, S vectors of the doubled-clique seed on m+1 vertices."""
    m = p.m
    n0 = m + 1
    N = np.zeros(d_max + 1)
    S = np.zeros(d_max + 1)
    N[2 * m] = n0
    # Every vertex has 2m neighbor slots, each of degree 2m.
    S[2 * m] = n0 * (2 * m) * (2 * m)
    return n0, N, S


def integrate_S(
    p: ModelParams, n_end: int, d_max: int, record_at=None
) -> RecurrenceTable:
    """Jointly iterate the N-, S- and W-recurrences up to the last
    checkpoint; record_at holds the checkpoint sizes, none above n_end
    (default [n_end]).

    E N_{n+1}(d) = E N_n(d)(1-(Ad+B)/n) + E N_n(d-1)(A(d-1)+B)/n + [d=m].
    The d = m row of S has the source A*W_n/n + (2B+1)m; rows d > m use
    the four-term recurrence driven by N and S at d-1.
    """
    m, A, B, D = p.m, p.A, p.B, p.D
    if d_max < 2 * m:
        raise ValueError(f"d_max must be >= 2m = {2 * m} to hold the seed")
    d_max = integer(d_max, "d_max", 2 * m)
    n0, N, S = _seed_state(p, d_max)
    n_end = size(n_end, m)
    pts = np.array(sorted(sizes([n_end] if record_at is None else record_at, m)), dtype=np.int64)
    if pts[-1] > n_end:
        raise ValueError(f"checkpoints must be <= n_end = {n_end}, got {pts[-1]}")

    d = np.arange(d_max + 1, dtype=float)
    rate = A * d + B
    rate_prev = A * (d - 1.0) + B  # A(d-1)+B per row
    n_inflow_coef = D * (d - 1.0) / m + m * rate_prev  # multiplies N(d-1)/n
    n_same_coef = (B - D / m) * d  # multiplies N(d)/n
    w_step = m * (m + 4.0 * B + 1.0)
    W = S.sum()  # (m+1)(2m)^2, exact for the seed

    out_N = np.empty((len(pts), d_max + 1))
    out_S = np.empty((len(pts), d_max + 1))
    out_W = np.empty(len(pts))
    snap = 0
    for n in range(n0, n_end + 1):
        if n == pts[snap]:
            out_N[snap], out_S[snap], out_W[snap] = N, S, W
            snap += 1
            if snap == len(pts):
                break
        up = np.clip(rate / n, 0.0, 1.0)
        # The S factor may exceed 1 (A(d-1)+B < 0 at d = m once
        # A > m/(m+1)); it is an expectation weight, not a probability.
        stay_S = np.maximum(1.0 - rate_prev / n, 0.0)

        nxt_S = S * stay_S
        nxt_S[1:] += S[:-1] * up[:-1] + N[:-1] * n_inflow_coef[1:] / n
        nxt_S += N * n_same_coef / n
        # d = m row: no inflow from below, W-driven source instead.
        nxt_S[m] = S[m] * stay_S[m] + (B - D / m) * m * N[m] / n + A * W / n + (2.0 * B + 1.0) * m
        nxt_S[:m] = 0.0

        nxt_N = N * (1.0 - up)
        nxt_N[1:] += N[:-1] * up[:-1]
        nxt_N[m] += 1.0

        N, S = nxt_N, nxt_S
        W = W * (1.0 + 2.0 * A / n) + w_step
    return RecurrenceTable(params=p, n_values=pts, d_max=d_max, N=out_N, S=out_S, W=out_W)


def compare_closed_form(table: RecurrenceTable, curve=None) -> dict[int, dict[str, float]]:
    """Relative gaps at the final checkpoint: S(d)/n vs M(d), per degree
    d in [m, d_max].

    The closed form needs A < 1/2; build `curve` first to fail before
    integrating.
    """
    p = table.params
    d_values = np.arange(p.m, table.d_max + 1)
    if curve is None:
        curve = build_theory_curve(p, d_values)
    elif curve.params != p:
        raise ValueError("theory curve was built for different parameters")
    n = int(table.n_values[-1])
    report: dict[int, dict[str, float]] = {}
    for d in d_values:
        M = curve.M_at(int(d))
        S_over_n = table.S[-1][d] / n
        report[int(d)] = {"n": float(n), "S_over_n": S_over_n, "M_closed": M, "rel_err_S": abs(S_over_n - M) / M}
    return report
