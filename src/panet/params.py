"""Model parameters and the mapping between the (m, A, B, D) description
and the concrete generator knobs (m, beta, c).

The model-level parameters obey the linear constraint 2mA + B = m, so B is
always derived from (m, A) and never accepted as an input.  The generator
realizes a given (m, A, D) through k = floor(m/2) pair-slots (each an
edge-copy with probability beta, otherwise two shifted-PA draws) and
r = m - 2k single slots (one shifted-PA draw each).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ModelParams",
    "GeneratorParams",
    "make_model_params",
    "derive_generator_params",
    "derive_model_params",
    "feasible_attachment_interval",
]

# Below this gap the attachment shift c blows up past any useful range.
_MIN_A_GAP = 1e-9


@dataclass(frozen=True)
class ModelParams:
    """Edges per vertex m, attachment slope A, intercept B, triangle rate D."""

    m: int
    A: float
    B: float
    D: float

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if not 0.0 <= self.A <= 1.0:
            raise ValueError(f"A must lie in [0, 1], got {self.A}")
        if self.D < 0.0:
            raise ValueError(f"D must be >= 0, got {self.D}")
        if abs(2 * self.m * self.A + self.B - self.m) > 1e-9:
            raise ValueError(
                f"2mA + B = m violated: m={self.m}, A={self.A}, B={self.B}"
            )


@dataclass(frozen=True)
class GeneratorParams:
    """Concrete generator knobs: slot schedule plus (beta, c)."""

    m: int
    beta: float
    c: float

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        if self.c <= -self.m:
            raise ValueError(f"c must exceed -m = {-self.m}, got {self.c}")
        if self.k == 0 and self.beta > 0.0:
            raise ValueError("beta > 0 needs at least one pair-slot (m >= 2)")

    @property
    def k(self) -> int:
        """Number of pair-slots."""
        return self.m // 2

    @property
    def r(self) -> int:
        """Number of single slots (0 or 1)."""
        return self.m - 2 * (self.m // 2)


def make_model_params(m: int, A: float, D: float) -> ModelParams:
    """Build ModelParams with B derived from the constraint 2mA + B = m."""
    return ModelParams(m=m, A=A, B=m * (1.0 - 2.0 * A), D=D)


def feasible_attachment_interval(m: int, D: float) -> tuple[float, float]:
    """Open interval of attachment slopes A reachable by this generator
    at the given (m, D).

    The lower end comes from beta = D/k needing a positive shift
    denominator (A > D/m); the upper end from c > -m, which works out to
    A < 1 - D/m (capped at 1).  Both ends are exclusive.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if D < 0.0:
        raise ValueError(f"D must be >= 0, got {D}")
    k = m // 2
    if D > 0 and k == 0:
        raise ValueError("D > 0 requires m >= 2 (a triangle step needs two slots)")
    if D > k:
        raise ValueError(f"D must be <= floor(m/2) = {k}, got {D}")
    return (D / m, min(1.0, 1.0 - D / m))


def derive_generator_params(m: int, A: float, D: float) -> GeneratorParams:
    """Invert (m, A, D) to the generator knobs (beta, c).

    beta = D/k and c solves A = k*beta/m + s/(2m+c) with s = 2k(1-beta)+r,
    i.e. c = s/(A - D/m) - 2m.
    """
    lo, hi = feasible_attachment_interval(m, D)
    k = m // 2
    r = m - 2 * k
    beta = D / k if k else 0.0  # m = 1 only reaches D = 0
    if A - lo < _MIN_A_GAP:
        raise ValueError(
            f"A = {A} too close to the lower feasibility bound D/m = {lo}; "
            f"the attachment shift diverges (need A - D/m >= {_MIN_A_GAP})"
        )
    s = 2 * k * (1.0 - beta) + r  # equals m - 2D
    c = s / (A - D / m) - 2 * m
    if c <= -m:
        raise ValueError(
            f"(m={m}, A={A}, D={D}) is outside the reachable region "
            f"A in ({lo}, {hi}): derived shift c = {c} <= -m"
        )
    return GeneratorParams(m=m, beta=beta, c=c)


def derive_model_params(g: GeneratorParams) -> ModelParams:
    """Forward map from generator knobs to the (A, B, D) description."""
    k, r = g.k, g.r
    s = 2 * k * (1.0 - g.beta) + r
    A = k * g.beta / g.m + s / (2 * g.m + g.c)
    B = s * g.c / (2 * g.m + g.c)
    D = k * g.beta
    # 2mA + B = 2k*beta + s = m holds algebraically; round B onto the
    # constraint so downstream identities see it exactly.
    B_exact = g.m * (1.0 - 2.0 * A)
    if not math.isclose(B, B_exact, rel_tol=1e-9, abs_tol=1e-9):
        raise ValueError(f"knobs {g} break 2mA + B = m: B = {B}, m(1-2A) = {B_exact}")
    return ModelParams(m=g.m, A=A, B=B_exact, D=D)
