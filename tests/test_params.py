"""Parameter mapping: constraint handling, the generator inverse map and
its feasible region."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panet.params import (
    GeneratorParams,
    ModelParams,
    derive_generator_params,
    derive_model_params,
    feasible_attachment_interval,
    make_model_params,
)


class TestModelParams:
    def test_b_is_derived_from_constraint(self):
        p = make_model_params(2, 0.2, 0.3)
        assert p.B == pytest.approx(1.2)
        assert 2 * p.m * p.A + p.B == pytest.approx(p.m)

    def test_constraint_violation_rejected(self):
        with pytest.raises(ValueError, match="2mA"):
            ModelParams(m=2, A=0.2, B=1.0, D=0.3)

    @pytest.mark.parametrize(
        "m, A, D",
        [(0, 0.2, 0.0), (2, -0.1, 0.0), (2, 1.5, 0.0), (2, 0.2, -0.1)],
    )
    def test_invalid_inputs_rejected(self, m, A, D):
        with pytest.raises(ValueError):
            make_model_params(m, A, D)

    def test_critical_b_is_zero(self):
        assert make_model_params(3, 0.5, 0.0).B == pytest.approx(0.0)


class TestGeneratorParams:
    def test_slot_schedule(self):
        assert (GeneratorParams(m=5, beta=0.0, c=1.0).k, GeneratorParams(m=5, beta=0.0, c=1.0).r) == (2, 1)
        assert (GeneratorParams(m=2, beta=0.5, c=0.0).k, GeneratorParams(m=2, beta=0.5, c=0.0).r) == (1, 0)

    def test_shift_must_exceed_minus_m(self):
        with pytest.raises(ValueError, match="c must exceed"):
            GeneratorParams(m=2, beta=0.0, c=-2.0)

    def test_beta_needs_a_pair_slot(self):
        with pytest.raises(ValueError, match="pair-slot"):
            GeneratorParams(m=1, beta=0.5, c=0.0)


class TestDeriveGeneratorParams:
    def test_reference_point(self):
        # m=2, A=0.2, D=0.3: beta = 0.3, s = 1.4, c = 1.4/0.05 - 4 = 24.
        g = derive_generator_params(2, 0.2, 0.3)
        assert g.beta == pytest.approx(0.3)
        assert g.c == pytest.approx(24.0)

    def test_round_trip(self):
        g = derive_generator_params(3, 0.35, 0.8)
        p = derive_model_params(g)
        assert p.A == pytest.approx(0.35)
        assert p.D == pytest.approx(0.8)
        assert p.B == pytest.approx(3 * (1 - 0.7))

    def test_constraint_checked_without_assert(self):
        # An infinite shift makes B = s*c/(2m+c) NaN; the check must raise
        # ValueError even under python -O.
        with pytest.raises(ValueError, match="2mA \\+ B = m"):
            derive_model_params(GeneratorParams(m=2, beta=0.1, c=float("inf")))

    def test_lower_bound_rejected(self):
        with pytest.raises(ValueError, match="feasibility bound"):
            derive_generator_params(2, 0.15, 0.3)

    def test_upper_bound_rejected(self):
        with pytest.raises(ValueError, match="reachable region"):
            derive_generator_params(2, 0.9, 0.3)

    def test_m1_degenerate(self):
        g = derive_generator_params(1, 0.4, 0.0)
        assert g.beta == 0.0 and g.k == 0 and g.r == 1
        with pytest.raises(ValueError, match="m >= 2"):
            derive_generator_params(1, 0.4, 0.1)

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(min_value=2, max_value=8),
        a_frac=st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
        d_frac=st.floats(min_value=0.0, max_value=0.95),
    )
    def test_round_trip_property(self, m, a_frac, d_frac):
        """Any (A, D) strictly inside the feasible region round-trips."""
        D = d_frac * (m // 2)
        lo, hi = feasible_attachment_interval(m, D)
        A = lo + a_frac * (hi - lo)
        if A - lo < 1e-6 or hi - A < 1e-9:
            return
        g = derive_generator_params(m, A, D)
        p = derive_model_params(g)
        assert math.isclose(p.A, A, rel_tol=1e-9, abs_tol=1e-12)
        assert math.isclose(p.D, D, rel_tol=1e-9, abs_tol=1e-12)


class TestFeasibleInterval:
    def test_interval_shape(self):
        lo, hi = feasible_attachment_interval(2, 0.3)
        assert lo == pytest.approx(0.15)
        assert hi == pytest.approx(0.85)

    def test_no_triangles_full_range(self):
        assert feasible_attachment_interval(4, 0.0) == (0.0, 1.0)

    def test_d_cap(self):
        with pytest.raises(ValueError, match="floor"):
            feasible_attachment_interval(2, 1.5)
