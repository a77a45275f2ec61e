"""Parameter mapping: input checks, the derived intercept B, the generator
inverse map and its feasible region."""

import math

import pytest
from hypothesis import assume, given, settings
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

    @pytest.mark.parametrize(
        "m, A, D",
        [
            (0, 0.2, 0.0), (2, -0.1, 0.0), (2, 1.5, 0.0), (2, 0.2, -0.1),
            (2, math.nan, 0.2), (2, 0.2, math.nan), (2, 0.2, math.inf),
        ],
    )
    def test_invalid_inputs_rejected(self, m, A, D):
        with pytest.raises(ValueError):
            make_model_params(m, A, D)

    def test_b_is_not_a_field(self):
        with pytest.raises(TypeError):
            ModelParams(m=2, A=0.2, B=1.2, D=0.3)

    def test_critical_b_is_zero(self):
        assert make_model_params(3, 0.5, 0.0).B == pytest.approx(0.0)


class TestGeneratorParams:
    def test_slot_schedule(self):
        assert (GeneratorParams(m=5, beta=0.0, c=1.0).k, GeneratorParams(m=5, beta=0.0, c=1.0).r) == (2, 1)
        assert (GeneratorParams(m=2, beta=0.5, c=0.0).k, GeneratorParams(m=2, beta=0.5, c=0.0).r) == (1, 0)

    def test_shift_must_exceed_minus_m(self):
        with pytest.raises(ValueError, match="c must exceed"):
            GeneratorParams(m=2, beta=0.0, c=-2.0)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_non_finite_shift_rejected(self, c):
        # A NaN or infinite c once passed here and reached the generator.
        with pytest.raises(ValueError, match="be finite"):
            GeneratorParams(m=2, beta=0.1, c=c)

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

    def test_lower_bound_rejected(self):
        with pytest.raises(ValueError, match="feasibility bound"):
            derive_generator_params(2, 0.15, 0.3)

    def test_upper_bound_rejected(self):
        with pytest.raises(ValueError, match="reachable region"):
            derive_generator_params(2, 0.9, 0.3)
        # At this A = hi, c = s/(A - D/m) - 2m rounds to just above -m.
        D = 0.38367755426188344
        with pytest.raises(ValueError, match="reachable region"):
            derive_generator_params(2, feasible_attachment_interval(2, D)[1], D)

    def test_m1_degenerate(self):
        g = derive_generator_params(1, 0.4, 0.0)
        assert g.beta == 0.0 and g.k == 0 and g.r == 1
        with pytest.raises(ValueError, match="m >= 2"):
            derive_generator_params(1, 0.4, 0.1)

    @settings(max_examples=300, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=7),
        d_frac=st.floats(min_value=0.0, max_value=1.0),
        a_frac=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_round_trip_property(self, m, d_frac, a_frac):
        """Every (A, D) of the feasible region, from 1e-6 inside either
        end of the A interval, maps to knobs with c > -m and back to
        itself; B is m(1 - 2A) on the way back."""
        D = d_frac * (m // 2)  # odd m has a single slot; m = 1 has D = 0
        lo, hi = feasible_attachment_interval(m, D)
        assume(hi - lo > 2e-6)
        A = lo + 1e-6 + a_frac * (hi - lo - 2e-6)
        g = derive_generator_params(m, A, D)
        assert g.c > -m
        p = derive_model_params(g)
        assert p.m == m
        assert math.isclose(p.A, A, rel_tol=1e-12)
        assert math.isclose(p.D, D, rel_tol=1e-12, abs_tol=1e-15)
        assert p.B == m * (1 - 2 * p.A)

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=7),
        d_frac=st.floats(min_value=0.0, max_value=1.0),
        beyond=st.floats(min_value=0.0, max_value=1.0),
        upper=st.booleans(),
    )
    def test_ends_rejected_property(self, m, d_frac, beyond, upper):
        """A at either end of the feasible interval, or beyond it, is
        rejected."""
        D = d_frac * (m // 2)
        lo, hi = feasible_attachment_interval(m, D)
        with pytest.raises(ValueError):
            derive_generator_params(m, hi + beyond if upper else lo - beyond, D)


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
