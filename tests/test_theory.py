"""Closed-form curves: frozen reference values, internal identities,
asymptotics, regime gates, and the paper's own formulas (reference.py)
as references.

Reference values below are hand-derived from the defining formulas at
(m=2, A=0.25, D=0.3), where B = 1:
  c(2,2) = 1/(Am+B+1) = 0.4
  X = 2/2.25 * (0.85 + 3.25*2.5/0.5) = 15.2
  M(2) = 2.5 * (15.2/2.5) * 0.4 = 6.08
  dnn(2) = 6.08 / (2*0.4) = 7.6
  Y(3) = (0.85*3/2.75 + 0.15*2/1.5 + 2) / 2.5 = 1.25090909...
"""

import math
import re
import warnings

import numpy as np
import pytest
from scipy.special import digamma

from panet import theory
from panet.experiments import make_preset
from panet.oracle import integrate_S
from panet.params import make_model_params
from panet.theory import (
    M_exact,
    Y_term,
    build_theory_curve,
    c_asymptotic,
    c_exact,
    dnn_asymptotic,
    dnn_hypothesis,
    dnn_overlay,
    dnn_theory,
    expected_triangles,
    expected_W,
    theory_tables,
)

import reference

P = make_model_params(2, 0.25, 0.3)


def hypothesis_constant(p, n):
    """C = E W_n/n^(2A), the constant dnn_hypothesis works out."""
    return expected_W(p, n) / n ** (2.0 * p.A)


class TestDegreeCoefficient:
    def test_reference_value_at_d_equals_m(self):
        assert c_exact(P, 2) == pytest.approx(0.4, rel=1e-12)
        p2 = make_model_params(2, 0.2, 0.3)
        assert c_exact(p2, 2) == pytest.approx(1 / 2.6, rel=1e-12)

    def test_ratio_identity(self):
        # c(d)/c(d-1) = (A(d-1)+B) / (Ad+B+1), the defining recursion.
        for p in (P, make_model_params(2, 0.4, 0.0), make_model_params(3, 0.3, 1.0)):
            d = np.arange(p.m + 1, 200)
            ratio = c_exact(p, d) / c_exact(p, d - 1)
            expected = (p.A * (d - 1) + p.B) / (p.A * d + p.B + 1)
            assert np.allclose(ratio, expected, rtol=1e-12)

    def test_normalization(self):
        total = float(np.sum(c_exact(P, np.arange(2, 10**5))))
        assert total == pytest.approx(1.0, abs=1e-5)

    def test_asymptotic_power_law(self):
        # c_asym / c_exact -> 1, and the tail index is 1 + 1/A.
        assert c_asymptotic(P, 1e6) / c_exact(P, 1e6) == pytest.approx(1.0, rel=1e-3)
        slope = np.log(c_asymptotic(P, 2000.0) / c_asymptotic(P, 1000.0)) / np.log(2)
        assert slope == pytest.approx(-(1 + 1 / P.A), rel=1e-12)

    @pytest.mark.parametrize("d", [3.5, [3, 3.5]])
    def test_subcritical_non_integer_degree_rejected(self, d):
        # [3, 3.5] once ended in an IndexError from the curve lookup.
        with pytest.raises(ValueError, match="degree must be an integer"):
            dnn_overlay(P, d, 100)

    def test_degree_below_m_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            c_exact(P, 1)

    @pytest.mark.parametrize("A", [0.5, 0.6, 0.75])
    def test_matches_plain_product_for_large_A(self, A):
        # c(m,d) holds for every 0 < A < 1, not only below the A < 1/2
        # gate of M and dnn.
        p = make_model_params(2, A, 0.1)
        c = 1.0 / (p.A * p.m + p.B + 1.0)
        expect = [c]
        for d in range(p.m + 1, 500):
            c *= (p.A * (d - 1) + p.B) / (p.A * d + p.B + 1.0)
            expect.append(c)
        got = c_exact(p, np.arange(p.m, 500))
        np.testing.assert_allclose(got, expect, rtol=1e-13, atol=0)

    def test_across_chunk_edges(self, monkeypatch):
        # Chunks of 7 degrees from m+1 = 3: 3..9, 10..16, ..., 94..100.
        # Unsorted, repeated and 2-D degrees each get their one-degree bits.
        p = make_model_params(2, 0.6, 0.2)
        d = np.array([101, 2, 9, 10, 16, 17, 40, 100, 3, 9])
        monkeypatch.setattr(theory, "_CHUNK", 7)
        got = c_exact(p, d)
        assert got.tolist() == [c_exact(p, int(x)) for x in d]
        assert c_exact(p, d.reshape(2, 5)).tolist() == got.reshape(2, 5).tolist()
        assert c_exact(p, np.array([], dtype=np.int64)).shape == (0,)

    @pytest.mark.parametrize("d", [2.5, [3, 4.5], np.nan])
    def test_non_integer_degree_rejected(self, d):
        # An int64 cast would silently read 2.5 as 2.
        with pytest.raises(ValueError, match="degree must be an integer"):
            c_exact(P, d)

    @pytest.mark.parametrize("A", [0.0, 1.0])
    def test_asymptotic_needs_open_unit_interval(self, A):
        # Gamma(m + B/A) has a pole at A = 1 (m + B/A = 0); A = 1 once gave
        # RuntimeWarnings and an infinite tail constant.
        with pytest.raises(ValueError, match="0 < A < 1"):
            c_asymptotic(make_model_params(2, A, 0.0), 3)


class TestNeighborSumCoefficient:
    def test_frozen_reference_values(self):
        assert reference.X_const(P) == pytest.approx(15.2, rel=1e-12)
        assert Y_term(P, 3) == pytest.approx(1.2509090909, rel=1e-9)
        assert M_exact(P, 2) == pytest.approx(6.08, rel=1e-12)
        assert dnn_theory(P, 2) == pytest.approx(7.6, rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    @pytest.mark.parametrize("A", [0.1, 0.2, 0.3, 1 / 3, 0.4, 0.45])
    def test_curve_is_the_papers_closed_form(self, A, m):
        # build_theory_curve's constant is dnn_overlay's boundary at
        # E W_n/n = s/(1-2A), not the paper's X: the two agree to 6e-16.
        p = make_model_params(m, A, 0.2)
        d = np.arange(m, 501)
        curve = build_theory_curve(p, d)
        np.testing.assert_allclose(curve.dnn_exact, reference.dnn_closed_form(p, d), rtol=1e-14, atol=0)

    def test_Y_term_needs_i_above_m(self):
        with pytest.raises(ValueError, match=r"^Y\(i\) is defined for i >= m\+1 = 3$"):
            Y_term(P, P.m)

    def test_recurrence_identity(self):
        # inner(d) - inner(d-1) = Y(d) with inner = M/(c*(Ad+B+1)):
        # the closed form must satisfy its own defining recursion.
        d = np.arange(P.m, 2001)
        curve = build_theory_curve(P, d)
        inner = curve.M_exact / (curve.c_exact * (P.A * d + P.B + 1))
        assert np.allclose(inner[1:] - inner[:-1], Y_term(P, d[1:]), rtol=1e-10)

    def test_curve_matches_pointwise_entry_points(self):
        # M_exact, dnn_theory and c_exact read the curve's one recursion
        # pass, whose running sums and products go in order, so a wider
        # table gives the same bits.
        curve = build_theory_curve(P, [2, 17, 900])
        assert curve.M_at(17) == M_exact(P, 17)
        assert curve.dnn_at(900) == dnn_theory(P, 900)
        assert curve.c_exact.tolist() == c_exact(P, curve.d_values).tolist()
        with pytest.raises(KeyError):
            curve.M_at(18)

    def test_multi_chunk_curve(self, monkeypatch):
        # With chunks of 7 degrees from m+1 = 3 (3..9, 10..16, ..., 94..100,
        # 101..107), the degrees sit at d = m, on both sides of chunk edges
        # and inside a chunk.  Each must get its one-degree curve's bits,
        # and the default single chunk's values to rounding.
        d = [2, 3, 9, 10, 16, 17, 40, 100, 101]
        default = build_theory_curve(P, d)
        monkeypatch.setattr(theory, "_CHUNK", 7)
        curve = build_theory_curve(P, d)
        for i, di in enumerate(d):
            one = build_theory_curve(P, [di])
            got = (curve.c_exact[i], curve.M_exact[i], curve.dnn_exact[i])
            assert got == (one.c_exact[0], one.M_exact[0], one.dnn_exact[0]), di
        for name in ("c_exact", "M_exact", "dnn_exact"):
            np.testing.assert_allclose(getattr(curve, name), getattr(default, name), rtol=1e-12, atol=0)

    def test_dnn_affine_in_D(self):
        # c(m,d) has no D-dependence and X, Y are affine in D, so dnn(d)
        # at fixed d must be affine (collinear) in D.
        vals = [dnn_theory(make_model_params(2, 0.25, D), 5) for D in (0.0, 0.2, 0.4)]
        assert vals[1] == pytest.approx((vals[0] + vals[2]) / 2, rel=1e-12)

    def test_dnn_increasing_past_initial_dip(self):
        # The curve dips slightly just above d = m, then grows ~ log d.
        assert dnn_theory(P, 3) < dnn_theory(P, 2)
        d = np.unique(np.logspace(np.log10(50), 6, 60).astype(int))
        curve = build_theory_curve(P, d)
        assert np.all(np.diff(curve.dnn_exact) > 0)

    def test_asymptote(self):
        p = make_model_params(2, 0.4, 0.3)
        d = 10**7
        assert dnn_theory(p, d) / dnn_asymptotic(p, d) == pytest.approx(1.0, abs=0.05)

    def test_supercritical_gate(self):
        with pytest.raises(ValueError, match="A < 1/2"):
            M_exact(make_model_params(2, 0.6, 0.2), 5)

    @pytest.mark.parametrize("d", [0, 1, [1, 5]])
    def test_asymptote_degree_below_m_rejected(self, d):
        # d = 0 once warned and gave -inf, and d = 1 gave 0.0 at m = 2.
        with pytest.raises(ValueError, match="degree must be >= m"):
            dnn_asymptotic(P, d)

    @pytest.mark.parametrize("d", [[2.5], [2, 3.5], [np.nan]])
    def test_non_integer_degree_rejected(self, d):
        # The int64 cast once tabulated d = 2.5 as d = 2.
        with pytest.raises(ValueError, match="degree must be an integer"):
            build_theory_curve(P, d)

    @pytest.mark.parametrize("A", [5e-5, 5e-4])
    def test_small_A_dnn_survives_underflowing_c(self, A):
        # c(m,d) underflows to 0 (A = 5e-5) or sticks at the smallest
        # subnormal (5e-4) well below d = 1e4; d_nn = M/(d*c) once read NaN
        # there with a RuntimeWarning, or drifted by up to 3e-7.
        p = make_model_params(2, A, 0.0)
        d = np.arange(p.m, 10**4 + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = build_theory_curve(p, d)
        assert curve.c_exact[-1] < 1e-300
        assert np.all(np.isfinite(curve.M_exact)) and np.all(np.isfinite(curve.dnn_exact))
        big = curve.c_exact > 1e-300
        via_c = curve.M_exact[big] / (d[big] * curve.c_exact[big])
        np.testing.assert_allclose(curve.dnn_exact[big], via_c, rtol=1e-13, atol=0)

    def test_integral_float_degrees_accepted(self):
        got = build_theory_curve(P, [2.0, 17.0])
        assert got.d_values.tolist() == [2, 17]
        assert got.dnn_exact.tolist() == build_theory_curve(P, [2, 17]).dnn_exact.tolist()


class TestTriangleProfile:
    POINTS = [(2, 0.25, 0.3), (3, 0.2, 0.5), (4, 0.6, 0.8), (5, 0.75, 1.0)]

    def test_starts_at_D(self):
        for m, A, D in self.POINTS:
            p = make_model_params(m, A, D)
            assert expected_triangles(p, m) == pytest.approx(D, rel=1e-15)

    @staticmethod
    def _digamma_form(p, d):
        # t(d) = D + D/(mA) [(d-m) - b(psi(d+b) - psi(m+b))], b = B/A: the
        # closed form of the sum expected_triangles evaluates.
        b = p.B / p.A
        return p.D + p.D / (p.m * p.A) * ((d - p.m) - b * (digamma(d + b) - digamma(p.m + b)))

    def test_closed_form_matches_direct_sum(self):
        # Every degree to 1e4, then log-spaced to 1e7 across ten default
        # chunks of the running sum.
        for m, A, D in self.POINTS:
            p = make_model_params(m, A, D)
            d = np.unique(np.r_[np.arange(m, 10**4 + 1), np.geomspace(10**4, 10**7, 100).round()])
            np.testing.assert_allclose(expected_triangles(p, d), self._digamma_form(p, d), rtol=1e-13, atol=0)

    def test_across_chunk_edges(self, monkeypatch):
        # Chunks of 7 degrees from m+1 = 3: 3..9, 10..16, ..., 94..100.
        # Unsorted and repeated degrees each get their one-degree bits.
        p = make_model_params(2, 0.6, 0.2)
        d = np.array([101, 2, 9, 10, 16, 17, 40, 100, 3, 9])
        monkeypatch.setattr(theory, "_CHUNK", 7)
        got = expected_triangles(p, d)
        assert got.tolist() == [expected_triangles(p, int(x)) for x in d]
        np.testing.assert_allclose(got, self._digamma_form(p, d), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("d", [2.5, [3, 3.5]])
    def test_non_integer_degree_rejected(self, d):
        # Both once returned values of the digamma form at the non-integer d.
        with pytest.raises(ValueError, match="degree must be an integer"):
            expected_triangles(P, d)

    def test_zero_without_triangle_step(self):
        p = make_model_params(2, 0.25, 0.0)
        assert np.all(expected_triangles(p, np.arange(2, 1000)) == 0.0)

    def test_clustering_spectrum_limit(self):
        # d*C(d) = 2t(d)/(d-1) -> 2D/(Am); the O((B/A) log d / d) gap
        # closes to 0.9996 of the limit by d = 1e5.
        d = 10**5
        spectrum = 2.0 * expected_triangles(P, d) / (d - 1)
        assert spectrum / (2 * P.D / (P.A * P.m)) == pytest.approx(1.0, abs=1e-3)

    def test_attachment_slope_outside_open_unit_interval_rejected(self):
        for A in (0.0, 1.0):
            with pytest.raises(ValueError, match="0 < A < 1"):
                expected_triangles(make_model_params(2, A, 0.0), 3)


class TestScalars:
    def test_sum_squares_constant(self):
        # E W_n/n -> w = m(m+4B+1)/(1-2A) = 26 at (2, 0.2, 0.3), with an
        # O(n^(2A-1)) correction from below.
        p = make_model_params(2, 0.2, 0.3)
        gaps = [26.0 - expected_W(p, n) / n for n in (10**3, 10**5, 10**7)]
        assert 0 < gaps[2] < gaps[1] < gaps[0]
        assert expected_W(p, 10**7) / 10**7 == pytest.approx(26.0, rel=1e-4)

    @pytest.mark.parametrize("A", [0.25, 0.5, 0.6])
    def test_expected_W_at_the_seed(self, A):
        # W_{n0} = (m+1)(2m)^2 = 48 at m = 2.
        assert expected_W(make_model_params(2, A, 0.2), 3) == 48.0

    def test_expected_W_harmonic_form_at_one_half(self):
        # n (W_n0/n0 + s (H_n - H_n0)) with n0 = 3, W_n0 = 48, s = 6.
        p = make_model_params(2, 0.5, 0.2)
        for n in (4, 1000, 10**5):
            harmonic = math.fsum(1.0 / k for k in range(4, n + 1))
            assert expected_W(p, n) == pytest.approx(n * (16.0 + 6.0 * harmonic), rel=1e-12)

    @pytest.mark.parametrize("A", [np.nextafter(0.5, 0.0), 0.5 - 1e-12, 0.5 + 1e-12, np.nextafter(0.5, 1.0)])
    def test_expected_W_continuous_at_one_half(self, A):
        # The Gamma form w n + (W_n0 - w n0) G cancels here: at 0.5 -/+ 1e-12
        # it read -1.28e8 and 1.30e8 at n = 1e5, where E W_n is 7.75e6.
        at_half = expected_W(make_model_params(2, 0.5, 0.2), 10**5)
        assert expected_W(make_model_params(2, float(A), 0.2), 10**5) == pytest.approx(at_half, rel=1e-9)


class TestHypothesisPredictors:
    """dnn_hypothesis, the one A >= 1/2 predictor."""

    def test_supercritical_forms_agree_at_large_d(self):
        p = make_model_params(2, 0.6, 0.2)
        pre = dnn_hypothesis(p, 10**5, 10**6)
        asym = dnn_hypothesis(p, 10**5, 10**6, form="asymptotic")
        assert pre / asym == pytest.approx(1.0, rel=0.01)

    def test_supercritical_scalings(self):
        p = make_model_params(2, 0.6, 0.2)
        # Divided by its constant, the predictor is the pure power law.
        f = lambda d, n: dnn_hypothesis(p, d, n, form="asymptotic") / hypothesis_constant(p, n)
        assert f(4, 10**5 * 10) / f(4, 10**5) == pytest.approx(10 ** (2 * 0.6 - 1))
        assert f(40, 10**5) / f(4, 10**5) == pytest.approx(10 ** (1 / 0.6 - 2))

    def test_supercritical_gate(self):
        with pytest.raises(ValueError, match=r"^hypothesis predictor needs A >= 1/2, got A=0.4$"):
            dnn_hypothesis(make_model_params(2, 0.4, 0.2), 3, 1000)
        assert dnn_hypothesis(make_model_params(2, 0.5, 0.2), 3, 1000) > 0

    def test_critical_gate(self):
        # The gate sits at 1/2 itself: the float just below is rejected.
        with pytest.raises(ValueError, match="A >= 1/2"):
            dnn_hypothesis(make_model_params(2, float(np.nextafter(0.5, 0.0)), 0.2), 3, 1000)

    @pytest.mark.parametrize("form", ["preasymptotic", "asymptotic"])
    def test_supercritical_rejects_A_one(self, form):
        # c(m,d) = 0 for d > m at A = 1: the preasymptotic form once
        # divided by it and returned inf with RuntimeWarnings.
        with pytest.raises(ValueError, match="A < 1"):
            dnn_hypothesis(make_model_params(2, 1.0, 0.0), 3, 1000, form=form)

    @pytest.mark.parametrize("form", ["preasymptotic", "asymptotic"])
    def test_non_integer_degree_rejected(self, form):
        # The asymptotic form once read d = 2.5 as a degree.
        with pytest.raises(ValueError, match="degree must be an integer"):
            dnn_hypothesis(make_model_params(2, 0.6, 0.2), [3, 2.5], 1000, form=form)

    def test_critical_value_and_finite_d_factor(self):
        # At A = 1/2, n^(2A-1) = 1: the flat C/(2(m+1)) and its (d+2)/d.
        p, n = make_model_params(2, 0.5, 0.2), 10**4
        base = dnn_hypothesis(p, 4, n, form="asymptotic")
        assert base == pytest.approx(hypothesis_constant(p, n) / 6.0, rel=1e-12)
        assert dnn_hypothesis(p, 4, n) == pytest.approx(base * 1.5, rel=1e-12)
        flat = dnn_hypothesis(p, np.array([2, 9]), n, form="asymptotic")
        assert flat.tolist() == [base, base]

    # dnn_hypothesis works its constant out, so only a form can be bad.
    @pytest.mark.parametrize("A", [0.6, 0.5], ids=["supercritical_form", "critical_form"])
    def test_bad_constant_or_form_rejected(self, A):
        with pytest.raises(ValueError, match="^unknown form 'bogus'$"):
            dnn_hypothesis(make_model_params(2, A, 0.2), 3, 100, form="bogus")

    @pytest.mark.parametrize("A", [0.5, 0.6])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_size_below_seed_rejected(self, A, n):
        # n = 0 once gave 0.0 (supercritical) or a warning and -inf
        # (critical), and n = 2 passed, below the seed of m+1 = 3 vertices.
        p = make_model_params(2, A, 0.2)
        message = rf"size n must be an integer >= 3, got {n}"
        for f in (dnn_hypothesis, dnn_overlay, lambda p, d, n: expected_W(p, n)):
            with pytest.raises(ValueError, match=message):
                f(p, 3, n)

    @pytest.mark.parametrize("n", [10**3, 10**4, 10**5])
    @pytest.mark.parametrize("A", [0.5, float(np.nextafter(0.5, 1.0)), 0.6, 0.8])
    def test_is_the_papers_predictor(self, A, n):
        # Above 1/2 the paper's c(m,d) form with C1 = C; at 1/2 its critical
        # predictor in both forms with C2 = C/log(n).  Measured: 2.9e-15.
        for m in (1, 2, 3):
            p = make_model_params(m, A, 0.2)
            d, C = np.arange(m, 301), hypothesis_constant(p, n)
            got = dnn_hypothesis(p, d, n)
            if A > 0.5:
                np.testing.assert_allclose(got, reference.dnn_hypothesis_supercritical(p, d, n, C), rtol=1e-14, atol=0)
                continue
            C2 = C / math.log(n)
            np.testing.assert_allclose(got, reference.dnn_hypothesis_critical(p, d, n, C2), rtol=1e-14, atol=0)
            flat = reference.dnn_hypothesis_critical(p, d, n, C2, form="asymptotic")
            np.testing.assert_allclose(dnn_hypothesis(p, d, n, form="asymptotic"), flat, rtol=1e-14, atol=0)


# Each (A, m) case of the form against the oracle at D = 0.2 (the
# recurrences take it at m = 1 too), with the largest relative gap
# measured over d <= 3m + 15 at n = 1e4: at most 3.4e-3 at m = 1 and
# 1.4e-3 at m = 3, so the bounds are 3.5e-3 and 1.5e-3.  The n -> oo
# closed form and the paper's predictors miss by up to 19%.
FORM_CASES = [(A, m) for m in (1, 3) for A in (0.2, 0.4, 0.5, 0.6, 0.8)]
FORM_GAP = {1: 3.5e-3, 3: 1.5e-3}


@pytest.fixture(scope="module", params=FORM_CASES, ids=[f"A{A}-m{m}" for A, m in FORM_CASES])
def oracle_case(request):
    """(params, degrees, oracle d_nn) at n = 1e4 for one (A, m) case; rows
    d <= d_max of the lower-triangular recurrences are exact at d_max =
    3m + 15."""
    A, m = request.param
    p = make_model_params(m, A, 0.2)
    d = np.arange(m, 3 * m + 16)
    tab = integrate_S(p, 10**4, int(d[-1]))
    return p, d, tab.S[-1][d] / (tab.N[-1][d] * d)


class TestFiniteSizeForm:
    """dnn_overlay, one expression in E W_n for every 0 < A < 1."""

    def test_matches_integrate_S(self, oracle_case):
        p, d, oracle = oracle_case
        gap = np.abs(dnn_overlay(p, d, 10**4) / oracle - 1.0)
        assert gap.max() <= FORM_GAP[p.m], f"largest gap {gap.max():.2e} at d = {d[gap.argmax()]}"

    @pytest.mark.parametrize("A", [np.nextafter(0.5, 0.0), 0.5 - 1e-12, 0.5 + 1e-12, np.nextafter(0.5, 1.0)])
    def test_continuous_at_one_half(self, A):
        # The closed form below A = 1/2 has a pole there; this form has none.
        d = np.arange(2, 200)
        at_half = dnn_overlay(make_model_params(2, 0.5, 0.2), d, 10**5)
        np.testing.assert_allclose(dnn_overlay(make_model_params(2, float(A), 0.2), d, 10**5), at_half, rtol=1e-9)

    @pytest.mark.parametrize("A", [0.1, 0.2, 0.25, 0.4])
    def test_gap_to_closed_form_scales_as_n_to_the_2A_minus_1(self, A):
        # The gap is (E W_n/n - w) k(d): one ratio over n at every d, which
        # is 100^(2A-1) up to E W_n's 1/n terms (1.2e-5 here).
        p = make_model_params(2, A, 0.2)
        d = np.arange(2, 101)
        closed = build_theory_curve(p, d).dnn_exact
        ratio = (dnn_overlay(p, d, 10**6) - closed) / (dnn_overlay(p, d, 10**4) - closed)
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-9)
        assert ratio[0] == pytest.approx(100.0 ** (2 * A - 1), rel=2e-5)

    @pytest.mark.parametrize(
        "A, D, n, breakdown",
        [(0.2, 0.3, 2000, 162), (0.2, 0.3, 10**5, 407), (0.4, 0.3, 2000, 4074), (0.1, 0.1, 10**5, 122)],
    )
    def test_breakdown_degree(self, A, D, n, breakdown):
        # The docstring's table: positive below the breakdown, not at it.
        y = dnn_overlay(make_model_params(2, A, D), np.arange(2, breakdown + 1), n)
        assert (y[:-1] > 0).all() and y[-1] <= 0

    @pytest.mark.parametrize("name", ["fig1a", "fig1b", "fig2", "fig4", "fig5a", "fig5b", "fig6a", "fig6b"])
    def test_positive_over_every_preset_degree(self, name):
        # d_seed is the expected degree of a seed vertex (the oldest).  At
        # the breakdown table's points the largest degree over 10 seeds is
        # at most 2.03 d_seed; the form stays positive past 5 d_seed at
        # every preset size, desk and full.
        for s in make_preset(name) + make_preset(name, full=True):
            p = s.model
            for n in s.n_list:
                d_seed = (2 * p.m + p.B / p.A) * (n / (p.m + 1)) ** p.A - p.B / p.A
                assert (dnn_overlay(p, np.arange(p.m, int(4 * d_seed)), n) > 0).all(), (s.name, n)

    @pytest.mark.parametrize("A", [0.5, 0.6, 0.8])
    def test_positive_to_large_degrees_from_one_half(self, A):
        p = make_model_params(2, A, 0.2)
        for n in (10**3, 10**6):
            assert (dnn_overlay(p, np.arange(2, 2 * 10**5 + 1), n) > 0).all()


class TestOverlay:
    D = np.array([2, 3, 7, 40])

    def test_subcritical_is_the_exact_curve(self, monkeypatch):
        # In the n -> oo limit below A = 1/2, where E W_n/n = w = s/(1 - 2A).
        d = np.arange(2, 60)
        for A in (0.1, 0.25, 0.4):
            p = make_model_params(2, A, 0.2)
            w = 2 * (2 + 4 * p.B + 1) / (1 - 2 * A)
            monkeypatch.setattr(theory, "expected_W", lambda p, n: w * n)
            np.testing.assert_allclose(dnn_overlay(p, d, 10**4), build_theory_curve(p, d).dnn_exact, rtol=1e-12)

    def test_scalar_and_array_agree(self):
        for A in (0.25, 0.5, 0.6):
            p = make_model_params(2, A, 0.2)
            arr = dnn_overlay(p, self.D, 5000)
            assert [dnn_overlay(p, int(d), 5000) for d in self.D] == arr.tolist()

    @pytest.mark.parametrize("d", [3.5, [3, 3.5]])
    def test_subcritical_non_integer_degree_rejected(self, d):
        # [3, 3.5] once ended in an IndexError from the curve lookup, and
        # at A = 1/2 a non-integer degree once passed.
        for p in (P, make_model_params(2, 0.5, 0.2)):
            with pytest.raises(ValueError, match="degree must be an integer"):
                dnn_overlay(p, d, 100)

    def test_degree_below_m_rejected(self):
        for A in (0.25, 0.5, 0.6):
            with pytest.raises(ValueError, match="degree must be >= m"):
                dnn_overlay(make_model_params(2, A, 0.2), 1, 100)

    def test_empty_degree_list_rejected(self):
        # fig1a --check at a tiny n reached the curve with no degree and
        # ended in an IndexError traceback.
        for d in ([], np.array([], dtype=np.int64)):
            with pytest.raises(ValueError, match="no degrees"):
                build_theory_curve(P, d)
            with pytest.raises(ValueError, match="no degrees"):
                dnn_overlay(P, d, 100)


class TestTheoryTables:
    @pytest.mark.parametrize("A, predictor", [(0.5, dnn_hypothesis), (0.6, dnn_hypothesis)])
    @pytest.mark.parametrize("n_list", [(), (1000, 10**4)])
    def test_hypothesis_cells_are_the_predictors(self, A, predictor, n_list):
        # Each cell, bit for bit, is the predictor in its two forms at its
        # own (d, n), at A = 1/2 as above it; one block per size, 10^5 if
        # none.
        p = make_model_params(2, A, 0.2)
        rows = theory_tables(p, 40, n_list)
        assert [(r["n"], r["d"]) for r in rows] == [(n, d) for n in n_list or (10**5,) for d in range(2, 41)]
        for r in rows:
            d, n = r["d"], r["n"]
            assert type(d) is int and type(n) is int
            assert r["c_exact"] == c_exact(p, d)
            assert r["dnn_hyp"] == predictor(p, d, n)
            assert r["dnn_hyp_asym"] == predictor(p, d, n, form="asymptotic")

    def test_subcritical_cells_are_the_closed_forms(self):
        rows = theory_tables(P, 30)
        curve = build_theory_curve(P, np.arange(2, 31))
        assert [r["d"] for r in rows] == list(range(2, 31))
        assert [r["M"] for r in rows] == curve.M_exact.tolist()
        assert [r["dnn_theory"] for r in rows] == curve.dnn_exact.tolist()
        for r in rows:
            assert r["c_exact"] == c_exact(P, r["d"])
            assert r["c_asym"] == c_asymptotic(P, float(r["d"]))
            assert r["dnn_asym"] == dnn_asymptotic(P, float(r["d"]))

    def test_repeated_size_rejected(self):
        # Once wrote the n = 1000 block twice.
        with pytest.raises(ValueError, match=r"^sizes must name at least one size and none twice, got \[1000, 10000, 1000\]$"):
            theory_tables(make_model_params(2, 0.6, 0.2), 3, [1000, 10**4, 1000])


class TestSizeRule:
    """A float size once raised a TypeError in theory_tables, dnn_overlay
    and expected_W; every theory entry point now reads sizes by the params
    rule: an integral float is that size, any other float is rejected.
    The d_max of theory_tables and integrate_S follows the same rule."""

    P = make_model_params(2, 0.6, 0.2)
    PC = make_model_params(2, 0.5, 0.2)
    FRACTIONAL = "size n must be an integer >= 3, got 1000.5"

    def test_integral_float_is_the_int(self):
        p, d = self.P, np.array([2, 3, 7])
        assert theory_tables(p, 7, [1000.0, np.int64(50)]) == theory_tables(p, 7, [1000, 50])
        assert (dnn_overlay(p, d, 1000.0) == dnn_overlay(p, d, 1000)).all()
        assert (dnn_overlay(self.PC, d, 1000.0) == dnn_overlay(self.PC, d, 1000)).all()
        assert expected_W(p, 1000.0) == expected_W(p, 1000)
        # d_max = 6.0 once gave float d cells, and integrate_S a TypeError.
        rows = theory_tables(p, 6.0)
        assert rows == theory_tables(p, 6) and type(rows[-1]["d"]) is int
        assert integrate_S(p, 100, 10.0).d_max == 10 and type(integrate_S(p, 100, 10.0).d_max) is int

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda p, pc: theory_tables(p, 7, [1000, 1000.5]), FRACTIONAL),
            (lambda p, pc: dnn_overlay(p, 3, 1000.5), FRACTIONAL),
            (lambda p, pc: dnn_overlay(pc, 3, 1000.5), FRACTIONAL),
            (lambda p, pc: expected_W(p, 1000.5), FRACTIONAL),
            (lambda p, pc: dnn_hypothesis(p, 3, 1000.5), FRACTIONAL),
            (lambda p, pc: dnn_hypothesis(pc, 3, 1000.5), FRACTIONAL),
            # Once float d cells up to 6.0, past d_max.
            (lambda p, pc: theory_tables(p, 5.5), "d_max must be an integer >= 2, got 5.5"),
            # Once read as d_max = 1.
            (lambda p, pc: theory_tables(make_model_params(1, 0.6, 0.0), True), "d_max must be an integer >= 1, got True"),
            (lambda p, pc: theory_tables(p, 1.5), "d_max must be >= m = 2, got 1.5"),
            # Once numpy's TypeError.
            (lambda p, pc: integrate_S(p, 100, 10.5), "d_max must be an integer >= 4, got 10.5"),
            (lambda p, pc: integrate_S(p, 100, True), "d_max must be >= 2m = 4 to hold the seed"),
        ],
        ids=[
            "theory_tables", "overlay_super", "overlay_critical", "expected_W", "supercritical", "critical",
            "theory_tables_d_max", "theory_tables_d_max_bool", "theory_tables_d_max_below_m",
            "integrate_S_d_max", "integrate_S_d_max_bool",
        ],
    )
    def test_fractional_size_rejected(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(self.P, self.PC)
