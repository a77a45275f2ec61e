"""Closed-form curves: frozen reference values, internal identities,
asymptotics and regime gates.

Reference values below are hand-derived from the defining formulas at
(m=2, A=0.25, D=0.3), where B = 1:
  c(2,2) = 1/(Am+B+1) = 0.4
  X = 2/2.25 * (0.85 + 3.25*2.5/0.5) = 15.2
  M(2) = 2.5 * (15.2/2.5) * 0.4 = 6.08
  dnn(2) = 6.08 / (2*0.4) = 7.6
  Y(3) = (0.85*3/2.75 + 0.15*2/1.5 + 2) / 2.5 = 1.25090909...
"""

import numpy as np
import pytest

from panet import theory
from panet.params import make_model_params
from panet.theory import (
    M_exact,
    X_const,
    Y_term,
    build_theory_curve,
    c_asymptotic,
    c_exact,
    dnn_asymptotic,
    dnn_hypothesis_critical,
    dnn_hypothesis_supercritical,
    dnn_overlay,
    dnn_theory,
    expected_triangles,
)

from reference import expected_sum_squares

P = make_model_params(2, 0.25, 0.3)


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

    def test_degree_below_m_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            c_exact(P, 1)


class TestNeighborSumCoefficient:
    def test_frozen_reference_values(self):
        assert X_const(P) == pytest.approx(15.2, rel=1e-12)
        assert Y_term(P, 3) == pytest.approx(1.2509090909, rel=1e-9)
        assert M_exact(P, 2) == pytest.approx(6.08, rel=1e-12)
        assert dnn_theory(P, 2) == pytest.approx(7.6, rel=1e-12)

    def test_recurrence_identity(self):
        # inner(d) - inner(d-1) = Y(d) with inner = M/(c*(Ad+B+1)):
        # the closed form must satisfy its own defining recursion.
        d = np.arange(P.m, 2001)
        curve = build_theory_curve(P, d)
        inner = curve.M_exact / (curve.c_exact * (P.A * d + P.B + 1))
        assert np.allclose(inner[1:] - inner[:-1], Y_term(P, d[1:]), rtol=1e-10)

    def test_curve_matches_pointwise_entry_points(self):
        # M_exact and dnn_theory are one-degree views of the curve, whose
        # prefix sums run in order, so a wider table gives the same bits.
        # The curve tabulates c by recursion while c_exact goes through
        # log-gamma; they agree to ~1e-10, not machine epsilon.
        curve = build_theory_curve(P, [2, 17, 900])
        assert curve.M_at(17) == M_exact(P, 17)
        assert curve.dnn_at(900) == dnn_theory(P, 900)
        assert curve.c_exact == pytest.approx(c_exact(P, curve.d_values), rel=1e-9)
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


class TestTriangleProfile:
    POINTS = [(2, 0.25, 0.3), (3, 0.2, 0.5), (4, 0.6, 0.8), (5, 0.75, 1.0)]

    def test_starts_at_D(self):
        for m, A, D in self.POINTS:
            p = make_model_params(m, A, D)
            assert expected_triangles(p, m) == pytest.approx(D, rel=1e-15)

    def test_closed_form_matches_direct_sum(self):
        for m, A, D in self.POINTS:
            p = make_model_params(m, A, D)
            j = np.arange(m, 10**4, dtype=float)
            direct = D + D / m * np.cumsum(j / (p.A * j + p.B))
            d = np.arange(m + 1, 10**4 + 1)
            assert np.allclose(expected_triangles(p, d), direct, rtol=1e-12, atol=0)

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
        p = make_model_params(2, 0.2, 0.3)
        assert expected_sum_squares(p, 1) == pytest.approx(26.0, rel=1e-12)
        assert expected_sum_squares(p, 1000) == pytest.approx(26000.0, rel=1e-12)


class TestHypothesisPredictors:
    def test_supercritical_forms_agree_at_large_d(self):
        p = make_model_params(2, 0.6, 0.2)
        pre = dnn_hypothesis_supercritical(p, 10**5, 10**6, 2.0)
        asym = dnn_hypothesis_supercritical(p, 10**5, 10**6, 2.0, form="asymptotic")
        assert pre / asym == pytest.approx(1.0, rel=0.01)

    def test_supercritical_scalings(self):
        p = make_model_params(2, 0.6, 0.2)
        f = lambda d, n: dnn_hypothesis_supercritical(p, d, n, 1.0, form="asymptotic")
        assert f(4, 10**5 * 10) / f(4, 10**5) == pytest.approx(10 ** (2 * 0.6 - 1))
        assert f(40, 10**5) / f(4, 10**5) == pytest.approx(10 ** (1 / 0.6 - 2))

    def test_supercritical_gate(self):
        with pytest.raises(ValueError, match="A > 1/2"):
            dnn_hypothesis_supercritical(P, 3, 1000, 1.0)

    def test_critical_value_and_finite_d_factor(self):
        p = make_model_params(2, 0.5, 0.2)
        base = dnn_hypothesis_critical(p, 4, 10**4, 3.0, form="asymptotic")
        assert base == pytest.approx(3.0 / 6.0 * np.log(10**4), rel=1e-12)
        assert dnn_hypothesis_critical(p, 4, 10**4, 3.0) == pytest.approx(
            base * 1.5, rel=1e-12
        )
        flat = dnn_hypothesis_critical(p, np.array([2, 9]), 10**4, 3.0, form="asymptotic")
        assert flat.tolist() == [base, base]

    def test_critical_gate(self):
        with pytest.raises(ValueError, match="A = 1/2"):
            dnn_hypothesis_critical(P, 3, 1000, 1.0)

    def test_constant_must_be_positive(self):
        with pytest.raises(ValueError, match="C2"):
            dnn_hypothesis_critical(make_model_params(2, 0.5, 0.2), 3, 100, -1.0)


class TestOverlay:
    D = np.array([2, 3, 7, 40])

    def test_subcritical_is_the_exact_curve(self):
        # n and C play no part below A = 1/2.
        expect = build_theory_curve(P, self.D).dnn_exact
        assert dnn_overlay(P, self.D, 10**4, 5.0).tolist() == expect.tolist()
        assert dnn_overlay(P, np.array([7, 3]), 1, 1.0).tolist() == [expect[2], expect[1]]
        assert dnn_overlay(P, 7, 10**9, 2.0) == dnn_theory(P, 7)

    def test_critical_and_supercritical_predictors(self):
        crit = make_model_params(2, 0.5, 0.2)
        sup = make_model_params(2, 0.6, 0.2)
        for p, f in ((crit, dnn_hypothesis_critical), (sup, dnn_hypothesis_supercritical)):
            assert dnn_overlay(p, self.D, 10**4, 2.0).tolist() == f(p, self.D, 10**4, 2.0).tolist()
            assert dnn_overlay(p, 7, 10**4, 2.0) == f(p, 7, 10**4, 2.0)

    def test_scalar_and_array_agree(self):
        for A in (0.25, 0.5, 0.6):
            p = make_model_params(2, A, 0.2)
            arr = dnn_overlay(p, self.D, 5000, 1.5)
            assert [dnn_overlay(p, int(d), 5000, 1.5) for d in self.D] == arr.tolist()

    def test_degree_below_m_rejected(self):
        for A in (0.25, 0.5, 0.6):
            with pytest.raises(ValueError, match="degree must be >= m"):
                dnn_overlay(make_model_params(2, A, 0.2), 1, 100, 1.0)

    def test_empty_degree_list_rejected(self):
        # fig1a --check at a tiny n reached the curve with no degree and
        # ended in an IndexError traceback.
        for d in ([], np.array([], dtype=np.int64)):
            with pytest.raises(ValueError, match="no degrees"):
                build_theory_curve(P, d)
            with pytest.raises(ValueError, match="no degrees"):
                dnn_overlay(P, d, 100, 1.0)
