"""Recurrence integrator: conservation laws, the exact W recurrence,
convergence to the closed forms, and argument gates."""

import numpy as np
import pytest
from scipy.special import gammaln

from panet.oracle import compare_closed_form, integrate_S
from panet.params import make_model_params
from panet.theory import c_exact, dnn_theory, expected_W

P = make_model_params(2, 0.25, 0.3)


class TestSeedState:
    def test_checkpoint_at_seed(self):
        t = integrate_S(P, 3, d_max=10, record_at=[3])
        assert t.N[0][4] == 3  # doubled K3: three degree-4 vertices
        assert t.N[0].sum() == 3

    def test_d_max_must_hold_seed(self):
        with pytest.raises(ValueError, match="2m"):
            integrate_S(P, 100, d_max=3)

    def test_checkpoints_validated(self):
        with pytest.raises(ValueError, match="checkpoints"):
            integrate_S(P, 100, d_max=10, record_at=[200])
        # An empty list once ended in an IndexError, and 3.5 was read as 3.
        with pytest.raises(ValueError, match=r"sizes must name at least one size and none twice, got \[\]"):
            integrate_S(P, 100, d_max=10, record_at=[])
        with pytest.raises(ValueError, match="size n must be an integer >= 3, got 3.5"):
            integrate_S(P, 100, d_max=10, record_at=[3.5, 50])

    def test_sizes_by_the_params_rule(self):
        # n_end = 100.5 was once blamed on "checkpoints".
        with pytest.raises(ValueError, match=r"^size n must be an integer >= 3, got 100.5$"):
            integrate_S(P, 100.5, d_max=10)
        with pytest.raises(ValueError, match=r"^size n must be an integer >= 3, got 2$"):
            integrate_S(P, 2, d_max=10)
        t = integrate_S(P, 100.0, d_max=10, record_at=[50.0, 100])
        ref = integrate_S(P, 100, d_max=10, record_at=[50, 100])
        assert t.n_values.dtype == np.int64 and t.n_values.tolist() == [50, 100]
        assert (t.S == ref.S).all() and (t.W == ref.W).all()

    def test_repeated_checkpoint_rejected(self):
        # [100, 100, 200] once returned two checkpoints for the three asked.
        with pytest.raises(ValueError, match=r"^sizes must name at least one size and none twice, got \[100, 100, 200\]$"):
            integrate_S(P, 200, d_max=10, record_at=[100, 100, 200])


class TestIntegrateN:
    """The N half of integrate_S."""

    def test_conservation(self):
        t = integrate_S(P, 5000, d_max=200)
        n = t.n_values[-1]
        assert t.N[-1].sum() == pytest.approx(n, rel=1e-9)
        d = np.arange(201)
        assert (d * t.N[-1]).sum() == pytest.approx(2 * P.m * n, rel=1e-9)

    def test_converges_to_degree_coefficients(self):
        t = integrate_S(P, 20_000, d_max=300)
        n = t.n_values[-1]
        for d in range(2, 11):
            assert t.N[-1][d] / n == pytest.approx(c_exact(P, d), rel=5e-3)

    def test_supercritical_N_allowed(self):
        t = integrate_S(make_model_params(2, 0.6, 0.2), 2000, d_max=100)
        assert np.all(np.isfinite(t.N[-1])) and np.all(np.isfinite(t.S[-1]))

    def test_A_equal_one_rejected(self):
        with pytest.raises(ValueError, match="A < 1"):
            integrate_S(make_model_params(2, 1.0, 0.0), 100, d_max=10)


class TestExactW:
    """W_n is iterated by its exact recurrence, with no pole at A = 1/2."""

    @pytest.mark.parametrize("A", [0.25, 0.5, 0.6, 0.8])
    def test_mass_and_sum_squares_conserved(self, A):
        # d_max = n_end holds all the mass; at A = 0.8 the d = m row of S
        # has a stay factor above 1, which a clamp at 1 would break.
        pts = [3, 50, 500, 2000]
        t = integrate_S(make_model_params(2, A, 0.2), 2000, 2000, record_at=pts)
        assert t.N.sum(axis=1) == pytest.approx(pts, rel=1e-12)
        assert t.S.sum(axis=1) == pytest.approx(t.W, rel=1e-12)

    @pytest.mark.parametrize("A", [0.25, 0.5, 0.6, 0.8])
    def test_W_matches_gamma_closed_form(self, A):
        # theory.expected_W solves the recurrence the oracle iterates.  Away
        # from A = 1/2 both also match the independent gamma form
        # E W_n = w n + (W_n0 - w n0) G(n+2A)G(n0)/(G(n)G(n0+2A)),
        # w = m(m+4B+1)/(1-2A), from the seed W_n0 = (m+1)(2m)^2, which
        # loses about 5e-10 to log-gamma cancellation by n = 1e5.
        p = make_model_params(2, A, 0.2)
        n = np.array([3, 100, 5000, 10**5])
        t = integrate_S(p, 10**5, 2 * p.m, record_at=n)
        assert t.W == pytest.approx([expected_W(p, int(k)) for k in n], rel=1e-9)
        if A != 0.5:
            m, n0 = p.m, p.m + 1
            w = m * (m + 4 * p.B + 1) / (1 - 2 * A)
            growth = np.exp(gammaln(n + 2 * A) + gammaln(n0) - gammaln(n) - gammaln(n0 + 2 * A))
            closed = w * n + ((m + 1) * (2 * m) ** 2 - w * n0) * growth
            assert t.W[:3] == pytest.approx(closed[:3], rel=1e-10)
            assert t.W[3] == pytest.approx(closed[3], rel=1e-9)

    def test_closed_form_comparison_needs_subcritical(self):
        t = integrate_S(make_model_params(2, 0.6, 0.2), 100, d_max=10)
        with pytest.raises(ValueError, match="A < 1/2"):
            compare_closed_form(t)


class TestIntegrateS:
    def test_dnn_converges_to_theory(self):
        t = integrate_S(P, 20_000, d_max=300)
        rep = compare_closed_form(t)
        for d in range(2, 11):
            assert rep[d]["rel_err_S"] < 0.01
        # The integrated dnn matches the closed-form curve too.
        d = 3
        dnn = t.S[-1][d] / (t.N[-1][d] * d)
        assert dnn == pytest.approx(dnn_theory(P, d), rel=0.01)

    def test_gap_shrinks_with_n(self):
        t = integrate_S(P, 10_000, d_max=200, record_at=[1000, 10_000])
        errs = []
        for i in range(2):
            n = t.n_values[i]
            errs.append(abs(t.S[i][3] / n - 4.398545) / 4.398545)
        assert errs[1] < errs[0]

    def test_compare_requires_matching_params(self):
        from panet.theory import build_theory_curve

        t = integrate_S(P, 500, d_max=50)
        other = build_theory_curve(make_model_params(2, 0.2, 0.3), np.arange(2, 51))
        with pytest.raises(ValueError, match="different parameters"):
            compare_closed_form(t, curve=other)
