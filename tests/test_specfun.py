import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from chirpfield import reference, specfun

SQRT_PI = math.sqrt(math.pi)


class TestGaussHermite:
    def test_one_point_rule(self):
        rule = specfun.gauss_hermite(1)
        assert rule.nodes == pytest.approx([0.0], abs=1e-14)
        assert rule.weights == pytest.approx([SQRT_PI], abs=1e-13)

    def test_two_point_rule(self):
        rule = specfun.gauss_hermite(2)
        assert rule.nodes == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)], abs=1e-13)
        assert rule.weights == pytest.approx([SQRT_PI / 2, SQRT_PI / 2], abs=1e-13)

    def test_order_70_weight_sum_and_quartic(self):
        rule = specfun.gauss_hermite(70)
        assert abs(rule.weights.sum() - SQRT_PI) < 1e-10
        # independent oracle: adaptive quadrature of the quartic integrand
        oracle, _ = integrate.quad(lambda x: x**4 * math.exp(-x * x), -np.inf, np.inf)
        assert (rule.weights * rule.nodes**4).sum() == pytest.approx(oracle, rel=1e-12)
        assert oracle == pytest.approx(3 * SQRT_PI / 4, rel=1e-12)

    @pytest.mark.parametrize("order", range(1, 11))
    def test_polynomial_exactness(self, order):
        # moments of exp(-x^2): 0 for odd k, Gamma((k+1)/2) for even k
        rule = specfun.gauss_hermite(order)
        for k in range(2 * order):
            exact = 0.0 if k % 2 else float(specfun.gamma_fn((k + 1) / 2))
            # 1e-9 absolute, loosened to float precision for huge moments
            tol = max(1e-9, 1e-13 * abs(exact))
            assert abs((rule.weights * rule.nodes**k).sum() - exact) < tol

    def test_nodes_increasing_and_symmetric(self):
        rule = specfun.gauss_hermite(31)
        assert np.all(np.diff(rule.nodes) > 0)
        assert rule.nodes == pytest.approx(-rule.nodes[::-1], abs=1e-12)
        assert np.all(rule.weights > 0)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            specfun.gauss_hermite(0)

    def test_rules_are_cached_and_frozen(self):
        rule = specfun.gauss_hermite(16)
        assert rule is specfun.gauss_hermite(16)
        with pytest.raises(ValueError):
            rule.nodes[0] = 1.0


class TestQFunctions:
    def test_exact_at_zero_and_tail(self):
        assert float(specfun.q_exact(0.0)) == pytest.approx(0.5, abs=1e-15)
        assert float(specfun.q_exact(40.0)) == pytest.approx(0.0, abs=1e-300)

    def test_exact_at_one_vs_mpmath(self):
        oracle = float(mpmath.ncdf(-1))
        assert float(specfun.q_exact(1.0)) == pytest.approx(oracle, rel=1e-12)
        assert float(specfun.q_exact(1.0)) == pytest.approx(0.158655, abs=5e-7)

    def test_exact_vs_mpmath_across_both_ndtr_branches(self):
        # ndtr switches from erf to erfc at |x| = 1/sqrt(2); far in the tail
        # the relative error grows like x^2 * eps from rounding x itself
        x = np.linspace(-8.0, 37.0, 181)
        oracle = np.array([float(mpmath.ncdf(-mpmath.mpf(float(v)))) for v in x])
        assert np.allclose(specfun.q_exact(x), oracle, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("q", [specfun.q_exact, specfun.q_approx])
    def test_out_overwrites_the_argument_with_the_same_values(self, q):
        x = np.linspace(-10.0, 10.0, 41)
        buffer = x.copy()
        assert q(buffer, out=buffer) is buffer
        assert np.array_equal(buffer, q(x))

    def test_approx_at_zero_is_exactly_one_third(self):
        assert float(specfun.q_approx(0.0)) == 1.0 / 12.0 + 0.25

    def test_approx_formula_at_two(self):
        expected = math.exp(-2.0) / 12.0 + math.exp(-8.0 / 3.0) / 4.0
        assert float(specfun.q_approx(2.0)) == pytest.approx(expected, rel=1e-15)

    def test_approx_relative_error_band(self):
        # frozen from the scan itself: the fit peaks at 26.2% relative error
        # near x = 1.86 and stays below 13% outside [1, 3]
        x = np.linspace(0.5, 4.0, 400)
        rel = np.abs(specfun.q_approx(x) - specfun.q_exact(x)) / specfun.q_exact(x)
        assert rel.max() <= 0.27
        outside = (x <= 1.0) | (x >= 3.0)
        assert rel[outside].max() <= 0.15

    def test_approx_nonnegative(self):
        x = np.linspace(-30.0, 30.0, 1001)
        assert np.all(specfun.q_approx(x) >= 0.0)


class TestHarmonic:
    def test_first_value(self):
        assert specfun.harmonic_approx(1) == pytest.approx(0.0 + 0.5 + 0.57722, abs=1e-12)

    def test_formula_at_126(self):
        expected = math.log(126) + 1 / 252 + 0.57722
        assert specfun.harmonic_approx(126) == pytest.approx(expected, rel=1e-15)

    def test_against_brute_force_sum(self):
        brute = sum(1.0 / k for k in range(1, 127))
        assert abs(specfun.harmonic_approx(126) - brute) / brute < 0.005

    def test_one_percent_band(self):
        counts = np.arange(1, 5001)
        partial = np.cumsum(1.0 / counts)
        for m in range(10, 5001, 7):
            assert abs(specfun.harmonic_approx(m) - partial[m - 1]) / partial[m - 1] < 0.01

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            specfun.harmonic_approx(0)


class TestCylinderFunction:
    def test_unit_order_at_zero(self):
        assert reference.pcf_d(1.0, 0.0) == pytest.approx(math.sqrt(math.pi / 2), rel=1e-12)

    def test_order_two_at_zero(self):
        assert reference.pcf_d(2.0, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_against_independent_quadrature(self):
        # second, structurally different scheme: quadrature on the raw
        # t-domain integrand split at its peak
        omega, z = 3.5, 1.2

        def raw(t):
            return t ** (omega - 1.0) * math.exp(-z * t - 0.5 * t * t)

        peak = 0.5 * (-z + math.sqrt(z * z + 4 * (omega - 1)))
        lo, _ = integrate.quad(raw, 0, peak, epsabs=1e-14, epsrel=1e-12)
        hi, _ = integrate.quad(raw, peak, np.inf, epsabs=1e-14, epsrel=1e-12)
        oracle = math.exp(-z * z / 4) / float(specfun.gamma_fn(omega)) * (lo + hi)
        assert reference.pcf_d(omega, z) == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize("z", [0.0, 0.5, 1.0, 2.0])
    def test_unit_order_identity(self, z):
        closed = math.exp(z * z / 4) * math.sqrt(math.pi / 2) * math.erfc(z / math.sqrt(2))
        assert reference.pcf_d(1.0, z) == pytest.approx(closed, rel=1e-8)

    @pytest.mark.parametrize("omega", [0.3, 2.0, 10.0, 50.0])
    @pytest.mark.parametrize("z", [-50.0, -5.0, 0.0, 5.0, 50.0])
    def test_against_mpmath_over_contract_range(self, omega, z):
        oracle = float(mpmath.log(mpmath.pcfd(-omega, z)))
        assert specfun.log_pcf_d(omega, z) == pytest.approx(oracle, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("omega,z", [(94.93, -2.47), (130.0, 4.0)])
    def test_log_form_for_large_orders(self, omega, z):
        oracle = float(mpmath.log(mpmath.pcfd(-omega, z)))
        assert specfun.log_pcf_d(omega, z) == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize(
        "omega,z",
        [(omega, z) for omega in (0.05, 1e3, 1e4) for z in (-5.0, 0.0, 5.0, 1e4, 1e6, 1e9)]
        # the old peak formula cancelled to log(0) at (2, 1e9)
        + [(2.0, 1e9), (0.05, -500.0)],
    )
    def test_against_mpmath_wide_orders_and_large_z(self, omega, z):
        with mpmath.workdps(50):
            log_d = mpmath.log(mpmath.pcfd(-omega, z))
            oracle = float(log_d)
            # z^2/4 + log D: what is left once the Gaussian factor cancels
            oracle_scaled = float(log_d + mpmath.mpf(z) ** 2 / 4)
        assert specfun.log_pcf_d(omega, z) == pytest.approx(oracle, rel=1e-10, abs=1e-10)
        assert specfun.log_pcf_d(omega, z, scaled=True) == pytest.approx(
            oracle_scaled, rel=1e-10, abs=1e-10
        )

    @settings(max_examples=200, deadline=None)
    @given(
        omega=st.floats(0.05, 1e4),
        z=st.floats(-500.0, 1e9),
        dz=st.floats(1e-6, 1e3),
    )
    def test_finite_and_non_increasing_in_z(self, omega, z, dz):
        # z^2/4 + log D_{-omega}(z) is the log of the mean of
        # t^(omega-1) exp(-z*t - t^2/2) over t > 0, so it falls as z grows.
        # D itself falls for z >= 0, where its derivative
        # -z/2 * D_{-omega} - omega * D_{-omega-1} is negative; for z < 0
        # and small omega it has a maximum.  Compared with a rounding
        # allowance.
        for scaled in (True, False):
            low = specfun.log_pcf_d(omega, z, scaled=scaled)
            high = specfun.log_pcf_d(omega, z + dz, scaled=scaled)
            assert math.isfinite(low) and math.isfinite(high)
            if scaled or z >= 0.0:
                assert high <= low + 1e-12 * max(1.0, abs(low))

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            reference.pcf_d(0.0, 1.0)
        with pytest.raises(ValueError):
            reference.pcf_d(-2.0, 1.0)

    def test_invalid_argument(self):
        with pytest.raises(ValueError):
            specfun.log_pcf_d(2.0, math.inf)
        with pytest.raises(ValueError):
            specfun.log_pcf_d(2.0, math.nan)

    def test_order_too_small_for_the_rule(self):
        with pytest.raises(specfun.NumericError):
            specfun.log_pcf_d(1e-6, 0.0)


class TestGammaFn:
    def test_known_values(self):
        assert float(specfun.gamma_fn(1.0)) == pytest.approx(1.0, rel=1e-14)
        assert float(specfun.gamma_fn(0.5)) == pytest.approx(SQRT_PI, rel=1e-14)
        assert float(specfun.gamma_fn(5.0)) == pytest.approx(24.0, rel=1e-13)

    def test_invalid_argument(self):
        with pytest.raises(ValueError):
            specfun.gamma_fn(0.0)
        with pytest.raises(ValueError):
            specfun.gamma_fn(-1.5)
