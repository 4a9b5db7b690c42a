"""Tests for the adaptive and oscillatory quadrature layer.

Reference values were computed independently with mpmath at 40 decimal
digits (``mp.quad`` on finite intervals, ``mp.quadosc`` cross-checked by
explicit half-period panel summation on oscillatory tails) and are frozen
here as literals.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ingham_rates.quadrature import QuadratureSpec, integrate, integrate_oscillatory

# mpmath mp.quad, dps=40, on the exact finite interval stated
GAUSS_COS2_0_5 = 0.32602466608761105169       # int_0^5 exp(-x^2) cos(2x) dx
LOG_KERNEL_1E12_1 = -0.91596559414858799394   # int_{1e-12}^1 log(x)/(1+x^2) dx
LORENTZ_M1_1 = 0.29422553486074691837         # int_{-1}^1 dx/(1+100x^2)
COMPLEX_0_4 = 0.06559085377236342734 + 0.36387723627494631398j
# mpmath quadosc, confirmed by panel summation to within the tail bound
OSC_SIN2_P15_FROM1 = 0.02272777028504895657   # int_1^inf sin(2u) u^{-3/2} du
OSC_COS3_P2_FROM2 = 0.04175881678201275989    # int_2^inf cos(3u) u^{-2} du


class TestFiniteInterval:
    def test_smooth_gaussian_oscillation(self):
        res = integrate(lambda x: np.exp(-x * x) * np.cos(2 * x), 0.0, 5.0)
        assert res.converged
        assert abs(res.value - GAUSS_COS2_0_5) <= max(res.error, 1e-13)

    def test_integrable_endpoint_blowup(self):
        res = integrate(lambda x: np.log(x) / (1 + x * x), 1e-12, 1.0)
        assert res.converged
        assert res.value == pytest.approx(LOG_KERNEL_1E12_1, abs=5e-9)

    def test_square_root_kink(self):
        res = integrate(np.sqrt, 0.0, 1.0)
        assert res.value == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_narrow_lorentzian(self):
        res = integrate(lambda x: 1 / (1 + 100 * x * x), -1.0, 1.0)
        assert res.value == pytest.approx(LORENTZ_M1_1, abs=1e-12)

    def test_complex_integrand_two_pass(self):
        res = integrate(lambda x: np.exp(1j * 3 * x) / (1 + x * x), 0.0, 4.0)
        assert isinstance(res.value, complex)
        assert abs(res.value - COMPLEX_0_4) <= 1e-12

    def test_error_claim_is_conservative(self):
        res = integrate(lambda x: np.exp(-x * x) * np.cos(2 * x), 0.0, 5.0)
        assert abs(res.value - GAUSS_COS2_0_5) <= res.error

    def test_reversed_endpoints_are_rejected(self):
        with pytest.raises(ValueError, match="lower endpoint"):
            integrate(np.sqrt, 1.0, 0.0)

    def test_oscillation_frequency_presplit(self):
        spec = QuadratureSpec(oscillation_frequency=40.0)
        res = integrate(lambda x: np.cos(40 * x), 0.0, math.pi, spec)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_tight_budget_reports_nonconvergence(self):
        spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=3)
        res = integrate(lambda x: np.abs(np.sin(20 * x)), 0.0, 10.0)
        tight = integrate(lambda x: np.abs(np.sin(20 * x)), 0.0, 10.0, spec)
        assert res.converged
        assert not tight.converged
        # the honest error bar still covers the truth
        assert abs(tight.value - res.value) <= tight.error


class TestOscillatoryTail:
    def test_cosine_tail_quadratic_envelope(self):
        res = integrate_oscillatory(lambda u: u ** -2.0, 3.0, 2.0)
        assert res.converged
        assert res.value == pytest.approx(OSC_COS3_P2_FROM2, abs=1e-11)

    def test_phase_shift_gives_sine(self):
        res = integrate_oscillatory(lambda u: u ** -1.5, 2.0, 1.0,
                                    phase=-math.pi / 2)
        assert res.value == pytest.approx(OSC_SIN2_P15_FROM1, abs=1e-11)

    def test_slowly_decaying_envelope_uses_averaging(self):
        # u^{-0.6} decays far too slowly for term-by-term truncation, so the
        # alternating series must be contracted by iterated averaging;
        # reference from mpmath quadosc at dps=40
        res = integrate_oscillatory(lambda u: u ** -0.6, 1.0, 1.0)
        assert res.converged
        assert res.value == pytest.approx(-0.5063935088525869443, abs=1e-12)

    @given(st.floats(min_value=1.0, max_value=6.0),
           st.floats(min_value=0.5, max_value=4.0))
    @settings(max_examples=20, deadline=None)
    def test_additivity_at_a_cosine_zero(self, alpha, t_from):
        # splitting the axis at the first cosine zero past t_from must not
        # change the total
        zero = (math.floor(alpha * t_from / math.pi) + 1.5) * math.pi / alpha
        whole = integrate_oscillatory(lambda u: u ** -2.0, alpha, t_from)
        head = integrate(lambda u: np.cos(alpha * u) / u ** 2, t_from, zero)
        tail = integrate_oscillatory(lambda u: u ** -2.0, alpha, zero)
        assert whole.value == pytest.approx(head.value + tail.value, abs=1e-9)


class TestProperties:
    @given(st.floats(min_value=-2.0, max_value=2.0),
           st.floats(min_value=0.1, max_value=3.0))
    @settings(max_examples=30, deadline=None)
    def test_interval_additivity(self, a, width):
        b = a + width
        mid = a + width / 2
        f = lambda x: np.exp(-x * x)
        whole = integrate(f, a, b)
        parts = integrate(f, a, mid).value + integrate(f, mid, b).value
        assert whole.value == pytest.approx(parts, abs=1e-11)

    @given(st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=25, deadline=None)
    def test_linearity_in_scalar(self, scale):
        f = lambda x: 1.0 / (1 + x * x)
        base = integrate(f, 0.0, 2.0).value
        scaled = integrate(lambda x: scale * f(x), 0.0, 2.0).value
        assert scaled == pytest.approx(scale * base, abs=1e-10)

    @given(st.floats(min_value=0.2, max_value=5.0))
    @settings(max_examples=25, deadline=None)
    def test_even_integrand_symmetry(self, half_width):
        f = lambda x: np.cos(x) * np.exp(-np.abs(x))
        total = integrate(f, -half_width, half_width).value
        half = integrate(f, 0.0, half_width).value
        assert total == pytest.approx(2 * half, abs=1e-10)
