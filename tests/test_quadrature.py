"""Tests for the adaptive and oscillatory quadrature layer.

Reference values were computed independently with mpmath at 40 decimal
digits (``mp.quad`` on finite intervals, ``mp.quadosc`` cross-checked by
explicit half-period panel summation on oscillatory tails) and are frozen
here as literals.
"""

import heapq
import math
from dataclasses import replace
from typing import Callable, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ingham_rates import kernels
from ingham_rates.kernels import fudge_kernel, numeric_fourier, tail_integral, tent_kernel
from ingham_rates.quadrature import (
    _GAUSS_IDX,
    _GL16_NODES,
    _GL16_WEIGHTS,
    _NODES,
    _TERM_TOL,
    _WEIGHTS_G,
    _WEIGHTS_K,
    EnvelopeError,
    NonConvergenceError,
    QuadratureSpec,
    QuadResult,
    _oscillatory_rows,
    integrate,
    integrate_oscillatory,
)

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


    def test_infinite_integrand_value_is_not_converged(self):
        # the midpoint of [0, 1] is a Kronrod node, so the first panel is inf
        res = integrate(lambda x: np.where(x == 0.5, np.inf, np.exp(x)), 0.0, 1.0)
        assert res.value == math.inf
        assert not res.converged

    def test_nan_panel_split_keeps_finite_totals(self):
        calls = []

        def f(x):
            calls.append(x.size)
            return np.where(x == 0.5, np.nan, np.exp(x))

        res = integrate(f, 0.0, 1.0)
        # the split halves miss x = 0.5 and converge at once
        assert len(calls) == 2
        assert res.converged
        assert res.value == pytest.approx(math.e - 1.0, rel=1e-14)


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


# -- the one-panel-per-call quadrature that the batched one reproduces ---------
#
# Verbatim copies of the per-panel adaptive Gauss-Kronrod routine and the
# one-row oscillatory tail that the array code replaced.  The array code
# must give bitwise the same value, error and flag.


def _reference_panel_estimate(f: Callable, a: float, b: float) -> tuple[float, float]:
    """Kronrod-15 value and |K15 - G7| error estimate on one panel."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    y = np.asarray(f(mid + half * _NODES), dtype=float)
    value = half * float(np.dot(_WEIGHTS_K, y))
    gauss = half * float(np.dot(_WEIGHTS_G, y[_GAUSS_IDX]))
    err = abs(value - gauss)
    if not math.isfinite(value):
        err = math.inf
    return value, err


def _reference_integrate_real(f: Callable, a: float, b: float, spec: QuadratureSpec) -> QuadResult:
    if spec.oscillation_frequency is not None:
        n0 = min(8192, max(1, math.ceil((b - a) * spec.oscillation_frequency / math.pi)))
    else:
        n0 = 1
    edges = np.linspace(a, b, n0 + 1)

    heap: list[tuple[float, int, float, float, float, float]] = []
    counter = 0
    total_value = 0.0
    total_error = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        v, e = _reference_panel_estimate(f, lo, hi)
        heapq.heappush(heap, (-e, counter, lo, hi, v, e))
        counter += 1
        total_value += v
        total_error += e

    splits = 0
    while splits < spec.max_subdivisions:
        if total_error <= max(spec.abs_tol, spec.rel_tol * abs(total_value)):
            break
        neg_e, _, lo, hi, v, e = heapq.heappop(heap)
        if e <= 0.0 or hi - lo <= 4.0 * np.spacing(max(abs(lo), abs(hi), 1.0)):
            # Panel cannot be improved; put it back and stop refining.
            heapq.heappush(heap, (neg_e, counter, lo, hi, v, e))
            counter += 1
            break
        mid = 0.5 * (lo + hi)
        v1, e1 = _reference_panel_estimate(f, lo, mid)
        v2, e2 = _reference_panel_estimate(f, mid, hi)
        total_value += (v1 + v2) - v
        total_error += (e1 + e2) - e
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, e1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, hi, v2, e2))
        counter += 1
        splits += 1

    # Re-assemble in deterministic interval order to avoid drift from the
    # incremental bookkeeping above.
    panels = sorted((item[2], item[4], item[5]) for item in heap)
    value = float(sum(p[1] for p in panels))
    error = float(sum(p[2] for p in panels))
    converged = error <= max(spec.abs_tol, spec.rel_tol * abs(value))
    return QuadResult(value, error, converged)


def _reference_integrate(f: Callable, a: float, b: float,
                         spec: Optional[QuadratureSpec] = None) -> QuadResult:
    if spec is None:
        spec = QuadratureSpec()
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration endpoints must be finite")
    if a > b:
        raise ValueError("lower endpoint must not exceed upper endpoint")
    if a == b:
        return QuadResult(0.0, 0.0, True)

    probe = np.asarray(f(np.array([0.5 * (a + b)])))
    if np.iscomplexobj(probe):
        re = _reference_integrate_real(lambda x: np.real(f(x)), a, b, spec)
        im = _reference_integrate_real(lambda x: np.imag(f(x)), a, b, spec)
        return QuadResult(
            complex(re.value, im.value),
            max(re.error, im.error),
            re.converged and im.converged,
        )
    return _reference_integrate_real(f, a, b, spec)


def _reference_half_period_terms(envelope, alpha, phase, start, count, offset):
    h = math.pi / alpha
    lows = start + h * (offset + np.arange(count))
    half = 0.5 * h
    mids = lows + half
    nodes = mids[:, None] + half * _GL16_NODES[None, :]
    flat = nodes.ravel()
    vals = (np.asarray(envelope(flat)) * np.cos(alpha * flat + phase)).reshape(count, 16)
    return half * vals @ _GL16_WEIGHTS


def _reference_averaged_tail(partials: np.ndarray) -> tuple[float, float]:
    work = partials.astype(float).copy()
    prev = work[0]
    while work.size > 1:
        prev = work[0]
        work = 0.5 * (work[:-1] + work[1:])
    return float(work[0]), abs(float(work[0]) - float(prev))


def _reference_integrate_oscillatory(envelope, alpha, t_from, *, phase=0.0, spec=None):
    if spec is None:
        spec = QuadratureSpec()
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if t_from < 0.0:
        raise ValueError("t_from must be non-negative")

    # First zero of cos(alpha*s + phase) strictly beyond t_from.
    m0 = math.floor((alpha * t_from + phase - 0.5 * math.pi) / math.pi) + 1
    s0 = (0.5 * math.pi + m0 * math.pi - phase) / alpha
    while s0 <= t_from:
        m0 += 1
        s0 = (0.5 * math.pi + m0 * math.pi - phase) / alpha

    head_spec = replace(spec, abs_tol=min(spec.abs_tol, 1e-12), oscillation_frequency=alpha)
    head = _reference_integrate(lambda s: np.asarray(envelope(s)) * np.cos(alpha * s + phase),
                                t_from, s0, head_spec)

    max_terms = 192
    batch = 64
    terms = np.empty(0)
    truncated = False
    while terms.size < max_terms:
        block = _reference_half_period_terms(envelope, alpha, phase, s0, batch, terms.size)
        terms = np.concatenate([terms, block])
        mags = np.abs(terms)
        if np.any(mags[1:] > mags[:-1] * (1.0 + 1e-9) + 1e-300):
            raise EnvelopeError(
                "half-period magnitudes increased; envelope must be positive and non-increasing"
            )
        if mags[-1] <= _TERM_TOL:
            truncated = True
            break

    if truncated:
        keep = int(np.argmax(np.abs(terms) <= _TERM_TOL)) + 1
        series = float(np.sum(terms[:keep]))
        series_err = float(np.abs(terms[keep - 1])) + 1e-15 * keep
    else:
        partials = np.cumsum(terms)
        series, avg_err = _reference_averaged_tail(partials[-batch:])
        series_err = avg_err + 1e-15 * terms.size

    value = head.value + series
    error = head.error + series_err
    converged = head.converged and error <= max(spec.abs_tol, spec.rel_tol * abs(value)) * 10.0
    return QuadResult(value, error, converged)


def _reference_component_tail(coef, trig, freq, power, t_from, spec):
    if freq == 0.0:
        if trig == "sin":
            return 0.0, 0.0
        return coef * t_from ** (1 - power) / (power - 1), 0.0
    phase = 0.0 if trig == "cos" else -0.5 * math.pi
    sign = 1.0
    if freq < 0.0:
        freq = -freq
        if trig == "sin":
            sign = -1.0
    res = _reference_integrate_oscillatory(lambda u: u ** (-float(power)), freq, t_from,
                                           phase=phase, spec=spec)
    if not res.converged:
        raise NonConvergenceError("oscillatory tail integration did not converge")
    return sign * coef * res.value, abs(coef) * res.error


def _reference_numeric_fourier(kernel, s, spec=None):
    if spec is None:
        spec = QuadratureSpec()
    s = float(s)
    if kernel._components:
        head = _reference_integrate(lambda t: kernel.time_eval(t) * np.cos(s * t), 0.0, 1.0, spec)
        if not head.converged:
            raise NonConvergenceError("head integration did not converge")
        total = head.value
        for coef, trig, freq, power in kernel._components:
            # trig(freq*t) * cos(s*t) splits into half-amplitude components
            # at the shifted frequencies freq + s and freq - s.
            for f_shift in (freq + s, freq - s):
                val, _ = _reference_component_tail(0.5 * coef, trig, f_shift, power, 1.0, spec)
                total += val
        return 2.0 * total
    osc = replace(spec, max_subdivisions=max(spec.max_subdivisions, 40000),
                  oscillation_frequency=max(abs(s), 1.0))
    res = _reference_integrate(lambda t: kernel.time_eval(t) * np.cos(s * t), 0.0,
                               kernel.time_cutoff, osc)
    if not res.converged:
        raise NonConvergenceError("transform integration did not converge")
    return 2.0 * res.value


def _reference_tail_integral(kernel, t, spec=None):
    """The closed-form branch of tail_integral, component by component."""
    total = 0.0
    for coef, trig, freq, power in kernel._components:
        val, _ = _reference_component_tail(coef, trig, freq, power, t, spec or QuadratureSpec())
        total += val
    return total


def _bits(result) -> tuple:
    """A QuadResult as bit patterns, so that NaN equals NaN and 0.0 is not -0.0."""
    value = complex(result.value)
    return (np.float64(value.real).tobytes(), np.float64(value.imag).tobytes(),
            np.float64(result.error).tobytes(), result.converged)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestIntegrateMatchesReference:
    CASES = {
        "real": (lambda x: np.exp(-x * x) * np.cos(2 * x), 0.0, 5.0, QuadratureSpec()),
        "complex": (lambda x: np.exp(1j * 3 * x) / (1 + x * x), 0.0, 4.0, QuadratureSpec()),
        "complex_presplit": (lambda x: np.exp(1j * 40 * x) * np.sqrt(x), 0.0, 3.0,
                             QuadratureSpec(oscillation_frequency=40.0)),
        # (b - a) * 1e5 / pi is far above the 8192-panel cap
        "presplit_cap": (lambda x: np.cos(1e5 * x) * np.exp(-x), 0.0, 1.0,
                         QuadratureSpec(oscillation_frequency=1e5)),
        "budget_exhausted": (lambda x: np.abs(np.sin(20 * x)), 0.0, 10.0,
                             QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=3)),
        "non_finite": (lambda x: np.where(np.abs(x - 0.3) < 0.01, np.nan,
                                          np.where(x > 0.7, np.inf, x)), 0.0, 1.0,
                       QuadratureSpec(max_subdivisions=40)),
        # two ulps wide at 0.3: the panel cannot be split
        "spacing_limit": (np.sqrt, 0.3, 0.3 + 2 * np.spacing(0.3),
                          QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300)),
        "kink": (np.sqrt, 0.0, 1.0, QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bitwise_equal(self, case):
        f, a, b, spec = self.CASES[case]
        assert _bits(integrate(f, a, b, spec)) == _bits(_reference_integrate(f, a, b, spec))

    def test_cases_reach_the_paths_they_name(self):
        f, a, b, spec = self.CASES["budget_exhausted"]
        assert not integrate(f, a, b, spec).converged
        f, a, b, spec = self.CASES["non_finite"]
        assert integrate(f, a, b, spec).error == math.inf
        f, a, b, spec = self.CASES["spacing_limit"]
        assert not integrate(f, a, b, spec).converged
        f, a, b, spec = self.CASES["complex"]
        assert isinstance(integrate(f, a, b, spec).value, complex)


def _counting(f, sizes):
    def counted(x):
        sizes.append(np.size(x))
        return f(x)
    return counted


class TestBatchedEvaluation:
    """The array code calls its integrands per pre-split and per block, not per panel."""

    @pytest.mark.parametrize("freq", [3.0, 40.0, 1e5])
    def test_presplit_panels_and_split_halves_share_calls(self, freq):
        f = lambda x: np.abs(np.sin(freq * x)) * np.exp(-x)
        spec = QuadratureSpec(oscillation_frequency=freq)
        n0 = min(8192, math.ceil(2.0 * freq / math.pi))
        sizes, ref_sizes = [], []
        integrate(_counting(f, sizes), 0.0, 2.0, spec)
        _reference_integrate(_counting(f, ref_sizes), 0.0, 2.0, spec)
        assert sizes[0] == 15 * n0 and set(sizes[1:]) <= {30}
        splits = len(sizes) - 1
        assert sum(ref_sizes) == 1 + 15 * n0 + 30 * splits
        assert len(ref_sizes) == 1 + n0 + 2 * splits

    def test_complex_integrand_is_evaluated_once_before_refinement(self):
        f = lambda x: np.exp(1j * 40 * x) * np.sqrt(x)
        sizes = []
        integrate(_counting(f, sizes), 0.0, 3.0, QuadratureSpec(oscillation_frequency=40.0))
        n0 = math.ceil(3.0 * 40.0 / math.pi)
        assert sizes[0] == 15 * n0 and set(sizes[1:]) <= {30}

    def test_grid_transform_calls_the_tail_envelope_once_per_block(self, monkeypatch):
        blocks = []

        def spy(envelope, alphas, phases, t_from, spec):
            def counted(u, rows):
                if u.shape[1] == 64 * 16:
                    blocks.append(u.shape[0])
                return envelope(u, rows)
            return _oscillatory_rows(counted, alphas, phases, t_from, spec)

        monkeypatch.setattr(kernels, "_oscillatory_rows", spy)
        s = np.linspace(0.0, 3.0, 33)
        numeric_fourier(tent_kernel(), s)
        # every (s, component, shift) row with a non-zero frequency sums
        # 192 terms: three blocks, each one call for all rows
        rows = sum(1 for sv in s for *_, freq, _p in tent_kernel()._components
                   for shift in (freq + sv, freq - sv) if shift != 0.0)
        assert blocks == [rows] * 3


class TestTailsMatchReference:
    @pytest.mark.parametrize("make", [tent_kernel, fudge_kernel], ids=["tent", "fudge"])
    @pytest.mark.parametrize("s_max", [2.0, 3.0])
    def test_grid_transform_bitwise(self, make, s_max):
        kernel = make()
        s = np.linspace(0.0, s_max, 33)
        grid = numeric_fourier(kernel, s)
        assert isinstance(grid, np.ndarray) and grid.shape == s.shape
        expected = [_reference_numeric_fourier(kernel, sv) for sv in s.tolist()]
        assert grid.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("make", [tent_kernel, fudge_kernel], ids=["tent", "fudge"])
    def test_scalar_transform_bitwise(self, make):
        kernel = make()
        for sv in (0.0, 0.5, 1.3, 2.75):
            value = numeric_fourier(kernel, sv)
            assert type(value) is float
            assert value == _reference_numeric_fourier(kernel, sv)

    @pytest.mark.parametrize("make", [tent_kernel, fudge_kernel], ids=["tent", "fudge"])
    def test_tail_integral_bitwise(self, make):
        kernel = make()
        for t in np.geomspace(1e-3, 1e4, 15).tolist():
            assert tail_integral(kernel, t) == _reference_tail_integral(kernel, t)

    def test_early_truncation_beside_averaging_rows(self):
        # row 1 decays like e^{-u} and truncates after one block; rows 0
        # and 2 decay like powers and average all 192 terms
        envelopes = [lambda u: u ** -2.0, lambda u: np.exp(-u), lambda u: u ** -1.5]
        alphas = np.array([3.0, 1.0, 2.0])
        phases = np.array([0.0, 0.3, -0.5 * math.pi])

        def envelope(u, rows):
            return np.stack([envelopes[r](row) for r, row in zip(rows.tolist(), u)])

        spec = QuadratureSpec()
        value, error, converged, failures = _oscillatory_rows(envelope, alphas, phases, 2.0, spec)
        assert failures == {}
        for i, env in enumerate(envelopes):
            ref = _reference_integrate_oscillatory(env, alphas[i], 2.0, phase=phases[i], spec=spec)
            assert _bits(QuadResult(value[i], error[i], bool(converged[i]))) == _bits(ref)
        sizes = []
        integrate_oscillatory(_counting(envelopes[1], sizes), 1.0, 2.0, phase=0.3)
        assert sizes.count(64 * 16) == 1

    def test_rising_row_fails_alone(self):
        envelope = lambda u, rows: np.where(rows[:, None] == 1, np.exp(u / 50.0), u ** -2.0)
        value, _, converged, failures = _oscillatory_rows(
            envelope, np.array([1.0, 1.0, 2.0]), np.zeros(3), 1.0, QuadratureSpec())
        assert list(failures) == [1] and isinstance(failures[1], EnvelopeError)
        assert math.isnan(value[1]) and not converged[1]
        ref = _reference_integrate_oscillatory(lambda u: u ** -2.0, 2.0, 1.0)
        assert value[2] == ref.value and converged[2] == ref.converged
        with pytest.raises(EnvelopeError):
            _reference_integrate_oscillatory(lambda u: np.exp(u / 50.0), 1.0, 1.0)
