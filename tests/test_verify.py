"""Tests for the verification experiments and their report mechanics."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ingham_rates.kernels import bump_kernel, fudge_kernel, tent_kernel
from ingham_rates.quadrature import QuadratureSpec, integrate
from ingham_rates.semigroup_lab import (
    Scenario,
    cluster_infinity,
    cluster_zero,
    mode_weights,
    single_mode,
)
from ingham_rates.verify import (
    AdmissibilityError,
    TruncationRangeError,
    _g_near,
    check_asymptotic_regularity,
    check_mollifier_rate,
    check_parseval,
    compare_decay,
    convolution_defect_profile,
    fit_loglog,
)

TENT = tent_kernel()
FUDGE = fudge_kernel()
BUMP = bump_kernel(1.0)


class TestParseval:
    @pytest.mark.parametrize("kernel", [TENT, FUDGE, BUMP],
                             ids=["tent", "fudge", "bump"])
    @pytest.mark.parametrize("lam,t", [(-1.0, 0.0), (-1.0 + 1j, 1.0),
                                       (-1.0 + 1j, 5.0)])
    def test_residual_matrix(self, kernel, lam, t):
        scenario = Scenario(single_mode(lam), "vector")
        assert check_parseval(scenario, kernel, t) <= 1e-6

    def test_scaled_kernel_identity(self):
        scenario = Scenario(single_mode(-1.0 + 1j), "vector")
        assert check_parseval(scenario, TENT, 1.0, scale=2.0) <= 1e-6

    def test_multi_mode_vector(self):
        scenario = Scenario(cluster_zero(2.0, 4), "vector")
        assert check_parseval(scenario, TENT, 2.0) <= 1e-6

    def test_large_scenarios_rejected(self):
        scenario = Scenario(cluster_infinity(1.0, 500), "vector")
        with pytest.raises(ValueError, match="few-mode"):
            check_parseval(scenario, TENT, 1.0)


def _quad_defect(lam, w, kernel, t, scale=1.0):
    """|f - f*phi_R|(t) for f = w e^{lam t}, with f*phi_R from quadrature
    of (1/2pi) int e^{ist} F(s) psi(s/R) ds, F(s) = w/(is - lam), over the
    compact support of psi(./R)."""
    spec = QuadratureSpec(oscillation_frequency=max(abs(t), 1.0))
    res = integrate(
        lambda s: np.exp(1j * s * t) * (w / (1j * s - lam)) * kernel.freq(s, scale),
        -scale, scale, spec)
    return abs(w * np.exp(lam * t) - res.value / (2.0 * math.pi))


# 1 - psi on the line as (lo, hi, ascending coefficients), outer pieces 1
_COMPLEMENTS = {
    "tent": [(-mp.inf, -1, [1]), (-1, -0.5, [-1, -2]), (-0.5, 0.5, [0]),
             (0.5, 1, [-1, 2]), (1, mp.inf, [1])],
    "fudge": [(-mp.inf, -1, [1]), (-1, 1, [0, 0, 1]), (1, mp.inf, [1])],
}


def _mpmath_defect(lam, t, kernel_name):
    """|(1/2pi) int e^{ist} (1 - psi(s)) / (is - lam) ds| at 30 digits.

    On each piece, p(s) / (is - lam) = -i q(s) + p(mu) / (is - lam) with
    mu = -i lam and q = (p(s) - p(mu)) / (s - mu).  The moments of
    e^{ist} are elementary and the last term has the primitive
    i e^{ist} e^z E1(z), z = t (lam - is), cut at s = Im lam; on the cut
    mpmath's e1 takes the side s < Im lam, so the piece [lo, hi) holding
    Im lam adds 2 pi e^{lam t} p(mu).
    """
    with mp.workdps(30):
        lam, t = mp.mpc(lam), mp.mpf(t)
        mu, it = -1j * lam, mp.mpc(0, t)
        total = mp.mpc(0)
        for lo, hi, coeffs in _COMPLEMENTS[kernel_name]:
            q, acc = [], mp.mpc(0)
            for c in reversed(coeffs[1:]):
                acc = acc * mu + c
                q.insert(0, acc)
            p_mu = mp.polyval(list(reversed(coeffs)), mu)

            def primitive(s):
                if mp.isinf(s):
                    return mp.mpc(0)
                s = mp.mpf(s)
                moments = sum(
                    qj * mp.exp(it * s) * sum(
                        (-1) ** m * mp.factorial(j) / mp.factorial(j - m)
                        * s ** (j - m) / it ** (m + 1) for m in range(j + 1))
                    for j, qj in enumerate(q))
                z = mp.mpc(t * lam.real, t * (lam.imag - s))
                return (-1j * moments
                        + p_mu * 1j * mp.exp(it * s) * mp.exp(z) * mp.e1(z))

            total += primitive(hi) - primitive(lo)
            if lo <= lam.imag < hi:
                total += 2 * mp.pi * mp.exp(lam * t) * p_mu
        return float(abs(total) / (2 * mp.pi))


def _mpmath_g(x):
    """e^x E1(x) at 30 digits.  mpmath has no signed zero and takes the
    side Im x > 0 of the cut, so the side Im x = -0.0 comes from
    G(conj x) = conj G(x)."""
    if math.copysign(1.0, x.imag) < 0.0:
        return _mpmath_g(x.conjugate()).conjugate()
    with mp.workdps(30):
        z = mp.mpc(x.real, x.imag)
        return complex(mp.exp(z) * mp.e1(z))


def _g_near_points():
    """Points with Re x <= 0 and |x| < 40 on both sides of the cut, at
    |x| -> 0 and -> 40, on both sides of |Im x| = 4 + |Re x|/2 and on both
    sides of every depth-band edge of the continued fraction."""
    radii = np.geomspace(1e-12, 39.999, 30)
    cut = -radii + 0j
    turns = -np.exp(1j * np.linspace(-0.5 * np.pi, 0.5 * np.pi, 9))
    ends = np.outer([1e-12, 1e-6, 1e-2, 39.0, 39.999], turns)
    edges = np.array([12.0, 16.0, 24.0, 32.0])
    arc_radii = np.concatenate([[4.0, 5.0, 6.0, 8.0, 10.0, 14.0, 20.0, 28.0, 36.0, 39.999],
                                edges * (1.0 - 1e-9), edges * (1.0 + 1e-9)])
    # |Re x| = a on the arc solves a^2 + (4 + a/2)^2 = r^2; points on it
    # take the continued fraction, points just below it the series
    a = (np.sqrt(5.0 * arc_radii ** 2 - 64.0) - 4.0) / 2.5
    arc = np.concatenate([-a + 1j * (4.0 + 0.5 * a) * scale for scale in (1.0, 1.0 - 1e-9)])
    return np.concatenate([cut, cut.conj(), ends.ravel(), arc, arc.conj()])


class TestDefectEngine:
    def test_single_mode_matches_frequency_route(self):
        # independent route: f*phi(t) = (1/2pi) int e^{ist} F(s) psi(s) ds
        # with F(s) = w/(is - lam), integrated over the compact support
        lam, w, t = -0.3 + 2.0j, 1.0, 6.0
        direct = _quad_defect(lam, w, TENT, t)
        profile, _ = convolution_defect_profile(
            np.array([lam]), np.array([w + 0j]), TENT, np.array([t]))
        assert profile[0] == pytest.approx(direct, rel=1e-7)

    def test_heavily_damped_mode_matches_mpmath(self):
        # |Re lam| t = 1000: the mode's orbit is negligible, but its defect
        # is the phi-tail spread of its mass, O(phi(t)/|lam|)
        profile, _ = convolution_defect_profile(
            np.array([-100.0 + 1j]), np.array([1.0 + 0j]), TENT,
            np.array([10.0]))
        assert profile[0] == pytest.approx(7.165064028985e-5, rel=1e-9)

    @pytest.mark.parametrize("kernel", [TENT, FUDGE], ids=["tent", "fudge"])
    @settings(max_examples=60, deadline=None)
    @given(sigma=st.floats(min_value=-5.0, max_value=2.0).map(lambda e: 10.0 ** e),
           omega=st.one_of(st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0]),
                           st.floats(min_value=-3.0, max_value=3.0)),
           t=st.floats(min_value=-1.0, max_value=4.0).map(lambda e: 10.0 ** e))
    def test_closed_form_matches_mpmath(self, kernel, sigma, omega, t):
        lam = complex(-sigma, omega)
        profile, _ = convolution_defect_profile(
            np.array([lam]), np.array([1.0 + 0j]), kernel, np.array([t]))
        assert profile[0] == pytest.approx(
            _mpmath_defect(lam, t, kernel.name), rel=1e-9)

    def test_g_near_matches_mpmath(self):
        x = _g_near_points()
        ref = np.array([_mpmath_g(v) for v in x])
        rel = np.abs(_g_near(x) - ref) / np.abs(ref)
        assert rel.max() <= 1e-13, x[rel.argmax()]
        # the continued fraction's depth bands are meant for about 1e-15:
        # one band cut to the next row's depth still stays below 1e-13
        frac = np.abs(x.imag) >= 4.0 + 0.5 * np.abs(x.real)
        assert rel[frac].max() <= 5e-15, x[frac][rel[frac].argmax()]

    def test_argmax_points_at_dominant_mode(self):
        lams = np.array([-5.0 + 1j, -0.1 + 3j])
        ws = np.array([1.0 + 0j, 1.0 + 0j])
        profile, argmax = convolution_defect_profile(
            lams, ws, TENT, np.array([20.0]))
        assert argmax[0] == 1
        assert profile[0] > 0.0


class TestMollifierRate:
    def test_rows_and_stability_bookkeeping(self):
        scenario = Scenario(single_mode(-1.0 + 1j), "vector")
        report = check_mollifier_rate(scenario, TENT, r_list=(4.0, 8.0, 16.0),
                                      t_max=10.0, points=19)
        assert len(report.rows) == 3
        for (R, E, ref, RE), r_expected in zip(report.rows, (4.0, 8.0, 16.0)):
            assert R == r_expected
            assert ref == pytest.approx(1.0 / R)
            assert RE == pytest.approx(R * E, rel=1e-12)
        # E(R) decreases with R for this analytic orbit
        errors = [row[1] for row in report.rows]
        assert errors[0] > errors[1] > errors[2]

    def test_analytic_orbit_converges_faster_than_reciprocal(self):
        # the smooth single-mode orbit is approximated at a rate better
        # than 1/R, so R*E(R) drifts and the factor-2 stability check
        # honestly fails and is recorded as such
        scenario = Scenario(single_mode(-1.0 + 1j), "vector")
        report = check_mollifier_rate(scenario, TENT)
        assert report.constant_stability > 2.0
        assert not report.passed
        assert any("stability" in f for f in report.failures)

    def test_fudge_kernel_matches_frequency_route(self):
        scenario = Scenario(single_mode(-1.0 + 1j), "vector")
        lam = complex(scenario.operator.eigenvalues[0])
        w = complex(mode_weights(scenario)[0])
        report = check_mollifier_rate(scenario, FUDGE, r_list=(4.0, 8.0),
                                      t_max=5.0, points=9)
        for R, E, _, _ in report.rows:
            direct = max(_quad_defect(lam, w, FUDGE, t, R)
                         for t in np.linspace(1.0, 5.0, 9))
            assert E == pytest.approx(direct, rel=1e-7)

    def test_zero_vector_gives_zero_error(self):
        op = single_mode(-1.0 + 1j)
        scenario = Scenario(op, "vector", x=np.zeros(1))
        report = check_mollifier_rate(scenario, TENT, r_list=(4.0, 8.0),
                                      t_max=5.0, points=9)
        assert all(row[1] == 0.0 for row in report.rows)
        assert report.passed
        assert report.constant_stability == pytest.approx(1.0)


class TestAsymptoticRegularity:
    def test_kernel_without_plateau_is_rejected(self):
        scenario = Scenario(cluster_zero(2.0, 50), "vector")
        with pytest.raises(AdmissibilityError, match="identically 1 near 0"):
            check_asymptotic_regularity(scenario, FUDGE)
        with pytest.raises(AdmissibilityError):
            check_asymptotic_regularity(scenario, TENT, second_kernel=FUDGE)

    def test_high_frequency_scenarios_are_rejected(self):
        scenario = Scenario(cluster_infinity(1.0, 50), "vector")
        with pytest.raises(ValueError, match=r"Im lambda"):
            check_asymptotic_regularity(scenario, TENT)

    def test_profile_rows_and_second_kernel(self):
        scenario = Scenario(cluster_zero(2.0, 100), "vector")
        t_grid = np.geomspace(10.0, 1e3, 21)
        report = check_asymptotic_regularity(scenario, TENT, t_grid=t_grid,
                                             second_kernel=BUMP)
        assert len(report.rows) == 21
        for (t, defect, ref, product), t_expected in zip(report.rows, t_grid):
            assert t == pytest.approx(t_expected)
            assert ref == pytest.approx(1.0 / t)
            assert product == pytest.approx(t * defect, rel=1e-12)
        assert report.passed  # all values finite
        assert np.isfinite(report.constant_stability)
        assert report.metadata["second_finite"]
        assert np.isfinite(report.metadata["second_stability"])

    def test_stability_limit_is_enforced_honestly(self):
        # every mode of this model is damped well away from the plateau
        # edge, so the defect falls faster than C/t (fitted slope -2.07)
        # and a factor-2 gate records a failure: t * defect varies by a
        # factor of about 120 over [10, 1e3].  Every mode is evaluated,
        # however damped; at t = 1e3 the sup comes from mode 3, whose
        # |Re lambda| t is about 111.
        scenario = Scenario(cluster_zero(2.0, 100), "vector")
        report = check_asymptotic_regularity(
            scenario, TENT, t_grid=np.geomspace(10.0, 1e3, 21),
            stability_limit=2.0)
        assert report.constant_stability > 2.0
        assert not report.passed


class TestCompareDecay:
    def test_high_frequency_cluster_smooth_bound(self):
        scenario = Scenario(cluster_infinity(1.0, 2000), "ainv")
        report = compare_decay(scenario, "infinity_smooth", c=0.45,
                               t_grid=np.geomspace(10.0, 1e3, 41))
        assert report.passed
        assert report.slopes["measured"][0] == pytest.approx(-1.0, abs=0.05)
        ratios = [row[3] for row in report.rows]
        assert max(ratios[-10:]) <= np.median(ratios[:10]) * (1 + 1e-9)

    def test_zero_cluster_smooth_bound(self):
        scenario = Scenario(cluster_zero(2.0, 1000), "ar_omega")
        report = compare_decay(scenario, "zero_smooth", c=0.9,
                               t_grid=np.geomspace(10.0, 1e3, 41))
        assert report.passed
        assert report.slopes["measured"][0] == pytest.approx(-0.5, abs=0.05)

    def test_single_mode_ratio_collapses(self):
        scenario = Scenario(single_mode(-1.0), "ainv")
        report = compare_decay(scenario, "infinity_smooth", c=0.45,
                               t_grid=np.geomspace(2.0, 200.0, 41))
        assert report.passed
        ratios = [row[3] for row in report.rows]
        assert ratios[-1] < 1e-20 * ratios[0]

    def test_finite_smoothness_variant_accepts_k(self):
        scenario = Scenario(cluster_zero(2.0, 500), "ar_omega")
        report = compare_decay(scenario, "zero_ck", k=1,
                               t_grid=np.geomspace(10.0, 1e3, 41))
        assert report.rows
        assert report.metadata["variant"] == "zero_ck"

    def test_grid_below_validity_threshold_rejected(self):
        scenario = Scenario(cluster_infinity(1.0, 2000), "ainv")
        with pytest.raises(ValueError, match="validity threshold"):
            compare_decay(scenario, "infinity_smooth", c=0.45,
                          t_grid=np.geomspace(1e-3, 10.0, 41))

    def test_grid_must_span_two_decades(self):
        scenario = Scenario(cluster_infinity(1.0, 2000), "ainv")
        with pytest.raises(ValueError, match="decades"):
            compare_decay(scenario, "infinity_smooth", c=0.45,
                          t_grid=np.geomspace(10.0, 40.0, 21))

    def test_truncated_family_maximiser_rejected(self):
        # at t = 10^3 the maximising mode of a 20-mode family sits at the
        # truncation edge, which would bias the fitted slope
        scenario = Scenario(cluster_infinity(1.0, 20), "ainv")
        with pytest.raises(TruncationRangeError):
            compare_decay(scenario, "infinity_smooth", c=0.45,
                          t_grid=np.geomspace(10.0, 1e3, 41))


class TestFitLoglog:
    def test_exact_power_law(self):
        t = np.geomspace(1.0, 1e3, 20)
        slope, half_width = fit_loglog(list(zip(t, t ** -1.0)))
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert half_width <= 1e-12

    def test_logarithmic_correction(self):
        t = np.geomspace(1e3, 1e6, 30)
        slope, _ = fit_loglog(list(zip(t, np.log(t) / t)))
        assert -1.0 < slope < -0.9

    def test_constant_rows(self):
        t = np.geomspace(1.0, 100.0, 10)
        slope, half_width = fit_loglog(list(zip(t, np.full(10, 3.0))))
        assert slope == pytest.approx(0.0, abs=1e-14)

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="5"):
            fit_loglog([(1.0, 1.0), (2.0, 0.5), (4.0, 0.25), (8.0, 0.125)])

    def test_nonpositive_values_rejected(self):
        t = np.geomspace(1.0, 100.0, 10)
        vals = t ** -1.0
        vals[3] = 0.0
        with pytest.raises(ValueError, match="positive"):
            fit_loglog(list(zip(t, vals)))
