"""Acceptance gate: end-to-end quantitative checks with pinned tolerances.

Each test exercises a full pipeline (rate construction and inversion,
kernel transforms, oscillatory quadrature, spectral models, CLI reports)
against closed-form oracles or measured decay, with explicit runtime
budgets.  The two factor-2 stability gates (R*E(R) for the mollifier
rate, t*||f - f*phi|| for the tent kernel) read one-sided estimates as
two-sided ones, so each runs on a model that attains its rate by
derivation; the models that beat the rates stay pinned as failures of
that reading in ``tests/test_verify.py``.
"""

import math
import time

import numpy as np
import pytest

from ingham_rates import cli
from ingham_rates.kernels import (
    bump_kernel,
    fudge_kernel,
    numeric_fourier,
    tent_kernel,
)
from ingham_rates.quadrature import integrate_oscillatory
from ingham_rates.rate_functions import (
    VARIANTS,
    MonotoneFunction,
    make_bound,
    raw_bound_ck,
    raw_bound_smooth,
)
from ingham_rates.semigroup_lab import (
    Scenario,
    cluster_infinity,
    cluster_zero,
    mixed_cluster,
    orbit_norm,
    single_mode,
)
from ingham_rates.verify import (
    AdmissibilityError,
    check_asymptotic_regularity,
    check_mollifier_rate,
    check_parseval,
    compare_decay,
    fit_loglog,
)


def _bound_for(variant, growth=None, decay=None, c=None):
    kwargs = {"c": c}
    if variant.startswith(("infinity", "zero_infinity")):
        kwargs["growth"] = growth
    if variant.startswith("zero"):
        kwargs["decay"] = decay
    if variant.endswith("_ck"):
        kwargs["k"] = 1
    return make_bound(variant, **kwargs)


class TestRateExponents:
    def test_high_frequency_ck_power_slopes(self):
        # for polynomial growth (1+R)^alpha the k-times differentiable
        # bound decays like t^(-k/(alpha(k+1)+2)); the large c pushes the
        # grid into the asymptotic regime of the inversion
        start = time.monotonic()
        ts = np.geomspace(1e3, 1e6, 61)
        for alpha in (1.0, 2.0):
            growth = MonotoneFunction.power_growth(alpha)
            for k in (1, 2, 3):
                bound = make_bound("infinity_ck", growth=growth, c=1e4, k=k)
                slope, _ = fit_loglog(list(zip(ts, bound(ts))))
                expected = -k / (alpha * (k + 1) + 2.0)
                assert slope == pytest.approx(expected, abs=0.02), (alpha, k)
        assert time.monotonic() - start < 5.0

    def test_low_frequency_ck_power_slopes(self):
        # for polynomial blow-up r^(-alpha) at low frequencies the decay
        # exponent is -k/(alpha(k+1)+1); with c = 1 the additive 1/t term
        # stays at least two orders below the leading term on this grid
        start = time.monotonic()
        ts = np.geomspace(1e3, 1e6, 61)
        for alpha in (1.0, 2.0):
            decay = MonotoneFunction.power_decay(alpha)
            for k in (1, 2, 3):
                bound = make_bound("zero_ck", decay=decay, c=1.0, k=k)
                slope, _ = fit_loglog(list(zip(ts, bound(ts))))
                expected = -k / (alpha * (k + 1) + 1.0)
                assert slope == pytest.approx(expected, abs=0.02), (alpha, k)
        assert time.monotonic() - start < 5.0

    def test_log_corrected_rates_track_log_over_t(self):
        # smooth-data variants for alpha = 1 follow (log t)/t up to a
        # slowly varying factor: the ratio moves by at most 10% per decade
        start = time.monotonic()
        ts = np.geomspace(1e5, 1e6, 31)
        reference = np.log(ts) / ts
        growth = MonotoneFunction.power_growth(1.0)
        decay = MonotoneFunction.power_decay(1.0)
        for bound in (
            make_bound("infinity_smooth", growth=growth, c=0.45),
            make_bound("zero_smooth", decay=decay, c=0.9),
        ):
            ratio = bound(ts) / reference
            assert np.max(ratio) / np.min(ratio) <= 1.10
        assert time.monotonic() - start < 5.0

    def test_exponential_rates_collapse_to_reciprocal_log(self):
        # exponential growth/blow-up turns every variant into ~1/log t:
        # regressing log(bound) on log(log t) gives slope -1
        start = time.monotonic()
        ts = np.geomspace(1e100, 1e200, 41)
        growth = MonotoneFunction.exponential_growth(1.0)
        decay = MonotoneFunction.exponential_decay(1.0)
        for variant in VARIANTS:
            bound = _bound_for(variant, growth=growth, decay=decay)
            rows = list(zip(np.log(ts), bound(ts)))
            slope, _ = fit_loglog(rows)
            assert slope == pytest.approx(-1.0, abs=0.05), variant
        assert time.monotonic() - start < 5.0


class TestKernelChecks:
    def test_closed_form_transforms_match_quadrature(self):
        start = time.monotonic()
        for kernel in (tent_kernel(), fudge_kernel()):
            for s in (0.0, 0.25, 0.5, 0.75, 1.0, 2.0):
                numeric = numeric_fourier(kernel, s)
                closed = kernel.freq(s)
                assert numeric == pytest.approx(closed, abs=1e-6), (
                    kernel.name, s)
        assert time.monotonic() - start < 10.0

    def test_tent_transform_plateau_and_shoulder_values(self):
        # plateau of height 1 up to 1/2, linear shoulder down to 0 at 1:
        # the shoulder midpoint 0.75 sits at exactly 1/2
        kernel = tent_kernel()
        assert kernel.freq(0.0) == 1.0
        assert kernel.freq(0.75) == 0.5
        assert kernel.freq(2.0) == 0.0

    def test_alternating_tail_bound_matrix(self):
        # |int_t^inf env(s) cos(alpha s) ds| <= (4/alpha) env(t) for
        # non-increasing envelopes: 3 envelopes x 4 frequencies x 3 starts
        start = time.monotonic()
        envelopes = (
            lambda s: s ** -2.0,
            lambda s: s ** -1.5,
            lambda s: np.exp(-s),
        )
        for env in envelopes:
            for alpha in (0.5, 1.0, 2.0, 10.0):
                for t in (0.1, 1.0, 10.0):
                    res = integrate_oscillatory(env, alpha, t)
                    assert res.converged, (alpha, t)
                    cap = (4.0 / alpha) * float(env(np.asarray(t)))
                    assert abs(res.value) <= cap + 1e-12, (alpha, t)
        assert time.monotonic() - start < 10.0

    def test_exponential_envelope_tail_value(self):
        # int_0^inf e^{-s} cos(s) ds = 1/2
        res = integrate_oscillatory(lambda s: np.exp(-s), 1.0, 0.0)
        assert res.converged
        assert res.value == pytest.approx(0.5, abs=1e-10)


class TestSpectralModels:
    def test_parseval_identity_residuals(self):
        start = time.monotonic()
        combos = (
            (Scenario(single_mode(-1.0), "vector"), 0.7),
            (Scenario(single_mode(-1.0 + 1.0j), "vector"), 2.0),
            (Scenario(cluster_zero(2.0, 4), "vector"), 1.3),
        )
        kernels = (tent_kernel(), fudge_kernel(), bump_kernel())
        for kernel in kernels:
            for scenario, t in combos:
                residual = check_parseval(scenario, kernel, t)
                assert residual <= 1e-6, (kernel.name, t)
        assert time.monotonic() - start < 30.0

    def test_mollifier_rate_constant_stability(self):
        # Gate: the first-order mollifier rate predicts R*E(R) settling to
        # a constant within a factor 2 across the dyadic sweep.  The rate
        # needs ||f'|| bounded: here f = T(.)A^-1 x has f' = T(.)x with
        # ||f'|| <= 1.  The mode lambda_n = -1/n + i n with n = R sits at
        # the edge of the support of psi(./R), so nearly all of its
        # amplitude 1/|lambda_n| ~ 1/R survives the convolution and R*E(R)
        # tends to 1 (0.68, 0.84, 0.92, 0.96 along the sweep).  Thirty-two
        # modes is the sweep's cap, one per R up to 32.
        start = time.monotonic()
        scenario = Scenario(cluster_infinity(1.0, 32), "ainv")
        report = check_mollifier_rate(scenario, tent_kernel(),
                                      r_list=(4.0, 8.0, 16.0, 32.0))
        assert time.monotonic() - start < 60.0
        assert report.constant_stability <= 2.0
        assert all(0.5 <= row[3] <= 2.0 for row in report.rows)

    def test_high_frequency_cluster_orbit_and_dominance(self):
        # eigenvalues -1/n + i n: the smoothed-orbit norm at t = 100 is
        # attained near mode n = 100 and equals e^-1/100; the measured
        # norm never gains on the smooth-data bound along the grid
        start = time.monotonic()
        scenario = Scenario(cluster_infinity(1.0, 10_000), "ainv")
        measured = orbit_norm(scenario, 100.0)
        assert measured == pytest.approx(math.exp(-1.0) / 100.0, rel=0.01)
        report = compare_decay(scenario, "infinity_smooth", c=0.45,
                               t_grid=np.geomspace(10.0, 1e3, 11))
        ratios = [row[3] for row in report.rows]
        assert all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))
        assert report.metadata["ratio_nonincreasing"]
        assert time.monotonic() - start < 60.0

    def test_low_frequency_cluster_slope_and_shape(self):
        # eigenvalues -1/n^2 + i/n: the orbit norm decays like t^(-1/2)
        # and the smooth-data bound follows sqrt(log t / t)
        start = time.monotonic()
        scenario = Scenario(cluster_zero(2.0, 1000), "ar_omega")
        t_grid = np.geomspace(10.0, 1e4, 31)
        report = compare_decay(scenario, "zero_smooth", c=0.9, t_grid=t_grid)
        assert report.passed, report.failures
        assert report.slopes["measured"][0] == pytest.approx(-0.5, abs=0.05)
        window = t_grid >= t_grid[-1] / 100.0
        shape_slope, _ = fit_loglog(
            [(t, math.sqrt(math.log(t) / t)) for t in t_grid[window]])
        assert report.slopes["bound"][0] == pytest.approx(
            shape_slope, abs=0.05)
        assert time.monotonic() - start < 60.0

    def test_mixed_cluster_three_term_dominance(self):
        # singularities at both ends of the imaginary axis: the measured
        # norm of the doubly-regularised orbit stays dominated by the
        # three-term combined bound across three decades
        start = time.monotonic()
        scenario = Scenario(mixed_cluster(1.0, 2.0, 2000, 1000),
                            "ar_omega_sq")
        report = compare_decay(scenario, "zero_infinity_smooth", c=0.45,
                               t_grid=np.geomspace(10.0, 1e4, 31))
        assert report.passed, report.failures
        assert math.isfinite(report.constant_stability)
        ratios = np.array([row[3] for row in report.rows])
        assert np.all(ratios > 0.0)
        assert np.max(ratios[-8:]) <= np.median(ratios[:8])
        assert time.monotonic() - start < 120.0


class TestRawBoundOracles:
    def test_raw_bounds_track_closed_forms(self):
        # the direct minimisation over the cutoff radius agrees with the
        # composed-inverse bounds within a factor 10 across two decades,
        # for polynomial and exponential growth alike
        start = time.monotonic()
        ts = np.geomspace(1e3, 1e5, 11)
        for growth in (MonotoneFunction.power_growth(1.0),
                       MonotoneFunction.exponential_growth(1.0)):
            ck_bound = make_bound("infinity_ck", growth=growth, c=1.0, k=2)
            smooth_bound = make_bound("infinity_smooth", growth=growth,
                                      c=0.45)
            for t in ts:
                raw, _ = raw_bound_ck(growth, 2, 1.0, float(t))
                assert 0.1 <= raw / ck_bound(float(t)) <= 10.0, (
                    growth.label, t)
                raw, _ = raw_bound_smooth(growth, 0.45, float(t))
                assert 0.1 <= raw / smooth_bound(float(t)) <= 10.0, (
                    growth.label, t)
        assert time.monotonic() - start < 30.0

    def test_flat_growth_raw_bound_closed_form(self):
        # with M identically 1 the minimisation is exact: 2 t^(-k/2)
        flat = MonotoneFunction.constant_growth(1.0)
        for k in (1, 2, 3):
            for t in (100.0, 1e3, 1e4):
                raw, _ = raw_bound_ck(flat, k, 1.0, t)
                assert raw == pytest.approx(2.0 * t ** (-k / 2.0), rel=1e-6)


class TestAsymptoticRegularity:
    def test_constant_stable_for_plateau_kernel(self):
        # Gate: t * ||f - f*phi|| stays within a factor 2 of a constant
        # over [10, 1e3] for the tent kernel.  The eigenvalue -delta + i/2
        # with delta = 1e-4 sits at the plateau edge s = 1/2.  While
        # delta*t <= 0.1, (1 - psi(s))/(is - lambda) jumps by 2 in modulus
        # there, and the jump sets the defect: ~ 2/(2 pi t), so
        # t * defect ~ 1/pi (0.29 at t = 10 up to 0.38 at t = 1e3).
        start = time.monotonic()
        scenario = Scenario(single_mode(-1e-4 + 0.5j), "vector")
        report = check_asymptotic_regularity(
            scenario, tent_kernel(), t_grid=np.geomspace(10.0, 1e3, 21),
            stability_limit=2.0)
        assert time.monotonic() - start < 120.0
        assert report.passed, report.failures
        assert all(0.5 <= math.pi * row[3] <= 2.0 for row in report.rows)

    def test_finite_for_compactly_supported_kernel(self):
        start = time.monotonic()
        scenario = Scenario(cluster_zero(2.0, 100), "vector")
        report = check_asymptotic_regularity(
            scenario, bump_kernel(), t_grid=np.geomspace(10.0, 1e3, 21))
        assert report.passed, report.failures
        assert math.isfinite(report.constant_stability)
        assert time.monotonic() - start < 120.0

    def test_rejects_kernel_without_plateau(self):
        scenario = Scenario(cluster_zero(2.0, 100), "vector")
        with pytest.raises(AdmissibilityError):
            check_asymptotic_regularity(scenario, fudge_kernel())


CLI_CONFIGS = {
    "bound": """
[growth]
family = constant
value = 1.0

[bound]
variant = infinity_ck
k = 2
""",
    "kernel": "[kernel]\nname = tent\n",
    "parseval": """
[scenario]
family = single_mode
lambda_re = -1.0

[kernel]
name = tent
""",
    "mollifier": """
[scenario]
family = single_mode
lambda_re = -1.0
lambda_im = 1.0

[kernel]
name = tent

[r_sweep]
values = 4,8
""",
    "regularity": """
[scenario]
family = cluster_zero
beta = 2.0
n_modes = 50

[kernel]
name = tent

[grid]
min = 10
max = 1e3
points = 9
spacing = log
""",
    "decay": """
[scenario]
family = cluster_infinity
alpha = 1.0
n_modes = 2000
orbit = ainv

[bound]
variant = infinity_smooth
c = 0.45

[grid]
min = 10
max = 1e3
points = 13
spacing = log
""",
    "oracle": """
[growth]
family = constant
value = 1.0

[bound]
variant = infinity_ck
k = 2
""",
}


class TestCliDeterminism:
    def test_every_experiment_is_byte_stable(self, tmp_path):
        # identical configs must reproduce identical CSV bytes for every
        # experiment; the timed repeat pass bounds the runner overhead
        first_bytes = {}
        codes = {}
        for command, text in CLI_CONFIGS.items():
            cfg_path = tmp_path / f"{command}.ini"
            cfg_path.write_text(text, encoding="utf-8")
            out = tmp_path / command
            codes[command] = cli.main([command, "--config", str(cfg_path),
                                       "--out", str(out)])
            assert codes[command] in (0, 1), command
            first_bytes[command] = (tmp_path / f"{command}.csv").read_bytes()
        start = time.monotonic()
        for command in CLI_CONFIGS:
            out = tmp_path / command
            rc = cli.main([command, "--config",
                           str(tmp_path / f"{command}.ini"),
                           "--out", str(out)])
            assert rc == codes[command]
            repeat = (tmp_path / f"{command}.csv").read_bytes()
            assert repeat == first_bytes[command], command
        assert time.monotonic() - start < 5.0
