"""Non-finite input to the public API is refused by the parameter's name.

Every float (or count) parameter of a public constructor, model builder,
bound or experiment entry point gets NaN or an infinity in turn, and must
raise a ``ValueError`` whose message names that parameter, before any
numpy warning (tier-1 turns ``RuntimeWarning`` into an error).  At the
evaluation points of a kernel an infinite argument is a limit, not an
error: ``time`` and ``freq`` refuse NaN by name and give 0 at infinity.
Evaluation points of rate functions are out of scope.  The report
builders of ``verify`` only format computed rows and are out of scope too.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ingham_rates import (
    ComposedRate,
    DiagonalOperator,
    MonotoneFunction,
    QuadratureSpec,
    Scenario,
    boundary_function,
    bump_kernel,
    check_asymptotic_regularity,
    check_mollifier_rate,
    check_parseval,
    cluster_infinity,
    cluster_zero,
    compare_decay,
    convolution_defect_profile,
    fit_loglog,
    fudge_kernel,
    integrate,
    integrate_oscillatory,
    invert_monotone,
    make_bound,
    mixed_cluster,
    numeric_fourier,
    orbit_argmax,
    orbit_norm,
    raw_bound_ck,
    raw_bound_smooth,
    resolvent_envelope_growth,
    resolvent_norm,
    single_mode,
    tail_integral,
    tent_kernel,
)

OP = cluster_infinity(1.0, 8)
SC = Scenario(OP, "vector")
DAMPED = Scenario(cluster_zero(2.0, 4), "vector")
TENT = tent_kernel()
GROWTH = MonotoneFunction.power_growth(1.0)
BOUND = make_bound("infinity_smooth", growth=GROWTH)
T = np.array([20.0, 40.0, 80.0])

# entry point -> (the parameter, a call with the value in its place)
CASES = {
    "QuadratureSpec.abs_tol": ("abs_tol", lambda v: QuadratureSpec(abs_tol=v)),
    "QuadratureSpec.rel_tol": ("rel_tol", lambda v: QuadratureSpec(rel_tol=v)),
    "QuadratureSpec.max_subdivisions":
        ("max_subdivisions", lambda v: QuadratureSpec(max_subdivisions=v)),
    "QuadratureSpec.oscillation_frequency":
        ("oscillation_frequency", lambda v: QuadratureSpec(oscillation_frequency=v)),
    "integrate.a": ("a", lambda v: integrate(np.exp, v, 1.0)),
    "integrate.b": ("b", lambda v: integrate(np.exp, 0.0, v)),
    "integrate_oscillatory.alpha":
        ("alpha", lambda v: integrate_oscillatory(lambda x: 1.0 / x**2, v, 1.0)),
    "integrate_oscillatory.t_from":
        ("t_from", lambda v: integrate_oscillatory(lambda x: 1.0 / x**2, 1.0, v)),
    "integrate_oscillatory.phase":
        ("phase", lambda v: integrate_oscillatory(lambda x: 1.0 / x**2, 1.0, 1.0, phase=v)),
    "power_growth.alpha": ("alpha", MonotoneFunction.power_growth),
    "exponential_growth.alpha": ("alpha", MonotoneFunction.exponential_growth),
    "constant_growth.value": ("value", MonotoneFunction.constant_growth),
    "power_decay.alpha": ("alpha", MonotoneFunction.power_decay),
    "exponential_decay.alpha": ("alpha", MonotoneFunction.exponential_decay),
    "constant_decay.value": ("value", MonotoneFunction.constant_decay),
    "tabulated_growth.knots":
        ("knots", lambda v: MonotoneFunction.tabulated_growth([0.0, 1.0, v], [1.0, 2.0, 3.0])),
    "tabulated_growth.values":
        ("values", lambda v: MonotoneFunction.tabulated_growth([0.0, 1.0, 2.0], [1.0, 2.0, v])),
    "tabulated_decay.knots":
        ("knots", lambda v: MonotoneFunction.tabulated_decay([0.25, 0.5, v], [3.0, 2.0, 1.0])),
    "tabulated_decay.values":
        ("values", lambda v: MonotoneFunction.tabulated_decay([0.25, 0.5, 1.0], [v, 2.0, 1.0])),
    "ComposedRate.k": ("k", lambda v: ComposedRate(GROWTH, v)),
    "invert_monotone.y": ("y", lambda v: invert_monotone(GROWTH, v)),
    "make_bound.c": ("c", lambda v: make_bound("infinity_smooth", growth=GROWTH, c=v)),
    "make_bound.k": ("k", lambda v: make_bound("infinity_ck", growth=GROWTH, k=v)),
    "RateBound.t": ("t", lambda v: BOUND(np.append(T, v))),
    "RateBound.evaluate.t": ("t", lambda v: BOUND.evaluate(np.append(T, v))),
    "raw_bound_ck.k": ("k", lambda v: raw_bound_ck(GROWTH, v, 0.45, T)),
    "raw_bound_ck.c": ("c", lambda v: raw_bound_ck(GROWTH, 1, v, T)),
    "raw_bound_ck.t": ("t", lambda v: raw_bound_ck(GROWTH, 1, 0.45, np.append(T, v))),
    "raw_bound_smooth.c": ("c", lambda v: raw_bound_smooth(GROWTH, v, T)),
    "raw_bound_smooth.t": ("t", lambda v: raw_bound_smooth(GROWTH, 0.45, np.append(T, v))),
    "Kernel.time.scale": ("scale", lambda v: TENT.time(1.0, scale=v)),
    "Kernel.freq.scale": ("scale", lambda v: TENT.freq(0.5, scale=v)),
    "numeric_fourier.s": ("s", lambda v: numeric_fourier(TENT, [0.5, v])),
    "tail_integral.t": ("t", lambda v: tail_integral(TENT, v)),
    "DiagonalOperator.eigenvalues":
        ("eigenvalues", lambda v: DiagonalOperator(np.array([-1.0 + 1j, complex(v, 1.0)]))),
    "single_mode.eigenvalue": ("eigenvalue", lambda v: single_mode(complex(-1.0, v))),
    "Scenario.omega": ("omega", lambda v: Scenario(OP, "vector", omega=v)),
    "Scenario.x": ("x", lambda v: Scenario(OP, "vector", x=np.append(np.ones(7), v))),
    "cluster_infinity.alpha": ("alpha", lambda v: cluster_infinity(v, 8)),
    "cluster_infinity.n_modes": ("n_modes", lambda v: cluster_infinity(1.0, v)),
    "cluster_zero.beta": ("beta", lambda v: cluster_zero(v, 8)),
    "cluster_zero.n_modes": ("n_modes", lambda v: cluster_zero(2.0, v)),
    "mixed_cluster.alpha": ("alpha", lambda v: mixed_cluster(v, 2.0, 4, 4)),
    "mixed_cluster.beta": ("beta", lambda v: mixed_cluster(1.0, v, 4, 4)),
    "mixed_cluster.n_infinity": ("n_infinity", lambda v: mixed_cluster(1.0, 2.0, v, 4)),
    "mixed_cluster.n_zero": ("n_zero", lambda v: mixed_cluster(1.0, 2.0, 4, v)),
    "orbit_norm.t": ("t", lambda v: orbit_norm(SC, np.append(T, v))),
    "orbit_argmax.t": ("t", lambda v: orbit_argmax(SC, v)),
    "resolvent_norm.s": ("s", lambda v: resolvent_norm(OP, v)),
    "boundary_function.s": ("s", lambda v: boundary_function(SC, v)),
    "boundary_function.derivative": ("derivative", lambda v: boundary_function(SC, 1.0, v)),
    "resolvent_envelope_growth.s_min":
        ("s_min", lambda v: resolvent_envelope_growth(OP, s_min=v)),
    "fit_loglog.pairs": ("pairs", lambda v: fit_loglog([(1, 1), (2, 2), (3, v), (4, 4), (5, 5)])),
    "convolution_defect_profile.eigenvalues": ("eigenvalues", lambda v: convolution_defect_profile(
        np.array([complex(v, 1.0)]), np.ones(1), TENT, T)),
    "convolution_defect_profile.weights": ("weights", lambda v: convolution_defect_profile(
        np.array([-1.0 + 1j]), np.array([v]), TENT, T)),
    "convolution_defect_profile.t_grid": ("t_grid", lambda v: convolution_defect_profile(
        np.array([-1.0 + 1j]), np.ones(1), TENT, np.append(T, v))),
    "check_parseval.t": ("t", lambda v: check_parseval(Scenario(single_mode(-1 + 1j), "vector"),
                                                       TENT, v)),
    "check_parseval.scale": ("scale", lambda v: check_parseval(
        Scenario(single_mode(-1 + 1j), "vector"), TENT, 1.0, scale=v)),
    "check_mollifier_rate.r_list": ("r_list", lambda v: check_mollifier_rate(SC, TENT, (4.0, v))),
    "check_mollifier_rate.t_max": ("t_max", lambda v: check_mollifier_rate(SC, TENT, t_max=v)),
    "check_mollifier_rate.points": ("points", lambda v: check_mollifier_rate(SC, TENT, points=v)),
    "check_asymptotic_regularity.t_grid": ("t_grid", lambda v: check_asymptotic_regularity(
        DAMPED, TENT, t_grid=np.append(T, v))),
    "check_asymptotic_regularity.stability_limit": ("stability_limit", lambda v:
        check_asymptotic_regularity(DAMPED, TENT, stability_limit=v)),
    "compare_decay.c": ("c", lambda v: compare_decay(SC, "infinity_smooth", c=v)),
    "compare_decay.k": ("k", lambda v: compare_decay(SC, "infinity_ck", k=v)),
    "compare_decay.t_grid": ("t_grid", lambda v: compare_decay(
        SC, "infinity_smooth", t_grid=np.append(T, v))),
}


@pytest.mark.parametrize("entry", CASES)
@settings(max_examples=10, deadline=None)
@given(value=st.sampled_from((math.nan, math.inf, -math.inf)))
def test_non_finite_input_is_refused_by_name(entry, value):
    parameter, call = CASES[entry]
    # the name as a word; "eigenvalue" may stand in its plural
    with pytest.raises(ValueError, match=rf"(?<!\w){re.escape(parameter)}s?(?!\w)"):
        call(value)


@pytest.mark.parametrize("call", [
    lambda: QuadratureSpec(max_subdivisions=2.5),
    lambda: check_mollifier_rate(SC, TENT, points=2.5),
    lambda: cluster_infinity(1.0, 2.5),
    lambda: mixed_cluster(1.0, 2.0, 4, 2.5),
    lambda: boundary_function(SC, 1.0, derivative=1.5),
], ids=["max_subdivisions", "points", "n_modes", "n_zero", "derivative"])
def test_fractional_counts_are_refused(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call()


@pytest.mark.parametrize("kernel", [TENT, fudge_kernel(), bump_kernel()],
                         ids=["tent", "fudge", "bump"])
@pytest.mark.parametrize("method,parameter,huge_scale",
                         [("time", "t", 10.0), ("freq", "s", 0.1)])
def test_kernel_evaluation_points(kernel, method, parameter, huge_scale):
    evaluate = getattr(kernel, method)
    for points in (math.nan, [0.5, math.nan]):
        with pytest.raises(ValueError, match=rf"(?<!\w){parameter}(?!\w)"):
            evaluate(points)
    # phi and psi tend to 0: at infinity, where scale * t or s / scale
    # overflows, and where a power of t in the time profile does
    assert evaluate(math.inf) == evaluate(-math.inf) == 0.0
    assert evaluate(1e308, scale=huge_scale) == 0.0
    assert evaluate(1e200) == 0.0
    out = evaluate(np.array([-math.inf, 0.25, math.inf, 1e308]), scale=huge_scale)
    assert out.tolist() == [0.0, evaluate(0.25, scale=huge_scale), 0.0, 0.0]
