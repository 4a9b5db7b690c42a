"""Tests for rate-function construction, inversion, and decay bounds."""

import math
import re
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ingham_rates.rate_functions import (
    _C_RANGES,
    BoundDomainError,
    ComposedRate,
    InadmissibleConstantError,
    InversionRangeError,
    MonotoneFunction,
    SearchBracketError,
    VARIANTS,
    _invert,
    invert_monotone,
    make_bound,
    raw_bound_ck,
    raw_bound_smooth,
)
from ingham_rates.semigroup_lab import (
    cluster_infinity,
    cluster_zero,
    mixed_cluster,
    resolvent_envelope_decay,
    resolvent_envelope_growth,
)


class TestGrowthRates:
    def test_linear_growth_k2_at_3(self):
        M = MonotoneFunction.power_growth(1.0)
        assert ComposedRate(M, 2)(3.0) == pytest.approx(32.0, rel=1e-14)

    def test_constant_growth_k2_at_99(self):
        M = MonotoneFunction.constant_growth(1.0)
        assert ComposedRate(M, 2)(99.0) == pytest.approx(100.0, rel=1e-14)

    def test_power_growth_exponent_law(self):
        # (1+R)^alpha composes to (1+R)^(alpha+(alpha+2)/k); alpha=1, k=2
        # gives exponent 5/2
        M = MonotoneFunction.power_growth(1.0)
        for R in (0.5, 3.0, 40.0, 1e3):
            assert ComposedRate(M, 2)(R) == pytest.approx(
                (1.0 + R) ** 2.5, rel=1e-12)

    def test_log_variant_linear_growth(self):
        M = MonotoneFunction.power_growth(1.0)
        assert ComposedRate(M)(math.e - 1.0) == pytest.approx(
            2.0 * math.e, rel=1e-12)

    def test_log_variant_constant_growth(self):
        M = MonotoneFunction.constant_growth(1.0)
        assert ComposedRate(M)(0.0) == 0.0
        for R in (0.3, 2.0, 9.0):
            assert ComposedRate(M)(R) == pytest.approx(math.log1p(R), rel=1e-14)

    def test_log_variant_exponential_growth(self):
        M = MonotoneFunction.exponential_growth(1.0)
        assert ComposedRate(M)(1.0) == pytest.approx(
            math.e * (math.log(2.0) + 1.0), rel=1e-12)

    def test_strictly_increasing_in_radius(self):
        M = MonotoneFunction.power_growth(2.0)
        R = np.linspace(0.0, 50.0, 1000)
        for vals in (ComposedRate(M, 1)(R), ComposedRate(M, 3)(R),
                     ComposedRate(M)(R)):
            assert np.all(np.diff(vals) > 0.0)


class TestDecayRates:
    def test_reciprocal_decay_k2_at_half(self):
        m = MonotoneFunction.power_decay(1.0)
        assert ComposedRate(m, 2)(0.5) == pytest.approx(4.0, rel=1e-14)

    def test_constant_decay_k1_is_reciprocal(self):
        m = MonotoneFunction.constant_decay(1.0)
        for r in (1.0, 0.25, 1e-3):
            assert ComposedRate(m, 1)(r) == pytest.approx(1.0 / r, rel=1e-14)

    def test_power_decay_exponent_law(self):
        # r^{-alpha} composes to r^{-(alpha(k+1)+1)/k}; alpha=1, k=2 gives
        # exponent 2
        m = MonotoneFunction.power_decay(1.0)
        for r in (1.0, 0.3, 0.01):
            assert ComposedRate(m, 2)(r) == pytest.approx(r ** -2.0, rel=1e-12)

    def test_log_variant_worked_values(self):
        one = MonotoneFunction.constant_decay(1.0)
        recip = MonotoneFunction.power_decay(1.0)
        assert ComposedRate(one)(1.0) == pytest.approx(math.log(2.0), rel=1e-14)
        assert ComposedRate(recip)(1.0) == pytest.approx(math.log(2.0), rel=1e-14)
        assert ComposedRate(recip)(0.1) == pytest.approx(
            10.0 * math.log(101.0), rel=1e-12)

    def test_non_increasing_in_radius(self):
        m = MonotoneFunction.exponential_decay(0.5)
        r = np.linspace(1e-3, 1.0, 1000)
        for vals in (ComposedRate(m, 1)(r), ComposedRate(m, 4)(r),
                     ComposedRate(m)(r)):
            assert np.all(np.diff(vals) <= 0.0)


class TestDomainsAndValidation:
    def test_growth_rejects_negative_argument(self):
        M = MonotoneFunction.power_growth(1.0)
        with pytest.raises(ValueError, match="non-negative"):
            M(-0.5)

    def test_decay_rejects_arguments_outside_unit_interval(self):
        m = MonotoneFunction.power_decay(1.0)
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            m(0.0)
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            m(1.5)

    def test_growth_rejects_nan_argument(self):
        M = MonotoneFunction.power_growth(1.0)
        with pytest.raises(ValueError, match="non-negative"):
            M(math.nan)
        with pytest.raises(ValueError, match="non-negative"):
            M(np.array([1.0, math.nan, 2.0]))

    def test_decay_rejects_nan_argument(self):
        m = MonotoneFunction.power_decay(1.0)
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            m(math.nan)
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            m(np.array([0.5, math.nan]))

    @pytest.mark.parametrize("source", [MonotoneFunction.power_growth(1.0),
                                        MonotoneFunction.power_decay(1.0)])
    @pytest.mark.parametrize("k", [None, 2])
    def test_composition_raises_the_source_domain_errors(self, source, k):
        composed = ComposedRate(source, k)
        for x in (-1.0, 0.0, 1.5, math.nan, np.array([0.5, math.nan])):
            try:
                source(x)
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    composed(x)
            else:
                composed(x)

    def test_values_must_reach_one(self):
        with pytest.raises(ValueError, match="at least 1"):
            MonotoneFunction.constant_growth(0.5)
        with pytest.raises(ValueError, match="at least 1"):
            MonotoneFunction.tabulated_growth([0.0, 1.0], [0.5, 2.0])

    def test_k_must_be_positive_integer(self):
        M = MonotoneFunction.constant_growth(1.0)
        with pytest.raises(ValueError):
            ComposedRate(M, 0)

    def test_non_monotone_table_rejected_not_repaired(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            MonotoneFunction.tabulated_growth([0.0, 1.0, 2.0], [1.0, 3.0, 2.0])
        with pytest.raises(ValueError, match="non-increasing"):
            MonotoneFunction.tabulated_decay([0.1, 0.5, 1.0], [2.0, 3.0, 1.0])

    def test_table_knots_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            MonotoneFunction.tabulated_growth([0.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_tabulated_growth_interpolates_and_extends(self):
        M = MonotoneFunction.tabulated_growth([0.0, 2.0, 4.0], [1.0, 3.0, 9.0])
        assert M(1.0) == pytest.approx(2.0)
        assert M(3.0) == pytest.approx(6.0)
        # constant extension keeps the function monotone beyond the knots
        assert M(100.0) == pytest.approx(9.0)

    def test_tabulated_decay_preserves_reciprocal_lower_bound(self):
        # knots sampled from m(r) = 1/r; interpolation in w = 1/r keeps
        # m(r) >= 1/r between the knots as well
        knots = np.array([0.05, 0.1, 0.2, 0.5, 1.0])
        m = MonotoneFunction.tabulated_decay(knots, 1.0 / knots)
        r = np.linspace(0.05, 1.0, 401)
        assert np.all(m(r) >= 1.0 / r - 1e-12)

    @pytest.mark.parametrize("make,knots,values", [
        (MonotoneFunction.tabulated_growth, [0.0, math.nan], [1.0, 2.0]),
        (MonotoneFunction.tabulated_growth, [math.nan, 1.0], [1.0, 2.0]),
        (MonotoneFunction.tabulated_growth, [0.0, 1.0], [1.0, math.nan]),
        (MonotoneFunction.tabulated_decay, [0.5, math.nan], [2.0, 1.0]),
        (MonotoneFunction.tabulated_decay, [0.5, 1.0], [math.nan, 1.0]),
    ])
    def test_nan_table_entries_rejected(self, make, knots, values):
        # NaN passed the old `np.any(knots < 0.0)` form of each check
        with pytest.raises(ValueError):
            make(knots, values)

    @pytest.mark.parametrize("make", [
        MonotoneFunction.power_growth, MonotoneFunction.exponential_growth,
        MonotoneFunction.constant_growth, MonotoneFunction.power_decay,
        MonotoneFunction.exponential_decay, MonotoneFunction.constant_decay,
    ])
    def test_nan_parameter_rejected(self, make):
        # NaN passed the old `alpha <= 0.0` and `value < 1.0` checks:
        # power_growth(nan) returned [nan, nan] at R = 1, 2; +inf passed
        # the `alpha > 0` and `value >= 1` checks that followed
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                make(bad)

    @pytest.mark.parametrize("c,t", [(math.nan, 10.0), (1.0, math.nan),
                                     (1.0, np.array([10.0, math.nan]))])
    def test_raw_oracles_reject_nan_c_and_t(self, c, t):
        growth = MonotoneFunction.power_growth(1.0)
        with pytest.raises(ValueError, match="c and t must be positive"):
            raw_bound_ck(growth, 1, c, t)
        with pytest.raises(ValueError, match="c and t must be positive"):
            raw_bound_smooth(growth, c, t)


class TestInversion:
    def test_log_growth_constant_inverse(self):
        f = ComposedRate(MonotoneFunction.constant_growth(1.0))
        assert invert_monotone(f, 1.0) == pytest.approx(math.e - 1.0, rel=1e-9)

    def test_ck_growth_inverse_of_worked_example(self):
        f = ComposedRate(MonotoneFunction.power_growth(1.0), 2)
        assert invert_monotone(f, 32.0) == pytest.approx(3.0, rel=1e-9)

    def test_log_decay_round_trip(self):
        f = ComposedRate(MonotoneFunction.power_decay(1.0))
        y = 10.0 * math.log(101.0)
        assert invert_monotone(f, y) == pytest.approx(0.1, rel=1e-8)

    def test_out_of_range_reports_range(self):
        f = ComposedRate(MonotoneFunction.constant_growth(1.0))
        with pytest.raises(InversionRangeError):
            invert_monotone(f, -0.5)
        g = ComposedRate(MonotoneFunction.constant_decay(1.0), 1)
        # m_1(r) = 1/r has infimum 1 at r = 1; no r gives 0.5
        with pytest.raises(InversionRangeError):
            invert_monotone(g, 0.5)

    @given(st.floats(min_value=0.01, max_value=1e4),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_growth_round_trip_property(self, R, k):
        # the absolute floor covers small R, where the composed rate is flat
        # and the residual tolerance conditions into a larger x-error
        f = ComposedRate(MonotoneFunction.power_growth(1.5), k)
        assert invert_monotone(f, float(f(R))) == pytest.approx(
            R, rel=1e-9, abs=1e-10)

    @given(st.floats(min_value=1e-3, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_decay_round_trip_property(self, r):
        f = ComposedRate(MonotoneFunction.power_decay(0.7))
        assert invert_monotone(f, float(f(r))) == pytest.approx(r, rel=1e-9)

    def test_hundred_random_round_trips_per_family(self):
        rng = np.random.default_rng(1234)
        growth_fns = [
            ComposedRate(MonotoneFunction.power_growth(1.0), 2),
            ComposedRate(MonotoneFunction.exponential_growth(1.0)),
            ComposedRate(MonotoneFunction.constant_growth(2.0)),
        ]
        for f in growth_fns:
            for x in rng.uniform(0.05, 30.0, size=100):
                assert invert_monotone(f, float(f(x))) == pytest.approx(x, rel=1e-9)
        decay_fns = [
            ComposedRate(MonotoneFunction.power_decay(1.0), 2),
            ComposedRate(MonotoneFunction.exponential_decay(0.5)),
        ]
        for f in decay_fns:
            for x in rng.uniform(0.02, 1.0, size=100):
                assert invert_monotone(f, float(f(x))) == pytest.approx(x, rel=1e-9)

    def test_overflowing_bisection_leaves_the_error_state_alone(self):
        # M(R) = exp(R^4) overflows at the first midpoint of the bracket
        # [4, 8]; the bisection ignores that under its own errstate
        f = ComposedRate(MonotoneFunction.exponential_growth(4.0), 1)
        assert f(math.expm1(0.5 * (math.log1p(4.0) + math.log1p(8.0)))) == math.inf
        before = np.geterr()
        with np.errstate(over="raise", invalid="raise"):
            x = invert_monotone(f, 1e200)
        assert np.geterr() == before
        assert f(x) == pytest.approx(1e200, rel=1e-9)


class TestBounds:
    def test_constant_growth_ck_closed_form(self):
        bound = make_bound("infinity_ck",
                           growth=MonotoneFunction.constant_growth(1.0),
                           c=1.0, k=2)
        assert bound(100.0) == pytest.approx(1.0 / 99.0, rel=1e-9)

    def test_default_constants_per_variant(self):
        growth = MonotoneFunction.power_growth(1.0)
        decay = MonotoneFunction.power_decay(1.0)
        assert make_bound("infinity_ck", growth=growth).c == 1.0
        assert make_bound("infinity_smooth", growth=growth).c == 0.45
        assert make_bound("zero_smooth", decay=decay).c == 0.9
        assert make_bound("zero_infinity_smooth", growth=growth,
                          decay=decay).c == 0.45

    def test_admissible_interval_enforced(self):
        growth = MonotoneFunction.power_growth(1.0)
        decay = MonotoneFunction.power_decay(1.0)
        with pytest.raises(InadmissibleConstantError, match=r"\(0, 1/2\)"):
            make_bound("infinity_smooth", growth=growth, c=0.7)
        with pytest.raises(InadmissibleConstantError, match=r"\(0, 1\)"):
            make_bound("zero_smooth", decay=decay, c=1.5)
        # any positive c is fine for finite smoothness
        assert make_bound("infinity_ck", growth=growth, c=37.0).c == 37.0

    def test_k_rejected_for_smooth_variants(self):
        growth = MonotoneFunction.power_growth(1.0)
        with pytest.raises(ValueError, match="finite-smoothness"):
            make_bound("infinity_smooth", growth=growth, k=2)

    def test_evaluation_below_t_min_is_an_error(self):
        bound = make_bound("infinity_ck",
                           growth=MonotoneFunction.power_growth(1.0), k=1)
        assert bound.t_min == pytest.approx(16.0, rel=1e-12)
        with pytest.raises(BoundDomainError):
            bound(bound.t_min / 2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_is_named(self, bad):
        bound = make_bound("zero_infinity_ck", growth=MonotoneFunction.power_growth(1.0),
                           decay=MonotoneFunction.power_decay(1.0), k=1)
        for t in (bad, np.array([2.0 * bound.t_min, bad])):
            with pytest.raises(ValueError, match="t must be finite"):
                bound.evaluate(t)

    def test_positive_and_non_increasing(self):
        growth = MonotoneFunction.power_growth(1.0)
        decay = MonotoneFunction.power_decay(2.0)
        t = np.geomspace(50.0, 1e5, 200)
        for variant, kwargs in [
            ("infinity_ck", {"growth": growth, "k": 2}),
            ("infinity_smooth", {"growth": growth}),
            ("zero_ck", {"decay": decay, "k": 1}),
            ("zero_smooth", {"decay": decay}),
            ("zero_infinity_ck", {"growth": growth, "decay": decay, "k": 1}),
            ("zero_infinity_smooth", {"growth": growth, "decay": decay}),
        ]:
            bound = make_bound(variant, **kwargs)
            vals = bound(t[t >= bound.t_min])
            assert np.all(vals > 0.0), variant
            assert np.all(np.diff(vals) <= 1e-15), variant

    def test_ck_exponent_law_both_sides(self):
        # power-law inputs give closed-form decay exponents; fitted log-log
        # slopes over [1e3, 1e6] must match within 0.02
        t = np.geomspace(1e3, 1e6, 61)
        gbound = make_bound("infinity_ck",
                            growth=MonotoneFunction.power_growth(1.0), k=2)
        slope = np.polyfit(np.log(t), np.log(gbound(t)), 1)[0]
        assert slope == pytest.approx(-2.0 / 5.0, abs=0.02)
        dbound = make_bound("zero_ck",
                            decay=MonotoneFunction.power_decay(1.0), k=2)
        slope = np.polyfit(np.log(t), np.log(dbound(t)), 1)[0]
        assert slope == pytest.approx(-2.0 / 4.0, abs=0.02)

    def test_missing_source_function_is_an_error(self):
        with pytest.raises(ValueError, match="requires a growth"):
            make_bound("infinity_ck", k=1)
        with pytest.raises(ValueError, match="requires a decay"):
            make_bound("zero_smooth")

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant"):
            make_bound("sideways_ck", growth=MonotoneFunction.power_growth(1.0))

    def test_variant_listing_is_stable(self):
        assert VARIANTS == ("infinity_ck", "infinity_smooth", "zero_ck",
                            "zero_smooth", "zero_infinity_ck",
                            "zero_infinity_smooth")


class TestRawBounds:
    def test_constant_growth_closed_form_minimum(self):
        # minimand 1/R + R/t^k has argmin t^{k/2} and value 2 t^{-k/2}
        M = MonotoneFunction.constant_growth(1.0)
        for k, t in [(1, 100.0), (2, 1e4), (3, 1e3)]:
            value, argmin = raw_bound_ck(M, k, 1.0, t)
            assert value == pytest.approx(2.0 * t ** (-k / 2.0), rel=1e-6)
            assert argmin == pytest.approx(t ** (k / 2.0), rel=1e-2)

    def test_ck_argmin_tracks_inverse_rate(self):
        M = MonotoneFunction.power_growth(1.0)
        f = ComposedRate(M, 2)
        target = invert_monotone(f, 1e4)
        _, argmin = raw_bound_ck(M, 2, 1.0, 1e4)
        assert target / 3.0 <= argmin <= 3.0 * target

    def test_value_improves_with_smoothness(self):
        M = MonotoneFunction.power_growth(1.0)
        t = 1e6
        values = [raw_bound_ck(M, k, 1.0, t)[0] for k in (1, 2, 3, 4)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_smooth_constant_growth_interior_minimum(self):
        # (1/R)((1+R)^2 e^{-2ct} + 1) with c=0.4, t=100 is minimised near
        # R = e^{40} where both terms balance, giving 2 e^{-40}
        M = MonotoneFunction.constant_growth(1.0)
        value, argmin = raw_bound_smooth(M, 0.4, 100.0)
        assert value == pytest.approx(2.0 * math.exp(-40.0), rel=1e-3)
        assert math.exp(39.0) <= argmin <= math.exp(41.0)

    def test_smooth_argmin_tracks_inverse_rate(self):
        M = MonotoneFunction.power_growth(1.0)
        target = invert_monotone(ComposedRate(M), 400.0)
        _, argmin = raw_bound_smooth(M, 0.4, 1e3)
        assert target / 3.0 <= argmin <= 3.0 * target

    def test_oracle_tracks_closed_form_over_two_decades(self):
        M = MonotoneFunction.power_growth(1.0)
        bound = make_bound("infinity_smooth", growth=M, c=0.4)
        for t in np.geomspace(1e3, 1e5, 9):
            raw, _ = raw_bound_smooth(M, 0.4, float(t))
            assert 0.1 <= raw / float(bound(t)) <= 10.0

    @pytest.mark.parametrize("oracle", ["ck", "smooth"])
    def test_grid_equals_pointwise(self, oracle):
        # a scalar t is a one-row grid: each t of a grid must get exactly
        # the value and argmin of its one-point call
        M = MonotoneFunction.power_growth(1.0)
        ts = np.geomspace(100.0, 1e4, 7)
        if oracle == "ck":
            values, argmins = raw_bound_ck(M, 2, 1.0, ts)
            pointwise = [raw_bound_ck(M, 2, 1.0, float(t)) for t in ts]
        else:
            values, argmins = raw_bound_smooth(M, 0.4, ts)
            pointwise = [raw_bound_smooth(M, 0.4, float(t)) for t in ts]
        assert values.tolist() == [v for v, _ in pointwise]
        assert argmins.tolist() == [r for _, r in pointwise]

    @pytest.mark.parametrize("variant", ["infinity_ck", "infinity_smooth"])
    @pytest.mark.parametrize("family", ["power", "exponential"])
    def test_inverse_from_the_bound_gives_the_same_minima(self, variant, family):
        # the inverse a bound evaluation returns is the one the oracle would
        # find itself, so passing it changes no bit of values or argmins
        growth = {"power": MonotoneFunction.power_growth(1.0),
                  "exponential": MonotoneFunction.exponential_growth(0.5)}[family]
        bound = make_bound(variant, growth=growth, k=2 if variant == "infinity_ck" else None)
        ts = np.geomspace(max(100.0, bound.t_min), 1e4, 21)
        values, inverse = bound.evaluate(ts)
        assert values.tolist() == bound(ts).tolist()
        if variant == "infinity_ck":
            given = raw_bound_ck(growth, 2, bound.c, ts, inverse=inverse)
            own = raw_bound_ck(growth, 2, bound.c, ts)
        else:
            given = raw_bound_smooth(growth, bound.c, ts, inverse=inverse)
            own = raw_bound_smooth(growth, bound.c, ts)
        assert given[0].tolist() == own[0].tolist()
        assert given[1].tolist() == own[1].tolist()

    @pytest.mark.parametrize("k", [1, 2, 3, None], ids=["k1", "k2", "k3", "smooth"])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("family", ["power", "exponential"])
    def test_grid_equals_reference(self, family, alpha, k):
        # the bench universe's oracle grids: 11 to 31 points on [100, 1e4]
        growth = _rate_pair(family, alpha)[0]
        points = (11, 16, 21, 26, 31)[int(2 * alpha + (k or 0)) % 5]
        ts = np.geomspace(100.0, 1e4, points)
        _assert_matches_reference(growth, k, 1.0 if k else 0.45, ts)

    def test_rows_that_double_the_search_edge_match_reference(self):
        # with c = 1e-4 the search radius of constant growth, about
        # max(1e6, 1e3 * c * t), lies below the argmin t once t > 1e6, so
        # only the later rows raise their upper edge; an argmin beyond the
        # radius proves that a row did
        growth = MonotoneFunction.constant_growth(1.0)
        ts = np.geomspace(1e4, 1e9, 11)
        _, argmins = _assert_matches_reference(growth, 2, 1e-4, ts)
        doubled = [r > max(1e6, 0.1 * t) for r, t in zip(argmins, ts.tolist())]
        assert any(doubled) and not all(doubled)

    def test_rows_with_one_radius_share_one_scan(self):
        # M_1 = (1+R)^3 stays below 1e3 here, so every row's radius is 1e6
        points = []

        def counted(R):
            points.append(R.size)
            return 1.0 + R

        growth = MonotoneFunction("growth", counted, "counted 1+R")
        bound = make_bound("infinity_ck", growth=growth, c=1.0, k=1)
        ts = np.geomspace(100.0, 1e4, 21)
        _, inverse = bound.evaluate(ts)
        points.clear()
        values, argmins = raw_bound_ck(growth, 1, 1.0, ts, inverse=inverse)
        assert points[0] == 400  # 21 rows of 400 scan points took 8400
        # then one call per golden-section step, on at most two points per row
        assert all(size <= 2 * ts.size for size in points[1:])
        ref_values, ref_argmins = _reference_raw(MonotoneFunction.power_growth(1.0), 1, 1.0,
                                                 ts.tolist())
        assert values.tolist() == ref_values
        assert argmins.tolist() == ref_argmins

    @pytest.mark.parametrize("k,c,ts", [
        (2, 1e-4, [2e7, 1e4, 5e8, 3e4, 1e4, 1e9, 2e7, 1e5, 1e8, 3e6]),
        (None, 1e-3, [1e5, 10.0, 3e4, 10.0, 1e4, 300.0, 1e5]),
    ], ids=["k2", "smooth"])
    def test_shared_and_distinct_radii_match_reference(self, k, c, ts):
        # unsorted, with repeats: the rows with small c*t share the radius
        # 1e6 and the later ones have their own; for k = 2 the argmin t lies
        # beyond the radius 1e3 * c * t once t > 1e6, so those rows double
        # their edge (a smooth minimum lies below its radius for any t)
        growth = MonotoneFunction.constant_growth(1.0)
        _, argmins = _assert_matches_reference(growth, k, c, np.array(ts))
        inverse = [_reference_invert(ComposedRate(growth, k), c * t) for t in ts]
        radii = [min(max(1e6, 1e3 * max(r, 1.0)), 1e250) for r in inverse]
        assert radii.count(1e6) > 1 and len(set(radii)) > 3
        doubled = [r > radius for r, radius in zip(argmins, radii)]
        assert any(doubled) == (k is not None)

    def test_pinned_row_raises_search_bracket_error(self):
        # c*t = 4.5e299 lies beyond the range of M_log, so the t = 1e300 row
        # starts at R = 1e9, finds its minimum on the edge every time and
        # gives up after 60 doublings
        growth = MonotoneFunction.constant_growth(1.0)
        message = "minimiser pinned at the search boundary R = 1.15292e+27"
        with pytest.raises(SearchBracketError) as excinfo:
            raw_bound_smooth(growth, 0.45, [100.0, 1e300])
        assert type(excinfo.value) is SearchBracketError
        assert str(excinfo.value) == message
        with pytest.raises(SearchBracketError, match=re.escape(message)):
            _reference_raw(growth, None, 0.45, [100.0, 1e300])

    def test_lowest_pinned_row_is_reported(self):
        # rows t = 1e35 and t = 1e30 both pin, from R = 1e16 and R = 1e11;
        # the pointwise search meets t = 1e35 first
        growth = MonotoneFunction.constant_growth(1.0)
        ts = [1e4, 1e35, 1e30]
        message = "minimiser pinned at the search boundary R = 1.15292e+34"
        with pytest.raises(SearchBracketError) as excinfo:
            raw_bound_ck(growth, 2, 1e-22, ts)
        assert str(excinfo.value) == message
        with pytest.raises(SearchBracketError, match=re.escape(message)):
            _reference_raw(growth, 2, 1e-22, ts)


# -- array inversion against the one-target bisection -------------------------


def _reference_invert(f, y, tol_rel=1e-10):
    """The one-target bisection that bound evaluation reproduces bit for bit."""
    slack = tol_rel * max(1.0, abs(y))
    if f.kind == "growth":
        edge = float(f(0.0))
        if y < edge - slack:
            raise InversionRangeError(f"target {y!r} is below the range minimum f(0) = {edge!r}")
        if abs(y - edge) <= slack:
            return 0.0
        lo, hi = 0.0, 1.0
        while True:
            fhi = float(f(hi))
            if fhi >= y:
                break
            lo, hi = hi, hi * 2.0
            if hi > 1e308:
                raise InversionRangeError(
                    f"target {y!r} exceeds the attained range (f({lo!r}) = {fhi!r})")
        u_lo, u_hi = math.log1p(lo), math.log1p(hi)
    else:
        edge = float(f(1.0))
        if y < edge - slack:
            raise InversionRangeError(f"target {y!r} is below the range minimum f(1) = {edge!r}")
        if abs(y - edge) <= slack:
            return 1.0
        hi, lo = 1.0, 0.5
        while True:
            flo = float(f(lo))
            if flo >= y:
                break
            hi, lo = lo, lo * 0.5
            if lo < 1e-300:
                raise InversionRangeError(
                    f"target {y!r} exceeds the attained range (f({hi!r}) = {flo!r})")
        u_lo, u_hi = math.log(1.0 / hi), math.log(1.0 / lo)
    for _ in range(600):
        u_mid = 0.5 * (u_lo + u_hi)
        x = math.expm1(u_mid) if f.kind == "growth" else math.exp(-u_mid)
        fx = float(f(x))
        if abs(fx - y) <= slack:
            return x
        if fx < y:
            u_lo = u_mid
        else:
            u_hi = u_mid
    raise InversionRangeError(
        f"bisection did not reach |f(x) - y| <= {slack!r}; residual {abs(fx - y)!r}")


def _reference_bound(bound, t):
    """The bound at one t from the one-target bisection."""
    y = bound.c * t
    total = 0.0
    if bound._decay_fn is not None:
        total += _reference_invert(bound._decay_fn, y)
    if bound._growth_fn is not None:
        total += 1.0 / _reference_invert(bound._growth_fn, y)
    if bound.variant in ("zero_ck", "zero_smooth", "zero_infinity_smooth"):
        total += 1.0 / t
    return total


def _reference_minimise(
    logf: Callable[[np.ndarray], np.ndarray],
    u_max_initial: float,
    *,
    points: int = 400,
    rel_tol: float = 1e-6,
    max_doublings: int = 60,
) -> tuple[float, float]:
    """Minimise exp(logf(u)) for u = log R in [0, u_max] with golden refinement.

    ``logf`` maps an array of u to an array of values.  The grid is
    evaluated in one call; it only picks the bracket that the one-point
    golden-section steps then refine.  Returns (min value, argmin R).  The
    upper edge doubles (in R) whenever the grid minimum lands on it;
    persistent boundary minima raise :class:`SearchBracketError`.
    """

    def at(u: float) -> float:
        return float(logf(np.array([u]))[0])

    u_max = u_max_initial
    for _ in range(max_doublings):
        grid = np.linspace(0.0, u_max, points)
        vals = logf(grid)
        idx = int(np.nanargmin(vals))
        if idx < points - 1 or u_max >= math.log(1e250):
            break
        u_max += math.log(2.0)
    else:
        raise SearchBracketError(
            f"minimiser pinned at the search boundary R = {math.exp(u_max):.6g}"
        )
    if idx == points - 1 and u_max >= math.log(1e250):
        raise SearchBracketError(
            f"minimiser pinned at the search boundary R = {math.exp(u_max):.6g}"
        )

    lo = grid[max(idx - 1, 0)]
    hi = grid[min(idx + 1, points - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = at(x1), at(x2)
    while (b - a) > rel_tol * max(1.0, abs(0.5 * (a + b))):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = at(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = at(x2)
    u_best = x1 if f1 <= f2 else x2
    return math.exp(at(u_best)), math.exp(u_best)


def _libm_array(fn, values):
    return np.array([fn(v) for v in values.tolist()])


def _reference_raw(growth, k, c, ts):
    """Raw oracle (C^k for integer k, smooth for None) by a one-t search per t.

    The search radius comes from the one-target bisection; the first t
    whose search fails raises.
    """
    found = []
    for t in ts:
        try:
            r_star = _reference_invert(ComposedRate(growth, k), c * t)
        except InversionRangeError:
            r_star = 1e6
        radius = min(max(1e6, 1e3 * max(r_star, 1.0)), 1e250)
        if k is None:
            def logf(u, t=t):
                R = _libm_array(math.exp, u)
                M = growth(R)
                big = (2.0 * _libm_array(math.log1p, R) + 2.0 * _libm_array(math.log, M)
                       - 2.0 * c * t / M)
                return np.where(np.isfinite(M), np.logaddexp(big, 0.0) - u, np.inf)
        else:
            def logf(u, log_t=math.log(t)):
                M = growth(_libm_array(math.exp, u))
                val = np.logaddexp(-u, u + (k + 1) * _libm_array(math.log, M) - k * log_t)
                return np.where(np.isfinite(M), val, np.inf)
        found.append(_reference_minimise(logf, math.log(radius)))
    return [v for v, _ in found], [r for _, r in found]


def _assert_matches_reference(growth, k, c, ts):
    if k is None:
        values, argmins = raw_bound_smooth(growth, c, ts)
    else:
        values, argmins = raw_bound_ck(growth, k, c, ts)
    ref_values, ref_argmins = _reference_raw(growth, k, c, ts.tolist())
    assert values.tolist() == ref_values
    assert argmins.tolist() == ref_argmins
    return ref_values, ref_argmins


def _outcome(fn):
    try:
        return fn()
    except InversionRangeError as exc:
        return ("InversionRangeError", str(exc))


def _rate_pair(family, alpha):
    if family == "power":
        return (MonotoneFunction.power_growth(alpha),
                MonotoneFunction.power_decay(alpha))
    if family == "exponential":
        return (MonotoneFunction.exponential_growth(alpha),
                MonotoneFunction.exponential_decay(alpha))
    return (resolvent_envelope_growth(cluster_infinity(alpha, 40)),
            resolvent_envelope_decay(cluster_zero(1.0 + alpha, 40)))


def _outcomes(f, y):
    """Per target: the array inversion's value, or its error as _outcome gives it."""
    x, failures = _invert(f, y)
    return [("InversionRangeError", str(failures[i])) if i in failures else float(x[i])
            for i in range(y.size)]


class TestArrayInversion:
    @given(variant=st.sampled_from(VARIANTS),
           family=st.sampled_from(("power", "exponential", "envelope")),
           alpha=st.floats(min_value=0.3, max_value=2.0),
           k=st.integers(min_value=1, max_value=4),
           c_frac=st.floats(min_value=0.05, max_value=0.95),
           factors=st.lists(st.floats(min_value=1.0, max_value=1e4),
                            min_size=1, max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_grid_equals_pointwise_and_reference(self, variant, family, alpha, k,
                                                 c_frac, factors):
        growth, decay = _rate_pair(family, alpha)
        hi = _C_RANGES[variant][1]
        c = 10.0 * c_frac if math.isinf(hi) else hi * c_frac
        ck = variant.endswith("_ck")
        bound = make_bound(variant, growth=growth, decay=decay, c=c,
                           k=k if ck else None)
        ts = bound.t_min * np.array(factors)
        grid = _outcome(lambda: bound(ts).tolist())
        pointwise = _outcome(lambda: [bound(float(t)) for t in ts])
        reference = _outcome(lambda: [_reference_bound(bound, float(t)) for t in ts])
        assert grid == pointwise == reference
        for fn in (bound._growth_fn, bound._decay_fn):
            if fn is not None:
                y = bound.c * float(ts[0])
                assert (_outcome(lambda: invert_monotone(fn, y))
                        == _outcome(lambda: _reference_invert(fn, y)))

    @pytest.mark.parametrize("variant,kwargs", [
        ("infinity_smooth", {"growth": MonotoneFunction.constant_growth(1.0)}),
        ("zero_smooth", {"decay": MonotoneFunction.constant_decay(1.0)}),
    ])
    def test_one_out_of_range_target_raises(self, variant, kwargs):
        # log compositions of constant rates grow only logarithmically, so
        # their attained range ends near 700; c*t = 0.45e4 lies beyond it
        bound = make_bound(variant, **kwargs)
        ts = np.array([bound.t_min, 100.0, 1e4, 200.0])
        with pytest.raises(InversionRangeError) as excinfo:
            bound(ts)
        fn = bound._growth_fn or bound._decay_fn
        assert str(excinfo.value) == _outcome(
            lambda: _reference_invert(fn, bound.c * 1e4))[1]
        assert "exceeds the attained range" in str(excinfo.value)
        good = ts[[0, 1, 3]]
        assert bound(good).tolist() == [_reference_bound(bound, float(t)) for t in good]

    @given(n_modes=st.integers(min_value=1, max_value=12),
           alpha=st.floats(min_value=0.3, max_value=2.0),
           side=st.sampled_from(("growth", "growth_s_min", "decay")),
           ts=st.lists(st.floats(min_value=1.0, max_value=1e5), min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_small_finite_envelopes_match_reference(self, n_modes, alpha, side, ts):
        if side == "decay":
            env = resolvent_envelope_decay(cluster_zero(1.0 + alpha, n_modes))
        else:
            env = resolvent_envelope_growth(cluster_infinity(alpha, n_modes),
                                            s_min=1.0 if side == "growth_s_min" else 0.0)
        # M_log (k=None) of a saturating envelope: brackets far out, and escapes
        f = ComposedRate(env)
        y = 0.45 * np.array(ts)
        assert _outcomes(f, y) == [_outcome(lambda: _reference_invert(f, v)) for v in y.tolist()]


class TestBracketLadder:
    # a finite model's envelope saturates, so M_log grows only like log R
    # and the large targets bracket past R = 2^400
    SATURATED = ComposedRate(resolvent_envelope_growth(mixed_cluster(1, 2, 16, 1000), s_min=1))

    def test_saturated_envelope_matches_reference(self):
        y = 0.45 * np.geomspace(20.0, 1e4, 41)
        assert _outcomes(self.SATURATED, y) == [
            _outcome(lambda: _reference_invert(self.SATURATED, v)) for v in y.tolist()]

    def test_target_beyond_the_last_rung_quotes_it(self):
        top = float(self.SATURATED(2.0 ** 1023))
        y = np.array([2.0 * top, 100.0])
        got = _outcomes(self.SATURATED, y)
        assert got == [_outcome(lambda: _reference_invert(self.SATURATED, v)) for v in y.tolist()]
        assert got[0] == ("InversionRangeError", f"target {2.0 * top!r} exceeds the attained"
                          f" range (f({2.0 ** 1023!r}) = {top!r})")

    def test_rungs_are_evaluated_once_per_block(self):
        f, calls = self.SATURATED, []

        class Spy:
            kind = "growth"

            def __call__(self, x):
                calls.append(np.array(x, dtype=float))
                return f(x)

        y = 0.45 * np.geomspace(20.0, 1e4, 41)
        _, failures = _invert(Spy(), y)
        assert not failures
        # the highest far end any target needs, read off the whole ladder at once
        ladder = 2.0 ** np.arange(1024)
        top = int(np.max(np.argmax(f(ladder) >= y[:, None], axis=1)))
        assert top > 400
        blocks = top // 32 + 1
        assert calls[0].tolist() == 0.0  # the domain edge
        for b in range(blocks):
            assert calls[1 + b].tolist() == ladder[32 * b:32 * b + 32].tolist()
        # then one call per bisection step on the open targets; the one-target
        # search makes over 400 calls for the largest target alone
        assert all(c.size <= y.size for c in calls[1 + blocks:])
        assert len(calls) < 60
