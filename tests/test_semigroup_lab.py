"""Tests for the diagonal-operator models, orbits, and resolvent envelopes."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ingham_rates.semigroup_lab import (
    _ORBIT_CELLS,
    DiagonalOperator,
    ORBIT_KINDS,
    Scenario,
    _folded_spectrum,
    _orbit_amplitudes,
    _orbit_sweep,
    _padded_spectrum,
    _resolvent_peak,
    boundary_function,
    cluster_infinity,
    cluster_zero,
    mixed_cluster,
    mode_weights,
    orbit_argmax,
    orbit_norm,
    resolvent_envelope_decay,
    resolvent_envelope_growth,
    resolvent_norm,
    single_mode,
)


class TestConstruction:
    def test_eigenvalues_must_be_strictly_stable(self):
        with pytest.raises(ValueError, match="negative real part"):
            DiagonalOperator(np.array([-1.0 + 1j, 0.5 + 2j]))
        with pytest.raises(ValueError, match="negative real part"):
            single_mode(1j)

    def test_cluster_parameter_validation(self):
        with pytest.raises(ValueError, match="positive"):
            cluster_infinity(0.0, 10)
        with pytest.raises(ValueError, match="exceed 1"):
            cluster_zero(1.0, 10)
        with pytest.raises(ValueError, match="at least 1"):
            cluster_infinity(1.0, 0)
        # NaN passed the old `alpha <= 0.0` and `beta <= 1.0` checks
        with pytest.raises(ValueError, match="positive"):
            cluster_infinity(math.nan, 10)
        with pytest.raises(ValueError, match="exceed 1"):
            cluster_zero(math.nan, 10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_parameters_name_the_parameter(self, bad):
        # +inf passed the `alpha > 0`, `beta > 1` and `omega > 0` checks:
        # the clusters failed only inside DiagonalOperator, and the
        # scenario built
        with pytest.raises(ValueError, match="alpha"):
            cluster_infinity(bad, 10)
        with pytest.raises(ValueError, match="beta"):
            cluster_zero(bad, 10)
        with pytest.raises(ValueError, match="omega"):
            Scenario(single_mode(-1.0), "vector", omega=bad)

    @settings(max_examples=60, deadline=None)
    @given(alpha=st.one_of(st.sampled_from([0.5, 1.0, 1.25, 1.5, 2.0]),
                           st.floats(min_value=1e-3, max_value=20.0)),
           n_modes=st.one_of(st.sampled_from([1, 7, 1000, 40000]),
                             st.integers(min_value=1, max_value=5000)))
    def test_clusters_filled_in_place_match_the_complex_expressions(self, alpha, n_modes):
        # the eigenvalues are written into one complex array; they keep the
        # bits of the complex expressions they replace
        n = np.arange(1, n_modes + 1, dtype=float)
        beta = alpha + 1.0
        expected_inf = -(n ** (-alpha)) + 1j * n
        expected_zero = -(n ** (-beta)) + 1j / n
        assert cluster_infinity(alpha, n_modes).eigenvalues.tobytes() == expected_inf.tobytes()
        assert cluster_zero(beta, n_modes).eigenvalues.tobytes() == expected_zero.tobytes()

    def test_cluster_infinity_eigenvalue_formula(self):
        op = cluster_infinity(0.5, 5)
        n = np.arange(1, 6)
        assert np.allclose(op.eigenvalues, -n ** -0.5 + 1j * n)

    def test_cluster_zero_eigenvalue_formula(self):
        op = cluster_zero(2.0, 4)
        n = np.arange(1, 5)
        assert np.allclose(op.eigenvalues, -n ** -2.0 + 1j / n)

    def test_mixed_cluster_concatenates_families(self):
        op = mixed_cluster(1.0, 2.0, 3, 4)
        assert op.eigenvalues.size == 7
        assert np.allclose(op.eigenvalues[:3], cluster_infinity(1.0, 3).eigenvalues)
        assert np.allclose(op.eigenvalues[3:], cluster_zero(2.0, 4).eigenvalues)
        # per-family bookkeeping survives the concatenation
        assert op.families == (3, 4)

    def test_family_of_across_the_mixed_boundary(self):
        op = mixed_cluster(1.0, 2.0, 3, 4)
        assert [op.family_of(mode) for mode in range(7)] == [
            (1, 3), (2, 3), (3, 3), (1, 4), (2, 4), (3, 4), (4, 4)]
        assert single_mode(-1.0).families == (1,)
        for mode in (-1, 7):
            with pytest.raises(IndexError):
                op.family_of(mode)

    @pytest.mark.parametrize("families", [(3, 0, 4), (3, 3), (3, 5), (), (3.5, 3.5)])
    def test_family_counts_must_be_positive_and_add_up(self, families):
        eig = mixed_cluster(1.0, 2.0, 3, 4).eigenvalues
        with pytest.raises(ValueError, match="family mode counts"):
            DiagonalOperator(eig, families=families)

    def test_scenario_validation(self):
        op = single_mode(-1.0)
        with pytest.raises(ValueError, match="orbit"):
            Scenario(op, "sideways")
        with pytest.raises(ValueError, match="omega"):
            Scenario(op, "ar_omega", omega=0.0)
        with pytest.raises(ValueError, match="omega"):
            Scenario(op, "ar_omega", omega=math.nan)
        with pytest.raises(ValueError):
            Scenario(op, "vector", x=np.ones(3))  # length mismatch

    def test_orbit_kind_listing(self):
        assert ORBIT_KINDS == ("ainv", "ar_omega", "ar_omega_sq", "vector")


class TestOrbits:
    def test_inverse_orbit_at_time_zero(self):
        sc = Scenario(single_mode(-1.0), "ainv")
        assert orbit_norm(sc, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_inverse_orbit_single_mode_closed_form(self):
        sc = Scenario(single_mode(-1.0 + 1j), "ainv")
        assert orbit_norm(sc, 1.0) == pytest.approx(
            math.exp(-1.0) / math.sqrt(2.0), rel=1e-12)

    def test_cluster_infinity_maximiser_near_n_equals_t(self):
        sc = Scenario(cluster_infinity(1.0, 10 ** 4), "ainv")
        measured = orbit_norm(sc, 100.0)
        assert measured == pytest.approx(math.exp(-1.0) / 100.0, rel=0.01)
        _, idx, size = orbit_argmax(sc, 100.0)
        assert size == 10 ** 4
        assert 80 <= idx <= 125

    def test_resolvent_smoothed_orbit_formulas(self):
        lam = -0.5 + 2.0j
        op = single_mode(lam)
        t = 1.7
        expected = abs(lam) * math.exp(lam.real * t) / abs(1.0 - lam)
        assert orbit_norm(Scenario(op, "ar_omega"), t) == pytest.approx(
            expected, rel=1e-12)
        expected_sq = abs(lam) * math.exp(lam.real * t) / abs(1.0 - lam) ** 2
        assert orbit_norm(Scenario(op, "ar_omega_sq"), t) == pytest.approx(
            expected_sq, rel=1e-12)

    def test_vector_orbit_uses_supplied_amplitudes(self):
        op = cluster_zero(2.0, 3)
        x = np.array([0.0, 2.0, 0.0])
        sc = Scenario(op, "vector", x=x)
        lam = op.eigenvalues[1]
        assert orbit_norm(sc, 3.0) == pytest.approx(
            2.0 * math.exp(lam.real * 3.0), rel=1e-12)

    def test_contraction_never_exceeds_initial_norm(self):
        for sc in (Scenario(cluster_infinity(1.0, 50), "ainv"),
                   Scenario(cluster_zero(2.0, 50), "ar_omega"),
                   Scenario(mixed_cluster(1.0, 2.0, 30, 30), "ar_omega_sq")):
            t = np.linspace(0.0, 30.0, 40)
            vals = orbit_norm(sc, t)
            assert np.all(vals <= vals[0] * (1.0 + 1e-12))

    def test_orbit_norm_is_vectorised(self):
        sc = Scenario(cluster_infinity(1.0, 20), "ainv")
        t = np.array([0.0, 1.0, 5.0])
        batched = orbit_norm(sc, t)
        assert batched.shape == (3,)
        for i, ti in enumerate(t):
            assert batched[i] == pytest.approx(orbit_norm(sc, float(ti)))

    @given(st.floats(min_value=0.0, max_value=20.0),
           st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=30, deadline=None)
    def test_semigroup_property_componentwise(self, t, s):
        sc = Scenario(cluster_zero(2.0, 8), "vector")
        lam = sc.operator.eigenvalues
        both = mode_weights(sc) * np.exp(lam * (t + s))
        left = mode_weights(sc) * np.exp(lam * t)
        # divide out the weights once: e^{lam(t+s)} w = e^{lam t} e^{lam s} w
        factor = np.exp(sc.operator.eigenvalues * s)
        assert np.allclose(both, left * factor, rtol=1e-12, atol=1e-300)

    def test_truncation_stability_of_cluster_norms(self):
        # doubling the mode count changes the norm by < 1% on the safe range
        for family, kind in ((cluster_infinity, "ainv"), (cluster_zero, "ar_omega")):
            base = Scenario(family(1.0 if family is cluster_infinity else 2.0, 400), kind)
            double = Scenario(family(1.0 if family is cluster_infinity else 2.0, 800), kind)
            for t in (5.0, 20.0, 100.0):
                a = orbit_norm(base, t)
                b = orbit_norm(double, t)
                assert abs(a - b) <= 0.01 * max(a, b)


class TestResolvent:
    def test_single_mode_distances(self):
        op = single_mode(-1.0 + 1j)
        assert resolvent_norm(op, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert resolvent_norm(op, 0.0) == pytest.approx(1.0 / math.sqrt(2.0),
                                                        rel=1e-14)

    def test_cluster_infinity_peak_heights(self):
        op = cluster_infinity(1.0, 100)
        for n in (1, 7, 50):
            assert resolvent_norm(op, float(n)) == pytest.approx(float(n),
                                                                 rel=1e-12)

    def test_equals_reciprocal_spectral_distance(self):
        op = mixed_cluster(0.7, 1.5, 40, 40)
        lam = op.eigenvalues
        for s in (-3.2, 0.11, 4.9, 60.0):
            exact = 1.0 / np.min(np.abs(1j * s - lam))
            assert resolvent_norm(op, s) == pytest.approx(exact, rel=1e-12)


class TestEnvelopes:
    def test_growth_envelope_single_mode_is_clamped_at_one(self):
        M = resolvent_envelope_growth(single_mode(-1.0 + 1j))
        assert float(M(1.0)) == pytest.approx(1.0)
        # resolvent of a single damped mode never exceeds 1/|Re lambda|
        assert float(M(50.0)) <= 1.0 + 1e-12

    def test_growth_envelope_tracks_floor_for_cluster(self):
        op = cluster_infinity(1.0, 200)
        M = resolvent_envelope_growth(op)
        for R in (3.0, 17.0, 99.5, 200.0):
            assert float(M(R)) == pytest.approx(math.floor(R), rel=0.02)

    def test_growth_envelope_at_zero_is_running_max_start(self):
        op = cluster_infinity(1.0, 10)
        M = resolvent_envelope_growth(op)
        assert float(M(0.0)) == pytest.approx(
            max(1.0, resolvent_norm(op, 0.0)), rel=1e-9)

    def test_growth_envelope_dominates_and_is_monotone(self):
        op = mixed_cluster(1.0, 2.0, 100, 100)
        M = resolvent_envelope_growth(op)
        s = np.linspace(0.0, 120.0, 1500)
        vals = M(s)
        assert np.all(np.diff(vals) >= -1e-12)
        norms = np.array([resolvent_norm(op, float(v)) for v in s])
        assert np.all(vals >= norms * (1.0 - 1e-9))
        # eigenvalue ordinates are the peaks; they must be dominated exactly
        for lam in op.eigenvalues[:20]:
            assert float(M(abs(lam.imag))) >= resolvent_norm(op, lam.imag) - 1e-9

    def test_growth_envelope_s_min_ignores_inner_peaks(self):
        # restricting to |s| >= 1 must not see the huge peaks near s = 0
        op = mixed_cluster(1.0, 2.0, 50, 500)
        full = resolvent_envelope_growth(op)
        outer = resolvent_envelope_growth(op, s_min=1.0)
        assert float(full(0.5)) > 100.0
        assert float(outer(0.5)) <= float(outer(1.5)) + 1e-12
        assert float(outer(0.0)) < 10.0

    def test_decay_envelope_power_law_cluster(self):
        # peaks at s = 1/n have height n^beta once n is large enough that a
        # mode's own damping distance beats the spacing to its neighbour
        # (for small n the neighbour is closer and the peak is higher)
        op = cluster_zero(2.0, 1000)
        m = resolvent_envelope_decay(op)
        ns = np.arange(4, 41)
        vals = np.array([float(m(1.0 / n)) for n in ns])
        assert np.all(vals >= ns ** 2.0 - 1e-9)
        assert np.all(vals <= 1.2 * ns ** 2.0)
        slope = np.polyfit(np.log(1.0 / ns), np.log(vals), 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.05)

    def test_decay_envelope_reciprocal_clamp(self):
        m = resolvent_envelope_decay(single_mode(-1.0))
        r = np.geomspace(1e-3, 1.0, 100)
        vals = m(r)
        assert np.allclose(vals, np.maximum(1.0, 1.0 / r), rtol=1e-12)

    def test_decay_envelope_non_increasing_and_dominating(self):
        # the envelope is the exact running supremum, so it dominates at
        # every r; r_grid is accepted and ignored
        op = cluster_zero(1.5, 300)
        r = np.geomspace(2e-3, 1.0, 800)
        m = resolvent_envelope_decay(op, r_grid=r)
        vals = m(r)
        assert np.all(np.diff(vals) <= 1e-9 * vals[:-1])
        norms = np.array([resolvent_norm(op, float(v)) for v in r])
        assert np.all(vals >= norms * (1.0 - 1e-9))
        assert np.all(vals >= 1.0 / r - 1e-9)


def _brute_envelope(lam: np.ndarray, lo: float, hi: float) -> float:
    """max(1, sup of ||R(i s)|| over lo <= |s| <= hi), by brute force.

    Each mode's term 1/|i s - lambda_n| is unimodal with its peak at
    Im lambda_n, so the supremum sits at +-lo, +-hi or an in-range +-Im lambda_n.
    """
    marks = np.abs(lam.imag)
    xs = np.concatenate([[lo, hi], marks[(marks >= lo) & (marks <= hi)]])
    xs = np.concatenate([xs, -xs])
    dist = np.min(np.abs(1j * xs[:, None] - lam[None, :]), axis=1)
    return max(1.0, float(np.max(1.0 / dist)))


_spectra = st.integers(min_value=1, max_value=40).flatmap(lambda n: st.tuples(
    st.lists(st.floats(min_value=-3.0, max_value=1.5), min_size=n, max_size=n),
    st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=n, max_size=n),
))


class TestExactEnvelopes:
    @given(_spectra, st.sampled_from([0.0, 1.0]), st.sampled_from(["growth", "decay"]),
           st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=1, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force_and_dominates_dense_scan(self, spectrum, s_min, side, fractions):
        log_damping, ordinates = spectrum
        lam = -(10.0 ** np.array(log_damping)) + 1j * np.array(ordinates)
        op = DiagonalOperator(lam)
        if side == "growth":
            env = resolvent_envelope_growth(op, s_min=s_min)
            x = s_min + 4.0 * np.array(fractions)
            want = [_brute_envelope(lam, s_min, v) for v in x]
            scan = np.linspace(s_min, x.max(), 2001)
        else:
            env = resolvent_envelope_decay(op)
            x = np.array(fractions)
            want = [max(1.0 / v, _brute_envelope(lam, v, 1.0)) for v in x]
            scan = np.linspace(x.min(), 1.0, 2001)
        assert env(x) == pytest.approx(np.array(want), rel=1e-12)
        # the supremum of the norm over the dense scan up to (from) each point
        norms = np.max(1.0 / np.min(np.abs(
            1j * np.concatenate([scan, -scan])[:, None] - lam[None, :]), axis=1).reshape(2, -1),
            axis=0)
        running = (np.maximum.accumulate(norms) if side == "growth"
                   else np.maximum.accumulate(norms[::-1])[::-1])
        assert np.all(env(scan) >= running * (1.0 - 1e-12))

    def test_window_of_nearest_ordinates_is_not_enough(self):
        # 100 heavily damped modes crowd the ordinates near 0, so the mode
        # that sets the norm at s = 0 and s = 0.05 is 100 ordinates away
        k = np.arange(1, 101)
        op = DiagonalOperator(np.concatenate([-100.0 + 0.001j * k, [-0.001 + 0.2j]]))
        M = resolvent_envelope_growth(op)
        assert float(M(0.0)) == pytest.approx(4.9999375, rel=1e-7)
        assert float(M(0.05)) == pytest.approx(6.66651852, rel=1e-8)
        assert float(M(0.2)) == pytest.approx(1000.0, rel=1e-12)

    def test_decay_clamp_holds_below_every_ordinate(self):
        m = resolvent_envelope_decay(single_mode(-1.0))
        assert float(m(1e-4)) == pytest.approx(1e4, rel=1e-12)


def _reference_orbit_norm(scenario: Scenario, t):
    """orbit_norm from the full times-by-modes matrix, kept as the reference."""
    amps = _orbit_amplitudes(scenario)
    sigma = scenario.operator.eigenvalues.real
    arr = np.asarray(t, dtype=float)
    vals = np.max(amps[None, :] * np.exp(np.outer(np.atleast_1d(arr), sigma)), axis=1)
    return float(vals[0]) if arr.ndim == 0 else vals.reshape(arr.shape)


def _assert_bitwise(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestOrbitNormMatchesReference:
    def test_every_orbit_kind(self):
        op = mixed_cluster(1.0, 2.0, 30, 30)
        x = np.random.default_rng(5).normal(size=(op.size, 2)) @ np.array([1.0, 1j])
        t = np.concatenate([[0.0], np.geomspace(1e-3, 1e4, 41)])
        for kind in ORBIT_KINDS:
            sc = Scenario(op, kind, omega=2.5, x=x)
            _assert_bitwise(orbit_norm(sc, t), _reference_orbit_norm(sc, t))

    def test_scalar_two_dimensional_and_zero_time(self):
        sc = Scenario(cluster_zero(2.0, 50), "ar_omega")
        for t in (0.0, 7.25, np.float64(3.0), np.geomspace(1.0, 1e3, 12).reshape(3, 4),
                  np.zeros(3), np.array([5.0]), np.empty(0)):
            _assert_bitwise(orbit_norm(sc, t), _reference_orbit_norm(sc, t))

    def test_mode_counts_around_the_block_size(self):
        t = np.geomspace(1.0, 1e4, 7)
        # three rows per block (a short last block), then one row per block
        for n in (_ORBIT_CELLS // 3, _ORBIT_CELLS + 3):
            sc = Scenario(cluster_infinity(1.0, n), "ainv")
            _assert_bitwise(orbit_norm(sc, t), _reference_orbit_norm(sc, t))

    @given(kind=st.sampled_from(ORBIT_KINDS),
           n=st.sampled_from([1, 3, 40, 2000, _ORBIT_CELLS + 5]),
           copies=st.sampled_from([1, 2]),
           levels=st.sampled_from([None, 3]),
           seed=st.integers(0, 2**32 - 1),
           times=st.lists(st.sampled_from([0.0, -0.0, 0.3, 7.0, 80.0, 1e3, 2e4])
                          | st.floats(0.0, 1e4), max_size=45),
           shape=st.sampled_from(["flat", "2d", "scalar"]))
    @settings(max_examples=150, deadline=None)
    def test_sweep_matches_reference(self, kind, n, copies, levels, seed, times, shape):
        # the sweep runs wherever times x modes exceeds _ORBIT_CELLS;
        # exactly duplicated modes tie at every time, repeated Re lambda
        # only in damping, and zero entries of x make zero amplitudes
        rng = np.random.default_rng(seed)
        re = -(10.0 ** rng.uniform(-3.0, 1.0, n))
        if levels is not None:
            re = rng.choice(re[:levels], n)
        lam = np.tile(re + 1j * rng.normal(size=n), copies)
        x = np.tile(rng.normal(size=n) * (rng.random(n) < 0.7), copies)
        sc = Scenario(DiagonalOperator(lam), kind, omega=2.5, x=x)
        t = np.array(times)
        if shape == "2d" and t.size % 3 == 0:
            t = t.reshape(3, -1)
        elif shape == "scalar" and t.size:
            t = t[0]
        _assert_bitwise(orbit_norm(sc, t), _reference_orbit_norm(sc, t))

    def test_memory_stays_bounded(self):
        # the full 61 x 40000 matrix and its exponential take 39 MB
        sc = Scenario(cluster_infinity(1.0, 40000), "ainv")
        t = np.geomspace(10.0, 1e4, 61)
        tracemalloc.start()
        try:
            orbit_norm(sc, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20


class TestOrbitSweep:
    @pytest.mark.parametrize("kind", ORBIT_KINDS)
    def test_edge_maximisers_equal_orbit_argmax(self, kind):
        # two copies of a mixed cluster: every maximum is tied between the
        # copies (and between the families' first modes, which coincide),
        # and np.argmax takes the first; the second copy's modes are split
        # into families one mode apart from the first's, so each of its
        # modes is numbered and sized apart from its twin
        op = mixed_cluster(1.0, 2.0, 3000, 600)
        twice = DiagonalOperator(np.tile(op.eigenvalues, 2), families=(3000, 600, 2999, 601))
        x = np.random.default_rng(3).normal(size=op.size)
        sc = Scenario(twice, kind, x=np.tile(x, 2))
        for t in (np.geomspace(1e-2, 1e4, 41), np.array([0.0, 5.0]), np.array([3.0])):
            _, modes = _orbit_sweep(sc, t, edges=True)
            for t_edge, mode in zip((t[0], t[-1]), modes):
                _, idx, size = orbit_argmax(sc, t_edge)
                assert twice.family_of(mode) == (idx, size)

    def test_modes_tied_within_rounding_stay_on_both_sides(self):
        # the two live modes cross at tc, where rounding alone decides
        # which is larger, time by time; a split there must keep both
        tc, sigma = 6.402234102518031, np.array([-1.130035444452298, -1.1266640410881095])
        re = np.concatenate([np.linspace(-2.5, -2.0, 2998), sigma])
        x = np.concatenate([np.zeros(2998), np.exp(-sigma * tc)])
        sc = Scenario(DiagonalOperator(re + 1j), "vector", x=x)
        t = tc * (1.0 + np.arange(-30, 30) * 2.2e-16)
        _assert_bitwise(orbit_norm(sc, t), _reference_orbit_norm(sc, t))

    def test_norms_near_underflow_are_evaluated_over_all_modes(self):
        # the first row narrows the later times to the less damped live
        # mode, which exact arithmetic keeps on top; at t = 744.8 both
        # products are subnormal and rounding puts the dropped one above
        re = np.concatenate([np.linspace(-3.0, -2.0, 2998), [-1.0002894279349282436, -1.0]])
        x = np.concatenate([np.zeros(2998), [96866.87193782, 96838.86239011]])
        sc = Scenario(DiagonalOperator(re + 1j), "vector", x=x)
        t = np.concatenate([[1.0, 744.8083533877623], np.linspace(745.0, 800.0, 28)])
        _assert_bitwise(orbit_norm(sc, t), _reference_orbit_norm(sc, t))

    def test_rows_near_underflow_do_not_narrow(self):
        # five live modes whose products are about 1e-280 at t = 400, far
        # below 1e-290 times the largest amplitude: their subnormal
        # exponentials carry too few bits to say which one is on top
        sigma = np.array([-1.8403110671961174, -1.817911859453735, -1.8013541778846744,
                          -1.7984625570440602, -1.7844503932937437])
        amps = np.array([6.907403897816848e+38, 8.875113641998851e+34, 1.1798044428860169e+32,
                         3.7109408955428176e+31, 1.3655948769440426e+29])
        re = np.concatenate([np.linspace(-2.5, -2.0, 2995), sigma])
        sc = Scenario(DiagonalOperator(re + 1j), "vector", x=np.concatenate([np.zeros(2995), amps]))
        t = 400.0 * (1.0 + np.arange(-40, 40) * 2.2e-13)
        _assert_bitwise(orbit_norm(sc, t), _reference_orbit_norm(sc, t))

    def test_sweep_evaluates_few_cells(self):
        # the maximiser of cluster_infinity(1) at t sits near mode t, so
        # the latest row bounds every earlier one near mode 10^4
        sc = Scenario(cluster_infinity(1.0, 40000), "ainv")
        t = np.geomspace(10.0, 1e4, 61)
        exps = []
        real_exp = np.exp

        def counted(x, *args, **kwargs):
            exps.append(np.size(x))
            return real_exp(x, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "exp", counted)
            orbit_norm(sc, t)
        assert sum(exps) < 61 * 40000 // 10


class TestNonFiniteTimes:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_orbit_functions_name_t(self, bad):
        sc = Scenario(cluster_zero(2.0, 50), "ar_omega")
        with pytest.raises(ValueError, match="t must be finite"):
            orbit_norm(sc, bad)
        with pytest.raises(ValueError, match="t must be finite"):
            orbit_norm(sc, np.array([1.0, bad]))
        with pytest.raises(ValueError, match="t must be finite"):
            orbit_argmax(sc, bad)

    @pytest.mark.parametrize("bad", [-100.0, -5e-324, np.array([1.0, -2.5])])
    def test_negative_times_name_t(self, bad):
        # the semigroup is defined for t >= 0 only; at t = -100 an
        # overflowing exp times a zero component gave NaN for the norm
        sc = Scenario(DiagonalOperator(np.array([-10 + 1j, -1 + 2j])), "vector",
                      x=np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="t must be non-negative"):
            orbit_norm(sc, bad)
        with pytest.raises(ValueError, match="t must be non-negative"):
            orbit_argmax(sc, bad)


def _reference_resolvent_peak(ordinates, damping, x):
    """_resolvent_peak with a clipped window on the unpadded spectrum, kept as the reference."""
    last = ordinates.size - 1
    j = np.searchsorted(ordinates, x)
    near = np.clip(j[:, None] + np.arange(-4, 4), 0, last)
    d = np.sqrt(np.min(damping[near] ** 2 + (x[:, None] - ordinates[near]) ** 2, axis=1))
    reach = np.minimum(d, 1.0)
    lo = np.searchsorted(ordinates, x - reach)
    hi = np.searchsorted(ordinates, x + reach, "right")
    wide = np.flatnonzero((lo < j - 4) | (hi > j + 4))
    if wide.size:
        counts = hi[wide] - lo[wide]
        starts = np.cumsum(counts) - counts
        cols = np.arange(int(counts.sum())) + np.repeat(lo[wide] - starts, counts)
        d2 = damping[cols] ** 2 + (np.repeat(x[wide], counts) - ordinates[cols]) ** 2
        d[wide] = np.sqrt(np.minimum.reduceat(d2, starts))
    return 1.0 / np.minimum(d, 1.0)


def _wide_rows(ordinates, damping, x):
    """How many x take the rescan: a mode within min(1, d) lies outside the window."""
    j = np.searchsorted(ordinates, x)
    d = 1.0 / _reference_resolvent_peak(ordinates, damping, x)
    lo = np.searchsorted(ordinates, x - d)
    hi = np.searchsorted(ordinates, x + d, "right")
    return int(np.sum((lo < j - 4) | (hi > j + 4)))


class TestResolventPeakMatchesReference:
    @staticmethod
    def _check(op, x):
        ordinates, damping = _folded_spectrum(op)
        got = _resolvent_peak(_padded_spectrum(ordinates, damping), x)
        _assert_bitwise(got, _reference_resolvent_peak(ordinates, damping, x))

    @staticmethod
    def _points(op):
        ordinates, _ = _folded_spectrum(op)
        return np.concatenate([
            [0.0, 1.0, ordinates[-1] * 1.5 + 1.0, ordinates[-1] + 1e3, math.inf],
            ordinates, np.nextafter(ordinates, 0.0), np.nextafter(ordinates, math.inf),
            np.linspace(0.0, ordinates[-1] + 2.0, 97),
        ])

    def test_spectra_narrower_than_the_window(self):
        for n in (1, 3, 7):
            for op in (cluster_infinity(1.0, n), cluster_zero(2.0, n), single_mode(-0.5 + 2j)):
                self._check(op, self._points(op))

    def test_rows_that_take_the_wide_rescan(self):
        k = np.arange(1, 101)
        crowded = DiagonalOperator(np.concatenate([-100.0 + 0.001j * k, [-0.001 + 0.2j]]))
        # beta < 2: the zero family's damping n^-beta outgrows its ordinate spacing n^-2
        for op in (mixed_cluster(0.5, 1.2, 16, 1000), mixed_cluster(1.0, 1.5, 40, 200), crowded):
            x = np.concatenate([self._points(op), np.geomspace(1e-4, 1.0, 200)])
            assert _wide_rows(*_folded_spectrum(op), x) > 0
            self._check(op, x)

    @staticmethod
    def _ends(op):
        ordinates, _ = _folded_spectrum(op)
        first, last = ordinates[0], ordinates[-1]
        return np.array([0.0, first, last, last + 0.5, last + 1.5, math.inf])

    def test_points_at_the_spectrum_ends(self):
        # there the ordinates just outside the window are sentinels
        for n in range(1, 10):
            for op in (cluster_infinity(1.0, n), cluster_zero(2.0, n),
                       DiagonalOperator(-2.0 + 0.1j * np.arange(n))):
                self._check(op, self._ends(op))

    def test_wide_rows_at_the_spectrum_ends(self):
        # heavily damped modes crowd one end, so reach is 1 and the row goes
        # wide over modes beyond the window; a mode far off the axis bounds it
        k = np.arange(1, 101)
        low = DiagonalOperator(np.concatenate([-100.0 + 0.001j * k, [-0.001 + 0.2j]]))
        high = DiagonalOperator(np.concatenate([-100.0 + 1j * (10.0 - 0.001 * k), [-0.001 + 9.8j]]))
        for op, wide in ((low, (0, 1)), (high, (2, 3))):
            ordinates, damping = _folded_spectrum(op)
            x = self._ends(op)
            for i in range(x.size):
                assert (_wide_rows(ordinates, damping, x[i:i + 1]) > 0) == (i in wide)
            self._check(op, x)

    def test_mode_just_outside_the_window(self):
        # eight heavily damped modes fill the window of x = 1.045; the mode
        # that sets the norm is the fifth ordinate below x, or above it
        crowd = -100.0 + 1j * (1.01 + 0.01 * np.arange(8))
        for lone in (-0.01 + 1.0j, -0.01 + 1.09j):
            spectrum = _folded_spectrum(DiagonalOperator(np.append(crowd, lone)))
            x = np.array([1.045])
            assert _wide_rows(*spectrum, x) == 1
            got = _resolvent_peak(_padded_spectrum(*spectrum), x)
            _assert_bitwise(got, _reference_resolvent_peak(*spectrum, x))
            assert got[0] == pytest.approx(1.0 / math.hypot(0.01, 0.045), rel=1e-12)

    def test_envelope_floor_points(self):
        for op in (cluster_infinity(1.0, 5), cluster_zero(2.0, 300),
                   mixed_cluster(1.5, 2.0, 16, 1000), single_mode(-2.0 + 0.5j)):
            for floor in (0.0, 1.0):
                self._check(op, np.array([floor]))


class TestBoundaryFunction:
    def test_inverse_orbit_values_at_origin(self):
        # F is the transform int_0^inf e^{-ist} f(t) dt of the damped orbit
        # f(t) = e^{lam t} x / lam, so for lam = -1, x = 1:
        # F(0) = (1/lam)/( -lam) ... componentwise w/(is - lam) with w = x/lam
        sc = Scenario(single_mode(-1.0), "ainv")
        assert boundary_function(sc, 0.0, 0)[0] == pytest.approx(-1.0, rel=1e-14)
        assert boundary_function(sc, 0.0, 1)[0] == pytest.approx(1j, rel=1e-14)

    def test_matches_laplace_transform_quadrature(self):
        # dual route: closed form vs direct transform of the orbit, by
        # mpmath on [0, 60] in unit panels; the tail beyond 60 is at most
        # e^{-48}/0.8
        lam = -0.8 + 1.5j
        sc = Scenario(single_mode(lam), "ar_omega", omega=1.0)
        for s in (0.0, 0.7, -2.3):
            closed = boundary_function(sc, s, 0)[0]
            with mp.workdps(30):
                z = mp.mpc(lam.real, lam.imag - s)
                transform = mp.quad(lambda t: mp.exp(z * t), mp.linspace(0, 60, 61))
            direct = complex(transform) * mode_weights(sc)[0]
            assert closed == pytest.approx(direct, abs=1e-9)

    def test_derivative_order_scaling(self):
        # each derivative multiplies by (-i) j / (is - lam)
        sc = Scenario(single_mode(-2.0 + 1j), "vector")
        lam = -2.0 + 1j
        s = 0.4
        f0 = boundary_function(sc, s, 0)[0]
        f1 = boundary_function(sc, s, 1)[0]
        f2 = boundary_function(sc, s, 2)[0]
        assert f1 == pytest.approx(f0 * (-1j) / (1j * s - lam), rel=1e-12)
        assert f2 == pytest.approx(f1 * (-1j) * 2.0 / (1j * s - lam), rel=1e-12)

    def test_cluster_zero_derivative_growth_bound(self):
        # |F^(j)(s)| <= C j! |s| m(|s|)^{j+1} near s = 0 for the
        # resolvent-smoothed orbit over the zero-cluster model
        op = cluster_zero(2.0, 200)
        sc = Scenario(op, "ar_omega")
        m = resolvent_envelope_decay(op)
        for s in (0.05, 0.2, 0.9):
            env = float(m(abs(s)))
            for j in (0, 1, 2):
                norm = np.max(np.abs(boundary_function(sc, s, j)))
                bound = math.factorial(j) * abs(s) * env ** (j + 1)
                assert norm <= 4.0 * bound


class TestArgmax:
    def test_reports_family_bookkeeping(self):
        sc = Scenario(mixed_cluster(1.0, 2.0, 100, 50), "ainv")
        value, idx, size = orbit_argmax(sc, 10.0)
        assert value == pytest.approx(float(orbit_norm(sc, 10.0)))
        assert size in (100, 50)
        assert 1 <= idx <= size
