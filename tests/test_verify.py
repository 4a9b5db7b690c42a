"""Tests for the verification experiments and their report mechanics."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ingham_rates import verify
from ingham_rates.kernels import (
    _CHUNK,
    _DEEP_SERIES_RADIUS,
    _FRACTION_DEPTHS,
    _FRACTION_EDGES,
    _SERIES_RADIUS,
    _SERIES_TERMS,
    _g_near,
    _jump_terms,
    bump_kernel,
    fudge_kernel,
    tent_kernel,
)
from ingham_rates.quadrature import QuadratureSpec, integrate
from ingham_rates.rate_functions import _VARIANTS, VARIANTS
from ingham_rates.semigroup_lab import (
    Scenario,
    cluster_infinity,
    cluster_zero,
    mixed_cluster,
    mode_weights,
    single_mode,
)
from ingham_rates.verify import (
    AdmissibilityError,
    TruncationRangeError,
    bound_table_report,
    check_asymptotic_regularity,
    check_mollifier_rate,
    check_parseval,
    compare_decay,
    convolution_defect_profile,
    fit_loglog,
    kernel_check_report,
    parseval_report,
    raw_oracle_report,
)

TENT = tent_kernel()
FUDGE = fudge_kernel()
BUMP = bump_kernel()


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

    def test_nan_scale_rejected(self):
        scenario = Scenario(single_mode(-1.0 + 1j), "vector")
        with pytest.raises(ValueError, match="positive"):
            check_parseval(scenario, TENT, 1.0, scale=math.nan)


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
    "bump": [(-mp.inf, -1, [1]), (-1, -0.5, [-31, -240, -720, -1040, -720, -192]),
             (-0.5, 0.5, [0]), (0.5, 1, [-31, 240, -720, 1040, -720, 192]),
             (1, mp.inf, [1])],
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


def _mpmath_g_n(x, n):
    """e^x E_n(x) at 30 digits, with the cut handled as in _mpmath_g."""
    if math.copysign(1.0, x.imag) < 0.0:
        return _mpmath_g_n(x.conjugate(), n).conjugate()
    with mp.workdps(30):
        z = mp.mpc(x.real, x.imag)
        return complex(mp.exp(z) * mp.expint(n, z))


def _reference_g_near(x, n=1):
    """kernels._g_near with its continued fraction stepping through every
    level of the deepest band whatever the points' depths."""
    g = np.empty(x.shape, dtype=complex)
    frac = np.abs(x.imag) >= 4.0 + 0.5 * np.abs(x.real)
    depths = _FRACTION_DEPTHS + 4 * (n - 1)
    # points sorted deepest first, so that each level updates a prefix; an
    # int8 band makes the stable sort a radix sort
    idx = np.flatnonzero(frac)
    band = np.searchsorted(_FRACTION_EDGES, np.abs(x[idx]), side="right").astype(np.int8)
    idx = idx[np.argsort(band, kind="stable")]
    depth = np.repeat(depths, np.bincount(band, minlength=depths.size))
    levels = np.arange(depths[0], 0, -1)
    active = np.searchsorted(-depth, -levels, side="right")  # points with depth >= k
    z = x[idx]
    f = z + (2 * depth + n)
    for k, m in zip(levels.tolist(), active.tolist()):  # f = (z + n + 2k - 2) - k (n + k - 1) / f
        fk = f[:m]
        np.divide(-(k * (n + k - 1)), fk, out=fk)
        fk += z[:m]
        fk += n + 2 * k - 2
    g[idx] = 1.0 / f

    rest = x[~frac]
    k = np.arange(1, math.ceil(math.e * np.max(np.abs(rest), initial=0.0)) + 26)
    shift = k - (n - 1)  # the term k = n - 1 is the Log x one
    weights = np.divide(1.0, shift, out=np.zeros(k.size), where=shift != 0)
    tail = np.empty_like(rest)
    step = _CHUNK // k.size
    for i in range(0, rest.size, step):  # terms (-x)^k / k! as one running product
        tail[i:i + step] = np.einsum("ij,j->i", np.cumprod(-rest[i:i + step, None] / k, axis=1),
                                     weights)
    if n == 1:
        g[~frac] = np.exp(rest) * (-np.euler_gamma - np.log(rest) - tail)
    else:
        psi = -np.euler_gamma + math.fsum(1.0 / j for j in range(1, n))
        lead = (-rest) ** (n - 1) / math.factorial(n - 1)
        g[~frac] = np.exp(rest) * (lead * (psi - np.log(rest)) + 1.0 / (n - 1) - tail)
    return g


def _reference_jump_terms(x, t, taylor):
    """kernels._jump_terms written plainly: q = -i/t divided out over the
    whole array, the asymptotic series for every k, T_k built as
    temporaries, and each k's H_k = e^x E_{k+1}(x) filled in a fresh array
    and multiplied by its coefficient k! (-q)^k taylor[k] there."""
    q = -1j / t
    near = np.abs(x) < (_DEEP_SERIES_RADIUS if taylor.size > 3 else _SERIES_RADIUS)
    y = 1.0 / x[~near]
    tk = np.ones(y.shape, dtype=complex)
    series = [None] * taylor.size
    for n in range(_SERIES_TERMS - 1, 0, -1):  # T_{n-1} = 1 - n y T_n
        tk = tk * y
        tk *= -n
        tk += 1.0
        if n - 1 < taylor.size:
            series[n - 1] = tk
    out = np.zeros(x.shape, dtype=complex)
    for k, d in enumerate(taylor):
        if d == 0.0:
            continue
        h = np.empty(x.shape, dtype=complex)
        h[near] = _g_near(x[near], k + 1)
        h[~near] = y * series[k]
        out += h * (d * math.factorial(k) * (-q) ** k)
    return out


def _jump_points():
    """x = i t w on a grid of a column of w and a row of times t, built from
    real parts as the defect engine builds it, and t.  |x| = t |w| falls on
    both sides of 40 and 60 and near 0, with Re x <= 0, off the cut at
    angles of w from 0 to pi and on it with Im x = +0.0 and -0.0."""
    t = np.array([[0.5, 1.0, 2.0]])
    radii = np.array([1e-6, 0.5, 3.0, 12.0, 19.9999, 20.0, 20.0001, 29.9999, 30.0, 30.0001,
                      39.9999, 40.0, 40.0001, 59.9999, 60.0, 60.0001, 150.0])
    turns = np.exp(1j * np.array([0.0, 0.2, 0.6, 1.0, 1.4, 0.5 * np.pi - 1e-9,
                                  0.5 * np.pi + 1e-9, 1.8, 2.4, 3.0, np.pi]))
    cut = np.empty(2 * radii.size, dtype=complex)  # Re w = +-0.0 gives Im x = +-0.0
    cut.real = np.repeat([0.0, -0.0], radii.size)
    cut.imag = np.tile(radii, 2)
    w = np.concatenate([np.outer(radii, turns).ravel(), cut])
    x = np.empty((w.size, t.size), dtype=complex)
    x.real = t * -w.imag[:, None]
    x.imag = t * w.real[:, None]
    return x, t


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

    # below t = 1 the bump's defect is good to about 1e-8 relative only: its
    # breakpoints' t^-6 terms cancel there
    @pytest.mark.parametrize("kernel,t_min", [(TENT, 0.1), (FUDGE, 0.1), (BUMP, 1.0)],
                             ids=["tent", "fudge", "bump"])
    @settings(max_examples=60, deadline=None)
    @given(sigma=st.floats(min_value=-5.0, max_value=2.0).map(lambda e: 10.0 ** e),
           omega=st.one_of(st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0]),
                           st.floats(min_value=-3.0, max_value=3.0)),
           t=st.floats(min_value=-1.0, max_value=4.0).map(lambda e: 10.0 ** e))
    def test_closed_form_matches_mpmath(self, kernel, t_min, sigma, omega, t):
        assume(t >= t_min)
        lam = complex(-sigma, omega)
        profile, _ = convolution_defect_profile(
            np.array([lam]), np.array([1.0 + 0j]), kernel, np.array([t]))
        # no absolute floor: approx's default 1e-12 would hide every defect below 1e-3
        assert profile[0] == pytest.approx(
            _mpmath_defect(lam, t, kernel.name), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("omega", [0.5, -0.5])
    @pytest.mark.parametrize("t", [100.0, 1e3])
    def test_plateau_edge_mode_matches_mpmath(self, omega, t):
        # at mu = -i lambda near 1/2, 1 - psi(mu) = 80 h^3 - 240 h^4 +
        # 192 h^5 with h = mu - 1/2 is tiny; summed in powers of mu about 0
        # its coefficients up to 1040 cancel to 8e-11, which put a relative
        # error of 1e-10 at t = 100 and 9e-8 at t = 1e3 on the pole term
        lam = complex(-1e-4, omega)
        profile, _ = convolution_defect_profile(
            np.array([lam]), np.array([1.0 + 0j]), BUMP, np.array([t]))
        # the defect is 2.6e-5 at t = 100 and 2.7e-8 at t = 1e3, so approx's
        # default absolute tolerance of 1e-12 would hide the error
        assert profile[0] == pytest.approx(_mpmath_defect(lam, t, "bump"), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("lam,t", [(-23.7 + 0.5j, 1.634), (-29.4 - 0.5j, 1.432),
                                       (-10.0 + 0.0j, 1.0)])
    def test_heavily_damped_bump_mode_matches_mpmath(self, lam, t):
        # |x| = t |lambda - ic| near 40: R_5 taken as G minus five terms
        # lost 40^5/5! of G's precision (relative error 2.9e-7 on the first
        # mode), and the asymptotic series from |x| = 40 on missed the
        # i pi e^x of the cut (4.2e-9 on the second)
        profile, _ = convolution_defect_profile(
            np.array([lam]), np.array([1.0 + 0j]), BUMP, np.array([t]))
        assert profile[0] == pytest.approx(_mpmath_defect(lam, t, "bump"), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("kernel", [TENT, FUDGE], ids=["tent", "fudge"])
    @pytest.mark.parametrize("t", [1.0, 4.0])
    def test_moderate_arguments_match_mpmath(self, kernel, t):
        # x = t (lambda - i) at the breakpoint c = 1 with |x| from 5 to 70,
        # across the left half-plane and on the cut: R_1 and R_2 taken as G
        # minus one or two terms lost up to |x|^k / k! of G's precision
        # there (9.4e-14 relative on tent, 7.1e-13 on fudge)
        radii = np.geomspace(5.0, 70.0, 9)
        turns = np.exp(1j * np.pi * np.array([0.55, 0.75, 0.95, 1.05, 1.25, 1.45]))
        for x in np.concatenate([np.outer(radii, turns).ravel(), -radii + 0j]).tolist():
            lam = x / t + 1j
            profile, _ = convolution_defect_profile(
                np.array([lam]), np.array([1.0 + 0j]), kernel, np.array([t]))
            assert profile[0] == pytest.approx(
                _mpmath_defect(lam, t, kernel.name), rel=2e-14, abs=0.0), lam

    def test_g_near_matches_mpmath(self):
        x = _g_near_points()
        ref = np.array([_mpmath_g(v) for v in x])
        rel = np.abs(_g_near(x) - ref) / np.abs(ref)
        assert rel.max() <= 1e-13, x[rel.argmax()]
        # the continued fraction's depth bands are meant for about 1e-15:
        # one band cut to the next row's depth still stays below 1e-13
        frac = np.abs(x.imag) >= 4.0 + 0.5 * np.abs(x.real)
        assert rel[frac].max() <= 5e-15, x[frac][rel[frac].argmax()]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_g_near_equals_reference(self, n):
        # the continued fraction starts at the deepest depth present, not
        # at the deepest band's: bit for bit the walk through every level
        x = _g_near_points()
        cut = x[np.abs(x.imag) < 4.0 + 0.5 * np.abs(x.real)]
        inputs = [x, cut, x[::-1], np.empty(0, dtype=complex)]
        inputs += [np.array([v]) for v in (-1e-12 + 0j, -2j, -10j, -13j, -20j, -30j, -39j,
                                           -20.0 + 1j, -3.0 - 14j)]
        for v in inputs:
            got, ref = _g_near(v, n), _reference_g_near(v, n)
            assert got.tolist() == ref.tolist()
            assert np.signbit(got.imag).tolist() == np.signbit(ref.imag).tolist()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_g_near_point_alone_equals_point_in_batch(self, n):
        # a matrix product summed the series of one row by another BLAS
        # path than a batch's, and moved the last bits of a lone point
        x = _g_near_points()
        batch = _g_near(x, n)
        alone = np.concatenate([_g_near(x[i:i + 1], n) for i in range(x.size)])
        assert alone.tobytes() == batch.tobytes()

    def test_jump_terms_equal_reference(self):
        # q from one row of times or a scalar, zero coefficients skipped,
        # (-1)^k in the coefficient and Horner in place: bit for bit the
        # plain form, signs of zero included, for every jump of the three
        # kernels and the unit vectors of the component tails
        x, t = _jump_points()
        assert np.any(np.signbit(x.imag) & (x.imag == 0.0))
        assert np.any(~np.signbit(x.imag) & (x.imag == 0.0))
        rows = [taylor for k in (TENT, FUDGE, BUMP) for _, taylor in k.complement[2]]
        rows += [np.eye(p)[p - 1] for p in range(1, 7)]
        for taylor in rows:
            ref = _reference_jump_terms(x, np.broadcast_to(t, x.shape), taylor)
            outs = [(_jump_terms(x, -1j / t, taylor), ref)]
            # a scalar q, as the component tails pass it, one time at a time
            outs += [(_jump_terms(x[:, j], -1j / float(tj), taylor), ref[:, j])
                     for j, tj in enumerate(t[0])]
            for got, want in outs:
                assert got.tolist() == want.tolist(), taylor
                for part in (np.real, np.imag):
                    assert np.signbit(part(got)).tolist() == np.signbit(part(want)).tolist(), taylor

    @pytest.mark.parametrize("n", [4, 6])
    def test_higher_order_g_near_matches_mpmath(self, n):
        # e^x E_n(x) for the remainders R_3 and R_5, out to |x| = 60, where
        # the bump's jumps switch to the asymptotic series; every third
        # point of the E1 set, to keep the 30-digit reference quick
        radii = np.array([40.0, 50.0, 59.99])
        a = (np.sqrt(5.0 * radii ** 2 - 64.0) - 4.0) / 2.5
        wide = np.concatenate([np.outer(radii, -np.exp(1j * np.linspace(0.0, 0.5, 4) * np.pi)).ravel(),
                               -radii - 0j, -a + 1j * (4.0 + 0.5 * a),
                               -a + 1j * (4.0 + 0.5 * a) * (1.0 - 1e-9)])
        x = np.concatenate([_g_near_points()[::3], wide, wide.conj()])
        ref = np.array([_mpmath_g_n(v, n) for v in x])
        rel = np.abs(_g_near(x, n) - ref) / np.abs(ref)
        # the series loses up to e^{|x| - |Re x|} < e^8 just below the arc
        assert rel.max() <= 2e-13, x[rel.argmax()]
        frac = np.abs(x.imag) >= 4.0 + 0.5 * np.abs(x.real)
        assert rel[frac].max() <= 2e-15, x[frac][rel[frac].argmax()]

    def test_argmax_points_at_dominant_mode(self):
        lams = np.array([-5.0 + 1j, -0.1 + 3j])
        ws = np.array([1.0 + 0j, 1.0 + 0j])
        profile, argmax = convolution_defect_profile(
            lams, ws, TENT, np.array([20.0]))
        assert argmax[0] == 1
        assert profile[0] > 0.0


    @pytest.mark.parametrize("weights", [[1.0, 1.0, 1.0], [], [[1.0, 1.0]], [1.0]],
                             ids=["longer", "empty", "2-d", "one"])
    def test_weights_must_match_the_eigenvalues(self, weights):
        # a longer list failed with a numpy broadcast error, and one weight
        # was broadcast to every mode of a chunk
        with pytest.raises(ValueError, match="weights"):
            convolution_defect_profile([-1.0 + 0j, -2.0 + 0j], weights, TENT, [1.0, 2.0])

    @pytest.mark.parametrize("t_grid", [[math.nan, 1.0], [1.0, math.nan], [math.nan],
                                        [1.0, math.inf], [], [[1.0, 2.0], [3.0, 4.0]], 2.0])
    def test_nan_times_rejected(self, t_grid):
        # [nan, 1] used to pass the grid check and give a NaN sup, and
        # [1, inf] a NaN sup with a divide warning; an empty grid raised
        # IndexError, and a 2-d one numpy's "truth value ... is ambiguous"
        with pytest.raises(ValueError, match="t_grid"):
            convolution_defect_profile([-1.0 + 0j], [1.0], TENT, t_grid)


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


    @pytest.mark.parametrize("kwargs,name", [({"r_list": (math.nan, 8.0)}, "r_list"),
                                             ({"r_list": (4.0, math.nan)}, "r_list"),
                                             ({"t_max": math.nan}, "t_max"),
                                             # +inf passed `t_max > 1` and was caught only by
                                             # the defect engine, whose message names t_grid
                                             ({"t_max": math.inf}, "t_max"),
                                             ({"t_max": -math.inf}, "t_max"),
                                             # so did an infinite radius
                                             ({"r_list": (4.0, math.inf)}, "r_list"),
                                             ({"r_list": (math.inf,)}, "r_list"),
                                             ({"r_list": (4.0, 1e308)}, "r_list"),
                                             ({"points": 0}, "points")])
    def test_nan_radii_and_horizon_rejected(self, kwargs, name):
        scenario = Scenario(single_mode(-1.0 + 1j), "vector")
        with pytest.raises(ValueError, match=name):
            check_mollifier_rate(scenario, TENT, **kwargs)


def _per_radius_rows(scenario, kernel, r_list=(4.0, 8.0, 16.0, 32.0), t_max=20.0, points=39):
    """E(R) as check_mollifier_rate computed it before its one stacked pass:
    one convolution_defect_profile call per radius."""
    lam, w = scenario.operator.eigenvalues, mode_weights(scenario)
    t_grid = np.linspace(1.0, t_max, points)
    return [float(np.max(convolution_defect_profile(lam / r, w, kernel, r * t_grid)[0]))
            for r in r_list]


class TestMollifierStackedPass:
    @pytest.mark.parametrize("kernel", [TENT, FUDGE], ids=["tent", "fudge"])
    @pytest.mark.parametrize("orbit", ["vector", "ar_omega"])
    @pytest.mark.parametrize("operator", [cluster_zero(2.0, 1), cluster_zero(2.0, 32),
                                          cluster_infinity(1.0, 32)],
                             ids=["zero-1", "zero-32", "infinity-32"])
    @pytest.mark.parametrize("chunk", [None, 5 * 39], ids=["one-chunk", "chunks-of-5-rows"])
    def test_rows_equal_per_radius_loop(self, kernel, orbit, operator, chunk, monkeypatch):
        # every radius's modes lambda/R with times R t in one engine pass,
        # each radius taking the max over its own block; chunks of 5 rows
        # cut across the radius blocks of 32 modes
        if chunk is not None:
            monkeypatch.setattr(verify, "_CHUNK", chunk)
        scenario = Scenario(operator, orbit)
        report = check_mollifier_rate(scenario, kernel)
        assert [row[1] for row in report.rows] == _per_radius_rows(scenario, kernel)

    def test_lone_series_point_agrees_bit_for_bit(self):
        # at R = 8 and 16 one jump of the per-radius loop has a single
        # point in _g_near's series branch, which the stacked pass holds in
        # a batch: its sum takes the same bits either way
        scenario = Scenario(cluster_infinity(1.5, 4), "vector")
        stacked = [row[1] for row in check_mollifier_rate(scenario, TENT).rows]
        assert stacked == _per_radius_rows(scenario, TENT)


class TestAsymptoticRegularity:
    def test_kernel_without_plateau_is_rejected(self):
        scenario = Scenario(cluster_zero(2.0, 50), "vector")
        with pytest.raises(AdmissibilityError, match="identically 1 near 0"):
            check_asymptotic_regularity(scenario, FUDGE)

    def test_high_frequency_scenarios_are_rejected(self):
        scenario = Scenario(cluster_infinity(1.0, 50), "vector")
        with pytest.raises(ValueError, match=r"Im lambda"):
            check_asymptotic_regularity(scenario, TENT)

    @pytest.mark.parametrize("kernel", [TENT, BUMP], ids=["tent", "bump"])
    def test_profile_rows_finite_and_stable(self, kernel):
        scenario = Scenario(cluster_zero(2.0, 100), "vector")
        t_grid = np.geomspace(10.0, 1e3, 21)
        report = check_asymptotic_regularity(scenario, kernel, t_grid=t_grid)
        assert len(report.rows) == 21
        for (t, defect, ref, product), t_expected in zip(report.rows, t_grid):
            assert t == pytest.approx(t_expected)
            assert ref == pytest.approx(1.0 / t)
            assert product == pytest.approx(t * defect, rel=1e-12)
        assert report.passed  # all values finite
        assert np.isfinite(report.constant_stability)
        assert report.metadata["kernel"] == kernel.name

    @pytest.mark.parametrize("t_grid", [[], np.tile(np.geomspace(10.0, 1e3, 5), (2, 1))],
                             ids=["empty", "2-d"])
    def test_grid_must_be_a_non_empty_row(self, t_grid):
        scenario = Scenario(cluster_zero(2.0, 10), "vector")
        with pytest.raises(ValueError, match="t_grid"):
            check_asymptotic_regularity(scenario, TENT, t_grid=t_grid)

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

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_builds_the_envelopes_its_variant_composes(self, monkeypatch, variant):
        built = []

        def spy(name):
            make = getattr(verify, f"resolvent_envelope_{name}")

            def counted(op, **kwargs):
                built.append((name, kwargs.get("s_min")))
                return make(op, **kwargs)
            return counted

        class Stop(Exception):
            pass

        def make_bound(variant, **kwargs):
            raise Stop

        for name in ("growth", "decay"):
            monkeypatch.setattr(verify, f"resolvent_envelope_{name}", spy(name))
        monkeypatch.setattr(verify, "make_bound", make_bound)
        with pytest.raises(Stop):
            compare_decay(Scenario(mixed_cluster(1.0, 2.0, 20, 20), "ainv"), variant)
        spec = _VARIANTS[variant]
        # a two-sided bound leaves |s| < 1 to the decay envelope
        assert built == ([("growth", 1.0 if spec.decay else 0.0)] if spec.growth else []) \
            + ([("decay", None)] if spec.decay else [])

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

    @pytest.mark.parametrize("grid", [
        np.geomspace(10.0, 1e4, 41)[::-1],                       # decreasing
        np.concatenate([[10.0, 10.0], np.geomspace(20.0, 1e4, 39)]),  # repeated
        np.concatenate([np.geomspace(10.0, 1e4, 40), [math.nan]]),
        np.concatenate([np.geomspace(10.0, 1e4, 40), [math.inf]]),
        np.concatenate([[10.0, math.nan], np.geomspace(20.0, 1e4, 39)]),
    ])
    def test_grid_must_be_finite_and_strictly_increasing(self, grid):
        # an unsorted grid would swap the first- and last-decade statistics
        # and the truncation edges
        scenario = Scenario(cluster_infinity(1.0, 40000), "ainv")
        with pytest.raises(ValueError, match="finite, positive and strictly increasing"):
            compare_decay(scenario, "infinity_smooth", c=0.45, t_grid=grid)

    @pytest.mark.parametrize("grid", [np.tile(np.geomspace(10.0, 1e4, 10), (4, 1)),
                                      np.float64(100.0), np.empty(0)],
                             ids=["4x10", "scalar", "empty"])
    def test_grid_must_be_one_dimensional(self, grid):
        # checked before the validity threshold reads t_grid[0], which
        # raised numpy's own "truth value ... ambiguous" and IndexError
        scenario = Scenario(cluster_infinity(1.0, 2000), "ainv")
        with pytest.raises(ValueError, match="t_grid"):
            compare_decay(scenario, "infinity_smooth", c=0.45, t_grid=grid)

    def test_grid_at_or_below_zero_is_below_the_validity_threshold(self):
        scenario = Scenario(cluster_infinity(1.0, 2000), "ainv")
        with pytest.raises(ValueError, match="validity threshold"):
            compare_decay(scenario, "infinity_smooth", c=0.45,
                          t_grid=np.linspace(-10.0, 1e4, 41))

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
        # NaN and infinite rows used to pass and give (nan, nan)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="positive finite"):
                fit_loglog([(1, 1), (2, 2), (3, bad), (4, 4), (5, 5)])
            with pytest.raises(ValueError, match="positive finite"):
                fit_loglog([(1, 1), (2, 2), (bad, 3), (4, 4), (5, 5)])


class TestReportBuilders:
    """The pass rules of the CLI's closed-form experiments, on made-up arrays."""

    T = np.geomspace(10.0, 1e4, 61)

    def test_bound_table_passes_a_bound_of_the_expected_slope(self):
        report = bound_table_report(self.T, self.T ** -0.5, -0.5, {"variant": "v"})
        assert report.passed
        assert report.slopes["bound"][0] == pytest.approx(-0.5)
        assert report.metadata == {"variant": "v", "expected_slope": -0.5}
        assert report.rows[0] == (10.0, 10.0 ** -0.5, 10.0 ** -0.5, 1.0)

    def test_bound_table_names_each_broken_rule(self):
        assert bound_table_report(self.T, self.T ** -0.5, -1.0, {}).failures == [
            "fitted slope -0.5000 deviates from the closed-form exponent -1.0000"
            " by more than 0.05"]
        rising = bound_table_report(self.T, self.T - 20.0, None, {})
        assert rising.failures == ["bound values must be positive",
                                   "bound values must be non-increasing in t"]
        assert rising.metadata == {} and rising.rows[0][2] == 1.0

    def test_kernel_check_compares_against_the_closed_form(self):
        s = np.array([0.0, 1.5, 3.0])
        closed = np.array([float(TENT.freq_eval(np.asarray(v))) for v in s])
        report = kernel_check_report(TENT, s, closed + 2e-6)
        assert report.failures == ["numeric transform deviates from the closed form"
                                   " by 2.000e-06 (tolerance 1e-06)"]
        assert math.isnan(report.rows[2][3])  # the closed form vanishes at s = 3
        assert kernel_check_report(TENT, s, closed).passed

    @pytest.mark.parametrize("kernel", [TENT, FUDGE, BUMP], ids=["tent", "fudge", "bump"])
    def test_kernel_check_closed_column_is_the_pointwise_transform(self, kernel):
        # one array call gives each point the bits it gets alone
        s = np.concatenate([np.linspace(0.0, 2.0, 9), np.linspace(-3.0, 3.0, 2001)])
        report = kernel_check_report(kernel, s, np.zeros(s.size))
        pointwise = [float(kernel.freq_eval(np.asarray(v))) for v in s.tolist()]
        assert np.array([row[2] for row in report.rows]).tobytes() == \
            np.array(pointwise).tobytes()

    def test_parseval_and_raw_oracle_fail_per_point(self):
        t = np.array([1.0, 2.0])
        assert parseval_report(t, [1e-7, 2e-6], {}).failures == [
            "residual 2.000e-06 at t=2 exceeds 1e-06"]
        report = raw_oracle_report(t, np.array([1.0, 20.0]), np.array([1.0, 1.0]), {})
        assert report.failures == ["raw/closed ratio 20 at t=2 leaves [0.1, 10]"]
        assert report.rows[1] == (2.0, 20.0, 1.0, 20.0)
