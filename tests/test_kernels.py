"""Tests for the smoothing kernels and their transform identities.

All kernels are normalised to unit mass, so the frequency side satisfies
psi(0) = int phi = 1 and the time-domain closed forms carry a 1/(2*pi)
relative to the unnormalised trigonometric expressions.
"""

import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from ingham_rates.kernels import (
    Kernel,
    bump_kernel,
    fudge_kernel,
    numeric_fourier,
    tail_integral,
    tent_kernel,
)
from ingham_rates.quadrature import EnvelopeError, integrate_oscillatory
from ingham_rates.verify import KERNEL_MATCH_TOLERANCE

TENT = tent_kernel()
FUDGE = fudge_kernel()

SIX_POINTS = (0.0, 0.25, 0.5, 0.75, 1.0, 2.0)


class TestTentKernel:
    def test_time_domain_closed_values(self):
        assert TENT.time_eval(np.array(0.0)) == pytest.approx(
            3.0 / (4.0 * math.pi), rel=1e-14)
        assert TENT.time_eval(np.array(math.pi)) == pytest.approx(
            2.0 / math.pi ** 3, rel=1e-12)
        assert TENT.time_eval(np.array(2 * math.pi)) == pytest.approx(
            -1.0 / math.pi ** 3, rel=1e-12)

    def test_frequency_plateau_ramp_support(self):
        psi = TENT.freq_eval
        assert psi(np.array(0.0)) == 1.0
        assert psi(np.array(0.4)) == 1.0
        # the ramp joins psi(1/2) = 1 to psi(1) = 0 continuously, so its
        # slope is -2: a unit-slope ramp on [1/2, 1] would jump at 1/2,
        # which no integrable kernel transform can do
        assert psi(np.array(0.75)) == pytest.approx(0.5, rel=1e-14)
        assert psi(np.array(0.6)) == pytest.approx(0.8, rel=1e-14)
        assert psi(np.array(2.0)) == 0.0
        assert psi(np.array(-0.75)) == pytest.approx(0.5, rel=1e-14)

    def test_taylor_patch_is_seamless(self):
        # the series below |t| = 3 and the direct form from there on meet
        # to rounding: phi changes by about 3e-16 relative over the step
        below = TENT.time_eval(np.array(np.nextafter(3.0, 0.0)))
        above = TENT.time_eval(np.array(3.0))
        assert below == pytest.approx(above, rel=2e-15)

    def test_evenness(self):
        t = np.linspace(0.1, 30.0, 57)
        assert np.allclose(TENT.time_eval(t), TENT.time_eval(-t), rtol=1e-14)

    def test_admissibility_flags(self):
        assert TENT.flat_near_zero
        # the plateau ends at s = 1/2
        assert TENT.freq_eval(np.array(0.5)) == 1.0
        assert TENT.freq_eval(np.array(0.5 + 1e-9)) < 1.0


class TestFudgeKernel:
    def test_time_domain_closed_values(self):
        assert FUDGE.time_eval(np.array(0.0)) == pytest.approx(
            2.0 / (3.0 * math.pi), rel=1e-14)
        assert FUDGE.time_eval(np.array(math.pi)) == pytest.approx(
            2.0 / math.pi ** 3, rel=1e-12)

    def test_frequency_is_clipped_parabola(self):
        psi = FUDGE.freq_eval
        assert psi(np.array(0.0)) == 1.0
        assert psi(np.array(0.5)) == pytest.approx(0.75, rel=1e-14)
        assert psi(np.array(1.0)) == 0.0
        assert psi(np.array(1.3)) == 0.0

    def test_no_plateau_near_zero(self):
        assert not FUDGE.flat_near_zero
        # psi drops immediately off s = 0
        assert FUDGE.freq_eval(np.array(0.05)) < 1.0

    def test_taylor_patch_is_seamless(self):
        below = FUDGE.time_eval(np.array(np.nextafter(3.0, 0.0)))
        above = FUDGE.time_eval(np.array(3.0))
        assert below == pytest.approx(above, rel=2e-15)


# Hand-written time profiles and trigonometric components that the
# kernels stated before they were derived from ``freq_pieces``; kept
# verbatim as the reference the derivation must reproduce bit for bit from
# the series switch at |t| = 3 on.
_TAYLOR_RADIUS = 3.0


def _tent_time(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    return (2.0 / math.pi) * ((np.cos(0.5 * t) - np.cos(t)) / (t * t))


def _fudge_time(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    return (2.0 / math.pi) * ((np.sin(t) / t - np.cos(t)) / (t * t))


def _mp_time(kernel_name: str, t: float) -> float:
    """The tent or fudge profile at t != 0, at 40 digits."""
    with mp.workdps(40):
        t = mp.mpf(t)
        if kernel_name == "tent":
            return float(2 * (mp.cos(t / 2) - mp.cos(t)) / (mp.pi * t * t))
        return float(2 * (mp.sin(t) / t - mp.cos(t)) / (mp.pi * t * t))


_TENT_COMPONENTS = (
    (2.0 / math.pi, "cos", 0.5, 2),
    (-2.0 / math.pi, "cos", 1.0, 2),
)
_FUDGE_COMPONENTS = (
    (2.0 / math.pi, "sin", 1.0, 3),
    (-2.0 / math.pi, "cos", 1.0, 2),
)


def _dense_grid() -> np.ndarray:
    seam = [np.nextafter(_TAYLOR_RADIUS, 0.0), _TAYLOR_RADIUS,
            np.nextafter(_TAYLOR_RADIUS, 1.0)]
    half = np.concatenate([
        [0.0, 5e-324, 1e-300, 1e-160], seam,
        np.linspace(0.0, 2e-4, 20001),
        np.geomspace(1e-12, 1e6, 4001),
        np.linspace(0.0, 60.0, 60001),
    ])
    return np.concatenate([half, -half])


class TestDerivedFromPieces:
    @pytest.mark.parametrize("kernel,reference,components", [
        (TENT, _tent_time, _TENT_COMPONENTS),
        (FUDGE, _fudge_time, _FUDGE_COMPONENTS),
    ], ids=["tent", "fudge"])
    def test_matches_hand_written_forms_bit_for_bit(self, kernel, reference, components):
        t = _dense_grid()
        t = t[np.abs(t) >= _TAYLOR_RADIUS]
        assert kernel.time_eval(t).tobytes() == reference(t).tobytes()
        assert kernel._components == components

    @pytest.mark.parametrize("kernel", [TENT, FUDGE], ids=["tent", "fudge"])
    def test_series_matches_mpmath(self, kernel):
        # below |t| = 3 the series takes over from the hand-written forms,
        # which cancel there: the 6-term series up to |t| = 1e-4 that came
        # before left them off by 2.1e-8 (tent) and 3.2e-8 (fudge) just above
        t = np.concatenate([np.geomspace(1e-6, 3.0, 60), np.linspace(0.9e-4, 1.1e-4, 5),
                            np.linspace(2.5, 3.0, 11)[:-1], [np.nextafter(3.0, 0.0)]])
        ref = np.array([_mp_time(kernel.name, v) for v in t])
        got = kernel.time_eval(np.concatenate([t, -t]))
        assert (np.abs(got[:t.size] - ref) / np.abs(ref)).max() <= 2e-14
        assert np.array_equal(got[:t.size], got[t.size:])

    def test_kernels_are_cached(self):
        assert tent_kernel() is TENT
        assert fudge_kernel() is FUDGE
        assert bump_kernel() is bump_kernel()

    def test_a_kernel_is_its_name_and_pieces(self):
        assert list(inspect.signature(Kernel).parameters) == ["name", "freq_pieces"]
        rebuilt = Kernel("tent", TENT.freq_pieces)
        assert rebuilt is not TENT
        assert rebuilt == TENT and hash(rebuilt) == hash(TENT)
        assert Kernel("ramp", TENT.freq_pieces) != TENT
        assert Kernel("tent", FUDGE.freq_pieces) != TENT

    @pytest.mark.parametrize("factory", [tent_kernel, fudge_kernel, bump_kernel],
                             ids=["tent", "fudge", "bump"])
    def test_rebuilt_kernel_derives_the_same_bits(self, factory):
        made = factory()
        rebuilt = Kernel(made.name, made.freq_pieces)
        assert rebuilt.flat_near_zero == made.flat_near_zero
        assert rebuilt._components == made._components
        assert rebuilt._series == made._series
        (breaks, polys, jumps), (breaks0, polys0, jumps0) = rebuilt.complement, made.complement
        assert breaks.tobytes() == breaks0.tobytes()
        assert [(c, p.tobytes()) for c, p in polys] == [(c, p.tobytes()) for c, p in polys0]
        assert [(c, d.tobytes()) for c, d in jumps] == [(c, d.tobytes()) for c, d in jumps0]
        # across the switch from the series to the trigonometric form
        t = np.concatenate([np.linspace(-6.0, 6.0, 4801), np.nextafter(3.0, [0.0, 6.0])])
        assert rebuilt.time_eval(t).tobytes() == made.time_eval(t).tobytes()
        assert rebuilt.freq_eval(t).tobytes() == made.freq_eval(t).tobytes()

    def test_triangle_transform(self):
        # psi = max(0, 1 - |s|) has a kink at s = 0, so its time profile
        # (1 - cos t)/(pi t^2) carries a frequency-0 component
        tri = Kernel("triangle", ((0.0, 1.0, (1.0, -1.0)),))
        assert not tri.flat_near_zero
        t = _dense_grid()
        small = np.abs(t) < _TAYLOR_RADIUS
        safe = np.where(small, 1.0, t)
        # (1 - cos t)/(pi t^2) = 2 sin^2(t/2)/(pi t^2), without the cancellation
        exact = np.where(small, np.sinc(t / (2.0 * math.pi)) ** 2 / (2.0 * math.pi),
                         2.0 * np.sin(0.5 * safe) ** 2 / (math.pi * safe * safe))
        err = np.abs(tri.time_eval(t) - exact)
        # the series is accurate to rounding; the direct form and the
        # reference each to a few ulps of the numerator 1 - cos t
        assert np.all(err[small] <= 1e-15 * exact[small])
        eps = np.finfo(float).eps
        assert np.all(err[~small] * math.pi * t[~small] ** 2 <= 8.0 * eps)
        for s in (0.0, 0.25, 0.5, 0.75, 1.0, 2.0):
            numeric = numeric_fourier(tri, s)
            assert abs(numeric - float(tri.freq_eval(np.array(s)))) <= KERNEL_MATCH_TOLERANCE


    def test_c2_plateau_pieces_build_the_bump(self):
        # psi = 1 - S(2s - 1) on [1/2, 1], S(u) = 10u^3 - 15u^4 + 6u^5,
        # gives terms down to t^-6, which cancel to O(1) out to |t| = 3,
        # where the 24-term series of every kernel takes over
        shoulder = 1.0 - Polynomial([0.0, 0.0, 0.0, 10.0, -15.0, 6.0])(Polynomial([-1.0, 2.0]))
        pieces = ((0.0, 0.5, (1.0,)), (0.5, 1.0, tuple(shoulder.coef.tolist())))
        bump = Kernel("bump", pieces)
        assert bump == bump_kernel()
        assert {p for *_, p in bump._components} == {4, 5, 6}
        assert len(bump._series) == 24


class TestFourierPairs:
    @pytest.mark.parametrize("kernel", [TENT, FUDGE], ids=["tent", "fudge"])
    @pytest.mark.parametrize("s", SIX_POINTS)
    def test_numeric_transform_matches_closed_form(self, kernel, s):
        numeric = numeric_fourier(kernel, s)
        closed = float(kernel.freq_eval(np.array(s)))
        assert abs(numeric - closed) <= 1e-6

    def test_unit_mass(self):
        for kernel in (TENT, FUDGE):
            assert kernel.freq_eval(np.array(0.0)) == 1.0
            assert numeric_fourier(kernel, 0.0) == pytest.approx(1.0, abs=1e-8)


class TestScaling:
    @given(st.floats(min_value=0.1, max_value=50.0),
           st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=40, deadline=None)
    def test_frequency_scaling_rule(self, scale, s):
        assert TENT.freq(s, scale) == float(TENT.freq_eval(np.array(s / scale)))

    @given(st.floats(min_value=0.1, max_value=20.0),
           st.floats(min_value=-10.0, max_value=10.0))
    @settings(max_examples=40, deadline=None)
    def test_time_scaling_rule(self, scale, t):
        assert TENT.time(t, scale) == pytest.approx(
            scale * float(TENT.time_eval(np.array(scale * t))), rel=1e-14)

    def test_scaled_mass_is_invariant(self):
        # int scale*phi(scale*t) dt = 1 for any scale: finite window plus
        # the analytic tails of the unscaled kernel
        from ingham_rates.quadrature import QuadratureSpec, integrate
        scale, window = 4.0, 50.0
        spec = QuadratureSpec(oscillation_frequency=scale)
        body = integrate(lambda t: TENT.time(t, scale), -window, window, spec)
        tails = 2.0 * tail_integral(TENT, scale * window)
        assert body.value + tails == pytest.approx(1.0, abs=1e-8)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            TENT.time(1.0, 0.0)
        with pytest.raises(ValueError, match="positive"):
            TENT.freq(1.0, -2.0)
        # NaN used to pass the check: freq(0.3, scale=nan) returned 0.0
        with pytest.raises(ValueError, match="positive"):
            TENT.freq(0.3, scale=math.nan)
        with pytest.raises(ValueError, match="positive"):
            TENT.time(0.3, scale=math.nan)


def _bump_shoulder(s):
    return 1 - (10 * (2 * s - 1) ** 3 - 15 * (2 * s - 1) ** 4 + 6 * (2 * s - 1) ** 5)


def _mp_bump_time(t: float) -> float:
    """phi(t) = (1/pi) (sin(t/2)/t + int_{1/2}^1 psi(s) cos(s t) ds) at 40 digits."""
    with mp.workdps(40):
        t = mp.mpf(t)
        head = mp.mpf(1) / 2 if t == 0 else mp.sin(t / 2) / t
        ramp = mp.quad(lambda s: _bump_shoulder(s) * mp.cos(s * t), [0.5, 0.75, 1])
        return float((head + ramp) / mp.pi)


def _mp_bump_tail(t: float) -> float:
    """int_t^inf phi = 1/2 - (1/pi) int_0^1 psi(s) sin(s t) / s ds at 30 digits."""
    with mp.workdps(30):
        t = mp.mpf(t)
        head = mp.quad(lambda s: mp.sin(s * t) / s, [0, 0.5])
        ramp = mp.quad(lambda s: _bump_shoulder(s) * mp.sin(s * t) / s, [0.5, 0.75, 1])
        return float(mp.mpf(1) / 2 - (head + ramp) / mp.pi)


class TestBumpKernel:
    BUMP = bump_kernel()

    def test_plateau_and_support(self):
        psi = self.BUMP.freq_eval
        assert psi(np.array(0.0)) == pytest.approx(1.0, abs=1e-14)
        assert psi(np.array(0.4)) == pytest.approx(1.0, abs=1e-14)
        assert psi(np.array(1.1)) == 0.0
        assert self.BUMP.flat_near_zero

    def test_ramp_is_monotone_within_unit_band(self):
        s = np.linspace(0.5, 1.0, 400)
        psi = self.BUMP.freq_eval(s)
        assert np.all(np.diff(psi) <= 1e-15)
        assert np.all((psi >= 0.0) & (psi <= 1.0))

    def test_tabulated_mass(self):
        # the closed-form plateau keeps the unit mass the table once carried
        assert self.BUMP.freq_eval(np.array(0.0)) == 1.0
        assert numeric_fourier(self.BUMP, 0.0) == pytest.approx(1.0, abs=1e-8)

    def test_transform_is_c2_at_the_breakpoints(self):
        # the shoulder meets the plateau (1) at s = 1/2 and zero at s = 1
        # with its first and second derivatives 0 at both ends
        shoulder = Polynomial(self.BUMP.freq_pieces[1][2])
        assert [shoulder.deriv(m)(0.5) if m else shoulder(0.5) for m in range(3)] == [1.0, 0.0, 0.0]
        assert [shoulder.deriv(m)(1.0) if m else shoulder(1.0) for m in range(3)] == [0.0, 0.0, 0.0]

    def test_time_profile_matches_mpmath(self):
        # both sides of the series switch at |t| = 3, where the direct form
        # cancels most; the measured worst is 2.3e-15 just above it
        seam = [2.9, np.nextafter(3.0, 0.0), 3.0, np.nextafter(3.0, 4.0), 3.1]
        t = np.concatenate([[0.0, 1e-6, 1e-3, 0.1, 1.0], seam, np.geomspace(1e-6, 200.0, 40)])
        ref = np.array([_mp_bump_time(v) for v in t])
        assert np.abs(self.BUMP.time_eval(t) - ref).max() <= 5e-15
        assert np.array_equal(self.BUMP.time_eval(-t), self.BUMP.time_eval(t))

    def test_quartic_decay_on_grid(self):
        # the third derivative of psi jumps by 480 at s = 1/2 and s = 1 and
        # at their mirrors, so t^4 |phi(t)| approaches an envelope of height
        # 4 * 480 / (2 pi); int |t| |phi(t)| dt is finite
        envelope = 960.0 / math.pi
        t = np.geomspace(5.0, 1e4, 40001)
        scaled = np.abs(self.BUMP.time_eval(t)) * t ** 4
        assert scaled.max() <= 1.2 * envelope
        late = t >= 1e3
        assert 0.99 * envelope <= scaled[late].max() <= 1.01 * envelope

    @pytest.mark.parametrize("t", [1e-3, 0.5, 2.9, 3.0, 3.5, 10.0, 100.0])
    def test_tail_matches_mpmath(self, t):
        # 1/2 minus the integrated series below |t| = 3, the component
        # tails from there on; the measured worst is 4.5e-14 at t = 3.5
        assert tail_integral(self.BUMP, t) == pytest.approx(_mp_bump_tail(t), abs=1e-13)

    def test_transform_round_trip_at_interior_points(self):
        for s in (0.0, 0.3, 0.6, 0.9):
            numeric = numeric_fourier(self.BUMP, s)
            closed = float(self.BUMP.freq_eval(np.array(s)))
            assert abs(numeric - closed) <= 1e-6

    def test_construction_is_cached(self):
        assert bump_kernel() is self.BUMP


class TestLeibnizTail:
    def test_exponential_envelope_closed_form(self):
        # int_0^inf e^{-s} cos(s) ds = 1/2
        res = integrate_oscillatory(lambda s: np.exp(-s), 1.0, 0.0)
        assert res.converged
        assert res.value == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 10.0])
    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("env,env_name", [
        (lambda s: s ** -2.0, "inverse_square"),
        (lambda s: s ** -1.5, "inverse_three_halves"),
        (lambda s: np.exp(-s), "exponential"),
    ], ids=["inverse_square", "inverse_three_halves", "exponential"])
    def test_alternating_bound_matrix(self, alpha, t, env, env_name):
        res = integrate_oscillatory(env, alpha, t)
        assert res.converged
        assert abs(res.value) <= (4.0 / alpha) * float(env(np.array(t))) + 1e-12

    def test_increasing_envelope_rejected(self):
        with pytest.raises(EnvelopeError):
            integrate_oscillatory(lambda s: np.exp(s), 1.0, 0.0)


class TestPrimitiveTail:
    def test_tent_tail_decays_like_reciprocal(self):
        # |int_t^inf phi| <= C / t with C stable under sampling refinement
        coarse = np.geomspace(1.0, 1e3, 40)
        fine = np.geomspace(1.0, 1e3, 80)
        c_coarse = max(abs(t * tail_integral(TENT, float(t))) for t in coarse)
        c_fine = max(abs(t * tail_integral(TENT, float(t))) for t in fine)
        assert 0.0 < c_coarse <= 1.0
        assert 0.0 < c_fine <= 1.0
        assert c_fine <= 1.5 * c_coarse

    def test_tail_vanishes_at_large_t_for_bump(self):
        # phi = O(t^-4) oscillates at frequencies 1/2 and 1, so its tail
        # falls like t^-4 too: each t^-4 component a cos(c u) / u^4 with
        # |a| = 480/pi leaves at most |a| / (c t^4)
        t = np.geomspace(100.0, 1e4, 21)
        tails = np.array([tail_integral(bump_kernel(), v) for v in t])
        assert np.all(np.abs(tails) * t ** 4 <= 1.01 * (480.0 / math.pi) * (2.0 + 1.0))
        assert np.abs(tails * t ** 4).max() >= 0.1 * 480.0 / math.pi

    def test_tail_near_zero_approaches_half_mass(self):
        # evenness puts half the unit mass on each side of the origin
        for kernel, peak in ((TENT, 3.0 / (4.0 * math.pi)), (FUDGE, 2.0 / (3.0 * math.pi))):
            near = tail_integral(kernel, 1e-3)
            assert near == pytest.approx(0.5 - peak * 1e-3, abs=1e-6)

    def test_tail_requires_positive_start(self):
        with pytest.raises(ValueError, match="t > 0"):
            tail_integral(TENT, 0.0)
        with pytest.raises(ValueError, match="t > 0"):
            tail_integral(TENT, math.nan)


def test_cli_import_and_bump_build_load_no_scipy():
    # every kernel is its transform pieces, so no package code needs
    # scipy, which costs about half a second to import
    code = (
        "import sys\n"
        "import ingham_rates.cli\n"
        "from ingham_rates.kernels import bump_kernel\n"
        "print(bump_kernel().name)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["bump", "[]"]


_CLOSED_FORM_RUNS = {
    "regularity": ("asymptotic_regularity", "tent",
                   "[grid]\nmin = 10\nmax = 1000\npoints = 11\nspacing = log\n"),
    "mollifier": ("mollifier_rate", "fudge", ""),
    "parseval": ("parseval", "tent", ""),
}


def test_cli_runs_on_closed_form_kernels_load_no_scipy(tmp_path):
    # tent and fudge defects take e^z E1(z) from the package itself, so
    # importing scipy (about 0.35 s) would be paid for nothing
    paths = []
    for name, (experiment, kernel, extra) in _CLOSED_FORM_RUNS.items():
        path = tmp_path / f"{name}.ini"
        path.write_text(
            f"[experiment]\nname = {experiment}\n\n"
            "[scenario]\nfamily = cluster_zero\nbeta = 2\nn_modes = 4\norbit = vector\n\n"
            f"[kernel]\nname = {kernel}\n\n{extra}\n[output]\npath = {name}\n",
            encoding="utf-8")
        paths.append(str(path))
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "from ingham_rates import cli\n"
        "for path in sys.argv[1:]:\n"
        "    rc = cli.run(cli.parse_config(Path(path).read_text(encoding='utf-8')))\n"
        "    assert rc in (0, 1), (path, rc)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code, *paths], capture_output=True,
                         text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
    assert all((tmp_path / f"{name}.csv").is_file() for name in _CLOSED_FORM_RUNS)
