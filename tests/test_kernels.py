"""Tests for the smoothing kernels and their transform identities.

All kernels are normalised to unit mass, so the frequency side satisfies
psi(0) = int phi = 1 and the time-domain closed forms carry a 1/(2*pi)
relative to the unnormalised trigonometric expressions.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ingham_rates.kernels import (
    bump_kernel,
    fudge_kernel,
    numeric_fourier,
    tail_integral,
    tent_kernel,
)
from ingham_rates.quadrature import EnvelopeError, integrate_oscillatory

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
        # the direct formula carries ~1e-8 relative cancellation error at
        # the patch point, which bounds the achievable seam mismatch
        below = TENT.time_eval(np.array(0.99e-4))
        above = TENT.time_eval(np.array(1.01e-4))
        assert below == pytest.approx(above, rel=1e-7)
        assert below == pytest.approx(3.0 / (4.0 * math.pi), rel=1e-8)

    def test_evenness(self):
        t = np.linspace(0.1, 30.0, 57)
        assert np.allclose(TENT.time_eval(t), TENT.time_eval(-t), rtol=1e-14)

    def test_admissibility_flags(self):
        assert TENT.flat_near_zero
        assert TENT.plateau_radius == pytest.approx(0.5)


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
        below = FUDGE.time_eval(np.array(0.99e-4))
        above = FUDGE.time_eval(np.array(1.01e-4))
        assert below == pytest.approx(above, rel=1e-7)


class TestFourierPairs:
    @pytest.mark.parametrize("kernel", [TENT, FUDGE], ids=["tent", "fudge"])
    @pytest.mark.parametrize("s", SIX_POINTS)
    def test_numeric_transform_matches_closed_form(self, kernel, s):
        numeric = numeric_fourier(kernel, s)
        closed = float(kernel.freq_eval(np.array(s)))
        assert abs(numeric - closed) <= 1e-6

    def test_unit_mass(self):
        for kernel in (TENT, FUDGE):
            assert kernel.mass == pytest.approx(1.0, abs=1e-14)
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


class TestBumpKernel:
    BUMP = bump_kernel(1.0)

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
        assert self.BUMP.tail_mass_defect <= 1e-8
        assert numeric_fourier(self.BUMP, 0.0) == pytest.approx(1.0, abs=1e-8)

    def test_time_domain_vanishes_beyond_table(self):
        cutoff = self.BUMP.time_cutoff
        assert self.BUMP.time_eval(np.array(cutoff * 1.01)) == 0.0
        assert self.BUMP.time_eval(np.array(-cutoff * 2.0)) == 0.0

    def test_superpolynomial_decay_on_grid(self):
        # |phi(t)| * t^4 stays bounded across the tabulated range
        K = self.BUMP.quartic_decay_constant
        assert np.isfinite(K) and K > 0.0
        t = np.geomspace(5.0, self.BUMP.time_cutoff, 200)
        assert np.all(np.abs(self.BUMP.time_eval(t)) * t ** 4 <= K * (1 + 1e-12))

    def test_transform_round_trip_at_interior_points(self):
        for s in (0.0, 0.3, 0.6, 0.9):
            numeric = numeric_fourier(self.BUMP, s)
            closed = float(self.BUMP.freq_eval(np.array(s)))
            assert abs(numeric - closed) <= 1e-6

    def test_construction_is_cached(self):
        assert bump_kernel(1.0) is bump_kernel(1.0)
        assert bump_kernel(1.0) is not bump_kernel(2.0)


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
        bump = bump_kernel(1.0)
        beyond = tail_integral(bump, bump.time_cutoff * 1.5)
        assert abs(beyond) <= 2.0 * bump.tail_mass_defect

    def test_tail_near_zero_approaches_half_mass(self):
        # evenness puts half the unit mass on each side of the origin
        for kernel in (TENT, FUDGE):
            near = tail_integral(kernel, 1e-3)
            assert near == pytest.approx(0.5 - kernel.peak_value * 1e-3, abs=1e-6)

    def test_tail_requires_positive_start(self):
        with pytest.raises(ValueError, match="t > 0"):
            tail_integral(TENT, 0.0)


def test_cli_import_leaves_scipy_interpolate_to_the_bump_kernel():
    # scipy.interpolate costs about half a second to import and only the
    # bump kernel's spline needs it
    code = (
        "import sys\n"
        "import ingham_rates.cli\n"
        "assert 'scipy.interpolate' not in sys.modules\n"
        "from ingham_rates.kernels import bump_kernel\n"
        "print(bump_kernel().name)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "bump"


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
