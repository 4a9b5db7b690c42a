"""Smoothing kernels with band-limited Fourier transforms.

Each kernel is an even, unit-mass function ``phi`` on the line whose
Fourier transform ``psi(s) = integral phi(t) exp(-i s t) dt`` is supported
in [-1, 1] with ``psi(0) = 1``.  Scaling follows ``phi_r(t) = r * phi(r t)``
so that ``psi_r(s) = psi(s / r)``; convolving an orbit with ``phi_r``
band-limits it to frequencies |s| <= r.

Three kernels are provided:

* ``tent``: ``phi(t) = 2 (cos(t/2) - cos t) / (pi t^2)``, whose transform is
  1 on |s| <= 1/2, falls linearly as ``2 (1 - |s|)`` on 1/2 <= |s| <= 1, and
  vanishes beyond;
* ``fudge``: ``phi(t) = 2 (sin t / t - cos t) / (pi t^2)`` with transform
  ``max(0, 1 - s^2)`` -- no flat plateau at 0;
* ``bump``: the inverse transform of a smooth plateau function, tabulated on
  a finite window and interpolated by a cubic spline.

Near t = 0 the closed-form kernels switch to a 6-term Taylor series below
|t| = 1e-4, where the direct formulas lose digits to cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.polynomial import polyval

from .quadrature import NonConvergenceError, QuadratureSpec, integrate, integrate_oscillatory

__all__ = [
    "Kernel",
    "KernelTabulationError",
    "tent_kernel",
    "fudge_kernel",
    "bump_kernel",
    "numeric_fourier",
    "tail_integral",
]


class KernelTabulationError(RuntimeError):
    """Raised when a tabulated kernel fails its construction checks."""


_TAYLOR_RADIUS = 1e-4
_TAYLOR_TERMS = 6

# (cos(t/2) - cos t)/t^2 = sum_{n>=1} (-1)^{n+1} (1 - 4^{-n}) t^{2n-2} / (2n)!
_TENT_COEFFS = np.array([
    (-1.0) ** (n + 1) * (1.0 - 4.0 ** (-n)) / math.factorial(2 * n)
    for n in range(1, _TAYLOR_TERMS + 1)
])
# (sin t / t - cos t)/t^2 = sum_{n>=1} (-1)^{n+1} (2n) t^{2n-2} / (2n+1)!
_FUDGE_COEFFS = np.array([
    (-1.0) ** (n + 1) * (2.0 * n) / math.factorial(2 * n + 1)
    for n in range(1, _TAYLOR_TERMS + 1)
])


def _polyval_even(coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Evaluate sum coeffs[n] * t**(2n) with Horner's scheme."""
    t2 = t * t
    out = np.full_like(t, coeffs[-1])
    for c in coeffs[-2::-1]:
        out = out * t2 + c
    return out


def _tent_time(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    small = np.abs(t) < _TAYLOR_RADIUS
    safe = np.where(small, 1.0, t)
    direct = (np.cos(0.5 * safe) - np.cos(safe)) / (safe * safe)
    series = _polyval_even(_TENT_COEFFS, t)
    return (2.0 / math.pi) * np.where(small, series, direct)


def _fudge_time(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    small = np.abs(t) < _TAYLOR_RADIUS
    safe = np.where(small, 1.0, t)
    direct = (np.sin(safe) / safe - np.cos(safe)) / (safe * safe)
    series = _polyval_even(_FUDGE_COEFFS, t)
    return (2.0 / math.pi) * np.where(small, series, direct)


def _piecewise_freq(pieces: tuple) -> Callable[[np.ndarray], np.ndarray]:
    """psi(s) from polynomial pieces on s >= 0; zero beyond the last piece."""
    def freq_eval(s: np.ndarray) -> np.ndarray:
        a = np.abs(np.asarray(s, dtype=float))
        out = np.zeros_like(a)
        # reversed, so the earlier piece wins at a shared endpoint
        for lo, hi, coeffs in reversed(pieces):
            out = np.where((a >= lo) & (a <= hi), polyval(a, coeffs), out)
        return out
    return freq_eval


@dataclass(frozen=True)
class Kernel:
    """An even unit-mass kernel and its closed-form Fourier transform.

    ``flat_near_zero`` records whether the transform is identically 1 on a
    neighbourhood of s = 0 (of radius ``plateau_radius``), the property
    needed for band-limited convolution to reproduce low frequencies
    exactly.  ``freq_pieces`` states a piecewise polynomial transform once,
    as ``(lo, hi, coefficients)`` triples on s >= 0 with coefficients in
    ascending powers of s (psi vanishes beyond the last piece); it is empty
    for tabulated kernels.  ``time_cutoff`` is the half-width of the
    tabulation window for interpolated kernels (None when the time profile
    is closed-form), with ``tail_mass_defect`` the certified bound on the
    mass ignored beyond it.
    """

    name: str
    time_eval: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    freq_eval: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    flat_near_zero: bool
    freq_pieces: tuple = ()
    plateau_radius: float = 0.0
    tail_mass_defect: float = 0.0
    time_cutoff: Optional[float] = None
    peak_value: float = 0.0
    quartic_decay_constant: Optional[float] = None
    _components: tuple = field(repr=False, default=())

    def time(self, t, scale: float = 1.0):
        """phi_scale(t) = scale * phi(scale * t)."""
        if scale <= 0.0:
            raise ValueError("scale must be positive")
        arr = np.asarray(t, dtype=float)
        out = scale * np.asarray(self.time_eval(scale * arr), dtype=float)
        return float(out) if arr.ndim == 0 else out

    def freq(self, s, scale: float = 1.0):
        """psi_scale(s) = psi(s / scale)."""
        if scale <= 0.0:
            raise ValueError("scale must be positive")
        arr = np.asarray(s, dtype=float)
        out = np.asarray(self.freq_eval(arr / scale), dtype=float)
        return float(out) if arr.ndim == 0 else out

    @property
    def mass(self) -> float:
        """Total integral of phi, which equals psi(0) = 1."""
        return float(self.freq_eval(np.asarray(0.0)))


def tent_kernel() -> Kernel:
    """Kernel whose transform is a plateau with linear shoulders.

    ``phi(t) = 2 (cos(t/2) - cos t) / (pi t^2)`` with ``phi(0) = 3/(4 pi)``;
    the transform equals 1 for |s| <= 1/2 and ``2 (1 - |s|)`` for
    1/2 <= |s| <= 1.
    """
    pieces = ((0.0, 0.5, (1.0,)), (0.5, 1.0, (2.0, -2.0)))
    return Kernel(
        name="tent",
        time_eval=_tent_time,
        freq_eval=_piecewise_freq(pieces),
        flat_near_zero=True,
        freq_pieces=pieces,
        plateau_radius=0.5,
        peak_value=3.0 / (4.0 * math.pi),
        _components=(
            (2.0 / math.pi, "cos", 0.5, 2),
            (-2.0 / math.pi, "cos", 1.0, 2),
        ),
    )


def fudge_kernel() -> Kernel:
    """Kernel with parabolic transform ``max(0, 1 - s^2)`` and no plateau.

    ``phi(t) = 2 (sin t / t - cos t) / (pi t^2)`` with ``phi(0) = 2/(3 pi)``.
    """
    pieces = ((0.0, 1.0, (1.0, 0.0, -1.0)),)
    return Kernel(
        name="fudge",
        time_eval=_fudge_time,
        freq_eval=_piecewise_freq(pieces),
        flat_near_zero=False,
        freq_pieces=pieces,
        plateau_radius=0.0,
        peak_value=2.0 / (3.0 * math.pi),
        _components=(
            (2.0 / math.pi, "sin", 1.0, 3),
            (-2.0 / math.pi, "cos", 1.0, 2),
        ),
    )


def _smoothstep(u: np.ndarray, sharpness: float) -> np.ndarray:
    """C-infinity ramp: 0 at u <= 0, 1 at u >= 1."""
    u = np.clip(u, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        g_lo = np.where(u > 0.0, np.exp(-sharpness / np.maximum(u, 1e-300)), 0.0)
        g_hi = np.where(u < 1.0, np.exp(-sharpness / np.maximum(1.0 - u, 1e-300)), 0.0)
    return g_lo / (g_lo + g_hi)


_BUMP_TIME_CUTOFF = 1000.0
_BUMP_TABLE_POINTS = 40001


def bump_kernel(transition_sharpness: float = 1.0) -> Kernel:
    """Kernel whose transform is an infinitely smooth plateau function.

    The transform is 1 on |s| <= 1/2, descends through an exponential
    smoothstep on 1/2 <= |s| <= 1, and vanishes beyond.  The time profile is
    the inverse transform, tabulated at ``_BUMP_TABLE_POINTS`` points of
    [-_BUMP_TIME_CUTOFF, _BUMP_TIME_CUTOFF] by Gauss-Legendre quadrature and
    interpolated with a cubic spline; it is treated as zero outside the
    window.  Construction verifies unit mass to 1e-8 (the truncated tail is
    estimated by the half-period cancellation bound from the boundary
    envelope) and records ``max |phi(t)| t^4`` over the table.  Results are
    cached per sharpness.
    """
    return _build_bump(float(transition_sharpness))


@lru_cache(maxsize=8)
def _build_bump(transition_sharpness: float) -> Kernel:
    if transition_sharpness <= 0.0 or transition_sharpness > 100.0:
        raise ValueError("transition_sharpness must lie in (0, 100]")

    beta = transition_sharpness

    def freq_eval(s: np.ndarray) -> np.ndarray:
        a = np.abs(np.asarray(s, dtype=float))
        ramp = 1.0 - _smoothstep(2.0 * (a - 0.5), beta)
        return np.where(a <= 0.5, 1.0, np.where(a >= 1.0, 0.0, ramp))

    # phi(t) = (1/pi) * [ sin(t/2)/t + integral_{1/2}^{1} psi(s) cos(s t) ds ]
    nodes, weights = np.polynomial.legendre.leggauss(600)
    s_nodes = 0.75 + 0.25 * nodes
    s_weights = 0.25 * weights
    psi_nodes = freq_eval(s_nodes)

    t_grid = np.linspace(0.0, _BUMP_TIME_CUTOFF, _BUMP_TABLE_POINTS)
    phi = np.empty_like(t_grid)
    t_safe = np.where(t_grid == 0.0, 1.0, t_grid)
    head = np.where(t_grid == 0.0, 0.5, np.sin(0.5 * t_safe) / t_safe)
    chunk = 2048
    for lo in range(0, _BUMP_TABLE_POINTS, chunk):
        hi = min(lo + chunk, _BUMP_TABLE_POINTS)
        phi[lo:hi] = np.cos(np.outer(t_grid[lo:hi], s_nodes)) @ (s_weights * psi_nodes)
    phi = (head + phi) / math.pi

    t_sym = np.concatenate([-t_grid[:0:-1], t_grid])
    phi_sym = np.concatenate([phi[:0:-1], phi])
    # scipy.interpolate is imported here: it is slow to import and only the
    # bump kernel needs it
    from scipy.interpolate import CubicSpline

    spline = CubicSpline(t_sym, phi_sym)

    interior = t_grid >= 1.0
    quartic = float(np.max(np.abs(phi[interior]) * t_grid[interior] ** 4))
    # The profile oscillates under a decreasing envelope at the ramp-centre
    # frequency 3/4, so the discarded tail is at most (4 / (3/4)) * envelope
    # at the window edge.
    edge = t_grid >= 0.95 * _BUMP_TIME_CUTOFF
    tail_estimate = (16.0 / 3.0) * float(np.max(np.abs(phi[edge])))
    mass = float(spline.integrate(-_BUMP_TIME_CUTOFF, _BUMP_TIME_CUTOFF))
    defect = abs(mass - 1.0) + tail_estimate
    if defect > 1e-8:
        raise KernelTabulationError(
            f"grid resolution insufficient: kernel mass deviates from 1 by {defect:.3e}"
        )

    def time_eval(t: np.ndarray) -> np.ndarray:
        arr = np.asarray(t, dtype=float)
        inside = np.abs(arr) <= _BUMP_TIME_CUTOFF
        out = np.zeros_like(arr)
        if np.any(inside):
            out[inside] = spline(arr[inside])
        return out

    return Kernel(
        name="bump",
        time_eval=time_eval,
        freq_eval=freq_eval,
        flat_near_zero=True,
        plateau_radius=0.5,
        tail_mass_defect=defect,
        time_cutoff=_BUMP_TIME_CUTOFF,
        peak_value=float(np.max(np.abs(phi))),
        quartic_decay_constant=quartic,
    )


def _component_tail(coef: float, trig: str, freq: float, power: int, t_from: float,
                    spec: QuadratureSpec) -> tuple[float, float]:
    """Integral of coef * trig(freq * u) / u**power over [t_from, inf)."""
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
    res = integrate_oscillatory(lambda u: u ** (-float(power)), freq, t_from,
                                phase=phase, spec=spec)
    if not res.converged:
        raise NonConvergenceError("oscillatory tail integration did not converge")
    return sign * coef * res.value, abs(coef) * res.error


def tail_integral(kernel: Kernel, t: float, spec: Optional[QuadratureSpec] = None) -> float:
    """Integral of phi over [t, inf) for t > 0.

    Closed-form kernels are decomposed into trigonometric components with
    power-law envelopes and summed by half-period cancellation; tabulated
    kernels integrate their spline (zero beyond the cutoff).
    """
    if spec is None:
        spec = QuadratureSpec()
    if t <= 0.0:
        raise ValueError("tail integral requires t > 0")
    if kernel._components:
        total = 0.0
        for coef, trig, freq, power in kernel._components:
            val, _ = _component_tail(coef, trig, freq, power, t, spec)
            total += val
        return total
    cutoff = kernel.time_cutoff
    if cutoff is None or t >= cutoff:
        return 0.0
    res = integrate(kernel.time_eval, t, cutoff, replace(spec, oscillation_frequency=1.0))
    return res.value


def numeric_fourier(kernel: Kernel, s: float, spec: Optional[QuadratureSpec] = None) -> float:
    """Fourier transform of phi at s computed from the time profile.

    Independent of ``freq_eval``: closed-form kernels integrate
    ``2 * phi(t) * cos(s t)`` adaptively on [0, 1] and resolve the tails via
    product-to-sum trigonometric decomposition; tabulated kernels integrate
    the spline over its window.
    """
    if spec is None:
        spec = QuadratureSpec()
    s = float(s)
    if kernel._components:
        head = integrate(lambda t: kernel.time_eval(t) * np.cos(s * t), 0.0, 1.0, spec)
        if not head.converged:
            raise NonConvergenceError("head integration did not converge")
        total = head.value
        for coef, trig, freq, power in kernel._components:
            # trig(freq*t) * cos(s*t) splits into half-amplitude components
            # at the shifted frequencies freq + s and freq - s.
            for f_shift in (freq + s, freq - s):
                val, _ = _component_tail(0.5 * coef, trig, f_shift, power, 1.0, spec)
                total += val
        return 2.0 * total
    osc = replace(spec, max_subdivisions=max(spec.max_subdivisions, 40000),
                  oscillation_frequency=max(abs(s), 1.0))
    res = integrate(lambda t: kernel.time_eval(t) * np.cos(s * t), 0.0, kernel.time_cutoff, osc)
    if not res.converged:
        raise NonConvergenceError("transform integration did not converge")
    return 2.0 * res.value

