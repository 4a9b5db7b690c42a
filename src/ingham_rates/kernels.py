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

Tent and fudge state only their transform, as polynomial pieces, and this
module is the one reader of that format: it derives from the pieces the
time profile, its tail components and its small-|t| Taylor series, and the
pieces of 1 - psi that the defect engine integrates.  It also evaluates
G(z) = e^z E1(z) and the remainders of its asymptotic series, which give
both the defect engine's closed form and the components' tails
``int_a^inf trig(f u) u^-p du``, with no quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.polynomial import polyval

from .quadrature import NonConvergenceError, QuadratureSpec, integrate
# bound by name for bench/tracing.py, which wraps kernels.integrate_oscillatory
from .quadrature import integrate_oscillatory  # noqa: F401

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
_TRIG = {"cos": np.cos, "sin": np.sin}


# -- G(z) = e^z E1(z) and its asymptotic remainders ---------------------------

_CHUNK = 1 << 18  # (mode, point) pairs held in memory at once
_SERIES_RADIUS = 40.0  # |z| from which e^z E1(z) is summed asymptotically
_SERIES_TERMS = 40
# the continued fraction for e^z E1(z) takes, on each band of |z| from
# [4, 12) to [32, 40), the depth that brings it to about 1e-15 on
# |Im z| = 4 + |Re z|/2, where it converges slowest
_FRACTION_EDGES = np.array([12.0, 16.0, 24.0, 32.0])
_FRACTION_DEPTHS = np.array([50, 38, 28, 18, 12])


def _g_near(x: np.ndarray) -> np.ndarray:
    """G(x) = e^x E1(x), principal branch, for |x| < 40 and Re x <= 0.

    Where |Im x| >= 4 + |Re x|/2 the continued fraction
    ``G = 1/(x+1 - 1/(x+3 - 4/(x+5 - ...)))`` is cut at the depth that
    ``_FRACTION_DEPTHS`` gives for |x|.  It converges slowly near 0 and near
    the cut, the negative real axis, so the rest sums the convergent series
    ``E1(x) = -gamma - Log x - sum_{k>=1} (-x)^k / (k k!)`` to
    k = e max|x| + 25.  There the sum of its terms' moduli exceeds |E1|
    by at most e^{|x| - |Re x|} < e^6, so little cancels.  np.log keeps the sign
    of a zero Im x: on the cut, Im x = +0.0 takes the side Im x > 0 and
    -0.0 the side Im x < 0.
    """
    g = np.empty(x.shape, dtype=complex)
    frac = np.abs(x.imag) >= 4.0 + 0.5 * np.abs(x.real)
    # points sorted deepest first, so that each level updates a prefix; an
    # int8 band makes the stable sort a radix sort
    idx = np.flatnonzero(frac)
    band = np.searchsorted(_FRACTION_EDGES, np.abs(x[idx]), side="right").astype(np.int8)
    idx = idx[np.argsort(band, kind="stable")]
    depth = np.repeat(_FRACTION_DEPTHS, np.bincount(band, minlength=_FRACTION_DEPTHS.size))
    levels = np.arange(_FRACTION_DEPTHS[0], 0, -1)
    active = np.searchsorted(-depth, -levels, side="right")  # points with depth >= k
    z = x[idx]
    f = z + (2 * depth + 1)
    for k, m in zip(levels.tolist(), active.tolist()):  # f = (z + 2k - 1) - k^2 / f, in place
        fk = f[:m]
        np.divide(-(k * k), fk, out=fk)
        fk += z[:m]
        fk += 2 * k - 1
    g[idx] = 1.0 / f

    rest = x[~frac]
    k = np.arange(1, math.ceil(math.e * np.max(np.abs(rest), initial=0.0)) + 26)
    tail = np.empty_like(rest)
    step = _CHUNK // k.size
    for i in range(0, rest.size, step):  # terms (-x)^k / k! as one running product
        tail[i:i + step] = np.cumprod(-rest[i:i + step, None] / k, axis=1) @ (1.0 / k)
    g[~frac] = np.exp(rest) * (-np.euler_gamma - np.log(rest) - tail)
    return g


def _jump_terms(x: np.ndarray, w: np.ndarray, t: np.ndarray, taylor: np.ndarray) -> np.ndarray:
    """sum_k taylor[k] w^k R_k(x) with R_k(x) = G(x) - sum_{n<k} (-1)^n n! / x^{n+1}.

    G(z) = e^z E1(z) on the principal branch; R_k is the remainder of its
    asymptotic series after k terms and x = i t w, so w/x = q = -i/t.
    Below |x| = 40, G comes from :func:`_g_near` and the k subtracted
    terms are written as w^{k-1-n} q^{n+1}, which stays finite as x -> 0.
    Beyond, the series is summed from term k on:
    w^k R_k = y k! (-q)^k T_k(y) with y = 1/x and T_k = 1 - (k+1) y T_{k+1},
    so nothing cancels, as it would in G minus its first k terms.
    """
    out = np.empty(x.shape, dtype=complex)
    q = -1j / t
    near = np.abs(x) < _SERIES_RADIUS
    g, wn, qn = _g_near(x[near]), w[near], q[near]
    acc = np.zeros(g.shape, dtype=complex)
    for k, d in enumerate(taylor):
        part = wn ** k * g
        for n in range(k):
            part -= (-1) ** n * math.factorial(n) * wn ** (k - 1 - n) * qn ** (n + 1)
        acc += d * part
    out[near] = acc

    far = ~near
    y, qf = 1.0 / x[far], q[far]
    tk = np.ones(y.shape, dtype=complex)
    series = [None] * taylor.size
    for n in range(_SERIES_TERMS - 1, 0, -1):  # T_{n-1} = 1 - n y T_n
        tk = tk * y
        tk *= -n
        tk += 1.0
        if n - 1 < taylor.size:
            series[n - 1] = tk
    acc = np.zeros(y.shape, dtype=complex)
    for k, d in enumerate(taylor):
        acc += d * math.factorial(k) * (-qf) ** k * series[k]
    out[far] = y * acc
    return out


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


def _complement_pieces(pieces: tuple) -> tuple[np.ndarray, list, list]:
    """Breakpoints of 1 - psi on the line, its polynomial pieces and jumps.

    Returns the sorted breakpoints c_1 < ... < c_m, the m + 1 pieces'
    coefficients (ascending powers of s; the outer pieces are 1) and, at
    each c where 1 - psi or a derivative jumps, ``(c, taylor)`` with the
    coefficients of p_left - p_right expanded about c.  The kernel's pieces
    on s >= 0 are mirrored to s < 0 because psi is even.
    """
    ends = {e for lo, hi, _ in pieces for e in (lo, hi)}
    breaks = np.array(sorted(ends | {-e for e in ends}))
    polys = [np.ones(1)]
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        mid = 0.5 * (lo + hi)
        coeffs = next(np.asarray(c, dtype=float) for a, b, c in pieces
                      if a <= abs(mid) <= b)
        psi = coeffs * np.sign(mid) ** np.arange(coeffs.size)
        polys.append(np.concatenate([[1.0 - psi[0]], -psi[1:]]))
    polys.append(np.ones(1))
    jumps = []
    for c, left, right in zip(breaks, polys[:-1], polys[1:]):
        diff = Polynomial(left) - Polynomial(right)
        taylor = diff(Polynomial([c, 1.0])).coef
        if np.any(taylor != 0.0):
            jumps.append((float(c), taylor))
    return breaks, polys, jumps


@dataclass(frozen=True)
class Kernel:
    """An even unit-mass kernel and its closed-form Fourier transform.

    ``flat_near_zero`` records whether the transform is identically 1 on a
    neighbourhood of s = 0, the property needed for band-limited
    convolution to reproduce low frequencies exactly.  ``freq_pieces``
    states a piecewise polynomial transform once, as ``(lo, hi,
    coefficients)`` triples on s >= 0 with coefficients in ascending powers
    of s (psi vanishes beyond the last piece); it is empty for tabulated
    kernels.  ``complement`` holds what :func:`_complement_pieces` derives
    from it for the defect engine.  ``time_cutoff`` is the half-width of the
    tabulation window for interpolated kernels (None when the time profile
    is closed-form), with ``tail_mass_defect`` the certified bound on the
    mass ignored beyond it.
    """

    name: str
    time_eval: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    freq_eval: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    flat_near_zero: bool
    freq_pieces: tuple = ()
    complement: tuple = field(repr=False, compare=False, default=())
    tail_mass_defect: float = 0.0
    time_cutoff: Optional[float] = None
    quartic_decay_constant: Optional[float] = None
    _components: tuple = field(repr=False, default=())

    def time(self, t, scale: float = 1.0):
        """phi_scale(t) = scale * phi(scale * t)."""
        if not scale > 0.0:
            raise ValueError("scale must be positive")
        arr = np.asarray(t, dtype=float)
        out = scale * np.asarray(self.time_eval(scale * arr), dtype=float)
        return float(out) if arr.ndim == 0 else out

    def freq(self, s, scale: float = 1.0):
        """psi_scale(s) = psi(s / scale)."""
        if not scale > 0.0:
            raise ValueError("scale must be positive")
        arr = np.asarray(s, dtype=float)
        out = np.asarray(self.freq_eval(arr / scale), dtype=float)
        return float(out) if arr.ndim == 0 else out


@lru_cache(maxsize=8)
def _piecewise_kernel(name: str, pieces: tuple) -> Kernel:
    """The kernel whose transform is ``pieces``, with everything else derived.

    ``phi(t) = (1/2pi) int psi(s) e^{ist} ds`` integrated by parts on each
    piece leaves ``(1/2pi) sum_k (-1)^{k+1} k! taylor[k] e^{ict} / (it)^{k+1}``
    at each breakpoint c.  Since taylor_k(-c) = (-1)^{k+1} taylor_k(c), c and
    -c pair into ``a trig(c t) / (pi t^{k+1})``, cos for odd k and sin for
    even k, with ``a = (-1)^{k//2+1} k! taylor[k]``, halved at c = 0.  These
    terms also give ``_components``.  Below |t| = 1e-4, where they cancel,
    phi is the series ``(1/pi) sum_n (-1)^n m_2n t^2n / (2n)!`` with the
    moments ``m_j = int_0^1 psi(s) s^j ds`` summed as exact rationals, so
    each coefficient is rounded once.  That switch suits terms up to t^-3,
    as in tent and fudge; deeper terms cancel to O(1) far beyond 1e-4, so
    pieces that give them raise ValueError.  Results are cached.
    """
    breaks, polys, jumps = _complement_pieces(pieces)
    terms = []  # (a, trig, c, power): c ascending, then derivative order descending
    for c, taylor in jumps:
        for k in range(taylor.size - 1, -1, -1):
            if c >= 0.0 and taylor[k] != 0.0:
                a = (-1) ** (k // 2 + 1) * math.factorial(k) * float(taylor[k])
                terms.append((0.5 * a if c == 0.0 else a, "cos" if k % 2 else "sin", c, k + 1))
    p_min = min(p for *_, p in terms)
    if max(p for *_, p in terms) > 3:
        raise ValueError("transform pieces give terms beyond t^-3, which the"
                         " small-|t| series switch does not cover")
    # imported here, so that processes which build no such kernel skip it
    from fractions import Fraction

    def moment(j: int) -> Fraction:
        return sum(Fraction(c) * (Fraction(hi) ** (j + i + 1) - Fraction(lo) ** (j + i + 1))
                   / (j + i + 1) for lo, hi, coeffs in pieces for i, c in enumerate(coeffs))
    series = [float((-1) ** n * moment(2 * n) / math.factorial(2 * n))
              for n in range(_TAYLOR_TERMS)]

    def time_eval(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        small = np.abs(t) < _TAYLOR_RADIUS
        safe = np.where(small, 1.0, t)
        out = 0.0
        for a, trig, c, p in terms:
            term = a * _TRIG[trig](c * safe)
            out = out + (term / safe ** (p - p_min) if p > p_min else term)
        out = out / safe ** p_min
        if small.any():  # Horner in t^2
            t2, near = t * t, np.full_like(t, series[-1])
            for coef in series[-2::-1]:
                near = near * t2 + coef
            out = np.where(small, near, out)
        return (1.0 / math.pi) * out

    return Kernel(
        name=name,
        time_eval=time_eval,
        freq_eval=_piecewise_freq(pieces),
        flat_near_zero=tuple(pieces[0][2]) == (1.0,),
        freq_pieces=pieces,
        complement=(breaks, polys, jumps),
        _components=tuple((a / math.pi, trig, c, p) for a, trig, c, p in terms),
    )


def tent_kernel() -> Kernel:
    """Kernel whose transform is a plateau with linear shoulders.

    ``phi(t) = 2 (cos(t/2) - cos t) / (pi t^2)`` with ``phi(0) = 3/(4 pi)``;
    the transform equals 1 for |s| <= 1/2 and ``2 (1 - |s|)`` for
    1/2 <= |s| <= 1.
    """
    return _piecewise_kernel("tent", ((0.0, 0.5, (1.0,)), (0.5, 1.0, (2.0, -2.0))))


def fudge_kernel() -> Kernel:
    """Kernel with parabolic transform ``max(0, 1 - s^2)`` and no plateau.

    ``phi(t) = 2 (sin t / t - cos t) / (pi t^2)`` with ``phi(0) = 2/(3 pi)``.
    """
    return _piecewise_kernel("fudge", ((0.0, 1.0, (1.0, 0.0, -1.0)),))


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
    if not 0.0 < transition_sharpness <= 100.0:
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
        tail_mass_defect=defect,
        time_cutoff=_BUMP_TIME_CUTOFF,
        quartic_decay_constant=quartic,
    )


def _component_tails(rows, t_from: float) -> np.ndarray:
    """Integrals of coef * trig(freq * u) / u**power over [t_from, inf), one per row.

    ``rows`` holds ``(coef, trig, freq, power)`` tuples.  With a = t_from,
    ``int_a^inf e^{i|f|u} u^-p du = e^{i|f|a} (i|f|)^{p-1} R_{p-1}(-i|f|a) / (p-1)!``
    with R_k as in :func:`_jump_terms`, whose one call per power p takes
    all oscillating rows: w = -|f|, x = i a w and the unit vector e_{p-1}.
    cos takes the real part; sin, odd in f, sign(f) times the imaginary part.
    """
    out = np.zeros(len(rows))
    osc = {}  # power -> indices of the rows with f != 0
    for i, (coef, trig, freq, power) in enumerate(rows):
        if freq != 0.0:
            osc.setdefault(power, []).append(i)
        elif trig == "cos":
            out[i] = coef * t_from ** (1 - power) / (power - 1)
    coefs, freqs = (np.array([row[j] for row in rows], dtype=float) for j in (0, 2))
    is_cos = np.array([row[1] == "cos" for row in rows])
    for p, idx in osc.items():
        w = -np.abs(freqs[idx])
        t = np.full(w.shape, t_from)
        x = 1j * (t * w)
        tail = _jump_terms(x, w, t, np.eye(p)[p - 1])
        tail *= np.exp(-x) * ((-1j) ** (p - 1) / math.factorial(p - 1))
        out[idx] = coefs[idx] * np.where(is_cos[idx], tail.real, np.sign(freqs[idx]) * tail.imag)
    return out


def tail_integral(kernel: Kernel, t: float, spec: Optional[QuadratureSpec] = None) -> float:
    """Integral of phi over [t, inf) for t > 0.

    Closed-form kernels sum the closed-form tails of their trigonometric
    components (:func:`_component_tails`); tabulated kernels integrate
    their spline (zero beyond the cutoff), which is all ``spec`` controls.
    """
    if not t > 0.0:
        raise ValueError("tail integral requires t > 0")
    if kernel._components:
        return math.fsum(_component_tails(kernel._components, t).tolist())
    cutoff = kernel.time_cutoff
    if cutoff is None or t >= cutoff:
        return 0.0
    spec = replace(spec or QuadratureSpec(), oscillation_frequency=1.0)
    return integrate(kernel.time_eval, t, cutoff, spec).value


def numeric_fourier(kernel: Kernel, s, spec: Optional[QuadratureSpec] = None):
    """Fourier transform of phi at s computed from the time profile.

    Independent of ``freq_eval``: closed-form kernels integrate
    ``2 * phi(t) * cos(s t)`` adaptively on [0, 1] and take the rest from
    the closed-form tails of the product-to-sum components, all points'
    tails in one :func:`_component_tails` call; tabulated kernels
    integrate the spline over its window.  ``s`` is a scalar, giving a
    float, or an array, giving an array of its shape.
    """
    if spec is None:
        spec = QuadratureSpec()
    grid = np.asarray(s, dtype=float)
    points = grid.ravel().tolist()
    out = np.empty(len(points))
    if kernel._components:
        # trig(freq*t) * cos(s*t) splits into half-amplitude components
        # at the shifted frequencies freq + s and freq - s.
        rows = [(0.5 * coef, trig, f_shift, power) for sv in points
                for coef, trig, freq, power in kernel._components
                for f_shift in (freq + sv, freq - sv)]
        tails = _component_tails(rows, 1.0).reshape(len(points), 2 * len(kernel._components))
        for j, sv in enumerate(points):
            head = integrate(lambda t: kernel.time_eval(t) * np.cos(sv * t), 0.0, 1.0, spec)
            if not head.converged:
                raise NonConvergenceError("head integration did not converge")
            out[j] = 2.0 * (head.value + math.fsum(tails[j].tolist()))
    else:
        for j, sv in enumerate(points):
            osc = replace(spec, max_subdivisions=max(spec.max_subdivisions, 40000),
                          oscillation_frequency=max(abs(sv), 1.0))
            res = integrate(lambda t: kernel.time_eval(t) * np.cos(sv * t), 0.0,
                            kernel.time_cutoff, osc)
            if not res.converged:
                raise NonConvergenceError("transform integration did not converge")
            out[j] = 2.0 * res.value
    return float(out[0]) if grid.ndim == 0 else out.reshape(grid.shape)
