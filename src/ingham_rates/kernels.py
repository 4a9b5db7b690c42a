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
* ``bump``: a C^2 plateau, 1 on |s| <= 1/2 and ``1 - S(2|s| - 1)`` on
  1/2 <= |s| <= 1 with the quintic smoothstep ``S(u) = 10u^3 - 15u^4 + 6u^5``,
  so that ``phi = O(t^-4)``.

Every kernel states only its transform, as polynomial pieces, and this
module is the one reader of that format: it derives from the pieces the
time profile, its tail components and its small-|t| Taylor series, and the
pieces of 1 - psi that the defect engine integrates.  It also evaluates
G(z) = e^z E1(z) and the remainders of its asymptotic series, which give
both the defect engine's closed form and the components' tails
``int_a^inf trig(f u) u^-p du``, with no quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    "tent_kernel",
    "fudge_kernel",
    "bump_kernel",
    "numeric_fourier",
    "tail_integral",
]


# below this |t| the time profile is its Taylor series, with this many
# terms; pieces whose terms go beyond t^-3 cancel to O(1) far beyond 1e-4,
# so they switch at |t| = 3, where 24 terms reach rounding
_TAYLOR_RADIUS = 1e-4
_TAYLOR_TERMS = 6
_DEEP_TAYLOR_RADIUS = 3.0
_DEEP_TAYLOR_TERMS = 24
_TRIG = {"cos": np.cos, "sin": np.sin}


# -- G(z) = e^z E1(z) and its asymptotic remainders ---------------------------

_CHUNK = 1 << 18  # (mode, point) pairs held in memory at once
_SERIES_RADIUS = 40.0  # |z| from which e^z E1(z) is summed asymptotically
_SERIES_TERMS = 40
# near the cut the asymptotic series misses the term i pi e^z and, cut at
# 40 terms, is off by about 40!/|z|^41; against R_5 ~ 5!/z^6 both reach
# 1e-10 at |z| = 40 and fall below 1e-16 at |z| = 60, where remainders
# beyond R_2 switch to it
_DEEP_SERIES_RADIUS = 60.0
# the continued fraction for e^z E1(z) takes, on each band of |z| from
# [4, 12) to [32, 40), the depth that brings it to about 1e-15 on
# |Im z| = 4 + |Re z|/2, where it converges slowest; e^z E_n(z) needs
# 4 (n - 1) levels more for the same
_FRACTION_EDGES = np.array([12.0, 16.0, 24.0, 32.0])
_FRACTION_DEPTHS = np.array([50, 38, 28, 18, 12])
# remainders R_k below this k are G minus k terms, which costs up to
# |x|^k / k! of G's precision (800 at k = 2, |x| = 40); deeper ones are
# evaluated directly from e^x E_{k+1}(x)
_SUBTRACTED_TERMS = 3


def _g_near(x: np.ndarray, n: int = 1) -> np.ndarray:
    """G_n(x) = e^x E_n(x), principal branch, for |x| < 60 and Re x <= 0.

    G = G_1.  Where |Im x| >= 4 + |Re x|/2 the continued fraction
    ``G_n = 1/(x+n - 1n/(x+n+2 - 2(n+1)/(x+n+4 - ...)))`` is cut at the
    depth that ``_FRACTION_DEPTHS`` gives for |x|, plus 4 (n - 1).  It
    converges slowly near 0 and near the cut, the negative real axis, so
    the rest sums the convergent series
    ``E_n(x) = (-x)^{n-1} (psi(n) - Log x) / (n-1)! - sum_{k>=0, k!=n-1}
    (-x)^k / ((k-n+1) k!)``, psi(n) = -gamma + sum_{j<n} 1/j, to
    k = e max|x| + 25.  There the sum of its terms' moduli exceeds |E_n|
    by at most about e^{|x| - |Re x|} < e^8, so little cancels.  np.log
    keeps the sign of a zero Im x: on the cut, Im x = +0.0 takes the side
    Im x > 0 and -0.0 the side Im x < 0.
    """
    g = np.empty(x.shape, dtype=complex)
    frac = np.abs(x.imag) >= 4.0 + 0.5 * np.abs(x.real)
    depths = _FRACTION_DEPTHS + 4 * (n - 1)
    # points sorted deepest first, so that each level updates a prefix; an
    # int8 band makes the stable sort a radix sort
    idx = np.flatnonzero(frac)
    band = np.searchsorted(_FRACTION_EDGES, np.abs(x[idx]), side="right").astype(np.int8)
    idx = idx[np.argsort(band, kind="stable")]
    depth = np.repeat(depths, np.bincount(band, minlength=depths.size))
    # from the deepest point's depth down: deeper levels would touch nothing
    levels = np.arange(np.max(depth, initial=0), 0, -1)
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
        tail[i:i + step] = np.cumprod(-rest[i:i + step, None] / k, axis=1) @ weights
    if n == 1:
        g[~frac] = np.exp(rest) * (-np.euler_gamma - np.log(rest) - tail)
    else:
        psi = -np.euler_gamma + math.fsum(1.0 / j for j in range(1, n))
        lead = (-rest) ** (n - 1) / math.factorial(n - 1)
        g[~frac] = np.exp(rest) * (lead * (psi - np.log(rest)) + 1.0 / (n - 1) - tail)
    return g


def _jump_terms(x: np.ndarray, w: np.ndarray, q, taylor: np.ndarray) -> np.ndarray:
    """sum_k taylor[k] w^k R_k(x) with R_k(x) = G(x) - sum_{n<k} (-1)^n n! / x^{n+1}.

    G(z) = e^z E1(z) on the principal branch; R_k is the remainder of its
    asymptotic series after k terms and x = i t w, so w/x = q = -i/t; ``w``
    and ``q`` broadcast against x (a column of modes, a row of times or a
    scalar).  Below |x| = 40, G comes from :func:`_g_near`.  For k below
    ``_SUBTRACTED_TERMS`` (k <= 2) the k subtracted terms are written as
    w^{k-1-n} q^{n+1}, so w^k R_k is w^k G minus q or minus w q - q^2,
    which stays finite as x -> 0; deeper ones take
    w^k R_k = k! (-q)^k G_{k+1}(x), since E_{k+1} = (e^{-x} - x E_k) / k,
    and then hold the switch to |x| = 60.  Beyond, the series is summed
    from term k on:
    w^k R_k = y k! (-q)^k T_k(y) with y = 1/x and T_k = 1 - (k+1) y T_{k+1},
    so nothing cancels, as it would in G minus its first k terms.  Only
    the terms with taylor[k] != 0 are evaluated, in both branches.
    """
    terms = [(k, d) for k, d in enumerate(taylor) if d != 0.0]
    if not terms:
        return np.zeros(x.shape, dtype=complex)
    out = np.empty(x.shape, dtype=complex)
    deep = taylor.size > _SUBTRACTED_TERMS
    near = np.abs(x) < (_DEEP_SERIES_RADIUS if deep else _SERIES_RADIUS)
    q = np.broadcast_to(q, x.shape)
    n_near = np.count_nonzero(near)
    if n_near:
        out[near] = _near_sum(x[near], np.broadcast_to(w, x.shape)[near], q[near], terms)
    if n_near < near.size:
        far = ~near
        out[far] = _far_sum(x[far], q[far], terms)
    return out


def _near_sum(x: np.ndarray, w: np.ndarray, q: np.ndarray, terms: list) -> np.ndarray:
    """sum of d w^k R_k(x) over ``terms``, [(k, d), ...] with k ascending, below the switch."""
    g = acc = None
    for k, d in terms:
        if k < _SUBTRACTED_TERMS:
            g = _g_near(x) if g is None else g
            if k == 0:
                part = g.copy()
            elif k == 1:
                part = w * g
                part -= q
            else:
                part = w ** 2 * g
                part -= w * q
                part += q ** 2
        else:
            part = math.factorial(k) * (-q) ** k * _g_near(x, k + 1)
        np.multiply(d, part, out=part)
        if acc is None:
            acc = part
        else:
            acc += part
    return acc


def _far_sum(x: np.ndarray, q: np.ndarray, terms: list) -> np.ndarray:
    """sum of d w^k R_k(x) over ``terms``, [(k, d), ...] with k ascending, beyond the switch."""
    y = 1.0 / x
    tk = np.ones(y.shape, dtype=complex)
    lowest, higher = terms[0][0], {k for k, _ in terms[1:]}
    series = {}
    for n in range(_SERIES_TERMS - 1, lowest, -1):  # T_{n-1} = 1 - n y T_n, in place
        tk *= y
        tk *= -n
        tk += 1.0
        if n - 1 in higher:
            series[n - 1] = tk.copy()
    series[lowest] = tk
    # (-1)^k goes into the coefficient, so q is not negated, and q itself
    # stands for q**1, which runs numpy's slow general power loop.  Rounding
    # is symmetric in sign, so only the sign of a zero could change; the
    # reference test in tests/test_verify.py checks those on the cut
    acc = None
    for k, d in terms:
        term = d * math.factorial(k) * (-1) ** k * (q if k == 1 else q ** k)
        term *= series[k]
        if acc is None:
            acc = term
        else:
            acc += term
    return np.multiply(y, acc, out=acc)


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

    Returns the sorted breakpoints c_1 < ... < c_m, the m + 1 pieces as
    ``(centre, coefficients)`` (the outer pieces are 1) and, at each c
    where 1 - psi or a derivative jumps, ``(c, taylor)`` with the
    coefficients of p_left - p_right expanded about c.  A finite piece's
    coefficients are its Taylor coefficients about its point nearest 0, so
    that near a plateau edge it is evaluated without cancellation.  The
    kernel's pieces on s >= 0 are mirrored to s < 0 because psi is even.
    """
    ends = {e for lo, hi, _ in pieces for e in (lo, hi)}
    breaks = np.array(sorted(ends | {-e for e in ends}))
    ascending = [np.ones(1)]
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        mid = 0.5 * (lo + hi)
        coeffs = next(np.asarray(c, dtype=float) for a, b, c in pieces
                      if a <= abs(mid) <= b)
        psi = coeffs * np.sign(mid) ** np.arange(coeffs.size)
        ascending.append(np.concatenate([[1.0 - psi[0]], -psi[1:]]))
    ascending.append(np.ones(1))
    jumps = []
    for c, left, right in zip(breaks, ascending[:-1], ascending[1:]):
        diff = Polynomial(left) - Polynomial(right)
        taylor = diff(Polynomial([c, 1.0])).coef
        if np.any(taylor != 0.0):
            jumps.append((float(c), taylor))
    centres = [0.0] + [min(max(0.0, lo), hi) for lo, hi in zip(breaks[:-1], breaks[1:])] + [0.0]
    polys = [(float(c), Polynomial(p)(Polynomial([c, 1.0])).coef)
             for c, p in zip(centres, ascending)]
    return breaks, polys, jumps


@dataclass(frozen=True)
class Kernel:
    """An even unit-mass kernel and its closed-form Fourier transform.

    ``flat_near_zero`` records whether the transform is identically 1 on a
    neighbourhood of s = 0, the property needed for band-limited
    convolution to reproduce low frequencies exactly.  ``freq_pieces``
    states the piecewise polynomial transform once, as ``(lo, hi,
    coefficients)`` triples on s >= 0 with coefficients in ascending powers
    of s (psi vanishes beyond the last piece).  ``complement`` holds what
    :func:`_complement_pieces` derives from it for the defect engine,
    ``_components`` the trigonometric terms of the time profile and
    ``_series`` its small-|t| switch: ``(radius, coefficients of pi phi
    in powers of t^2)``.
    """

    name: str
    time_eval: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    freq_eval: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    flat_near_zero: bool
    freq_pieces: tuple
    complement: tuple = field(repr=False, compare=False)
    _components: tuple = field(repr=False)
    _series: tuple = field(repr=False)

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
    terms also give ``_components``.  Near t = 0, where they cancel, phi is
    the series ``(1/pi) sum_n (-1)^n m_2n t^2n / (2n)!`` with the moments
    ``m_j = int_0^1 psi(s) s^j ds`` summed as exact rationals, so each
    coefficient is rounded once.  Terms up to t^-3, as in tent and fudge,
    switch to it below |t| = 1e-4 with 6 terms; deeper ones, as in the
    bump's t^-6, below |t| = 3 with 24.  Results are cached.
    """
    breaks, polys, jumps = _complement_pieces(pieces)
    terms = []  # (a, trig, c, power): c ascending, then derivative order descending
    for c, taylor in jumps:
        for k in range(taylor.size - 1, -1, -1):
            if c >= 0.0 and taylor[k] != 0.0:
                a = (-1) ** (k // 2 + 1) * math.factorial(k) * float(taylor[k])
                terms.append((0.5 * a if c == 0.0 else a, "cos" if k % 2 else "sin", c, k + 1))
    p_min = min(p for *_, p in terms)
    radius, n_terms = ((_DEEP_TAYLOR_RADIUS, _DEEP_TAYLOR_TERMS)
                       if max(p for *_, p in terms) > 3 else (_TAYLOR_RADIUS, _TAYLOR_TERMS))
    # imported here, so that processes which build no kernel skip it
    from fractions import Fraction

    def moment(j: int) -> Fraction:
        return sum(Fraction(c) * (Fraction(hi) ** (j + i + 1) - Fraction(lo) ** (j + i + 1))
                   / (j + i + 1) for lo, hi, coeffs in pieces for i, c in enumerate(coeffs))
    series = [float((-1) ** n * moment(2 * n) / math.factorial(2 * n))
              for n in range(n_terms)]

    def time_eval(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        small = np.abs(t) < radius
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
        _series=(radius, tuple(series)),
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


def bump_kernel() -> Kernel:
    """Kernel whose transform is a C^2 plateau.

    The transform is 1 on |s| <= 1/2 and ``1 - S(2|s| - 1)`` on
    1/2 <= |s| <= 1, with ``S(u) = 10u^3 - 15u^4 + 6u^5``, and vanishes
    beyond; psi, psi' and psi'' are continuous, so the time profile falls
    like ``t^-4`` and ``int |t| |phi(t)| dt`` is finite, where tent and
    fudge fall like ``t^-2``.
    """
    return _piecewise_kernel("bump", ((0.0, 0.5, (1.0,)), (
        0.5, 1.0, (32.0, -240.0, 720.0, -1040.0, 720.0, -192.0))))


def _component_tails(rows, t_from: float) -> np.ndarray:
    """Integrals of coef * trig(freq * u) / u**power over [t_from, inf), one per row.

    ``rows`` holds ``(coef, trig, freq, power)`` tuples.  With a = t_from,
    ``int_a^inf e^{i|f|u} u^-p du = e^{i|f|a} (i|f|)^{p-1} R_{p-1}(-i|f|a) / (p-1)!``
    with R_k as in :func:`_jump_terms`, whose one call per power p takes
    all oscillating rows: w = -|f|, x = i a w, the scalar q = -i/a and the
    unit vector e_{p-1}.
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
        x = 1j * (t_from * w)
        tail = _jump_terms(x, w, -1j / t_from, np.eye(p)[p - 1])
        tail *= np.exp(-x) * ((-1j) ** (p - 1) / math.factorial(p - 1))
        out[idx] = coefs[idx] * np.where(is_cos[idx], tail.real, np.sign(freqs[idx]) * tail.imag)
    return out


def tail_integral(kernel: Kernel, t: float) -> float:
    """Integral of phi over [t, inf) for t > 0.

    From the small-|t| switch on, the closed-form tails of the
    trigonometric components (:func:`_component_tails`); below it, where
    they cancel, 1/2 minus the integrated Taylor series, since phi is even
    with unit mass.
    """
    if not t > 0.0:
        raise ValueError("tail integral requires t > 0")
    radius, series = kernel._series
    if t < radius:
        return 0.5 - math.fsum(c * t ** (2 * n + 1) / (2 * n + 1)
                               for n, c in enumerate(series)) / math.pi
    return math.fsum(_component_tails(kernel._components, t).tolist())


def numeric_fourier(kernel: Kernel, s, spec: Optional[QuadratureSpec] = None):
    """Fourier transform of phi at s computed from the time profile.

    Independent of ``freq_eval``: integrates ``2 * phi(t) * cos(s t)``
    adaptively on [0, 1] and takes the rest from the closed-form tails of
    the product-to-sum components, all points' tails in one
    :func:`_component_tails` call.  ``s`` is a scalar, giving a float, or
    an array, giving an array of its shape.
    """
    if spec is None:
        spec = QuadratureSpec()
    grid = np.asarray(s, dtype=float)
    points = grid.ravel().tolist()
    out = np.empty(len(points))
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
    return float(out[0]) if grid.ndim == 0 else out.reshape(grid.shape)
