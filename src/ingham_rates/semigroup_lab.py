"""Diagonal operator models for semigroup decay experiments.

A :class:`DiagonalOperator` is a sequence of eigenvalues in the open left
half-plane, generating the multiplication semigroup ``(e^{lambda_n t} x_n)``
on a sup-normed sequence space.  Everything of interest is computable per
mode: orbit norms are maxima of ``|w_n| e^{Re lambda_n t}`` over the mode
weights of the chosen orbit, resolvent norms are reciprocal distances from
``i s`` to the spectrum, and boundary functions are rational in ``s``.

Two eigenvalue families model the standard decay regimes:

* ``cluster_infinity(alpha, N)``: ``lambda_n = -n^-alpha + i n`` -- the
  spectrum approaches the imaginary axis at high frequencies, so resolvent
  growth at infinity governs the decay of smooth orbits;
* ``cluster_zero(beta, N)``: ``lambda_n = -n^-beta + i/n`` -- the spectrum
  degenerates towards s = 0 and the singularity of the resolvent there
  governs the decay.

Resolvent envelopes are the exact running suprema of the resolvent norm,
computed on demand with no table.  Each mode's term 1/|i s - lambda_n|
peaks at s = Im lambda_n with height 1/|Re lambda_n|, so the supremum over
a frequency window is the larger of the norms at the window's ends and the
highest peak inside it.  The end norms come from an exact nearest-mode
search over the ordinates; the peaks from a running maximum over the
sorted ordinates.  Growth envelopes take the sup over s_min <= |s| <= R,
decay envelopes over r <= |s| <= 1 with the clamp max(1, 1/r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .rate_functions import MonotoneFunction

__all__ = [
    "DiagonalOperator",
    "Scenario",
    "ORBIT_KINDS",
    "single_mode",
    "cluster_infinity",
    "cluster_zero",
    "mixed_cluster",
    "mode_weights",
    "orbit_norm",
    "orbit_argmax",
    "resolvent_norm",
    "boundary_function",
    "resolvent_envelope_growth",
    "resolvent_envelope_decay",
]

ORBIT_KINDS = ("ainv", "ar_omega", "ar_omega_sq", "vector")

# most cells (times x modes) that orbit_norm evaluates at once; the
# relative distance to a row's maximum within which a mode is tied with
# the maximiser, and the share of the largest amplitude below which a row
# maximum is too near underflow to narrow the sweep on
_ORBIT_CELLS = 1 << 14
_TIE_REL = 1e-9
_UNDERFLOW = 1e-290
# modes on each side of x in the nearest-ordinate window of _resolvent_peak,
# sentinel modes on each side of the padded spectrum (one beyond every
# window), and the padded offsets from x's insertion index of the window
# and of the window with the mode just outside it on each side
_HALF_WINDOW = 4
_PAD = _HALF_WINDOW + 1
_WINDOW = np.arange(1, 2 * _HALF_WINDOW + 1)
_OUTER = np.arange(2 * _PAD)


@dataclass(frozen=True, eq=False)
class DiagonalOperator:
    """Eigenvalues of a diagonal generator, all strictly in Re < 0.

    ``families`` holds the mode counts of the generating families, whose
    modes follow one another in that order; the default is one family of
    all N modes.  :meth:`family_of` lets experiments detect when a
    maximising mode drifts into the truncated half of a family.
    """

    eigenvalues: np.ndarray
    label: str = ""
    families: Optional[tuple] = None

    def __post_init__(self) -> None:
        eig = np.atleast_1d(np.asarray(self.eigenvalues, dtype=complex))
        if eig.size == 0:
            raise ValueError("operator needs at least one eigenvalue")
        if not np.all(np.isfinite(eig)):
            raise ValueError("eigenvalues must be finite")
        if np.any(eig.real >= 0.0):
            raise ValueError("eigenvalues must have strictly negative real part")
        object.__setattr__(self, "eigenvalues", eig)
        families = (eig.size,) if self.families is None else tuple(self.families)
        if not (families and all(isinstance(n, (int, np.integer)) and n >= 1 for n in families)
                and sum(families) == eig.size):
            raise ValueError("family mode counts must be positive integers that add up"
                             " to the eigenvalue count")
        object.__setattr__(self, "families", tuple(map(int, families)))

    @property
    def size(self) -> int:
        return int(self.eigenvalues.size)

    def family_of(self, mode: int) -> tuple[int, int]:
        """The 1-based index of ``mode`` (0-based, in the operator) within
        its family, and the family's mode count."""
        if not 0 <= mode < self.size:
            raise IndexError(f"mode {mode} outside 0..{self.size - 1}")
        for size in self.families:
            if mode < size:
                return mode + 1, size
            mode -= size


def _count(name: str, n, least: int = 1) -> int:
    """``n`` as an int, refused by ``name`` unless a whole number of at least ``least``."""
    if not (least <= n < math.inf and n == int(n)):
        raise ValueError(f"{name} must be an integer of at least {least}")
    return int(n)


def single_mode(eigenvalue: complex) -> DiagonalOperator:
    """Operator with one eigenvalue; the simplest oracle model."""
    return DiagonalOperator(np.array([eigenvalue], dtype=complex),
                            label=f"single_mode({eigenvalue})")


def cluster_infinity(alpha: float, n_modes: int) -> DiagonalOperator:
    """lambda_n = -n**(-alpha) + i*n for n = 1..n_modes, with alpha > 0."""
    if not 0.0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    n_modes = _count("n_modes", n_modes)
    n = np.arange(1, n_modes + 1, dtype=float)
    lam = np.empty(n_modes, dtype=complex)  # filled in place: no complex temporaries
    np.negative(np.power(n, -alpha, out=lam.real), out=lam.real)
    lam.imag = n
    return DiagonalOperator(lam, label=f"cluster_infinity(alpha={alpha:g}, N={n_modes})")


def cluster_zero(beta: float, n_modes: int) -> DiagonalOperator:
    """lambda_n = -n**(-beta) + i/n for n = 1..n_modes, with beta > 1."""
    if not 1.0 < beta < math.inf:
        raise ValueError("beta must exceed 1 and be finite")
    n_modes = _count("n_modes", n_modes)
    n = np.arange(1, n_modes + 1, dtype=float)
    lam = np.empty(n_modes, dtype=complex)
    np.negative(np.power(n, -beta, out=lam.real), out=lam.real)
    np.divide(1.0, n, out=lam.imag)
    return DiagonalOperator(lam, label=f"cluster_zero(beta={beta:g}, N={n_modes})")


def mixed_cluster(alpha: float, beta: float, n_infinity: int, n_zero: int) -> DiagonalOperator:
    """Union of a cluster_infinity and a cluster_zero family."""
    n_infinity, n_zero = _count("n_infinity", n_infinity), _count("n_zero", n_zero)
    a = cluster_infinity(alpha, n_infinity)
    b = cluster_zero(beta, n_zero)
    return DiagonalOperator(
        np.concatenate([a.eigenvalues, b.eigenvalues]),
        label=f"mixed(alpha={alpha:g}, beta={beta:g}, N={n_infinity}+{n_zero})",
        families=(n_infinity, n_zero),
    )


@dataclass(frozen=True, eq=False)
class Scenario:
    """An operator together with the orbit whose decay is studied.

    Orbit kinds: ``ainv`` follows ``T(t) A^{-1}``, ``ar_omega`` follows
    ``T(t) A R(omega, A)``, ``ar_omega_sq`` follows ``T(t) A R(omega, A)^2``
    (all operator norms), and ``vector`` follows ``T(t) x`` for the stored
    vector ``x`` (default: all ones, unit sup-norm).
    """

    operator: DiagonalOperator
    orbit_kind: str
    omega: float = 1.0
    x: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.orbit_kind not in ORBIT_KINDS:
            raise ValueError(f"orbit_kind must be one of {ORBIT_KINDS}")
        if not 0.0 < self.omega < math.inf:
            raise ValueError("omega must be positive and finite")
        if self.x is None:
            object.__setattr__(self, "x", np.ones(self.operator.size, dtype=complex))
        else:
            x = np.asarray(self.x, dtype=complex)
            if x.shape != self.operator.eigenvalues.shape:
                raise ValueError("x must have one component per eigenvalue")
            if not np.all(np.isfinite(x)):
                raise ValueError("x must be finite")
            object.__setattr__(self, "x", x)


def mode_weights(scenario: Scenario) -> np.ndarray:
    """Componentwise weights w_n with orbit f_n(t) = w_n * exp(lambda_n t)."""
    lam = scenario.operator.eigenvalues
    x = scenario.x
    if scenario.orbit_kind == "ainv":
        return x / lam
    if scenario.orbit_kind == "ar_omega":
        return x * lam / (scenario.omega - lam)
    if scenario.orbit_kind == "ar_omega_sq":
        return x * lam / (scenario.omega - lam) ** 2
    return x.copy()


def _orbit_amplitudes(scenario: Scenario) -> np.ndarray:
    """|w_n| with x replaced by ones for the operator-norm orbit kinds."""
    lam = scenario.operator.eigenvalues
    if scenario.orbit_kind == "vector":
        return np.abs(scenario.x)
    # the operations of 1 / |lam| and |lam / (omega - lam)**j|, in place
    if scenario.orbit_kind == "ainv":
        amps = np.abs(lam)
        return np.divide(1.0, amps, out=amps)
    d = scenario.omega - lam
    if scenario.orbit_kind == "ar_omega_sq":
        np.square(d, out=d)
    return np.abs(np.divide(lam, d, out=d))


def _orbit_times(t) -> np.ndarray:
    """t as a float array, rejecting NaN, +-inf and t < 0 by name."""
    arr = np.asarray(t, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("t must be finite")
    if (arr < 0.0).any():
        raise ValueError("t must be non-negative: the semigroup is defined for t >= 0")
    return arr


def _orbit_rows(times: np.ndarray, sigma: np.ndarray, amps: np.ndarray, out: np.ndarray) -> None:
    """out[i] = max_n amps[n] exp(times[i] sigma[n]), in blocks of at most ``_ORBIT_CELLS`` cells.

    Each block is evaluated in place in one buffer (one row per block when
    there are more modes), so the full times-by-modes matrix is never built.
    """
    rows = max(1, _ORBIT_CELLS // sigma.size)
    buffer = np.empty((min(rows, times.size), sigma.size))
    for start in range(0, times.size, rows):
        block = buffer[:min(rows, times.size - start)]
        np.multiply(times[start:start + rows, None], sigma, out=block)
        np.exp(block, out=block)
        block *= amps
        block.max(axis=1, out=out[start:start + rows])


def _orbit_sweep(scenario: Scenario, times: np.ndarray, edges: bool = False):
    """Orbit norms at the finite, non-negative 1-d ``times`` by a sweep along the maximiser.

    The norm is the upper envelope of the lines log|w_n| + t Re lambda_n,
    so the maximising mode's Re lambda never decreases as t grows.  With
    the modes sorted by Re lambda and the times sorted, the earliest and
    the latest time are evaluated over all modes, and a rectangle of the
    times between them by a range of modes is split at its middle time.
    An evaluated row narrows the range of the times on either side: later
    times keep the modes from its maximiser onward, earlier ones the modes
    up to it, each side widened to every mode within a relative
    ``_TIE_REL`` of the row maximum.  A mode further below is below the
    maximiser at every time on the other side: in exact arithmetic by a
    factor under 1 - 1e-9, and in floating point too, since a cell with a
    normal exponential is within about 1e-13 of its exact value (|t Re
    lambda| <= 710 there) and the other cells lie below A * 2.3e-308, A
    the largest amplitude.  So a row narrows only if its maximum is at
    least ``_UNDERFLOW * A`` (a normal number), and a time whose norm ends
    below that is evaluated again over all modes.  A rectangle of at most
    ``_ORBIT_CELLS`` cells is evaluated directly.  Each kept cell is
    computed by the same operations as in the full matrix, so each norm is
    bitwise its maximum over all modes.  The sweep needs every cell finite
    (no inf * 0), which holds when A is finite, since no exponential
    exceeds 1; otherwise, and when all cells fit in one block, the modes
    are evaluated unsorted in blocks, since which NaN a maximum returns
    depends on their order.

    Returns the norms in the order of ``times`` and, when ``edges`` is
    set, the index in the operator of the maximising mode at the earliest
    and at the latest time (the first one, as ``np.argmax`` takes it),
    else None.
    """
    amps = _orbit_amplitudes(scenario)
    sigma = scenario.operator.eigenvalues.real
    by_time = np.argsort(times, kind="stable")
    ts = times[by_time]
    vals = np.empty(ts.size)
    top_amp = amps.max()
    floor = _UNDERFLOW * top_amp
    # no cell exceeds top_amp, as t >= 0 and Re lambda < 0
    if (ts.size * sigma.size > _ORBIT_CELLS and floor >= np.finfo(float).tiny
            and np.isfinite(top_amp)):
        argmax = _sweep_sorted(ts, sigma, amps, floor, vals, edges)
    else:
        _orbit_rows(ts, np.ascontiguousarray(sigma), amps, vals)
        argmax = [int(np.argmax(amps * np.exp(sigma * t))) for t in ts[[0, -1]]] if edges else None
    out = np.empty(ts.size)
    out[by_time] = vals
    return out, argmax


def _sweep_sorted(ts, sigma, amps, floor, vals, edges):
    """The sweep of :func:`_orbit_sweep` over the sorted times ``ts`` into ``vals``."""
    n = sigma.size
    # the cluster families come sorted
    order = None
    if (sigma[1:] < sigma[:-1]).any():
        order = np.argsort(sigma, kind="stable")
        sigma, amps = sigma[order], amps[order]
    narrowed = np.zeros(ts.size, dtype=bool)

    def split(i, lo, hi):
        """Evaluate time i over modes [lo, hi); the range its ties bound, and the row."""
        row = ts[i] * sigma[lo:hi]
        np.exp(row, out=row)
        row *= amps[lo:hi]
        top = vals[i] = row.max()
        narrowed[i] = lo > 0 or hi < n
        if top < floor:
            return lo, hi, row
        tied = np.flatnonzero(row >= top * (1.0 - _TIE_REL))
        return lo + int(tied[0]), lo + int(tied[-1]) + 1, row

    last = ts.size - 1
    lo, _, first = split(0, 0, n)
    _, hi, latest = split(last, 0, n)
    stack = [(1, last, lo, hi)]
    while stack:
        t0, t1, lo, hi = stack.pop()
        if t0 >= t1:
            continue
        if (t1 - t0) * (hi - lo) <= _ORBIT_CELLS:
            _orbit_rows(ts[t0:t1], sigma[lo:hi], amps[lo:hi], vals[t0:t1])
            narrowed[t0:t1] = lo > 0 or hi < n
            continue
        mid = (t0 + t1) // 2
        mid_lo, mid_hi, _ = split(mid, lo, hi)
        stack.append((t0, mid, lo, mid_hi))
        stack.append((mid + 1, t1, mid_lo, hi))
    low = np.flatnonzero(narrowed & (vals < floor))
    if low.size:
        again = np.empty(low.size)
        _orbit_rows(ts[low], sigma, amps, again)
        vals[low] = again
    if not edges:
        return None
    argmax = []
    for i, row in ((0, first), (last, latest)):
        tied = np.flatnonzero(row == vals[i])
        argmax.append(int(tied[0] if order is None else order[tied].min()))
    return argmax


def orbit_norm(scenario: Scenario, t):
    """Sup-norm decay profile at time(s) t, which must be finite and non-negative.

    For the operator orbit kinds this is the operator norm
    ``max_n |coef_n| exp(Re lambda_n t)`` (independent of x); for
    ``vector`` it is the sup-norm of the componentwise orbit.  The norm
    is the upper envelope of the lines log|w_n| + t Re lambda_n, so the
    maximising mode's Re lambda never decreases as t grows, and a sweep
    over the sorted times evaluates only the modes that can still attain
    the maximum (:func:`_orbit_sweep`, which also says why its 1e-9 tie
    margin and 1e-290 underflow floor keep every norm bitwise the maximum
    over all modes).  The full times-by-modes matrix is never built.
    """
    arr = _orbit_times(t)
    vals, _ = _orbit_sweep(scenario, arr.ravel())
    return float(vals[0]) if arr.ndim == 0 else vals.reshape(arr.shape)


def orbit_argmax(scenario: Scenario, t: float) -> tuple[float, int, int]:
    """Orbit norm at the finite time t >= 0 with the maximising mode's family index and size."""
    t = float(_orbit_times(t))
    amps = _orbit_amplitudes(scenario)
    sigma = scenario.operator.eigenvalues.real
    profile = amps * np.exp(sigma * t)
    idx = int(np.argmax(profile))
    return (float(profile[idx]),) + scenario.operator.family_of(idx)


def resolvent_norm(operator: DiagonalOperator, s: float) -> float:
    """Norm of the resolvent at the imaginary-axis point i*s."""
    if not math.isfinite(s):
        raise ValueError("s must be finite")
    lam = operator.eigenvalues
    dist = np.min(np.abs(1j * float(s) - lam))
    if dist == 0.0:
        raise ValueError("i*s is an eigenvalue; the resolvent is unbounded")
    return float(1.0 / dist)


def boundary_function(scenario: Scenario, s: float, derivative: int = 0) -> np.ndarray:
    """Componentwise boundary values of the Laplace transform on Re = 0.

    The orbit ``f(t) = w exp(lambda t)`` for t >= 0 has transform
    ``w / (i s - lambda)``, so the derivative of order j is
    ``(-i)^j j! w / (i s - lambda)^{j+1}``.
    """
    derivative = _count("derivative", derivative, least=0)
    if not math.isfinite(s):
        raise ValueError("s must be finite")
    lam = scenario.operator.eigenvalues
    w = mode_weights(scenario)
    denom = (1j * float(s) - lam) ** (derivative + 1)
    return ((-1j) ** derivative) * math.factorial(derivative) * w / denom


# -- resolvent envelopes ------------------------------------------------------


def _folded_spectrum(operator: DiagonalOperator) -> tuple[np.ndarray, np.ndarray]:
    """Ordinates |Im lambda_n| in ascending order with the matching |Re lambda_n|.

    For x >= 0, |i x - lambda_n| and |-i x - lambda_n| are at least the
    distance from (x, 0) to (|Im lambda_n|, Re lambda_n), with equality for
    one of the two signs, so the folded points carry both half-axes.
    """
    lam = operator.eigenvalues
    ordinates, damping = np.abs(lam.imag), np.abs(lam.real)
    # a stable sort leaves sorted ordinates, as cluster_infinity has them, in place
    if (ordinates[1:] < ordinates[:-1]).any():
        order = np.argsort(ordinates, kind="stable")
        ordinates, damping = ordinates[order], damping[order]
    return ordinates, damping


def _padded_spectrum(ordinates: np.ndarray, damping: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ordinates and squared damping with ``_PAD`` sentinel modes on each side.

    A sentinel's ordinate is NaN.  Its distance to every x is NaN, which
    the window minimum of :func:`_resolvent_peak` skips, so no window needs
    clipping at the ends of the spectrum; and every comparison with it is
    False, so the ordinate just outside a window at an end never makes the
    row wide.
    """
    pad = np.full(_PAD, np.nan)
    damping2 = np.concatenate([pad, damping, pad])
    return np.concatenate([pad, ordinates, pad]), np.square(damping2, out=damping2)


def _resolvent_peak(padded: tuple[np.ndarray, np.ndarray], x: np.ndarray) -> np.ndarray:
    """max(1, ||R(i x)||, ||R(-i x)||) for every x >= 0, exactly.

    ``padded`` is the folded spectrum from :func:`_padded_spectrum`.  The
    eight modes nearest in ordinate (sentinels beyond the ends) give a
    first distance d.  A mode outside that window can only matter if its
    ordinate lies within reach = min(1, d) of x (beyond 1 the clamp
    decides), which the two ordinates just outside the window show.  Only
    such wide rows search for that range, and are rescanned over it in
    one pass.
    """
    window_ordinates, window_damping2 = padded
    ordinates = window_ordinates[_PAD:-_PAD]
    damping2 = window_damping2[_PAD:-_PAD]
    j = ordinates.searchsorted(x)[:, None]
    # the window's ordinates with the one just outside it on each side
    outer = window_ordinates[j + _OUTER]
    d2 = x[:, None] - outer[:, 1:-1]
    d2 *= d2
    d2 += window_damping2[j + _WINDOW]
    reach = np.sqrt(np.fmin.reduce(d2, axis=1))
    np.minimum(reach, 1.0, out=reach)
    wide = ((outer[:, 0] >= x - reach) | (outer[:, -1] <= x + reach)).nonzero()[0]
    if wide.size:
        x_wide, reach_wide = x[wide], reach[wide]
        lo = np.searchsorted(ordinates, x_wide - reach_wide)
        counts = np.searchsorted(ordinates, x_wide + reach_wide, "right") - lo
        starts = np.cumsum(counts) - counts
        cols = np.arange(int(counts.sum())) + np.repeat(lo - starts, counts)
        d2 = damping2[cols] + (np.repeat(x_wide, counts) - ordinates[cols]) ** 2
        reach[wide] = np.minimum(np.sqrt(np.minimum.reduceat(d2, starts)), 1.0)
    return np.divide(1.0, reach, out=reach)


def resolvent_envelope_growth(
    operator: DiagonalOperator,
    r_grid: Optional[np.ndarray] = None,
    s_min: float = 0.0,
) -> MonotoneFunction:
    """M(R) = max(1, sup_{s_min <= |s| <= R} ||R(i s)||), evaluated exactly on demand.

    Each mode's resolvent term peaks at s = Im lambda_n with height
    1/|Re lambda_n|, so the supremum over the window is the larger of the
    endpoint norms at s_min and R and the highest peak with ordinate in
    [s_min, R] (a prefix maximum over the sorted ordinates).  Below s_min
    the envelope is constant.  ``s_min`` restricts the envelope to
    frequencies |s| >= s_min (used when the low-frequency singularity is
    handled by a separate decay envelope).  ``r_grid`` is accepted for
    compatibility and ignored: no table is built.
    """
    s_min = float(s_min)
    if not 0.0 <= s_min < math.inf:
        raise ValueError("s_min must be non-negative and finite")
    ordinates, damping = _folded_spectrum(operator)
    padded = _padded_spectrum(ordinates, damping)
    # the peaks with ordinate >= s_min, a suffix of the sorted ordinates
    peaks_at = ordinates[ordinates.searchsorted(s_min):]
    # the norm at s_min joins every prefix maximum of the peaks
    floor = _resolvent_peak(padded, np.array([s_min]))
    highest = np.empty(peaks_at.size + 1)
    highest[0] = 1.0
    np.divide(1.0, damping[damping.size - peaks_at.size:], out=highest[1:])
    np.maximum(floor, np.maximum.accumulate(highest, out=highest), out=highest)

    def evaluate(R: np.ndarray) -> np.ndarray:
        R = np.maximum(R, s_min)
        return np.maximum(highest[peaks_at.searchsorted(R, "right")], _resolvent_peak(padded, R))

    return MonotoneFunction("growth", evaluate,
                            f"resolvent growth[{operator.size} modes, |s| >= {s_min:g}]")


def resolvent_envelope_decay(
    operator: DiagonalOperator,
    r_grid: Optional[np.ndarray] = None,
) -> MonotoneFunction:
    """m(r) = max(1/r, sup_{r <= |s| <= 1} ||R(i s)||), evaluated exactly on demand.

    The mirror of the growth envelope: the endpoint norms at r and 1 and
    the highest peak with ordinate in [r, 1] (a suffix maximum over the
    sorted ordinates), clamped below at max(1, 1/r).  ``r_grid`` is
    accepted for compatibility and ignored: no table is built.
    """
    ordinates, damping = _folded_spectrum(operator)
    padded = _padded_spectrum(ordinates, damping)
    # the peaks with ordinate <= 1, a prefix of the sorted ordinates
    peaks_at = ordinates[:ordinates.searchsorted(1.0, "right")]
    # the norm at 1 joins every suffix maximum of the peaks
    floor = _resolvent_peak(padded, np.array([1.0]))
    highest = np.empty(peaks_at.size + 1)
    highest[-1] = 1.0
    np.divide(1.0, damping[:peaks_at.size], out=highest[:-1])
    np.maximum.accumulate(highest[::-1], out=highest[::-1])
    np.maximum(floor, highest, out=highest)

    def evaluate(r: np.ndarray) -> np.ndarray:
        peak = np.maximum(highest[peaks_at.searchsorted(r, "left")], _resolvent_peak(padded, r))
        return np.maximum(peak, 1.0 / r)

    return MonotoneFunction("decay", evaluate,
                            f"resolvent decay[{operator.size} modes]")
