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
from dataclasses import dataclass, field
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

# most cells (times x modes) that orbit_norm evaluates at once
_ORBIT_CELLS = 1 << 16
# modes on each side of x in the nearest-ordinate window of _resolvent_peak,
# sentinel modes on each side of the padded spectrum (one beyond every
# window) and the window's padded offsets from x's insertion index
_HALF_WINDOW = 4
_PAD = _HALF_WINDOW + 1
_WINDOW = np.arange(1, 2 * _HALF_WINDOW + 1)


@dataclass(frozen=True, eq=False)
class DiagonalOperator:
    """Eigenvalues of a diagonal generator, all strictly in Re < 0.

    ``family_index`` carries each mode's index within its generating
    family and ``family_size`` the family's mode count; both default to a
    single family numbered 1..N.  They let experiments detect when a
    maximising mode drifts into the truncated half of a family.
    """

    eigenvalues: np.ndarray
    label: str = ""
    family_index: np.ndarray = field(default=None)
    family_size: np.ndarray = field(default=None)

    def __post_init__(self) -> None:
        eig = np.atleast_1d(np.asarray(self.eigenvalues, dtype=complex))
        if eig.size == 0:
            raise ValueError("operator needs at least one eigenvalue")
        if not np.all(np.isfinite(eig)):
            raise ValueError("eigenvalues must be finite")
        if np.any(eig.real >= 0.0):
            raise ValueError("eigenvalues must have strictly negative real part")
        object.__setattr__(self, "eigenvalues", eig)
        if self.family_index is None:
            object.__setattr__(self, "family_index", np.arange(1, eig.size + 1))
        else:
            object.__setattr__(self, "family_index", np.asarray(self.family_index, dtype=int))
        if self.family_size is None:
            object.__setattr__(self, "family_size", np.full(eig.size, eig.size, dtype=int))
        else:
            object.__setattr__(self, "family_size", np.asarray(self.family_size, dtype=int))
        if self.family_index.shape != eig.shape or self.family_size.shape != eig.shape:
            raise ValueError("family bookkeeping must match the eigenvalue count")

    @property
    def size(self) -> int:
        return int(self.eigenvalues.size)


def single_mode(eigenvalue: complex) -> DiagonalOperator:
    """Operator with one eigenvalue; the simplest oracle model."""
    return DiagonalOperator(np.array([eigenvalue], dtype=complex),
                            label=f"single_mode({eigenvalue})")


def cluster_infinity(alpha: float, n_modes: int) -> DiagonalOperator:
    """lambda_n = -n**(-alpha) + i*n for n = 1..n_modes, with alpha > 0."""
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    if n_modes < 1:
        raise ValueError("n_modes must be at least 1")
    n = np.arange(1, n_modes + 1, dtype=float)
    return DiagonalOperator(-(n ** (-alpha)) + 1j * n,
                            label=f"cluster_infinity(alpha={alpha:g}, N={n_modes})")


def cluster_zero(beta: float, n_modes: int) -> DiagonalOperator:
    """lambda_n = -n**(-beta) + i/n for n = 1..n_modes, with beta > 1."""
    if not beta > 1.0:
        raise ValueError("beta must exceed 1")
    if n_modes < 1:
        raise ValueError("n_modes must be at least 1")
    n = np.arange(1, n_modes + 1, dtype=float)
    return DiagonalOperator(-(n ** (-beta)) + 1j / n,
                            label=f"cluster_zero(beta={beta:g}, N={n_modes})")


def mixed_cluster(alpha: float, beta: float, n_infinity: int, n_zero: int) -> DiagonalOperator:
    """Union of a cluster_infinity and a cluster_zero family."""
    a = cluster_infinity(alpha, n_infinity)
    b = cluster_zero(beta, n_zero)
    return DiagonalOperator(
        np.concatenate([a.eigenvalues, b.eigenvalues]),
        label=f"mixed(alpha={alpha:g}, beta={beta:g}, N={n_infinity}+{n_zero})",
        family_index=np.concatenate([a.family_index, b.family_index]),
        family_size=np.concatenate([a.family_size, b.family_size]),
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
        if not self.omega > 0.0:
            raise ValueError("omega must be positive")
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
    if scenario.orbit_kind == "ainv":
        return 1.0 / np.abs(lam)
    if scenario.orbit_kind == "ar_omega":
        return np.abs(lam / (scenario.omega - lam))
    if scenario.orbit_kind == "ar_omega_sq":
        return np.abs(lam / (scenario.omega - lam) ** 2)
    return np.abs(scenario.x)


def orbit_norm(scenario: Scenario, t):
    """Sup-norm decay profile at time(s) t.

    For the operator orbit kinds this is the operator norm
    ``max_n |coef_n| exp(Re lambda_n t)`` (independent of x); for
    ``vector`` it is the sup-norm of the componentwise orbit.  The times
    are taken in blocks of rows of at most ``_ORBIT_CELLS`` cells (one row
    per block when there are more modes), each evaluated in place in one
    buffer, so the full times-by-modes matrix is never built.
    """
    amps = _orbit_amplitudes(scenario)
    sigma = np.ascontiguousarray(scenario.operator.eigenvalues.real)
    arr = np.asarray(t, dtype=float)
    flat = arr.ravel()
    vals = np.empty(flat.size)
    rows = max(1, _ORBIT_CELLS // sigma.size)
    buffer = np.empty((min(rows, flat.size), sigma.size))
    for start in range(0, flat.size, rows):
        block = buffer[:min(rows, flat.size - start)]
        np.multiply(flat[start:start + rows, None], sigma, out=block)
        np.exp(block, out=block)
        block *= amps
        block.max(axis=1, out=vals[start:start + rows])
    return float(vals[0]) if arr.ndim == 0 else vals.reshape(arr.shape)


def orbit_argmax(scenario: Scenario, t: float) -> tuple[float, int, int]:
    """Orbit norm at t with the maximising mode's family index and size."""
    amps = _orbit_amplitudes(scenario)
    sigma = scenario.operator.eigenvalues.real
    profile = amps * np.exp(sigma * float(t))
    idx = int(np.argmax(profile))
    return (float(profile[idx]),
            int(scenario.operator.family_index[idx]),
            int(scenario.operator.family_size[idx]))


def resolvent_norm(operator: DiagonalOperator, s: float) -> float:
    """Norm of the resolvent at the imaginary-axis point i*s."""
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
    if derivative < 0:
        raise ValueError("derivative order must be non-negative")
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
    order = np.argsort(np.abs(lam.imag), kind="stable")
    return np.abs(lam.imag)[order], np.abs(lam.real)[order]


def _padded_spectrum(ordinates: np.ndarray, damping: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ordinates and squared damping with ``_PAD`` sentinel modes on each side.

    A sentinel's ordinate is NaN.  Its distance to every x is NaN, which
    the window minimum of :func:`_resolvent_peak` skips, so no window needs
    clipping at the ends of the spectrum; and every comparison with it is
    False, so the ordinate just outside a window at an end never makes the
    row wide.
    """
    pad = np.full(_PAD, np.nan)
    return (np.concatenate([pad, ordinates, pad]),
            np.concatenate([pad, damping ** 2, pad]))


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
    j = np.searchsorted(ordinates, x)
    near = j[:, None] + _WINDOW
    d2 = x[:, None] - window_ordinates[near]
    d2 *= d2
    d2 += window_damping2[near]
    reach = np.minimum(np.sqrt(np.fmin.reduce(d2, axis=1)), 1.0)
    wide = np.flatnonzero((window_ordinates[j] >= x - reach)
                          | (window_ordinates[j + 2 * _PAD - 1] <= x + reach))
    if wide.size:
        x_wide, reach_wide = x[wide], reach[wide]
        lo = np.searchsorted(ordinates, x_wide - reach_wide)
        counts = np.searchsorted(ordinates, x_wide + reach_wide, "right") - lo
        starts = np.cumsum(counts) - counts
        cols = np.arange(int(counts.sum())) + np.repeat(lo - starts, counts)
        d2 = damping2[cols] + (np.repeat(x_wide, counts) - ordinates[cols]) ** 2
        reach[wide] = np.minimum(np.sqrt(np.minimum.reduceat(d2, starts)), 1.0)
    return 1.0 / reach


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
    ordinates, damping = _folded_spectrum(operator)
    padded = _padded_spectrum(ordinates, damping)
    s_min = float(s_min)
    keep = ordinates >= s_min
    peaks_at = ordinates[keep]
    # the norm at s_min joins every prefix maximum of the peaks
    floor = _resolvent_peak(padded, np.array([s_min]))
    highest = np.maximum(floor, np.maximum.accumulate(np.concatenate([[1.0], 1.0 / damping[keep]])))

    def evaluate(R: np.ndarray) -> np.ndarray:
        R = np.maximum(R, s_min)
        return np.maximum(highest[np.searchsorted(peaks_at, R, "right")], _resolvent_peak(padded, R))

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
    keep = ordinates <= 1.0
    peaks_at = ordinates[keep]
    # the norm at 1 joins every suffix maximum of the peaks
    floor = _resolvent_peak(padded, np.array([1.0]))
    highest = np.maximum(
        floor, np.maximum.accumulate(np.concatenate([1.0 / damping[keep], [1.0]])[::-1])[::-1])

    def evaluate(r: np.ndarray) -> np.ndarray:
        peak = np.maximum(highest[np.searchsorted(peaks_at, r, "left")], _resolvent_peak(padded, r))
        return np.maximum(peak, 1.0 / r)

    return MonotoneFunction("decay", evaluate,
                            f"resolvent decay[{operator.size} modes]")
