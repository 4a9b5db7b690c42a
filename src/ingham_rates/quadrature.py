"""Numerical integration primitives.

Finite intervals are handled by adaptive bisection with an embedded
Gauss(7)/Kronrod(15) rule pair; complex integrands are integrated as two
real ones.  Oscillatory tails of the form
``envelope(s) * cos(alpha*s + phase)`` with a positive non-increasing
envelope are summed over half-periods; the resulting alternating series is
truncated once a term falls below a floor, or -- when the envelope decays
too slowly for direct truncation -- summed by iterated averaging of the
partial sums.

All integrand callables must accept a one-dimensional numpy array and
return an array of the same shape.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadResult",
    "EnvelopeError",
    "NonConvergenceError",
    "integrate",
    "integrate_oscillatory",
]


class EnvelopeError(ValueError):
    """Raised when an oscillatory envelope is not positive and non-increasing."""


class NonConvergenceError(RuntimeError):
    """Raised by a caller whose quadrature result came back not converged."""


# Gauss(7)/Kronrod(15) abscissae and weights on [-1, 1].
_KRONROD_POS = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_KRONROD_WPOS = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_GAUSS_WPOS = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate([-_KRONROD_POS[:-1], _KRONROD_POS[::-1]])
_WEIGHTS_K = np.concatenate([_KRONROD_WPOS[:-1], _KRONROD_WPOS[::-1]])
_GAUSS_IDX = np.array([1, 3, 5, 7, 9, 11, 13])
_WEIGHTS_G = np.concatenate([_GAUSS_WPOS[:-1], _GAUSS_WPOS[::-1]])

_GL16_NODES, _GL16_WEIGHTS = np.polynomial.legendre.leggauss(16)
# magnitude of the half-period term at which integrate_oscillatory stops
_TERM_TOL = 1e-14


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budgets shared by the integration routines.

    ``oscillation_frequency`` pre-splits finite intervals into panels no
    wider than half the hinted period before adaptive refinement starts.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_subdivisions: int = 10000
    oscillation_frequency: Optional[float] = None

    def __post_init__(self) -> None:
        if self.abs_tol <= 0.0:
            raise ValueError("abs_tol must be positive")
        if self.rel_tol <= 0.0:
            raise ValueError("rel_tol must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")
        if self.oscillation_frequency is not None and self.oscillation_frequency <= 0.0:
            raise ValueError("oscillation_frequency must be positive when given")


class QuadResult(NamedTuple):
    """Integral value, conservative error estimate, and convergence flag."""

    value: Union[float, complex]
    error: float
    converged: bool


def _panel_estimate(f: Callable, a: float, b: float) -> tuple[float, float]:
    """Kronrod-15 value and |K15 - G7| error estimate on one panel."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    y = np.asarray(f(mid + half * _NODES), dtype=float)
    value = half * float(np.dot(_WEIGHTS_K, y))
    gauss = half * float(np.dot(_WEIGHTS_G, y[_GAUSS_IDX]))
    err = abs(value - gauss)
    if not math.isfinite(value):
        err = math.inf
    return value, err


def _integrate_real(f: Callable, a: float, b: float, spec: QuadratureSpec) -> QuadResult:
    if spec.oscillation_frequency is not None:
        n0 = min(8192, max(1, math.ceil((b - a) * spec.oscillation_frequency / math.pi)))
    else:
        n0 = 1
    edges = np.linspace(a, b, n0 + 1)

    heap: list[tuple[float, int, float, float, float, float]] = []
    counter = 0
    total_value = 0.0
    total_error = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        v, e = _panel_estimate(f, lo, hi)
        heapq.heappush(heap, (-e, counter, lo, hi, v, e))
        counter += 1
        total_value += v
        total_error += e

    splits = 0
    while splits < spec.max_subdivisions:
        if total_error <= max(spec.abs_tol, spec.rel_tol * abs(total_value)):
            break
        neg_e, _, lo, hi, v, e = heapq.heappop(heap)
        if e <= 0.0 or hi - lo <= 4.0 * np.spacing(max(abs(lo), abs(hi), 1.0)):
            # Panel cannot be improved; put it back and stop refining.
            heapq.heappush(heap, (neg_e, counter, lo, hi, v, e))
            counter += 1
            break
        mid = 0.5 * (lo + hi)
        v1, e1 = _panel_estimate(f, lo, mid)
        v2, e2 = _panel_estimate(f, mid, hi)
        total_value += (v1 + v2) - v
        total_error += (e1 + e2) - e
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, e1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, hi, v2, e2))
        counter += 1
        splits += 1

    # Re-assemble in deterministic interval order to avoid drift from the
    # incremental bookkeeping above.
    panels = sorted((item[2], item[4], item[5]) for item in heap)
    value = float(sum(p[1] for p in panels))
    error = float(sum(p[2] for p in panels))
    converged = error <= max(spec.abs_tol, spec.rel_tol * abs(value))
    return QuadResult(value, error, converged)


def integrate(f: Callable, a: float, b: float, spec: Optional[QuadratureSpec] = None) -> QuadResult:
    """Integrate ``f`` over the finite interval [a, b].

    Adaptive bisection with the Gauss(7)/Kronrod(15) pair; refinement stops
    once the summed panel error estimate drops below
    ``max(abs_tol, rel_tol * |value|)`` or the subdivision budget is spent
    (in which case the best estimate is returned flagged non-converged).
    Complex-valued integrands are integrated as two real integrals with
    error estimates combined by ``max``.
    """
    if spec is None:
        spec = QuadratureSpec()
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration endpoints must be finite")
    if a > b:
        raise ValueError("lower endpoint must not exceed upper endpoint")
    if a == b:
        return QuadResult(0.0, 0.0, True)

    probe = np.asarray(f(np.array([0.5 * (a + b)])))
    if np.iscomplexobj(probe):
        re = _integrate_real(lambda x: np.real(f(x)), a, b, spec)
        im = _integrate_real(lambda x: np.imag(f(x)), a, b, spec)
        return QuadResult(
            complex(re.value, im.value),
            max(re.error, im.error),
            re.converged and im.converged,
        )
    return _integrate_real(f, a, b, spec)


def _half_period_terms(
    envelope: Callable,
    alpha: float,
    phase: float,
    start: float,
    count: int,
    offset: int,
) -> np.ndarray:
    """Gauss-Legendre values of consecutive half-period integrals.

    Term ``j`` is the integral of ``envelope(s) * cos(alpha*s + phase)`` over
    ``[start + j*pi/alpha, start + (j+1)*pi/alpha]`` for
    ``j = offset, ..., offset + count - 1``.
    """
    h = math.pi / alpha
    lows = start + h * (offset + np.arange(count))
    half = 0.5 * h
    mids = lows + half
    nodes = mids[:, None] + half * _GL16_NODES[None, :]
    flat = nodes.ravel()
    vals = (np.asarray(envelope(flat)) * np.cos(alpha * flat + phase)).reshape(count, 16)
    return half * vals @ _GL16_WEIGHTS


def _averaged_tail(partials: np.ndarray) -> tuple[float, float]:
    """Iterated mean acceleration of an alternating series' partial sums."""
    work = partials.astype(float).copy()
    prev = work[0]
    while work.size > 1:
        prev = work[0]
        work = 0.5 * (work[:-1] + work[1:])
    return float(work[0]), abs(float(work[0]) - float(prev))


def integrate_oscillatory(
    envelope: Callable,
    alpha: float,
    t_from: float,
    *,
    phase: float = 0.0,
    spec: Optional[QuadratureSpec] = None,
) -> QuadResult:
    """Integrate ``envelope(s) * cos(alpha*s + phase)`` over [t_from, inf).

    The axis is split at the zeros of the cosine factor.  The first,
    partial panel is integrated adaptively; subsequent half-period terms
    form an alternating series with decreasing magnitudes (because the
    envelope is positive and non-increasing), which is truncated once a
    term falls below ``_TERM_TOL`` -- the first omitted term bounds the
    remainder.  If 192 terms do not reach the floor, the partial sums are
    contracted by iterated averaging instead.
    """
    if spec is None:
        spec = QuadratureSpec()
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if t_from < 0.0:
        raise ValueError("t_from must be non-negative")

    # First zero of cos(alpha*s + phase) strictly beyond t_from.
    m0 = math.floor((alpha * t_from + phase - 0.5 * math.pi) / math.pi) + 1
    s0 = (0.5 * math.pi + m0 * math.pi - phase) / alpha
    while s0 <= t_from:
        m0 += 1
        s0 = (0.5 * math.pi + m0 * math.pi - phase) / alpha

    head_spec = replace(spec, abs_tol=min(spec.abs_tol, 1e-12), oscillation_frequency=alpha)
    head = integrate(lambda s: np.asarray(envelope(s)) * np.cos(alpha * s + phase), t_from, s0, head_spec)

    max_terms = 192
    batch = 64
    terms = np.empty(0)
    truncated = False
    while terms.size < max_terms:
        block = _half_period_terms(envelope, alpha, phase, s0, batch, terms.size)
        terms = np.concatenate([terms, block])
        mags = np.abs(terms)
        if np.any(mags[1:] > mags[:-1] * (1.0 + 1e-9) + 1e-300):
            raise EnvelopeError(
                "half-period magnitudes increased; envelope must be positive and non-increasing"
            )
        if mags[-1] <= _TERM_TOL:
            truncated = True
            break

    if truncated:
        keep = int(np.argmax(np.abs(terms) <= _TERM_TOL)) + 1
        series = float(np.sum(terms[:keep]))
        series_err = float(np.abs(terms[keep - 1])) + 1e-15 * keep
    else:
        partials = np.cumsum(terms)
        series, avg_err = _averaged_tail(partials[-batch:])
        series_err = avg_err + 1e-15 * terms.size

    value = head.value + series
    error = head.error + series_err
    converged = head.converged and error <= max(spec.abs_tol, spec.rel_tol * abs(value)) * 10.0
    return QuadResult(value, error, converged)
