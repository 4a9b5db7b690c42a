"""Numerical integration primitives.

Finite intervals are handled by adaptive bisection with an embedded
Gauss(7)/Kronrod(15) rule pair.  The integrand is evaluated in arrays: once
at the nodes of all pre-split panels, then once per split at the nodes of
both halves.  A complex integrand is evaluated once on the pre-split and
then refined as two real integrals, each with its own heap of panels.
Oscillatory tails of the form ``envelope(s) * cos(alpha*s + phase)`` with a
positive non-increasing envelope are summed over half-periods; the
resulting alternating series is truncated once a term falls below a floor,
or -- when the envelope decays too slowly for direct truncation -- summed
by iterated averaging of the partial sums.  The kernel tails do not use
it: :mod:`kernels` sums them in closed form.

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
# half-period terms per block, and the most an oscillatory tail sums
_BLOCK = 64
_MAX_TERMS = 192


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
        # negated comparisons, so that NaN fails them
        if not 0.0 < self.abs_tol < math.inf:
            raise ValueError("abs_tol must be positive and finite")
        if not 0.0 < self.rel_tol < math.inf:
            raise ValueError("rel_tol must be positive and finite")
        count = self.max_subdivisions
        if not (1 <= count < math.inf and count == int(count)):
            raise ValueError("max_subdivisions must be an integer of at least 1")
        hint = self.oscillation_frequency
        if hint is not None and not 0.0 < hint < math.inf:
            raise ValueError("oscillation_frequency must be positive and finite when given")


class QuadResult(NamedTuple):
    """Integral value, conservative error estimate, and convergence flag."""

    value: Union[float, complex]
    error: float
    converged: bool


def _estimates(y: np.ndarray, half) -> list[tuple[float, float]]:
    """Kronrod-15 value and |K15 - G7| error estimate of each panel.

    Row i of ``y`` holds the integrand at the nodes of a panel of half-width
    ``half[i]``.  Every row gets its own dot product, on the row as given
    and on a C-ordered copy of its Gauss nodes: BLAS sums strided and
    contiguous vectors in different orders, as it does a matrix product,
    and any of these moves the last bits.
    """
    out = []
    for row, gauss_row, h in zip(y, np.take(y, _GAUSS_IDX, axis=1), half):
        value = h * float(_WEIGHTS_K.dot(row))
        err = abs(value - h * float(_WEIGHTS_G.dot(gauss_row)))
        out.append((value, err if math.isfinite(value) else math.inf))
    return out


def _refine(f: Callable, lo: list, hi: list, estimates: list,
            spec: QuadratureSpec) -> QuadResult:
    """Adaptive bisection of the panels [lo_i, hi_i], given their estimates.

    Each step halves the panel with the largest error estimate and
    evaluates ``f`` once, at the nodes of both halves.
    """
    heap = [(-e, i, a, b, v, e) for i, (a, b, (v, e)) in enumerate(zip(lo, hi, estimates))]
    heapq.heapify(heap)
    counter = len(heap)
    total_value = 0.0
    total_error = 0.0
    for v, e in estimates:
        total_value += v
        total_error += e

    splits = 0
    while splits < spec.max_subdivisions:
        if total_error <= max(spec.abs_tol, spec.rel_tol * abs(total_value)):
            break
        neg_e, _, a, b, v, e = heapq.heappop(heap)
        if e <= 0.0 or b - a <= 4.0 * np.spacing(max(abs(a), abs(b), 1.0)):
            # Panel cannot be improved; put it back and stop refining.
            heapq.heappush(heap, (neg_e, counter, a, b, v, e))
            break
        mid = 0.5 * (a + b)
        h1, h2 = 0.5 * (mid - a), 0.5 * (b - mid)
        x = np.concatenate((0.5 * (a + mid) + h1 * _NODES, 0.5 * (mid + b) + h2 * _NODES))
        y = np.asarray(f(x), dtype=float).reshape(2, _NODES.size)
        (v1, e1), (v2, e2) = _estimates(y, (h1, h2))
        heapq.heappush(heap, (-e1, counter, a, mid, v1, e1))
        heapq.heappush(heap, (-e2, counter + 1, mid, b, v2, e2))
        counter += 2
        splits += 1
        if math.isfinite(e):
            total_value += (v1 + v2) - v
            total_error += (e1 + e2) - e
        else:
            # subtracting a non-finite panel would leave NaN totals for good
            total_value = sum(item[4] for item in heap)
            total_error = sum(item[5] for item in heap)

    # Re-assemble in deterministic interval order to avoid drift from the
    # incremental bookkeeping above.
    panels = sorted((item[2], item[4], item[5]) for item in heap)
    value = float(sum(p[1] for p in panels))
    error = float(sum(p[2] for p in panels))
    converged = math.isfinite(error) and error <= max(spec.abs_tol, spec.rel_tol * abs(value))
    return QuadResult(value, error, converged)


def integrate(f: Callable, a: float, b: float, spec: Optional[QuadratureSpec] = None) -> QuadResult:
    """Integrate ``f`` over the finite interval [a, b].

    Adaptive bisection with the Gauss(7)/Kronrod(15) pair; refinement stops
    once the summed panel error estimate drops below
    ``max(abs_tol, rel_tol * |value|)`` or the subdivision budget is spent
    (in which case the best estimate is returned flagged non-converged).
    A result whose error estimate is not finite is never converged.
    ``f`` is called once at the nodes of all pre-split panels and once per
    split.  A complex-valued integrand is refined as two real integrals
    from that first call, with error estimates combined by ``max``.
    """
    if spec is None:
        spec = QuadratureSpec()
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration endpoints a and b must be finite")
    if a > b:
        raise ValueError("lower endpoint must not exceed upper endpoint")
    if a == b:
        return QuadResult(0.0, 0.0, True)

    if spec.oscillation_frequency is not None:
        n0 = min(8192, max(1, math.ceil((b - a) * spec.oscillation_frequency / math.pi)))
    else:
        n0 = 1
    # np.linspace(a, b, n0 + 1) by its own formula, without its overhead
    edges = np.arange(n0 + 1) * ((b - a) / n0) + a
    edges[-1] = b
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    x = np.multiply.outer(half, _NODES)
    x += (0.5 * (lo + hi))[:, None]
    y = np.asarray(f(x.ravel())).reshape(n0, _NODES.size)
    lo, hi, halves = lo.tolist(), hi.tolist(), half.tolist()
    if np.iscomplexobj(y):
        # np.real/np.imag are strided views, as the refinement's rows are
        re = _refine(lambda x: np.real(f(x)), lo, hi, _estimates(np.real(y), halves), spec)
        im = _refine(lambda x: np.imag(f(x)), lo, hi, _estimates(np.imag(y), halves), spec)
        return QuadResult(
            complex(re.value, im.value),
            max(re.error, im.error),
            re.converged and im.converged,
        )
    return _refine(f, lo, hi, _estimates(np.asarray(y, dtype=float), halves), spec)


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
    if not 0.0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    if not 0.0 <= t_from < math.inf:
        raise ValueError("t_from must be non-negative and finite")
    if not math.isfinite(phase):
        raise ValueError("phase must be finite")

    # First zero of cos(alpha*s + phase) strictly beyond t_from.
    m0 = math.floor((alpha * t_from + phase - 0.5 * math.pi) / math.pi) + 1
    s0 = (0.5 * math.pi + m0 * math.pi - phase) / alpha
    while s0 <= t_from:
        m0 += 1
        s0 = (0.5 * math.pi + m0 * math.pi - phase) / alpha
    head = integrate(lambda s: np.asarray(envelope(s)) * np.cos(alpha * s + phase), t_from, s0,
                     replace(spec, abs_tol=min(spec.abs_tol, 1e-12), oscillation_frequency=alpha))

    # blocks of _BLOCK half-period terms, each by 16-point Gauss-Legendre
    h = math.pi / alpha
    half = 0.5 * h
    terms = np.empty(0)
    while True:
        mids = s0 + h * (terms.size + np.arange(_BLOCK)) + half
        nodes = (mids[:, None] + half * _GL16_NODES[None, :]).ravel()
        vals = np.asarray(envelope(nodes)) * np.cos(alpha * nodes + phase)
        terms = np.concatenate([terms, half * vals.reshape(_BLOCK, 16) @ _GL16_WEIGHTS])
        mags = np.abs(terms)
        if np.any(mags[1:] > mags[:-1] * (1.0 + 1e-9) + 1e-300):
            raise EnvelopeError("half-period magnitudes increased; envelope must be"
                                " positive and non-increasing")
        if mags[-1] <= _TERM_TOL:
            keep = int(np.argmax(mags <= _TERM_TOL)) + 1
            series = float(np.sum(terms[:keep]))
            series_err = float(mags[keep - 1]) + 1e-15 * keep
            break
        if terms.size == _MAX_TERMS:
            # iterated means of the last _BLOCK partial sums
            work = np.cumsum(terms)[-_BLOCK:]
            while work.size > 1:
                prev = work[0]
                work = 0.5 * (work[:-1] + work[1:])
            series = float(work[0])
            series_err = abs(series - float(prev)) + 1e-15 * _MAX_TERMS
            break

    value = head.value + series
    error = head.error + series_err
    converged = head.converged and error <= max(spec.abs_tol, spec.rel_tol * abs(value)) * 10.0
    return QuadResult(value, error, converged)
