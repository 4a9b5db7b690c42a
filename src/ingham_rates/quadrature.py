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
by iterated averaging of the partial sums.  Many such tails (rows) are
summed together, in blocks of half-period terms shared by all rows.

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
        raise ValueError("integration endpoints must be finite")
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


def _oscillatory_rows(envelope: Callable, alphas: np.ndarray, phases: np.ndarray,
                      t_from: float, spec: QuadratureSpec):
    """Integrate ``envelope_i(s) * cos(alphas[i]*s + phases[i])`` over [t_from, inf) per row i.

    ``envelope(u, rows)`` evaluates envelope ``rows[j]`` on row j of the
    2-d array ``u``.  Every row takes the steps of :func:`integrate_oscillatory`
    on its own: an adaptive head up to the first zero of its cosine, then
    blocks of ``_BLOCK`` half-period terms, checked for monotone magnitudes
    and for truncation after each block.  Rows still open after a block
    compute the next one together, with one envelope call and one stacked
    matrix product, so a block of every open row is the largest temporary.

    Returns arrays (values, errors, converged) and a dict mapping each row
    whose term magnitudes increased to its :class:`EnvelopeError`; such a
    row's value is NaN.
    """
    n = alphas.size
    head_spec = replace(spec, abs_tol=min(spec.abs_tol, 1e-12))
    starts = np.empty(n)
    head = np.empty((n, 3))
    for i, (alpha, phase) in enumerate(zip(alphas.tolist(), phases.tolist())):
        # First zero of cos(alpha*s + phase) strictly beyond t_from.
        m0 = math.floor((alpha * t_from + phase - 0.5 * math.pi) / math.pi) + 1
        s0 = (0.5 * math.pi + m0 * math.pi - phase) / alpha
        while s0 <= t_from:
            m0 += 1
            s0 = (0.5 * math.pi + m0 * math.pi - phase) / alpha
        row = np.array([i])
        starts[i] = s0
        head[i] = integrate(
            lambda s: np.asarray(envelope(s[None, :], row))[0] * np.cos(alpha * s + phase),
            t_from, s0, replace(head_spec, oscillation_frequency=alpha))

    h = math.pi / alphas
    half = 0.5 * h
    terms = np.empty((n, _MAX_TERMS))
    size = np.zeros(n, dtype=int)  # terms a truncated row computed
    rising = np.zeros(n, dtype=bool)
    open_ = np.arange(n)
    for offset in range(0, _MAX_TERMS, _BLOCK):
        if not open_.size:
            break
        r, end = open_, offset + _BLOCK
        lows = starts[r, None] + h[r, None] * (offset + np.arange(_BLOCK))
        nodes = (lows + half[r, None])[:, :, None] + half[r, None, None] * _GL16_NODES
        vals = alphas[r, None, None] * nodes
        vals += phases[r, None, None]
        np.cos(vals, out=vals)
        vals *= np.asarray(envelope(nodes.reshape(r.size, -1), r)).reshape(nodes.shape)
        vals *= half[r, None, None]
        terms[r, offset:end] = vals @ _GL16_WEIGHTS
        # earlier terms of an open row have passed this check already
        mags = np.abs(terms[r, max(offset - 1, 0):end])
        up = np.any(mags[:, 1:] > mags[:, :-1] * (1.0 + 1e-9) + 1e-300, axis=1)
        done = mags[:, -1] <= _TERM_TOL
        rising[r[up]] = True
        size[r[done & ~up]] = end
        open_ = r[~(up | done)]

    series = np.full(n, np.nan)
    series_err = np.full(n, np.nan)
    for i in np.flatnonzero(size).tolist():
        row = terms[i, :size[i]]
        keep = int(np.argmax(np.abs(row) <= _TERM_TOL)) + 1
        series[i] = float(np.sum(row[:keep]))
        series_err[i] = float(np.abs(row[keep - 1])) + 1e-15 * keep
    # Rows still open kept 192 terms: iterated means of the last 64 partial sums.
    avg = open_
    if avg.size:
        work = np.cumsum(terms[avg], axis=1)[:, -_BLOCK:]
        while work.shape[1] > 1:
            prev = work[:, 0]
            work = 0.5 * (work[:, :-1] + work[:, 1:])
        series[avg] = work[:, 0]
        series_err[avg] = np.abs(work[:, 0] - prev) + 1e-15 * _MAX_TERMS

    value = head[:, 0] + series
    error = head[:, 1] + series_err
    converged = (head[:, 2] == 1.0) & (
        error <= np.fmax(spec.abs_tol, spec.rel_tol * np.abs(value)) * 10.0)
    failures = {i: EnvelopeError("half-period magnitudes increased; envelope must be"
                                 " positive and non-increasing")
                for i in np.flatnonzero(rising).tolist()}
    return value, error, converged, failures


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
    contracted by iterated averaging instead.  This is the one-row case of
    the grid routine the kernel transforms use.
    """
    if spec is None:
        spec = QuadratureSpec()
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if t_from < 0.0:
        raise ValueError("t_from must be non-negative")
    value, error, converged, failures = _oscillatory_rows(
        lambda u, rows: np.asarray(envelope(u.ravel())).reshape(u.shape),
        np.array([float(alpha)]), np.array([float(phase)]), t_from, spec)
    if failures:
        raise failures[0]
    return QuadResult(float(value[0]), float(error[0]), bool(converged[0]))
