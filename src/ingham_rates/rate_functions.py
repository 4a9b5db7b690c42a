"""Growth/decay rate functions, their compositions, inverses, and bounds.

A growth rate ``M`` is a non-decreasing function on [0, inf) with values in
[1, inf) recording how fast a resolvent grows along the imaginary axis; a
decay rate ``m`` is a non-increasing function on (0, 1] with values in
[1, inf) recording a blow-up near zero.  Two compositions of each drive all
decay estimates:

* finite smoothness ``k``:  ``M_k(R) = M(R) * ((1+R)^2 * M(R))**(1/k)`` and
  ``m_k(r) = m(r) * (m(r)/r)**(1/k)``;
* unlimited smoothness:  ``M_log(R) = M(R) * (log(1+R) + log M(R))`` and
  ``m_log(r) = m(r) * log(1 + m(r)/r)``.

:class:`ComposedRate` evaluates all four.  Inverting these compositions at
``c*t`` yields the decay bounds produced by :func:`make_bound`;
:func:`raw_bound_ck` and :func:`raw_bound_smooth` minimise the un-optimised
two-term estimates directly so the closed forms can be cross-checked
against an independent search.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "MonotoneFunction",
    "ComposedRate",
    "RateBound",
    "InversionRangeError",
    "SearchBracketError",
    "BoundDomainError",
    "InadmissibleConstantError",
    "VARIANTS",
    "invert_monotone",
    "make_bound",
    "raw_bound_ck",
    "raw_bound_smooth",
]

@dataclass(frozen=True)
class _Variant:
    """What one of the six estimates composes and admits.

    ``growth`` and ``decay`` say which rates it composes, ``ck`` whether its
    smoothness is a finite order k (else unlimited), ``c_max`` and
    ``c_default`` the upper end of its interval (0, c_max) for c and the c
    it takes when none is given, and ``inverse_t`` whether its bound adds 1/t.
    """

    growth: bool
    decay: bool
    ck: bool
    c_max: float
    c_default: float
    inverse_t: bool


_VARIANTS = {
    "infinity_ck": _Variant(True, False, True, math.inf, 1.0, False),
    "infinity_smooth": _Variant(True, False, False, 0.5, 0.45, False),
    "zero_ck": _Variant(False, True, True, math.inf, 1.0, True),
    "zero_smooth": _Variant(False, True, False, 1.0, 0.9, True),
    "zero_infinity_ck": _Variant(True, True, True, math.inf, 1.0, False),
    "zero_infinity_smooth": _Variant(True, True, False, 0.5, 0.45, True),
}
VARIANTS = tuple(_VARIANTS)


class InversionRangeError(ValueError):
    """Raised when an inversion target lies outside the function's range."""


class SearchBracketError(RuntimeError):
    """Raised when a minimiser stays pinned at the search boundary."""


class BoundDomainError(ValueError):
    """Raised when a bound is evaluated below its smallest admissible time."""


class InadmissibleConstantError(ValueError):
    """Raised when the constant c lies outside the variant's admissible interval."""


def _as_array(x) -> tuple[np.ndarray, bool]:
    """x as a float array, and whether it was a scalar.

    A scalar becomes a 1-element array: numpy's 0-d arithmetic takes
    scalar math paths whose last ulp can differ from its array loops, and
    a value at one point must equal the same point inside an array.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    return (arr.reshape(1) if scalar else arr), scalar


def _ret(arr: np.ndarray, scalar: bool):
    return float(arr[0]) if scalar else arr


@dataclass(frozen=True)
class MonotoneFunction:
    """A growth or decay rate function, evaluated on arrays.

    ``kind`` is ``"growth"`` (non-decreasing on [0, inf)) or ``"decay"``
    (non-increasing on (0, 1]); values always lie in [1, inf).  Tabulated
    functions extend constantly beyond their knot range; decay tables
    interpolate linearly in the reciprocal coordinate 1/r so that any
    pointwise lower bound of the form 1/r holding at the knots also holds
    between them.  The exact resolvent envelopes of
    :mod:`ingham_rates.semigroup_lab` are rate functions evaluated on demand.
    """

    kind: str
    evaluator: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("growth", "decay"):
            raise ValueError("kind must be 'growth' or 'decay'")

    def __call__(self, x):
        arr, scalar = _as_array(x)
        self._check_domain(arr)
        with np.errstate(over="ignore"):
            out = np.asarray(self.evaluator(arr), dtype=float)
        return _ret(out, scalar)

    def _check_domain(self, arr: np.ndarray) -> None:
        # negated reductions, so that NaN fails the check too
        if self.kind == "growth":
            if not (arr >= 0.0).all():
                raise ValueError("growth rate argument must be non-negative")
        elif not ((arr > 0.0) & (arr <= 1.0)).all():
            raise ValueError("decay rate argument must lie in (0, 1]")

    # -- growth families ---------------------------------------------------

    @classmethod
    def power_growth(cls, alpha: float) -> "MonotoneFunction":
        """M(R) = (1 + R)**alpha with alpha > 0."""
        if not 0.0 < alpha < math.inf:
            raise ValueError("power growth exponent must be positive and finite")
        return cls("growth", lambda R: (1.0 + R) ** alpha, f"(1+R)^{alpha:g}")

    @classmethod
    def exponential_growth(cls, alpha: float) -> "MonotoneFunction":
        """M(R) = exp(R**alpha) with alpha > 0."""
        if not 0.0 < alpha < math.inf:
            raise ValueError("exponential growth exponent must be positive and finite")
        return cls("growth", lambda R: np.exp(R**alpha), f"exp(R^{alpha:g})")

    @classmethod
    def constant_growth(cls, value: float = 1.0) -> "MonotoneFunction":
        if not 1.0 <= value < math.inf:
            raise ValueError("constant rate value must be finite and at least 1")
        return cls("growth", lambda R: np.full_like(R, value), f"{value:g}")

    @classmethod
    def tabulated_growth(cls, knots, values) -> "MonotoneFunction":
        knots = np.asarray(knots, dtype=float)
        values = np.asarray(values, dtype=float)
        if knots.ndim != 1 or knots.size < 2 or knots.shape != values.shape:
            raise ValueError("tabulated input needs matching 1-d knots and values with >= 2 entries")
        if not (np.all(knots >= 0.0) and np.all(np.diff(knots) > 0.0)):
            raise ValueError("growth knots must be non-negative and strictly increasing")
        if not np.all(values >= 1.0):
            raise ValueError("rate values must be at least 1")
        if not np.all(np.diff(values) >= 0.0):
            raise ValueError("tabulated growth values must be non-decreasing")
        return cls("growth", lambda R: np.interp(R, knots, values), f"table[{knots.size}]")

    # -- decay families ----------------------------------------------------

    @classmethod
    def power_decay(cls, alpha: float) -> "MonotoneFunction":
        """m(r) = r**(-alpha) with alpha > 0."""
        if not 0.0 < alpha < math.inf:
            raise ValueError("power decay exponent must be positive and finite")
        return cls("decay", lambda r: r ** (-alpha), f"r^-{alpha:g}")

    @classmethod
    def exponential_decay(cls, alpha: float) -> "MonotoneFunction":
        """m(r) = exp(r**(-alpha)) with alpha > 0."""
        if not 0.0 < alpha < math.inf:
            raise ValueError("exponential decay exponent must be positive and finite")
        return cls("decay", lambda r: np.exp(r ** (-alpha)), f"exp(r^-{alpha:g})")

    @classmethod
    def constant_decay(cls, value: float = 1.0) -> "MonotoneFunction":
        if not 1.0 <= value < math.inf:
            raise ValueError("constant rate value must be finite and at least 1")
        return cls("decay", lambda r: np.full_like(r, value), f"{value:g}")

    @classmethod
    def tabulated_decay(cls, knots, values) -> "MonotoneFunction":
        knots = np.asarray(knots, dtype=float)
        values = np.asarray(values, dtype=float)
        if knots.ndim != 1 or knots.size < 2 or knots.shape != values.shape:
            raise ValueError("tabulated input needs matching 1-d knots and values with >= 2 entries")
        if not (np.all((knots > 0.0) & (knots <= 1.0)) and np.all(np.diff(knots) > 0.0)):
            raise ValueError("decay knots must lie in (0, 1] and be strictly increasing")
        if not np.all(values >= 1.0):
            raise ValueError("rate values must be at least 1")
        if not np.all(np.diff(values) <= 0.0):
            raise ValueError("tabulated decay values must be non-increasing")
        # Interpolate in w = 1/r, where the table is non-decreasing.
        w_knots = 1.0 / knots[::-1]
        w_values = values[::-1]
        return cls("decay", lambda r: np.interp(1.0 / r, w_knots, w_values),
                   f"table[{knots.size}]")


# -- compositions -----------------------------------------------------------


def _require_kind(fn, kind: str) -> None:
    if getattr(fn, "kind", None) != kind:
        raise ValueError(f"expected a {kind} rate function")


def _require_k(k) -> None:
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError("smoothness order k must be an integer >= 1")


@dataclass(frozen=True)
class ComposedRate:
    """The composition of a rate function that a bound inverts.

    ``M_k`` (growth source) or ``m_k`` (decay source) for an integer ``k``;
    ``M_log`` or ``m_log`` for ``k=None``.  Strictly monotone even where
    the source is flat, because the composition mixes in log(1+R) (growth)
    or 1/r (decay).
    """

    source: MonotoneFunction
    k: Optional[int] = None

    def __post_init__(self) -> None:
        if getattr(self.source, "kind", None) not in ("growth", "decay"):
            raise ValueError("source must be a growth or decay rate function")
        if self.k is not None:
            _require_k(self.k)

    @property
    def kind(self) -> str:
        return self.source.kind

    def __call__(self, x):
        # the source's checks and evaluator, without a second pass through its __call__
        arr, scalar = _as_array(x)
        self.source._check_domain(arr)
        with np.errstate(over="ignore", invalid="ignore"):
            return _ret(self._values(arr), scalar)

    def _values(self, arr: np.ndarray) -> np.ndarray:
        """The composition on a float array in the domain, unchecked; callers set errstate."""
        v = np.asarray(self.source.evaluator(arr), dtype=float)
        if self.kind == "growth":
            if self.k is None:
                return v * (np.log1p(arr) + np.log(v))
            return v * np.exp((2.0 * np.log1p(arr) + np.log(v)) / self.k)
        if self.k is None:
            return v * np.log1p(v / arr)
        return v * np.exp((np.log(v) - np.log(arr)) / self.k)


# -- inversion ---------------------------------------------------------------


# relative residual at which a bisection stops
_TOL_REL = 1e-10

# Raw-oracle search: points per scan of [0, u_max] in u = log R, doublings
# of the upper edge R before a search gives up, the R beyond which it gives
# up at once, and the relative width at which golden-section steps stop.
_SCAN_POINTS = 400
_DOUBLINGS = 60
_U_CAP = math.log(1e250)
_GOLDEN_TOL = 1e-6
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# Per kind: the domain edge, the first rung of the bracket ladder, the
# factor from one rung to the next, the maps x -> u and u -> x of the
# bisection coordinate (f increases in u) on arrays, with libm per element
# and the exact steps 1/x and -u in numpy, and whether a rung has left the
# float range.
_BISECTION = {
    "growth": (0.0, 1.0, 2.0, lambda x: _libm(math.log1p, x), lambda u: _libm(math.expm1, u),
               lambda far: far > 1e308),
    "decay": (1.0, 0.5, 0.5, lambda x: _libm(math.log, 1.0 / x), lambda u: _libm(math.exp, -u),
              lambda far: far < 1e-300),
}
# rungs of the bracket ladder evaluated per call of f
_LADDER_BLOCK = 32


@functools.cache
def _ladder(kind: str) -> np.ndarray:
    """The far ends a bracket may take, in order: powers of the step up to the float range."""
    _, far, step, _, _, escaped = _BISECTION[kind]
    rungs = []
    while not escaped(far):
        rungs.append(far)
        far *= step
    ladder = np.array(rungs)
    ladder.flags.writeable = False  # one array serves every inversion
    return ladder


def _libm(fn, values: np.ndarray) -> np.ndarray:
    """Apply a ``math`` function per element.

    numpy's SIMD exp/log differ from libm in the last ulp, which would move
    every bisection midpoint and raw-oracle scan or golden-section value off
    the one-point results.
    """
    return np.fromiter(map(fn, values.tolist()), dtype=float, count=values.size)


def _invert(f, y: np.ndarray) -> tuple[np.ndarray, dict]:
    """Solve f(x) = y for every element of the 1-d target array y.

    Growth functions are solved on [0, inf) by a geometric bracket
    followed by bisection in log(1+x); decay functions on (0, 1] by the
    mirrored procedure in log(1/x).  The bracket's far end is the first
    rung of the shared ladder 1, 2, 4, ... (0.5, 0.25, ... for decay) where
    f reaches the target; f is evaluated on ``_LADDER_BLOCK`` rungs per
    call, for all targets at once.  A bisection element stops when
    ``|f(x) - y| <= _TOL_REL * max(1, |y|)``.  All elements share each
    evaluation of f, and every element takes the steps the one-target
    search would take, so each result is bitwise the scalar one.

    Returns the solutions (NaN where none was found) and a dict mapping
    the index of each such target to the exception that reports it:
    :class:`InversionRangeError` for targets outside the attained range,
    ``ValueError`` for non-finite ones.
    """
    kind = getattr(f, "kind", None)
    if kind not in _BISECTION:
        raise ValueError("f must be a growth or decay rate (has .kind)")
    edge_x, _, _, to_u, from_u, _ = _BISECTION[kind]
    finite = np.isfinite(y)
    failures = {i: ValueError("inversion target must be finite")
                for i in np.flatnonzero(~finite).tolist()}
    slack = _TOL_REL * np.maximum(1.0, np.abs(y))

    edge = float(f(edge_x))
    below = finite & (y < edge - slack)
    at_edge = finite & ~below & (np.abs(y - edge) <= slack)
    for i in np.flatnonzero(below).tolist():
        failures[i] = InversionRangeError(
            f"target {float(y[i])!r} is below the range minimum f({edge_x:g}) = {edge!r}")
    x = np.where(at_edge, edge_x, np.nan)

    # Bracket: each target's far end is the first rung of the ladder where
    # f reaches it, and its near end the rung before (the edge before the
    # first).  All targets share each block of rungs.
    todo = np.flatnonzero(finite & ~below & ~at_edge)
    yt, st = y[todo], slack[todo]
    ladder = _ladder(kind)
    rung = np.full(todo.size, -1)
    open_ = np.arange(todo.size)
    for start in range(0, ladder.size, _LADDER_BLOCK):
        if not open_.size:
            break
        f_rungs = np.asarray(f(ladder[start:start + _LADDER_BLOCK]), dtype=float)
        reached = f_rungs >= yt[open_, None]
        hit = reached.any(axis=1)
        rung[open_[hit]] = start + reached[hit].argmax(axis=1)
        open_ = open_[~hit]
    for j in open_.tolist():
        failures[int(todo[j])] = InversionRangeError(
            f"target {float(yt[j])!r} exceeds the attained range"
            f" (f({float(ladder[-1])!r}) = {float(f_rungs[-1])!r})")

    # Bisect in u, where f increases, until each residual is within slack.
    # The open elements' state is kept compacted and shrinks only on a hit;
    # the bracket ends move in place.  A midpoint lies inside a bracket
    # already in the domain, so f is evaluated there without its checks.
    xt = np.full(todo.size, np.nan)
    active = np.flatnonzero(rung >= 0)
    far = rung[active]
    near = np.where(far > 0, ladder[far - 1], edge_x)
    u_lo, u_hi = to_u(near), to_u(ladder[far])
    ya, sa, fx = yt[active], st[active], np.empty(0)
    values = getattr(f, "_values", f)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(600):
            if not active.size:
                break
            u_mid = 0.5 * (u_lo + u_hi)
            xm = from_u(u_mid)
            fx = np.asarray(values(xm), dtype=float)
            gap = fx - ya
            rise = gap < 0.0
            np.copyto(u_lo, u_mid, where=rise)
            np.copyto(u_hi, u_mid, where=~rise)
            hit = np.abs(gap) <= sa
            if hit.any():
                xt[active[hit]] = xm[hit]
                keep = ~hit
                active, u_lo, u_hi = active[keep], u_lo[keep], u_hi[keep]
                ya, sa, fx = ya[keep], sa[keep], fx[keep]
    for j, fv in zip(active.tolist(), fx.tolist()):
        failures[int(todo[j])] = InversionRangeError(
            f"bisection did not reach |f(x) - y| <= {float(st[j])!r};"
            f" residual {abs(fv - float(yt[j]))!r}")
    x[todo] = xt
    return x, failures


def invert_monotone(f, y: float) -> float:
    """Solve f(x) = y for a monotone rate function or composition.

    The one-target form of the array search used by :class:`RateBound`:
    the same bracket ladder (one call of f per ``_LADDER_BLOCK`` rungs),
    bisection and stop rule ``|f(x) - y| <= _TOL_REL * max(1, |y|)``.
    Targets outside the attained range raise :class:`InversionRangeError`
    reporting the range edge, or f at the last rung.
    """
    x, failures = _invert(f, np.array([y], dtype=float))
    if failures:
        raise failures[0]
    return float(x[0])


# -- bounds -------------------------------------------------------------------


def _admissible_c(variant: str, c: Optional[float]) -> float:
    spec = _VARIANTS[variant]
    hi = spec.c_max
    if c is None:
        return spec.c_default
    if not (0.0 < c < hi):
        interval = "(0, inf)" if math.isinf(hi) else f"(0, {hi:g})".replace("0.5", "1/2")
        raise InadmissibleConstantError(
            f"c={c!r} outside admissible interval {interval} for variant {variant}"
        )
    return float(c)


@dataclass(frozen=True)
class RateBound:
    """A decay bound t -> value built from rate-function inversions.

    Evaluation below ``t_min`` (the smallest t with c*t inside the range of
    every composition being inverted, anchored at the domain edge R = 1 or
    r = 1) raises :class:`BoundDomainError`.
    """

    variant: str
    c: float
    k: Optional[int]
    growth: Optional[MonotoneFunction]
    decay: Optional[MonotoneFunction]
    t_min: float
    _growth_fn: Optional[ComposedRate] = field(repr=False, default=None)
    _decay_fn: Optional[ComposedRate] = field(repr=False, default=None)

    def __call__(self, t):
        return self.evaluate(t)[0]

    def evaluate(self, t):
        """The bound at t and the growth composition's inverse at c*t.

        The inverse is shaped like t, and None for ``zero_ck`` and
        ``zero_smooth``, which have no growth rate.  :func:`raw_bound_ck`
        and :func:`raw_bound_smooth` take it as ``inverse``, so an oracle
        run against this bound inverts once.
        """
        arr, scalar = _as_array(t)
        if not np.isfinite(arr).all():
            raise ValueError("t must be finite")
        if np.any(arr < self.t_min * (1.0 - 1e-12)):
            raise BoundDomainError(
                f"bound for {self.variant} is defined for t >= {self.t_min!r}"
            )
        flat = arr.ravel()
        y = self.c * flat
        decay_x = growth_x = None
        failures = {}
        if self._growth_fn is not None:
            growth_x, failures = _invert(self._growth_fn, y)
        if self._decay_fn is not None:
            decay_x, decay_failures = _invert(self._decay_fn, y)
            failures.update(decay_failures)  # at one t, decay is inverted first
        if failures:
            raise failures[min(failures)]
        total = np.zeros_like(flat)
        if decay_x is not None:
            total += decay_x
        if growth_x is not None:
            total += 1.0 / growth_x
        if _VARIANTS[self.variant].inverse_t:
            total += 1.0 / flat
        if growth_x is not None:
            growth_x = _ret(growth_x.reshape(arr.shape), scalar)
        return _ret(total.reshape(arr.shape), scalar), growth_x


def make_bound(
    variant: str,
    growth: Optional[MonotoneFunction] = None,
    decay: Optional[MonotoneFunction] = None,
    c: Optional[float] = None,
    k: Optional[int] = None,
) -> RateBound:
    """Build the decay bound for one of the six estimate variants.

    The variant's record in ``_VARIANTS`` names the rates it needs:
    ``growth`` for ``infinity_*``, ``decay`` for ``zero_*``, both for
    ``zero_infinity_*``.  It also says whether ``k`` applies (default 1),
    which only finite smoothness (``*_ck``) admits, and gives c its interval
    (0, c_max): (0, inf) for finite smoothness, (0, 1/2) for
    ``infinity_smooth`` and ``zero_infinity_smooth``, (0, 1) for ``zero_smooth``.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    spec = _VARIANTS[variant]
    c_val = _admissible_c(variant, c)
    if spec.ck:
        k_val = 1 if k is None else k
        _require_k(k_val)
    elif k is not None:
        raise ValueError("k applies only to finite-smoothness (ck) variants")
    else:
        k_val = None

    composed = {}
    for kind, source in (("growth", growth), ("decay", decay)):
        if getattr(spec, kind):
            if source is None:
                raise ValueError(f"variant {variant} requires a {kind} rate function")
            _require_kind(source, kind)
            composed[kind] = ComposedRate(source, k_val)

    return RateBound(
        variant=variant,
        c=c_val,
        k=k_val,
        growth=growth if spec.growth else None,
        decay=decay if spec.decay else None,
        t_min=max(float(fn(1.0)) / c_val for fn in composed.values()),
        _growth_fn=composed.get("growth"),
        _decay_fn=composed.get("decay"),
    )


# -- raw two-term bounds ------------------------------------------------------


def _minimise_rows(logf, p: np.ndarray, u_max: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimise exp(logf(u, p_i)) over u = log R in [0, u_max_i] for every row i.

    ``logf`` maps broadcastable arrays (u, p) to log values, ``p`` holding
    the row parameters: a 1-d scan row ``u`` against a column ``p[rows,
    None]`` gives one row of values per parameter, and equal-shape 1-d
    arrays give one value per element.  A row scans ``_SCAN_POINTS`` points
    of ``linspace(0, u_max_i)``; rows with one ``u_max_i`` share one scan
    row, so the work on u alone runs once per distinct edge.  While the
    scan minimum lands on the upper edge, u_max_i grows by log 2 and the
    row is scanned again.  Golden-section steps then shrink the bracket
    around the scan minimum to width ``_GOLDEN_TOL * max(1, |midpoint|)``.
    All open rows share each golden-section call of ``logf`` and each row
    takes the steps of its own one-row search, so no row depends on the
    others.  Returns (min values, argmin R).  A row whose minimum stays on
    the edge after ``_DOUBLINGS`` doublings, or at R >= 1e250, raises
    :class:`SearchBracketError` (the lowest such row).
    """
    n = p.size
    u_max = u_max.copy()
    lo, hi = np.empty(n), np.empty(n)
    pinned = np.zeros(n, dtype=bool)
    todo = np.arange(n)
    last = _SCAN_POINTS - 1
    for _ in range(_DOUBLINGS):
        u_open = u_max[todo]
        edge = np.empty(todo.size, dtype=bool)
        for u_edge in np.unique(u_open).tolist():
            rows = np.flatnonzero(u_open == u_edge)
            grid = np.linspace(0.0, u_edge, _SCAN_POINTS)
            idx = np.nanargmin(logf(grid, p[todo[rows], None]), axis=1)
            lo[todo[rows]] = grid[np.maximum(idx - 1, 0)]
            hi[todo[rows]] = grid[np.minimum(idx + 1, last)]
            edge[rows] = idx == last
        done = ~edge | (u_open >= _U_CAP)
        pinned[todo[done & edge]] = True
        todo = todo[~done]
        if not todo.size:
            break
        u_max[todo] += math.log(2.0)
    pinned[todo] = True
    if pinned.any():
        i = int(np.flatnonzero(pinned)[0])
        raise SearchBracketError(
            f"minimiser pinned at the search boundary R = {math.exp(u_max[i]):.6g}")

    def wide(rows):
        a, b = lo[rows], hi[rows]
        return (b - a) > _GOLDEN_TOL * np.maximum(1.0, np.abs(0.5 * (a + b)))

    # golden section on [lo, hi] with inner points x1 < x2
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f12 = logf(np.concatenate([x1, x2]), np.concatenate([p, p]))
    f1, f2 = f12[:n], f12[n:]
    open_ = np.flatnonzero(wide(np.arange(n)))
    while open_.size:
        left = f1[open_] <= f2[open_]
        sl, sr = open_[left], open_[~left]
        hi[sl], x2[sl], f2[sl] = x2[sl], x1[sl], f1[sl]
        x1[sl] = hi[sl] - _INVPHI * (hi[sl] - lo[sl])
        lo[sr], x1[sr], f1[sr] = x1[sr], x2[sr], f2[sr]
        x2[sr] = lo[sr] + _INVPHI * (hi[sr] - lo[sr])
        f_new = logf(np.where(left, x1[open_], x2[open_]), p[open_])
        f1[sl], f2[sr] = f_new[left], f_new[~left]
        open_ = open_[wide(open_)]
    # logf acts per element, so f1 and f2 already are its values at x1, x2
    best = f1 <= f2
    return (_libm(math.exp, np.where(best, f1, f2)),
            _libm(math.exp, np.where(best, x1, x2)))


def _search_radii(composed: ComposedRate, y: np.ndarray, inverse) -> np.ndarray:
    """Upper search radius per target: 1e3 * composed^{-1}(y), within [1e6, 1e250].

    ``inverse`` holds composed^{-1}(y) when the caller has it; otherwise one
    array inversion finds it for all targets, and a target beyond the
    attained range counts as composed^{-1}(y) = 1e6, so its radius is 1e9.
    """
    if inverse is None:
        r_star, failures = _invert(composed, y)
        for i in sorted(failures):
            if not isinstance(failures[i], InversionRangeError):
                raise failures[i]
            r_star[i] = 1e6
    else:
        r_star = np.asarray(inverse, dtype=float).ravel()
    return np.minimum(np.maximum(1e6, 1e3 * np.maximum(r_star, 1.0)), 1e250)


def _raw_minima(logf, param: Callable[[np.ndarray], np.ndarray],
                composed: ComposedRate, c: float, t, inverse):
    """Minimise exp(logf(u, param(t))) for every t of a scalar or 1-d grid."""
    flat, scalar = _as_array(t)
    if not (c > 0.0 and np.all(flat > 0.0)):
        raise ValueError("c and t must be positive")
    u_max = _libm(math.log, _search_radii(composed, c * flat, inverse))
    with np.errstate(over="ignore"):  # logf evaluates the growth rate unchecked
        values, argmins = _minimise_rows(logf, param(flat), u_max)
    if scalar:
        return float(values[0]), float(argmins[0])
    return values, argmins


def raw_bound_ck(growth: MonotoneFunction, k: int, c: float, t, *, inverse=None):
    """Minimise 1/R + R * M(R)**(k+1) / t**k over R >= 1.

    Returns (value, argmin) for a scalar t, or arrays of both for a 1-d
    t-grid.  For each t the search scans a 400-point logarithmic grid up
    to ``max(1e6, 1e3 * Mk^{-1}(c*t))`` and refines with golden-section
    iterations to relative tolerance 1e-6 in log R.  The inverses for all
    t come from ``inverse`` when given (as :meth:`RateBound.evaluate`
    returns them) or from one array inversion.  The t that share a search
    radius share one evaluation of M on their scan grid, and all t refine
    in lockstep, each with the steps of its one-point search.
    """
    _require_kind(growth, "growth")
    _require_k(k)

    def logf(u: np.ndarray, k_log_t: np.ndarray) -> np.ndarray:
        M = growth.evaluator(_libm(math.exp, u))
        val = np.logaddexp(-u, u + (k + 1) * _libm(math.log, M) - k_log_t)
        return np.where(np.isfinite(M), val, np.inf)

    return _raw_minima(logf, lambda ts: k * _libm(math.log, ts),
                       ComposedRate(growth, k), c, t, inverse)


def raw_bound_smooth(growth: MonotoneFunction, c: float, t, *, inverse=None):
    """Minimise (1/R) * ((1+R)**2 * M(R)**2 * exp(-2*c*t/M(R)) + 1) over R >= 1.

    Returns (value, argmin) for a scalar t, or arrays of both for a 1-d
    t-grid; same grid-scan plus golden-section refinement as
    :func:`raw_bound_ck` (``inverse`` holds M_log^{-1}(c*t)), evaluated in
    log space so the exponentially small terms do not underflow
    prematurely.
    """
    _require_kind(growth, "growth")

    def logf(u: np.ndarray, two_ct: np.ndarray) -> np.ndarray:
        R = _libm(math.exp, u)
        M = growth.evaluator(R)
        big = 2.0 * _libm(math.log1p, R) + 2.0 * _libm(math.log, M) - two_ct / M
        return np.where(np.isfinite(M), np.logaddexp(big, 0.0) - u, np.inf)

    return _raw_minima(logf, lambda ts: 2.0 * c * ts, ComposedRate(growth), c, t, inverse)
