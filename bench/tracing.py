"""Spans and counts recorded around the package's public functions.

The wrappers are installed from outside: :func:`install` replaces module
attributes (including names a module imported from another, such as
``verify.resolvent_envelope_growth`` or ``kernels.integrate``) and returns
a function that puts the originals back.  Nothing under ``src/`` changes.

Each wrapped call records a span ``[id, parent, op, name, start, end]``
in memory; counts are added at the same boundary, keyed by op.  A
layer's self time is its span's duration minus the part of that interval
its child spans cover, so the self times of one op's spans add up to the
op's root span.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

ROOT_SPAN = "bench.op"


class Recorder:
    """In-memory spans and per-op counts for one traced run."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self._stack: list = []
        self.op = None

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, self.op, name, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][5] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        if self.op is not None:
            self.counts[(self.op, name)] += n

    def run_op(self, op_id, fn):
        """Call fn() inside the root span of op ``op_id``."""
        self.op = op_id
        sid = self.open(ROOT_SPAN)
        try:
            return fn()
        finally:
            self.close(sid)
            self.op = None


# -- self time -------------------------------------------------------------------


def _covered(lo: float, hi: float, intervals: list) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list) -> list:
    """Self time of every span, in span order."""
    children = defaultdict(list)
    for sid, parent, _op, _name, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - _covered(start, end, children[sid])
            for sid, _parent, _op, _name, start, end in spans]


def layer_totals(spans: list) -> dict:
    """Summed self time per span name."""
    totals = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span[3]] += own
    return dict(totals)


def unaccounted(spans: list) -> float:
    """Largest |root duration - sum of the op's self times| over all ops."""
    own = self_times(spans)
    per_op = defaultdict(float)
    roots = {}
    for span, t in zip(spans, own):
        per_op[span[2]] += t
        if span[3] == ROOT_SPAN:
            roots[span[2]] = span[5] - span[4]
    return max((abs(roots[op] - per_op[op]) for op in roots), default=0.0)


# -- wrappers --------------------------------------------------------------------


def _spanned(rec: Recorder, name: str, fn, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            args = before(args)
        sid = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(sid)
        if after is not None:
            after(args, result)
        return result
    return wrapper


def _count_calls(rec: Recorder, name: str):
    def before(args):
        rec.count(name)
        return args
    return before


def _count_integrand(rec: Recorder, layer: str):
    """Count calls and, by wrapping the integrand, its evaluation points."""
    def before(args):
        rec.count(f"{layer}.calls")
        f = args[0]

        def counted(x):
            rec.count(f"{layer}.evals", np.size(x))
            return f(x)
        return (counted,) + tuple(args[1:])
    return before


def install(rec: Recorder, modules: dict):
    """Wrap the package's public functions; returns a restore function.

    ``modules`` maps short names (``cli``, ``verify``, ...) to the imported
    modules of the package under test.
    """
    cli, verify, kernels = modules["cli"], modules["verify"], modules["kernels"]
    quadrature, rf = modules["quadrature"], modules["rate_functions"]
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def span(owners, attr, name, before=None, after=None):
        for owner in owners:
            patch(owner, attr, _spanned(rec, name, getattr(owner, attr), before, after))

    def integrate_result(_args, result):
        if not result.converged:
            rec.count("quadrature.integrate.nonconverged")

    def mode_points(args, _result):
        rec.count("verify.defect.mode_points", np.size(args[0]) * np.size(args[3]))

    def bound_points(args):
        rec.count("rate_functions.bound_eval.points", np.size(args[1]))
        return args

    span([cli], "parse_config", "cli.parse_config")
    span([cli], "run", "cli.run")
    span([rf.RateBound], "__call__", "rate_functions.bound_eval", before=bound_points)
    span([rf], "invert_monotone", "rate_functions.invert",
         before=_count_calls(rec, "rate_functions.invert.calls"))
    span([cli, verify], "make_bound", "rate_functions.make_bound")
    span([cli], "raw_bound_ck", "rate_functions.raw_oracle")
    span([cli], "raw_bound_smooth", "rate_functions.raw_oracle")
    span([verify], "resolvent_envelope_growth", "semigroup_lab.envelope")
    span([verify], "resolvent_envelope_decay", "semigroup_lab.envelope")
    span([verify], "orbit_norm", "semigroup_lab.orbit")
    span([verify], "orbit_argmax", "semigroup_lab.orbit")
    span([verify], "convolution_defect_profile", "verify.defect", after=mode_points)
    span([cli], "compare_decay", "verify.compare_decay")
    span([cli], "check_parseval", "verify.parseval")
    span([cli], "check_mollifier_rate", "verify.mollifier_rate")
    span([cli], "check_asymptotic_regularity", "verify.regularity")
    span([cli, verify], "fit_loglog", "verify.fit_loglog")
    span([verify], "tail_integral", "kernels.tail_integral",
         before=_count_calls(rec, "kernels.tail_integral.calls"))
    span([cli], "numeric_fourier", "kernels.numeric_fourier")
    span([quadrature, kernels, verify], "integrate", "quadrature.integrate",
         before=_count_integrand(rec, "quadrature.integrate"), after=integrate_result)
    span([kernels], "integrate_oscillatory", "quadrature.integrate_oscillatory",
         before=_count_integrand(rec, "quadrature.integrate_oscillatory"))

    # counts without spans: these run thousands of times per op
    for cls in (rf.MonotoneFunction, rf.ComposedRate):
        call = cls.__call__

        def counted_call(self, x, _call=call):
            rec.count("rate_functions.rate_evals")
            return _call(self, x)
        patch(cls, "__call__", counted_call)
    for attr in ("tabulated_growth", "tabulated_decay"):
        make = rf.MonotoneFunction.__dict__[attr].__func__

        def counted_table(cls, knots, values, _make=make):
            rec.count("semigroup_lab.envelope.knots", np.size(knots))
            return _make(cls, knots, values)
        patch(rf.MonotoneFunction, attr, classmethod(counted_table))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    return restore


def capture_envelopes(verify, store: list):
    """Keep every envelope an op builds, for the majorant check.

    Records ``(kind, s_min, envelope)``; no span or timing.  Returns a
    restore function.
    """
    growth, decay = verify.resolvent_envelope_growth, verify.resolvent_envelope_decay

    def capture_growth(operator, r_grid=None, s_min=0.0):
        env = growth(operator, r_grid, s_min)
        store.append(("growth", float(s_min), env))
        return env

    def capture_decay(operator, r_grid=None):
        env = decay(operator, r_grid)
        store.append(("decay", 0.0, env))
        return env

    verify.resolvent_envelope_growth = capture_growth
    verify.resolvent_envelope_decay = capture_decay

    def restore():
        verify.resolvent_envelope_growth = growth
        verify.resolvent_envelope_decay = decay
    return restore
