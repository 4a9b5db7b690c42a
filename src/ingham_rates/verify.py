"""Verification experiments for the rate machinery.

Each experiment ties together the kernel, quadrature, rate-function, and
diagonal-model layers and reports its rows plus fitted slopes in an
:class:`ExperimentReport`:

* :func:`check_parseval` verifies the inversion identity
  ``(f * phi_R)(t) = (1/2pi) integral e^{ist} F(s) psi(s/R) ds`` by
  computing both sides with independent quadratures;
* :func:`check_mollifier_rate` measures ``E(R) = max_t ||f - f*phi_R||``
  over dyadic R and reports the stability of ``R * E(R)``;
* :func:`check_asymptotic_regularity` measures ``t * ||f - f*phi||`` for
  plateau kernels on damped-cluster models;
* :func:`compare_decay` evaluates a measured orbit norm against the
  predicted rate bound and reports ratio boundedness and fitted slopes.

Convolution defects are computed by :func:`convolution_defect_profile`,
which evaluates ``f - f*phi = (1/2pi) integral e^{ist} F(s) (1 - psi(s)) ds``,
``F(s) = w/(is - lambda)``, in closed form for every kernel's piecewise
polynomial transform: per mode and time a few values of ``e^z E_n(z)``
(from :mod:`kernels`) at the transform's breakpoints plus one pole term,
and no quadrature.  Every mode is evaluated, however damped.

Dominance is tested via ratio boundedness and slope ordering, never
pointwise measured <= bound, because the predicted rates carry unspecified
constants; slopes are fitted on the last two decades of each sweep to
suppress preasymptotic transients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial.polynomial import polyval

from .kernels import _CHUNK, Kernel, _jump_terms
# bound by name for bench/tracing.py, which wraps verify.tail_integral
from .kernels import tail_integral  # noqa: F401
from .quadrature import NonConvergenceError, QuadratureSpec, integrate
from .rate_functions import _VARIANTS, make_bound
from .semigroup_lab import (
    Scenario,
    _orbit_sweep,
    mode_weights,
    resolvent_envelope_decay,
    resolvent_envelope_growth,
)
# bound by name for bench/tracing.py, which wraps them in verify
from .semigroup_lab import orbit_argmax, orbit_norm  # noqa: F401

__all__ = [
    "ExperimentReport",
    "AdmissibilityError",
    "TruncationRangeError",
    "fit_loglog",
    "convolution_defect_profile",
    "check_parseval",
    "check_mollifier_rate",
    "check_asymptotic_regularity",
    "compare_decay",
    "bound_table_report",
    "kernel_check_report",
    "parseval_report",
    "raw_oracle_report",
]

PARSEVAL_TOLERANCE = 1e-6
KERNEL_MATCH_TOLERANCE = 1e-6


class AdmissibilityError(ValueError):
    """Kernel does not meet an experiment's admissibility requirements."""


class TruncationRangeError(ValueError):
    """Requested t-range exceeds the model's truncation-safe horizon."""


@dataclass
class ExperimentReport:
    """Rows of (abscissa, measured, reference, ratio) plus fitted summaries."""

    rows: list
    slopes: dict = field(default_factory=dict)
    constant_stability: Optional[float] = None
    failures: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures


def fit_loglog(pairs: Sequence[tuple]) -> tuple[float, float]:
    """Least-squares slope of log(value) against log(abscissa).

    Returns (slope, half_width) where half_width is the standard error of
    the slope estimate.  Requires at least five rows, all positive and
    finite.
    """
    arr = np.asarray([(p[0], p[1]) for p in pairs], dtype=float)
    if arr.shape[0] < 5:
        raise ValueError("log-log fit needs at least 5 rows")
    if not np.all((arr > 0.0) & np.isfinite(arr)):
        raise ValueError("log-log fit requires positive finite abscissae and values")
    x = np.log(arr[:, 0])
    y = np.log(arr[:, 1])
    n = x.size
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    if sxx == 0.0:
        raise ValueError("log-log fit requires distinct abscissae")
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    resid = y - (y.mean() + slope * (x - xbar))
    stderr = math.sqrt(float(np.sum(resid**2)) / (n - 2) / sxx)
    return slope, stderr


# -- shared convolution-defect engine -----------------------------------------

# e^{-45} < 3e-20: the Parseval check cuts its time-domain integral where
# the orbit has decayed by that factor
_EXP_CLIP = 45.0


def _frequency_route(kernel: Kernel):
    """Mode defects from the closed form of the frequency integral.

    ``f - f*phi = (1/2pi) int e^{ist} w (1 - psi(s)) / (is - lambda) ds``.
    With mu = -i lambda, dividing a piece's polynomial p by s - mu leaves a
    polynomial times e^{ist}, whose primitive is elementary, plus
    p(mu) e^{ist} / (is - lambda), whose primitive is
    i e^{ist} G(t (lambda - is)).  Summing the pieces leaves, at each
    breakpoint c, the jump d = p_left - p_right expanded about c, and
    ``sum_k d_k i e^{ict} w^k R_k(x)`` with w = mu - c and x = i t w; as
    w^k R_k(x) = k! (-q)^k e^x E_{k+1}(x) with q = w/x = -i/t, the jumps
    need x and q only (see :func:`_jump_terms`).  G is cut where s = Im
    lambda; the principal branch takes the side s < Im lambda there, so
    the piece [a, b) holding Im lambda adds the pole term
    ``2 pi e^{lambda t} p(mu)``, with p in its Taylor basis about its
    centre.  Returns ``defects(lam, wts, t)``: the
    complex defects of the modes, one row each, at the times ``t``, which
    hold one row per mode or one row for all; q = -i/t is formed once per
    call and shared by the jumps.
    """
    breaks, polys, jumps = kernel.complement

    def defects(lam: np.ndarray, wts: np.ndarray, t: np.ndarray) -> np.ndarray:
        mu = -1j * lam
        piece = np.searchsorted(breaks, lam.imag, side="right")
        p_mu = np.empty(lam.shape, dtype=complex)
        for j, (centre, p) in enumerate(polys):
            sel = piece == j
            p_mu[sel] = polyval(mu[sel] - centre, p)
        # products in place, their operands in the order that fixes their bits
        total = lam[:, None] * t
        np.exp(total, out=total)
        np.multiply(2.0 * math.pi * p_mu[:, None], total, out=total)
        q = -1j / t
        # built from real parts so that Im x is +0.0 when Im lambda = c;
        # only Im x differs between the jumps, and _jump_terms reads x only
        x = np.empty(total.shape, dtype=complex)
        np.multiply(t, lam.real[:, None], out=x.real)
        for c, taylor in jumps:
            np.multiply(t, lam.imag[:, None] - c, out=x.imag)
            jump = _jump_terms(x, q, taylor)
            total += np.multiply(1j * np.exp(1j * c * t), jump, out=jump)
        np.multiply(wts[:, None], total, out=total)
        return np.divide(total, 2.0 * math.pi, out=total)

    return defects


def _abs_defects(kernel: Kernel, lams: np.ndarray, wts: np.ndarray, times: np.ndarray):
    """|f - f*phi| of the modes ``lams`` in chunks of at most ``_CHUNK``
    (mode, time) pairs: yields each chunk's first mode and its |defects|.
    ``times`` holds one row per mode, or one row for all of them."""
    defects = _frequency_route(kernel)
    step = max(1, _CHUNK // times.shape[1])
    for start in range(0, lams.size, step):
        rows = slice(start, start + step)
        t = times if times.shape[0] == 1 else times[rows]
        yield start, np.abs(defects(lams[rows], wts[rows], t))


def convolution_defect_profile(
    eigenvalues: np.ndarray,
    weights: np.ndarray,
    kernel: Kernel,
    t_grid: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise sup of |f(t) - (f*phi)(t)| for f_n = w_n e^{lambda_n t}.

    Returns (sup over modes, index of the maximising mode) on t_grid; the
    orbit is extended by zero to t < 0.  The defects come in closed form
    from the frequency integral over the kernel's transform pieces, with a
    few exponential integrals per mode and time and no quadrature
    (:func:`_frequency_route`), every mode against the one row t_grid.
    Below t = 1 the bump's t^-6 breakpoint terms cancel: its defects there
    are good to about 1e-8 relative, and to 3e-5 for |Re lambda| near 50 at
    t = 0.1.
    """
    lams = np.atleast_1d(np.asarray(eigenvalues, dtype=complex))
    wts = np.atleast_1d(np.asarray(weights, dtype=complex))
    t_grid = np.asarray(t_grid, dtype=float)
    if not (np.all(np.isfinite(t_grid)) and np.all(np.diff(t_grid) > 0.0) and t_grid[0] > 0.0):
        raise ValueError("t_grid must be finite, positive and strictly increasing")
    if np.any(lams.real >= 0.0):
        raise ValueError("eigenvalues must have strictly negative real part")
    sup = np.zeros(t_grid.size)
    arg = np.zeros(t_grid.size, dtype=int)
    for start, vals in _abs_defects(kernel, lams, wts, t_grid[None, :]):
        best = vals.max(axis=0)
        upd = best > sup
        arg[upd] = start + vals.argmax(axis=0)[upd]
        sup = np.maximum(sup, best)
    return sup, arg


# -- experiments ---------------------------------------------------------------


def check_parseval(scenario: Scenario, kernel: Kernel, t: float,
                   scale: float = 1.0, spec: Optional[QuadratureSpec] = None) -> float:
    """Residual of the convolution inversion identity at time t.

    Left side: componentwise time-domain convolution
    ``(f*phi_R)(t) = integral phi_R(u) f(t-u) du``.  Right side:
    ``(1/2pi) integral_{-R}^{R} e^{ist} F(s) psi(s/R) ds`` with F the
    closed-form boundary function.  Returns the sup-norm of the difference.
    """
    if scenario.operator.size > 8:
        raise ValueError("Parseval check is meant for few-mode scenarios")
    if not scale > 0.0:
        raise ValueError("scale must be positive")
    base = spec or QuadratureSpec()
    lam = scenario.operator.eigenvalues
    w = mode_weights(scenario)
    resid = 0.0
    for n in range(lam.size):
        freq_t = max(scale, abs(lam[n].imag), 1.0)
        u_lo = min(t - _EXP_CLIP / abs(lam[n].real), -_EXP_CLIP)
        lhs = integrate(
            lambda u, n=n: kernel.time(u, scale) * w[n] * np.exp(lam[n] * (t - u)),
            u_lo, t, replace(base, oscillation_frequency=freq_t))
        rhs = integrate(
            lambda s, n=n: np.exp(1j * s * t) * (w[n] / (1j * s - lam[n]))
            * kernel.freq(s, scale),
            -scale, scale, replace(base, oscillation_frequency=max(abs(t), 1.0)))
        if not (lhs.converged and rhs.converged):
            raise NonConvergenceError("quadrature did not converge in Parseval check")
        resid = max(resid, abs(lhs.value - rhs.value / (2.0 * math.pi)))
    return resid


def check_mollifier_rate(
    scenario: Scenario,
    kernel: Kernel,
    r_list: Sequence[float] = (4.0, 8.0, 16.0, 32.0),
    t_max: float = 20.0,
    points: int = 39,
) -> ExperimentReport:
    """Sweep E(R) = max_{1 <= t <= t_max} ||f - f*phi_R|| over dyadic R.

    Rows are (R, E(R), 1/R, R * E(R)); ``constant_stability`` is
    max(R E)/min(R E).  The pass flag asserts stability within a factor 2
    and E non-increasing up to 10%, the literally checkable form of the
    first-order mollifier approximation rate.  The rate is an upper bound
    for orbits with bounded derivative, so the factor-2 reading holds only
    where it is attained, e.g. ``cluster_infinity(1, 32)`` with the
    ``ainv`` orbit, whose mode at Im lambda = R keeps R E(R) near 1.  An
    analytic orbit such as one damped single mode beats 1/R and fails it
    by design.  All radii go through the defect engine in one pass.
    """
    if scenario.operator.size > 32:
        raise ValueError("mollifier sweep is meant for small mode counts")
    r_list = [float(r) for r in r_list]
    if not (all(b > a for a, b in zip(r_list, r_list[1:])) and 0.0 < r_list[0]
            and r_list[-1] < math.inf):
        raise ValueError("r_list must be finite, positive and increasing")
    if not 1.0 < t_max < math.inf:
        raise ValueError("t_max must exceed 1 and be finite")
    if int(points) < 1:
        raise ValueError("points must be at least 1")
    lam = scenario.operator.eigenvalues
    w = mode_weights(scenario)
    radii = np.array(r_list)
    # phi_R defect at time t equals the unit-scale defect of the eigenvalues
    # lambda/R evaluated at R t: the modes of every radius, stacked radius by
    # radius with their own row of times, go through the engine in one pass
    lams = (lam / radii[:, None]).ravel()
    if not (r_list[-1] * t_max < math.inf and np.all(lams.real < 0.0)):
        raise ValueError("r_list is too large: R t_max overflows or lambda/R underflows")
    times = np.repeat(radii[:, None] * np.linspace(1.0, float(t_max), int(points)),
                      lam.size, axis=0)
    peaks = np.empty(lams.size)
    for start, vals in _abs_defects(kernel, lams, np.tile(w, radii.size), times):
        peaks[start:start + vals.shape[0]] = vals.max(axis=1)
    rows = [(r, e_val, 1.0 / r, r * e_val)
            for r, e_val in zip(r_list, peaks.reshape(radii.size, lam.size).max(axis=1).tolist())]
    scaled = np.array([row[3] for row in rows])
    failures = []
    if np.all(scaled == 0.0):
        stability = 1.0
    elif np.any(scaled <= 0.0):
        stability = math.inf
        failures.append("vanishing R*E(R) alongside nonzero entries")
    else:
        stability = float(np.max(scaled) / np.min(scaled))
        if stability > 2.0:
            failures.append(f"R*E(R) stability {stability:.3g} exceeds 2")
    e_vals = np.array([row[1] for row in rows])
    if np.any(e_vals[1:] > 1.10 * e_vals[:-1]):
        failures.append("E(R) increases by more than 10% along the sweep")
    return ExperimentReport(
        rows=rows,
        constant_stability=stability,
        failures=failures,
        metadata={
            "experiment": "mollifier_rate",
            "scenario": scenario.operator.label,
            "orbit": scenario.orbit_kind,
            "kernel": kernel.name,
            "t_max": float(t_max),
        },
    )


def check_asymptotic_regularity(
    scenario: Scenario,
    kernel: Kernel,
    t_grid: Optional[np.ndarray] = None,
    stability_limit: Optional[float] = None,
) -> ExperimentReport:
    """Profile t * ||f - f*phi|| for a plateau kernel on a damped model.

    Requires a kernel whose transform is identically 1 near 0 (the plateau
    makes low frequencies exact) and a scenario with |Im lambda| <= 1 so
    all spectral content sits in the damped region.  Rows are
    (t, defect, 1/t, t * defect).

    The C/t envelope is an upper bound, so a ``stability_limit`` of 2
    holds only where it is attained: a mode at the plateau edge, such as
    ``single_mode(-1e-4 + 0.5j)``, gives t * defect near 1/pi.  Models
    whose modes are all damped well away from the edge, such as
    ``cluster_zero(2, 100)``, decay faster than 1/t and fail it by design.
    """
    if not kernel.flat_near_zero:
        raise AdmissibilityError(
            f"kernel {kernel.name!r} is inadmissible: its transform is not"
            " identically 1 near 0"
        )
    lam = scenario.operator.eigenvalues
    if np.any(np.abs(lam.imag) > 1.0):
        raise ValueError("asymptotic regularity model needs |Im lambda| <= 1")
    if t_grid is None:
        t_grid = np.geomspace(10.0, 1e3, 41)
    t_grid = np.asarray(t_grid, dtype=float)
    w = mode_weights(scenario)
    sup, arg = convolution_defect_profile(lam, w, kernel, t_grid)
    rows = [(float(t), float(d), 1.0 / float(t), float(t * d))
            for t, d in zip(t_grid, sup)]
    consts = t_grid * sup
    failures = []
    finite = bool(np.all(np.isfinite(consts)))
    if not finite:
        failures.append("non-finite defect values")
    positive = finite and bool(np.all(consts > 0.0))
    stability = float(np.max(consts) / np.min(consts)) if positive else math.inf
    if stability_limit is not None and stability > stability_limit:
        failures.append(
            f"t*defect stability {stability:.3g} exceeds {stability_limit:g}"
        )
    try:
        slope = fit_loglog([(r[0], r[1]) for r in rows])
    except ValueError:
        slope = None
    return ExperimentReport(
        rows=rows,
        slopes={"defect": slope} if slope is not None else {},
        constant_stability=stability,
        failures=failures,
        metadata={
            "experiment": "asymptotic_regularity",
            "scenario": scenario.operator.label,
            "orbit": scenario.orbit_kind,
            "kernel": kernel.name,
            "argmax_mode": [int(a) + 1 for a in arg],
        },
    )


def _grid_decades(t_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masks for the first decade, last decade, and last two decades."""
    first = t_grid <= t_grid[0] * 10.0
    last = t_grid >= t_grid[-1] / 10.0
    last_two = t_grid >= t_grid[-1] / 100.0
    return first, last, last_two


def compare_decay(
    scenario: Scenario,
    variant: str,
    c: Optional[float] = None,
    k: Optional[int] = None,
    t_grid: Optional[np.ndarray] = None,
) -> ExperimentReport:
    """Measured orbit norm against the predicted rate bound on a log grid.

    Builds the resolvent envelopes the variant needs (growth envelopes for
    combined variants start at s = 1, where the low-frequency singularity
    hands over to the decay envelope), constructs the rate bound, and
    reports rows (t, measured, bound, ratio); ``k`` goes to
    :func:`make_bound` as given.  Pass criteria: the ratio's
    maximum over the last decade does not exceed its median over the first
    decade, and the measured slope is at most the bound slope + 0.05, both
    fitted on the last two decades.
    """
    spec, op = _VARIANTS.get(variant), scenario.operator
    if spec is None:
        raise ValueError(f"unknown variant {variant!r}")
    growth = decay = None
    if spec.growth:
        growth = resolvent_envelope_growth(op, s_min=1.0 if spec.decay else 0.0)
    if spec.decay:
        decay = resolvent_envelope_decay(op)
    bound = make_bound(variant, c=c, k=k, growth=growth, decay=decay)
    if t_grid is None:
        lo = max(10.0, bound.t_min * 1.05)
        t_grid = np.geomspace(lo, 1e4, max(5, int(round(20 * math.log10(1e4 / lo))) + 1))
    t_grid = np.asarray(t_grid, dtype=float)
    # positive, as the next check holds it at or above t_min
    if not (t_grid.ndim == 1 and t_grid.size and np.isfinite(t_grid).all()
            and (np.diff(t_grid) > 0.0).all()):
        raise ValueError("t_grid must be finite, positive and strictly increasing")
    if t_grid[0] < bound.t_min:
        raise ValueError(
            f"t_grid starts below the bound's validity threshold {bound.t_min:.6g}"
        )
    if t_grid[-1] < 100.0 * t_grid[0]:
        raise ValueError(
            "t_grid must span at least two decades so the first- and"
            " last-decade ratio statistics do not overlap"
        )
    measured, edge_modes = _orbit_sweep(scenario, t_grid, edges=True)
    for t_edge, mode in zip((t_grid[0], t_grid[-1]), edge_modes):
        idx, size = op.family_of(mode)
        if size >= 4 and idx > size // 2:
            raise TruncationRangeError(
                f"maximising mode {idx} of {size} at t={t_edge:g} sits in the"
                " truncated half of its family"
            )
    bvals = bound(t_grid)
    ratio = measured / bvals
    rows = [(float(t), float(m), float(b), float(r))
            for t, m, b, r in zip(t_grid, measured, bvals, ratio)]
    first, last, last_two = _grid_decades(t_grid)
    failures = []
    max_last = float(np.max(ratio[last]))
    median_first = float(np.median(ratio[first]))
    if max_last > median_first:
        failures.append(
            f"ratio grows: max {max_last:.4g} over the last decade exceeds"
            f" median {median_first:.4g} over the first"
        )
    slopes = {}
    fit_rows = [(t, b) for t, b in zip(t_grid[last_two], bvals[last_two])]
    slopes["bound"] = fit_loglog(fit_rows)
    pos = measured[last_two] > 0.0
    if int(np.sum(pos)) >= 5:
        slopes["measured"] = fit_loglog(
            [(t, m) for t, m in zip(t_grid[last_two][pos], measured[last_two][pos])]
        )
        if slopes["measured"][0] > slopes["bound"][0] + 0.05:
            failures.append(
                f"measured slope {slopes['measured'][0]:.4f} exceeds bound"
                f" slope {slopes['bound'][0]:.4f} + 0.05"
            )
    diffs = np.diff(ratio)
    return ExperimentReport(
        rows=rows,
        slopes=slopes,
        constant_stability=float(np.max(ratio) / np.min(ratio))
        if np.all(ratio > 0.0) else math.inf,
        failures=failures,
        metadata={
            "experiment": "compare_decay",
            "scenario": op.label,
            "orbit": scenario.orbit_kind,
            "variant": variant,
            "c": bound.c,
            "k": bound.k,
            "t_min": bound.t_min,
            "ratio_nonincreasing": bool(np.all(diffs <= 1e-12)),
        },
    )


# -- reports of the closed-form experiments ------------------------------------


def bound_table_report(t_grid: np.ndarray, values: np.ndarray, expected: Optional[float],
                       metadata: dict) -> ExperimentReport:
    """Rows (t, bound, reference, ratio) of a rate bound, the reference
    ``t**expected`` for a closed-form exponent ``expected`` and 1 for None.
    Pass rules: the values are positive and non-increasing in t, and a given
    ``expected`` lies within 0.05 of the slope fitted on the last two decades.
    """
    reference = t_grid ** expected if expected is not None else np.ones_like(t_grid)
    rows = [(float(t), float(v), float(r), float(v / r))
            for t, v, r in zip(t_grid, values, reference)]
    failures = []
    if np.any(values <= 0.0):
        failures.append("bound values must be positive")
    if np.any(np.diff(values) > 1e-12 * values[:-1]):
        failures.append("bound values must be non-increasing in t")
    slopes = {}
    tail = _grid_decades(t_grid)[2]
    if np.count_nonzero(tail) >= 5:
        slopes["bound"] = fit_loglog(list(zip(t_grid[tail], values[tail])))
        if expected is not None and abs(slopes["bound"][0] - expected) > 0.05:
            failures.append(
                f"fitted slope {slopes['bound'][0]:.4f} deviates from the"
                f" closed-form exponent {expected:.4f} by more than 0.05"
            )
    if expected is not None:
        metadata = {**metadata, "expected_slope": expected}
    return ExperimentReport(rows=rows, slopes=slopes, failures=failures, metadata=metadata)


def kernel_check_report(kernel: Kernel, s_grid: np.ndarray,
                        numeric: np.ndarray) -> ExperimentReport:
    """Rows (s, numeric, closed, ratio) of a kernel's numeric transform
    against its closed form, the ratio NaN where that vanishes; fails where
    the two differ by more than ``KERNEL_MATCH_TOLERANCE``."""
    closed = [float(kernel.freq_eval(np.asarray(s))) for s in s_grid.tolist()]
    rows = [(s, v, c, v / c if c > 0.0 else math.nan)
            for s, v, c in zip(s_grid.tolist(), numeric.tolist(), closed)]
    worst = max([0.0] + [abs(v - c) for _, v, c, _ in rows])
    failures = []
    if worst > KERNEL_MATCH_TOLERANCE:
        failures.append(
            f"numeric transform deviates from the closed form by {worst:.3e}"
            f" (tolerance {KERNEL_MATCH_TOLERANCE:g})"
        )
    return ExperimentReport(rows=rows, failures=failures,
                            metadata={"kernel": kernel.name, "max_abs_error": worst})


def parseval_report(t_grid: np.ndarray, residuals: Sequence[float],
                    metadata: dict) -> ExperimentReport:
    """Rows (t, residual, tolerance, ratio) of :func:`check_parseval`
    residuals; fails at every t where one exceeds ``PARSEVAL_TOLERANCE``."""
    rows = [(float(t), r, PARSEVAL_TOLERANCE, r / PARSEVAL_TOLERANCE)
            for t, r in zip(t_grid, residuals)]
    failures = [f"residual {r:.3e} at t={t:g} exceeds {PARSEVAL_TOLERANCE:g}"
                for t, r, _, _ in rows if r > PARSEVAL_TOLERANCE]
    return ExperimentReport(rows=rows, failures=failures, metadata=metadata)


def raw_oracle_report(t_grid: np.ndarray, raws: np.ndarray, closed: np.ndarray,
                      metadata: dict) -> ExperimentReport:
    """Rows (t, raw, closed, ratio) of raw two-term minima against the
    closed-form bound; fails at every t where the ratio leaves [0.1, 10]."""
    rows = [(t, raw, bound, raw / bound)
            for t, raw, bound in zip(t_grid.tolist(), raws.tolist(), closed.tolist())]
    failures = [f"raw/closed ratio {ratio:.4g} at t={t:g} leaves [0.1, 10]"
                for t, _, _, ratio in rows if not 0.1 <= ratio <= 10.0]
    return ExperimentReport(rows=rows, failures=failures, metadata=metadata)
