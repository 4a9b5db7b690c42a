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

Convolution defects are computed by :func:`convolution_defect_profile`.
For kernels whose transform is piecewise polynomial (tent, fudge) it
evaluates ``f - f*phi = (1/2pi) integral e^{ist} F(s) (1 - psi(s)) ds``,
``F(s) = w/(is - lambda)``, in closed form: per mode and time a few values
of ``e^z E1(z)`` at the transform's breakpoints plus one pole term, and no
quadrature.  For the tabulated bump kernel it evaluates the time-domain
convolution on fixed Gauss-Legendre panels shared across all modes; that
route still reports modes with |Re lambda| t > 45 as 0, although their
true defect is of order ``|w| phi(t) / |lambda|``.

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
from numpy.polynomial import Polynomial
from numpy.polynomial.legendre import leggauss
from numpy.polynomial.polynomial import polyval

from .kernels import Kernel, tail_integral
from .quadrature import NonConvergenceError, QuadratureSpec, integrate
from .rate_functions import make_bound
from .semigroup_lab import (
    Scenario,
    mode_weights,
    orbit_argmax,
    orbit_norm,
    resolvent_envelope_decay,
    resolvent_envelope_growth,
)

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
]


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
    passed: bool = True
    failures: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)


def fit_loglog(pairs: Sequence[tuple]) -> tuple[float, float]:
    """Least-squares slope of log(value) against log(abscissa).

    Returns (slope, half_width) where half_width is the standard error of
    the slope estimate.  Requires at least five rows, all positive.
    """
    arr = np.asarray([(p[0], p[1]) for p in pairs], dtype=float)
    if arr.shape[0] < 5:
        raise ValueError("log-log fit needs at least 5 rows")
    if np.any(arr <= 0.0):
        raise ValueError("log-log fit requires positive abscissae and values")
    x = np.log(arr[:, 0])
    y = np.log(arr[:, 1])
    n = x.size
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    if sxx == 0.0:
        raise ValueError("log-log fit requires distinct abscissae")
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    resid = y - (y.mean() + slope * (x - xbar))
    if n > 2:
        stderr = math.sqrt(float(np.sum(resid**2)) / (n - 2) / sxx)
    else:
        stderr = 0.0
    return slope, stderr


# -- shared convolution-defect engine -----------------------------------------

_CHUNK = 1 << 18  # (mode, point) pairs held in memory at once
_SERIES_RADIUS = 40.0  # |z| from which e^z E1(z) is summed asymptotically
_SERIES_TERMS = 40
# the continued fraction for e^z E1(z) takes, on each band of |z| from
# [4, 12) to [32, 40), the depth that brings it to about 1e-15 on
# |Im z| = 4 + |Re z|/2, where it converges slowest
_FRACTION_EDGES = np.array([12.0, 16.0, 24.0, 32.0])
_FRACTION_DEPTHS = np.array([50, 38, 28, 18, 12])
_GL_NODES, _GL_WEIGHTS = leggauss(16)
_PANEL_WIDTH = 0.5 * math.pi
# e^{-45} < 3e-20: the panel route reports modes with |Re lambda| t beyond
# this as 0, and the Parseval check truncates the orbit there
_EXP_CLIP = 45.0


def _complement_pieces(kernel: Kernel) -> tuple[np.ndarray, list]:
    """Breakpoints of 1 - psi on the line and its polynomial pieces.

    Returns the sorted breakpoints c_1 < ... < c_m and the m + 1 pieces'
    coefficients (ascending powers of s); the outer pieces are 1.  The
    kernel's pieces on s >= 0 are mirrored to s < 0 because psi is even.
    """
    ends = {e for lo, hi, _ in kernel.freq_pieces for e in (lo, hi)}
    breaks = np.array(sorted(ends | {-e for e in ends}))
    polys = [np.ones(1)]
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        mid = 0.5 * (lo + hi)
        coeffs = next(np.asarray(c, dtype=float) for a, b, c in kernel.freq_pieces
                      if a <= abs(mid) <= b)
        psi = coeffs * np.sign(mid) ** np.arange(coeffs.size)
        polys.append(np.concatenate([[1.0 - psi[0]], -psi[1:]]))
    polys.append(np.ones(1))
    return breaks, polys


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


def _frequency_route(kernel: Kernel, t_grid: np.ndarray):
    """Mode defects from the closed form of the frequency integral.

    ``f - f*phi = (1/2pi) int e^{ist} w (1 - psi(s)) / (is - lambda) ds``.
    With mu = -i lambda, dividing a piece's polynomial p by s - mu leaves a
    polynomial times e^{ist}, whose primitive is elementary, plus
    p(mu) e^{ist} / (is - lambda), whose primitive is
    i e^{ist} G(t (lambda - is)).  Summing the pieces leaves, at each
    breakpoint c, the jump d = p_left - p_right expanded about c, and
    ``sum_k d_k i e^{ict} w^k R_k(x)`` (see :func:`_jump_terms`) with
    w = mu - c and x = i t w.  G is cut where s = Im lambda; the principal
    branch takes the side s < Im lambda there, so the piece [a, b) holding
    Im lambda adds the pole term ``2 pi e^{lambda t} p(mu)``.
    """
    breaks, polys = _complement_pieces(kernel)
    jumps = []
    for c, left, right in zip(breaks, polys[:-1], polys[1:]):
        diff = Polynomial(left) - Polynomial(right)
        taylor = diff(Polynomial([c, 1.0])).coef
        if np.any(taylor != 0.0):
            jumps.append((float(c), taylor))
    t = t_grid[None, :]

    def defects(lam: np.ndarray, wts: np.ndarray) -> np.ndarray:
        mu = -1j * lam
        piece = np.searchsorted(breaks, lam.imag, side="right")
        p_mu = np.empty(lam.shape, dtype=complex)
        for j, p in enumerate(polys):
            sel = piece == j
            p_mu[sel] = polyval(mu[sel], p)
        total = 2.0 * math.pi * p_mu[:, None] * np.exp(lam[:, None] * t)
        shape = (lam.size, t.size)
        tt = np.broadcast_to(t, shape)
        for c, taylor in jumps:
            x = np.empty(shape, dtype=complex)
            # built from real parts so that Im x is +0.0 when Im lambda = c
            x.real = tt * lam.real[:, None]
            x.imag = tt * (lam.imag[:, None] - c)
            w = np.broadcast_to((mu - c)[:, None], shape)
            total += 1j * np.exp(1j * c * t) * _jump_terms(x, w, tt, taylor)
        return wts[:, None] * total / (2.0 * math.pi)

    return defects, t_grid.size


def _panel_route(kernel: Kernel, t_grid: np.ndarray):
    """Mode defects of a tabulated kernel on Gauss-Legendre panels.

    ``f - f*phi = w e^{lambda t} (1 - J(t))`` with
    ``J(t) = integral_{-u0}^t phi(u) e^{-lambda u} du`` on the table window
    u0 = ``time_cutoff`` (truncation beyond it is below the certified tail
    defect), evaluated as a prefix sum over panels shared across modes,
    plus the mass tail beyond t.  Modes with |Re lambda| t > 45 are
    reported as 0.
    """
    u0 = float(kernel.time_cutoff)
    breaks = _panel_breaks(-u0, float(t_grid[-1]), t_grid, _PANEL_WIDTH)
    mids = 0.5 * (breaks[:-1] + breaks[1:])
    halfs = 0.5 * np.diff(breaks)
    nodes = (mids[:, None] + halfs[:, None] * _GL_NODES[None, :]).ravel()
    node_w = (halfs[:, None] * _GL_WEIGHTS[None, :]).ravel()
    phi_w = kernel.time_eval(nodes) * node_w
    n_panels = mids.size
    t_break = np.searchsorted(breaks, t_grid) - 1  # prefix panel count - 1
    tail = np.array([tail_integral(kernel, t) for t in t_grid])

    def defects(lam: np.ndarray, wts: np.ndarray) -> np.ndarray:
        z = -lam[:, None] * nodes[None, :]
        # prefixes are only consumed at t <= 45/|Re lambda|; clip keeps the
        # unused large-u region finite without affecting reported values
        g = np.exp(np.clip(z.real, None, _EXP_CLIP) + 1j * z.imag)
        panel_sums = (phi_w[None, :] * (1.0 - g)).reshape(lam.size, n_panels, 16).sum(axis=2)
        prefix = np.cumsum(panel_sums, axis=1)[:, t_break]
        decay = np.outer(lam.real, t_grid)
        damp = np.exp(decay + 1j * np.outer(lam.imag, t_grid))
        out = wts[:, None] * damp * (tail[None, :] + prefix)
        out[-decay > _EXP_CLIP] = 0.0
        return out

    return defects, nodes.size


def _panel_breaks(lo: float, hi: float, anchors: np.ndarray, width: float) -> np.ndarray:
    """Panel boundaries on [lo, hi] containing every anchor."""
    pts = np.unique(np.concatenate([[lo, hi], np.asarray(anchors, dtype=float)]))
    pts = pts[(pts >= lo) & (pts <= hi)]
    out = [pts[0]]
    for a, b in zip(pts[:-1], pts[1:]):
        n = max(1, int(math.ceil((b - a) / width)))
        out.extend(np.linspace(a, b, n + 1)[1:])
    return np.asarray(out)


def convolution_defect_profile(
    eigenvalues: np.ndarray,
    weights: np.ndarray,
    kernel: Kernel,
    t_grid: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise sup of |f(t) - (f*phi)(t)| for f_n = w_n e^{lambda_n t}.

    Returns (sup over modes, index of the maximising mode) on t_grid; the
    orbit is extended by zero to t < 0.  Kernels with a piecewise
    polynomial transform (``freq_pieces``: tent, fudge) are evaluated in
    closed form from the frequency integral, with a few exponential
    integrals per mode and time and no quadrature (:func:`_frequency_route`).
    The tabulated bump kernel uses Gauss-Legendre panels in time
    (:func:`_panel_route`), which still report modes with
    |Re lambda_n| t > 45 as 0.
    """
    lams = np.atleast_1d(np.asarray(eigenvalues, dtype=complex))
    wts = np.atleast_1d(np.asarray(weights, dtype=complex))
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) <= 0.0) or t_grid[0] <= 0.0:
        raise ValueError("t_grid must be positive and strictly increasing")
    if np.any(lams.real >= 0.0):
        raise ValueError("eigenvalues must have strictly negative real part")
    route = _frequency_route if kernel.freq_pieces else _panel_route
    defects, width = route(kernel, t_grid)
    step = max(1, _CHUNK // width)
    sup = np.zeros(t_grid.size)
    arg = np.zeros(t_grid.size, dtype=int)
    for start in range(0, lams.size, step):
        vals = np.abs(defects(lams[start:start + step], wts[start:start + step]))
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
    if scale <= 0.0:
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
    by design.
    """
    if scenario.operator.size > 32:
        raise ValueError("mollifier sweep is meant for small mode counts")
    r_list = [float(r) for r in r_list]
    if any(b <= a for a, b in zip(r_list, r_list[1:])) or r_list[0] <= 0.0:
        raise ValueError("r_list must be positive and increasing")
    if t_max <= 1.0:
        raise ValueError("t_max must exceed 1")
    lam = scenario.operator.eigenvalues
    w = mode_weights(scenario)
    t_grid = np.linspace(1.0, float(t_max), int(points))
    rows = []
    for r in r_list:
        # phi_R defect at time t equals the unit-scale defect of the
        # eigenvalues lambda/R evaluated at R t
        sup, _ = convolution_defect_profile(lam / r, w, kernel, r * t_grid)
        e_val = float(np.max(sup))
        rows.append((r, e_val, 1.0 / r, r * e_val))
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
        passed=not failures,
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
    second_kernel: Optional[Kernel] = None,
    stability_limit: Optional[float] = None,
) -> ExperimentReport:
    """Profile t * ||f - f*phi|| for a plateau kernel on a damped model.

    Requires a kernel whose transform is identically 1 near 0 (the plateau
    makes low frequencies exact) and a scenario with |Im lambda| <= 1 so
    all spectral content sits in the damped region.  Rows are
    (t, defect, 1/t, t * defect).  When ``second_kernel`` is given its
    sweep is repeated and summarised in the metadata, demonstrating that
    admissible kernels agree about regularity up to constants.

    The C/t envelope is an upper bound, so a ``stability_limit`` of 2
    holds only where it is attained: a mode at the plateau edge, such as
    ``single_mode(-1e-4 + 0.5j)``, gives t * defect near 1/pi.  Models
    whose modes are all damped well away from the edge, such as
    ``cluster_zero(2, 100)``, decay faster than 1/t and fail it by design.
    """
    for k in (kernel,) + ((second_kernel,) if second_kernel is not None else ()):
        if not k.flat_near_zero:
            raise AdmissibilityError(
                f"kernel {k.name!r} is inadmissible: its transform is not"
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
    metadata = {
        "experiment": "asymptotic_regularity",
        "scenario": scenario.operator.label,
        "orbit": scenario.orbit_kind,
        "kernel": kernel.name,
        "argmax_mode": [int(a) + 1 for a in arg],
    }
    if second_kernel is not None:
        sup2, _ = convolution_defect_profile(lam, w, second_kernel, t_grid)
        consts2 = t_grid * sup2
        metadata["second_kernel"] = second_kernel.name
        metadata["second_finite"] = bool(np.all(np.isfinite(consts2)))
        metadata["second_stability"] = (
            float(np.max(consts2) / np.min(consts2))
            if np.all(consts2 > 0.0) else math.inf
        )
        if not metadata["second_finite"]:
            failures.append("second kernel produced non-finite constants")
    try:
        slope = fit_loglog([(r[0], r[1]) for r in rows])
    except ValueError:
        slope = None
    return ExperimentReport(
        rows=rows,
        slopes={"defect": slope} if slope is not None else {},
        constant_stability=stability,
        passed=not failures,
        failures=failures,
        metadata=metadata,
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
    k: int = 1,
    t_grid: Optional[np.ndarray] = None,
) -> ExperimentReport:
    """Measured orbit norm against the predicted rate bound on a log grid.

    Builds the resolvent envelopes the variant needs (growth envelopes for
    combined variants start at s = 1, where the low-frequency singularity
    hands over to the decay envelope), constructs the rate bound, and
    reports rows (t, measured, bound, ratio).  Pass criteria: the ratio's
    maximum over the last decade does not exceed its median over the first
    decade, and the measured slope is at most the bound slope + 0.05, both
    fitted on the last two decades.
    """
    op = scenario.operator
    growth = decay = None
    if variant in ("infinity_ck", "infinity_smooth"):
        growth = resolvent_envelope_growth(op)
    elif variant in ("zero_ck", "zero_smooth"):
        decay = resolvent_envelope_decay(op)
    elif variant in ("zero_infinity_ck", "zero_infinity_smooth"):
        growth = resolvent_envelope_growth(op, s_min=1.0)
        decay = resolvent_envelope_decay(op)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    k_arg = k if variant.endswith("_ck") else None
    bound = make_bound(variant, c=c, k=k_arg, growth=growth, decay=decay)
    if t_grid is None:
        lo = max(10.0, bound.t_min * 1.05)
        t_grid = np.geomspace(lo, 1e4, max(5, int(round(20 * math.log10(1e4 / lo))) + 1))
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid[0] < bound.t_min:
        raise ValueError(
            f"t_grid starts below the bound's validity threshold {bound.t_min:.6g}"
        )
    if t_grid[-1] < 100.0 * t_grid[0]:
        raise ValueError(
            "t_grid must span at least two decades so the first- and"
            " last-decade ratio statistics do not overlap"
        )
    for t_edge in (t_grid[0], t_grid[-1]):
        _, idx, size = orbit_argmax(scenario, t_edge)
        if size >= 4 and idx > size // 2:
            raise TruncationRangeError(
                f"maximising mode {idx} of {size} at t={t_edge:g} sits in the"
                " truncated half of its family"
            )
    measured = orbit_norm(scenario, t_grid)
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
        passed=not failures,
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
