"""Numerical tools for quantified decay rates of damped wave-type semigroups.

The package is organised in six modules:

``quadrature``
    Adaptive Gauss-Kronrod integration with oscillation-aware panel
    splitting, and oscillatory tails summed over half-periods.
``rate_functions``
    Monotone resolvent-growth/decay profiles, the composed rate functions
    they induce, numerical inversion, and the six closed-form decay
    bounds (plus raw two-term minimisation oracles).
``kernels``
    Smoothing kernels with closed-form Fourier transforms (tent, fudge)
    and a tabulated compactly-supported bump, with tail and derivative
    helpers.
``semigroup_lab``
    Diagonal operator models whose orbits and resolvents are computable
    in closed form: single modes and eigenvalue clusters accumulating at
    high frequency, at zero, or both.
``verify``
    Experiment drivers tying the above together: Parseval identity
    residuals, mollifier approximation rates, asymptotic regularity of
    smoothed orbits, and measured-versus-predicted decay comparisons.
``cli``
    INI-configured command line runner emitting deterministic CSV tables
    and JSON reports.
"""

from .quadrature import (
    EnvelopeError,
    NonConvergenceError,
    QuadResult,
    QuadratureSpec,
    integrate,
    integrate_oscillatory,
)
from .rate_functions import (
    BoundDomainError,
    ComposedRate,
    InadmissibleConstantError,
    InversionRangeError,
    MonotoneFunction,
    RateBound,
    SearchBracketError,
    VARIANTS,
    invert_monotone,
    make_bound,
    raw_bound_ck,
    raw_bound_smooth,
)
from .kernels import (
    Kernel,
    KernelTabulationError,
    bump_kernel,
    fudge_kernel,
    numeric_fourier,
    tail_integral,
    tent_kernel,
)
from .semigroup_lab import (
    DiagonalOperator,
    ORBIT_KINDS,
    Scenario,
    boundary_function,
    cluster_infinity,
    cluster_zero,
    mixed_cluster,
    mode_weights,
    orbit_argmax,
    orbit_norm,
    resolvent_envelope_decay,
    resolvent_envelope_growth,
    resolvent_norm,
    single_mode,
)
from .verify import (
    AdmissibilityError,
    ExperimentReport,
    TruncationRangeError,
    check_asymptotic_regularity,
    check_mollifier_rate,
    check_parseval,
    compare_decay,
    convolution_defect_profile,
    fit_loglog,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # quadrature
    "QuadratureSpec",
    "QuadResult",
    "EnvelopeError",
    "NonConvergenceError",
    "integrate",
    "integrate_oscillatory",
    # rate functions
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
    # kernels
    "Kernel",
    "KernelTabulationError",
    "tent_kernel",
    "fudge_kernel",
    "bump_kernel",
    "numeric_fourier",
    "tail_integral",
    # semigroup lab
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
    # verification experiments
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
