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
    Smoothing kernels with band-limited Fourier transforms: tent, fudge
    and a C^2 plateau bump, each stated as polynomial pieces of the
    transform from which its time profile is derived; with tail integrals
    and numeric transforms.
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

from . import quadrature, rate_functions, kernels, semigroup_lab, verify
from .quadrature import *  # noqa: F401,F403
from .rate_functions import *  # noqa: F401,F403
from .kernels import *  # noqa: F401,F403
from .semigroup_lab import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__", *quadrature.__all__, *rate_functions.__all__, *kernels.__all__,
           *semigroup_lab.__all__, *verify.__all__]
