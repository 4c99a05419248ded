"""Numerical verification of Ostrowski-type bounds for Riemann-Liouville
fractional integrals of functions with geometrically convex derivatives."""

__version__ = "0.1.0"

from .fracint import (  # noqa: F401
    ConvergenceError,
    DomainError,
    FracParams,
    QuadConfig,
    adaptive_gauss,
    clenshaw_curtis_many,
    gamma,
    mexp_integral,
    rl_lower,
    rl_many,
    rl_upper,
)
from .convexity import check_gm_lemma, check_power_lemma  # noqa: F401
from .corpus import FunctionSpec, builtin_corpus  # noqa: F401
from .bounds import BoundParams  # noqa: F401
from .verify import (  # noqa: F401
    HypothesisError,
    Verdict,
    lemma_identity_residual,
    ostrowski_lhs,
    ostrowski_signed,
    ostrowski_signed_many,
    verify_classical,
    verify_theorem,
)
