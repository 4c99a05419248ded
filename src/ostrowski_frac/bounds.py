"""Right-hand sides of every inequality, evaluated exactly as printed.

All the "ln M" denominators get a relative guard: when |exponent * ln M| is
below LN_GUARD the factor is replaced by its limit, since sweeps approach
M -> 1 and m -> 1 where the written forms cancel catastrophically.

The bracket multiplying the geometry factor in the main fractional bound is
taken to be exactly the kernel integral k(alpha); see README for why.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .fracint import LN_GUARD, DomainError, FracParams, mexp_integral


@dataclass(frozen=True)
class BoundParams:
    frac: FracParams
    M: float
    alpha: float = 1.0
    m: float = 1.0
    q: float = 1.0
    u: Optional[float] = None
    v: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.M <= 1.0:
            raise DomainError("M in (0, 1] required")
        if not 0.0 < self.alpha <= 1.0:
            raise DomainError("alpha in (0, 1] required")
        if not 0.0 < self.m <= 1.0:
            raise DomainError("m in (0, 1] required")
        if not self.q >= 1.0:
            raise DomainError("q >= 1 required")
        if (self.u is None) != (self.v is None):
            raise DomainError("u and v must be given together")
        if self.u is not None:
            if not (self.u > 0 and self.v > 0):
                raise DomainError("u, v > 0 required")
            if abs(self.u + self.v - 1.0) > 1e-15:
                raise DomainError("u + v = 1 required")

    @property
    def p(self) -> float:
        """Hoelder conjugate, always derived from q."""
        if self.q <= 1.0:
            raise DomainError("p is defined only for q > 1")
        return self.q / (self.q - 1.0)


def geometry_factor(frac: FracParams) -> float:
    """((x-a)^(mu+1) + (b-x)^(mu+1)) / (b-a)."""
    a, b, x, mu = frac.a, frac.b, frac.x, frac.mu
    return ((x - a) ** (mu + 1.0) + (b - x) ** (mu + 1.0)) / (b - a)


def k_alpha(M: float, m: float, alpha: float, mu: float) -> float:
    """The kernel factor: 1/(mu+1) at M = 1, else M^m * int_0^1 t^mu M^(t alpha (1-m)) dt."""
    if not 0.0 < M <= 1.0:
        raise DomainError("M in (0, 1] required")
    if not (0.0 < m <= 1.0 and 0.0 < alpha <= 1.0):
        raise DomainError("alpha, m in (0, 1] required")
    if not mu > 0:
        raise DomainError("mu > 0 required")
    if M == 1.0:
        return 1.0 / (mu + 1.0)
    return M**m * mexp_integral(M ** (alpha * (1.0 - m)), mu)


def bound_t22(bp: BoundParams) -> float:
    """Main fractional bound: geometry factor times the kernel factor."""
    return geometry_factor(bp.frac) * k_alpha(bp.M, bp.m, bp.alpha, bp.frac.mu)


def _mean_factor(M: float, exponent: float) -> float:
    """(M^e - 1) / (e ln M) with the c -> 1 limit guarded to 1."""
    t = exponent * math.log(M)
    if abs(t) < LN_GUARD:
        return 1.0
    return (M**exponent - 1.0) / t


def bound_t24(bp: BoundParams) -> float:
    """Hoelder-route bound (requires the open parameter box and q > 1)."""
    if bp.q <= 1.0:
        raise DomainError("q > 1 required")
    if bp.M >= 1.0:
        raise DomainError("M < 1 required")
    if not (0.0 < bp.alpha < 1.0 and 0.0 < bp.m < 1.0):
        raise DomainError("alpha, m in (0, 1) required")
    mu = bp.frac.mu
    p = bp.p
    mid = _mean_factor(bp.M, bp.q * bp.alpha * (1.0 - bp.m))
    return (
        bp.M**bp.m
        * (1.0 / (p * mu + 1.0)) ** (1.0 / p)
        * mid ** (1.0 / bp.q)
        * geometry_factor(bp.frac)
    )


def bound_t26(bp: BoundParams) -> float:
    """Power-mean-route bound; reduces to bound_t22 at q = 1 for M < 1."""
    if bp.M >= 1.0:
        raise DomainError("M < 1 required")
    if not 0.0 < bp.m < 1.0:
        raise DomainError("m in (0, 1) required")
    mu = bp.frac.mu
    c = bp.M ** (bp.q * bp.alpha * (1.0 - bp.m))
    return (
        bp.M**bp.m
        * (1.0 / (mu + 1.0)) ** (1.0 - 1.0 / bp.q)
        * mexp_integral(c, mu) ** (1.0 / bp.q)
        * geometry_factor(bp.frac)
    )


def bound_set(M: float, frac: FracParams) -> float:
    """Geometric-convex corollary: M * geometry_factor / (mu + 1)."""
    return M * geometry_factor(frac) / (frac.mu + 1.0)


class Mu1Audit(NamedTuple):
    printed: float
    recomputed: float
    difference: float


def bound_mu1(bp: BoundParams) -> float:
    """The mu = 1 corollary's printed closed form, evaluated verbatim.

    Caution: the printed bracket (c-1)/ln c * (1 - 1/ln c) does NOT equal the
    kernel integral int_0^1 t c^t dt = c/ln c - (c-1)/(ln c)^2; it exceeds it
    by 1/|ln c| (and diverges as c -> 1, where the guard falls back to the
    integral's limit 1/2).  Use bound_mu1_audit to see both values.
    """
    if bp.frac.mu != 1.0:
        raise DomainError("mu = 1 required")
    if bp.M >= 1.0:
        raise DomainError("M < 1 required")
    if not 0.0 < bp.m < 1.0:
        raise DomainError("m in (0, 1) required")
    a, b, x = bp.frac.a, bp.frac.b, bp.frac.x
    lc = bp.q * bp.alpha * (1.0 - bp.m) * math.log(bp.M)
    if abs(lc) < LN_GUARD:
        bracket = 0.5
    else:
        c = math.exp(lc)
        bracket = (c - 1.0) / lc * (1.0 - 1.0 / lc)
    if bracket < 0.0:
        raise DomainError(f"printed bracket is negative: {bracket!r}")
    return (
        bp.M**bp.m
        * 2.0 ** (1.0 / bp.q)
        * bracket ** (1.0 / bp.q)
        * ((x - a) ** 2 + (b - x) ** 2)
        / (2.0 * (b - a))
    )


def bound_mu1_audit(bp: BoundParams) -> Mu1Audit:
    """Printed mu = 1 closed form next to the recomputed power-mean bound."""
    printed = bound_mu1(bp)
    recomputed = bound_t26(bp)
    return Mu1Audit(printed, recomputed, printed - recomputed)


def _young_inner(bp: BoundParams, exponent: float) -> float:
    """u^2/(mu+u) + v^2 (M^(e/v) - 1) / (e ln M), guarded at e ln M -> 0."""
    if bp.u is None:
        raise DomainError("u, v required")
    mu = bp.frac.mu
    lc = exponent * math.log(bp.M)
    if abs(lc) < LN_GUARD:
        second = bp.v  # limit of v^2 (c^(1/v) - 1)/ln c as c -> 1
    else:
        second = bp.v**2 * (bp.M ** (exponent / bp.v) - 1.0) / lc
    return bp.u**2 / (mu + bp.u) + second


def bound_mm(bp: BoundParams) -> float:
    """Young-split relaxation of the power-mean bound; always >= bound_t26."""
    if bp.M >= 1.0:
        raise DomainError("M < 1 required")
    if not 0.0 < bp.m < 1.0:
        raise DomainError("m in (0, 1) required")
    mu = bp.frac.mu
    inner = _young_inner(bp, bp.q * bp.alpha * (1.0 - bp.m))
    return (
        bp.M**bp.m
        * (1.0 / (mu + 1.0)) ** (1.0 - 1.0 / bp.q)
        * inner ** (1.0 / bp.q)
        * geometry_factor(bp.frac)
    )


def bound_remark_q1(bp: BoundParams) -> float:
    """The q = 1 remark as printed: bound_mm at q = 1, but its factors multiply
    in another order, so the two can differ in the last bit; kept for that."""
    if bp.q != 1.0:
        raise DomainError("q = 1 required")
    if bp.M >= 1.0:
        raise DomainError("M < 1 required")
    if not 0.0 < bp.m < 1.0:
        raise DomainError("m in (0, 1) required")
    inner = _young_inner(bp, bp.alpha * (1.0 - bp.m))
    return bp.M**bp.m * geometry_factor(bp.frac) * inner


def bound_classical(M: float, a: float, b: float, x: float) -> float:
    """The classical bound M (b-a) [1/4 + ((x - (a+b)/2)/(b-a))^2]."""
    if not a < b:
        raise DomainError("a < b required")
    if not a <= x <= b:
        raise DomainError("x in [a, b] required")
    return M * (b - a) * (0.25 + ((x - 0.5 * (a + b)) / (b - a)) ** 2)
