"""Right-hand sides of every inequality, evaluated exactly as printed.

Each printed (M^e - 1) / (e ln M) factor is evaluated as expm1(t) / t with
t = e ln M (`_exprel`), which does not cancel as M -> 1 or m -> 1 and is
exactly 1 where t underflows to 0.  The kernel integral is
`fracint.mexp_integral`'s positive series, exact at c = 1.

The bracket multiplying the geometry factor in the main fractional bound is
taken to be exactly the kernel integral k(alpha); see README for why.

Every printed right-hand side is a point factor `factor_*(bp, mu)`, which
never reads x, times `geometry_factor`; `verify.Theorem.rhs` forms that
product, so a sweep may evaluate each factor once per (point, mu).  A
right-hand side that another one gives at a pinned parameter has no
function of its own: `t22`'s is `factor_t26` and `remark_q1`'s is
`factor_mm`, each at q = 1.

A point factor is the printed formula and nothing more: it assumes the
hypotheses and parameter box that its `verify.THEOREMS` record states.
`verify._hypotheses` states them once, as one rule: `verify_theorem`
checks it at one point (`verify._check_hypotheses`), and a sweep decides
it over columns, once per value of each axis (`verify._admitted_grid`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .fracint import DomainError, FracParams, mexp_integral, pow_overflows


@dataclass(frozen=True)
class BoundParams:
    """A point (M, alpha, m, q, u) of a bound; its instance is a FracParams."""

    M: float
    alpha: float = 1.0
    m: float = 1.0
    q: float = 1.0
    u: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.M <= 1.0:
            raise DomainError("M in (0, 1] required")
        if not 0.0 < self.alpha <= 1.0:
            raise DomainError("alpha in (0, 1] required")
        if not 0.0 < self.m <= 1.0:
            raise DomainError("m in (0, 1] required")
        if not self.q >= 1.0:
            raise DomainError("q >= 1 required")
        if self.u is not None and not 0.0 < self.u < 1.0:
            raise DomainError("u, v > 0 required")

    @property
    def v(self) -> Optional[float]:
        """1 - u, the Young split's other half."""
        return None if self.u is None else 1.0 - self.u

    @property
    def p(self) -> float:
        """Hoelder conjugate, always derived from q."""
        if self.q <= 1.0:
            raise DomainError("p is defined only for q > 1")
        return self.q / (self.q - 1.0)


def _geometry(a: float, b: float, x: float, mu: float) -> float:
    return ((x - a) ** (mu + 1.0) + (b - x) ** (mu + 1.0)) / (b - a)


def _overflow(a: float, b: float, xs, mu: float) -> DomainError:
    """The DomainError of the first x of xs whose geometry factor is not
    finite: a power overflows a float, or else their sum.  The quotient
    by b - a is finite when the sum is: at most the sum if b - a >= 1,
    else at most 2 (b - a)^mu."""
    def powers_overflow(x):
        return pow_overflows(x - a, mu + 1.0) or pow_overflows(b - x, mu + 1.0)

    x = next(x for x in xs if powers_overflow(x) or not math.isfinite(_geometry(a, b, x, mu)))
    what = ("(x - a)^(mu + 1) or (b - x)^(mu + 1)" if powers_overflow(x)
            else "(x - a)^(mu + 1) + (b - x)^(mu + 1)")
    return DomainError(f"geometry factor at a = {a}, b = {b}, x = {x}, mu = {mu}: "
                       f"{what} overflows a float")


def geometry_factor(frac: FracParams) -> float:
    """((x-a)^(mu+1) + (b-x)^(mu+1)) / (b-a); DomainError if it is not
    finite (`geometry_factors`)."""
    return float(geometry_factors(frac.a, frac.b, [frac.x], frac.mu)[0])


def geometry_factors(a: float, b: float, xs, mu: float) -> np.ndarray:
    """`geometry_factor` at each x of xs, as an array; the first x whose
    factor is not finite, because a power or their sum overflows a float,
    raises its DomainError.  Each pow is a scalar pow: numpy's vectorised
    pow may round differently in the last bit."""
    try:
        g = np.array([_geometry(a, b, x, mu) for x in xs])
    except OverflowError:
        g = None
    if g is None or not np.isfinite(g).all():
        raise _overflow(a, b, xs, mu)
    return g


def k_alpha(M: float, m: float, alpha: float, mu: float) -> float:
    """The kernel factor M^m * int_0^1 t^mu M^(t alpha (1-m)) dt; 1/(mu+1) at M = 1."""
    if not 0.0 < M <= 1.0:
        raise DomainError("M in (0, 1] required")
    if not (0.0 < m <= 1.0 and 0.0 < alpha <= 1.0):
        raise DomainError("alpha, m in (0, 1] required")
    if not mu > 0:
        raise DomainError("mu > 0 required")
    return M**m * mexp_integral(M ** (alpha * (1.0 - m)), mu)


def _exprel(t: float) -> float:
    """(e^t - 1) / t, exactly 1 at t = 0."""
    return math.expm1(t) / t if t else 1.0


def factor_t24(bp: BoundParams, mu: float) -> float:
    """Hoelder-route bound over the geometry factor."""
    p = bp.p
    mid = _exprel(bp.q * bp.alpha * (1.0 - bp.m) * math.log(bp.M))
    return bp.M**bp.m * (1.0 / (p * mu + 1.0)) ** (1.0 / p) * mid ** (1.0 / bp.q)


def factor_t26(bp: BoundParams, mu: float) -> float:
    """Power-mean-route bound over the geometry factor.  At q = 1 it is the
    main fractional bound's kernel factor `k_alpha`, bit for bit (1.0 *
    alpha, y ** 0.0 and y ** 1.0 are exact), so the t22 record, which pins
    q = 1, reads it."""
    c = bp.M ** (bp.q * bp.alpha * (1.0 - bp.m))
    return (
        bp.M**bp.m
        * (1.0 / (mu + 1.0)) ** (1.0 - 1.0 / bp.q)
        * mexp_integral(c, mu) ** (1.0 / bp.q)
    )


def factor_set(bp: BoundParams, mu: float) -> float:
    """Geometric-convex corollary over the geometry factor: M / (mu + 1)."""
    return bp.M / (mu + 1.0)


class Mu1Audit(NamedTuple):
    printed: float
    recomputed: float
    difference: float


def factor_mu1(bp: BoundParams, mu: float) -> float:
    """The mu = 1 corollary's printed closed form over the geometry factor
    ((x-a)^2 + (b-x)^2) / (b-a): M^m 2^(1/q) bracket^(1/q) / 2.

    Caution: the printed bracket (c-1)/ln c * (1 - 1/ln c) does NOT equal the
    kernel integral int_0^1 t c^t dt = c/ln c - (c-1)/(ln c)^2; it exceeds it
    by 1/|ln c|, so it diverges as c -> 1.  Use bound_mu1_audit to see both
    values.  The closed form is stated at mu = 1, so it does not read mu.
    """
    lc = bp.q * bp.alpha * (1.0 - bp.m) * math.log(bp.M)
    if lc == 0.0:
        raise DomainError("the printed bracket diverges at c = 1")
    bracket = _exprel(lc) * (1.0 - 1.0 / lc)
    return bp.M**bp.m * 2.0 ** (1.0 / bp.q) * bracket ** (1.0 / bp.q) / 2.0


def bound_mu1_audit(bp: BoundParams, frac: FracParams) -> Mu1Audit:
    """Printed mu = 1 closed form next to the recomputed power-mean bound."""
    if frac.mu != 1.0:
        raise DomainError("mu = 1 required")
    g = geometry_factor(frac)
    printed = factor_mu1(bp, 1.0) * g
    recomputed = factor_t26(bp, 1.0) * g
    return Mu1Audit(printed, recomputed, printed - recomputed)


def _young_inner(bp: BoundParams, mu: float, exponent: float) -> float:
    """u^2/(mu+u) + v^2 (M^(e/v) - 1) / (e ln M)."""
    lc = exponent * math.log(bp.M)
    return bp.u**2 / (mu + bp.u) + bp.v * _exprel(lc / bp.v)


def factor_mm(bp: BoundParams, mu: float) -> float:
    """Young-split relaxation of the power-mean bound over the geometry
    factor; always >= factor_t26."""
    inner = _young_inner(bp, mu, bp.q * bp.alpha * (1.0 - bp.m))
    return bp.M**bp.m * (1.0 / (mu + 1.0)) ** (1.0 - 1.0 / bp.q) * inner ** (1.0 / bp.q)


def bound_classical(M: float, a: float, b: float, x: float) -> float:
    """The classical bound M (b-a) [1/4 + ((x - (a+b)/2)/(b-a))^2]."""
    if not a < b:
        raise DomainError("a < b required")
    if not a <= x <= b:
        raise DomainError("x in [a, b] required")
    return M * (b - a) * (0.25 + ((x - 0.5 * (a + b)) / (b - a)) ** 2)
