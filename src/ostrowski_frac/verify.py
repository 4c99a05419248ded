"""Left-hand sides, the integral identity check, and per-theorem verdicts.

Two distinct outputs: the signed Ostrowski expression feeds the identity
check (an equality of signed quantities), the absolute value feeds the
verdicts (the theorems bound the absolute value).

Sign note: in the identity, the term carrying f'(tx + (1-t)b) enters with a
minus sign.  Integrating (b-u)^mu f'(u) by parts shows the plus-sign variant
is off by 2(b-x)^(mu+1)/(b-a) times that integral; the minus-sign form is the
one the residual check confirms to quadrature accuracy.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import bounds as bnd
from .bounds import BoundParams
from .corpus import FunctionSpec
from .fracint import (
    DEFAULT_QUAD,
    DomainError,
    FracParams,
    QuadConfig,
    adaptive_gauss,
    adaptive_gauss_many,
    gamma,
    rl_integrand,
    rl_many,
)


class HypothesisError(ValueError):
    """A theorem was invoked outside its validated hypotheses."""


@dataclass(frozen=True)
class Verdict:
    theorem_id: str
    lhs: float
    rhs: float
    margin: float
    holds: bool
    tol_margin: float


def _signed(f: FunctionSpec, frac: FracParams, left: float, right: float) -> float:
    """The signed expression from its two fractional integrals."""
    a, b, x, mu = frac.a, frac.b, frac.x, frac.mu
    return (
        ((x - a) ** mu + (b - x) ** mu) / (b - a) * float(f.f(x))
        - gamma(mu + 1.0) / (b - a) * (left + right)
    )


def ostrowski_signed_many(
    f: FunctionSpec, fracs: Sequence[FracParams], cfg: QuadConfig = DEFAULT_QUAD
) -> list[float]:
    """Signed deviation of the geometry-weighted point value from the pair of
    fractional integrals anchored at x, for instances of one f that share mu.

    All the instances' fractional integrals are refined as one batch; each
    value equals what `ostrowski_signed` gives for its instance alone.
    Empty-interval fractional integrals (x = a or x = b) are 0 by continuous
    extension, which keeps the identity exact at the endpoints.
    """
    if not fracs:
        return []
    mu = fracs[0].mu
    anchors, ends = [], []
    for frac in fracs:
        if frac.mu != mu:
            raise DomainError("instances of one batch must share mu")
        f.require_within(frac.a, frac.b)
        # int_a^x (t-a)^(mu-1) f(t) dt and int_x^b (b-t)^(mu-1) f(t) dt,
        # over Gamma(mu): kernels anchored at a and at b.
        anchors += (frac.a, frac.b)
        ends += (frac.x, frac.x)
    sides = rl_many(f, anchors, ends, mu, cfg)
    return [_signed(f, frac, left, right)
            for frac, left, right in zip(fracs, sides[0::2], sides[1::2])]


def ostrowski_signed(f: FunctionSpec, frac: FracParams, cfg: QuadConfig = DEFAULT_QUAD) -> float:
    """`ostrowski_signed_many` for one instance."""
    return ostrowski_signed_many(f, [frac], cfg)[0]


def ostrowski_lhs(f: FunctionSpec, frac: FracParams, cfg: QuadConfig = DEFAULT_QUAD) -> float:
    return abs(ostrowski_signed(f, frac, cfg))


def lemma_identity_residual(
    f: FunctionSpec, frac: FracParams, cfg: QuadConfig = DEFAULT_QUAD
) -> float:
    """|signed LHS - weighted f' moment integrals|; a quadrature consistency oracle.

    The two fractional integrals of the signed LHS and the two moment
    integrals int_0^1 t^mu f'(t x + (1-t) c) dt, c = a and c = b, are
    refined as one batch of four, each bit for bit as it would be alone.
    """
    a, b, x, mu = frac.a, frac.b, frac.x, frac.mu
    f.require_within(a, b)
    rl, uppers = rl_integrand(f, [a, b], [x, x], mu)  # as ostrowski_signed_many
    ends = np.array([a, b])

    def g(t, k):
        # k never decreases: the fractional integrals' points come first.
        n = int(np.searchsorted(k, 2))
        s = t[n:]
        moments = s**mu * f.fprime(s * x + (1.0 - s) * ends[k[n:] - 2])
        return np.concatenate((rl(t[:n], k[:n]), moments))

    vals = adaptive_gauss_many(g, [0.0] * 4, uppers + [1.0, 1.0], cfg)
    left, right = (vals[:2] / gamma(mu + 1.0)).tolist()
    i_a, i_b = vals[2:].tolist()
    lhs = _signed(f, frac, left, right)
    rhs = ((x - a) ** (mu + 1.0) * i_a - (b - x) ** (mu + 1.0) * i_b) / (b - a)
    return abs(lhs - rhs)


@dataclass(frozen=True)
class Theorem:
    """One theorem as stated: the point factor of its right-hand side, the
    claim it needs on |f'|^q, and its parameter box.  The corollaries are
    records whose box pins a parameter of their parent."""

    factor: Callable[[BoundParams], float]  # reads mu, never x
    geom_convex: bool = False  # claim: geometric-convex, not (alpha, m)-geometric
    M_below_1: bool = True  # M < 1, and m < 1 too for an (alpha, m)-geometric claim
    open_box: bool = False  # q > 1 and alpha < 1
    young: bool = False  # the Young split u, v = 1 - u
    pins: tuple[tuple[str, float], ...] = ()  # (parameter, the value it is fixed at)

    def rhs(self, bp: BoundParams) -> float:
        """The right-hand side: the point factor times the geometry factor."""
        return self.factor(bp) * bnd.geometry_factor(bp.frac)

    @functools.cached_property
    def box(self) -> tuple[tuple[str, str, float], ...]:
        """(parameter, relation, bound) constraints: the open box, then the pins."""
        open_box = (("q", ">", 1.0), ("alpha", "<", 1.0)) if self.open_box else ()
        return open_box + tuple((name, "=", value) for name, value in self.pins)

    def admitted(self, name: str, values: tuple) -> tuple:
        """The values of one parameter (mu, alpha, m, q or u) that the theorem
        is stated for: a pin replaces them, the open box filters them."""
        if name == "u" and not self.young:
            return (None,)
        for param, rel, bound in self.box:
            if param == name:
                values = (bound,) if rel == "=" else tuple(
                    v for v in values if _RELATIONS[rel](v, bound))
        return values


_RELATIONS = {">": operator.gt, "<": operator.lt, "=": operator.eq}

# Each factor is looked up in `bounds` at call time, so a wrapped `bounds`
# function (a profiler, a tracer) sees every call.
THEOREMS = {
    "t22": Theorem(lambda bp: bnd.factor_t22(bp), M_below_1=False, pins=(("q", 1.0),)),
    "t24": Theorem(lambda bp: bnd.factor_t24(bp), open_box=True),
    "t26": Theorem(lambda bp: bnd.factor_t26(bp)),
    "set": Theorem(lambda bp: bnd.factor_set(bp), geom_convex=True,
                   pins=(("alpha", 1.0), ("m", 1.0))),
    "mu1": Theorem(lambda bp: bnd.factor_mu1(bp), pins=(("mu", 1.0),)),
    "mm": Theorem(lambda bp: bnd.factor_mm(bp), young=True),
    "remark_q1": Theorem(lambda bp: bnd.factor_mm(bp), young=True, pins=(("q", 1.0),)),
}
THEOREM_IDS = tuple(THEOREMS)


def _check_hypotheses(theorem_id: str, f: FunctionSpec, bp: BoundParams) -> None:
    """Raise HypothesisError, naming every failed hypothesis in order, unless
    the theorem is stated for f at bp.  Only a failed check's message is
    formatted."""
    theorem = THEOREMS.get(theorem_id)
    if theorem is None:
        raise HypothesisError(f"unknown theorem id {theorem_id!r}")
    failures = []
    if not abs(f.M - bp.M) <= 1e-15:
        failures.append(f"f.M={f.M:g} differs from bp.M={bp.M:g}")
    if not f.decreasing_abs_deriv:
        failures.append("|f'| not declared decreasing")
    if not bp.frac.b >= 1.0:
        failures.append("b >= 1 required")
    if theorem.M_below_1:
        if not bp.M < 1.0:
            failures.append("M < 1 required")
        if not (theorem.geom_convex or bp.m < 1.0):
            failures.append("m < 1 required")
    if theorem.geom_convex:
        if not f.member(1.0, 1.0):
            failures.append(f"no geometric-convex claim at q={bp.q:g}")
    elif not f.member(bp.alpha, bp.m):
        failures.append(f"no (alpha={bp.alpha:g}, m={bp.m:g})-geometric claim at q={bp.q:g}")
    if theorem.young:
        if bp.u is None:
            failures.append("u, v required")
    elif bp.u is not None:
        failures.append("u, v not used")
    if theorem.box:
        params = {"mu": bp.frac.mu, "alpha": bp.alpha, "m": bp.m, "q": bp.q}
        for name, rel, bound in theorem.box:
            if not _RELATIONS[rel](params[name], bound):
                failures.append(f"{name} {rel} {bound:g} required")
    if failures:
        raise HypothesisError(f"{theorem_id} on {f.id!r}: " + "; ".join(failures))


def _judge(lhs: float, rhs: float, cfg: QuadConfig) -> tuple[float, bool, float]:
    """The verdict rule: (margin, holds, tol_margin) of an instance.  The
    margin rhs - lhs holds when it is at least -tol_margin, 100 * abs_tol."""
    tol_margin = 100.0 * cfg.abs_tol
    margin = rhs - lhs
    return margin, margin >= -tol_margin, tol_margin


def verify_theorem(
    theorem_id: str, f: FunctionSpec, bp: BoundParams, cfg: QuadConfig = DEFAULT_QUAD
) -> Verdict:
    """One inequality instance."""
    _check_hypotheses(theorem_id, f, bp)
    lhs = ostrowski_lhs(f, bp.frac, cfg)
    rhs = THEOREMS[theorem_id].rhs(bp)
    return Verdict(theorem_id, lhs, rhs, *_judge(lhs, rhs, cfg))


def verify_classical(
    f: FunctionSpec, a: float, b: float, x: float, cfg: QuadConfig = DEFAULT_QUAD
) -> Verdict:
    """Classical point-vs-mean estimate with the 1/4 constant."""
    f.require_within(a, b)
    mean = adaptive_gauss(f.f, a, b, cfg) / (b - a)
    lhs = abs(float(f.f(x)) - mean)
    rhs = bnd.bound_classical(f.M, a, b, x)
    return Verdict("classical", lhs, rhs, *_judge(lhs, rhs, cfg))
