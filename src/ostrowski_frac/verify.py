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
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bounds as bnd
from .bounds import BoundParams
from .corpus import FunctionSpec
from .fracint import (
    DEFAULT_QUAD,
    ConvergenceError,
    DomainError,
    FracParams,
    QuadConfig,
    adaptive_gauss,
    clenshaw_curtis_many,
    rl_lines,
    rl_means,
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


def _signed(a, b, ends, g, fx, left, right):
    """The signed expression from the end weights (x-a)^mu + (b-x)^mu,
    Gamma(mu+1) as g, f(x) and the two fractional integrals, on floats or
    elementwise on arrays."""
    width = b - a
    return ends / width * fx - g / width * (left + right)


def _values_at(f: FunctionSpec, xs: np.ndarray) -> np.ndarray:
    """f at each of xs, from one call of f on their array: every signed
    LHS takes f(x) from here, whatever its batch."""
    return np.asarray(f.f(xs), dtype=float)


def _instances(f: FunctionSpec, a, b, x, mus):
    """(a, b, x): the instances (a[i], b[i], x[i]), broadcast together and
    flattened into float arrays.  Raises the DomainError that
    `FracParams(a, b, x, mu)` and then `f.require_within(a, b)` raise for
    the first (mu, instance) they reject, mu by mu, if any: one vectorised
    test of their conditions, then, only if it fails, the scalar checks
    themselves, for their text."""
    lo, hi = f.domain
    # Rows max(0, lo - 1e-12), a, x, b, hi + 1e-12: an instance passes both
    # checks where each row is at most the next and a < b.  Each comparison
    # fails on nan and the domain is finite, so a, b and x are finite too.
    chain = np.empty((5, *np.broadcast(a, b, x).shape))
    chain[0], chain[1], chain[2], chain[3], chain[4] = max(0.0, lo - 1e-12), a, x, b, hi + 1e-12
    chain = chain.reshape(5, -1)
    a, x, b = chain[1:4]
    if not (all(0.0 < mu < math.inf for mu in mus)
            and (chain[:-1] <= chain[1:]).all() and (a < b).all()):
        for mu in mus:
            for ai, bi, xi in zip(a.tolist(), b.tolist(), x.tolist()):
                FracParams(ai, bi, xi, mu)
                f.require_within(ai, bi)
    return a, b, x


def ostrowski_signed_many(
    f: FunctionSpec, a, b, x, mus, cfg: QuadConfig = DEFAULT_QUAD
) -> np.ndarray:
    """Signed deviation of the geometry-weighted point value from the pair of
    fractional integrals anchored at x, for the instances (a[i], b[i], x[i])
    of one f at each mu of mus, one row per mu: a, b and x are arrays or
    scalars, broadcast together.

    The instances are validated as columns; the first (mu, instance) that
    `FracParams` or `f.require_within` rejects raises their DomainError.
    Then every mu's side scales are checked (`rl_lines`), and then all the
    fractional integrals are one quadrature batch, which evaluates f once
    for all of mus and raises the first ConvergenceError in (mu, instance)
    order.  Each side power |x - c|^mu is computed once: over Gamma(mu+1)
    it scales its side, and the two of an instance add up to its end
    weight (x-a)^mu + (b-x)^mu, since |x - b| is b - x exactly.  Each
    value equals what `ostrowski_signed` gives for its instance alone.
    Empty-interval fractional integrals (x = a or x = b) are 0 by
    continuous extension, which keeps the identity exact at the endpoints.
    """
    a, b, x = _instances(f, a, b, x, mus)
    # int_a^x (t-a)^(mu-1) f(t) dt and int_x^b (b-t)^(mu-1) f(t) dt, over
    # Gamma(mu), per instance: kernels anchored at a and at b.
    ends = x.repeat(2)
    c, d, powers, gammas = rl_lines(np.array((a, b)).T.ravel(), ends, mus)
    sides = powers / gammas * rl_means(f, c, d, ends, mus, cfg)
    return _signed(a, b, powers[:, 0::2] + powers[:, 1::2], gammas, _values_at(f, x),
                   sides[:, 0::2], sides[:, 1::2])


def ostrowski_signed(f: FunctionSpec, frac: FracParams, cfg: QuadConfig = DEFAULT_QUAD) -> float:
    """`ostrowski_signed_many` for one instance."""
    return float(ostrowski_signed_many(f, frac.a, frac.b, frac.x, (frac.mu,), cfg)[0, 0])


def ostrowski_lhs(f: FunctionSpec, frac: FracParams, cfg: QuadConfig = DEFAULT_QUAD) -> float:
    return abs(ostrowski_signed(f, frac, cfg))


def lemma_identity_residual(
    f: FunctionSpec, frac: FracParams, cfg: QuadConfig = DEFAULT_QUAD
) -> float:
    """|signed LHS - weighted f' moment integrals|; a quadrature consistency oracle.

    The two fractional integrals of the signed LHS and the two moment
    integrals int_0^1 t^mu f'(t x + (1-t) c) dt, c = a and c = b, are one
    `clenshaw_curtis_many` batch of four under the density mu t^(mu-1): on
    the line t x + (1-t) c = c + (x-c) t, the sides are means of f and the
    moments means of t f', over mu.  k never decreases in a call of the
    integrand, so one `searchsorted` splits its points: f is evaluated on
    the sides' points alone, f' on the moments', 49 points each, with a, b
    and x among them.  The side powers (`rl_lines`) give both the side
    scales and the end weights, as in `ostrowski_signed_many`.  Each
    integral is bit for bit what it would be alone, the sides what
    `ostrowski_signed_many` gives.  A ConvergenceError names the failing
    integral and the instance; a DomainError names a side power
    (`rl_lines`) or an end weight (x - a)^(mu + 1) or (b - x)^(mu + 1)
    that overflows a float.
    """
    a, b, x, mu = frac.a, frac.b, frac.x, frac.mu
    f.require_within(a, b)
    c, d, powers, gammas = rl_lines([a, b, a, b], [x, x, x, x], (mu,))

    def phi(t, k):
        u = c[k] + d[k] * t
        i = k.searchsorted(2)
        return np.concatenate((f.f(u[:i]), t[i:] * f.fprime(u[i:])))

    try:
        (vals,) = clenshaw_curtis_many(phi, 4, (mu,), cfg)
    except ConvergenceError as exc:
        which = ("side at a", "side at b", "moment at a", "moment at b")[exc.index]
        raise ConvergenceError(f"{which} of the identity for {f.id!r} at a = {a}, b = {b}, "
                               f"x = {x}, mu = {mu}: {exc}", exc.index) from None
    ((x_a, b_x, _, _),), ((g,),) = powers.tolist(), gammas.tolist()
    side_a, side_b, moment_a, moment_b = vals.tolist()
    fx = float(_values_at(f, np.array([x]))[0])
    lhs = _signed(a, b, x_a + b_x, g, fx, x_a / g * side_a, b_x / g * side_b)
    i_a, i_b = moment_a / mu, moment_b / mu
    try:
        rhs = ((x - a) ** (mu + 1.0) * i_a - (b - x) ** (mu + 1.0) * i_b) / (b - a)
    except OverflowError:
        raise DomainError(f"weight (x - a)^(mu + 1) or (b - x)^(mu + 1) of the identity for "
                          f"{f.id!r} at a = {a}, b = {b}, x = {x}, mu = {mu} overflows a "
                          "float") from None
    return abs(lhs - rhs)


@dataclass(frozen=True)
class Theorem:
    """One theorem as stated: the point factor of its right-hand side, the
    claim it needs on |f'|^q, and its parameter box.  The record is the only
    statement of these hypotheses; the factor assumes them.  The corollaries
    are records whose box pins a parameter of their parent."""

    factor: Callable[[BoundParams, float], float]  # (point, mu); never reads x
    geom_convex: bool = False  # claim: geometric-convex, not (alpha, m)-geometric
    M_below_1: bool = True  # M < 1, and m < 1 too for an (alpha, m)-geometric claim
    young: bool = False  # the Young split u, v = 1 - u
    # (parameter, relation, bound) constraints on mu, alpha, m or q: the open
    # box (">" or "<") first, then the pins ("=").
    box: tuple[tuple[str, str, float], ...] = ()

    def rhs(self, bp: BoundParams, frac: FracParams) -> float:
        """The right-hand side: the point factor times the geometry factor."""
        return self.factor(bp, frac.mu) * bnd.geometry_factor(frac)

    def axis(self, name: str, values: tuple) -> tuple:
        """The values of one parameter (mu, alpha, m, q or u) that the
        theorem's grid takes from the configured ones: a pin replaces them,
        and u is None without the Young split.  `_hypotheses` decides
        each value, the open box among them."""
        if name == "u" and not self.young:
            return (None,)
        pins = tuple(bound for param, rel, bound in self.box if param == name and rel == "=")
        return pins or values


_RELATIONS = {">": operator.gt, "<": operator.lt, "=": operator.eq}


@functools.cache
def _factor(name: str) -> Callable[[BoundParams, float], float]:
    """The point factor `bounds.<name>`, one callable per name, looked up at
    call time, so that a wrapped `bounds` function (a tracer) sees every call."""
    return lambda bp, mu: getattr(bnd, name)(bp, mu)


THEOREMS = {
    "t22": Theorem(_factor("factor_t26"), M_below_1=False, box=(("q", "=", 1.0),)),
    "t24": Theorem(_factor("factor_t24"), box=(("q", ">", 1.0), ("alpha", "<", 1.0))),
    "t26": Theorem(_factor("factor_t26")),
    "set": Theorem(_factor("factor_set"), geom_convex=True,
                   box=(("alpha", "=", 1.0), ("m", "=", 1.0))),
    "mu1": Theorem(_factor("factor_mu1"), box=(("mu", "=", 1.0),)),
    "mm": Theorem(_factor("factor_mm"), young=True),
    "remark_q1": Theorem(_factor("factor_mm"), young=True, box=(("q", "=", 1.0),)),
}
THEOREM_IDS = tuple(THEOREMS)


def _hypotheses(theorem: Theorem, f: FunctionSpec, b: float, M: float):
    """The theorem's hypotheses on f, on an interval ending at b, at points
    whose bound on |f'| is M, in the order a failure names them: (names,
    holds, text) per hypothesis.  holds decides it from the values of the
    parameters in names alone: none for those of f, b and M, m for m < 1,
    (alpha, m) for membership, u for the Young split, one parameter per
    box constraint.  text, formatted with the point's alpha, m and q,
    names its failure.
    |f'| <= f.M and |f'| non-increasing hold by construction for a family
    member, and a hand-built spec has no certified membership."""
    yield (), lambda: abs(f.M - M) <= 1e-15, f"f.M={f.M:g} differs from bp.M={M:g}"
    yield (), lambda: b >= 1.0, "b >= 1 required"
    if theorem.M_below_1:
        yield (), lambda: M < 1.0, "M < 1 required"
        if not theorem.geom_convex:
            yield ("m",), lambda m: m < 1.0, "m < 1 required"
    if theorem.geom_convex:
        yield (), lambda: f.member(1.0, 1.0), "no geometric-convex claim at q={q:g}"
    else:
        yield ("alpha", "m"), f.member, "no (alpha={alpha:g}, m={m:g})-geometric claim at q={q:g}"
    yield (("u",), lambda u: (u is not None) == theorem.young,
           "u, v required" if theorem.young else "u, v not used")
    for name, rel, bound in theorem.box:
        yield ((name,), lambda v, holds=_RELATIONS[rel], bound=bound: holds(v, bound),
               f"{name} {rel} {bound:g} required")


def _admitted_grid(
    theorem_id: str, f: FunctionSpec, b: float, M: float, axes: dict[str, tuple]
) -> tuple[tuple, list[tuple]]:
    """The hypotheses (`_hypotheses`) over columns: (mus, points), the
    values of mu and the (alpha, m, q, u) of the product of `axes` (each
    parameter's configured values, through `Theorem.axis`) at which the
    theorem is stated for f on an interval ending at b, at the bound M, in
    grid order.  Each hypothesis is decided once per value it reads: those
    of f, b and M once, each other once per value of its axis, membership
    once per (alpha, m) pair left by the m axis.  Repeated values are
    listed as often as configured."""
    theorem = THEOREMS[theorem_id]
    axes = {name: theorem.axis(name, values) for name, values in axes.items()}
    pair_rules = []
    for names, holds, _ in _hypotheses(theorem, f, b, M):
        if not names and not holds():
            return (), []
        if len(names) == 1:
            axes[names[0]] = tuple(v for v in axes[names[0]] if holds(v))
        elif names:
            pair_rules.append(holds)
    pairs = [(alpha, m) for alpha in axes["alpha"] for m in axes["m"]
             if all(holds(alpha, m) for holds in pair_rules)]
    return axes["mu"], [(alpha, m, q, u) for alpha, m in pairs
                        for q in axes["q"] for u in axes["u"]]


def _check_hypotheses(
    theorem_id: str, f: FunctionSpec, b: float, mu: float, bp: BoundParams
) -> None:
    """`_hypotheses` at one point: raise HypothesisError, naming every
    failed hypothesis in order, unless the theorem is stated for f on an
    interval ending at b, at mu and the point bp.  No hypothesis reads a or
    x."""
    theorem = THEOREMS.get(theorem_id)
    if theorem is None:
        raise HypothesisError(f"unknown theorem id {theorem_id!r}")
    row = {"mu": mu, "alpha": bp.alpha, "m": bp.m, "q": bp.q, "u": bp.u}
    failures = [text for names, holds, text in _hypotheses(theorem, f, b, bp.M)
                if not holds(*(row[name] for name in names))]
    if failures:
        raise HypothesisError(f"{theorem_id} on {f.id!r}: "
                              + "; ".join(text.format(**row) for text in failures))


def _judge(lhs: float, rhs: float, cfg: QuadConfig) -> tuple[float, bool, float]:
    """The verdict rule: (margin, holds, tol_margin) of an instance.  The
    margin rhs - lhs holds when it is at least -tol_margin, 100 * abs_tol."""
    tol_margin = 100.0 * cfg.abs_tol
    margin = rhs - lhs
    return margin, margin >= -tol_margin, tol_margin


def verify_theorem(
    theorem_id: str, f: FunctionSpec, frac: FracParams, bp: BoundParams,
    cfg: QuadConfig = DEFAULT_QUAD,
) -> Verdict:
    """One inequality instance: the theorem on f at frac and the point bp."""
    _check_hypotheses(theorem_id, f, frac.b, frac.mu, bp)
    lhs = ostrowski_lhs(f, frac, cfg)
    rhs = THEOREMS[theorem_id].rhs(bp, frac)
    return Verdict(theorem_id, lhs, rhs, *_judge(lhs, rhs, cfg))


def verify_classical(
    f: FunctionSpec, a: float, b: float, x: float, cfg: QuadConfig = DEFAULT_QUAD
) -> Verdict:
    """Classical point-vs-mean estimate with the 1/4 constant."""
    f.require_within(a, b)
    # The bound checks a < b and x in [a, b] before the mean divides by b - a.
    rhs = bnd.bound_classical(f.M, a, b, x)
    mean = adaptive_gauss(f.f, a, b, cfg) / (b - a)
    lhs = abs(float(f.f(x)) - mean)
    return Verdict("classical", lhs, rhs, *_judge(lhs, rhs, cfg))
