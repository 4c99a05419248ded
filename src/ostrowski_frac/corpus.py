"""Registry of closed-form test functions with analytic derivatives.

Every theorem assumes |f'| <= M and |f'| non-increasing.  Each family
states both in closed form where it is built (`_family_spec`): a declared M
below sup|f'| is a DomainError, and no family with rising |f'| can be built.
A grid check of M, f' and monotonicity, kept with the tests as an oracle,
checks these closed forms.

Convexity membership of |f'|^q is decided per family, not sampled.  Every
class the theorems need is (alpha, m)-geometric convexity (alpha = m = 1 is
plain geometric convexity), and in logs its defining inequality scales by q,
so membership depends only on (alpha, m).  Each family spec carries
`certify(alpha, m)`, memoized per (alpha, m): None for a member, otherwise
why the claim fails, as a witness (x, y, t) where the log defect is
positive, so the inequality fails there for every q > 0, or as a one-line
text.  Every certificate also requires the combination points
x^t y^(m(1-t)) to stay in the domain; by monotonicity they fill
[min(lo, lo^m), max(hi, hi^m)].
  - affine: |f'|^q is a constant c <= 1 (|slope| <= M <= 1), certified
    when c > 0, since c <= c^(t^alpha + m(1 - t^alpha)) then;
  - constant: g = 0 is never a member (the geometric classes need g > 0);
  - power decay (`power_decay_margin`): a closed form, certified only
    where it is at least a bound on its own rounding, and undecided
    within that bound; a rejection names the margin's worst corner at a
    t near 1;
  - exp decay (`exp_decay_defect`): for fixed t the defect is convex in
    (x, y), so it peaks at a corner of the box, where it is 0 at t = 1.
    Its supremum over t is bounded on intervals of t (Hansen, Global
    Optimization Using Interval Analysis), with no slack: an interval
    ending at 1 by each corner's slope in t, any other by the defect
    itself, each bound clearing its own rounding (one interval, [0, 1],
    for the builtin member at every default (alpha, m) it is certified
    at).  A rejection names the corner and midpoint where the bisection
    finds a defect above `convexity.SLACK`.
A hand-built FunctionSpec with no family certifies nothing, so no theorem
applies to it.

The two nontrivial members were found by brute-force search over the decay
families below, keeping parameters whose |f'|^q is a member for every
(alpha, m, q) the default sweep uses.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .convexity import SLACK
from .fracint import DomainError

# Why a convexity claim fails: a witness (x, y, t), or a one-line text; None
# for a member.
Reason = tuple[float, float, float] | str | None

_G_ZERO = "geometric kinds require g > 0"


@dataclass(frozen=True)
class FunctionSpec:
    id: str
    f: Callable
    fprime: Callable
    domain: tuple[float, float]
    M: float
    # Why |f'|^q is not (alpha, m)-geometrically convex, for any q > 0, or
    # None if it is: a family's certificate; a hand-built spec certifies nothing.
    certify: Callable[[float, float], Reason] = (
        lambda alpha, m: "a hand-built spec certifies nothing")

    def member(self, alpha: float, m: float) -> bool:
        """Whether |f'|^q is (alpha, m)-geometrically convex, for every q > 0."""
        return self.certify(alpha, m) is None

    def __post_init__(self) -> None:
        lo, hi = self.domain
        if lo < 0 or not lo < hi < math.inf:
            raise DomainError("domain must satisfy 0 <= lo < hi < inf")
        if not 0.0 < self.M <= 1.0:
            raise DomainError("M in (0, 1] required")

    def require_within(self, a: float, b: float) -> None:
        """Raise DomainError unless [a, b] lies in the domain, up to 1e-12."""
        lo, hi = self.domain
        if not (lo - 1e-12 <= a and b <= hi + 1e-12):
            raise DomainError(f"[{a}, {b}] outside domain of {self.id!r}")


# ---------------------------------------------------------------------------
# Membership certificates.  Each decides, for |f'|^q with any q > 0, the
# (alpha, m)-geometric inequality g(x^t y^(m(1-t))) <= g(x)^(t^alpha)
# g(y)^(m(1-t^alpha)) for x, y in [lo, hi] and t in [0, 1].

def _certificate(lo: float, hi: float, certify: Callable[[float, float], Reason]):
    """`FunctionSpec.certify` from a family's `certify(alpha, m)`, memoized
    per (alpha, m).

    The combination points must stay in [lo, hi], up to 1e-12.
    """

    @functools.cache
    def certified(alpha: float, m: float) -> Reason:
        if not (min(lo, lo**m) >= lo - 1e-12 and max(hi, hi**m) <= hi + 1e-12):
            return f"combination points x^t y^(m(1-t)) leave [{lo!r}, {hi!r}]"
        return certify(alpha, m)

    return certified


_UNIT_ROUNDOFF = 2.0**-53


def _gamma(n: float) -> float:
    """Higham's gamma_n = n u / (1 - n u), which bounds the relative error
    of n floating-point operations, each within u (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, section 3.1).  Every count
    below is about twice the operations it covers, plus the conditioning
    |e ln b| of each pow b^e in its rounded exponent e."""
    return n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)


def _power_decay_worst(r: float, lo: float, hi: float, m: float):
    """(W, x, y): W = max r (ln x - m ln y) over x, y in [lo, hi], and the
    corner that attains it."""
    lh, ll = math.log(hi), math.log(lo)
    return max((r * (lh - m * ll), hi, lo), (r * (ll - m * lh), lo, hi),
               key=lambda corner: corner[0])


def power_decay_margin(
    M: float, r: float, lo: float, hi: float, alpha: float, m: float
) -> float:
    """For g = (|M| x^(-r))^q with 0 < |M| <= 1: the claim holds iff this is >= 0.

    In logs, with s = t^alpha >= t, the defect over q is
    (s - t) r (ln x - m ln y) - (1 - s)(1 - m)(-ln|M|).  Its worst (x, y) is
    a corner, W = max r (ln x - m ln y), and sup over t < 1 of
    (t^alpha - t) / (1 - t^alpha) is its limit (1 - alpha) / alpha at t = 1
    (a chord slope of the convex u^(1/alpha)), so the defect is <= 0 for
    every t iff (1 - m)(-ln|M|) - (1 - alpha) / alpha * W >= 0.
    """
    worst = _power_decay_worst(r, lo, hi, m)[0]
    return (1.0 - m) * -math.log(abs(M)) - (1.0 - alpha) / alpha * worst


def _power_decay_rounding(M, r, lo, hi, alpha, m) -> float:
    """A bound on the rounding of `power_decay_margin`: gamma_n times the
    absolute values that make it up, exactly 0 where both of its terms are
    exact zeros (alpha = m = 1, say)."""
    ll, lh = abs(math.log(lo)), abs(math.log(hi))
    return _gamma(16.0) * (abs((1.0 - m) * math.log(abs(M)))
                           + abs((1.0 - alpha) / alpha) * r * max(lh + m * ll, ll + m * lh))


def _power_decay_reason(M, r, lo, hi, alpha, m) -> Reason:
    """None if `power_decay_margin` certifies the claim, otherwise why not.

    The margin certifies only when it is at least its rounding bound
    (`_power_decay_rounding`); within the bound, of either sign, the
    claim is undecided.  A margin below minus its bound is witnessed at
    its worst corner and the first t = 1 - 2^-k (k = 1, ..., 52) whose
    closed-form defect is positive: the defect over (1 - t^alpha) tends to
    minus the margin as t -> 1.  A witness where g = |f'| does not break
    the inequality in floats is not named.
    """
    if M == 0.0:
        return _G_ZERO
    margin = power_decay_margin(M, r, lo, hi, alpha, m)
    rounding = _power_decay_rounding(M, r, lo, hi, alpha, m)
    if margin >= rounding:
        return None if abs(M) <= 1.0 else "power decay is certified only for |M| <= 1"
    if margin > -rounding:
        return f"margin {margin!r} is within its rounding bound {rounding!r} of 0"
    worst, x, y = _power_decay_worst(r, lo, hi, m)
    for k in range(1, 53):
        t = 1.0 - 2.0**-k
        s = t**alpha
        if (s - t) * worst - (1.0 - s) * (1.0 - m) * -math.log(abs(M)) > 0.0:
            gx, gy, g = (abs(M * u**-r) for u in (x, y, x**t * y ** (m * (1.0 - t))))
            if g > gx**s * gy ** (m * (1.0 - s)):
                return (x, y, t)
            return f"margin {margin!r} is negative, but g does not fail in floats"
    return "negative margin, but no positive defect at t = 1 - 2^-k, k <= 52"


class _Corner(NamedTuple):
    """A corner (x, y) of the box.  Its defect over q at t is
    c + d t^alpha - lam z(t), with z(t) = x^t y^(m(1-t)), and its slope in
    t is d alpha t^(alpha-1) - lam k z(t), with k = ln x - m ln y (nan for
    a base 0).  c_mag, d_mag and k_mag are the sums of the absolute values
    that make up c, d and k, which scale their rounding; ln_mag is
    |ln x| + |ln y| (0 for a base 0, which `**` keeps exact), which scales
    the rounding of z's exponent."""
    x: float
    y: float
    c: float
    d: float
    k: float
    c_mag: float
    d_mag: float
    k_mag: float
    ln_mag: float


def _abs_log(u: float) -> float:
    return abs(math.log(u)) if u > 0.0 else 0.0


def _exp_decay_corners(M, lam, lo, hi, m) -> list[_Corner]:
    L = math.log(abs(M))
    out = []
    for x in (lo, hi):
        for y in (lo, hi):
            A = (1.0 - m) * L + lam * m * (y - lo)
            A_mag = abs((1.0 - m) * L) + lam * m * (y - lo)
            k = math.log(x) - m * math.log(y) if x > 0.0 and y > 0.0 else math.nan
            out.append(_Corner(x, y, A + lam * lo, lam * (x - lo) - A, k,
                               lam * lo + A_mag, lam * (x - lo) + A_mag,
                               _abs_log(x) + m * _abs_log(y), _abs_log(x) + _abs_log(y)))
    return out


def _exp_decay_worst(M, lam, lo, hi, alpha, m, t):
    """(defect, x, y): `exp_decay_defect` at t and the corner that attains it."""
    s = t**alpha
    return max(((c + d * s - lam * (x**t * y ** (m * (1.0 - t))), x, y)
                for x, y, c, d, *_ in _exp_decay_corners(M, lam, lo, hi, m)),
               key=lambda corner: corner[0])


def exp_decay_defect(
    M: float, lam: float, lo: float, hi: float, alpha: float, m: float, t: float
) -> float:
    """For g = (|M| e^(-lam (x - lo)))^q: the largest log defect over q,
    ln g(x^t y^(m(1-t))) - t^alpha ln g(x) - m(1 - t^alpha) ln g(y), over
    x, y in [lo, hi].  For lam >= 0 it is convex in (x, y) (x^t y^(m(1-t))
    is concave, since t + m(1-t) <= 1), so the largest is at a corner."""
    return _exp_decay_worst(M, lam, lo, hi, alpha, m, t)[0]


def _defect_bound(corners, lam, alpha, m, t0, t1) -> tuple[float, float]:
    """(upper, strict): an upper bound on the defect over [t0, t1], and
    the largest corner bound plus its own rounding, which is < 0 only if
    every corner's defect is < 0 there.  t^alpha and z(t) are monotone in
    t, so each term is largest at an end."""
    s0, s1 = t0**alpha, t1**alpha
    upper = strict = -math.inf
    for x, y, c, d, _, c_mag, d_mag, _, ln_mag in corners:
        z0, z1 = x**t0 * y ** (m * (1.0 - t0)), x**t1 * y ** (m * (1.0 - t1))
        bound = c + max(d * s0, d * s1) - lam * min(z0, z1)
        err = _gamma(16.0 + 2.0 * ln_mag) * (c_mag + d_mag * max(s0, s1) + lam * max(z0, z1))
        upper, strict = max(upper, bound), max(strict, bound + err)
    return upper, strict


def _slope_positive(corners, lam, alpha, m, t0) -> bool:
    """Whether every corner's slope in t is > 0 on [t0, 1], by a lower
    bound above its own rounding: each corner's defect then rises to its
    exact value 0 at t = 1, so it is <= 0 on [t0, 1].  t^(alpha-1) and z(t)
    are monotone in t, so each term is least at an end.  At t0 = 0 with
    alpha < 1, t^(alpha-1) is unbounded, so d alpha t^(alpha-1) is bounded
    below, by d alpha, only for d >= 0."""
    unbounded = t0 == 0.0 and alpha < 1.0
    p0 = 1.0 if unbounded else t0 ** (alpha - 1.0)
    # t0^(alpha-1) with alpha - 1 rounded
    n = 16.0 + (0.0 if unbounded else abs(alpha - 1.0) * _abs_log(t0))
    for x, y, _, d, k, _, d_mag, k_mag, ln_mag in corners:
        if unbounded and d < 0.0:
            return False
        z0 = x**t0 * y ** (m * (1.0 - t0))  # z(1) = x
        lower = min(d * alpha * p0, d * alpha) + min(-lam * k * z0, -lam * k * x)
        err = _gamma(n + 2.0 * ln_mag) * (
            d_mag * alpha * max(p0, 1.0) + lam * k_mag * max(z0, x))
        if not lower > err:
            return False
    return True


def _exp_decay_step(corners, lam, alpha, m, t0, t1, set_aside) -> str:
    """How the search treats [t0, t1]: "cleared" if the defect is certified
    <= 0 there, by its slope on an interval ending at 1, where every
    corner's defect is 0, or by its bound below minus its rounding;
    "aside" if `set_aside` and its bound is within `SLACK` of 0;
    otherwise "bisect"."""
    if t1 == 1.0 and _slope_positive(corners, lam, alpha, m, t0):
        return "cleared"
    upper, strict = _defect_bound(corners, lam, alpha, m, t0, t1)
    if strict < 0.0:
        return "cleared"
    return "aside" if set_aside and upper <= SLACK else "bisect"


_EXP_DECAY_MAX_INTERVALS = 4096


def _exp_decay_reason(M, lam, lo, hi, alpha, m) -> Reason:
    """None if `exp_decay_defect` <= 0 for every t in [0, 1], otherwise
    why not.

    Intervals of t are examined left first from [0, 1], each by
    `_exp_decay_step`.  An interval that is not cleared is bisected, and
    a midpoint whose defect exceeds `SLACK` is a violation, witnessed
    there at its worst corner, so no witness is an artefact of rounding.
    With no slack, a left-first bisection stalls where the defect crosses
    0 just below a midpoint: it bisects toward the crossing, and its
    midpoints right of the crossing have defects within SLACK of 0.  So
    while the search looks for a witness it sets aside each interval
    whose bound is within `SLACK` of 0, and returns to them, bisecting
    with no slack, only once it has found none.  A witness is thus where
    a search that accepted the slack would find it, and a claim is
    certified with no slack.  The builtin member is cleared on [0, 1], in
    one interval, at each (alpha, m) the default sweep certifies.  A
    supremum still undecided after `_EXP_DECAY_MAX_INTERVALS` intervals,
    such as one where a corner's slope at t = 1 is 0, is not certified.
    """
    corners = _exp_decay_corners(M, lam, lo, hi, m)
    work, aside = [(0.0, 1.0)], []
    for _ in range(_EXP_DECAY_MAX_INTERVALS):
        if not work and aside:
            # No witness: return to the intervals set aside, left first,
            # and set none aside from now on.
            work, aside = aside[::-1], None
        if not work:
            return None
        t0, t1 = work.pop()
        step = _exp_decay_step(corners, lam, alpha, m, t0, t1, aside is not None)
        if step == "cleared":
            continue
        if step == "aside":
            aside.append((t0, t1))
            continue
        mid = 0.5 * (t0 + t1)
        defect, x, y = _exp_decay_worst(M, lam, lo, hi, alpha, m, mid)
        if defect > SLACK:
            return (x, y, mid)
        work += [(mid, t1), (t0, mid)]
    if work or aside:
        return f"supremum undecided after {_EXP_DECAY_MAX_INTERVALS} intervals"
    return None


# ---------------------------------------------------------------------------
# Parametric families (also registrable from the CLI config by name).

def _require_finite(**params: float) -> None:
    """Raise DomainError naming the first non-finite family parameter: a nan
    would otherwise pass every `not (value <= bound)` check of its
    construction and surface only inside quadrature."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")


def _family_spec(
    id: str,
    lo: float,
    hi: float,
    M: float,
    sup: float,
    f: Callable,
    fprime: Callable,
    certify: Callable[[float, float], Reason],
) -> FunctionSpec:
    """A family member on [lo, hi] with non-increasing |f'|: f and fprime
    take their argument as a float array, `sup` is the supremum of |f'| in
    closed form, which the declared M may not understate, and
    `certify(alpha, m)` says why a claim fails, or None (see `_certificate`)."""
    spec = FunctionSpec(
        id=id,
        f=lambda u: f(np.asarray(u, dtype=float)),
        fprime=lambda u: fprime(np.asarray(u, dtype=float)),
        domain=(lo, hi),
        M=M,
        certify=_certificate(lo, hi, certify),
    )
    if not M >= sup:
        raise DomainError(f"declared M={M!r} is below sup|f'| = {sup!r} on [{lo!r}, {hi!r}]")
    return spec


def affine_spec(
    id: str,
    slope: float,
    intercept: float,
    lo: float,
    hi: float,
    declared_M: Optional[float] = None,
) -> FunctionSpec:
    """f(x) = slope*x + intercept; |f'| is the constant |slope|."""
    _require_finite(slope=slope, intercept=intercept)
    return _family_spec(
        id, lo, hi,
        M=abs(slope) if declared_M is None else declared_M,
        sup=abs(slope),
        f=lambda u: slope * u + intercept,
        fprime=lambda u: np.full(u.shape, slope, dtype=float),
        # |slope| <= M <= 1, so only g = 0 fails.
        certify=lambda alpha, m: None if slope != 0.0 else _G_ZERO,
    )


def constant_spec(id: str, value: float, lo: float, hi: float) -> FunctionSpec:
    """f constant; |f'| = 0, so no geometric membership (g must be positive)."""
    _require_finite(value=value)
    return _family_spec(
        id, lo, hi,
        M=1e-3,
        sup=0.0,
        f=lambda u: np.full(u.shape, value, dtype=float),
        fprime=lambda u: np.zeros(u.shape),
        certify=lambda alpha, m: _G_ZERO,
    )


def power_decay_spec(
    id: str,
    M: float,
    r: float,
    lo: float,
    hi: float,
    offset: float = 0.1,
    declared_M: Optional[float] = None,
) -> FunctionSpec:
    """f'(x) = M * x^(-r) on [lo, hi] with lo >= 1 and r >= 0, so |f'| is
    non-increasing with sup|f'| = |M| lo^(-r); f kept positive by offset."""
    if not lo >= 1.0:
        raise DomainError("power_decay family needs lo >= 1 (|f'| <= M there)")
    if not r >= 0.0:
        raise DomainError(f"power_decay family needs r >= 0 (|f'| non-increasing), got r={r!r}")
    if r == 1.0:
        raise DomainError("r = 1 not supported (logarithmic antiderivative)")
    _require_finite(M=M, r=r, offset=offset)

    return _family_spec(
        id, lo, hi,
        M=M if declared_M is None else declared_M,
        sup=abs(M) * lo ** (-r),
        f=lambda u: offset + M * u ** (1.0 - r) / (1.0 - r),
        fprime=lambda u: M * u ** (-r),
        certify=lambda alpha, m: _power_decay_reason(M, r, lo, hi, alpha, m),
    )


def exp_decay_spec(
    id: str,
    M: float,
    lam: float,
    lo: float,
    hi: float,
    offset: float = 1.0,
    declared_M: Optional[float] = None,
) -> FunctionSpec:
    """f'(x) = M * exp(-lam*(x - lo)) with lam > 0; sup|f'| = |M| at x = lo.

    Not geometrically convex (m = 1 fails by AM-GM): only some
    (alpha, m)-geometric memberships with m < 1 are certified.
    """
    if not lam > 0.0:
        raise DomainError("lam > 0 required")
    _require_finite(M=M, lam=lam, offset=offset)
    return _family_spec(
        id, lo, hi,
        M=M if declared_M is None else declared_M,
        sup=abs(M),
        f=lambda u: offset - (M / lam) * np.exp(-lam * (u - lo)),
        fprime=lambda u: M * np.exp(-lam * (u - lo)),
        certify=lambda alpha, m: (
            _G_ZERO if M == 0.0 else _exp_decay_reason(M, lam, lo, hi, alpha, m)),
    )


FAMILIES = {
    "affine": affine_spec,
    "constant": constant_spec,
    "power_decay": power_decay_spec,
    "exp_decay": exp_decay_spec,
}


def spec_from_family(family: str, id: str, **params) -> FunctionSpec:
    if family not in FAMILIES:
        raise DomainError(
            f"unknown family {family!r}; known: {sorted(FAMILIES)}"
        )
    try:
        return FAMILIES[family](id=id, **params)
    except TypeError as exc:
        raise DomainError(f"bad parameters for family {family!r}: {exc}") from None


@functools.cache
def builtin_corpus() -> tuple[FunctionSpec, ...]:
    """The builtin registry, built once per process: the specs are frozen,
    so callers share them, and with them each family's memoized
    certificates."""
    return (
        affine_spec("linear", slope=1.0, intercept=0.0, lo=0.0, hi=3.0),
        affine_spec("affine08", slope=0.8, intercept=0.1, lo=1.0, hi=2.0),
        constant_spec("const1", value=1.0, lo=0.0, hi=2.0),
        constant_spec("const2", value=2.0, lo=0.0, hi=2.0),
        # Search-selected decay members (see module docstring).
        power_decay_spec("powdecay", M=0.5, r=0.04, lo=1.0, hi=2.0),
        exp_decay_spec("expdecay", M=0.5, lam=0.02, lo=1.0, hi=2.0),
    )


def corpus_by_id() -> dict[str, FunctionSpec]:
    return {s.id: s for s in builtin_corpus()}
