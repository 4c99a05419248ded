"""Registry of closed-form test functions with analytic derivatives.

Every theorem assumes |f'| <= M and |f'| non-increasing.  Each family
states both in closed form where it is built (`_family_spec`): a declared M
below sup|f'| is a DomainError, and no family with rising |f'| can be built.
`audit`, a grid check of M, f' and monotonicity, is their independent oracle.

Convexity membership of |f'|^q is decided per family, not sampled.  Every
class the theorems need is (alpha, m)-geometric convexity (alpha = m = 1 is
plain geometric convexity), and in logs its defining inequality scales by q,
so membership depends only on (alpha, m).  Each family spec carries
`member(alpha, m)`: an exact certificate, memoized per (alpha, m).  Every
certificate also requires the combination points x^t y^(m(1-t)) to stay in
the domain; by monotonicity they fill [min(lo, lo^m), max(hi, hi^m)].
  - affine: |f'|^q is a constant c, certified when 0 < c <= 1, since
    c <= c^(t^alpha + m(1 - t^alpha)) then (exact for m < 1: t = 0 needs
    c <= c^m);
  - constant: g = 0 is never a member (the geometric classes need g > 0);
  - power decay (`power_decay_margin`): exact in closed form;
  - exp decay (`exp_decay_defect`): for fixed t the defect is convex in
    (x, y), so it peaks at a corner of the box; its supremum over t is
    bounded by interval bisection (Hansen, Global Optimization Using
    Interval Analysis) up to the relative slack `convexity.SLACK`.
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
from typing import Callable, Optional

import numpy as np

from .convexity import SLACK
from .fracint import DomainError


@dataclass(frozen=True)
class FunctionSpec:
    id: str
    f: Callable
    fprime: Callable
    domain: tuple[float, float]
    M: float
    # Whether |f'|^q is (alpha, m)-geometrically convex, for every q > 0: a
    # family's certificate; a hand-built spec certifies nothing.
    member: Callable[[float, float], bool] = lambda alpha, m: False

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


@np.errstate(invalid="ignore")
def audit(spec: FunctionSpec) -> list[str]:
    """Check a FunctionSpec on a grid; return the violated invariants (empty =
    pass): |f'| <= M, fprime against finite differences of f, and |f'|
    non-increasing.

    Membership is decided by the spec's certificate, so it is not audited.
    Each check is `not (value <= bound)`, so that a nan value fails it, and
    the nan of an inf - inf is reported as a violation, not warned about.
    """
    lo, hi = spec.domain
    violations: list[str] = []

    xs = np.linspace(lo, hi, 10_001)
    absd = np.abs(np.asarray(spec.fprime(xs), dtype=float))
    if not absd.max() <= spec.M + 1e-12:
        violations.append(
            f"|f'| exceeds declared M: max {absd.max():.17g} > M {spec.M:.17g}"
        )

    h = 1e-5 * (hi - lo)
    xi = np.linspace(lo + h, hi - h, 1_001)
    fp, fm = np.asarray(spec.f(xi + h), float), np.asarray(spec.f(xi - h), float)
    fd = (fp - fm) / (2 * h)
    err = np.abs(fd - np.asarray(spec.fprime(xi), float)).max()
    # The central difference's rounding bound: each f value is off by a few
    # ulps of max|f|, which the quotient divides by 2h (at |f| ~ 1e8 that is
    # about 1e-3, however exact f' is).  A non-finite f fails the check.
    tol = 1e-6 + 4.0 * np.finfo(float).eps * np.abs(np.concatenate((fp, fm))).max() / h
    if not err <= tol < math.inf:
        violations.append(
            f"finite difference disagrees with fprime: max err {err:.3g} > {tol:.3g}")

    if not np.all(np.diff(absd) <= 1e-12):
        violations.append("|f'| is not non-increasing on the grid")

    return violations


# ---------------------------------------------------------------------------
# Membership certificates.  Each decides, for |f'|^q with any q > 0, the
# (alpha, m)-geometric inequality g(x^t y^(m(1-t))) <= g(x)^(t^alpha)
# g(y)^(m(1-t^alpha)) for x, y in [lo, hi] and t in [0, 1].

def _certificate(lo: float, hi: float, certify: Callable[[float, float], bool]):
    """`member(alpha, m)` from `certify(alpha, m)`, memoized per (alpha, m).

    The combination points must stay in [lo, hi], up to the grid's 1e-12.
    """

    @functools.cache
    def certified(alpha: float, m: float) -> bool:
        inside = min(lo, lo**m) >= lo - 1e-12 and max(hi, hi**m) <= hi + 1e-12
        return inside and certify(alpha, m)

    return certified


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
    lh, ll = math.log(hi), math.log(lo)
    worst = max(r * (lh - m * ll), r * (ll - m * lh))
    return (1.0 - m) * -math.log(abs(M)) - (1.0 - alpha) / alpha * worst


def _exp_decay_corners(M, lam, lo, hi, m):
    """(x, y, c, d) per box corner: the defect over q at t is
    c + d t^alpha - lam x^t y^(m(1-t))."""
    L = math.log(abs(M))
    out = []
    for x in (lo, hi):
        for y in (lo, hi):
            A = (1.0 - m) * L + lam * m * (y - lo)
            out.append((x, y, A + lam * lo, lam * (x - lo) - A))
    return out


def exp_decay_defect(
    M: float, lam: float, lo: float, hi: float, alpha: float, m: float, t: float
) -> float:
    """For g = (|M| e^(-lam (x - lo)))^q: the largest log defect over q,
    ln g(x^t y^(m(1-t))) - t^alpha ln g(x) - m(1 - t^alpha) ln g(y), over
    x, y in [lo, hi].  For lam >= 0 it is convex in (x, y) (x^t y^(m(1-t))
    is concave, since t + m(1-t) <= 1), so the largest is at a corner."""
    s = t**alpha
    return max(c + d * s - lam * (x**t * y ** (m * (1.0 - t)))
               for x, y, c, d in _exp_decay_corners(M, lam, lo, hi, m))


_EXP_DECAY_MAX_INTERVALS = 4096


def _exp_decay_certified(M, lam, lo, hi, alpha, m) -> bool:
    """Whether `exp_decay_defect` <= `SLACK` for every t in [0, 1].

    On a t-interval each corner's defect is bounded above term by term:
    t^alpha and x^t y^(m(1-t)) are monotone in t, so each term is largest
    at an end.  An interval whose bound exceeds the slack is bisected; a
    midpoint whose defect exceeds it is a violation.  The defect is 0 at
    t = 1 for every corner, so the bisection needs the slack to stop there
    (about 70 intervals for the builtin member); rounding, about 1e-16 of
    terms of order 1, is far below it.  A supremum still undecided after
    `_EXP_DECAY_MAX_INTERVALS` intervals is not certified.
    """
    corners = _exp_decay_corners(M, lam, lo, hi, m)

    def bound(t0, t1):
        s0, s1 = t0**alpha, t1**alpha
        return max(
            c + max(d * s0, d * s1)
            - lam * min(x**t0 * y ** (m * (1.0 - t0)), x**t1 * y ** (m * (1.0 - t1)))
            for x, y, c, d in corners
        )

    work = [(0.0, 1.0)]
    for _ in range(_EXP_DECAY_MAX_INTERVALS):
        if not work:
            return True
        t0, t1 = work.pop()
        if bound(t0, t1) <= SLACK:
            continue
        mid = 0.5 * (t0 + t1)
        if exp_decay_defect(M, lam, lo, hi, alpha, m, mid) > SLACK:
            return False
        work += [(mid, t1), (t0, mid)]
    return not work


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
    certify: Callable[[float, float], bool],
) -> FunctionSpec:
    """A family member on [lo, hi] with non-increasing |f'|: f and fprime
    take their argument as a float array, `sup` is the supremum of |f'| in
    closed form, which the declared M may not understate, and
    `certify(alpha, m)` decides membership (see `_certificate`)."""
    spec = FunctionSpec(
        id=id,
        f=lambda u: f(np.asarray(u, dtype=float)),
        fprime=lambda u: fprime(np.asarray(u, dtype=float)),
        domain=(lo, hi),
        M=M,
        member=_certificate(lo, hi, certify),
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
        certify=lambda alpha, m: 0.0 < abs(slope) <= 1.0,
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
        certify=lambda alpha, m: False,
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

    def certify(alpha, m):
        return 0.0 < abs(M) <= 1.0 and power_decay_margin(M, r, lo, hi, alpha, m) >= 0.0

    return _family_spec(
        id, lo, hi,
        M=M if declared_M is None else declared_M,
        sup=abs(M) * lo ** (-r),
        f=lambda u: offset + M * u ** (1.0 - r) / (1.0 - r),
        fprime=lambda u: M * u ** (-r),
        certify=certify,
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
        certify=lambda alpha, m: M != 0.0 and _exp_decay_certified(M, lam, lo, hi, alpha, m),
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
