"""Registry of closed-form test functions with analytic derivatives.

`audit` machine-checks every FunctionSpec: its declared derivative bound M,
its derivative by finite differences, and the monotonicity of |f'| it
declares.  The registry construction fails loudly if any builtin entry does
not audit clean.

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
    Interval Analysis) up to the grid's relative slack, `GridSpec.slack`.
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

from .convexity import DEFAULT_GRID
from .fracint import DomainError


class CorpusError(RuntimeError):
    """A builtin function spec failed its own audit."""


@dataclass(frozen=True)
class FunctionSpec:
    id: str
    f: Callable
    fprime: Callable
    domain: tuple[float, float]
    M: float
    decreasing_abs_deriv: bool
    # Whether |f'|^q is (alpha, m)-geometrically convex, for every q > 0: a
    # family's certificate; a hand-built spec certifies nothing.
    member: Callable[[float, float], bool] = lambda alpha, m: False

    def __post_init__(self) -> None:
        lo, hi = self.domain
        if lo < 0 or not lo < hi:
            raise DomainError("domain must satisfy 0 <= lo < hi")
        if not 0.0 < self.M <= 1.0:
            raise DomainError("M in (0, 1] required")

    def require_within(self, a: float, b: float) -> None:
        """Raise DomainError unless [a, b] lies in the domain, up to 1e-12."""
        lo, hi = self.domain
        if not (lo - 1e-12 <= a and b <= hi + 1e-12):
            raise DomainError(f"[{a}, {b}] outside domain of {self.id!r}")


def audit(spec: FunctionSpec) -> list[str]:
    """Run all FunctionSpec invariants; return the violated ones (empty = pass).

    Membership is decided by the spec's certificate, so it is not audited.
    """
    lo, hi = spec.domain
    violations: list[str] = []

    xs = np.linspace(lo, hi, 10_001)
    absd = np.abs(np.asarray(spec.fprime(xs), dtype=float))
    if absd.max() > spec.M + 1e-12:
        violations.append(
            f"|f'| exceeds declared M: max {absd.max():.17g} > M {spec.M:.17g}"
        )

    h = 1e-5 * (hi - lo)
    xi = np.linspace(lo + h, hi - h, 1_001)
    fd = (np.asarray(spec.f(xi + h), float) - np.asarray(spec.f(xi - h), float)) / (2 * h)
    err = np.abs(fd - np.asarray(spec.fprime(xi), float)).max()
    if err > 1e-6:
        violations.append(f"finite difference disagrees with fprime: max err {err:.3g}")

    if spec.decreasing_abs_deriv:
        if np.any(np.diff(absd) > 1e-12):
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


def _exp_decay_certified(M, lam, lo, hi, alpha, m, max_intervals: int = 4096) -> bool:
    """Whether `exp_decay_defect` <= slack for every t in [0, 1].

    On a t-interval each corner's defect is bounded above term by term:
    t^alpha and x^t y^(m(1-t)) are monotone in t, so each term is largest
    at an end.  An interval whose bound exceeds the slack is bisected; a
    midpoint whose defect exceeds it is a violation.  The defect is 0 at
    t = 1 for every corner, so the bisection needs the slack to stop there
    (about 70 intervals for the builtin member); rounding, about 1e-16 of
    terms of order 1, is far below it.  A supremum still undecided after
    `max_intervals` intervals is not certified.
    """
    if not lam > 0.0:
        return False
    slack = DEFAULT_GRID.slack
    corners = _exp_decay_corners(M, lam, lo, hi, m)

    def bound(t0, t1):
        s0, s1 = t0**alpha, t1**alpha
        return max(
            c + max(d * s0, d * s1)
            - lam * min(x**t0 * y ** (m * (1.0 - t0)), x**t1 * y ** (m * (1.0 - t1)))
            for x, y, c, d in corners
        )

    work = [(0.0, 1.0)]
    for _ in range(max_intervals):
        if not work:
            return True
        t0, t1 = work.pop()
        if bound(t0, t1) <= slack:
            continue
        mid = 0.5 * (t0 + t1)
        if exp_decay_defect(M, lam, lo, hi, alpha, m, mid) > slack:
            return False
        work += [(mid, t1), (t0, mid)]
    return not work


# ---------------------------------------------------------------------------
# Parametric families (also registrable from the CLI config by name).

def affine_spec(
    id: str,
    slope: float,
    intercept: float,
    lo: float,
    hi: float,
    declared_M: Optional[float] = None,
) -> FunctionSpec:
    """f(x) = slope*x + intercept; |f'| is the constant |slope|."""
    M = abs(slope) if declared_M is None else declared_M
    return FunctionSpec(
        id=id,
        f=lambda u: slope * np.asarray(u, dtype=float) + intercept,
        fprime=lambda u: slope * np.ones_like(np.asarray(u, dtype=float)),
        domain=(lo, hi),
        M=M,
        decreasing_abs_deriv=True,
        member=_certificate(lo, hi, lambda alpha, m: 0.0 < abs(slope) <= 1.0),
    )


def constant_spec(id: str, value: float, lo: float, hi: float) -> FunctionSpec:
    """f constant; |f'| = 0, so no geometric membership (g must be positive)."""
    return FunctionSpec(
        id=id,
        f=lambda u: value * np.ones_like(np.asarray(u, dtype=float)),
        fprime=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
        domain=(lo, hi),
        M=1e-3,
        decreasing_abs_deriv=True,
        member=_certificate(lo, hi, lambda alpha, m: False),
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
    """f'(x) = M * x^(-r) on [lo, hi] with lo >= 1; f kept positive by offset."""
    if not lo >= 1.0:
        raise DomainError("power_decay family needs lo >= 1 (|f'| <= M there)")
    if r == 1.0:
        raise DomainError("r = 1 not supported (logarithmic antiderivative)")

    def f(u):
        u = np.asarray(u, dtype=float)
        return offset + M * u ** (1.0 - r) / (1.0 - r)

    def fprime(u):
        u = np.asarray(u, dtype=float)
        return M * u ** (-r)

    def certify(alpha, m):
        return 0.0 < abs(M) <= 1.0 and power_decay_margin(M, r, lo, hi, alpha, m) >= 0.0

    return FunctionSpec(
        id=id,
        f=f,
        fprime=fprime,
        domain=(lo, hi),
        M=M if declared_M is None else declared_M,
        decreasing_abs_deriv=True,
        member=_certificate(lo, hi, certify),
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
    """f'(x) = M * exp(-lam*(x - lo)); sup|f'| = M at x = lo.

    Not geometrically convex (m = 1 fails by AM-GM): only some
    (alpha, m)-geometric memberships with m < 1 are certified.
    """

    def f(u):
        u = np.asarray(u, dtype=float)
        return offset - (M / lam) * np.exp(-lam * (u - lo))

    def fprime(u):
        u = np.asarray(u, dtype=float)
        return M * np.exp(-lam * (u - lo))

    def certify(alpha, m):
        return M != 0.0 and _exp_decay_certified(M, lam, lo, hi, alpha, m)

    return FunctionSpec(
        id=id,
        f=f,
        fprime=fprime,
        domain=(lo, hi),
        M=M if declared_M is None else declared_M,
        decreasing_abs_deriv=True,
        member=_certificate(lo, hi, certify),
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


def builtin_audits() -> list[tuple[FunctionSpec, list[str]]]:
    """Each builtin spec with the violations its audit finds."""
    specs = (
        affine_spec("linear", slope=1.0, intercept=0.0, lo=0.0, hi=3.0),
        affine_spec("affine08", slope=0.8, intercept=0.1, lo=1.0, hi=2.0),
        constant_spec("const1", value=1.0, lo=0.0, hi=2.0),
        constant_spec("const2", value=2.0, lo=0.0, hi=2.0),
        # Search-selected decay members (see module docstring).
        power_decay_spec("powdecay", M=0.5, r=0.04, lo=1.0, hi=2.0),
        exp_decay_spec("expdecay", M=0.5, lam=0.02, lo=1.0, hi=2.0),
    )
    return [(spec, audit(spec)) for spec in specs]


@functools.cache
def builtin_corpus() -> tuple[FunctionSpec, ...]:
    """The validated builtin registry; raises CorpusError if any audit fails.

    Audited once per process: the specs are frozen, so callers share them,
    and with them each family's memoized certificates.
    """
    audited = builtin_audits()
    for spec, violations in audited:
        if violations:
            raise CorpusError(
                f"builtin spec {spec.id!r} failed audit: " + "; ".join(violations)
            )
    return tuple(spec for spec, _ in audited)


def corpus_by_id() -> dict[str, FunctionSpec]:
    return {s.id: s for s in builtin_corpus()}
