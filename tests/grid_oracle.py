"""Grid oracles of the library's closed forms, kept out of the package.

`check_membership` checks the (alpha, m)-geometric convexity of g on a
finite (x, y, t) grid: g(x^t y^(m(1-t))) <= g(x)^(t^alpha)
g(y)^(m(1-t^alpha)) for x, y in [lo, hi] and t in [0, 1], and returns the
lexicographically first violating triple if one exists.  It proves nothing;
the family certificates (`corpus`) decide membership, and this grid is
their independent oracle.  `audit` checks a FunctionSpec's |f'| <= M, f'
and monotonicity on a grid: the oracle of each family's closed forms.

The grid is sparse: x, y and t are broadcast axes, so g(x), g(y) and t^alpha
are evaluated once per grid value and the two-axis powers once per (x, t) or
(y, t) pair; only the combination points, g at them and the two sides of the
inequality are full (x, y, t) arrays.  Every operation is elementwise, so
each element sees the same operands as on a dense grid and the results,
counterexample and errors included, are identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ostrowski_frac.convexity import SLACK
from ostrowski_frac.corpus import FunctionSpec
from ostrowski_frac.fracint import DomainError


class NotPositiveError(DomainError):
    """g is not positive where a geometric kind takes its power: no
    (alpha, m)-geometric claim on it can hold."""


@dataclass(frozen=True)
class GridSpec:
    points_per_axis: int = 21
    t_steps: int = 21

    def __post_init__(self) -> None:
        if self.points_per_axis < 3:
            raise DomainError("points_per_axis >= 3 required")
        if self.t_steps < 5:
            raise DomainError("t_steps >= 5 required")


DEFAULT_GRID = GridSpec()


@dataclass(frozen=True)
class Counterexample:
    x: float
    y: float
    t: float
    lhs: float
    rhs: float


def check_membership(
    g: Callable,
    domain: tuple[float, float],
    alpha: float = 1.0,
    m: float = 1.0,
    grid: GridSpec = DEFAULT_GRID,
    g_domain: Optional[tuple[float, float]] = None,
) -> Optional[Counterexample]:
    """Return None if g is (alpha, m)-geometrically convex on the grid,
    otherwise the lexicographically smallest violating (x, y, t).

    g must accept numpy arrays.  If g_domain is given, every combination
    point the grid produces must fall inside it; silently extrapolating g
    would mask violations, so an excursion raises DomainError instead, as
    does a value of g on the grid that is not finite.
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError("alpha in (0, 1] required")
    if not 0.0 < m <= 1.0:
        raise DomainError("m in (0, 1] required")
    lo, hi = domain
    if lo < 0:
        raise DomainError("domain must satisfy lo >= 0")
    if not lo < hi:
        raise DomainError("empty domain")

    xs = np.linspace(lo, hi, grid.points_per_axis)
    ts = np.linspace(0.0, 1.0, grid.t_steps)
    X, Y, T = np.meshgrid(xs, xs, ts, indexing="ij", sparse=True)

    with np.errstate(divide="ignore"):
        pts = X**T * Y ** (m * (1.0 - T))
    gx = np.asarray(g(X), dtype=float)
    gy = np.asarray(g(Y), dtype=float)
    if np.any(gx <= 0.0) or np.any(gy <= 0.0):
        raise NotPositiveError("geometric kinds require g > 0 on the grid")
    lhs = np.asarray(g(pts), dtype=float)
    if np.any(lhs <= 0.0):
        raise NotPositiveError("g non-positive at a combination point")
    ta = T**alpha
    rhs = gx**ta * gy ** (m * (1.0 - ta))

    if g_domain is not None:
        dlo, dhi = g_domain
        if pts.min() < dlo - 1e-12 or pts.max() > dhi + 1e-12:
            raise DomainError(
                f"combination points leave g's domain: needed "
                f"[{pts.min():.6g}, {pts.max():.6g}], have [{dlo:.6g}, {dhi:.6g}]"
            )

    # Every comparison with nan is False: a non-finite g would pass vacuously.
    if not all(np.isfinite(v).all() for v in (gx, gy, lhs)):
        raise DomainError("g not finite on the grid")

    tol = SLACK * np.maximum(1.0, np.abs(rhs))
    viol = lhs > rhs + tol
    if not viol.any():
        return None
    i, j, k = np.unravel_index(int(np.argmax(viol)), viol.shape)
    return Counterexample(
        x=float(xs[i]),
        y=float(xs[j]),
        t=float(ts[k]),
        lhs=float(lhs[i, j, k]),
        rhs=float(rhs[i, j, k]),
    )


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
