"""Grid-based membership checks for the convexity classes and the two
pointwise auxiliary lemmas.

A class is never "proved" here: the checker evaluates the defining inequality
on a finite (x, y, t) grid and returns the lexicographically first violating
triple if one exists.  The corpus families decide membership with exact
certificates instead (`corpus`); the grid stays as a tool, as the audit of a
hand-built spec's claims, and as the independent oracle the certificates are
tested against.  The three geometric kinds share a single code path through
an effective (alpha, m) pair, so the specializations alpha=1 and m=1 are
exact by construction.

The grid is sparse: x, y and t are broadcast axes, so g(x), g(y) and t^alpha
are evaluated once per grid value and the two-axis powers once per (x, t) or
(y, t) pair; only the combination points, g at them and the two sides of the
inequality are full (x, y, t) arrays.  Every operation is elementwise, so
each element sees the same operands as on a dense grid and the results,
counterexample and errors included, are identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .fracint import DomainError


class Kind(Enum):
    CONVEX = "convex"
    M_CONVEX = "m-convex"
    ALPHA_M_CONVEX = "alpha-m-convex"
    GEOM = "geom-convex"
    M_GEOM = "m-geom-convex"
    ALPHA_M_GEOM = "alpha-m-geom-convex"


_GEOMETRIC = {Kind.GEOM, Kind.M_GEOM, Kind.ALPHA_M_GEOM}
_NEEDS_ALPHA = {Kind.ALPHA_M_CONVEX, Kind.ALPHA_M_GEOM}
_NEEDS_M = {Kind.M_CONVEX, Kind.ALPHA_M_CONVEX, Kind.M_GEOM, Kind.ALPHA_M_GEOM}


@dataclass(frozen=True)
class ConvexityKind:
    kind: Kind
    alpha: Optional[float] = None
    m: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind in _NEEDS_ALPHA:
            if self.alpha is None or not 0.0 < self.alpha <= 1.0:
                raise DomainError("alpha in (0, 1] required")
        elif self.alpha is not None:
            raise DomainError(f"{self.kind.value} takes no alpha")
        if self.kind in _NEEDS_M:
            if self.m is None or not 0.0 < self.m <= 1.0:
                raise DomainError("m in (0, 1] required")
        elif self.m is not None:
            raise DomainError(f"{self.kind.value} takes no m")

    @property
    def geometric(self) -> bool:
        return self.kind in _GEOMETRIC

    def effective(self) -> tuple[float, float]:
        """(alpha, m) with absent parameters fixed at 1."""
        return (
            self.alpha if self.alpha is not None else 1.0,
            self.m if self.m is not None else 1.0,
        )

    def describe(self) -> str:
        parts = [self.kind.value]
        if self.alpha is not None:
            parts.append(f"alpha={self.alpha:g}")
        if self.m is not None:
            parts.append(f"m={self.m:g}")
        return "(" + ", ".join(parts) + ")"


def convex() -> ConvexityKind:
    return ConvexityKind(Kind.CONVEX)


def m_convex(m: float) -> ConvexityKind:
    return ConvexityKind(Kind.M_CONVEX, m=m)


def alpha_m_convex(alpha: float, m: float) -> ConvexityKind:
    return ConvexityKind(Kind.ALPHA_M_CONVEX, alpha=alpha, m=m)


def geom_convex() -> ConvexityKind:
    return ConvexityKind(Kind.GEOM)


def m_geom_convex(m: float) -> ConvexityKind:
    return ConvexityKind(Kind.M_GEOM, m=m)


def alpha_m_geom_convex(alpha: float, m: float) -> ConvexityKind:
    return ConvexityKind(Kind.ALPHA_M_GEOM, alpha=alpha, m=m)


@dataclass(frozen=True)
class GridSpec:
    points_per_axis: int = 21
    t_steps: int = 21
    # Scale of the floating-point tolerance: rhs + slack*max(1, |rhs|).
    slack: float = 1e-12

    def __post_init__(self) -> None:
        if self.points_per_axis < 3:
            raise DomainError("points_per_axis >= 3 required")
        if self.t_steps < 5:
            raise DomainError("t_steps >= 5 required")
        if self.slack < 0:
            raise DomainError("slack >= 0 required")


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
    kind: ConvexityKind,
    grid: GridSpec = DEFAULT_GRID,
    g_domain: Optional[tuple[float, float]] = None,
) -> Optional[Counterexample]:
    """Return None if the defining inequality of `kind` holds on the grid,
    otherwise the lexicographically smallest violating (x, y, t).

    g must accept numpy arrays.  If g_domain is given, every combination
    point the grid produces must fall inside it; silently extrapolating g
    would mask violations, so an excursion raises DomainError instead, as
    does a value of g on the grid that is not finite.
    """
    lo, hi = domain
    if lo < 0:
        raise DomainError("domain must satisfy lo >= 0")
    if not lo < hi:
        raise DomainError("empty domain")
    alpha, m = kind.effective()

    xs = np.linspace(lo, hi, grid.points_per_axis)
    ts = np.linspace(0.0, 1.0, grid.t_steps)
    X, Y, T = np.meshgrid(xs, xs, ts, indexing="ij", sparse=True)

    if kind.geometric:
        with np.errstate(divide="ignore"):
            pts = X**T * Y ** (m * (1.0 - T))
        gx = np.asarray(g(X), dtype=float)
        gy = np.asarray(g(Y), dtype=float)
        if np.any(gx <= 0.0) or np.any(gy <= 0.0):
            raise DomainError("geometric kinds require g > 0 on the grid")
        gpts = np.asarray(g(pts), dtype=float)
        if np.any(gpts <= 0.0):
            raise DomainError("g non-positive at a combination point")
        lhs = gpts
        ta = T**alpha
        rhs = gx**ta * gy ** (m * (1.0 - ta))
    else:
        pts = T * X + m * (1.0 - T) * Y
        lhs = np.asarray(g(pts), dtype=float)
        gx = np.asarray(g(X), dtype=float)
        gy = np.asarray(g(Y), dtype=float)
        ta = T**alpha
        rhs = ta * gx + m * (1.0 - ta) * gy

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

    tol = grid.slack * np.maximum(1.0, np.abs(rhs))
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


def check_gm_lemma(x: float, y: float, m: float, t: float, slack: float = 1e-12) -> bool:
    """x^t y^(m(1-t)) <= t x + (1-t) y, up to floating-point slack.

    Total for x, y >= 0 and m, t in (0, 1]; always true under the lemma's
    hypotheses x < y, y >= 1.
    """
    lhs = x**t * y ** (m * (1.0 - t))
    rhs = t * x + (1.0 - t) * y
    return bool(lhs <= rhs + slack * max(1.0, abs(rhs)))


def check_power_lemma(lam: float, u: float, v: float, slack: float = 1e-12) -> bool:
    """lam^(u^v) <= lam^(u v) for 0 < lam <= 1 and u, v in (0, 1]."""
    lhs = lam ** (u**v)
    rhs = lam ** (u * v)
    return bool(lhs <= rhs + slack * max(1.0, abs(rhs)))
