"""Gamma, Riemann-Liouville fractional integrals, and the t^mu c^t kernel integral.

The fractional integrals are computed after the substitution s = (x-t)^mu
(resp. (t-x)^mu), which absorbs the weak endpoint singularity for mu < 1 and
leaves a bounded integrand:

    J_{a+}^mu f(x) = (1/Gamma(mu+1)) * int_0^{(x-a)^mu} f(x - s^(1/mu)) ds

Quadrature is fixed-order Gauss-Legendre on dyadically subdivided panels;
a panel is bisected until its two halves agree with it within tolerance.
Refinement is breadth-first over a batch of integrals: each level bisects
every active panel of every integral in the batch with one integrand call,
so the fractional integrals of many instances that share (f, mu) cost one
numpy call per level rather than one per panel.  A small level (at most
SMALL_LEVEL active panels, as in the identity check's batches of four)
costs numpy's fixed price per call rather than its points, so it is judged
in Python floats, and its integrand call evaluates the quarters of its
panels as well as their halves: the next depth is judged on those quarters
without a call of its own.  Each integral's panels are accepted by the
test a depth-first recursion would apply and summed in that recursion's
tree order, so a batched result equals, bit for bit, the one integrating
it alone gives, whichever path its levels take.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """Adaptive quadrature did not reach tolerance within max_subdivisions."""


@dataclass(frozen=True)
class FracParams:
    """One instance of the fractional Ostrowski setting (a, b, x, mu)."""

    a: float
    b: float
    x: float
    mu: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "x", "mu"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if self.a < 0:
            raise DomainError("a >= 0 required")
        if not self.a < self.b:
            raise DomainError("a < b required")
        if not self.a <= self.x <= self.b:
            raise DomainError("x in [a, b] required")
        if not self.mu > 0:
            raise DomainError("mu > 0 required")


MAX_TOL = 1e-8  # the largest abs_tol or rel_tol a QuadConfig accepts


@dataclass(frozen=True)
class QuadConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    # Depth of local bisection; algebraic corners (t^mu, mu ~ 0.1) need
    # geometric grading well past what uniform refinement would suggest.
    max_subdivisions: int = 32
    base_nodes: int = 16

    def __post_init__(self) -> None:
        # A verdict holds down to a margin of -100 * abs_tol (verify._judge):
        # the cap keeps that slack at 1e-6 at most, below the smallest worst
        # margin of the default sweep (set, 1.3e-5); abs_tol = inf would
        # pass any violation.
        for name in ("abs_tol", "rel_tol"):
            if not 0.0 < getattr(self, name) <= MAX_TOL:
                raise DomainError(f"{name} in (0, {MAX_TOL:g}] required")
        if self.max_subdivisions < 1 or self.base_nodes < 1:
            raise DomainError("max_subdivisions and base_nodes must be >= 1")


DEFAULT_QUAD = QuadConfig()


def gamma(z: float) -> float:
    """Gamma function for positive real arguments."""
    if not (math.isfinite(z) and z > 0):
        raise DomainError(f"gamma requires finite z > 0, got {z!r}")
    return math.gamma(z)


@lru_cache(maxsize=32)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def _interleave(left, right):
    out = left.repeat(2)
    out[1::2] = right
    return out


# A level with at most this many active panels is refined by `_SmallLevels`.
# A small level's cost is numpy's fixed price per call (some forty calls a
# level), not its points.  On levels of n copies of a fractional integrand
# with a corner (powdecay's f(1 + s^(1/2)) and f(1 + s^(2/3))), the two paths
# cost the same per depth at 15 to 20 active panels (2-vCPU x86-64 VM): above
# that the scalar loops and the quarters evaluated in vain cost more than the
# numpy calls they save.  16 is at the low end of that crossover.
SMALL_LEVEL = 16


def _failure(a: float, b: float, err: float, finite: bool, cap: int) -> str:
    """The ConvergenceError message of a failing panel [a, b]."""
    where = f"[{float(a)}, {float(b)}]"
    if not finite:
        return f"integrand not finite on {where}"
    return (f"quadrature on {where} not converged at depth {cap} "
            f"(disagreement {float(err):.3g})")


class _SmallLevels:
    """The refinement of levels of at most SMALL_LEVEL active panels.

    The split test, the failure checks and the next level's panel lists run
    on Python floats, with the IEEE operations of the numpy path in its
    order.  Each call of g evaluates the halves and the quarters of every
    active panel, so a depth whose panels are halves of the previous one's
    kept panels is judged without a call.
    """

    def __init__(self, g, live, ref, w, tol, total, cfg, levels, failures):
        self.g, self.live, self.ref, self.w = g, live, ref, w
        self.tol, self.total = tol.tolist(), total.tolist()
        self.floor = 0.01 * cfg.abs_tol
        self.cap_accept = 10.0 * cfg.abs_tol
        self.cap = cfg.max_subdivisions
        self.levels, self.failures = levels, failures

    def refine(self, depth, a, b, est, j):
        """Refine the active panels [a[i], b[i]] of `depth` (lists; est
        their estimates, j their integrals' positions in `live`) until no
        panel splits, then return None, or until a level has more than
        SMALL_LEVEL panels: return (depth, a, b, est, j) of that level, as
        arrays for the numpy path."""
        ref = self.ref
        while True:
            # Below the cap the quarters are evaluated too: 6 panels per
            # active panel, its left and right halves, then their halves.
            ahead = depth < self.cap
            pa, pb = [], []
            for lo, hi in zip(a, b):
                mid = 0.5 * (lo + hi)
                if ahead:
                    q1, q3 = 0.5 * (lo + mid), 0.5 * (mid + hi)
                    pa += (lo, mid, lo, q1, mid, q3)
                    pb += (mid, hi, q1, mid, q3, hi)
                else:
                    pa += (lo, mid)
                    pb += (mid, hi)
            per = 6 if ahead else 2
            pa, pb = np.array(pa), np.array(pb)
            half = 0.5 * (pb - pa)
            pts = (0.5 * (pb + pa))[:, None] + half[:, None] * ref
            vals = np.asarray(self.g(pts.ravel(), self.live[j].repeat(per * ref.size)), dtype=float)
            terms = vals.reshape(pts.shape) * self.w
            terms *= half[:, None]
            sums = np.add.reduce(terms, axis=1).tolist()
            a, b, est, j, at = self._judge(depth, a, b, est, j, sums, range(0, len(sums), per))
            if not a:  # always so at the cap, where no panel splits
                return None
            depth += 1
            # The kept halves' halves are the quarters at sums[p + 2: p + 6].
            a, b, est, j, _ = self._judge(depth, a, b, est, j, sums, at)
            if not a:
                return None
            depth += 1
            if len(a) > SMALL_LEVEL:
                return depth, np.array(a), np.array(b), np.array(est), np.array(j)

    def _judge(self, depth, a, b, est, j, sums, at):
        """Test the panels of `depth`, whose halves' sums are sums[p] and
        sums[p + 1] for p in `at`, as the numpy path would; record the
        level and its first failure.  Return the next level's panels, the
        halves of the split ones, with p + 2 and p + 4 for p in `at`."""
        tol, total, floor, cap_accept, cap = (
            self.tol, self.total, self.floor, self.cap_accept, self.cap)
        at_cap = depth == cap
        boths, splits = [], []
        na, nb, nest, nj, nat = [], [], [], [], []
        first = None
        for lo, hi, e, i, p in zip(a, b, est, j, at):
            left, right = sums[p], sums[p + 1]
            both = left + right
            err = abs(both - e)
            bound = tol[i] * (hi - lo) / total[i]
            # np.maximum(bound, floor): a nan bound stays nan.
            split = not err <= (floor if bound < floor else bound)
            finite = math.isfinite(both)
            if at_cap:
                failed = split and not err <= cap_accept
                split = False
            else:
                failed = not finite
                split = split and finite
            if failed and first is None:
                first = (i, lo, _failure(lo, hi, err, finite, cap))
            boths.append(both)
            splits.append(split)
            if split:
                mid = 0.5 * (lo + hi)
                na += (lo, mid)
                nb += (mid, hi)
                nest += (left, right)
                nj += (i, i)
                nat += (p + 2, p + 4)
        if first is not None:
            self.failures.append(first)
        self.levels.append((boths, splits))
        return na, nb, nest, nj, nat


def adaptive_gauss_many(g, los, his, cfg: QuadConfig = DEFAULT_QUAD) -> np.ndarray:
    """Integrate a batch of integrals, the k-th over [los[k], his[k]], with
    fixed-order Gauss-Legendre panels refined by dyadic bisection wherever
    parent and child estimates disagree.

    Refinement is breadth-first: each level bisects every active panel of
    every integral and evaluates the halves in one call g(s, k), where s is
    a 1-d array of points and k gives, for each point, the index of the
    integral it belongs to; g returns values elementwise.  A level of at
    most SMALL_LEVEL active panels is judged in Python floats, and its call
    evaluates the halves' halves too, so one call serves two depths: g may
    receive two depths' panels at once.  Panels are ordered by integral, so
    k never decreases within a call: g may split its points by integral
    where k first reaches a value.  Each integral's acceptance test is that
    of a depth-first recursion over its own panels, and accepted values are
    added bottom-up in that recursion's tree order, so every result is bit
    for bit what integrating it alone would give.  Local bisection grades
    the panels into endpoints where the integrand has only algebraic
    smoothness, which uniform refinement handles poorly.

    Raises ConvergenceError for the lowest-index integral that fails, naming
    its leftmost failing panel: the error integrating one by one would give.
    A panel fails where its halves still disagree at the depth cap, or at
    once, unbisected, where their sum is not finite.
    Empty intervals integrate to 0 without calling g.
    """
    los = np.asarray(los, dtype=float)
    his = np.asarray(his, dtype=float)
    if np.any(his < los):
        raise DomainError("integration bounds reversed")
    out = np.zeros(los.shape)
    live = np.flatnonzero(his != los)
    if not live.size:
        return out
    ref, w = _leggauss(cfg.base_nodes)
    lo, hi = los[live], his[live]
    total = hi - lo
    # Per-panel acceptance floor; keeps algebraic corner panels from chasing
    # an ever-halving target they cannot meet.
    floor = 0.01 * cfg.abs_tol
    # At the depth cap a panel's remaining error is of the order of its own
    # disagreement (each bisection shrinks it geometrically), so tiny
    # disagreements are accepted rather than reported as failure.
    cap_accept = 10.0 * cfg.abs_tol

    # Per depth: (left + right of each panel, panel was split), as arrays
    # from the numpy path and as lists from `_SmallLevels`.
    levels = []
    failures = []  # per depth: (j, a, message) of its first failing panel
    small = None  # the `_SmallLevels` of this batch, made when first needed
    # The panels [pa, pb] each pass evaluates, and k, the integral of each of
    # their points: the whole intervals at depth -1, then at each depth the
    # halves of every active panel, interleaved: its left half, then its right.
    pa, pb, k = lo, hi, live.repeat(ref.size)
    depth = -1
    while True:
        # Gauss-Legendre sums on all the panels, in one call of g.  These
        # arrays stay loop locals, each rebound only once its successor
        # exists, so glibc reuses their memory for the next pass; freed all at
        # once, as on return from a helper, they let it trim the heap top
        # (M_TRIM_THRESHOLD, mallopt(3)) and the next pass faults the same
        # pages back in.  No array g was given or returned is written to.
        half = 0.5 * (pb - pa)
        pts = (0.5 * (pb + pa))[:, None] + half[:, None] * ref
        vals = np.asarray(g(pts.ravel(), k), dtype=float)
        terms = vals.reshape(pts.shape) * w
        terms *= half[:, None]
        sums = np.add.reduce(terms, axis=1)
        if depth < 0:
            # fmax, not maximum: a nan estimate keeps the absolute tolerance.
            tol = np.fmax(cfg.abs_tol, cfg.rel_tol * np.abs(sums))
            # Active panels, ordered by integral and then left to right: a, b,
            # the estimate on [a, b] and j, the integral's position in `live`.
            # A non-finite estimate is nan, which splits its panel as inf
            # would, but spares both - est the warning of inf - inf.  Deeper
            # estimates are halves of a finite sum, so finite.
            a, b, est, j = lo, hi, np.where(np.isfinite(sums), sums, np.nan), np.arange(live.size)
        else:
            both = sums[0::2] + sums[1::2]
            err = np.abs(both - est)
            split = ~(err <= np.maximum(tol[j] * (b - a) / total[j], floor))
            # A non-finite sum fails its integral at once: bisecting it again
            # would double its panels at every level down to the depth cap.
            finite = np.isfinite(both)
            if depth == cfg.max_subdivisions:
                failed = split & ~(err <= cap_accept)
                split[:] = False
            else:
                failed = ~finite
                split &= finite
            if np.count_nonzero(failed):
                i = failed.nonzero()[0][0]
                failures.append(
                    (j[i], a[i], _failure(a[i], b[i], err[i], finite[i], cfg.max_subdivisions)))
            levels.append((both, split))
            if not np.count_nonzero(split):
                break
            keep = split.repeat(2).nonzero()[0]
            a, b, est, j = pa[keep], pb[keep], sums[keep], j[keep >> 1]
        depth += 1
        if a.size <= SMALL_LEVEL:
            if small is None:
                small = _SmallLevels(g, live, ref, w, tol, total, cfg, levels, failures)
            step = small.refine(depth, a.tolist(), b.tolist(), est.tolist(), j.tolist())
            if step is None:
                break
            depth, a, b, est, j = step
        mid = 0.5 * (a + b)
        pa, pb, k = _interleave(a, mid), _interleave(mid, b), live[j].repeat(2 * ref.size)
    if failures:
        # The lowest-index failing integral at its leftmost failing panel.
        raise ConvergenceError(min(failures, key=lambda fail: fail[:2])[2])

    # A split panel's value is its left half's plus its right half's, as in
    # the recursion; the halves are the next level's consecutive pairs.
    vals = levels[-1][0]
    for both, split in reversed(levels[:-1]):
        if isinstance(both, list):
            halves = iter(vals if isinstance(vals, list) else vals.tolist())
            vals = [next(halves) + next(halves) if s else v for v, s in zip(both, split)]
        else:
            vals = np.asarray(vals)
            both[split] = vals[0::2] + vals[1::2]
            vals = both
    out[live] = vals
    return out


def adaptive_gauss(g, lo: float, hi: float, cfg: QuadConfig = DEFAULT_QUAD) -> float:
    """Integrate g on [lo, hi]; a batch of one for `adaptive_gauss_many`.

    g must accept a 1-d numpy array and return values elementwise.
    """
    return float(adaptive_gauss_many(lambda s, k: g(s), [lo], [hi], cfg)[0])


def _as_callable(f):
    return getattr(f, "f", f)


def rl_many(f, anchors, ends, mu: float, cfg: QuadConfig = DEFAULT_QUAD) -> list[float]:
    """Fractional integrals (1/Gamma(mu)) int |t-c|^(mu-1) f(t) dt between
    each anchor c = anchors[k] and ends[k], refined as one batch.

    The kernel is singular at the anchor: ends[k] < c gives the left-sided
    integral anchored at its upper limit, ends[k] > c the right-sided one
    anchored at its lower limit, and ends[k] == c gives 0.
    """
    g, uppers = rl_integrand(f, anchors, ends, mu)
    vals = adaptive_gauss_many(g, np.zeros(len(uppers)), uppers, cfg)
    return (vals / gamma(mu + 1.0)).tolist()


def rl_integrand(f, anchors, ends, mu: float):
    """(g, uppers): the batch integrand g(s, k) and the upper limits whose
    integrals over [0, uppers[k]], divided by Gamma(mu + 1), are the
    fractional integrals of `rl_many`, after the substitution
    s = |t - c|^mu."""
    fn = _as_callable(f)
    if not mu > 0:
        raise DomainError("mu > 0 required")
    anchor = np.asarray(anchors, dtype=float)
    sign = np.sign(np.asarray(ends, dtype=float) - anchor)
    # Scalar pow, as everywhere else the limits are computed: numpy's
    # vectorised pow may round differently in the last bit.
    uppers = [abs(e - c) ** mu for c, e in zip(anchors, ends)]
    inv = 1.0 / mu  # one scalar exponent per batch keeps numpy's fast paths

    def g(s, k):
        return fn(anchor[k] + sign[k] * s**inv)

    return g, uppers


def rl_lower(f, a: float, x: float, mu: float, cfg: QuadConfig = DEFAULT_QUAD) -> float:
    """Left-sided fractional integral (1/Gamma(mu)) int_a^x (x-t)^(mu-1) f(t) dt."""
    if mu > 0 and not x > a:
        raise DomainError("x > a required")
    return rl_many(f, [x], [a], mu, cfg)[0]


def rl_upper(f, x: float, b: float, mu: float, cfg: QuadConfig = DEFAULT_QUAD) -> float:
    """Right-sided fractional integral (1/Gamma(mu)) int_x^b (t-x)^(mu-1) f(t) dt."""
    if mu > 0 and not b > x:
        raise DomainError("b > x required")
    return rl_many(f, [x], [b], mu, cfg)[0]


@lru_cache(maxsize=16384)
def mexp_integral(c: float, mu: float) -> float:
    """int_0^1 t^mu c^t dt for float_info.min <= c <= 1, mu > 0.

    With lam = -ln c this is the lower incomplete gamma function
    gamma(mu+1, lam) / lam^(mu+1), summed as its positive series
    (Abramowitz & Stegun 6.5.29)

        e^(-lam) * sum_n lam^n / ((mu+1)(mu+2)...(mu+n+1)),

    which has no cancellation and is exactly 1/(mu+1) at c = 1.  While the
    terms grow each is at least 1/(n+1) of the sum, so the stopping test
    only passes in their decreasing tail.  Below float_info.min the sum
    (about e^lam) would overflow.
    """
    if not (sys.float_info.min <= c <= 1.0):
        raise DomainError("c in [float_info.min, 1] required")
    if not mu > 0:
        raise DomainError("mu > 0 required")
    lam = -math.log(c)
    term = total = 1.0 / (mu + 1.0)
    n = 1
    while term > 1e-17 * total:
        term *= lam / (mu + n + 1.0)
        total += term
        n += 1
    return math.exp(-lam) * total
