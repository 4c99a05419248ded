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

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import bounds as bnd
from .bounds import BoundParams
from .corpus import FunctionSpec
from .convexity import alpha_m_geom_convex, geom_convex
from .fracint import (
    DEFAULT_QUAD,
    DomainError,
    FracParams,
    QuadConfig,
    adaptive_gauss,
    adaptive_gauss_many,
    gamma,
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
    params: dict
    tol_margin: float


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
    lo, hi = f.domain
    anchors, ends = [], []
    for frac in fracs:
        if frac.mu != mu:
            raise DomainError("instances of one batch must share mu")
        if frac.a < lo - 1e-12 or frac.b > hi + 1e-12:
            raise DomainError(f"[{frac.a}, {frac.b}] outside domain of {f.id!r}")
        # int_a^x (t-a)^(mu-1) f(t) dt and int_x^b (b-t)^(mu-1) f(t) dt,
        # over Gamma(mu): kernels anchored at a and at b.
        anchors += (frac.a, frac.b)
        ends += (frac.x, frac.x)
    sides = rl_many(f, anchors, ends, mu, cfg)
    scale = gamma(mu + 1.0)
    out = []
    for frac, left, right in zip(fracs, sides[0::2], sides[1::2]):
        a, b, x = frac.a, frac.b, frac.x
        fx = float(f.f(x))
        out.append(
            ((x - a) ** mu + (b - x) ** mu) / (b - a) * fx
            - scale / (b - a) * (left + right)
        )
    return out


def ostrowski_signed(f: FunctionSpec, frac: FracParams, cfg: QuadConfig = DEFAULT_QUAD) -> float:
    """`ostrowski_signed_many` for one instance."""
    return ostrowski_signed_many(f, [frac], cfg)[0]


def ostrowski_lhs(f: FunctionSpec, frac: FracParams, cfg: QuadConfig = DEFAULT_QUAD) -> float:
    return abs(ostrowski_signed(f, frac, cfg))


def lemma_identity_residual(
    f: FunctionSpec, frac: FracParams, cfg: QuadConfig = DEFAULT_QUAD
) -> float:
    """|signed LHS - weighted f' moment integrals|; a quadrature consistency oracle."""
    a, b, x, mu = frac.a, frac.b, frac.x, frac.mu
    lhs = ostrowski_signed(f, frac, cfg)
    ends = np.array([a, b])
    i_a, i_b = adaptive_gauss_many(
        lambda t, k: t**mu * f.fprime(t * x + (1.0 - t) * ends[k]), [0.0, 0.0], [1.0, 1.0], cfg
    ).tolist()
    rhs = ((x - a) ** (mu + 1.0) * i_a - (b - x) ** (mu + 1.0) * i_b) / (b - a)
    return abs(lhs - rhs)


THEOREM_IDS = ("t22", "t24", "t26", "set", "mu1", "mm", "remark_q1")


def _require(cond: bool, failures: list[str], msg: str) -> None:
    if not cond:
        failures.append(msg)


def _check_hypotheses(theorem_id: str, f: FunctionSpec, bp: BoundParams) -> None:
    failures: list[str] = []
    _require(abs(f.M - bp.M) <= 1e-15, failures, f"f.M={f.M:g} differs from bp.M={bp.M:g}")
    _require(f.decreasing_abs_deriv, failures, "|f'| not declared decreasing")
    _require(bp.frac.b >= 1.0, failures, "b >= 1 required")

    if theorem_id == "t22":
        _require(
            f.has_claim(alpha_m_geom_convex(bp.alpha, bp.m), 1.0),
            failures,
            f"no (alpha={bp.alpha:g}, m={bp.m:g})-geometric claim at q=1",
        )
    elif theorem_id in ("t24", "t26", "mu1", "mm", "remark_q1"):
        _require(bp.M < 1.0, failures, "M < 1 required")
        _require(bp.m < 1.0, failures, "m < 1 required")
        _require(
            f.has_claim(alpha_m_geom_convex(bp.alpha, bp.m), bp.q),
            failures,
            f"no (alpha={bp.alpha:g}, m={bp.m:g})-geometric claim at q={bp.q:g}",
        )
        if theorem_id == "t24":
            _require(bp.q > 1.0, failures, "q > 1 required")
            _require(bp.alpha < 1.0, failures, "alpha < 1 required")
        if theorem_id == "mu1":
            _require(bp.frac.mu == 1.0, failures, "mu = 1 required")
        if theorem_id in ("mm", "remark_q1"):
            _require(bp.u is not None, failures, "u, v required")
            if theorem_id == "remark_q1":
                _require(bp.q == 1.0, failures, "q = 1 required")
    elif theorem_id == "set":
        _require(bp.M < 1.0, failures, "M < 1 required")
        _require(
            f.has_claim(geom_convex(), bp.q),
            failures,
            f"no geometric-convex claim at q={bp.q:g}",
        )
    else:
        raise HypothesisError(f"unknown theorem id {theorem_id!r}")

    if failures:
        raise HypothesisError(f"{theorem_id} on {f.id!r}: " + "; ".join(failures))


_RHS = {
    "t22": lambda bp: bnd.bound_t22(bp),
    "t24": lambda bp: bnd.bound_t24(bp),
    "t26": lambda bp: bnd.bound_t26(bp),
    "set": lambda bp: bnd.bound_set(bp.M, bp.frac),
    "mu1": lambda bp: bnd.bound_mu1(bp),
    "mm": lambda bp: bnd.bound_mm(bp),
    "remark_q1": lambda bp: bnd.bound_remark_q1(bp),
}


def _snapshot(theorem_id: str, f: FunctionSpec, bp: BoundParams) -> dict:
    return {
        "theorem": theorem_id,
        "function": f.id,
        "a": bp.frac.a,
        "b": bp.frac.b,
        "x": bp.frac.x,
        "mu": bp.frac.mu,
        "alpha": bp.alpha,
        "m": bp.m,
        "M": bp.M,
        "q": bp.q,
        "u": bp.u,
        "v": bp.v,
    }


def verify_theorem(
    theorem_id: str,
    f: FunctionSpec,
    bp: BoundParams,
    cfg: QuadConfig = DEFAULT_QUAD,
    lhs: Optional[float] = None,
) -> Verdict:
    """One inequality instance.  `lhs` may be supplied by sweep drivers that
    cache it across theorems sharing (f, x, mu)."""
    _check_hypotheses(theorem_id, f, bp)
    return _verdict(theorem_id, f, bp, cfg, lhs)


def _verdict(
    theorem_id: str,
    f: FunctionSpec,
    bp: BoundParams,
    cfg: QuadConfig,
    lhs: Optional[float],
) -> Verdict:
    """The verdict of an instance whose hypotheses the caller has checked."""
    if lhs is None:
        lhs = ostrowski_lhs(f, bp.frac, cfg)
    rhs = _RHS[theorem_id](bp)
    tol_margin = 100.0 * cfg.abs_tol
    margin = rhs - lhs
    return Verdict(
        theorem_id=theorem_id,
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        holds=margin >= -tol_margin,
        params=_snapshot(theorem_id, f, bp),
        tol_margin=tol_margin,
    )


def verify_classical(
    f: FunctionSpec, a: float, b: float, x: float, cfg: QuadConfig = DEFAULT_QUAD
) -> Verdict:
    """Classical point-vs-mean estimate with the 1/4 constant."""
    lo, hi = f.domain
    if a < lo - 1e-12 or b > hi + 1e-12:
        raise DomainError(f"[{a}, {b}] outside domain of {f.id!r}")
    mean = adaptive_gauss(f.f, a, b, cfg) / (b - a)
    lhs = abs(float(f.f(x)) - mean)
    rhs = bnd.bound_classical(f.M, a, b, x)
    tol_margin = 100.0 * cfg.abs_tol
    margin = rhs - lhs
    return Verdict(
        theorem_id="classical",
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        holds=margin >= -tol_margin,
        params={
            "theorem": "classical",
            "function": f.id,
            "a": a,
            "b": b,
            "x": x,
            "mu": 1.0,
            "alpha": None,
            "m": None,
            "M": f.M,
            "q": None,
            "u": None,
            "v": None,
        },
        tol_margin=tol_margin,
    )
