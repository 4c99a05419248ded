"""Registry of closed-form test functions with analytic derivatives.

Every hypothesis flag on a FunctionSpec is machine-checked by `audit`:
declared derivative bound, derivative correctness by finite differences,
every claimed convexity-class membership, and monotonicity of |f'|.  The
registry construction fails loudly if any builtin entry does not audit clean.

The two nontrivial members were found by brute-force search over the decay
families below, keeping parameters whose |f'|^q passes the membership grid
for every (alpha, m, q) used by the default sweep.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .convexity import (
    DEFAULT_GRID,
    ConvexityKind,
    GridSpec,
    alpha_m_geom_convex,
    check_membership,
    geom_convex,
)
from .fracint import DomainError

# Parameter values the default sweep exercises; claims cover this grid.
CLAIM_ALPHAS = (0.25, 0.5, 0.75, 1.0)
CLAIM_MS = (0.25, 0.5, 0.75)
CLAIM_QS = (1.0, 1.5, 2.0, 3.0)


class CorpusError(RuntimeError):
    """A builtin function spec failed its own audit."""


@dataclass(frozen=True)
class FunctionSpec:
    id: str
    f: Callable
    fprime: Callable
    domain: tuple[float, float]
    M: float
    claims: tuple[tuple[ConvexityKind, float], ...]
    decreasing_abs_deriv: bool

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

    def has_claim(self, kind: ConvexityKind, q: float, tol: float = 1e-12) -> bool:
        for ck, cq in self.claims:
            if ck.kind is not kind.kind or abs(cq - q) > tol:
                continue
            ca, cm = ck.effective()
            ka, km = kind.effective()
            if abs(ca - ka) <= tol and abs(cm - km) <= tol:
                return True
        return False


def _default_claims(geometric: bool = True) -> tuple[tuple[ConvexityKind, float], ...]:
    claims: list[tuple[ConvexityKind, float]] = []
    for a in CLAIM_ALPHAS:
        for m in CLAIM_MS:
            for q in CLAIM_QS:
                claims.append((alpha_m_geom_convex(a, m), q))
    if geometric:
        for q in CLAIM_QS:
            claims.append((geom_convex(), q))
    return tuple(claims)


def audit(spec: FunctionSpec, grid: GridSpec = DEFAULT_GRID) -> list[str]:
    """Run all FunctionSpec invariants; return the violated ones (empty = pass)."""
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

    for kind, q in spec.claims:
        def gq(u, q=q):
            return np.abs(np.asarray(spec.fprime(u), dtype=float)) ** q

        try:
            ce = check_membership(gq, spec.domain, kind, grid, g_domain=spec.domain)
        except DomainError as exc:
            violations.append(f"claim {kind.describe()} q={q:g}: {exc}")
            continue
        if ce is not None:
            violations.append(
                f"claim {kind.describe()} q={q:g} violated at "
                f"x={ce.x:.17g} y={ce.y:.17g} t={ce.t:.17g} "
                f"(lhs {ce.lhs:.17g} > rhs {ce.rhs:.17g})"
            )

    if spec.decreasing_abs_deriv:
        if np.any(np.diff(absd) > 1e-12):
            violations.append("|f'| is not non-increasing on the grid")

    return violations


# ---------------------------------------------------------------------------
# Parametric families (also registrable from the CLI config by name).

def affine_spec(
    id: str,
    slope: float,
    intercept: float,
    lo: float,
    hi: float,
    declared_M: Optional[float] = None,
    geometric_claims: bool = True,
) -> FunctionSpec:
    """f(x) = slope*x + intercept; |f'| is the constant |slope|."""
    M = abs(slope) if declared_M is None else declared_M
    claims = _default_claims(geometric_claims) if slope != 0 else ()
    return FunctionSpec(
        id=id,
        f=lambda u: slope * np.asarray(u, dtype=float) + intercept,
        fprime=lambda u: slope * np.ones_like(np.asarray(u, dtype=float)),
        domain=(lo, hi),
        M=M,
        claims=claims,
        decreasing_abs_deriv=True,
    )


def constant_spec(id: str, value: float, lo: float, hi: float) -> FunctionSpec:
    """f constant; |f'| = 0, so no geometric claims (g must be positive)."""
    return FunctionSpec(
        id=id,
        f=lambda u: value * np.ones_like(np.asarray(u, dtype=float)),
        fprime=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
        domain=(lo, hi),
        M=1e-3,
        claims=(),
        decreasing_abs_deriv=True,
    )


def power_decay_spec(
    id: str,
    M: float,
    r: float,
    lo: float,
    hi: float,
    offset: float = 0.1,
    declared_M: Optional[float] = None,
    geometric_claims: bool = True,
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

    return FunctionSpec(
        id=id,
        f=f,
        fprime=fprime,
        domain=(lo, hi),
        M=M if declared_M is None else declared_M,
        claims=_default_claims(geometric_claims),
        decreasing_abs_deriv=True,
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

    Not geometrically convex (m = 1 fails by AM-GM), so only (alpha, m)
    claims with m < 1 are attached.
    """

    def f(u):
        u = np.asarray(u, dtype=float)
        return offset - (M / lam) * np.exp(-lam * (u - lo))

    def fprime(u):
        u = np.asarray(u, dtype=float)
        return M * np.exp(-lam * (u - lo))

    return FunctionSpec(
        id=id,
        f=f,
        fprime=fprime,
        domain=(lo, hi),
        M=M if declared_M is None else declared_M,
        claims=_default_claims(geometric=False),
        decreasing_abs_deriv=True,
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
    """The validated builtin registry; raises CorpusError if any audit fails.

    Audited once per process: the specs are frozen, so callers share them.
    """
    specs = (
        affine_spec("linear", slope=1.0, intercept=0.0, lo=0.0, hi=3.0),
        affine_spec("affine08", slope=0.8, intercept=0.1, lo=1.0, hi=2.0),
        constant_spec("const1", value=1.0, lo=0.0, hi=2.0),
        constant_spec("const2", value=2.0, lo=0.0, hi=2.0),
        # Search-selected decay members (see module docstring).
        power_decay_spec("powdecay", M=0.5, r=0.04, lo=1.0, hi=2.0),
        exp_decay_spec("expdecay", M=0.5, lam=0.02, lo=1.0, hi=2.0),
    )
    for spec in specs:
        violations = audit(spec)
        if violations:
            raise CorpusError(
                f"builtin spec {spec.id!r} failed audit: " + "; ".join(violations)
            )
    return specs


def corpus_by_id() -> dict[str, FunctionSpec]:
    return {s.id: s for s in builtin_corpus()}
