"""The per-verdict sweep as it was before the columnar one: a frozen oracle.

`run_sweep` lists every instance with its own `FracParams` and
`BoundParams` and one hypothesis check, from its own per-theorem grid
(`grid`), builds a verdict per instance with the right-hand side written as
one left-associated printed product, then a summary pass and a record per
verdict.  The tests require `report.run_sweep` to return the same report,
record for record; a `set` RHS, which the library groups as
(M / (mu + 1)) * geometry factor, only to within 1e-15 relative.  Only
`report.resolve_corpus` and `verify._check_hypotheses` are shared with the
library, and the tests pin those separately.  `render` writes such a flat
report as text: JSON through json's indented dump, CSV through
`csv.writer`.
"""

import csv
import io
import json
import math

from ostrowski_frac import __version__
from ostrowski_frac import bounds as bnd
from ostrowski_frac.bounds import BoundParams, geometry_factor
from ostrowski_frac.fracint import ConvergenceError, DomainError, FracParams, mexp_integral
from ostrowski_frac.report import resolve_corpus
from ostrowski_frac.verify import (
    HypothesisError,
    _check_hypotheses,
    ostrowski_signed,
    ostrowski_signed_many,
)


def _t24(frac, bp):
    mu, p = frac.mu, bp.p
    mid = bnd._exprel(bp.q * bp.alpha * (1.0 - bp.m) * math.log(bp.M))
    return (
        bp.M**bp.m
        * (1.0 / (p * mu + 1.0)) ** (1.0 / p)
        * mid ** (1.0 / bp.q)
        * geometry_factor(frac)
    )


def _t26(frac, bp):
    mu = frac.mu
    c = bp.M ** (bp.q * bp.alpha * (1.0 - bp.m))
    return (
        bp.M**bp.m
        * (1.0 / (mu + 1.0)) ** (1.0 - 1.0 / bp.q)
        * mexp_integral(c, mu) ** (1.0 / bp.q)
        * geometry_factor(frac)
    )


def _mm(frac, bp):
    mu = frac.mu
    inner = bnd._young_inner(bp, mu, bp.q * bp.alpha * (1.0 - bp.m))
    return (
        bp.M**bp.m
        * (1.0 / (mu + 1.0)) ** (1.0 - 1.0 / bp.q)
        * inner ** (1.0 / bp.q)
        * geometry_factor(frac)
    )


def _set(frac, bp):
    return bp.M * geometry_factor(frac) / (frac.mu + 1.0)


def _mu1(frac, bp):
    if frac.mu != 1.0:
        raise DomainError("mu = 1 required")
    if bp.M >= 1.0:
        raise DomainError("M < 1 required")
    if not 0.0 < bp.m < 1.0:
        raise DomainError("m in (0, 1) required")
    a, b, x = frac.a, frac.b, frac.x
    lc = bp.q * bp.alpha * (1.0 - bp.m) * math.log(bp.M)
    if lc == 0.0:
        raise DomainError("the printed bracket diverges at c = 1")
    bracket = bnd._exprel(lc) * (1.0 - 1.0 / lc)
    return (
        bp.M**bp.m
        * 2.0 ** (1.0 / bp.q)
        * bracket ** (1.0 / bp.q)
        * ((x - a) ** 2 + (b - x) ** 2)
        / (2.0 * (b - a))
    )


# Each RHS as one product, in the order the printed formula multiplies.
RHS = {
    "t22": lambda frac, bp: geometry_factor(frac) * bnd.k_alpha(bp.M, bp.m, bp.alpha, frac.mu),
    "t24": _t24,
    "t26": _t26,
    "set": _set,
    "mu1": _mu1,
    "mm": _mm,
    "remark_q1": _mm,
}


def grid(theorem, cfg):
    """The per-id parameter grid that the theorem registry replaced:
    (mu, alpha, m, q, u) in loop order, each pin replacing the configured
    values and each open box filtering them."""
    mus = (1.0,) if theorem == "mu1" else cfg.mus
    alphas = tuple(a for a in cfg.alphas if a < 1.0) if theorem == "t24" else cfg.alphas
    qs = (1.0,) if theorem == "remark_q1" else (
        tuple(q for q in cfg.qs if q > 1.0) if theorem == "t24" else cfg.qs
    )
    if theorem in ("set",):
        alphas = (1.0,)
        ms_ = (1.0,)
    else:
        ms_ = cfg.ms
    us = cfg.us if theorem in ("mm", "remark_q1") else (None,)
    if theorem == "t22":
        qs = (1.0,)
    for mu in mus:
        for alpha in alphas:
            for m in ms_:
                for q in qs:
                    for u in us:
                        yield mu, alpha, m, q, u


def instances(f, cfg):
    """(theorem, frac, bp) of every verdict, in sweep order: one
    `FracParams`, one `BoundParams` and one hypothesis check per instance."""
    a, b = f.domain
    for theorem in cfg.theorems:
        for frac_x in cfg.x_fracs:
            x = a + frac_x * (b - a)
            for mu, alpha, m, q, u in grid(theorem, cfg):
                frac = FracParams(a, b, x, mu)
                bp = BoundParams(f.M, alpha, m, q, u)
                try:
                    _check_hypotheses(theorem, f, frac.b, frac.mu, bp)
                except HypothesisError:
                    continue
                yield theorem, frac, bp


def _lhs_by_key(f, fracs, quad):
    batches = {}
    for frac in fracs:
        batches.setdefault(frac.mu, {}).setdefault(frac.x, frac)
    lhs = {}
    for mu, by_x in batches.items():
        group = list(by_x.values())
        try:
            (values,) = ostrowski_signed_many(f, *zip(*[(fr.a, fr.b, fr.x) for fr in group]),
                                              (mu,), quad).tolist()
        except ConvergenceError:
            values = []
            for frac in group:
                try:
                    values.append(ostrowski_signed(f, frac, quad))
                except ConvergenceError as exc:
                    values.append(exc)
        for frac, value in zip(group, values):
            lhs[frac.x, mu] = value if isinstance(value, ConvergenceError) else abs(value)
    return lhs


def _verdict(theorem, f, frac, bp, quad, lhs):
    rhs = RHS[theorem](frac, bp)
    tol_margin = 100.0 * quad.abs_tol
    margin = rhs - lhs
    return {
        "theorem": theorem,
        "lhs": lhs,
        "rhs": rhs,
        "margin": margin,
        "holds": margin >= -tol_margin,
        "tol_margin": tol_margin,
        "function": f.id,
        "a": frac.a,
        "b": frac.b,
        "x": frac.x,
        "mu": frac.mu,
        "alpha": bp.alpha,
        "m": bp.m,
        "M": bp.M,
        "q": bp.q,
        "u": bp.u,
        "v": bp.v,
    }


def run_sweep(cfg):
    """The report, with errors raised in sweep order: a DomainError while
    listing after the verdicts before it, a failed LHS at its first use."""
    verdicts = []
    for f in resolve_corpus(cfg):
        todo, stop = [], None
        try:
            for item in instances(f, cfg):
                todo.append(item)
        except DomainError as exc:
            stop = exc
        lhs = _lhs_by_key(f, [frac for _, frac, _ in todo], cfg.quad)
        for theorem, frac, bp in todo:
            value = lhs[frac.x, frac.mu]
            if isinstance(value, ConvergenceError):
                raise value
            verdicts.append(_verdict(theorem, f, frac, bp, cfg.quad, value))
        if stop is not None:
            raise stop

    summary = {}
    for v in verdicts:
        s = summary.setdefault(v["theorem"], {"pass": 0, "fail": 0, "worst_margin": None})
        s["pass" if v["holds"] else "fail"] += 1
        if s["worst_margin"] is None or v["margin"] < s["worst_margin"]:
            s["worst_margin"] = v["margin"]
    return {
        "config_fingerprint": cfg.fingerprint(),
        "version": __version__,
        "summary": summary,
        "verdicts": verdicts,
    }


# A verdict's keys in the order the CSV report's columns list them.
CSV_FIELDS = (
    "theorem", "lhs", "rhs", "margin", "holds", "tol_margin", "function",
    "a", "b", "x", "mu", "alpha", "m", "M", "q", "u", "v",
)


def _csv_value(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return v


def render(report, out_format):
    """A flat report (verdicts as a list of records) as JSON or CSV text."""
    if out_format == "json":
        return json.dumps(report, indent=2) + "\n"
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    writer.writerows([_csv_value(v[k]) for k in CSV_FIELDS] for v in report["verdicts"])
    return out.getvalue()
