"""Command-line driver.

Subcommands: frac-int, check-convexity, verify, sweep, corpus-audit.
Exit codes: 0 all checks hold, 1 at least one violation or counterexample,
2 usage or domain error, or a requested sweep theorem that no corpus
function meets the hypotheses of.  Numbers print with 17 significant
digits so reports round-trip.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .bounds import BoundParams
from .convexity import GridSpec, check_membership
from .corpus import builtin_audits, corpus_by_id
from .fracint import ConvergenceError, DomainError, FracParams, rl_lower, rl_upper
from .report import (
    ConfigError,
    SweepConfig,
    all_hold,
    parse_config,
    render_report,
    run_sweep,
)
from .verify import THEOREM_IDS, HypothesisError, verify_classical, verify_theorem


def _g(v: float) -> str:
    return f"{v:.17g}"


def _corpus_lookup(fid: str):
    by_id = corpus_by_id()
    if fid not in by_id:
        raise DomainError(f"unknown function id {fid!r}; known: {sorted(by_id)}")
    return by_id[fid]


def _cmd_frac_int(args) -> int:
    f = _corpus_lookup(args.f)
    a = f.domain[0] if args.a is None else args.a
    b = f.domain[1] if args.b is None else args.b
    if args.upper:
        f.require_within(args.x, b)
        value = rl_upper(f, args.x, b, args.mu)
    else:
        f.require_within(a, args.x)
        value = rl_lower(f, a, args.x, args.mu)
    print(_g(value))
    return 0


def _cmd_check_convexity(args) -> int:
    f = _corpus_lookup(args.f)
    import numpy as np

    grid = GridSpec(points_per_axis=args.points, t_steps=args.t_steps)

    def g(u):
        return np.abs(np.asarray(f.fprime(u), dtype=float)) ** args.q

    ce = check_membership(g, f.domain, args.alpha, args.m, grid, g_domain=f.domain)
    if ce is None:
        print("pass")
        return 0
    print(
        f"counterexample x={_g(ce.x)} y={_g(ce.y)} t={_g(ce.t)} "
        f"lhs={_g(ce.lhs)} rhs={_g(ce.rhs)}"
    )
    return 1


def _cmd_verify(args) -> int:
    f = _corpus_lookup(args.f)
    a = f.domain[0] if args.a is None else args.a
    b = f.domain[1] if args.b is None else args.b
    if args.theorem == "classical":
        v = verify_classical(f, a, b, args.x)
    else:
        frac = FracParams(a, b, args.x, args.mu)
        bp = BoundParams(
            frac=frac,
            M=f.M,
            alpha=args.alpha,
            m=args.m,
            q=args.q,
            u=args.u,
            v=None if args.u is None else 1.0 - args.u,
        )
        v = verify_theorem(args.theorem, f, bp)
    status = "pass" if v.holds else "FAIL"
    print(
        f"{v.theorem_id}: {status} lhs={_g(v.lhs)} rhs={_g(v.rhs)} "
        f"margin={_g(v.margin)}"
    )
    return 0 if v.holds else 1


def _cmd_sweep(args) -> int:
    if args.config:
        cfg = parse_config(Path(args.config).read_text())
    else:
        cfg = SweepConfig()
    if args.output:
        import dataclasses

        cfg = dataclasses.replace(cfg, output=args.output)
    report = run_sweep(cfg)
    text = render_report(report, cfg.out_format)
    if cfg.output:
        Path(cfg.output).write_text(text)
        print(f"report written to {cfg.output}")
    else:
        sys.stdout.write(text)
    for theorem, s in report["summary"].items():
        print(
            f"{theorem}: {s['pass']} pass, {s['fail']} fail, "
            f"worst margin {_g(s['worst_margin'])}",
            file=sys.stderr,
        )
    # A requested theorem with no verdict was checked nowhere: that must not
    # pass vacuously.
    unmet = [t for t in dict.fromkeys(cfg.theorems) if t not in report["summary"]]
    for theorem in unmet:
        print(
            f"error: {theorem}: no corpus function met its hypotheses "
            "at the requested parameters",
            file=sys.stderr,
        )
    if unmet:
        return 2
    return 0 if all_hold(report) else 1


def _cmd_corpus_audit(args) -> int:
    bad = 0
    for spec, violations in builtin_audits():
        if violations:
            bad += 1
            print(f"{spec.id}: FAIL")
            for v in violations:
                print(f"  - {v}")
        else:
            print(f"{spec.id}: pass")
    return 1 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ostrowski-frac",
        description="Numerical verification of fractional Ostrowski-type bounds.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("frac-int", help="evaluate one Riemann-Liouville integral")
    p.add_argument("--f", required=True, help="corpus function id")
    p.add_argument("--a", type=float, default=None, help="default: f's domain start")
    p.add_argument("--b", type=float, default=None, help="default: f's domain end")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--upper", action="store_true", help="right-sided integral")
    p.set_defaults(func=_cmd_frac_int)

    p = sub.add_parser(
        "check-convexity",
        help="grid check that |f'|^q is (alpha, m)-geometrically convex",
    )
    p.add_argument("--f", required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--points", type=int, default=21)
    p.add_argument("--t-steps", type=int, default=21)
    p.set_defaults(func=_cmd_check_convexity)

    p = sub.add_parser("verify", help="verify one inequality instance")
    p.add_argument(
        "--theorem", required=True, choices=list(THEOREM_IDS) + ["classical"]
    )
    p.add_argument("--f", required=True)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--u", type=float, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="run the verdict sweep and write a report")
    p.add_argument("--config", default=None, help="flat key-value config file")
    p.add_argument("--output", default=None, help="override output path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("corpus-audit", help="audit every builtin function spec")
    p.set_defaults(func=_cmd_corpus_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, HypothesisError, ConfigError, ConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
