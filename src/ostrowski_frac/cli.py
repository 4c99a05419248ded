"""Command-line driver.

Subcommands: frac-int, check-convexity, verify, sweep.
Exit codes: 0 all checks hold, 1 at least one violation or a convexity
claim its certificate rejects, 2 usage or domain error, or a requested
sweep theorem that no corpus function meets the hypotheses of.  Numbers
print with 17 significant digits so reports round-trip.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import __version__, corpus
from .bounds import BoundParams
from .fracint import ConvergenceError, DomainError, FracParams, rl_lower, rl_upper
from .report import (
    ConfigError,
    SweepConfig,
    parse_config,
    report_chunks,
    run_sweep,
)
from .verify import THEOREM_IDS, HypothesisError, verify_classical, verify_theorem


def _g(v: float) -> str:
    return f"{v:.17g}"


def _corpus_lookup(fid: str):
    by_id = corpus.corpus_by_id()
    if fid not in by_id:
        raise DomainError(f"unknown function id {fid!r}; known: {sorted(by_id)}")
    return by_id[fid]


def _cmd_frac_int(args) -> int:
    f = _corpus_lookup(args.f)
    # The left-sided integral reads --a only, the right-sided one --b only.
    if args.upper and args.a is not None:
        raise DomainError("frac-int --upper: --a not used")
    if not args.upper and args.b is not None:
        raise DomainError("frac-int without --upper: --b not used")
    if args.upper:
        b = f.domain[1] if args.b is None else args.b
        f.require_within(args.x, b)
        value = rl_upper(f, args.x, b, args.mu)
    else:
        a = f.domain[0] if args.a is None else args.a
        f.require_within(a, args.x)
        value = rl_lower(f, a, args.x, args.mu)
    print(_g(value))
    return 0


def _cmd_check_convexity(args) -> int:
    """The answer is f's certificate alone (`FunctionSpec.certify`, for
    every q > 0).  A rejection prints the certificate's witness with g at
    it, or its reason when it names no witness."""
    f = _corpus_lookup(args.f)
    alpha, m, q = args.alpha, args.m, args.q
    BoundParams(1.0, alpha, m)  # states the range of alpha and m
    # Here q need only be finite and > 0, not >= 1 as in a bound.
    if not 0.0 < q < math.inf:
        raise DomainError("q must be finite and > 0")
    reason = f.certify(alpha, m)
    if reason is None:
        print("pass")
    elif isinstance(reason, str):
        print(f"FAIL: not a member by its certificate; {reason}")
    else:
        x, y, t = reason
        s = t**alpha
        gx, gy, lhs = (abs(float(v)) ** q for v in f.fprime([x, y, x**t * y ** (m * (1.0 - t))]))
        rhs = gx**s * gy ** (m * (1.0 - s))
        print(f"counterexample x={_g(x)} y={_g(y)} t={_g(t)} lhs={_g(lhs)} rhs={_g(rhs)}")
    return 0 if reason is None else 1


def _cmd_verify(args) -> int:
    f = _corpus_lookup(args.f)
    a = f.domain[0] if args.a is None else args.a
    b = f.domain[1] if args.b is None else args.b
    given = {name: getattr(args, name) for name in ("mu", "alpha", "m", "q", "u")}
    if args.theorem == "classical":
        # The classical estimate has no fractional parameter to read.
        unused = [f"--{name}" for name, value in given.items() if value is not None]
        if unused:
            raise HypothesisError(f"classical on {f.id!r}: {', '.join(unused)} not used")
        v = verify_classical(f, a, b, args.x)
    else:
        mu, alpha, m, q = (1.0 if given[name] is None else given[name]
                           for name in ("mu", "alpha", "m", "q"))
        # FracParams first, so that its fault is the one named.
        frac = FracParams(a, b, args.x, mu)
        v = verify_theorem(args.theorem, f, frac, BoundParams(f.M, alpha, m, q, args.u))
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
    output = args.output or cfg.output
    report = run_sweep(cfg)
    # One (group, x) row at a time, so neither the whole text nor its
    # encoded copy is ever held; the file is opened only now, so a sweep
    # that raises leaves it untouched.
    chunks = report_chunks(report, cfg.out_format)
    if output:
        with Path(output).open("w") as out:
            out.writelines(chunks)
        print(f"report written to {output}")
    else:
        sys.stdout.writelines(chunks)
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
    return 0 if all(s["fail"] == 0 for s in report["summary"].values()) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ostrowski-frac",
        description="Numerical verification of fractional Ostrowski-type bounds.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("frac-int", help="evaluate one Riemann-Liouville integral")
    p.add_argument("--f", required=True, help="corpus function id")
    p.add_argument("--a", type=float, default=None,
                   help="without --upper only; default: f's domain start")
    p.add_argument("--b", type=float, default=None,
                   help="with --upper only; default: f's domain end")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--upper", action="store_true", help="right-sided integral")
    p.set_defaults(func=_cmd_frac_int)

    p = sub.add_parser(
        "check-convexity",
        help="whether |f'|^q is (alpha, m)-geometrically convex, with a witness",
    )
    p.add_argument("--f", required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--q", type=float, default=1.0)
    p.set_defaults(func=_cmd_check_convexity)

    p = sub.add_parser("verify", help="verify one inequality instance")
    p.add_argument(
        "--theorem", required=True, choices=list(THEOREM_IDS) + ["classical"]
    )
    p.add_argument("--f", required=True)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--x", type=float, required=True)
    # Read by the fractional theorems only, where all but --u default to 1.
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--m", type=float, default=None)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--u", type=float, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="run the verdict sweep and write a report")
    p.add_argument("--config", default=None, help="flat key-value config file")
    p.add_argument("--output", default=None, help="override output path")
    p.set_defaults(func=_cmd_sweep)

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
