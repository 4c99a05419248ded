"""Sweep configuration, deterministic execution, and report serialization.

The sweep grid is fully deterministic: verdicts are emitted in nested loop
order (function, theorem, x-fraction, mu, alpha, m, q, u), so identical
configurations produce byte-identical reports modulo the version string.
x is specified as a fraction of [a, b] so one grid serves every corpus
domain.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
from dataclasses import dataclass, field
from typing import Optional

from . import __version__
from .bounds import BoundParams
from .corpus import FunctionSpec, audit, corpus_by_id, spec_from_family
from .fracint import ConvergenceError, DomainError, FracParams, QuadConfig
from .verify import (
    THEOREM_IDS,
    THEOREMS,
    HypothesisError,
    Verdict,
    _check_hypotheses,
    _verdict,
    ostrowski_signed,
    ostrowski_signed_many,
)


class ConfigError(ValueError):
    """Malformed sweep configuration."""


DEFAULT_X_FRACS = (0.05, 0.15, 0.25, 0.35, 0.5, 0.65, 0.75, 0.85, 0.95)
DEFAULT_MUS = (0.5, 1.0, 1.5, 2.5)
DEFAULT_ALPHAS = (0.25, 0.5, 0.75, 1.0)
DEFAULT_MS = (0.25, 0.5, 0.75)
DEFAULT_QS = (1.0, 1.5, 2.0, 3.0)
DEFAULT_US = (0.5,)


@dataclass(frozen=True)
class SweepConfig:
    functions: tuple[str, ...] = ()  # empty = whole corpus
    theorems: tuple[str, ...] = THEOREM_IDS
    x_fracs: tuple[float, ...] = DEFAULT_X_FRACS
    mus: tuple[float, ...] = DEFAULT_MUS
    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    ms: tuple[float, ...] = DEFAULT_MS
    qs: tuple[float, ...] = DEFAULT_QS
    us: tuple[float, ...] = DEFAULT_US
    quad: QuadConfig = field(default_factory=QuadConfig)
    out_format: str = "json"
    seed: int = 0
    output: Optional[str] = None
    audit_extra: bool = True
    # (family, id, params) triples for additional corpus members.
    extra_functions: tuple[tuple[str, str, tuple[tuple[str, float], ...]], ...] = ()

    def __post_init__(self) -> None:
        for name in ("theorems", "x_fracs", "mus", "alphas", "ms", "qs", "us"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must be non-empty")
        for t in self.theorems:
            if t not in THEOREM_IDS:
                raise ConfigError(f"unknown theorem id {t!r}; known: {THEOREM_IDS}")
        if self.out_format not in ("json", "csv"):
            raise ConfigError("format must be json or csv")

    def canonical_text(self) -> str:
        lines = [
            f"functions = {','.join(self.functions)}",
            f"theorems = {','.join(self.theorems)}",
            f"x_fracs = {','.join(repr(v) for v in self.x_fracs)}",
            f"mu = {','.join(repr(v) for v in self.mus)}",
            f"alpha = {','.join(repr(v) for v in self.alphas)}",
            f"m = {','.join(repr(v) for v in self.ms)}",
            f"q = {','.join(repr(v) for v in self.qs)}",
            f"u = {','.join(repr(v) for v in self.us)}",
            f"abs_tol = {self.quad.abs_tol!r}",
            f"rel_tol = {self.quad.rel_tol!r}",
            f"base_nodes = {self.quad.base_nodes}",
            f"max_subdivisions = {self.quad.max_subdivisions}",
            f"format = {self.out_format}",
            f"seed = {self.seed}",
            f"audit = {str(self.audit_extra).lower()}",
        ]
        for family, fid, params in self.extra_functions:
            kv = " ".join(f"{k}={v!r}" for k, v in params)
            lines.append(f"function.{fid} = {family} {kv}")
        return "\n".join(lines) + "\n"

    def fingerprint(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def _parse_floats(value: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in value.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"bad numeric list {value!r}: {exc}") from None


def parse_config(text: str) -> SweepConfig:
    """Flat key-value format, one `key = value` per line; # starts a comment."""
    kv: dict[str, str] = {}
    extra: list[tuple[str, str, tuple[tuple[str, float], ...]]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key.startswith("function."):
            fid = key[len("function."):]
            parts = value.split()
            if not parts:
                raise ConfigError(f"empty family spec for {fid!r}")
            family = parts[0]
            params = []
            for p in parts[1:]:
                if "=" not in p:
                    raise ConfigError(f"bad parameter {p!r} in {key!r}")
                pk, pv = p.split("=", 1)
                try:
                    params.append((pk, float(pv)))
                except ValueError:
                    raise ConfigError(f"non-numeric parameter {p!r}") from None
            extra.append((family, fid, tuple(params)))
        else:
            kv[key] = value

    defaults = SweepConfig()
    quad = QuadConfig(
        abs_tol=float(kv.pop("abs_tol", defaults.quad.abs_tol)),
        rel_tol=float(kv.pop("rel_tol", defaults.quad.rel_tol)),
        max_subdivisions=int(kv.pop("max_subdivisions", defaults.quad.max_subdivisions)),
        base_nodes=int(kv.pop("base_nodes", defaults.quad.base_nodes)),
    )

    def tup(key, default):
        return _parse_floats(kv.pop(key)) if key in kv else default

    cfg = SweepConfig(
        functions=tuple(
            s.strip() for s in kv.pop("functions", "").split(",") if s.strip()
        ),
        theorems=tuple(
            s.strip() for s in kv.pop("theorems", ",".join(THEOREM_IDS)).split(",")
            if s.strip()
        ),
        x_fracs=tup("x_fracs", defaults.x_fracs),
        mus=tup("mu", defaults.mus),
        alphas=tup("alpha", defaults.alphas),
        ms=tup("m", defaults.ms),
        qs=tup("q", defaults.qs),
        us=tup("u", defaults.us),
        quad=quad,
        out_format=kv.pop("format", "json"),
        seed=int(kv.pop("seed", 0)),
        output=kv.pop("output", None),
        audit_extra=kv.pop("audit", "true").lower() in ("1", "true", "yes"),
        extra_functions=tuple(extra),
    )
    if kv:
        raise ConfigError(f"unknown config keys: {sorted(kv)}")
    return cfg


def resolve_corpus(cfg: SweepConfig) -> list[FunctionSpec]:
    by_id = corpus_by_id()
    for family, fid, params in cfg.extra_functions:
        spec = spec_from_family(family, fid, **dict(params))
        if cfg.audit_extra:
            violations = audit(spec)
            if violations:
                raise ConfigError(
                    f"extra function {fid!r} failed audit: " + "; ".join(violations)
                )
        by_id[spec.id] = spec
    if not cfg.functions:
        return list(by_id.values())
    missing = [f for f in cfg.functions if f not in by_id]
    if missing:
        raise ConfigError(f"unknown function ids: {missing}")
    return [by_id[f] for f in cfg.functions]


def _grid_for(theorem: str, cfg: SweepConfig):
    """Deterministic (mu, alpha, m, q, u) tuples applicable to one theorem:
    the product of the configured values its record admits."""
    record = THEOREMS[theorem]
    axes = (("mu", cfg.mus), ("alpha", cfg.alphas), ("m", cfg.ms), ("q", cfg.qs), ("u", cfg.us))
    return itertools.product(*(record.admitted(name, values) for name, values in axes))


def _instances(f: FunctionSpec, cfg: SweepConfig):
    """(theorem, bp) of every verdict the sweep emits for f, in sweep order.

    Whether a point applies is looked up per (theorem, mu, alpha, m, q, u):
    `_check_hypotheses` reads f, b and those parameters but never x, and
    `BoundParams` validates them but never its `frac`, so one check per
    point serves every x, and a point whose `BoundParams` is rejected is
    not built again.  One `FracParams` is shared per (x-fraction, mu) and
    still built before the lookup, so an invalid (x, mu) raises at its
    first use in sweep order.
    """
    a, b = f.domain
    applies: dict[tuple, bool] = {}
    fracs: dict[tuple[int, float], FracParams] = {}
    for theorem in cfg.theorems:
        for i, frac_x in enumerate(cfg.x_fracs):
            x = a + frac_x * (b - a)
            for mu, alpha, m, q, u in _grid_for(theorem, cfg):
                frac = fracs.get((i, mu))
                if frac is None:
                    frac = fracs[i, mu] = FracParams(a, b, x, mu)
                key = (theorem, mu, alpha, m, q, u)
                if applies.get(key) is False:
                    continue
                try:
                    bp = BoundParams(
                        frac=frac,
                        M=f.M,
                        alpha=alpha,
                        m=m,
                        q=q,
                        u=u,
                        v=None if u is None else 1.0 - u,
                    )
                except DomainError:
                    applies[key] = False
                    continue
                if key not in applies:
                    try:
                        _check_hypotheses(theorem, f, bp)
                        applies[key] = True
                    except HypothesisError:
                        applies[key] = False
                if applies[key]:
                    yield theorem, bp


def _lhs_by_key(f: FunctionSpec, fracs: list[FracParams], quad: QuadConfig) -> dict:
    """|signed LHS| per distinct (x, mu), one quadrature batch per mu.

    A batch that fails is redone one instance at a time, so that each
    instance maps to its own value or its own ConvergenceError.
    """
    batches: dict[float, dict[float, FracParams]] = {}
    for frac in fracs:
        batches.setdefault(frac.mu, {}).setdefault(frac.x, frac)
    lhs = {}
    for mu, by_x in batches.items():
        group = list(by_x.values())
        try:
            values = ostrowski_signed_many(f, group, quad)
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


def run_sweep(cfg: SweepConfig) -> dict:
    """Execute the sweep; returns the report as a plain dict.

    Per function, the applicable instances are listed first, their LHS
    values computed in one batch per mu, and the verdicts emitted in sweep
    order.  Errors surface in sweep order too: a DomainError while listing
    is raised after the verdicts before it, a failed LHS at its first use.
    """
    specs = resolve_corpus(cfg)
    verdicts: list[Verdict] = []

    for f in specs:
        todo: list[tuple[str, BoundParams]] = []
        stop: Optional[DomainError] = None
        try:
            for item in _instances(f, cfg):
                todo.append(item)
        except DomainError as exc:
            stop = exc
        lhs = _lhs_by_key(f, [bp.frac for _, bp in todo], cfg.quad)
        for theorem, bp in todo:
            value = lhs[bp.frac.x, bp.frac.mu]
            if isinstance(value, ConvergenceError):
                raise value
            verdicts.append(_verdict(theorem, f, bp, cfg.quad, value))
        if stop is not None:
            raise stop

    summary: dict[str, dict] = {}
    for v in verdicts:
        s = summary.setdefault(
            v.theorem_id, {"pass": 0, "fail": 0, "worst_margin": None}
        )
        s["pass" if v.holds else "fail"] += 1
        if s["worst_margin"] is None or v.margin < s["worst_margin"]:
            s["worst_margin"] = v.margin

    return {
        "config_fingerprint": cfg.fingerprint(),
        "version": __version__,
        "summary": summary,
        "verdicts": [
            # params repeats "theorem" with the same value, so the key stays first.
            {
                "theorem": v.theorem_id,
                "lhs": v.lhs,
                "rhs": v.rhs,
                "margin": v.margin,
                "holds": v.holds,
                "tol_margin": v.tol_margin,
                **v.params,
            }
            for v in verdicts
        ],
    }


_CSV_FIELDS = (
    "theorem", "function", "a", "b", "x", "mu", "alpha", "m", "M", "q", "u", "v",
    "lhs", "rhs", "margin", "holds", "tol_margin",
)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def render_report(report: dict, out_format: str) -> str:
    """The report as text.  JSON is `json.dumps(report, indent=2) + "\\n"`
    byte for byte.

    With `indent` set, json falls back to its pure-Python encoder, so only
    the head is rendered that way; the verdicts, the report's last key, go
    through the C encoder with the separator carrying the newline and the
    record indent.  Verdict records are flat (str, float, bool, None) and
    json escapes newlines inside strings, so `},\\n      {` occurs only
    between records, where the item brackets are spliced in.
    """
    if out_format == "json":
        head = json.dumps({k: v for k, v in report.items() if k != "verdicts"}, indent=2)
        body = json.dumps(report["verdicts"], separators=(",\n      ", ": "))
        if body != "[]":
            records = body[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
            body = "[\n    {\n      " + records + "\n    }\n  ]"
        return head[:-2] + ',\n  "verdicts": ' + body + "\n}\n"
    buf = io.StringIO()
    buf.write(",".join(_CSV_FIELDS) + "\n")
    for v in report["verdicts"]:
        buf.write(",".join(_fmt(v.get(k)) for k in _CSV_FIELDS) + "\n")
    return buf.getvalue()


def all_hold(report: dict) -> bool:
    return all(v["holds"] for v in report["verdicts"])
