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
import math
from dataclasses import dataclass, field, replace
from typing import Optional

from . import __version__
from .bounds import BoundParams, geometry_factor
from .corpus import FunctionSpec, audit, corpus_by_id, spec_from_family
from .fracint import DomainError, FracParams, QuadConfig
from .verify import (
    THEOREM_IDS,
    THEOREMS,
    HypothesisError,
    _check_hypotheses,
    _judge,
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

# A valid instance to probe configured parameter values with.
_PROBE = FracParams(0.0, 1.0, 0.5, 1.0)


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
        # FracParams alone states the range of x and mu, BoundParams that of
        # alpha, m, q and u: one probe per value, so that no value is dropped
        # from the sweep unreported or fails part-way through it.
        probes = {
            "x_fracs": (self.x_fracs, lambda v: replace(_PROBE, x=v)),
            "mu": (self.mus, lambda v: replace(_PROBE, mu=v)),
            "alpha": (self.alphas, lambda v: BoundParams(_PROBE, 1.0, alpha=v)),
            "m": (self.ms, lambda v: BoundParams(_PROBE, 1.0, m=v)),
            "q": (self.qs, lambda v: BoundParams(_PROBE, 1.0, q=v)),
            "u": (self.us, lambda v: BoundParams(_PROBE, 1.0, u=v, v=1.0 - v)),
        }
        for key, (values, probe) in probes.items():
            for value in values:
                try:
                    probe(value)
                except DomainError as exc:
                    raise ConfigError(f"{key} = {value!r}: {exc}") from None

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


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_bool(key: str, value: str) -> bool:
    try:
        return _BOOLEANS[value.lower()]
    except KeyError:
        raise ConfigError(
            f"{key} must be one of {', '.join(_BOOLEANS)} (any case), got {value!r}"
        ) from None


def parse_config(text: str) -> SweepConfig:
    """Flat key-value format, one `key = value` per line and each key at most
    once; # starts a comment."""
    kv: dict[str, str] = {}
    extra: list[tuple[str, str, tuple[tuple[str, float], ...]]] = []
    seen: set[str] = set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key in seen:
            raise ConfigError(f"repeated config key {key!r}")
        seen.add(key)
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

    def number(key, kind):
        if key not in kv:
            return getattr(defaults.quad, key)
        value = kv.pop(key)
        try:
            return kind(value)
        except ValueError:
            raise ConfigError(f"{key} must be {kind.__name__}, got {value!r}") from None

    quad = QuadConfig(
        abs_tol=number("abs_tol", float),
        rel_tol=number("rel_tol", float),
        max_subdivisions=number("max_subdivisions", int),
        base_nodes=number("base_nodes", int),
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
        output=kv.pop("output", None),
        audit_extra=_parse_bool("audit", kv.pop("audit", "true")),
        extra_functions=tuple(extra),
    )
    if kv:
        raise ConfigError(f"unknown config keys: {sorted(kv)}")
    return cfg


def resolve_corpus(cfg: SweepConfig) -> list[FunctionSpec]:
    by_id = corpus_by_id()
    for family, fid, params in cfg.extra_functions:
        if fid in by_id:
            raise ConfigError(f"extra function id {fid!r} is already in the corpus")
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


def _points(theorem: str, f: FunctionSpec, cfg: SweepConfig) -> list[tuple[float, list]]:
    """The points of a theorem's grid whose hypotheses hold on f, in grid
    order, as (mu, [(bp, point factor), ...]) per run of points that share
    mu, the grid's slowest axis.  Each distinct point gets one `BoundParams`,
    one `_check_hypotheses` and one point factor; none of them reads x, so a
    run's `BoundParams` share one `FracParams` at x = a.  `SweepConfig` has
    validated every value, and f its M, so only a point factor can raise."""
    a, b = f.domain
    factor = THEOREMS[theorem].factor
    seen: dict[tuple, Optional[tuple[BoundParams, float]]] = {}
    runs = []
    for mu, grid in itertools.groupby(_grid_for(theorem, cfg), key=lambda p: p[0]):
        frac = FracParams(a, b, a, mu)
        points = []
        for point in grid:
            if point not in seen:
                seen[point] = None
                _, alpha, m, q, u = point
                bp = BoundParams(frac, f.M, alpha, m, q, u, None if u is None else 1.0 - u)
                try:
                    _check_hypotheses(theorem, f, bp)
                except HypothesisError:
                    continue
                seen[point] = (bp, factor(bp))
            if seen[point] is not None:
                points.append(seen[point])
        if points:
            runs.append((mu, points))
    return runs


def run_sweep(cfg: SweepConfig) -> dict:
    """Execute the sweep; returns the report as a plain dict.

    Per function, in four steps: list every theorem's points (`_points`);
    build one `FracParams` per (x, mu) in use; compute their LHS values,
    one quadrature batch per mu; emit the verdict records in sweep order.
    Each RHS is `Theorem.rhs`: the point factor, computed once per point,
    times the geometry factor of its (x, mu), computed once per (x, mu).

    Errors come in this order.  `SweepConfig` has rejected every bad
    configured value before the sweep starts.  Then, per function in corpus
    order, a point factor's DomainError is raised while that function's
    points are listed, before any of its quadrature.  Then the first
    ConvergenceError in batch order: mu in order of first appearance, then
    x in `x_fracs` order (`adaptive_gauss_many` raises for its lowest-index
    failing integral).
    """
    records: list[dict] = []
    summary: dict[str, dict] = {}
    for f in resolve_corpus(cfg):
        a, b = f.domain
        xs = [a + frac_x * (b - a) for frac_x in cfg.x_fracs]
        listed = [(theorem, _points(theorem, f, cfg)) for theorem in cfg.theorems]
        mus = dict.fromkeys(mu for _, runs in listed for mu, _ in runs)
        batches = {mu: [FracParams(a, b, x, mu) for x in dict.fromkeys(xs)] for mu in mus}
        at: dict[tuple[float, float], tuple[float, float]] = {}  # (x, mu) -> (lhs, g)
        for mu, fracs in batches.items():
            for frac, signed in zip(fracs, ostrowski_signed_many(f, fracs, cfg.quad)):
                at[frac.x, mu] = abs(signed), geometry_factor(frac)
        for theorem, runs in listed:
            worst = summary[theorem]["worst_margin"] if theorem in summary else None
            start, held = len(records), 0
            for x in xs:
                for mu, points in runs:
                    lhs, g = at[x, mu]
                    for bp, factor in points:
                        rhs = factor * g
                        margin, holds, tol_margin = _judge(lhs, rhs, cfg.quad)
                        held += holds
                        if worst is None or margin < worst:
                            worst = margin
                        records.append({
                            "theorem": theorem,
                            "lhs": lhs,
                            "rhs": rhs,
                            "margin": margin,
                            "holds": holds,
                            "tol_margin": tol_margin,
                            "function": f.id,
                            "a": a,
                            "b": b,
                            "x": x,
                            "mu": mu,
                            "alpha": bp.alpha,
                            "m": bp.m,
                            "M": bp.M,
                            "q": bp.q,
                            "u": bp.u,
                            "v": bp.v,
                        })
            if len(records) > start:
                s = summary.setdefault(theorem, {"pass": 0, "fail": 0, "worst_margin": None})
                s["pass"] += held
                s["fail"] += len(records) - start - held
                s["worst_margin"] = worst

    return {
        "config_fingerprint": cfg.fingerprint(),
        "version": __version__,
        "summary": summary,
        "verdicts": records,
    }


_CSV_FIELDS = (
    "theorem", "function", "a", "b", "x", "mu", "alpha", "m", "M", "q", "u", "v",
    "lhs", "rhs", "margin", "holds", "tol_margin",
)
# Key order of a verdict record, as `run_sweep` builds it.
_VERDICT_KEYS = (
    "theorem", "lhs", "rhs", "margin", "holds", "tol_margin", "function",
    "a", "b", "x", "mu", "alpha", "m", "M", "q", "u", "v",
)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _value_json(v) -> str:
    """v as `json.dumps(report, indent=2)` renders it as a record's value."""
    if type(v) is float and math.isfinite(v):
        return float.__repr__(v)
    if isinstance(v, (dict, list, tuple)):
        return json.dumps(v, indent=2).replace("\n", "\n      ")
    return json.dumps(v)


def _template(keys) -> str:
    return ",\n      ".join(f'"{k}": %s' for k in keys)


# A record is its (theorem, lhs) segment, its new values (rhs to
# tol_margin), its (function, ..., mu) segment and its point segment.
_HEAD, _NEW_VALUES, _TAIL, _POINT = (
    "\n    {\n      " + _template(_VERDICT_KEYS[:2]) + ",\n      ",
    _template(_VERDICT_KEYS[2:6]) + ",\n      ",
    _template(_VERDICT_KEYS[6:11]) + ",\n      ",
    _template(_VERDICT_KEYS[11:]) + "\n    }",
)


def _verdicts_json(verdicts: list[dict]) -> str:
    """The verdict list as `json.dumps(report, indent=2)` renders it.

    Only rhs, margin, holds and tol_margin are new in each record.  The
    other values are objects the sweep shares: theorem and lhs per (x, mu)
    of a theorem, function, a, b, x and mu per (x, mu) of a function, and
    alpha to v per parameter point.  Each group's text, and each value's,
    is rendered once and looked up by the `id`s of its objects, which the
    records keep alive for the call.  An identity key can miss where a value
    key would hit, but it cannot print the wrong text: 0.0 and -0.0, or 1,
    1.0 and True, are equal values with different text.  The records are
    kept as their segments and joined once, so shared text is not copied
    into each record first.
    """
    if not verdicts:
        return "[]"
    heads, tails, points, texts = {}, {}, {}, {}

    def segment(template, values) -> str:
        parts = []
        for v in values:
            text = texts.get(id(v))
            if text is None:
                text = texts[id(v)] = _value_json(v)
            parts.append(text)
        return template % tuple(parts)

    out = []
    for r in verdicts:
        if tuple(r) != _VERDICT_KEYS:
            raise ValueError(f"verdict keys {tuple(r)}, want {_VERDICT_KEYS}")
        (theorem, lhs, rhs, margin, holds, tol_margin,
         function, a, b, x, mu, alpha, m, M, q, u, v) = r.values()
        key = id(theorem), id(lhs)
        head = heads.get(key)
        if head is None:
            head = heads[key] = segment(_HEAD, (theorem, lhs))
        key = id(function), id(a), id(b), id(x), id(mu)
        tail = tails.get(key)
        if tail is None:
            tail = tails[key] = segment(_TAIL, (function, a, b, x, mu))
        key = id(alpha), id(m), id(M), id(q), id(u), id(v)
        point = points.get(key)
        if point is None:
            point = points[key] = segment(_POINT, (alpha, m, M, q, u, v))
        # A finite sum of floats has finite terms, and str(float) is repr.
        if (type(rhs) is type(margin) is type(tol_margin) is float
                and math.isfinite(rhs + margin + tol_margin) and type(holds) is bool):
            new = rhs, margin, "true" if holds else "false", tol_margin
        else:
            new = tuple(map(_value_json, (rhs, margin, holds, tol_margin)))
        out += (",", head, _NEW_VALUES % new, tail, point)
    out[0] = "["  # the first record opens the list, the others follow a ","
    out.append("\n  ]")
    return "".join(out)


def render_report(report: dict, out_format: str) -> str:
    """The report as text.  JSON is `json.dumps(report, indent=2) + "\\n"`
    byte for byte: the head through json, the verdicts, the report's last
    key, through `_verdicts_json`.  A report whose last key is not
    `verdicts`, or whose only key is, raises ValueError."""
    if out_format == "json":
        keys = list(report)
        if len(keys) < 2 or keys[-1] != "verdicts":
            raise ValueError(f"report keys {keys}: want 'verdicts' last, after another key")
        head = json.dumps({k: v for k, v in report.items() if k != "verdicts"}, indent=2)
        verdicts = _verdicts_json(report["verdicts"])
        return "".join((head[:-2], ',\n  "verdicts": ', verdicts, "\n}\n"))
    buf = io.StringIO()
    buf.write(",".join(_CSV_FIELDS) + "\n")
    for v in report["verdicts"]:
        buf.write(",".join(_fmt(v.get(k)) for k in _CSV_FIELDS) + "\n")
    return buf.getvalue()


def all_hold(report: dict) -> bool:
    return all(v["holds"] for v in report["verdicts"])
