"""Sweep configuration, deterministic execution, and report serialization.

The sweep grid is fully deterministic: verdicts are emitted in nested loop
order (function, theorem, x-fraction, mu, alpha, m, q, u), so identical
configurations produce byte-identical reports modulo the version string.
x is specified as a fraction of [a, b] so one grid serves every corpus
domain.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np
import orjson

from . import __version__
from .bounds import BoundParams, geometry_factors
from .corpus import FunctionSpec, corpus_by_id, spec_from_family
from .fracint import DomainError, FracParams, QuadConfig
from .verify import (
    THEOREM_IDS,
    THEOREMS,
    _admitted_grid,
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

# Each list key of the config file and the SweepConfig field it sets, and
# each quadrature key and its type, in canonical-text order.
_LIST_KEYS = {
    "x_fracs": "x_fracs", "mu": "mus", "alpha": "alphas", "m": "ms", "q": "qs", "u": "us",
}
_QUAD_KEYS = {"abs_tol": float, "rel_tol": float, "max_subdivisions": int}

# A valid instance to probe configured values of x and mu with.
_PROBE = FracParams(0.0, 1.0, 0.5, 1.0)


def _probe(key: str, value: float) -> None:
    """Raise DomainError unless `value` is in range for list key `key`.
    FracParams alone states the range of x and mu, BoundParams, whose
    keywords are the other keys, that of alpha, m, q and u."""
    if key == "x_fracs":
        replace(_PROBE, x=value)
    elif key == "mu":
        replace(_PROBE, mu=value)
    else:
        BoundParams(1.0, **{key: value})


def _number(key: str, value, kind: type):
    """value as kind, float or int, if it is a real number, or for int an
    integral one, and not a bool; else ConfigError names key and value."""
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if kind is int else numbers.Real):
        need = "an integer" if kind is int else "a real number"
        raise ConfigError(f"{key} = {value!r}: {need}, not a bool, required")
    try:
        return kind(value)
    except OverflowError as exc:
        raise ConfigError(f"{key} = {value!r}: {exc}") from None


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
    # (family, id, params) triples for additional corpus members.
    extra_functions: tuple[tuple[str, str, tuple[tuple[str, float], ...]], ...] = ()
    # Every corpus member by id: the builtin ones, then the extra ones,
    # which `__post_init__` builds once, and so checks.
    corpus: dict[str, FunctionSpec] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Every sequence is stored as a tuple, so that a config built in
        # code equals its parsed canonical text and is hashable.
        for name in ("functions", "theorems"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        lists = {key: getattr(self, name) for key, name in _LIST_KEYS.items()}
        for key, values in {"theorems": self.theorems, **lists}.items():
            if not values:
                raise ConfigError(f"{key} must be non-empty")
        for t in self.theorems:
            if t not in THEOREM_IDS:
                raise ConfigError(f"unknown theorem id {t!r}; known: {THEOREM_IDS}")
        if self.out_format not in _FORMATS:
            raise ConfigError(f"format must be {' or '.join(_FORMATS)}")
        # A CSV field, a `functions` list and a `function.<id>` line must be
        # able to hold the id, and the canonical text parse back to it.
        for _, fid, _ in self.extra_functions:
            if (not fid or fid != fid.strip() or fid.splitlines() != [fid]
                    or any(c in fid for c in ',"=#')):
                raise ConfigError(
                    f"function id {fid!r} must be non-empty, without ',', '\"', '=', '#', "
                    "a line break or leading or trailing whitespace")
        # Each number is stored as the type its config key parses to, so
        # that the canonical text parses back to the same config.  One probe
        # per value, so that no value is dropped from the sweep unreported
        # or fails part-way through it.
        for key, name in _LIST_KEYS.items():
            values = tuple(_number(key, value, float) for value in lists[key])
            for value in values:
                try:
                    _probe(key, value)
                except DomainError as exc:
                    raise ConfigError(f"{key} = {value!r}: {exc}") from None
            object.__setattr__(self, name, values)
        object.__setattr__(self, "quad", QuadConfig(**{
            key: _number(key, getattr(self.quad, key), kind) for key, kind in _QUAD_KEYS.items()}))
        object.__setattr__(self, "extra_functions", tuple(
            (family, fid, tuple((k, _number(f"function.{fid} {k}", v, float)) for k, v in params))
            for family, fid, params in self.extra_functions))
        # Building a member checks its family and parameters, in the
        # family's own words; every id must then name a member.
        builtin = corpus_by_id()
        corpus = dict(builtin)
        for family, fid, params in self.extra_functions:
            if fid in corpus:
                raise ConfigError(f"extra function id {fid!r} is already in the corpus"
                                  if fid in builtin else f"repeated extra function id {fid!r}")
            named: dict[str, float] = {}
            for k, v in params:
                if k in named:
                    raise ConfigError(f"repeated parameter {k!r} in function {fid!r}")
                named[k] = v
            try:
                corpus[fid] = spec_from_family(family, fid, **named)
            except DomainError as exc:
                raise ConfigError(str(exc)) from None
        missing = [f for f in self.functions if f not in corpus]
        if missing:
            raise ConfigError(f"unknown function ids: {missing}")
        object.__setattr__(self, "corpus", corpus)

    def canonical_text(self) -> str:
        lines = [
            f"functions = {','.join(self.functions)}",
            f"theorems = {','.join(self.theorems)}",
            *(f"{key} = {','.join(repr(v) for v in getattr(self, name))}"
              for key, name in _LIST_KEYS.items()),
            *(f"{key} = {getattr(self.quad, key)!r}" for key in _QUAD_KEYS),
            f"format = {self.out_format}",
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

    def number(key, kind):
        text = kv.pop(key)
        try:
            value = kind(text)
        except ValueError:
            raise ConfigError(f"{key} must be {kind.__name__}, got {text!r}") from None
        # QuadConfig states the range, one key at a time.
        try:
            QuadConfig(**{key: value})
        except DomainError as exc:
            raise ConfigError(f"{key} = {value!r}: {exc}") from None
        return value

    quad = QuadConfig(**{
        key: number(key, kind) for key, kind in _QUAD_KEYS.items() if key in kv
    })
    lists = {name: _parse_floats(kv.pop(key)) for key, name in _LIST_KEYS.items() if key in kv}
    fields = dict(
        functions=tuple(
            s.strip() for s in kv.pop("functions", "").split(",") if s.strip()
        ),
        theorems=tuple(
            s.strip() for s in kv.pop("theorems", ",".join(THEOREM_IDS)).split(",")
            if s.strip()
        ),
        **lists,
        quad=quad,
        out_format=kv.pop("format", "json"),
        output=kv.pop("output", None),
        extra_functions=tuple(extra),
    )
    # Before the config is built, so that a misspelt key is named rather
    # than a member it leaves unchecked.
    if kv:
        raise ConfigError(f"unknown config keys: {sorted(kv)}")
    return SweepConfig(**fields)


def resolve_corpus(cfg: SweepConfig) -> list[FunctionSpec]:
    """The specs of the configured functions, in `functions` order, or the
    whole corpus, in corpus order, if it is empty."""
    return [cfg.corpus[f] for f in cfg.functions or cfg.corpus]


def _points(theorem: str, f: FunctionSpec, cfg: SweepConfig,
            factors: Optional[dict] = None) -> tuple[tuple, list, np.ndarray]:
    """The points of a theorem's grid whose hypotheses hold on f, as (mus,
    points, table): the admitted mu values and one `BoundParams` per
    admitted (alpha, m, q, u), each in grid order, and their point factors,
    one row per mu and one column per point.  The product of the
    configured (mu, alpha, m, q, u) is decided by the hypotheses over
    columns (`verify._admitted_grid`), with no check per point.  A repeated
    (alpha, m, q, u) lists one `BoundParams` as often as it is configured,
    and a rejected one gets none.  Neither reads x.  Each point factor is
    computed only if `factors`, which the caller may pass to share among
    calls, lacks it: it is kept there per (the record's factor, M, mu) and
    (alpha, m, q, u).  The records that print one factor share its
    callable (`verify._factor`), so `mm` and `remark_q1` share their
    values, and so do the functions of one M.  `SweepConfig` has validated
    every value, and f its M, so only a point factor can raise: the first
    point, in grid order, whose factor is computed, named with f, the
    theorem and the point."""
    factor = THEOREMS[theorem].factor
    factors = {} if factors is None else factors
    mus, keys = _admitted_grid(theorem, f, f.domain[1], f.M, {
        "mu": cfg.mus, "alpha": cfg.alphas, "m": cfg.ms, "q": cfg.qs, "u": cfg.us})
    made = {key: BoundParams(f.M, *key) for key in dict.fromkeys(keys)}
    table = np.empty((len(mus), len(keys)))
    for i, mu in enumerate(mus):
        values = factors.setdefault((factor, f.M, mu), {})  # (alpha, m, q, u) -> point factor
        for key, bp in made.items():
            if key not in values:
                try:
                    values[key] = factor(bp, mu)
                except DomainError as exc:
                    point = ", ".join(f"{name}={v!r}" for name, v in
                                      zip(("mu", "alpha", "m", "q", "u"), (mu, *key)))
                    raise DomainError(f"{f.id!r}: {theorem} at {point}: {exc}") from None
        table[i] = [values[key] for key in keys]
    return mus, [made[key] for key in keys], table


class Group(NamedTuple):
    """The verdicts of one theorem on one function, the report's one
    record: its x values (Python floats, a list its function's groups
    share), mu values and points in sweep order, its |signed LHS| as a
    float64 table indexed by (x, mu), which the function's groups of equal
    mus share, its verdicts as tables (float64 rhs and margin, bool holds)
    indexed by (x, mu, point), and the verdict rule's tolerance."""
    theorem: str
    function: str
    a: float
    b: float
    xs: list[float]
    mus: tuple[float, ...]
    lhs: np.ndarray
    points: list[BoundParams]  # each recurs at every (x, mu)
    rhs: np.ndarray
    margin: np.ndarray
    holds: np.ndarray
    tol_margin: float


def _summary(groups: list[Group]) -> dict[str, dict]:
    """Per theorem, in order of its first group: how many verdicts hold and
    fail, and the least margin, which is nan if any margin is nan."""
    tables: dict[str, list[Group]] = {}
    for g in groups:
        tables.setdefault(g.theorem, []).append(g)
    summary = {}
    for theorem, gs in tables.items():
        held = sum(int(g.holds.sum()) for g in gs)
        summary[theorem] = {
            "pass": held,
            "fail": sum(g.holds.size for g in gs) - held,
            "worst_margin": float(np.min([g.margin.min() for g in gs])),
        }
    return summary


def run_sweep(cfg: SweepConfig) -> dict:
    """Execute the sweep; returns the report as a plain dict whose
    `verdicts` are its groups in sweep order (`Group`; `verdict_rows` lists
    them flat).

    Per function, in three steps: list every theorem's points (`_points`:
    the hypotheses decided over columns, with no check per point and a
    `BoundParams` for admitted points only); compute the (mu, x) LHS
    table over the mu values in use, in order of first appearance, and
    the configured x values, with one `ostrowski_signed_many` call (one
    quadrature batch, which evaluates f once for all mu, and changes no
    bit of any integral, so a repeated x gets the same bits), read
    transposed as the (x, mu) table of the groups whose mus are the mu
    values in use; judge each group as one (x, mu, point) table, with one
    `_judge` call, whose tolerance the group keeps.  Each RHS is `Theorem.rhs`: the point factor times the geometry
    factor of its (x, mu).  A group's RHS table is its (x, mu) geometry
    factors times its (mu, point) factors, and its margin that minus its
    (x, mu) LHS, each broadcast over the axis it lacks.  IEEE products and differences
    round the same in numpy as in Python, so each rhs, margin and holds
    is what `_judge` gives for the scalars.
    Each value that recurs is computed once per sweep: a point factor
    once per (bounds factor, point values, mu), over functions and
    theorems (`_points`); a geometry factor column once per (domain, mu),
    with one `geometry_factors` call over the x values, since it reads f
    only through its domain; an RHS table once per (domain, mu values,
    bits of the point factors), which fix it bit for bit, so
    alike groups (`powdecay` and `expdecay`: M = 0.5 on [1, 2]) share one
    rhs array.  The groups of one function with equal mus share one lhs
    table (a group with other mus, such as `mu1`'s, gets its own columns
    of the function's table), and all its groups share its x list.  Each
    memo lives in one call, so a `bounds` factor patched between two
    sweeps is seen by the second.

    Errors come in this order.  `SweepConfig` has rejected every bad
    configured value, extra member and function id before the sweep
    starts.  Then, per function in corpus
    order, a point factor's DomainError is raised while that function's
    points are listed, before any of its quadrature, naming the function,
    theorem and point.  Then, before any of the function's quadrature,
    the DomainError of the first fractional integral whose power
    |end - anchor|^mu overflows a float or whose scale is below the
    smallest normal float (`fracint.rl_lines`), in (mu, x) order: a
    later mu's subnormal scale comes before an earlier mu's failed
    integral.  Then the first ConvergenceError in (mu, x) order, mu in
    order of first appearance and x in `x_fracs` order
    (`clenshaw_curtis_many` raises for the first failing integral of its
    first failing mu).  Then, after all of the function's quadrature, the
    DomainError of the first geometry factor that is not finite, because
    (x - a)^(mu + 1), (b - x)^(mu + 1) or their sum overflows a float
    (`bounds.geometry_factors`), in (mu, x) order, over the mu values
    whose factors no earlier function of the same domain computed, so no
    verdict passes on an inf rhs.  A
    DomainError of the quadrature or the geometry step names the function
    first (`'linear': ...`).
    """
    groups: list[Group] = []
    factors: dict = {}  # `_points`' point factors
    geometry: dict = {}  # (a, b, mu) -> geometry factor column over xs
    tables: dict = {}  # (a, b, mus, point factor bytes) -> rhs table
    for f in resolve_corpus(cfg):
        a, b = f.domain
        xs = [a + frac_x * (b - a) for frac_x in cfg.x_fracs]
        listed = [(theorem, _points(theorem, f, cfg, factors)) for theorem in cfg.theorems]
        in_use = tuple(dict.fromkeys(mu for _, (mus, _, table) in listed if table.size
                                     for mu in mus))
        lhs_of = {}  # mus -> the (x, mu) lhs table of the groups with those mus
        if in_use:
            try:
                lhs = np.abs(ostrowski_signed_many(f, a, b, xs, in_use, cfg.quad))
                for mu in in_use:
                    if (a, b, mu) not in geometry:
                        geometry[a, b, mu] = geometry_factors(a, b, xs, mu)
            except DomainError as exc:
                raise DomainError(f"{f.id!r}: {exc}") from None
            lhs_of[in_use] = lhs.T
        for theorem, (mus, points, table) in listed:
            if not table.size:
                continue
            if mus not in lhs_of:
                lhs_of[mus] = lhs_of[in_use][:, [in_use.index(mu) for mu in mus]]
            # mus and the byte count fix the table's shape.
            key = a, b, mus, table.tobytes()
            rhs = tables.get(key)
            if rhs is None:
                g = np.stack([geometry[a, b, mu] for mu in mus], axis=1)
                rhs = tables[key] = g[:, :, None] * table
            margin, holds, tol_margin = _judge(lhs_of[mus][:, :, None], rhs, cfg.quad)
            groups.append(Group(theorem, f.id, a, b, xs, mus, lhs_of[mus], points, rhs,
                                margin, holds, tol_margin))

    return {
        "config_fingerprint": cfg.fingerprint(),
        "version": __version__,
        "summary": _summary(groups),
        "verdicts": groups,
    }


# A verdict's flat record: its keys, in the order both formats write them.
_ROW_KEYS = ("theorem", "lhs", "rhs", "margin", "holds", "tol_margin", "function",
             "a", "b", "x", "mu", "alpha", "m", "M", "q", "u", "v")


def verdict_rows(report: dict):
    """The report's verdicts as flat records (`_ROW_KEYS`) of Python values,
    in sweep order: row i of each group's tables, read as (x, mu and
    point), at the group's i-th x."""
    for g in report["verdicts"]:
        points = [(j, mu, bp) for j, mu in enumerate(g.mus) for bp in g.points]
        tables = (t.reshape(len(g.xs), len(points)) for t in (g.rhs, g.margin, g.holds))
        for x, lhs_x, rhs_x, margin_x, holds_x in zip(g.xs, g.lhs.tolist(),
                                                      *(t.tolist() for t in tables)):
            for (j, mu, bp), r, d, h in zip(points, rhs_x, margin_x, holds_x):
                yield dict(zip(_ROW_KEYS, (
                    g.theorem, lhs_x[j], r, d, h, g.tol_margin, g.function, g.a, g.b,
                    x, mu, bp.alpha, bp.m, bp.M, bp.q, bp.u, bp.v)))


def _value_json(v) -> str:
    """v as `json.dumps(report, indent=2)` renders it as a verdict's value:
    a scalar, as every `Group` field and point value is."""
    if v is None:  # the u and v of every point without the Young split
        return "null"
    if type(v) is float and math.isfinite(v):
        return float.__repr__(v)
    return json.dumps(v)


def _value_csv(v) -> str:
    """v as a CSV field: empty for None, true or false for a bool, a float
    by `float.__repr__` (nan, inf and -inf included), else its str."""
    if isinstance(v, bool):
        return "true" if v else "false"
    return "" if v is None else float.__repr__(v) if isinstance(v, float) else str(v)


def _json_head(report: dict) -> str:
    """The JSON report up to its verdicts' "[": every other key through
    json.  ValueError unless `verdicts` is the last key, after another."""
    keys = list(report)
    if len(keys) < 2 or keys[-1] != "verdicts":
        raise ValueError(f"report keys {keys}: want 'verdicts' last, after another key")
    top = json.dumps({k: v for k, v in report.items() if k != "verdicts"}, indent=2)
    return top[:-2] + ',\n  "verdicts": ['


# Each report format, by name: its head up to the verdicts, from the
# report; how it writes a value that is not a finite float (each writes a
# finite one by `float.__repr__`); the text before a verdict's first key
# and before each later key, with the key at `{}`, and the text after its
# last key; its close after the last verdict, and without a verdict.  The
# first verdict's text drops its first character, the separator.
_FORMATS = {
    "json": (_json_head, _value_json, ',\n    {{\n      "{}": ', ',\n      "{}": ', "\n    }",
             "\n  ]\n}\n", "]\n}\n"),
    "csv": (lambda report: ",".join(_ROW_KEYS) + "\n", _value_csv, "\n", ",", "", "\n", ""),
}


def _texts(values, value) -> list[str]:
    """Each of values, a float table (a list of floats, or a float64
    ndarray) read flat, as a format writes it.  If all are finite,
    `float.__repr__`'s text, from one `orjson.dumps` call on the whole
    list: orjson writes the same shortest round-trip digits (Ryu) and
    notation, except for a nonzero value below 1e-4 or at least 1e16 in
    magnitude (`0.00001` and `1e16` for repr's `1e-05` and `1e+16`), which
    is written by `float.__repr__` itself.  Else each value by `value`."""
    values = np.asarray(values, dtype=float)
    listed = values.ravel().tolist()
    if not np.isfinite(values).all():
        return [value(v) for v in listed]
    if not listed:
        return []
    texts = orjson.dumps(listed)[1:-1].decode().split(",")
    size = np.abs(values).ravel()
    for i in np.flatnonzero(((size < 1e-4) & (size > 0)) | (size >= 1e16)).tolist():
        texts[i] = float.__repr__(listed[i])
    return texts


def _chunks(report: dict, head: str, value, first: str, later: str, end: str,
            close: str, empty: str):
    """`report_chunks` in one of `_FORMATS`: its head, then one string per
    (group, x) with a verdict, then the close.  Each verdict writes its
    keys in `_ROW_KEYS` order, each key's text (`first`, `later`) before
    its value's, and `end` after the last.  Each group renders from its
    tables, read as (x, mu and point), one row per x.  Each shared value
    is formatted once, where it is stored: theorem, tol_margin, function,
    a and b per group; x per row; each of the group's mus once; alpha to
    v once per point of the group, by position, prefixed by each mu's
    text.
    Each float table is formatted whole, by one `_texts` call: each
    group's margin table, and each x list, lhs table and rhs table once
    per object.  `run_sweep` shares an x list and an lhs table among a
    function's groups, and an rhs table among alike groups, so the text
    of each is kept, by the object's identity, until the last group that
    reads it has rendered.
    The text that leads a verdict up to its rhs is built once per (x, mu)
    of the lhs table and repeated over the group's points.  Each row is
    then one comprehension of one f-string per verdict: its lead, rhs
    text, margin text, holds, x and point text."""
    yield head
    before = dict(zip(_ROW_KEYS, [first.format(_ROW_KEYS[0]),
                                  *(later.format(k) for k in _ROW_KEYS[1:])]))
    groups = report["verdicts"]
    holds_text = value(False), value(True)
    # id of an x list, lhs table or rhs table -> the last group that reads it
    last = {id(v): k for k, g in enumerate(groups) for v in (g.xs, g.lhs, g.rhs)}
    # id of an x list, lhs table or rhs table -> (it, its texts in flat
    # order); each entry holds its object, so no other object takes its id.
    texts: dict[int, tuple] = {}
    opened = False

    def text_of(values):
        entry = texts.get(id(values))
        if entry is None:
            entry = texts[id(values)] = (values, _texts(values, value))
        return entry[1]

    before_margin, before_holds = before["margin"], before["holds"]
    for k, g in enumerate(groups):
        for key in [key for key in texts if last[key] < k]:
            del texts[key]
        if not g.holds.size:
            continue
        start = f'{before["theorem"]}{value(g.theorem)}{before["lhs"]}'
        shared = (f'{before["tol_margin"]}{value(g.tol_margin)}'
                  f'{before["function"]}{value(g.function)}'
                  f'{before["a"]}{value(g.a)}{before["b"]}{value(g.b)}{before["x"]}')
        leads = np.repeat(
            np.array([f'{start}{t}{before["rhs"]}' for t in text_of(g.lhs)],
                     dtype=object).reshape(g.lhs.shape),
            len(g.points), axis=1).tolist()
        point_texts = [
            f'{value(bp.alpha)}{before["m"]}{value(bp.m)}{before["M"]}{value(bp.M)}'
            f'{before["q"]}{value(bp.q)}{before["u"]}{value(bp.u)}{before["v"]}{value(bp.v)}{end}'
            for bp in g.points]
        points = [mu + text for mu in [f'{before["mu"]}{value(mu)}{before["alpha"]}'
                                       for mu in g.mus] for text in point_texts]
        width = len(points)  # verdicts per x
        rhs, margin = text_of(g.rhs), _texts(g.margin, value)
        for i, (x, lead, holds_x) in enumerate(zip(
                text_of(g.xs), leads, g.holds.reshape(len(g.xs), width).tolist())):
            at_x = shared + x
            cut = slice(i * width, (i + 1) * width)
            row = "".join([f'{ld}{r}{before_margin}{d}{before_holds}{holds_text[h]}{at_x}{p}'
                           for ld, r, d, h, p in zip(lead, rhs[cut], margin[cut], holds_x,
                                                     points)])
            if not opened:  # the first verdict drops its separator
                row = row[1:]
                opened = True
            yield row
    yield close if opened else empty


def report_chunks(report: dict, out_format: str):
    """The report as text, in pieces: `out_format` one of `_FORMATS`, its
    verdicts, a list of `Group`s, as their flat records (`verdict_rows`),
    each with its keys in `_ROW_KEYS` order, at most one (group, x) row of
    verdicts per piece, so a caller can write the report without holding
    it whole.  A row's piece of the default sweep is at most about 75 kB,
    below glibc's 128 KiB mmap threshold, so writing one piece after
    another reuses the same heap pages instead of faulting in fresh ones.
    JSON is `json.dumps(report, indent=2) + "\\n"` byte for byte; CSV is
    a header of the keys, then one line per verdict, each value as
    `_value_csv` writes it.
    An unknown format, or a JSON report whose last key is not `verdicts`
    or whose only key is, raises ValueError here, before any piece."""
    if out_format not in _FORMATS:
        raise ValueError(f"unknown report format {out_format!r}: want {' or '.join(_FORMATS)}")
    head, *form = _FORMATS[out_format]
    return _chunks(report, head(report), *form)


def render_report(report: dict, out_format: str) -> str:
    """The report as one string: the join of `report_chunks`."""
    return "".join(report_chunks(report, out_format))
