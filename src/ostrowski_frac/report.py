"""Sweep configuration, deterministic execution, and report serialization.

The sweep grid is fully deterministic: verdicts are emitted in nested loop
order (function, theorem, x-fraction, mu, alpha, m, q, u), so identical
configurations produce byte-identical reports modulo the version string.
x is specified as a fraction of [a, b] so one grid serves every corpus
domain.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from . import __version__
from .bounds import BoundParams, geometry_factors
from .corpus import FunctionSpec, corpus_by_id, spec_from_family
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

# Each list key of the config file and the SweepConfig field it sets, and
# each quadrature key and its type, in canonical-text order.
_LIST_KEYS = {
    "x_fracs": "x_fracs", "mu": "mus", "alpha": "alphas", "m": "ms", "q": "qs", "u": "us",
}
_QUAD_KEYS = {"abs_tol": float, "rel_tol": float, "max_subdivisions": int}

# A valid instance to probe configured parameter values with.
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
        BoundParams(_PROBE, 1.0, **{key: value})


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

    def __post_init__(self) -> None:
        lists = {key: getattr(self, name) for key, name in _LIST_KEYS.items()}
        for key, values in {"theorems": self.theorems, **lists}.items():
            if not values:
                raise ConfigError(f"{key} must be non-empty")
        for t in self.theorems:
            if t not in THEOREM_IDS:
                raise ConfigError(f"unknown theorem id {t!r}; known: {THEOREM_IDS}")
        if self.out_format not in ("json", "csv"):
            raise ConfigError("format must be json or csv")
        # A CSV field or a `functions` list must be able to hold the id.
        for _, fid, _ in self.extra_functions:
            if not fid or "," in fid or '"' in fid:
                raise ConfigError(f"function id {fid!r} must be non-empty, without ',' or '\"'")
        # One probe per value, so that no value is dropped from the sweep
        # unreported or fails part-way through it.
        for key, values in lists.items():
            for value in values:
                try:
                    _probe(key, value)
                except DomainError as exc:
                    raise ConfigError(f"{key} = {value!r}: {exc}") from None

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
    cfg = SweepConfig(
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
    if kv:
        raise ConfigError(f"unknown config keys: {sorted(kv)}")
    return cfg


def resolve_corpus(cfg: SweepConfig) -> list[FunctionSpec]:
    by_id = corpus_by_id()
    for family, fid, params in cfg.extra_functions:
        if fid in by_id:
            raise ConfigError(f"extra function id {fid!r} is already in the corpus")
        spec = spec_from_family(family, fid, **dict(params))
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
    mu, the grid's slowest axis.  Each distinct point gets one `BoundParams`
    and one point factor; none of them reads x, so a run's `BoundParams`
    share one `FracParams` at x = a.  `_check_hypotheses` runs once per
    distinct (alpha, m, q, u): it reads mu only through the box, which
    `Theorem.admitted` has applied (a pin replaces the configured mus).
    `SweepConfig` has validated every value, and f its M, so only a point
    factor can raise."""
    a, b = f.domain
    record = THEOREMS[theorem]
    seen: dict[tuple, Optional[tuple[BoundParams, float]]] = {}
    admits: dict[tuple, bool] = {}
    runs = []
    for mu, grid in itertools.groupby(_grid_for(theorem, cfg), key=lambda p: p[0]):
        frac = FracParams(a, b, a, mu)
        points = []
        for point in grid:
            if point not in seen:
                seen[point] = None
                key = point[1:]
                if admits.get(key, True):
                    bp = BoundParams(frac, f.M, *key)
                    if key not in admits:
                        try:
                            _check_hypotheses(theorem, f, bp)
                            admits[key] = True
                        except HypothesisError:
                            admits[key] = False
                            continue
                    seen[point] = (bp, record.factor(bp))
            if seen[point] is not None:
                points.append(seen[point])
        if points:
            runs.append((mu, points))
    return runs


class Run(NamedTuple):
    """A group's points that share mu, and the LHS they share: element i
    of `lhs` is at the group's i-th x."""
    mu: float
    points: list[BoundParams]  # at x = a; each recurs at every x
    lhs: np.ndarray  # |signed LHS| per x, float64


class Group(NamedTuple):
    """The verdicts of one theorem on one function: its x values, its runs
    in sweep order, and its verdicts as one table, row i at the i-th x and
    one column per point, run by run, point by point, so that the rows
    list the verdicts in report order.  The table's arrays are float64
    (rhs, margin) and bool (holds)."""
    theorem: str
    function: str
    a: float
    b: float
    xs: list[float]
    runs: list[Run]
    rhs: np.ndarray
    margin: np.ndarray
    holds: np.ndarray


class Verdicts(NamedTuple):
    """A report's verdicts: the tolerance they share, their groups in sweep order."""
    tol_margin: float
    groups: list[Group]


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
    `verdicts` are grouped (`Verdicts`; `verdict_rows` lists them flat).

    Per function, in three steps: list every theorem's points (`_points`);
    per mu in use, compute the LHS and geometry factor columns over the
    distinct x values, with one `ostrowski_signed_many` call (one
    quadrature batch) and one `geometry_factors` call; judge each group
    as one table, with one `_judge` call.  Each RHS is `Theorem.rhs`: the
    point factor, computed once per point, times the geometry factor of
    its (x, mu), computed once per (x, mu); a group's RHS is its geometry
    factor columns, each repeated once per point of its run, times the row
    of its point factors.  IEEE products and differences round the same in
    numpy as in Python, so each rhs, margin and holds is what `_judge`
    gives for the scalars.  The runs of one (function, mu) share its lhs
    array, and the groups of one function its x list.

    Errors come in this order.  `SweepConfig` has rejected every bad
    configured value before the sweep starts.  Then, per function in corpus
    order, a point factor's DomainError is raised while that function's
    points are listed, before any of its quadrature.  Then the first
    ConvergenceError in batch order: mu in order of first appearance, then
    x in `x_fracs` order (`clenshaw_curtis_many` raises for its lowest-index
    failing integral).
    """
    groups: list[Group] = []
    for f in resolve_corpus(cfg):
        a, b = f.domain
        xs = [a + frac_x * (b - a) for frac_x in cfg.x_fracs]
        row = {}  # each distinct x -> its row in the columns below
        rows = [row.setdefault(x, len(row)) for x in xs]
        distinct = list(row)
        listed = [(theorem, _points(theorem, f, cfg)) for theorem in cfg.theorems]
        at = {}  # mu -> (lhs, g), each an array over xs
        for mu in dict.fromkeys(mu for _, runs in listed for mu, _ in runs):
            lhs = np.abs(ostrowski_signed_many(f, a, b, distinct, mu, cfg.quad))
            at[mu] = lhs[rows], geometry_factors(a, b, distinct, mu)[rows]
        for theorem, runs in listed:
            if not runs:
                continue
            counts = [len(points) for _, points in runs]
            lhs, g = np.repeat(np.stack([at[mu] for mu, _ in runs], axis=2), counts, axis=2)
            rhs = g * [factor for _, points in runs for _, factor in points]
            margin, holds, _ = _judge(lhs, rhs, cfg.quad)
            columns = [Run(mu, [bp for bp, _ in points], at[mu][0]) for mu, points in runs]
            groups.append(Group(theorem, f.id, a, b, xs, columns, rhs, margin, holds))

    return {
        "config_fingerprint": cfg.fingerprint(),
        "version": __version__,
        "summary": _summary(groups),
        # The verdict rule's tolerance does not depend on the instance.
        "verdicts": Verdicts(_judge(0.0, 0.0, cfg.quad)[2], groups),
    }


# A verdict's flat record: its keys, in the JSON report's order.
_ROW_KEYS = ("theorem", "lhs", "rhs", "margin", "holds", "tol_margin", "function",
             "a", "b", "x", "mu", "alpha", "m", "M", "q", "u", "v")


def _rows_by_x(tol_margin, g: Group):
    """One group's verdicts as flat records (`_ROW_KEYS`) of Python values,
    one list per x, in sweep order (the rows of the group's table)."""
    lhs = [run.lhs.tolist() for run in g.runs]
    points = [(j, run.mu, bp) for j, run in enumerate(g.runs) for bp in run.points]
    for i, (x, rhs_i, margin_i, holds_i) in enumerate(
            zip(g.xs, g.rhs.tolist(), g.margin.tolist(), g.holds.tolist())):
        yield [dict(zip(_ROW_KEYS, (
                   g.theorem, lhs[j][i], r, d, h, tol_margin, g.function, g.a, g.b,
                   x, mu, bp.alpha, bp.m, bp.M, bp.q, bp.u, bp.v)))
               for (j, mu, bp), r, d, h in zip(points, rhs_i, margin_i, holds_i)]


def verdict_rows(report: dict):
    """The report's verdicts as flat records (`_ROW_KEYS`), in sweep order."""
    tol_margin, groups = report["verdicts"]
    for g in groups:
        for rows in _rows_by_x(tol_margin, g):
            yield from rows


_CSV_FIELDS = ("theorem", "function", "a", "b", "x", "mu", "alpha", "m", "M", "q", "u", "v",
               "lhs", "rhs", "margin", "holds", "tol_margin")


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _value_json(v) -> str:
    """v as `json.dumps(report, indent=2)` renders it as a verdict's value."""
    if v is None:  # the u and v of every point without the Young split
        return "null"
    if type(v) is float and math.isfinite(v):
        return float.__repr__(v)
    if isinstance(v, (dict, list, tuple)):
        return json.dumps(v, indent=2).replace("\n", "\n      ")
    return json.dumps(v)


def _json_chunks(report: dict):
    """`report_chunks` for JSON: the head through json, then the verdicts,
    its last key, one string per (group, x) with a verdict, then the close.
    Each group renders as its table, one row per x.  Each shared value
    is formatted once, where it is stored: tol_margin per report; theorem,
    function, a and b per group; x per row; mu per run, folded into the
    text of each of its points, alpha to v.  An x list and an lhs column
    are formatted once per object, by `float.__repr__` if all finite:
    `run_sweep` shares them among a function's groups, so their text is
    kept, by the object's identity, while that function's groups render.
    The text that leads a verdict up to its rhs is built once per (x, run)
    and repeated over the run's points.  Each row is then one
    comprehension of one f-string per verdict: its lead, rhs, margin,
    holds, x and point text.  rhs and margin are read from the table's
    `.tolist()`, by repr if the group's are all finite (a finite float's
    repr is json's), else each through `_value_json`."""
    top = json.dumps({k: v for k, v in report.items() if k != "verdicts"}, indent=2)
    yield top[:-2] + ',\n  "verdicts": '
    verdicts = report["verdicts"]
    tol_margin = _value_json(verdicts.tol_margin)
    texts: dict[int, tuple] = {}  # id of an x list or lhs column -> (it, its text)
    function, opened = None, False

    def text_of(values):
        entry = texts.get(id(values))
        if entry is None:  # the entry holds values, so no other object takes its id
            listed = values.tolist() if isinstance(values, np.ndarray) else values
            if set(map(type, listed)) <= {float} and all(map(math.isfinite, listed)):
                text = list(map(float.__repr__, listed))  # json's text for a finite float
            else:
                text = [_value_json(v) for v in listed]
            entry = texts[id(values)] = (values, text)
        return entry[1]

    for g in verdicts.groups:
        if g.function is not function:
            function = g.function
            texts.clear()
        if not g.holds.size:
            continue
        head = f',\n    {{\n      "theorem": {_value_json(g.theorem)},\n      "lhs": '
        shared = (f',\n      "tol_margin": {tol_margin},\n      "function": '
                  f'{_value_json(g.function)},\n      "a": {_value_json(g.a)},\n      "b": '
                  f'{_value_json(g.b)},\n      "x": ')
        leads = np.repeat(
            np.array([[f'{head}{t},\n      "rhs": ' for t in text_of(run.lhs)] for run in g.runs],
                     dtype=object),
            [len(run.points) for run in g.runs], axis=0).T.tolist()
        points = []
        for run in g.runs:
            mu = f',\n      "mu": {_value_json(run.mu)},\n      "alpha": '
            points += [f'{mu}{_value_json(bp.alpha)},\n      "m": {_value_json(bp.m)},\n      '
                       f'"M": {_value_json(bp.M)},\n      "q": {_value_json(bp.q)},\n      '
                       f'"u": {_value_json(bp.u)},\n      "v": {_value_json(bp.v)}\n    }}'
                       for bp in run.points]
        finite = bool(np.isfinite(g.rhs).all() and np.isfinite(g.margin).all())
        for x, lead, rhs_x, margin_x, holds_x in zip(
                text_of(g.xs), leads, g.rhs.tolist(), g.margin.tolist(), g.holds.tolist()):
            at_x = shared + x
            if finite:
                row = "".join([f'{ld}{r!r},\n      "margin": {d!r},\n      "holds": '
                               f'{"true" if h else "false"}{at_x}{p}'
                               for ld, r, d, h, p in zip(lead, rhs_x, margin_x, holds_x, points)])
            else:
                row = "".join([f'{ld}{_value_json(r)},\n      "margin": {_value_json(d)},\n'
                               f'      "holds": {_value_json(h)}{at_x}{p}'
                               for ld, r, d, h, p in zip(lead, rhs_x, margin_x, holds_x, points)])
            if not opened:  # the first verdict opens the list, the others follow a ","
                row = "[" + row[1:]
                opened = True
            yield row
    yield "\n  ]\n}\n" if opened else "[]\n}\n"


def _csv_chunks(report: dict):
    """`report_chunks` for CSV: the header, then one string per (group, x)."""
    yield ",".join(_CSV_FIELDS) + "\n"
    tol_margin, groups = report["verdicts"]
    for g in groups:
        for rows in _rows_by_x(tol_margin, g):
            yield "".join(",".join([_fmt(r[k]) for k in _CSV_FIELDS]) + "\n" for r in rows)


def report_chunks(report: dict, out_format: str):
    """The report as text, in pieces: `out_format` "json" or "csv", its
    verdicts as their flat records (`verdict_rows`), at most one (group, x)
    row of verdicts per piece, so a caller can write the report without
    holding it whole.  A row's piece of the default sweep is at most about
    75 kB, below glibc's 128 KiB mmap threshold, so writing one piece after
    another reuses the same heap pages instead of faulting in fresh ones.
    JSON is `json.dumps(report, indent=2) + "\\n"` byte for byte.
    An unknown format, or a JSON report whose last key is not `verdicts`
    or whose only key is, raises ValueError here, before any piece."""
    if out_format == "json":
        keys = list(report)
        if len(keys) < 2 or keys[-1] != "verdicts":
            raise ValueError(f"report keys {keys}: want 'verdicts' last, after another key")
        return _json_chunks(report)
    if out_format == "csv":
        return _csv_chunks(report)
    raise ValueError(f"unknown report format {out_format!r}: want json or csv")


def render_report(report: dict, out_format: str) -> str:
    """The report as one string: the join of `report_chunks`."""
    return "".join(report_chunks(report, out_format))
