"""Outside-in tracer: times calls into the library's public functions.

The library is not instrumented.  Instead every module binding of a traced
function is swapped for a wrapper that records a span (name, start, end,
parent).  "Every binding" matters: `from .fracint import adaptive_gauss`
copies the function into `verify`, and `mexp_integral` calls the one bound in
`fracint`, so patching a single module would miss calls.

Spans stay in memory while the pass runs and are reduced to per-layer figures
afterwards by `layer_metrics`; `Tracer.restore` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter
from typing import NamedTuple

PACKAGE = "ostrowski_frac"

# layer (module) -> traced public functions; None means every public
# function defined in the module.  Names a module lacks are skipped, so the
# tracer survives functions being merged or deleted.
TARGETS = {
    "cli": ("main",),
    "report": ("run_sweep", "render_report"),
    "verify": ("verify_theorem", "ostrowski_signed", "lemma_identity_residual"),
    "bounds": None,
    "fracint": ("adaptive_gauss", "mexp_integral"),
    "corpus": ("builtin_corpus", "audit"),
    "convexity": ("check_membership",),
}


class Span(NamedTuple):
    name: str  # "<layer>.<function>"
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children of a span are disjoint in time
    and their durations add up to the covered part of the parent.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def _public_functions(module) -> tuple[str, ...]:
    return tuple(
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    )


class Tracer:
    """Install with `install()`, run the pass, then `restore()` and read
    `spans` and `counters`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters = {"integrand_calls": 0, "integrand_points": 0, "render_bytes": 0,
                         "grid_points": 0, "mexp_hits": 0, "mexp_misses": 0}
        self._open: list[list] = []  # mutable span records, indexed like spans
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._mexp = None
        self._mexp_before = None

    # -- patching ---------------------------------------------------------

    def _modules(self) -> list:
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self) -> "Tracer":
        fracint = importlib.import_module(f"{PACKAGE}.fracint")
        self._mexp = getattr(fracint, "mexp_integral", None)
        self._mexp_before = self._cache_info()
        originals = {}
        for layer, names in TARGETS.items():
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name in names if names is not None else _public_functions(module):
                if hasattr(module, name):
                    orig = getattr(module, name)
                    originals[id(orig)] = (orig, self._wrap(f"{layer}.{name}", orig))
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))
        return self

    def restore(self) -> None:
        after = self._cache_info()
        if after is not None and self._mexp_before is not None:
            self.counters["mexp_hits"] = after.hits - self._mexp_before.hits
            self.counters["mexp_misses"] = after.misses - self._mexp_before.misses
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
        self.spans = [Span(*rec) for rec in self._open]

    def _cache_info(self):
        info = getattr(self._mexp, "cache_info", None)
        return info() if info is not None else None

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- spans --------------------------------------------------------------

    def _wrap(self, name: str, orig):
        hook = _HOOKS.get(name)
        records, stack = self._open, self._stack

        def traced(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(self, orig, args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(records))
            records.append(rec)
            rec[1] = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if name == "report.render_report":
                self.counters["render_bytes"] += len(result.encode())
            return result

        functools.update_wrapper(traced, orig)
        # Keep the lru_cache interface of mexp_integral usable through the
        # wrapper; it lives on the cache's type, which update_wrapper skips.
        for attr in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(orig, attr):
                setattr(traced, attr, getattr(orig, attr))
        return traced


def _count_integrand(tracer: Tracer, orig, args, kwargs):
    """Count the numpy calls (one per quadrature panel) and points of g."""
    g, rest = args[0], args[1:]
    counters = tracer.counters

    def counted(t):
        counters["integrand_calls"] += 1
        counters["integrand_points"] += len(t)
        return g(t)

    return (counted,) + rest, kwargs


def _count_grid(tracer: Tracer, orig, args, kwargs):
    bound = inspect.signature(orig).bind(*args, **kwargs)
    bound.apply_defaults()
    grid = bound.arguments["grid"]
    tracer.counters["grid_points"] += grid.points_per_axis ** 2 * grid.t_steps
    return args, kwargs


_HOOKS = {
    "fracint.adaptive_gauss": _count_integrand,
    "convexity.check_membership": _count_grid,
}


def layer_metrics(tracer: Tracer, verdicts: int) -> dict[str, float]:
    """Reduce the spans of one traced pass to the benchmark's per-layer metrics.

    `verdicts` is the number of verdicts the pass produced (0 when the pass
    makes none); it is the numerator of the LHS reuse ratio.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    own: dict[str, float] = {}
    for span, self_s in zip(spans, selfs):
        layer = span.name.split(".", 1)[0]
        for key in (span.name, layer + ".*"):
            calls[key] = calls.get(key, 0) + 1
            incl[key] = incl.get(key, 0.0) + span.duration
            own[key] = own.get(key, 0.0) + self_s
    c = tracer.counters
    lhs_calls = calls.get("verify.ostrowski_signed", 0)
    return {
        "cli.self_s": own.get("cli.main", 0.0),
        "report.self_s": own.get("report.run_sweep", 0.0),
        "report.render_s": incl.get("report.render_report", 0.0),
        "report.render_bytes": c["render_bytes"],
        "report.verdicts": verdicts,
        "report.lhs_reuse_ratio": verdicts / lhs_calls if lhs_calls else 0.0,
        "verify.verify_theorem_calls": calls.get("verify.verify_theorem", 0),
        "verify.verify_theorem_self_s": own.get("verify.verify_theorem", 0.0),
        "verify.ostrowski_lhs_calls": lhs_calls,
        "verify.ostrowski_lhs_s": incl.get("verify.ostrowski_signed", 0.0),
        "verify.identity_self_s": own.get("verify.lemma_identity_residual", 0.0),
        "bounds.calls": calls.get("bounds.*", 0),
        "bounds.self_s": own.get("bounds.*", 0.0),
        "fracint.adaptive_gauss_calls": calls.get("fracint.adaptive_gauss", 0),
        "fracint.adaptive_gauss_s": incl.get("fracint.adaptive_gauss", 0.0),
        "fracint.integrand_calls": c["integrand_calls"],
        "fracint.integrand_points": c["integrand_points"],
        "fracint.mexp_hits": c["mexp_hits"],
        "fracint.mexp_misses": c["mexp_misses"],
        "fracint.mexp_s": incl.get("fracint.mexp_integral", 0.0),
        "corpus.builtin_corpus_calls": calls.get("corpus.builtin_corpus", 0),
        "corpus.audit_calls": calls.get("corpus.audit", 0),
        "corpus.audit_self_s": own.get("corpus.audit", 0.0),
        "convexity.check_membership_calls": calls.get("convexity.check_membership", 0),
        "convexity.check_membership_s": incl.get("convexity.check_membership", 0.0),
        "convexity.grid_points": c["grid_points"],
    }
