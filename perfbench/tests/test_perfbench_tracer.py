"""Unit tests of the outside-in tracer.

    PYTHONPATH=src python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

from ostrowski_frac import bounds, fracint, verify  # noqa: E402
import ostrowski_frac  # noqa: E402

from tracer import Span, Tracer, layer_metrics, self_times  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("cli.main", 0.0, 10.0, -1),
        Span("report.run_sweep", 1.0, 7.0, 0),
        Span("verify.verify_theorem", 2.0, 3.0, 1),
        Span("bounds.bound_t22", 2.5, 2.75, 2),
        Span("verify.verify_theorem", 4.0, 6.0, 1),
        Span("report.render_report", 8.0, 9.5, 0),
    ]
    assert self_times(spans) == [2.5, 3.0, 0.75, 0.25, 2.0, 1.5]
    # Self times of a tree add up to the root's duration.
    assert sum(self_times(spans)) == spans[0].duration


def _bindings():
    return {
        "fracint.adaptive_gauss": fracint.adaptive_gauss,
        "verify.adaptive_gauss": verify.adaptive_gauss,
        "package.adaptive_gauss": ostrowski_frac.adaptive_gauss,
        "fracint.mexp_integral": fracint.mexp_integral,
        "bounds.mexp_integral": bounds.mexp_integral,
        "package.mexp_integral": ostrowski_frac.mexp_integral,
        "bounds.k_alpha": bounds.k_alpha,
        "verify.ostrowski_signed": verify.ostrowski_signed,
    }


def test_every_binding_is_patched_and_restored():
    before = _bindings()
    tracer = Tracer().install()
    try:
        during = _bindings()
        assert all(during[k] is not before[k] for k in before)
        # The copies made by `from .fracint import ...` share one wrapper.
        assert during["verify.adaptive_gauss"] is during["fracint.adaptive_gauss"]
        # The lru_cache interface stays usable through the wrapper.
        misses = fracint.mexp_integral.cache_info().misses
        # An uncached kernel integral: bounds -> fracint's mexp binding ->
        # fracint's adaptive_gauss binding, which a single patch would miss.
        bounds.k_alpha(0.5, 0.5, 0.5, 0.3712)
        assert fracint.mexp_integral.cache_info().misses == misses + 1
    finally:
        tracer.restore()
    after = _bindings()
    assert all(after[k] is before[k] for k in before)
    names = [s.name for s in tracer.spans]
    assert names == ["bounds.k_alpha", "fracint.mexp_integral", "fracint.adaptive_gauss"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1]
    m = layer_metrics(tracer, verdicts=0)
    assert m["fracint.mexp_misses"] == 1 and m["fracint.mexp_hits"] == 0
    assert m["fracint.adaptive_gauss_calls"] == 1
    assert m["fracint.integrand_calls"] >= 3  # whole interval plus one bisection
    assert m["fracint.integrand_points"] == 16 * m["fracint.integrand_calls"]
    assert m["bounds.calls"] == 1


def test_restore_after_exception():
    before = _bindings()
    try:
        with Tracer():
            verify.ostrowski_signed(None, None)
    except AttributeError:
        pass
    assert _bindings() == before
