import numpy as np
import pytest

from ostrowski_frac.corpus import builtin_corpus
from ostrowski_frac.report import SweepConfig, run_sweep


@pytest.fixture(scope="session")
def corpus():
    return {s.id: s for s in builtin_corpus()}


@pytest.fixture(scope="session")
def default_sweep():
    """The report of the shipped default sweep, run once per session."""
    return run_sweep(SweepConfig())


def simpson(g, lo, hi, panels=10_000):
    """Independent composite-Simpson oracle; kept free of the package's
    quadrature machinery on purpose."""
    xs = np.linspace(lo, hi, 2 * panels + 1)
    ys = np.asarray(g(xs), dtype=float)
    h = (hi - lo) / (2 * panels)
    return h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())
