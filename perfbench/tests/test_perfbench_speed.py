"""Arithmetic of the speed sampler's scaling to reference seconds.

    PYTHONPATH=src python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from speed import REF_KERNEL_S, SpeedSampler  # noqa: E402


def _sampler(before, samples, after):
    s = SpeedSampler()
    s.before, s.samples, s.after = before, samples, after
    return s


def test_reference_speed_leaves_time_unchanged():
    k = REF_KERNEL_S
    s = _sampler(k, [(1.0, 1.5, k), (3.0, 3.25, k)], k)
    # 10 s of interval minus the 0.75 s the samples took.
    assert s.reference_seconds(0.0, 10.0) == pytest.approx(9.25)


def test_each_stretch_is_scaled_by_the_speed_at_its_ends():
    k = REF_KERNEL_S
    # Twice as slow until the sample at t=4, at reference speed after it.
    s = _sampler(2 * k, [(4.0, 4.5, k)], k)
    first = 4.0 * 0.5 * (0.5 + 1.0)  # both ends: 2k before, k at the sample
    second = 5.5 * 1.0
    assert s.reference_seconds(0.0, 10.0) == pytest.approx(first + second)


def test_samples_outside_the_interval_are_ignored():
    k = REF_KERNEL_S
    s = _sampler(k, [(-1.0, -0.5, 3 * k), (11.0, 11.5, 3 * k)], k)
    assert s.reference_seconds(0.0, 10.0) == pytest.approx(10.0)
