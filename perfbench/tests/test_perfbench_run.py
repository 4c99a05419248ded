"""End-to-end tests of the benchmark command (a few seconds each).

    PYTHONPATH=src python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import _child_env  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_benchmark_metric_is_emitted(trace, section):
    out = _run("--workload", "default-sweep", "--seed", "3", "--seconds", "0",
               "--trace", trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want


def _traced_pass(workdir):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--workload", "default-sweep",
         "--seed", "0", "--workdir", str(workdir), "--trace", "1"],
        capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_counts_repeat_exactly(tmp_path):
    first, second = (_traced_pass(tmp_path) for _ in range(2))
    assert first["failed"] == second["failed"] == 0
    counts = [k for k in first["layers"]
              if k.endswith("_calls") or k.split(".")[-1] in
              ("calls", "integrand_points", "mexp_misses", "render_bytes")]
    assert len(counts) >= 10
    assert {k: first["layers"][k] for k in counts} == {k: second["layers"][k] for k in counts}
    # 9 x-fractions times 4 mu values on each of the four functions with
    # claims; const1 and const2 carry none.
    assert first["layers"]["verify.ostrowski_lhs_calls"] == 144
