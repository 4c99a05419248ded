"""Cold-process benchmark of ostrowski-frac.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the library is taken from `src/` next to this directory.
Closed loop: one pass after another, each in a fresh interpreter (child.py),
until the next pass would end after S seconds.  Every pass's output is
checked.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics: medians over the passes of the
pass time, the verdicts or residuals per second, set-up time and peak RSS.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (medians), plus the tracing overhead.

Times are in reference seconds: scaled to a fixed machine speed by sampling
the speed during the pass (speed.py).  The raw medians are printed on the
line above the result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 100
# numpy must not start helper threads: one process and one thread generate
# the load on a small shared machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

UNITS = {"wall_s": "s", "items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_pass(workload: str, seed: int, workdir: Path, trace: bool, ops: int) -> dict:
    """One fresh interpreter, one pass.  A crash or a missing result counts
    every operation of the pass as failed."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir), "--trace", str(int(trace))]
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"attempted": ops, "failed": ops, "errors": ["pass timed out"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"attempted": ops, "failed": ops, "errors": tail}
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ostrowski_frac" / "__init__.py").is_file():
        print(f"error: no library at {ROOT / 'src' / 'ostrowski_frac'}", file=sys.stderr)
        return 2

    ops = WORKLOADS[args.workload].ops_per_pass
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    passes: list[dict] = []
    start = perf_counter()
    try:
        while True:
            # --trace 1 alternates untraced and traced passes.
            traced = bool(args.trace) and len(passes) % 2 == 1
            t = perf_counter()
            p = run_pass(args.workload, args.seed, workdir, traced, ops)
            p["traced"] = traced
            passes.append(p)
            took = perf_counter() - t
            enough = len(passes) >= (2 if args.trace else 1)
            if enough and perf_counter() - start + took > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is still using it

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    timed = [p for p in passes if "wall_s" in p]
    plain = [p for p in timed if not p["traced"]]
    traced = [p for p in timed if p["traced"]]
    if not plain or (args.trace and not traced):
        for p in passes:
            print(f"error: {p.get('errors')}", file=sys.stderr)
        return 1

    report_shas = {p["report_sha256"] for p in timed if "report_sha256" in p}
    correct = failed == 0 and len(report_shas) <= 1
    for p in passes:
        for err in p.get("errors", []):
            print(f"check failed: {err}")
    walls = sorted(p["raw_wall_s"] for p in plain)
    print(f"{args.workload} seed={args.seed}: {len(plain)} untraced and {len(traced)} "
          f"traced passes; raw wall_s min {walls[0]:.4f} median {_med(plain, 'raw_wall_s'):.4f} "
          f"max {walls[-1]:.4f}; raw setup_s median {_med(plain, 'raw_setup_s'):.4f}; "
          f"speed samples per pass {_med(plain, 'speed_samples')}; "
          f"items per pass {plain[0]['items']}")
    if report_shas:
        print(f"report sha256 {' '.join(sorted(report_shas))}; "
              f"verdict tuples sha256 {plain[0]['tuples_sha256']}")

    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _med(rows, key):
    return statistics.median(r[key] for r in rows)


def end_to_end(plain: list[dict]) -> dict:
    values = {
        "wall_s": _med(plain, "wall_s"),
        "items_per_s": statistics.median(p["items"] / p["wall_s"] for p in plain),
        "setup_s": _med(plain, "setup_s"),
        "peak_rss_mb": _med(plain, "peak_rss_mb"),
    }
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    metrics = {
        name: {"value": statistics.median(p["layers"][name] for p in traced),
               "unit": _layer_unit(name)}
        for name in traced[0]["layers"]
    }
    overhead = _med(traced, "wall_s") / _med(plain, "wall_s")
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    return metrics


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
