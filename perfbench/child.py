"""One cold pass of one workload in this fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --workdir DIR --trace 0|1

Prints one JSON object: set-up and pass times (raw, and in reference
seconds, see speed.py), peak RSS, the output check, and with --trace 1 the
per-layer figures of the traced pass.  run.py starts one of
these per sample.
"""

from time import perf_counter

T0 = perf_counter()  # set-up runs from here: imports plus input generation

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import REF_KERNEL_S, SpeedSampler  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    wl = WORKLOADS[args.workload]
    state = wl.setup(args.seed, args.workdir)
    setup_s = perf_counter() - T0
    library = Path(sys.modules["ostrowski_frac"].__file__).resolve()
    if SRC not in library.parents:
        raise SystemExit(f"benchmarking {library}, not the library under {SRC}")

    sampler = SpeedSampler()
    sampler.start()
    tracer = Tracer().install() if args.trace else None
    start = perf_counter()
    try:
        result = wl.run(state)
    finally:
        end = perf_counter()
        if tracer is not None:
            tracer.restore()
        sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {
        "wall_s": sampler.reference_seconds(start, end),
        "setup_s": setup_s * REF_KERNEL_S / sampler.before,
        "raw_wall_s": end - start,
        "raw_setup_s": setup_s,
        "speed_samples": len(sampler.samples),
        "peak_rss_mb": peak_rss_mb,
        "attempted": wl.ops_per_pass,
    }
    out.update(wl.check(state, result))
    if tracer is not None:
        # Layer times in the same reference seconds as wall_s.
        scale = out["wall_s"] / out["raw_wall_s"]
        out["layers"] = {k: v * scale if k.endswith("_s") else v
                         for k, v in layer_metrics(tracer, out["verdicts"]).items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
