"""One benchmark sample in a fresh process: set up, run one workload once,
check its outputs and print the measurements as one JSON line.

    python3 perfbench/sample.py --workload W --seed N [--sample I]
                                [--size full|smoke] [--trace] [--setup-only]

Set-up is the numpy and frobtrace imports plus load_catalog; the line
reports the perf_counter reading at its end so that the parent, which
noted the reading when it started this process, can tell the set-up time.
FROBTRACE_THREADS is taken from the environment the parent gives.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--sample", type=int, default=0,
                    help="index of the sample in its run; with the seed it "
                         "picks the order of the operations")
    ap.add_argument("--size", default="full")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # Set-up: what every frobtrace user pays before the first call.
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401
    import frobtrace
    from frobtrace import catalog
    if Path(frobtrace.__file__).resolve().parent != ROOT / "src" / "frobtrace":
        sys.exit(f"perfbench: imported frobtrace from {frobtrace.__file__}, "
                 f"not from {ROOT / 'src'}")
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    cat = catalog.load_catalog()
    loaded = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"loaded": loaded}))
        return 0

    import workloads
    OUT_DIR.mkdir(exist_ok=True)
    outdir = OUT_DIR / f"{args.workload}-{args.size}"
    ops = workloads.build(args.workload, args.size, f"{args.seed}/{args.sample}",
                          cat, outdir)
    pinned = workloads.load_pinned(args.size)[args.workload]

    cpu0, start_ns = time.process_time(), time.perf_counter_ns()
    attempted, failed, _ = workloads.execute(ops, pinned["outputs"])
    end_ns, cpu1 = time.perf_counter_ns(), time.process_time()

    threads = os.environ.get("FROBTRACE_THREADS")
    out = {"loaded": loaded, "threads": threads,
           "wall_s": (end_ns - start_ns) * 1e-9, "cpu_s": cpu1 - cpu0,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        counts = tracing.recorded_counts(tracer.spans)
        for key, value in counts:
            attempted += 1
            failed += not workloads.check(key, value, pinned["counts"])
        out["counts"] = counts
        out["layers"] = tracing.layer_metrics(tracer.spans, start_ns, end_ns)
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.size}-t{threads}.jsonl")
    out["attempted"], out["failed"] = attempted, failed
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
