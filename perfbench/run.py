"""Time-to-verdict benchmark for frobtrace.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--size full|smoke]

Runs from the root of a source checkout; nothing needs to be installed.
Each sample is one workload run in a fresh process (sample.py), so peak
memory and import time never carry over from one sample to the next.
Samples run one after another, a closed loop with a single client, with
FROBTRACE_THREADS=1 set here rather than inherited.

--trace 0 repeats the workload for about S seconds (at least MIN_SAMPLES
times) and reports the medians of the end-to-end metrics.  --trace 1
repeats rounds of an untraced sample, a traced one at one thread and a
traced one at two threads, and reports the medians of the per-layer
metrics; the two traced samples must produce bit-identical counts.  The
last line of standard output is the JSON result; metric names and units
come from BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
MIN_SAMPLES = 3        # medians need at least three samples
SETUPS_PER_SAMPLE = 1  # set-up-only processes after each timed sample
THREADS_VARIANT = 2    # nproc on the reference box; the traced thread check
RUN_LIMIT_S = 170      # every run must end within 180 s


class SampleError(RuntimeError):
    pass


def spawn(args, index, deadline, threads=1, trace=False, setup_only=False):
    """Run sample.py once and return its measurements, with setup_s and
    elapsed (the whole process's wall time) added.  Samples with another
    index run the operations in another order."""
    cmd = [sys.executable, str(HERE / "sample.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--sample", str(index), "--size", args.size]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    env = dict(os.environ, FROBTRACE_THREADS=str(threads))
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise SampleError(f"{args.workload}: sample ran past the time limit") from None
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        raise SampleError(f"{args.workload}: sample exited with code {proc.returncode}")
    rec = json.loads(lines[-1])
    rec["setup_s"] = rec.pop("loaded") - started
    rec["elapsed"] = time.perf_counter() - started
    return rec


def _more(done, start, seconds, at_least):
    """Start another sample while one more still fits in the run."""
    if len(done) < at_least:
        return True
    return time.perf_counter() + done[-1]["elapsed"] <= start + seconds


def _tally(samples):
    return (sum(s["attempted"] for s in samples),
            sum(s["failed"] for s in samples))


def timed_run(args, start, deadline):
    samples, setups = [], []
    while _more(samples, start, args.seconds, MIN_SAMPLES):
        samples.append(spawn(args, len(samples), deadline))
        setups.append(samples[-1]["setup_s"])
        # Set-up alone, spread over the run rather than bunched at its end.
        setups += [spawn(args, 0, deadline, setup_only=True)["setup_s"]
                   for _ in range(SETUPS_PER_SAMPLE)]
    metrics = {name: statistics.median(s[name] for s in samples)
               for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setups)
    return metrics, _tally(samples), {"samples": samples, "setup_samples": setups}


def traced_run(args, start, deadline):
    rounds, samples = [], []
    while _more(rounds, start, args.seconds, 1):
        t0 = time.perf_counter()
        # The three samples of a round run the operations in one order.
        base = spawn(args, len(rounds), deadline)
        one = spawn(args, len(rounds), deadline, trace=True)
        two = spawn(args, len(rounds), deadline, threads=THREADS_VARIANT, trace=True)
        samples += [base, one, two]
        # Thread check: the same counts, in the same order, at two threads.
        c1, c2 = one["counts"], two["counts"]
        checked = max(len(c1), len(c2))
        same = sum(a == b for a, b in zip(c1, c2))
        samples.append({"thread_check": True, "attempted": checked,
                        "failed": checked - same})
        layers = dict(one["layers"])
        t2 = two["layers"]["counting.self_s"]
        layers["counting.threads2_speedup"] = (
            one["layers"]["counting.self_s"] / t2 if t2 else 0.0)
        layers["trace.overhead_frac"] = one["wall_s"] / base["wall_s"] - 1
        rounds.append({"elapsed": time.perf_counter() - t0, "layers": layers})
    metrics = {name: statistics.median(r["layers"][name] for r in rounds)
               for name in rounds[0]["layers"]}
    return metrics, _tally(samples), {"rounds": rounds, "samples": samples}


def host_facts(trace):
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "commit": commit,
            "frobtrace_threads": [1, THREADS_VARIANT] if trace else [1]}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "frobtrace" / "__init__.py").is_file():
        print(f"perfbench: no frobtrace source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}

    start = time.perf_counter()
    run = traced_run if args.trace else timed_run
    try:
        metrics, (attempted, failed), detail = run(args, start, start + RUN_LIMIT_S)
    except SampleError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    if set(metrics) != set(wanted):
        print(f"perfbench: measured {sorted(metrics)}, BENCHMARK.json names "
              f"{sorted(wanted)}", file=sys.stderr)
        return 1
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in wanted.items()}}

    OUT_DIR.mkdir(exist_ok=True)
    report = {"args": vars(args), "host": host_facts(args.trace),
              "result": result, **detail}
    name = f"result-{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"host": report["host"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
