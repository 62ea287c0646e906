"""Capture the pinned outputs every benchmark run is checked against.

    python3 perfbench/capture.py

Run it only on a commit whose outputs are known to be right (they were
captured at commit 93f9727).  For each size and workload it runs the
operations once with FROBTRACE_THREADS=1 and tracing on, and writes their
outputs and every count per (variety, p, degree, twist) to
perfbench/pinned/<size>.json.  It also checks that the betti421
manifest_result.json equals the one the `frobtrace run` command writes.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ["FROBTRACE_THREADS"] = "1"

from frobtrace import catalog  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def capture(size, outdir):
    pinned = {}
    for name in workloads.WORKLOADS:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            ops = workloads.build(name, size, 0, catalog.load_catalog(), outdir)
            _, failed, outputs = workloads.execute(ops, None)
        finally:
            tracer.uninstall()
        if failed:
            sys.exit(f"capture: {failed} operations of {name} raised")
        pinned[name] = {"outputs": outputs,
                        "counts": dict(tracing.recorded_counts(tracer.spans))}
    return pinned


def cli_manifest_result(manifest, outdir):
    """manifest_result.json as the `frobtrace` console script writes it."""
    script = "import sys; from frobtrace.cli import main; sys.exit(main())"
    subprocess.run([sys.executable, "-c", script, "run", manifest, "--out", outdir],
                   check=True, stdout=subprocess.DEVNULL,
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    return (Path(outdir) / "manifest_result.json").read_bytes().decode()


def main():
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for size in workloads.SIZES:
            pinned = capture(size, Path(tmp) / "api")
            manifest = workloads.SIZES[size]["betti_manifest"]
            if isinstance(manifest, str):
                ours = pinned["betti421"]["outputs"]["run_manifest"]
                theirs = cli_manifest_result(str(ROOT / manifest), str(Path(tmp) / "cli"))
                if ours["manifest_result.json"] != theirs:
                    sys.exit("capture: run_manifest and `frobtrace run` disagree")
            path = workloads.PINNED_DIR / f"{size}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
            print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
