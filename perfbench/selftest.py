"""Tests of the benchmark itself, on the smoke-size inputs.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test collection;
naming the file on the command line runs it.  Each smoke run goes through
the same sample processes, pinned-output checks and tracing as a full run.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, bench=ROOT):
    return subprocess.run(
        [sys.executable, str(bench / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_is_correct_and_names_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if trace:
        frac = result["metrics"]["trace.top_level_frac"]["value"]
        assert 0.9 < frac <= 1.0


def test_mismatch_and_exception_count_as_failed_and_the_workload_continues():
    def boom(ctx):
        raise ValueError("boom")
    ops = [workloads.Op("raises", boom),
           workloads.Op("wrong", lambda ctx: 1),
           workloads.Op("right", lambda ctx: {"k": (1, 2)})]
    attempted, failed, outputs = workloads.execute(
        ops, {"raises": 0, "wrong": 2, "right": {"k": [1, 2]}})
    assert (attempted, failed) == (3, 2)
    assert outputs == {"wrong": 1, "right": {"k": [1, 2]}}


def test_seed_permutes_only_the_order():
    from frobtrace import catalog
    cat = catalog.load_catalog()
    a = workloads.build("newform", "smoke", 1, cat, ROOT / ".bench_out")
    b = workloads.build("newform", "smoke", 2, cat, ROOT / ".bench_out")
    assert a[0].key == b[0].key == "f25"
    assert sorted(op.key for op in a) == sorted(op.key for op in b)
    assert [op.key for op in a] != [op.key for op in b]


def test_tracer_sees_by_value_imports_and_uninstalls():
    from frobtrace import catalog, cli
    original = catalog.singular_points
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.singular_points is catalog.singular_points is not original
        cat = cli.load_catalog()
        cli.singular_points(cat.variety("e_plane"), 11)
    finally:
        tracer.uninstall()
    assert catalog.singular_points is original is cli.singular_points
    names = [s.name for s in tracer.spans]
    assert "catalog.load_catalog" in names and "catalog.singular_points" in names


def test_self_time_subtracts_children():
    S = tracing.Span
    spans = [S(2, 1, "counting.check_preserves", 20, 30, None),
             S(1, 0, "cli.match_quotient", 10, 110, None),
             S(3, 0, "livne.check_cover", 120, 150, None)]
    m = tracing.layer_metrics(spans, 0, 200)
    assert m["cli.self_s"] == pytest.approx(90e-9)
    assert m["counting.self_s"] == pytest.approx(10e-9)
    assert m["livne.cover_s"] == pytest.approx(30e-9)
    assert m["trace.top_level_frac"] == pytest.approx(130 / 200)


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("betti421", 0, cwd=tmp_path, bench=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
