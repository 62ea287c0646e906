import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import frobtrace
from frobtrace.cli import (betti_report, main, quotient_resolved_count,
                           run_manifest)
from frobtrace.errors import RefusalError, ValidationError
from frobtrace.lefschetz import read_trace_table

QUOTIENT_COUNTS = {3: (60, 3), 7: (520, 3), 11: (11308, 75), 13: (3084, 5),
                   17: (6302, 5), 31: (104088, 75)}


def test_quotient_resolved_counts():
    for p, want in QUOTIENT_COUNTS.items():
        assert quotient_resolved_count(p) == want


def test_quotient_refusals():
    with pytest.raises(RefusalError):
        quotient_resolved_count(5)
    with pytest.raises(RefusalError):
        quotient_resolved_count(19)     # 4 mod 5: node pairs not rational


def test_betti_report_shrinks_with_p():
    # at full-splitting primes the window of admissible pairs narrows
    c11 = betti_report(11, 168, adjusted=True)["candidates"]
    c31 = betti_report(31, 168, adjusted=True)["candidates"]
    c101 = betti_report(101, 168, adjusted=True)["candidates"]
    assert c11 == [{"b2": 85, "b3": 4}, {"b2": 86, "b3": 6},
                   {"b2": 87, "b3": 8}, {"b2": 88, "b3": 10}]
    assert c31 == c101 == [{"b2": 85, "b3": 4}]
    for small, big in ((c101, c31), (c31, c11)):
        assert all(c in big for c in small)


def test_betti_report_small_prime_caveat():
    rep = betti_report(3, 168)
    assert not rep["unique"]
    assert rep["candidates"] == []
    assert not rep["full_splitting_congruence"]
    assert "not Frobenius-invariant" in rep["note"]


def test_exit_codes(capsys):
    assert main(["count", "--variety", "schoen_x", "--p", "10"]) == 1
    assert main(["count", "--variety", "schoen_quotient", "--p", "3",
                 "--degree", "2"]) == 1
    assert main(["trace", "--variety", "schoen_x", "--p", "5", "--b2", "1"]) == 2
    assert main(["livne", "--bad-primes", "2,5",
                 "--check-set", "3,7,11"]) == 3
    assert main(["livne", "--bad-primes", "2,5",
                 "--check-set", "3,7,11,13,17,29,31"]) == 0
    capsys.readouterr()


def test_count_command(capsys):
    assert main(["count", "--variety", "schoen_x", "--p", "7"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 401
    assert doc["variety_id"] == "schoen_x"


def test_ap_command(capsys):
    assert main(["ap", "--form", "f25", "--p", "11"]) == 0
    assert json.loads(capsys.readouterr().out)["ap"] == -43
    assert main(["ap", "--p", "13"]) == 0
    assert json.loads(capsys.readouterr().out)["ap"] == 4


def test_eta_command(capsys):
    assert main(["eta", "--m", "1", "--terms", "10"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lead_num"] == 1
    assert doc["coeffs"][0] == 1


def test_catalog_command(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "schoen_x" in out and "iota_y" in out


def test_betti_command_with_count(capsys):
    assert main(["betti", "--p", "421", "--chi", "168",
                 "--count", "89735308"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["unique"] and doc["candidates"] == [{"b2": 85, "b3": 4}]


def test_match_command_csv(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    out_path = tmp_path / "report.json"
    assert main(["match", "--variety", "schoen_x", "--primes", "3,7",
                 "--calibration-prime", "11",
                 "--csv-out", str(csv_path), "--out", str(out_path)]) == 0
    capsys.readouterr()
    with open(csv_path) as fh:
        table = read_trace_table(fh, "schoen_x")
    assert [r.p for r in table.rows] == [3, 7, 11]
    assert all(r.match for r in table.rows)
    doc = json.loads(out_path.read_text())
    assert doc["overall"] and doc["calibrated"]["b2"] == 25


def test_livne_traces_flag_validation(capsys):
    assert main(["livne", "--bad-primes", "2,5", "--check-set", "3,7",
                 "--traces1", "x.csv"]) == 1
    capsys.readouterr()


def test_run_manifest_inline(tmp_path):
    manifest = {
        "id": "smoke",
        "operations": [
            {"op": "count", "variety": "schoen_x", "p": 7},
            {"op": "euler", "ledger": "quotient", "expect_final": 168},
            {"op": "betti", "p": 3, "chi": 168, "expect_unique": False},
            {"op": "livne", "bad_primes": [2, 5],
             "check_set": [3, 7, 11, 13, 17, 29, 31]},
        ],
    }
    doc, ok = run_manifest(manifest, outdir=str(tmp_path / "a"))
    assert ok and doc["ok"]
    assert doc["results"][0]["record"]["count"] == 401
    assert "wall_time" not in doc["results"][0]["record"]
    run_manifest(manifest, outdir=str(tmp_path / "b"))
    first = (tmp_path / "a" / "manifest_result.json").read_bytes()
    second = (tmp_path / "b" / "manifest_result.json").read_bytes()
    assert first == second


def test_run_manifest_failed_expectation(tmp_path):
    manifest = {"id": "bad", "operations": [
        {"op": "euler", "ledger": "quotient", "expect_final": 167}]}
    doc, ok = run_manifest(manifest)
    assert not ok
    assert doc["results"][0]["failed"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(manifest))
    assert main(["run", str(path)]) == 3


def test_run_manifest_unknown_op():
    with pytest.raises(ValidationError):
        run_manifest({"operations": [{"op": "teleport"}]})


def _run_module(*args, module="frobtrace"):
    """Run ``python -m MODULE ARGS`` in a child process that imports the
    same frobtrace package as this test, installed or not."""
    env = dict(os.environ)
    src = str(Path(frobtrace.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", module, *args],
                          capture_output=True, text=True, env=env)


def test_console_script_smoke():
    for module in ("frobtrace", "frobtrace.cli"):
        res = _run_module("ap", "--form", "f25", "--p", "3", module=module)
        assert res.returncode == 0
        assert json.loads(res.stdout)["ap"] == 7
        assert "RuntimeWarning" not in res.stderr
    # main()'s return code reaches the shell: 5 is a bad prime, a refusal
    res = _run_module("trace", "--variety", "schoen_x", "--p", "5",
                      "--b2", "25")
    assert res.returncode == 2


def test_console_script_entry_point():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["frobtrace"] == "frobtrace.cli:main"


@pytest.mark.skipif(shutil.which("frobtrace") is None,
                    reason="frobtrace console script not on PATH")
def test_installed_console_script():
    res = subprocess.run(["frobtrace", "ap", "--form", "f25", "--p", "3"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    assert json.loads(res.stdout)["ap"] == 7
