import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import frobtrace
from frobtrace import cli, qexp
from frobtrace.cli import (DISC_CANDIDATES, betti_report, main, match_pipeline,
                           match_quotient, match_rigid,
                           quotient_resolved_count, run_manifest)
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


def test_quotient_refusal_names_nearest_accepted_primes(capsys):
    for p, below, above in ((19, 17, 23), (29, 23, 31), (89, 83, 97)):
        with pytest.raises(RefusalError,
                           match=rf"p = {p} refused; nearest accepted good "
                                 rf"primes: {below}, {above}$"):
            quotient_resolved_count(p)
    assert main(["match", "--variety", "schoen_quotient", "--primes", "3,19",
                 "--calibration-prime", "11"]) == 2
    assert "p = 19 refused; nearest accepted good primes: 17, 23" in \
        capsys.readouterr().err
    # a row below every good prime names the one above; as a match row,
    # -1 is not prime and exits 1 (test_exit_codes)
    with pytest.raises(RefusalError, match=r"primes: 3$"):
        quotient_resolved_count(-1)


def test_betti_count_uses_the_match_freeze():
    # the Betti count's frozen values are the quotient calibration at 11
    frozen = match_quotient([11], 11).calibrated["correction"]
    assert cli.QUOTIENT_FROZEN == (frozen["splitting_discriminant"],
                                   frozen["gated_classes"])
    for p in (3, 7, 11, 13, 31):
        row = next(r for r in match_quotient([p], 11).rows if r.p == p)
        assert quotient_resolved_count(p) == (row.n_p, row.b2)
    for p0 in (11, 31, 41):
        for rep, gated in ((match_rigid("schoen_x", [p0], p0), 24),
                           (match_quotient([p0], p0), 12)):
            frozen = rep.calibrated["correction"]
            assert frozen["splitting_discriminant"] == 5, (p0, rep.variety_id)
            assert frozen["gated_classes"] == gated, (p0, rep.variety_id)


def test_calibration_refuses_when_gated_classes_are_invisible(capsys):
    # gated classes are Frobenius invariant only at p = 1 mod 5, so a
    # calibration elsewhere cannot fix them for the rows that need them
    for variety in ("schoen_x", "schoen_quotient"):
        assert main(["match", "--variety", variety, "--primes", "3,7,11",
                     "--calibration-prime", "3"]) == 2
        assert "such as 11" in capsys.readouterr().err
        assert main(["match", "--variety", variety, "--primes", "3,7,13",
                     "--calibration-prime", "3"]) == 0
        capsys.readouterr()


def test_failed_calibration_says_why():
    with pytest.raises(ValidationError) as err:
        match_rigid("schoen_x", [3, 7, 11], 11, nform=qexp.eta(1, 40))
    msg = str(err.value)
    assert all(f"D={d}: " in msg for d in DISC_CANDIDATES), msg
    assert msg.count("is not an integer") == 5
    # the other three reasons, at p0 = 5 with a count of 156 and one node:
    # D = -1 gives t3 = -5 before any gated class, D = 2 and -2 give 5
    counts = cli._Counts(156, 1, 1)
    with pytest.raises(ValidationError) as err:
        cli._calibrate(cli._RIGID, 5, counts, 25)
    msg = str(err.value)
    assert "D=5: p=5 divides D" in msg and "D=-5: p=5 divides D" in msg
    assert "D=-1: 1 gated classes at p=5, which is not 1 mod 5" in msg
    assert "D=2: b2 = 50/30 is not an integer" in msg
    with pytest.raises(ValidationError, match="D=-1: b2 = 0 is below the "
                                              "base 1"):
        cli._calibrate(cli._RIGID, 5, counts, -35)


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
    for p in ("0", "1", "4"):
        assert main(["ap", "--form", "f25", "--p", p]) == 1, p
    # refused before any of the p + 1 coefficients is expanded
    assert main(["ap", "--form", "f25", "--p", "1000003"]) == 2
    # a composite row is a bad input, whatever refusal its residue would meet
    for row in ("9", "-1"):
        assert main(["match", "--variety", "schoen_quotient", "--primes", row,
                     "--calibration-prime", "11"]) == 1, row
    assert main(["match", "--variety", "schoen_x", "--primes", "21",
                 "--calibration-prime", "7"]) == 1
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
    assert main(["ap", "--form", "f25", "--p", "101"]) == 0
    assert json.loads(capsys.readouterr().out)["ap"] == 1302
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


def test_match_pipeline_rows_and_companions():
    # a repeated prime gives one row, whether or not p0 is in the list
    for primes in ([3, 3, 11], [3, 3, 7]):
        rep = match_pipeline("schoen_x", "f25", None, primes, 11)
        assert [r.p for r in rep.rows] == sorted(set(primes) | {11})
    assert match_pipeline("schoen_x", "f25", "", [3], 11).overall
    with pytest.raises(ValidationError, match="no companion factor expected"):
        match_pipeline("schoen_x", "f25", "e_plane", [3], 11)
    with pytest.raises(ValidationError, match="unsupported companion ''"):
        match_pipeline("schoen_quotient", "f25", "", [3], 11)


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
