import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import frobtrace
from frobtrace import catalog, cli, counting, lefschetz, qexp
from frobtrace.cli import (betti_report, main, match_pipeline, match_quotient,
                           match_rigid, quotient_resolved_count, run_manifest)
from frobtrace.errors import RefusalError, ValidationError
from frobtrace.ffield import kronecker

QUOTIENT_COUNTS = {3: (60, 3), 7: (520, 3), 11: (11308, 75), 13: (3084, 5),
                   17: (6302, 5), 31: (104088, 75)}


def test_quotient_resolved_counts():
    for p, want in QUOTIENT_COUNTS.items():
        assert quotient_resolved_count(p) == want


def test_quotient_reads_the_companion_without_a_scan(monkeypatch):
    # #E(F_p), its rational nodes and a_p(E) come from e_plane's declared
    # normalization: no nodal_curve, no elliptic_ap and no node scan
    want = (match_quotient([3, 7, 13], 11), quotient_resolved_count(31))

    def scan(*args, **kwargs):
        raise AssertionError("the companion curve was scanned")

    monkeypatch.setattr(cli, "singular_points", scan)
    monkeypatch.setattr(lefschetz, "elliptic_ap", scan)
    monkeypatch.setattr(lefschetz, "nodal_curve", scan)
    monkeypatch.setattr(lefschetz, "_singular_scan", scan)
    monkeypatch.setattr(catalog, "_singular_scan", scan)
    assert (match_quotient([3, 7, 13], 11), quotient_resolved_count(31)) == want
    # every target is a_p(f25) + p a_p(E), with a_p(E) = -1, -2, -3, 4
    f = qexp.f25(13)
    assert [r.candidate_ap for r in want[0].rows] == [
        qexp.coefficient(f, p) + p * ap
        for p, ap in ((3, -1), (7, -2), (11, -3), (13, 4))]


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
    # -1 is not prime: bad input before any residue test, as a match row
    # and as a Betti prime (test_exit_codes)
    with pytest.raises(ValidationError, match="not prime"):
        quotient_resolved_count(-1)


def test_betti_count_uses_the_match_freeze():
    # the Betti count's gated classes are the quotient calibration at 11,
    # and its D is the one schoen_quotient declares, as the match's is
    frozen = match_quotient([11], 11).calibrated["correction"]
    assert cli.QUOTIENT_FROZEN == frozen["gated_classes"] == 12
    known = catalog.load_catalog().variety("schoen_quotient").known
    assert frozen["splitting_discriminant"] == \
        known["splitting_discriminant"] == 5
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


def test_failed_calibration_says_why(monkeypatch):
    # targets read from eta(z) in place of f25: no number of gated classes
    # fits at 11 under the declared D, and the error names D and the reason
    monkeypatch.setattr(qexp, "f25", lambda n: qexp.eta(1, 40))
    with pytest.raises(ValidationError, match=r"^calibration at p=11 under "
                       r"the declared D=5 admits no integer solution: "
                       r"b2 = 3343/132 is not an integer$"):
        match_rigid("schoen_x", [3, 7, 11], 11)
    # the other two reasons, at p0 = 3 with a count of 43 and one node:
    # D = 5 gives t3 = 0 before any gated class, and each class adds 12
    counts = cli._Counts(43, 1, 1)
    assert cli._calibrate(cli._RIGID, 5, 3, counts, 0) == 0
    for target, why in ((12, "1 gated classes at p=3, which is not 1 mod 5"),
                        (-12, "b2 = 0 is below the base 1"),
                        (5, "b2 = 17/12 is not an integer")):
        with pytest.raises(ValidationError, match=rf"D=5 admits no integer "
                                                  rf"solution: {why}$"):
            cli._calibrate(cli._RIGID, 5, 3, counts, target)
    # at a prime dividing D the node correction refuses
    with pytest.raises(ValidationError, match="divisible by p=5"):
        cli._calibrate(cli._RIGID, 5, 5, cli._Counts(156, 1, 1), 25)


def test_a_wrong_declared_discriminant_fails_the_matches():
    # D = -2 is a catalog edit that still calibrates at 11, with 24 and 12
    # gated classes; the rows where kronecker(-2, p) != kronecker(5, p) at
    # a rational node then disagree with f25
    doc = catalog._catalog_doc()          # a fresh parse to edit
    for v in doc["varieties"]:
        if v["id"] in cli._MODELS:
            v["known"]["splitting_discriminant"] = -2
    cat = catalog.catalog_from_json(doc)
    for rep, gated, wrong in (
            (match_rigid("schoen_x", [3, 7, 13, 17, 19, 23, 29, 31], 11,
                         cat=cat), 24, [3, 17, 29, 31]),
            (match_quotient([3, 7, 13, 17, 31, 41, 61], 11, cat=cat),
             12, [17, 31, 61])):
        assert rep.calibrated["correction"]["splitting_discriminant"] == -2
        assert rep.calibrated["correction"]["gated_classes"] == gated
        assert not rep.overall
        assert [r.p for r in rep.rows if not r.equal] == wrong


def test_a_missing_declared_discriminant_is_a_validation_error():
    # the matches and the Betti count read D through one helper, which
    # names the variety and the key when D is absent or known is null,
    # before any count is made
    doc = catalog._catalog_doc()          # a fresh parse to edit
    for v in doc["varieties"]:
        if v["id"] == "schoen_x":
            del v["known"]["splitting_discriminant"]
        if v["id"] == "schoen_quotient":
            v["known"] = None
    cat = catalog.catalog_from_json(doc)
    for run, vid in ((lambda: match_rigid("schoen_x", [3], 11, cat=cat),
                      "schoen_x"),
                     (lambda: match_quotient([3], 11, cat=cat),
                      "schoen_quotient"),
                     (lambda: quotient_resolved_count(3, cat=cat),
                      "schoen_quotient")):
        with pytest.raises(ValidationError, match=f"^{vid} declares no "
                           r"integer known\.splitting_discriminant \(None\)$"):
            run()


def test_a_missing_resolved_b2_is_a_validation_error(monkeypatch):
    # the adjusted Betti count reads schoen_quotient's resolved_b2 through
    # the same helper as D, before any count; the unadjusted one reads none
    doc = catalog._catalog_doc()          # a fresh parse to edit
    quotient = next(v for v in doc["varieties"]
                    if v["id"] == "schoen_quotient")
    for value in (None, True):
        quotient["known"]["resolved_b2"] = value
        cat = catalog.catalog_from_json(doc)
        assert quotient_resolved_count(31, cat=cat) == \
            quotient_resolved_count(31)
        counted = []
        with monkeypatch.context() as m:
            m.setattr(cli, "_quotient_counts", lambda *a: counted.append(a))
            for run in (lambda: quotient_resolved_count(31, True, cat),
                        lambda: betti_report(31, 168, True, cat)):
                with pytest.raises(ValidationError, match=(
                        r"^schoen_quotient declares no integer known\."
                        rf"resolved_b2 \({value}\)$")):
                    run()
        assert counted == []


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


def test_exit_codes(capsys, tmp_path):
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
    # composite primes that p = 4 mod 5 would otherwise refuse
    for p in ("9", "4"):
        assert main(["betti", "--p", p, "--chi", "168"]) == 1, p
    for p in ("9", "0"):
        assert main(["betti", "--p", p, "--chi", "168",
                     "--count", "1000"]) == 1, p
    # 8e9 cells, refused before any slab is built
    assert main(["count", "--variety", "double_octic_template",
                 "--p", "2003"]) == 1
    assert main(["livne", "--bad-primes", "2,5",
                 "--check-set", "3,7,11"]) == 3
    assert main(["livne", "--bad-primes", "2,5",
                 "--check-set", "3,7,11,13,17,29,31"]) == 0
    capsys.readouterr()
    # malformed input from outside gets an error line naming the bad field
    assert main(["match", "--variety", "schoen_x", "--primes", "3,x",
                 "--calibration-prime", "11"]) == 1
    traces = tmp_path / "traces.csv"
    traces.write_text("p,trace\n3,abc\n")
    assert main(["livne", "--bad-primes", "2,5", "--check-set", "3,7",
                 "--traces1", str(traces), "--traces2", str(traces)]) == 1
    manifest = tmp_path / "no_p.json"
    manifest.write_text(json.dumps(
        {"operations": [{"op": "count", "variety": "schoen_x"}]}))
    assert main(["run", str(manifest)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all(e.startswith("error: ") for e in err)
    assert "--primes" in err[0] and "'3,abc'" in err[1] and "'p'" in err[2]
    # a row needs exactly two fields, and each p appears once
    for body in ("p,trace\n3,1,2\n", "p,trace\n3,1\n3,1\n"):
        traces.write_text(body)
        assert main(["livne", "--bad-primes", "2,5", "--check-set", "3",
                     "--traces1", str(traces), "--traces2", str(traces)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and "'3,1,2'" in err[0] and "p=3 appears twice" in err[1]
    # a missing file or one that is not JSON, and fields or documents of
    # the wrong type
    missing = str(tmp_path / "nope.csv")
    assert main(["run", str(tmp_path / "nonexistent.json")]) == 1
    assert main(["livne", "--bad-primes", "2,5", "--check-set", "3",
                 "--traces1", missing, "--traces2", missing]) == 1
    manifest.write_text('{"operations": [')
    assert main(["run", str(manifest)]) == 1
    assert main(["euler", "--moves", "[[\"base_chi\""]) == 1
    # each with the field it names in its error line
    torus = {"op": "torus_count", "a": [1] * 5, "t": 25, "p": 7}
    compare = {"op": "livne", "bad_primes": [2, 5], "check_set": [3],
               "traces1": {"3": 2}, "traces2": {"3": 2}}
    wrong_fields = [
        ({**torus, "a": 5}, "a = 5"),
        ({**torus, "a": ["1", 1, 1, 1, 1]}, "a = ['1'"),
        ({**torus, "t": "25"}, "t = '25'"),
        ({**torus, "a": [True, 1, 1, 1, 1]}, "a = [True,"),
        ({**torus, "t": True}, "t = True"),
        ({"op": "betti", "p": 3, "chi": True}, "chi True is not an integer"),
        ({"op": "euler", "moves": 5}, "moves 5"),
        ({"op": "euler", "moves": [["base_chi", 5]]}, "moves [['base_chi', 5]]"),
        ({**compare, "bad_primes": 5}, "bad_primes 5"),
        ({**compare, "traces1": {"x": 2}}, "traces1 {'x': 2}"),
        ({**compare, "traces1": [1]}, "traces1 [1]"),
        # JSON's true is no integer, as a trace, a ledger argument or a prime
        ({**compare, "traces1": {"3": True}}, "traces1 {'3': True}"),
        ({"op": "euler", "moves": [["base_chi", [True]],
                                   ["contract_nodes", [True]]]},
         "moves [['base_chi', [True]]"),
        ({**compare, "check_set": [True, 3]}, "check_set [True, 3]")]
    for doc in ({"operations": [{"op": "count", "variety": "schoen_x",
                                 "p": "7"}]},
                [1, 2], {"operations": [5]}, {"operations": 5},
                {"operations": [{"op": "betti", "p": 3, "chi": "168"}]},
                {"operations": [{"op": "match", "variety": "schoen_x",
                                 "primes": 3, "calibration_prime": 11}]},
                {"operations": [{"op": "match", "variety": "schoen_x",
                                 "primes": ["3"], "calibration_prime": 11}]},
                *({"operations": [op]} for op, _ in wrong_fields)):
        manifest.write_text(json.dumps(doc))
        assert main(["run", str(manifest)]) == 1, doc
    for moves in ("5", '[["base_chi"]]'):
        assert main(["euler", "--moves", moves]) == 1, moves
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 27 and all(e.startswith("error: ") for e in err)
    assert "nonexistent.json" in err[0] and "nope.csv" in err[1]
    assert "Expecting" in err[2] and "Expecting" in err[3]
    assert "'7' is not an integer" in err[4]
    assert all("list of op objects" in e for e in err[5:8])
    assert "chi '168' is not an integer" in err[8]
    assert "primes 3 is not a list" in err[9] and "'3' is not" in err[10]
    for e, named in zip(err[11:], [n for _, n in wrong_fields] + ["--moves"] * 2):
        assert named in e, (named, e)


def test_expansions_share_one_bound(monkeypatch, capsys):
    # eta --form, eta --m and ap --form refuse more than _MAX_TERMS
    # coefficients before expanding any, and accept the bound itself
    def expand(*args):
        raise AssertionError("expanded")

    monkeypatch.setattr(qexp, "f25", expand)
    monkeypatch.setattr(qexp, "eta", expand)
    bound = cli._MAX_TERMS
    over = [["eta", "--form", "f25", "--terms", str(bound + 1)],
            ["eta", "--m", "3", "--terms", str(bound + 1)],
            ["ap", "--form", "f25", "--p", "1000003"]]
    for args in over:
        assert main(args) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("refused: ") and \
            err.endswith(f"over the bound {bound}\n"), err
    for args in (["eta", "--form", "f25", "--terms", str(bound)],
                 ["eta", "--m", "3", "--terms", str(bound)],
                 ["ap", "--form", "f25", "--p", "999983"]):
        with pytest.raises(AssertionError, match="expanded"):
            main(args)


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
    # a_{p^2} and the trace over F_{p^2} differ, so --form takes no degree
    assert main(["ap", "--form", "f25", "--p", "7", "--degree", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ap --form reads no --degree")


def test_ap_reads_the_declared_normalization(capsys, monkeypatch):
    # at an odd good prime, ap --variety reads a declared normalization in
    # O(p) (lefschetz.declared_curve) and runs no node search, over F_{p^2}
    # too, where a_{p^2} = a_p^2 - 2p
    scans = []
    scan = lefschetz.nodal_curve
    monkeypatch.setattr(lefschetz, "nodal_curve",
                        lambda *a: scans.append(a) or scan(*a))
    ep = catalog.load_catalog().variety("e_plane")
    assert main(["ap", "--variety", "e_plane", "--p", "101"]) == 0
    assert json.loads(capsys.readouterr().out)["ap"] == -18 == \
        scan(ep, 101).ap
    assert not scans
    assert main(["ap", "--variety", "e_plane", "--p", "7", "--degree", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["ap"] == -10 == \
        scan(ep, 7, 2).ap
    assert not scans
    # 3999971, the largest prime the Weierstrass budget accepts, in a few
    # seconds (the scan ran for minutes there); 4000037 is refused naming it
    res = _run_module("ap", "--variety", "e_plane", "--p", "3999971",
                      timeout=20)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["ap"] == 1767
    res = _run_module("ap", "--variety", "e_plane", "--p", "4000037",
                      timeout=20)
    assert res.returncode == 1 and res.stdout == ""
    assert "the largest prime it accepts is 3999971" in res.stderr


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


def test_betti_count_refuses_the_flags_it_does_not_read(capsys):
    # with --count the solver reads p, chi and the count alone: --variety
    # and --adjusted are invalid input, named on one error line
    count = ["betti", "--p", "421", "--chi", "168", "--count", "89735308"]
    for extra, named in ((["--variety", "hm_quintic"], "--variety"),
                         (["--variety", "schoen_quotient"], "--variety"),
                         (["--adjusted"], "--adjusted"),
                         (["--variety", "hm_quintic", "--adjusted"],
                          "--variety or --adjusted")):
        assert main(count + extra) == 1, extra
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"error: betti --count reads no {named}; "
                                    "it solves for the given count alone"]
    # without --count, --variety still defaults to schoen_quotient
    code, doc = _printed(capsys, ["betti", "--p", "31", "--chi", "168",
                                  "--variety", "schoen_quotient"])
    assert code == 0 and doc == _printed(
        capsys, ["betti", "--p", "31", "--chi", "168"])[1]
    assert doc["variety_id"] == "schoen_quotient"


def test_match_command_csv(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    out_path = tmp_path / "report.json"
    assert main(["match", "--variety", "schoen_x", "--primes", "3,7",
                 "--calibration-prime", "11",
                 "--csv-out", str(csv_path), "--out", str(out_path)]) == 0
    capsys.readouterr()
    with open(csv_path, newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == ["p", "N_p", "b2", "correction", "t3", "candidate_ap",
                        "match"]
    assert table[1] == ["3", "36", "1", "-3", "7", "7", "true"]
    assert [r[0] for r in table[1:]] == ["3", "7", "11"]
    assert all(r[6] == "true" for r in table[1:])
    assert csv_path.read_bytes().startswith(b"p,N_p,b2,")
    assert csv_path.read_bytes().endswith(b",true\r\n")
    doc = json.loads(out_path.read_text())
    assert doc["overall"] and doc["calibrated"]["b2"] == 25
    assert [[r["p"], r["n_p"], r["b2"], r["correction"], r["t3"],
             r["candidate_ap"], str(r["equal"]).lower()] for r in doc["rows"]
            ] == [[int(x) for x in r[:6]] + [r[6]] for r in table[1:]]


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


def test_livne_traces_flag_validation(capsys, tmp_path):
    # either traces file without the other is an error naming the missing
    # one, before any file is opened or the cover is checked
    for given, missing in (("--traces1", "--traces2"),
                           ("--traces2", "--traces1")):
        assert main(["livne", "--bad-primes", "2,5",
                     "--check-set", "3,7,11,13,17,29,31",
                     given, str(tmp_path / "nonexistent.csv")]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {given} needs {missing}\n"
    # and so in a manifest: a livne op with one traces field
    compare = {"op": "livne", "bad_primes": [2, 5],
               "check_set": [3, 7, 11, 13, 17, 29, 31]}
    manifest = tmp_path / "one_side.json"
    for given, missing in (("traces1", "traces2"), ("traces2", "traces1")):
        op = {**compare, given: {"3": 2}}
        with pytest.raises(ValidationError, match=f"no field '{missing}'"):
            run_manifest({"operations": [op]})
        manifest.write_text(json.dumps({"operations": [op]}))
        assert main(["run", str(manifest)]) == 1
        assert f"'{missing}'" in capsys.readouterr().err


def test_match_needs_a_check_row(tmp_path, capsys):
    # the calibration row is no check, so a match of it alone is no match:
    # false and exit 3, the calibration itself still reported
    rep = match_rigid("schoen_x", [11], 11)
    assert [r.p for r in rep.rows] == [11] and not rep.overall
    assert rep.calibrated["correction"]["gated_classes"] == 24
    assert not match_quotient([11], 11).overall
    for primes in ("11", ""):
        assert main(["match", "--variety", "schoen_x", "--primes", primes,
                     "--calibration-prime", "11"]) == 3, primes
        assert json.loads(capsys.readouterr().out)["overall"] is False
    op = {"op": "match", "variety": "schoen_x", "primes": [],
          "calibration_prime": 11}
    doc, ok = run_manifest({"operations": [op]})
    assert not ok and not doc["ok"] and doc["results"][0]["overall"] is False
    manifest = tmp_path / "no_rows.json"
    manifest.write_text(json.dumps({"operations": [op]}))
    assert main(["run", str(manifest)]) == 3
    capsys.readouterr()


def _printed(capsys, args):
    """main(args)'s exit code and its stdout as JSON, wall times stripped."""
    code = main(args)
    return code, cli._strip_times(json.loads(capsys.readouterr().out))


def _op_result(op):
    """The result fields of one manifest op as JSON data, without "op",
    and its ok."""
    doc, ok = run_manifest({"operations": [op]})
    fields = json.loads(json.dumps(doc["results"][0]))
    del fields["op"]
    return fields, ok


def test_cli_commands_print_the_op_results(capsys, tmp_path):
    # count, twisted-count, euler, betti, match and livne run the manifest
    # op's handler: the same JSON and the same verdict
    code, out = _printed(capsys, ["twisted-count", "--variety", "schoen_y",
                                  "--involution", "iota_y", "--p", "7"])
    assert code == 0 and out["count"] == 401 and out["twist_id"] == "iota_y"
    assert {"record": out} == _op_result(
        {"op": "twisted_count", "variety": "schoen_y", "involution": "iota_y",
         "p": 7})[0]
    code, out = _printed(capsys, ["count", "--variety", "e_plane", "--p", "7",
                                  "--degree", "2"])
    assert {"record": out} == _op_result(
        {"op": "count", "variety": "e_plane", "p": 7, "degree": 2})[0]
    assert out["field_degree"] == 2
    code, out = _printed(capsys, ["euler"])
    assert code == 0 and out == {"final": 168, "checkpoints":
                                 [-200, -75, -39, -37, -42, 168]}
    assert out == _op_result({"op": "euler", "ledger": "quotient"})[0]
    moves = [["base_chi", [10]], ["contract_nodes", [4]]]
    code, out = _printed(capsys, ["euler", "--moves", json.dumps(moves)])
    assert code == 0 and out["final"] == 14
    assert out == _op_result({"op": "euler", "moves": moves})[0]
    code, out = _printed(capsys, ["betti", "--p", "31", "--chi", "168"])
    assert code == 0 and out == _op_result(
        {"op": "betti", "p": 31, "chi": 168})[0]
    code, out = _printed(capsys, ["match", "--variety", "schoen_x",
                                  "--primes", "3,7", "--calibration-prime",
                                  "11"])
    assert code == 0 and out == _op_result(
        {"op": "match", "variety": "schoen_x", "primes": [3, 7],
         "calibration_prime": 11})[0]
    # a cover check prints no signatures; the exit code is the op's verdict
    for check_set, want in (([3, 7, 11, 13, 17, 29, 31], 0), ([3, 7], 3)):
        code, out = _printed(capsys, ["livne", "--bad-primes", "2,5",
                                      "--check-set",
                                      ",".join(map(str, check_set))])
        fields, ok = _op_result({"op": "livne", "bad_primes": [2, 5],
                                 "check_set": check_set})
        assert code == want and ok == (want == 0)
        assert "signatures" in fields and "signatures" not in out
        assert out == {k: v for k, v in fields.items() if k != "signatures"}
    # traces of 2 at every prime of the cover agree; on {3, 7} the cover
    # is incomplete
    traces = {p: 2 for p in (3, 7, 11, 13, 17, 29, 31)}
    path = tmp_path / "traces.csv"
    path.write_text("p,trace\n" + "".join(f"{p},{t}\n"
                                           for p, t in traces.items()))
    for check_set, status, want in (
            ("3,7,11,13,17,29,31", "isomorphic_semisimplifications", 0),
            ("3,7", "cover_incomplete", 3)):
        code, out = _printed(capsys, ["livne", "--bad-primes", "2,5",
                                      "--check-set", check_set,
                                      "--traces1", str(path),
                                      "--traces2", str(path)])
        assert code == want and out["status"] == status
        doc = {str(p): t for p, t in traces.items()}
        assert (out, want == 0) == _op_result(
            {"op": "livne", "bad_primes": [2, 5],
             "check_set": [int(p) for p in check_set.split(",")],
             "traces1": doc, "traces2": doc})


def test_trace_command(capsys):
    code, out = _printed(capsys, ["trace", "--variety", "schoen_x",
                                  "--p", "11", "--b2", "25"])
    assert code == 0 and out == {"N_p": 3300, "b2": 25, "correction": 1375,
                                 "p": 11, "t3": -43}
    # outside the rigid pipeline the nodes come from the node scan: 6 at 7;
    # hm_quintic declares no D, so the flag gives it, and without the flag
    # the command exits 1 and names it
    args = ["trace", "--variety", "hm_quintic", "--p", "7", "--b2", "1"]
    code, out = _printed(capsys, args + ["--splitting-discriminant", "5"])
    assert code == 0 and (out["N_p"], out["correction"]) == (406, -42)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == ("error: hm_quintic declares no integer known."
                   "splitting_discriminant (None); pass "
                   "--splitting-discriminant\n")


def test_eta_form_command(capsys):
    code, out = _printed(capsys, ["eta", "--form", "f25", "--terms", "5"])
    assert code == 0 and out == {"1": 1, "2": 1, "3": 7, "4": -7, "5": 0}


def test_count_out_appends_records(capsys, tmp_path):
    out = tmp_path / "counts.jsonl"
    for args in (["count", "--variety", "schoen_x", "--p", "7"],
                 ["twisted-count", "--variety", "schoen_y", "--involution",
                  "iota_y", "--p", "7"]):
        assert main([*args, "--out", str(out)]) == 0
    printed = [json.loads(line) for line in
               capsys.readouterr().out.splitlines()]
    with open(out) as fh:
        records = counting.read_records(fh)
    assert [dataclasses.asdict(r) for r in records] == printed
    assert [(r.variety_id, r.twist_id, r.count) for r in records] == \
        [("schoen_x", None, 401), ("schoen_y", "iota_y", 401)]


def test_catalog_command_id_and_path(capsys, tmp_path):
    # --id prints the entry as catalog.json stores it
    for entry in catalog._catalog_doc()["varieties"]:
        assert main(["catalog", "--id", entry["id"]]) == 0
        assert capsys.readouterr().out == \
            json.dumps(entry, indent=1, sort_keys=True) + "\n"
    assert main(["catalog", "--id", "e_plane"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["id"] == "e_plane"
    assert doc["normalization"]["weierstrass"] == [1, 1, 1, -3, 1]
    # --path reads the catalog it names: here a copy without hm_quintic,
    # whose e_plane lists its bad primes out of order
    shipped = catalog._catalog_doc()
    shipped["varieties"] = [v for v in shipped["varieties"]
                            if v["id"] != "hm_quintic"]
    e_plane = next(v for v in shipped["varieties"] if v["id"] == "e_plane")
    e_plane["bad_primes"] = [5, 2]
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(shipped))
    assert main(["catalog", "--path", str(path)]) == 0
    out = capsys.readouterr().out
    assert "schoen_x: projective" in out and "hm_quintic" not in out
    assert "e_plane: projective, dim 1, bad primes [2, 5]" in out
    # an entry prints as written, not in a canonical form
    assert main(["catalog", "--path", str(path), "--id", "e_plane"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(e_plane, indent=1, sort_keys=True) + "\n"
    assert json.loads(out)["bad_primes"] == [5, 2]
    # an unknown id is a ValidationError of the loaded catalog
    assert main(["catalog", "--path", str(path), "--id", "hm_quintic"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown variety 'hm_quintic'\n"


def test_a_malformed_catalog_exits_1_with_a_message(capsys, tmp_path):
    # a document with no varieties, an entry with no ambient and one whose
    # dimension is no integer: each is a ValidationError naming the entry
    # and the key or value, not a KeyError or ValueError traceback
    no_ambient, word = catalog._catalog_doc(), catalog._catalog_doc()
    del next(v for v in no_ambient["varieties"]
             if v["id"] == "schoen_x")["ambient"]
    next(v for v in word["varieties"]
         if v["id"] == "e_plane")["dimension"] = "one"
    path = tmp_path / "catalog.json"
    for doc, why in (({}, "catalog: no key 'varieties'"),
                     (no_ambient, "variety 'schoen_x': no key 'ambient'"),
                     (word, "variety 'e_plane': invalid literal for int() "
                            "with base 10: 'one'")):
        path.write_text(json.dumps(doc))
        for argv in (["catalog", "--path", str(path)],
                     ["catalog", "--path", str(path), "--id", "e_plane"]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ")
            assert "Traceback" not in captured.err
            assert captured.err == f"error: {why}\n" and captured.out == ""


def test_manifest_ops_and_verdicts(tmp_path, capsys):
    torus = {"op": "torus_count", "a": [1, 1, 1, 1, 1], "t": 25, "p": 7}
    betti = {"op": "betti", "p": 3, "chi": 168, "expect_unique": True}
    cover = {"op": "livne", "bad_primes": [2, 5], "check_set": [3, 7]}
    fields, ok = _op_result(torus)
    assert ok and fields["record"]["count"] == 201
    fields, ok = _op_result(betti)
    assert not ok and fields["failed"] and not fields["unique"]
    fields, ok = _op_result(cover)
    assert not ok and not fields["complete"] and "failed" not in fields
    manifest = tmp_path / "verdicts.json"
    for op, code in ((torus, 0), (betti, 3), (cover, 3)):
        manifest.write_text(json.dumps({"operations": [op]}))
        assert main(["run", str(manifest)]) == code, op
    capsys.readouterr()


def test_rigid_rows_at_two_three_and_seven():
    # a_2, a_3 and a_7 of f25, which with a_5 = 0 fix a newform of level 25
    # below its Sturm bound; the row at 2 runs on the dense path, and its
    # one rational node gives the correction kronecker(5, 2) 2 = -2
    rep = match_rigid("schoen_x", [2, 3, 7], 11)
    rows = {r.p: (r.n_p, r.correction, r.t3) for r in rep.rows}
    assert {p: rows[p] for p in (2, 3, 7)} == {
        2: (16, -2, 1), 3: (36, -3, 7), 7: (401, -7, 6)}
    assert kronecker(5, 2) == -1
    form = qexp.f25(8)
    assert [rows[p][2] for p in (2, 3, 7)] == \
        [qexp.coefficient(form, p) for p in (2, 3, 7)]
    assert rep.overall


def test_match_rigid_refuses_other_varieties():
    # the rigid pipeline is the nodal quintic's; no other variety is
    # calibrated against f25 by it, and a bad prime of one is not reached
    for vid in ("e_plane", "hm_quintic", "consani_scholten",
                "schoen_quotient"):
        with pytest.raises(ValidationError,
                           match=f"^no match pipeline for '{vid}'"):
            match_rigid(vid, [3, 7, 13], 11)
    assert match_rigid("schoen_y", [3, 7], 11).overall


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


def test_run_manifest_betti_names_its_variety():
    op = {"op": "betti", "variety": "schoen_quotient", "p": 3, "chi": 168}
    doc, ok = run_manifest({"operations": [op]})
    assert ok and doc["results"][0]["variety_id"] == "schoen_quotient"
    with pytest.raises(ValidationError, match="'schoen_x'; use schoen_quotient"):
        run_manifest({"operations": [{**op, "variety": "schoen_x"}]})


def test_run_manifest_flags_are_typed(tmp_path, capsys):
    # booleans, integers and lists from outside are checked before use: a
    # string "false" once asserted determinant parity, as any truthy value
    compare = {"op": "livne", "bad_primes": [2, 5],
               "check_set": [3, 7, 11, 13, 17, 29, 31],
               "traces1": {str(p): 2 for p in (3, 7, 11, 13, 17, 29, 31)}}
    compare["traces2"] = compare["traces1"]
    betti = {"op": "betti", "p": 3, "chi": 168}
    euler = {"op": "euler", "ledger": "quotient"}
    doc, ok = run_manifest({"operations": [
        compare, {**compare, "dets_match_parity": False},
        {**betti, "adjusted": False, "expect_unique": False, "expect": []},
        {**euler, "expect_final": 168}]})
    assert [r.get("status") for r in doc["results"][:2]] == \
        ["isomorphic_semisimplifications", "evenness_failed"]
    assert not ok and not any(r.get("failed") for r in doc["results"])
    wrong = [({**compare, "dets_match_parity": "false"}, "dets_match_parity"),
             ({**compare, "dets_match_parity": 0}, "dets_match_parity"),
             ({**betti, "adjusted": "false"}, "adjusted"),
             ({**betti, "expect_unique": 1}, "expect_unique"),
             ({**betti, "expect": {"b2": 85}}, "expect"),
             ({**euler, "expect_final": "168"}, "expect_final"),
             ({**euler, "expect_final": True}, "expect_final")]
    manifest = tmp_path / "typed.json"
    for op, field in wrong:
        with pytest.raises(ValidationError, match=f"^{field} .* wrong type$"):
            run_manifest({"operations": [op]})
        manifest.write_text(json.dumps({"operations": [op]}))
        assert main(["run", str(manifest)]) == 1, op
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {field} "), err


def test_run_manifest_refuses_unhashable_fields():
    # a list where an id or a prime belongs is bad input, not a TypeError
    for op, why in (
            ({"op": "count", "variety": ["x"], "p": 7},
             r"unknown variety \['x'\]"),
            ({"op": "twisted_count", "variety": "schoen_y",
              "involution": ["i"], "p": 7}, r"unknown involution \['i'\]"),
            ({"op": "match", "variety": ["x"], "primes": [3],
              "calibration_prime": 11}, r"no match pipeline for \['x'\]"),
            ({"op": "livne", "bad_primes": [2, 5], "check_set": [[3]]},
             r"check_set \[\[3\]\] has the wrong type")):
        with pytest.raises(ValidationError, match=f"^{why}$"):
            run_manifest({"operations": [op]})


def test_run_manifest_unknown_op():
    with pytest.raises(ValidationError):
        run_manifest({"operations": [{"op": "teleport"}]})


def test_run_manifest_refuses_unread_fields(tmp_path, capsys, monkeypatch):
    # a field an op does not read could only change a count silently: a
    # twisted count at "degree": 2 once counted over F_7; it exits 1,
    # naming the field, before any op of the manifest runs
    count = {"op": "count", "variety": "schoen_x", "p": 7}
    twisted = {"op": "twisted_count", "variety": "schoen_y",
               "involution": "iota_y", "p": 7}
    livne = {"op": "livne", "bad_primes": [2, 5], "check_set": [3]}
    unread = [({**twisted, "degree": 2}, "degree"),
              ({**count, "prime": 7}, "prime"),
              ({**livne, "trace1": {"3": 2}}, "trace1"),
              ({"op": "euler", "ledger": "quotient", "expect": 168}, "expect")]
    manifest = tmp_path / "fields.json"
    for op, field in unread:
        counted = []
        monkeypatch.setattr(cli.counting, "_counted",
                            lambda *a, **k: counted.append(a))
        with pytest.raises(ValidationError, match=f"field {field!r}$"):
            run_manifest({"operations": [count, op]})
        assert not counted, op
        monkeypatch.undo()
        manifest.write_text(json.dumps({"operations": [op]}))
        assert main(["run", str(manifest)]) == 1, op
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: manifest op {op['op']!r} does not read "
                       f"field {field!r}"], err
    # and a count at "degree": true counted over F_p: degree is an int
    for degree in (True, 2.0):
        with pytest.raises(ValidationError,
                           match=f"^degree {degree!r} has the wrong type$"):
            run_manifest({"operations": [{**count, "degree": degree}]})
    # the fields an op reads are all accepted, and degree 2 still counts
    # over F_{7^2}
    doc, _ = run_manifest({"operations": [
        {**count, "degree": 2, "variety": "e_plane"}, twisted,
        {**livne, "traces1": {"3": 2}, "traces2": {"3": 2},
         "dets_match_parity": True}]})
    assert [r.get("record", {}).get("field_degree") for r in doc["results"]] \
        == [2, 1, None]


def _run_module(*args, module="frobtrace", timeout=None):
    """Run ``python -m MODULE ARGS`` in a child process that imports the
    same frobtrace package as this test, installed or not, within timeout
    seconds."""
    env = dict(os.environ)
    src = str(Path(frobtrace.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", module, *args],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)


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
