"""End-to-end checks: each test pins one headline result of the package,
with the runtime envelopes the implementation is expected to meet."""
import hashlib
import time
from pathlib import Path

from frobtrace.catalog import Ambient, Monomial, VarietySpec, load_catalog
from frobtrace.cli import (betti_report, match_quotient, match_rigid,
                           quotient_resolved_count, run_manifest)
from frobtrace.counting import count_double_cover, count_projective, count_twisted
from frobtrace.ffield import is_prime
from frobtrace.lefschetz import (elliptic_ap, euler_ledger, nodal_curve,
                                 quotient_ledger)
from frobtrace.livne import check_cover
from frobtrace.qexp import coefficient, f25, hasse_check, hecke_check

CAT = load_catalog()
MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


def test_rigid_match_calibrated_once():
    # b2 and the node-correction sign convention are fixed at p = 11; the
    # eight remaining good primes then match a_p of the level-25 form with
    # no free parameters, as exact integers
    t0 = time.perf_counter()
    rep = match_rigid("schoen_x", [3, 7, 13, 17, 19, 23, 29, 31], 11)
    elapsed = time.perf_counter() - t0
    assert rep.overall
    assert rep.calibration_prime == 11
    assert rep.calibrated["b2"] == 25
    assert rep.calibrated["correction"]["splitting_discriminant"] == 5
    checked = [r for r in rep.rows if r.p != 11]
    assert len(checked) == 8
    assert all(r.t3 == r.candidate_ap for r in rep.rows)
    assert elapsed <= 10.0, f"rigid match took {elapsed:.1f}s"


def test_quotient_match_two_factor_trace():
    # on the resolved quotient the H^3 trace splits as a_p(f25) + p a_p(E)
    t0 = time.perf_counter()
    rep = match_quotient([3, 7, 11, 13], 11)
    elapsed = time.perf_counter() - t0
    assert rep.overall
    assert rep.companion == "e_plane"
    assert [r.p for r in rep.rows] == [3, 7, 11, 13]
    assert all(r.t3 == r.candidate_ap for r in rep.rows)
    assert elapsed <= 120.0, f"quotient match took {elapsed:.1f}s"


def test_betti_recovery_at_421():
    t0 = time.perf_counter()
    rep = betti_report(421, 168)
    elapsed = time.perf_counter() - t0
    assert rep["unique"]
    assert rep["candidates"] == [{"b2": 85, "b3": 4}]
    assert rep["full_splitting_congruence"]
    assert elapsed <= 1800.0, f"betti run took {elapsed:.1f}s"


def test_betti_fallback_at_211():
    # cheaper prime: reports whether uniqueness already holds (it does not:
    # 211 != 1 mod 20, so part of H^2 is not Frobenius-invariant)
    t0 = time.perf_counter()
    doc, ok = run_manifest(str(MANIFESTS / "betti_211.json"))
    elapsed = time.perf_counter() - t0
    assert ok
    res = doc["results"][0]
    assert res["unique"] is False
    assert res["full_splitting_congruence"] is False
    assert elapsed <= 120.0, f"fallback run took {elapsed:.1f}s"


def test_euler_ledger_checkpoints():
    res = euler_ledger(quotient_ledger())
    assert res.checkpoints[1] == -75      # after contracting the 125 nodes
    assert res.checkpoints[2] == -39      # after the involution quotient
    assert res.final == 168


def test_livne_determination_set():
    t0 = time.perf_counter()
    t_set = [3, 7, 11, 13, 17, 29, 31]
    rep = check_cover({2, 5}, t_set)
    assert rep.complete
    # every prime carries a distinct signature, so each one is load-bearing
    assert len(set(rep.signatures.values())) == len(t_set)
    for drop in t_set:
        assert not check_cover({2, 5}, [p for p in t_set if p != drop]).complete
    assert time.perf_counter() - t0 <= 1.0


def test_newform_expansion_integrity():
    s = f25(50)
    assert coefficient(s, 1) == 1
    for p in (2, 3):
        assert hecke_check(s, 4, p)
    assert coefficient(s, 6) == coefficient(s, 2) * coefficient(s, 3)
    primes = [p for p in range(2, 48) if is_prime(p)]
    assert all(hasse_check(s, 4, primes).values())


def test_elliptic_consistency():
    ep = CAT.variety("e_plane")
    for p in range(3, 101):
        if not is_prime(p) or p in ep.bad_primes:
            continue
        a = elliptic_ap(ep, p)
        assert a * a <= 4 * p, (p, a)
    for p in (3, 7):      # the law a_{p^2} = a_p^2 - 2p against the scan
        assert elliptic_ap(ep, p, degree=2) == nodal_curve(ep, p, 2).ap


def test_counts_deterministic_across_workers():
    # every count feeding the match and Betti runs, bit-identical when repeated
    sx = CAT.variety("schoen_x")
    sy = CAT.variety("schoen_y")
    iy = CAT.involution("iota_y")

    def snapshot():
        plain = tuple(count_projective(sx, p).count
                      for p in (3, 7, 11, 13, 17, 19, 23, 29, 31))
        twisted = tuple(count_twisted(sy, iy, p).count for p in (3, 7, 11, 13))
        quotient = tuple(quotient_resolved_count(p) for p in (211, 421))
        return plain, twisted, quotient

    assert snapshot() == snapshot()


def test_double_cover_closed_form():
    spec = VarietySpec("w2_x0_8", Ambient("double_cover_p3"),
                       tuple((Monomial(1, (1, 0, 0, 0)),) for _ in range(8)),
                       3, frozenset({2}), "test")
    for p in (3, 7, 11):
        assert count_double_cover(spec, p).count == 2 * p ** 3 + p * p + p + 1


# sha256 of each shipped manifest's manifest_result.json, as written at
# commit b4de266; a change to any reported number or key changes the digest
MANIFEST_DIGESTS = {
    "rigid_match": "9ca007c5828240e671ea7ca24eb43e27297f9a6e7119beaa2593051da8c387ab",
    "quotient_match": "dd76a7385e3d7598c0ade39a67f3d840bd0ddafdab0041c04d07e51a08b70424",
    "betti_421": "37fb073039df04fc92d2b94ef2bbc62f5df4ea93dc6d92261a6a7b6d10ec1fc8",
    "betti_211": "670a7c64952aa2f640660a6837c3419375eabedd442587f81f8722494de6baba",
}


def test_shipped_manifests_reproduce(tmp_path):
    for name, digest in MANIFEST_DIGESTS.items():
        doc, ok = run_manifest(str(MANIFESTS / f"{name}.json"),
                               str(tmp_path / name))
        assert ok, f"{name}: {doc['id']}"
        written = (tmp_path / name / "manifest_result.json").read_bytes()
        assert hashlib.sha256(written).hexdigest() == digest, name
