"""Point counts pinned against independently computed values."""
import dataclasses
import io

import pytest

from frobtrace.catalog import (Ambient, InvolutionSpec, Monomial, VarietySpec,
                               load_catalog)
from frobtrace import counting
from frobtrace.counting import (count, count_double_cover, count_projective,
                                count_torus, count_twisted, count_weighted,
                                check_preserves, quotient_weighted_correction,
                                read_records, write_records)
from frobtrace.errors import FrobtraceError, RefusalError, ValidationError
from frobtrace.ffield import is_prime

CAT = load_catalog()

SCHOEN_N = {3: 36, 7: 401, 11: 3300, 13: 2421, 17: 5146, 19: 7256,
            23: 12581, 29: 25071, 31: 50675}
SCHOEN_NT = {3: 36, 7: 401, 11: 1452, 13: 2421, 17: 5146, 19: 9840}
HM_N = {3: 41, 7: 406, 11: 1401}
CS_N = {3: 40, 7: 400, 11: 3076}
QUOTIENT_W = {3: 40, 7: 409, 11: 2388}
SCHOEN_Y_LARGE = {211: (10481550, 9433302), 419: (73729356, 75127140),
                  421: (79011175, 74797807)}
SMALL_PRIMES = [p for p in range(3, 24) if is_prime(p)]


def test_schoen_counts():
    sx = CAT.variety("schoen_x")
    for p, want in SCHOEN_N.items():
        assert count_projective(sx, p).count == want


def test_schoen_histogram_matches_dense():
    # strip the id so the generic chart counter runs, then compare; p = 5
    # has lambda = 5 mu = 0 on every row of the histogram counter
    sx = CAT.variety("schoen_x")
    dense = dataclasses.replace(sx, id="schoen_x_dense")
    for p in SMALL_PRIMES:
        assert count_projective(dense, p).count == \
            count_projective(sx, p).count, p


def test_schoen_histogram_large_primes():
    # F_p^* has three classes modulo cubes at 211 and 421 and one at 419,
    # so the counter builds four rows of Phi there and two here
    sy = CAT.variety("schoen_y")
    iy = CAT.involution("iota_y")
    for p, (n, nt) in SCHOEN_Y_LARGE.items():
        assert count_projective(sy, p).count == n
        assert count_twisted(sy, iy, p).count == nt


def test_schoen_histogram_cell_budget():
    # 2003 is the first prime over the budget; refused before any p^2
    # table is allocated
    assert 1999 ** 2 <= counting._MAX_HIST_CELLS < 2003 ** 2
    with pytest.raises(ValidationError, match="cells"):
        count_projective(CAT.variety("schoen_y"), 2003)
    with pytest.raises(ValidationError, match="cells"):
        count_twisted(CAT.variety("schoen_y"), CAT.involution("iota_y"), 2003)


def test_twisted_counts():
    sy = CAT.variety("schoen_y")
    iy = CAT.involution("iota_y")
    for p, want in SCHOEN_NT.items():
        assert count_twisted(sy, iy, p).count == want


def test_twisted_substitution_matches_engine():
    sy = dataclasses.replace(CAT.variety("schoen_y"), id="schoen_y_dense")
    iy = CAT.involution("iota_y")
    phi = InvolutionSpec("iota_y_dense", sy.id, iy.matrix)
    engine = CAT.variety("schoen_y")
    for p in SMALL_PRIMES:
        assert count_twisted(sy, phi, p).count == \
            count_twisted(engine, iy, p).count, p


def test_other_quintic_counts():
    hm = CAT.variety("hm_quintic")
    cs = CAT.variety("consani_scholten")
    for p, want in HM_N.items():
        assert count_projective(hm, p).count == want
    for p, want in CS_N.items():
        assert count_projective(cs, p).count == want


def test_degree_two_counts():
    assert count_projective(CAT.variety("schoen_x"), 3, degree=2).count == 816
    assert count_projective(CAT.variety("e_plane"), 3, degree=2).count == 14
    with pytest.raises(ValidationError):
        count_projective(CAT.variety("e_plane"), 3, degree=3)
    with pytest.raises(ValidationError):
        count_projective(CAT.variety("e_plane"), 2, degree=2)


def test_weighted_counts_and_burnside():
    sq = CAT.variety("schoen_quotient")
    for p, want in QUOTIENT_W.items():
        assert count_weighted(sq, p).count == want
        # orbit count = average of straight and twisted counts, plus the
        # fixed conic where two orbits merge into one weighted point
        n, nt = SCHOEN_N[p], SCHOEN_NT[p]
        assert want == (n + nt) // 2 + quotient_weighted_correction(p)


def test_weighted_ambient_alone():
    amb = Ambient("weighted_projective", weights=(1, 1, 2))
    spec = VarietySpec("p112", amb, (), 2, frozenset({2}), "test")
    assert count_weighted(spec, 3).count == 14


def test_torus_counts():
    assert count_torus((1, 1, 1, 1, 1), 25, 2).count == 1
    assert count_torus((1, 1, 1, 1, 1), 25, 3).count == 11
    assert count_torus((1, 1, 1, 1, 1), 25, 7).count == 201
    assert count_torus((1, 1, 1, 9, 9), 9, 7).count == 153
    assert count_torus((1, 1, 1, 1, 1), 25 + 7 * 2 ** 60, 7).count == 201
    with pytest.raises(ValidationError):
        count_torus((1, 1, 1), 25, 7)


def test_double_cover_counts():
    do = CAT.variety("double_octic_template")
    assert count_double_cover(do, 3).count == 41
    assert count_double_cover(do, 7).count == 407
    with pytest.raises(ValidationError):
        count_double_cover(do, 2)


def test_double_cover_split_branch_formula():
    # w^2 = x0^8: the branch octic is an 8th power, so every point with
    # x0 != 0 splits and the branch locus is the plane x0 = 0
    spec = VarietySpec("w2_x0_8", Ambient("double_cover_p3"),
                       tuple((Monomial(1, (1, 0, 0, 0)),) for _ in range(8)),
                       3, frozenset({2}), "test")
    for p in (3, 7, 11):
        assert count_double_cover(spec, p).count == 2 * p ** 3 + p * p + p + 1


def test_ambient_dispatch_errors():
    with pytest.raises(ValidationError):
        count_projective(CAT.variety("schoen_quotient"), 3)
    with pytest.raises(ValidationError):
        count_weighted(CAT.variety("schoen_x"), 3)
    with pytest.raises(ValidationError):
        count_double_cover(CAT.variety("schoen_x"), 3)
    with pytest.raises(ValidationError):
        count_projective(CAT.variety("schoen_x"), 10)


def test_count_dispatch_by_ambient():
    assert count(CAT.variety("schoen_x"), 3).count == SCHOEN_N[3]
    assert count(CAT.variety("schoen_x"), 3, degree=2).count == 816
    assert count(CAT.variety("schoen_quotient"), 3).count == QUOTIENT_W[3]
    assert count(CAT.variety("double_octic_template"), 3).count == 41
    hv = CAT.variety("hulek_verrill")
    got, want = count(hv, 7), count_torus(hv.known["a"], hv.known["t"], 7)
    assert (got.variety_id, got.count) == (want.variety_id, want.count)
    for vid in ("schoen_quotient", "double_octic_template", "hulek_verrill"):
        with pytest.raises(ValidationError):
            count(CAT.variety(vid), 3, degree=2)


def test_counter_invariants_raise(monkeypatch):
    # a lost or doubled cell breaks the divisibility by p - 1 of the affine
    # and orbit-weighted totals; the counters raise, also under python -O
    run = counting._run_chunks

    def off_by_one(worker, chunks):
        parts = run(worker, chunks)
        return [parts[0] + 1] + parts[1:]

    monkeypatch.setattr(counting, "_run_chunks", off_by_one)
    with pytest.raises(FrobtraceError, match="p=7.* 1 mod p-1"):
        count_projective(CAT.variety("schoen_x"), 7)
    with pytest.raises(FrobtraceError, match="p=3.* 1 mod p-1"):
        count_weighted(CAT.variety("schoen_quotient"), 3)


def test_equation_degenerate_mod_p():
    amb = Ambient("projective", n=1)
    spec = VarietySpec("deg", amb, ((Monomial(3, (1, 0)),),), 0,
                       frozenset({2}), "test")
    with pytest.raises(ValidationError):
        count_projective(spec, 3)


def test_twisted_guards():
    sx = CAT.variety("schoen_x")
    with pytest.raises(RefusalError):
        count_twisted(sx, CAT.involution("iota_x"), 7)
    with pytest.raises(ValidationError):
        count_twisted(CAT.variety("schoen_y"), CAT.involution("iota_y"), 2)


def test_check_preserves():
    sx = CAT.variety("schoen_x")
    assert check_preserves(sx, CAT.involution("iota_x"))
    flip = InvolutionSpec("flip0", "schoen_x",
                          ((-1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
                           (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)))
    with pytest.raises(ValidationError):
        check_preserves(sx, flip)
    with pytest.raises(ValidationError):
        count_twisted(sx, flip, 7)


def test_thread_env_validation(monkeypatch):
    monkeypatch.setenv("FROBTRACE_THREADS", "0")
    with pytest.raises(ValidationError):
        count_projective(CAT.variety("schoen_x"), 7)
    monkeypatch.setenv("FROBTRACE_THREADS", "65")
    with pytest.raises(ValidationError):
        count_projective(CAT.variety("schoen_x"), 7)
    monkeypatch.setenv("FROBTRACE_THREADS", "two")
    with pytest.raises(ValidationError):
        count_projective(CAT.variety("schoen_x"), 7)


def test_thread_count_does_not_change_results(monkeypatch):
    sx = CAT.variety("schoen_x")
    monkeypatch.setenv("FROBTRACE_THREADS", "1")
    base = count_projective(sx, 13)
    monkeypatch.setenv("FROBTRACE_THREADS", "4")
    again = count_projective(sx, 13)
    assert again.count == base.count
    assert again.chunk_count == base.chunk_count


def test_record_round_trip():
    recs = [count_projective(CAT.variety("schoen_x"), p) for p in (3, 7)]
    buf = io.StringIO()
    write_records(recs, buf)
    buf.seek(0)
    back = read_records(buf)
    assert back == recs
    assert back[0].variety_id == "schoen_x"
    assert back[0].field_degree == 1
