import numpy as np
import pytest

from trimodel import addcat as ac
from trimodel import meshcat as mc
from trimodel import oracle
from trimodel import rigidmodel as rm
from trimodel.exactlin import PrimeField
from trimodel.report import emit_report


@pytest.fixture(scope="module")
def cat():
    return mc.build_type_a(2, PrimeField(2))


@pytest.fixture(scope="module")
def rigid(cat):
    return rm.build_rigid(cat, ["13"])


def test_rlp_against_identity_always_holds(cat, rigid):
    rng = np.random.default_rng(1)
    pool = oracle.objects_up_to(cat, 2)
    for _ in range(30):
        x = pool[int(rng.integers(0, len(pool)))]
        y = pool[int(rng.integers(0, len(pool)))]
        ell = ac.random_morphism_rng(cat, x, y, rng)
        z = pool[int(rng.integers(0, len(pool)))]
        assert oracle.rlp_all_squares(rigid, ell, ac.identity(cat, z), "plain")


def test_rlp_zero_to_suspended_t_vs_fibration(cat, rigid):
    ell = ac.zero_mor(cat, ac.obj(), ac.obj("25"))
    rng = np.random.default_rng(2)
    pool = oracle.objects_up_to(cat, 2)
    for _ in range(20):
        f = ac.random_morphism_rng(
            cat, pool[int(rng.integers(0, len(pool)))],
            pool[int(rng.integers(0, len(pool)))], rng)
        assert oracle.rlp_all_squares(rigid, ell, f, "plain") \
            == rigid.classify(f).fib


def test_plain_implies_htp_top(cat, rigid):
    rng = np.random.default_rng(3)
    pool = oracle.objects_up_to(cat, 2)
    for _ in range(60):
        ell = ac.random_morphism_rng(
            cat, pool[int(rng.integers(0, len(pool)))],
            pool[int(rng.integers(0, len(pool)))], rng)
        r = ac.random_morphism_rng(
            cat, pool[int(rng.integers(0, len(pool)))],
            pool[int(rng.integers(0, len(pool)))], rng)
        if oracle.rlp_all_squares(rigid, ell, r, "plain"):
            assert oracle.rlp_all_squares(rigid, ell, r, "htp_top")
            assert oracle.rlp_all_squares(rigid, ell, r, "htp_bottom")


def test_both_homotopy_modes_share_one_square_space(cat, rigid,
                                                    monkeypatch):
    rng = np.random.default_rng(4)
    pool = oracle.objects_up_to(cat, 2)
    square_space = oracle._square_space
    calls = []
    monkeypatch.setattr(oracle, "_square_space", lambda *a: (
        calls.append(1) or square_space(*a)))
    for _ in range(60):
        ell, r = (ac.random_morphism_rng(
            cat, pool[int(rng.integers(0, len(pool)))],
            pool[int(rng.integers(0, len(pool)))], rng) for _ in range(2))
        calls.clear()
        both = oracle._rlp_up_to_homotopy(rigid, ell, r,
                                          ("htp_top", "htp_bottom"))
        assert len(calls) == 1
        assert both == (oracle.rlp_all_squares(rigid, ell, r, "htp_top")
                        and oracle.rlp_all_squares(rigid, ell, r,
                                                   "htp_bottom"))
        calls.clear()
        rep = oracle.lifting_report(rigid, ell, r)
        assert len(calls) == 1
        assert (rep.plain, rep.htp_top, rep.htp_bottom) == tuple(
            oracle.rlp_all_squares(rigid, ell, r, mode)
            for mode in ("plain", "htp_top", "htp_bottom"))


def test_rlp_monotone_under_direct_sum(cat, rigid):
    rng = np.random.default_rng(5)
    pool = oracle.objects_up_to(cat, 1)
    for _ in range(40):
        g1 = ac.random_morphism_rng(
            cat, pool[int(rng.integers(0, len(pool)))],
            pool[int(rng.integers(0, len(pool)))], rng)
        g2 = ac.random_morphism_rng(
            cat, pool[int(rng.integers(0, len(pool)))],
            pool[int(rng.integers(0, len(pool)))], rng)
        ell = ac.random_morphism_rng(
            cat, pool[int(rng.integers(0, len(pool)))],
            pool[int(rng.integers(0, len(pool)))], rng)
        both = oracle.rlp_all_squares(rigid, ell, ac.dsum_mor(g1, g2), "plain")
        each = oracle.rlp_all_squares(rigid, ell, g1, "plain") and \
            oracle.rlp_all_squares(rigid, ell, g2, "plain")
        assert both == each


def test_wcof_perp_fib_exact(cat, rigid):
    rng = np.random.default_rng(7)
    pool = oracle.objects_up_to(cat, 2)
    wcofs = oracle._wcof_family(rigid, pool, rng, 8)
    fibs = oracle._fib_family(rigid, pool, rng, 8)
    for ell in wcofs:
        for r in fibs:
            assert oracle.rlp_all_squares(rigid, ell, r, "plain")


def test_generating_rlp_for_identity(cat, rigid):
    ok, exhaustive = oracle.rlp_against_generating_I(
        rigid, ac.identity(cat, ac.obj("13", "14")))
    assert ok and exhaustive


def test_generating_rlp_matches_wfib_exhaustive(cat, rigid):
    pool = oracle.objects_up_to(cat, 1)
    for x in pool:
        for y in pool:
            for f in ac.enumerate_morphisms(cat, x, y):
                verdict, _ = oracle.rlp_against_generating_I(rigid, f)
                assert verdict == rigid.classify(f).wfib


def test_replacement_map_passes_generating_rlp(cat, rigid):
    _, q = rigid.cofibrant_replacement(ac.obj("14"))
    ok, _ = oracle.rlp_against_generating_I(rigid, q)
    assert ok


def test_lifting_report_fields(cat, rigid):
    ell = ac.zero_mor(cat, ac.obj(), ac.obj("25"))
    r = ac.identity(cat, ac.obj("13"))
    rep = oracle.lifting_report(rigid, ell, r)
    assert rep.plain and rep.htp_top and rep.htp_bottom
    assert rep.square_space_dim >= 0


def test_axiom_suite_passes(cat, rigid):
    rep = oracle.run_axiom_suite(cat, rigid, budget=150, seed=0)
    assert rep.passed(), [c.name for c in rep.checks if not c.ok()]
    names = [c.name for c in rep.checks]
    assert names == ["axiom-0-pullbacks", "axiom-0.5-coproduct-inclusions",
                     "axiom-1-two-out-of-three", "axiom-2-class-closure",
                     "axiom-3-orthogonality", "axiom-4-factorizations"]


def test_axiom_suite_deterministic_bytes(cat, rigid):
    r1 = oracle.run_axiom_suite(cat, rigid, budget=60, seed=0)
    r2 = oracle.run_axiom_suite(cat, rigid, budget=60, seed=0)
    assert emit_report(r1, "json") == emit_report(r2, "json")
    assert emit_report(r1, "text") == emit_report(r2, "text")


def test_lemma_suite_passes_a2(cat, rigid):
    rep = oracle.lemma_equivalence_suite(cat, rigid, max_summands=2, seed=0,
                                         gen_a_total=2)
    assert rep.passed(), [c.name for c in rep.checks if not c.ok()]
    assert all(c.details != "sampled" for c in rep.checks)


def test_lemma_suite_all_singletons_a3():
    cat3 = mc.build_type_a(3, PrimeField(2))
    for t in ("13", "25"):
        rigid3 = rm.build_rigid(cat3, [t])
        rep = oracle.lemma_equivalence_suite(cat3, rigid3, max_summands=1,
                                             seed=0, gen_a_total=2)
        assert rep.passed()


def test_objects_up_to(cat):
    objs = oracle.objects_up_to(cat, 2)
    assert len(objs) == 1 + 5 + 15
    assert objs[0] == ac.obj()
