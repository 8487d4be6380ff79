import time

import numpy as np
import pytest

from trimodel import addcat as ac
from trimodel import exactlin as el
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
    ell = ac.Mor(cat, ac.obj(), ac.obj("25"))
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
    lifting_maps = oracle._lifting_maps
    calls = []
    monkeypatch.setattr(oracle, "_lifting_maps", lambda *a: (
        calls.append(1) or lifting_maps(*a)))

    def built_once(fn, *args):
        calls.clear()
        out = fn(*args)
        assert len(calls) == 1
        return out

    for _ in range(60):
        ell, r = (ac.random_morphism_rng(
            cat, pool[int(rng.integers(0, len(pool)))],
            pool[int(rng.integers(0, len(pool)))], rng) for _ in range(2))
        each = {mode: built_once(oracle.rlp_all_squares, rigid, ell, r, mode)
                for mode in oracle.MODES}
        both = built_once(oracle._rlp_up_to_homotopy, rigid, ell, r,
                          ("htp_top", "htp_bottom"))
        assert both == (each["htp_top"] and each["htp_bottom"])
        rep = built_once(oracle.lifting_report, rigid, ell, r)
        assert (rep.plain, rep.htp_top, rep.htp_bottom) == tuple(
            each[mode] for mode in oracle.MODES)


def test_unknown_mode_raises_before_any_rank(cat, rigid, monkeypatch):
    monkeypatch.setattr(oracle, "fast_rank", None)
    zero = ac.Mor(cat, ac.obj(), ac.obj())
    ell = ac.identity(cat, ac.obj("13", "14"))
    for e in (zero, ell):
        with pytest.raises(ValueError, match="htp_tpo"):
            oracle.rlp_all_squares(rigid, e, e, "htp_tpo")
        with pytest.raises(ValueError, match="htp_tpo"):
            oracle._rlp_up_to_homotopy(rigid, e, e, ("htp_top", "htp_tpo"))


def kernel_lifts(rigid, ell, r, mode: str) -> bool:
    """The lifting decision through an explicit square space: a basis of
    the kernel of the square map must lie in the span of the lift
    candidates (the lift map beside, in a homotopy mode, the perp ideal of
    the relaxed edge)."""
    cat = rigid.cat
    p = cat.field.p
    a_obj, b_obj = ell.dom, ell.cod
    lam = np.concatenate([ac.left_mul_matrix(r, a_obj),
                          -ac.right_mul_matrix(ell, r.cod)], axis=1) % p
    squares = el.array_kernel(lam, p)
    if not squares:
        return True
    cand = np.concatenate([ac.right_mul_matrix(ell, r.dom),
                           ac.left_mul_matrix(r, b_obj)], axis=0)
    d_top = ac.hom_space_dim(cat, a_obj, r.dom)
    d_bot = ac.hom_space_dim(cat, b_obj, r.cod)
    if mode == "htp_top":
        w = rigid.ideal_span_matrix("perp", a_obj, r.dom)
        cand = np.concatenate([cand, np.concatenate(
            [w, np.zeros((d_bot, w.shape[1]), dtype=np.int64)])], axis=1)
    elif mode == "htp_bottom":
        w = rigid.ideal_span_matrix("perp", b_obj, r.cod)
        cand = np.concatenate([cand, np.concatenate(
            [np.zeros((d_top, w.shape[1]), dtype=np.int64), w])], axis=1)

    def rank(m):
        return len(el.array_rref(m, p)[1])
    return rank(np.concatenate([cand, np.stack(squares, axis=1)], axis=1)) \
        == rank(cand)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("kind", ["A2", "A3", "D4"])
def test_rank_identity_matches_kernel_oracle(kind, p):
    field = PrimeField(p)
    if kind == "D4":
        cat_k = mc.build_dynkin(mc.dynkin_d4_subspace(), field)
    else:
        cat_k = mc.build_type_a(int(kind[1]), field)
    rng = np.random.default_rng(p)
    subsets = rm.all_rigid_subsets(cat_k)
    pool = oracle.objects_up_to(cat_k, 2)
    seen = {mode: set() for mode in oracle.MODES}
    for k in rng.choice(len(subsets), size=min(4, len(subsets)),
                        replace=False):
        rigid_k = rm.build_rigid(cat_k, subsets[k])
        for _ in range(40):
            ell, r = (ac.random_morphism_rng(
                cat_k, pool[int(rng.integers(0, len(pool)))],
                pool[int(rng.integers(0, len(pool)))], rng)
                for _ in range(2))
            rep = oracle.lifting_report(rigid_k, ell, r)
            for mode in oracle.MODES:
                want = kernel_lifts(rigid_k, ell, r, mode)
                assert getattr(rep, mode) == want, (subsets[k], mode)
                seen[mode].add(want)
    assert all(s == {True, False} for s in seen.values()), seen


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
        for mode in oracle.MODES:
            both = oracle.rlp_all_squares(rigid, ell, ac.dsum_mor(g1, g2),
                                          mode)
            each = oracle.rlp_all_squares(rigid, ell, g1, mode) and \
                oracle.rlp_all_squares(rigid, ell, g2, mode)
            assert both == each, mode
    # sums of three trivial fibrations, the shape the axiom suite tests the
    # first factors of factor_htpcof_wfib against, on A2 and on A3
    a3 = mc.build_type_a(3, PrimeField(2))
    seen = {mode: set() for mode in oracle.MODES}
    for big in (rigid, rm.build_rigid(a3, ["13", "15", "35"])):
        pool = oracle.objects_up_to(big.cat, 2)
        wfibs = oracle._wfib_family(big, pool, rng, 6)
        for k in range(40):
            x = big.ts_list[int(rng.integers(0, len(big.ts_list)))]
            y = pool[int(rng.integers(0, len(pool)))]
            g = ac.random_morphism_rng(big.cat, x, y, rng)
            ell = big.factor_htpcof_wfib(g).first if k % 2 else g
            three = wfibs[k % 4:k % 4 + 3]
            for mode in oracle.MODES:
                both = oracle.rlp_all_squares(big, ell, ac.dsum_mor(*three),
                                              mode)
                each = all(oracle.rlp_all_squares(big, ell, q, mode)
                           for q in three)
                assert both == each, mode
                seen[mode].add(both)
            assert oracle._rlp_up_to_homotopy(
                big, ell, ac.dsum_mor(*three), ("htp_top", "htp_bottom")) \
                == all(oracle._rlp_up_to_homotopy(
                    big, ell, q, ("htp_top", "htp_bottom")) for q in three)
    assert all(vals == {True, False} for vals in seen.values()), seen


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
    ell = ac.Mor(cat, ac.obj(), ac.obj("25"))
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


def test_ideal_columns_only_when_plain_lifting_fails(monkeypatch):
    """im psi lies in the square space and in im M, so a homotopy mode lifts
    whenever the plain one does: the perp ideal is built only when plain
    lifting fails, and the homotopy modes still lift where it fails."""
    cat3 = mc.build_type_a(3, PrimeField(2))
    pool = oracle.objects_up_to(cat3, 2)
    rng = np.random.default_rng(8)
    rescued = {"htp_top": 0, "htp_bottom": 0}
    for t_set in rm.all_rigid_subsets(cat3)[::6]:
        rigid3 = rm.build_rigid(cat3, t_set)
        span = rigid3.ideal_span_matrix
        calls = []
        monkeypatch.setattr(rigid3, "ideal_span_matrix", lambda *a: (
            calls.append(a) or span(*a)))
        for _ in range(150):
            ell, r = (ac.random_morphism_rng(
                cat3, pool[int(rng.integers(0, len(pool)))],
                pool[int(rng.integers(0, len(pool)))], rng)
                for _ in range(2))
            calls.clear()
            rep = oracle.lifting_report(rigid3, ell, r)
            assert len(calls) == (0 if rep.plain else 2)
            for mode in rescued:
                rescued[mode] += not rep.plain and getattr(rep, mode)
    assert all(rescued.values()), rescued


@pytest.mark.parametrize("p,rank,t_set,cells", [
    (2, 3, ("13", "15", "35"), 4096),
    (3, 2, ("13",), 256),
])
def test_generating_failures_in_small_stacks(monkeypatch, p, rank, t_set,
                                             cells):
    """Stacks under a small cell budget, which splits the morphisms of a
    space and the generator rows of one morphism, give the failures of one
    stack per generator pair."""
    cat_k = mc.build_type_a(rank, PrimeField(p))
    rigid_k = rm.build_rigid(cat_k, t_set)
    spaces, _ = oracle._hom_spaces(rigid_k, oracle.objects_up_to(cat_k, 2),
                                   np.random.default_rng(0))
    batch_rank = oracle.batch_rank
    calls = []
    monkeypatch.setattr(oracle, "batch_rank", lambda *a: (
        calls.append(1) or batch_rank(*a)))
    want = oracle._generating_failures(rigid_k, spaces, 2, 2)
    whole = len(calls)
    monkeypatch.setattr(oracle, "STACK_CELLS", cells)
    got = oracle._generating_failures(rigid_k, spaces, 2, 2)
    assert len(calls) - whole > whole
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert any(np.any(f < len(oracle._generator_rows(rigid_k, 2, 2)))
               for f in want)


def test_lemma_suite_one_rank_up_a4_cluster_tilting():
    """The lemma suite on the cluster-tilting set 27,37,47,57 of A4 at
    p = 2: it passes, exhaustively, within criterion 2's 60 s bound."""
    cat4 = mc.build_type_a(4, PrimeField(2))
    rigid4 = rm.build_rigid(cat4, ["27", "37", "47", "57"])
    t0 = time.time()
    rep = oracle.lemma_equivalence_suite(cat4, rigid4, max_summands=2,
                                         seed=0, gen_a_total=2)
    elapsed = time.time() - t0
    assert rep.passed(), [c.name for c in rep.checks if not c.ok()]
    assert all(c.details == "exhaustive" for c in rep.checks
               if c.name.startswith(("lemma-ideal", "lemma-generating")))
    assert elapsed < 60, elapsed
