"""Acceptance gate: the eight exit criteria, one test each.

Every test prints a single CRITERION line.  Bounds pinned here:
  * "objects with <= 2 summands" everywhere it appears;
  * lemma suites run exhaustively (the enumeration caps are never hit at
    this scale) with the generating family capped at two-summand targets;
  * the runtime bound for the lemma suites applies per suite run (the suite
    is a per-rigid-set operation);
  * the D4 equivalence sweep checks all pairs of indecomposable cofibrant
    objects for every rigid set, and pairs with up to two summands for the
    worked example's rigid set and a cluster-tilting one;
  * sampled checks use seed 0 with the stated draw counts.
"""

import time

import numpy as np
import pytest

from helpers import check_stabilization
from trimodel import addcat as ac
from trimodel import d4scenario as d4
from trimodel import endalg as ea
from trimodel import meshcat as mc
from trimodel import oracle
from trimodel.exactlin import PrimeField


def _line(n, ok, detail):
    print(f"\nCRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="session")
def d4_binding():
    return d4.bind(3)


def test_criterion_1_d4_worked_example():
    t0 = time.time()
    rep = d4.run_scenario(3)
    elapsed = time.time() - t0
    by_name = {c.name: c for c in rep.checks}
    needed = ["g-is-acyclic-fibration", "plain-lifting-fails",
              "homotopy-lifting-holds", "dim-hom-Tpp-E", "dim-hom-A-D",
              "mesh-identity", "g-after-d-vanishes"]
    ok = rep.passed() and all(by_name[n].ok() for n in needed) \
        and elapsed < 30
    _line(1, ok, f"worked example: {rep.summary}, {elapsed:.1f}s")


def test_criterion_2_lemma_equivalence_suites(cat_a2, rigids_a2,
                                              cat_a3, rigids_a3):
    worst = 0.0
    runs = 0
    for cat, rigids in ((cat_a2, rigids_a2), (cat_a3, rigids_a3)):
        for t, rigid in rigids.items():
            t0 = time.time()
            rep = oracle.lemma_equivalence_suite(
                cat, rigid, max_summands=2, seed=0, gen_a_total=2)
            elapsed = time.time() - t0
            worst = max(worst, elapsed)
            runs += 1
            assert rep.passed(), (t, [c.name for c in rep.checks
                                      if not c.ok()])
            assert all("exhaustive" in c.details for c in rep.checks
                       if c.name.startswith("lemma-ideal")), t
            assert elapsed < 60, (t, elapsed)
    _line(2, True, f"{runs} rigid sets on A2/A3, exhaustive over "
          f"two-summand objects, zero disagreements, worst run "
          f"{worst:.1f}s < 60s")


def test_criterion_3_axiom_suites(cat_a2, rigids_a2, cat_a3, rigids_a3,
                                  cat_d4, rigids_d4):
    runs = 0
    for cat, rigids, budget in ((cat_a2, rigids_a2, 150),
                                (cat_a3, rigids_a3, 100),
                                (cat_d4, rigids_d4, 60)):
        for t, rigid in rigids.items():
            rep = oracle.run_axiom_suite(cat, rigid, budget=budget, seed=0)
            assert rep.passed(), (t, [(c.name, c.witnesses)
                                      for c in rep.checks if not c.ok()])
            runs += 1
    _line(3, True, f"axiom suite green for {runs} rigid sets across "
          "A2, A3, D4 (factorizations certified on 100% of samples)")


def test_criterion_4_two_out_of_three_and_six(cat_a2, rigids_a2, cat_d4,
                                              d4_binding):
    # exhaustive on A2: all composable pairs between <= 2 summand objects;
    # the two-out-of-six quantifier over triples then reduces to joins over
    # the composable-pair table (h(gf) is itself a tabulated pair)
    rigid = rigids_a2[("13",)]
    pool = oracle.objects_up_to(cat_a2, 2)
    flags = {}
    mors = {}

    def key(f):
        return (f.dom.summands, f.cod.summands, ac.mor_to_vec(f).tobytes())

    def weq(f):
        k = key(f)
        if k not in flags:
            flags[k] = rigid.classify(f).weq
        return flags[k]

    for x in pool:
        for y in pool:
            for f in ac.enumerate_morphisms(cat_a2, x, y):
                mors.setdefault((x.summands, y.summands), []).append(f)
                weq(f)
    pairs = {}
    pair_count = 0
    for (xs, ys), fs in mors.items():
        for (ys2, zs), gs in mors.items():
            if ys2 != ys:
                continue
            for g in gs:
                kg, wg = key(g), weq(g)
                for f in fs:
                    pair_count += 1
                    kf, wf = key(f), flags[key(f)]
                    gf = ac.compose(g, f)
                    kgf = key(gf)
                    wgf = flags[kgf]
                    assert not (wf and wg) or wgf
                    assert not (wf and wgf) or wg
                    assert not (wg and wgf) or wf
                    pairs[(kf, kg)] = (wgf, kgf)
    right_w = {}
    for (kf, kg), (w, _) in pairs.items():
        if w:
            right_w.setdefault(kf, []).append(kg)
    six_checked = 0
    for (kf, kg), (w, kgf) in pairs.items():
        if not w:
            continue
        for kh in right_w.get(kg, ()):
            six_checked += 1
            assert flags[kf] and flags[kg] and flags[kh]
            assert pairs[(kgf, kh)][0]

    # sampled on D4: seed 0, 500 triples, the worked example's rigid set
    rigid4 = d4_binding.rigid
    pool4 = oracle.objects_up_to(cat_d4, 2)
    rng = np.random.default_rng(0)
    six4 = 0
    for _ in range(500):
        x, y, z, w = (pool4[int(rng.integers(0, len(pool4)))]
                      for _ in range(4))
        f = ac.random_morphism_rng(cat_d4, x, y, rng)
        g = ac.random_morphism_rng(cat_d4, y, z, rng)
        h = ac.random_morphism_rng(cat_d4, z, w, rng)
        wf = rigid4.classify(f).weq
        wg = rigid4.classify(g).weq
        wgf = rigid4.classify(ac.compose(g, f)).weq
        assert not (wf and wg) or wgf
        assert not (wf and wgf) or wg
        assert not (wg and wgf) or wf
        if wgf and rigid4.classify(ac.compose(h, g)).weq:
            six4 += 1
            assert wf and wg and rigid4.classify(h).weq
            assert rigid4.classify(ac.compose(h, ac.compose(g, f))).weq
    _line(4, True, f"two-out-of-three exhaustive on A2 ({pair_count} "
          f"composable pairs), two-out-of-six on {six_checked} A2 and "
          f"{six4} D4 triples, zero violations")


def test_criterion_5_module_category_equivalence(rigids_a2, rigids_a3,
                                                 rigids_d4, d4_binding,
                                                 monkeypatch):
    checked = 0
    monkeypatch.setattr(ea, "EXPLICIT_PAIRS", 8)
    for rigids, pair_total in ((rigids_a2, 2), (rigids_a3, 2)):
        for t, rigid in rigids.items():
            rep = ea.check_equivalence(rigid, pair_total=pair_total)
            assert rep.passed(), (t, [c.name for c in rep.checks
                                      if not c.ok()])
            checked += 1
    monkeypatch.setattr(ea, "EXPLICIT_PAIRS", 4)
    for t, rigid in rigids_d4.items():
        rep = ea.check_equivalence(rigid, pair_total=1)
        assert rep.passed(), (t, [c.name for c in rep.checks if not c.ok()])
        checked += 1
    # depth on the worked example's rigid set and one cluster-tilting set
    deep = [d4_binding.rigid,
            rigids_d4[max(rigids_d4, key=len)]]
    monkeypatch.setattr(ea, "EXPLICIT_PAIRS", 10)
    for rigid in deep:
        rep = ea.check_equivalence(rigid, pair_total=2)
        assert rep.passed(), [c.name for c in rep.checks if not c.ok()]
    _line(5, True, f"stable Hom = module Hom with bijective induced map "
          f"for {checked} rigid sets (100% of pairs within bounds)")


def test_criterion_6_cofibrant_replacement(cat_a2, cat_a3, cat_d4,
                                           rigids_a2, rigids_a3, d4_binding):
    runs = 0
    for cat, rigid in ((cat_a2, rigids_a2[("13",)]),
                       (cat_a3, rigids_a3[("13",)]),
                       (cat_d4, d4_binding.rigid)):
        for x in oracle.objects_up_to(cat, 2):
            qx, q = rigid.cofibrant_replacement(x)
            assert rigid.is_cofibrant(qx), x
            assert rigid.classify(q).wfib, x
            iso = ea.find_module_iso(rigid, ea.module_of(rigid, qx),
                                     ea.module_of(rigid, x))
            assert iso is not None, x
            runs += 1
    _line(6, True, f"certified replacement with explicit module "
          f"isomorphism for {runs} objects across A2, A3, D4")


def test_criterion_7_homotopy_inverses(cat_a2, rigids_a2):
    total_weq = 0
    for t, rigid in rigids_a2.items():
        objs = [x for x in rigid.ts_list if len(x) <= 2]
        for x in objs:
            for y in objs:
                for f in ac.enumerate_morphisms(cat_a2, x, y):
                    if rigid.classify(f).weq:
                        total_weq += 1
                        eps = rigid.homotopy_inverse(f)
                        assert eps is not None, (t, x, y)
    _line(7, True, f"homotopy inverse found for 100% of {total_weq} weak "
          "equivalences between cofibrant objects on A2 (all rigid sets)")


def test_criterion_8_build_validation(cat_d4):
    for n in (2, 3, 4):
        c1 = mc.build_dynkin(mc.dynkin_a(n), PrimeField(2))
        c2 = mc.build_type_a(n, PrimeField(2))
        bij = mc.hom_matrix_bijection(c1, c2)
        assert bij is not None, n
        for u in c1.verts:
            for v in c1.verts:
                assert c1.hom_dim(u, v) == c2.hom_dim(bij[u], bij[v])
    for cat in (mc.build_type_a(2, PrimeField(2)),
                mc.build_type_a(3, PrimeField(2)), cat_d4):
        for v in cat.verts:
            assert cat.hom_dim(v, cat.sigma_vertex(v)) == 0
        cat.validate()          # mesh vanishing + associativity, exhaustive
        assert check_stabilization(cat)
    _line(8, True, "knitted and polygon models agree for ranks 2-4; "
          "rigidity, mesh, associativity and stabilization hold")
