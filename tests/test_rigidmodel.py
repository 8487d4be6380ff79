import itertools

import numpy as np
import pytest

from trimodel import addcat as ac
from trimodel import meshcat as mc
from trimodel import rigidmodel as rm
from trimodel.exactlin import PrimeField, fast_rank

from helpers import eager_classify, ideal_witness


@pytest.fixture(scope="module")
def cat():
    return mc.build_type_a(2, PrimeField(2))


@pytest.fixture(scope="module")
def rigid(cat):
    return rm.build_rigid(cat, ["13"])


def all_morphisms(cat, max_summands=2):
    from trimodel.oracle import objects_up_to
    pool = objects_up_to(cat, max_summands)
    for x in pool:
        for y in pool:
            yield from ac.enumerate_morphisms(cat, x, y)


def test_build_rigid_fields(rigid):
    assert rigid.t_ind == ("13",)
    assert rigid.sigma_t_ind == ("25",)
    assert rigid.perp_ind == ("24", "25", "35")


def test_build_rigid_pair_accepted(cat):
    r = rm.build_rigid(cat, ["13", "14"])
    assert r.t_ind == ("13", "14")
    # crossing diagonals have extensions between them: rejected
    with pytest.raises(rm.NotRigidError) as exc:
        rm.build_rigid(cat, ["13", "24"])
    assert set(exc.value.pair) == {"13", "24"}


def test_build_rigid_unknown_vertex(cat):
    with pytest.raises(ValueError, match="unknown vertex"):
        rm.build_rigid(cat, ["nope"])


def test_ideal_membership_zero_and_arrow(cat, rigid):
    z = ac.Mor(cat, ac.obj("13"), ac.obj("14"))
    for key in ("T", "sigmaT", "perp"):
        assert rigid.ideal_membership(z, key)
    arrow = ac.elementary(cat, ac.obj("13"), ac.obj("14"), 0, 0, 0)
    assert not rigid.ideal_membership(arrow, "perp")


def test_ideal_membership_through_perp_object(cat, rigid):
    # 25 lies in the perpendicular subcategory, so its identity is in the ideal
    id25 = ac.identity(cat, ac.obj("25"))
    assert rigid.ideal_membership(id25, "perp")
    lam, h = ideal_witness(rigid, id25, "perp")
    assert ac.compose(h, lam) == id25


def test_ideal_membership_brute_force_agreement(cat, rigid):
    """Span membership agrees with exhaustive factorization search."""
    x, y = ac.obj("14"), ac.obj("24")
    through = ac.obj("24", "25", "35")
    factorable = set()
    for a in ac.enumerate_morphisms(cat, x, through):
        for b in ac.enumerate_morphisms(cat, through, y):
            factorable.add(tuple(ac.mor_to_vec(ac.compose(b, a))))
    for f in ac.enumerate_morphisms(cat, x, y):
        assert rigid.ideal_membership(f, "perp") == \
            (tuple(ac.mor_to_vec(f)) in factorable)


def test_minimal_right_t_approx(cat, rigid):
    f = rigid.approx(ac.obj("14"), "right", "T")
    assert f.dom == ac.obj("13")
    assert not f.is_zero()


def test_minimal_left_perp_approx_of_t_is_zero(cat, rigid):
    f = rigid.approx(ac.obj("13"), "left", "perp")
    assert f.cod == ac.obj()


def test_approx_of_unreachable_object_is_zero(cat, rigid):
    f = rigid.approx(ac.obj("24"), "right", "T")
    assert f.dom == ac.obj()


def test_approx_property_certified(cat, rigid):
    for v in cat.verts:
        for side in ("left", "right"):
            for key in ("T", "sigmaT", "perp"):
                f = rigid.approx(ac.obj(v), side, key)
                assert rigid.is_approximation(f, side, key)


def test_classify_identity(cat, rigid):
    c = rigid.classify(ac.identity(cat, ac.obj("13", "25")))
    assert c.weq and c.fib and c.wfib and c.wcof


def test_classify_canonical_inclusion(cat, rigid):
    inc = ac.Mor(cat, ac.obj("14"), ac.obj("14", "25"), {(0, 0): [1]})
    c = rigid.classify(inc)
    assert c.wcof and not c.fib
    assert c.complement == ac.obj("25")
    assert ac.compose(c.retraction, inc) == ac.identity(cat, ac.obj("14"))


def test_wcof_implies_weq_exhaustive(cat, rigid):
    for f in all_morphisms(cat):
        c = rigid.classify(f)
        if c.wcof:
            assert c.weq


def test_cone_consistency_for_split_monos(cat, rigid):
    """For the canonical triangle of a split mono, the weak-equivalence flag
    matches vanishing of Hom(T, complement)."""
    rng = np.random.default_rng(3)
    for _ in range(40):
        x = ac.Obj(tuple(cat.verts[i] for i in rng.integers(0, 5, size=2)))
        z = ac.Obj((cat.verts[int(rng.integers(0, 5))],))
        inc = ac.Mor(cat, x, ac.dsum_obj(x, z))
        for (i, j), vec in ac.identity(cat, x).blocks.items():
            inc.set_block(i, j, vec)
        expected = all(cat.hom_dim(t, v) == 0
                       for t in rigid.t_ind for v in z.summands)
        assert rigid.classify(inc).weq == expected


def test_ts_list_a2(cat, rigid):
    assert rigid.ts_ind == ("13", "25")
    sizes = {x.summands for x in rigid.ts_list if len(x) <= 2}
    assert sizes == {(), ("13",), ("25",), ("13", "13"), ("13", "25"),
                     ("25", "25")}
    assert rigid.is_cofibrant(ac.obj("13", "25", "13"))
    assert not rigid.is_cofibrant(ac.obj("14"))


def test_ts_for_cluster_tilting_set(cat):
    r = rm.build_rigid(cat, ["13", "14"])
    assert r.ts_ind == tuple(sorted(cat.verts))


def test_every_t_and_sigma_t_cofibrant(cat):
    for t_set in rm.all_rigid_subsets(cat):
        r = rm.build_rigid(cat, t_set)
        for t in r.t_ind:
            assert r.is_cofibrant(ac.obj(t))
            assert r.is_cofibrant(ac.obj(cat.sigma_vertex(t)))


def test_homotopic_difference_through_perp(cat, rigid):
    x = ac.obj("25")
    f = ac.identity(cat, x)
    g = ac.Mor(cat, x, x)
    assert rigid.homotopic(f, g)
    assert rigid.homotopic(f, f)


def test_right_homotopy_witness_equations(cat, rigid):
    x = ac.obj("25")
    f, g = ac.identity(cat, x), ac.Mor(cat, x, x)
    wit = rigid.right_homotopy(f, g)
    assert wit is not None
    wit_refl = rigid.right_homotopy(f, f)
    assert wit_refl.correction.is_zero()


def test_right_homotopy_none_when_not_homotopic(cat, rigid):
    x, y = ac.obj("13"), ac.obj("14")
    arrow = ac.elementary(cat, x, y, 0, 0, 0)
    assert not rigid.homotopic(arrow, ac.Mor(cat, x, y))
    assert rigid.right_homotopy(arrow, ac.Mor(cat, x, y)) is None


def test_homotopy_is_equivalence_relation_exhaustive(cat, rigid):
    x, y = ac.obj("13", "14"), ac.obj("14",)
    fs = list(ac.enumerate_morphisms(cat, x, y))
    rel = {(i, j): rigid.homotopic(f, g)
           for i, f in enumerate(fs) for j, g in enumerate(fs)}
    for i in range(len(fs)):
        assert rel[(i, i)]
        for j in range(len(fs)):
            assert rel[(i, j)] == rel[(j, i)]
            for k in range(len(fs)):
                if rel[(i, j)] and rel[(j, k)]:
                    assert rel[(i, k)]


def test_homotopy_compatible_with_composition(cat, rigid):
    rng = np.random.default_rng(9)
    x, y, z = ac.obj("13", "14"), ac.obj("14", "24"), ac.obj("24", "25")
    for _ in range(30):
        f = ac.random_morphism_rng(cat, x, y, rng)
        g = ac.random_morphism_rng(cat, x, y, rng)
        h = ac.random_morphism_rng(cat, y, z, rng)
        if rigid.homotopic(f, g):
            assert rigid.homotopic(ac.compose(h, f), ac.compose(h, g))


def test_cylinder_and_path(cat, rigid):
    for v in ("13", "14", "25"):
        i, s = rigid.cylinder(ac.obj(v))
        m, q = rigid.path_obj(ac.obj(v))
        assert rigid.classify(s).weq
        assert rigid.classify(m).weq


def test_homotopy_inverse_identity(cat, rigid):
    x = ac.obj("13")
    eps = rigid.homotopy_inverse(ac.identity(cat, x))
    assert eps == ac.identity(cat, x)


def test_homotopy_inverse_canonical_inclusion(cat, rigid):
    x = ac.obj("13")
    inc = ac.Mor(cat, x, ac.obj("13", "25"), {(0, 0): [1]})
    eps = rigid.homotopy_inverse(inc)
    assert eps is not None
    # the composite differs from the identity only through sigma T
    assert rigid.ideal_membership(
        ac.sub(ac.compose(inc, eps), ac.identity(cat, inc.cod)), "sigmaT")
    assert ac.compose(eps, inc) == ac.identity(cat, x)


def test_homotopy_inverse_requires_cofibrant(cat, rigid):
    with pytest.raises(ValueError, match="cofibrant"):
        rigid.homotopy_inverse(ac.identity(cat, ac.obj("14")))


def test_factor_wcof_fib_composite_and_certificates(cat, rigid):
    rng = np.random.default_rng(21)
    from trimodel.oracle import objects_up_to
    pool = objects_up_to(cat, 2)
    for _ in range(40):
        x = pool[int(rng.integers(0, len(pool)))]
        y = pool[int(rng.integers(0, len(pool)))]
        f = ac.random_morphism_rng(cat, x, y, rng)
        fp = rigid.factor_wcof_fib(f)
        assert ac.compose(fp.second, fp.first) == f
        assert fp.first_class.wcof and fp.first_class.weq
        assert fp.second_class.fib


def test_factor_wcof_fib_zero_to_14(cat, rigid):
    f = ac.Mor(cat, ac.obj(), ac.obj("14"))
    fp = rigid.factor_wcof_fib(f)
    # no suspended copy maps to 14, so the middle object is zero
    assert fp.first.cod == ac.obj()
    assert fp.second_class.fib


def test_factor_htpcof_wfib(cat, rigid):
    f = ac.identity(cat, ac.obj("25"))
    fp = rigid.factor_htpcof_wfib(f)
    assert ac.compose(fp.second, fp.first) == f
    assert fp.second_class.wfib
    f2 = ac.identity(cat, ac.obj("13"))
    fp2 = rigid.factor_htpcof_wfib(f2)
    assert ac.compose(fp2.second, fp2.first) == f2
    with pytest.raises(ValueError, match="domain not cofibrant"):
        rigid.factor_htpcof_wfib(ac.identity(cat, ac.obj("14")))


def test_cofibrant_replacement_values(cat, rigid):
    qx, q = rigid.cofibrant_replacement(ac.obj("13", "25"))
    assert qx == ac.obj("13", "25")
    assert q == ac.identity(cat, qx)
    qx, q = rigid.cofibrant_replacement(ac.obj("14"))
    assert qx == ac.obj("13")
    assert rigid.classify(q).wfib
    # 24 is perpendicular to T, so its replacement is the zero object
    qx, q = rigid.cofibrant_replacement(ac.obj("24"))
    assert qx == ac.obj()
    assert rigid.classify(q).wfib


def test_cofibrant_replacement_minimality(cat, rigid):
    """No strictly smaller certified replacement than the returned one."""
    for name in ("14", "35"):
        x = ac.obj(name)
        qx, q = rigid.cofibrant_replacement(x)
        for cand in rigid.ts_list:
            if len(cand) >= len(qx):
                continue
            found = any(rigid.classify(g).wfib
                        for g in ac.enumerate_morphisms(cat, cand, x))
            assert not found


def test_two_out_of_three_exhaustive_small(cat, rigid):
    """All composable pairs among single summands."""
    singles = [ac.Obj((v,)) for v in cat.verts]
    flags = {}

    def weq(f):
        key = (f.dom, f.cod, tuple(ac.mor_to_vec(f)))
        if key not in flags:
            flags[key] = rigid.classify(f).weq
        return flags[key]

    for x in singles:
        for y in singles:
            for z in singles:
                for f in ac.enumerate_morphisms(cat, x, y):
                    for g in ac.enumerate_morphisms(cat, y, z):
                        wf, wg = weq(f), weq(g)
                        wgf = weq(ac.compose(g, f))
                        assert not (wf and wg) or wgf
                        assert not (wf and wgf) or wg
                        assert not (wg and wgf) or wf


def test_two_out_of_six_sampled(cat, rigid):
    rng = np.random.default_rng(31)
    singles = [ac.Obj((v,)) for v in cat.verts]
    for _ in range(300):
        w, x, y, z = (singles[int(rng.integers(0, len(singles)))]
                      for _ in range(4))
        f = ac.random_morphism_rng(cat, w, x, rng)
        g = ac.random_morphism_rng(cat, x, y, rng)
        h = ac.random_morphism_rng(cat, y, z, rng)
        if rigid.classify(ac.compose(g, f)).weq \
                and rigid.classify(ac.compose(h, g)).weq:
            assert rigid.classify(f).weq
            assert rigid.classify(g).weq
            assert rigid.classify(h).weq
            assert rigid.classify(
                ac.compose(h, ac.compose(g, f))).weq


def test_retract_stability_sampled(cat, rigid):
    rng = np.random.default_rng(37)
    from trimodel.oracle import _random_iso, objects_up_to
    pool = objects_up_to(cat, 2)
    for _ in range(60):
        x = pool[int(rng.integers(0, len(pool)))]
        y = pool[int(rng.integers(0, len(pool)))]
        f0 = ac.random_morphism_rng(cat, x, y, rng)
        h = ac.random_morphism_rng(
            cat, pool[int(rng.integers(0, len(pool)))],
            pool[int(rng.integers(0, len(pool)))], rng)
        big = ac.dsum_mor(f0, h)
        u = _random_iso(cat, big.cod, rng)
        v = _random_iso(cat, big.dom, rng)
        f = ac.compose(u, ac.compose(big, v))
        if rigid.classify(f).weq:
            assert rigid.classify(f0).weq


def test_class_closure_under_composition_sampled(cat, rigid):
    rng = np.random.default_rng(41)
    singles = [ac.Obj((v,)) for v in cat.verts]
    pool = singles + [ac.dsum_obj(a, b) for a in singles[:3]
                      for b in singles[:3]]
    for _ in range(150):
        x, y, z = (pool[int(rng.integers(0, len(pool)))] for _ in range(3))
        f = ac.random_morphism_rng(cat, x, y, rng)
        g = ac.random_morphism_rng(cat, y, z, rng)
        cf, cg = rigid.classify(f), rigid.classify(g)
        cgf = rigid.classify(ac.compose(g, f))
        for attr in ("weq", "fib", "wfib", "wcof"):
            if getattr(cf, attr) and getattr(cg, attr):
                assert getattr(cgf, attr)


def test_weq_between_cofibrants_has_homotopy_inverse_exhaustive(cat, rigid):
    objs = [x for x in rigid.ts_list if len(x) <= 2]
    for x in objs:
        for y in objs:
            for f in ac.enumerate_morphisms(cat, x, y):
                if rigid.classify(f).weq:
                    assert rigid.homotopy_inverse(f) is not None


def test_all_rigid_subsets_counts():
    cat2 = mc.build_type_a(2, PrimeField(2))
    assert len(rm.all_rigid_subsets(cat2)) == 10
    cat3 = mc.build_type_a(3, PrimeField(2))
    assert len(rm.all_rigid_subsets(cat3)) == 44


# ------------------------------------------------- search and greedy oracles


def replacement_oracle(rigid, x):
    """Cofibrant replacement by search, one morphism at a time: the
    candidates of ts_list in size order whose Hom(t, -) dimensions match
    x's, each Hom space in enumeration order, through the full
    ``classify``; it comes up empty where the replacement needs more than
    ``TS_TOTAL`` summands."""
    cat = rigid.cat
    p = cat.field.p
    if rigid.is_cofibrant(x):
        return x, ac.identity(cat, x)
    want = [sum(cat.hom_dim(t, v) for v in x.summands) for t in rigid.t_ind]
    for cand in rigid.ts_list:
        have = [sum(cat.hom_dim(t, v) for v in cand.summands)
                for t in rigid.t_ind]
        if have != want:
            continue
        d = ac.hom_space_dim(cat, cand, x)
        if p ** d <= p ** rm.ENUM_EXP_CAP:
            space = ac.enumerate_morphisms(cat, cand, x,
                                           cap=p ** rm.ENUM_EXP_CAP)
        else:
            rng = np.random.default_rng(rigid.seed)
            space = (ac.random_morphism_rng(cat, cand, x, rng)
                     for _ in range(rm.SAMPLE_COUNT))
        for q in space:
            if rigid.classify(q).wfib:
                return cand, q
    raise RuntimeError("no replacement found within budget")


def approx_oracle(rigid, x, side, key):
    """Greedy minimization rebuilding the morphism for every drop tried and
    rescanning from the first summand after each drop."""
    f = rigid.tautological_approx(x, side, key)
    while True:
        a = f.dom if side == "right" else f.cod
        for drop in range(len(a.summands)):
            g = _drop_summand(f, side, drop)
            if rigid.is_approximation(g, side, key):
                f = g
                break
        else:
            return f


def _drop_summand(f, side, k):
    """f with summand k of its approximating object (the domain on the
    right side, the codomain on the left) removed."""
    right = side == "right"
    a = f.dom if right else f.cod
    b = ac.Obj(a.summands[:k] + a.summands[k + 1:])
    if right:
        return ac.Mor(f.cat, b, f.cod, {(i, j - (j > k)): vec for (i, j), vec
                                        in f.blocks.items() if j != k})
    return ac.Mor(f.cat, f.dom, b, {(i - (i > k), j): vec for (i, j), vec
                                    in f.blocks.items() if i != k})


def _replacement_outcome(fn, rigid, x):
    try:
        qx, q = fn(rigid, x)
    except RuntimeError as e:
        return ("raised", str(e))
    return (qx.summands, tuple(ac.mor_to_vec(q).tolist()))


def _parity_sets():
    f2 = PrimeField(2)
    for rank in (2, 3):
        cat = mc.build_type_a(rank, f2)
        for t_set in rm.all_rigid_subsets(cat):
            yield cat, t_set
    d4 = mc.build_dynkin(mc.dynkin_d4_subspace(), f2)
    # the first set's search comes up empty on some objects; on the second
    # the minimal left T-approximation of M1111 depends on the drop order
    yield d4, ("M0001", "M0010", "SP1")
    yield d4, ("M0001", "SP0")


@pytest.fixture(scope="module")
def parity_rigids():
    return [rm.build_rigid(cat, t_set) for cat, t_set in _parity_sets()]


def test_replacement_matches_one_by_one_search(parity_rigids):
    """Every object of at most 2 summands, on every A2 and A3 rigid set and
    two D4 sets.  Where the search through ts_list comes up empty, the
    replacement's domain is beyond its ``TS_TOTAL`` summands."""
    from trimodel.oracle import objects_up_to
    raised = 0
    for rigid in parity_rigids:
        for x in objects_up_to(rigid.cat, 2):
            want = _replacement_outcome(replacement_oracle, rigid, x)
            got = _replacement_outcome(rm.RigidStructure.cofibrant_replacement,
                                       rigid, x)
            if want[0] != "raised":
                assert got == want, (rigid.t_ind, x)
                continue
            raised += 1
            qx, q = rigid.cofibrant_replacement(x)
            assert len(qx) > rm.TS_TOTAL, (rigid.t_ind, x)
            assert rigid.is_cofibrant(qx) and rigid.classify(q).wfib
    assert raised


@pytest.mark.parametrize("p,params", [
    (3, None),
    (2, {"ENUM_EXP_CAP": 2, "SAMPLE_COUNT": 40}),
])
def test_replacement_matches_one_by_one_search_odd_p_and_sampled(
        p, params, monkeypatch):
    """Odd characteristic, and candidates beyond the exhaustive cap, where
    both searches take the same draws, seeded by 5."""
    from trimodel.oracle import objects_up_to
    for name, value in (params or {}).items():
        monkeypatch.setattr(rm, name, value)
    cat = mc.build_type_a(3 if params else 2, PrimeField(p))
    for t_set in rm.all_rigid_subsets(cat):
        rigid = rm.build_rigid(cat, t_set, seed=5 if params else 0)
        for x in objects_up_to(cat, 2):
            assert _replacement_outcome(
                rm.RigidStructure.cofibrant_replacement, rigid, x) == \
                _replacement_outcome(replacement_oracle, rigid, x), \
                (t_set, x)


def test_every_d4_replacement_is_certified(rigids_d4):
    """Every object of at most 2 summands on every D4 rigid set at p = 2,
    some of them replaced by more than ``TS_TOTAL`` summands."""
    from trimodel.oracle import objects_up_to
    longest = 0
    for t, rigid in rigids_d4.items():
        for x in objects_up_to(rigid.cat, 2):
            qx, q = rigid.cofibrant_replacement(x)
            assert q.dom == qx and q.cod == x
            assert rigid.is_cofibrant(qx), (t, x)
            assert rigid.classify(q).wfib, (t, x)
            longest = max(longest, len(qx))
    assert longest > rm.TS_TOTAL


def test_replacement_failure_names_its_witness(cat, monkeypatch):
    """With no draws the search finds nothing; the error names the object,
    the constructed domain and that the rows were sampled."""
    monkeypatch.setattr(rm, "ENUM_EXP_CAP", 0)
    monkeypatch.setattr(rm, "SAMPLE_COUNT", 0)
    rigid = rm.build_rigid(cat, ["13"])
    with pytest.raises(RuntimeError, match=r"\['13'\] -> \['14'\] "
                       r"among the sampled"):
        rigid.cofibrant_replacement(ac.obj("14"))


def test_replacement_is_memoized_and_certified(rigid):
    x = ac.obj("14", "35")
    qx, q = rigid.cofibrant_replacement(x)
    assert rigid.cofibrant_replacement(ac.obj("14", "35"))[1] is q
    assert rigid.classify(q).wfib
    assert q.dom == qx and q.cod == x


def test_derived_state_lives_in_the_one_memo(cat):
    """Building a structure enumerates no ts_list, and the suites add no
    attribute to it: what they derive goes to its memo."""
    from trimodel import endalg, oracle
    rigid = rm.build_rigid(cat, ["13"])
    attrs = set(vars(rigid))
    key = ("RigidStructure.ts_list",)
    assert key not in rigid.memo
    oracle.run_axiom_suite(cat, rigid, budget=25)
    oracle.lemma_equivalence_suite(cat, rigid, gen_a_total=2)
    endalg.check_equivalence(rigid, pair_total=1)
    assert set(vars(rigid)) == attrs
    assert rigid.memo[key] is rigid.ts_list
    assert ("_generator_rows", 2, 2) in rigid.memo


def test_approx_matches_rescanning_greedy(parity_rigids):
    """Every vertex, both sides, every named subcategory: the minimal
    approximation is the one the rescanning greedy and the per-vertex
    forward pass find, and each single-summand drop from the tautological
    approximation is an approximation exactly when it is one vertex by
    vertex."""
    verdicts = set()
    for rigid in parity_rigids:
        for v in rigid.cat.verts:
            x = ac.obj(v)
            for side in ("left", "right"):
                for key in ("T", "sigmaT", "perp", "TS"):
                    got = rigid.approx(x, side, key)
                    for want in (approx_oracle(rigid, x, side, key),
                                 per_vertex_approx(rigid, x, side, key)):
                        assert (got.dom, got.cod) == (want.dom, want.cod)
                        assert list(got.blocks) == list(want.blocks)
                        assert got == want
                    f = rigid.tautological_approx(x, side, key)
                    for k in range(len(f.dom if side == "right" else f.cod)):
                        g = _drop_summand(f, side, k)
                        want = per_vertex_is_approximation(rigid, g, side,
                                                           key)
                        assert rigid.is_approximation(g, side, key) == want
                        verdicts.add(want)
    assert verdicts == {True, False}


def test_epsilon_verified_once_per_domain(cat, monkeypatch):
    rigid = rm.build_rigid(cat, ["13"])
    x = ac.obj("13", "25")
    seen = []
    verify = rigid.is_approximation
    monkeypatch.setattr(rigid, "is_approximation", lambda f, side, key: (
        seen.append(f.dom.summands) or verify(f, side, key)))
    rng = np.random.default_rng(0)
    for y in (ac.obj("14"), ac.obj("24", "35"), ac.obj("14")):
        rigid.factor_htpcof_wfib(ac.random_morphism_rng(cat, x, y, rng))
    assert seen == [x.summands]
    # a failed verification raises on every call: it is never recorded
    broken = rm.build_rigid(cat, ["13"])
    monkeypatch.setattr(broken, "is_approximation", lambda *a: False)
    f = ac.random_morphism_rng(cat, x, ac.obj("14"), rng)
    for _ in range(2):
        with pytest.raises(AssertionError, match="epsilon verification"):
            broken.factor_htpcof_wfib(f)


# ------------------------------------------ per-vertex Hom(t, -) oracles


def per_vertex_classes(rigid, f):
    """classify's (weq, fib), one vertex at a time: Hom(t, f) square and
    bijective for every t in T, Hom(sigma t, f) surjective for every t."""
    p = rigid.cat.field.p
    weq = fib = True
    for t in rigid.t_ind:
        m = ac.left_mul_matrix(f, ac.obj(t))
        weq = weq and m.shape[0] == m.shape[1] and \
            fast_rank(m, p) == m.shape[0]
        m = ac.left_mul_matrix(f, ac.obj(rigid.cat.sigma_vertex(t)))
        fib = fib and fast_rank(m, p) == m.shape[0]
    return weq, fib


def per_vertex_is_approximation(rigid, f, side, key):
    """Hom(u, f) (right side) or Hom(f, u) (left side) of full row rank for
    every vertex u of the subcategory."""
    p = rigid.cat.field.p
    mul = ac.left_mul_matrix if side == "right" else ac.right_mul_matrix
    return all(fast_rank(m, p) == m.shape[0]
               for m in (mul(f, ac.obj(u)) for u in rigid.subcat(key)))


def per_vertex_approx(rigid, x, side, key):
    """The tautological approximation minimized vertex by vertex: one
    forward pass drops each summand whose drop keeps
    ``per_vertex_is_approximation``."""
    f = rigid.tautological_approx(x, side, key)
    k = 0
    while k < len(f.dom if side == "right" else f.cod):
        g = _drop_summand(f, side, k)
        if per_vertex_is_approximation(rigid, g, side, key):
            f = g
        else:
            k += 1
    return f


def _class_parity_cases():
    """(category, rigid set, pairs): every rigid set of A2 and the A3 sets
    13,35 and 13,35,36, at p = 2 and 3, each on every pair of objects of at
    most two summands (pairs None), and one D4 set on 400 seeded pairs."""
    for rank in (2, 3):
        for p in (2, 3):
            cat = mc.build_type_a(rank, PrimeField(p))
            sets = rm.all_rigid_subsets(cat)
            for t_set in sets if rank == 2 else sets[11::22]:
                yield pytest.param(cat, t_set, None,
                                   id=f"A{rank}-p{p}-{','.join(t_set)}")
    d4 = mc.build_dynkin(mc.dynkin_d4_subspace(), PrimeField(2))
    yield pytest.param(d4, ("M0001", "M0010", "SP1"), 400,
                       id="D4-p2-M0001,M0010,SP1")


@pytest.mark.parametrize("cat,t_set,pairs", _class_parity_cases())
def test_classify_and_class_masks_match_per_vertex_oracle(cat, t_set, pairs):
    """Hom(T, f) and Hom(sigma T, f) on the sum objects give the verdicts of
    the per-vertex loop, on every morphism of every Hom space tested."""
    from trimodel.oracle import objects_up_to
    rigid = rm.build_rigid(cat, t_set)
    p = cat.field.p
    pool = objects_up_to(cat, 2)
    spaces = [(x, y) for x in pool for y in pool]
    if pairs is not None:
        rng = np.random.default_rng(0)
        spaces = [spaces[i] for i in rng.choice(len(spaces), pairs,
                                                replace=False)]
    seen = set()
    for x, y in spaces:
        d = ac.hom_space_dim(cat, x, y)
        rows = next(ac.coeff_chunks(p, d, 20, 0, 0))[0]
        (weq, fib, _), = rigid.class_masks([(x, y, rows)])
        for row, mask in zip(rows, zip(weq, fib)):
            f = ac.vec_to_mor(cat, x, y, row)
            want = per_vertex_classes(rigid, f)
            got = rigid.classify(f)
            assert (got.weq, got.fib) == tuple(mask) == want, (x, y, row)
            seen.add(want)
    assert {w for w, _ in seen} == {True, False}
    assert {fb for _, fb in seen} == {True, False}


def test_square_sum_with_a_non_square_vertex_is_not_weq():
    """With T = 13 + 14 in A2, f: 24 -> 13 + 25 has Hom(T, f) of shape 1 x 1,
    while Hom(13, f) is 1 x 0 and Hom(14, f) is 0 x 1: the square sum
    matrix is zero, and f is no weak equivalence."""
    cat = mc.build_type_a(2, PrimeField(2))
    rigid = rm.build_rigid(cat, ["13", "14"])
    x, y = ac.obj("24"), ac.obj("13", "25")
    f = ac.elementary(cat, x, y, 1, 0, 0)
    assert ac.left_mul_matrix(f, ac.obj("13", "14")).shape == (1, 1)
    assert ac.left_mul_matrix(f, ac.obj("13")).shape == (1, 0)
    assert ac.left_mul_matrix(f, ac.obj("14")).shape == (0, 1)
    assert not per_vertex_classes(rigid, f)[0]
    assert not rigid.classify(f).weq
    (weq, _, _), = rigid.class_masks([(x, y, ac.mor_to_vec(f)[None])])
    assert not weq[0]


def bundle_greedy(rigid, x, side, key):
    """The tautological approximation of x minimized as one bundle: one
    forward pass drops each summand copy whose drop keeps the whole
    approximation property."""
    f = rigid.tautological_approx(x, side, key)
    k = 0
    while k < len(f.dom if side == "right" else f.cod):
        g = _drop_summand(f, side, k)
        if rigid.is_approximation(g, side, key):
            f = g
        else:
            k += 1
    return f


def _additive_cases():
    f2, f3 = PrimeField(2), PrimeField(3)
    a2, a3 = mc.build_type_a(2, f2), mc.build_type_a(3, f2)
    for t_set in rm.all_rigid_subsets(a2):
        yield pytest.param(a2, t_set, id=f"A2-p2-{','.join(t_set)}")
    for t_set in (("13",), ("13", "46"), ("13", "15", "35")):
        yield pytest.param(a3, t_set, id=f"A3-p2-{','.join(t_set)}")
    yield pytest.param(mc.build_type_a(3, f3), ("13", "35", "36"),
                       id="A3-p3-13,35,36")
    yield pytest.param(mc.build_dynkin(mc.dynkin_d4_subspace(), f2),
                       ("M0001", "SP0"), id="D4-p2-M0001,SP0")


@pytest.mark.parametrize("cat_k,t_set", _additive_cases())
def test_additive_approx_matches_whole_bundle_greedy(cat_k, t_set):
    """Every object of at most two summands and 40 drawn ts_list objects of
    three or four, both sides, every named subcategory: the approximation
    assembled from the summand vertices is the one the greedy pass over
    the whole tautological bundle finds, with the same block order."""
    from trimodel.oracle import objects_up_to
    rigid = rm.build_rigid(cat_k, t_set)
    big = [x for x in rigid.ts_list if len(x) > 2]
    rng = np.random.default_rng(1)
    drawn = [big[int(i)] for i in rng.integers(0, len(big), 40)] if big \
        else []
    for x in objects_up_to(cat_k, 2) + drawn:
        for side in ("left", "right"):
            for key in ("T", "sigmaT", "perp", "TS"):
                got = rigid.approx(x, side, key)
                want = bundle_greedy(rigid, x, side, key)
                assert (got.dom, got.cod) == (want.dom, want.cod), \
                    (x, side, key)
                assert list(got.blocks) == list(want.blocks)
                assert got == want


def test_classify_builds_no_matrix_when_dimensions_decide(monkeypatch):
    """Hom(T, f) is built only when dim Hom(T, X) = dim Hom(T, Y) > 0, and
    Hom(sigma T, f) only when 0 < dim Hom(sigma T, Y) <= dim
    Hom(sigma T, X); the flags are those of the per-vertex oracle either
    way, on every morphism of every Hom space of at most two summands."""
    from trimodel.oracle import objects_up_to
    cat3 = mc.build_type_a(3, PrimeField(2))
    rigid = rm.build_rigid(cat3, ["13", "15", "35"])
    t, st = ac.obj(*rigid.t_ind), ac.obj(*rigid.sigma_t_ind)
    left_mul = ac.left_mul_matrix
    forbidden = []

    def guarded(f, w):
        assert w not in forbidden, (f, w)
        return left_mul(f, w)

    seen = set()
    pool = objects_up_to(cat3, 2)
    for x in pool:
        for y in pool[::3]:
            dims = [ac.hom_space_dim(cat3, w, z) for w in (t, st)
                    for z in (x, y)]
            weq_by_dims = dims[0] != dims[1] or dims[0] == 0
            fib_by_dims = dims[3] == 0 or dims[2] < dims[3]
            for f in ac.enumerate_morphisms(cat3, x, y, cap=2 ** 6):
                want = per_vertex_classes(rigid, f)
                forbidden[:] = [w for w, decided in ((t, weq_by_dims),
                                                     (st, fib_by_dims))
                                if decided]
                monkeypatch.setattr(ac, "left_mul_matrix", guarded)
                got = rigid.classify(f)
                flags = (got.weq, got.fib)  # read under the guard
                monkeypatch.setattr(ac, "left_mul_matrix", left_mul)
                assert flags == want, f
                seen.update(name for name, hit in (
                    ("weq: unequal dims", dims[0] != dims[1]),
                    ("weq: both zero", dims[0] == dims[1] == 0),
                    ("fib: zero rows", dims[3] == 0),
                    ("fib: more rows than columns", 0 < dims[2] < dims[3]),
                    ("both matrices built",
                     not weq_by_dims and not fib_by_dims)) if hit)
    assert len(seen) == 5, seen


def _set_work(rigid):
    """classify and approx work on every vertex of the category."""
    for v in rigid.cat.verts:
        x = ac.Obj((v,))
        for side in ("left", "right"):
            for key in ("T", "sigmaT"):
                rigid.classify(rigid.approx(x, side, key))


def test_layout_memo_holds_one_rigid_set_at_a_time():
    """Every new RigidStructure starts an empty layout memo on its category:
    over all 44 A3 rigid sets built one after another on one category, the
    memo never holds an entry made during an earlier set's work, and it ends
    the sweep no larger than one set's work makes it."""
    cat3 = mc.build_type_a(3, PrimeField(2))
    sets = rm.all_rigid_subsets(cat3)
    assert len(sets) == 44
    largest = 0
    prev: dict = {}
    for t_set in sets:
        # prev keeps the earlier entries alive, so their ids stay unique
        prev_ids = {id(v) for v in prev.values()}
        rigid = rm.build_rigid(cat3, t_set)
        memo = cat3._layout_cache
        assert not prev_ids & {id(v) for v in memo.values()}, t_set
        _set_work(rigid)
        largest = max(largest, sum(id(v) not in prev_ids
                                   for v in memo.values()))
        prev = dict(memo)
    assert 0 < len(cat3._layout_cache) <= largest


@pytest.mark.parametrize("build,t_set,other", [
    (lambda: mc.build_type_a(3, PrimeField(2)), ("13", "35"),
     [("13",), ("14", "15"), ("13", "15", "35")]),
    (lambda: mc.build_dynkin(mc.dynkin_d4_subspace(), PrimeField(2)),
     ("M0001", "M0010", "SP1"), [("M0001", "SP0"), ("M0010",)]),
], ids=["A3-p2-13,35", "D4-p2-M0001,M0010,SP1"])
def test_axiom_report_same_on_cold_and_warm_layout_memo(build, t_set, other):
    """The axiom suite's report is byte-identical on a fresh category and
    after other rigid sets' work on the same category, with the memo then
    holding their layouts, not the suite's own."""
    from trimodel.oracle import run_axiom_suite
    from trimodel.report import emit_report

    cold_cat = build()
    cold = emit_report(run_axiom_suite(
        cold_cat, rm.build_rigid(cold_cat, t_set), budget=30), "json")
    warm_cat = build()
    rigid = rm.build_rigid(warm_cat, t_set)
    for o in other:
        _set_work(rm.build_rigid(warm_cat, o))
    warm = emit_report(run_axiom_suite(warm_cat, rigid, budget=30), "json")
    assert warm == cold


FLAGS = ("weq", "fib", "wfib", "wcof", "retraction", "complement")


def _on_demand_cases():
    """(category, rigid sets): every A2 and A3 set and 8 seeded D4 sets,
    each at p = 2 and 3."""
    for p in (2, 3):
        for rank in (2, 3):
            cat = mc.build_type_a(rank, PrimeField(p))
            yield pytest.param(cat, rm.all_rigid_subsets(cat),
                               id=f"A{rank}-p{p}")
        d4 = mc.build_dynkin(mc.dynkin_d4_subspace(), PrimeField(p))
        sets = rm.all_rigid_subsets(d4)
        pick = np.random.default_rng(p).choice(len(sets), 8, replace=False)
        yield pytest.param(d4, [sets[i] for i in sorted(pick)], id=f"D4-p{p}")


@pytest.mark.parametrize("cat,sets", _on_demand_cases())
def test_on_demand_flags_match_eager_classify(cat, sets):
    """Every flag of ``classify``, its retraction and its complement equal
    those of ``eager_classify``, read in a seeded order per morphism, on
    random morphisms, weak cofibrations and cofibrant replacements."""
    from trimodel.oracle import _wcof_family, objects_up_to
    rng = np.random.default_rng(0)
    pool = objects_up_to(cat, 2)
    orders = list(itertools.permutations(FLAGS))
    seen = {name: set() for name in ("weq", "fib", "wfib", "wcof")}
    for t_set in sets:
        rigid = rm.build_rigid(cat, t_set)
        mors = [ac.random_morphism_rng(
            cat, pool[int(rng.integers(len(pool)))],
            pool[int(rng.integers(len(pool)))], rng) for _ in range(12)]
        mors += _wcof_family(rigid, pool, rng, 3)
        mors += [rigid.cofibrant_replacement(
            pool[int(rng.integers(len(pool)))])[1] for _ in range(2)]
        for f in mors:
            want = eager_classify(rigid, f)
            got = rigid.classify(f)
            for name in orders[int(rng.integers(len(orders)))]:
                assert getattr(got, name) == want[name], (t_set, f, name)
            for name, vals in seen.items():
                vals.add(want[name])
    assert all(vals == {True, False} for vals in seen.values()), seen
