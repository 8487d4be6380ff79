"""The Hom-space lemma suite and the batched generating-family oracle against
their per-morphism definitions.

The oracles below are the one-morphism-at-a-time suite loop and the
one-generator-row-at-a-time lifting loop: every morphism is enumerated as a
``Mor``, classified by ``classify``, and tested against each generator row
with two ``fast_rank`` calls, stopping at the first failure.  The batched
code must give the same report bytes, and the same verdict on every
morphism, including on structures broken on purpose, where the witness
lists are long and their order shows.
"""

import itertools

import numpy as np
import pytest

from trimodel import addcat as ac
from trimodel import endalg as ea
from trimodel import meshcat as mc
from trimodel import oracle
from trimodel import rigidmodel as rm
from trimodel.exactlin import PrimeField, fast_rank
from trimodel.report import Report, emit_report, mor_to_json


def _elementary_gen_tensor(rigid, r_obj, a_obj, z_obj, cache):
    """right_mul_matrix of every elementary morphism R -> A into Hom(-, Z)."""
    key = (r_obj.summands, a_obj.summands, z_obj.summands)
    if key not in cache:
        cat = rigid.cat
        layout, dim_g = ac.hom_layout(cat, r_obj, a_obj)
        t = np.zeros((dim_g, ac.hom_space_dim(cat, r_obj, z_obj),
                      ac.hom_space_dim(cat, a_obj, z_obj)), dtype=np.int64)
        for (i, j), off, d in layout:
            for k in range(d):
                e = ac.elementary(cat, r_obj, a_obj, i, j, k)
                t[off + k] = ac.right_mul_matrix(e, z_obj)
        cache[key] = t
    return cache[key]


def per_row_rlp(rigid, r, mult_bound=2, a_total=None, cache=None):
    """(verdict, exhaustive), one generator row at a time."""
    cat = rigid.cat
    p = cat.field.p
    cache = {} if cache is None else cache
    budget = p ** rigid.params.enum_exp_cap
    x_obj, y_obj = r.dom, r.cod
    lf_cache = {}

    def lf(w):
        if w.summands not in lf_cache:
            lf_cache[w.summands] = ac.left_mul_matrix(r, w)
        return lf_cache[w.summands]

    exhaustive = True
    for (r_obj, a_obj) in oracle._generating_family(rigid, mult_bound,
                                                    a_total):
        dim_g = ac.hom_space_dim(cat, r_obj, a_obj)
        if dim_g == 0:
            coeffs = np.zeros((1, 0), dtype=np.int64)
        elif p ** dim_g <= budget:
            coeffs = np.array(
                list(itertools.product(range(p), repeat=dim_g)),
                dtype=np.int64).reshape(-1, dim_g)
        else:
            exhaustive = False
            rng = np.random.default_rng(rigid.params.seed)
            coeffs = rng.integers(
                0, p, size=(rigid.params.sample_count, dim_g))
        if len(r_obj) >= 1 and len(a_obj) >= 1 and dim_g:
            layout, _ = ac.hom_layout(cat, r_obj, a_obj)
            skip = np.zeros(coeffs.shape[0], dtype=bool)
            for side in (0, 1):
                groups = {}
                for (ij, off, d) in layout:
                    groups.setdefault(ij[side], []).extend(
                        range(off, off + d))
                for idx in groups.values():
                    skip |= ~np.any(coeffs[:, idx], axis=1)
            coeffs = coeffs[~skip]
            if coeffs.shape[0] == 0:
                continue
        t_x = _elementary_gen_tensor(rigid, r_obj, a_obj, x_obj, cache)
        t_y = _elementary_gen_tensor(rigid, r_obj, a_obj, y_obj, cache)
        d_rx, d_ax = t_x.shape[1], t_x.shape[2]
        d_ry, d_ay = t_y.shape[1], t_y.shape[2]
        if d_rx + d_ay == 0:
            continue
        l_r = lf(r_obj)
        l_a = lf(a_obj)
        n_g = coeffs.shape[0]
        rg_x = (coeffs @ t_x.reshape(dim_g, d_rx * d_ax)).reshape(
            n_g, d_rx, d_ax) % p
        rg_y = (coeffs @ t_y.reshape(dim_g, d_ry * d_ay)).reshape(
            n_g, d_ry, d_ay) % p
        for n in range(n_g):
            lam = np.concatenate([l_r, -rg_y[n]], axis=1) % p
            psi = np.concatenate([rg_x[n], l_a], axis=0)
            if fast_rank(psi, p) != d_rx + d_ay - fast_rank(lam, p):
                return False, exhaustive
    return True, exhaustive


def per_morphism_suite(cat, rigid, max_summands=2, seed=0, gen_mult_bound=2,
                       gen_a_total=None):
    """(report, records): the lemma suite one morphism at a time, with one
    record per enumerated morphism: (perp ideal member, Hom(T, f) = 0,
    generating-family verdict, weq, fib, wcof, correction solvable)."""
    rng = np.random.default_rng(seed)
    p = cat.field.p
    pool = oracle.objects_up_to(cat, max_summands)
    rep = Report("lemmas", {
        "field_char": p, "T": list(rigid.t_ind), "seed": seed,
        "max_summands": max_summands,
    })
    bad_a, bad_b, bad_c, bad_d = [], [], [], []
    records = []
    fib_pool = []
    fib_rng = np.random.default_rng(seed + 1)
    for _ in range(8):
        fib_pool.append(rigid.factor_wcof_fib(
            oracle._sample_mor(cat, pool, fib_rng)).second)
    exhaustive = True
    gen_cache = {}
    cap_exp = rigid.params.enum_exp_cap
    for x in pool:
        for y in pool:
            if ac.hom_space_dim(cat, x, y) <= cap_exp:
                space = ac.enumerate_morphisms(cat, x, y, cap=p ** cap_exp)
            else:
                exhaustive = False
                space = (ac.random_morphism_rng(cat, x, y, rng)
                         for _ in range(rigid.params.sample_count))
            for f in space:
                cls = rigid.classify(f)
                in_ideal = rigid.ideal_membership(f, "perp")
                functor_zero = all(
                    not np.any(ac.left_mul_matrix(f, ac.obj(t)))
                    for t in rigid.t_ind)
                if in_ideal != functor_zero:
                    bad_a.append(mor_to_json(f))
                verdict, _ = per_row_rlp(
                    rigid, f, mult_bound=gen_mult_bound, a_total=gen_a_total,
                    cache=gen_cache)
                if verdict != cls.wfib:
                    bad_b.append({"f": mor_to_json(f), "wfib": cls.wfib,
                                  "oracle": verdict})
                if cls.wcof:
                    if ac.compose(cls.retraction, f) != ac.identity(cat, x):
                        bad_c.append({"f": mor_to_json(f),
                                      "reason": "retraction not verified"})
                    elif any(v not in rigid.sigma_t_ind
                             for v in cls.complement.summands):
                        bad_c.append({"f": mor_to_json(f),
                                      "reason": "complement outside sigma T"})
                    else:
                        for r in fib_pool[:4]:
                            if not oracle.rlp_all_squares(rigid, f, r,
                                                          "plain"):
                                bad_c.append({
                                    "f": mor_to_json(f),
                                    "reason": "LLP vs fibration failed"})
                                break
                got = rigid._homotopy_correction(f, ac.zero_mor(cat, x, y))
                if (got is not None) != in_ideal:
                    bad_d.append(mor_to_json(f))
                records.append((in_ideal, functor_zero, verdict, cls.weq,
                                cls.fib, cls.wcof, got is not None))
    crng = np.random.default_rng(seed + 2)
    for _ in range(50):
        for ell in oracle._wcof_family(rigid, pool, crng, 1):
            if not rigid.classify(ell).wcof:
                bad_c.append({"f": mor_to_json(ell),
                              "reason": "canonical form not flagged"})
    prng = np.random.default_rng(seed + 3)
    for _ in range(25):
        x = oracle._sample_obj(pool, prng)
        y = oracle._sample_obj(pool, prng)
        f = ac.random_morphism_rng(cat, x, y, prng)
        g = ac.random_morphism_rng(cat, x, y, prng)
        if (rigid.right_homotopy(f, g) is not None) != rigid.homotopic(f, g):
            bad_d.append({"f": mor_to_json(f), "g": mor_to_json(g)})
    rep.add("lemma-ideal-vanishing", not bad_a,
            "exhaustive" if exhaustive else "sampled", bad_a[:3] or None)
    rep.add("lemma-generating-rlp-vs-trivial-fibration", not bad_b,
            "exhaustive" if exhaustive else "sampled", bad_b[:3] or None)
    rep.add("lemma-weak-cofibration-form", not bad_c, "",
            bad_c[:3] or None)
    rep.add("lemma-homotopy-witness", not bad_d, "",
            bad_d[:3] or None)
    return rep, records


def batched_records(cat, rigid, max_summands=2, seed=0, gen_mult_bound=2,
                    gen_a_total=None):
    """The same records, from the batched building blocks of the suite."""
    p = cat.field.p
    pool = oracle.objects_up_to(cat, max_summands)
    spaces, _ = oracle._hom_spaces(rigid, pool, np.random.default_rng(seed))
    n_pairs = len(oracle._generator_rows(rigid, gen_mult_bound, gen_a_total))
    fails = oracle._generating_failures(rigid, spaces, gen_mult_bound,
                                        gen_a_total)
    records = []
    for (x, y, coeffs), fail, (weq, fib) in zip(
            spaces, fails, rigid.class_masks(spaces)):
        in_ideal = oracle._in_span(rigid.ideal_span_matrix("perp", x, y),
                                   coeffs, p)
        zero = np.ones(len(coeffs), dtype=bool)
        for t in rigid.t_ind:
            zero &= ~np.any(ac.apply_tensor(
                ac.left_mul_tensor(cat, ac.obj(t), x, y), coeffs, p),
                axis=(1, 2))
        a = rigid.tautological_approx(x, "left", "perp")
        solvable = oracle._in_span(ac.right_mul_matrix(a, y), coeffs, p)
        rest = rigid.split_mono_complement(x, y)
        for n, vec in enumerate(coeffs):
            wcof = rest is not None and ac.find_retraction(
                ac.vec_to_mor(cat, x, y, vec)) is not None
            records.append((bool(in_ideal[n]), bool(zero[n]),
                            bool(fail[n] == n_pairs), bool(weq[n]),
                            bool(fib[n]), wcof, bool(solvable[n])))
    return records


def _a3_subset():
    """13,15,35 (the lemma-suite benchmark's costliest orbit) and two more
    A3 sets drawn by a fixed seed."""
    cat = mc.build_type_a(3, PrimeField(2))
    keys = [",".join(t) for t in rm.all_rigid_subsets(cat)]
    keys.remove("13,15,35")
    rng = np.random.default_rng(6)
    drawn = sorted(keys[int(i)] for i in
                   rng.choice(len(keys), size=2, replace=False))
    return ["13,15,35"] + drawn


def _a2_sets():
    cat = mc.build_type_a(2, PrimeField(2))
    return [",".join(t) for t in rm.all_rigid_subsets(cat)]


# (rank, p, rigid set, generator multiplicity bound).  At p = 3 the
# per-row oracle with multiplicity 2 takes most of a minute per set with
# |T| = 2 (a generator pair with 4,064 rows), so p = 3 runs with
# multiplicity 1.
CASES = ([(2, 2, key, 2) for key in _a2_sets()]
         + [(2, 3, key, 1) for key in _a2_sets()]
         + [(3, 2, key, 2) for key in _a3_subset()])

_CATS = {}


def _cat(rank, p):
    if (rank, p) not in _CATS:
        _CATS[(rank, p)] = mc.build_type_a(rank, PrimeField(p))
    return _CATS[(rank, p)]


@pytest.mark.parametrize("rank,p,key,mult", CASES,
                         ids=[f"A{r}-p{p}-{k}" for r, p, k, _ in CASES])
def test_suite_matches_per_morphism_oracle(rank, p, key, mult):
    cat = _cat(rank, p)
    rigid = rm.build_rigid(cat, key.split(","))
    want, want_records = per_morphism_suite(
        cat, rigid, seed=0, gen_mult_bound=mult, gen_a_total=2)
    got = oracle.lemma_equivalence_suite(
        cat, rigid, seed=0, gen_mult_bound=mult, gen_a_total=2)
    assert emit_report(got, "json") == emit_report(want, "json")
    assert emit_report(got, "text") == emit_report(want, "text")
    assert batched_records(cat, rigid, seed=0, gen_mult_bound=mult,
                           gen_a_total=2) == want_records


def test_one_morphism_call_matches_per_row_oracle():
    # verdict and exhaustive flag of the public one-morphism call, on every
    # morphism between objects of at most two summands of A2; a cap of 0
    # samples every generator pair with a nonzero Hom space
    cat = _cat(2, 2)
    pool = oracle.objects_up_to(cat, 2)
    for key in ("13", "13,14"):
        cache = {}
        for params in (None, rm.EnumParams(enum_exp_cap=0)):
            rigid = rm.build_rigid(cat, key.split(","), params)
            for x, y in itertools.product(pool, pool):
                for f in ac.enumerate_morphisms(cat, x, y):
                    assert oracle.rlp_against_generating_I(
                        rigid, f, a_total=2) == per_row_rlp(
                            rigid, f, a_total=2, cache=cache)


def test_a_pair_fails_when_any_of_its_rows_fails(monkeypatch):
    # every morphism lifts against an identity, and r lifts against a zero
    # map v -> v iff Hom(v, r) is bijective: a pair whose rows are the
    # identity and zero of End(v) separates the two, in either row order
    cat = _cat(2, 2)
    rigid = rm.build_rigid(cat, ["13"])
    v = ac.obj("14")
    ident = np.array([[1]])
    zero = np.array([[0]])
    spaces = [(v, v, np.array([[0], [1]]))]    # the zero map and id_v
    for rows in (np.concatenate([ident, zero]),
                 np.concatenate([zero, ident]), ident):
        gens = [oracle._GeneratorRows(v, v, rows, False)]
        monkeypatch.setattr(oracle, "_generator_rows", lambda *a: gens)
        fails = oracle._generating_failures(rigid, spaces, 2, 2)
        want = [1, 1] if len(rows) == 1 else [0, 1]
        assert fails[0].tolist() == want
    # the exhaustive flag covers the pairs walked, the failing one included
    zero_map = ac.zero_mor(cat, v, v)
    for sampled, want in (((False, True), (False, False)),
                          ((True, False), (False, False)),
                          ((False, False), (False, True))):
        gens = [oracle._GeneratorRows(v, v, ident, sampled[0]),
                oracle._GeneratorRows(v, v, zero, sampled[1])]
        monkeypatch.setattr(oracle, "_generator_rows", lambda *a: gens)
        assert oracle.rlp_against_generating_I(rigid, zero_map) == want
    gens = [oracle._GeneratorRows(v, v, zero, False),
            oracle._GeneratorRows(v, v, ident, True)]
    monkeypatch.setattr(oracle, "_generator_rows", lambda *a: gens)
    assert oracle.rlp_against_generating_I(rigid, zero_map) == (False, True)
    assert oracle.rlp_against_generating_I(
        rigid, ac.identity(cat, v)) == (True, False)


TENSOR_KINDS = [("A3", 2), ("A3", 3), ("D4", 2), ("D4", 3)]


def _tensor_cat(kind, p):
    # D4 has two-dimensional Hom spaces, where a transposed block shows
    if kind == "A3":
        return _cat(3, p)
    if ("D4", p) not in _CATS:
        _CATS[("D4", p)] = mc.build_dynkin(mc.dynkin_d4_subspace(),
                                           PrimeField(p))
    return _CATS[("D4", p)]


@pytest.mark.parametrize("kind,p", TENSOR_KINDS)
def test_tensors_match_multiplication_matrices(kind, p):
    cat = _tensor_cat(kind, p)
    rigid = rm.build_rigid(cat, [rm.all_rigid_subsets(cat)[0][0]])
    pool = oracle.objects_up_to(cat, 2)
    rng = np.random.default_rng(p)
    cache = {}
    for _ in range(150):
        r, a, z = (pool[int(rng.integers(0, len(pool)))] for _ in range(3))
        r = ac.dsum_obj(r, pool[int(rng.integers(0, len(pool)))])
        rt = ac.right_mul_tensor(cat, r, a, z)
        assert np.array_equal(rt % p,
                              _elementary_gen_tensor(rigid, r, a, z, cache))
        g = ac.random_morphism_rng(cat, r, a, rng)
        assert np.array_equal(
            ac.apply_tensor(rt, ac.mor_to_vec(g)[None], p)[0],
            ac.right_mul_matrix(g, z))
        f = ac.random_morphism_rng(cat, a, z, rng)
        assert np.array_equal(
            ac.apply_tensor(ac.left_mul_tensor(cat, r, a, z),
                            ac.mor_to_vec(f)[None], p)[0],
            ac.left_mul_matrix(f, r))


@pytest.mark.parametrize("kind,p", TENSOR_KINDS)
def test_module_and_induced_maps_match_elementary_maps(kind, p):
    # module_of against right_mul_matrix of each elementary map between T
    # vertices, and induced_tensor against left_mul_matrix of each
    # elementary map x -> y, on every T vertex
    cat = _tensor_cat(kind, p)
    rigid = rm.build_rigid(cat, rm.all_rigid_subsets(cat)[-1])
    alg = ea.end_algebra(rigid)
    pool = oracle.objects_up_to(cat, 2)
    for x in pool:
        offsets, total = ea.module_layout(rigid, x)
        want = np.zeros((alg.dim, total, total), dtype=np.int64)
        i = 0
        for a in rigid.t_ind:
            for b in rigid.t_ind:
                for k in range(cat.hom_dim(a, b)):
                    e = ac.elementary(cat, ac.obj(a), ac.obj(b), 0, 0, k)
                    m = ac.right_mul_matrix(e, x)
                    want[i, offsets[a]:offsets[a] + m.shape[0],
                         offsets[b]:offsets[b] + m.shape[1]] = m
                    i += 1
        assert np.array_equal(ea.module_of(rigid, x, alg).action, want)
    rng = np.random.default_rng(p)
    for _ in range(40):
        x, y = (pool[int(rng.integers(0, len(pool)))] for _ in range(2))
        src_off, src_dim = ea.module_layout(rigid, x)
        dst_off, dst_dim = ea.module_layout(rigid, y)
        layout, d = ac.hom_layout(cat, x, y)
        want = np.zeros((d, dst_dim, src_dim), dtype=np.int64)
        for (i, j), off, dd in layout:
            for k in range(dd):
                e = ac.elementary(cat, x, y, i, j, k)
                for t in rigid.t_ind:
                    m = ac.left_mul_matrix(e, ac.obj(t))
                    want[off + k, dst_off[t]:dst_off[t] + m.shape[0],
                         src_off[t]:src_off[t] + m.shape[1]] = m
        assert np.array_equal(ea.induced_tensor(rigid, x, y) % p, want)


def _drop_a_perp_vertex(rigid, monkeypatch):
    monkeypatch.setattr(rigid, "perp_ind", rigid.perp_ind[1:])


def _truncate_cofibrant_list(rigid, monkeypatch):
    monkeypatch.setattr(rigid, "ts_list", rigid.ts_list[:2])


def _wrong_retractions(rigid, monkeypatch):
    monkeypatch.setattr(ac, "find_retraction",
                        lambda f: ac.zero_mor(f.cat, f.cod, f.dom))


@pytest.mark.parametrize("breakage", [_drop_a_perp_vertex,
                                      _truncate_cofibrant_list,
                                      _wrong_retractions])
def test_broken_structure_reports_the_same_first_witnesses(breakage,
                                                           monkeypatch):
    # at p = 3 a one-dimensional Hom space holds two nonzero morphisms, so
    # the first three witnesses show the order inside a Hom space too
    cat = _cat(2, 3)
    rigid = rm.build_rigid(cat, ["13"])
    breakage(rigid, monkeypatch)
    want, _ = per_morphism_suite(cat, rigid, seed=0, gen_mult_bound=1,
                                 gen_a_total=2)
    got = oracle.lemma_equivalence_suite(cat, rigid, seed=0,
                                         gen_mult_bound=1, gen_a_total=2)
    assert not want.passed()
    assert any(len(c.witnesses or []) == 3 for c in want.checks)
    assert emit_report(got, "json") == emit_report(want, "json")
