import itertools

import numpy as np
import pytest

from trimodel import addcat as ac
from trimodel import meshcat as mc
from trimodel.exactlin import PrimeField

from helpers import sigma_mor


@pytest.fixture(scope="module")
def cat():
    return mc.build_type_a(2, PrimeField(2))


def test_compose_with_identity(cat):
    x = ac.obj("13", "14")
    f = ac.random_morphism_rng(cat, x, ac.obj("24"), np.random.default_rng(1))
    assert ac.compose(f, ac.identity(cat, x)) == f
    assert ac.compose(ac.identity(cat, ac.obj("24")), f) == f


def test_compose_with_zero(cat):
    x, y, z = ac.obj("13"), ac.obj("14"), ac.obj("24")
    f = ac.random_morphism_rng(cat, x, y, np.random.default_rng(2))
    assert ac.compose(ac.Mor(cat, y, z), f).is_zero()


def test_mesh_composite_zero_at_object_level(cat):
    a1 = ac.elementary(cat, ac.obj("13"), ac.obj("14"), 0, 0, 0)
    a2 = ac.elementary(cat, ac.obj("14"), ac.obj("24"), 0, 0, 0)
    assert ac.compose(a2, a1).is_zero()


def test_compose_endpoint_mismatch(cat):
    f = ac.identity(cat, ac.obj("13"))
    g = ac.identity(cat, ac.obj("14"))
    with pytest.raises(ValueError):
        ac.compose(g, f)


def test_compose_associative_sampled(cat):
    objs = [ac.obj("13", "14"), ac.obj("14", "24"), ac.obj("24", "25"),
            ac.obj("25", "35", "13")]
    rng = np.random.default_rng(7)
    for _ in range(40):
        f = ac.random_morphism_rng(cat, objs[0], objs[1], rng)
        g = ac.random_morphism_rng(cat, objs[1], objs[2], rng)
        h = ac.random_morphism_rng(cat, objs[2], objs[3], rng)
        assert ac.compose(ac.compose(h, g), f) == \
            ac.compose(h, ac.compose(g, f))


def test_is_iso_identity_and_zero(cat):
    x = ac.obj("13", "25")
    assert ac.is_iso(ac.identity(cat, x))
    assert not ac.is_iso(ac.Mor(cat, x, x))


def test_is_iso_rank_deficient(cat):
    x = ac.obj("13", "13")
    f = ac.Mor(cat, x, x, {(0, 0): [1], (0, 1): [1],
                           (1, 0): [1], (1, 1): [1]})
    assert not ac.is_iso(f)


def test_is_iso_requires_matching_multisets(cat):
    f = ac.Mor(cat, ac.obj("13"), ac.obj("14"))
    assert not ac.is_iso(f)


def test_inverse_verifies(cat):
    rng = np.random.default_rng(5)
    x = ac.obj("13", "14", "13")
    found = 0
    while found < 10:
        f = ac.random_morphism_rng(cat, x, x, rng)
        if not ac.is_iso(f):
            continue
        found += 1
        g = ac.inverse(f)
        assert ac.compose(g, f) == ac.identity(cat, x)
        assert ac.compose(f, g) == ac.identity(cat, x)


def test_find_retraction_identity(cat):
    x = ac.obj("13")
    r = ac.find_retraction(ac.identity(cat, x))
    assert r == ac.identity(cat, x)


def test_find_retraction_split_inclusion(cat):
    x, z = ac.obj("13"), ac.obj("35")
    inc = ac.Mor(cat, x, ac.dsum_obj(x, z), {(0, 0): [1]})
    r = ac.find_retraction(inc)
    assert r is not None
    assert ac.compose(r, inc) == ac.identity(cat, x)


def test_find_retraction_none_for_arrow(cat):
    arrow = ac.elementary(cat, ac.obj("13"), ac.obj("14"), 0, 0, 0)
    assert ac.find_retraction(arrow) is None


def test_retraction_implies_submultiset(cat):
    rng = np.random.default_rng(11)
    pool = [ac.obj("13"), ac.obj("13", "14"), ac.obj("14", "24"),
            ac.obj("13", "25"), ac.obj("25",)]
    for _ in range(60):
        x = pool[int(rng.integers(0, len(pool)))]
        y = pool[int(rng.integers(0, len(pool)))]
        f = ac.random_morphism_rng(cat, x, y, rng)
        if ac.find_retraction(f) is not None:
            cx, cy = x.counter(), y.counter()
            assert all(cx[v] <= cy.get(v, 0) for v in cx)


def test_multiset_sub(cat):
    x = ac.obj("13", "25", "25")
    assert ac.multiset_sub(x, x) == ac.obj()
    assert ac.multiset_sub(x, ac.obj("25")) == ac.obj("13", "25")
    with pytest.raises(ValueError, match="not a sub-multiset"):
        ac.multiset_sub(ac.obj("13"), ac.obj("14"))


def test_enumeration_count(cat):
    x = ac.obj("13", "13")
    mors = list(ac.enumerate_morphisms(cat, x, x))
    assert len(mors) == 2 ** ac.hom_space_dim(cat, x, x)
    assert len({tuple(ac.mor_to_vec(f)) for f in mors}) == len(mors)


def test_enumeration_budget(cat):
    x = ac.Obj(tuple(cat.verts) * 5)
    with pytest.raises(ValueError, match="budget exceeded"):
        list(ac.enumerate_morphisms(cat, x, x, cap=2 ** 10))


def _rows(p, d, cap_exp, draws, seed, first=None):
    chunks = list(ac.coeff_chunks(p, d, cap_exp, draws, seed, first))
    return np.concatenate([rows for rows, _ in chunks]), chunks


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("d", [0, 1, 4])
def test_coeff_chunks_enumerate_in_product_order(p, d):
    want = np.array(list(itertools.product(range(p), repeat=d)),
                    dtype=np.int64).reshape(p ** d, d)
    for first in (None, 1, 16):
        rows, chunks = _rows(p, d, 10, 7, 0, first)
        assert rows.dtype == np.int64
        assert np.array_equal(rows, want)
        assert not any(sampled for _, sampled in chunks)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_coeff_chunks_sample_beyond_the_cap(p):
    d, draws = 6, 700
    rng = np.random.default_rng(11)
    want = np.array([rng.integers(0, p, size=d) for _ in range(draws)])
    whole, chunks = _rows(p, d, 5, draws, 11)
    assert len(chunks) == 1 and chunks[0][1]
    assert np.array_equal(whole, want)
    # a Generator is drawn from as it stands
    from_gen, _ = _rows(p, d, 5, draws, np.random.default_rng(11))
    assert np.array_equal(from_gen, want)
    rows, chunks = _rows(p, d, 5, draws, 11, first=16)
    assert [len(c) for c, _ in chunks] == [16, 64, 256, 364]
    assert all(sampled for _, sampled in chunks)
    assert np.array_equal(rows, want)


def test_coeff_chunks_grow_to_1024():
    _, chunks = _rows(2, 13, 13, 0, 0, first=16)
    assert [len(c) for c, _ in chunks] == [16, 64, 256] + [1024] * 7 + [688]


def test_coeff_chunks_first_chunk_at_large_p():
    # p ** (d - 1) overflows int64 at p = 97 and d = 12
    rows, _ = next(ac.coeff_chunks(97, 12, 12, 0, 0, first=16))
    want = list(itertools.islice(itertools.product(range(97), repeat=12), 16))
    assert rows.tolist() == [list(r) for r in want]


def test_coeff_chunks_refuse_a_large_whole_space():
    # at most 2^4 = 16 rows whole: 3^2 is taken, 3^3 is refused
    assert len(next(ac.coeff_chunks(3, 2, 4, 0, 0))[0]) == 9
    with pytest.raises(RuntimeError, match="3\\^3"):
        next(ac.coeff_chunks(3, 3, 4, 0, 0))
    # in chunks the same space is fine
    assert len(_rows(3, 3, 4, 0, 0, first=4)[0]) == 27


def test_random_morphism_deterministic(cat):
    x, y = ac.obj("13", "14"), ac.obj("24", "25")
    assert ac.random_morphism_rng(cat, x, y, np.random.default_rng(42)) == \
        ac.random_morphism_rng(cat, x, y, np.random.default_rng(42))


def test_dsum_mor_blocks(cat):
    f = ac.elementary(cat, ac.obj("13"), ac.obj("14"), 0, 0, 0)
    g = ac.identity(cat, ac.obj("25"))
    s = ac.dsum_mor(f, g)
    assert s.dom == ac.obj("13", "25")
    assert s.cod == ac.obj("14", "25")
    assert np.array_equal(s.block(0, 0), [1])
    assert np.array_equal(s.block(1, 1), [1])


def test_sigma_obj_and_mor(cat):
    assert ac.sigma_obj(cat, ac.obj()) == ac.obj()
    assert ac.sigma_obj(cat, ac.obj("13")) == ac.obj("25")
    f = ac.elementary(cat, ac.obj("13"), ac.obj("14"), 0, 0, 0)
    sf = sigma_mor(f)
    assert sf.dom == ac.obj("25") and sf.cod == ac.obj("35")


def test_sigma_mor_functorial_sampled(cat):
    rng = np.random.default_rng(17)
    x, y, z = ac.obj("13", "14"), ac.obj("14", "24"), ac.obj("24", "25")
    for _ in range(30):
        f = ac.random_morphism_rng(cat, x, y, rng)
        g = ac.random_morphism_rng(cat, y, z, rng)
        assert sigma_mor(ac.compose(g, f)) == \
            ac.compose(sigma_mor(g), sigma_mor(f))


def test_mul_matrices_match_composition(cat):
    rng = np.random.default_rng(19)
    x, y = ac.obj("13", "14"), ac.obj("14", "24")
    w, z = ac.obj("35", "13"), ac.obj("24", "25")
    for _ in range(20):
        f = ac.random_morphism_rng(cat, x, y, rng)
        g = ac.random_morphism_rng(cat, w, x, rng)
        h = ac.random_morphism_rng(cat, y, z, rng)
        lv = (ac.left_mul_matrix(f, w) @ ac.mor_to_vec(g)) % 2
        assert np.array_equal(lv, ac.mor_to_vec(ac.compose(f, g)))
        rv = (ac.right_mul_matrix(f, z) @ ac.mor_to_vec(h)) % 2
        assert np.array_equal(rv, ac.mor_to_vec(ac.compose(h, f)))


def test_vec_round_trip(cat):
    rng = np.random.default_rng(23)
    x, y = ac.obj("13", "14", "24"), ac.obj("24", "25")
    f = ac.random_morphism_rng(cat, x, y, rng)
    assert ac.vec_to_mor(cat, x, y, ac.mor_to_vec(f)) == f


def test_block_mor_zero_entries(cat):
    x, y, z = ac.obj("13", "14"), ac.obj("24"), ac.obj("14", "25")
    f = ac.block_mor(cat, [z, y], [x, y], [[None, None], [None, None]])
    assert f.dom == ac.obj("13", "14", "24")
    assert f.cod == ac.obj("14", "25", "24")
    assert f.is_zero()
    g = ac.random_morphism_rng(cat, y, z, np.random.default_rng(3))
    f = ac.block_mor(cat, [z, y], [x, y], [[None, g], [None, None]])
    # g lands in rows 0-1 and column 2, everything else is zero
    assert set(f.blocks) == {(i, 2) for i, _ in g.blocks}
    assert all(np.array_equal(f.block(i, 2), g.block(i, 0)) for i in (0, 1))
    # an empty grid is the zero map between zero objects
    assert ac.block_mor(cat, [], [], []) == ac.Mor(cat, ac.ZERO, ac.ZERO)


def test_block_mor_single_row_and_column(cat):
    x, y, z = ac.obj("13", "14"), ac.obj("24"), ac.obj("14", "25")
    f = ac.random_morphism_rng(cat, x, z, np.random.default_rng(4))
    g = ac.random_morphism_rng(cat, y, z, np.random.default_rng(5))
    ident_x, ident_y = ac.identity(cat, x), ac.identity(cat, y)
    row = ac.block_mor(cat, [z], [x, y], [[f, g]])
    inc_x = ac.block_mor(cat, [x, y], [x], [[ident_x], [None]])
    inc_y = ac.block_mor(cat, [x, y], [y], [[None], [ident_y]])
    assert ac.compose(row, inc_x) == f
    assert ac.compose(row, inc_y) == g
    h = ac.random_morphism_rng(cat, z, x, np.random.default_rng(6))
    k = ac.random_morphism_rng(cat, z, y, np.random.default_rng(7))
    col = ac.block_mor(cat, [x, y], [z], [[h], [k]])
    assert ac.compose(ac.block_mor(cat, [x], [x, y], [[ident_x, None]]),
                      col) == h
    assert ac.compose(ac.block_mor(cat, [y], [x, y], [[None, ident_y]]),
                      col) == k
    # [f g] . [h; k] = f h + g k
    assert ac.compose(row, col) == ac.add(ac.compose(f, h), ac.compose(g, k))


def test_block_mor_mismatch_raises(cat):
    x, y = ac.obj("13"), ac.obj("14")
    f = ac.random_morphism_rng(cat, x, y, np.random.default_rng(8))
    with pytest.raises(ValueError):
        ac.block_mor(cat, [y], [y], [[f]])          # wrong column
    with pytest.raises(ValueError):
        ac.block_mor(cat, [x], [x], [[f]])          # wrong row
    with pytest.raises(ValueError):
        ac.block_mor(cat, [y, x], [x], [[f]])       # missing grid row
    with pytest.raises(ValueError):
        ac.block_mor(cat, [y], [x, x], [[f]])       # short grid row
    other = mc.build_type_a(2, PrimeField(2))
    with pytest.raises(ValueError):
        ac.block_mor(other, [y], [x], [[f]])        # another category


def _kernel_cases():
    """(category, rigid set) on A3 and D4 at p = 2 and 3."""
    for p in (2, 3):
        field = PrimeField(p)
        yield pytest.param(mc.build_type_a(3, field), ("13", "15", "35"),
                           id=f"A3-p{p}")
        yield pytest.param(mc.build_dynkin(mc.dynkin_d4_subspace(), field),
                           ("M0001", "M0010", "SP1"), id=f"D4-p{p}")


@pytest.mark.parametrize("cat_k,t_set", _kernel_cases())
def test_mul_matrices_match_tensor_contraction(cat_k, t_set):
    """left_mul_matrix and right_mul_matrix, one product per block and
    summand, against the contraction of the whole-space tensors, with w
    (and z) T, sigma T, sums with a repeated summand and random sums, and x,
    y random sums of up to three summands."""
    from trimodel.oracle import objects_up_to
    p = cat_k.field.p
    t = ac.Obj(t_set)
    st = ac.sigma_obj(cat_k, t)
    pool = objects_up_to(cat_k, 3)
    rng = np.random.default_rng(p)
    repeated = zero_block = 0
    for _ in range(150):
        x, y, extra = (pool[int(rng.integers(0, len(pool)))]
                       for _ in range(3))
        twice = ac.dsum_obj(extra, extra)
        f = ac.random_morphism_rng(cat_k, x, y, rng)
        row = ac.mor_to_vec(f)[None]
        for w in (t, st, twice, extra):
            got = ac.left_mul_matrix(f, w)
            want = ac.apply_tensor(ac.left_mul_tensor(cat_k, w, x, y), row, p)
            assert np.array_equal(got, want[0]), (w, f)
            got = ac.right_mul_matrix(f, w)
            want = ac.apply_tensor(ac.right_mul_tensor(cat_k, x, y, w), row, p)
            assert np.array_equal(got, want[0]), (w, f)
            lay = ac.hom_layout(cat_k, w, x)[0]
            zero_block += 0 < len(lay) < len(w) * len(x)
        repeated += len(set(x.summands)) < len(x) and not f.is_zero()
    assert repeated and zero_block
