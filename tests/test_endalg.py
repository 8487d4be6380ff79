import numpy as np
import pytest

from trimodel import addcat as ac
from trimodel import endalg as ea
from trimodel import meshcat as mc
from trimodel import rigidmodel as rm
from trimodel.exactlin import PrimeField, array_rref

from helpers import (essential_surjectivity_probe, induced_map_matrix,
                     multiply)


@pytest.fixture(scope="module")
def cat():
    return mc.build_type_a(2, PrimeField(2))


@pytest.fixture(scope="module")
def rigid(cat):
    return rm.build_rigid(cat, ["13"])


@pytest.fixture(scope="module")
def rigid_pair(cat):
    return rm.build_rigid(cat, ["13", "14"])


def test_end_algebra_dims(rigid, rigid_pair):
    assert ea.end_algebra(rigid).dim == 1
    alg = ea.end_algebra(rigid_pair)
    # two local rings, one arrow class, nothing backwards
    assert alg.dim == 3


def test_algebra_laws(rigid_pair):
    alg = ea.end_algebra(rigid_pair)
    eye = np.eye(alg.dim, dtype=np.int64)
    for i in range(alg.dim):
        assert np.array_equal(multiply(alg, alg.unit, eye[i]), eye[i])
        assert np.array_equal(multiply(alg, eye[i], alg.unit), eye[i])
        for j in range(alg.dim):
            for k in range(alg.dim):
                ij = multiply(alg, eye[i], eye[j])
                jk = multiply(alg, eye[j], eye[k])
                lhs = multiply(alg, ij, eye[k])
                rhs = multiply(alg, eye[i], jk)
                assert np.array_equal(lhs, rhs)


def test_radical_square_zero(rigid_pair):
    alg = ea.end_algebra(rigid_pair)
    # the one non-identity basis element squares to zero
    arrow_idx = [i for i, l in enumerate(alg.labels)
                 if alg.sources[i] != alg.targets[i]]
    assert len(arrow_idx) == 1
    e = np.eye(alg.dim, dtype=np.int64)[arrow_idx[0]]
    assert not np.any(multiply(alg, e, e))


def test_module_of_values(cat, rigid):
    assert ea.module_of(rigid, ac.obj()).dim == 0
    assert ea.module_of(rigid, ac.obj("13")).dim == 1
    assert ea.module_of(rigid, ac.obj("25")).dim == 0


def test_module_action_respects_structure(cat, rigid_pair):
    alg = ea.end_algebra(rigid_pair)
    m = ea.module_of(rigid_pair, ac.obj("13", "14", "24"))
    eye = np.eye(alg.dim, dtype=np.int64)
    # unit acts as the identity
    unit_action = sum(int(c) * m.action[i]
                      for i, c in enumerate(alg.unit)) % 2
    assert np.array_equal(unit_action, np.eye(m.dim, dtype=np.int64))
    for i in range(alg.dim):
        for j in range(alg.dim):
            prod = alg.structure[i, j]
            expect = sum(int(c) * m.action[k]
                         for k, c in enumerate(prod)) % 2
            got = (m.action[i] @ m.action[j]) % 2
            assert np.array_equal(expect, got)


def test_module_hom_dim_identity_intertwiner(cat, rigid_pair):
    m = ea.module_of(rigid_pair, ac.obj("13"))
    assert m.dim > 0
    assert ea.module_hom_dim(rigid_pair, m, m) >= 1


def test_module_of_additive(cat, rigid_pair):
    rng = np.random.default_rng(3)
    for _ in range(10):
        xs = [cat.verts[i] for i in rng.integers(0, 5, size=3)]
        x, y = ac.Obj(tuple(xs[:2])), ac.Obj((xs[2],))
        mx = ea.module_of(rigid_pair, x)
        my = ea.module_of(rigid_pair, y)
        mxy = ea.module_of(rigid_pair, ac.dsum_obj(x, y))
        assert mxy.dim == mx.dim + my.dim
        iso = ea.find_module_iso(rigid_pair, mxy, mxy)
        assert iso is not None


def test_weq_induces_module_isomorphism(cat, rigid):
    rng = np.random.default_rng(5)
    from trimodel.oracle import objects_up_to
    pool = objects_up_to(cat, 2)
    checked = 0
    for _ in range(300):
        x = pool[int(rng.integers(0, len(pool)))]
        y = pool[int(rng.integers(0, len(pool)))]
        f = ac.random_morphism_rng(cat, x, y, rng)
        if not rigid.classify(f).weq:
            continue
        checked += 1
        m = induced_map_matrix(rigid, f)
        assert m.shape[0] == m.shape[1]
        assert len(array_rref(m, 2)[1]) == m.shape[0]
    assert checked > 10


def test_check_equivalence_a2(rigid):
    rep = ea.check_equivalence(rigid, pair_total=2)
    assert rep.passed(), [c.name for c in rep.checks if not c.ok()]


def test_check_equivalence_hand_values(cat, rigid):
    """With a single rigid vertex the algebra is the field: stable homs
    between cofibrant objects count copies of the rigid vertex."""
    m13 = ea.module_of(rigid, ac.obj("13"))
    assert ea.module_hom_dim(rigid, m13, m13) == 1
    assert cat.hom_dim("13", "13") \
        - rigid.ideal_dim_pair("sigmaT", "13", "13") == 1
    # anything through the suspended vertex dies in the quotient
    assert cat.hom_dim("25", "25") \
        - rigid.ideal_dim_pair("sigmaT", "25", "25") == 0


def test_find_module_iso_negative(cat, rigid_pair):
    m = ea.module_of(rigid_pair, ac.obj("13"))
    n = ea.module_of(rigid_pair, ac.obj("13", "13"))
    assert ea.find_module_iso(rigid_pair, m, n) is None


def test_essential_surjectivity_probe(rigid):
    rep = essential_surjectivity_probe(rigid, max_summands=2, budget=20)
    assert rep.passed()
