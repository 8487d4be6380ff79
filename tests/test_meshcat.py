import hashlib
import itertools
import json
import random

import numpy as np
import pytest

from helpers import check_stabilization, compose_basis, per_source_comp
from trimodel import meshcat as mc
from trimodel.exactlin import PrimeField, array_rref

F2 = PrimeField(2)
F3 = PrimeField(3)


@pytest.fixture(scope="module")
def pentagon():
    return mc.build_type_a(2, F2)


def test_a1_square_model():
    cat = mc.build_type_a(1, F2)
    assert set(cat.verts) == {"13", "24"}
    assert len(cat.arrows) == 0
    assert cat.quiver.tau["13"] == "24"
    assert cat.hom_dim("13", "13") == 1
    assert cat.hom_dim("13", "24") == 0


def test_pentagon_structure(pentagon):
    assert set(pentagon.verts) == {"13", "14", "24", "25", "35"}
    cyc = {("13", "14"), ("14", "24"), ("24", "25"), ("25", "35"),
           ("35", "13")}
    assert {(s, t) for s, t, _ in pentagon.arrows} == cyc
    assert pentagon.quiver.tau["14"] == "35"


def test_pentagon_hom_dimensions(pentagon):
    assert pentagon.hom_dim("13", "14") == 1
    assert pentagon.hom_dim("13", "24") == 0
    assert pentagon.total_hom_dim() == 10
    for v in pentagon.verts:
        assert pentagon.hom_dim(v, v) == 1


def test_pentagon_mesh_composite_vanishes(pentagon):
    vec = compose_basis(pentagon, ("13", "14", 0), ("14", "24", 0))
    assert not np.any(vec)


def test_identity_composition(pentagon):
    assert np.array_equal(
        compose_basis(pentagon, ("13", "13", 0), ("13", "14", 0)), [1])
    assert np.array_equal(
        compose_basis(pentagon, ("13", "14", 0), ("14", "14", 0)), [1])


def test_compose_endpoint_mismatch(pentagon):
    with pytest.raises(ValueError):
        compose_basis(pentagon, ("13", "14", 0), ("24", "25", 0))


def test_pentagon_sigma(pentagon):
    assert pentagon.sigma_vertex("13") == "25"


def test_rigidity_and_ext_symmetry(pentagon):
    for v in pentagon.verts:
        assert pentagon.hom_dim(v, pentagon.sigma_vertex(v)) == 0
    # suspended Hom agrees with diagonal crossings
    assert pentagon.hom_dim("13", pentagon.sigma_vertex("24")) == 1
    assert mc.diagonals_cross("13", "24")
    assert not mc.diagonals_cross("13", "13")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [2, 3])
def test_crossing_oracle_all_dims(n, p):
    """Independent model: Hom(u, v) is one-dimensional exactly when u
    crosses the backward translate of v."""
    cat = mc.build_type_a(n, PrimeField(p))
    tau_inv = {b: a for a, b in cat.quiver.tau.items()}
    for u in cat.verts:
        for v in cat.verts:
            expected = 1 if mc.diagonals_cross(u, tau_inv[v]) else 0
            assert cat.hom_dim(u, v) == expected


@pytest.mark.parametrize("n", [2, 3])
def test_stabilization(n):
    cat = mc.build_type_a(n, F2)
    assert check_stabilization(cat)


def test_validate_runs(pentagon):
    pentagon.validate()


def chain_by_chain_failures(cat):
    """Reference associativity check: every 4-chain u -> v -> w -> z of
    nonzero Hom spaces on which h . (g . f) != (h . g) . f."""
    p = cat.field.p

    def comp_tensor(u, v, w):
        return cat.comp.get((u, v, w), np.zeros(
            (cat.hom_dim(v, w), cat.hom_dim(u, v), cat.hom_dim(u, w)),
            dtype=np.int64))

    nonzero = [(u, v) for (u, v), b in cat.basis.items() if b]
    succ = {}
    for u, v in nonzero:
        succ.setdefault(u, []).append(v)
    failures = []
    for u, v in nonzero:
        for w in succ.get(v, ()):
            c_uvw = cat.comp[(u, v, w)]
            for z in succ.get(w, ()):
                lhs = np.einsum("gfk,hkm->hgfm", c_uvw,
                                comp_tensor(u, w, z))
                rhs = np.einsum("hgq,qfm->hgfm", cat.comp[(v, w, z)],
                                comp_tensor(u, v, z))
                if np.any((lhs - rhs) % p):
                    failures.append((u, v, w, z))
    return failures


def chain_failures_through(cat, key):
    """The failures of chain_by_chain_failures among the chains whose
    equation reads comp[key]: all of them when comp[key] is the only
    tensor changed since that list was empty."""
    return list(dict.fromkeys(e[:4] for e in equation_failures(cat, key)))


def equation_failures(cat, key):
    """(u, v, w, z, h, g, f, m) for each failing equation, coordinate m of
    h . (g . f) - (h . g) . f on basis classes f, g, h, among the chains
    whose equation reads comp[key]."""
    p = cat.field.p

    def comp_tensor(u, v, w):
        return cat.comp.get((u, v, w), np.zeros(
            (cat.hom_dim(v, w), cat.hom_dim(u, v), cat.hom_dim(u, w)),
            dtype=np.int64))

    a, b, c = key
    # the equation of u -> v -> w -> z reads comp at (u, v, w), (u, w, z),
    # (v, w, z) and (u, v, z)
    chains = {ch for x in cat.verts
              for ch in ((a, b, c, x), (a, x, b, c), (x, a, b, c),
                         (a, b, x, c))}
    failures = []
    for u, v, w, z in sorted(chains, key=lambda ch: [cat.vidx[x] for x in ch]):
        if not (cat.hom_dim(u, v) and cat.hom_dim(v, w)
                and cat.hom_dim(w, z)):
            continue
        lhs = np.einsum("gfk,hkm->hgfm", cat.comp[(u, v, w)],
                        comp_tensor(u, w, z))
        rhs = np.einsum("hgq,qfm->hgfm", cat.comp[(v, w, z)],
                        comp_tensor(u, v, z))
        failures += [(u, v, w, z, *map(int, e))
                     for e in np.argwhere((lhs - rhs) % p)]
    return failures


def assert_corruptions_agree(cat, entries, failures_of=None):
    """The batched check and the chain-by-chain reference agree on each
    single-entry corruption (key, idx) of comp, and the error names a
    failing chain with its first failing source.  failures_of(cat, key)
    lists the failing chains once comp[key] is corrupted (by default all
    of chain_by_chain_failures).  Returns how many of the corruptions
    broke associativity."""
    p = cat.field.p
    assert chain_by_chain_failures(cat) == []
    if failures_of is None:
        def failures_of(cat, key):
            return chain_by_chain_failures(cat)
    caught = 0
    for key, idx in entries:
        t = cat.comp[key]
        old = t[idx]
        t[idx] = (old + 1) % p
        try:
            failures = failures_of(cat, key)
            if failures:
                with pytest.raises(mc.ValidationError,
                                   match="associativity fails") as exc:
                    cat._check_associativity()
                named = tuple(exc.value.args[0].split(" chain ")[1]
                              .replace("'", "").split(" -> "))
                assert named in failures
                # the source named is the first in vertex order that fails
                sources = [c[0] for c in failures if c[1:] == named[1:]]
                assert named[0] == min(sources, key=cat.vidx.get)
                caught += 1
            else:
                cat._check_associativity()
        finally:
            t[idx] = old
    return caught


@pytest.mark.parametrize("n,p", [(2, 2), (3, 3)])
def test_associativity_matches_chain_by_chain_on_corruptions(n, p):
    """Every entry of every comp tensor, on type A."""
    cat = mc.build_type_a(n, PrimeField(p))
    entries = [(key, idx) for key in sorted(cat.comp)
               for idx in itertools.product(*map(range, cat.comp[key].shape))]
    caught = assert_corruptions_agree(cat, entries)
    assert 0 < caught < len(entries)


def test_associativity_corruptions_in_padded_blocks(d4):
    """Type A has every Hom space of dimension <= 1, so no block there is
    padded.  On D4, corrupt a seeded 40 of the 120 entries of the comp
    tensors with an axis of length 2 (the reference takes about 0.1 s an
    entry); each of them breaks some chain."""
    entries = [(key, idx) for key in sorted(d4.comp)
               if 2 in d4.comp[key].shape
               for idx in itertools.product(*map(range, d4.comp[key].shape))]
    assert len(entries) == 120
    entries = random.Random(0).sample(entries, 40)
    assert assert_corruptions_agree(d4, entries) == len(entries)


def check_classes(cat):
    """The triples (v, w, z) of nonzero Hom(v, w) and Hom(w, z), by the
    class they fall in in the associativity check: the padded block shapes
    (dim Hom(x, y), pad[x], pad[y]) of (v, w), (w, z) and (v, z), with
    pad[x] the largest dim Hom(u, x) and None for a zero Hom(v, z)."""
    pad = cat.dims.max(axis=0)

    def shape(x, y):
        d = cat.hom_dim(x, y)
        return (d, int(pad[cat.vidx[x]]), int(pad[cat.vidx[y]])) if d else None

    classes = {}
    for v, w, z in itertools.product(cat.verts, repeat=3):
        if cat.hom_dim(v, w) and cat.hom_dim(w, z):
            key = (shape(v, w), shape(w, z), shape(v, z))
            classes.setdefault(key, []).append((v, w, z))
    return classes


@pytest.mark.parametrize("cells", [mc.ASSOC_CELLS, 1 << 7])
def test_associativity_corruption_in_every_shape_class(cells, monkeypatch):
    """On D6 at p = 3, where Hom spaces reach dimension 2 and blocks are
    padded, one seeded corruption per class of the check: an entry of
    comp[(u, v, w)], the block of lam(v, w) at a source u, for a seeded
    triple (v, w, z) of the class.  The reference reads only the chains
    through the corrupted tensor, which keeps the test to seconds.  With
    2^7 cells the triples come in many runs of v and chunks of a class."""
    monkeypatch.setattr(mc, "ASSOC_CELLS", cells)
    cat = build("D6", F3)
    classes = check_classes(cat)
    assert len(classes) == 31
    rng = random.Random(0)
    entries = []
    for key in sorted(classes, key=repr):
        v, w, z = rng.choice(classes[key])
        u = rng.choice([u for u in cat.verts
                        if cat.hom_dim(u, v) and cat.hom_dim(u, w)])
        t = cat.comp[(u, v, w)]
        entries.append(((u, v, w),
                        tuple(rng.randrange(n) for n in t.shape)))
    caught = assert_corruptions_agree(cat, entries, chain_failures_through)
    assert caught == len(entries)


def cut_at_length(cat, length):
    """Make cat.comp the quotient by the classes of path length >= length,
    on the same bases: every composite of two non-identity morphisms loses
    its coordinates on those classes.  They span an ideal, as each Hom
    space of a mesh category is spanned by paths of one length, so the
    quotient is associative again, and the classes cut off compose to zero
    with every non-identity morphism."""
    assert all(len({len(c) for c in b}) <= 1 for b in cat.basis.values())
    for (u, v, w), t in cat.comp.items():
        if u != v != w:
            t[..., np.array([len(c) >= length for c in cat.basis[(u, w)]],
                            dtype=bool)] = 0


@pytest.mark.parametrize("axis,key,idx", [
    (6, ("M10000", "M21121", "M11110"), (0, 1, 0)),
    (4, ("M10000", "M21111", "M11110"), (1, 0, 0)),
    (7, ("M10000", "M11000", "M21121"), (0, 0, 1)),
], ids=["f", "h", "class"])
def test_associativity_corruption_only_a_nonzero_index_exposes(axis, key,
                                                               idx):
    """A corruption that a check reading only index 0 of each padded block
    would pass: every failing equation has index 1 for f (the padded row),
    for h, or for the class of Hom(u, z).  On D5 cut at path length 4,
    comp[key][idx] = (g, f, class) gains 1, a new coordinate of g . f on a
    class of that composite.  With f (or g) itself a class cut off, at
    index 1, the new term is read only where f is that class (or where it
    is h, as g is then); with the new coordinate on a class cut off, at
    index 1, nothing reads it further and only that coordinate of
    Hom(u, z) fails."""
    cat = build("D5", F2)
    cut_at_length(cat, 4)
    assert chain_by_chain_failures(cat) == []
    cat._check_associativity()
    cat.comp[key][idx] = (cat.comp[key][idx] + 1) % 2
    failures = equation_failures(cat, key)
    assert failures
    assert all(e[axis] == 1 for e in failures)
    with pytest.raises(mc.ValidationError, match="associativity fails"):
        cat._check_associativity()


def _tensors_digest(tensors):
    h = hashlib.sha256()
    for key in sorted(tensors):
        t = tensors[key]
        h.update(repr((key, t.dtype.str, t.shape)).encode())
        h.update(np.ascontiguousarray(t).tobytes())
    return h.hexdigest()[:16]


def _basis_digest(basis):
    data = sorted((list(k), [list(pp) for pp in v]) for k, v in basis.items())
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()[:16]


D5 = mc.make_dynkin(["0", "1", "2", "3", "4"],
                    [("1", "0"), ("2", "0"), ("3", "0"), ("3", "4")])
D6 = mc.make_dynkin(["0", "1", "2", "3", "4", "5"],
                    [("1", "0"), ("2", "1"), ("3", "2"), ("4", "3"),
                     ("5", "3")])
E6 = mc.make_dynkin(["0", "1", "2", "3", "4", "5"],
                    [("1", "0"), ("2", "1"), ("3", "2"), ("4", "3"),
                     ("5", "2")])


# D6 with the arrows of the path 0 - 1 - 2 - 3 - 4 reversed
D6_REV = mc.make_dynkin(["0", "1", "2", "3", "4", "5"],
                        [("0", "1"), ("1", "2"), ("2", "3"), ("3", "4"),
                         ("5", "3")])


def build(kind, field):
    if kind.startswith("A"):
        return mc.build_type_a(int(kind[1:]), field)
    quiver = {"D4": mc.dynkin_d4_subspace(), "D5": D5, "D6": D6,
              "D6rev": D6_REV, "E6": E6}[kind]
    return mc.build_dynkin(quiver, field)


@pytest.mark.parametrize("kind", ["A2", "A3", "A4", "A5", "A6", "D4", "D5",
                                  "D6", "D6rev", "E6"])
@pytest.mark.parametrize("p", [2, 3])
def test_batched_comp_matches_per_source_build(kind, p):
    """The build with the source as a batch axis gives the tensors of the
    one-source-at-a-time build: the same keys, and per key the same
    dtype, shape and bytes."""
    cat = build(kind, PrimeField(p))
    ref = per_source_comp(cat)
    assert sorted(cat.comp) == sorted(ref)
    for key, t in ref.items():
        mine = cat.comp[key]
        assert (mine.dtype, mine.shape) == (t.dtype, t.shape), key
        assert mine.tobytes() == t.tobytes(), key


@pytest.mark.parametrize("kind,p", [("D6", 3), ("E6", 2)])
def test_comp_entries_are_views_of_zero_padded_stacks(kind, p):
    """The composition constants are stored once: each comp entry is a
    view of the stack the associativity check reads, and every cell of a
    stack outside the blocks of comp is zero (the padding of each block and
    the slots past the sources of v), right after the build and again
    after validate()."""
    built = build(kind, PrimeField(p))
    cat = mc.MeshCategory(built.field, built.quiver)
    for _ in range(2):
        stacks, kind_, slot, pos = cat._stacks, cat._kind, cat._slot, cat._pos
        blocks = [np.zeros(s.shape, dtype=bool) for s in stacks]
        for key, t in cat.comp.items():
            u, v, w = (cat.vidx[x] for x in key)
            # the base, not np.shares_memory: an empty entry shares no bytes
            assert t.base is stacks[kind_[v, w]], key
            blocks[kind_[v, w]][slot[v, w], :, pos[v, u],
                                :cat.dims[u, v], :cat.dims[u, w]] = True
        for s, b in zip(stacks, blocks):
            assert not s[~b].any()
        sources = (cat.dims > 0).sum(axis=0)
        for v, w in zip(*np.nonzero(cat.dims)):
            assert not stacks[kind_[v, w]][slot[v, w], :, sources[v]:].any()
        cat.validate()


# sha256 prefixes of basis, comp and sigma_map, recorded from the
# path-by-path level reduction and chain-by-chain associativity check (E6
# at p = 2 and D6 from the full path enumeration, before dead prefixes were
# pruned; E6 at p = 3 from the build that pruned dead prefixes only)
BUILD_DIGESTS = {
    ("A4", 2): ("ed1b6f6489901564", "9df33635b5570866", "866355257c3f8080"),
    ("A4", 3): ("ed1b6f6489901564", "c31ea764926e0c7b", "45b5976e76e594ef"),
    ("D4", 2): ("0c4152135deb782b", "5a65013145d56343", "799bd0102b209225"),
    ("D4", 3): ("0c4152135deb782b", "d300ac4f77591401", "5927093f559e51e5"),
    ("D5", 3): ("a38bd832ceb95205", "6cd9d0fbdd01d106", "4e3fe2c77b634af4"),
    ("D6", 3): ("2c90054170d3fe7a", "a725b2b0c1762dfe", "4845348a7afeeec9"),
    ("E6", 2): ("f1044ace19ecd442", "c37a72038a240160", "e1d2b6aa9bc3c310"),
    ("E6", 3): ("f1044ace19ecd442", "f04a0bd270b5e412", "cf17264079be596e"),
}


def assert_serre_duality(cat):
    """dim Hom(x, y) = dim Hom(y, sigma^2 x): the cluster category is
    2-Calabi-Yau, an identity of the dims alone that the build never uses."""
    s2 = [cat.vidx[cat.sigma_vertex(cat.sigma_vertex(x))] for x in cat.verts]
    assert np.array_equal(cat.dims, cat.dims[:, s2].T)


@pytest.mark.parametrize("kind,p", sorted(BUILD_DIGESTS))
def test_build_is_byte_identical(kind, p):
    cat = build(kind, PrimeField(p))
    cat.validate()
    assert (_basis_digest(cat.basis), _tensors_digest(cat.comp),
            _tensors_digest(cat.sigma_map)) == BUILD_DIGESTS[(kind, p)]
    assert_serre_duality(cat)


class FullEnumCategory(mc.MeshCategory):
    """Reference Hom build: every path of every length is enumerated and
    reduced, paths with a dead prefix or suffix included, against every
    mesh relation r . mesh_x . q with r and q arbitrary paths.  Paths are
    looked up in the table of reduced coordinates ``_red``, and each
    composite basis path is reduced on its own, so nothing is shared with
    the build's arrow matrices."""

    def _build_hom(self, cap):
        p = self.field.p
        V = self.verts
        out = {v: [a for a, arrow in enumerate(self.arrows) if arrow[0] == v]
               for v in V}
        paths = []
        self.basis = {(u, v): [] for u in V for v in V}
        self._red = {(u, v): {} for u in V for v in V}
        length = 0
        while True:
            assert length <= cap
            if length == 0:
                lvl = {(v, v): [()] for v in V}
            else:
                lvl = {}
                for (u, w), plist in paths[length - 1].items():
                    for a in out[w]:
                        lvl.setdefault((u, self.arrows[a][1]), []).extend(
                            pp + (a,) for pp in plist)
                for key in lvl:
                    lvl[key].sort()
            paths.append(lvl)
            new_dim = sum(self._full_reduce(u, v, length, plist, paths, p)
                          for (u, v), plist in sorted(lvl.items()))
            if length >= 1 and new_dim == 0:
                self.radical_length = length
                break
            length += 1
        self.dims = np.zeros((len(V), len(V)), dtype=np.int64)
        for (u, v), b in self.basis.items():
            self.dims[self.vidx[u], self.vidx[v]] = len(b)

    def _full_reduce(self, u, v, length, plist, paths, p):
        index = {pp: k for k, pp in enumerate(plist)}
        rows = []
        for x in self.verts:
            for i in range(length - 1):
                for r in paths[i].get((u, self.quiver.tau[x]), ()):
                    for q in paths[length - 2 - i].get((x, v), ()):
                        row = np.zeros(len(plist), dtype=np.int64)
                        for mid in self._mesh[x]:
                            row[index[r + mid + q]] += 1
                        rows.append(row % p)
        red, pivots = (array_rref(np.array(rows), p) if rows
                       else (None, []))
        free = [k for k in range(len(plist)) if k not in pivots]
        offset = len(self.basis[(u, v)])
        self.basis[(u, v)].extend(plist[k] for k in free)
        for k, pp in enumerate(plist):
            vec = np.zeros(offset + len(free), dtype=np.int64)
            if k in free:
                vec[offset + free.index(k)] = 1
            else:
                vec[offset:] = -red[pivots.index(k), free] % p
            self._red[(u, v)][pp] = vec
        return len(free)

    def reduce_path(self, u, v, path):
        # paths longer than the radical length are never enumerated: zero
        vec = np.zeros(len(self.basis[(u, v)]), dtype=np.int64)
        known = self._red[(u, v)].get(path, ())
        vec[: len(known)] = known
        return vec

    def _build_comp(self):
        p = self.field.p
        self.comp = {}
        for (u, v), b1 in self.basis.items():
            for w in self.verts:
                b2 = self.basis[(v, w)]
                if b1 and b2:
                    self.comp[(u, v, w)] = np.array(
                        [[self.reduce_path(u, w, pp + q) for pp in b1]
                         for q in b2], dtype=np.int64) % p


ORACLE_CASES = ([(f"A{n}", p) for n in range(2, 7) for p in (2, 3)]
                + [(kind, p) for kind in ("D4", "D5") for p in (2, 3)]
                + [("D6", 2)])


@pytest.mark.parametrize("kind,p", ORACLE_CASES)
def test_pruned_build_matches_full_enumeration(kind, p):
    """The cokernel recursion gives the categories of the full enumeration,
    and reduces every path as the enumeration does; a path with a dead
    prefix or suffix is zero there."""
    cat = build(kind, PrimeField(p))
    ref = FullEnumCategory(cat.field, cat.quiver)
    assert cat.radical_length == ref.radical_length
    assert np.array_equal(cat.dims, ref.dims)
    assert cat.basis == ref.basis
    for name in ("comp", "sigma_map"):
        mine, theirs = getattr(cat, name), getattr(ref, name)
        assert sorted(mine) == sorted(theirs)
        for key in theirs:
            assert mine[key].dtype == theirs[key].dtype
            assert np.array_equal(mine[key], theirs[key]), (name, key)
    dead_prefix = dead_suffix = 0
    for (u, v), vecs in ref._red.items():
        for path, vec in vecs.items():
            assert np.array_equal(cat.reduce_path(u, v, path),
                                  ref.reduce_path(u, v, path)), (u, v, path)
            # the vertex after the first k arrows of the path
            mids = [cat.arrows[a][1] for a in path]
            prefix = any(not ref.reduce_path(u, mids[k - 1], path[:k]).any()
                         for k in range(1, len(path)))
            suffix = any(not ref.reduce_path(mids[k - 1], v, path[k:]).any()
                         for k in range(1, len(path)))
            dead_prefix += prefix
            dead_suffix += suffix
            if prefix or suffix:
                assert not vec.any()
    # on the pentagon the build stops at the first dead level, before any
    # path could have a dead prefix or suffix
    assert (dead_prefix > 0 and dead_suffix > 0) or kind == "A2"


def test_e7_builds_and_validates():
    """build_dynkin validates (End spaces, mesh relations, associativity)."""
    e7 = mc.make_dynkin([str(i) for i in range(7)],
                        [("1", "0"), ("2", "1"), ("3", "2"), ("4", "3"),
                         ("5", "4"), ("6", "2")])
    assert e7.dynkin_type == "E7"
    cat = mc.build_dynkin(e7, F2)
    # 63 indecomposable modules plus one suspended projective per vertex
    assert len(cat.verts) == 70
    assert_serre_duality(cat)


def test_reduce_path_rejects_paths_that_do_not_compose(pentagon):
    arrow = {(s, t): a for a, (s, t, _) in enumerate(pentagon.arrows)}
    a, b = arrow[("13", "14")], arrow[("14", "24")]
    assert np.array_equal(pentagon.reduce_path("13", "14", (a,)), [1])
    assert not pentagon.reduce_path("13", "24", (a, b)).any()
    for u, v, path in [("13", "24", (b,)),          # starts at 14
                       ("13", "24", (a,)),          # ends at 14
                       ("13", "13", (a,)),
                       ("13", "25", (a, arrow[("24", "25")])),  # gap
                       ("14", "24", (b, b)),        # gap
                       ("13", "14", (len(pentagon.arrows),)),  # no arrow
                       ("13", "14", (-1,)),
                       ("13", "14", ())]:           # ends at 13
        with pytest.raises(ValueError):
            pentagon.reduce_path(u, v, path)


def test_dynkin_a2_matches_polygon(pentagon):
    cat = mc.build_dynkin(mc.dynkin_a(2), F2)
    bij = mc.hom_matrix_bijection(cat, pentagon)
    assert bij is not None


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dynkin_cross_model_agreement(n):
    cat1 = mc.build_dynkin(mc.dynkin_a(n), F2)
    cat2 = mc.build_type_a(n, F2)
    bij = mc.hom_matrix_bijection(cat1, cat2)
    assert bij is not None
    for u in cat1.verts:
        for v in cat1.verts:
            assert cat1.hom_dim(u, v) == cat2.hom_dim(bij[u], bij[v])


@pytest.fixture(scope="module")
def d4():
    return mc.build_dynkin(mc.dynkin_d4_subspace(), F2)


def test_d4_counts(d4):
    assert len(d4.verts) == 16
    tau = d4.quiver.tau
    seen = set()
    orbit_sizes = []
    for v in d4.verts:
        if v in seen:
            continue
        orb = [v]
        seen.add(v)
        w = tau[v]
        while w != v:
            orb.append(w)
            seen.add(w)
            w = tau[w]
        orbit_sizes.append(len(orb))
    assert orbit_sizes == [4, 4, 4, 4]


def test_d4_every_vertex_rigid(d4):
    for v in d4.verts:
        assert d4.hom_dim(v, d4.sigma_vertex(v)) == 0


def test_d4_odd_characteristic():
    cat = mc.build_dynkin(mc.dynkin_d4_subspace(), F3)
    cat.validate()
    assert cat.total_hom_dim() == 112


def test_d5_knitting_count():
    cat = mc.build_dynkin(D5, F2)
    # indecomposable modules (20) plus one suspended projective per vertex
    assert len(cat.verts) == 25


def test_make_dynkin_validation():
    with pytest.raises(mc.QuiverError):
        mc.make_dynkin(["1", "2"], [])                      # disconnected
    with pytest.raises(mc.QuiverError):
        mc.make_dynkin(["1", "2", "3"],
                       [("1", "2"), ("2", "3"), ("3", "1")])  # cycle
    with pytest.raises(mc.QuiverError):
        mc.make_dynkin(
            ["c", "a", "b", "d", "e"],
            [("a", "c"), ("b", "c"), ("d", "c"), ("e", "c")])  # degree 4
    assert mc.make_dynkin(["1", "2"], [("1", "2")]).dynkin_type == "A2"
    assert mc.dynkin_d4_subspace().dynkin_type == "D4"


def test_sigma_mor_is_functorial(pentagon):
    # checked in depth at the additive level; here: the basis maps are
    # invertible permutment matrices of the right shape
    for (u, v), b in pentagon.basis.items():
        if b:
            m = pentagon.sigma_map[(u, v)]
            assert m.shape == (len(b), len(b))


def test_save_load_round_trip(tmp_path, pentagon):
    path = tmp_path / "pentagon.json"
    mc.save(pentagon, path)
    again = mc.load(path)
    assert again.verts == pentagon.verts
    assert np.array_equal(again.dims, pentagon.dims)
    assert again.field.p == pentagon.field.p


def test_load_missing_sigma_defaults_to_tau(tmp_path, pentagon):
    path = tmp_path / "q.json"
    spec = mc.quiver_to_spec(pentagon)
    assert "sigma" not in spec
    with open(path, "w") as fh:
        json.dump(spec, fh)
    cat = mc.load(path)
    assert cat.quiver.sigma == cat.quiver.tau


def test_load_non_bijective_tau(tmp_path, pentagon):
    spec = mc.quiver_to_spec(pentagon)
    spec["tau"]["13"] = "13"
    path = tmp_path / "bad.json"
    with open(path, "w") as fh:
        json.dump(spec, fh)
    with pytest.raises(mc.ValidationError, match="tau not bijective"):
        mc.load(path)


def test_load_duplicate_vertices(tmp_path, pentagon):
    spec = mc.quiver_to_spec(pentagon)
    spec["vertices"].append("13")
    path = tmp_path / "dup.json"
    with open(path, "w") as fh:
        json.dump(spec, fh)
    with pytest.raises(mc.QuiverError, match="duplicate"):
        mc.load(path)


def test_load_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(mc.QuiverError, match="invalid JSON"):
        mc.load(path)


def test_load_missing_field(tmp_path):
    path = tmp_path / "m.json"
    with open(path, "w") as fh:
        json.dump({"vertices": [], "arrows": [], "tau": {}}, fh)
    with pytest.raises(mc.QuiverError, match="field_char"):
        mc.load(path)


def test_mesh_condition_validated():
    with pytest.raises(mc.ValidationError, match="mesh structure"):
        mc.make_quiver(["a", "b"], [("a", "b", "x")],
                       {"a": "b", "b": "a"})


def test_sigma_must_commute_with_tau():
    """With no arrows every permutation acts on the quiver, but sigma =
    (1 2) does not commute with tau = (0 1), so it is no suspension."""
    spec = {"field_char": 2, "vertices": ["0", "1", "2"], "arrows": [],
            "tau": {"0": "1", "1": "0", "2": "2"},
            "sigma": {"0": "0", "1": "2", "2": "1"}}
    with pytest.raises(mc.ValidationError, match="commute with tau"):
        mc.from_spec(spec)
