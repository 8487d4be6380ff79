"""Characterization-free decision procedures for lifting properties, and the
axiom / lemma suites that test the class predicates against them.

Lifting against *all* commuting squares is a single rank condition over the
finite field: the squares from ell to r form the kernel of the square map
lam, and a lift exists for all of them iff the image of the lift map psi
contains that kernel.  The homotopy-weakened variants enlarge psi by the
ideal subspace on the relevant edge.  Both maps are built once per (ell, r)
whatever the modes, and every mode reads the same identity,
dim(ker lam & im M) = rank M - rank(lam M), so no kernel is computed.
Plain lifting is ranked first; as im psi lies in im M, it decides every
homotopy mode when it holds, and the ideal columns are built only when it
fails.  Enumeration is reserved for the quantifier over the generating
family (morphisms from sums of T vertices to cofibrant objects).

A square from ell to r_1 + ... + r_n is a tuple of squares to the r_i, and
it lifts iff each component does.  In the homotopy modes this holds too,
because ``ideal_span_matrix`` is built block by block, so the perp ideal of
a sum is the sum of the ideals.  So where a suite asks whether ell lifts
against every member of a family, and stops at the first failure, it asks
against direct sums of at most ``FAMILY_SUM`` members (``_family_sums``),
built once per suite; its witness names ell, not the member that failed.
Larger sums cost more than the members one by one: at p = 3 a sum of 20
members took twice as long as 20 single tests.

The generating-family oracle decides many morphisms at once: it walks the
generator pairs in family order, drops a morphism at its first failing
pair, and asks about one row per orbit of Aut(A) x Aut(R) on Hom(R, A)
(g -> u g v): the squares (a, b) from u g v to r match those from g by
(a, b) -> (a v^-1, b u), and h -> h u^-1 carries the lifts of a square of
g onto those of its match, so r lifts against u g v iff it lifts against
g.  The orbits come from a union-find walk over the elementary
automorphisms (``_generator_rows``).  Every morphism of every space
sits in one flat array, and per pair the lifting matrices of every live
morphism against every generator row form one stack for lam and one for
psi, padded to the pair's widest Hom spaces, ranked by ``batch_rank``
in slices of at most ``STACK_CELLS`` cells; at p = 2 it packs each row
into a word and eliminates by xor.  The stacks are assembled from
Hom(w, f), a ``left_mul_tensor`` contraction built once per object w over
the live morphisms, and from the vertex stacks Hom(g, z) of the generator
rows, a ``right_mul_tensor`` contraction per vertex z.  The lemma suite
runs one Hom space at a time: every morphism of Hom(x, y) is a row of a
coefficient array, ideal membership and solvability of the homotopy
correction are products with annihilators of row spaces, and the weq / fib
flags are batched ranks of Hom(T, -) and Hom(sigma T, -), with T and
sigma T the sums of their vertices; Hom(T, -) vanishes on a row iff that
row's matrix in the same stack is zero (``RigidStructure.class_masks``;
``RigidStructure.classify`` says why the sum objects decide as their
vertices do).  Only the weak-cofibration test (a retraction solve and
lifting checks) stays per morphism.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import addcat as ac
from . import rigidmodel as rm
from .addcat import Mor, Obj
from .exactlin import array_kernel, array_solve, batch_rank, fast_rank
from .meshcat import MeshCategory
from .report import Report, mor_to_json
from .rigidmodel import RigidStructure, memoized


@dataclass
class LiftingReport:
    f: Mor
    g: Mor
    square_space_dim: int
    plain: bool
    htp_top: bool
    htp_bottom: bool


MODES = ("plain", "htp_top", "htp_bottom")


def _lifting_maps(rigid: RigidStructure, ell: Mor, r: Mor):
    """(lam, psi) for ell: A -> B against r: X -> Y.  The square map
    lam = [Hom(A, r) | -Hom(ell, Y)] sends (u, v) in Hom(A, X) + Hom(B, Y)
    to r u - v ell, so its kernel is the space of commuting squares; the
    lift map psi = [Hom(ell, X); Hom(B, r)] sends h in Hom(B, X) to the
    square (h ell, r h) it fills, so lam psi = 0."""
    p = rigid.cat.field.p
    lam = np.concatenate([ac.left_mul_matrix(r, ell.dom),
                          -ac.right_mul_matrix(ell, r.cod)], axis=1) % p
    psi = np.concatenate([ac.right_mul_matrix(ell, r.dom),
                          ac.left_mul_matrix(r, ell.cod)], axis=0)
    return lam, psi


def _square_lifting(rigid: RigidStructure, ell: Mor, r: Mor,
                    modes: tuple[str, ...]):
    """(dimension of the square space, lazy verdict per mode), from one
    build of the lifting maps; an unknown mode raises before any rank.

    The lifts in a mode reach im M: M is psi beside, in a homotopy mode,
    the perp ideal of Hom(A, X) ("htp_top") or of Hom(B, Y)
    ("htp_bottom").  Every square lifts iff ker lam lies in im M, that is
    iff dim(ker lam & im M) = rank M - rank(lam M) is dim ker lam.  As
    lam psi = 0, lam M has the rank of lam times the ideal columns, and
    rank psi alone decides the plain mode.  im psi lies in ker lam and in
    im M, so a mode lifts whenever the plain one does: psi is ranked first,
    once, and the ideal columns are built only when plain lifting fails."""
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
    p = rigid.cat.field.p
    lam, psi = _lifting_maps(rigid, ell, r)
    square_dim = lam.shape[1] - fast_rank(lam, p)
    plain = None

    def lifts(mode: str) -> bool:
        nonlocal plain
        if plain is None:       # M = psi, and lam psi = 0
            plain = fast_rank(psi, p) == square_dim
        if mode == "plain" or plain:
            return plain
        top = mode == "htp_top"
        w = rigid.ideal_span_matrix("perp", ell.dom if top else ell.cod,
                                    r.dom if top else r.cod)
        pad = np.zeros((len(psi) - len(w), w.shape[1]), dtype=np.int64)
        ideal = np.concatenate([w, pad] if top else [pad, w])
        m = np.concatenate([psi, ideal], axis=1)
        return fast_rank(m, p) - fast_rank(lam @ ideal % p, p) == square_dim

    return square_dim, (square_dim == 0 or lifts(mode) for mode in modes)


def rlp_all_squares(rigid: RigidStructure, ell: Mor, r: Mor,
                    mode: str = "plain") -> bool:
    """Whether every commuting square from ell to r admits a lift.

    mode "plain" asks for strictly commuting triangles; "htp_top" relaxes the
    upper triangle to a right homotopy, "htp_bottom" the lower one to a left
    homotopy (both decided through the perp ideal).  One rank identity over
    the field decides every square at once (``_square_lifting``)."""
    _, (lifts,) = _square_lifting(rigid, ell, r, (mode,))
    return lifts


def _rlp_up_to_homotopy(rigid: RigidStructure, ell: Mor, r: Mor,
                        modes: tuple[str, ...]) -> bool:
    """Whether ``rlp_all_squares`` holds in every one of the modes, from
    one build of the lifting maps; stops at the first failure."""
    return all(_square_lifting(rigid, ell, r, modes)[1])


def lifting_report(rigid: RigidStructure, ell: Mor, r: Mor) -> LiftingReport:
    square_dim, (plain, htp_top, htp_bottom) = _square_lifting(
        rigid, ell, r, MODES)
    return LiftingReport(ell, r, square_dim, plain, htp_top, htp_bottom)


@memoized
def _generating_family(rigid: RigidStructure, mult_bound: int,
                       a_total: int | None):
    """(R, A) pairs for the generating cofibrations: R a multiset of T
    vertices, A an enumerated cofibrant object; ordered small to large.

    Pairs where some summand has no Hom against the whole other side are
    dropped: every generator on such a pair is a direct sum of a generator
    on a smaller pair with a trivial one, and lifting against a direct sum
    holds iff it holds against each summand."""
    cat = rigid.cat
    froms = []
    counts = itertools.product(range(mult_bound + 1), repeat=len(rigid.t_ind))
    for cs in counts:
        froms.append(tuple(itertools.chain.from_iterable(
            (t,) * c for t, c in zip(rigid.t_ind, cs))))
    froms.sort(key=lambda m: (len(m), m))
    tos = [a for a in rigid.ts_list
           if a_total is None or len(a) <= a_total]
    pairs = []
    for rs in froms:
        for a in tos:
            if len(rs) > 1 or len(a) > 1:
                if any(all(cat.hom_dim(r, v) == 0 for v in a.summands)
                       for r in rs):
                    continue
                if any(all(cat.hom_dim(r, v) == 0 for r in rs)
                       for v in a.summands):
                    continue
            pairs.append((Obj(rs), a))
    pairs.sort(key=lambda pair: (len(pair[0]) + len(pair[1]),
                                 pair[0].summands, pair[1].summands))
    return pairs


@dataclass
class _GeneratorRows:
    r_obj: Obj
    a_obj: Obj
    rows: np.ndarray    # generators R -> A, hom_layout coordinates
    sampled: bool       # rows are seeded draws, not all of Hom(R, A)


def _primitive_root(p: int) -> int:
    return next(g for g in range(1, p)
                if len({pow(g, e, p) for e in range(1, p)}) == p - 1)


def _automorphism_maps(cat: MeshCategory, r_obj: Obj, a_obj: Obj,
                       root: int) -> np.ndarray:
    """(n, d, d): the maps g -> u g and g -> g v of Hom(R, A), d its
    dimension, for the elementary automorphisms u of A and v of R: the
    identity plus one basis morphism of a block, save the identity class of
    a diagonal block, which is scaled by root - 1 instead (a scaling of one
    summand, the identity at p = 2, so left out there).  Together they
    generate Aut(A) and Aut(R) (``_generator_rows``)."""
    p = cat.field.p
    out = []
    for t, x in ((ac.left_mul_tensor(cat, r_obj, a_obj, a_obj), a_obj),
                 (ac.right_mul_tensor(cat, r_obj, r_obj, a_obj), r_obj)):
        scale = np.ones(len(t), dtype=np.int64)
        for (i, j), off, _ in ac.hom_layout(cat, x, x)[0]:
            if i == j:
                scale[off] = root - 1
        keep = (scale != 0) & np.any(t, axis=(1, 2))
        out.append(t[keep] * scale[keep, None, None])
    maps = np.concatenate(out)
    maps += np.eye(maps.shape[1], dtype=np.int64)
    return maps % p


# cells of the arrays the orbit walk of ``_orbit_labels`` holds at once
ORBIT_CELLS = 1 << 20


def _orbit_labels(rows: np.ndarray, maps: np.ndarray, p: int) -> np.ndarray:
    """label[n] = the first row of the orbit of rows[n] under the group that
    maps generates, for rows all of F_p^d in ``addcat.coeff_chunks`` order,
    so that a row's index is its coefficient vector read in base p.

    The image of row n under a map M moves only the coordinates where M - I
    has a nonzero row, so its index is n plus the change of those digits,
    which reads only the columns where M - I is nonzero: few, for an
    elementary automorphism.  Then union-find over the edges from n to its
    images: every root is the smallest index of its tree, and each round
    hooks the larger root of every edge that joins two trees under the
    smaller one, until no edge does.  The maps are taken a few at a time,
    and the rows in slices, within ``ORBIT_CELLS`` cells."""
    n, d = rows.shape
    weights = p ** np.arange(d - 1, -1, -1, dtype=np.int64)
    digits = np.ascontiguousarray(rows.T, dtype=np.int8)   # one per column
    residue = np.arange(d * p * p) % p      # of a digit plus a row update
    label = np.arange(n)

    def roots(lab: np.ndarray) -> np.ndarray:
        while True:
            up = lab[lab]
            if np.array_equal(up, lab):
                return lab
            lab = up

    per = max(1, ORBIT_CELLS // n)
    for m0 in range(0, len(maps), per):
        batch = maps[m0:m0 + per]
        image = np.empty((len(batch), n), dtype=np.int64)
        for col, m in enumerate(batch):
            step = (m - np.eye(d, dtype=np.int64)) % p
            moved = np.flatnonzero(step.any(axis=1))
            read = np.flatnonzero(step.any(axis=0))
            sub = step[np.ix_(moved, read)].astype(np.int32)
            chunk = max(1, ORBIT_CELLS // max(len(moved), len(read), 1))
            for i in range(0, n, chunk):
                old = digits[moved, i:i + chunk]
                new = residue[old + sub @ digits[read, i:i + chunk]]
                image[col, i:i + chunk] = np.arange(i, i + old.shape[1]) \
                    + weights[moved] @ (new - old)
        while True:
            label = roots(label)
            dst = label[image]
            join = dst != label
            if not join.any():
                break
            dst, src = dst[join], np.broadcast_to(label, join.shape)[join]
            np.minimum.at(label, np.maximum(src, dst), np.minimum(src, dst))
    return roots(label)


@memoized
def _generator_rows(rigid: RigidStructure, mult_bound: int,
                    a_total: int | None) -> list[_GeneratorRows]:
    """The generators of every pair of ``_generating_family``, in order:
    of the rows ``addcat.coeff_chunks`` takes from Hom(R, A), one per orbit
    of Aut(A) x Aut(R), acting by g -> u g v, when the rows are all of
    Hom(R, A), else every drawn row.

    Rows with an all-zero block for some summand are dropped first: they
    are direct sums of smaller generators with trivial ones, covered
    elsewhere.  Of the other rows of an orbit, the first is kept, which is
    exact: take g' = u g v.  The squares from g' to r: X -> Y (a': R -> X,
    b': A -> Y with r a' = b' g') are carried one to one onto the squares
    from g by (a', b') -> (a' v^-1, b' u), and h -> h u^-1 carries the lifts
    of the square of g onto the lifts of (a', b') (h u^-1 g' = h g v = a',
    r h u^-1 = b').  So r lifts against g' iff it lifts against g, whatever
    automorphisms are used; the elementary ones of ``_automorphism_maps``
    generate both groups (block operations bring an automorphism to a
    diagonal of nonzero scalars, as End of a vertex is the field), so one
    row per orbit is kept."""
    cat = rigid.cat
    p = cat.field.p
    root = _primitive_root(p)
    out = []
    for (r_obj, a_obj) in _generating_family(rigid, mult_bound, a_total):
        layout, dim_g = ac.hom_layout(cat, r_obj, a_obj)
        (rows, sampled), = ac.coeff_chunks(p, dim_g, rm.ENUM_EXP_CAP,
                                           rm.SAMPLE_COUNT, rigid.seed)
        keep = np.ones(len(rows), dtype=bool)
        if len(r_obj) >= 1 and len(a_obj) >= 1 and dim_g:
            for side in (0, 1):
                groups: dict[int, list[int]] = {}
                for (ij, off, d) in layout:
                    groups.setdefault(ij[side], []).extend(
                        range(off, off + d))
                for idx in groups.values():
                    keep &= np.any(rows[:, idx], axis=1)
        if not sampled and np.count_nonzero(keep) > 1:
            maps = _automorphism_maps(cat, r_obj, a_obj, root)
            if len(maps):
                at = np.flatnonzero(keep)
                _, first = np.unique(_orbit_labels(rows, maps, p)[at],
                                     return_index=True)
                keep[:] = False
                keep[at[first]] = True
        out.append(_GeneratorRows(r_obj, a_obj, rows[keep], sampled))
    return out


# cells of the lifting matrices _generating_failures ranks together at most
# (more only when one morphism against one generator row is larger): 4 MB
# as int8, about three times what the lemma suite on the A4 cluster-tilting
# set 27,37,47,57 ranks at once
STACK_CELLS = 1 << 22


def _generating_failures(rigid: RigidStructure, spaces, mult_bound: int,
                         a_total: int | None):
    """For every (x, y, coeffs) of spaces, one int per row of coeffs: the
    index of the first generator pair against which that morphism x -> y
    fails to lift, or the number of pairs when it lifts against all.

    r lifts against every square from a generator g: R -> A iff the lift
    candidates psi = [Hom(g, X); Hom(A, r)] reach the whole kernel of the
    square map lam = [Hom(R, r) | -Hom(g, Y)], that is iff rank psi +
    rank lam = dim Hom(R, X) + dim Hom(A, Y).  Every morphism of every
    space sits in one flat array, and per pair lam and the transpose of psi
    of every live morphism against every generator row form one stack
    each, padded to the widest Hom spaces among the live morphisms: zero
    rows and columns leave a rank alone, so each rank sum is compared with
    its morphism's own column count.  Stacks are ranked by ``batch_rank``
    in slices of at most ``STACK_CELLS`` cells.

    Hom(w, f) is built once per object w over the live morphisms, and
    compacted as morphisms drop out.  Hom(g, Z) is assembled per pair from
    the vertex stacks Hom(g, z), one ``right_mul_tensor`` contraction per
    vertex z: ``hom_layout`` groups Hom(R, Z) and Hom(A, Z) by the summand
    of Z first, so Hom(g, z1 + z2) is block diagonal."""
    cat = rigid.cat
    p = cat.field.p
    gens = _generator_rows(rigid, mult_bound, a_total)
    sizes = [len(c) for _, _, c in spaces]
    starts = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
    objs = list({o.summands: o for x, y, _ in spaces for o in (x, y)}.values())
    at_obj = {o.summands: i for i, o in enumerate(objs)}
    xs = np.array([at_obj[x.summands] for x, _, _ in spaces], dtype=np.int64)
    ys = np.array([at_obj[y.summands] for _, y, _ in spaces], dtype=np.int64)
    ox, oy = np.repeat(xs, sizes), np.repeat(ys, sizes)
    fails = np.full(int(starts[-1]), len(gens), dtype=np.int64)
    live = np.arange(int(starts[-1]))
    homs: dict[tuple, tuple] = {}       # w -> (morphisms, Hom(w, f) stack)
    dims_of: dict[tuple, np.ndarray] = {}   # w -> dim Hom(w, o) per object

    def dims(w: Obj) -> np.ndarray:
        hit = dims_of.get(w.summands)
        if hit is None:
            hit = dims_of[w.summands] = np.array(
                [ac.hom_space_dim(cat, w, o) for o in objs], dtype=np.int64)
        return hit

    def hom_stack(w: Obj) -> np.ndarray:
        # Hom(w, f) for every live f, padded to the widest
        hit = homs.get(w.summands)
        if hit is not None:
            ids, stack = hit
            if len(ids) != len(live):
                stack = stack[np.searchsorted(ids, live)]
                homs[w.summands] = (live, stack)
            return stack
        d_w = dims(w)
        stack = np.zeros((len(live), d_w[oy[live]].max(initial=0),
                          d_w[ox[live]].max(initial=0)), dtype=np.int8)
        bounds = np.searchsorted(live, starts)
        # spaces with live morphisms and a nonzero Hom(w, f)
        for s in np.flatnonzero((bounds[1:] > bounds[:-1]) & (d_w[xs] > 0)
                                & (d_w[ys] > 0)):
            x, y, coeffs = spaces[s]
            lo, hi = bounds[s], bounds[s + 1]
            t = ac.left_mul_tensor(cat, w, x, y)
            stack[lo:hi, :t.shape[1], :t.shape[2]] = ac.apply_tensor(
                t, coeffs[live[lo:hi] - starts[s]], p)
        homs[w.summands] = (live, stack)
        return stack

    for k, gen in enumerate(gens):
        if not len(live):
            break
        n_g = len(gen.rows)
        if not n_g:
            continue
        d_r, d_a = dims(gen.r_obj), dims(gen.a_obj)
        lx, ly = ox[live], oy[live]
        cols = d_r[lx] + d_a[ly]
        on = np.flatnonzero(cols)       # live morphisms with squares to test
        if not len(on):
            continue
        # lam has rows Hom(R, Y), psi rows Hom(A, X), and both columns
        # Hom(R, X) then Hom(A, Y): the four dimensions per live morphism
        shape = np.stack([d_r[ly], d_r[lx], d_a[lx], d_a[ly]])
        used = np.unique(np.concatenate([lx[on], ly[on]]))
        at_used = np.zeros(len(objs), dtype=np.int64)
        at_used[used] = np.arange(len(used))
        # Hom(g, Z) of every object used, block diagonal over its summands
        hom_g = np.zeros((len(used), n_g, d_r[used].max(), d_a[used].max()),
                         dtype=np.int8)
        to_vertex: dict[str, np.ndarray] = {}      # Hom(g, v) by vertex v
        for u, o in enumerate(used):
            if not (d_r[o] and d_a[o]):
                continue        # Hom(g, Z) has no entries
            r0 = a0 = 0
            for v in objs[o].summands:
                block = to_vertex.get(v)
                if block is None:
                    block = to_vertex[v] = ac.apply_tensor(
                        ac.right_mul_tensor(cat, gen.r_obj, gen.a_obj,
                                            Obj((v,))), gen.rows, p)
                _, dr, da = block.shape
                hom_g[u, :, r0:r0 + dr, a0:a0 + da] = block
                r0, a0 = r0 + dr, a0 + da
        neg_y = -hom_g % p
        x_t = hom_g.transpose(0, 1, 3, 2)
        h_r = hom_stack(gen.r_obj)
        h_a_t = hom_stack(gen.a_obj).transpose(0, 2, 1)
        failed = np.zeros(len(live), dtype=bool)
        rows_lam, split, rows_psi, width = shape[:, on].max(axis=1)
        width += split
        # (morphism, generator row) pairs of one stack: whole morphisms when
        # a morphism's rows fit, else slices of one morphism's rows
        per = max(1, STACK_CELLS // max(1, (rows_lam + rows_psi) * width))
        step = per // n_g
        blocks = ((i, i + step, 0, n_g)
                  for i in range(0, len(on), step)) if step else \
            ((i, i + 1, g0, min(g0 + per, n_g))
             for i in range(len(on)) for g0 in range(0, n_g, per))
        for i0, i1, g0, g1 in blocks:
            at = on[i0:i1]
            m, n = len(at), g1 - g0
            lam = np.empty((m, n, rows_lam, width), dtype=np.int8)
            lam[..., :split] = h_r[at, None, :rows_lam, :split]
            lam[..., split:] = neg_y[at_used[ly[at]], g0:g1,
                                     :rows_lam, :width - split]
            psi = np.empty((m, n, rows_psi, width), dtype=np.int8)
            psi[..., :split] = x_t[at_used[lx[at]], g0:g1, :rows_psi, :split]
            psi[..., split:] = h_a_t[at, None, :rows_psi, :width - split]
            ranks = batch_rank(lam.reshape(m * n, rows_lam, width), p) \
                + batch_rank(psi.reshape(m * n, rows_psi, width), p)
            failed[at] |= np.any(ranks.reshape(m, n) != cols[at, None],
                                 axis=1)
        fails[live[failed]] = k
        live = live[~failed]
    return list(np.split(fails, starts[1:-1]))


def rlp_against_generating_I(rigid: RigidStructure, r: Mor,
                             mult_bound: int = 2,
                             a_total: int | None = None):
    """(verdict, exhaustive): right lifting property of r against every
    morphism of the generating family, enumerated over the field.

    Stops at the first failing generator pair.  Generator spaces beyond
    ``rigidmodel.ENUM_EXP_CAP`` are sampled (``addcat.coeff_chunks``), and
    the returned flag is False if such a pair was reached."""
    gens = _generator_rows(rigid, mult_bound, a_total)
    fail = int(_generating_failures(
        rigid, [(r.dom, r.cod, ac.mor_to_vec(r)[None])], mult_bound,
        a_total)[0][0])
    return fail == len(gens), not any(g.sampled for g in gens[:fail + 1])


# --------------------------------------------------------------- sampling


def objects_up_to(cat: MeshCategory, max_summands: int) -> list[Obj]:
    """The zero object, then every multiset of 1 to max_summands vertices,
    by size, then lexicographically."""
    out = [ac.ZERO]
    for n in range(1, max_summands + 1):
        out.extend(Obj(ms) for ms in
                   itertools.combinations_with_replacement(cat.verts, n))
    return out


def _sample_obj(pool, rng) -> Obj:
    return pool[int(rng.integers(0, len(pool)))]


def _sample_mor(cat, pool, rng) -> Mor:
    x = _sample_obj(pool, rng)
    y = _sample_obj(pool, rng)
    return ac.random_morphism_rng(cat, x, y, rng)


def _random_iso(cat, x: Obj, rng) -> Mor:
    """Identity plus a random radical part: always invertible."""
    total = ac.hom_space_dim(cat, x, x)
    vec = rng.integers(0, cat.field.p, size=total)
    for (i, j), off, _ in ac.hom_layout(cat, x, x)[0]:
        if x.summands[i] == x.summands[j]:
            vec[off] = i == j
    return ac.vec_to_mor(cat, x, x, vec)


def _wfib_family(rigid: RigidStructure, pool, rng, count: int) -> list[Mor]:
    """Trivial fibrations to test against: replacement maps, their direct
    sums with identities, and classified random finds."""
    cat = rigid.cat
    fam: list[Mor] = []
    for x in pool[1: 1 + min(len(pool) - 1, 8)]:
        _, q = rigid.cofibrant_replacement(x)
        fam.append(q)
        z = _sample_obj(pool, rng)
        fam.append(ac.dsum_mor(q, ac.identity(cat, z)))
    tries = 0
    while len(fam) < count and tries < 40 * count:
        tries += 1
        f = _sample_mor(cat, pool, rng)
        if rigid.classify(f).wfib:
            fam.append(f)
    return fam[:count]


FAMILY_SUM = 4


def _family_sums(fam: list[Mor]) -> list[Mor]:
    """fam as direct sums of at most ``FAMILY_SUM`` consecutive members."""
    return [ac.dsum_mor(*fam[i: i + FAMILY_SUM])
            for i in range(0, len(fam), FAMILY_SUM)]


def _fib_family(rigid: RigidStructure, pool, rng, count: int) -> list[Mor]:
    cat = rigid.cat
    fam: list[Mor] = []
    while len(fam) < count:
        f = _sample_mor(cat, pool, rng)
        fam.append(rigid.factor_wcof_fib(f).second)
        if rigid.classify(f).fib:
            fam.append(f)
    return fam[:count]


def _wcof_family(rigid: RigidStructure, pool, rng, count: int) -> list[Mor]:
    """Canonical inclusions into X + sigma T, conjugated by isomorphisms."""
    cat = rigid.cat
    fam: list[Mor] = []
    while len(fam) < count:
        x = _sample_obj(pool, rng)
        k = int(rng.integers(0, 3))
        ts = tuple(rigid.sigma_t_ind[int(rng.integers(0, len(rigid.sigma_t_ind)))]
                   for _ in range(k))
        inc = ac.inclusion(cat, x, Obj(ts))
        u = _random_iso(cat, inc.cod, rng)
        v = _random_iso(cat, x, rng)
        fam.append(ac.compose(u, ac.compose(inc, v)))
    return fam


# ------------------------------------------------------------- axiom suite


def run_axiom_suite(cat: MeshCategory, rigid: RigidStructure,
                    budget: int = 500, seed: int = 0) -> Report:
    """Sampled verification of the structural axioms.

    Conditions: (0) pullbacks of trivial fibrations along split epis,
    (0.5) coproduct inclusions with cofibrant second summand, (1) the
    two-out-of-three property, (2) identity/composition/retract closure of
    the classes, (3) the two orthogonality relations, (4) both
    factorizations with certified factors on every sampled morphism."""
    rng = np.random.default_rng(seed)
    p = cat.field.p
    pool = objects_up_to(cat, 2)
    n = max(4, budget // 25)
    rep = Report("axioms", {
        "field_char": p, "T": list(rigid.t_ind), "budget": budget,
        "seed": seed,
    })

    # (0) pullback of a trivial fibration along a split epi
    bad = []
    wfibs = _wfib_family(rigid, pool, rng, max(4, n // 4))
    for q in wfibs:
        z = _sample_obj(pool, rng)
        pb = ac.dsum_mor(q, ac.identity(cat, z))
        top = ac.projection(cat, q.dom, z)
        bottom = ac.projection(cat, q.cod, z)
        if ac.compose(q, top) != ac.compose(bottom, pb):
            bad.append(("square does not commute", mor_to_json(q)))
            continue
        if not rigid.classify(pb).wfib:
            bad.append(("pullback not a trivial fibration", mor_to_json(q)))
            continue
        # universal property on sampled cones: solutions exist uniquely
        u_obj = _sample_obj(pool, rng)
        m = np.concatenate([ac.left_mul_matrix(top, u_obj),
                            ac.left_mul_matrix(pb, u_obj)], axis=0)
        dim_dom = ac.hom_space_dim(cat, u_obj, top.dom)
        if dim_dom and fast_rank(m, p) != dim_dom:
            bad.append(("mediating morphism not unique", mor_to_json(q)))
            continue
        for _ in range(3):
            c = ac.random_morphism_rng(cat, u_obj, top.dom, rng)
            a_mor = ac.compose(top, c)
            b_mor = ac.compose(pb, c)
            vec = np.concatenate([ac.mor_to_vec(a_mor), ac.mor_to_vec(b_mor)])
            sol = array_solve(m, vec, p)
            if sol is None or not np.array_equal(
                    sol % p, ac.mor_to_vec(c) % p):
                bad.append(("universal property failed", mor_to_json(q)))
                break
    rep.add("axiom-0-pullbacks", not bad,
            f"{len(wfibs)} trivial fibrations tested", bad[:3] or None)

    # (0.5) inclusions A -> A + B with B cofibrant: LLP against the family
    # each family is tested as direct sums (module docstring)
    wfib_sums = _family_sums(wfibs)
    bad = []
    for _ in range(n):
        a_obj = _sample_obj(pool, rng)
        b_obj = rigid.ts_list[int(rng.integers(0, len(rigid.ts_list)))]
        inc = ac.inclusion(cat, a_obj, b_obj)
        if not all(rlp_all_squares(rigid, inc, q, "plain")
                   for q in wfib_sums):
            bad.append({"A": list(a_obj.summands), "B": list(b_obj.summands)})
    rep.add("axiom-0.5-coproduct-inclusions", not bad,
            "literal reading tested: arbitrary first summand, "
            f"{n} samples", bad[:3] or None)

    # (1) two-out-of-three
    bad = []
    for _ in range(budget):
        x, y, z = (_sample_obj(pool, rng) for _ in range(3))
        f = ac.random_morphism_rng(cat, x, y, rng)
        g = ac.random_morphism_rng(cat, y, z, rng)
        wf = rigid.classify(f).weq
        wg = rigid.classify(g).weq
        if not (wf or wg):
            continue    # every condition needs f or g a weak equivalence
        wgf = rigid.classify(ac.compose(g, f)).weq
        if (wf and wg and not wgf) or (wf and wgf and not wg) \
                or (wg and wgf and not wf):
            bad.append({"f": mor_to_json(f), "g": mor_to_json(g),
                        "flags": [wf, wg, wgf]})
    rep.add("axiom-1-two-out-of-three", not bad, f"{budget} pairs",
            bad[:3] or None)

    # (2) closure: identities, composition, retracts
    bad = []
    for x in pool[: min(len(pool), 20)]:
        c = rigid.classify(ac.identity(cat, x))
        if not (c.weq and c.fib and c.wcof):
            bad.append({"identity": list(x.summands), "flags": c.as_dict()})
    for _ in range(n):
        x, y, z = (_sample_obj(pool, rng) for _ in range(3))
        f = ac.random_morphism_rng(cat, x, y, rng)
        g = ac.random_morphism_rng(cat, y, z, rng)
        cf, cg = rigid.classify(f), rigid.classify(g)
        cgf = rigid.classify(ac.compose(g, f))
        for attr in ("weq", "fib", "wfib", "wcof"):
            if getattr(cf, attr) and getattr(cg, attr) \
                    and not getattr(cgf, attr):
                bad.append({"class": attr, "f": mor_to_json(f),
                            "g": mor_to_json(g)})
    for _ in range(n):
        x, y = _sample_obj(pool, rng), _sample_obj(pool, rng)
        f0 = ac.random_morphism_rng(cat, x, y, rng)
        h = _sample_mor(cat, pool, rng)
        big = ac.dsum_mor(f0, h)
        u = _random_iso(cat, big.cod, rng)
        v = _random_iso(cat, big.dom, rng)
        f = ac.compose(u, ac.compose(big, v))
        cf, cf0 = rigid.classify(f), rigid.classify(f0)
        for attr in ("weq", "fib", "wfib"):
            if getattr(cf, attr) and not getattr(cf0, attr):
                bad.append({"retract-class": attr, "f0": mor_to_json(f0)})
    rep.add("axiom-2-class-closure", not bad, f"{2 * n} samples",
            bad[:3] or None)

    # (3) orthogonality
    bad = []
    fibs = _fib_family(rigid, pool, rng, max(4, n // 4))
    for ell in _wcof_family(rigid, pool, rng, max(4, n // 4)):
        for r in fibs:
            if not rlp_all_squares(rigid, ell, r, "plain"):
                bad.append({"wcof": mor_to_json(ell), "fib": mor_to_json(r)})
    for _ in range(max(4, n // 4)):
        a_obj = _sample_obj(pool, rng)
        b_obj = rigid.ts_list[int(rng.integers(0, len(rigid.ts_list)))]
        inc = ac.inclusion(cat, a_obj, b_obj)
        for q in wfibs:
            if not rlp_all_squares(rigid, inc, q, "plain"):
                bad.append({"cof": mor_to_json(inc), "wfib": mor_to_json(q)})
    rep.add("axiom-3-orthogonality", not bad, "weak cofibrations vs "
            "fibrations, canonical cofibrations vs trivial fibrations",
            bad[:3] or None)

    # (4) factorizations on every sampled morphism
    bad = []
    count = 0
    some_wfib_sums = _family_sums(wfibs[:3])
    for _ in range(budget):
        f = _sample_mor(cat, pool, rng)
        count += 1
        try:
            rigid.factor_wcof_fib(f)
        except AssertionError as e:
            bad.append({"factorization": "wcof-fib", "f": mor_to_json(f),
                        "error": str(e)})
        x = rigid.ts_list[int(rng.integers(0, len(rigid.ts_list)))]
        y = _sample_obj(pool, rng)
        g = ac.random_morphism_rng(cat, x, y, rng)
        try:
            fp = rigid.factor_htpcof_wfib(g)
        except AssertionError as e:
            bad.append({"factorization": "htpcof-wfib", "f": mor_to_json(g),
                        "error": str(e)})
            continue
        if not all(_rlp_up_to_homotopy(rigid, fp.first, q,
                                       ("htp_top", "htp_bottom"))
                   for q in some_wfib_sums):
            bad.append({"factorization": "htpcof-wfib",
                        "first-factor-falsified": mor_to_json(fp.first)})
    rep.add("axiom-4-factorizations", not bad,
            f"{count} morphisms, both constructors, certified factors",
            bad[:3] or None)
    return rep


# ----------------------------------------------------------- lemma suite


def _hom_spaces(rigid: RigidStructure, pool, rng):
    """(x, y, coeffs) for every pair of pool objects, in order, and whether
    all were exhaustive: coeffs is what ``addcat.coeff_chunks`` takes from
    Hom(x, y), sampled spaces drawn from rng."""
    cat = rigid.cat
    spaces = []
    exhaustive = True
    lex: dict[int, np.ndarray] = {}     # read-only, shared by equal dims
    for x in pool:
        for y in pool:
            d = ac.hom_space_dim(cat, x, y)
            coeffs = lex.get(d)
            if coeffs is None:
                (coeffs, sampled), = ac.coeff_chunks(
                    cat.field.p, d, rm.ENUM_EXP_CAP, rm.SAMPLE_COUNT, rng)
                if sampled:
                    exhaustive = False
                else:
                    lex[d] = coeffs
            spaces.append((x, y, coeffs))
    return spaces, exhaustive


def _in_span(cols: np.ndarray, coeffs: np.ndarray, p: int) -> np.ndarray:
    """Mask of the rows of coeffs lying in the column span of cols: rows
    killed by every vector of the annihilator of that span."""
    ann = array_kernel(cols.T, p)
    if not ann:
        return np.ones(len(coeffs), dtype=bool)
    return ~np.any(coeffs @ np.stack(ann, axis=1) % p, axis=1)


def lemma_equivalence_suite(cat: MeshCategory, rigid: RigidStructure,
                            max_summands: int = 2, seed: int = 0,
                            gen_mult_bound: int = 2,
                            gen_a_total: int | None = None) -> Report:
    """Per-morphism agreement between the class predicates and the
    characterization-free oracles.

    (a) perp-ideal membership vs vanishing of Hom(t, -);
    (b) trivial-fibration flag vs lifting against the generating family;
    (c) weak-cofibration flag: canonical forms are flagged, flagged
        morphisms lift against enumerated fibrations and split as expected;
    (d) homotopy: explicit right-homotopy construction vs ideal membership
        of the difference (both depend only on f - g, so differences
        against zero cover all parallel pairs).

    Every morphism of every Hom(x, y) is checked, one Hom space at a time;
    witnesses are listed in enumeration order."""
    rng = np.random.default_rng(seed)
    p = cat.field.p
    pool = objects_up_to(cat, max_summands)
    rep = Report("lemmas", {
        "field_char": p, "T": list(rigid.t_ind), "seed": seed,
        "max_summands": max_summands,
    })
    bad_a, bad_b, bad_c, bad_d = [], [], [], []
    # four fibrations, tested as one direct sum (module docstring)
    fib_rng = np.random.default_rng(seed + 1)
    some_fibs = ac.dsum_mor(*(rigid.factor_wcof_fib(
        _sample_mor(cat, pool, fib_rng)).second for _ in range(4)))
    spaces, exhaustive = _hom_spaces(rigid, pool, rng)
    n_pairs = len(_generator_rows(rigid, gen_mult_bound, gen_a_total))
    fails = _generating_failures(rigid, spaces, gen_mult_bound, gen_a_total)
    # class flags one pool row at a time, which bounds the stacks in memory
    masks = itertools.chain.from_iterable(
        rigid.class_masks(spaces[i:i + len(pool)])
        for i in range(0, len(spaces), len(pool)))
    for (x, y, coeffs), fail, (weq, fib, functor_zero) in zip(spaces, fails,
                                                              masks):
        def mor(n):
            return ac.vec_to_mor(cat, x, y, coeffs[n])

        in_ideal = _in_span(rigid.ideal_span_matrix("perp", x, y), coeffs, p)
        bad_a.extend(mor_to_json(mor(n))
                     for n in np.flatnonzero(in_ideal != functor_zero))
        wfib = weq & fib
        verdict = fail == n_pairs
        bad_b.extend({"f": mor_to_json(mor(n)), "wfib": bool(wfib[n]),
                      "oracle": bool(verdict[n])}
                     for n in np.flatnonzero(verdict != wfib))
        rest = rigid.split_mono_complement(x, y)
        for n in range(len(coeffs) if rest is not None else 0):
            f = mor(n)
            retraction = ac.find_retraction(f)
            if retraction is None:
                continue
            # rest lies in add sigma T, or split_mono_complement is None
            if ac.compose(retraction, f) != ac.identity(cat, x):
                bad_c.append({"f": mor_to_json(f),
                              "reason": "retraction not verified"})
            elif not rlp_all_squares(rigid, f, some_fibs, "plain"):
                bad_c.append({"f": mor_to_json(f),
                              "reason": "LLP vs fibration failed"})
        # the witness verdict is the solvability of the correction system
        # f = h . a, a the tautological left perp-approximation of x; the
        # packaged construction is exercised below
        a = rigid.tautological_approx(x, "left", "perp")
        solvable = _in_span(ac.right_mul_matrix(a, y), coeffs, p)
        bad_d.extend(mor_to_json(mor(n))
                     for n in np.flatnonzero(solvable != in_ideal))
    # canonical-form direction of the weak-cofibration characterization
    crng = np.random.default_rng(seed + 2)
    for _ in range(50):
        for ell in _wcof_family(rigid, pool, crng, 1):
            if not rigid.classify(ell).wcof:
                bad_c.append({"f": mor_to_json(ell),
                              "reason": "canonical form not flagged"})
    # a few honest parallel pairs through the pair API
    prng = np.random.default_rng(seed + 3)
    for _ in range(25):
        x = _sample_obj(pool, prng)
        y = _sample_obj(pool, prng)
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
    return rep
