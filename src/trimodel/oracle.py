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
generator pairs in family order and, per pair, ranks the lifting matrices
of every morphism still lifting against every generator row together (one
``batch_rank`` call per matrix shape, in stacks of at most ``STACK_CELLS``
cells), dropping a morphism at its first failing pair.  The lifting
matrices are contractions of the Hom-functor tensors of ``addcat``:
``left_mul_tensor`` for Hom(w, r) over the tested morphisms r and
``right_mul_tensor`` for Hom(g, z) over the generator rows g; neither is
kept beyond the call.  The lemma suite runs one Hom space at
a time: every morphism of Hom(x, y) is a row of a coefficient array, ideal
membership and solvability of the homotopy correction are products with
annihilators of row spaces, Hom(T, -) vanishes on a row iff the row's
contraction with one ``left_mul_tensor``, that of T as the sum of the
rigid vertices, is zero, and the weq / fib flags are batched ranks of
Hom(T, -) and Hom(sigma T, -) (``RigidStructure.class_masks``;
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
from .exactlin import array_kernel, array_solve, fast_rank, ragged_rank
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


@memoized
def _generator_rows(rigid: RigidStructure, mult_bound: int,
                    a_total: int | None) -> list[_GeneratorRows]:
    """The generators of every pair of ``_generating_family``, in order:
    the rows ``addcat.coeff_chunks`` takes from Hom(R, A).  Rows with an
    all-zero block for some summand are dropped: they are direct sums of
    smaller generators with trivial ones, covered elsewhere."""
    cat = rigid.cat
    out = []
    for (r_obj, a_obj) in _generating_family(rigid, mult_bound, a_total):
        layout, dim_g = ac.hom_layout(cat, r_obj, a_obj)
        (rows, sampled), = ac.coeff_chunks(cat.field.p, dim_g,
                                           rm.ENUM_EXP_CAP, rm.SAMPLE_COUNT,
                                           rigid.seed)
        if len(r_obj) >= 1 and len(a_obj) >= 1 and dim_g:
            skip = np.zeros(rows.shape[0], dtype=bool)
            for side in (0, 1):
                groups: dict[int, list[int]] = {}
                for (ij, off, d) in layout:
                    groups.setdefault(ij[side], []).extend(
                        range(off, off + d))
                for idx in groups.values():
                    skip |= ~np.any(rows[:, idx], axis=1)
            rows = rows[~skip]
        out.append(_GeneratorRows(r_obj, a_obj, rows, sampled))
    return out


# cells of the lifting matrices _generating_failures ranks together at most
# (more only when one morphism against one generator row is larger): about
# 15 times the largest stack of the p = 2 lemma suite, 8 MB as int16
STACK_CELLS = 1 << 22


def _generating_failures(rigid: RigidStructure, spaces, mult_bound: int,
                         a_total: int | None):
    """For every (x, y, coeffs) of spaces, one int per row of coeffs: the
    index of the first generator pair against which that morphism x -> y
    fails to lift, or the number of pairs when it lifts against all.

    r lifts against every square from a generator g: R -> A iff the lift
    candidates psi = [Hom(g, X); Hom(A, r)] reach the whole kernel of the
    square map lam = [Hom(R, r) | -Hom(g, Y)], that is iff rank psi +
    rank lam = dim Hom(R, X) + dim Hom(A, Y).  Per pair, lam and the
    transpose of psi for every live morphism and every generator row are
    ranked together, one ``batch_rank`` call per matrix shape, in stacks of
    at most ``STACK_CELLS`` cells; what is built for a pair is dropped after
    it, except the Hom(w, -) tensors of live spaces."""
    p = rigid.cat.field.p
    gens = _generator_rows(rigid, mult_bound, a_total)
    fails = [np.full(len(c), len(gens), dtype=np.int64) for _, _, c in spaces]
    alive = {s: np.arange(len(c)) for s, (_, _, c) in enumerate(spaces)}
    tensors: dict[int, dict] = {}       # per live space, by object w

    def hom_stack(s: int, w: Obj, coeffs: np.ndarray) -> np.ndarray:
        # Hom(w, f) for every row f of coeffs
        cache = tensors.setdefault(s, {})
        lt = cache.get(w.summands)
        if lt is None:
            lt = cache[w.summands] = ac.left_mul_tensor(rigid.cat, w,
                                                        *spaces[s][:2])
        return ac.apply_tensor(lt, coeffs, p)

    for k, gen in enumerate(gens):
        n_g = len(gen.rows)
        if not n_g:
            continue
        rg: dict[tuple, np.ndarray] = {}

        def rg_of(z: Obj) -> np.ndarray:
            # Hom(g, Z): Hom(A, Z) -> Hom(R, Z) for every generator row g
            hit = rg.get(z.summands)
            if hit is None:
                hit = rg[z.summands] = ac.apply_tensor(ac.right_mul_tensor(
                    rigid.cat, gen.r_obj, gen.a_obj, z), gen.rows, p)
            return hit

        failed: dict[int, list] = {}    # live positions, per space
        # stacks waiting to be ranked, and the (space, first morphism,
        # generator rows per morphism) of each
        lams, psis, owners = [], [], []
        cells = 0

        def rank_stacks() -> None:
            ranks = ragged_rank(lams + psis, p)
            for (s, m0, n), lam, r_lam, r_psi in zip(owners, lams, ranks,
                                                     ranks[len(lams):]):
                bad = np.flatnonzero(r_lam + r_psi != lam.shape[2])
                if len(bad):
                    failed.setdefault(s, []).append(m0 + bad // n)
            for stack in (lams, psis, owners):
                stack.clear()

        for s, idx in alive.items():
            x, y, coeffs = spaces[s]
            rg_x, rg_y = rg_of(x), rg_of(y)
            cols = rg_x.shape[1] + rg_y.shape[2]
            if cols == 0:
                continue
            c = coeffs[idx]
            neg_rg_y, rg_x_t = -rg_y % p, rg_x.transpose(0, 2, 1)
            # lam: dim Hom(R, Y) rows, psi: dim Hom(A, X); columns split
            # after dim Hom(R, X)
            rows_lam, rows_psi = rg_y.shape[1], rg_x.shape[2]
            split = rg_x.shape[1]
            size = (rows_lam + rows_psi) * cols    # cells a pair
            # pairs (morphism, generator row) of one stack: whole morphisms
            # when a morphism's rows fit, else slices of one morphism's rows
            per = max(1, STACK_CELLS // max(size, 1))
            step = per // n_g
            blocks = ((m0, min(m0 + step, len(c)), 0, n_g)
                      for m0 in range(0, len(c), step)) if step else \
                ((m0, m0 + 1, g0, min(g0 + per, n_g))
                 for m0 in range(len(c)) for g0 in range(0, n_g, per))
            for m0, m1, g0, g1 in blocks:
                m, n = m1 - m0, g1 - g0
                if lams and cells + m * n * size > STACK_CELLS:
                    rank_stacks()
                    cells = 0
                # matrix i * n + j: morphism m0 + i against row g0 + j
                lam = np.empty((m * n, rows_lam, cols), dtype=np.int16)
                grid = lam.reshape(m, n, rows_lam, cols)
                grid[..., :split] = hom_stack(s, gen.r_obj, c[m0:m1])[:, None]
                grid[..., split:] = neg_rg_y[g0:g1]
                psi = np.empty((m * n, rows_psi, cols), dtype=np.int16)
                grid = psi.reshape(m, n, rows_psi, cols)
                grid[..., :split] = rg_x_t[g0:g1]
                grid[..., split:] = hom_stack(
                    s, gen.a_obj, c[m0:m1]).transpose(0, 2, 1)[:, None]
                lams.append(lam)
                psis.append(psi)
                owners.append((s, m0, n))
                cells += m * n * size
        rank_stacks()
        for s, bad in failed.items():
            ok = np.ones(len(alive[s]), dtype=bool)
            ok[np.concatenate(bad)] = False
            fails[s][alive[s][~ok]] = k
            alive[s] = alive[s][ok]
            if not len(alive[s]):
                del alive[s]
                tensors.pop(s, None)
    return fails


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
    for (x, y, coeffs), fail, (weq, fib) in zip(spaces, fails, masks):
        def mor(n):
            return ac.vec_to_mor(cat, x, y, coeffs[n])

        in_ideal = _in_span(rigid.ideal_span_matrix("perp", x, y), coeffs, p)
        functor_zero = ~np.any(ac.apply_tensor(
            ac.left_mul_tensor(cat, rigid.subcat_obj("T"), x, y), coeffs, p),
            axis=(1, 2))
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
