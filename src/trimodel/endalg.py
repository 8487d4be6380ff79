"""The endomorphism algebra of the rigid generator and its modules.

The algebra is presented on the union of the Hom bases between T vertices,
with the opposite-composition product (a . b is the composite "a then b" in
the category).  Each object X yields a module on the direct sum of the
spaces Hom(t, X), t in T, acting by precomposition.  Both the action and
the functor sending a morphism to the induced intertwiner are read off the
Hom-functor tensors of ``addcat`` (``right_mul_tensor`` and
``left_mul_tensor``) over a whole Hom space at once, and the equivalence
checks compare stable Hom dimensions (Hom modulo morphisms factoring
through the suspension of T) with intertwiner dimensions, plus bijectivity
of the induced map, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import addcat as ac
from .addcat import Mor, Obj
from .exactlin import array_kernel, array_rank, batch_rank
from .report import Report
from .rigidmodel import RigidStructure


@dataclass
class AlgebraPres:
    """Basis labels, structure constants c[i, j] (coefficients of the
    product basis_i . basis_j) and the unit's coordinates."""

    dim: int
    labels: list[str]
    sources: list[str]
    targets: list[str]
    structure: np.ndarray        # (dim, dim, dim)
    unit: np.ndarray             # (dim,)

    def multiply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.einsum("i,j,ijk->k", x, y, self.structure)


@dataclass
class ModuleRep:
    """Carrier dimension and one action matrix per algebra basis element."""

    dim: int
    action: np.ndarray           # (algebra dim, dim, dim)
    section_offsets: dict[str, int]


def end_algebra(rigid: RigidStructure) -> AlgebraPres:
    cat = rigid.cat
    p = cat.field.p
    labels, sources, targets, index = [], [], [], {}
    for a in rigid.t_ind:
        for b in rigid.t_ind:
            for k in range(cat.hom_dim(a, b)):
                index[(a, b, k)] = len(labels)
                labels.append(f"{a}->{b}[{k}]")
                sources.append(a)
                targets.append(b)
    dim = len(labels)
    structure = np.zeros((dim, dim, dim), dtype=np.int64)
    for (a, b, k), i in index.items():
        for (c, d, m), j in index.items():
            if b != c:
                continue
            coeffs = cat.compose_basis((a, b, k), (c, d, m))
            for k2, val in enumerate(coeffs):
                if val:
                    structure[i, j, index[(a, d, k2)]] = val % p
    unit = np.zeros(dim, dtype=np.int64)
    for t in rigid.t_ind:
        unit[index[(t, t, 0)]] = 1
    return AlgebraPres(dim, labels, sources, targets, structure, unit)


def module_layout(rigid: RigidStructure, x: Obj):
    """Section offsets of the carrier: Hom(t, x) blocks in T order."""
    cat = rigid.cat
    offsets, off = {}, 0
    for t in rigid.t_ind:
        offsets[t] = off
        off += ac.hom_space_dim(cat, Obj((t,)), x)
    return offsets, off


def module_of(rigid: RigidStructure, x: Obj,
              alg: AlgebraPres | None = None) -> ModuleRep:
    """The module Hom(T, x): basis element a -> b of the algebra acts as
    precomposition Hom(b, x) -> Hom(a, x), a slice of the
    ``right_mul_tensor`` of Hom(a, b) into x."""
    cat = rigid.cat
    if alg is None:
        alg = end_algebra(rigid)
    offsets, total = module_layout(rigid, x)
    action = np.zeros((alg.dim, total, total), dtype=np.int64)
    i = 0
    # the algebra basis runs over Hom(a, b) for a, b in T, in that order
    for a in rigid.t_ind:
        for b in rigid.t_ind:
            r = ac.right_mul_tensor(cat, Obj((a,)), Obj((b,)), x)
            action[i:i + len(r), offsets[a]:offsets[a] + r.shape[1],
                   offsets[b]:offsets[b] + r.shape[2]] = r % cat.field.p
            i += len(r)
    return ModuleRep(total, action, offsets)


def intertwiner_space(alg: AlgebraPres, m: ModuleRep, n: ModuleRep,
                      p: int) -> list[np.ndarray]:
    """Basis of the maps m -> n commuting with every basis action."""
    if m.dim == 0 or n.dim == 0:
        return []
    rows = []
    eye_m = np.eye(m.dim, dtype=np.int64)
    eye_n = np.eye(n.dim, dtype=np.int64)
    for i in range(alg.dim):
        rows.append(np.kron(m.action[i].T, eye_n)
                    - np.kron(eye_m, n.action[i]))
    big = np.concatenate(rows, axis=0) % p
    return array_kernel(big, p)


def module_hom_dim(rigid: RigidStructure, m: ModuleRep, n: ModuleRep,
                   alg: AlgebraPres | None = None) -> int:
    if alg is None:
        alg = end_algebra(rigid)
    if m.dim == 0 or n.dim == 0:
        return 0
    return len(intertwiner_space(alg, m, n, rigid.cat.field.p))


def find_module_iso(rigid: RigidStructure, m: ModuleRep, n: ModuleRep,
                    alg: AlgebraPres | None = None):
    """The first invertible intertwiner m -> n, or None, among the
    combinations of an intertwiner basis that ``coeff_chunks`` takes."""
    p = rigid.cat.field.p
    if alg is None:
        alg = end_algebra(rigid)
    if m.dim != n.dim:
        return None
    if m.dim == 0:
        return np.zeros((0, 0), dtype=np.int64)
    basis = intertwiner_space(alg, m, n, p)
    if not basis:
        return None
    for rows, _ in ac.coeff_chunks(p, len(basis), 16,
                                   rigid.params.sample_count,
                                   rigid.params.seed, first=16):
        mats = (rows @ np.stack(basis) % p).reshape(-1, n.dim, m.dim)
        hits = np.flatnonzero(batch_rank(mats, p) == n.dim)
        if hits.size:
            return mats[hits[0]]
    return None


def induced_tensor(rigid: RigidStructure, x: Obj, y: Obj) -> np.ndarray:
    """Hom(T, -) on Hom(x, y) as a tensor: slice c is the intertwiner
    Hom(T, x) -> Hom(T, y) of the c-th elementary morphism, assembled from
    the ``left_mul_tensor`` of each t in T."""
    cat = rigid.cat
    src_off, src_dim = module_layout(rigid, x)
    dst_off, dst_dim = module_layout(rigid, y)
    out = np.zeros((ac.hom_space_dim(cat, x, y), dst_dim, src_dim),
                   dtype=np.int64)
    for t in rigid.t_ind:
        lt = ac.left_mul_tensor(cat, Obj((t,)), x, y)
        out[:, dst_off[t]:dst_off[t] + lt.shape[1],
            src_off[t]:src_off[t] + lt.shape[2]] = lt
    return out


def induced_map_matrix(rigid: RigidStructure, f: Mor) -> np.ndarray:
    """The intertwiner Hom(T, f) on the carriers."""
    return ac.apply_tensor(induced_tensor(rigid, f.dom, f.cod),
                           ac.mor_to_vec(f)[None], rigid.cat.field.p)[0]


def _pair_data(rigid: RigidStructure, alg: AlgebraPres, mods: dict,
               u: str, v: str) -> dict:
    """Exact per-vertex-pair equivalence data: dimensions, image rank,
    vanishing on the ideal, bijectivity of the induced map."""
    cat = rigid.cat
    p = cat.field.p
    uo, vo = Obj((u,)), Obj((v,))
    d_hom = cat.hom_dim(u, v)
    d_ideal = rigid.ideal_dim_pair("sigmaT", u, v)
    stable = d_hom - d_ideal
    mh = module_hom_dim(rigid, mods[u], mods[v], alg)
    if d_hom:
        img = induced_tensor(rigid, uo, vo).reshape(d_hom, -1).T % p
        img_rank = array_rank(img, p)
        ideal_cols = rigid.ideal_span_matrix("sigmaT", uo, vo)
        ideal_zero = not np.any((img @ ideal_cols) % p)
    else:
        img_rank = 0
        ideal_zero = True
    return {
        "stable": stable,
        "module_hom": mh,
        "image_rank": img_rank,
        "ideal_zero": ideal_zero,
        "bijective": ideal_zero and img_rank == mh and stable == mh,
    }


def check_equivalence(rigid: RigidStructure, pair_total: int = 2,
                      explicit_pairs: int = 25, seed: int = 0) -> Report:
    """Stable Hom vs module Hom over all pairs of cofibrant objects within
    the summand bound.

    The induced map is blockwise over summand pairs (the functor is
    additive), so the per-vertex-pair data decides every pair exactly; a
    sample of pairs is additionally verified by assembling the full induced
    map and rank-checking it."""
    cat = rigid.cat
    p = cat.field.p
    alg = end_algebra(rigid)
    mods = {v: module_of(rigid, Obj((v,)), alg) for v in rigid.ts_ind}
    pair_info = {(u, v): _pair_data(rigid, alg, mods, u, v)
                 for u in rigid.ts_ind for v in rigid.ts_ind}
    rep = Report("equivalence", {
        "field_char": p, "T": list(rigid.t_ind), "pair_total": pair_total,
        "seed": seed,
    })
    objs = [x for x in rigid.ts_list if len(x) <= pair_total]
    bad_dim, bad_bij = [], []
    for x in objs:
        for y in objs:
            stable = sum(pair_info[(xv, yv)]["stable"]
                         for xv in x.summands for yv in y.summands)
            mh = sum(pair_info[(xv, yv)]["module_hom"]
                     for xv in x.summands for yv in y.summands)
            if stable != mh:
                bad_dim.append({"X": list(x.summands), "Y": list(y.summands),
                                "stable": stable, "module_hom": mh})
            if not all(pair_info[(xv, yv)]["bijective"]
                       for xv in x.summands for yv in y.summands):
                bad_bij.append({"X": list(x.summands), "Y": list(y.summands)})
    rep.add("equivalence-dimension-equalities", not bad_dim,
            f"{len(objs) ** 2} pairs, exact", bad_dim[:3] or None)
    rep.add("equivalence-induced-map-bijective", not bad_bij,
            "blockwise over summand pairs", bad_bij[:3] or None)

    # honest full-assembly double check on sampled pairs
    rng = np.random.default_rng(seed)
    bad_asm = []
    for _ in range(min(explicit_pairs, len(objs) ** 2)):
        x = objs[int(rng.integers(0, len(objs)))]
        y = objs[int(rng.integers(0, len(objs)))]
        d_hom = ac.hom_space_dim(cat, x, y)
        img_rank = 0
        if d_hom:
            img = induced_tensor(rigid, x, y).reshape(d_hom, -1).T % p
            img_rank = array_rank(img, p)
        ideal_cols = rigid.ideal_span_matrix("sigmaT", x, y)
        ideal_dim = array_rank(ideal_cols, p) if ideal_cols.size else 0
        mh = module_hom_dim(rigid, module_of(rigid, x, alg),
                            module_of(rigid, y, alg), alg)
        if img_rank != mh or d_hom - ideal_dim != mh:
            bad_asm.append({"X": list(x.summands), "Y": list(y.summands),
                            "img_rank": img_rank, "module_hom": mh,
                            "stable": d_hom - ideal_dim})
    rep.add("equivalence-explicit-assembly", not bad_asm,
            f"{min(explicit_pairs, len(objs) ** 2)} sampled pairs assembled "
            "in full", bad_asm[:3] or None)
    return rep


def essential_surjectivity_probe(rigid: RigidStructure, max_summands: int = 2,
                                 budget: int = 50, seed: int = 0) -> Report:
    """Optional bounded probe: modules of arbitrary objects are isomorphic
    to modules of cofibrant ones (via the replacement search)."""
    cat = rigid.cat
    alg = end_algebra(rigid)
    rng = np.random.default_rng(seed)
    rep = Report("essential-surjectivity", {
        "field_char": cat.field.p, "T": list(rigid.t_ind),
        "max_summands": max_summands, "budget": budget, "seed": seed,
    })
    from .oracle import objects_up_to
    pool = objects_up_to(cat, max_summands)
    bad = []
    for _ in range(budget):
        x = pool[int(rng.integers(0, len(pool)))]
        qx, _ = rigid.cofibrant_replacement(x)
        iso = find_module_iso(rigid, module_of(rigid, qx, alg),
                              module_of(rigid, x, alg), alg)
        if iso is None:
            bad.append({"X": list(x.summands), "QX": list(qx.summands)})
    rep.add("essential-surjectivity-probe", not bad,
            f"{budget} draws", bad[:3] or None)
    return rep
