"""The endomorphism algebra of the rigid object T and its modules.

T is the direct sum of the rigid vertices.  End(T) is presented on the
``hom_layout(T, T)`` basis with the opposite-composition product (a . b is
the composite "a then b" in the category), and each object X yields the
module Hom(T, X), in ``hom_layout(T, X)`` coordinates, on which End(T) acts
by precomposition.  The structure constants and the action are the
``right_mul_tensor`` of Hom(T, T) into T and into X, and the functor sending
a morphism X -> Y to the induced intertwiner is the ``left_mul_tensor`` of
Hom(T, -) on Hom(X, Y), each over a whole Hom space at once.  Permuted,
these are block diagonal over the vertices of T (the argument is in
``RigidStructure.classify``), so every dimension and rank is the one a
vertex-by-vertex presentation gives.  The equivalence checks compare stable
Hom dimensions (Hom modulo morphisms factoring through the suspension of T)
with intertwiner dimensions, plus bijectivity of the induced map, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import addcat as ac
from . import rigidmodel as rm
from .addcat import Obj
from .exactlin import array_kernel, batch_rank, fast_rank
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


@dataclass
class ModuleRep:
    """Carrier dimension and one action matrix per algebra basis element."""

    dim: int
    action: np.ndarray           # (algebra dim, dim, dim)


def end_algebra(rigid: RigidStructure) -> AlgebraPres:
    """End(T): the product basis_i . basis_j, the composite basis_j
    basis_i, is column j of Hom(basis_i, T), the i-th slice of
    ``right_mul_tensor(T, T, T)``."""
    cat = rigid.cat
    t = rigid.subcat_obj("T")
    layout, dim = ac.hom_layout(cat, t, t)
    labels, sources, targets = [], [], []
    for (i, j), _, d in layout:
        a, b = rigid.t_ind[j], rigid.t_ind[i]
        labels.extend(f"{a}->{b}[{k}]" for k in range(d))
        sources.extend([a] * d)
        targets.extend([b] * d)
    structure = ac.right_mul_tensor(cat, t, t, t).transpose(0, 2, 1) \
        % cat.field.p
    return AlgebraPres(dim, labels, sources, targets, structure,
                       ac.mor_to_vec(ac.identity(cat, t)))


def module_of(rigid: RigidStructure, x: Obj) -> ModuleRep:
    """The module Hom(T, x): basis element e of End(T) acts as
    precomposition Hom(e, x), a slice of ``right_mul_tensor(T, T, x)``."""
    cat = rigid.cat
    t = rigid.subcat_obj("T")
    action = ac.right_mul_tensor(cat, t, t, x) % cat.field.p
    return ModuleRep(action.shape[1], action)


def intertwiner_space(m: ModuleRep, n: ModuleRep,
                      p: int) -> list[np.ndarray]:
    """Basis of the maps m -> n commuting with every basis action."""
    if m.dim == 0 or n.dim == 0:
        return []
    eye_m = np.eye(m.dim, dtype=np.int64)
    eye_n = np.eye(n.dim, dtype=np.int64)
    big = np.concatenate([np.kron(am.T, eye_n) - np.kron(eye_m, an)
                          for am, an in zip(m.action, n.action)]) % p
    return array_kernel(big, p)


def module_hom_dim(rigid: RigidStructure, m: ModuleRep, n: ModuleRep) -> int:
    return len(intertwiner_space(m, n, rigid.cat.field.p))


def find_module_iso(rigid: RigidStructure, m: ModuleRep, n: ModuleRep):
    """The first invertible intertwiner m -> n, or None, among the
    combinations of an intertwiner basis that ``coeff_chunks`` takes."""
    p = rigid.cat.field.p
    if m.dim != n.dim:
        return None
    if m.dim == 0:
        return np.zeros((0, 0), dtype=np.int64)
    basis = intertwiner_space(m, n, p)
    if not basis:
        return None
    for rows, _ in ac.coeff_chunks(p, len(basis), 16, rm.SAMPLE_COUNT,
                                   rigid.seed, first=16):
        mats = (rows @ np.stack(basis) % p).reshape(-1, n.dim, m.dim)
        hits = np.flatnonzero(batch_rank(mats, p) == n.dim)
        if hits.size:
            return mats[hits[0]]
    return None


def induced_tensor(rigid: RigidStructure, x: Obj, y: Obj) -> np.ndarray:
    """Hom(T, -) on Hom(x, y) as a tensor: slice c is the intertwiner
    Hom(T, x) -> Hom(T, y) of the c-th elementary morphism."""
    return ac.left_mul_tensor(rigid.cat, rigid.subcat_obj("T"), x, y)


def _pair_data(rigid: RigidStructure, mods: dict, u: str, v: str) -> dict:
    """Exact per-vertex-pair equivalence data: dimensions, image rank,
    vanishing on the ideal, bijectivity of the induced map."""
    cat = rigid.cat
    p = cat.field.p
    uo, vo = Obj((u,)), Obj((v,))
    d_hom = cat.hom_dim(u, v)
    d_ideal = rigid.ideal_dim_pair("sigmaT", u, v)
    stable = d_hom - d_ideal
    mh = module_hom_dim(rigid, mods[u], mods[v])
    if d_hom:
        img = induced_tensor(rigid, uo, vo).reshape(d_hom, -1).T % p
        img_rank = fast_rank(img, p)
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


# pairs of cofibrant objects that check_equivalence draws and assembles in
# full at most; read at call time
EXPLICIT_PAIRS = 25


def check_equivalence(rigid: RigidStructure, pair_total: int = 2,
                      seed: int = 0) -> Report:
    """Stable Hom vs module Hom over all pairs of cofibrant objects within
    the summand bound.

    The induced map is blockwise over summand pairs (the functor is
    additive), so the per-vertex-pair data decides every pair exactly; a
    sample of pairs is additionally verified by assembling the full induced
    map and rank-checking it (``EXPLICIT_PAIRS`` of them at most)."""
    cat = rigid.cat
    p = cat.field.p
    mods = {v: module_of(rigid, Obj((v,))) for v in rigid.ts_ind}
    pair_info = {(u, v): _pair_data(rigid, mods, u, v)
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
    explicit = min(EXPLICIT_PAIRS, len(objs) ** 2)
    for _ in range(explicit):
        x = objs[int(rng.integers(0, len(objs)))]
        y = objs[int(rng.integers(0, len(objs)))]
        d_hom = ac.hom_space_dim(cat, x, y)
        img_rank = 0
        if d_hom:
            img = induced_tensor(rigid, x, y).reshape(d_hom, -1).T % p
            img_rank = fast_rank(img, p)
        ideal_cols = rigid.ideal_span_matrix("sigmaT", x, y)
        ideal_dim = fast_rank(ideal_cols, p)
        mh = module_hom_dim(rigid, module_of(rigid, x), module_of(rigid, y))
        if img_rank != mh or d_hom - ideal_dim != mh:
            bad_asm.append({"X": list(x.summands), "Y": list(y.summands),
                            "img_rank": img_rank, "module_hom": mh,
                            "stable": d_hom - ideal_dim})
    rep.add("equivalence-explicit-assembly", not bad_asm,
            f"{explicit} sampled pairs assembled in full", bad_asm[:3] or None)
    return rep
