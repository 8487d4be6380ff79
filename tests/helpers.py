"""Constructions that only the tests use: independent oracles and small
probes kept out of the package."""

import numpy as np

from trimodel import addcat as ac
from trimodel import endalg as ea
from trimodel import meshcat as mc
from trimodel.exactlin import array_kernel, array_solve, fast_rank
from trimodel.oracle import objects_up_to
from trimodel.report import Report


def per_source_comp(cat) -> dict:
    """The composition tensors built one source u at a time: for each u and
    v with Hom(u, v) != 0 and each basis path q out of v, shortest first,
    slice q of comp[(u, v, w)] is the slice of q's prefix times the
    matrix of q's last arrow on Hom(u, -).  The reference for the build
    that keeps the source as a batch axis."""
    p = cat.field.p
    V = cat.verts
    index = {(v, w): {pp: j for j, pp in enumerate(b)}
             for (v, w), b in cat.basis.items()}
    out = {v: sorted((len(q), w, j, q) for w in V
                     for j, q in enumerate(cat.basis[(v, w)]))
           for v in V}
    comp = {}
    for u in V:
        for v in V:
            d = cat.hom_dim(u, v)
            if not d:
                continue
            ts = {w: np.empty((len(cat.basis[(v, w)]), d,
                               len(cat.basis[(u, w)])), dtype=np.int64)
                  for w in V if cat.basis[(v, w)]}
            for _, w, j, q in out[v]:
                if q:
                    y = cat.arrows[q[-1]][0]
                    prefix = ts[y][index[(v, y)][q[:-1]]]
                    ts[w][j] = prefix @ cat._right[(u, q[-1])].T % p
                else:
                    ts[w][j] = np.eye(d, dtype=np.int64)
            comp.update(((u, v, w), t) for w, t in ts.items())
    return comp


def in_span(cols: np.ndarray, coeffs: np.ndarray, p: int) -> np.ndarray:
    """Mask of the rows of coeffs lying in the column span of cols: rows
    killed by every vector of the annihilator of that span.  The
    whole-object reference for the lemma suite's blockwise masks."""
    ann = array_kernel(cols.T, p)
    if not ann:
        return np.ones(len(coeffs), dtype=bool)
    return ~np.any(coeffs @ np.stack(ann, axis=1) % p, axis=1)


def whole_object_masks(rigid, x: ac.Obj, y: ac.Obj,
                       coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(in_ideal, solvable) for the rows of coeffs, morphisms x -> y: span
    membership in the perp ideal of Hom(x, y), and in the image of
    Hom(a, y), a the tautological left perp-approximation of x, each from
    the annihilator of a whole-object matrix."""
    p = rigid.cat.field.p
    a = rigid.tautological_approx(x, "left", "perp")
    return (in_span(rigid.ideal_span_matrix("perp", x, y), coeffs, p),
            in_span(ac.right_mul_matrix(a, y), coeffs, p))


def check_stabilization(cat) -> bool:
    """Rebuild with the length cap at ``radical_length + 1``; dims must
    agree."""
    other = mc.MeshCategory(cat.field, cat.quiver,
                            max_len_cap=cat.radical_length + 1)
    return bool(np.array_equal(other.dims, cat.dims))


def compose_basis(cat, f: tuple[str, str, int],
                  g: tuple[str, str, int]) -> np.ndarray:
    """Coefficients of (class g: v -> w) . (class f: u -> v) over
    Hom(u, w)."""
    (u, v, i), (v2, w, j) = f, g
    if v != v2:
        raise ValueError(f"endpoint mismatch: {v!r} != {v2!r}")
    tensor = cat.comp.get((u, v, w))
    if tensor is None:
        return np.zeros(cat.hom_dim(u, w), dtype=np.int64)
    return tensor[j, i].copy()


def sigma_mor(f: ac.Mor) -> ac.Mor:
    """The suspension of f, block by block through the basis maps."""
    cat = f.cat
    out = ac.Mor(cat, ac.sigma_obj(cat, f.dom), ac.sigma_obj(cat, f.cod))
    for (i, j), vec in f.blocks.items():
        u = f.dom.summands[j]
        v = f.cod.summands[i]
        out.set_block(i, j, cat.sigma_map[(u, v)] @ vec)
    return out


def ideal_witness(rigid, f: ac.Mor, key):
    """(lam, h) with h . lam = f through the tautological left
    approximation lam of dom f, or None when f is not in the ideal."""
    if not rigid.ideal_membership(f, key):
        return None
    lam = rigid.tautological_approx(f.dom, "left", key)
    a = ac.right_mul_matrix(lam, f.cod)
    x = array_solve(a, ac.mor_to_vec(f), rigid.cat.field.p)
    if x is None:
        raise AssertionError("ideal member failed to factor through "
                             "the tautological approximation")
    return lam, ac.vec_to_mor(rigid.cat, lam.cod, f.cod, x)


def eager_classify(rigid, f: ac.Mor) -> dict:
    """Every class flag of f decided up front, with no dimension shortcut:
    the reference for the flags ``RigidStructure.classify`` decides on
    demand.  weq: Hom(T, f) is square of full row rank; fib: Hom(sigma T,
    f) has full row rank; wcof: f is a split mono whose complement lies in
    add sigma T, with the retraction ``addcat.find_retraction`` solves."""
    p = rigid.cat.field.p

    def full_row_rank(w, square):
        m = ac.left_mul_matrix(f, w)
        return fast_rank(m, p) == m.shape[0] and \
            (m.shape[0] == m.shape[1] or not square)

    weq = full_row_rank(rigid.subcat_obj("T"), True)
    fib = full_row_rank(rigid.subcat_obj("sigmaT"), False)
    retraction = None
    complement = rigid.split_mono_complement(f.dom, f.cod)
    if complement is not None:
        retraction = ac.find_retraction(f)
        if retraction is None:
            complement = None
    return {"weq": weq, "fib": fib, "wfib": weq and fib,
            "wcof": retraction is not None, "retraction": retraction,
            "complement": complement}


def multiply(alg: ea.AlgebraPres, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x . y in End(T) from the structure constants."""
    return np.einsum("i,j,ijk->k", x, y, alg.structure)


def induced_map_matrix(rigid, f: ac.Mor) -> np.ndarray:
    """The intertwiner Hom(T, f) on the carriers."""
    return ac.apply_tensor(ea.induced_tensor(rigid, f.dom, f.cod),
                           ac.mor_to_vec(f)[None], rigid.cat.field.p)[0]


def essential_surjectivity_probe(rigid, max_summands: int = 2,
                                 budget: int = 50, seed: int = 0) -> Report:
    """Bounded probe: modules of arbitrary objects are isomorphic to modules
    of cofibrant ones (via the cofibrant replacement)."""
    cat = rigid.cat
    rng = np.random.default_rng(seed)
    rep = Report("essential-surjectivity", {
        "field_char": cat.field.p, "T": list(rigid.t_ind),
        "max_summands": max_summands, "budget": budget, "seed": seed,
    })
    pool = objects_up_to(cat, max_summands)
    bad = []
    for _ in range(budget):
        x = pool[int(rng.integers(0, len(pool)))]
        qx, _ = rigid.cofibrant_replacement(x)
        iso = ea.find_module_iso(rigid, ea.module_of(rigid, qx),
                                 ea.module_of(rigid, x))
        if iso is None:
            bad.append({"X": list(x.summands), "QX": list(qx.summands)})
    rep.add("essential-surjectivity-probe", not bad,
            f"{budget} draws", bad[:3] or None)
    return rep
