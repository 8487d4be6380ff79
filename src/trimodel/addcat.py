"""Additive closure of a mesh category.

Objects are formal ordered multisets of vertices; morphisms are block
matrices whose (i, j) block is a coefficient vector over the Hom basis from
the j-th source summand to the i-th target summand.  Composition is the
bilinear extension of the category's structure constants.

Morphisms between direct sums, such as [f a], [1; 0] or [[1, h], [1, 0]],
are assembled by ``block_mor`` from a grid of morphisms between the
summand objects.  The Hom functors are also available as tensors over a
whole Hom space: ``left_mul_tensor`` gives Hom(w, f) and
``right_mul_tensor`` gives Hom(f, z) for every f in Hom(x, y) at once, and
``apply_tensor`` contracts either with a stack of coefficient rows.
``left_mul_matrix`` and ``right_mul_matrix`` build the same matrices for
one morphism, blockwise, which is cheaper for a single call.

The suspension acts summand-wise on objects and, via the basis maps computed
by the mesh layer, linearly on blocks.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .exactlin import array_inverse, array_rank, array_solve
from .meshcat import MeshCategory


@dataclass(frozen=True)
class Obj:
    """Formal direct sum of vertices; the empty tuple is the zero object."""

    summands: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.summands)

    def counter(self) -> Counter:
        return Counter(self.summands)


ZERO = Obj(())


def obj(*names: str) -> Obj:
    return Obj(tuple(names))


def dsum_obj(*objs: Obj) -> Obj:
    return Obj(tuple(itertools.chain.from_iterable(o.summands for o in objs)))


class Mor:
    """Block-matrix morphism.  blocks[(i, j)] is the coefficient vector of
    the component dom.summands[j] -> cod.summands[i]; absent keys mean zero
    (including every pair whose Hom space is zero)."""

    __slots__ = ("cat", "dom", "cod", "blocks")

    def __init__(self, cat: MeshCategory, dom: Obj, cod: Obj, blocks=None) -> None:
        self.cat = cat
        self.dom = dom
        self.cod = cod
        self.blocks: dict[tuple[int, int], np.ndarray] = {}
        if blocks:
            for (i, j), vec in blocks.items():
                self.set_block(i, j, vec)

    def block_dim(self, i: int, j: int) -> int:
        return self.cat.hom_dim(self.dom.summands[j], self.cod.summands[i])

    def block(self, i: int, j: int) -> np.ndarray:
        b = self.blocks.get((i, j))
        if b is None:
            return np.zeros(self.block_dim(i, j), dtype=np.int64)
        return b

    def set_block(self, i: int, j: int, vec) -> None:
        d = self.block_dim(i, j)
        v = np.asarray(vec, dtype=np.int64) % self.cat.field.p
        if v.shape != (d,):
            raise ValueError(
                f"block ({i},{j}) must have length {d}, got shape {v.shape}"
            )
        if d and np.any(v):
            self.blocks[(i, j)] = v
        else:
            self.blocks.pop((i, j), None)

    def is_zero(self) -> bool:
        return not self.blocks

    def copy(self) -> "Mor":
        return Mor(self.cat, self.dom, self.cod,
                   {k: v.copy() for k, v in self.blocks.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mor):
            return NotImplemented
        if (self.cat is not other.cat or self.dom != other.dom
                or self.cod != other.cod):
            return False
        keys = set(self.blocks) | set(other.blocks)
        return all(np.array_equal(self.block(*k), other.block(*k)) for k in keys)

    def __repr__(self) -> str:
        return (f"Mor({'+'.join(self.dom.summands) or '0'} -> "
                f"{'+'.join(self.cod.summands) or '0'}, "
                f"{{{', '.join(f'{k}:{v.tolist()}' for k, v in sorted(self.blocks.items()))}}})")


def zero_mor(cat: MeshCategory, dom: Obj, cod: Obj) -> Mor:
    return Mor(cat, dom, cod)


def identity(cat: MeshCategory, x: Obj) -> Mor:
    f = Mor(cat, x, x)
    for i, v in enumerate(x.summands):
        vec = np.zeros(cat.hom_dim(v, v), dtype=np.int64)
        vec[0] = 1
        f.set_block(i, i, vec)
    return f


def elementary(cat: MeshCategory, dom: Obj, cod: Obj, i: int, j: int, k: int) -> Mor:
    """The morphism with a single basis class in block (i, j)."""
    f = Mor(cat, dom, cod)
    vec = np.zeros(f.block_dim(i, j), dtype=np.int64)
    vec[k] = 1
    f.set_block(i, j, vec)
    return f


def add(f: Mor, g: Mor) -> Mor:
    if f.dom != g.dom or f.cod != g.cod:
        raise ValueError("endpoint mismatch in sum")
    out = f.copy()
    for k, v in g.blocks.items():
        out.set_block(*k, out.block(*k) + v)
    return out


def sub(f: Mor, g: Mor) -> Mor:
    return add(f, smul(-1, g))


def smul(c: int, f: Mor) -> Mor:
    out = Mor(f.cat, f.dom, f.cod)
    for k, v in f.blocks.items():
        out.set_block(*k, c * v)
    return out


def compose(g: Mor, f: Mor) -> Mor:
    """g . f (apply f first)."""
    if f.cod != g.dom:
        raise ValueError("endpoint mismatch in composition")
    cat = f.cat
    p = cat.field.p
    out = Mor(cat, f.dom, g.cod)
    acc: dict[tuple[int, int], np.ndarray] = {}
    for (j, k), fv in f.blocks.items():
        u = f.dom.summands[k]
        v = f.cod.summands[j]
        for (i, j2), gv in g.blocks.items():
            if j2 != j:
                continue
            w = g.cod.summands[i]
            tensor = cat.comp.get((u, v, w))
            if tensor is None:
                continue
            term = np.einsum("j,i,jik->k", gv, fv, tensor)
            key = (i, k)
            if key in acc:
                acc[key] = acc[key] + term
            else:
                acc[key] = term
    for key, vec in acc.items():
        out.set_block(*key, vec % p)
    return out


def block_mor(cat: MeshCategory, rows, cols, grid) -> Mor:
    """The block matrix from the sum of cols to the sum of rows whose
    (r, c) entry is grid[r][c], a morphism cols[c] -> rows[r], or None for
    zero."""
    if len(grid) != len(rows) or any(len(line) != len(cols) for line in grid):
        raise ValueError(f"grid must be {len(rows)} x {len(cols)}")
    out = Mor(cat, dsum_obj(*cols), dsum_obj(*rows))
    ri = 0
    for r, (row, line) in enumerate(zip(rows, grid)):
        ci = 0
        for c, (col, f) in enumerate(zip(cols, line)):
            if f is not None:
                if f.cat is not cat or f.dom != col or f.cod != row:
                    raise ValueError(f"grid entry ({r}, {c}) is not a "
                                     "morphism from its column to its row")
                for (i, j), vec in f.blocks.items():
                    out.blocks[(ri + i, ci + j)] = vec
            ci += len(col)
        ri += len(row)
    return out


def dsum_mor(*fs: Mor) -> Mor:
    return block_mor(fs[0].cat, [f.cod for f in fs], [f.dom for f in fs],
                     [[f if i == j else None for j, f in enumerate(fs)]
                      for i in range(len(fs))])


# ------------------------------------------------------------- vectorization


def hom_layout(cat: MeshCategory, x: Obj, y: Obj):
    """Deterministic flat layout of Hom(x, y): ((i, j), offset, dim) rows."""
    cache = getattr(cat, "_layout_cache", None)
    if cache is None:
        cache = cat._layout_cache = {}
    key = (x.summands, y.summands)
    hit = cache.get(key)
    if hit is not None:
        return hit
    layout = []
    off = 0
    for i in range(len(y)):
        for j in range(len(x)):
            d = cat.hom_dim(x.summands[j], y.summands[i])
            if d:
                layout.append(((i, j), off, d))
                off += d
    cache[key] = (layout, off)
    return layout, off


def hom_space_dim(cat: MeshCategory, x: Obj, y: Obj) -> int:
    return hom_layout(cat, x, y)[1]


def mor_to_vec(f: Mor) -> np.ndarray:
    layout, total = hom_layout(f.cat, f.dom, f.cod)
    vec = np.zeros(total, dtype=np.int64)
    for (ij, off, d) in layout:
        vec[off:off + d] = f.block(*ij)
    return vec


def vec_to_mor(cat: MeshCategory, x: Obj, y: Obj, vec) -> Mor:
    layout, total = hom_layout(cat, x, y)
    v = np.asarray(vec, dtype=np.int64)
    if v.shape != (total,):
        raise ValueError(f"expected vector of length {total}")
    f = Mor(cat, x, y)
    for (ij, off, d) in layout:
        f.set_block(*ij, v[off:off + d])
    return f


def left_mul_matrix(f: Mor, w: Obj) -> np.ndarray:
    """Matrix of Hom(w, dom f) -> Hom(w, cod f), g -> f . g."""
    cat = f.cat
    src_layout, src_total = hom_layout(cat, w, f.dom)
    dst_layout, dst_total = hom_layout(cat, w, f.cod)
    m = np.zeros((dst_total, src_total), dtype=np.int64)
    dst_index = {ij: (off, d) for ij, off, d in dst_layout}
    for (jk, soff, sd) in src_layout:
        j, k = jk
        u = w.summands[k]
        v = f.dom.summands[j]
        for (i, j2), fv in f.blocks.items():
            if j2 != j:
                continue
            entry = dst_index.get((i, k))
            if entry is None:
                continue
            tensor = cat.comp.get((u, v, f.cod.summands[i]))
            if tensor is None:
                continue
            doff, dd = entry
            # column s of the block: coefficients of f . basis_s
            m[doff:doff + dd, soff:soff + sd] += np.einsum(
                "j,jsk->ks", fv, tensor)
    return m % cat.field.p


def right_mul_matrix(f: Mor, z: Obj) -> np.ndarray:
    """Matrix of Hom(cod f, z) -> Hom(dom f, z), g -> g . f."""
    cat = f.cat
    src_layout, src_total = hom_layout(cat, f.cod, z)
    dst_layout, dst_total = hom_layout(cat, f.dom, z)
    m = np.zeros((dst_total, src_total), dtype=np.int64)
    dst_index = {ij: (off, d) for ij, off, d in dst_layout}
    for (ij_src, soff, sd) in src_layout:
        i, j = ij_src          # cod_j -> z_i
        v = f.cod.summands[j]
        w = z.summands[i]
        for (j2, k), fv in f.blocks.items():
            if j2 != j:
                continue
            entry = dst_index.get((i, k))
            if entry is None:
                continue
            u = f.dom.summands[k]
            tensor = cat.comp.get((u, v, w))
            if tensor is None:
                continue
            doff, dd = entry
            m[doff:doff + dd, soff:soff + sd] += np.einsum(
                "i,sik->ks", fv, tensor)
    return m % cat.field.p


def left_mul_tensor(cat: MeshCategory, w: Obj, x: Obj, y: Obj) -> np.ndarray:
    """L of shape (dim Hom(x, y), dim Hom(w, y), dim Hom(w, x)) with
    ``left_mul_matrix(f, w)`` = sum_c f_c L[c] mod p for f in Hom(x, y) in
    hom_layout coordinates: L[c] is Hom(w, -) of the c-th elementary
    morphism."""
    lay, d = hom_layout(cat, x, y)
    lay_y, dy = hom_layout(cat, w, y)
    lay_x, dx = hom_layout(cat, w, x)
    out = np.zeros((d, dy, dx), dtype=np.int64)
    if not out.size:
        return out
    # blocks (i, k) of Hom(w, y) and (j, k) of Hom(w, x), k indexing w
    dst = {ij: (off, dd) for ij, off, dd in lay_y}
    src = {ij: (off, dd) for ij, off, dd in lay_x}
    for (i, j), off, dd in lay:
        for k, wk in enumerate(w.summands):
            tensor = cat.comp.get((wk, x.summands[j], y.summands[i]))
            if tensor is None or (i, k) not in dst or (j, k) not in src:
                continue
            (r0, rd), (c0, cd) = dst[(i, k)], src[(j, k)]
            out[off:off + dd, r0:r0 + rd, c0:c0 + cd] = \
                tensor.transpose(0, 2, 1)
    return out


def right_mul_tensor(cat: MeshCategory, x: Obj, y: Obj, z: Obj) -> np.ndarray:
    """R of shape (dim Hom(x, y), dim Hom(x, z), dim Hom(y, z)) with
    ``right_mul_matrix(f, z)`` = sum_c f_c R[c] mod p for f in Hom(x, y) in
    hom_layout coordinates: R[c] is Hom(-, z) of the c-th elementary
    morphism."""
    lay, d = hom_layout(cat, x, y)
    lay_x, dx = hom_layout(cat, x, z)
    lay_y, dy = hom_layout(cat, y, z)
    out = np.zeros((d, dx, dy), dtype=np.int64)
    if not out.size:
        return out
    # blocks (l, j) of Hom(x, z) and (l, i) of Hom(y, z), l indexing z
    dst = {ij: (off, dd) for ij, off, dd in lay_x}
    src = {ij: (off, dd) for ij, off, dd in lay_y}
    for (i, j), off, dd in lay:
        for l, zl in enumerate(z.summands):
            tensor = cat.comp.get((x.summands[j], y.summands[i], zl))
            if tensor is None or (l, j) not in dst or (l, i) not in src:
                continue
            (r0, rd), (c0, cd) = dst[(l, j)], src[(l, i)]
            out[off:off + dd, r0:r0 + rd, c0:c0 + cd] = \
                tensor.transpose(1, 2, 0)
    return out


def apply_tensor(t: np.ndarray, rows: np.ndarray, p: int) -> np.ndarray:
    """The (n, r, c) stack of sum_k f_k t[k] mod p for the n rows f of
    rows: Hom(w, f) or Hom(f, z) for every f when t is a
    ``left_mul_tensor`` or a ``right_mul_tensor``."""
    d, r, c = t.shape
    return (rows @ t.reshape(d, r * c) % p).reshape(len(rows), r, c)


# ------------------------------------------------------- structure utilities


def multiset_sub(y: Obj, x: Obj) -> Obj:
    """Multiset difference y - x; error when x is not a sub-multiset."""
    cy, cx = y.counter(), x.counter()
    if any(cx[v] > cy.get(v, 0) for v in cx):
        raise ValueError("not a sub-multiset")
    rest = cy - cx
    return Obj(tuple(sorted(rest.elements())))


def is_iso(f: Mor) -> bool:
    """Invertibility test via identity-coefficient matrices per vertex type.

    Valid because dim End(v) = 1: the non-identity classes span exactly the
    radical, so f is invertible iff each per-type scalar matrix is.
    """
    if f.dom.counter() != f.cod.counter():
        return False
    p = f.cat.field.p
    for v in set(f.dom.summands):
        rows = [i for i, w in enumerate(f.cod.summands) if w == v]
        cols = [j for j, w in enumerate(f.dom.summands) if w == v]
        m = np.array([[int(f.block(i, j)[0]) for j in cols] for i in rows],
                     dtype=np.int64)
        if array_rank(m, p) != len(rows):
            return False
    return True


def _diagonal_part(f: Mor) -> Mor:
    """The length-zero (identity-class) part of f; the rest is radical."""
    d = Mor(f.cat, f.dom, f.cod)
    for (i, j), vec in f.blocks.items():
        if f.cod.summands[i] == f.dom.summands[j] and vec[0]:
            nv = np.zeros(len(vec), dtype=np.int64)
            nv[0] = vec[0]
            d.set_block(i, j, nv)
    return d


def inverse(f: Mor) -> Mor:
    """Two-sided inverse of an isomorphism.

    Splits f = d + n with d the identity-coefficient part and n radical,
    inverts d per vertex type, and sums the geometric series in d^-1 n,
    which terminates because the radical is nilpotent.
    """
    if not is_iso(f):
        raise ValueError("not an isomorphism")
    cat = f.cat
    p = cat.field.p
    d = _diagonal_part(f)
    n = sub(f, d)
    # invert the per-type scalar matrices; d_inv: cod -> dom
    grid = [[None] * len(f.cod) for _ in f.dom.summands]
    for v in set(f.dom.summands):
        rows = [i for i, w in enumerate(f.cod.summands) if w == v]
        cols = [j for j, w in enumerate(f.dom.summands) if w == v]
        m = np.array([[int(d.block(i, j)[0]) for j in cols] for i in rows],
                     dtype=np.int64)
        mi = array_inverse(m, p)
        one = identity(cat, Obj((v,)))
        for a, j in enumerate(cols):
            for b, i in enumerate(rows):
                grid[j][i] = smul(int(mi[a, b]), one)
    d_inv = block_mor(cat, [Obj((v,)) for v in f.dom.summands],
                      [Obj((v,)) for v in f.cod.summands], grid)
    term = d_inv
    total = d_inv
    for _ in range(cat.radical_length + 1):
        term = smul(-1, compose(d_inv, compose(n, term)))
        if term.is_zero():
            break
        total = add(total, term)
    if compose(total, f) != identity(cat, f.dom) or \
            compose(f, total) != identity(cat, f.cod):
        raise AssertionError("inverse construction failed to verify")
    return total


def find_retraction(f: Mor):
    """Some r with r . f = id(dom f), or None (deterministic solve)."""
    cat = f.cat
    a = right_mul_matrix(f, f.dom)
    rhs = mor_to_vec(identity(cat, f.dom))
    x = array_solve(a, rhs, cat.field.p)
    if x is None:
        return None
    return vec_to_mor(cat, f.cod, f.dom, x)


def hom_fingerprint(cat: MeshCategory, x: Obj) -> np.ndarray:
    """(dim Hom(v, x))_v over the vertex order of the category."""
    fp = np.zeros(len(cat.verts), dtype=np.int64)
    for s in x.summands:
        fp += cat.dims[:, cat.vidx[s]]
    return fp


def enumerate_morphisms(cat: MeshCategory, x: Obj, y: Obj,
                        cap: int = 2 ** 20):
    """All of Hom(x, y) in lexicographic coefficient order."""
    total = hom_space_dim(cat, x, y)
    p = cat.field.p
    if p ** total > cap:
        raise ValueError(
            f"budget exceeded: |Hom| = {p}^{total} > {cap}")
    for coeffs in itertools.product(range(p), repeat=total):
        yield vec_to_mor(cat, x, y, np.array(coeffs, dtype=np.int64))


def coeff_chunks(p: int, d: int, cap_exp: int, draws: int, rng,
                 first: int | None = None):
    """(rows, sampled) pairs, rows an (n, d) int64 array of the coefficient
    vectors a check takes from a d-dimensional Hom space over F_p.

    The one exhaustive-or-sampled rule: all of F_p^d in ``itertools.product``
    order when d <= cap_exp, else ``draws`` rows from rng (a Generator or a
    seed) in one block draw.  With first None the rows come as one array,
    and a whole space of more than 2^cap_exp rows is a RuntimeError; else in
    chunks of ``first`` rows growing fourfold up to 1024."""
    sampled = d > cap_exp
    if sampled:
        drawn = np.random.default_rng(rng).integers(0, p, size=(draws, d))
    total = draws if sampled else p ** d
    if first is None and not sampled and total > 2 ** cap_exp:
        raise RuntimeError(f"Hom space of {p}^{d} morphisms is too large to "
                           f"enumerate whole (more than 2^{cap_exp})")

    def rows(start: int, stop: int) -> np.ndarray:
        if sampled:
            return drawn[start:stop]
        # row n is the base-p digits of n; only its last k can be nonzero,
        # and p ** (k - 1) < stop fits int64 where p ** (d - 1) may not
        k = min(d, next(j for j in itertools.count() if p ** j >= stop))
        out = np.zeros((stop - start, d), dtype=np.int64)
        out[:, d - k:] = np.arange(start, stop, dtype=np.int64)[:, None] \
            // p ** np.arange(k - 1, -1, -1, dtype=np.int64) % p
        return out

    if first is None:
        yield rows(0, total), sampled
        return
    start, chunk = 0, first
    while start < total:
        stop = min(start + chunk, total)
        yield rows(start, stop), sampled
        start, chunk = stop, min(4 * chunk, 1024)


def random_morphism(cat: MeshCategory, x: Obj, y: Obj, seed: int) -> Mor:
    total = hom_space_dim(cat, x, y)
    rng = np.random.default_rng(seed)
    return vec_to_mor(cat, x, y, rng.integers(0, cat.field.p, size=total))


def random_morphism_rng(cat: MeshCategory, x: Obj, y: Obj, rng) -> Mor:
    total = hom_space_dim(cat, x, y)
    return vec_to_mor(cat, x, y, rng.integers(0, cat.field.p, size=total))


# ------------------------------------------------------------------ suspension


def sigma_obj(cat: MeshCategory, x: Obj) -> Obj:
    return Obj(tuple(cat.sigma_vertex(v) for v in x.summands))


def sigma_mor(f: Mor) -> Mor:
    cat = f.cat
    out = Mor(cat, sigma_obj(cat, f.dom), sigma_obj(cat, f.cod))
    for (i, j), vec in f.blocks.items():
        u = f.dom.summands[j]
        v = f.cod.summands[i]
        out.set_block(i, j, cat.sigma_map[(u, v)] @ vec)
    return out
