"""Finite mesh categories presented by stable translation quivers.

A category is described by a finite quiver with a translation ``tau``: for
every vertex x the arrows into x correspond to the arrows out of tau(x), and
the defining relations are the mesh relations, one per vertex x,

    sum over arrows a: y -> x of  (tau x -> y) . (y -> x)  =  0.

Hom spaces are spans of paths modulo the ideal generated by these relations.
The ideal is two-sided and homogeneous in path length, so Hom(u, -) is built
by knitting, one source u at a time and level by level: level L + 1 of
Hom(u, x) is the sum over the arrows a: y -> x of level L of Hom(u, y)
followed by a, modulo the image of level L - 1 of Hom(u, tau x) under the
mesh at x.  Each level and vertex takes one matrix, its columns the level-L
basis classes into each y followed by a (in path order), its rows the mesh
images of the level-(L - 1) classes into tau x, brought to reduced row
echelon form.  The non-pivot columns become basis classes, and each pivot
column equals minus the non-pivot part of its row, which gives right
multiplication by every arrow as a matrix between levels.  Once a whole
level dies, every longer level dies too, which gives the stopping rule and
the radical length.

With leftmost pivots, the basis chosen is the set of paths that are not
combinations of later paths in path order, the same set whichever relations
generate the ideal; so it is the basis of the full path enumeration (kept in
the tests as the oracle).  A path b . a whose prefix b is not a basis class
is a combination of later paths, so only basis classes need extending.

The composition constants are built and checked with the source vertex as
a batch axis, each block zero-padded only to the largest Hom dimension into
its vertex.  The build takes one batched product per basis path out of a
vertex, for every source at once, and writes it into int64 stacks, one per
block shape, that hold the constants once: each ``comp`` entry is a
writable view of its block there, and the associativity check reads the
stacks themselves.  ``validate`` checks the mesh relations
and associativity exhaustively: the triples (v, w, z) of nonzero Hom(v, w)
and Hom(w, z) fall into classes by the padded block shapes of their three
Hom spaces, and each class is compared a chunk of triples at a time, for
every source u of Hom(u, v) != 0 at once.  Every triple lies in one class,
so that is the same equation set as checking each chain u -> v -> w -> z of
Hom spaces separately, and no product of two different sources' blocks is
formed.

Builders are provided for the polygon presentation of type A and for the
knitted presentation of an arbitrary simply laced Dynkin quiver (module
category knitted from the projectives, one extra vertex per projective for
its suspension, arrows completed under the translation rule).

This module also owns the suspension: ``sigma`` is stored as a vertex
permutation (equal to tau for the builders here) that commutes with tau
and maps arrows to arrows, and its maps of basis classes, ``sigma_map``,
are built when first read.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .exactlin import PrimeField, array_rref

Path = tuple[int, ...]

# cells of the largest array one chunk of the associativity check makes;
# the check also enumerates 16 times as many triples at a time
ASSOC_CELLS = 1 << 13


class QuiverError(ValueError):
    """Malformed quiver input (parse-level problems)."""


class ValidationError(ValueError):
    """A structural invariant of the category failed; names the invariant."""


@dataclass(frozen=True, eq=False)
class TransQuiver:
    """Finite stable translation quiver.

    arrows are (source, target, label) triples with unique labels; tau and
    sigma are vertex permutations.  At most one arrow is allowed between an
    ordered pair of vertices, which pins the mesh pairing down canonically
    (all the Dynkin-type quivers targeted here are multiplicity free).
    """

    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]
    tau: dict[str, str]
    sigma: dict[str, str]


def make_quiver(vertices, arrows, tau, sigma=None) -> TransQuiver:
    verts = tuple(vertices)
    if len(set(verts)) != len(verts):
        raise QuiverError("duplicate vertex names")
    vset = set(verts)
    arrs = []
    labels = set()
    seen_pairs = set()
    for src, tgt, label in arrows:
        if src not in vset or tgt not in vset:
            raise QuiverError(f"arrow {label!r} references unknown vertex")
        if src == tgt:
            raise QuiverError(f"loop at vertex {src!r}")
        if label in labels:
            raise QuiverError(f"duplicate arrow label {label!r}")
        if (src, tgt) in seen_pairs:
            raise QuiverError(f"parallel arrows {src!r} -> {tgt!r}")
        labels.add(label)
        seen_pairs.add((src, tgt))
        arrs.append((src, tgt, label))
    tau = dict(tau)
    if set(tau) != vset or set(tau.values()) != vset:
        raise ValidationError("tau not bijective")
    if sigma is None:
        sigma = dict(tau)
    else:
        sigma = dict(sigma)
        if set(sigma) != vset or set(sigma.values()) != vset:
            raise ValidationError("sigma not bijective")
    # mesh condition: sources into x match targets out of tau(x)
    into = {v: set() for v in verts}
    outof = {v: set() for v in verts}
    for src, tgt, _ in arrs:
        into[tgt].add(src)
        outof[src].add(tgt)
    for x in verts:
        if into[x] != outof[tau[x]]:
            raise ValidationError(f"mesh structure violated at vertex {x!r}")
    # sigma must act on arrows and commute with tau
    for src, tgt, _ in arrs:
        if (sigma[src], sigma[tgt]) not in seen_pairs:
            raise ValidationError("sigma is not a quiver automorphism")
    for x in verts:
        if sigma[tau[x]] != tau[sigma[x]]:
            raise ValidationError(f"sigma does not commute with tau at {x!r}")
    return TransQuiver(verts, tuple(arrs), tau, sigma)


class MeshCategory:
    """Hom-space bases and composition constants of a mesh category.

    Attributes of interest:
      verts, vidx          vertex tuple and name -> index map
      dims                 |V| x |V| matrix of Hom dimensions
      hom_dims[(u, v)]     the same dimensions as plain ints
      basis[(u, v)]        ordered list of representative paths
      comp[(u, v, w)]      int64 tensor C with C[j, i, k] the coefficient of
                           basis_k(u, w) in basis_j(v, w) . basis_i(u, v);
                           a writable view into the stacks validate reads
      radical_length       least L with every length >= L class zero
      sigma_map[(u, v)]    matrix of the suspension on Hom(u, v), built
                           when first read
      signs                "plus": every mesh relation has unit coefficients
    """

    signs = "plus"

    def __init__(self, field: PrimeField, quiver: TransQuiver,
                 max_len_cap: int = 64) -> None:
        self.field = field
        self.quiver = quiver
        self.verts = quiver.vertices
        self.vidx = {v: i for i, v in enumerate(self.verts)}
        self.arrows = quiver.arrows
        self._arrow_by_pair = {(s, t): i for i, (s, t, _) in enumerate(self.arrows)}
        self._in = {v: [i for i, (_, t, _) in enumerate(self.arrows) if t == v]
                    for v in self.verts}
        # per vertex x: the middles (b, a) of its mesh relation
        self._mesh = {x: self._mesh_pairs(x) for x in self.verts}
        self._build_hom(max_len_cap)
        self.hom_dims = {(u, v): len(b) for (u, v), b in self.basis.items()}
        self._build_comp()

    # ------------------------------------------------------------------ build

    def _mesh_pairs(self, x: str):
        """For each arrow a: y -> x, the paired arrow tau x -> y, as the
        middle (b, a) of a mesh path."""
        tx = self.quiver.tau[x]
        mids = []
        for a in self._in[x]:
            b = self._arrow_by_pair.get((tx, self.arrows[a][0]))
            if b is None:
                raise ValidationError(f"mesh structure violated at vertex {x!r}")
            mids.append((b, a))
        return mids

    def _build_hom(self, cap: int) -> None:
        """Hom(u, -) one source u at a time, level by level, by the mesh
        cokernel recursion of the module docstring: one RREF per level and
        vertex x, its columns the level-L classes b into y followed by each
        arrow a: y -> x, its rows the sums over the mesh middles (b, a) of x
        of (g . b) . a for the level-(L - 1) classes g into tau x.  The
        coordinates of the columns are the level L -> L + 1 blocks of
        ``_right[(u, a)]``, right multiplication by a on Hom(u, -)."""
        p = self.field.p
        V = self.verts
        self.basis: dict[tuple[str, str], list[Path]] = {
            (u, v): [] for u in V for v in V
        }
        blocks = []
        self.radical_length = 0
        for u in V:
            self.basis[(u, u)].append(())
            # the classes of the previous and the current level, as
            # x -> (offset in basis[(u, x)], their paths in path order), and
            # per arrow a: y -> x its block from the previous level to the
            # current one (rows: classes of x, columns: classes of y)
            prev, level, step = {}, {u: (0, [()])}, {}
            length = 0
            while level:
                length += 1
                if length > cap:
                    raise ValidationError(
                        f"hom spaces failed to stabilize within length {cap}"
                    )
                nxt, nstep = {}, {}
                for x in V:
                    ins = [a for a in self._in[x] if self.arrows[a][0] in level]
                    if not ins:
                        continue
                    cands = sorted((q + (a,), a) for a in ins
                                   for q in level[self.arrows[a][0]][1])
                    # the columns of arrow a, in the order of the classes of y
                    where = {a: [c for c, (_, b) in enumerate(cands) if b == a]
                             for a in ins}
                    red, pivots = np.zeros((0, len(cands)), dtype=np.int64), []
                    tx = self.quiver.tau[x]
                    if tx in prev:
                        rows = np.zeros((len(prev[tx][1]), len(cands)),
                                        dtype=np.int64)
                        for b, a in self._mesh[x]:
                            if a in where:
                                rows[:, where[a]] = step[b].T
                        red, pivots = array_rref(rows, p)
                    # a free column is its own class; since red is in RREF,
                    # pivot column i equals minus the free part of row i
                    free = [c for c in range(len(cands)) if c not in pivots]
                    coords = np.zeros((len(cands), len(free)), dtype=np.int64)
                    coords[free, np.arange(len(free))] = 1
                    coords[pivots] = -red[: len(pivots), free] % p
                    off = len(self.basis[(u, x)])
                    new = [cands[c][0] for c in free]
                    self.basis[(u, x)].extend(new)
                    if new:
                        nxt[x] = (off, new)
                    for a in ins:
                        nstep[a] = coords[where[a]].T
                        blocks.append((u, a, off, level[self.arrows[a][0]][0],
                                       nstep[a]))
                prev, level, step = level, nxt, nstep
            self.radical_length = max(self.radical_length, length)
        self.dims = np.array([[len(self.basis[(u, v)]) for v in V] for u in V],
                             dtype=np.int64)
        self._right = {
            (u, a): np.zeros((self.hom_dim(u, t), self.hom_dim(u, s)),
                             dtype=np.int64)
            for u in V for a, (s, t, _) in enumerate(self.arrows)
        }
        for u, a, r0, c0, blk in blocks:
            self._right[(u, a)][r0:r0 + blk.shape[0], c0:c0 + blk.shape[1]] = blk

    def reduce_path(self, u: str, v: str, path: Path) -> np.ndarray:
        """Coordinates of a path over the Hom(u, v) basis: the product of
        the arrow matrices along it.  Raises ValueError when the arrows do
        not compose to a path from u to v."""
        vec = np.zeros(len(self.basis[(u, u)]), dtype=np.int64)
        vec[0] = 1
        at = u
        for a in path:
            if not 0 <= a < len(self.arrows) or self.arrows[a][0] != at:
                raise ValueError(f"arrow {a!r} does not continue a path at {at!r}")
            at = self.arrows[a][1]
            vec = self._right[(u, a)] @ vec % self.field.p
        if at != v:
            raise ValueError(f"path from {u!r} ends at {at!r}, not {v!r}")
        return vec

    def _build_comp(self) -> None:
        """comp[(u, v, w)][j] is right multiplication by basis_j(v, w) on
        Hom(u, v).  A basis path is a basis path one arrow shorter followed
        by an arrow, so each slice is the arrow matrix times its prefix's.

        The source u is a batch axis, and the constants are stored once,
        in the stacks that ``_check_associativity`` reads.  src[v] lists
        the sources u of Hom(u, v) != 0 in vertex order, then the sentinel
        |V|; pos[v, u] is the position of u in src[v], or the last position
        when Hom(u, v) = 0 (also for u = |V|).  lam(v, w) is row slot[v, w]
        of stacks[kind[v, w]] (kind -1 when Hom(v, w) = 0), one int64 stack
        per shape (count, dim Hom(v, w), width, pad[v], pad[w]), where
        pad[x] is the largest dim Hom(u, x) over u and width is one more
        than the most sources of any vertex.  Slice j of lam(v, w) holds
        the matrices of basis_j(v, w) at the sources of v, each block
        zero-padded to (pad[v], pad[w]), so each basis path out of v takes
        one batched product, its prefix's slice times the stacked right
        multiplications by its last arrow.  The padding and the slots past
        the sources of v stay zero, and comp[(u, v, w)] is the writable
        view lam(v, w)[:, pos[v, u], :dim Hom(u, v), :dim Hom(u, w)]."""
        p = self.field.p
        V = self.verts
        n = len(V)
        dims = self.dims
        nz = dims > 0
        pad = dims.max(axis=0)
        base = int(pad.max()) + 1
        counts = nz.sum(axis=0)
        width = int(counts.max()) + 1
        xs, us = np.nonzero(nz.T)
        js = np.arange(len(xs)) - np.repeat(np.cumsum(counts) - counts, counts)
        src = np.full((n, width), n, dtype=np.intp)
        src[xs, js] = us
        pos = np.full((n, n + 1), width - 1, dtype=np.intp)
        pos[xs, us] = js
        pv, pw = np.nonzero(nz)
        kind = np.full_like(dims, -1)
        slot = np.zeros_like(dims)
        stacks = []
        for rows in _groups((dims[pv, pw] * base + pad[pv]) * base + pad[pw]):
            v, w = pv[rows], pw[rows]
            kind[v, w] = len(stacks)
            slot[v, w] = np.arange(len(rows))
            stacks.append(np.zeros((len(rows), dims[v[0], w[0]], width,
                                    pad[v[0]], pad[w[0]]), dtype=np.int64))
        self._stacks, self._kind, self._slot = stacks, kind, slot
        self._src, self._pos = src, pos
        index = {(v, w): {pp: j for j, pp in enumerate(b)}
                 for (v, w), b in self.basis.items()}
        # basis paths out of each v, shortest first, so each prefix comes first
        out = {v: sorted((len(q), w, j, q) for w in V
                         for j, q in enumerate(self.basis[(v, w)]))
               for v in V}
        # right[a][u] is right multiplication by a: s -> t on Hom(u, s),
        # transposed and padded to (pad[s], pad[t]); right[a][|V|] is zero
        right = []
        for a, (s, t, _) in enumerate(self.arrows):
            r = np.zeros((n + 1, pad[self.vidx[s]], pad[self.vidx[t]]),
                         dtype=np.int64)
            for iu, u in enumerate(V):
                m = self._right[(u, a)]
                r[iu, :m.shape[1], :m.shape[0]] = m.T
            right.append(r)
        dl = dims.tolist()
        self.comp: dict[tuple[str, str, str], np.ndarray] = {}
        for iv, v in enumerate(V):
            sv = src[iv]
            lam = {w: stacks[kind[iv, iw]][slot[iv, iw]]
                   for iw, w in enumerate(V) if nz[iv, iw]}
            for _, w, j, q in out[v]:
                if q:
                    y = self.arrows[q[-1]][0]
                    prefix = lam[y][index[(v, y)][q[:-1]]]
                    np.remainder(np.matmul(prefix, right[q[-1]][sv]), p,
                                 out=lam[w][j])
                else:
                    # the identity of each Hom(u, v), padded
                    e = np.arange(pad[iv])
                    d = np.append(dims[:, iv], 0)[sv]
                    lam[w][j] = (e[:, None] == e) & (e < d[:, None, None])
            for w, t in lam.items():
                iw = self.vidx[w]
                for j, iu in enumerate(sv[:counts[iv]].tolist()):
                    self.comp[(V[iu], v, w)] = \
                        t[:, j, :dl[iu][iv], :dl[iu][iw]]

    @functools.cached_property
    def sigma_map(self) -> dict[tuple[str, str], np.ndarray]:
        """The suspension on each nonzero Hom(u, v): column i holds the
        coordinates of sigma(basis_i(u, v)) over the Hom(sigma u, sigma v)
        basis.  ``make_quiver`` checks that sigma maps arrows to arrows and
        commutes with tau, so it maps the mesh relation at x to the one at
        sigma x and acts bijectively on every Hom space."""
        sg = self.quiver.sigma
        arrow = [self._arrow_by_pair[(sg[s], sg[t])] for s, t, _ in self.arrows]
        p = self.field.p
        return {
            (u, v): np.stack([
                self.reduce_path(sg[u], sg[v], tuple(arrow[a] for a in pp))
                for pp in b], axis=1) % p
            for (u, v), b in self.basis.items() if b
        }

    # ------------------------------------------------------------- validation

    def validate(self) -> None:
        """Check the structural invariants; raises ValidationError.

        Each End(v) is spanned by the identity path, every mesh relation
        reduces to zero, and composition is associative on every chain of
        nonzero Hom spaces u -> v -> w -> z (see _check_associativity).
        """
        p = self.field.p
        for v in self.verts:
            if len(self.basis[(v, v)]) != 1:
                raise ValidationError(
                    f"nonstandard: dim End({v!r}) = {len(self.basis[(v, v)])}"
                )
            if self.basis[(v, v)][0] != ():
                raise ValidationError(f"identity class missing at {v!r}")
        for x in self.verts:
            tx = self.quiver.tau[x]
            total = np.zeros(len(self.basis[(tx, x)]), dtype=np.int64)
            for mid in self._mesh[x]:
                total = total + self.reduce_path(tx, x, mid)
            if np.any(total % p):
                raise ValidationError(f"mesh relation at {x!r} does not vanish")
        self._check_associativity()

    def _check_associativity(self) -> None:
        """h . (g . f) = (h . g) . f on basis classes, for every chain
        u -> v -> w -> z of nonzero Hom spaces; raises ValidationError
        naming a failing chain (the first source u in vertex order).

        The sources u of Hom(u, v) != 0 are kept as a batch axis: the
        check reads the stacks the build wrote, in which lam(v, w) holds
        comp[(u, v, w)] for each such u as one slice of a tensor of shape
        (dim Hom(v, w), width, pad[v], pad[w]), each block zero-padded, and
        the last slice always zero (see ``_build_comp``).  The comp entries
        are writable views of these blocks, which the program never writes;
        an entry edited in place (as the corruption tests do) is checked as
        edited.  For a triple
        (v, w, z) of nonzero Hom(v, w) and Hom(w, z), let lam'(w, z) be
        lam(w, z) with its slices moved to the sources of v (the zero slice
        for a source u of v with Hom(u, w) = 0).  The two sides
            matmul(lam(v, w)[None], lam'(w, z)[:, None])
            einsum("hgq,qufm->hgufm", comp[(v, w, z)], lam(v, z))
        (the second zero when Hom(v, z) is) have slice u equal to
        h . (g . f) and (h . g) . f for that u, and the padding is zero on
        both; comp[(v, w, z)] is read off lam(w, z) at the source v.  The
        triples are grouped by the shapes of lam(v, w), lam(w, z) and
        lam(v, z), and the triples of one class are compared together,
        gathered from the stacks by index, in chunks of at most
        ``ASSOC_CELLS`` cells an array, the second side as one matrix
        product per triple.  Every triple lies in exactly one class, so
        this is the same equation set as checking chain by chain, and no
        product between blocks of different sources is formed.
        """
        p = self.field.p
        V = self.verts
        dims = self.dims
        stacks, kind, slot = self._stacks, self._kind, self._slot
        src, pos = self._src, self._pos
        nz = dims > 0
        m = len(stacks) + 1
        # the triples (v, w, z) for a run of v at a time, at most about
        # 16 ASSOC_CELLS of them (so few classes are split between runs),
        # grouped by the stacks of their three tensors
        per_v = int((nz.astype(np.int64) @ nz.sum(axis=1)).max())
        run = max(1, 16 * ASSOC_CELLS // per_v)
        for v0 in range(0, len(V), run):
            tv, tw, tz = (t.astype(np.int32) for t in np.nonzero(
                nz[v0:v0 + run, :, None] & nz[None]))
            tv += v0
            for rows in _groups((kind[tv, tw] * m + kind[tw, tz]) * m
                                + kind[tv, tz] + 1):
                v, w, z = tv[rows], tw[rows], tz[rows]
                a, b = stacks[kind[v[0], w[0]]], stacks[kind[w[0], z[0]]]
                dvw, dwz, dvz = a.shape[1], b.shape[1], dims[v[0], z[0]]
                s_vw, s_wz, s_vz = slot[v, w], slot[w, z], slot[v, z]
                p_wv = pos[w, v]
                c = stacks[kind[v[0], z[0]]] if dvz else None
                rows_b = np.arange(dwz)[:, None]
                cells = dwz * dvw * b.shape[2] * a.shape[3] * b.shape[4]
                step = max(1, ASSOC_CELLS // max(cells, a[0].size, b[0].size))
                scalar = a.shape[3] == a.shape[4] == b.shape[4] == 1
                for lo in range(0, len(rows), step):
                    hi = lo + step
                    r = s_wz[lo:hi]
                    x = a[s_vw[lo:hi]]
                    # lam(w, z) at the sources of v
                    y = b[r[:, None, None], rows_b,
                          pos[w[lo:hi, None], src[v[lo:hi]]][:, None]]
                    # h . (g . f), axes (triple, h, g, source, f, class of
                    # Hom(u, z)); with 1 x 1 blocks an elementwise product,
                    # much cheaper than a matmul of 1 x 1 matrices
                    if scalar:
                        side = x[:, None] * y[:, :, None]
                    else:
                        side = np.matmul(x[:, None], y[:, :, None])
                    if dvz:
                        hg = b[r, :, p_wv[lo:hi], :dvw, :dvz]
                        side -= np.matmul(
                            hg.reshape(len(r), -1, dvz),
                            c[s_vz[lo:hi]].reshape(len(r), dvz, -1),
                        ).reshape(side.shape)
                    # nonzero mod p (a floor division by p is much cheaper
                    # than a remainder)
                    bad = side != side // p * p
                    if bad.any():
                        k, j = np.argwhere(bad.any(axis=(1, 2, 4, 5)))[0]
                        k += lo
                        raise ValidationError(
                            f"associativity fails on Hom chain "
                            f"{V[src[v[k], j]]!r} -> {V[v[k]]!r} -> "
                            f"{V[w[k]]!r} -> {V[z[k]]!r}"
                        )

    # ------------------------------------------------------------------ query

    def hom_dim(self, u: str, v: str) -> int:
        return int(self.dims[self.vidx[u], self.vidx[v]])

    def sigma_vertex(self, v: str) -> str:
        return self.quiver.sigma[v]

    def total_hom_dim(self) -> int:
        return int(self.dims.sum())


def _groups(code: np.ndarray) -> list[np.ndarray]:
    """The indices of each value of code, ascending, one array per value."""
    order = np.argsort(code, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(code[order])) + 1)


def check_rigid_vertices(cat: MeshCategory) -> None:
    """Every indecomposable rigid: dim Hom(v, sigma v) = 0 (Dynkin builds)."""
    for v in cat.verts:
        d = cat.hom_dim(v, cat.sigma_vertex(v))
        if d != 0:
            raise ValidationError(
                f"vertex {v!r} is not rigid: dim Hom(v, sigma v) = {d}"
            )


# ---------------------------------------------------------------------- type A


def _diag_name(i: int, j: int, m: int) -> str:
    return f"{i}{j}" if m <= 9 else f"{i}-{j}"


def _norm_pair(i: int, j: int, m: int):
    i = (i - 1) % m + 1
    j = (j - 1) % m + 1
    if i == j:
        return None
    a, b = min(i, j), max(i, j)
    if b - a < 2 or (a == 1 and b == m):
        return None
    return a, b


def build_type_a(n: int, field: PrimeField) -> MeshCategory:
    """Cluster presentation of type A_n from the (n+3)-gon.

    Vertices are the diagonals {i, j}; arrows rotate one endpoint forward,
    tau rotates both endpoints back.
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    m = n + 3
    diags = [(i, j) for i in range(1, m + 1) for j in range(i + 2, m + 1)
             if _norm_pair(i, j, m)]
    names = {d: _diag_name(*d, m) for d in diags}
    arrows = []
    for (i, j) in diags:
        for tgt in (_norm_pair(i, j + 1, m), _norm_pair(i + 1, j, m)):
            if tgt is not None:
                arrows.append((names[(i, j)], names[tgt],
                               f"{names[(i, j)]}>{names[tgt]}"))
    tau = {names[(i, j)]: names[_norm_pair(i - 1, j - 1, m)] for (i, j) in diags}
    quiver = make_quiver([names[d] for d in diags], sorted(set(arrows)), tau)
    cat = MeshCategory(field, quiver)
    cat.validate()
    check_rigid_vertices(cat)
    return cat


def diagonals_cross(d1: str, d2: str) -> bool:
    """Whether two polygon diagonals (named as by build_type_a) cross."""
    def parse(s):
        if "-" in s:
            a, b = s.split("-")
        else:
            a, b = s[0], s[1:]
        return int(a), int(b)

    a, b = parse(d1)
    c, d = parse(d2)
    return (a < c < b < d) or (c < a < d < b)


# ---------------------------------------------------------------- Dynkin knit


@dataclass(frozen=True)
class DynkinQuiver:
    """An acyclic orientation of a simply laced Dynkin diagram."""

    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str], ...]
    dynkin_type: str


def make_dynkin(vertices, arrows) -> DynkinQuiver:
    verts = tuple(vertices)
    if len(set(verts)) != len(verts):
        raise QuiverError("duplicate vertex names")
    edges = set()
    adj = {v: set() for v in verts}
    for s, t in arrows:
        if s not in adj or t not in adj or s == t:
            raise QuiverError(f"bad arrow {s!r} -> {t!r}")
        e = frozenset((s, t))
        if e in edges:
            raise QuiverError(f"multiple edges between {s!r} and {t!r}")
        edges.add(e)
        adj[s].add(t)
        adj[t].add(s)
    n = len(verts)
    if len(edges) != n - 1:
        raise QuiverError("underlying graph is not a tree")
    # connectivity
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != n:
        raise QuiverError("quiver is not connected")
    degrees = sorted(len(adj[v]) for v in verts)
    branch = [v for v in verts if len(adj[v]) >= 3]
    if not branch:
        dtype = f"A{n}"
    elif len(branch) == 1 and len(adj[branch[0]]) == 3:
        b = branch[0]
        legs = []
        for w in adj[b]:
            ln, prev, cur = 1, b, w
            while True:
                nxt = [x for x in adj[cur] if x != prev]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
                ln += 1
            legs.append(ln)
        legs.sort()
        if legs[0] == 1 and legs[1] == 1:
            dtype = f"D{n}"
        elif legs[0] == 1 and legs[1] == 2 and legs[2] in (2, 3, 4):
            dtype = f"E{n}"
        else:
            raise QuiverError(f"not a Dynkin diagram (legs {legs})")
        if dtype == f"E{n}" and n not in (6, 7, 8):
            raise QuiverError(f"not a Dynkin diagram (legs {legs})")
    else:
        raise QuiverError("not a Dynkin diagram (branching too high)")
    return DynkinQuiver(verts, tuple((s, t) for s, t in arrows), dtype)


def dynkin_a(n: int) -> DynkinQuiver:
    vs = [str(i + 1) for i in range(n)]
    return make_dynkin(vs, [(vs[i], vs[i + 1]) for i in range(n - 1)])


def dynkin_d4_subspace() -> DynkinQuiver:
    return make_dynkin(["0", "1", "2", "3"], [("1", "0"), ("2", "0"), ("3", "0")])


_POSITIVE_ROOTS = {"A": lambda n: n * (n + 1) // 2,
                   "D": lambda n: n * (n - 1),
                   "E": lambda n: {6: 36, 7: 63, 8: 120}[n]}


def _knit_modules(q: DynkinQuiver):
    """AR quiver of the module category, knitted from the projectives.

    Returns (dim vectors in placement order, arrows as index pairs,
    tau as child -> parent map, projective and injective indices per
    quiver vertex).
    """
    vs = q.vertices
    n = len(vs)
    vi = {v: i for i, v in enumerate(vs)}
    out_q = {v: [] for v in vs}
    for s, t in q.arrows:
        out_q[s].append(t)

    def reach(v):
        vec = np.zeros(n, dtype=np.int64)
        stack = [v]
        while stack:
            w = stack.pop()
            if vec[vi[w]]:
                continue
            vec[vi[w]] = 1
            stack.extend(out_q[w])
        return vec

    def longest(v):
        return 1 + max((longest(w) for w in out_q[v]), default=-1)

    dimvecs: list[np.ndarray] = []
    levels: list[int] = []
    arrows: set[tuple[int, int]] = set()
    tau_of: dict[int, int] = {}
    proj = {}
    for v in vs:
        proj[v] = len(dimvecs)
        dimvecs.append(reach(v))
        levels.append(longest(v))
    for s, t in q.arrows:
        arrows.add((proj[t], proj[s]))

    resolved: set[int] = set()
    injective: set[int] = set()
    while len(resolved) < len(dimvecs):
        progressed = False
        order = sorted(range(len(dimvecs)), key=lambda i: (levels[i], i))
        for x in order:
            if x in resolved:
                continue
            preds = [y for (y, z) in arrows if z == x]
            if any(y not in resolved for y in preds):
                continue
            middles = sorted(z for (y, z) in arrows if y == x)
            d = sum((dimvecs[z] for z in middles), -dimvecs[x])
            if np.all(d == 0) or np.any(d < 0):
                injective.add(x)
            else:
                new = len(dimvecs)
                dimvecs.append(d)
                levels.append(levels[x] + 2)
                tau_of[new] = x
                for z in middles:
                    arrows.add((z, new))
            resolved.add(x)
            progressed = True
        if not progressed:
            raise ValidationError("gluing-inconsistent: knitting deadlocked")

    letter, rank = q.dynkin_type[0], int(q.dynkin_type[1:])
    expected = _POSITIVE_ROOTS[letter](rank)
    if len(dimvecs) != expected:
        raise ValidationError(
            f"gluing-inconsistent: knitted {len(dimvecs)} modules, "
            f"expected {expected}"
        )
    keys = [tuple(int(c) for c in d) for d in dimvecs]
    if len(set(keys)) != len(keys):
        raise ValidationError("gluing-inconsistent: duplicate dimension vectors")

    def coreach(v):
        vec = np.zeros(n, dtype=np.int64)
        in_q = {w: [s for s, t in q.arrows if t == w] for w in vs}
        stack = [v]
        while stack:
            w = stack.pop()
            if vec[vi[w]]:
                continue
            vec[vi[w]] = 1
            stack.extend(in_q[w])
        return vec

    by_dim = {k: i for i, k in enumerate(keys)}
    inj = {}
    for v in vs:
        k = tuple(int(c) for c in coreach(v))
        if k not in by_dim or by_dim[k] not in injective:
            raise ValidationError("gluing-inconsistent: injectives not matched")
        inj[v] = by_dim[k]
    return dimvecs, arrows, tau_of, proj, inj


def build_dynkin(q: DynkinQuiver, field: PrimeField) -> MeshCategory:
    """Cluster presentation for an arbitrary simply laced Dynkin quiver.

    Vertices are the knitted indecomposable modules plus one suspended
    projective per quiver vertex; arrows are completed under the translation
    rule until closure and the result is validated before Hom spaces are
    computed.
    """
    dimvecs, mod_arrows, tau_of, proj, inj = _knit_modules(q)
    names = ["M" + "".join(str(int(c)) for c in d) for d in dimvecs]
    sp = {v: f"SP{v}" for v in q.vertices}
    verts = list(names) + [sp[v] for v in q.vertices]

    tau: dict[str, str] = {}
    for i, nm in enumerate(names):
        if i in tau_of:
            tau[nm] = names[tau_of[i]]
    for v in q.vertices:
        tau[names[proj[v]]] = sp[v]
        tau[sp[v]] = names[inj[v]]
    if set(tau) != set(verts) or set(tau.values()) != set(verts):
        raise ValidationError("gluing-inconsistent: tau not bijective")
    tau_inv = {b: a for a, b in tau.items()}

    arrow_pairs = {(names[a], names[b]) for a, b in mod_arrows}
    work = list(arrow_pairs)
    while work:
        y, x = work.pop()
        for cand in ((tau[x], y), (x, tau_inv[y])):
            if cand not in arrow_pairs:
                if cand[0] == cand[1]:
                    raise ValidationError("gluing-inconsistent: loop produced")
                arrow_pairs.add(cand)
                work.append(cand)

    arrows = sorted((s, t, f"{s}>{t}") for s, t in arrow_pairs)
    quiver = make_quiver(verts, arrows, tau)
    cat = MeshCategory(field, quiver)
    cat.validate()
    check_rigid_vertices(cat)
    return cat


def hom_matrix_bijection(cat1: MeshCategory, cat2: MeshCategory):
    """A vertex bijection matching the Hom-dimension matrices, or None.

    Used to cross-validate independent presentations of the same category;
    backtracking with row/column multiset invariants."""
    if len(cat1.verts) != len(cat2.verts):
        return None
    d1, d2 = cat1.dims, cat2.dims

    def signature(d, i):
        return (tuple(sorted(d[i, :])), tuple(sorted(d[:, i])), d[i, i])

    sig2 = {}
    for j in range(len(cat2.verts)):
        sig2.setdefault(signature(d2, j), []).append(j)

    n = len(cat1.verts)
    image: list[int | None] = [None] * n
    used = [False] * n

    def rec(i: int) -> bool:
        if i == n:
            return True
        for j in sig2.get(signature(d1, i), []):
            if used[j]:
                continue
            ok = True
            for k in range(i):
                jk = image[k]
                if d1[i, k] != d2[j, jk] or d1[k, i] != d2[jk, j]:
                    ok = False
                    break
            if ok:
                image[i] = j
                used[j] = True
                if rec(i + 1):
                    return True
                image[i] = None
                used[j] = False
        return False

    if not rec(0):
        return None
    return {cat1.verts[i]: cat2.verts[image[i]] for i in range(n)}


# ----------------------------------------------------------------------- I/O


def quiver_to_spec(cat: MeshCategory) -> dict:
    """JSON-serializable quiver spec; sigma omitted when it equals tau."""
    spec = {
        "field_char": cat.field.p,
        "vertices": list(cat.verts),
        "arrows": [[s, t, l] for s, t, l in cat.arrows],
        "tau": dict(cat.quiver.tau),
    }
    if cat.quiver.sigma != cat.quiver.tau:
        spec["sigma"] = dict(cat.quiver.sigma)
    return spec


def from_spec(spec: dict) -> MeshCategory:
    if not isinstance(spec, dict):
        raise QuiverError("quiver spec must be a JSON object")
    for key in ("field_char", "vertices", "arrows", "tau"):
        if key not in spec:
            raise QuiverError(f"quiver spec missing field {key!r}")
    try:
        field = PrimeField(int(spec["field_char"]))
    except (TypeError, ValueError) as e:
        raise QuiverError(f"bad field_char: {e}") from e
    vertices = spec["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise QuiverError("vertices must be a list of strings")
    arrows = []
    for entry in spec["arrows"]:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise QuiverError("arrows must be [src, tgt, label] triples")
        arrows.append(tuple(entry))
    quiver = make_quiver(vertices, arrows, spec["tau"], spec.get("sigma"))
    cat = MeshCategory(field, quiver)
    cat.validate()
    return cat


def save(cat: MeshCategory, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(quiver_to_spec(cat), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load(path) -> MeshCategory:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except json.JSONDecodeError as e:
        raise QuiverError(f"invalid JSON: {e}") from e
    return from_spec(spec)
