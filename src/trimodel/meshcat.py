"""Finite mesh categories presented by stable translation quivers.

A category is described by a finite quiver with a translation ``tau``: for
every vertex x the arrows into x correspond to the arrows out of tau(x), and
the defining relations are the mesh relations, one per vertex x,

    sum over arrows a: y -> x of  (tau x -> y) . (y -> x)  =  0.

Hom spaces are spans of paths modulo the ideal generated by these relations.
The ideal is homogeneous in path length, so each Hom space is built level by
level: at each length the mesh relations of that length form one matrix over
the paths, which is brought to reduced row echelon form.  The non-pivot paths
become basis classes, and each pivot path equals minus the non-pivot part of
its row, so the coordinates of every path are read off in one slice.  Once a
whole level dies, every longer level dies too (any longer path factors through
a dead one), which gives the stopping rule and the radical length.

Only the paths of a level whose coordinates are nonzero are extended to the
next level, and a path is enumerated only when its suffix after the first
arrow has nonzero coordinates as well.  A path with a dead prefix or a dead
suffix lies in the two-sided ideal, so its column would be a pivot whose
reduced row is its own unit vector; leaving it out changes no other row of
the reduced form, so the basis, the coordinates and the stopping rule are
those of the full enumeration.  The relations are taken with both factors r
and q in r . mesh . q surviving (a relation with a dead factor is, modulo
dead paths, a sum of relations whose factors survive), and their terms on
paths never enumerated are dropped.  A path that was never enumerated
reduces to zero.

``validate`` checks the mesh relations and associativity exhaustively.  The
associativity equations of all source vertices are checked at once, with the
source as a batch axis and each block padded only to the largest Hom
dimension into its vertex; that is the same equation set as checking each
chain of Hom spaces separately, and no product of two different sources'
blocks is formed.

Builders are provided for the polygon presentation of type A and for the
knitted presentation of an arbitrary simply laced Dynkin quiver (module
category knitted from the projectives, one extra vertex per projective for
its suspension, arrows completed under the translation rule).

This module also owns the suspension: ``sigma`` is stored as a vertex
permutation (equal to tau for the builders here) and induces maps of basis
classes used by the additive layer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .exactlin import PrimeField, array_rank, array_rref

Path = tuple[int, ...]


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
    # sigma must act on arrows
    for src, tgt, _ in arrs:
        if (sigma[src], sigma[tgt]) not in seen_pairs:
            raise ValidationError("sigma is not a quiver automorphism")
    return TransQuiver(verts, tuple(arrs), tau, sigma)


class MeshCategory:
    """Hom-space bases and composition constants of a mesh category.

    Attributes of interest:
      verts, vidx          vertex tuple and name -> index map
      dims                 |V| x |V| matrix of Hom dimensions
      basis[(u, v)]        ordered list of representative paths
      comp[(u, v, w)]      int64 tensor C with C[j, i, k] the coefficient of
                           basis_k(u, w) in basis_j(v, w) . basis_i(u, v)
      radical_length       least L with every length >= L class zero
      sigma_map[(u, v)]    matrix of the suspension on Hom(u, v)
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
        self._out = {v: [] for v in self.verts}
        self._in = {v: [] for v in self.verts}
        for i, (s, t, _) in enumerate(self.arrows):
            self._out[s].append(i)
            self._in[t].append(i)
        for v in self.verts:
            self._out[v].sort(key=lambda i: (self.arrows[i][1], self.arrows[i][2]))
            self._in[v].sort(key=lambda i: (self.arrows[i][0], self.arrows[i][2]))
        # per vertex x: the middles (b, a) of its mesh relation
        self._mesh = {x: self._mesh_pairs(x) for x in self.verts}
        self._build_hom(max_len_cap)
        self._build_comp()
        self._build_sigma()

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
        p = self.field.p
        V = self.verts
        # alive[l][(u, v)] -> ordered list of the surviving paths of length l
        alive: list[dict[tuple[str, str], list[Path]]] = []
        self.basis: dict[tuple[str, str], list[Path]] = {
            (u, v): [] for u in V for v in V
        }
        # nonzero reduced coordinates of the surviving paths, over the final
        # basis; every other path is zero in the category
        self._red: dict[tuple[str, str], dict[Path, np.ndarray]] = {
            (u, v): {} for u in V for v in V
        }
        length = 0
        while True:
            if length > cap:
                raise ValidationError(
                    f"hom spaces failed to stabilize within length {cap}"
                )
            if length == 0:
                lvl = {(v, v): [()] for v in V}
            else:
                lvl = {}
                for (u, w), plist in alive[length - 1].items():
                    for a in self._out[w]:
                        tgt = self.arrows[a][1]
                        # pp + (a,) is extended only when its suffix after
                        # the first arrow survives too
                        lvl.setdefault((u, tgt), []).extend(
                            pp + (a,) for pp in plist
                            if not pp or pp[1:] + (a,) in
                            self._red[(self.arrows[pp[0]][1], tgt)]
                        )
                for key in lvl:
                    lvl[key].sort()
            alive.append({})
            new_dim = 0
            for (u, v), plist in sorted(lvl.items()):
                new_dim += self._reduce_level(u, v, length, plist, alive, p)
            if length >= 1 and new_dim == 0:
                self.radical_length = length
                break
            length += 1
        self.dims = np.zeros((len(V), len(V)), dtype=np.int64)
        for (u, v), b in self.basis.items():
            self.dims[self.vidx[u], self.vidx[v]] = len(b)

    def _relation_rows(self, u: str, v: str, length: int, plist, alive, p: int):
        """Mesh ideal elements of the given length from u to v, as the rows
        of one matrix over the paths in plist (None when there are none).

        Both factors r and q of a relation r . mesh_x . q are surviving
        paths, and terms on paths outside plist are dropped: those paths
        have a dead prefix or suffix, so they lie in the ideal and are zero."""
        index = {pp: k for k, pp in enumerate(plist)}
        row_idx, col_idx = [], []
        n_rows = 0
        for x, mids in self._mesh.items():
            tx = self.quiver.tau[x]
            for i in range(length - 1):
                left = alive[i].get((u, tx))
                right = alive[length - 2 - i].get((x, v))
                if not left or not right:
                    continue
                for r in left:
                    for q in right:
                        row = [k for mid in mids
                               if (k := index.get(r + mid + q)) is not None]
                        if row:
                            row_idx.extend([n_rows] * len(row))
                            col_idx.extend(row)
                            n_rows += 1
        if not n_rows:
            return None
        rows = np.zeros((n_rows, len(plist)), dtype=np.int64)
        np.add.at(rows, (row_idx, col_idx), 1)
        return rows % p

    def _reduce_level(self, u, v, length, plist, alive, p) -> int:
        n = len(plist)
        rows = self._relation_rows(u, v, length, plist, alive, p)
        pivots = []
        if rows is not None:
            red, pivots = array_rref(rows, p)
        pivot_set = set(pivots)
        free = [k for k in range(n) if k not in pivot_set]
        offset = len(self.basis[(u, v)])
        self.basis[(u, v)].extend(plist[k] for k in free)
        # coordinates of each level path over the surviving classes: a free
        # path is its own class; since red is in RREF, pivot path c_i equals
        # minus the free part of row i
        coords = np.zeros((n, offset + len(free)), dtype=np.int64)
        coords[free, offset + np.arange(len(free))] = 1
        if pivots:
            coords[pivots, offset:] = -red[: len(pivots), free] % p
        # only paths with nonzero coordinates are extended to the next level
        live = np.flatnonzero(coords.any(axis=1))
        if live.size:
            alive[length][(u, v)] = [plist[k] for k in live]
            self._red[(u, v)].update((plist[k], coords[k]) for k in live)
        return len(free)

    def reduce_path(self, u: str, v: str, path: Path) -> np.ndarray:
        """Coordinates of a path over the Hom(u, v) basis (zero if it died)."""
        d = len(self.basis[(u, v)])
        vec = self._red[(u, v)].get(path)
        if vec is None:
            return np.zeros(d, dtype=np.int64)
        if len(vec) < d:
            out = np.zeros(d, dtype=np.int64)
            out[: len(vec)] = vec
            return out
        return vec

    def _build_comp(self) -> None:
        p = self.field.p
        self.comp: dict[tuple[str, str, str], np.ndarray] = {}
        for (u, v), b1 in self.basis.items():
            if not b1:
                continue
            for w in self.verts:
                b2 = self.basis[(v, w)]
                if not b2:
                    continue
                duw = len(self.basis[(u, w)])
                tensor = np.zeros((len(b2), len(b1), duw), dtype=np.int64)
                for j, q in enumerate(b2):
                    for i, pp in enumerate(b1):
                        tensor[j, i] = self.reduce_path(u, w, pp + q)
                self.comp[(u, v, w)] = tensor % p

    def _build_sigma(self) -> None:
        sg = self.quiver.sigma
        self._sigma_arrow = {}
        for i, (s, t, _) in enumerate(self.arrows):
            j = self._arrow_by_pair.get((sg[s], sg[t]))
            if j is None:
                raise ValidationError("sigma is not a quiver automorphism")
            self._sigma_arrow[i] = j
        self.sigma_map: dict[tuple[str, str], np.ndarray] = {}
        p = self.field.p
        for (u, v), b in self.basis.items():
            if not b:
                continue
            su, sv = sg[u], sg[v]
            cols = [
                self.reduce_path(su, sv, tuple(self._sigma_arrow[a] for a in pp))
                for pp in b
            ]
            m = np.stack(cols, axis=1) % p
            if array_rank(m, p) != len(b):
                raise ValidationError(
                    f"sigma does not act bijectively on Hom({u!r}, {v!r})"
                )
            self.sigma_map[(u, v)] = m

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

        The source u is kept as a batch axis.  For each nonzero Hom(v, w),
        lam[(v, w)] holds comp[(u, v, w)] as slice u of a tensor of shape
        (dim Hom(v, w), |V|, pad[v], pad[w]), where pad[x] is the largest
        dim Hom(u, x) over u and each block is zero-padded to it.  For each
        z with Hom(w, z) nonzero, one comparison mod p of
            matmul(lam[(v, w)][None], lam[(w, z)][:, None])
            einsum("hgq,quac->hguac", comp[(v, w, z)], lam[(v, z)])
        (the einsum taken as one matrix product) checks every chain
        u -> v -> w -> z at once: slice u of the two sides is h . (g . f)
        and (h . g) . f for that u, and the padding is zero on both sides.
        So it is the same equation set as checking chain by chain, with one
        comparison per (v, w, z), and no product between blocks of
        different sources is formed.
        """
        p = self.field.p
        V = self.verts
        pad = self.dims.max(axis=0)
        lam: dict[tuple[str, str], np.ndarray] = {}
        for (u, v, w), t in self.comp.items():
            big = lam.get((v, w))
            if big is None:
                big = lam[(v, w)] = np.zeros(
                    (t.shape[0], len(V), pad[self.vidx[v]], pad[self.vidx[w]]),
                    dtype=np.int64)
            big[:, self.vidx[u], :t.shape[1], :t.shape[2]] = t
        succ: dict[str, list[str]] = {}
        for v, w in lam:
            succ.setdefault(v, []).append(w)
        for (v, w), lam_vw in lam.items():
            for z in succ.get(w, ()):
                lhs = np.matmul(lam_vw[None], lam[(w, z)][:, None])
                # (h . g) . f is zero when Hom(v, z) is
                rhs = 0
                lam_vz = lam.get((v, z))
                if lam_vz is not None:
                    c = self.comp[(v, w, z)]
                    rhs = (c.reshape(-1, c.shape[2])
                           @ lam_vz.reshape(c.shape[2], -1)).reshape(lhs.shape)
                diff = (lhs - rhs) % p
                if diff.any():
                    iu = int(np.flatnonzero(diff.any(axis=(0, 1, 3, 4)))[0])
                    raise ValidationError(
                        f"associativity fails on Hom chain "
                        f"{V[iu]!r} -> {v!r} -> {w!r} -> {z!r}"
                    )

    def check_stabilization(self) -> bool:
        """Recompute with the length cap raised by one; dims must agree."""
        other = MeshCategory(self.field, self.quiver,
                             max_len_cap=self.radical_length + 1)
        return bool(np.array_equal(other.dims, self.dims))

    # ------------------------------------------------------------------ query

    def hom_dim(self, u: str, v: str) -> int:
        return int(self.dims[self.vidx[u], self.vidx[v]])

    def compose_basis(self, f: tuple[str, str, int], g: tuple[str, str, int]) -> np.ndarray:
        """Coefficients of (class g: v -> w) . (class f: u -> v) over Hom(u, w)."""
        (u, v, i), (v2, w, j) = f, g
        if v != v2:
            raise ValueError(f"endpoint mismatch: {v!r} != {v2!r}")
        tensor = self.comp.get((u, v, w))
        if tensor is None:
            return np.zeros(self.hom_dim(u, w), dtype=np.int64)
        return tensor[j, i].copy()

    def sigma_vertex(self, v: str) -> str:
        return self.quiver.sigma[v]

    def total_hom_dim(self) -> int:
        return int(self.dims.sum())


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
