"""Morphism classes, factorizations and homotopies induced by a rigid
subcategory.

Given a rigid set T of indecomposables in a mesh category, this module
derives the whole verification surface.  T, sigma T and each named
subcategory U (``subcat``) enter the Hom functors as objects, the direct
sums of their vertices (``subcat_obj``, built once per structure), so
Hom(T, -) is built once, not vertex by vertex;
``classify`` states why the verdicts are those of the vertices.

  * ideals of morphisms factoring through a subcategory, decided blockwise
    by span membership per vertex pair;
  * left/right approximations: tautological, and minimal ones, which are
    additive: a vertex's is greedily minimized on the matrix of Hom(U, -)
    or Hom(-, U) with one column group per summand, and a sum's is
    assembled from those of its summand vertices;
  * the four morphism classes: weak equivalences (Hom(T, -) applied to the
    morphism is bijective), fibrations (Hom(sigma T, -) surjective),
    trivial fibrations (both), and weak cofibrations (split monos with
    complement in add sigma T); ``classify`` decides each flag when it is
    first read, and builds a Hom-functor matrix only where the dimensions
    leave the verdict open, and ``class_masks`` gives the first two flags,
    and whether Hom(T, -) vanishes, for whole Hom spaces at once, through
    ``addcat.left_mul_tensor`` and batched ranks;
  * cofibrant objects: the cones of morphisms between sums of T vertices,
    defined here by the approximation criterion (the minimal left
    perp-approximation of an indecomposable lands in add sigma T); cones
    are closed under sums and summands, so the cofibrant indecomposables
    generate the whole list.  The sweep that recovers the cones through
    exact cone fingerprints is a test oracle, not part of the build;
  * cylinders, path objects, right homotopies, homotopy inverses; these,
    the tautological approximations and both factorizations are block
    matrices such as [f a] and [[1, h], [1, 0]], assembled by
    ``addcat.block_mor``, and the inclusions [1; 0] and projections [1 0]
    of ``addcat.inclusion`` and ``addcat.projection``;
  * both factorizations and cofibrant replacements, each returned with
    certified factors (of ``factor_htpcof_wfib`` the second, see
    ``FactorPair``) and exact composite equality.  The domain of the
    replacement Q(X) -> X is the minimal right approximation of X by the
    cofibrant indecomposables ("TS"), built summand by summand; its
    morphism is the first trivial fibration in ``addcat.coeff_chunks``
    order, found by ``class_masks`` and certified by ``classify``.

Everything a structure derives once is kept in its one memo dict
(``memoized``): the subcategory sum objects, the ideal row spaces, the
tautological and minimal approximations, the cofibrant replacements, the
verified epsilon maps, ``ts_list`` and the generating family of ``oracle``.
So all of it lives and dies with the structure; callers must not mutate
what they get.  The Hom layouts of ``addcat`` are scoped the same way:
building a ``RigidStructure`` starts an empty layout memo on its category
(``addcat.reset_layouts``), so a sweep holds one rigid set's layouts at a
time.  Results never depend on either memo, as each entry is a function of
its arguments.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import addcat as ac
from .addcat import Mor, Obj
from .exactlin import array_rref, array_solve, fast_rank, ragged_rank
from .meshcat import MeshCategory


class NotRigidError(ValueError):
    def __init__(self, pair):
        self.pair = pair
        super().__init__(
            f"not rigid: dim Hom({pair[0]!r}, sigma {pair[1]!r}) != 0"
        )


# Enumeration bounds, sized for desk-scale categories and read at call time.
# One rule, ``addcat.coeff_chunks``, decides what the replacement, the
# generating-family oracle and the lemma suite see of a Hom space of
# dimension d: all of it while d <= ENUM_EXP_CAP, else SAMPLE_COUNT draws
# seeded by the structure's seed.  A space taken in one piece holds at most
# 2^ENUM_EXP_CAP morphisms; a larger one is a failed check.
TS_TOTAL = 4          # summand bound of ts_list (axiom draws, generating
                      # family, equivalence pairs, list-ts), not of Q(x)
ENUM_EXP_CAP = 20
SAMPLE_COUNT = 500


def memoized(fn):
    """fn(rigid, *args), kept in ``rigid.memo`` under (fn's qualified name,
    *args): the one get-or-build path of a structure's memo, for its methods
    and for the oracle's functions of it alike.  The arguments are hashable
    (objects, vertex names, sides, bounds), and the result is shared.
    Module constants an entry reads (``TS_TOTAL``, ``ENUM_EXP_CAP``,
    ``SAMPLE_COUNT``) are read when it is first built and are not in its
    key: a structure must be built after they are changed."""
    name = fn.__qualname__

    @functools.wraps(fn)
    def get(rigid, *args):
        key = (name, *args)
        hit = rigid.memo.get(key)
        if hit is None:
            hit = rigid.memo[key] = fn(rigid, *args)
        return hit

    return get


class Classification:
    """The class flags of one morphism f (``RigidStructure.classify``).

    Each flag is decided when it is first read and then kept, so a caller
    pays only for what it reads: ``wfib`` reads ``fib`` only when ``weq``
    holds, and ``wcof``, ``retraction`` and ``complement`` share one
    retraction solve.  f must not be mutated after ``classify``.  Two
    classifications compare by identity; ``repr`` decides and shows the
    four flags of ``as_dict``."""

    def __init__(self, rigid: "RigidStructure", f: Mor) -> None:
        self._rigid = rigid
        self._f = f

    @functools.cached_property
    def weq(self) -> bool:
        return self._rigid._full_row_rank(
            self._f, self._rigid.subcat_obj("T"), square=True)

    @functools.cached_property
    def fib(self) -> bool:
        return self._rigid._full_row_rank(
            self._f, self._rigid.subcat_obj("sigmaT"), square=False)

    @property
    def wfib(self) -> bool:
        return self.weq and self.fib

    @functools.cached_property
    def _split(self) -> tuple[Mor | None, Obj | None]:
        """(retraction, complement) of a split mono with complement in add
        sigma T, else (None, None)."""
        f = self._f
        complement = self._rigid.split_mono_complement(f.dom, f.cod)
        if complement is None:
            return None, None
        retraction = ac.find_retraction(f)
        if retraction is None:
            return None, None
        return retraction, complement

    @property
    def wcof(self) -> bool:
        return self._split[0] is not None

    @property
    def retraction(self) -> Mor | None:
        return self._split[0]

    @property
    def complement(self) -> Obj | None:
        return self._split[1]

    def as_dict(self) -> dict:
        return {"weq": self.weq, "fib": self.fib,
                "wfib": self.wfib, "wcof": self.wcof}

    def __repr__(self) -> str:
        return f"Classification({self.as_dict()})"


@dataclass
class FactorPair:
    """f = second . first, with the classification of each certified
    factor.  ``factor_htpcof_wfib`` certifies only its second factor: its
    first is a homotopy cofibration, a lifting property up to homotopy that
    ``classify`` does not decide, so first_class is None there."""

    first: Mor
    second: Mor
    first_class: Classification | None
    second_class: Classification


@dataclass
class RightHomotopy:
    """A right homotopy: K into a path object, with the defining equations
    (q . m = diagonal, q . K = (f, g), m a weak equivalence) verified."""

    m: Mor            # Y -> Y + U
    q: Mor            # Y + U -> Y + Y
    K: Mor            # X -> Y + U
    correction: Mor   # h with f - g = h . approx


class RigidStructure:
    """A rigid subcategory with everything the checks derive from it."""

    def __init__(self, cat: MeshCategory, t_ind, seed: int = 0):
        ac.reset_layouts(cat)
        self.cat = cat
        self.seed = seed
        self.t_ind = tuple(sorted(set(t_ind)))
        if not self.t_ind:
            raise ValueError("T must be nonempty")
        for t in self.t_ind:
            if t not in cat.vidx:
                raise ValueError(f"unknown vertex {t!r}")
        for t in self.t_ind:
            for s in self.t_ind:
                if cat.hom_dim(t, cat.sigma_vertex(s)) != 0:
                    raise NotRigidError((t, s))
        self.sigma_t_ind = tuple(sorted(cat.sigma_vertex(t) for t in self.t_ind))
        self.perp_ind = tuple(
            u for u in cat.verts
            if all(cat.hom_dim(t, u) == 0 for t in self.t_ind)
        )
        self.memo: dict = {}
        self.ts_ind = tuple(sorted(v for v in cat.verts
                                   if self._approx_criterion_cofibrant(v)))

    # ------------------------------------------------------------- subcats

    def subcat(self, name) -> tuple[str, ...]:
        """The vertices of a named subcategory ("T", "sigmaT", "perp" or
        "TS") or of a collection of vertices; memoized methods take a name
        or a tuple."""
        if isinstance(name, str):
            # read by name: ts_ind is built later, from "perp" approximations
            attr = {"T": "t_ind", "sigmaT": "sigma_t_ind", "perp": "perp_ind",
                    "TS": "ts_ind"}.get(name)
            if attr is None:
                raise ValueError(f"unknown subcategory spec {name!r}")
            return getattr(self, attr)
        return tuple(sorted(set(name)))

    @memoized
    def subcat_obj(self, name) -> Obj:
        """The direct sum of the subcategory's vertices, the object through
        which Hom(U, -) and Hom(-, U) are built; one object per
        subcategory."""
        return Obj(self.subcat(name))

    # -------------------------------------------------------------- ideals

    @memoized
    def _ideal_pair(self, key, u: str, v: str):
        """Row space (rref rows, pivots) of the ideal subspace of Hom(u, v)."""
        cat = self.cat
        p = cat.field.p
        d = cat.hom_dim(u, v)
        rows = []
        for w in self.subcat(key):
            t1 = cat.comp.get((u, w, v))
            if t1 is None:
                continue
            rows.extend(t1.reshape(-1, d))
        if rows:
            red, pivots = array_rref(np.stack(rows), p)
            red = red[: len(pivots)]
        else:
            red, pivots = np.zeros((0, d), dtype=np.int64), []
        return red, pivots

    def ideal_dim_pair(self, key, u: str, v: str) -> int:
        return len(self._ideal_pair(key, u, v)[1])

    def _vec_in_ideal(self, key, u, v, vec) -> bool:
        red, pivots = self._ideal_pair(key, u, v)
        p = self.cat.field.p
        r = vec % p
        for row, c in zip(red, pivots):
            if r[c]:
                r = (r - r[c] * row) % p
        return not np.any(r)

    def ideal_membership(self, f: Mor, key) -> bool:
        """Whether f factors through the additive closure of the subcategory.

        The ideal is blockwise: a block matrix lies in it iff every block
        does, so the test runs against per-vertex-pair span bases.
        """
        return all(
            self._vec_in_ideal(key, f.dom.summands[j], f.cod.summands[i], vec)
            for (i, j), vec in f.blocks.items()
        )

    def ideal_span_matrix(self, key, x: Obj, y: Obj) -> np.ndarray:
        """Columns spanning the ideal subspace of Hom(x, y), blockwise."""
        cat = self.cat
        layout, total = ac.hom_layout(cat, x, y)
        cols = []
        for (ij, off, d) in layout:
            i, j = ij
            red, _ = self._ideal_pair(key, x.summands[j], y.summands[i])
            for row in red:
                col = np.zeros(total, dtype=np.int64)
                col[off:off + d] = row
                cols.append(col)
        if not cols:
            return np.zeros((total, 0), dtype=np.int64)
        return np.stack(cols, axis=1)

    # -------------------------------------------------------- approximations

    @memoized
    def tautological_approx(self, x: Obj, side: str, key) -> Mor:
        """Right: bundle a basis of every Hom(u, x), u in the subcategory;
        left: dual.  Approximation property holds by construction: one copy
        of u per basis class of Hom(u, x_j) (right) or Hom(x_j, u) (left),
        mapped to x_j (from x_j) by that class.  Memoized per object."""
        cat = self.cat
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        right = side == "right"
        ends, maps = [], []
        for u in self.subcat(key):
            uo = Obj((u,))
            for j, xs in enumerate(x.summands):
                d = cat.hom_dim(u, xs) if right else cat.hom_dim(xs, u)
                for k in range(d):
                    ends.append(uo)
                    maps.append(ac.elementary(cat, uo, x, j, 0, k) if right
                                else ac.elementary(cat, x, uo, 0, j, k))
        if right:
            return ac.block_mor(cat, [x], ends, [maps])
        return ac.block_mor(cat, ends, [x], [[m] for m in maps])

    def _approx_matrix(self, f: Mor, side: str, key):
        """(m, group): m is Hom(U, f) (right side) or Hom(f, U) (left side)
        for U the sum of the subcategory's vertices, and group[c] the summand
        of the approximating object that column c of m belongs to.  f is an
        approximation iff m has full row rank, as m is block diagonal over
        the vertices of U (see ``classify``)."""
        cat = self.cat
        right = side == "right"
        a = f.dom if right else f.cod
        uo = self.subcat_obj(key)
        if right:
            m = ac.left_mul_matrix(f, uo)
            layout = ac.hom_layout(cat, uo, a)[0]
        else:
            m = ac.right_mul_matrix(f, uo)
            layout = ac.hom_layout(cat, a, uo)[0]
        group = np.empty(m.shape[1], dtype=np.int64)
        for ij, off, d in layout:
            group[off:off + d] = ij[0] if right else ij[1]
        return m, group

    def is_approximation(self, f: Mor, side: str, key) -> bool:
        m, _ = self._approx_matrix(f, side, key)
        return fast_rank(m, self.cat.field.p) == m.shape[0]

    @memoized
    def approx(self, x: Obj, side: str, key) -> Mor:
        """Minimal left/right approximation of x by the subcategory: the
        tautological bundle of a vertex greedily minimized (``_minimize``),
        the sum of those of the summand vertices for a sum.  Memoized per
        object.

        The tautological bundle of x holds copy (u, j, k) for class k of
        Hom(u, x_j) (right) or Hom(x_j, u) (left), in that order, and the
        copy touches only x_j.  So Hom(U, f) (or Hom(f, U)) is block
        diagonal over the summands of x, and the greedy pass drops copies
        block by block (the argument of ``classify``): the kept copies are
        those of each vertex approximation, ordered by (u, j, k)."""
        if len(x) == 1:
            return self._minimize(self.tautological_approx(x, side, key),
                                  side, key)
        right = side == "right"
        parts = [self.approx(Obj((v,)), side, key) for v in x.summands]
        ends = [(part.dom if right else part.cod).summands for part in parts]
        rank = {u: n for n, u in enumerate(self.subcat(key))}
        copies = list(enumerate(sorted(
            ((j, c) for j, end in enumerate(ends) for c in range(len(end))),
            key=lambda jc: rank[ends[jc[0]][jc[1]]])))
        b = Obj(tuple(ends[j][c] for _, (j, c) in copies))
        if right:
            return Mor(self.cat, b, x, {(j, n): parts[j].blocks[(0, c)]
                                        for n, (j, c) in copies})
        return Mor(self.cat, x, b, {(n, j): parts[j].blocks[(c, 0)]
                                    for n, (j, c) in copies})

    def _minimize(self, f: Mor, side: str, key) -> Mor:
        """Greedy minimization of an approximation f (of a vertex, from
        ``approx``), on one matrix.

        Hom(U, f) (right side) or Hom(f, U) (left side) has one column group
        per summand of the approximating object, so dropping summand k
        deletes group k, and f stays an approximation iff the matrix keeps
        full row rank.  Dropping more only lowers a rank, so a summand whose
        drop once failed can never be dropped later, and one forward pass
        makes the same drops as rescanning from the first summand after each
        drop would.
        """
        cat = self.cat
        p = cat.field.p
        right = side == "right"
        a = f.dom if right else f.cod
        m, group = self._approx_matrix(f, side, key)
        keep = np.ones(len(a), dtype=bool)
        for k in range(len(a)):
            keep[k] = False
            if fast_rank(m[:, keep[group]], p) != m.shape[0]:
                keep[k] = True
        kept = np.flatnonzero(keep).tolist()
        new = {old: i for i, old in enumerate(kept)}
        b = Obj(tuple(a.summands[k] for k in kept))
        if right:
            return Mor(cat, b, f.cod, {(i, new[j]): vec
                                       for (i, j), vec in f.blocks.items()
                                       if j in new})
        return Mor(cat, f.dom, b, {(new[i], j): vec
                                   for (i, j), vec in f.blocks.items()
                                   if i in new})

    # ---------------------------------------------------------- morphism classes

    def classify(self, f: Mor) -> Classification:
        """f is a weak equivalence iff Hom(T, f) is bijective, a fibration
        iff Hom(sigma T, f) is surjective, with T and sigma T the sums of
        their vertices.

        Per vertex t the condition reads Hom(t, f), and the sum object asks
        the same: ``hom_layout`` keeps the summand index of w on both sides
        of Hom(w, f) (and of Hom(f, w)), so after permuting rows and columns
        Hom(T, f) is block diagonal with blocks Hom(t, f), of r_t rows and
        c_t columns.  It has full row rank iff every block does, and if it
        is also square then every block is, since r_t <= c_t for each t and
        the r_t and c_t have equal sums.  Dropping a summand of the
        approximating object deletes its columns from the blocks that hold
        them and leaves the matrix block diagonal, so the same holds for the
        approximation tests of ``is_approximation`` and ``_minimize``.
        A matrix is built only where its dimensions leave the verdict open
        (``_full_row_rank``), and only when its flag is first read: the
        returned ``Classification`` decides each flag on demand, so f must
        not be mutated after this call."""
        return Classification(self, f)

    def _full_row_rank(self, f: Mor, w: Obj, square: bool) -> bool:
        """Whether Hom(w, f) has full row rank (and is square, if asked).
        A rank is at most the number of columns, so no matrix is built when
        there are no rows, fewer columns than rows, or (square) unequal
        counts."""
        cat = self.cat
        rows = ac.hom_space_dim(cat, w, f.cod)
        cols = ac.hom_space_dim(cat, w, f.dom)
        if rows == 0 and (cols == 0 or not square):
            return True
        if cols < rows or (square and cols != rows):
            return False
        return fast_rank(ac.left_mul_matrix(f, w), cat.field.p) == rows

    def split_mono_complement(self, x: Obj, y: Obj) -> Obj | None:
        """y - x when a morphism x -> y may be a weak cofibration, else None.

        Split monos force a sub-multiset codomain (Krull-Schmidt), and the
        complement must lie in add sigma T; this depends on (x, y) alone and
        prunes the retraction solve."""
        if len(x) > len(y):
            return None
        try:
            rest = ac.multiset_sub(y, x)
        except ValueError:
            return None
        if any(v not in self.sigma_t_ind for v in rest.summands):
            return None
        return rest

    def class_masks(self, spaces) -> list[tuple[np.ndarray, ...]]:
        """``classify``'s (weq, fib) flags for every morphism of every
        (x, y, coeffs) of spaces, whose rows are morphisms x -> y in
        hom_layout coordinates, and a third mask, of Hom(T, f) = 0.
        Hom(T, f) must be square and of full row rank, Hom(sigma T, f) of
        full row rank; all of them, over all spaces, are ranked together."""
        p = self.cat.field.p
        ws = (self.subcat_obj("T"), self.subcat_obj("sigmaT"))
        mats = [ac.apply_tensor(ac.left_mul_tensor(self.cat, w, x, y),
                                coeffs, p)
                for x, y, coeffs in spaces for w in ws]
        full = [r == m.shape[1] for r, m in zip(ragged_rank(mats, p), mats)]
        return [(full[k] & (mats[k].shape[1] == mats[k].shape[2]),
                 full[k + 1], ~np.any(mats[k], axis=(1, 2)))
                for k in range(0, len(mats), 2)]

    # ------------------------------------------------------ cofibrant objects

    def _approx_criterion_cofibrant(self, v: str) -> bool:
        """The definition of a cofibrant vertex: its minimal left
        perp-approximation lands in the additive closure of sigma T."""
        f = self.approx(Obj((v,)), "left", "perp")
        return all(u in self.sigma_t_ind for u in f.cod.summands)

    @property
    @memoized
    def ts_list(self) -> list[Obj]:
        """Every multiset of at most ``TS_TOTAL`` cofibrant indecomposables,
        by size, then lexicographically; built when first read."""
        return [Obj(ms) for n in range(TS_TOTAL + 1)
                for ms in itertools.combinations_with_replacement(
                    self.ts_ind, n)]

    def is_cofibrant(self, x: Obj) -> bool:
        """Cones are closed under direct sums and summands, so membership is
        summand-wise membership among the cofibrant indecomposables, which
        ``_approx_criterion_cofibrant`` decides."""
        return all(v in self.ts_ind for v in x.summands)

    # ------------------------------------------------------------- homotopies

    def homotopic(self, f: Mor, g: Mor) -> bool:
        if f.dom != g.dom or f.cod != g.cod:
            raise ValueError("homotopic needs parallel morphisms")
        return self.ideal_membership(ac.sub(f, g), "perp")

    def _homotopy_correction(self, f: Mor, g: Mor):
        """h with f - g = h . a, a the tautological left perp-approximation
        of the domain; None iff f and g are not homotopic."""
        if f.dom != g.dom or f.cod != g.cod:
            raise ValueError("right_homotopy needs parallel morphisms")
        cat = self.cat
        diff = ac.sub(f, g)
        a = self.tautological_approx(f.dom, "left", "perp")
        sol = array_solve(ac.right_mul_matrix(a, f.cod),
                          ac.mor_to_vec(diff), cat.field.p)
        if sol is None:
            return None
        return a, ac.vec_to_mor(cat, a.cod, f.cod, sol)

    def right_homotopy(self, f: Mor, g: Mor):
        """Explicit witness for f ~ g, or None.

        Solves f - g = h . a with a the tautological left perp-approximation
        of the domain, and packages the path object Y + U with structure maps
        [1; 0] and [[1, h], [1, 0]] together with K = (g, a)."""
        cat = self.cat
        got = self._homotopy_correction(f, g)
        if got is None:
            return None
        a, h = got
        u, y = a.cod, f.cod
        idy = ac.identity(cat, y)
        m = ac.inclusion(cat, y, u)
        q = ac.block_mor(cat, [y, y], [y, u], [[idy, h], [idy, None]])
        K = ac.block_mor(cat, [y, u], [f.dom], [[g], [a]])
        # verify the defining equations exactly
        assert ac.compose(q, m) == \
            ac.block_mor(cat, [y, y], [y], [[idy], [idy]])
        assert ac.compose(q, K) == \
            ac.block_mor(cat, [y, y], [f.dom], [[f], [g]])
        assert self.classify(m).weq
        return RightHomotopy(m, q, K, h)

    def cylinder(self, x: Obj) -> tuple[Mor, Mor]:
        """(i, s) with s . i the fold map of x and s a weak equivalence."""
        cat = self.cat
        a = self.tautological_approx(x, "left", "perp")
        u = a.cod
        idx = ac.identity(cat, x)
        i = ac.block_mor(cat, [x, u], [x, x], [[idx, idx], [a, None]])
        s = ac.projection(cat, x, u)
        assert ac.compose(s, i) == \
            ac.block_mor(cat, [x], [x, x], [[idx, idx]])
        assert self.classify(s).weq
        return i, s

    def path_obj(self, y: Obj) -> tuple[Mor, Mor]:
        """(m, q) with q . m the diagonal of y and m a weak equivalence.

        The spare coordinate is a right perp-approximation source of y, so
        every ideal difference of parallel morphisms into y is realized by
        some K into this path object."""
        cat = self.cat
        b = self.tautological_approx(y, "right", "perp")
        w = b.dom
        idy = ac.identity(cat, y)
        m = ac.inclusion(cat, y, w)
        q = ac.block_mor(cat, [y, y], [y, w], [[idy, b], [idy, None]])
        assert ac.compose(q, m) == \
            ac.block_mor(cat, [y, y], [y], [[idy], [idy]])
        assert self.classify(m).weq
        return m, q

    def homotopy_inverse(self, f: Mor):
        """eps with eps . f and f . eps the identities modulo (sigma T)."""
        cat = self.cat
        p = cat.field.p
        x, y = f.dom, f.cod
        if not (self.is_cofibrant(x) and self.is_cofibrant(y)):
            raise ValueError("homotopy_inverse needs cofibrant endpoints")
        rm = ac.right_mul_matrix(f, x)    # Hom(y,x) -> Hom(x,x), e -> e.f
        lm = ac.left_mul_matrix(f, y)     # Hom(y,x) -> Hom(y,y), e -> f.e
        w1 = self.ideal_span_matrix("sigmaT", x, x)
        w2 = self.ideal_span_matrix("sigmaT", y, y)
        d = rm.shape[1]
        top = np.concatenate(
            [rm, w1, np.zeros((rm.shape[0], w2.shape[1]), dtype=np.int64)],
            axis=1)
        bot = np.concatenate(
            [lm, np.zeros((lm.shape[0], w1.shape[1]), dtype=np.int64), w2],
            axis=1)
        a = np.concatenate([top, bot], axis=0)
        rhs = np.concatenate([ac.mor_to_vec(ac.identity(cat, x)),
                              ac.mor_to_vec(ac.identity(cat, y))])
        sol = array_solve(a, rhs, p)
        if sol is None:
            if self.classify(f).weq:
                raise AssertionError(
                    "invariant violation: weak equivalence between cofibrant "
                    "objects has no homotopy inverse")
            return None
        return ac.vec_to_mor(cat, y, x, sol[:d])

    # ---------------------------------------------------------- factorizations

    def factor_wcof_fib(self, f: Mor) -> FactorPair:
        """f = [f a] . [1; 0] with the inclusion a weak cofibration and
        [f a] a fibration, a being a minimal right sigma-T-approximation of
        the codomain."""
        cat = self.cat
        a = self.approx(f.cod, "right", "sigmaT")
        first = ac.inclusion(cat, f.dom, a.dom)
        second = ac.block_mor(cat, [f.cod], [f.dom, a.dom], [[f, a]])
        assert ac.compose(second, first) == f
        c1 = self.classify(first)
        c2 = self.classify(second)
        if not (c1.wcof and c1.weq):
            raise AssertionError("first factor failed certification")
        if not c2.fib:
            raise AssertionError("second factor failed fibration certification")
        return FactorPair(first, second, c1, c2)

    def factor_htpcof_wfib(self, f: Mor) -> FactorPair:
        """f = [q 0] . [ft; eps] through a cofibrant replacement of the
        codomain; needs a cofibrant domain.  Only the second factor is
        certified (``FactorPair``)."""
        cat = self.cat
        if not self.is_cofibrant(f.dom):
            raise ValueError("domain not cofibrant")
        qy_obj, q = self.cofibrant_replacement(f.cod)
        sol = array_solve(ac.left_mul_matrix(q, f.dom),
                          ac.mor_to_vec(f), cat.field.p)
        if sol is None:
            raise AssertionError("no lift through the cofibrant replacement")
        ft = ac.vec_to_mor(cat, f.dom, qy_obj, sol)
        eps = self._verified_eps(f.dom)
        first = ac.block_mor(cat, [qy_obj, eps.cod], [f.dom], [[ft], [eps]])
        second = ac.block_mor(cat, [f.cod], [qy_obj, eps.cod], [[q, None]])
        assert ac.compose(second, first) == f
        c2 = self.classify(second)
        if not c2.wfib:
            raise AssertionError("second factor failed certification")
        return FactorPair(first, second, None, c2)

    @memoized
    def _verified_eps(self, x: Obj) -> Mor:
        """The minimal left perp-approximation of x, verified to land in add
        sigma T; verified once per object, as the approximation is
        memoized, and never recorded when the verification fails."""
        eps = self.approx(x, "left", "perp")
        if not all(v in self.sigma_t_ind for v in eps.cod.summands):
            raise AssertionError("epsilon verification failed: target "
                                 f"{eps.cod.summands} outside add sigma T")
        if not self.is_approximation(eps, "left", "perp"):
            raise AssertionError("epsilon verification failed: not a left "
                                 "perp approximation")
        return eps

    @memoized
    def cofibrant_replacement(self, x: Obj) -> tuple[Obj, Mor]:
        """Minimal cofibrant object with a certified trivial fibration onto x.

        A trivial fibration from a cofibrant object lifts every map from a
        cofibrant object, so it is a right TS-approximation, and a minimal
        one is the minimal approximation, unique up to isomorphism.  The
        domain is therefore the sorted union of the minimal right
        TS-approximations of the summands of x.  Its morphisms are tested in
        ``addcat.coeff_chunks`` order, many at once, and the first trivial
        fibration is the answer; it is certified by ``classify`` before it
        is returned.  When none is found, the RuntimeError names x, the
        domain and whether the rows were sampled.
        Results are memoized per object; callers must not mutate them.
        """
        cat = self.cat
        if self.is_cofibrant(x):
            return x, ac.identity(cat, x)
        # minimal approximations are additive, so Q(x) is built summand-wise
        qx = Obj(tuple(sorted(
            u for v in x.summands
            for u in self.approx(Obj((v,)), "right", "TS").dom.summands)))
        sampled = True    # only a draw-free sample yields no rows at all
        # most searches end within the first rows, so chunks start small
        for rows, sampled in ac.coeff_chunks(
                cat.field.p, ac.hom_space_dim(cat, qx, x), ENUM_EXP_CAP,
                SAMPLE_COUNT, self.seed, first=16):
            (weq, fib, _), = self.class_masks([(qx, x, rows)])
            hits = np.flatnonzero(weq & fib)
            if len(hits):
                q = ac.vec_to_mor(cat, qx, x, rows[hits[0]])
                if not self.classify(q).wfib:
                    raise AssertionError("class_masks and classify disagree "
                                         "on a replacement morphism")
                return qx, q
        raise RuntimeError(
            f"no trivial fibration {list(qx.summands)} -> {list(x.summands)} "
            f"among the {'sampled' if sampled else 'enumerated'} morphisms")


def build_rigid(cat: MeshCategory, t_ind, seed: int = 0) -> RigidStructure:
    return RigidStructure(cat, t_ind, seed)


def all_rigid_subsets(cat: MeshCategory) -> list[tuple[str, ...]]:
    """Every nonempty rigid set of indecomposables, in lexicographic order."""
    verts = list(cat.verts)
    compat = {
        (u, v): cat.hom_dim(u, cat.sigma_vertex(v)) == 0
        and cat.hom_dim(v, cat.sigma_vertex(u)) == 0
        for u in verts for v in verts
    }
    out: list[tuple[str, ...]] = []

    def rec(start: int, acc: list[str]) -> None:
        if acc:
            out.append(tuple(acc))
        for i in range(start, len(verts)):
            v = verts[i]
            if cat.hom_dim(v, cat.sigma_vertex(v)) != 0:
                continue
            if all(compat[(w, v)] for w in acc):
                acc.append(v)
                rec(i + 1, acc)
                acc.pop()

    rec(0, [])
    return sorted(out, key=lambda s: (len(s), s))
