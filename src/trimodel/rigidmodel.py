"""Morphism classes, factorizations and homotopies induced by a rigid
subcategory.

Given a rigid set T of indecomposables in a mesh category, this module
derives the whole verification surface:

  * ideals of morphisms factoring through a subcategory, decided blockwise
    by span membership per vertex pair;
  * left/right approximations (tautological and greedily minimized, the
    minimization done on the matrices of Hom(u, -) with one column group per
    summand);
  * the four morphism classes: weak equivalences (Hom(t, -) applied to the
    morphism is bijective for every t in T), fibrations (Hom(sigma t, -)
    surjective), trivial fibrations (both), and weak cofibrations (split
    monos with complement in sigma T); ``class_masks`` gives the first two
    flags for whole Hom spaces at once, through ``addcat.left_mul_tensor``
    and batched ranks;
  * cofibrant objects: the cones of morphisms between sums of T vertices,
    defined here by the approximation criterion (the minimal left
    perp-approximation of an indecomposable lands in add sigma T); cones
    are closed under sums and summands, so the cofibrant indecomposables
    generate the whole list.  The sweep that recovers the cones through
    exact cone fingerprints is a test oracle, not part of the build;
  * cylinders, path objects, right homotopies, homotopy inverses; these,
    the tautological approximations and both factorizations are block
    matrices such as [f a], [1; 0] and [[1, h], [1, 0]], assembled by
    ``addcat.block_mor``;
  * both factorizations and cofibrant replacements, each returned with
    certified factors and exact composite equality.  The replacement search
    tests a candidate's morphisms in chunks, in the same enumeration order
    as a one-by-one search, through batched ranks of Hom(w, q) for w in T
    and sigma T; the winner is certified by ``classify``.

Tautological and minimal approximations for the named subcategories and
cofibrant replacements are memoized per object on the ``RigidStructure``,
so they live and die with it; callers must not mutate what they return.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import addcat as ac
from .addcat import Mor, Obj
from .exactlin import (array_rref, array_solve, batch_rank, fast_rank,
                       ragged_rank)
from .meshcat import MeshCategory


class NotRigidError(ValueError):
    def __init__(self, pair):
        self.pair = pair
        super().__init__(
            f"not rigid: dim Hom({pair[0]!r}, sigma {pair[1]!r}) != 0"
        )


@dataclass
class EnumParams:
    """Enumeration bounds; the defaults are sized for desk-scale categories.

    One rule, ``addcat.coeff_chunks``, decides what the replacement search,
    the generating-family oracle and the lemma suite see of a Hom space of
    dimension d: all of it while d <= enum_exp_cap, else sample_count draws
    seeded by seed.  A space taken in one piece holds at most
    2^enum_exp_cap morphisms; a larger one is a failed check."""

    ts_total: int = 4            # summand bound for the cofibrant-object list
    enum_exp_cap: int = 20
    sample_count: int = 500
    seed: int = 0


@dataclass
class Classification:
    weq: bool
    fib: bool
    wfib: bool
    wcof: bool
    retraction: Mor | None = None
    complement: Obj | None = None

    def as_dict(self) -> dict:
        return {"weq": self.weq, "fib": self.fib,
                "wfib": self.wfib, "wcof": self.wcof}


@dataclass
class FactorPair:
    first: Mor
    second: Mor
    first_class: Classification
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

    def __init__(self, cat: MeshCategory, t_ind, params: EnumParams | None = None):
        self.cat = cat
        self.params = params or EnumParams()
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
        self._ideal_cache: dict = {}
        self._taut_cache: dict = {}
        self._approx_cache: dict = {}
        self._replacement_cache: dict = {}
        self._eps_verified: set = set()
        self._ts_t_fps = None    # dim Hom(t, cand), t in T, cand in ts_list
        self._enumerate_ts()

    # ------------------------------------------------------------- subcats

    def subcat(self, name) -> tuple[str, ...]:
        if isinstance(name, str):
            try:
                return {"T": self.t_ind, "sigmaT": self.sigma_t_ind,
                        "perp": self.perp_ind}[name]
            except KeyError:
                raise ValueError(f"unknown subcategory spec {name!r}") from None
        return tuple(sorted(set(name)))

    # -------------------------------------------------------------- ideals

    def _ideal_pair(self, key, u: str, v: str):
        """Row space (rref rows, pivots) of the ideal subspace of Hom(u, v)."""
        ck = (key, u, v)
        hit = self._ideal_cache.get(ck)
        if hit is not None:
            return hit
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
        self._ideal_cache[ck] = (red, pivots)
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

    def ideal_witness(self, f: Mor, key):
        """(lam, h) with h . lam = f through the tautological left
        approximation lam of dom f, or None when f is not in the ideal."""
        if not self.ideal_membership(f, key):
            return None
        lam = self.tautological_approx(f.dom, "left", key)
        a = ac.right_mul_matrix(lam, f.cod)
        x = array_solve(a, ac.mor_to_vec(f), self.cat.field.p)
        if x is None:
            raise AssertionError("ideal member failed to factor through "
                                 "the tautological approximation")
        h = ac.vec_to_mor(self.cat, lam.cod, f.cod, x)
        return lam, h

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

    def tautological_approx(self, x: Obj, side: str, key) -> Mor:
        """Right: bundle a basis of every Hom(u, x), u in the subcategory;
        left: dual.  Approximation property holds by construction."""
        if isinstance(key, str):
            ck = (x.summands, side, key)
            hit = self._taut_cache.get(ck)
            if hit is None:
                hit = self._taut_cache[ck] = \
                    self._tautological_approx(x, side, key)
            return hit
        return self._tautological_approx(x, side, key)

    def _tautological_approx(self, x: Obj, side: str, key) -> Mor:
        """One copy of u per basis class of Hom(u, x_j) (right) or
        Hom(x_j, u) (left), mapped to x_j (from x_j) by that class."""
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

    def is_approximation(self, f: Mor, side: str, key) -> bool:
        cat = self.cat
        if side == "right":
            x = f.cod
            return all(
                fast_rank(ac.left_mul_matrix(f, Obj((u,))), cat.field.p)
                == ac.hom_space_dim(cat, Obj((u,)), x)
                for u in self.subcat(key)
            )
        x = f.dom
        return all(
            fast_rank(ac.right_mul_matrix(f, Obj((u,))), cat.field.p)
            == ac.hom_space_dim(cat, x, Obj((u,)))
            for u in self.subcat(key)
        )

    def approx(self, x: Obj, side: str, key) -> Mor:
        """Minimal left/right approximation of x by the subcategory.

        The tautological bundle is the correctness anchor; minimization drops
        summand copies greedily in vertex-then-copy order while the
        approximation property survives.  Minimal approximations for a named
        subcategory are memoized per object; callers must not mutate them.
        """
        f = self.tautological_approx(x, side, key)
        if not isinstance(key, str):
            return self._minimize(f, side, key)
        ck = (x.summands, side, key)
        hit = self._approx_cache.get(ck)
        if hit is None:
            hit = self._approx_cache[ck] = self._minimize(f, side, key)
        return hit

    def _minimize(self, f: Mor, side: str, key) -> Mor:
        """Greedy minimization of an approximation f, on matrices.

        For each u in the subcategory, Hom(u, f) (right side) or Hom(f, u)
        (left side) has one column group per summand of the approximating
        object, so dropping summand k deletes group k, and f stays an
        approximation iff every such matrix keeps full row rank.  Dropping
        more only lowers a rank, so a summand whose drop once failed can
        never be dropped later, and one forward pass makes the same drops as
        rescanning from the first summand after each drop would.
        """
        cat = self.cat
        p = cat.field.p
        right = side == "right"
        a = f.dom if right else f.cod
        checks = []
        for u in self.subcat(key):
            uo = Obj((u,))
            if right:
                m = ac.left_mul_matrix(f, uo)
                layout = ac.hom_layout(cat, uo, a)[0]
            else:
                m = ac.right_mul_matrix(f, uo)
                layout = ac.hom_layout(cat, a, uo)[0]
            group = np.empty(m.shape[1], dtype=np.int64)
            for ij, off, d in layout:
                group[off:off + d] = ij[0] if right else ij[1]
            checks.append((m, group))
        keep = np.ones(len(a), dtype=bool)
        for k in range(len(a)):
            keep[k] = False
            if not all(fast_rank(m[:, keep[group]], p) == m.shape[0]
                       for m, group in checks):
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
        cat = self.cat
        p = cat.field.p
        weq = True
        for t in self.t_ind:
            m = ac.left_mul_matrix(f, Obj((t,)))
            if m.shape[0] != m.shape[1] or fast_rank(m, p) != m.shape[0]:
                weq = False
                break
        fib = True
        for t in self.t_ind:
            m = ac.left_mul_matrix(f, Obj((cat.sigma_vertex(t),)))
            if fast_rank(m, p) != m.shape[0]:
                fib = False
                break
        retraction = None
        complement = self.split_mono_complement(f.dom, f.cod)
        if complement is not None:
            retraction = ac.find_retraction(f)
            if retraction is None:
                complement = None
        return Classification(weq, fib, weq and fib, retraction is not None,
                              retraction, complement)

    def split_mono_complement(self, x: Obj, y: Obj) -> Obj | None:
        """y - x when a morphism x -> y may be a weak cofibration, else None.

        Split monos force a sub-multiset codomain (Krull-Schmidt), and the
        complement must lie in add sigma T; this depends on (x, y) alone and
        prunes the retraction solve."""
        cx, cy = x.counter(), y.counter()
        if any(cx[v] > cy.get(v, 0) for v in cx):
            return None
        rest = ac.multiset_sub(y, x)
        if any(v not in self.sigma_t_ind for v in rest.summands):
            return None
        return rest

    def class_masks(self, spaces) -> list[tuple[np.ndarray, np.ndarray]]:
        """``classify``'s (weq, fib) flags for every morphism of every
        (x, y, coeffs) of spaces, whose rows are morphisms x -> y in
        hom_layout coordinates.  Hom(w, f) for w in T and sigma T must be
        square (T only) and of full row rank; all of them, over all spaces,
        are ranked together."""
        p = self.cat.field.p
        nt = len(self.t_ind)
        ws = [Obj((t,)) for t in self.t_ind] + \
            [Obj((self.cat.sigma_vertex(t),)) for t in self.t_ind]
        mats = [ac.apply_tensor(ac.left_mul_tensor(self.cat, w, x, y),
                                coeffs, p)
                for x, y, coeffs in spaces for w in ws]
        full = [r == m.shape[1] for r, m in zip(ragged_rank(mats, p), mats)]
        out = []
        for k in range(0, len(mats), len(ws)):
            square = all(m.shape[1] == m.shape[2] for m in mats[k:k + nt])
            out.append((np.logical_and.reduce(full[k:k + nt]) & square,
                        np.logical_and.reduce(full[k + nt:k + len(ws)])))
        return out

    # ------------------------------------------------------ cofibrant objects

    def _approx_criterion_cofibrant(self, v: str) -> bool:
        """The definition of a cofibrant vertex: its minimal left
        perp-approximation lands in the additive closure of sigma T."""
        f = self.approx(Obj((v,)), "left", "perp")
        return all(u in self.sigma_t_ind for u in f.cod.summands)

    def _enumerate_ts(self) -> None:
        self.ts_ind = tuple(sorted(v for v in self.cat.verts
                                   if self._approx_criterion_cofibrant(v)))
        self.ts_list = [
            Obj(ms) for n in range(self.params.ts_total + 1)
            for ms in itertools.combinations_with_replacement(self.ts_ind, n)]

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
        m = ac.block_mor(cat, [y, u], [y], [[idy], [None]])
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
        s = ac.block_mor(cat, [x], [x, u], [[idx, None]])
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
        m = ac.block_mor(cat, [y, w], [y], [[idy], [None]])
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
        first = ac.block_mor(cat, [f.dom, a.dom], [f.dom],
                             [[ac.identity(cat, f.dom)], [None]])
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
        codomain; needs a cofibrant domain."""
        cat = self.cat
        if not self.is_cofibrant(f.dom):
            raise ValueError("domain not cofibrant")
        qy_obj, q = self.cofibrant_replacement(f.cod)
        sol = array_solve(ac.left_mul_matrix(q, f.dom),
                          ac.mor_to_vec(f), cat.field.p)
        if sol is None:
            raise AssertionError("no lift through the cofibrant replacement")
        ft = ac.vec_to_mor(cat, f.dom, qy_obj, sol)
        eps = self.approx(f.dom, "left", "perp")
        # the approximation is memoized, so one verification per domain
        # covers every later call
        if f.dom.summands not in self._eps_verified:
            if not all(v in self.sigma_t_ind for v in eps.cod.summands):
                raise AssertionError("epsilon verification failed: target "
                                     f"{eps.cod.summands} outside add "
                                     "sigma T")
            if not self.is_approximation(eps, "left", "perp"):
                raise AssertionError("epsilon verification failed: not a "
                                     "left perp approximation")
            self._eps_verified.add(f.dom.summands)
        first = ac.block_mor(cat, [qy_obj, eps.cod], [f.dom], [[ft], [eps]])
        second = ac.block_mor(cat, [f.cod], [qy_obj, eps.cod], [[q, None]])
        assert ac.compose(second, first) == f
        c1 = self.classify(first)
        c2 = self.classify(second)
        if not c2.wfib:
            raise AssertionError("second factor failed certification")
        return FactorPair(first, second, c1, c2)

    def cofibrant_replacement(self, x: Obj) -> tuple[Obj, Mor]:
        """Minimal cofibrant object with a certified trivial fibration onto x.

        Candidates are filtered by the Hom(t, -) dimension fingerprint and
        searched in size order, so the first hit is minimal by summand count
        with lexicographic tie-breaking.  Within a candidate the morphisms are
        tried in ``addcat.coeff_chunks`` order, many at once, and the first
        trivial fibration is the answer; it is certified by ``classify``
        before it is returned.
        Results are memoized per object; callers must not mutate them.
        """
        hit = self._replacement_cache.get(x.summands)
        if hit is None:
            hit = self._replacement_cache[x.summands] = \
                self._cofibrant_replacement(x)
        return hit

    def _cofibrant_replacement(self, x: Obj) -> tuple[Obj, Mor]:
        cat = self.cat
        if self.is_cofibrant(x):
            return x, ac.identity(cat, x)
        # a weak equivalence needs dim Hom(t, cand) == dim Hom(t, x) for t in T
        t_rows = [cat.vidx[t] for t in self.t_ind]
        if self._ts_t_fps is None:
            self._ts_t_fps = np.array(
                [ac.hom_fingerprint(cat, c)[t_rows] for c in self.ts_list],
                dtype=np.int64).reshape(len(self.ts_list), len(t_rows))
        want = ac.hom_fingerprint(cat, x)[t_rows]
        for k in np.flatnonzero((self._ts_t_fps == want).all(axis=1)):
            cand = self.ts_list[k]
            vec = self._first_wfib(cand, x)
            if vec is None:
                continue
            q = ac.vec_to_mor(cat, cand, x, vec)
            if not self.classify(q).wfib:
                raise AssertionError("batched replacement search returned a "
                                     "morphism that is not a trivial "
                                     "fibration")
            return cand, q
        raise RuntimeError("no replacement found within budget")

    def _first_wfib(self, cand: Obj, x: Obj):
        """Coefficient vector of the first trivial fibration cand -> x in
        search order, or None.  The caller matched dim Hom(t, -) for t in T,
        so every Hom(t, q) is square.

        Rows are tested in chunks: a row survives vertex w while Hom(w, q)
        keeps full row rank, so what survives every t and sigma t is
        exactly what ``classify`` calls a trivial fibration."""
        cat = self.cat
        p = cat.field.p
        d = ac.hom_space_dim(cat, cand, x)
        checks = [ac.left_mul_tensor(cat, Obj((w,)), cand, x)
                  for w in self.t_ind + tuple(cat.sigma_vertex(t)
                                              for t in self.t_ind)]
        # most searches end within the first rows, so chunks start small
        for rows, _ in ac.coeff_chunks(p, d, self.params.enum_exp_cap,
                                       self.params.sample_count,
                                       self.params.seed, first=16):
            for lt in checks:
                if lt.shape[1]:
                    rows = rows[batch_rank(ac.apply_tensor(lt, rows, p), p)
                                == lt.shape[1]]
                if not len(rows):
                    break
            if len(rows):
                return rows[0]
        return None


def build_rigid(cat: MeshCategory, t_ind, params: EnumParams | None = None) -> RigidStructure:
    return RigidStructure(cat, t_ind, params)


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
