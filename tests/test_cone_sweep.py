"""The cone sweep: the test oracle for the cofibrant indecomposables.

``RigidStructure`` defines a cofibrant vertex by the approximation
criterion: its minimal left perp-approximation lands in add sigma T.  The
cofibrant objects are also the cones of morphisms alpha: T1 -> T0 between
sums of T vertices, and this module recovers them that way.  It sweeps the
radical morphisms of side pairs (T1, T0), reads each cone's multiset off its
fingerprint, dim Hom(u, cone alpha) = dim coker Hom(u, alpha)
+ dim ker Hom(u, sigma alpha) for every vertex u, and checks the dual
fingerprint dim Hom(cone alpha, w).  A blind sweep covers every pair of
small sides; each vertex the criterion calls cofibrant but the blind sweep
missed is hunted as the cone of some morphism into the source of its minimal
right T-approximation.  Any inconsistency is recorded as a disagreement.
"""

import itertools

import numpy as np
import pytest

from trimodel import addcat as ac
from trimodel import meshcat as mc
from trimodel import rigidmodel as rm
from trimodel.addcat import Mor, Obj
from trimodel.exactlin import PrimeField, fast_rank

from helpers import sigma_mor


def _multisets(items, mult_bound, total_bound):
    """All multisets over items with the given bounds, ordered by size."""
    out = [()]
    for n in range(1, total_bound + 1):
        for combo in itertools.combinations_with_replacement(sorted(items), n):
            if all(combo.count(v) <= mult_bound for v in set(combo)):
                out.append(combo)
    return out


class ConeSweep:
    """One sweep over a rigid structure; ``run`` returns the cofibrant
    vertices it found, and ``disagreements`` lists what did not fit."""

    def __init__(self, rigid: rm.RigidStructure, mult_bound: int = 2,
                 side_total: int = 4, blind_side_total: int = 2,
                 pair_cap_exp: int = 14):
        self.rigid = rigid
        self.cat = rigid.cat
        self.mult_bound = mult_bound          # multiplicity per T vertex
        self.side_total = side_total          # summands per targeted side
        self.blind_side_total = blind_side_total  # summands per blind side
        self.pair_cap_exp = pair_cap_exp      # exhaust Hom(T1, T0) to p^this
        self.disagreements: list[str] = []
        self._tensor_cache: dict = {}
        self._seen_fps: set[tuple] = set()

    def cone_tensors(self, t1: tuple, t0: tuple):
        """Tensors for batched cone fingerprints of morphisms T1 -> T0.

        Same-vertex blocks of Hom(T1, T0) carry only the identity class, so
        the radical part is the rest of the hom_layout coordinates, listed
        in ``radical``.  ``sig`` maps layout coordinates of alpha to those of
        sigma alpha, and for each vertex u, K[u] and KS[u] are the
        ``left_mul_tensor`` of Hom(u, -) on Hom(T1, T0) and on
        Hom(sigma T1, sigma T0)."""
        key = (t1, t0)
        hit = self._tensor_cache.get(key)
        if hit is not None:
            return hit
        cat = self.cat
        x1, x0 = Obj(t1), Obj(t0)
        sx1, sx0 = ac.sigma_obj(cat, x1), ac.sigma_obj(cat, x0)
        lay, d = ac.hom_layout(cat, x1, x0)
        # sigma preserves Hom dimensions, so Hom(sx1, sx0) has the same
        # layout and sigma acts blockwise through sigma_map
        assert ac.hom_layout(cat, sx1, sx0)[0] == lay
        radical = []
        sig = np.zeros((d, d), dtype=np.int64)
        for (i, j), off, dd in lay:
            if t1[j] != t0[i]:
                radical.extend(range(off, off + dd))
            sig[off:off + dd, off:off + dd] = cat.sigma_map[(t1[j], t0[i])]
        hit = self._tensor_cache[key] = (
            radical, sig,
            [ac.left_mul_tensor(cat, Obj((u,)), x1, x0) for u in cat.verts],
            [ac.left_mul_tensor(cat, Obj((u,)), sx1, sx0)
             for u in cat.verts])
        return hit

    def batch_cone_fps(self, t1: tuple, t0: tuple,
                       rows: np.ndarray) -> np.ndarray:
        """Cone fingerprints for a batch of coefficient rows of Hom(T1, T0)
        in hom_layout coordinates."""
        cat = self.cat
        p = cat.field.p
        _, sig, ks, kss = self.cone_tensors(t1, t0)
        n, d = rows.shape
        srows = rows @ sig.T % p
        fp = np.zeros((n, len(cat.verts)), dtype=np.int64)
        for ui in range(len(cat.verts)):
            _, d0, d1 = ks[ui].shape
            _, sd0, sd1 = kss[ui].shape
            base = d0 + sd1
            if d0 * d1:
                mats = (rows @ ks[ui].reshape(d, d0 * d1)).reshape(
                    n, d0, d1) % p
                ranks1 = [fast_rank(mats[i], p) for i in range(n)]
            else:
                ranks1 = [0] * n
            if sd0 * sd1:
                smats = (srows @ kss[ui].reshape(d, sd0 * sd1)).reshape(
                    n, sd0, sd1) % p
                ranks2 = [fast_rank(smats[i], p) for i in range(n)]
            else:
                ranks2 = [0] * n
            fp[:, ui] = base - np.array(ranks1) - np.array(ranks2)
        return fp

    def cone_fingerprint_dual(self, alpha: Mor) -> np.ndarray:
        """dim Hom(cone alpha, w) for every w; consistency check of the
        covariant computation."""
        cat = self.cat
        p = cat.field.p
        salpha = sigma_mor(alpha)
        fp = np.zeros(len(cat.verts), dtype=np.int64)
        for wi, w in enumerate(cat.verts):
            wo = Obj((w,))
            m1 = ac.right_mul_matrix(alpha, wo)
            m2 = ac.right_mul_matrix(salpha, wo)
            fp[wi] = (m1.shape[1] - fast_rank(m1, p)) \
                + (m2.shape[0] - fast_rank(m2, p))
        return fp

    def fingerprint_solutions(self, fp: np.ndarray, limit: int = 3,
                              allowed=None) -> list[tuple]:
        """Multisets x with sum of Hom(-, x) dimensions equal to fp.

        Exhaustive bounded search with pruning; limit caps how many
        solutions are produced (enough to detect ambiguity).  ``allowed``
        restricts the support."""
        cat = self.cat
        n = len(cat.verts)
        usable = [allowed is None or v in set(allowed) for v in cat.verts]
        # suffix coverage: a leftover fingerprint entry with no remaining
        # column touching it prunes the branch
        cover = np.zeros((n + 1, n), dtype=bool)
        for idx in range(n - 1, -1, -1):
            cover[idx] = cover[idx + 1]
            if usable[idx]:
                cover[idx] = cover[idx] | (cat.dims[:, idx] > 0)
        sols: list[tuple] = []

        def rec(idx, remaining, acc):
            if len(sols) >= limit:
                return
            if not np.any(remaining):
                sols.append(tuple(acc))
                return
            if idx == n or np.any((remaining > 0) & ~cover[idx]):
                return
            if not usable[idx]:
                rec(idx + 1, remaining, acc)
                return
            v = cat.verts[idx]
            col = cat.dims[:, idx]
            nz = col > 0
            max_m = int((remaining[nz] // col[nz]).min()) if nz.any() else 0
            for m in range(max_m, -1, -1):
                rec(idx + 1, remaining - m * col, acc + [v] * m)

        rec(0, np.asarray(fp, dtype=np.int64).copy(), [])
        return sorted(tuple(sorted(s)) for s in sols)

    def cones_of_pair(self, t1: tuple, t0: tuple, found: set,
                      ambiguous: set, stop_fp=None) -> bool:
        """Sweep the radical morphisms of one side pair in batches.

        Records recovered cone multisets; with stop_fp set, returns True as
        soon as some cone has exactly that fingerprint."""
        cat = self.cat
        radical = self.cone_tensors(t1, t0)[0]
        x1, x0 = Obj(t1), Obj(t0)
        d = ac.hom_space_dim(cat, x1, x0)
        for coeff_rows, _ in ac.coeff_chunks(
                cat.field.p, len(radical), self.pair_cap_exp,
                rm.SAMPLE_COUNT, self.rigid.seed, first=1024):
            rows = np.zeros((len(coeff_rows), d), dtype=np.int64)
            rows[:, radical] = coeff_rows
            fps = self.batch_cone_fps(t1, t0, rows)
            for rown in range(fps.shape[0]):
                key = tuple(int(x) for x in fps[rown])
                if stop_fp is not None and key == stop_fp:
                    return True
                if key in self._seen_fps:
                    continue
                self._seen_fps.add(key)
                sols = self.fingerprint_solutions(fps[rown], limit=3)
                if not sols:
                    self.disagreements.append(
                        f"cone fingerprint {key} admits no multiset solution")
                    continue
                if len(sols) > 1:
                    # the fingerprint matrix can be singular (type D);
                    # ambiguous cones are re-checked against the final
                    # vertex support
                    ambiguous.add(key)
                    continue
                ms = sols[0]
                alpha = ac.vec_to_mor(cat, x1, x0, rows[rown])
                dual = self.cone_fingerprint_dual(alpha)
                dual_expect = np.zeros(len(cat.verts), dtype=np.int64)
                for v in ms:
                    dual_expect += cat.dims[cat.vidx[v], :]
                if not np.array_equal(dual, dual_expect):
                    self.disagreements.append(
                        f"cone fingerprint dual mismatch for {ms}")
                found.add(ms)
        return False

    def run(self) -> tuple[str, ...]:
        rigid = self.rigid
        cat = self.cat
        found: set[tuple] = set()
        ambiguous: set[tuple] = set()
        blind = _multisets(rigid.t_ind, self.mult_bound,
                           self.blind_side_total)
        for t1 in blind:
            for t0 in blind:
                self.cones_of_pair(t1, t0, found, ambiguous)
        vertices = {v for ms in found for v in ms}
        # every vertex is settled by a targeted enumeration: a cofibrant
        # vertex v is the cone of some morphism into its minimal right
        # T-approximation source, and a single-vertex cone fingerprint is
        # never ambiguous (fingerprint-kernel vectors have mixed signs on
        # several vertices), so the hunt is conclusive
        sides = _multisets(rigid.t_ind, self.mult_bound, self.side_total)
        for v in cat.verts:
            crit = rigid._approx_criterion_cofibrant(v)
            if crit and v not in vertices:
                t0_mor = rigid.approx(Obj((v,)), "right", "T")
                t0 = tuple(sorted(t0_mor.dom.summands))
                target = tuple(int(x) for x in cat.dims[:, cat.vidx[v]])
                if any(self.cones_of_pair(t1, t0, found, ambiguous,
                                          stop_fp=target) for t1 in sides):
                    found.add((v,))
                    vertices.add(v)
            if crit != (v in vertices):
                self.disagreements.append(
                    f"cofibrancy cross-check disagreement at vertex {v!r}: "
                    f"cone enumeration says {v in vertices}, "
                    f"approximation criterion says {crit}")
        for key in sorted(ambiguous):
            fp = np.array(key, dtype=np.int64)
            if not self.fingerprint_solutions(fp, limit=1, allowed=vertices):
                self.disagreements.append(
                    f"ambiguous cone fingerprint {key} is not realizable "
                    "over the enumerated cofibrant vertices")
        return tuple(sorted(vertices))


def _assert_sweep_agrees(rigids):
    for t, rigid in rigids.items():
        sweep = ConeSweep(rigid)
        vertices = sweep.run()
        assert not sweep.disagreements, (t, sweep.disagreements)
        assert vertices == rigid.ts_ind, t
        assert rigid.ts_list == [Obj(ms) for ms in _multisets(
            vertices, rm.TS_TOTAL, rm.TS_TOTAL)], t


@pytest.mark.parametrize("name", ["a2", "a3", "d4"])
def test_cone_sweep_agrees_with_criterion_char_2(name, request):
    _assert_sweep_agrees(request.getfixturevalue(f"rigids_{name}"))


# D4 at p = 3 is left out: its sweep takes about 80 s on a 2-CPU machine
@pytest.mark.parametrize("rank", [2, 3])
def test_cone_sweep_agrees_with_criterion_char_3(rank):
    cat = mc.build_type_a(rank, PrimeField(3))
    _assert_sweep_agrees({t: rm.build_rigid(cat, t)
                          for t in rm.all_rigid_subsets(cat)})
