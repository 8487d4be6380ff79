"""Exact linear algebra over a small prime field F_p.

Every Hom-space question elsewhere in the package reduces to rank / solve /
kernel computations done here.  Matrices are dense int64 numpy arrays with
entries kept reduced to [0, p); arithmetic is exact, so every downstream
equality is an honest equality (no tolerances anywhere).

Every function takes plain arrays and the characteristic: ``array_rref``
and what is built on it (solve, kernel, inverse, and at odd p
``fast_rank``, the one rank of a single matrix); and ``batch_rank``, which
takes the ranks of a whole (n, r, c) stack of matrices at once, for
searches and suites that test many morphisms together; it eliminates in
int16, which is exact because p <= ``MAX_CHAR`` keeps every product in a
row update below 2^15.
At p = 2, ``fast_rank`` and ``array_solve`` pack each row into an int and
eliminate by xor (``_xor_echelon``), with the answers of the RREF, and
``batch_rank`` packs each row of a stack into a uint64 word and eliminates
the whole stack by xor (``_xor_rank``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_CHAR = 97


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field F_p.  p is capped so exhaustive enumeration stays feasible."""

    p: int = 2

    def __post_init__(self) -> None:
        if not (2 <= self.p <= MAX_CHAR) or not _is_prime(self.p):
            raise ValueError(
                f"characteristic must be a prime in [2, {MAX_CHAR}], got {self.p}"
            )

    def inv(self, x: int) -> int:
        x %= self.p
        if x == 0:
            raise ZeroDivisionError("0 is not invertible")
        return pow(x, -1, self.p)


def _as_matrix(a, p: int) -> np.ndarray:
    m = np.asarray(a, dtype=np.int64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {m.shape}")
    return m % p


def array_rref(a, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_p.

    Pivots are chosen leftmost-column first, lowest row index first, so the
    result (and everything derived from it) is deterministic.
    """
    m = _as_matrix(a, p)
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, p)) % p
        other = np.nonzero(m[:, c])[0]
        other = other[other != r]
        if other.size:
            m[other] = (m[other] - np.outer(m[other, c], m[r])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def array_solve(a, b, p: int):
    """One solution of A x = b over F_p, or None if inconsistent.

    Free variables are pinned to 0 under lowest-index pivoting, which makes
    the returned solution canonical.  At p = 2 the same solution comes from
    packed rows (``_solve_packed``).
    """
    m = _as_matrix(a, p)
    rhs = np.asarray(b, dtype=np.int64) % p
    if rhs.ndim != 1 or rhs.shape[0] != m.shape[0]:
        raise ValueError(
            f"dimension mismatch: A has {m.shape[0]} rows, b has shape {rhs.shape}"
        )
    if p == 2:
        return _solve_packed(m, rhs)
    aug = np.concatenate([m, rhs[:, None]], axis=1)
    red, pivots = array_rref(aug, p)
    n = m.shape[1]
    if n in pivots:
        return None
    x = np.zeros(n, dtype=np.int64)
    for row, c in enumerate(pivots):
        x[c] = red[row, n]
    return x


def _solve_packed(m: np.ndarray, rhs: np.ndarray):
    """``array_solve`` over F_2 of the reduced system A x = b: the rows of
    [A | b] are packed into ints, column c of A at bit n - c and b at bit
    0, and eliminated by xor (``_xor_echelon``).

    The leading bits of an echelon basis of the row space are the pivot
    columns of the RREF, as both depend on the row space alone.  A pivot at
    bit 0 means the system is inconsistent.  Otherwise back-substitution
    from the lowest pivot up, with the free variables 0, gives the one
    solution that is 0 on the free columns, which is the RREF one."""
    n = m.shape[1]
    pivots = _xor_echelon([(w << 1) | t for w, t in
                           zip(_pack_rows(m), rhs.tolist())])
    if 1 in pivots:
        return None
    x = 1    # bit 0 stands for b, so a row's parity against x is b - A x
    for lead in sorted(pivots):
        if (pivots[lead] & x).bit_count() & 1:
            x |= 1 << (lead - 1)
    return np.array([(x >> k) & 1 for k in range(n, 0, -1)], dtype=np.int64)


_POW2_CACHE: dict[int, np.ndarray] = {}


def _pack_rows(m: np.ndarray) -> list[int]:
    """The rows of a 0/1 int64 matrix as Python ints, column c at bit
    (columns - 1 - c)."""
    cols = m.shape[1]
    if cols > 62:
        pows = [1 << k for k in range(cols - 1, -1, -1)]
        return [sum(pw for pw, v in zip(pows, row) if v)
                for row in m.tolist()]
    pows = _POW2_CACHE.get(cols)
    if pows is None:
        pows = _POW2_CACHE[cols] = \
            1 << np.arange(cols - 1, -1, -1, dtype=np.int64)
    return (m @ pows).tolist()


def _xor_echelon(words: list[int]) -> dict[int, int]:
    """An echelon basis over F_2 of the rows packed in words, each keyed by
    the bit length of its leading bit: the elimination of the p = 2 paths
    of ``array_solve`` and ``fast_rank``."""
    pivots: dict[int, int] = {}
    for word in words:
        while word:
            lead = word.bit_length()
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = word
                break
            word ^= piv
    return pivots


def array_kernel(a, p: int) -> list[np.ndarray]:
    """Basis of the null space, ordered by free-column index."""
    m = _as_matrix(a, p)
    red, pivots = array_rref(m, p)
    n = m.shape[1]
    pivot_set = set(pivots)
    basis = []
    for j in range(n):
        if j in pivot_set:
            continue
        v = np.zeros(n, dtype=np.int64)
        v[j] = 1
        for row, c in enumerate(pivots):
            v[c] = (-red[row, j]) % p
        basis.append(v)
    return basis


def array_inverse(a, p: int):
    """Inverse of a square matrix over F_p, or None if singular."""
    m = _as_matrix(a, p)
    n = m.shape[0]
    if m.shape[1] != n:
        raise ValueError("inverse of a non-square matrix")
    aug = np.concatenate([m, np.eye(n, dtype=np.int64)], axis=1)
    red, pivots = array_rref(aug, p)
    if pivots != list(range(n)):
        return None
    return red[:, n:]


# cells per elimination pass of batch_rank: larger stacks run in slices,
# which keeps the working copy small and cache-resident
BATCH_CELLS = 1 << 16


def fast_rank(a, p: int) -> int:
    """Rank of a matrix: at p = 2 rows are packed into Python ints and
    eliminated by xor (``_xor_echelon``), for odd p it is the pivot count
    of ``array_rref``."""
    m = np.asarray(a, dtype=np.int64)
    if m.ndim != 2:
        raise ValueError("expected a 2-d array")
    rows_n, cols = m.shape
    if rows_n == 0 or cols == 0:
        return 0
    if p == 2:
        return len(_xor_echelon(_pack_rows(m & 1)))
    return len(array_rref(m, p)[1])


def batch_rank(stack, p: int) -> np.ndarray:
    """Rank of every matrix in an (n, r, c) stack, as an int64 array.

    At p = 2, when both sides are at most 64, each row is packed into one
    uint64 word and eliminated by xor (``_xor_rank``); otherwise by
    ``_int16_rank``.  Stacks of more than ``BATCH_CELLS`` cells are ranked
    slice by slice.
    """
    m = np.asarray(stack)
    if m.ndim != 3:
        raise ValueError(f"expected an (n, r, c) stack, got shape {m.shape}")
    n, r, c = m.shape
    if n == 0 or r == 0 or c == 0:
        return np.zeros(n, dtype=np.int64)
    per = max(1, BATCH_CELLS // (r * c))
    if p == 2 and max(r, c) <= 64:
        rank = _xor_rank
    else:
        def rank(part):
            return _int16_rank(part, p)
    if n > per:
        return np.concatenate([rank(m[i:i + per])
                               for i in range(0, n, per)])
    return rank(m)


def _int16_rank(m: np.ndarray, p: int) -> np.ndarray:
    """``batch_rank`` by elimination one column at a time, vectorized across
    the stack: the first row holding the column is the pivot, it is scaled
    to 1 and cleared out of every row holding the column (itself included,
    which retires it), and each matrix with a pivot gains one rank.  The
    shorter side is taken as the columns, so the loop runs min(r, c) times.
    The working copy is int16: entries stay in [0, p) and p <= MAX_CHAR =
    97, so a product in the row update is at most 96^2 = 9216 and a
    difference at least -9216."""
    n, r, c = m.shape
    if c > r:
        m, c = m.transpose(0, 2, 1), r
    m = np.ascontiguousarray(m % p, dtype=np.int16)
    rank = np.zeros(n, dtype=np.int64)
    at = np.arange(n)
    inv = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int16)
    for k in range(c):
        col = m[:, :, k]
        hold = col != 0
        pivot = m[at, hold.argmax(axis=1)]
        pivot = pivot * inv[pivot[:, k]][:, None] % p
        m = (m - col[:, :, None] * pivot[:, None, :]) % p
        rank += hold.any(axis=1)
    return rank


def _xor_rank(m: np.ndarray) -> np.ndarray:
    """``batch_rank`` over F_2 of a stack with both sides at most 64.  The
    longer side is packed into one uint64 word per line (``np.packbits``;
    any fixed order of the bits gives the same rank), and the lines are
    eliminated in order: a nonzero line gains a rank, and its lowest set
    bit is cleared from every later line holding it by xor.  Each line
    then holds no pivot bit of an earlier one, so the nonzero lines are
    independent and span the row space."""
    n, r, c = m.shape
    if r > c:
        m, r, c = m.transpose(0, 2, 1), c, r
    packed = np.packbits(np.asarray(m & 1, dtype=np.uint8), axis=2)
    words = np.zeros((n, r, 8), dtype=np.uint8)
    words[:, :, :packed.shape[2]] = packed
    words = words.view(np.uint64)[:, :, 0]
    rank = np.zeros(n, dtype=np.int64)
    for i in range(r):
        line = words[:, i]
        rank += line != 0
        if i + 1 < r:
            low = (line & (~line + np.uint64(1)))[:, None]
            rest = words[:, i + 1:]
            np.bitwise_xor(rest, line[:, None], out=rest,
                           where=(rest & low) != 0)
    return rank


def ragged_rank(stacks, p: int) -> list[np.ndarray]:
    """``batch_rank`` of every (n_i, r_i, c_i) stack of a list: the stacks of
    one matrix shape are concatenated and ranked in one call, so many small
    stacks cost one elimination loop per distinct shape, with no padding."""
    by_shape: dict[tuple, list[int]] = {}
    for i, st in enumerate(stacks):
        by_shape.setdefault(st.shape[1:], []).append(i)
    out: list = [None] * len(stacks)
    for idx in by_shape.values():
        ranks = batch_rank(np.concatenate([stacks[i] for i in idx]), p)
        at = 0
        for i in idx:
            out[i] = ranks[at:at + len(stacks[i])]
            at += len(stacks[i])
    return out
