import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trimodel import exactlin as el


F2 = el.PrimeField(2)


def rref_rank(m, p: int) -> int:
    """The reference rank: the pivot count of ``array_rref``."""
    return len(el.array_rref(m, p)[1])


def test_prime_field_validation():
    el.PrimeField(2)
    el.PrimeField(97)
    with pytest.raises(ValueError):
        el.PrimeField(1)
    with pytest.raises(ValueError):
        el.PrimeField(4)
    with pytest.raises(ValueError):
        el.PrimeField(101)


def test_field_inverse():
    for p in (2, 3, 5, 97):
        f = el.PrimeField(p)
        for x in range(1, p):
            assert (x * f.inv(x)) % p == 1
    with pytest.raises(ZeroDivisionError):
        F2.inv(0)


def test_rank_identity_and_zero():
    for rank in (rref_rank, el.fast_rank):
        assert rank(np.eye(2, dtype=np.int64), 2) == 2
        assert rank(np.zeros((3, 4), dtype=np.int64), 2) == 0


def test_rank_hand_case():
    assert rref_rank([[1, 1], [1, 1]], 2) == 1
    assert el.fast_rank([[1, 1], [1, 1]], 2) == 1


def test_solve_identity():
    b = np.array([2, 3, 4])
    assert np.array_equal(el.array_solve(np.eye(3, dtype=np.int64), b, 5), b)


def test_solve_inconsistent():
    assert el.array_solve(np.zeros((2, 2), dtype=np.int64), [1, 0], 2) \
        is None


def test_solve_free_variables_pinned():
    x = el.array_solve([[1, 1], [0, 0]], [1, 0], 2)
    assert np.array_equal(x, [1, 0])


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        el.array_solve(np.eye(2, dtype=np.int64), [1, 0, 0], 2)


def test_kernel_identity_and_zero():
    assert el.array_kernel(np.eye(3, dtype=np.int64), 2) == []
    assert len(el.array_kernel(np.zeros((2, 3), dtype=np.int64), 2)) == 3


def test_kernel_hand_case():
    ker = el.array_kernel([[1, 1]], 2)
    assert len(ker) == 1
    assert np.array_equal(ker[0], [1, 1])


def test_in_span_cases():
    # span membership of v in the given columns, as a solve of A x = v
    def cols_matrix(cols, dim):
        return (np.stack(cols, axis=1) if cols
                else np.zeros((dim, 0), dtype=np.int64))

    coeffs = el.array_solve(cols_matrix([[1, 0], [0, 1]], 2), [0, 0], 2)
    assert coeffs is not None and not np.any(coeffs)
    assert el.array_solve(cols_matrix([], 2), [1, 0], 2) is None
    coeffs = el.array_solve(cols_matrix([[1, 1], [0, 1]], 2), [1, 0], 2)
    assert np.array_equal(coeffs, [1, 1])


@st.composite
def small_matrix(draw, max_dim=6, ps=(2, 3, 5)):
    p = draw(st.sampled_from(ps))
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    entries = draw(st.lists(st.integers(0, p - 1),
                            min_size=rows * cols, max_size=rows * cols))
    return p, np.array(entries, dtype=np.int64).reshape(rows, cols)


@given(small_matrix())
@settings(max_examples=150, deadline=None)
def test_rank_transpose_invariant(mp):
    p, m = mp
    assert el.fast_rank(m, p) == el.fast_rank(m.T, p)


@given(small_matrix())
@settings(max_examples=150, deadline=None)
def test_rank_nullity(mp):
    p, m = mp
    assert m.shape[1] == el.fast_rank(m, p) + len(el.array_kernel(m, p))


@given(small_matrix())
@settings(max_examples=150, deadline=None)
def test_solve_is_exact(mp):
    p, m = mp
    rng = np.random.default_rng(0)
    x0 = rng.integers(0, p, size=m.shape[1])
    b = (m @ x0) % p
    x = el.array_solve(m, b, p)
    assert x is not None
    assert np.array_equal((m @ x) % p, b)


@given(small_matrix())
@settings(max_examples=100, deadline=None)
def test_kernel_vectors_annihilate(mp):
    p, m = mp
    for v in el.array_kernel(m, p):
        assert not np.any((m @ v) % p)


@given(small_matrix(max_dim=7))
@settings(max_examples=200, deadline=None)
def test_fast_rank_agrees(mp):
    # odd p is the pivot count of array_rref itself, so its independent
    # reference is batch_rank
    p, m = mp
    want = rref_rank(m, p) if p == 2 else int(el.batch_rank(m[None], p)[0])
    assert el.fast_rank(m, p) == want


def rref_solve(a, b, p: int):
    """The reference solve: the RREF of [A | b], free variables 0."""
    n = a.shape[1]
    red, pivots = el.array_rref(np.concatenate([a, b[:, None]], axis=1), p)
    if n in pivots:
        return None
    x = np.zeros(n, dtype=np.int64)
    for row, c in enumerate(pivots):
        x[c] = red[row, n]
    return x


@st.composite
def f2_system(draw):
    """(A, b) over F_2: 0 to 8 rows, 0 to 8 columns or more than 62, and b
    either in the column span of A or drawn freely (often inconsistent)."""
    rows = draw(st.integers(0, 8))
    cols = draw(st.one_of(st.integers(0, 8), st.integers(63, 70)))
    a = np.array(draw(st.lists(st.integers(0, 1), min_size=rows * cols,
                               max_size=rows * cols)),
                 dtype=np.int64).reshape(rows, cols)
    if draw(st.booleans()):
        x0 = np.array(draw(st.lists(st.integers(0, 1), min_size=cols,
                                    max_size=cols)), dtype=np.int64)
        b = a @ x0 % 2
    else:
        b = np.array(draw(st.lists(st.integers(0, 1), min_size=rows,
                                   max_size=rows)), dtype=np.int64)
    return a, b


@given(f2_system())
@example((np.zeros((0, 3), dtype=np.int64), np.zeros(0, dtype=np.int64)))
@example((np.zeros((2, 0), dtype=np.int64), np.array([0, 1])))
@example((np.ones((2, 3), dtype=np.int64), np.array([0, 1])))
@example((np.eye(3, 64, dtype=np.int64), np.array([1, 0, 1])))
@settings(max_examples=300, deadline=None)
def test_packed_solve_agrees_with_rref(ab):
    a, b = ab
    want = rref_solve(a, b, 2)
    got = el.array_solve(a, b, 2)
    if want is None:
        assert got is None
    else:
        assert got.dtype == np.int64 and np.array_equal(got, want)


@st.composite
def matrix_stack(draw):
    """(p, stack): n matrices r x c, each a product through an inner
    dimension k, so that rank-deficient cases are common."""
    p = draw(st.sampled_from((2, 3, 5, 7, 97)))
    n, r, c, k = (draw(st.integers(0, hi)) for hi in (6, 9, 9, 9))
    left = draw(st.lists(st.integers(0, p - 1),
                         min_size=n * r * k, max_size=n * r * k))
    right = draw(st.lists(st.integers(0, p - 1),
                          min_size=n * k * c, max_size=n * k * c))
    stack = (np.array(left, dtype=np.int64).reshape(n, r, k)
             @ np.array(right, dtype=np.int64).reshape(n, k, c)) % p
    return p, stack


@given(matrix_stack())
@settings(max_examples=300, deadline=None)
def test_batch_rank_agrees(ps):
    p, stack = ps
    got = el.batch_rank(stack, p)
    assert got.shape == (stack.shape[0],)
    assert got.tolist() == [rref_rank(m, p) for m in stack]


@st.composite
def f2_stack(draw):
    """An (n, r, c) stack over F_2: 0 to 12 rows, 0 to 64 columns, each
    matrix a product through an inner dimension, so rank-deficient cases
    are common."""
    n, r, c = (draw(st.integers(0, hi)) for hi in (5, 12, 64))
    k = draw(st.integers(0, min(r, c)))
    left = draw(st.lists(st.integers(0, 1), min_size=n * r * k,
                         max_size=n * r * k))
    right = draw(st.lists(st.integers(0, 1), min_size=n * k * c,
                          max_size=n * k * c))
    return (np.array(left, dtype=np.int64).reshape(n, r, k)
            @ np.array(right, dtype=np.int64).reshape(n, k, c)) % 2


@given(f2_stack())
@example(np.zeros((0, 3, 4), dtype=np.int64))
@example(np.zeros((2, 0, 5), dtype=np.int64))
@example(np.zeros((2, 5, 0), dtype=np.int64))
@example(np.ones((3, 1, 64), dtype=np.int64))
@example(np.ones((1, 12, 1), dtype=np.int64))
@example(np.eye(12, 64, dtype=np.int64)[None])
@settings(max_examples=300, deadline=None)
def test_packed_rank_agrees_with_int16_rank(stack):
    """At p = 2 ``batch_rank`` packs rows into words; its ranks are those
    of the int16 elimination that odd p uses, and of the RREF."""
    got = el.batch_rank(stack, 2)
    assert got.dtype == np.int64 and got.shape == (len(stack),)
    assert got.tolist() == el._int16_rank(stack, 2).tolist() \
        == [rref_rank(m, 2) for m in stack]


@pytest.mark.parametrize("p", [2, 3, 97])
@pytest.mark.parametrize("r,c", [(5, 70), (70, 5), (70, 70)])
def test_batch_rank_large_sides(p, r, c):
    """Sides well beyond the property test's range: wide (ranked through
    the transpose), tall and square."""
    rng = np.random.default_rng(r * c + p)
    stack = np.stack([(rng.integers(0, p, size=(r, k))
                       @ rng.integers(0, p, size=(k, c))) % p
                      for k in (0, 3, 40, 70)])
    assert el.batch_rank(stack, p).tolist() == \
        [rref_rank(m, p) for m in stack]


@pytest.mark.parametrize("p", [2, 97])
def test_batch_rank_in_slices_and_ragged(p):
    """A stack larger than BATCH_CELLS is ranked slice by slice, and
    ragged_rank of stacks of mixed shapes equals batch_rank of each."""
    rng = np.random.default_rng(p)
    big = (rng.integers(0, p, size=(3000, 6, 2))
           @ rng.integers(0, p, size=(3000, 2, 5))) % p
    assert big.size > el.BATCH_CELLS
    assert el.batch_rank(big, p).tolist() == \
        [el.fast_rank(m, p) for m in big]
    stacks = [rng.integers(0, p, size=(n, r, c))
              for n, r, c in ((4, 3, 5), (0, 2, 2), (7, 5, 3), (2, 3, 5),
                              (3, 0, 4), (5, 1, 1))]
    got = el.ragged_rank(stacks, p)
    assert [g.tolist() for g in got] == \
        [el.batch_rank(stack, p).tolist() for stack in stacks]


@pytest.mark.parametrize("p,nvecs", [(2, 8), (3, 5)])
def test_in_span_agrees_with_enumeration(p, nvecs):
    rng = np.random.default_rng(3)
    for _ in range(25):
        dim = int(rng.integers(1, 5))
        cols = [rng.integers(0, p, size=dim) for _ in range(nvecs)]
        v = rng.integers(0, p, size=dim)
        brute = False
        for coeffs in itertools.product(range(p), repeat=nvecs):
            combo = sum(c * w for c, w in zip(coeffs, cols)) % p
            if np.array_equal(combo, v):
                brute = True
                break
        coeffs = el.array_solve(np.stack(cols, axis=1), v, p)
        assert (coeffs is not None) == brute
        if brute:
            combo = sum(c * w for c, w in zip(coeffs, cols)) % p
            assert np.array_equal(combo, v)
