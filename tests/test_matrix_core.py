import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dezakit import construct, finite_field, hadamard, matrix_core
from dezakit.matrix_core import (MAX_ORDER, _shift_period, Digraph, SignedMatrix,
                                 SizeBoundError, as_int_matrix, block_circulant,
                                 circulant, exact_matmul, identity, is_zero_one,
                                 kronecker, max_abs, ones, zeros)

from conftest import DEZA_8_3_3_1_0, naive_matmul


def test_kronecker_identity_absorbs():
    b = np.array([[1, 2], [3, 4]], dtype=np.int64)
    assert np.array_equal(kronecker(identity(1), b), b)


def test_kronecker_all_ones():
    assert np.array_equal(kronecker(ones(2), ones(2)), ones(4))


def test_kronecker_mixed_product_rule():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a, b, c, d = (rng.integers(-4, 5, (3, 3)).astype(np.int64) for _ in range(4))
        lhs = naive_matmul(kronecker(a, b), kronecker(c, d))
        rhs = kronecker(naive_matmul(a, c), naive_matmul(b, d))
        assert np.array_equal(lhs, rhs)


def test_kronecker_associative():
    rng = np.random.default_rng(8)
    a, b, c = (rng.integers(-3, 4, (2, 2)).astype(np.int64) for _ in range(3))
    assert np.array_equal(kronecker(kronecker(a, b), c), kronecker(a, kronecker(b, c)))


def test_circulant_shift_cube_is_identity():
    v = circulant([0, 1, 0])
    assert np.array_equal(naive_matmul(naive_matmul(v, v), v), identity(3))


def test_circulant_symmetric_first_row():
    c = circulant([1, 2, 3, 4, 4, 3, 2])
    assert np.array_equal(c, c.T)
    assert c.shape == (7, 7)


def test_circulant_commutes_with_shift():
    rng = np.random.default_rng(9)
    row = rng.integers(-5, 6, 6).astype(np.int64)
    c = circulant(row)
    shift_row = np.zeros(6, dtype=np.int64)
    shift_row[1] = 1
    v = circulant(shift_row)
    assert np.array_equal(naive_matmul(c, v), naive_matmul(v, c))


def test_circulant_transpose_is_reversed_rotation():
    row = np.array([5, 1, 2, 3], dtype=np.int64)
    reversed_rot = np.concatenate([row[:1], row[1:][::-1]])
    assert np.array_equal(circulant(row).T, circulant(reversed_rot))


def test_circulant_rejects_empty():
    with pytest.raises(ValueError):
        circulant([])


@st.composite
def strips(draw):
    """An h x n integer strip with h | n <= 64."""
    n = draw(st.integers(1, 64))
    h = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    return draw(arrays(np.int64, (h, n), elements=st.integers(-2**62, 2**62)))


@given(strips())
def test_block_circulant_index_formula(strip):
    h, n = strip.shape
    m = block_circulant(strip)
    assert np.array_equal(m[:h], strip)
    i, j = np.indices((n, n))
    assert np.array_equal(m, strip[i % h, (j - i + i % h) % n])
    row = strip[0]
    assert np.array_equal(circulant(row), row[(j - i) % n])


@pytest.mark.parametrize("strip", [
    np.arange(4), np.zeros((0, 0)), np.zeros((1, 0)), np.zeros((0, 3)),
    np.zeros((3, 4)), np.zeros((2, 2, 2)),
], ids=["1-D", "0x0", "1x0", "0x3", "3x4", "3-D"])
def test_block_circulant_rejects_bad_shapes(strip):
    with pytest.raises(ValueError):
        block_circulant(strip)


def test_block_circulant_order_bound():
    with pytest.raises(SizeBoundError, match="exceeds the bound"):
        block_circulant(np.zeros((1, MAX_ORDER + 1), dtype=np.int64))


def test_products_identity():
    p = Digraph(identity(4), loops_allowed=True)
    assert np.array_equal(p.square_strip, identity(4))
    assert np.array_equal(block_circulant(p.gram_strip), identity(4))
    assert np.array_equal(block_circulant(p.cogram_strip), identity(4))


def test_products_all_ones():
    p = Digraph(ones(3), loops_allowed=True)
    for g in (p.square_strip, p.gram_strip, p.cogram_strip):
        assert np.array_equal(g, 3 * ones(3))


def test_gram_square_of_reference_example():
    m = DEZA_8_3_3_1_0
    p = Digraph(m)
    s = p.square_strip
    # computed once, of the digraph's own matrix
    assert p.square_strip is s and np.shares_memory(p.strip, p.adjacency)
    assert np.array_equal(block_circulant(p.gram_strip), naive_matmul(m, m.T))
    assert np.array_equal(block_circulant(p.cogram_strip), naive_matmul(m.T, m))
    assert (np.diagonal(s) == 0).all()
    off = s[~np.eye(8, dtype=bool)]
    assert set(int(x) for x in off) == {1, 3}


def test_transpose_of_product():
    rng = np.random.default_rng(11)
    for n in (2, 5, 16):
        a = rng.integers(-3, 4, (n, n)).astype(np.int64)
        b = rng.integers(-3, 4, (n, n)).astype(np.int64)
        assert np.array_equal(exact_matmul(a, b).T, exact_matmul(b.T, a.T))


def test_exact_matmul_matches_naive():
    rng = np.random.default_rng(12)
    a = rng.integers(-7, 8, (9, 9)).astype(np.int64)
    b = rng.integers(-7, 8, (9, 9)).astype(np.int64)
    assert np.array_equal(exact_matmul(a, b), naive_matmul(a, b))


def test_exact_matmul_blas_path_is_exact():
    rng = np.random.default_rng(13)
    a = rng.integers(0, 2, (200, 200)).astype(np.int64)
    b = rng.integers(0, 2, (200, 200)).astype(np.int64)
    assert np.array_equal(exact_matmul(a, b), a @ b)


@pytest.mark.parametrize("amax, bmax, tier", [(511, 256, "float32"), (1023, 255, "float64")])
def test_float32_tier_is_exact_at_its_edge(amax, bmax, tier):
    # inner dimension 128, so the bound is 128 * amax * bmax: just below
    # 2^24 the product takes the float32 tier, in [2^24, 2^25) float64
    bound = 128 * amax * bmax
    assert (bound < 2**24) == (tier == "float32") and 2**23 < bound < 2**25
    rng = np.random.default_rng(amax)
    a = rng.integers(-amax, amax + 1, (128, 128))
    b = rng.integers(-bmax, bmax + 1, (128, 128))
    a[0], a[1] = amax, -amax
    b[:, 0] = bmax
    b[0, 0] = bmax - 1
    want = int64_oracle(a, b)
    corner = bound - amax
    assert want[0, 0] == corner == -want[1, 0] and corner % 2 == 1
    # odd and above 2^24, so float32 cannot hold it: a float32 tier one
    # power of two too wide would round it
    assert (int(np.float32(corner)) != corner) == (tier == "float64")
    assert np.array_equal(exact_matmul(a, b), want)
    assert np.array_equal(exact_matmul(b.T, a.T), want.T)
    # the same corner from the circulant with b's column 0, given as its
    # first row: row 0 is column 0 read upwards
    c = circulant(np.roll(b[::-1, 0], 1))
    want = int64_oracle(a, c)
    assert np.array_equal(c[:, 0], b[:, 0]) and want[0, 0] == corner
    assert np.array_equal(exact_matmul(a, c[:1]), want)


def test_exact_matmul_overflow_guard():
    big = np.full((2, 2), 2**32, dtype=np.int64)
    with pytest.raises(SizeBoundError):
        exact_matmul(big, big)


def test_kronecker_overflow_guard():
    big = np.full((2, 2), 2**33, dtype=np.int64)
    with pytest.raises(SizeBoundError):
        kronecker(big, big)


def test_as_int_matrix_rejects_non_square():
    with pytest.raises(ValueError):
        as_int_matrix([[1, 2, 3], [4, 5, 6]])


def test_digraph_rejects_loops_by_default():
    with pytest.raises(ValueError):
        Digraph(identity(3))
    d = Digraph(identity(3), loops_allowed=True)
    assert d.n == 3


def test_digraph_rejects_non_binary():
    with pytest.raises(ValueError):
        Digraph(np.array([[0, 2, 0], [0, 0, 0], [0, 0, 0]], dtype=np.int64))


def test_digraph_adjacency_is_frozen():
    d = Digraph(zeros(3))
    with pytest.raises(ValueError):
        d.adjacency[0, 1] = 1


def test_digraph_owns_its_products():
    d = Digraph(DEZA_8_3_3_1_0)
    s = d.square_strip
    assert d.square_strip is s and np.shares_memory(d.strip, d.adjacency)
    assert np.array_equal(s, naive_matmul(DEZA_8_3_3_1_0, DEZA_8_3_3_1_0))
    # filled products change neither equality nor the hash
    fresh = Digraph(DEZA_8_3_3_1_0)
    assert d == fresh and hash(d) == hash(fresh) and fresh.square_strip is not s


def test_signed_matrix_parts():
    # a twin pair's parts are the +1 and -1 entries of its signed matrix
    pair = construct.twin_directed(hadamard.sylvester(2))[0]
    pos, neg = pair.positive_part.adjacency, pair.negative_part.adjacency
    assert np.array_equal(pos, pair.signed.matrix == 1)
    assert np.array_equal(pos - neg, pair.signed.matrix)
    with pytest.raises(ValueError):
        SignedMatrix(np.array([[0, 2], [0, 0]], dtype=np.int64))


def test_max_abs_reads_extremes():
    assert max_abs(np.zeros((0, 0), dtype=np.int64)) == 0
    assert max_abs(np.array([[3, -7], [5, 1]], dtype=np.int64)) == 7
    assert max_abs(np.array([[-3, 7]], dtype=np.int64)) == 7
    # np.abs would wrap the most negative int64 to itself
    assert max_abs(np.array([[np.iinfo(np.int64).min]], dtype=np.int64)) == 2**63


def shift_invariant(rng, h, g, low=-3, high=4):
    """A random order-gh matrix with m[i + h, j + h] = m[i, j], indices
    mod gh: row i is row i mod h of a random strip, rolled right by the
    start of i's block."""
    n = g * h
    strip = rng.integers(low, high, (h, n)).astype(np.int64)
    i, j = np.indices((n, n))
    return strip[i % h, (j - (i - i % h)) % n]


def int64_oracle(a, b):
    return a.astype(np.int64) @ b.astype(np.int64)


@pytest.mark.parametrize("h, gs", [(1, (128, 131)), (3, (43, 50)), (7, (19, 24)),
                                   (16, (8, 9)), (128, (2, 3))])
def test_shift_invariant_products_match_int64(h, gs):
    rng = np.random.default_rng(1000 + h)
    for g in gs:
        m = shift_invariant(rng, h, g)
        assert _shift_period(m) == _shift_period(m.T) == h
        for a, b in ((m, m), (m, m.T), (m.T, m)):
            assert np.array_equal(exact_matmul(a, b), int64_oracle(a, b))


def test_zero_one_shift_invariant_products_match_int64():
    rng = np.random.default_rng(15)
    m = shift_invariant(rng, 16, 31, 0, 2)
    for a, b in ((m, m), (m, m.T), (m.T, m)):
        assert np.array_equal(exact_matmul(a, b), int64_oracle(a, b))


def test_operands_with_different_periods():
    rng = np.random.default_rng(16)
    # periods 3 and 7 of order 147, and 10 and 13 of order 130
    a, b = shift_invariant(rng, 3, 49), shift_invariant(rng, 7, 21)
    assert _shift_period(a) == 3 and _shift_period(b) == 7
    c, d = shift_invariant(rng, 10, 13), shift_invariant(rng, 13, 10)
    assert _shift_period(c) == 10 and _shift_period(d.T) == 13
    # no period at all: the order
    e = rng.integers(-3, 4, (147, 147))
    assert _shift_period(e) == 147
    for x, y in ((a, b), (b.T, a), (a.T, b.T), (c, d), (d, c.T), (a, e), (e, b)):
        assert np.array_equal(exact_matmul(x, y), int64_oracle(x, y))


@pytest.mark.parametrize("i, j", [(17, 34), (127, 1), (1, 127), (127, 127), (40, 95)])
def test_near_miss_fails_the_full_check(i, j):
    h = 16
    m = shift_invariant(np.random.default_rng(17), h, 8, 0, 2)
    assert _shift_period(m) == h
    bad = m.copy()
    bad[i, j] ^= 1
    # the flip lies outside the screened first row, first column, row h
    # and column h, so only the full comparison can reject h
    assert np.array_equal(bad[h], np.roll(bad[0], h))
    assert np.array_equal(bad[:, h], np.roll(bad[:, 0], h))
    assert _shift_period(bad) == _shift_period(bad.T) == 128
    for a, b in ((bad, bad), (bad, bad.T), (bad.T, bad), (m, bad)):
        assert np.array_equal(exact_matmul(a, b), int64_oracle(a, b))


def test_large_entries_take_the_int64_route():
    m = shift_invariant(np.random.default_rng(18), 16, 16, -2**26, 2**26)
    n = m.shape[0]
    # past float64's exact range, still inside int64's
    assert 2**53 <= n * max_abs(m) ** 2 < 2**63
    assert _shift_period(m) == 16
    for a, b in ((m, m), (m, m.T), (m.T, m)):
        assert np.array_equal(exact_matmul(a, b), int64_oracle(a, b))


def check_strip_products(m, h):
    """Every product of m and m^t with a strip right operand, the first
    h rows of m or m^t, against the dense product and the int64 one;
    the left operand is dense or a strip too."""
    for a, b in ((m, m), (m, m.T), (m.T, m), (m.T, m.T)):
        want = int64_oracle(a, b)
        for left in (a, a[:h]):
            got = exact_matmul(left, b[:h])
            assert got.dtype == np.int64
            assert np.array_equal(got, exact_matmul(left, block_circulant(b[:h])))
            assert np.array_equal(got, want[:left.shape[0]])


@pytest.mark.parametrize("h, g, top, route", [
    (1, 131, 2**8, "float32"), (4, 33, 2**9, "float64"),
    (16, 16, 2**22, "float64"), (16, 16, 2**26, "int64"),
    (128, 1, 2**4, "float32"), (130, 1, 2**26, "int64")])
def test_strip_operands_on_every_route(h, g, top, route):
    # bounds on both sides of 2^24 and of 2^53; h = 1 is a circulant,
    # h = n a strip that is the whole matrix
    m = shift_invariant(np.random.default_rng(2000 + h + top), h, g, -top, top + 1)
    m[np.arange(m.shape[0]), np.arange(m.shape[0])] = top
    n = m.shape[0]
    bound = n * max_abs(m) ** 2
    assert bound < 2**63 and _shift_period(m) == h
    assert route == ("float32" if bound < 2**24 else "float64" if bound < 2**53 else "int64")
    check_strip_products(m, h)


@pytest.mark.parametrize("h, g", [(1, 7), (3, 4), (12, 1)])
def test_small_strip_operands_match_naive(h, g):
    m = shift_invariant(np.random.default_rng(30 + h), h, g)
    for a, b in ((m, m), (m, m.T), (m.T, m)):
        want = naive_matmul(a, block_circulant(b[:h]))
        assert np.array_equal(want, naive_matmul(a, b))
        assert np.array_equal(exact_matmul(a, b[:h]), want)
        assert np.array_equal(exact_matmul(a[:h], b[:h]), want[:h])
    check_strip_products(m, h)


def test_strip_operand_overflow_guard():
    # the strip's entries bound the product as the whole matrix's would
    a = np.ones((6, 6), dtype=np.int64)
    strip = np.zeros((2, 6), dtype=np.int64)
    strip[1, 5] = 2**61
    with pytest.raises(SizeBoundError):
        exact_matmul(a, strip)
    strip[1, 5] = 2**60
    assert np.array_equal(exact_matmul(a, strip), int64_oracle(a, block_circulant(strip)))


@pytest.mark.parametrize("n", [6, 128])
@pytest.mark.parametrize("rows, short", [(0, 0), (5, 0), (2, 1), (5, 1)])
def test_bad_strip_operands_raise_value_error(n, rows, short):
    # an empty strip, a height that does not divide n, a width other than n
    a = np.ones((n, n), dtype=np.int64)
    with pytest.raises(ValueError) as err:
        exact_matmul(a, np.ones((rows, n - short), dtype=np.int64))
    assert not isinstance(err.value, SizeBoundError)


def test_rectangular_operands_take_the_dense_route():
    rng = np.random.default_rng(19)
    m = shift_invariant(rng, 4, 64)
    wide, tall = m[:128], m[:, :128]
    for a, b in ((wide, m), (m, tall), (wide, tall), (tall, wide)):
        assert np.array_equal(exact_matmul(a, b), int64_oracle(a, b))


def test_detected_period_of_the_paper_families():
    n = 16
    pair, (ra, rb) = construct.twin_directed(hadamard.sylvester(4))
    for m in (pair.positive_part.adjacency, pair.negative_part.adjacency,
              ra.adjacency, rb.adjacency):
        assert m.shape == ((2 * n - 1) * n,) * 2
        assert _shift_period(m) == _shift_period(m.T) == n
    for p, e in ((5, 1), (3, 2)):
        field = finite_field.FiniteField(p, e)
        for alpha in range(3):
            m = construct.field_type2(field, field.element(alpha)).adjacency
            assert _shift_period(m) == _shift_period(m.T) == field.q ** 2


def products_cases():
    """(m, the period a Digraph of m should find): periodic inputs of
    order >= 128, one without a period, and small ones, periodic or not;
    the order-128 one with period 16 is signed, not a digraph."""
    rng = np.random.default_rng(22)
    yield shift_invariant(rng, 1, 128, 0, 2), 1
    yield shift_invariant(rng, 4, 33, 0, 2), 4
    yield shift_invariant(rng, 16, 8), 16
    yield rng.integers(0, 2, (130, 130)), 130
    yield circulant(rng.integers(0, 2, 12)), 12
    yield DEZA_8_3_3_1_0, 8


def test_products_keep_the_strip_of_their_period():
    for m, period in products_cases():
        n = m.shape[0]
        if not is_zero_one(m):
            # no digraph: the strips of its products, read directly
            assert _shift_period(m) == _shift_period(m.T) == period
            for a, b in ((m, m), (m, m.T), (m.T, m)):
                strip = exact_matmul(a[:period], b)
                assert np.array_equal(block_circulant(strip), int64_oracle(a, b))
            continue
        p = Digraph(m, loops_allowed=True)
        assert p.period == period == (_shift_period(m.T) if n >= 128 else n)
        for strip, (a, b) in ((p.square_strip, (m, m)), (p.gram_strip, (m, m.T)),
                              (p.cogram_strip, (m.T, m))):
            want = int64_oracle(a, b)
            assert strip.shape == (period, n)
            # the triple loop would take seconds on the order-130 strip
            first_rows = naive_matmul(a[:period], b) if period < 128 else want
            assert np.array_equal(strip, first_rows)
            assert np.array_equal(block_circulant(strip), want)


def test_block_circulant_keeps_float_strips():
    strip = np.array([[0.0, 1.0, 2.0, 3.0]], dtype=np.float32)
    m = block_circulant(strip)
    assert m.dtype == np.float32
    assert np.array_equal(m, circulant([0, 1, 2, 3]))


def test_block_circulant_keeps_bool_strips():
    strip = np.array([[True, False, False, True], [False, False, True, True]])
    m = block_circulant(strip)
    assert m.dtype == bool
    assert np.array_equal(m, block_circulant(strip.astype(np.int64)))
    # a full-height strip is already the matrix
    assert block_circulant(m) is m


def kernel_operands(h, g, rows, bmax, edge, side, seed):
    """A signed rows x n left operand and h x n strip whose bound
    n * max|a| * max|b| lies just below edge, or above it, with a corner
    entry bound - max|a| of the product that is then above edge too: row
    0 of a is max|a|, odd, and column 0 of the block-circulant B, which
    holds the first column of every strip block, sums to n * max|b| - 1,
    odd for even n * max|b|."""
    n = h * g
    if side == "below":
        amax = (edge - 1) // (n * bmax)
        amax -= 1 - amax % 2
    else:
        amax = edge // (n * bmax - 1) + 1
        amax += 1 - amax % 2
    rng = np.random.default_rng(seed)
    a = rng.integers(-amax, amax + 1, (rows, n))
    b = rng.integers(-bmax, bmax + 1, (h, n))
    a[0] = amax
    b[:, ::h] = bmax
    b[0, 0] = bmax - 1
    return a, b


@pytest.mark.parametrize("h, g, rows, bmax, edge, side, route", [
    # n < 128: these three take float32 too; "int64" stays in their ids
    (3, 4, 5, 3, 2**10, "below", "int64"),
    (1, 9, 2, 4, 2**10, "below", "int64"),          # a circulant
    (6, 2, 1, 3, 2**10, "below", "int64"),          # g = 2
    (1, 131, 2, 4, 2**24, "below", "float32"),      # a circulant
    (1, 131, 2, 4, 2**24, "above", "float64"),
    (64, 2, 3, 5, 2**24, "below", "float32"),       # g = 2
    (64, 2, 3, 5, 2**24, "above", "float64"),
    (4, 40, 7, 2**20, 2**53, "below", "float64"),
    (4, 40, 7, 2**20, 2**53, "above", "int64"),
    (16, 9, 16, 2**20, 2**53, "above", "int64"),    # as many rows as the strip
])
def test_strip_kernel_matches_the_expanded_product(h, g, rows, bmax, edge, side, route):
    a, b = kernel_operands(h, g, rows, bmax, edge, side, h * g + rows)
    n = h * g
    bound = n * max_abs(a) * max_abs(b)
    assert (bound < edge) == (side == "below") and bound < 2**63
    if n >= 128:
        assert route == ("float32" if bound < 2**24 else "float64" if bound < 2**53
                         else "int64")
    dense = block_circulant(b)
    want = naive_matmul(a, dense)
    corner = bound - max_abs(a)
    assert want[0, 0] == corner and corner % 2 == 1
    if side == "above":
        # odd and past the edge: the type one tier narrower would round it
        narrower = np.float32 if edge == 2**24 else np.float64
        assert corner > edge and int(narrower(corner)) != corner
    got = exact_matmul(a, b)
    assert got.dtype == np.int64 and got.shape == (rows, n)
    assert np.array_equal(got, want)
    assert np.array_equal(exact_matmul(a, dense), want)


def test_from_strip_is_the_expanded_digraph():
    rng = np.random.default_rng(40)
    for h, g in ((1, 7), (3, 4), (8, 1), (4, 33)):
        strip = rng.integers(0, 2, (h, h * g))
        strip[:, :h][np.eye(h, dtype=bool)] = 0
        d = Digraph.from_strip(strip)
        ref = Digraph(block_circulant(strip))
        assert d == ref and hash(d) == hash(ref) and repr(d) == repr(ref)
        assert d.adjacency.dtype == np.int64 and not d.adjacency.flags.writeable
        # the period is the strip height, with no search; the strips are
        # views of the one adjacency
        assert d.period == h
        assert np.shares_memory(d.strip, d.adjacency)
        assert np.shares_memory(d.co_strip, d.adjacency)
        assert np.array_equal(block_circulant(d.square_strip),
                              int64_oracle(ref.adjacency, ref.adjacency))
        # the digraph keeps no reference to the caller's strip
        strip[0, -1] ^= 1
        assert d == ref


def test_from_strip_accepts_bool_strips_and_loops_when_allowed():
    strip = np.array([[True, True, False, False], [False, True, True, False]])
    d = Digraph.from_strip(strip, loops_allowed=True)
    assert d == Digraph(block_circulant(strip.astype(np.int64)), loops_allowed=True)
    assert d.loops_allowed and d.period == 2


@pytest.mark.parametrize("strip", [
    [[0, 2, 0, 0]],               # an entry other than 0/1
    [[0, -1, 0, 0]],
    [[0, 1, 1, 0], [0, 1, 0, 0]],  # a loop at vertex 1: S_0[1, 1]
    [[1, 0, 0]],                  # a loop at every vertex of a circulant
])
def test_from_strip_rejects_with_the_digraph_messages(strip):
    strip = np.array(strip)
    with pytest.raises(ValueError) as dense:
        Digraph(block_circulant(strip))
    with pytest.raises(ValueError) as from_strip:
        Digraph.from_strip(strip)
    assert str(from_strip.value) == str(dense.value)


@pytest.mark.parametrize("shape", [(0, 4), (3, 4), (2, 3, 4)])
def test_from_strip_rejects_bad_shapes(shape):
    with pytest.raises(ValueError):
        Digraph.from_strip(np.zeros(shape, dtype=np.int64))


def test_from_strip_checks_the_order_before_expanding():
    with pytest.raises(SizeBoundError, match="exceeds the bound"):
        Digraph.from_strip(np.zeros((1, MAX_ORDER + 1), dtype=np.int64))


def test_from_strip_of_a_bool_strip_makes_one_array():
    # the int64 copy of the strip is the adjacency: no second n x n array
    n = 1000
    strip = np.zeros((n, n), dtype=bool)
    strip[0, 1] = True
    tracemalloc.start()
    try:
        d = Digraph.from_strip(strip)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.adjacency[0, 1] == 1 and d.period == n
    assert 8 * n * n <= peak < 9 * n * n


def test_from_strip_never_aliases_an_int64_square_strip():
    base = np.zeros((6, 6), dtype=np.int64)
    base[0, 1] = 1
    frozen = base.copy()
    frozen.setflags(write=False)
    for strip in (base, base[:, :], frozen, memoryview(base)):
        d = Digraph.from_strip(strip)
        assert not np.shares_memory(d.adjacency, base)
        assert not np.shares_memory(d.adjacency, frozen)
        assert not d.adjacency.flags.writeable
    base[0, 2] = 1
    assert d.adjacency[0, 2] == 0


@pytest.mark.parametrize("make", [construct.twin_deza, lambda h: construct.twin_directed(h)[0]],
                         ids=["twin", "twin-directed"])
def test_twin_pair_derives_its_signed_matrix(make):
    pair = make(hadamard.sylvester(2))
    a, b = pair.positive_part.adjacency, pair.negative_part.adjacency
    assert [f.name for f in fields(pair)] == ["positive_part", "negative_part", "hadamard"]
    assert np.array_equal(pair.signed.matrix, a - b)
    assert not pair.signed.matrix.flags.writeable
    assert pair.block_order == 4 and pair.block_classes()[-1] == list(range(24, 28))


def test_exact_matmul_at_every_small_order():
    rng = np.random.default_rng(60)
    for n in range(1, 128):
        for low, high in ((0, 2), (-1, 2)):
            a, b = rng.integers(low, high, (2, n, n))
            got = exact_matmul(a, b)
            assert got.dtype == np.int64 and np.array_equal(got, int64_oracle(a, b))


@pytest.mark.parametrize("edge, side", [(2**24, "below"), (2**24, "above"),
                                        (2**53, "below"), (2**53, "above")])
def test_every_route_at_every_small_order(edge, side):
    # large entries whose bound lies on either side of 2^24 and 2^53,
    # dense and as a circulant's first row; "above" puts an odd corner
    # past the edge, which the type one tier narrower would round (from
    # order 2: the corner needs a column of B with two entries)
    for n in range(2, 128):
        for h, g in ((n, 1), (1, n)):
            a, b = kernel_operands(h, g, 3, 4, edge, side, n)
            bound = n * max_abs(a) * max_abs(b)
            assert (bound < edge) == (side == "below") and bound < 2**63
            want = int64_oracle(a, block_circulant(b))
            assert want[0, 0] == bound - max_abs(a) and want[0, 0] % 2 == 1
            got = exact_matmul(a, b)
            assert got.dtype == np.int64 and np.array_equal(got, want), (n, h)


def symmetric_strip_cases():
    """(digraph, h): from_strip digraphs with loops for every g and h,
    and the same matrices handed over dense from order 128 on, where
    _shift_period finds h."""
    rng = np.random.default_rng(50)
    for h in (1, 2, 7, 32):
        for g in (1, 2, 3, 4, 5, 63):
            strip = rng.integers(0, 2, (h, h * g))
            yield Digraph.from_strip(strip, loops_allowed=True), h
            if h * g >= 128:
                yield Digraph(block_circulant(strip), loops_allowed=True), h


def test_gram_strips_equal_the_dense_products():
    for d, h in symmetric_strip_cases():
        # float64 products of 0/1 matrices are exact: every sum is <= n < 2^53
        m = d.adjacency.astype(np.float64)
        assert d.period == h and (h == d.n or not d.co_strip.flags.c_contiguous)
        for strip, want in ((d.gram_strip, m[:h] @ m.T), (d.cogram_strip, m.T[:h] @ m)):
            assert strip.dtype == np.int64 and np.array_equal(strip, want), (h, d.n)


@pytest.mark.parametrize("h, g", [(3, 2), (3, 5), (4, 8), (7, 63)])
def test_gram_strips_multiply_half_the_block_columns(monkeypatch, h, g):
    # M M^t and M^t M are symmetric: one exact_matmul each, whose result
    # holds block columns 0 .. g // 2 alone; the others are transposes
    results = []
    real = matrix_core.exact_matmul

    def recording(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(matrix_core, "exact_matmul", recording)
    strip = np.random.default_rng(h * g).integers(0, 2, (h, h * g))
    d = Digraph.from_strip(strip, loops_allowed=True)
    assert d.gram_strip.shape == d.cogram_strip.shape == (h, h * g)
    assert [r.shape for r in results] == [(h, (g // 2 + 1) * h)] * 2
