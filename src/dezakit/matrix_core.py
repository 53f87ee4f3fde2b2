"""Exact dense integer matrix algebra.

Matrices are numpy arrays of dtype int64.  They are square, except for
strips: the h x n first block row of a block-circulant matrix, which
block_circulant expands.  Products finds the cyclic shift period of a
matrix, once, and keeps its products as such strips; exact_matmul
takes its right operand dense or as such a strip.  0/1 masks, such as
the position matrices of the verifiers, are bool.  Every operation is
pure and exact: no modular reduction, no floating-point rounding.  Large
multiplies are routed through BLAS only when a proven bound guarantees
that every intermediate value is an exactly representable integer: in
float32 below 2^24, in float64 below 2^53.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

INT64_MAX = np.iinfo(np.int64).max

# Integer magnitudes below which float32 and float64 accumulation is exact.
_FLOAT32_EXACT_BOUND = 2**24
_FLOAT_EXACT_BOUND = 2**53

# Below this order the generic int64 kernel is cheap enough.
_BLAS_MIN_ORDER = 128

# Largest order of a matrix the constructions will build (2 GiB as int64).
MAX_ORDER = 2**14


class SizeBoundError(ValueError):
    """An operation would exceed a declared size or entry-magnitude bound."""


def check_order(n: int):
    """Raise SizeBoundError if an n x n matrix would exceed MAX_ORDER."""
    if n > MAX_ORDER:
        raise SizeBoundError(f"order {n} exceeds the bound {MAX_ORDER}")


def as_int_matrix(rows) -> np.ndarray:
    """Coerce nested sequences / arrays to a square int64 matrix, order > 0."""
    m = np.asarray(rows, dtype=np.int64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise ValueError("order must be positive")
    return m


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def zeros(n: int) -> np.ndarray:
    return np.zeros((n, n), dtype=np.int64)


def ones(n: int) -> np.ndarray:
    return np.ones((n, n), dtype=np.int64)


def max_abs(m: np.ndarray) -> int:
    return 0 if m.size == 0 else max(int(m.max()), -int(m.min()))


def is_zero_one(m: np.ndarray) -> bool:
    # one reduction on int64 m: read as uint64, a negative entry is >= 2^63
    return m.size == 0 or bool(m.view(np.uint64).max() <= 1)


def exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer product a B with an overflow guard: B is b, or
    block_circulant(b) for an h x n strip b with n = a.shape[1] and h | n,
    expanded only after b is cast to the type the product is made in.

    Every partial sum is bounded by n * max|a| * max|b| (a strip holds
    every value of B).  From n = _BLAS_MIN_ORDER on, BLAS multiplies in
    float32 when that bound is below 2^24 and in float64 below 2^53: every
    partial sum, in any order, FMA or not, is then an exact integer, so
    the result is bit-identical to integer arithmetic.  Otherwise the
    int64 kernel is used.  Bounds beyond int64 raise SizeBoundError."""
    inner = a.shape[1]
    strip = b.shape[0] != inner
    if strip and b.shape[-1] != inner:
        raise ValueError(f"dimension mismatch {a.shape} x {b.shape}")
    bound = inner * max_abs(a) * max_abs(b)
    if bound > INT64_MAX:
        raise SizeBoundError(
            f"matrix product may exceed the 64-bit entry range (bound {bound})"
        )
    blas = inner >= _BLAS_MIN_ORDER and bound < _FLOAT_EXACT_BOUND
    if blas:
        ftype = np.float32 if bound < _FLOAT32_EXACT_BOUND else np.float64
        a, b = a.astype(ftype), b.astype(ftype)
    c = a @ (block_circulant(b) if strip else b)
    return np.rint(c).astype(np.int64) if blas else c


def _shift_period(m: np.ndarray) -> int:
    """The smallest divisor h of the order n of the square matrix m such
    that m is invariant under the cyclic index shift by h, m[i + h, j + h]
    == m[i, j] with indices mod n; n when no proper divisor is.

    A candidate must first pass an O(n) screen of row h and column h; it
    is then confirmed by an exact O(n^2) comparison: rows h..n-1 equal
    rows 0..n-h-1 rolled right by h columns.  The wrapped rows 0..h-1
    then hold too, since rolling by (n / h) * h = n is the identity.
    """
    n = m.shape[0]
    for h in (d for d in range(1, n // 2 + 1) if n % d == 0):
        if (np.array_equal(m[h], np.roll(m[0], h))
                and np.array_equal(m[:, h], np.roll(m[:, 0], h))
                and np.array_equal(m[h:, h:], m[:-h, :-h])
                and np.array_equal(m[h:, :h], m[:-h, -h:])):
            return h
    return n


def block_circulant(strip) -> np.ndarray:
    """The n x n block-circulant matrix with first block row strip, an
    h x n array with h | n: block (r, c) is strip block (c - r) mod g,
    with g = n / h.  Equivalently m[i + h, j + h] = m[i, j], indices
    mod n.  Block row r is strip rolled right by r * h columns, which is
    the window of n columns starting at n - r * h in strip written twice
    side by side.  A bool or float strip gives a matrix of its dtype,
    any other an int64 one; when h = n the strip itself is returned."""
    strip = np.asarray(strip)
    if strip.dtype.kind not in "bf":
        strip = strip.astype(np.int64, copy=False)
    if strip.ndim != 2 or strip.size == 0:
        raise ValueError(f"strip must be a nonempty 2-D array, got shape {strip.shape}")
    h, n = strip.shape
    if n % h != 0:
        raise ValueError(f"strip height {h} does not divide its width {n}")
    check_order(n)
    if h == n:
        return strip
    windows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([strip, strip], axis=1), n, axis=1)
    starts = n - h * np.arange(n // h)
    return windows[np.arange(h)[None, :], starts[:, None]].reshape(n, n)


def kronecker(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; block (i,j) equals a[i,j] * b."""
    bound = max_abs(a) * max_abs(b)
    if bound > INT64_MAX:
        raise SizeBoundError(f"kronecker entries exceed 64-bit range (bound {bound})")
    return np.kron(a, b)


def circulant(first_row) -> np.ndarray:
    """Circulant matrix: row i is first_row rotated right by i positions."""
    row = np.array(first_row, dtype=np.int64)
    if row.ndim != 1 or row.size == 0:
        raise ValueError("first row must be a nonempty sequence")
    return block_circulant(row[None, :])


class Products:
    """The products of one matrix m that the verifiers read: m m, m m^t
    and m^t m, computed on first use and then shared, so no reader may
    write to them.  Digraph.products is the one place that makes them.

    m and m^t are invariant under the same cyclic index shifts, so each
    product is block-circulant with the shift period h of m (n when m
    has none or n < _BLAS_MIN_ORDER).  A Products finds h, its period,
    when it is made, and no other code looks for it.  Each product is
    kept only as its first h rows, the exact_matmul of the first h rows
    (strip and co_strip) of m and m^t; block_circulant expands a strip."""

    def __init__(self, m: np.ndarray):
        n = m.shape[0]
        self.m = m
        self.period = _shift_period(m) if n >= _BLAS_MIN_ORDER else n
        self.strip, self.co_strip = m[:self.period], m.T[:self.period]

    square_strip = cached_property(lambda self: exact_matmul(self.strip, self.strip))
    gram_strip = cached_property(lambda self: exact_matmul(self.strip, self.co_strip))
    cogram_strip = cached_property(lambda self: exact_matmul(self.co_strip, self.strip))


def _frozen(rows) -> np.ndarray:
    """A read-only square int64 copy of rows, made with one copy."""
    m = as_int_matrix(np.array(rows, dtype=np.int64))
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class Digraph:
    """A digraph carried by its 0/1 adjacency matrix.

    Loops (diagonal ones) are rejected unless loops_allowed is set; the
    reflexive constructions are the only producers of loops.  products
    holds the strips of M^2, M M^t and M^t M that every verifier reads,
    filled on first use and kept as long as the digraph; equality and
    hashing ignore them.
    """

    adjacency: np.ndarray
    loops_allowed: bool = False

    def __post_init__(self):
        m = _frozen(self.adjacency)
        if not is_zero_one(m):
            raise ValueError("adjacency entries must be 0 or 1")
        if not self.loops_allowed and m.trace() != 0:
            raise ValueError("loops present but loops_allowed is False")
        object.__setattr__(self, "adjacency", m)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @cached_property
    def products(self) -> Products:
        return Products(self.adjacency)

    def arcs(self):
        for u, v in zip(*np.nonzero(self.adjacency)):
            yield int(u), int(v)

    def __eq__(self, other):
        return (isinstance(other, Digraph)
                and self.loops_allowed == other.loops_allowed
                and np.array_equal(self.adjacency, other.adjacency))

    def __hash__(self):
        return hash((self.loops_allowed, self.adjacency.tobytes()))


@dataclass(frozen=True)
class SignedMatrix:
    """A (0, +1, -1) matrix, the carrier for twin constructions."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _frozen(self.matrix)
        if max_abs(m) > 1:
            raise ValueError("entries must lie in {-1, 0, 1}")
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def positive_part(self) -> np.ndarray:
        return (self.matrix == 1).astype(np.int64)

    def negative_part(self) -> np.ndarray:
        return (self.matrix == -1).astype(np.int64)
