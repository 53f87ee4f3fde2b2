"""Exact dense integer matrix algebra.

Matrices are numpy arrays of dtype int64.  They are square, except for
strips: the h x n first block row of a block-circulant matrix, which
block_circulant expands.  A Digraph carries one read-only 0/1 matrix,
checked and stored once, by this module alone, and keeps its products
as such strips, with the height of the strip Digraph.from_strip made
it from, or else the cyclic shift period it finds once; exact_matmul
takes its right operand dense or as such a strip, never expanded.  0/1
masks, such as the position strips of the verifiers, are bool.  Every
operation is pure and exact: no modular reduction, no floating-point
rounding.  Multiplies of every order are routed through BLAS when a
proven bound guarantees that every intermediate value is an exactly
representable integer: in float32 below 2^24, in float64 below 2^53.
The strips of the symmetric M M^t and M^t M are multiplied by half.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

INT64_MAX = np.iinfo(np.int64).max

# Integer magnitudes below which float32 and float64 accumulation is exact.
_FLOAT32_EXACT_BOUND = 2**24
_FLOAT_EXACT_BOUND = 2**53

# Below this order the shift-period search costs more than it saves.
_PERIOD_MIN_ORDER = 128

# Largest order of a matrix the constructions will build (2 GiB as int64).
MAX_ORDER = 2**14


class SizeBoundError(ValueError):
    """An operation would exceed a declared size or entry-magnitude bound."""


def check_order(n: int):
    """Raise SizeBoundError if an n x n matrix would exceed MAX_ORDER."""
    if n > MAX_ORDER:
        raise SizeBoundError(f"order {n} exceeds the bound {MAX_ORDER}")


def _int64(x, copy: bool = False) -> np.ndarray:
    """x as an int64 array, copied if asked: ValueError if that changes an
    entry; an array of a type int64 holds exactly, such as bool, is not checked."""
    a = np.asarray(x)
    m = a.astype(np.int64, copy=copy and (a is x or a.base is not None))
    if not np.can_cast(a.dtype, np.int64) and not np.array_equal(m, a):
        raise ValueError("entries must be integers in the int64 range")
    return m


def as_int_matrix(rows) -> np.ndarray:
    """Coerce nested sequences / arrays to a square int64 matrix, order > 0."""
    m = _int64(rows)
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


def exact_matmul(a: np.ndarray, b: np.ndarray, *, _blocks: int | None = None) -> np.ndarray:
    """Exact integer product a B with an overflow guard: B is b, or
    block_circulant(b) for an h x n strip b with n = a.shape[1] and h | n.

    Every partial sum is bounded by n * max|a| * max|b| (a strip holds
    every value of B).  At every order, BLAS multiplies in float32 when
    that bound is below 2^24 and in float64 below 2^53: every partial
    sum, in any order, FMA or not, is then an exact integer, so the
    result is bit-identical to integer arithmetic.  Only above 2^53 is
    the int64 kernel used.  Bounds beyond int64 raise SizeBoundError.

    A strip is not expanded: block column c of B is its first block
    column R (strip blocks S_(-r) mod g, g = n / h) rolled down by c
    blocks, the n rows from (g - c) h of R written twice, and one batched
    matmul of a with these g views gives the block columns of a B.  For
    a strip b, _blocks = k (private to this module) multiplies block
    columns 0..k-1 alone and returns those k h columns of a B."""
    inner = a.shape[1]
    strip = b.shape[0] != inner
    if strip and b.shape[-1] != inner:
        raise ValueError(f"dimension mismatch {a.shape} x {b.shape}")
    bound = inner * max_abs(a) * max_abs(b)
    if bound > INT64_MAX:
        raise SizeBoundError(
            f"matrix product may exceed the 64-bit entry range (bound {bound})"
        )
    blas = bound < _FLOAT_EXACT_BOUND
    ftype = (np.float32 if bound < _FLOAT32_EXACT_BOUND else np.float64) if blas else np.int64
    a = a.astype(ftype, order="C", copy=False)
    if strip:
        h = _strip_height(b)
        g = inner // h
        cols = g if _blocks is None else _blocks
        blocks = b.reshape(h, g, h).swapaxes(0, 1)  # blocks[k] = S_k
        twice = np.empty((2, g, h, h), dtype=ftype)  # R = S_0, S_(g-1), ..., S_1, twice
        twice[:, 0], twice[:, 1:] = blocks[0], blocks[:0:-1]
        windows = np.lib.stride_tricks.sliding_window_view(
            twice.reshape(2 * inner, h), inner, axis=0)
        c = np.empty((a.shape[0], cols, h), dtype=ftype)
        np.matmul(a, windows[inner:inner - cols * h:-h].swapaxes(1, 2), out=c.swapaxes(0, 1))
        c = c.reshape(a.shape[0], cols * h)
    else:
        c = a @ b.astype(ftype, order="C", copy=False)
    return np.rint(c, out=c).astype(np.int64) if blas else c


def _symmetric_strip(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """exact_matmul(a, b) for h x n strips a and b whose product a B is
    the strip of a symmetric matrix, such as M M^t or M^t M.  With
    g = n / h its blocks C_c satisfy C_(g-c) = C_c^t, so block columns
    0..g // 2 are multiplied and the others are their transposes."""
    h, n = a.shape
    g = n // h
    if g == 1:
        return exact_matmul(a, b)
    k = g // 2 + 1
    s = np.empty((h, g, h), dtype=np.int64)
    s[:, :k] = exact_matmul(a, b, _blocks=k).reshape(h, k, h)
    s[:, k:] = s[:, g - k:0:-1].swapaxes(0, 2)  # block g - c, transposed
    return s.reshape(h, n)


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


def _strip_height(strip: np.ndarray) -> int:
    """The height h of strip, after checking that it is a nonempty h x n
    array with h | n and n within MAX_ORDER."""
    if strip.ndim != 2 or strip.size == 0:
        raise ValueError(f"strip must be a nonempty 2-D array, got shape {strip.shape}")
    h, n = strip.shape
    if n % h != 0:
        raise ValueError(f"strip height {h} does not divide its width {n}")
    check_order(n)
    return h


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
    h = _strip_height(strip)
    n = strip.shape[1]
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
    row = _int64(first_row, copy=True)
    if row.ndim != 1 or row.size == 0:
        raise ValueError("first row must be a nonempty sequence")
    return block_circulant(row[None, :])


def _frozen(rows) -> np.ndarray:
    """A read-only int64 copy of rows, made with one copy."""
    m = _int64(rows, copy=True)
    m.setflags(write=False)
    return m


def _check_adjacency(s: np.ndarray, loops_allowed: bool):
    """Digraph's check of an int64 matrix or strip s: 0/1, and loop-free if asked."""
    if not is_zero_one(s):
        raise ValueError("adjacency entries must be 0 or 1")
    if not loops_allowed and s[:, :s.shape[0]].trace() != 0:
        raise ValueError("loops present but loops_allowed is False")


@dataclass(frozen=True)
class Digraph:
    """A digraph carried by its 0/1 adjacency matrix M.

    Loops (diagonal ones) are rejected unless loops_allowed is set; the
    reflexive constructions are the only producers of loops.  Every
    verifier reads a digraph through its strips, each made on first use
    and then shared, so no reader may write to them: strip and co_strip,
    the first period rows of M and M^t (views), and the exact_matmul
    strips of M^2, M M^t and M^t M, the last two symmetric and so
    multiplied by half.  M and M^t share every cyclic shift period, so
    each product is block-circulant with period h: the strip height of a
    from_strip, or else the smallest, found once (n when M has none or
    n < _PERIOD_MIN_ORDER, below which the search costs more than it
    saves).  _canonical is the one-slot holder of its canonical form,
    which relabelled copies may share; equality and hashing ignore all
    of these.  Only from_strip and _checked skip __post_init__.
    """

    adjacency: np.ndarray
    loops_allowed: bool = False

    def __post_init__(self):
        m = as_int_matrix(_frozen(self.adjacency))
        _check_adjacency(m, self.loops_allowed)
        object.__setattr__(self, "adjacency", m)

    @classmethod
    def _checked(cls, m: np.ndarray, loops_allowed=False, period=None, canonical=None) -> Digraph:
        """The digraph on m itself, a read-only int64 0/1 matrix its caller
        has checked: no copy, no second check.  Its strips take period
        (None: found once), and it shares the certificate holder canonical."""
        d = object.__new__(cls)
        d.__dict__.update(adjacency=m, loops_allowed=loops_allowed,
                          _canonical=canonical or [None])
        if period is not None:
            d.__dict__["period"] = period
        return d

    @classmethod
    def from_strip(cls, strip, loops_allowed: bool = False) -> Digraph:
        """The digraph with adjacency block_circulant(strip), for an h x n
        0/1 strip with h | n, checked on the strip alone: every entry of
        the matrix is a strip entry, and its diagonal repeats that of the
        strip's first block.  The matrix is the one n x n array made (a
        square strip of the caller's own int64 array is copied), and its
        strips take h as their period without a search."""
        s = _int64(strip)
        h = _strip_height(s)
        _check_adjacency(s, loops_allowed)
        m = block_circulant(s)
        if m is s and (s is strip or s.base is not None):
            m = m.copy()
        m.setflags(write=False)
        return cls._checked(m, loops_allowed, h)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    period = cached_property(
        lambda self: _shift_period(self.adjacency) if self.n >= _PERIOD_MIN_ORDER else self.n)
    strip = cached_property(lambda self: self.adjacency[:self.period])
    co_strip = cached_property(lambda self: self.adjacency.T[:self.period])
    square_strip = cached_property(lambda self: exact_matmul(self.strip, self.strip))
    gram_strip = cached_property(lambda self: _symmetric_strip(self.strip, self.co_strip))
    cogram_strip = cached_property(lambda self: _symmetric_strip(self.co_strip, self.strip))
    _canonical = cached_property(lambda self: [None])

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
        m = as_int_matrix(_frozen(self.matrix))
        if max_abs(m) > 1:
            raise ValueError("entries must lie in {-1, 0, 1}")
        object.__setattr__(self, "matrix", m)
