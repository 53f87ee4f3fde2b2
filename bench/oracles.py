"""Independent checks of the paper's closed forms on a 0/1 matrix.

Products are computed with numpy directly, never through dezakit, so a
wrong verdict from the library cannot confirm itself.  Every check
returns a list of failure messages (empty when the matrix is right)
instead of asserting, so ``python -O`` checks exactly as much.
"""

from __future__ import annotations

import numpy as np


def product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact product of two count matrices through float32 BLAS.

    When inner order x max|x| x max|y| < 2**24, every partial sum is an
    integer that float32 represents exactly, so the result is exact; it
    also needs half the memory of the library's float64 path, so checks
    made beside a job do not raise the memory peak the job sets."""
    bound = x.shape[1] * int(np.abs(x).max(initial=0)) * int(np.abs(y).max(initial=0))
    if bound >= 2**24:
        raise ValueError(f"product bound {bound} is not exact in float32")
    return (np.asarray(x, np.float32) @ np.asarray(y, np.float32)).astype(np.int64)


def zero_one_errors(m: np.ndarray, loops: bool = False) -> list[str]:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return [f"not square: {m.shape}"]
    errs = []
    if not ((m == 0) | (m == 1)).all():
        errs.append("entries outside {0, 1}")
    diagonal = np.diagonal(m)
    if loops and not diagonal.all():
        errs.append("loops missing")
    if not loops and diagonal.any():
        errs.append("loops present")
    return errs


def regular_errors(m: np.ndarray, k: int) -> list[str]:
    if not ((m.sum(axis=0) == k).all() and (m.sum(axis=1) == k).all()):
        return [f"not {k}-regular"]
    return []


def two_valued_errors(s: np.ndarray, k: int, diag: int, a: int, b: int) -> list[str]:
    """``s`` is M^2 or M M^t of a k-regular digraph of order n, so each
    row of ``s`` sums to k^2.  Check the diagonal is ``diag``, the
    off-diagonal values lie in {a, b}, and every row has as many
    b-entries as the closed form gives: alpha + beta = n - 1 and
    a*alpha + b*beta = k^2 - diag."""
    n = s.shape[0]
    errs = []
    if not (np.diagonal(s) == diag).all():
        errs.append(f"diagonal is not the constant {diag}")
    off = ~np.eye(n, dtype=bool)
    values = set(np.unique(s[off]).tolist()) if n > 1 else set()
    if not values <= {a, b}:
        errs.append(f"off-diagonal values {sorted(values)} not within {{{a}, {b}}}")
    elif a != b and n > 1:
        beta = ((s == b) & off).sum(axis=1)
        num, den = k * k - diag - a * (n - 1), b - a
        if num % den or not (beta == num // den).all():
            errs.append(f"b-partner counts {sorted(set(beta.tolist()))} "
                        f"differ from the closed form {num}/{den}")
    return errs


def _gram_errors(m: np.ndarray, k: int, a: int, b: int) -> list[str]:
    """M M^t = M^t M, two-valued off the diagonal with diagonal k."""
    g = product(m, m.T)
    errs = [] if np.array_equal(g, product(m.T, m)) else ["M M^t != M^t M"]
    return errs + two_valued_errors(g, k, k, a, b)


def drt_errors(a: np.ndarray, q: int) -> list[str]:
    """Doubly regular tournament: A + A^t = J - I, A^2 = tA + (t+1)A^t,
    so the directed Deza parameters are (q, 2t+1, t+1, t, 0)."""
    t, k = (q - 3) // 4, (q - 1) // 2
    errs = zero_one_errors(a) + regular_errors(a, k)
    if not np.array_equal(a + a.T, 1 - np.eye(q, dtype=np.int64)):
        errs.append("not a tournament")
    square = product(a, a)
    if not np.array_equal(square, t * a + (t + 1) * a.T):
        errs.append("A^2 != tA + (t+1)A^t")
    return errs + two_valued_errors(square, k, 0, t, t + 1)


def paley_graph_errors(a: np.ndarray, q: int) -> list[str]:
    """Strongly regular (q, (q-1)/2, (q-5)/4, (q-1)/4)."""
    k, lam, mu = (q - 1) // 2, (q - 5) // 4, (q - 1) // 4
    errs = zero_one_errors(a) + regular_errors(a, k)
    if not np.array_equal(a, a.T):
        errs.append("not symmetric")
    eye = np.eye(q, dtype=np.int64)
    if not np.array_equal(product(a, a), k * eye + lam * a + mu * (1 - eye - a)):
        errs.append("A^2 != kI + lam A + mu (J - I - A)")
    return errs


def design_errors(m: np.ndarray, v: int, k: int, lam: int) -> list[str]:
    """Symmetric (v, k, lam) design: N N^t = N^t N = (k - lam)I + lam J."""
    errs = zero_one_errors(m)
    if m.shape != (v, v):
        return errs + [f"order {m.shape[0]} != {v}"]
    want = (k - lam) * np.eye(v, dtype=np.int64) + lam
    if not (np.array_equal(product(m, m.T), want) and np.array_equal(product(m.T, m), want)):
        errs.append(f"N N^t or N^t N != {k - lam}I + {lam}J")
    return errs


def qr_design_errors(m: np.ndarray, q: int) -> list[str]:
    return design_errors(m, q, (q - 1) // 2, (q - 3) // 4)


def skew_errors(m: np.ndarray, u: int) -> list[str]:
    """Skew-Hadamard blow-up: a directed (8u, 4u-1, 4u-1, 2u-1, 0) Deza
    graph, and on the pairs {2i, 2i+1} a DDD with counts 0 within and
    2u-1 across."""
    n, k = 8 * u, 4 * u - 1
    errs = zero_one_errors(m) + regular_errors(m, k)
    if ((m + m.T) > 1).any():
        errs.append("mutual arcs present")
    errs += two_valued_errors(product(m, m), k, 0, 2 * u - 1, k)
    same = np.kron(np.eye(4 * u, dtype=bool), np.ones((2, 2), bool))
    off = ~np.eye(n, dtype=bool)
    for g in (product(m, m.T), product(m.T, m)):
        if not ((g[same & off] == 0).all() and (g[~same] == 2 * u - 1).all()):
            errs.append("common-neighbour counts are not 0 within and 2u-1 across pairs")
    return errs


def field_type2_errors(m: np.ndarray, q: int, alpha: int) -> list[str]:
    """N_alpha: (q^2(2q+3), 2q^2+2q, 3q, 2q), symmetric exactly when
    alpha = 0 (the undirected Deza graph), type-II otherwise."""
    n, k = q * q * (2 * q + 3), 2 * q * q + 2 * q
    errs = zero_one_errors(m) + regular_errors(m, k)
    if m.shape[0] != n:
        errs.append(f"order {m.shape[0]} != {n}")
    if (alpha == 0) != bool(np.array_equal(m, m.T)):
        errs.append("symmetry does not match alpha = 0")
    return errs + _gram_errors(m, k, 2 * q, 3 * q)


def twin_part_errors(m: np.ndarray, n: int) -> list[str]:
    """A part of twin_deza: an undirected Deza graph
    ((2n-1)n, n(n-1), n(n-1)/2, n(n-2)/2)."""
    k = n * (n - 1)
    errs = zero_one_errors(m) + regular_errors(m, k)
    if not np.array_equal(m, m.T):
        errs.append("not symmetric")
    return errs + two_valued_errors(product(m, m), k, k, n * (n - 2) // 2, n * (n - 1) // 2)


def siamese_errors(m: np.ndarray, n: int) -> list[str]:
    """A Siamese reflexive part: loops everywhere, a reflexive Deza graph
    ((2n-1)n, n^2, n(n+1)/2, n^2/2)."""
    k = n * n
    errs = zero_one_errors(m, loops=True) + regular_errors(m, k)
    if not np.array_equal(m, m.T):
        errs.append("not symmetric")
    return errs + two_valued_errors(product(m, m), k, k, n * n // 2, n * (n + 1) // 2)


def directed_twin_part_errors(m: np.ndarray, n: int) -> list[str]:
    """A part of twin_directed: type-II ((2n-1)n, n(n-1), n(n-1)/2,
    n(n-2)/2), and *not* a DDD on the blocks of n vertices: the
    cross-class common-neighbour counts take both values."""
    k, order = n * (n - 1), (2 * n - 1) * n
    errs = zero_one_errors(m) + regular_errors(m, k)
    errs += _gram_errors(m, k, n * (n - 2) // 2, n * (n - 1) // 2)
    classes = np.arange(order) // n
    cross = product(m, m.T)[classes[:, None] != classes[None, :]]
    if np.unique(cross).size < 2:
        errs.append("cross-class counts are constant, so the block classes would be a DDD")
    return errs


def directed_reflexive_errors(ra: np.ndarray, n: int) -> list[str]:
    """RA = A + I x J_n of twin_directed: under M M^t, two-valued
    {n^2/2, n(n+1)/2} with diagonal n^2."""
    k = n * n
    errs = zero_one_errors(ra, loops=True) + regular_errors(ra, k)
    return errs + _gram_errors(ra, k, n * n // 2, n * (n + 1) // 2)
