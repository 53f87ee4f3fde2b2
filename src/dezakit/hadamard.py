"""Hadamard matrix supply: Sylvester doubling, Paley skew-type
matrices from quadratic residues, normalization, and the skew-type test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .finite_field import odd_prime_power_field, quadratic_character_matrix
from .matrix_core import (SizeBoundError, _frozen, as_int_matrix, exact_matmul,
                          identity, kronecker)

_SYLVESTER_MAX_K = 10
_PALEY_MAX_ORDER = 200


@dataclass(frozen=True)
class HadamardMatrix:
    matrix: np.ndarray

    def __post_init__(self):
        m = as_int_matrix(_frozen(self.matrix))
        if not bool(((m == 1) | (m == -1)).all()):
            raise ValueError("Hadamard entries must be +1 or -1")
        n = m.shape[0]
        if not np.array_equal(exact_matmul(m, m.T), n * identity(n)):
            raise ValueError("H @ H.T != order * I")
        object.__setattr__(self, "matrix", m)

    @property
    def order(self) -> int:
        return self.matrix.shape[0]


def sylvester(k: int) -> HadamardMatrix:
    """The order-2^k Kronecker power of [[1,1],[1,-1]]; normalized."""
    if k < 0 or k > _SYLVESTER_MAX_K:
        raise SizeBoundError(f"k must be in [0, {_SYLVESTER_MAX_K}]")
    h = identity(1)
    base = np.array([[1, 1], [1, -1]], dtype=np.int64)
    for _ in range(k):
        h = kronecker(h, base)
    return HadamardMatrix(h)


def paley_skew(q: int) -> HadamardMatrix:
    """Skew-type Hadamard matrix of order q+1 for a prime power q = 3 mod 4."""
    field = odd_prime_power_field(q, 3)
    if q + 1 > _PALEY_MAX_ORDER:
        raise SizeBoundError(f"order {q + 1} exceeds the bound {_PALEY_MAX_ORDER}")
    n = q + 1
    c = np.zeros((n, n), dtype=np.int64)
    c[0, 1:] = 1
    c[1:, 0] = -1
    c[1:, 1:] = quadratic_character_matrix(field)
    h = HadamardMatrix(identity(n) + c)
    if not is_skew_type(h):
        raise RuntimeError(f"Paley matrix of q = {q} is not skew-type (H + H^t != 2I)")
    return h


def normalize(h: HadamardMatrix) -> HadamardMatrix:
    """Negate rows, then columns, until the first row and column are +1."""
    m = h.matrix.copy()
    for i in range(m.shape[0]):
        if m[i, 0] == -1:
            m[i, :] *= -1
    for j in range(m.shape[1]):
        if m[0, j] == -1:
            m[:, j] *= -1
    return HadamardMatrix(m)


def is_normalized(h: HadamardMatrix) -> bool:
    return bool((h.matrix[0, :] == 1).all() and (h.matrix[:, 0] == 1).all())


def is_skew_type(h: HadamardMatrix) -> bool:
    """True iff H + H.T = 2I exactly."""
    n = h.order
    return bool(np.array_equal(h.matrix + h.matrix.T, 2 * identity(n)))
