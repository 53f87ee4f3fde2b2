"""GF(p^m) arithmetic for odd p, plus the field-matrix gadgets the
constructions need: the quadratic-character matrix and the translation
matrices of the additive group.

Elements are coefficient tuples (c0, ..., c_{m-1}), c_i the coefficient
of x^i, each in [0, p), listed in lexicographic order, zero first: an
element's index is its vector read as a base-p numeral (c0 leading,
FiniteField.numeral).  All matrices index rows/columns by that order.
"""

from __future__ import annotations

import itertools

import numpy as np

from .matrix_core import SizeBoundError, check_order, identity

MAX_ORDER = 2**16

Element = tuple[int, ...]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def factor_prime_power(q: int) -> tuple[int, int]:
    """Write q = p^m with p prime, or raise."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = 2
    while p * p <= q:
        if q % p == 0:
            m = 0
            r = q
            while r % p == 0:
                r //= p
                m += 1
            if r != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, m
        p += 1
    return q, 1


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, mod, p):
    # mod is monic
    a = list(a)
    dm = len(mod) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        shift = len(a) - 1 - dm
        if lead:
            for i, c in enumerate(mod):
                a[shift + i] = (a[shift + i] - lead * c) % p
        a.pop()
    return _poly_trim(a)


def _is_irreducible(poly, p):
    """Trial division by every lower-degree monic polynomial."""
    deg = len(poly) - 1
    for d in range(1, deg):
        for low in itertools.product(range(p), repeat=d):
            divisor = list(low) + [1]
            if not _poly_mod(poly, divisor, p):
                return False
    return True


class FiniteField:
    """The field GF(p^m) with a deterministic modulus and element order.

    The modulus is the lexicographically smallest monic irreducible of
    degree m over F_p, comparing coefficient tuples low-degree first.
    """

    def __init__(self, p: int, m: int):
        if not is_prime(p) or p == 2:
            raise ValueError(f"p must be an odd prime, got {p}")
        if m < 1:
            raise ValueError("m must be a positive integer")
        _check_order(p**m)
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = self._find_modulus(p, m)
        self.elements: list[Element] = [
            e for e in itertools.product(range(p), repeat=m)
        ]
        self._index = {e: i for i, e in enumerate(self.elements)}
        self.zero: Element = self.elements[0]
        self.one: Element = tuple([1] + [0] * (m - 1))

    @staticmethod
    def _find_modulus(p, m):
        for low in itertools.product(range(p), repeat=m):
            poly = list(low) + [1]
            if _is_irreducible(poly, p):
                return tuple(poly)
        raise RuntimeError("no irreducible polynomial found")  # unreachable

    def index_of(self, a: Element) -> int:
        return self._index[a]

    def element(self, i: int) -> Element:
        return self.elements[i]

    def vectors(self) -> np.ndarray:
        """The q x m int64 array whose row i is element i's vector."""
        return np.array(self.elements, dtype=np.int64)

    def numeral(self, coords) -> np.ndarray:
        """The indices of the coefficient vectors along the last axis of
        coords, reduced mod p, so vectors added or subtracted before the
        call add or subtract the elements."""
        weights = self.p ** np.arange(self.m - 1, -1, -1, dtype=np.int64)
        return (np.asarray(coords, dtype=np.int64) % self.p) @ weights

    def check_member(self, a: Element):
        if a not in self._index:
            raise ValueError(f"{a} is not an element of GF({self.p}^{self.m})")

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a: Element) -> Element:
        return tuple((-x) % self.p for x in a)

    def sub(self, a: Element, b: Element) -> Element:
        return self.add(a, self.neg(b))

    def mul(self, a: Element, b: Element) -> Element:
        prod = _poly_mul(_poly_trim(list(a)), _poly_trim(list(b)), self.p)
        red = _poly_mod(prod, list(self.modulus), self.p)
        return tuple(red + [0] * (self.m - len(red)))

    def nonzero_squares(self) -> set[Element]:
        return {self.mul(a, a) for a in self.elements if a != self.zero}

    def chi(self, a: Element) -> int:
        """Quadratic character: 0 at zero, +1 on nonzero squares, -1 otherwise."""
        if a == self.zero:
            return 0
        return 1 if a in self.nonzero_squares() else -1


def make_field(p: int, m: int) -> FiniteField:
    return FiniteField(p, m)


def _check_order(q: int):
    if q > MAX_ORDER:
        raise SizeBoundError(f"field order {q} exceeds the bound {MAX_ORDER}")


def odd_prime_power_field(q: int, residue: int | None = None) -> FiniteField:
    """GF(q) for an odd prime power q, which must be congruent to residue
    mod 4 when residue is given.  The order bound is checked first, so a
    huge q is rejected without factoring it."""
    _check_order(q)
    p, m = factor_prime_power(q)
    if p == 2:
        raise ValueError(f"q = {q} must be an odd prime power")
    if residue is not None and q % 4 != residue:
        raise ValueError(f"q = {q} must be congruent to {residue} mod 4")
    return FiniteField(p, m)


def quadratic_character_matrix(field: FiniteField) -> np.ndarray:
    """The q x q matrix with (i, j) entry chi(e_j - e_i) in the element
    order: 0 on the diagonal, +1 where e_j - e_i is a nonzero square and
    -1 elsewhere."""
    check_order(field.q)
    chi = np.full(field.q, -1, dtype=np.int64)
    chi[0] = 0
    chi[[field.index_of(s) for s in field.nonzero_squares()]] = 1
    e = field.vectors()
    return chi[field.numeral(e[None, :, :] - e[:, None, :])]


def rep(field: FiniteField, a: Element) -> np.ndarray:
    """The q x q permutation matrix of the translation x -> x + a of the
    additive group: row i has its one in column numeral(e_i + a).  It is
    a faithful representation, rep(a) rep(b) = rep(a + b)."""
    field.check_member(a)
    return identity(field.q)[field.numeral(field.vectors() + a)]
