import itertools
from collections import Counter

import numpy as np
import pytest

from dezakit.finite_field import factor_prime_power, make_field, rep
from dezakit.matrix_core import identity, ones

from conftest import naive_matmul


def power(f, a, e):
    """a to the power e in f, by repeated multiplication."""
    out = f.one
    for _ in range(e):
        out = f.mul(out, a)
    return out


def multiplication_table(f):
    """The q x q table with (i, j) entry elements[i] * elements[j]."""
    return [[f.mul(a, b) for b in f.elements] for a in f.elements]


def is_generalized_hadamard(f, table, g, lam):
    """The GH(g, lambda) property over the additive group of f: for every
    pair of distinct rows, the entrywise differences hit each of the g
    group elements exactly lambda times."""
    size = len(table)
    if size != g * lam or any(len(row) != size for row in table):
        raise ValueError(f"matrix order {size} does not equal g*lambda = {g * lam}")
    if g != f.q:
        raise ValueError("group order must match the field order")
    for i in range(size):
        for k in range(size):
            if i != k:
                diffs = Counter(f.sub(x, y) for x, y in zip(table[i], table[k]))
                if len(diffs) != g or any(c != lam for c in diffs.values()):
                    return False
    return True


def test_prime_field():
    f = make_field(3, 1)
    assert f.q == 3
    assert f.modulus == (0, 1)  # the monic degree-1 polynomial x
    assert f.elements[0] == f.zero


def test_gf9_frobenius_fixed_points():
    f = make_field(3, 2)
    assert f.q == 9
    for a in f.elements:
        assert power(f, a, 9) == a


def test_gf9_modulus_is_smallest_irreducible():
    # degree-2 candidates over F_3 in low-degree-first order: x^2, x^2+x,
    # x^2+2x all factor; x^2+1 is the first irreducible
    f = make_field(3, 2)
    assert f.modulus == (1, 0, 1)


def test_gf5_multiplicative_group_cyclic_of_order_4():
    f = make_field(5, 1)
    orders = []
    for a in f.elements:
        if a == f.zero:
            continue
        o = 1
        x = a
        while x != f.one:
            x = f.mul(x, a)
            o += 1
        orders.append(o)
    assert max(orders) == 4
    assert all(4 % o == 0 for o in orders)


def test_field_arith_identities():
    f = make_field(7, 1)
    for a in f.elements:
        assert f.add(a, f.neg(a)) == f.zero
        assert f.mul(a, f.one) == a
    with pytest.raises(ValueError, match="not an element"):
        f.check_member((7,))


def test_gf9_distributivity_exhaustive():
    f = make_field(3, 2)
    for a, b, c in itertools.product(f.elements, repeat=3):
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_make_field_rejects_bad_input():
    with pytest.raises(ValueError):
        make_field(2, 1)
    with pytest.raises(ValueError):
        make_field(9, 1)
    with pytest.raises(ValueError):
        make_field(3, 11)  # 3^11 exceeds the order bound


def test_factor_prime_power_matches_naive_loop():
    def naive(q):
        for p in range(2, q + 1):
            if q % p == 0:
                m = 0
                while q % p == 0:
                    q //= p
                    m += 1
                return (p, m) if q == 1 else None

    for q in range(2, 5001):
        try:
            got = factor_prime_power(q)
        except ValueError:
            got = None
        assert got == naive(q), q


def test_multiplication_table_gf3():
    f = make_field(3, 1)
    table = multiplication_table(f)
    as_ints = [[row[0] for row in line] for line in table]
    assert as_ints == [[0, 0, 0], [0, 1, 2], [0, 2, 1]]


def test_table_zero_row():
    f = make_field(5, 1)
    table = multiplication_table(f)
    assert all(x == f.zero for x in table[0])


def test_table_negated_rows():
    f = make_field(5, 1)
    table = multiplication_table(f)
    for i, a in enumerate(f.elements):
        j = f.index_of(f.neg(a))
        assert [f.neg(x) for x in table[i]] == table[j]


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (3, 2), (7, 1)])
def test_table_is_generalized_hadamard(p, m):
    f = make_field(p, m)
    assert is_generalized_hadamard(f, multiplication_table(f), f.q, 1)


def test_generalized_hadamard_rejects_constant():
    f = make_field(3, 1)
    zero_table = [[f.zero] * 3 for _ in range(3)]
    assert not is_generalized_hadamard(f, zero_table, 3, 1)


def test_generalized_hadamard_row_permutation_invariant():
    f = make_field(5, 1)
    table = multiplication_table(f)
    permuted = [table[i] for i in (3, 0, 4, 1, 2)]
    assert is_generalized_hadamard(f, permuted, 5, 1)


def test_generalized_hadamard_dimension_check():
    f = make_field(3, 1)
    with pytest.raises(ValueError):
        is_generalized_hadamard(f, multiplication_table(f), 3, 2)


def test_rep_zero_is_identity():
    f = make_field(3, 2)
    assert np.array_equal(rep(f, f.zero), identity(9))


def test_rep_is_homomorphism_gf9():
    f = make_field(3, 2)
    images = {a: rep(f, a) for a in f.elements}
    for a, b in itertools.product(f.elements, repeat=2):
        assert np.array_equal(naive_matmul(images[a], images[b]), images[f.add(a, b)])


def test_rep_transpose_is_negation_gf5():
    f = make_field(5, 1)
    for a in f.elements:
        assert np.array_equal(rep(f, a).T, rep(f, f.neg(a)))


@pytest.mark.parametrize("p,m", [(3, 2), (7, 2)])
def test_rep_faithful_and_sums_to_all_ones(p, m):
    f = make_field(p, m)
    images = [rep(f, a) for a in f.elements]
    seen = {im.tobytes() for im in images}
    assert len(seen) == f.q
    assert np.array_equal(sum(images), ones(f.q))


def test_quadratic_character():
    f = make_field(7, 1)
    squares = {f.mul(a, a) for a in f.elements if a != f.zero}
    assert squares == {(1,), (2,), (4,)}
    assert f.chi((1,)) == 1 and f.chi((3,)) == -1 and f.chi(f.zero) == 0
