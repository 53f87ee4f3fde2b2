import numpy as np
import pytest

from dezakit.finite_field import factor_prime_power
from dezakit.hadamard import (HadamardMatrix, is_normalized, is_skew_type, normalize,
                              paley_skew, sylvester)
from dezakit.matrix_core import SizeBoundError, identity

from conftest import SKEW_HADAMARD_4, naive_matmul


def test_sylvester_base_cases():
    assert np.array_equal(sylvester(0).matrix, np.array([[1]]))
    assert np.array_equal(sylvester(1).matrix, np.array([[1, 1], [1, -1]]))


def test_sylvester_order_4_kronecker_power():
    expected = np.array([
        [1, 1, 1, 1],
        [1, -1, 1, -1],
        [1, 1, -1, -1],
        [1, -1, -1, 1]])
    assert np.array_equal(sylvester(2).matrix, expected)
    assert is_normalized(sylvester(2))


def test_sylvester_order_8_gram():
    h = sylvester(3).matrix
    assert np.array_equal(naive_matmul(h, h.T), 8 * identity(8))


def test_sylvester_size_bound():
    with pytest.raises(SizeBoundError):
        sylvester(11)


@pytest.mark.parametrize("q", [3, 7, 11, 19, 23])
def test_paley_skew_families(q):
    h = paley_skew(q)
    n = q + 1
    assert np.array_equal(h.matrix + h.matrix.T, 2 * identity(n))
    assert np.array_equal(h.matrix @ h.matrix.T, n * identity(n))
    assert is_skew_type(h)


def test_paley_skew_rejects_wrong_congruence():
    with pytest.raises(ValueError):
        paley_skew(5)
    with pytest.raises(ValueError):
        paley_skew(15)


def test_paley_skew_size_bound():
    with pytest.raises(SizeBoundError):
        paley_skew(211)


def test_normalize_fixes_negated_matrix():
    h4 = sylvester(2)
    negated = HadamardMatrix(-h4.matrix)
    assert np.array_equal(normalize(negated).matrix, h4.matrix)


def test_normalize_is_idempotent():
    h = normalize(paley_skew(7))
    assert is_normalized(h)
    again = normalize(h)
    assert np.array_equal(again.matrix, h.matrix)
    assert np.array_equal(h.matrix @ h.matrix.T, 8 * identity(8))


def test_is_skew_type_cases():
    assert is_skew_type(HadamardMatrix(SKEW_HADAMARD_4))
    assert not is_skew_type(sylvester(2))
    assert is_skew_type(HadamardMatrix(np.array([[1]])))


def test_hadamard_validation():
    with pytest.raises(ValueError):
        HadamardMatrix(np.array([[1, 1], [1, 1]]))
    with pytest.raises(ValueError):
        HadamardMatrix(np.array([[1, 0], [0, 1]]))


def test_factor_prime_power():
    assert factor_prime_power(27) == (3, 3)
    assert factor_prime_power(7) == (7, 1)
    with pytest.raises(ValueError):
        factor_prime_power(12)
