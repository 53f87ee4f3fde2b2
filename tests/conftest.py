"""Shared test data: the two reference order-8 adjacency matrices, the
Hadamard matrices they derive from, the identity suite's check names,
session-cached search results, and the hypothesis profile every
property test runs under."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

import dezakit as dz
from dezakit.decompose_search import _search

# the same examples on every run, and no wall-clock deadline to trip on
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

# directed (8, 3, 3, 1, 0)-Deza graph
DEZA_8_3_3_1_0 = np.array([
    [0, 0, 1, 0, 1, 0, 1, 0],
    [0, 0, 0, 1, 0, 1, 0, 1],
    [0, 1, 0, 0, 1, 0, 0, 1],
    [1, 0, 0, 0, 0, 1, 1, 0],
    [0, 1, 0, 1, 0, 0, 1, 0],
    [1, 0, 1, 0, 0, 0, 0, 1],
    [0, 1, 1, 0, 0, 1, 0, 0],
    [1, 0, 0, 1, 1, 0, 0, 0],
], dtype=np.int64)

# directed (8, 4, 3, 1, 1)-Deza graph
DEZA_8_4_3_1_1 = np.array([
    [0, 1, 0, 1, 0, 1, 0, 1],
    [1, 0, 1, 0, 1, 0, 1, 0],
    [1, 0, 0, 1, 0, 1, 1, 0],
    [0, 1, 1, 0, 1, 0, 0, 1],
    [1, 0, 1, 0, 0, 1, 0, 1],
    [0, 1, 0, 1, 1, 0, 1, 0],
    [1, 0, 0, 1, 1, 0, 0, 1],
    [0, 1, 1, 0, 0, 1, 1, 0],
], dtype=np.int64)

# skew-type Hadamard matrix of order 4 whose blow-up is DEZA_8_3_3_1_0
SKEW_HADAMARD_4 = np.array([
    [1, 1, 1, 1],
    [-1, 1, 1, -1],
    [-1, -1, 1, 1],
    [-1, 1, -1, 1],
], dtype=np.int64)

# normalized Hadamard matrix of order 4 feeding the twin examples
NORMALIZED_HADAMARD_4 = np.array([
    [1, 1, 1, 1],
    [1, 1, -1, -1],
    [1, -1, 1, -1],
    [1, -1, -1, 1],
], dtype=np.int64)

# the checks of construct.check_construction_identities, in report order
IDENTITY_CHECKS = ("transpose", "symbol_sum", "same_symbol_product", "distinct_symbol_product",
                   "shift_action", "shift_fixes_y_blocks", "offset_double_cover",
                   "product_expansion")


@pytest.fixture(scope="session")
def deza_8_3() -> dz.Digraph:
    return dz.Digraph(DEZA_8_3_3_1_0)


@pytest.fixture(scope="session")
def deza_8_4() -> dz.Digraph:
    return dz.Digraph(DEZA_8_4_3_1_1)


@pytest.fixture(scope="session")
def skew_h4() -> dz.HadamardMatrix:
    return dz.HadamardMatrix(SKEW_HADAMARD_4)


@pytest.fixture(scope="session")
def normalized_h4() -> dz.HadamardMatrix:
    return dz.HadamardMatrix(NORMALIZED_HADAMARD_4)


@pytest.fixture(scope="session")
def dsrg_catalogue_7():
    """All DSRGs with t < k on up to 7 vertices (labeled enumeration)."""
    return dz.search_dsrg(7)


@pytest.fixture(scope="session")
def lambda_mu_catalogue_8():
    """All lam = mu DSRGs with t < k on up to 8 vertices."""
    return dz.search_dsrg(8, require_lambda_eq_mu=True)


@pytest.fixture(scope="session")
def lambda_mu_classes_8(lambda_mu_catalogue_8):
    """One (params, digraph) per isomorphism class of lambda_mu_catalogue_8:
    the canonical-form dedup of every hit."""
    reps = {}
    for params, d in lambda_mu_catalogue_8:
        reps.setdefault(dz.canonical_form(d), (params, d))
    return list(reps.values())


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop integer product, the independent oracle for exact_matmul."""
    n, mid = a.shape
    mid2, m = b.shape
    assert mid == mid2
    out = np.zeros((n, m), dtype=np.int64)
    for i in range(n):
        for j in range(m):
            s = 0
            for w in range(mid):
                s += int(a[i, w]) * int(b[w, j])
            out[i, j] = s
    return out


def kronecker_rep(field, a) -> np.ndarray:
    """The translation by a as the Kronecker product U^{a_0} x ... x
    U^{a_{m-1}} of powers of the p x p cyclic shift U, the oracle for
    finite_field.rep."""
    shift = np.roll(np.eye(field.p, dtype=np.int64), 1, axis=1)
    out = np.ones((1, 1), dtype=np.int64)
    for x in a:
        out = np.kron(out, np.linalg.matrix_power(shift, x))
    return out


def two_path_count(m: np.ndarray, u: int, v: int) -> int:
    """|{w : u -> w -> v}| counted directly from arcs."""
    return sum(1 for w in range(m.shape[0]) if m[u, w] and m[w, v])


def search_hits(n: int, k: int, t: int, allowed):
    """The hits of decompose_search._search one at a time, as (matrix,
    index of it or its preimage among the first-block hits), flattened
    from its stacks in order; lazy, so islice stops the search."""
    for ms, js in _search(n, k, t, allowed):
        yield from zip(ms, js)
