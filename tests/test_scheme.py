import itertools

import numpy as np
import pytest

import dezakit as dz
from dezakit.matrix_core import identity, ones
from dezakit.scheme import (SchemeError, fusion_digraph, paley_tournament,
                            tournament_scheme, verify_scheme)

from conftest import search_hits, two_path_count


def triple_count(relations, i, j, x, y):
    n = relations[0].shape[0]
    return sum(1 for w in range(n) if relations[i][x, w] and relations[j][w, y])


def assert_intersection_numbers_match(scheme):
    """p_{i,j}^k from the verifier equals the direct triple count at every
    pair of the relation, not just the representative."""
    d = scheme.d
    n = scheme.n
    for i in range(d + 1):
        for j in range(d + 1):
            for k in range(d + 1):
                expected = scheme.p(i, j, k)
                for x in range(n):
                    for y in range(n):
                        if scheme.relations[k][x, y]:
                            assert triple_count(scheme.relations, i, j, x, y) == expected


def test_one_class_scheme():
    n = 5
    s = verify_scheme([identity(n), ones(n) - identity(n)])
    assert s.d == 1
    assert s.p(1, 1, 0) == n - 1
    assert s.p(1, 1, 1) == n - 2
    assert_intersection_numbers_match(s)


def test_tournament_scheme_is_two_class_non_symmetric():
    s = tournament_scheme(7)
    assert s.d == 2
    a = s.relations[1]
    assert not np.array_equal(a, a.T)
    assert np.array_equal(a.T, s.relations[2])
    assert s.p(1, 1, 0) == 0
    assert {s.p(1, 1, 1), s.p(1, 1, 2)} == {1, 2}
    assert_intersection_numbers_match(s)


def test_scheme_axiom_failures():
    n = 3
    # symmetric non-regular relation: axioms 1-3 hold, axiom 4 cannot
    path = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.int64)
    with pytest.raises(SchemeError) as exc:
        verify_scheme([identity(n), path, ones(n) - identity(n) - path])
    assert exc.value.axiom == 4
    with pytest.raises(SchemeError) as exc:
        verify_scheme([ones(2) - identity(2), identity(2)])
    assert exc.value.axiom == 1
    with pytest.raises(SchemeError) as exc:
        verify_scheme([identity(2), identity(2)])
    assert exc.value.axiom == 2
    asym = np.zeros((4, 4), dtype=np.int64)
    asym[0, 1] = asym[1, 2] = asym[2, 3] = asym[3, 0] = 1
    rest = ones(4) - identity(4) - asym
    with pytest.raises(SchemeError) as exc:
        verify_scheme([identity(4), asym, rest])
    assert exc.value.axiom == 3


@pytest.mark.parametrize("q,expected", [
    (3, (3, 1, 1, 0, 0)),
    (7, (7, 3, 2, 1, 0)),
    (11, (11, 5, 3, 2, 0)),
])
def test_paley_tournament_parameters(q, expected):
    d = paley_tournament(q)
    rep = dz.verify_deza_digraph(d)
    assert rep.params.as_tuple() == expected
    a = d.adjacency
    t = (q - 3) // 4
    assert np.array_equal(a + a.T, ones(q) - identity(q))
    assert np.array_equal(a @ a, (t + 1) * (ones(q) - identity(q)) - a)


def test_paley_tournament_congruence_check():
    with pytest.raises(ValueError):
        paley_tournament(5)


def test_fusion_single_class_of_tournament():
    s = tournament_scheme(7)
    digraph, report = fusion_digraph(s, [1])
    assert report.at_most_two
    assert report.fused_values == (1, 2)
    assert report.t_from_scheme == 0
    assert report.params.as_tuple() == (7, 3, 2, 1, 0)
    assert report.verification.params.as_tuple() == (7, 3, 2, 1, 0)
    assert np.array_equal(digraph.adjacency, s.relations[1])


def test_fusion_all_classes_gives_complete_digraph():
    s = tournament_scheme(7)
    digraph, report = fusion_digraph(s, [1, 2])
    assert np.array_equal(digraph.adjacency, ones(7) - identity(7))
    assert len(report.fused_values) == 1
    # undirected case: flagged through the direct verification
    assert report.verification.classification == "deza_graph"


def test_fusion_symmetric_pair_is_symmetric():
    s = tournament_scheme(11)
    digraph, _ = fusion_digraph(s, [1, 2])
    assert np.array_equal(digraph.adjacency, digraph.adjacency.T)


def test_fusion_rejects_bad_index():
    s = tournament_scheme(7)
    with pytest.raises(ValueError):
        fusion_digraph(s, [])
    with pytest.raises(ValueError):
        fusion_digraph(s, [0])
    with pytest.raises(ValueError):
        fusion_digraph(s, [3])


def _srg_parameter_candidates(n_max):
    for n in range(3, n_max + 1):
        for k in range(1, n):
            for lam in range(0, k):
                rest = k * (k - lam - 1)
                den = n - k - 1
                if den == 0:
                    if rest == 0:
                        yield n, k, lam, 0
                    continue
                if rest % den == 0 and 0 <= rest // den <= k:
                    yield n, k, lam, rest // den


def enumerate_two_class_schemes(n_max):
    """Every 2-class association scheme on at most n_max vertices, one
    representative per realized parameter tuple (on this range each tuple
    has a single isomorphism class, so this is one per class).

    Symmetric case: strongly regular graphs, searched as digraphs with
    t = k (which forces symmetry).  Non-symmetric case: doubly regular
    tournaments, searched with t = 0 and arc-dependent counts.
    """
    reps = {}
    for n, k, lam, mu in _srg_parameter_candidates(n_max):
        for m, _ in itertools.islice(search_hits(n, k, k, ({mu}, {lam})), 1):
            key = ("srg", n, k, lam, mu)
            if key not in reps:
                rest = ones(n) - identity(n) - m
                mats = [identity(n), m] + ([rest] if rest.any() else [])
                reps[key] = verify_scheme(mats)
    for n in (3, 7):
        t = (n - 3) // 4
        for m, _ in itertools.islice(search_hits(n, (n - 1) // 2, 0, ({t + 1}, {t})), 1):
            key = ("drt", n)
            if key not in reps:
                reps[key] = verify_scheme([identity(n), m, m.T])
    return list(reps.values())


def test_fusion_on_every_two_class_scheme_up_to_nine():
    schemes = enumerate_two_class_schemes(9)
    assert len(schemes) >= 5
    assert any(s.d == 2 and not np.array_equal(s.relations[1], s.relations[1].T)
               for s in schemes)
    for s in schemes:
        if s.d != 2:
            continue
        _, report = fusion_digraph(s, [1])
        assert report.at_most_two  # automatic when d = 2
        if report.verification.ok:
            assert report.params.as_tuple() == report.verification.params.as_tuple()


def test_fused_counts_match_direct_paths():
    s = tournament_scheme(7)
    digraph, report = fusion_digraph(s, [1])
    m = digraph.adjacency
    fused = {}
    for k in (1, 2):
        x, y = [int(c) for c in np.argwhere(s.relations[k] == 1)[0]]
        fused[k] = two_path_count(m, x, y)
    assert tuple(sorted(fused.values())) == report.fused_values


def group_scheme(elements, compose):
    """The thin scheme of a group on its own elements: x is in relation g
    with x * g; elements[0] must be the identity."""
    index = {g: i for i, g in enumerate(elements)}
    n = len(elements)
    mats = [np.zeros((n, n), dtype=np.int64) for _ in elements]
    for x in elements:
        for g in elements:
            mats[index[g]][index[x], index[compose(x, g)]] = 1
    return mats


def test_cyclic_group_scheme_intersection_numbers():
    n = 6
    s = verify_scheme(group_scheme(list(range(n)), lambda x, g: (x + g) % n))
    assert s.d == n - 1
    # A_i A_j = A_{i+j}: p_{i,j}^k is 1 exactly when k = i + j mod n
    for i, j, k in itertools.product(range(n), repeat=3):
        assert s.p(i, j, k) == int(k == (i + j) % n)
    assert_intersection_numbers_match(s)


def test_non_commutative_group_scheme_violates_axiom_five():
    # right multiplication in S3: axioms 1-4 hold, and the first two
    # transpositions (1 2) and (0 1) do not commute
    perms = list(itertools.permutations(range(3)))
    mats = group_scheme(perms, lambda x, g: tuple(x[g[i]] for i in range(3)))
    with pytest.raises(SchemeError) as exc:
        verify_scheme(mats)
    assert exc.value.axiom == 5
    assert str(exc.value) == "axiom (5) violated: A_1 and A_2 do not commute"


@pytest.mark.parametrize("mats, axiom, message", [
    ([], 1, "no relation matrices given"),
    ([identity(3), np.ones((3, 2), dtype=np.int64)], 1,
     "relation 1 has shape (3, 2), expected (3, 3)"),
    ([identity(2), 2 * (ones(2) - identity(2))], 1, "relation 1 is not a 0/1 matrix"),
    ([identity(3), ones(3) - identity(3), np.zeros((3, 3), dtype=np.int64)], 2,
     "relation 2 is empty"),
], ids=["no_relations", "shape", "not_zero_one", "empty_relation"])
def test_scheme_axiom_messages(mats, axiom, message):
    with pytest.raises(SchemeError) as exc:
        verify_scheme(mats)
    assert (exc.value.axiom, exc.value.detail) == (axiom, message)
    assert str(exc.value) == f"axiom ({axiom}) violated: {message}"


@pytest.mark.parametrize("kind, n", [("tournament", q) for q in (3, 7, 11)]
                         + [("cyclic", n) for n in range(5, 9)])
def test_fusion_t_counts_every_pair_of_fused_relations(kind, n):
    """t is (A_F^2)[x, x] = sum_{f, g in F} p_{f,g}^0: a fusion holding a
    relation and its transpose, such as both classes of a tournament,
    counts the closed two-paths through the pair.  Every nonempty F."""
    s = (tournament_scheme(n) if kind == "tournament"
         else verify_scheme(group_scheme(list(range(n)), lambda x, g: (x + g) % n)))
    for size in range(1, s.d + 1):
        for fuse in itertools.combinations(range(1, s.d + 1), size):
            digraph, report = fusion_digraph(s, fuse)
            m = digraph.adjacency
            assert report.t_from_scheme == int((m @ m)[0, 0]), fuse
            if report.at_most_two and report.verification.ok:
                assert report.params == report.verification.params, fuse
