from dataclasses import astuple, fields

import numpy as np
import pytest

import dezakit as dz
from dezakit.matrix_core import Digraph, identity, ones, zeros
from dezakit.verify import (DddParams, DesignParams, DezaGraphParams, DezaParams, DsrgParams,
                            VerificationReport, deza_children, feasibility,
                            verify_ddd, verify_deza_digraph, verify_deza_graph, verify_dsrg,
                            verify_reflexive_directed_deza,
                            verify_symmetric_design, verify_type2)

from conftest import DEZA_8_3_3_1_0, DEZA_8_4_3_1_1, two_path_count


def direct_alpha_beta(m, a, b):
    """Partner counts of vertex 0 straight from the arc lists."""
    n = m.shape[0]
    counts = [two_path_count(m, 0, v) for v in range(1, n)]
    return sum(1 for c in counts if c == a), sum(1 for c in counts if c == b)


def test_order8_deza_example(deza_8_3):
    rep = verify_deza_digraph(deza_8_3)
    assert rep.classification == "deza_digraph"
    assert rep.params.as_tuple() == (8, 3, 3, 1, 0)
    assert (rep.alpha, rep.beta) == (6, 1)
    assert (rep.alpha_formula, rep.beta_formula) == (6, 1)
    assert rep.consistent
    assert direct_alpha_beta(DEZA_8_3_3_1_0, 1, 3) == (6, 1)


def test_order8_deza_example_with_mutual_pairs(deza_8_4):
    rep = verify_deza_digraph(deza_8_4)
    assert rep.params.as_tuple() == (8, 4, 3, 1, 1)
    assert (rep.alpha, rep.beta) == (3, 4)
    assert rep.consistent
    assert direct_alpha_beta(DEZA_8_4_3_1_1, 1, 3) == (3, 4)


def test_directed_5_cycle():
    d = dz.directed_cycle(5)
    rep = verify_deza_digraph(d)
    assert rep.params.as_tuple() == (5, 1, 1, 0, 0)
    assert (rep.alpha, rep.beta) == (3, 1)
    # direct oracle over every ordered pair
    m = d.adjacency
    for u in range(5):
        for v in range(5):
            if u != v:
                assert two_path_count(m, u, v) in (0, 1)


def test_children_partition(deza_8_3):
    x, y = deza_children(deza_8_3)
    assert np.array_equal(x.adjacency + y.adjacency + identity(8), ones(8))
    # b-positions of the (8,3,3,1,0) example form a 1-regular digraph
    assert (y.adjacency.sum(axis=1) == 1).all()


def test_children_of_dsrg_contains_adjacency():
    d = dz.paley_tournament(7)
    x, y = deza_children(d)
    assert np.array_equal(x.adjacency, d.adjacency) or np.array_equal(y.adjacency, d.adjacency)


def test_children_of_complete_digraph():
    x, y = deza_children(dz.complete_digraph(4))
    # single off-diagonal value: one position class holds everything
    assert not y.adjacency.any()
    assert np.array_equal(x.adjacency, ones(4) - identity(4))


def test_children_requires_success():
    bad = Digraph(np.array([[0, 1], [0, 0]], dtype=np.int64))
    assert not verify_deza_digraph(bad).ok
    with pytest.raises(ValueError, match="not a directed Deza graph: out-degrees"):
        deza_children(bad)


def test_children_of_a_non_member_with_regular_degrees_raise():
    # 3-regular but M^2 takes three values off the diagonal
    d = Digraph(dz.circulant([0, 1, 1, 0, 1, 0, 0, 0]))
    rep = verify_deza_digraph(d)
    assert not rep.ok and "take 3 values" in rep.witness
    with pytest.raises(ValueError) as exc:
        deza_children(d)
    assert str(exc.value) == f"not a directed Deza graph: {rep.witness}"
    with pytest.raises(ValueError, match="has loops"):
        deza_children(Digraph(identity(3), loops_allowed=True))


def test_feasibility_reference_tuples():
    f = feasibility(DezaParams(8, 3, 3, 1, 0))
    assert (f.alpha, f.beta, f.feasible) == (6, 1, True)
    f = feasibility(DezaParams(8, 4, 3, 1, 1))
    assert (f.alpha, f.beta, f.feasible) == (3, 4, True)


def test_feasibility_non_integral():
    f = feasibility(DezaParams(8, 3, 3, 1, 1))
    assert not f.feasible
    assert f.alpha.denominator == 2


def test_feasibility_a_eq_b_inconsistent():
    f = feasibility(DezaParams(4, 2, 2, 2, 0))
    assert not f.feasible


def test_feasibility_zero_division():
    # a = b = 0 forces k^2 = t in a real digraph, so the counts are undefined
    with pytest.raises(ValueError, match=r"a = b = 0 with k\^2 = 4 != t = 0: counts undefined"):
        feasibility(DezaParams(4, 2, 0, 0, 0))


def test_feasibility_invariant_violation():
    with pytest.raises(ValueError):
        feasibility(DezaParams(4, 2, 1, 2, 0))
    # a loop-free digraph of order n has out-degree at most n - 1
    for params in [(2, 2, 2, 2, 2), (3, 3, 3, 3, 3), (4, 4, 4, 4, 4), (3, 3, 3, 0, 3)]:
        with pytest.raises(ValueError, match="parameter invariants violated"):
            feasibility(DezaParams(*params))


def test_dsrg_paley():
    rep = verify_dsrg(dz.paley_tournament(7))
    assert rep.classification == "dsrg"
    assert rep.params.as_tuple() == (7, 3, 1, 2, 0)


def test_dsrg_pentagon_via_srg_path():
    pentagon = Digraph(dz.circulant([0, 1, 0, 0, 1]))
    rep = verify_dsrg(pentagon)
    assert rep.classification == "srg"
    assert rep.params.as_tuple() == (5, 2, 0, 1, 2)


def test_dsrg_rejects_two_valued_example(deza_8_3):
    rep = verify_dsrg(deza_8_3)
    assert not rep.ok
    assert "not constant" in rep.witness


def test_type2_degenerate_permutation():
    rep = verify_type2(dz.directed_cycle(5))
    assert rep.params.as_tuple() == (5, 1, 0, 0)
    assert rep.alpha == rep.beta == 4


def test_type2_gram_mismatch_witness():
    m = np.zeros((4, 4), dtype=np.int64)
    m[0, 1] = m[1, 2] = m[2, 0] = m[3, 0] = 1
    m[0, 3] = 1
    # regular? no: this input fails regularity first
    rep = verify_type2(Digraph(m))
    assert not rep.ok


def test_ddd_reference_example(deza_8_3):
    rep = verify_ddd(deza_8_3, [[0, 1], [2, 3], [4, 5], [6, 7]])
    assert rep.params.as_tuple() == (8, 3, 0, 1, 4, 2)


def test_ddd_wrong_partition(deza_8_3):
    rep = verify_ddd(deza_8_3, [[0, 2], [1, 3], [4, 5], [6, 7]])
    assert not rep.ok
    assert "witness pair" in rep.witness


def test_ddd_requires_asymmetric():
    mutual = Digraph(np.array([[0, 1], [1, 0]], dtype=np.int64))
    rep = verify_ddd(mutual, [[0], [1]])
    assert not rep.ok
    assert "asymmetric" in rep.witness


def test_ddd_singleton_classes_degenerate():
    rep = verify_ddd(dz.directed_cycle(3), [[0], [1], [2]])
    assert rep.ok
    assert rep.params.m == 3 and rep.params.n_class == 1


def test_ddd_partition_validation(deza_8_3):
    with pytest.raises(ValueError):
        verify_ddd(deza_8_3, [[0, 1], [2, 3], [4, 5]])
    with pytest.raises(ValueError):
        verify_ddd(deza_8_3, [[0, 1, 2], [3, 4], [5, 6], [7]])


def test_ddd_partition_rejects_overlapping_classes():
    # the union is the vertex set, but every vertex lies in two classes
    with pytest.raises(ValueError, match="exactly once"):
        verify_ddd(dz.directed_cycle(3), [[0, 1, 2], [0, 1, 2]])
    with pytest.raises(ValueError, match="exactly once"):
        verify_ddd(dz.directed_cycle(4), [[0, 1], [0, 1], [2, 3]])


def test_discover_ddd_partition(deza_8_3):
    classes = dz.discover_ddd_partition(deza_8_3)
    assert classes is not None
    assert verify_ddd(deza_8_3, classes).params.as_tuple() == (8, 3, 0, 1, 4, 2)


def test_ddd_counts_match_direct_enumeration(deza_8_3):
    """The dominates-or-dominated z-count per pair equals the sum of the
    two Gram entries (the z-sets are disjoint under asymmetry), and is
    twice the per-direction lambda of the class pattern."""
    for d, classes in [
        (deza_8_3, [[0, 1], [2, 3], [4, 5], [6, 7]]),
        (dz.skew_hadamard_deza(dz.paley_skew(7)), None),
    ]:
        if classes is None:
            classes = dz.construct.pair_classes(d.n)
        m = d.adjacency
        n = d.n
        rep = verify_ddd(d, classes)
        assert rep.ok
        label = {}
        for ci, c in enumerate(classes):
            for v in c:
                label[v] = ci
        gram_sum = m @ m.T + m.T @ m
        for x in range(n):
            for y in range(x + 1, n):
                direct = sum(1 for z in range(n)
                             if (m[z, x] and m[z, y]) or (m[x, z] and m[y, z]))
                assert direct == gram_sum[x, y]
                lam = rep.params.lambda1 if label[x] == label[y] else rep.params.lambda2
                assert direct == 2 * lam


def test_deza_graph_complete_is_degenerate_srg():
    k4 = Digraph(ones(4) - identity(4))
    rep = verify_deza_graph(k4)
    assert rep.classification == "srg"
    assert rep.params.a == rep.params.b == 2


def test_deza_graph_pentagon():
    pentagon = Digraph(dz.circulant([0, 1, 0, 0, 1]))
    rep = verify_deza_graph(pentagon)
    assert rep.classification == "deza_graph"
    assert rep.params.as_tuple() == (5, 2, 1, 0)


def test_deza_graph_rejects_asymmetric():
    with pytest.raises(ValueError):
        verify_deza_graph(dz.directed_cycle(3))


def test_deza_graph_reflexive_requires_loops():
    pentagon = Digraph(dz.circulant([0, 1, 0, 0, 1]))
    with pytest.raises(ValueError):
        verify_deza_graph(pentagon, reflexive=True)


def test_reflexive_identity_matrix():
    rep = verify_reflexive_directed_deza(Digraph(identity(4), loops_allowed=True))
    assert rep.ok
    assert rep.square.offdiag_values == (0,)
    assert rep.mutual_count == 1


def test_reflexive_complete():
    rep = verify_reflexive_directed_deza(Digraph(ones(4), loops_allowed=True))
    assert rep.ok
    assert rep.square.offdiag_values == (4,)
    assert rep.gram.offdiag_values == (4,)


def test_reflexive_requires_all_loops():
    with pytest.raises(ValueError):
        verify_reflexive_directed_deza(dz.directed_cycle(3))


def test_symmetric_design_cases():
    fano = dz.qr_symmetric_design(7)
    assert verify_symmetric_design(fano).as_tuple() == (7, 3, 1)
    assert verify_symmetric_design(identity(5)).as_tuple() == (5, 1, 0)
    assert verify_symmetric_design(ones(4)).as_tuple() == (4, 4, 4)


def test_symmetric_design_gram_mismatch():
    m = np.array([[1, 1, 0, 0],
                  [0, 1, 1, 0],
                  [0, 0, 1, 1],
                  [1, 1, 0, 0]], dtype=np.int64)
    with pytest.raises(ValueError):
        verify_symmetric_design(m)


def test_regularity_witnesses():
    m = zeros(3)
    m[0, 1] = m[0, 2] = m[1, 2] = 1
    rep = verify_deza_digraph(Digraph(m))
    assert not rep.ok and "degree" in rep.witness


def test_three_value_witness_lists_multiset():
    m = np.array([
        [0, 1, 1, 0, 0, 0],
        [0, 0, 1, 1, 0, 0],
        [0, 0, 0, 1, 1, 0],
        [0, 0, 0, 0, 1, 1],
        [1, 0, 0, 0, 0, 1],
        [1, 1, 0, 0, 0, 0]], dtype=np.int64)
    rep = verify_deza_digraph(Digraph(m))
    if not rep.ok:
        assert "values" in rep.witness


def test_degenerate_orders_classified_literally():
    one = verify_deza_digraph(dz.empty_digraph(1))
    assert one.ok and one.params.as_tuple() == (1, 0, 0, 0, 0)
    two = verify_deza_digraph(dz.complete_digraph(2))
    assert two.ok and two.params.as_tuple() == (2, 1, 0, 0, 1)
    assert two.classification == "deza_graph"  # t = k, symmetric


@pytest.mark.parametrize("seed", range(4))
def test_classification_invariant_under_relabeling(seed, deza_8_3, deza_8_4):
    rng = np.random.default_rng(seed)
    # instances up to order 30: the order-24 blow-up is the largest
    for d in (deza_8_3, deza_8_4, dz.paley_tournament(7),
              dz.skew_hadamard_deza(dz.paley_skew(11))):
        perm = rng.permutation(d.n)
        relabeled = Digraph(d.adjacency[np.ix_(perm, perm)])
        a, b = verify_deza_digraph(d), verify_deza_digraph(relabeled)
        assert a.classification == b.classification
        assert a.params == b.params
        assert (a.alpha, a.beta) == (b.alpha, b.beta)


def test_reconstruction_identity(deza_8_3, deza_8_4):
    for d in (deza_8_3, deza_8_4, dz.directed_cycle(5), dz.paley_tournament(11)):
        p = verify_deza_digraph(d).params
        x, y = deza_children(d)
        m = d.adjacency
        lhs = p.a * x.adjacency + p.b * y.adjacency + p.t * identity(d.n)
        assert np.array_equal(lhs, m @ m)


def test_type2_reconstruction_identity():
    for q in (3, 5):  # order 325 at q = 5, read from strips of height 25
        f = dz.make_field(q, 1)
        d = dz.field_type2(f, f.element(1))
        rep = verify_type2(d)
        p = rep.params
        m = d.adjacency
        s = m @ m.T
        x, y = s == p.a, s == p.b
        np.fill_diagonal(x, False)
        np.fill_diagonal(y, False)
        assert (x.sum(axis=1) == rep.alpha).all() and (y.sum(axis=1) == rep.beta).all()
        lhs = p.a * x + p.b * y + p.k * identity(d.n)
        assert np.array_equal(lhs, s)
        assert np.array_equal(lhs, m.T @ m)


def test_offdiag_values_match_a_masked_sort():
    from dezakit.verify import _offdiag_values
    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 7, 16):
        for high in (1, 2, 3, 9):
            s = rng.integers(0, high, (n, n))
            # a distinct diagonal must not leak into the off-diagonal values
            np.fill_diagonal(s, 100)
            for m in (s, s.T, s[::-1, ::-1]):
                want = sorted({int(v) for v in m[~np.eye(n, dtype=bool)]})
                assert _offdiag_values(m) == want


def test_children_keep_the_period_and_equal_the_dense_masks(deza_8_3):
    f5 = dz.make_field(5, 1)
    cases = (  # (digraph, the period of its products)
        # periodic of order >= 128, read from strips of height 1 and q^2 = 25
        (dz.paley_tournament(131), 1),
        (dz.field_type2(f5, f5.element(0)), 25),
        # small, and small with a = b, so that Y = O
        (deza_8_3, 8),
        (Digraph(ones(5) - identity(5)), 5),
    )
    for d, period in cases:
        n, m = d.n, d.adjacency
        assert d.period == period
        p = verify_deza_digraph(d).params
        s, off = m @ m, ~np.eye(n, dtype=bool)
        x, y = deza_children(d)
        assert x.period == y.period == period
        assert np.array_equal(x.adjacency, (s == p.a) & off)
        assert np.array_equal(y.adjacency, (s == p.b) & off & (p.a != p.b))
        assert np.array_equal(p.a * x.adjacency + p.b * y.adjacency + p.t * identity(n), s)
        assert x == Digraph(x.adjacency) and y == Digraph(y.adjacency)
    assert not y.adjacency.any()


@pytest.mark.parametrize("cls", [DezaParams, DezaGraphParams, DsrgParams, DddParams,
                                 DesignParams])
def test_params_as_tuple_lists_the_fields_in_order(cls):
    params = cls(*range(3, 3 + len(fields(cls))))
    assert params.as_tuple() == astuple(params) == tuple(range(3, 3 + len(fields(cls))))


def test_reports_hold_no_arrays(deza_8_3):
    f5 = dz.make_field(5, 1)
    d2 = dz.field_type2(f5, f5.element(1))
    reports = [verify_deza_digraph(deza_8_3), verify_deza_digraph(dz.complete_digraph(4)),
               verify_type2(d2), verify_deza_graph(dz.field_type2(f5, f5.zero)),
               verify_dsrg(dz.paley_tournament(7)),
               verify_ddd(deza_8_3, [[0, 1], [2, 3], [4, 5], [6, 7]])]
    assert all(r.ok for r in reports)
    for field in fields(VerificationReport):
        assert "ndarray" not in str(field.type), field.name
        for r in reports:
            assert not isinstance(getattr(r, field.name), np.ndarray), field.name
