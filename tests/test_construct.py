import numpy as np
import pytest

import dezakit as dz
from dezakit.construct import (auxiliary_matrix, check_construction_identities,
                               design_lex_empty, field_type2, lex_deza_condition,
                               lex_product, paley_graph, qr_symmetric_design,
                               shift_indicator, siamese_reflexive,
                               skew_hadamard_deza, symbol_row, twin_deza,
                               twin_directed)
from dezakit.finite_field import quadratic_character_matrix
from dezakit.hadamard import normalize, paley_skew, sylvester
from dezakit import construct, verify
from dezakit.fileio import report_to_dict
from dezakit.matrix_core import (MAX_ORDER, Digraph, SizeBoundError, block_circulant,
                                 circulant, identity, kronecker, ones)
from dezakit.verify import (DezaParams, DsrgParams, verify_ddd,
                            verify_deza_digraph, verify_deza_graph,
                            verify_dsrg, verify_type2)

from conftest import DEZA_8_3_3_1_0, kronecker_rep


def lex_arc_oracle(d1, d2, x1, y1, x2, y2):
    """Arc rule straight from the definition of the composition."""
    return bool(d1.adjacency[x1, x2]) or (x1 == x2 and bool(d2.adjacency[y1, y2]))


def test_lex_product_against_arc_rule():
    rng = np.random.default_rng(3)
    d1 = Digraph((rng.random((3, 3)) < 0.5).astype(np.int64) * (1 - identity(3)))
    d2 = Digraph((rng.random((4, 4)) < 0.5).astype(np.int64) * (1 - identity(4)))
    prod = lex_product(d1, d2)
    for x1 in range(3):
        for y1 in range(4):
            for x2 in range(3):
                for y2 in range(4):
                    assert prod.adjacency[4 * x1 + y1, 4 * x2 + y2] == \
                        lex_arc_oracle(d1, d2, x1, y1, x2, y2)


def test_lex_product_with_single_vertex():
    d = dz.paley_tournament(7)
    assert np.array_equal(lex_product(d, dz.empty_digraph(1)).adjacency, d.adjacency)


def test_lex_product_with_empty_outer():
    d = dz.directed_cycle(3)
    prod = lex_product(dz.empty_digraph(2), d)
    expected = kronecker(identity(2), d.adjacency)
    assert np.array_equal(prod.adjacency, expected)


def test_lex_product_degree():
    d1 = dz.paley_tournament(7)
    d2 = dz.directed_cycle(4)
    prod = lex_product(d1, d2)
    assert (prod.adjacency.sum(axis=1) == 1 + 3 * 4).all()


def test_lex_deza_condition_arithmetic():
    # tournament with an empty pattern: counts {6, 4, 2} collapse to 3 values
    drt = DsrgParams(7, 3, 1, 2, 0)
    empty2 = DezaParams(2, 0, 0, 0, 0)
    assert not lex_deza_condition(drt, empty2)
    # lam = mu with an empty pattern is always a product
    flat = DsrgParams(8, 3, 1, 1, 2)
    assert lex_deza_condition(flat, empty2)


def test_lex_deza_condition_agrees_with_direct_verification():
    drt7 = dz.paley_tournament(7)
    drt3 = dz.paley_tournament(3)
    pairs = [
        (drt7, dz.empty_digraph(2)),
        (drt7, dz.complete_digraph(2)),
        (drt3, dz.complete_digraph(2)),
        (drt3, dz.directed_cycle(3)),
        (drt7, dz.directed_cycle(5)),
    ]
    for d1, d2 in pairs:
        p1 = verify_dsrg(d1).params
        p2 = verify_deza_digraph(d2).params
        predicted = lex_deza_condition(p1, p2)
        actual = verify_deza_digraph(lex_product(d1, d2)).ok
        assert predicted == actual, (p1, p2)


def test_skew_blowup_reproduces_reference_matrix(skew_h4):
    assert np.array_equal(skew_hadamard_deza(skew_h4).adjacency, DEZA_8_3_3_1_0)


@pytest.mark.parametrize("u", [1, 2, 3])
def test_skew_blowup_families(u):
    h = paley_skew(4 * u - 1)
    d = skew_hadamard_deza(h)
    rep = verify_deza_digraph(d)
    assert rep.params.as_tuple() == (8 * u, 4 * u - 1, 4 * u - 1, 2 * u - 1, 0)
    ddd = verify_ddd(d, dz.construct.pair_classes(d.n))
    assert ddd.params.as_tuple() == (8 * u, 4 * u - 1, 0, 2 * u - 1, 4 * u, 2)


@pytest.mark.parametrize("q", [3, 7, 11, 19, 23, 27, 199])
def test_skew_blowup_follows_the_block_rule(q):
    h = paley_skew(q)
    adj = skew_hadamard_deza(h).adjacency
    i2 = identity(2)
    for i in range(q + 1):
        for j in range(q + 1):
            want = np.zeros((2, 2)) if i == j else i2 if h.matrix[i, j] == 1 else ones(2) - i2
            assert np.array_equal(adj[2 * i:2 * i + 2, 2 * j:2 * j + 2], want), (q, i, j)


def test_skew_blowup_rejects_non_skew():
    with pytest.raises(ValueError):
        skew_hadamard_deza(sylvester(2))


@pytest.mark.parametrize("n,params", [
    (2, (6, 2, 1, 0)),
    (4, (28, 12, 6, 4)),
    (8, (120, 56, 28, 24)),
])
def test_twin_parts_are_deza_graphs(n, params):
    h = sylvester(n.bit_length() - 1)
    pair = twin_deza(h)
    for part in (pair.positive_part, pair.negative_part):
        rep = verify_deza_graph(part)
        assert rep.params.as_tuple() == params


def test_twin_structure(normalized_h4):
    pair = twin_deza(normalized_h4)
    k = pair.signed.matrix
    assert np.array_equal(k, k.T)
    a = pair.positive_part.adjacency
    b = pair.negative_part.adjacency
    assert np.array_equal(a, a.T) and np.array_equal(b, b.T)
    assert not (a & b).any()
    # off-diagonal blocks are covered by the two supports
    block = kronecker(ones(7) - identity(7), ones(4))
    assert np.array_equal(a + b, block)


@pytest.mark.parametrize("n", range(2, 17))
def test_twin_circulant_rows_share_one_column(n):
    symbols = list(range(1, n + 1)) + list(range(n, 1, -1))
    c = circulant(np.array(symbols, dtype=np.int64))
    for i in range(2 * n - 1):
        for j in range(i + 1, 2 * n - 1):
            assert int((c[i] == c[j]).sum()) == 1


@pytest.mark.parametrize("n,params", [
    (2, (6, 4, 3, 2)),
    (4, (28, 16, 10, 8)),
    (8, (120, 64, 36, 32)),
])
def test_siamese_reflexive_parameters(n, params):
    h = sylvester(n.bit_length() - 1)
    pair = twin_deza(h)
    ra, rb = siamese_reflexive(pair)
    for part in (ra, rb):
        rep = verify_deza_graph(part, reflexive=True)
        assert rep.params.as_tuple() == params


def test_siamese_shares_exactly_the_diagonal_cliques(normalized_h4):
    pair = twin_deza(normalized_h4)
    ra, rb = siamese_reflexive(pair)
    shared = ra.adjacency & rb.adjacency
    assert np.array_equal(shared, kronecker(identity(7), ones(4)))


def twin_block_oracle(h, sign):
    """np.block of the symbolic circulant (1, ..., n, sign n, ..., sign 2)
    of order 2n-1, symbol s replaced by sign(s) C_|s|, diagonal zeroed."""
    n = h.order
    c = [np.outer(r, r) for r in h.matrix]
    symbols = list(range(1, n + 1)) + [sign * s for s in range(n, 1, -1)]
    g = 2 * n - 1
    return np.block([[np.zeros((n, n), dtype=np.int64) if i == j
                      else np.sign(symbols[(j - i) % g]) * c[abs(symbols[(j - i) % g]) - 1]
                      for j in range(g)] for i in range(g)])


@pytest.mark.parametrize("h", [sylvester(k) for k in range(1, 5)]
                         + [normalize(paley_skew(11))],
                         ids=["sylvester2", "sylvester4", "sylvester8",
                              "sylvester16", "paley12"])
def test_twins_match_block_oracle(h):
    assert np.array_equal(twin_deza(h).signed.matrix, twin_block_oracle(h, 1))
    pair, _ = twin_directed(h)
    assert np.array_equal(pair.signed.matrix, twin_block_oracle(h, -1))


def test_constructions_reject_orders_above_the_bound():
    # each raises before it allocates a matrix of the rejected order
    cases = [
        lambda: dz.empty_digraph(MAX_ORDER + 1),
        lambda: lex_product(dz.empty_digraph(200), dz.empty_digraph(100)),
        lambda: design_lex_empty(qr_symmetric_design(7), 3000),
        lambda: field_type2(dz.make_field(23, 1), (0,)),
        lambda: twin_deza(sylvester(7)),
        lambda: quadratic_character_matrix(dz.make_field(16411, 1)),
    ]
    for build in cases:
        with pytest.raises(SizeBoundError, match="exceeds the bound"):
            build()


def test_complete_digraph_checks_the_order_before_allocating(monkeypatch):
    def refuse(n):
        raise AssertionError(f"allocated an order-{n} matrix")

    monkeypatch.setattr(construct, "ones", refuse)
    monkeypatch.setattr(construct, "identity", refuse)
    with pytest.raises(SizeBoundError, match="exceeds the bound"):
        dz.complete_digraph(MAX_ORDER + 1)


def verifier_reports(d, classes):
    """Every verifier's report on d as a dict, and the Deza children's
    matrices as bytes, or the message of the ValueError raised."""
    runs = (verify.verify_deza_digraph, verify.verify_type2, verify.verify_dsrg,
            lambda d: verify.verify_deza_graph(d, reflexive=d.loops_allowed),
            verify.verify_reflexive_directed_deza, verify.verify_symmetric_design,
            lambda d: verify.verify_ddd(d, classes), verify.discover_ddd_partition,
            lambda d: [x.adjacency.tobytes() for x in verify.deza_children(d)])
    reports = []
    for run in runs:
        try:
            reports.append(report_to_dict(run(d)))
        except ValueError as exc:
            reports.append(str(exc))
    return reports


def check_strip_built(d, h, dense=None):
    """d, made from its h x n strip, is the digraph of the expanded strip
    (and of the dense construction, when given) to every verifier."""
    ref = Digraph(block_circulant(d.adjacency[:h]), loops_allowed=d.loops_allowed)
    assert d == ref and hash(d) == hash(ref)
    assert dense is None or (d == dense and hash(d) == hash(dense))
    assert d.products.period == h
    classes = [list(range(i, i + h)) for i in range(0, d.n, h)]
    assert verifier_reports(d, classes) == verifier_reports(ref, classes)


@pytest.mark.parametrize("k", [1, 2, 3, 4], ids=["n2", "n4", "n8", "n16"])
def test_twins_and_siamese_pairs_from_their_strips(k):
    h = sylvester(k)
    n = h.order
    shared = kronecker(identity(2 * n - 1), np.outer(h.matrix[0], h.matrix[0]))
    for pair in (twin_deza(h), twin_directed(h)[0]):
        parts = (pair.positive_part, pair.negative_part)
        for part, sign in zip(parts, (1, -1)):
            check_strip_built(part, n, Digraph((pair.signed.matrix == sign).astype(np.int64)))
        for refl, part in zip(siamese_reflexive(pair), parts):
            check_strip_built(refl, n, Digraph(part.adjacency + shared, loops_allowed=True))


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (7, 1), (3, 2)],
                         ids=["q3", "q5", "q7", "q9"])
def test_field_type2_from_its_strip(p, m):
    # test_field_type2_matches_kron_sum compares the matrices with the
    # dense construction
    f = dz.make_field(p, m)
    for alpha in f.elements:
        check_strip_built(field_type2(f, alpha), f.q ** 2)


def test_twin_requires_normalized():
    h = paley_skew(3)  # skew-type, not normalized
    with pytest.raises(ValueError):
        twin_deza(h)


def test_directed_twin_signed_gram_is_two_valued(normalized_h4):
    # K' (diagonal blocks intact) has K' K'^t off-diagonal entries +-n
    n = 4
    c_blocks = [np.outer(normalized_h4.matrix[i], normalized_h4.matrix[i])
                for i in range(n)]
    blocks = {i: c_blocks[i - 1] for i in range(1, n + 1)}
    blocks.update({-i: -c_blocks[i - 1] for i in range(2, n + 1)})
    symbols = list(range(1, n + 1)) + list(range(-n, -1))
    grid = circulant(np.array(symbols, dtype=np.int64))
    kp = np.block([[blocks[int(s)] for s in row] for row in grid])
    g = kp @ kp.T
    off = g[~np.eye(28, dtype=bool)]
    assert set(int(x) for x in off) == {4, -4}


def test_directed_twin_parts_structure(normalized_h4):
    pair, _ = twin_directed(normalized_h4)
    a = pair.positive_part.adjacency
    b = pair.negative_part.adjacency
    assert not (a & b).any()
    assert np.array_equal(a + b, kronecker(ones(7) - identity(7), ones(4)))
    assert np.array_equal(b, a.T)
    # both parts are type-II with the twin Deza graph parameters
    for part in (pair.positive_part, pair.negative_part):
        rep = verify_type2(part)
        assert rep.params.as_tuple() == (28, 12, 6, 4)


def test_directed_twin_within_class_count_is_constant(normalized_h4):
    # the cross-class counts take both values, so the divisible-design
    # verdict fails; the within-class count alone is the constant n(n-2)/2
    pair, _ = twin_directed(normalized_h4)
    m = pair.positive_part.adjacency
    g = m @ m.T
    for cls in pair.block_classes():
        for x in cls:
            for y in cls:
                if x != y:
                    assert g[x, y] == 4
    rep = verify_ddd(pair.positive_part, pair.block_classes())
    assert not rep.ok
    assert "across classes" in rep.witness


def test_directed_twin_reflexive_dual_statistic(normalized_h4):
    _, (ra, rb) = twin_directed(normalized_h4)
    for part in (ra, rb):
        rep = dz.verify_reflexive_directed_deza(part)
        assert rep.ok
        assert rep.matched == ("gram",)
        assert rep.gram.offdiag_values == (8, 10)
        assert rep.gram.diagonal_values == (16,)
        assert rep.mutual_count == 4
        assert rep.five_tuple("gram") == (28, 16, 10, 8, 4)


@pytest.mark.parametrize("n", [2, 8])
def test_directed_twin_small_and_large(n):
    h = sylvester(n.bit_length() - 1)
    pair, (ra, rb) = twin_directed(h)
    v = (2 * n - 1) * n
    rep = verify_type2(pair.positive_part)
    assert rep.params.as_tuple() == (v, (n - 1) * n, n * (n - 1) // 2, n * (n - 2) // 2)
    reflexive = dz.verify_reflexive_directed_deza(ra)
    assert reflexive.ok and "gram" in reflexive.matched
    assert reflexive.five_tuple("gram") == (v, n * n, n * (n + 1) // 2, n * n // 2, n)


def test_qr_design_families():
    assert dz.verify_symmetric_design(qr_symmetric_design(7)).as_tuple() == (7, 3, 1)
    assert dz.verify_symmetric_design(qr_symmetric_design(11)).as_tuple() == (11, 5, 2)
    n = qr_symmetric_design(11)
    assert (n.sum(axis=1) == 5).all()
    assert n.trace() == 0
    with pytest.raises(ValueError):
        qr_symmetric_design(13)


@pytest.mark.parametrize("q,n2,params", [
    (7, 2, (14, 6, 6, 2)),
    (11, 3, (33, 15, 15, 6)),
])
def test_design_lex_empty(q, n2, params):
    d = design_lex_empty(qr_symmetric_design(q), n2)
    rep = verify_type2(d)
    assert rep.params.as_tuple() == params


def test_design_lex_empty_single_block():
    # n2 = 1 returns the design itself; every common count equals lambda,
    # so the b = k labeling holds with an empty large class
    n = qr_symmetric_design(7)
    d = design_lex_empty(n, 1)
    assert np.array_equal(d.adjacency, n)
    rep = verify_type2(d)
    assert rep.params.a == 1 and rep.params.b == 1


def test_paley_graph_cases():
    pentagon = paley_graph(5)
    assert verify_dsrg(pentagon).params.as_tuple() == (5, 2, 0, 1, 2)
    srg13 = paley_graph(13)
    rep = verify_dsrg(srg13)
    assert rep.classification == "srg"
    assert rep.params.as_tuple() == (13, 6, 2, 3, 6)
    assert srg13.adjacency.trace() == 0
    with pytest.raises(ValueError):
        paley_graph(7)


def test_symbol_row_layout():
    f = dz.make_field(3, 1)
    row = symbol_row(f)
    assert row[0] == "x" and row[1] == "y" and row[-1] == "y"
    assert row[2:5] == f.elements
    assert row == [row[0]] + [row[(len(row) - i) % len(row)] for i in range(1, len(row))]


@pytest.mark.parametrize("alpha_idx", [0, 1, 2])
def test_field_type2_q3(alpha_idx):
    f = dz.make_field(3, 1)
    alpha = f.element(alpha_idx)
    d = field_type2(f, alpha)
    assert d.adjacency.trace() == 0
    assert (d.adjacency.sum(axis=1) == 24).all()
    if alpha == f.zero:
        rep = verify_deza_graph(d)
        assert rep.params.as_tuple() == (81, 24, 9, 6)
    else:
        rep = verify_type2(d)
        assert rep.params.as_tuple() == (81, 24, 9, 6)


def test_field_type2_transpose_pairs():
    f = dz.make_field(3, 1)
    mats = {i: field_type2(f, f.element(i)).adjacency for i in range(3)}
    for i in range(3):
        neg = f.index_of(f.neg(f.element(i)))
        assert np.array_equal(mats[i].T, mats[neg])


def test_field_type2_family_commutes():
    f = dz.make_field(3, 1)
    mats = [field_type2(f, a).adjacency for a in f.elements]
    for x in mats:
        for y in mats:
            assert np.array_equal(x @ y, y @ x)


def kron_sum_oracle(field, alpha):
    """N_alpha = sum_a P_a x C_{a, alpha}, P_a = V^j + V^-j for the
    column j of symbol a in the symbol row and V the cyclic shift."""
    row = symbol_row(field)
    size = len(row)
    v = np.roll(np.eye(size, dtype=np.int64), 1, axis=1)
    total = 0
    for j in range(1, size // 2 + 1):
        p_a = (np.linalg.matrix_power(v, j)
               + np.linalg.matrix_power(v, size - j))
        total = total + np.kron(p_a, auxiliary_matrix(field, row[j], alpha))
    return total


@pytest.mark.parametrize("p,m,alpha_count", [
    (3, 1, 3), (5, 1, 5), (7, 1, 7), (3, 2, 2),
], ids=["q3", "q5", "q7", "q9"])
def test_field_type2_matches_kron_sum(p, m, alpha_count):
    f = dz.make_field(p, m)
    for i in range(alpha_count):
        alpha = f.element(i)
        assert np.array_equal(field_type2(f, alpha).adjacency,
                              kron_sum_oracle(f, alpha)), (f.q, alpha)


def auxiliary_by_blocks(f, a, alpha):
    """C_{a, alpha} from its definition: block (beta, beta') is
    rep(a(beta' - beta) + alpha), and C_{y, alpha} is rep(alpha) x J_q."""
    if a == "y":
        return np.kron(kronecker_rep(f, alpha), ones(f.q))
    return np.block([[kronecker_rep(f, f.add(f.mul(a, f.sub(bp, b)), alpha))
                      for bp in f.elements] for b in f.elements])


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (3, 2)], ids=["q3", "q5", "q9"])
def test_auxiliary_matrix_matches_its_blocks(p, m):
    f = dz.make_field(p, m)
    for a in list(f.elements) + ["y"]:
        for alpha in f.elements:
            assert np.array_equal(auxiliary_matrix(f, a, alpha),
                                  auxiliary_by_blocks(f, a, alpha)), (a, alpha)


@pytest.mark.parametrize("p,m", [(5, 2), (3, 3)], ids=["q25", "q27"])
def test_auxiliary_matrix_matches_its_blocks_sampled(p, m):
    f = dz.make_field(p, m)
    rng = np.random.default_rng(19)
    symbols = list(f.elements) + ["y"]
    for _ in range(4):
        a = symbols[rng.integers(len(symbols))]
        alpha = f.element(int(rng.integers(f.q)))
        assert np.array_equal(auxiliary_matrix(f, a, alpha),
                              auxiliary_by_blocks(f, a, alpha)), (a, alpha)


def test_auxiliary_matrix_rejects_non_members():
    f = dz.make_field(3, 1)
    # (7,) would reduce mod 3 to (1,) if it were not rejected
    with pytest.raises(ValueError, match="not an element"):
        auxiliary_matrix(f, (1,), (7,))
    with pytest.raises(ValueError, match="not an element"):
        auxiliary_matrix(f, "y", (7,))
    with pytest.raises(ValueError, match="not an element"):
        auxiliary_matrix(f, (5,), f.zero)
    with pytest.raises(ValueError, match="not an element"):
        auxiliary_matrix(f, "x", f.zero)


def test_shift_indicator_rejects_non_members():
    f = dz.make_field(3, 1)
    for bad in ((3,), (0, 0), "x"):
        with pytest.raises(ValueError, match="not an element"):
            shift_indicator(f, bad)


@pytest.mark.parametrize("p,m", [(3, 1), (3, 2)])
def test_shift_indicators_cover_the_off_diagonal_once(p, m):
    f = dz.make_field(p, m)
    size = 2 * f.q + 3
    total = sum(shift_indicator(f, a) for a in list(f.elements) + ["y"])
    assert np.array_equal(total, ones(size) - identity(size))


def test_identity_suite_q3():
    f = dz.make_field(3, 1)
    report = check_construction_identities(f)
    assert report.q == 3
    assert report.all_passed, [c for c in report.checks if not c.passed]
    names = {c.name for c in report.checks}
    assert "product_expansion" in names and "offset_double_cover" in names


def test_identity_suite_rejects_large_field():
    with pytest.raises(ValueError):
        check_construction_identities(dz.make_field(11, 1))


def test_field_type2_gf9():
    f = dz.make_field(3, 2)
    d = field_type2(f, f.zero)
    # q = 9: (q^2(2q+3), 2q^2+2q, 3q, 2q)
    rep = verify_deza_graph(d)
    assert rep.params.as_tuple() == (81 * 21, 180, 27, 18)


def test_field_type2_q7_largest_instance():
    f = dz.make_field(7, 1)
    assert verify_deza_graph(field_type2(f, f.zero)).params.as_tuple() == \
        (833, 112, 21, 14)
    assert verify_type2(field_type2(f, f.element(3))).params.as_tuple() == \
        (833, 112, 21, 14)
