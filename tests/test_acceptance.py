"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -s to see them).  Criterion 4a settles the divisible-
design question for the directed twins: the stated DDD parameters break
the row-sum identity every DDD obeys, and the test asserts the structure
the parts do have (constant within-class count, two-valued cross-class
blocks, no DDD partition); see the README.
"""

import numpy as np
import pytest

import dezakit as dz
from dezakit.construct import check_construction_identities, field_type2
from dezakit.decompose_search import canonical_form, decompose_b_eq_t, \
    decompose_type2_b_eq_k, search_deza_digraphs
from dezakit.hadamard import paley_skew, sylvester
from dezakit.matrix_core import Digraph, identity, kronecker, ones
from dezakit.scheme import fusion_digraph, paley_tournament, tournament_scheme
from dezakit.verify import DezaParams, deza_children, discover_ddd_partition, feasibility, \
    verify_ddd, verify_deza_digraph, verify_deza_graph, verify_dsrg, \
    verify_reflexive_directed_deza, verify_type2

from conftest import DEZA_8_3_3_1_0, DEZA_8_4_3_1_1, SKEW_HADAMARD_4


def report(num, ok, text):
    print(f"ACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {text}")
    return ok


def test_criterion_01_reference_examples():
    rep1 = verify_deza_digraph(Digraph(DEZA_8_3_3_1_0))
    rep2 = verify_deza_digraph(Digraph(DEZA_8_4_3_1_1))
    ok = (rep1.params.as_tuple() == (8, 3, 3, 1, 0)
          and (rep1.alpha, rep1.beta) == (6, 1)
          and (rep1.alpha_formula, rep1.beta_formula) == (6, 1)
          and rep1.consistent
          and rep2.params.as_tuple() == (8, 4, 3, 1, 1)
          and (rep2.alpha, rep2.beta) == (3, 4)
          and (rep2.alpha_formula, rep2.beta_formula) == (3, 4)
          and rep2.consistent)
    assert report(1, ok, "order-8 example matrices with matching counted and closed-form partners")


def test_criterion_02_skew_hadamard_blowups():
    exact = np.array_equal(
        dz.skew_hadamard_deza(dz.HadamardMatrix(SKEW_HADAMARD_4)).adjacency,
        DEZA_8_3_3_1_0)
    ok = exact
    for u in (1, 2, 3):
        d = dz.skew_hadamard_deza(paley_skew(4 * u - 1))
        deza = verify_deza_digraph(d)
        ddd = verify_ddd(d, dz.construct.pair_classes(d.n))
        ok &= deza.params.as_tuple() == (8 * u, 4 * u - 1, 4 * u - 1, 2 * u - 1, 0)
        ok &= ddd.ok and ddd.params.as_tuple() == (8 * u, 4 * u - 1, 0, 2 * u - 1, 4 * u, 2)
    assert report(2, ok, "skew blow-up reproduces the order-8 matrix bit-exactly; "
                         "u in {1,2,3} families verify as Deza digraphs and DDDs")


def test_criterion_03_twin_family():
    ok = True
    for n in (2, 4, 8):
        h = sylvester(n.bit_length() - 1)
        pair = dz.twin_deza(h)
        ra, rb = dz.siamese_reflexive(pair)
        tw = ((2 * n - 1) * n, (n - 1) * n, n * (n - 1) // 2, n * (n - 2) // 2)
        si = ((2 * n - 1) * n, n * n, n * (n + 1) // 2, n * n // 2)
        for part in (pair.positive_part, pair.negative_part):
            ok &= verify_deza_graph(part).params.as_tuple() == tw
        for part in (ra, rb):
            ok &= verify_deza_graph(part, reflexive=True).params.as_tuple() == si
        if n == 4:
            ok &= tw == (28, 12, 6, 4) and si == (28, 16, 10, 8)
    assert report(3, ok, "twin components and Siamese reflexive pairs for n in {2,4,8}")


def _twin_cross_row(n, d):
    """1-based Hadamard row i whose C_i = r_i^t r_i fills the cross-class
    blocks at circulant distance d of a directed twin part's M M^t.  The
    symbols (1, ..., n, -n, ..., -2) have equal absolute values at
    positions j and -j (mod 2n-1), so the one step of length d between
    such positions runs from j to j + d = -j, i.e. 2j = -d, and i is the
    absolute symbol there."""
    d = min(d, 2 * n - 1 - d)
    return d // 2 + 1 if d % 2 == 0 else n - (d - 1) // 2


def test_criterion_04a_directed_twin_ddd_parameters():
    # The stated tuple (v, k, l1, l2, m, n) = ((2n-1)n, (n-1)n, n(n-2)/2,
    # n(n-1)/2, 2n-1, n) breaks k^2 = k + l1 (n-1) + l2 (v-n), the row sum
    # of M M^t in every DDD, so no digraph realises it.  What the parts do
    # have: within-class count n(n-2)/2 in M M^t = M^t M, and cross-class
    # blocks (n/4)((2n-3) J - C_i) with i >= 2, which take both values.
    failures = []
    if [_twin_cross_row(4, d) for d in range(1, 7)] != [4, 2, 3, 3, 2, 4]:
        failures.append("n=4 cross-class rows by distance")
    row_sums = {2: (4, 6), 4: (144, 168), 8: (3136, 3360)}
    for n in (2, 4, 8):
        h = sylvester(n.bit_length() - 1)
        pair, _ = dz.twin_directed(h)
        v, k, lam1, lam2, size = ((2 * n - 1) * n, (n - 1) * n,
                                  n * (n - 2) // 2, n * (n - 1) // 2, n)
        lhs, rhs = k * k, k + lam1 * (size - 1) + lam2 * (v - size)
        if (lhs, rhs) != row_sums[n] or rhs - lhs != n * n * (n - 1) // 2:
            failures.append(f"n={n}: row-sum identity gives {lhs} vs {rhs}")
        classes = pair.block_classes()
        blocks = 2 * n - 1
        for name, part in (("positive", pair.positive_part),
                           ("negative", pair.negative_part)):
            where = f"n={n} {name} part"
            rep = verify_ddd(part, classes)
            if rep.ok or "across classes" not in rep.witness \
                    or f"values {[lam1, lam2]}" not in rep.witness:
                failures.append(f"{where}: verify_ddd gave {rep.witness!r}")
            m = part.adjacency
            gout, gin = m @ m.T, m.T @ m
            if not np.array_equal(gout, gin):
                failures.append(f"{where}: M M^t != M^t M")
            off = ~np.eye(n, dtype=bool)
            for b in range(blocks):
                cls = slice(b * n, (b + 1) * n)
                for g in (gout, gin):
                    if set(np.unique(g[cls, cls][off])) != {lam1}:
                        failures.append(f"{where}: within class {b}")
            for a in range(blocks):
                for b in range(blocks):
                    if a == b:
                        continue
                    i = _twin_cross_row(n, (b - a) % blocks)
                    c = np.outer(h.matrix[i - 1], h.matrix[i - 1])
                    block = gout[a * n:(a + 1) * n, b * n:(b + 1) * n]
                    if not (2 <= i <= n
                            and np.array_equal(4 * block, n * ((2 * n - 3) - c))
                            and set(np.unique(block)) == {lam1, lam2}):
                        failures.append(f"{where}: cross block ({a}, {b}), C_{i}")
            if discover_ddd_partition(part) is not None:
                failures.append(f"{where}: a DDD partition was found")
    ok = not failures
    assert report("4a", ok, "n in {2,4,8}, both directed twin parts: the stated "
                            "DDD tuple fails the row-sum identity; block classes "
                            "are rejected across classes with values "
                            "[n(n-2)/2, n(n-1)/2]; within-class n(n-2)/2 and "
                            "M M^t = M^t M; cross blocks (n/4)((2n-3)J - C_i), "
                            "i >= 2; no DDD partition is found"), failures[:5]


def test_criterion_04b_directed_twin_reflexive_statistic():
    h = sylvester(2)
    _, (ra, rb) = dz.twin_directed(h)
    ok = True
    matched = set()
    for part in (ra, rb):
        rep = verify_reflexive_directed_deza(part)
        ok &= rep.ok and rep.gram.offdiag_values == (8, 10)
        ok &= rep.gram.diagonal_values == (16,)
        ok &= rep.mutual_count == 4
        matched.update(rep.matched)
    ok &= "gram" in matched and "square" not in matched
    assert report("4b", ok, f"n=4 reflexive outputs realize {{8,10}} under the "
                            f"{sorted(matched)} statistic (path-count statistic does not match)")


@pytest.mark.parametrize("q,budget", [(3, 5.0), (5, 60.0)])
def test_criterion_05_field_family(q, budget):
    import time
    start = time.perf_counter()
    f = dz.make_field(q, 1)
    suite = check_construction_identities(f)
    ok = suite.all_passed
    expected = (q * q * (2 * q + 3), 2 * q * q + 2 * q, 3 * q, 2 * q)
    mats = {a: field_type2(f, a) for a in f.elements}
    ok &= verify_deza_graph(mats[f.zero]).params.as_tuple() == expected
    for a in f.elements:
        if a != f.zero:
            ok &= verify_type2(mats[a]).params.as_tuple() == expected
        ok &= np.array_equal(mats[a].adjacency.T, mats[f.neg(a)].adjacency)
    # float64 products are exact here: every entry is at most the order < 2^53
    arrays = [mats[a].adjacency.astype(np.float64) for a in f.elements]
    for x in arrays:
        for y in arrays:
            ok &= np.array_equal(x @ y, y @ x)
    elapsed = time.perf_counter() - start
    ok &= elapsed < budget
    assert report(5, ok, f"q={q}: identity suite, family parameters {expected}, "
                         f"transposes and commuting ({elapsed:.1f}s)")


def test_criterion_06_tournaments_and_fusion():
    ok = True
    for q in (3, 7, 11):
        t = (q - 3) // 4
        expected = (q, 2 * t + 1, t + 1, t, 0)
        d = paley_tournament(q)
        ok &= verify_deza_digraph(d).params.as_tuple() == expected
        scheme = tournament_scheme(q)
        ok &= scheme.d == 2
        ok &= not np.array_equal(scheme.relations[1], scheme.relations[1].T)
        _, fusion = fusion_digraph(scheme, [1])
        ok &= fusion.at_most_two
        ok &= fusion.params.as_tuple() == expected
        ok &= fusion.verification.params.as_tuple() == expected
    assert report(6, ok, "doubly regular tournaments: direct, scheme, and fusion verdicts agree")


def relabellings(d, rng, count=4):
    """count copies of d under seeded random relabellings."""
    for _ in range(count):
        perm = rng.permutation(d.n)
        yield Digraph(d.adjacency[np.ix_(perm, perm)])


def test_criterion_07_lex_condition_agreement(dsrg_catalogue_7, lambda_mu_catalogue_8,
                                              lambda_mu_classes_8):
    by_params = {}
    for p, d in dsrg_catalogue_7:
        by_params.setdefault(p.as_tuple(), d)
    flat = lambda_mu_catalogue_8[0][1]
    pairs = [
        (flat, dz.empty_digraph(2)),
        (flat, dz.empty_digraph(3)),
        (paley_tournament(3), dz.complete_digraph(2)),
        (paley_tournament(7), dz.complete_digraph(2)),
        (paley_tournament(11), dz.complete_digraph(2)),
        (by_params[(6, 2, 0, 1, 1)], dz.complete_digraph(2)),
        (paley_tournament(7), dz.empty_digraph(2)),
        (paley_tournament(11), dz.empty_digraph(2)),
        (paley_tournament(3), dz.directed_cycle(3)),
        (paley_tournament(7), dz.directed_cycle(5)),
        (by_params[(6, 2, 0, 1, 1)], dz.directed_cycle(3)),
        (flat, dz.directed_cycle(3)),
        (by_params[(6, 2, 0, 1, 1)], dz.empty_digraph(2)),
        (by_params[(6, 3, 1, 2, 2)], dz.empty_digraph(2)),
    ]
    positives = negatives = 0
    ok = True
    for d1, d2 in pairs:
        p1 = verify_dsrg(d1).params
        p2 = verify_deza_digraph(d2).params
        predicted = dz.lex_deza_condition(p1, p2)
        actual = verify_deza_digraph(dz.lex_product(d1, d2)).ok
        ok &= predicted == actual
        positives += actual
        negatives += not actual
    ok &= positives >= 5 and negatives >= 5
    # parameter law for each lam = mu class crossed with empty patterns, on
    # its representative and on relabelled copies certified by canonical form
    rng = np.random.default_rng(7)
    for params, d in lambda_mu_classes_8:
        key = canonical_form(d)
        for copy in (d, *relabellings(d, rng)):
            ok &= canonical_form(copy) == key
            for n2 in (2, 3):
                got = verify_deza_digraph(dz.lex_product(copy, dz.empty_digraph(n2))).params
                expected = (params.n * n2, params.k * n2, params.t * n2,
                            params.lam * n2, params.t * n2)
                ok &= got.as_tuple() == expected
    assert report(7, ok, f"product condition agreement ({positives} positive, "
                         f"{negatives} negative) and the composition parameter law")


def test_criterion_08_decomposition_round_trips(lambda_mu_classes_8):
    ok = True
    rng = np.random.default_rng(2024)
    for params, d in lambda_mu_classes_8:
        key = canonical_form(d)
        for n2 in (2, 3):
            composite = dz.lex_product(d, dz.empty_digraph(n2))
            comp_params = verify_deza_digraph(composite).params
            ok &= comp_params.b == comp_params.t  # forward direction
            dec = decompose_b_eq_t(composite)
            ok &= dec.class_size == n2
            # classes are blocks of the unshuffled product: exact recovery
            ok &= np.array_equal(dec.quotient.adjacency, d.adjacency)
            perm = dec.sorted_permutation()
            relabeled = composite.adjacency[np.ix_(perm, perm)]
            ok &= np.array_equal(relabeled,
                                 kronecker(dec.quotient.adjacency, ones(n2)))
            # certified isomorphism for shuffled copies: canonical forms of
            # the recovered quotient and the source agree
            for shuffled in relabellings(composite, rng):
                dec = decompose_b_eq_t(shuffled)
                ok &= dec.class_size == n2 and canonical_form(dec.quotient) == key
    # negative direction: b != t is rejected
    try:
        decompose_b_eq_t(Digraph(DEZA_8_3_3_1_0))
        ok = False
    except ValueError:
        pass
    # design quotients
    for q in (7, 11):
        design = dz.qr_symmetric_design(q)
        for n2 in (2, 3):
            composite = dz.design_lex_empty(design, n2)
            comp = verify_type2(composite).params
            ok &= comp.b == comp.k
            dec = decompose_type2_b_eq_k(composite)
            ok &= dec.class_size == n2
            ok &= dz.verify_symmetric_design(dec.quotient.adjacency).as_tuple() == \
                (q, (q - 1) // 2, (q - 3) // 4)
    f3 = dz.make_field(3, 1)
    try:
        decompose_type2_b_eq_k(field_type2(f3, f3.element(1)))
        ok = False
    except ValueError:
        pass
    assert report(8, ok, "both classification theorems round-trip on every catalogue class "
                         "(shuffled copies certified by canonical forms) and reject b mismatches")


def test_criterion_09_search_oracle_cross_checks():
    hits = search_deza_digraphs(DezaParams(8, 3, 3, 1, 0), limit=1)
    ok = bool(hits) and canonical_form(hits[0]) == canonical_form(Digraph(DEZA_8_3_3_1_0))
    checked = 0
    for n in range(2, 7):
        for k in range(0, n + 1):
            for b in range(0, k + 1):
                for a in range(0, b + 1):
                    for t in range(0, k + 1):
                        params = DezaParams(n, k, b, a, t)
                        try:
                            f = feasibility(params)
                        except ValueError:
                            continue
                        if f.alpha.denominator == 1 and f.beta.denominator == 1:
                            continue
                        checked += 1
                        ok &= search_deza_digraphs(params, limit=1) == []
    assert report(9, ok, f"search recovers the reference class; all {checked} "
                         "non-integral tuples up to order 6 search empty")


def test_criterion_10_reconstruction_invariant(lambda_mu_catalogue_8):
    corpus_deza = [
        Digraph(DEZA_8_3_3_1_0),
        Digraph(DEZA_8_4_3_1_1),
        dz.directed_cycle(5),
        paley_tournament(7),
        paley_tournament(11),
        dz.skew_hadamard_deza(paley_skew(7)),
        lambda_mu_catalogue_8[0][1],
        dz.lex_product(lambda_mu_catalogue_8[0][1], dz.empty_digraph(2)),
    ]
    ok = True
    for d in corpus_deza:
        p = verify_deza_digraph(d).params
        x, y = (child.adjacency for child in deza_children(d))
        lhs = p.a * x + p.b * y + p.t * identity(d.n)
        ok &= np.array_equal(lhs, d.adjacency @ d.adjacency)
        ok &= np.array_equal(x + y + identity(d.n), ones(d.n))

    def positions(rep, s):
        """X and Y of the statistic s at the report's (a, b), and whether
        the report's alpha and beta count the a- and b-positions of
        every row."""
        p = rep.params
        off = ~np.eye(len(s), dtype=bool)
        x, at_b = (s == p.a) & off, (s == p.b) & off
        counted = (x.sum(axis=1) == rep.alpha).all() and (at_b.sum(axis=1) == rep.beta).all()
        return x, at_b & (p.a != p.b), counted

    f3 = dz.make_field(3, 1)
    h4 = sylvester(2)
    pair, _ = dz.twin_directed(h4)
    corpus_type2 = [
        field_type2(f3, f3.element(1)),
        field_type2(f3, f3.element(2)),
        dz.design_lex_empty(dz.qr_symmetric_design(7), 2),
        dz.design_lex_empty(dz.qr_symmetric_design(11), 3),
        pair.positive_part,
    ]
    for d in corpus_type2:
        rep = verify_type2(d)
        p = rep.params
        m = d.adjacency
        x, y, counted = positions(rep, m @ m.T)
        lhs = p.a * x + p.b * y + p.k * identity(d.n)
        ok &= counted and np.array_equal(lhs, m @ m.T)
        ok &= np.array_equal(lhs, m.T @ m)
    # undirected members: the path-count identity with the diagonal of M^2
    tw = dz.twin_deza(h4)
    ra, _ = dz.siamese_reflexive(tw)
    for d, reflexive in ((tw.positive_part, False), (ra, True),
                         (field_type2(f3, f3.zero), False)):
        rep = verify_deza_graph(d, reflexive=reflexive)
        p = rep.params
        m = d.adjacency
        x, y, counted = positions(rep, m @ m)
        lhs = p.a * x + p.b * y + p.k * identity(d.n)
        ok &= counted and np.array_equal(lhs, m @ m)
    assert report(10, ok, "exact reconstruction a*X + b*Y + (t or k)*I across the corpus")
