import collections
import hashlib
import itertools
import math

import numpy as np
import pytest

import dezakit as dz
from dezakit.decompose_search import (_drive, _quotient_certificate, _satisfies, canonical_form,
                                      decompose_b_eq_t, decompose_type2_b_eq_k,
                                      dsrg_spectral_feasible,
                                      search_deza_digraphs, search_dsrg)
from dezakit.matrix_core import Digraph, SizeBoundError, identity, kronecker, ones
from dezakit.verify import DezaParams, DsrgParams, verify_deza_digraph, verify_dsrg

from conftest import search_hits


def adjacency_tuple(d):
    return tuple(int(x) for x in d.adjacency.reshape(-1))


@pytest.fixture()
def flat_dsrg(lambda_mu_catalogue_8):
    """A lam = mu DSRG, the smallest with t < k (order 8)."""
    params, d = lambda_mu_catalogue_8[0]
    assert params.as_tuple() == (8, 3, 1, 1, 2)
    return d


@pytest.mark.parametrize("n2", [2, 3])
def test_b_eq_t_round_trip(flat_dsrg, n2):
    composite = dz.lex_product(flat_dsrg, dz.empty_digraph(n2))
    rep = dz.verify_deza_digraph(composite)
    assert rep.params.b == rep.params.t  # forward direction of the theorem
    dec = decompose_b_eq_t(composite)
    assert dec.class_size == n2
    assert canonical_form(dec.quotient) == canonical_form(flat_dsrg)
    qp = verify_dsrg(dec.quotient).params
    assert qp.lam == qp.mu
    # the certified relabeling reproduces the composite exactly
    perm = dec.sorted_permutation()
    relabeled = composite.adjacency[np.ix_(perm, perm)]
    rebuilt = kronecker(dec.quotient.adjacency, ones(n2))
    assert np.array_equal(relabeled, rebuilt)


def test_b_eq_t_of_relabeled_composite(flat_dsrg):
    rng = np.random.default_rng(5)
    composite = dz.lex_product(flat_dsrg, dz.empty_digraph(2))
    perm = rng.permutation(composite.n)
    shuffled = Digraph(composite.adjacency[np.ix_(perm, perm)])
    dec = decompose_b_eq_t(shuffled)
    assert canonical_form(dec.quotient) == canonical_form(flat_dsrg)


# every class of order <= 6 with b = t > a, keyed by the tuple it verifies as.
# These decompose as K_g[empty of order n2]: tuple -> (g, n2)
B_EQ_T_LEXICOGRAPHIC = {(4, 2, 2, 0, 2): (2, 2), (6, 3, 3, 0, 3): (2, 3), (6, 4, 4, 2, 4): (3, 2)}
# These decompose_b_eq_t rejects: tuple -> {canonical form, row by row:
# the DSRG tuple the class verifies as, or None if it is not a DSRG}
B_EQ_T_REJECTED = {
    (6, 2, 1, 0, 1): {"000101 000101 010010 010010 101000 101000": (6, 2, 0, 1, 1),
                      "000101 000101 010010 011000 101000 100010": None},
    (6, 3, 2, 1, 2): {"001011 001110 010110 110001 101001 110100": (6, 3, 1, 2, 2)},
}


def _b_eq_t_census(max_order):
    """Verified tuple -> {canonical form: first hit} over every feasible
    tuple with b = t > a up to max_order, keeping the hits that verify
    with b = t > a (the others verify as a = b tuples)."""
    found = {}
    for n in range(2, max_order + 1):
        for k in range(n):
            for b in range(1, k + 1):
                for a in range(b):
                    params = DezaParams(n, k, b, a, b)
                    try:
                        if not dz.feasibility(params).feasible:
                            continue
                    except ValueError:
                        continue
                    for d in search_deza_digraphs(params):
                        p = verify_deza_digraph(d).params
                        if p.b == p.t > p.a:
                            found.setdefault(p.as_tuple(), {}).setdefault(canonical_form(d), d)
    return found


def test_b_eq_t_census_to_order_six():
    """The b = t classes to order 6 by canonical form: three are
    lexicographic products, which decompose_b_eq_t recovers, and three
    are not, whose b-count relation is not an equivalence."""
    found = _b_eq_t_census(6)
    assert found.keys() == B_EQ_T_LEXICOGRAPHIC.keys() | B_EQ_T_REJECTED.keys()
    for params, (g, n2) in B_EQ_T_LEXICOGRAPHIC.items():
        composite = dz.lex_product(dz.complete_digraph(g), dz.empty_digraph(n2))
        assert list(found[params]) == [canonical_form(composite)], params
        assert decompose_b_eq_t(found[params][canonical_form(composite)]).class_size == n2
    for params, expected in B_EQ_T_REJECTED.items():
        n = params[0]
        rows = {" ".join("".join(map(str, key[i * n:(i + 1) * n])) for i in range(n)): d
                for key, d in found[params].items()}
        assert rows.keys() == expected.keys(), params
        for key, d in rows.items():
            with pytest.raises(ValueError, match="the b-count relation is not an equivalence"):
                decompose_b_eq_t(d)
            report = verify_dsrg(d)
            assert (report.params.as_tuple() if report.ok else None) == expected[key], key


def test_b_eq_t_rejects_wrong_parameters(deza_8_3):
    with pytest.raises(ValueError, match="differs from t"):
        decompose_b_eq_t(deza_8_3)


def test_b_eq_t_parameter_law(flat_dsrg):
    composite = dz.lex_product(flat_dsrg, dz.empty_digraph(3))
    p = dz.verify_deza_digraph(composite).params
    q = verify_dsrg(flat_dsrg).params
    assert (p.n, p.k, p.b, p.a, p.t) == \
        (q.n * 3, q.k * 3, q.t * 3, q.lam * 3, q.t * 3)


@pytest.mark.parametrize("n2", [2, 3])
def test_b_eq_t_class_size_is_beta_plus_one(flat_dsrg, n2):
    composite = dz.lex_product(flat_dsrg, dz.empty_digraph(n2))
    params = dz.verify_deza_digraph(composite).params
    beta = dz.feasibility(params).beta
    dec = decompose_b_eq_t(composite)
    assert dec.class_size == beta + 1 == n2


@pytest.mark.parametrize("q,n2", [(7, 2), (7, 3), (11, 2), (11, 3)])
def test_b_eq_k_round_trip(q, n2):
    design = dz.qr_symmetric_design(q)
    composite = dz.design_lex_empty(design, n2)
    dec = decompose_type2_b_eq_k(composite)
    assert dec.class_size == n2
    assert dz.verify_symmetric_design(dec.quotient.adjacency).as_tuple() == \
        dz.verify_symmetric_design(design).as_tuple()
    perm = dec.sorted_permutation()
    relabeled = composite.adjacency[np.ix_(perm, perm)]
    assert np.array_equal(relabeled, kronecker(dec.quotient.adjacency, ones(n2)))


def test_quotient_certificate_names_first_uneven_block():
    # class-sorted, blocks (1, 0) and (1, 1) are both not constant
    sorted_m = np.array([[0, 0, 1, 1],
                         [0, 0, 1, 1],
                         [1, 0, 0, 1],
                         [0, 1, 0, 0]])
    perm = [0, 2, 1, 3]
    m = np.zeros((4, 4), dtype=np.int64)
    m[np.ix_(perm, perm)] = sorted_m
    with pytest.raises(ValueError) as err:
        _quotient_certificate(m, [[1, 3], [0, 2]])
    assert str(err.value) == ("block (1, 0) of the class-sorted adjacency is not constant; "
                              "the relation classes do not induce a lexicographic structure")


def test_b_eq_k_rejects_wrong_parameters():
    f3 = dz.make_field(3, 1)
    d = dz.field_type2(f3, f3.element(1))
    with pytest.raises(ValueError, match="differs from k"):
        decompose_type2_b_eq_k(d)


def test_search_finds_directed_cycle():
    hits = search_deza_digraphs(DezaParams(5, 1, 1, 0, 0))
    key = canonical_form(dz.directed_cycle(5))
    assert any(canonical_form(d) == key for d in hits)


def test_search_finds_reference_class(deza_8_3):
    hits = search_deza_digraphs(DezaParams(8, 3, 3, 1, 0), limit=1)
    assert hits
    assert canonical_form(hits[0]) == canonical_form(deza_8_3)


def test_search_respects_infeasible_parameters():
    assert search_deza_digraphs(DezaParams(4, 2, 2, 2, 0)) == []
    assert not dz.feasibility(DezaParams(4, 2, 2, 2, 0)).feasible


def test_search_is_deterministic_and_sorted():
    first = search_deza_digraphs(DezaParams(5, 1, 1, 0, 0))
    second = search_deza_digraphs(DezaParams(5, 1, 1, 0, 0))
    seq1 = [adjacency_tuple(d) for d in first]
    seq2 = [adjacency_tuple(d) for d in second]
    assert seq1 == seq2
    assert seq1 == sorted(seq1)


def _regular_loop_free(n, k):
    """Every loop-free 0/1 matrix of order n with all row and column sums
    k, in ascending row-major order, and the squares of them all.  The
    first n - 1 rows run over every choice; the column sums force the last."""
    rows = [np.array([v for v in itertools.product((0, 1), repeat=n)
                      if sum(v) == k and not v[r]], dtype=np.int64).reshape(-1, n)
            for r in range(n - 1)]
    picks = np.array(list(itertools.product(*(range(len(c)) for c in rows))),
                     dtype=np.int64).reshape(-1, n - 1)
    head = np.stack([rows[r][picks[:, r]] for r in range(n - 1)], axis=1)
    last = k - head.sum(axis=1)
    keep = ((last == 0) | (last == 1)).all(axis=1) & (last[:, n - 1] == 0)
    m = np.concatenate([head[keep], last[keep, None, :]], axis=1)
    return m, m @ m


@pytest.fixture(scope="module")
def regular_scan():
    """(n, k) -> every loop-free k-regular matrix of order n <= 6 and its square."""
    return {(n, k): _regular_loop_free(n, k) for n in range(2, 7) for k in range(n)}


def test_regular_scan_counts(regular_scan):
    counts = {key: len(m) for key, (m, _) in regular_scan.items()}
    for (n, k), c in counts.items():
        assert c == counts[(n, n - 1 - k)], (n, k)  # complements in J - I
    assert [counts[(n, 1)] for n in range(2, 7)] == [1, 2, 9, 44, 265]  # derangements
    assert [counts[(n, 2)] for n in range(3, 7)] == [1, 9, 216, 7570]  # OEIS A007107
    assert sum(c for (n, _), c in counts.items() if n == 6) == 15672
    for (n, k), (m, _) in regular_scan.items():
        assert (m.sum(axis=1) == k).all() and (m.sum(axis=2) == k).all(), (n, k)
        assert not np.diagonal(m, axis1=1, axis2=2).any(), (n, k)
        flat = [tuple(x) for x in m.reshape(len(m), -1).tolist()]
        assert flat == sorted(set(flat)), (n, k)


def test_driver_alone_yields_every_regular_matrix(regular_scan):
    """_drive under a judge that neither prunes nor masks yields exactly
    the scan's matrices in ascending order: its column rules alone keep
    every hit k-regular.  The first block is stacks of one indexed in
    order, each later block one stack of its images, and an islice of
    the hits is the scan's prefix."""
    rng = np.random.default_rng(31)

    def hits(n, k):
        stacks = _drive(n, k, lambda rows, colmask, colcap: (0, 0))
        return (m for ms, _ in stacks for m in ms)

    for (n, k), (m, _) in regular_scan.items():
        blocks = list(_drive(n, k, lambda rows, colmask, colcap: (0, 0)))
        assert np.array_equal(np.concatenate([ms for ms, _ in blocks]), m), (n, k)
        first = next(i for i, (_, js) in enumerate(blocks + [(None, None)]) if js != [i])
        assert all(sorted(js) == list(range(first)) for _, js in blocks[first:]), (n, k)
        j = int(rng.integers(len(m) + 1))
        head = list(itertools.islice(hits(n, k), j))
        assert np.array_equal(np.array(head).reshape(-1, n, n), m[:j]), (n, k)


def _scan_hits(regular_scan, n, k, t, allowed):
    """The scan's matrices with diagonal t whose off-diagonal cells of M^2
    hold the values of their class (allowed[0] on non-arcs, allowed[1] on arcs)."""
    m, s = regular_scan[(n, k)]
    ok = np.where(np.eye(n, dtype=bool), s == t,
                  np.where(m == 1, np.isin(s, list(allowed[1])), np.isin(s, list(allowed[0]))))
    return m[ok.all(axis=(1, 2))].tolist()


def test_search_matches_brute_force_to_order_six(regular_scan):
    """The labelled hits of both searches are exactly the matrices an
    exhaustive scan accepts, in the same ascending order."""
    for n in range(2, 7):
        for k in range(n):
            for b in range(k + 1):
                for a in range(b + 1):
                    for t in range(k + 1):
                        params = DezaParams(n, k, b, a, t)
                        try:
                            if not dz.feasibility(params).feasible:
                                continue
                        except ValueError:
                            continue
                        hits = search_deza_digraphs(params)
                        assert [d.adjacency.tolist() for d in hits] == \
                            _scan_hits(regular_scan, n, k, t, ({a, b}, {a, b})), params.as_tuple()

    expected = [(p, mat.tolist()) for n in range(2, 7) for k in range(1, n - 1)
                for p, mat in _scan_dsrgs(regular_scan, n, k)]
    expected.sort(key=lambda e: (e[0][0], e[0][1], e[0][4], e[0][2], e[1]))
    found = [(p.as_tuple(), d.adjacency.tolist()) for p, d in search_dsrg(6)]
    assert found == expected


def _scan_dsrgs(regular_scan, n, k):
    """(n, k, lam, mu, t) and matrix of every DSRG with t < k in the scan."""
    m, s = regular_scan[(n, k)]
    eye = np.eye(n, dtype=bool)
    for mat, sq in zip(m, s):
        t = int(sq[0, 0])
        arc = mat == 1
        lam, mu = set(sq[arc].tolist()), set(sq[~arc & ~eye].tolist())
        if t < k and (np.diagonal(sq) == t).all() and len(lam) == len(mu) == 1:
            yield (n, k, lam.pop(), mu.pop(), t), mat


def test_search_matches_scan_per_arc_class(regular_scan):
    """_search on its own, with value sets the public searches never pass
    (unequal, with gaps), emits exactly the scan's matches in ascending
    order, and limit=j emits the first j of them.  The sets are a seeded
    sample plus the full range and the gapped pair {0, 2} / {1}."""
    rng = np.random.default_rng(15)
    hits = empty = 0
    for (n, k) in regular_scan:
        for t in range(k + 1):
            sets = [set(range(k + 1))] + [
                {int(x) for x in rng.choice(k + 1, rng.integers(1, k + 2), replace=False)}
                for _ in range(2)]
            pairs = [(x, y) for x in sets for y in sets]
            if k >= 2:
                pairs += [({0, 2}, {1}), ({1}, {0, 2})]
            for allowed in pairs:
                expected = _scan_hits(regular_scan, n, k, t, allowed)
                found = [m.tolist() for m, _ in search_hits(n, k, t, allowed)]
                assert found == expected, (n, k, t, allowed)
                j = int(rng.integers(len(found) + 1))
                head = itertools.islice(search_hits(n, k, t, allowed), j)
                assert [m.tolist() for m, _ in head] == found[:j]
                hits += len(found)
                empty += not found
    assert hits > 0 and empty > 0


@pytest.mark.parametrize("params,count", [((7, 3, 2, 1, 0), 240), ((6, 2, 1, 0, 1), 480),
                                          ((8, 3, 3, 1, 0), 1680)])
def test_search_relabels_the_first_row_zero_block(params, count):
    """_search finds the hits with N+(0) = {n-k, ..., n-1} and relabels them
    for every other row 0.  The hits stay strictly ascending, every row 0
    occurs and equally often, and a limit at the end of the searched block
    cuts the same list."""
    n, k, b, a, t = params
    allowed = ({a, b}, {a, b})
    hits = [m.tolist() for m, _ in search_hits(n, k, t, allowed)]
    assert len(hits) == count
    assert all(x < y for x, y in zip(hits, hits[1:]))
    row0 = collections.Counter(tuple(m[0]) for m in hits)
    assert len(row0) == math.comb(n - 1, k)
    assert set(row0.values()) == {count // len(row0)}
    assert hits[0][0] == [0] * (n - k) + [1] * k
    first = row0[tuple(hits[0][0])]
    for j in (first - 1, first, first + 1):
        head = itertools.islice(search_hits(n, k, t, allowed), j)
        assert [m.tolist() for m, _ in head] == hits[:j], j


def _verifiers_accept(m, params) -> bool:
    """Whether the public verifier accepts m as params: verify_dsrg with
    exactly the DSRG tuple, or verify_deza_digraph with the Deza tuple or
    the a = b tuple of either value.  The rule the searches' block check
    must match."""
    try:
        d = Digraph(m)
    except ValueError:  # an entry not 0 or 1, or a loop
        return False
    if isinstance(params, DsrgParams):
        report = verify_dsrg(d)
        return report.ok and report.params == params
    n, k, b, a, t = params.as_tuple()
    report = verify_deza_digraph(d)
    return report.ok and report.params.as_tuple() in {(n, k, b, a, t), (n, k, b, b, t),
                                                      (n, k, a, a, t)}


def test_search_sweep_to_order_seven_is_pinned():
    """Every hit of _search for n = 2..7, k < n, t <= k, a <= b <= k and
    the value sets ({a,b},{a,b}), ({a},{b}), ({b},{a}), hashed in yield
    order.  The scan oracles stop at order 6; this pins order 7 too, and
    the order of the hits, against a digest recorded from the search.
    verify_deza_digraph accepts every hit as (n, k, b, a, t)."""
    digest = hashlib.sha256()
    count = 0
    for n in range(2, 8):
        for k in range(n):
            for t, b in itertools.product(range(k + 1), repeat=2):
                for a in range(b + 1):
                    for allowed in (({a, b}, {a, b}), ({a}, {b}), ({b}, {a})):
                        for m, _ in search_hits(n, k, t, allowed):
                            digest.update(np.asarray(m, dtype=np.int64).tobytes())
                            assert _verifiers_accept(m, DezaParams(n, k, b, a, t))
                            count += 1
    assert count == 3384
    assert digest.hexdigest() == \
        "29a026d3c9636e4cb55e946789984780fd220c37b4cbcf77039135a214d0ccd9"


@pytest.mark.parametrize("params", [(6, 2, 0, 1, 1), (4, 1, 0, 1, 0), (3, -1, 0, 0, -2),
                                    (4, 2, -1, -3, 2), (0, 0, 0, 0, 0)])
def test_search_rejects_the_tuples_feasibility_rejects(params):
    # a > b, a negative k and t, a negative a and b, and k = n = 0
    for call in (dz.feasibility, search_deza_digraphs):
        with pytest.raises(ValueError, match="parameter invariants violated"):
            call(DezaParams(*params))


def test_search_prunes_odd_handshake():
    # the mutual arcs form a t-regular graph on n vertices, so n * t is even;
    # feasibility() admits (7,4,3,2,3) all the same
    assert dz.feasibility(DezaParams(7, 4, 3, 2, 3)).feasible
    assert search_deza_digraphs(DezaParams(7, 4, 3, 2, 3)) == []
    assert list(search_hits(5, 2, 1, ({0}, {1}))) == []


def test_search_checks_arguments_before_parity():
    # n * t is odd in both, but the order bound and the limit check come first
    with pytest.raises(SizeBoundError):
        search_deza_digraphs(DezaParams(11, 2, 1, 0, 1))
    with pytest.raises(ValueError, match="limit -1 is negative"):
        search_deza_digraphs(DezaParams(5, 2, 1, 0, 1), limit=-1)


@pytest.mark.parametrize("search", [
    lambda: search_deza_digraphs(DezaParams(6, 2, 1, 0, 1)),
    lambda: [d for _, d in search_dsrg(6)],
], ids=["deza", "dsrg"])
def test_search_hits_are_read_only_digraphs(search):
    hits = search()
    assert len(hits) > 1
    for d in hits:
        fresh = Digraph(d.adjacency)
        assert not d.adjacency.flags.writeable and d.adjacency.dtype == np.int64
        assert d == fresh and hash(d) == hash(fresh) and repr(d) == repr(fresh)
        with pytest.raises(ValueError):
            d.adjacency[0, 0] = 1


def test_search_limit():
    assert len(search_deza_digraphs(DezaParams(5, 1, 1, 0, 0), limit=2)) == 2
    # a negative limit is an error, not a search that finds nothing
    with pytest.raises(ValueError, match="limit -1 is negative"):
        search_deza_digraphs(DezaParams(5, 1, 1, 0, 0), limit=-1)


def test_search_order_bound():
    with pytest.raises(SizeBoundError):
        search_deza_digraphs(DezaParams(11, 2, 1, 0, 0))
    with pytest.raises(SizeBoundError):
        search_dsrg(11)


def test_search_dsrg_small_catalogue(dsrg_catalogue_7):
    tuples = {p.as_tuple() for p, _ in dsrg_catalogue_7}
    assert (6, 2, 0, 1, 1) in tuples
    assert (7, 3, 1, 2, 0) in tuples
    for p, d in dsrg_catalogue_7:
        assert _verifiers_accept(d.adjacency, p)


def _block_check_cases():
    """(params, k, t, allowed, hits) for every Deza tuple with hits at
    orders 4 to 6 and b <= 2, and every DSRG tuple of search_dsrg(6)."""
    for n in range(4, 7):
        for k, b, t in itertools.product(range(n), range(3), range(n)):
            for a in range(b + 1):
                params = DezaParams(n, k, b, a, t)
                if k < b or k < t:
                    continue
                hits = [d.adjacency for d in search_deza_digraphs(params)]
                if hits:
                    yield params, k, t, ({a, b}, {a, b}), hits
    catalogue = collections.defaultdict(list)
    for p, d in search_dsrg(6):
        catalogue[p].append(d.adjacency)
    for p, hits in catalogue.items():
        yield p, p.k, p.t, ({p.mu}, {p.lam}), hits


def test_block_check_agrees_with_the_verifiers():
    """_satisfies accepts a matrix of a seeded random stack exactly when
    the public verifier accepts it with the searched tuple.  A stack holds
    real hits, relabelled hits, every one-entry flip of a hit, loop-free
    matrices with k ones per row or per column, loop-free random 0/1
    matrices and a k-regular circulant with loops."""
    rng = np.random.default_rng(24)
    verdicts = collections.Counter()
    for params, k, t, allowed, hits in _block_check_cases():
        n = hits[0].shape[0]
        picks = [hits[i] for i in rng.choice(len(hits), min(len(hits), 2), replace=False)]
        # a circulant with every row and column sum k and, for k > 0, loops
        stack = [((np.arange(n) - np.arange(n)[:, None]) % n < k).astype(np.int64), *picks]
        for m in picks:
            perm = rng.permutation(n)
            stack.append(m[np.ix_(perm, perm)])
            for u, v in itertools.product(range(n), repeat=2):
                flip = m.copy()
                flip[u, v] ^= 1
                stack.append(flip)
        for _ in range(6):
            rows = np.zeros((n, n), dtype=np.int64)
            for u in range(n):
                rows[u, rng.choice([v for v in range(n) if v != u], k, replace=False)] = 1
            stack += [rows, rows.T]
            stack.append(rng.integers(0, 2, (n, n)) * (1 - np.eye(n, dtype=np.int64)))
        stack = np.array(stack)
        expected = [_verifiers_accept(m, params) for m in stack]
        assert _satisfies(stack, k, t, allowed).tolist() == expected, params
        verdicts.update(expected)
    assert verdicts[True] > 100 and verdicts[False] > 1000, verdicts


def test_search_dsrg_contains_tournament(dsrg_catalogue_7):
    key = canonical_form(dz.paley_tournament(7))
    hits = [d for p, d in dsrg_catalogue_7 if p.as_tuple() == (7, 3, 1, 2, 0)]
    assert any(canonical_form(d) == key for d in hits[:10])


def test_spectral_filter_never_rejects_realizable(regular_scan):
    """Exhaustive cross-check of the trace argument on small orders: it
    accepts the tuple of every DSRG with t < k in the exhaustive scan."""
    realized = {p for n in range(2, 7) for k in range(1, n - 1)
                for p, _ in _scan_dsrgs(regular_scan, n, k)}
    assert (6, 2, 0, 1, 1) in realized
    for p in realized:
        assert dsrg_spectral_feasible(*p), p


def test_canonical_form_relabeling_invariance(deza_8_3):
    rng = np.random.default_rng(6)
    key = canonical_form(deza_8_3)
    for _ in range(5):
        perm = rng.permutation(8)
        relabeled = Digraph(deza_8_3.adjacency[np.ix_(perm, perm)])
        assert canonical_form(relabeled) == key


def test_canonical_form_three_cycle_and_reverse():
    c3 = dz.directed_cycle(3)
    reverse = Digraph(c3.adjacency.T)
    assert canonical_form(c3) == canonical_form(reverse)


def test_canonical_form_distinguishes(deza_8_3, deza_8_4):
    assert canonical_form(deza_8_3) != canonical_form(deza_8_4)


def test_canonical_form_distinguishes_same_degree():
    # two 2-regular digraphs on 6 vertices: a 6-cycle squared vs two triangles
    c6 = dz.circulant([0, 1, 1, 0, 0, 0])
    triangles = kronecker(identity(2), dz.directed_cycle(3).adjacency) + \
        kronecker(identity(2), dz.directed_cycle(3).adjacency.T)
    d1 = Digraph(c6)
    d2 = Digraph((triangles > 0).astype(np.int64))
    assert canonical_form(d1) != canonical_form(d2)


def test_canonical_form_size_bound():
    with pytest.raises(SizeBoundError):
        canonical_form(dz.empty_digraph(11))


def test_lambda_mu_catalogue(lambda_mu_catalogue_8, lambda_mu_classes_8):
    tuples = {p.as_tuple() for p, _ in lambda_mu_catalogue_8}
    assert tuples == {(8, 3, 1, 1, 2)}
    # single isomorphism class: 8!/|Aut| labeled copies
    assert len(lambda_mu_catalogue_8) == 5040
    assert len(lambda_mu_classes_8) == 1
