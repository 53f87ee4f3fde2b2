"""Every verifier against a brute-force oracle.

The oracle never multiplies matrices: two-path, common out-neighbour and
common in-neighbour counts are summed over the middle vertex, and the
verdict, parameters and witness each verifier should give are re-derived
from those counts with plain loops.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dezakit as dz
from dezakit import cli, fileio, matrix_core, verify
from dezakit.fileio import report_to_dict
from dezakit.matrix_core import Digraph, _shift_period, block_circulant
from dezakit.verify import (NOT_MEMBER, DddParams, DesignParams, DezaGraphParams,
                            DezaParams, DsrgParams, ReflexiveReport, StatisticSummary,
                            VerificationReport)

from conftest import DEZA_8_3_3_1_0, DEZA_8_4_3_1_1


def counts(m: np.ndarray):
    """(M^2, M M^t, M^t M) entry by entry: |{w : u -> w -> v}|,
    |{w : u -> w, v -> w}| and |{w : w -> u, w -> v}|."""
    b = m.astype(bool)
    return ((b[:, :, None] & b[None, :, :]).sum(axis=1).tolist(),
            (b[:, None, :] & b[None, :, :]).sum(axis=2).tolist(),
            (b.T[:, None, :] & b.T[None, :, :]).sum(axis=2).tolist())


def first(n: int, holds):
    """The first pair (u, v) in row-major order for which holds(u, v)."""
    return next((u, v) for u in range(n) for v in range(n) if holds(u, v))


def offdiag(s) -> list[int]:
    return [s[u][v] for u in range(len(s)) for v in range(len(s)) if u != v]


def multiset(s) -> str:
    return "{" + ", ".join(f"{v}: {c}" for v, c in sorted(Counter(offdiag(s)).items())) + "}"


def fail(witness: str) -> VerificationReport:
    return VerificationReport(classification=NOT_MEMBER, witness=witness)


def regularity(m):
    """(k, None) for a k-regular m, else (None, the degree witness)."""
    n = len(m)
    out = [sum(row) for row in m]
    into = [sum(m[u][v] for u in range(n)) for v in range(n)]
    k = out[0]
    for u in range(n):
        if out[u] != k:
            return None, f"out-degrees not constant: vertex {u} has {out[u]}, vertex 0 has {k}"
    for v in range(n):
        if into[v] != k:
            return None, f"in-degree of vertex {v} is {into[v]}, out-degree is {k}"
    return k, None


def partner_formula(n, k, b, a, t, value):
    """How many partners realize value, from n - 1 = alpha + beta and
    k^2 - t = a alpha + b beta; None when that is no integer."""
    if a == b:
        f = Fraction(k * k - t, a) if a else Fraction(n - 1)
    elif value == a:
        f = Fraction(b * (n - 1) - (k * k - t), b - a)
    else:
        f = Fraction((k * k - t) - a * (n - 1), b - a)
    return int(f) if f.denominator == 1 else None


def two_valued_fit(s, k, t, name, label) -> VerificationReport:
    n = len(s)
    vals = sorted(set(offdiag(s)))
    if len(vals) > 2:
        return fail(f"{name} take {len(vals)} values {multiset(s)}")
    a, b = (vals[0], vals[-1]) if vals else (0, 0)
    alpha = sum(s[0][v] == a for v in range(1, n))
    beta = sum(s[0][v] == b for v in range(1, n))
    alpha_f, beta_f = (partner_formula(n, k, b, a, t, val) for val in (a, b))
    tag, params = label(a, b)
    return VerificationReport(tag, params, alpha, beta, alpha_f, beta_f,
                              alpha == alpha_f and beta == beta_f)


def deza_oracle(m, classes):
    n = len(m)
    if any(m[u][u] for u in range(n)):
        raise ValueError("loops")
    k, witness = regularity(m)
    if witness:
        return fail(witness)
    s = counts(np.array(m))[0]
    t = s[0][0]
    for u in range(n):
        if s[u][u] != t:
            return fail(f"diag(M^2) not constant: vertex {u} has {s[u][u]}, vertex 0 has {t}")
    return two_valued_fit(s, k, t, "off-diagonal path counts", lambda a, b: (
        "deza_graph" if t == k else "dsrg" if a == b else "deza_digraph",
        DezaParams(n, k, b, a, t)))


def children_oracle(m, classes):
    """The rows of the Deza children X and Y: u -> v in X when the
    two-path count of (u, v) is a, and in Y when it is b and a != b."""
    rep = deza_oracle(m, classes)
    if not rep.ok:
        raise ValueError(rep.witness)
    n, p, s = len(m), rep.params, counts(np.array(m))[0]
    return [[[int(u != v and s[u][v] == value and keep) for v in range(n)] for u in range(n)]
            for value, keep in ((p.a, True), (p.b, p.a != p.b))]


def dsrg_oracle(m, classes):
    n = len(m)
    if any(m[u][u] for u in range(n)):
        raise ValueError("loops")
    k, witness = regularity(m)
    if witness:
        return fail(witness)
    s = counts(np.array(m))[0]
    t = s[0][0]
    if any(s[u][u] != t for u in range(n)):
        return fail(f"diag(M^2) not constant: {multiset(s)}")
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    lam_vals = sorted({s[u][v] for u, v in pairs if m[u][v]})
    mu_vals = sorted({s[u][v] for u, v in pairs if not m[u][v]})
    if len(lam_vals) > 1:
        return fail(f"path counts on arcs not constant: {lam_vals}")
    if len(mu_vals) > 1:
        return fail(f"path counts on non-arcs not constant: {mu_vals}")
    lam = (lam_vals or mu_vals or [0])[0]
    mu = (mu_vals or [lam])[0]
    symmetric = all(m[u][v] == m[v][u] for u, v in pairs)
    return VerificationReport("srg" if symmetric else "dsrg", DsrgParams(n, k, lam, mu, t))


def type2_oracle(m, classes):
    n = len(m)
    if any(m[u][u] for u in range(n)):
        raise ValueError("loops")
    k, witness = regularity(m)
    if witness:
        return fail(witness)
    _, g, g2 = counts(np.array(m))
    if g != g2:
        u, v = first(n, lambda u, v: g[u][v] != g2[u][v])
        return fail(f"M M^t != M^t M first at ({u}, {v}): {g[u][v]} vs {g2[u][v]}")
    return two_valued_fit(g, k, k, "common-neighbour counts",
                          lambda a, b: ("typeII", DezaGraphParams(n, k, b, a)))


def ddd_oracle(m, classes):
    n = len(m)
    label = {v: ci for ci, c in enumerate(classes) for v in c}
    if any(m[u][v] + m[v][u] > 1 for u in range(n) for v in range(n)):
        u, v = first(n, lambda u, v: m[u][v] + m[v][u] > 1)
        return fail(f"not asymmetric: mutual arcs between {u} and {v}")
    k, witness = regularity(m)
    if witness:
        return fail(witness)
    _, gout, gin = counts(np.array(m))
    found = []
    for g, name in ((gout, "dominated-by-both"), (gin, "dominates-both")):
        lams = []
        for where, same in (("within", True), ("across", False)):
            def in_scope(u, v):
                return u != v and (label[u] == label[v]) == same
            vals = sorted({g[u][v] for u in range(n) for v in range(n) if in_scope(u, v)}) or [0]
            if len(vals) > 1:
                pair = first(n, lambda u, v: in_scope(u, v) and g[u][v] != vals[0])
                return fail(f"{name} count not constant {where} classes: values "
                            f"{vals}, witness pair {pair}")
            lams.append(vals[0])
        if found and found != lams:
            return fail(f"{name} counts ({lams[0]}, {lams[1]}) disagree with "
                        f"dominated-by-both counts ({found[0]}, {found[1]})")
        found = lams
    return VerificationReport("ddd", DddParams(n, k, found[0], found[1],
                                               len(classes), len(classes[0])))


def discover_oracle(m, classes):
    """A partition that ddd_oracle accepts, or None when it rejects even
    the singleton classes every asymmetric regular DDD falls back to."""
    found = verify.discover_ddd_partition(dz.Digraph(np.array(m), loops_allowed=True))
    if found is None:
        return None if not ddd_oracle(m, [[v] for v in range(len(m))]).ok else "missed"
    if sorted(v for c in found for v in c) != list(range(len(m))) \
            or len({len(c) for c in found}) != 1:
        return "not an equal-size partition"
    return found if ddd_oracle(m, found).ok else "rejected by the oracle"


def deza_graph_oracle(m, reflexive: bool):
    n = len(m)
    if any(m[u][v] != m[v][u] for u in range(n) for v in range(n)):
        raise ValueError("not symmetric")
    loops = [m[u][u] for u in range(n)]
    if (reflexive and not all(loops)) or (not reflexive and any(loops)):
        raise ValueError("loops")
    k, witness = regularity(m)
    if witness:
        return fail(witness)
    s = counts(np.array(m))[0]
    t = s[0][0]
    if any(s[u][u] != t for u in range(n)):
        return fail(f"diag(M^2) not constant: {multiset(s)}")
    return two_valued_fit(s, k, t, "common-neighbour counts", lambda a, b: (
        "reflexive_deza_graph" if reflexive else "srg" if a == b else "deza_graph",
        DezaGraphParams(n, k, b, a)))


def summary(name, s, n, k, commute):
    diag = tuple(sorted({s[u][u] for u in range(n)}))
    vals = tuple(sorted(set(offdiag(s))))
    a, b = (vals[0], vals[-1]) if vals else (0, 0)
    two = len(vals) in (1, 2) and len(diag) == 1 and commute is not False
    return StatisticSummary(name, diag, vals, commute, two,
                            DezaGraphParams(n, k, b, a) if two else None)


def reflexive_oracle(m, classes):
    n = len(m)
    if not all(m[u][u] for u in range(n)):
        raise ValueError("loops missing")
    k, witness = regularity(m)
    if witness:
        return ReflexiveReport(NOT_MEMBER, StatisticSummary("square", (), (), None, False, None),
                               StatisticSummary("gram", (), (), None, False, None),
                               (), None, witness)
    s, g, g2 = counts(np.array(m))
    square, gram = summary("square", s, n, k, None), summary("gram", g, n, k, g == g2)
    matched = tuple(st.name for st in (square, gram) if st.two_valued)
    mutual = s[0][0] if all(s[u][u] == s[0][0] for u in range(n)) else None
    if matched:
        return ReflexiveReport("reflexive_directed_deza", square, gram, matched, mutual)
    return ReflexiveReport(NOT_MEMBER, square, gram, (), mutual,
                           "neither product statistic is two-valued with constant diagonal")


def design_oracle(m, classes):
    n = len(m)
    k, witness = regularity(m)
    if witness:
        raise ValueError(witness)
    lams = set()
    for g in counts(np.array(m))[1:]:
        vals = set(offdiag(g))
        if any(g[u][u] != k for u in range(n)) or (n > 1 and len(vals) != 1):
            raise ValueError("Gram mismatch")
        lams |= vals or {0}
    if len(lams) > 1:
        raise ValueError("Gram mismatch")
    return DesignParams(n, k, lams.pop())


# name -> (verifier on (digraph, classes), oracle on (rows, classes))
CASES = {
    "deza": (lambda d, c: verify.verify_deza_digraph(d), deza_oracle),
    "children": (lambda d, c: [x.adjacency.tolist() for x in verify.deza_children(d)],
                 children_oracle),
    "dsrg": (lambda d, c: verify.verify_dsrg(d), dsrg_oracle),
    "type2": (lambda d, c: verify.verify_type2(d), type2_oracle),
    "ddd": (lambda d, c: verify.verify_ddd(d, c), ddd_oracle),
    "discover": (lambda d, c: verify.discover_ddd_partition(d), discover_oracle),
    "deza-graph": (lambda d, c: verify.verify_deza_graph(d),
                   lambda m, c: deza_graph_oracle(m, False)),
    "reflexive-graph": (lambda d, c: verify.verify_deza_graph(d, reflexive=True),
                        lambda m, c: deza_graph_oracle(m, True)),
    "reflexive": (lambda d, c: verify.verify_reflexive_directed_deza(d), reflexive_oracle),
    "design": (lambda d, c: verify.verify_symmetric_design(d), design_oracle),
}


def outcome(call):
    """The JSON form of what call returns, or the name of what it raises."""
    try:
        return report_to_dict(call())
    except ValueError as exc:
        return type(exc).__name__


def check_against_oracle(m: np.ndarray, classes):
    d = dz.Digraph(m, loops_allowed=True)
    rows = m.tolist()
    for name, (run, oracle) in CASES.items():
        got = outcome(lambda: run(d, classes))
        want = outcome(lambda: oracle(rows, classes))
        assert got == want, (name, rows, classes)


def check_shared_products(m: np.ndarray, classes):
    """Each verifier reports the same on one Digraph, whose products the
    verifiers before it filled, as on a fresh Digraph of the same matrix."""
    d = dz.Digraph(m, loops_allowed=True)
    for _ in range(2):  # the second pass finds every product filled
        for name, (run, _oracle) in CASES.items():
            alone = outcome(lambda: run(dz.Digraph(m, loops_allowed=True), classes))
            assert outcome(lambda: run(d, classes)) == alone, name


# regular and loop-free, but with M M^t != M^t M: the circulant on the
# connection set {1, 4, 7} with the columns of vertices 0 and 2 swapped
SWAPPED = dz.circulant([0, 1, 0, 0, 1, 0, 0, 1])[:, [2, 1, 0, 3, 4, 5, 6, 7]]
KNOWN = (DEZA_8_3_3_1_0, DEZA_8_4_3_1_1, dz.paley_tournament(7).adjacency,
         dz.paley_tournament(11).adjacency, dz.directed_cycle(6).adjacency, SWAPPED)


@st.composite
def zero_one_matrices(draw):
    """A 0/1 matrix of order 1..12 with a partition of its vertices into
    equal classes.  Unstructured matrices (symmetrized or not, diagonal
    kept, cleared or filled) mostly stop at a degree witness, so regular
    ones are drawn too: circulants and relabelled known digraphs."""
    kind = draw(st.sampled_from(["random", "circulant", "known"]))
    if kind == "known":
        m = KNOWN[draw(st.integers(0, len(KNOWN) - 1))]
        perm = draw(st.permutations(range(m.shape[0])))
        m = m[np.ix_(perm, perm)]
    elif kind == "circulant":
        m = dz.circulant(draw(st.lists(st.integers(0, 1), min_size=1, max_size=12)))
    else:
        n = draw(st.integers(1, 12))
        bits = draw(st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n))
        m = np.array(bits, dtype=np.int64).reshape(n, n)
        if draw(st.booleans()):
            m = m | m.T
        diagonal = draw(st.sampled_from(["keep", "clear", "fill"]))
        if diagonal != "keep":
            np.fill_diagonal(m, int(diagonal == "fill"))
    n = m.shape[0]
    size = draw(st.sampled_from([c for c in range(1, n + 1) if n % c == 0]))
    perm = draw(st.permutations(range(n)))
    return m, [sorted(perm[i:i + size]) for i in range(0, n, size)]


@given(zero_one_matrices())
def test_verifiers_match_brute_force_counts(case):
    check_against_oracle(*case)


@given(zero_one_matrices())
def test_shared_products_give_the_same_reports(case):
    check_shared_products(*case)


def test_block_circulant_input_matches_brute_force_counts():
    # the Paley tournament of order 67 blown up by 2 is invariant under the
    # cyclic shift by 2, so every product of it takes the block-row path
    d = dz.lex_product(dz.paley_tournament(67), dz.empty_digraph(2))
    assert d.n == 134 and _shift_period(d.adjacency) == _shift_period(d.adjacency.T) == 2
    classes = [[2 * r, 2 * r + 1] for r in range(67)]
    # the shift by 2 maps these classes onto classes, but not the pairs
    # {0, 3} and {1, 2}, whose verdict needs the rows below 2 as well
    for partition in (classes, [[0, 3], [1, 2]] + classes[2:]):
        check_against_oracle(d.adjacency, partition)
        check_shared_products(d.adjacency, partition)
    assert verify.verify_type2(d).params == DezaGraphParams(134, 66, 66, 32)
    assert verify.verify_ddd(d, verify.discover_ddd_partition(d)).params == \
        DddParams(134, 66, 66, 32, 67, 2)


# strips of block-circulant matrices of order 128..160 whose M^2 or
# M M^t is two-valued, so that the fit reaches the partner counts
TWO_VALUED_STRIPS = tuple(d.adjacency[:h] for d, h in (
    (dz.paley_tournament(131), 1),
    (dz.paley_graph(137), 1),
    (dz.lex_product(dz.paley_tournament(67), dz.empty_digraph(2)), 2),
    (dz.lex_product(dz.paley_tournament(43), dz.empty_digraph(3)), 3),
    (dz.lex_product(dz.paley_graph(37), dz.empty_digraph(4)), 4)))


@st.composite
def block_circulant_matrices(draw):
    """A 0/1 matrix of order 128..160 that block_circulant expands from
    a strip of height h <= 4, with a partition into equal classes, drawn
    at random or invariant under the shift by h.
    Random strips give irregular matrices.  Strips of h x h permutation
    or zero blocks, the first one zero, give loop-free regular matrices
    whose products take many values, with M M^t != M^t M in general when
    h > 1.  Known strips give two-valued products.  Loops may be added
    at every vertex."""
    kind = draw(st.sampled_from(["random", "permutations", "known"]))
    if kind == "known":
        strip = TWO_VALUED_STRIPS[draw(st.integers(0, len(TWO_VALUED_STRIPS) - 1))]
    else:
        h = draw(st.integers(1, 4))
        n = h * draw(st.integers(-(-128 // h), 160 // h))
        if kind == "random":
            bits = draw(st.lists(st.integers(0, 1), min_size=h * n, max_size=h * n))
            strip = np.array(bits, dtype=np.int64).reshape(h, n)
        else:
            perms = [np.zeros((h, h), dtype=np.int64)]
            perms += [np.eye(h, dtype=np.int64)[list(p)] for p in permutations(range(h))]
            strip = np.concatenate([perms[0]] + [perms[draw(st.integers(0, len(perms) - 1))]
                                                 for _ in range(n // h - 1)], axis=1)
    m = block_circulant(strip)
    if kind == "random" and draw(st.booleans()):
        m = m | m.T
    diagonal = draw(st.sampled_from(["keep", "clear", "fill"] if kind == "random"
                                    else ["keep", "fill"]))
    if diagonal != "keep":
        m = m.copy()
        np.fill_diagonal(m, int(diagonal == "fill"))
    n, h = m.shape[0], strip.shape[0]
    divisors = [c for c in range(1, n + 1) if n % c == 0]
    # residue classes mod c | n and runs of s | h consecutive vertices are
    # invariant under the shift by h, so verify_ddd reads their strips
    partition = draw(st.sampled_from(["random", "residues", "blocks"]))
    if partition == "residues":
        c = draw(st.sampled_from(divisors))
        return m, [list(range(r, n, c)) for r in range(c)]
    if partition == "blocks":
        s = draw(st.sampled_from([s for s in divisors if h % s == 0]))
        return m, [list(range(i, i + s)) for i in range(0, n, s)]
    size = draw(st.sampled_from(divisors))
    perm = draw(st.permutations(range(n)))
    return m, [sorted(perm[i:i + size]) for i in range(0, n, size)]


@settings(max_examples=20)
@given(block_circulant_matrices())
# always one strip of height h > 1 whose M M^t is two-valued
@example((block_circulant(TWO_VALUED_STRIPS[3]), [[v] for v in range(129)]))
def test_block_circulant_verifiers_match_brute_force_counts(case):
    # the verifiers read these products from strips of height h < n
    m, classes = case
    assert Digraph(m, loops_allowed=True).period < m.shape[0]
    check_against_oracle(m, classes)
    check_shared_products(m, classes)


def test_ddd_of_twin_block_classes_reads_the_strips(monkeypatch):
    # the shift by the period 16 maps block class r to block class r + 1
    pair, _ = dz.twin_directed(dz.sylvester(4))
    part, classes = pair.positive_part, pair.block_classes()
    expanded = []  # the dtypes of the strips the verifiers expand
    real = verify.block_circulant
    monkeypatch.setattr(verify, "block_circulant", lambda s: expanded.append(s.dtype) or real(s))
    got = verify.verify_ddd(part, classes)
    verify.discover_ddd_partition(part)
    # bool position masks are expanded, but never a product strip
    assert part.period == 16 and expanded and set(expanded) == {np.dtype(bool)}
    assert not got.ok
    assert report_to_dict(got) == report_to_dict(ddd_oracle(part.adjacency.tolist(), classes))


@pytest.fixture
def matmul_calls(monkeypatch):
    """The operand shapes of every exact_matmul call made from here on."""
    calls = []
    real = matrix_core.exact_matmul

    def counting(a, b):
        calls.append((a.shape, b.shape))
        return real(a, b)

    monkeypatch.setattr(matrix_core, "exact_matmul", counting)
    return calls


def test_verify_computes_each_product_once(tmp_path, capsys, matmul_calls):
    path = str(tmp_path / "skew16.txt")
    assert cli.main(["construct", "skew-hadamard", "--u", "2", "--out", path]) == 0
    for extra in ([], ["--children-prefix", str(tmp_path / "kids")]):
        matmul_calls.clear()
        assert cli.main(["verify", path, *extra]) == 0
        # M^2, M M^t and M^t M for all seven classifiers (they made 11)
        assert len(matmul_calls) == 3, extra
    matmul_calls.clear()
    assert verify.discover_ddd_partition(fileio.read_digraph(path)) is not None
    assert len(matmul_calls) <= 2
    # a Digraph keeps its products, so the second verifier on it makes none:
    # a skew blow-up's DDD check, then discovery on it ...
    skew = dz.skew_hadamard_deza(dz.paley_skew(7))
    matmul_calls.clear()
    assert verify.verify_ddd(skew, dz.construct.pair_classes(skew.n)).ok
    first = len(matmul_calls)
    assert first and verify.discover_ddd_partition(skew) is not None
    assert len(matmul_calls) == first
    # ... and a twin part's type-II check, then its block classes as a DDD
    pair, _ = dz.twin_directed(dz.sylvester(3))
    part = pair.positive_part
    matmul_calls.clear()
    assert verify.verify_type2(part).ok
    first = len(matmul_calls)
    verify.verify_ddd(part, pair.block_classes())
    assert first and len(matmul_calls) == first


def test_periodic_products_multiply_strips(matmul_calls):
    # the twin part of order 496 has period 16: every product is one
    # strip times another, and no operand is the whole matrix
    pair, _ = dz.twin_directed(dz.sylvester(4))
    part = pair.positive_part
    assert verify.verify_type2(part).ok
    verify.verify_ddd(part, pair.block_classes())
    verify.verify_deza_digraph(part)
    assert len(matmul_calls) == 3
    assert all(shapes == ((16, 496), (16, 496)) for shapes in matmul_calls)


def dense_regularity_witness(m: np.ndarray) -> str | None:
    """The regularity witness from the degrees of all n vertices."""
    out, into = m.sum(axis=1).tolist(), m.sum(axis=0).tolist()
    for u, deg in enumerate(out):
        if deg != out[0]:
            return f"out-degrees not constant: vertex {u} has {deg}, vertex 0 has {out[0]}"
    for v, deg in enumerate(into):
        if deg != out[0]:
            return f"in-degree of vertex {v} is {deg}, out-degree is {out[0]}"
    return None


@pytest.mark.parametrize("h, n, arcs", [
    # out-degrees 2, 2, 3, 2 repeat with period 4
    (4, 132, [(0, 5), (0, 9), (1, 6), (1, 10), (2, 3), (2, 7), (2, 11), (3, 4), (3, 8)]),
    # out-degree 2, but columns 0, 1, 2 mod 3 hold 2, 1 and 3 arcs
    (3, 129, [(0, 3), (0, 6), (1, 4), (1, 5), (2, 8), (2, 11)])])
def test_regularity_witness_of_a_periodic_digraph(h, n, arcs):
    strip = np.zeros((h, n), dtype=np.int64)
    for u, v in arcs:
        strip[u, v] = 1
    d = dz.Digraph(block_circulant(strip))
    assert d.n >= 128 and d.period == h
    want = dense_regularity_witness(d.adjacency)
    assert want and ("out-degrees" in want) == (h == 4)
    for verifier in (verify.verify_deza_digraph, verify.verify_dsrg, verify.verify_type2):
        assert verifier(d).witness == want
    with pytest.raises(ValueError, match=f"line sums not constant: {want}"):
        verify.verify_symmetric_design(d.adjacency)


@pytest.mark.parametrize("arcs", [
    # the undirected 132-cycle and the arc 2 -> 7, none of whose shifts
    # by 4 reverses it: symmetric in rows 0 and 1, mutual arcs from row 0
    [(0, 1), (0, 131), (1, 2), (1, 0), (2, 3), (2, 1), (3, 4), (3, 2), (2, 7)],
    # the directed 132-cycle and the mutual arcs 1 <-> 6 (6 -> 1 is the
    # shift by 4 of 2 -> 129): asymmetric from row 0, mutual from row 1
    [(0, 1), (1, 2), (2, 3), (3, 4), (1, 6), (2, 129)]])
def test_symmetry_and_asymmetry_witnesses_of_a_periodic_digraph(arcs):
    h, n = 4, 132
    strip = np.zeros((h, n), dtype=np.int64)
    for u, v in arcs:
        strip[u, v] = 1
    m = block_circulant(strip)
    d, rows = dz.Digraph(m), m.tolist()
    assert d.period == h
    u, v = first(n, lambda u, v: rows[u][v] != rows[v][u])
    with pytest.raises(ValueError, match=rf"^adjacency not symmetric at \({u}, {v}\)$"):
        verify.verify_deza_graph(d)
    classes = [[i] for i in range(n)]
    got = verify.verify_ddd(d, classes)
    assert "not asymmetric" in got.witness
    assert report_to_dict(got) == report_to_dict(ddd_oracle(rows, classes))


@pytest.fixture
def period_calls(monkeypatch):
    """The orders of the matrices of every _shift_period call made from
    here on."""
    calls = []
    real = matrix_core._shift_period

    def counting(m):
        calls.append(m.shape[0])
        return real(m)

    monkeypatch.setattr(matrix_core, "_shift_period", counting)
    return calls


def test_the_shift_period_is_found_once_per_matrix(tmp_path, capsys, period_calls):
    # the order-136 blow-up of paley_skew(67) has no period: every product
    # is dense, and still only the Digraph looks for one
    path = str(tmp_path / "skew136.txt")
    assert cli.main(["construct", "skew-hadamard", "--u", "17", "--out", path]) == 0
    period_calls.clear()
    assert cli.main(["verify", path]) == 0
    assert period_calls == [136]
    # a twin part is made from its strip, whose height 16 is the period:
    # no search at all; a dense copy of it is searched once, for all products
    part = dz.twin_directed(dz.sylvester(4))[0].positive_part
    dense = Digraph(part.adjacency)
    period_calls.clear()
    assert verify.verify_type2(part).ok and part.period == 16
    assert period_calls == []
    assert verify.verify_type2(dense).ok and dense.period == 16
    assert period_calls == [496]

