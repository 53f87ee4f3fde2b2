"""Independent oracles for ``canonical_form``: brute force over every
relabelling, networkx's VF2 matcher, the orbit-stabiliser identity for
labelled search counts, and a fresh certificate for every search hit
that shares one.  Every random input is drawn from a fixed seed."""

import itertools
import math

import networkx as nx
import numpy as np
import pytest
from networkx.algorithms.isomorphism import DiGraphMatcher

import dezakit as dz
from dezakit import decompose_search
from dezakit.decompose_search import _row_masks, canonical_form, search_deza_digraphs
from dezakit.matrix_core import Digraph
from dezakit.verify import DezaParams


def relabel(m: np.ndarray, perm) -> np.ndarray:
    return m[np.ix_(perm, perm)]


def swap_arcs(m: np.ndarray, rng) -> np.ndarray:
    """Replace arcs u->v, x->y by u->y, x->v where that keeps the matrix
    0/1 and loop-free: every out- and in-degree is unchanged."""
    arcs = [tuple(e) for e in np.argwhere(m)]
    for _ in range(100):
        (u, v), (x, y) = (arcs[i] for i in rng.choice(len(arcs), 2, replace=False))
        if len({u, v, x, y}) == 4 and not m[u, y] and not m[x, v]:
            out = m.copy()
            out[u, v] = out[x, y] = 0
            out[u, y] = out[x, v] = 1
            return out
    return m


def to_nx(m: np.ndarray) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(range(m.shape[0]))
    g.add_edges_from(zip(*np.nonzero(m)))
    return g


def test_brute_force_over_all_relabellings():
    rng = np.random.default_rng(20)
    graphs = []
    for _ in range(40):
        n = int(rng.integers(1, 7))
        m = (rng.random((n, n)) < rng.random()).astype(np.int64)
        graphs += [m, relabel(m, rng.permutation(n)), relabel(m, rng.permutation(n))]
        flipped = m.copy()
        flipped[tuple(rng.integers(0, n, 2))] ^= 1
        graphs.append(relabel(flipped, rng.permutation(n)))
    certs, brute = [], []
    for m in graphs:
        n = m.shape[0]
        images = {relabel(m, p).astype(np.uint8).tobytes()
                  for p in itertools.permutations(range(n))}
        cert = canonical_form(Digraph(m, loops_allowed=True))
        assert cert in images  # the certificate is the adjacency of a relabelling
        certs.append(cert)
        brute.append(min(images))  # equal exactly when some permutation maps one onto the other
    same = [(i, j) for i, j in itertools.combinations(range(len(graphs)), 2)
            if graphs[i].shape == graphs[j].shape]
    for i, j in same:
        assert (certs[i] == certs[j]) == (brute[i] == brute[j]), (graphs[i], graphs[j])
    iso = sum(brute[i] == brute[j] for i, j in same)
    assert 0 < iso < len(same)


def regular_pair(n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Two loop-free circulants of order n with the same out-degree."""
    k = int(rng.integers(1, n - 1))
    rows = []
    for _ in range(2):
        row = np.zeros(n, dtype=np.int64)
        row[1 + rng.choice(n - 1, k, replace=False)] = 1
        rows.append(dz.circulant(row))
    return rows[0], relabel(rows[1], rng.permutation(n))


def test_networkx_agreement_orders_7_to_10():
    rng = np.random.default_rng(30)
    outcomes = {kind: set() for kind in ("copy", "swap", "regular")}
    for i in range(200):
        n = 7 + i % 4
        kind = ("copy", "swap", "regular")[i % 3]
        if kind == "regular":
            m1, m2 = regular_pair(n, rng)
        else:
            m1 = (rng.random((n, n)) < rng.uniform(0.2, 0.8)).astype(np.int64)
            np.fill_diagonal(m1, 0)
            m2 = relabel(m1, rng.permutation(n))
            if kind == "swap":
                m2 = swap_arcs(m2, rng)
        iso = DiGraphMatcher(to_nx(m1), to_nx(m2)).is_isomorphic()
        assert (canonical_form(Digraph(m1)) == canonical_form(Digraph(m2))) == iso, (m1, m2)
        outcomes[kind].add(iso)
    # copies are always isomorphic; swaps and same-degree circulants give both verdicts
    assert outcomes == {"copy": {True}, "swap": {True, False}, "regular": {True, False}}


def automorphism_count(m: np.ndarray) -> int:
    g = to_nx(m)
    return sum(1 for _ in DiGraphMatcher(g, g).isomorphisms_iter())


@pytest.mark.parametrize("params", [(7, 3, 2, 1, 0), (6, 2, 1, 0, 1)])
def test_orbit_stabiliser_on_search_hits(params):
    hits = search_deza_digraphs(DezaParams(*params))
    classes = {}
    for d in hits:
        classes.setdefault(canonical_form(d), d)
    reps = [d.adjacency for d in classes.values()]
    n = params[0]
    assert len(hits) == sum(math.factorial(n) // automorphism_count(m) for m in reps)
    for m1, m2 in itertools.combinations(reps, 2):
        assert not DiGraphMatcher(to_nx(m1), to_nx(m2)).is_isomorphic()


def test_edgeless_and_complete_order_10():
    n = 10
    j = np.ones((n, n), dtype=np.int64)
    assert canonical_form(dz.empty_digraph(n)) == bytes(n * n)
    assert canonical_form(Digraph(j - np.eye(n, dtype=np.int64))) == \
        (j - np.eye(n, dtype=np.int64)).astype(np.uint8).tobytes()
    assert canonical_form(Digraph(j, loops_allowed=True)) == bytes([1]) * (n * n)


@pytest.mark.parametrize("n", [64, 70])
def test_row_masks_past_64_bits(n):
    # an int64 bit sum wraps from order 64 on; the masks are Python ints
    a = np.random.default_rng(n).integers(0, 2, (n, n))
    for m in (a, a.T):
        assert _row_masks(m) == [sum(1 << v for v in range(n) if m[u, v]) for u in range(n)]


def fresh_form(d: Digraph) -> bytes:
    """The certificate of a new digraph with d's adjacency: no shared holder."""
    return canonical_form(Digraph(d.adjacency.copy()))


@pytest.mark.parametrize("params", [(6, 2, 1, 0, 1), (7, 3, 2, 1, 0), (8, 3, 3, 1, 0)])
def test_shared_certificates_equal_fresh_ones(params):
    for d in search_deza_digraphs(DezaParams(*params)):
        assert canonical_form(d) == fresh_form(d)


def test_shared_certificates_equal_fresh_ones_dsrg(dsrg_catalogue_7):
    for _, d in dsrg_catalogue_7:
        assert canonical_form(d) == fresh_form(d)


def test_certificate_computed_once_per_first_block_hit(monkeypatch):
    calls = []
    certificate = decompose_search._certificate
    monkeypatch.setattr(decompose_search, "_certificate",
                        lambda d: calls.append(d) or certificate(d))
    n, k = 8, 3
    hits = search_deza_digraphs(DezaParams(n, k, 3, 1, 0))
    assert not calls
    classes = {canonical_form(d) for d in hits}
    first = [d for d in hits if d.adjacency[0].tolist() == [0] * (n - k) + [1] * k]
    assert len(hits) == 1680 and len(calls) == len(first) == 48
    assert {canonical_form(d) for d in hits} == classes  # cached: no more calls
    assert len(calls) == 48
