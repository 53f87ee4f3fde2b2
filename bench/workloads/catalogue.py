"""``catalogue``: exhaustive enumeration up to isomorphism.

Every parameter tuple that passes ``feasibility()`` at orders <= 6, a
fixed list of order-7 tuples and the edgeless tuple at order 8 (the
worst case for ``canonical_form``, |Aut| = 8!) are searched to the end
and their hits deduplicated by canonical form.  Then every class with
b = t, and every twin-free class with a = b < t blown up by an empty
digraph of order 2 and by one of order 3, is relabelled at random and
decomposed with ``decompose_b_eq_t``; the quotient is matched by
canonical form, and a b = t class that is not a lexicographic product
must be rejected.

Why: search and canonical form dominate, and every matrix has order
<= 24, so ``exact_matmul`` always takes the int64 path.  This is the
control for dense-matrix work and the target for search and
canonical-form work.

The seed picks the job order, the relabellings and the sample
cross-checked against networkx.  The order-7 tuples are fixed rather
than drawn: their search costs differ by factors of ten, so drawing
them would make the amount of work depend on the seed.
"""

from __future__ import annotations

import collections
import math
import random

import networkx as nx
import numpy as np
from dezakit import construct, decompose_search, matrix_core, verify
from dezakit.verify import DezaParams

from common import Job
from oracles import regular_errors, two_valued_errors, zero_one_errors

MAX_SMALL_ORDER = 6
# Order 7: the edgeless digraph, the 240 labelled copies of the one class
# behind (7,3,2,1,0), and a search that prunes to nothing.  Few slow jobs
# keep p90 inside the dense band of order-6 jobs instead of on the gap
# above it, where run-to-run noise would move it by half; short ones keep
# a pass near 4 s, so a run has enough passes for each job's median
# latency to shrug off a burst of load on the host.
ORDER_7 = ((7, 0, 0, 0, 0), (7, 3, 2, 1, 0), (7, 4, 3, 2, 3))
EDGELESS_8 = (8, 0, 0, 0, 0)
BLOW_UP_ORDERS = (2, 3)
NX_SAMPLE_PAIRS = 40


def feasible_tuples(max_order: int) -> list[tuple]:
    out = []
    for n in range(2, max_order + 1):
        for k in range(n):
            for b in range(k + 1):
                for a in range(b + 1):
                    for t in range(k + 1):
                        try:
                            ok = verify.feasibility(DezaParams(n, k, b, a, t)).feasible
                        except (ValueError, ZeroDivisionError):
                            continue
                        if ok:
                            out.append((n, k, b, a, t))
    return out


def two_path_shape(m: np.ndarray) -> tuple[int, list[int]]:
    """(t, sorted off-diagonal values of M^2) computed without dezakit."""
    s = m @ m
    n = m.shape[0]
    return int(s[0, 0]), sorted(set(s[~np.eye(n, dtype=bool)].tolist()))


def twin_class_sizes(m: np.ndarray) -> list[int]:
    """Sizes of the classes of vertices with equal rows and equal columns.
    A loop-free digraph is quotient[empty of order s] exactly when every
    class has the same size s."""
    keys = [m[i].tobytes() + m[:, i].tobytes() for i in range(m.shape[0])]
    return sorted(collections.Counter(keys).values())


def _to_nx(m: np.ndarray) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(range(m.shape[0]))
    g.add_edges_from(zip(*np.nonzero(m)))
    return g


def automorphisms(m: np.ndarray) -> int:
    n = m.shape[0]
    if not m.any() or (m + np.eye(n, dtype=m.dtype) == 1).all():
        return math.factorial(n)  # edgeless or complete
    g = _to_nx(m)
    return sum(1 for _ in nx.algorithms.isomorphism.DiGraphMatcher(g, g).isomorphisms_iter())


class Workload:

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        specs = feasible_tuples(MAX_SMALL_ORDER) + list(ORDER_7) + [EDGELESS_8]
        random.Random(seed).shuffle(specs)
        self.specs = specs
        self.classes: list[tuple[tuple, np.ndarray, bytes]] = []

    # -- jobs -------------------------------------------------------------

    def search_job(self, params: tuple) -> Job:
        n, k, b, a, t = params

        def run():
            hits = decompose_search.search_deza_digraphs(DezaParams(*params))
            keys = [decompose_search.canonical_form(d) for d in hits]
            seen = {}
            for d, key in zip(hits, keys):
                seen.setdefault(key, d)
            for key, d in seen.items():
                self.classes.append((params, d.adjacency, key))
            return ({"labelled": len(hits), "classes": len(seen)},
                    ([d.adjacency for d in hits], keys))

        def expect(s):
            return [] if s["classes"] <= s["labelled"] else ["more classes than hits"]

        def deep(s, art):
            mats, keys = art
            errs = []
            for m in mats:
                e = (zero_one_errors(m) + regular_errors(m, k)
                     + two_valued_errors(m @ m, k, t, a, b))
                if e:
                    errs.append(f"hit fails re-verification: {e}")
                    break
            if len(set(m.tobytes() for m in mats)) != len(mats):
                errs.append("duplicate labelled hits")
            reps = {}
            for m, key in zip(mats, keys):
                reps.setdefault(key, m)
            orbit_total = sum(math.factorial(n) // automorphisms(m) for m in reps.values())
            if orbit_total != len(mats):
                errs.append(f"orbit-stabiliser count {orbit_total} != {len(mats)} labelled hits")
            return errs

        return Job(f"search:{','.join(map(str, params))}", run, expect, deep)

    def decompose_job(self, index: int, params: tuple, rep: np.ndarray, key: bytes,
                      n2: int) -> Job:
        """Decompose a relabelled b = t class (or a blown-up a = b < t
        class).  The library must succeed exactly when the input is a
        lexicographic product with empty blocks, which the twin classes
        decide independently; a b = t class that is not one must be
        rejected with ValueError."""
        blow_up = n2 > 1
        perm = np.random.default_rng([self.seed, index]).permutation(rep.shape[0] * n2)
        sizes = set(twin_class_sizes(rep))
        lexical = blow_up or (len(sizes) == 1 and min(sizes) > 1)
        class_size = n2 if blow_up else min(sizes)

        def run():
            d = matrix_core.Digraph(rep)
            if blow_up:
                d = construct.lex_product(d, construct.empty_digraph(n2))
            shuffled = matrix_core.Digraph(d.adjacency[np.ix_(perm, perm)])
            try:
                dec = decompose_search.decompose_b_eq_t(shuffled)
            except ValueError as exc:
                return {"decomposed": False, "reason": str(exc)}, None
            quotient = dec.quotient
            if not blow_up:
                quotient = construct.lex_product(quotient,
                                                 construct.empty_digraph(dec.class_size))
            match = decompose_search.canonical_form(quotient) == key
            return ({"decomposed": True, "class_size": dec.class_size, "match": match},
                    (shuffled.adjacency, dec))

        def expect(s):
            if s["decomposed"] != lexical:
                return [f"decomposed = {s['decomposed']}, but the twin classes say {lexical}"]
            errs = []
            if lexical and not s["match"]:
                errs.append("quotient does not match the class by canonical form")
            if lexical and s["class_size"] != class_size:
                errs.append(f"class size {s['class_size']} != {class_size}")
            return errs

        def deep(s, art):
            if art is None:
                return []
            m, dec = art
            quotient = np.asarray(dec.quotient.adjacency)
            cmap = np.asarray(dec.class_map)
            errs = []
            if not np.array_equal(m, quotient[np.ix_(cmap, cmap)]):
                errs.append("input != quotient lifted through the class map")
            qs = quotient @ quotient
            g = quotient.shape[0]
            if len(set(qs[~np.eye(g, dtype=bool)].tolist())) > 1:
                errs.append("quotient is not a DSRG with lambda = mu")
            return errs

        kind = "blow_up" if blow_up else "b_eq_t"
        return Job(f"decompose:{kind}:{','.join(map(str, params))}:{index}",
                   run, expect, deep)

    def jobs(self):
        self.classes = []
        for params in self.specs:
            yield self.search_job(params)
        index = 0
        for params, rep, key in list(self.classes):
            t, values = two_path_shape(rep)
            if len(values) == 2 and values[1] == t:
                orders = (1,)
            elif len(values) == 1 and values[0] < t and max(twin_class_sizes(rep)) == 1:
                orders = BLOW_UP_ORDERS
            else:
                continue
            for n2 in orders:
                index += 1
                yield self.decompose_job(index, params, rep, key, n2)

    def pass_stats(self) -> dict:
        return {"search_classes": len(self.classes)}

    def cross_check(self) -> list[str]:
        """Canonical-form equality against networkx isomorphism on a seeded
        sample: each class against a random relabelling of itself or of
        another class of the same order."""
        rng = random.Random(self.seed)
        by_order: dict[int, list] = {}
        for _params, rep, key in self.classes:
            by_order.setdefault(rep.shape[0], []).append((rep, key))
        pool = [item for items in by_order.values() if len(items) > 1 for item in items]
        errs = []
        for _ in range(NX_SAMPLE_PAIRS):
            m1, k1 = rng.choice(pool)
            m2, _k2 = (m1, k1) if rng.random() < 0.5 else rng.choice(by_order[m1.shape[0]])
            perm = rng.sample(range(m2.shape[0]), m2.shape[0])
            m2 = m2[np.ix_(perm, perm)]
            same = nx.is_isomorphic(_to_nx(m1), _to_nx(m2))
            if same != (decompose_search.canonical_form(matrix_core.Digraph(m2)) == k1):
                errs.append("canonical form and networkx disagree on a sampled pair")
        return errs
