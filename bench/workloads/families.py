"""``families``: build the paper's families at large orders and certify
each one, through the library API with no files.

Why: BLAS ``exact_matmul``, ``Digraph`` copying and validation, the
verifiers' fitting code and the Python field loops do nearly all the
work here; search, canonical form, file I/O and the CLI do none.  The
sizes sweep each family so that a pass has more than 100 jobs, with the
large orders (field family at q = 11, order 3,025; directed twins from
Sylvester order 32, order 2,016) setting memory and the slow tail.

The seed picks one nonzero field element alpha per field (alpha = 0 is
always included where listed).  All nonzero alphas cost the same, so
the seed moves the inputs but not the amount of work.
"""

from __future__ import annotations

import random

import numpy as np
from dezakit import (construct, decompose_search, finite_field, hadamard, scheme,
                     verify)

import oracles
from common import Job

DRT_Q = (103, 131, 167, 199, 227, 243)
PALEY_Q = (5, 9, 13, 17, 25, 29, 37, 41, 49, 53, 61, 73, 81, 89, 97, 101, 109,
           113, 121, 125, 137, 149)
QR_Q = (3, 7, 11, 19, 23, 27, 31, 43, 47, 59, 67, 71, 79, 83, 103, 107, 127, 131)
SKEW_Q = (3, 7, 11, 19, 23, 27, 31, 43, 47, 59, 67, 71, 79, 83, 103, 127, 151,
          167, 199)
# (p, m, include alpha = 0); every field also gets one seed-chosen nonzero alpha
FIELDS = ((3, 1, True), (5, 1, True), (7, 1, True), (3, 2, True), (11, 1, False))
SYLVESTER_K = (1, 2, 3, 4, 5)
ROUND_TRIP_Q = (3, 7, 11, 19, 23, 27, 31, 43)
ROUND_TRIP_N2 = (2, 3, 4)


def _params(report):
    return None if report.params is None else tuple(report.params.as_tuple())


def _mismatch(what, got, want):
    return [] if got == want else [f"{what} {got} != closed form {want}"]


def drt_job(q: int) -> Job:
    """Doubly regular tournament, its 2-class scheme, and the fusion of
    relation 1: A^2 = tA + (t+1)A^t with t = (q-3)/4."""
    t, k = (q - 3) // 4, (q - 1) // 2

    def run():
        sch = scheme.tournament_scheme(q)
        d, fusion = scheme.fusion_digraph(sch, [1])
        p = sch.intersection_numbers
        return ({"p11": tuple(int(x) for x in p[1, 1]),
                 "p12": tuple(int(x) for x in p[1, 2]),
                 "fusion": None if fusion.params is None else fusion.params.as_tuple(),
                 "verdict": fusion.verification.classification,
                 "params": _params(fusion.verification)}, d.adjacency)

    def expect(s):
        return (_mismatch("p_11", s["p11"], (0, t, t + 1))
                + _mismatch("p_12", s["p12"], (k, t, t))
                + _mismatch("fusion", s["fusion"], (q, k, t + 1, t, 0))
                + _mismatch("verdict", s["verdict"], "deza_digraph")
                + _mismatch("params", s["params"], (q, k, t + 1, t, 0)))

    return Job(f"drt:{q}", run, expect, lambda s, a: oracles.drt_errors(a, q))


def paley_graph_job(q: int) -> Job:
    """Paley graph: strongly regular (q, (q-1)/2, (q-5)/4, (q-1)/4)."""
    k, lam, mu = (q - 1) // 2, (q - 5) // 4, (q - 1) // 4

    def run():
        d = construct.paley_graph(q)
        rep = verify.verify_dsrg(d)
        return {"verdict": rep.classification, "params": _params(rep)}, d.adjacency

    def expect(s):
        return (_mismatch("verdict", s["verdict"], "srg")
                + _mismatch("params", s["params"], (q, k, lam, mu, k)))

    return Job(f"paley_graph:{q}", run, expect, lambda s, a: oracles.paley_graph_errors(a, q))


def qr_design_job(q: int) -> Job:
    """Quadratic-residue symmetric design (q, (q-1)/2, (q-3)/4)."""
    want = (q, (q - 1) // 2, (q - 3) // 4)

    def run():
        n_matrix = construct.qr_symmetric_design(q)
        return {"params": verify.verify_symmetric_design(n_matrix).as_tuple()}, n_matrix

    def expect(s):
        return _mismatch("params", s["params"], want)

    return Job(f"qr_design:{q}", run, expect, lambda s, m: oracles.qr_design_errors(m, q))


def skew_job(q: int) -> Job:
    """Skew-Hadamard blow-up of paley_skew(q): a directed
    (8u, 4u-1, 4u-1, 2u-1, 0) Deza graph and, on the pairs {2i, 2i+1},
    a (8u, 4u-1, 0, 2u-1, 4u, 2) divisible design digraph."""
    u = (q + 1) // 4
    n, k = 8 * u, 4 * u - 1
    ddd_want = (n, k, 0, 2 * u - 1, 4 * u, 2)

    def run():
        d = construct.skew_hadamard_deza(hadamard.paley_skew(q))
        ddd = verify.verify_ddd(d, construct.pair_classes(d.n))
        found = verify.discover_ddd_partition(d)
        return ({"ddd": ddd.classification, "params": _params(ddd),
                 "found": None if found is None else sorted(len(c) for c in found)},
                d.adjacency)

    def expect(s):
        return (_mismatch("ddd", s["ddd"], "ddd")
                + _mismatch("params", s["params"], ddd_want)
                + _mismatch("discovered class sizes", s["found"], [2] * (4 * u)))

    return Job(f"skew:{q}", run, expect, lambda s, m: oracles.skew_errors(m, u))


def field_job(p: int, m: int, alpha_index: int) -> Job:
    """N_alpha over GF(q): (q^2(2q+3), 2q^2+2q, 3q, 2q); an undirected
    Deza graph for alpha = 0 and a type-II directed one otherwise."""
    q = p**m
    want = (q * q * (2 * q + 3), 2 * q * q + 2 * q, 3 * q, 2 * q)
    undirected = alpha_index == 0

    def run():
        field = finite_field.FiniteField(p, m)
        d = construct.field_type2(field, field.element(alpha_index))
        rep = (verify.verify_deza_graph(d) if undirected else verify.verify_type2(d))
        return ({"verdict": rep.classification, "params": _params(rep),
                 "consistent": rep.consistent}, d.adjacency)

    def expect(s):
        return (_mismatch("verdict", s["verdict"], "deza_graph" if undirected else "typeII")
                + _mismatch("params", s["params"], want)
                + _mismatch("consistent", s["consistent"], True))

    return Job(f"field_type2:{q}:{alpha_index}", run, expect,
               lambda s, a: oracles.field_type2_errors(a, q, alpha_index))


def twin_job(kk: int) -> Job:
    """Directed twins from sylvester(kk), n = 2^kk: both parts type-II
    ((2n-1)n, n(n-1), n(n-1)/2, n(n-2)/2); the block classes are *not* a
    DDD (the paper's DDD parameters are unrealisable, so not_member is
    the expected verdict); RA = A + I x J_n matches under the M M^t
    statistic with values {n^2/2, n(n+1)/2} and M^2 diagonal n."""
    n = 2**kk
    order, k = (2 * n - 1) * n, n * (n - 1)
    want = (order, k, n * (n - 1) // 2, n * (n - 2) // 2)
    gram_want = (n * n // 2, n * (n + 1) // 2)

    def run():
        h = hadamard.sylvester(kk)
        pair, (ra, _rb) = construct.twin_directed(h)
        parts = (pair.positive_part, pair.negative_part)
        reps = [verify.verify_type2(part) for part in parts]
        ddd = verify.verify_ddd(pair.positive_part, pair.block_classes())
        refl = verify.verify_reflexive_directed_deza(ra)
        summary = {"parts": [(r.classification, _params(r)) for r in reps],
                   "ddd": ddd.classification, "reflexive": refl.classification,
                   "matched": refl.matched, "gram": refl.gram.offdiag_values,
                   "gram_diag": refl.gram.diagonal_values, "mutual": refl.mutual_count}
        return summary, (parts[0].adjacency, parts[1].adjacency, ra.adjacency)

    def expect(s):
        return (_mismatch("parts", s["parts"], [("typeII", want)] * 2)
                + _mismatch("block-class ddd", s["ddd"], verify.NOT_MEMBER)
                + _mismatch("reflexive", s["reflexive"], "reflexive_directed_deza")
                + _mismatch("matched", s["matched"], ("gram",))
                + _mismatch("gram values", s["gram"], gram_want)
                + _mismatch("gram diagonal", s["gram_diag"], (n * n,))
                + _mismatch("mutual count", s["mutual"], n))

    def deep(s, mats):
        a, b, ra = mats
        errs = ["parts share arcs"] if (a * b).any() else []
        errs += oracles.directed_twin_part_errors(a, n) + oracles.directed_twin_part_errors(b, n)
        if not np.array_equal(ra, a + np.kron(np.eye(2 * n - 1, dtype=np.int64),
                                              np.ones((n, n), np.int64))):
            errs.append("RA != A + I x J_n")
        return errs + oracles.directed_reflexive_errors(ra, n)

    return Job(f"twin:{n}", run, expect, deep)


def round_trip_job(q: int, n2: int) -> Job:
    """b = k round trip: the QR design blown up by empty blocks of
    order n2 decomposes back into the design."""
    want = (q, (q - 1) // 2, (q - 3) // 4)

    def run():
        n_matrix = construct.qr_symmetric_design(q)
        d = construct.design_lex_empty(n_matrix, n2)
        dec = decompose_search.decompose_type2_b_eq_k(d)
        return ({"class_size": dec.class_size, "quotient_order": dec.quotient.n},
                (d.adjacency, dec))

    def expect(s):
        return (_mismatch("class size", s["class_size"], n2)
                + _mismatch("quotient order", s["quotient_order"], q))

    def deep(s, art):
        m, dec = art
        quotient = np.asarray(dec.quotient.adjacency)
        cmap = np.asarray(dec.class_map)
        errs = oracles.design_errors(quotient, *want)
        if not np.array_equal(m, quotient[np.ix_(cmap, cmap)]):
            errs.append("adjacency != quotient lifted through the class map")
        if sorted(np.bincount(cmap).tolist()) != [n2] * q:
            errs.append("class map does not have q classes of size n2")
        return errs

    return Job(f"round_trip:{q}:{n2}", run, expect, deep)


class Workload:

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        specs = [("drt", q) for q in DRT_Q]
        specs += [("paley_graph", q) for q in PALEY_Q]
        specs += [("qr_design", q) for q in QR_Q]
        specs += [("skew", q) for q in SKEW_Q]
        for p, m, with_zero in FIELDS:
            if with_zero:
                specs.append(("field", p, m, 0))
            specs.append(("field", p, m, rng.randrange(1, p**m)))
        specs += [("twin", kk) for kk in SYLVESTER_K]
        specs += [("round_trip", q, n2) for q in ROUND_TRIP_Q for n2 in ROUND_TRIP_N2]
        self.specs = specs

    def jobs(self):
        makers = {"drt": drt_job, "paley_graph": paley_graph_job,
                  "qr_design": qr_design_job, "skew": skew_job, "field": field_job,
                  "twin": twin_job, "round_trip": round_trip_job}
        for spec in self.specs:
            yield makers[spec[0]](*spec[1:])

    def pass_stats(self) -> dict:
        return {"search_classes": 0}
