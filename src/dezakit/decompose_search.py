"""Parameter-driven classification made executable: recover the quotient
of a b = t directed Deza graph (and the design quotient of a b = k
type-II graph), enumerate small instances by exact backtracking, and
compare digraphs up to isomorphism via a canonical form found by
individualisation-refinement with automorphism pruning.

The backtracking is a row driver, owning the rows, column masks and
counts and the row-0 relabelling, under a judge owning a cell rule, such
as M^2's, whose conditions must survive every relabelling that fixes 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .matrix_core import Digraph, SizeBoundError, block_circulant
from .verify import (DezaParams, DsrgParams, _equivalence_classes, check_invariants,
                     verify_deza_digraph, verify_type2)

SEARCH_MAX_ORDER = 10


@dataclass(frozen=True)
class Decomposition:
    quotient: Digraph
    class_size: int
    class_map: tuple[int, ...]

    def sorted_permutation(self) -> list[int]:
        """Vertices ordered class by class (classes by smallest member)."""
        classes: dict[int, list[int]] = {}
        for v, c in enumerate(self.class_map):
            classes.setdefault(c, []).append(v)
        return [v for c in sorted(classes.values(), key=min) for v in c]


def _quotient_certificate(m: np.ndarray, classes: list[list[int]]) -> tuple[np.ndarray, tuple[int, ...]]:
    """Quotient adjacency plus class map, certifying M = M_q x J after
    class-sorted relabeling; raises if any block is not constant."""
    n2 = len(classes[0])
    order = sorted(classes, key=min)
    perm = [v for c in order for v in c]
    g = len(order)
    blocks = m[np.ix_(perm, perm)].reshape(g, n2, g, n2)
    quotient = blocks[:, 0, :, 0]
    uneven = (blocks != quotient[:, None, :, None]).any(axis=(1, 3))
    if uneven.any():
        i, j = divmod(int(uneven.argmax()), g)  # the first in row-major order
        raise ValueError(
            f"block ({i}, {j}) of the class-sorted adjacency is not constant; "
            "the relation classes do not induce a lexicographic structure")
    class_map = [0] * m.shape[0]
    for ci, c in enumerate(order):
        for v in c:
            class_map[v] = ci
    return quotient, tuple(class_map)


def _decompose(d: Digraph, verifier, member: str, degree: str, trivial: str,
               statistic: str, relation: str) -> Decomposition:
    """Write d as quotient[empty blocks] once verifier(d) passes with b
    equal to the params field named degree and a != b.  The relation
    "statistic = b", statistic naming d's strip and read only then, must
    be an equivalence whose classes certify M = M_q x J.  A class is a
    vertex and its b-partners, beta of them at every vertex or the fit
    raises.  member and relation name the two in the refusals, and
    trivial ends the a = b one."""
    report = verifier(d)
    if not report.ok:
        raise ValueError(f"not a {member}: {report.witness}")
    b, value = report.params.b, getattr(report.params, degree)
    if b != value:
        raise ValueError(f"b = {b} differs from {degree} = {value}")
    if report.params.a == b:
        raise ValueError(f"a = b leaves the quotient relation trivial{trivial}")
    classes = _equivalence_classes(block_circulant(getattr(d, statistic) == b))
    if classes is None:
        raise ValueError(f"the {relation} relation is not an equivalence")
    quotient_m, class_map = _quotient_certificate(d.adjacency, classes)
    return Decomposition(Digraph(quotient_m), report.beta + 1, class_map)


def decompose_b_eq_t(d: Digraph) -> Decomposition:
    """Write a b = t directed Deza graph as quotient[empty blocks].

    The relation u ~ v iff the two-path count N_uv equals b (made
    reflexive) must be an equivalence, and the class-sorted adjacency
    must equal Q x J exactly.  Then M^2 = n2 Q^2 x J, and N_uv = a across
    classes, where N_uv != b: Q is the DSRG (n, k, a, a, b) / n2, lam = mu.
    """
    return _decompose(d, verify_deza_digraph, "directed Deza graph", "t",
                      "; decomposition requires two distinct path counts",
                      "square_strip", "b-count")


def decompose_type2_b_eq_k(d: Digraph) -> Decomposition:
    """Write a b = k type-II graph as design[empty blocks]: vertices with
    identical neighbourhoods collapse to the points of a symmetric design.
    Once M = Q x J, M M^t = n2 Q Q^t x J equals M^t M = n2 Q^t Q x J and
    is a across classes: Q is the symmetric (n, k, a) / n2 design."""
    return _decompose(d, verify_type2, "type-II directed Deza graph", "k", "",
                      "gram_strip", "shared-neighbourhood")


# ---------------------------------------------------------------------------
# Exhaustive search
# ---------------------------------------------------------------------------


def _row_candidates(n: int, k: int, forbidden_bit: int) -> list[int]:
    """All k-subsets of columns avoiding the diagonal, as bitmasks, in
    ascending lexicographic order of the 0/1 row vector, the reverse of combination order."""
    cols = [c for c in range(n) if c != forbidden_bit]
    combos = reversed(list(itertools.combinations(cols, k)))
    return [sum(1 << c for c in combo) for combo in combos]


def _check_search(n: int, limit: int | None = None):
    if limit is not None and limit < 0:
        raise ValueError(f"limit {limit} is negative")
    if n > SEARCH_MAX_ORDER:
        raise SizeBoundError(f"search is limited to order {SEARCH_MAX_ORDER}")


def _drive(n: int, k: int, judge):
    """Backtracking over loop-free k-regular 0/1 matrices of order n, rows
    in ascending lexicographic order, so hits come in ascending adjacency
    order.  Row r avoids full columns and enters those every row to come
    must fill.  Each node, a leaf too, is then judged once by judge(rows,
    colmask, colcap), rows 0..r-1 placed: bit w of colmask[v] is set iff
    row w has a 1 in column v, and colcap[v] is the 1s column v can still
    take.  The judge writes none of them and returns None to prune, else
    further bits row r must clear (forbid) and set (require).
    Only row 0 = S0 = {n-k, ..., n-1} is searched.  Precondition: the
    judge's conditions survive every relabelling that fixes 0, so one
    mapping S0 onto S maps those hits one to one onto those with N+(0) =
    S.  A lazy generator of (stack, js): int64 hits in order and the index
    of each, or of its preimage, among the S0 hits; an S0 hit is a stack
    of one, so islice stops at the last hit taken, and each later
    candidate's block, their image sorted, is one stack."""
    rows: list[int] = []
    colmask = [0] * n
    candidates = [_row_candidates(n, k, r) for r in range(n)]

    def backtrack():
        r = len(rows)
        forbid = require = 0
        colcap = [k - m.bit_count() for m in colmask]  # 1s the rows to come can add
        for v in range(n):
            # from the root on, the masks keep every column count at most
            # k and within reach of k, so no node needs to check it
            if not colcap[v]:
                forbid |= 1 << v
            elif v != r and n - r - (v > r) == colcap[v]:
                require |= 1 << v  # every row to come must fill column v
        masks = judge(rows, colmask, colcap)
        if masks is None:
            return
        if r == n:
            yield (np.array(rows)[:, None] >> np.arange(n)) & 1
            return
        forbid, require = forbid | masks[0], require | masks[1]
        rbit = 1 << r
        for mask in candidates[r]:
            if mask & forbid or mask & require != require:
                continue
            rows.append(mask)
            cols = [v for v in range(n) if mask >> v & 1]
            for v in cols:
                colmask[v] |= rbit
            yield from backtrack()
            for v in cols:
                colmask[v] &= ~rbit
            rows.pop()

    row0 = candidates[0]
    candidates[0] = row0[:1]
    first = []  # rows of the hits with N+(0) = S0, in search order
    for m in backtrack():
        first.append(rows.copy())
        yield m[None], [len(first) - 1]
    if not first:
        return
    block0 = ((np.array(first)[:, :, None] >> np.arange(n)) & 1).astype(np.uint8)

    def members_first(mask: int) -> list[int]:
        return sorted(range(1, n), key=lambda v: not mask >> v & 1)  # stable

    order0 = members_first(row0[0])
    for s in row0[1:]:
        # pi fixes 0 and maps S0 onto S and the rest onto the rest in order;
        # the image of M is M[src][:, src] with src = pi^-1
        src = np.zeros(n, dtype=np.intp)
        src[members_first(s)] = order0
        block = block0[:, src[:, None], src]
        # ascending row-major bytes, the order the search would find them in
        packed = np.packbits(block.reshape(len(block), -1), axis=1)
        js = np.lexsort(packed.T[::-1])
        yield block[js].astype(np.int64), js.tolist()


def _square_judge(n: int, k: int, t: int, allowed):
    """_drive's judge of M^2, its cell rule tabled once: None if a cell or
    a row or column total of M^2 can no longer end in allowed[1] on arcs,
    allowed[0] on non-arcs and t on the diagonal; at r = n only final values pass."""
    # (lo, hi, values) of the final M^2 entry: non-arc, arc, diagonal
    spec = [(min(values), max(values), frozenset(values)) for values in (*allowed, {t})]
    glo = min(lo for lo, _, _ in spec[:2])
    ghi = max(hi for _, hi, _ in spec[:2])
    # rule[cls][partial][add_cap]: None if a cell with that many two-paths
    # so far, and at most add_cap more to come, cannot end in its values;
    # else the (least, most) two-paths the rows still to come must add
    rule = [[[None if p > hi or p + cap < lo or (cap == 0 and p not in values)
              else (max(lo - p, 0), min(hi - p, cap))
              for cap in range(k + 1)] for p in range(k + 1)] for lo, hi, values in spec]

    def judge(rows: list[int], colmask: list[int], colcap: list[int]) -> tuple[int, int] | None:
        r = len(rows)
        forbid = require = 0
        col_lo, col_hi = [0] * n, [0] * n
        for u in range(r):
            # for a placed row every arc bit is known; only its pending
            # future out-neighbours, r among them iff into, add two-paths,
            # each exactly k in total.  Bit v of row r adds into to the
            # cell (u, v) and takes one from the room left in column v
            ru = rows[u]
            pending = (ru >> r).bit_count()
            into = (ru >> r) & 1
            later = pending - into
            row_lo = row_hi = 0
            for v in range(n):
                table = rule[2 if v == u else (ru >> v) & 1]
                partial = (ru & colmask[v]).bit_count()
                cap = colcap[v]
                cell = table[partial][pending if pending < cap else cap]
                if cell is None:
                    return None
                flo, fhi = cell
                row_lo += flo
                row_hi += fhi
                col_lo[v] += partial + flo
                col_hi[v] += partial + fhi
                if table[partial][later if later < cap else cap] is None:
                    require |= 1 << v
                if cap and table[partial + into][later if later < cap else cap - 1] is None:
                    forbid |= 1 << v
            if not row_lo <= pending * k <= row_hi:
                return None
        # column sums of M^2 equal k^2: unplaced rows contribute between
        # glo and ghi per off-diagonal cell and exactly t on the diagonal
        for v in range(n):
            unknown_off = n - r - (v >= r)
            diagonal = t if v >= r else 0
            if not (col_lo[v] + unknown_off * glo + diagonal <= k * k
                    <= col_hi[v] + unknown_off * ghi + diagonal):
                return None
        return forbid, require

    return judge


def _search(n: int, k: int, t: int, allowed):
    """_drive under _square_judge, past the handshake guard."""
    # the mutual arcs form a t-regular graph, so n * t is even (handshake lemma)
    if k <= n - 1 and t <= k and n * t % 2 == 0:
        yield from _drive(n, k, _square_judge(n, k, t, allowed))


def _satisfies(ms: np.ndarray, k: int, t: int, allowed) -> np.ndarray:
    """Per matrix of the int64 stack ms, whether it meets _search's
    conditions, read without its rule tables or relabelling: 0/1, no
    loops, every row and column sum k, and its square, computed afresh,
    t on the diagonal and off it in allowed[1] on arcs, allowed[0] else."""
    sq = np.matmul(ms, ms)  # exact for a 0/1 stack: entries at most n
    eye = np.eye(ms.shape[1], dtype=bool)
    cells = np.where(eye, sq == t, np.where(ms == 1, np.isin(sq, list(allowed[1])),
                                            np.isin(sq, list(allowed[0]))))
    return (cells.all(axis=(1, 2)) & ((ms == 0) | (ms == 1)).all(axis=(1, 2))
            & ~(ms & eye).any(axis=(1, 2))
            & (ms.sum(axis=1) == k).all(axis=1) & (ms.sum(axis=2) == k).all(axis=1))


def _reverified(params, n: int, k: int, t: int, allowed):
    """Each hit of _search as a Digraph on its row of the stack _satisfies
    accepted, with no second check; an image shares its S0 preimage's holder."""
    holders: dict[int, list] = {}
    for ms, js in _search(n, k, t, allowed):
        ok = _satisfies(ms, k, t, allowed)
        if not ok.all():
            raise RuntimeError(f"search hit does not re-verify as {params}: "
                               f"{ms[ok.argmin()].tolist()}")
        ms.setflags(write=False)
        for m, j in zip(ms, js):
            yield Digraph._checked(m, canonical=holders.setdefault(j, [None]))


def search_deza_digraphs(params: DezaParams, limit: int | None = None) -> list[Digraph]:
    """All loop-free digraphs with the given directed Deza parameters, in
    ascending adjacency order (up to limit).  _satisfies re-checks every hit."""
    check_invariants(params)
    n, k, b, a, t = params.as_tuple()
    _check_search(n, limit)
    return list(itertools.islice(_reverified(params, n, k, t, ({a, b}, {a, b})), limit))


def dsrg_spectral_feasible(n: int, k: int, lam: int, mu: int, t: int) -> bool:
    """Trace feasibility of a DSRG parameter tuple.

    On the complement of the all-ones eigenvector the adjacency is
    annihilated by x^2 - (lam - mu)x - (t - mu), so its eigenvalues are
    the two roots; the algebraic multiplicities are nonnegative integers
    summing to n - 1 and the total trace is zero.  Tuples admitting no
    such multiplicities have no realization.
    """
    disc = (lam - mu) ** 2 + 4 * (t - mu)
    if disc < 0:
        # conjugate complex pair: equal multiplicities, real part fixed
        return (n - 1) % 2 == 0 and 2 * k + (n - 1) * (lam - mu) == 0
    r = isqrt(disc)
    if r * r != disc:
        # irrational conjugate pair: Galois symmetry forces equality
        return (n - 1) % 2 == 0 and 2 * k + (n - 1) * (lam - mu) == 0
    if (lam - mu + r) % 2 != 0:
        # roots would be half-integers, never algebraic integers
        return False
    theta = (lam - mu + r) // 2
    tau = (lam - mu - r) // 2
    if theta == tau:
        return theta * (n - 1) == -k
    num = -k - (n - 1) * tau
    den = theta - tau
    if num % den != 0:
        return False
    mult = num // den
    return 0 <= mult <= n - 1


def search_dsrg(n_max: int, require_lambda_eq_mu: bool = False) -> list[tuple[DsrgParams, Digraph]]:
    """Enumerate DSRGs with t < k up to order n_max by backtracking.

    Parameter tuples are pre-filtered by the forced row-sum identity
    lam*k + mu*(n-1-k) = k^2 - t; _satisfies re-checks every emitted
    digraph against its tuple.  Deterministic order: by (n, k, t, lam),
    then by adjacency."""
    _check_search(n_max)
    found = []
    for n in range(2, n_max + 1):
        for k in range(1, n - 1):
            den = n - 1 - k
            for t in range(0, k):
                for lam in range(0, k + 1):
                    rest = k * k - t - lam * k
                    if rest % den != 0:
                        continue
                    mu = rest // den
                    if mu < 0 or mu > k:
                        continue
                    if require_lambda_eq_mu and lam != mu:
                        continue
                    if not dsrg_spectral_feasible(n, k, lam, mu, t):
                        continue
                    params = DsrgParams(n, k, lam, mu, t)
                    hits = _reverified(params, n, k, t, ({mu}, {lam}))
                    found += [(params, d) for d in hits]
    return found


def _equitable(cells: list[list[int]], out: list[int], inn: list[int]) -> list[list[int]]:
    """Refine an ordered partition to the coarsest equitable one: split
    every cell by its vertices' out- and in-counts into each cell, parts
    ordered by those counts (never by vertex id), until no cell splits."""
    while True:
        masks = [sum(1 << v for v in c) for c in cells]
        refined = []
        for c in cells:
            if len(c) == 1:
                refined.append(c)
                continue
            key = {v: ([(out[v] & m).bit_count() for m in masks],
                       [(inn[v] & m).bit_count() for m in masks]) for v in c}.__getitem__
            refined.extend(list(part) for _, part in itertools.groupby(sorted(c, key=key), key))
        if len(refined) == len(cells):
            return cells
        cells = refined


def _orbits(n: int, generators: list[list[int]], fixed: list[int]) -> list[int]:
    """Orbit labels of the group generated by the generators fixing fixed pointwise."""
    label = list(range(n))
    for g in generators:
        if all(g[v] == v for v in fixed):
            for v in range(n):
                old, new = label[g[v]], label[v]
                label = [new if x == old else x for x in label]
    return label


def _row_masks(a: np.ndarray) -> list[int]:
    """Row u of the 0/1 matrix a as the int with bit v set iff a[u, v] = 1, at any order."""
    return [int.from_bytes(row, "little") for row in np.packbits(a, axis=1, bitorder="little")]


def canonical_form(d: Digraph) -> bytes:
    """A permutation-invariant certificate: the smallest row-major 0/1
    adjacency over the leaves of an individualisation-refinement search
    (McKay & Piperno, JSC 60, 2014).  Each node refines its partition,
    first split by loops, to the coarsest equitable one and individualises
    each vertex of its first non-singleton cell; equal leaves give an
    automorphism, and a child in the orbit of a tried sibling under the
    automorphisms fixing the node's path is skipped.  Equal certificates
    iff isomorphic; limited to order 10.  Computed once per holder: a
    relabelled search hit shares its first-block preimage's."""
    holder = d._canonical
    if holder[0] is None:
        holder[0] = _certificate(d)
    return holder[0]


def _certificate(d: Digraph) -> bytes:
    """canonical_form's certificate of d, computed afresh."""
    n = d.n
    if n > SEARCH_MAX_ORDER:
        raise SizeBoundError(f"canonical form is limited to order {SEARCH_MAX_ORDER}")
    a = d.adjacency
    out, inn, rows = _row_masks(a), _row_masks(a.T), a.tolist()
    leaves: dict[bytes, tuple[list[int], list[int]]] = {}  # certificate -> (labels, path)
    generators: list[list[int]] = []
    unwind = n  # an automorphism covers the current child of the node at this depth

    def explore(cells: list[list[int]], path: list[int]) -> None:
        nonlocal unwind
        cells = _equitable(cells, out, inn)
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            labels = [c[0] for c in cells]
            cert = bytes([rows[u][v] for u in labels for v in labels])
            first_labels, first_path = leaves.setdefault(cert, (labels, path))
            if first_labels is not labels:
                # an automorphism; it fixes the common prefix of the two paths
                generators.append([v for _, v in sorted(zip(first_labels, labels))])
                unwind = next(i for i, (u, v) in enumerate(zip(first_path, path)) if u != v)
            return
        cell, tried, orbit, known = cells[target], [], list(range(n)), 0
        for w in cell:
            if len(generators) > known:
                orbit, known = _orbits(n, generators, path), len(generators)
            if any(orbit[w] == orbit[u] for u in tried):
                continue
            tried.append(w)
            explore(cells[:target] + [[w], [u for u in cell if u != w]] + cells[target + 1:],
                    path + [w])
            if unwind < len(path):
                return
            unwind = n

    explore([c for c in ([v for v in range(n) if a[v, v] == x] for x in (0, 1)) if c], [])
    return min(leaves)
