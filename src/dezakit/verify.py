"""Classifiers for adjacency matrices: directed Deza graphs, DSRGs,
type-II directed Deza graphs, divisible design digraphs, (reflexive)
Deza graphs, and symmetric designs, with exact parameter extraction.

Every verifier is exact: parameters are read off integer matrices and
all identities are checked entrywise.  Each reads the digraph d through
its strips alone, never its n x n matrix: the first h = d.period rows
of M and M^t, and of M^2, M M^t and M^t M, which d fills on first use
and keeps, so verifiers run on one digraph compute each product once.
Every one of these matrices is invariant under the cyclic index shift
by h: the diagonal entries of a strip s are s[i, i] for i < h, and every
other entry of the matrix occurs n/h times as often as in the strip.
Loops are the diagonal of d.strip, symmetry is d.strip == d.co_strip,
and degrees are row sums of the two.  A shift-invariant degree or entry
first fails in row-major order in a row below h, so the witnesses name
the vertices and pairs the dense matrices would.  Definitional
failures are reported (classification "not_member" plus a witness);
malformed calls raise ValueError.  A report holds parameters and counts
only, never an n x n matrix: deza_children reads the position digraphs
X and Y off the strip of M^2 when they are wanted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .matrix_core import Digraph, block_circulant

NOT_MEMBER = "not_member"


class _Params:
    def as_tuple(self) -> tuple:
        """The fields in order, all that a params dataclass's __dict__ holds."""
        return tuple(vars(self).values())


@dataclass(frozen=True)
class DezaParams(_Params):
    n: int
    k: int
    b: int
    a: int
    t: int


@dataclass(frozen=True)
class DezaGraphParams(_Params):
    n: int
    k: int
    b: int
    a: int


# type-II graphs carry the same (n, k, b, a) as undirected Deza graphs
TypeIIParams = DezaGraphParams


@dataclass(frozen=True)
class DsrgParams(_Params):
    n: int
    k: int
    lam: int
    mu: int
    t: int


@dataclass(frozen=True)
class DddParams(_Params):
    v: int
    k: int
    lambda1: int
    lambda2: int
    m: int
    n_class: int


@dataclass(frozen=True)
class DesignParams(_Params):
    n: int
    k: int
    lam: int


@dataclass(frozen=True)
class VerificationReport:
    classification: str
    params: object | None = None
    alpha: int | None = None
    beta: int | None = None
    alpha_formula: int | None = None
    beta_formula: int | None = None
    consistent: bool | None = None
    witness: str | None = None

    @property
    def ok(self) -> bool:
        return self.classification != NOT_MEMBER


def _fail(witness: str) -> VerificationReport:
    return VerificationReport(classification=NOT_MEMBER, witness=witness)


def _regularity(d: Digraph) -> tuple[int | None, str | None]:
    rows = d.strip.sum(axis=1)
    cols = d.co_strip.sum(axis=1)
    k = int(rows[0])
    if not (rows == k).all():
        u = int(np.argmax(rows != k))
        return None, f"out-degrees not constant: vertex {u} has {int(rows[u])}, vertex 0 has {k}"
    if not (cols == k).all():
        v = int(np.argmax(cols != k))
        return None, f"in-degree of vertex {v} is {int(cols[v])}, out-degree is {k}"
    return k, None


def _offdiag(s: np.ndarray) -> np.ndarray:
    """The off-diagonal entries of the h x n strip s, all but s[i, i]
    for i < h.  A square s gives an (n-1) x n array: the flat entries
    after the first, in rows of n + 1 whose last entry is the next
    diagonal one (a view when s is contiguous)."""
    h, n = s.shape
    if h < n:
        return np.delete(s.reshape(-1), np.arange(h) * (n + 1))
    return s.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :-1]


def _distinct(v: np.ndarray) -> list[int]:
    """The sorted distinct values of v; min and max settle it without a
    sort when there are at most two."""
    if v.size == 0:
        return []
    lo, hi = int(v.min()), int(v.max())
    if lo == hi:
        return [lo]
    if ((v == lo) | (v == hi)).all():
        return [lo, hi]
    return [int(x) for x in np.unique(v)]


def _offdiag_values(s: np.ndarray) -> list[int]:
    return _distinct(_offdiag(s))


def _value_multiset(s: np.ndarray) -> str:
    """The off-diagonal values of the product with strip s, each with the
    number of times it occurs in the product."""
    h, n = s.shape
    vals, counts = np.unique(_offdiag(s), return_counts=True)
    return "{" + ", ".join(f"{int(v)}: {int(c) * (n // h)}" for v, c in zip(vals, counts)) + "}"


def _closed_form_counts(n: int, k: int, b: int, a: int, t: int):
    """Closed forms for the two per-vertex partner counts."""
    if a != b:
        af = Fraction(b * (n - 1) - k * k + t, b - a)
        bf = Fraction(a * (n - 1) - k * k + t, a - b)
    elif a != 0:
        af = bf = Fraction(k * k - t, a)
    else:
        if k * k != t:
            raise ValueError(
                f"a = b = 0 with k^2 = {k * k} != t = {t}: counts undefined"
            )
        af = bf = Fraction(n - 1)
    return af, bf


def _as_int(f: Fraction) -> int | None:
    return int(f) if f.denominator == 1 else None


def _two_values(s: np.ndarray) -> tuple[list[int], int, int]:
    """The sorted off-diagonal values of s and the pair (a, b) read off
    them: the smallest and largest value, (0, 0) when there are none."""
    vals = _offdiag_values(s)
    a, b = (vals[0], vals[-1]) if vals else (0, 0)
    return vals, a, b


def _positions(s: np.ndarray, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """The bool strips of the off-diagonal a- and b-positions of strip s."""
    at_a, at_b = s == a, s == b
    # every (n + 1)-th flat entry: the diagonal entries s[i, i], i < h
    at_a.reshape(-1)[::s.shape[1] + 1] = at_b.reshape(-1)[::s.shape[1] + 1] = False
    return at_a, at_b


def _fit_two_valued(s: np.ndarray, k: int, t: int, counts: str,
                    label) -> VerificationReport:
    """Fit S = aX + bY + tI with X + Y + I = J and a <= b, S the product
    with strip s.

    counts names the statistic in the witness when S takes more than two
    values off the diagonal.  Otherwise the partners realizing each value
    are counted at every vertex (beta = alpha when a = b) and compared
    with their closed forms, and label(a, b) gives the classification
    and params.
    """
    n = s.shape[1]
    vals, a, b = _two_values(s)
    if len(vals) > 2:
        return _fail(f"{counts} take {len(vals)} values {_value_multiset(s)}")
    at_a, at_b = _positions(s, a, b)
    alpha_counts, beta_counts = at_a.sum(axis=1), at_b.sum(axis=1)
    alpha, beta = int(alpha_counts[0]), int(beta_counts[0])
    # the row sums of S are constant, so each count is the same at every vertex
    if (alpha_counts != alpha).any() or (beta_counts != beta).any():
        raise RuntimeError(f"partner counts of the values ({a}, {b}) differ between "
                           "vertices although the statistic has constant row sums")
    af, bf = _closed_form_counts(n, k, b, a, t)
    alpha_f, beta_f = _as_int(af), _as_int(bf)
    tag, params = label(a, b)
    return VerificationReport(
        classification=tag, params=params,
        alpha=alpha, beta=beta,
        alpha_formula=alpha_f, beta_formula=beta_f,
        consistent=alpha == alpha_f and beta == beta_f,
    )


def verify_deza_digraph(d: Digraph) -> VerificationReport:
    """Fit directed Deza parameters (n, k, b, a, t) to a loop-free digraph.

    The adjacency M must be regular, the diagonal of M^2 (equivalently
    the per-vertex mutual-arc count) constant, and the off-diagonal of
    M^2 two-valued.  The t = k case is flagged as an undirected Deza
    graph and the a = b case as a DSRG.
    """
    n = d.n
    # a Digraph made without loops_allowed was checked loop-free
    if d.loops_allowed and np.diagonal(d.strip).any():
        raise ValueError("digraph has loops; use the reflexive verifier")
    k, witness = _regularity(d)
    if witness:
        return _fail(witness)
    s = d.square_strip
    diag = np.diagonal(s)
    t = int(diag[0])
    if not (diag == t).all():
        u = int(np.argmax(diag != t))
        return _fail(f"diag(M^2) not constant: vertex {u} has {int(diag[u])}, vertex 0 has {t}")
    return _fit_two_valued(s, k, t, "off-diagonal path counts", lambda a, b: (
        "deza_graph" if t == k else "dsrg" if a == b else "deza_digraph",
        DezaParams(n, k, b, a, t)))


def deza_children(d: Digraph) -> tuple[Digraph, Digraph]:
    """The digraphs X and Y on the a- and b-positions of M^2 = aX + bY + tI
    (Y = O when a = b); ValueError unless d verifies as a directed Deza
    graph.  They are made from the strip of M^2, so keep d's period."""
    report = verify_deza_digraph(d)
    if not report.ok:
        raise ValueError(f"not a directed Deza graph: {report.witness}")
    return _children(d, report.params)


def _children(d: Digraph, p: DezaParams) -> tuple[Digraph, Digraph]:
    """deza_children of d, whose directed Deza parameters p are verified."""
    x, y = _positions(d.square_strip, p.a, p.b)
    return Digraph.from_strip(x), Digraph.from_strip(y if p.a != p.b else np.zeros_like(y))


@dataclass(frozen=True)
class Feasibility:
    alpha: Fraction
    beta: Fraction
    feasible: bool
    reason: str | None = None


def check_invariants(params: DezaParams) -> None:
    """Raise ValueError unless 0 <= a <= b <= k < n and 0 <= t <= k."""
    n, k, b, a, t = params.as_tuple()
    # a loop-free digraph of order n has out-degree at most n - 1
    if not (0 <= a <= b <= k < n) or not (0 <= t <= k):
        raise ValueError(f"parameter invariants violated for {params}")


def feasibility(params: DezaParams) -> Feasibility:
    """Arithmetic feasibility of a directed Deza parameter tuple.

    Computes the two partner counts from the closed forms and checks
    integrality, nonnegativity and, when a = b, the forced total n - 1.
    For a < b, alpha > 0 iff k^2 - t < b(n-1) and beta > 0 iff k^2 - t >
    a(n-1), so nonzero counts imply a(n-1) < k^2 - t < b(n-1).
    """
    check_invariants(params)
    n, k, b, a, t = params.as_tuple()
    af, bf = _closed_form_counts(n, k, b, a, t)
    if af.denominator != 1 or bf.denominator != 1:
        return Feasibility(af, bf, False, "partner counts not integral")
    if af < 0 or bf < 0:
        return Feasibility(af, bf, False, "partner count negative")
    if a == b and k * k - t != a * (n - 1):
        return Feasibility(af, bf, False,
                           f"a = b requires k^2 - t = a(n-1), got {k*k - t} != {a*(n-1)}")
    return Feasibility(af, bf, True)


def verify_dsrg(d: Digraph) -> VerificationReport:
    """Fit M^2 = tI + lam*M + mu*(J - I - M) exactly."""
    n = d.n
    if d.loops_allowed and np.diagonal(d.strip).any():
        raise ValueError("digraph has loops")
    k, witness = _regularity(d)
    if witness:
        return _fail(witness)
    s = d.square_strip
    t = int(s[0, 0])
    if not (np.diagonal(s) == t).all():
        return _fail(f"diag(M^2) not constant: {_value_multiset(s)}")
    non, arc = _positions(d.strip, 0, 1)
    lam_vals, mu_vals = _distinct(s[arc]), _distinct(s[non])
    if len(lam_vals) > 1:
        return _fail(f"path counts on arcs not constant: {lam_vals}")
    if len(mu_vals) > 1:
        return _fail(f"path counts on non-arcs not constant: {mu_vals}")
    lam = lam_vals[0] if lam_vals else (mu_vals[0] if mu_vals else 0)
    mu = mu_vals[0] if mu_vals else lam
    tag = "srg" if np.array_equal(d.strip, d.co_strip) else "dsrg"
    return VerificationReport(classification=tag, params=DsrgParams(n, k, lam, mu, t))


def verify_type2(d: Digraph) -> VerificationReport:
    """Fit type-II parameters: M M^t = M^t M = aX + bY + kI with X + Y + I = J."""
    n = d.n
    if d.loops_allowed and np.diagonal(d.strip).any():
        raise ValueError("digraph has loops; use the reflexive verifier")
    k, witness = _regularity(d)
    if witness:
        return _fail(witness)
    g, g2 = d.gram_strip, d.cogram_strip
    if not np.array_equal(g, g2):
        u, v = np.argwhere(g != g2)[0]
        return _fail(f"M M^t != M^t M first at ({int(u)}, {int(v)}): "
                     f"{int(g[u, v])} vs {int(g2[u, v])}")
    # diag(M M^t)[u] = sum_w M[u, w]^2, the out-degree k of u, as M is 0/1
    return _fit_two_valued(g, k, k, "common-neighbour counts",
                           lambda a, b: ("typeII", TypeIIParams(n, k, b, a)))


def _check_partition(n: int, partition) -> tuple[np.ndarray, int, int]:
    classes = [list(c) for c in partition]
    if not classes:
        raise ValueError("partition is empty")
    size = len(classes[0])
    seen: set[int] = set()
    for c in classes:
        if len(c) != size:
            raise ValueError(f"classes have unequal sizes {len(c)} != {size}")
        seen.update(c)
    if seen != set(range(n)) or len(classes) * size != n:
        raise ValueError("partition does not cover the vertex set exactly once")
    label = np.empty(n, dtype=np.int64)
    for ci, c in enumerate(classes):
        for v in c:
            label[v] = ci
    return label, len(classes), size


def verify_ddd(d: Digraph, partition) -> VerificationReport:
    """Fit divisible-design-digraph parameters for the given vertex classes.

    For distinct x, y the common dominated count (M M^t) and the common
    dominating count (M^t M) must each equal lambda1 within a class and
    lambda2 across classes.  By asymmetry the two z-sets are disjoint,
    so the combined dominates-or-dominated count is exactly twice the
    reported lambda.
    """
    n = d.n
    label, n_classes, size = _check_partition(n, partition)
    mutual = d.strip + d.co_strip
    if not (mutual <= 1).all():
        u, v = np.argwhere(mutual > 1)[0]
        return _fail(f"not asymmetric: mutual arcs between {int(u)} and {int(v)}")
    k, witness = _regularity(d)
    if witness:
        return _fail(witness)
    # read the first h rows when the period shift maps classes onto classes:
    # img[label[i]] = label[i + h] is well defined (equal sizes make it onto)
    h = d.period
    shifted = np.roll(label, -h)
    img = np.empty(n_classes, dtype=np.int64)
    img[label] = shifted
    if not np.array_equal(img[label], shifted):
        h = n
    gout, gin = d.gram_strip, d.cogram_strip
    if h == n:  # the whole products; block_circulant returns a square strip
        gout, gin = block_circulant(gout), block_circulant(gin)
    within_mask, across_mask = _positions(label[:h, None] == label[None, :], True, False)
    lam1 = lam2 = None
    for g, name in ((gout, "dominated-by-both"), (gin, "dominates-both")):
        within = _distinct(g[within_mask]) or [0]
        across = _distinct(g[across_mask]) or [0]
        if len(within) > 1:
            pair = np.argwhere(within_mask & (g != within[0]))[0]
            return _fail(f"{name} count not constant within classes: values "
                         f"{within}, witness pair {tuple(int(p) for p in pair)}")
        if len(across) > 1:
            pair = np.argwhere(across_mask & (g != across[0]))[0]
            return _fail(f"{name} count not constant across classes: values "
                         f"{across}, witness pair {tuple(int(p) for p in pair)}")
        w, x = within[0], across[0]
        if lam1 is not None and (lam1, lam2) != (w, x):
            return _fail(f"{name} counts ({w}, {x}) disagree with "
                         f"dominated-by-both counts ({lam1}, {lam2})")
        lam1, lam2 = w, x
    return VerificationReport(
        classification="ddd",
        params=DddParams(n, k, lam1, lam2, n_classes, size),
    )


def discover_ddd_partition(d: Digraph) -> list[list[int]] | None:
    """Try to recover a DDD partition from the common-neighbour counts.

    Groups pairs realizing the rarer of the two count values and keeps
    the grouping only if it is an equivalence with uniform class size
    that verifies.  Returns None when no partition is found.
    """
    n = d.n
    if not ((d.strip + d.co_strip) <= 1).all():
        return None
    g = d.gram_strip
    vals = _offdiag_values(g)
    if len(vals) > 2:
        return None
    # the rarer value first; the strip counts are the Gram's times h/n
    for v in sorted(vals, key=lambda v: int((_offdiag(g) == v).sum())):
        rel = block_circulant(g == v)
        np.fill_diagonal(rel, True)
        classes = _equivalence_classes(rel)
        if classes is None:
            continue
        if len({len(c) for c in classes}) != 1:
            continue
        if verify_ddd(d, classes).ok:
            return classes
    # singleton fallback: any asymmetric regular digraph with constant
    # cross counts is a degenerate DDD on singleton classes
    singles = [[i] for i in range(n)]
    return singles if verify_ddd(d, singles).ok else None


def _equivalence_classes(rel: np.ndarray) -> list[list[int]] | None:
    """Partition by a reflexive 0/1 relation; None if not an equivalence.

    It is one iff it is symmetric and every row equals the row of its
    first member.  The classes are listed by first member, each in
    increasing order, split from the stable sort of the first members."""
    if not np.array_equal(rel, rel.T):
        return None
    first = rel.argmax(axis=1)
    if not np.array_equal(rel[first], rel):
        return None
    order = np.argsort(first, kind="stable")
    cuts = np.flatnonzero(np.diff(first[order])) + 1
    return [c.tolist() for c in np.split(order, cuts)]


def verify_deza_graph(d: Digraph, reflexive: bool = False) -> VerificationReport:
    """Fit undirected Deza parameters (n, k, b, a); reflexive inputs carry
    a loop at every vertex and count it in the degree."""
    n, strip, co_strip = d.n, d.strip, d.co_strip
    if not np.array_equal(strip, co_strip):
        u, v = np.argwhere(strip != co_strip)[0]
        raise ValueError(f"adjacency not symmetric at ({int(u)}, {int(v)})")
    diag = np.diagonal(strip)
    if reflexive and not (diag == 1).all():
        raise ValueError("reflexive verification requires a loop at every vertex")
    if not reflexive and diag.any():
        raise ValueError("loops present; pass reflexive=True")
    k, witness = _regularity(d)
    if witness:
        return _fail(witness)
    # M is symmetric and 0/1, so (M^2)[u, u] = sum_w M[u, w] = k, the loop
    # included when reflexive
    return _fit_two_valued(d.square_strip, k, k, "common-neighbour counts", lambda a, b: (
        "reflexive_deza_graph" if reflexive else "srg" if a == b else "deza_graph",
        DezaGraphParams(n, k, b, a)))


@dataclass(frozen=True)
class StatisticSummary:
    """Two-valuedness summary of one product statistic of a reflexive digraph."""

    name: str
    diagonal_values: tuple[int, ...]
    offdiag_values: tuple[int, ...]
    products_commute: bool | None
    two_valued: bool
    params: DezaGraphParams | None


@dataclass(frozen=True)
class ReflexiveReport:
    classification: str
    square: StatisticSummary
    gram: StatisticSummary
    matched: tuple[str, ...]
    mutual_count: int | None
    witness: str | None = None

    @property
    def ok(self) -> bool:
        return self.classification != NOT_MEMBER

    def five_tuple(self, statistic: str) -> tuple | None:
        """(n, k, b, a, t) with (b, a) from the named statistic and t the
        constant diagonal of M^2 (the mutual-adjacency count)."""
        summary = self.square if statistic == "square" else self.gram
        if summary.params is None or self.mutual_count is None:
            return None
        p = summary.params
        return (p.n, p.k, p.b, p.a, self.mutual_count)


def _summarize_statistic(name: str, s: np.ndarray, n: int, k: int,
                         commute: bool | None) -> StatisticSummary:
    diag_vals = tuple(sorted(int(v) for v in np.unique(np.diagonal(s))))
    vals, a, b = _two_values(s)
    two = len(vals) in (1, 2) and len(diag_vals) == 1 and commute is not False
    params = DezaGraphParams(n, k, b, a) if two else None
    return StatisticSummary(name, diag_vals, tuple(vals), commute, two, params)


def verify_reflexive_directed_deza(d: Digraph) -> ReflexiveReport:
    """Evaluate a loops-everywhere digraph under both product statistics.

    The path-count statistic is M^2 (diagonal = mutual partners, loop
    included); the common-neighbour statistic is M M^t together with the
    M M^t = M^t M check.  Either statistic being two-valued with a
    constant diagonal classifies the input; the report records which.
    """
    n = d.n
    if not (np.diagonal(d.strip) == 1).all():
        raise ValueError("reflexive verification requires a loop at every vertex")
    k, witness = _regularity(d)
    if witness:
        empty = StatisticSummary("square", (), (), None, False, None)
        emptyg = StatisticSummary("gram", (), (), None, False, None)
        return ReflexiveReport(NOT_MEMBER, empty, emptyg, (), None, witness)
    square = _summarize_statistic("square", d.square_strip, n, k, None)
    commute = bool(np.array_equal(d.gram_strip, d.cogram_strip))
    gram = _summarize_statistic("gram", d.gram_strip, n, k, commute)
    matched = tuple(st.name for st in (square, gram) if st.two_valued)
    diag = square.diagonal_values
    mutual = diag[0] if len(diag) == 1 else None
    if matched:
        return ReflexiveReport("reflexive_directed_deza", square, gram, matched, mutual)
    return ReflexiveReport(NOT_MEMBER, square, gram, (), mutual,
                           "neither product statistic is two-valued with constant diagonal")


def verify_symmetric_design(incidence: Digraph | np.ndarray) -> DesignParams:
    """Check N N^t = N^t N = (k - lam) I + lam J and constant line sums;
    a 0/1 array is read as the Digraph with loops allowed.  Both Gram
    diagonals are line sums, k, and for n > 1 N N^t 1 = N^t N 1 = k^2 1
    gives k + (n - 1) lam = k^2 for both, so their lam agree."""
    d = incidence if isinstance(incidence, Digraph) else Digraph(incidence, loops_allowed=True)
    n = d.n
    k, witness = _regularity(d)
    if witness:
        raise ValueError(f"line sums not constant: {witness}")
    for g, name in ((d.gram_strip, "N N^t"), (d.cogram_strip, "N^t N")):
        vals = _offdiag_values(g)
        if n > 1 and len(vals) != 1:
            raise ValueError(f"Gram mismatch: off-diagonal of {name} takes values {vals}")
    return DesignParams(n, k, vals[0] if vals else 0)
