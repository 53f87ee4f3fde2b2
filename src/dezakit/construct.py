"""Constructions emitting digraphs ready for the verifiers: lexicographic
products, the skew-Hadamard substitution, twin and Siamese-twin families
(parts of a signed matrix), quadratic-residue designs and graphs, and
the finite-field type-II family with its identity suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .finite_field import (Element, FiniteField, odd_prime_power_field,
                           quadratic_character_matrix, rep)
from .hadamard import HadamardMatrix, is_normalized, is_skew_type
from .matrix_core import (Digraph, SignedMatrix, SizeBoundError, check_order,
                          circulant, exact_matmul, identity, kronecker, ones, zeros)
from .verify import DesignParams, DezaParams, DsrgParams, verify_symmetric_design


def empty_digraph(n: int) -> Digraph:
    if n < 1:
        raise ValueError("need at least one vertex")
    check_order(n)
    return Digraph(zeros(n))


def complete_digraph(n: int) -> Digraph:
    if n < 1:
        raise ValueError("need at least one vertex")
    check_order(n)
    return Digraph(ones(n) - identity(n))


def directed_cycle(n: int) -> Digraph:
    if n < 2:
        raise ValueError("need at least two vertices")
    row = np.zeros(n, dtype=np.int64)
    row[1] = 1
    return Digraph(circulant(row))


def lex_product(d1: Digraph, d2: Digraph) -> Digraph:
    """Lexicographic product: arcs follow d1 between blocks, d2 inside."""
    check_order(d1.n * d2.n)
    m1, m2 = d1.adjacency, d2.adjacency
    adj = kronecker(m1, ones(d2.n)) + kronecker(identity(d1.n), m2)
    return Digraph(adj, loops_allowed=d1.loops_allowed or d2.loops_allowed)


def lex_deza_condition(dsrg: DsrgParams, deza: DezaParams) -> bool:
    """Whether the product of the DSRG with the Deza digraph is again a
    directed Deza graph: the four candidate path counts collapse to at
    most two values.

    Same-block pairs see t*n2 + (a or b) paths (a two-path returning to
    the block needs a mutual pair of the outer digraph, and there are t
    of those, each contributing a full block); cross-block pairs see
    mu*n2 or lam*n2 + 2*k2.
    """
    n2, k2 = deza.n, deza.k
    values = {deza.a + dsrg.t * n2,
              deza.b + dsrg.t * n2,
              dsrg.mu * n2,
              dsrg.lam * n2 + 2 * k2}
    return len(values) <= 2


def skew_hadamard_deza(h: HadamardMatrix) -> Digraph:
    """Blow a skew-type Hadamard matrix of order 4u up to a directed Deza
    graph on 8u vertices: diagonal -> O_2, +1 -> I_2, -1 -> J_2 - I_2."""
    if not is_skew_type(h):
        raise ValueError("Hadamard matrix is not skew-type (H + H^t != 2I)")
    if h.order % 4 != 0:
        raise ValueError(f"order {h.order} is not divisible by 4")
    off, i2 = h.matrix - identity(h.order), identity(2)  # H's diagonal is +1
    return Digraph(kronecker(off == 1, i2) + kronecker(off == -1, ones(2) - i2))


def pair_classes(n_vertices: int) -> list[list[int]]:
    """The natural classes {2i, 2i+1} of a skew-Hadamard blow-up."""
    return [[2 * i, 2 * i + 1] for i in range(n_vertices // 2)]


@dataclass(frozen=True)
class TwinPair:
    """The positive and negative parts A and B of a signed block matrix
    K = A - B: disjoint graphs with identical parameters, with the
    Hadamard matrix they came from, whose order is their block order."""

    positive_part: Digraph
    negative_part: Digraph
    hadamard: np.ndarray

    block_order = property(lambda self: len(self.hadamard))
    # K = A - B, made afresh on each read
    signed = property(lambda self: SignedMatrix(self.positive_part.adjacency
                                                - self.negative_part.adjacency))

    def block_classes(self) -> list[list[int]]:
        n = self.block_order
        return [list(range(i, i + n)) for i in range(0, self.positive_part.n, n)]


def _twin_pair(h: HadamardMatrix, sign: int) -> TwinPair:
    """The parts of the signed block-circulant of order (2n-1)n with first
    block row [O, C_2, ..., C_n, sign C_n, ..., sign C_2], C_i = r_i^t r_i
    for row r_i of h and O the zeroed diagonal block: each part is made
    from the mask of its sign in that strip, which is never expanded."""
    if not is_normalized(h):
        raise ValueError("Hadamard matrix must be normalized")
    n = h.order
    check_order((2 * n - 1) * n)
    rows = h.matrix[list(range(n)) + list(range(n - 1, 0, -1))]
    signs = np.array([0] + [1] * (n - 1) + [sign] * (n - 1), dtype=np.int64)
    blocks = signs[:, None, None] * rows[:, :, None] * rows[:, None, :]
    strip = blocks.transpose(1, 0, 2).reshape(n, (2 * n - 1) * n)
    return TwinPair(Digraph.from_strip(strip == 1), Digraph.from_strip(strip == -1), h.matrix)


def twin_deza(h: HadamardMatrix) -> TwinPair:
    """Twin Deza graphs from a normalized Hadamard matrix of order n.

    The symbols (1, 2, ..., n, n, n-1, ..., 2) are laid out on a
    circulant of order 2n-1, symbol i is replaced by the rank-one block
    C_i, the diagonal blocks are zeroed, and the result splits into its
    positive and negative parts.
    """
    return _twin_pair(h, 1)


def siamese_reflexive(pair: TwinPair) -> tuple[Digraph, Digraph]:
    """Add the shared block-diagonal cliques I x C_1, C_1 from the pair's
    own Hadamard matrix, to each twin part, producing two reflexive graphs.

    The parts are block-circulant with blocks of the pair's block order
    n, so each is its first n rows, and I x C_1 is the strip [C_1 | O]."""
    n, r0 = pair.block_order, pair.hadamard[0]
    shared = np.zeros((n, pair.positive_part.n), dtype=np.int64)
    shared[:, :n] = np.outer(r0, r0)
    return tuple(Digraph.from_strip(part.adjacency[:n] + shared, loops_allowed=True)
                 for part in (pair.positive_part, pair.negative_part))


def twin_directed(h: HadamardMatrix) -> tuple[TwinPair, tuple[Digraph, Digraph]]:
    """Directed twins from a normalized Hadamard matrix of order n.

    The signed symbols (1, 2, ..., n, -n, -(n-1), ..., -2) are laid out
    on a circulant of order 2n-1; positive symbols become C_i, negative
    ones -C_i.  After zeroing the diagonal blocks the matrix splits into
    disjoint parts A, B, and adding I x C_1 to each yields the two
    reflexive directed graphs.

    A and B are type-II directed Deza graphs with parameters
    ((2n-1)n, n(n-1), n(n-1)/2, n(n-2)/2).  Within each class of
    ``block_classes()`` the common-neighbour count is n(n-2)/2, but the
    cross-class counts take both n(n-2)/2 and n(n-1)/2, so those classes
    are not a DDD partition.
    """
    pair = _twin_pair(h, -1)
    return pair, siamese_reflexive(pair)


def quadratic_residue_matrix(field: FiniteField) -> np.ndarray:
    """0/1 matrix with (i, j) entry 1 iff e_j - e_i is a nonzero square."""
    return (quadratic_character_matrix(field) == 1).astype(np.int64)


def qr_symmetric_design(q: int) -> np.ndarray:
    """Incidence matrix of the quadratic-residue symmetric design
    (q, (q-1)/2, (q-3)/4) for a prime power q = 3 mod 4; zero diagonal."""
    n_matrix = quadratic_residue_matrix(odd_prime_power_field(q, 3))
    expected = DesignParams(q, (q - 1) // 2, (q - 3) // 4)
    if verify_symmetric_design(n_matrix) != expected:
        raise RuntimeError(f"quadratic residues of GF({q}) do not form "
                           f"a {expected.as_tuple()} design")
    return n_matrix


def paley_graph(q: int) -> Digraph:
    """The (q, (q-1)/2, (q-5)/4, (q-1)/4) strongly regular graph on the
    field of order q = 1 mod 4."""
    adj = quadratic_residue_matrix(odd_prime_power_field(q, 1))
    if not np.array_equal(adj, adj.T):
        raise RuntimeError(f"quadratic-residue matrix of GF({q}) is not symmetric")
    return Digraph(adj)


def design_lex_empty(n_matrix: np.ndarray, n2: int) -> Digraph:
    """Blow each design point up to an empty block of n2 vertices:
    adjacency N x J_{n2}."""
    params = verify_symmetric_design(n_matrix)
    m = np.asarray(n_matrix, dtype=np.int64)
    if m.trace() != 0:
        raise ValueError("incidence matrix must have zero diagonal")
    if n2 < 1:
        raise ValueError("block size must be positive")
    check_order(m.shape[0] * n2)
    return Digraph(kronecker(m, ones(n2)))


# ---------------------------------------------------------------------------
# Finite-field type-II family
# ---------------------------------------------------------------------------

# a symbol is a field element or the literal "y" (the all-blocks marker)
Symbol = Element | str


def symbol_row(field: FiniteField) -> list:
    """First row of the symbolic circulant: the fixed symbol 'x', then
    'y', the field elements in order, and the mirror making the circulant
    symmetric."""
    q = field.q
    size = 2 * q + 3
    row: list = ["x", "y"] + list(field.elements) + [None] * (q + 1)
    for c in range(q + 2, size):
        row[c] = row[size - c]
    return row


def _position(field: FiniteField, a: Symbol) -> int:
    """The first column of symbol_row holding the symbol a."""
    if a == "y":
        return 1
    field.check_member(a)
    return 2 + field.index_of(a)


def _indicator_circulant(size: int, offsets) -> np.ndarray:
    """The 0/1 circulant of order size whose first row marks offsets."""
    row = np.zeros(size, dtype=np.int64)
    row[[o % size for o in offsets]] = 1
    return circulant(row)


def shift_indicator(field: FiniteField, a: Symbol) -> np.ndarray:
    """P_a = V^{pos(a)} + V^{-pos(a)}: the 0/1 circulant marking where the
    symbol a sits in the symbolic circulant."""
    j = _position(field, a)
    return _indicator_circulant(2 * field.q + 3, (j, -j))


def auxiliary_matrix(field: FiniteField, a: Symbol, alpha: Element) -> np.ndarray:
    """C_{a, alpha}: for a field-element symbol, the block matrix whose
    (beta, beta') block rep(a(beta' - beta) + alpha) has row i's one in
    column numeral(e_i + a(beta' - beta) + alpha); for y, rep(alpha) x J_q."""
    field.check_member(alpha)
    if a == "y":
        return kronecker(rep(field, alpha), ones(field.q))
    field.check_member(a)
    q, e = field.q, field.vectors()
    times_a = np.array([field.mul(a, x) for x in field.elements], dtype=np.int64)
    shift = times_a[field.numeral(e[None, :] - e[:, None])] + alpha  # [beta, beta']
    # axes [beta, i, beta', column]: row (beta, i) is blocks beta' side by side
    return identity(q)[field.numeral(shift[:, None] + e[None, :, None])].reshape(q * q, q * q)


def _symbols(field: FiniteField) -> list:
    return list(field.elements) + ["y"]


def field_type2(field: FiniteField, alpha: Element) -> Digraph:
    """The order-(2q+3)q^2 digraph N_alpha = sum_a P_a x C_{a, alpha}.

    It is the block-circulant whose first block row replaces each symbol
    of symbol_row by C_{a, alpha} and the fixed symbol x by a zero block.
    N_0 is an undirected Deza graph; the other N_alpha are type-II
    directed Deza graphs, all with parameters
    (q^2(2q+3), 2q^2+2q, 3q, 2q).
    """
    field.check_member(alpha)
    q = field.q
    check_order((2 * q + 3) * q * q)
    blocks = {a: auxiliary_matrix(field, a, alpha) for a in _symbols(field)}
    blocks["x"] = zeros(q * q)
    strip = np.concatenate([blocks[a] for a in symbol_row(field)], axis=1)
    return Digraph.from_strip(strip)


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    passed: bool
    counterexample: str | None = None


@dataclass(frozen=True)
class IdentityReport:
    q: int
    checks: tuple[IdentityCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def check_construction_identities(field: FiniteField) -> IdentityReport:
    """Exhaustively evaluate the auxiliary-matrix identities underlying
    the type-II family, and the full product expansion of N_alpha N_beta,
    over every index tuple.  Failures are reported with the first
    counterexample, not raised."""
    if field.q > 7:
        raise SizeBoundError("exhaustive identity ranges are limited to q <= 7")
    q = field.q
    size = 2 * q + 3
    syms = _symbols(field)
    elems = field.elements
    reps = {e: rep(field, e) for e in elems}
    aux = {(a, al): auxiliary_matrix(field, a, al) for a in syms for al in elems}
    checks: list[IdentityCheck] = []

    def record(name: str, fail: str | None):
        checks.append(IdentityCheck(name, fail is None, fail))

    def first_failure(pred_iter):
        for desc, ok in pred_iter:
            if not ok:
                return desc
        return None

    record("transpose", first_failure(
        (f"a={a}, alpha={al}",
         np.array_equal(aux[(a, al)].T, aux[(a, field.neg(al))]))
        for a in syms for al in elems))

    def sum_ok(al):
        total = sum(aux[(a, al)] for a in syms)
        expected = (q * kronecker(identity(q), reps[al])
                    + kronecker(ones(q) + reps[al] - identity(q), ones(q)))
        return np.array_equal(total, expected)

    record("symbol_sum", first_failure(
        (f"alpha={al}", sum_ok(al)) for al in elems))

    record("same_symbol_product", first_failure(
        (f"a={a}, alpha={al}, alpha'={al2}",
         np.array_equal(exact_matmul(aux[(a, al)], aux[(a, al2)]),
                        q * aux[(a, field.add(al, al2))]))
        for a in syms for al in elems for al2 in elems))

    record("distinct_symbol_product", first_failure(
        (f"a={a}, a'={b}, alpha={al}, alpha'={al2}",
         np.array_equal(exact_matmul(aux[(a, al)], aux[(b, al2)]), ones(q * q)))
        for a in syms for b in syms if a != b
        for al in elems for al2 in elems))

    record("shift_action", first_failure(
        (f"alpha={al}, alpha'={al2}, alpha''={al3}",
         np.array_equal(exact_matmul(kronecker(identity(q), reps[al3]), aux[(al, al2)]),
                        aux[(al, field.add(al2, al3))]))
        for al in elems for al2 in elems for al3 in elems))

    record("shift_fixes_y_blocks", first_failure(
        (f"alpha={al}, alpha'={al2}",
         np.array_equal(exact_matmul(kronecker(identity(q), reps[al]), aux[("y", al2)]),
                        aux[("y", al2)]))
        for al in elems for al2 in elems))

    cross = zeros(size)
    for a in syms:
        for b in syms:
            if a != b:
                cross += exact_matmul(shift_indicator(field, a), shift_indicator(field, b))
    record("offset_double_cover",
           None if np.array_equal(cross, 2 * q * (ones(size) - identity(size)))
           else "sum over distinct symbol pairs")

    n_strips = {al: field_type2(field, al).adjacency[:q * q] for al in elems}

    def expansion_ok(al, be):
        # every term, and both factors, are block-circulant with period q^2,
        # so their first q^2 rows decide the identity; kron(A, B)[:q^2] is
        # kron(A[:q^2 / rows(B)], B)
        gamma = field.add(al, be)
        expected = (2 * q * q * kronecker(identity(size * q)[:q], reps[gamma])
                    + 2 * q * kronecker(identity(size)[:1],
                                        kronecker(reps[gamma] - identity(q), ones(q)))
                    + 2 * q)
        for a in syms:
            j = _position(field, a)
            wave = _indicator_circulant(size, (2 * j, -2 * j))
            expected = expected + q * kronecker(wave[:1], aux[(a, gamma)])
        return np.array_equal(exact_matmul(n_strips[al], n_strips[be]), expected)

    record("product_expansion", first_failure(
        (f"alpha={al}, beta={be}", expansion_ok(al, be))
        for al in elems for be in elems))

    return IdentityReport(q, tuple(checks))
