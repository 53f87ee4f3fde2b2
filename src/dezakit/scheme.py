"""Association schemes: axiom verification, intersection numbers, the
two-valued fusion construction, and doubly regular tournaments from
quadratic residues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construct import quadratic_residue_matrix
from .finite_field import odd_prime_power_field
from .matrix_core import Digraph, _frozen, exact_matmul, identity, ones
from .verify import DezaParams, VerificationReport, verify_deza_digraph


class SchemeError(ValueError):
    """A violated association-scheme axiom, with the axiom number."""

    def __init__(self, axiom: int, detail: str):
        super().__init__(f"axiom ({axiom}) violated: {detail}")
        self.axiom = axiom
        self.detail = detail


@dataclass(frozen=True)
class AssociationScheme:
    relations: tuple[np.ndarray, ...]
    intersection_numbers: np.ndarray  # shape (d+1, d+1, d+1), p[i, j, k]

    @property
    def n(self) -> int:
        return self.relations[0].shape[0]

    @property
    def d(self) -> int:
        return len(self.relations) - 1

    def p(self, i: int, j: int, k: int) -> int:
        return int(self.intersection_numbers[i, j, k])


def verify_scheme(matrices) -> AssociationScheme:
    """Check the five scheme axioms and extract all p_{i,j}^k exactly.

    Each p is read off one representative cell of relation k and then the
    full linear combination A_i A_j = sum_k p_{i,j}^k A_k is re-checked
    entrywise, so near-schemes are rejected rather than averaged.
    """
    mats = [_frozen(m) for m in matrices]
    if not mats:
        raise SchemeError(1, "no relation matrices given")
    n = mats[0].shape[0]
    for idx, m in enumerate(mats):
        if m.shape != (n, n):
            raise SchemeError(1, f"relation {idx} has shape {m.shape}, expected ({n}, {n})")
        if not ((m == 0) | (m == 1)).all():
            raise SchemeError(1, f"relation {idx} is not a 0/1 matrix")
    d = len(mats) - 1
    if not np.array_equal(mats[0], identity(n)):
        raise SchemeError(1, "A_0 is not the identity")
    if not np.array_equal(sum(mats), ones(n)):
        raise SchemeError(2, "relations do not sum to the all-ones matrix")
    for i, m in enumerate(mats):
        for other in mats:
            if np.array_equal(m.T, other):
                break
        else:
            raise SchemeError(3, f"transpose of relation {i} is not a relation")
    # representative cell of each relation for reading off coefficients
    for i, m in enumerate(mats):
        if not m.any():
            raise SchemeError(2, f"relation {i} is empty")
    reps = [tuple(int(c) for c in np.argwhere(m == 1)[0]) for m in mats]
    p = np.zeros((d + 1, d + 1, d + 1), dtype=np.int64)
    prod = [[exact_matmul(a, b) for b in mats] for a in mats]
    for i in range(d + 1):
        for j in range(d + 1):
            combo = np.zeros((n, n), dtype=np.int64)
            for k in range(d + 1):
                x, y = reps[k]
                p[i, j, k] = prod[i][j][x, y]
                combo += p[i, j, k] * mats[k]
            if not np.array_equal(prod[i][j], combo):
                raise SchemeError(
                    4, f"A_{i} A_{j} is not a combination of the relations "
                       f"(coefficients read at representatives disagree elsewhere)")
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            if not np.array_equal(prod[i][j], prod[j][i]):
                raise SchemeError(5, f"A_{i} and A_{j} do not commute")
    return AssociationScheme(tuple(mats), _frozen(p))


@dataclass(frozen=True)
class FusionReport:
    """Outcome of fusing the relations indexed by F.

    fused_values lists sum_{f,g in F} p_{f,g}^k over k >= 1; the fusion
    is a directed Deza graph exactly when at most two values occur.
    t_from_scheme is sum_{f in F} p_{f,f}^0; the direct verification of
    the fused digraph is carried alongside for cross-checking.
    """

    fused_values: tuple[int, ...]
    at_most_two: bool
    t_from_scheme: int
    k: int
    params: DezaParams | None
    verification: VerificationReport


def fusion_digraph(scheme: AssociationScheme, fuse) -> tuple[Digraph, FusionReport]:
    f_set = sorted(set(int(f) for f in fuse))
    if not f_set or any(f < 1 or f > scheme.d for f in f_set):
        raise ValueError(f"fusion set {f_set} must be a nonempty subset of 1..{scheme.d}")
    adjacency = sum(scheme.relations[f] for f in f_set)
    fused = np.zeros(scheme.d + 1, dtype=np.int64)
    for f in f_set:
        for g in f_set:
            fused += scheme.intersection_numbers[f, g, :]
    values = tuple(sorted({int(fused[k]) for k in range(1, scheme.d + 1)}))
    at_most_two = len(values) <= 2
    t_scheme = int(sum(scheme.intersection_numbers[f, f, 0] for f in f_set))
    digraph = Digraph(adjacency)
    verification = verify_deza_digraph(digraph)
    k = int(adjacency[0].sum())
    params = None
    if at_most_two and values:
        lo, hi = values[0], values[-1]
        params = DezaParams(scheme.n, k, hi, lo, t_scheme)
    return digraph, FusionReport(values, at_most_two, t_scheme, k, params, verification)


def paley_tournament(q: int) -> Digraph:
    """Doubly regular tournament on the field of order q = 3 mod 4:
    u -> v iff v - u is a nonzero square."""
    return Digraph(quadratic_residue_matrix(odd_prime_power_field(q, 3)))


def tournament_scheme(q: int) -> AssociationScheme:
    """The 2-class non-symmetric scheme {I, A, A^t} of a doubly regular
    tournament."""
    a = paley_tournament(q).adjacency
    return verify_scheme([identity(q), a, a.T])
