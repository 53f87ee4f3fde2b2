"""The library's internal checks raise explicit errors, so they still run
under ``python -O``, which strips ``assert`` statements."""

import ast
from pathlib import Path

import numpy as np
import pytest

import dezakit
from dezakit import construct, decompose_search, hadamard, verify
from dezakit.hadamard import HadamardMatrix
from dezakit.matrix_core import Digraph, SignedMatrix, _frozen, as_int_matrix, circulant
from dezakit.verify import DesignParams, DezaParams


def test_library_has_no_assert_statements():
    src = Path(dezakit.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_verify_reads_no_adjacency():
    # the verifiers read a Digraph through its strips, never its n x n matrix
    path = Path(verify.__file__)
    found = [node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "adjacency"]
    assert found == []


def _written_names(target):
    """The names an assignment target, or the receiver of a method call,
    writes through: rows for rows[u] = x, rows.append(x) or rows = x."""
    while isinstance(target, (ast.Subscript, ast.Attribute, ast.Starred)):
        target = target.value
    if isinstance(target, ast.Name):
        return [target.id]
    return [name for elt in getattr(target, "elts", []) for name in _written_names(elt)]


def test_square_judge_writes_none_of_the_drivers_state():
    # _drive hands its judge its live rows, colmask and colcap; the M^2
    # judge reads them and never assigns to, appends to or pops them
    tree = ast.parse(Path(decompose_search.__file__).read_text(encoding="utf-8"))
    judge = next(node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "_square_judge")
    mutators = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse"}
    found = []
    for node in ast.walk(judge):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For, ast.NamedExpr)):
            targets = [node.target]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            targets = [node.func.value] if node.func.attr in mutators else []
        else:
            targets = []
        found += [(node.lineno, name) for target in targets for name in _written_names(target)
                  if name in {"rows", "colmask", "colcap"}]
    assert found == []


def test_only_matrix_core_makes_digraphs_without_post_init():
    # Digraph._checked is the one way past Digraph.__post_init__, and no
    # other module writes an object's __dict__
    src = Path(dezakit.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and (
                 node.attr == "__dict__"
                 or node.attr == "__new__" and getattr(node.value, "id", None) == "object")]
    assert {f.split(":")[0] for f in found} <= {"matrix_core.py"}


@pytest.mark.parametrize("search", [
    lambda: decompose_search.search_deza_digraphs(DezaParams(5, 1, 1, 0, 0)),
    lambda: decompose_search.search_dsrg(6),
], ids=["deza", "dsrg"])
@pytest.mark.parametrize("first_block", [True, False], ids=["first-block", "later-block"])
def test_search_hits_that_fail_the_block_check_raise(monkeypatch, search, first_block):
    """One entry of one hit is flipped: the first hit, alone in its stack,
    or the last hit of the first relabelled block of two or more.  The
    search raises, naming that hit."""
    inner, flipped = decompose_search._search, []

    def flipping(*args):
        for ms, js in inner(*args):
            if not flipped and (first_block or len(ms) > 1):
                ms = ms.copy()
                ms[-1, -1, 0] ^= 1
                flipped.append(ms[-1].tolist())
            yield ms, js

    monkeypatch.setattr(decompose_search, "_search", flipping)
    with pytest.raises(RuntimeError, match="does not re-verify") as exc:
        search()
    assert str(flipped[0]) in str(exc.value)


def test_field_constructions_check_their_invariants(monkeypatch):
    monkeypatch.setattr(construct, "verify_symmetric_design", lambda m: DesignParams(7, 3, 0))
    with pytest.raises(RuntimeError, match="design"):
        construct.qr_symmetric_design(7)
    monkeypatch.setattr(construct, "quadratic_residue_matrix",
                        lambda field: np.triu(np.ones((5, 5), dtype=np.int64), 1))
    with pytest.raises(RuntimeError, match="not symmetric"):
        construct.paley_graph(5)
    monkeypatch.setattr(hadamard, "is_skew_type", lambda h: False)
    with pytest.raises(RuntimeError, match="not skew-type"):
        hadamard.paley_skew(7)


def test_fit_rejects_partner_counts_that_vary_by_vertex():
    # two off-diagonal values, but row sums 3, 2, 3: vertex 0 sees one
    # partner at each value, vertex 1 sees two at the smaller one
    s = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=np.int64)
    with pytest.raises(RuntimeError, match="partner counts"):
        verify._fit_two_valued(s, 1, 0, "counts", lambda a, b: ("fit", None))


EMPTY = np.zeros((0, 0), int)


@pytest.mark.parametrize("build", [
    lambda: verify.verify_deza_digraph(Digraph(EMPTY)),
    lambda: verify.verify_dsrg(Digraph(EMPTY)),
    lambda: verify.verify_type2(Digraph(EMPTY)),
    lambda: verify.verify_ddd(Digraph(EMPTY), []),
    lambda: verify.discover_ddd_partition(Digraph(EMPTY)),
    lambda: verify.verify_deza_graph(Digraph(EMPTY, loops_allowed=True), reflexive=True),
    lambda: verify.verify_reflexive_directed_deza(Digraph(EMPTY, loops_allowed=True)),
    lambda: verify.verify_symmetric_design(EMPTY),
    lambda: Digraph(EMPTY),
    lambda: SignedMatrix(EMPTY),
    lambda: HadamardMatrix(EMPTY),
], ids=["deza_digraph", "dsrg", "type2", "ddd", "discover_ddd", "deza_graph",
        "reflexive_directed_deza", "symmetric_design", "Digraph", "SignedMatrix",
        "HadamardMatrix"])
def test_order_zero_matrices_are_refused(build):
    # each verifier reads a Digraph, or a raw array for symmetric designs
    with pytest.raises(ValueError, match="order must be positive"):
        build()


@pytest.mark.parametrize("build", [
    lambda: Digraph([[0, 0.5], [1.9, 0]]),
    lambda: HadamardMatrix([[1, 1], [1, -1.5]]),
    lambda: SignedMatrix([[0, -0.5], [1, 0]]),
    lambda: Digraph.from_strip([[0, 0.9, 1.5, 0]]),
    lambda: circulant([0, 1.5, 0]),
    lambda: as_int_matrix(np.array([[2**63]], dtype=np.uint64)),
], ids=["Digraph", "HadamardMatrix", "SignedMatrix", "from_strip", "circulant", "uint64"])
def test_entries_that_int64_would_change_are_refused(build):
    # a fraction would truncate, and 2^63 would wrap to -2^63
    with pytest.raises(ValueError, match="integers in the int64 range"):
        build()


def test_integral_entries_of_any_type_are_taken(monkeypatch):
    # integral floats pass the check; int and bool arrays are not checked
    assert Digraph([[0, 1.0], [1.0, 0]]) == Digraph([[0, 1], [1, 0]])
    monkeypatch.setattr(np, "array_equal", lambda *args: pytest.fail("checked an int array"))
    for rows in ([[0, 1], [1, 0]], np.eye(2, dtype=bool), np.eye(2, dtype=np.uint32)):
        assert _frozen(rows).dtype == as_int_matrix(rows).dtype == np.int64
        assert Digraph.from_strip(rows, loops_allowed=True).adjacency.sum() == 2
