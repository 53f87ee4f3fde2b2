"""The library's internal checks raise explicit errors, so they still run
under ``python -O``, which strips ``assert`` statements."""

import ast
from pathlib import Path

import numpy as np
import pytest

import dezakit
from dezakit import construct, decompose_search, hadamard, verify
from dezakit.verify import DesignParams, DezaParams


def test_library_has_no_assert_statements():
    src = Path(dezakit.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_only_matrix_core_makes_products():
    # Digraph.products is the one owner of a matrix's products
    src = Path(dezakit.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Products"]
    assert [f.split(":")[0] for f in found] == ["matrix_core.py"]


def _reject(d):
    return verify._fail("rejected by the test")


@pytest.mark.parametrize("verifier, search", [
    ("verify_deza_digraph",
     lambda: decompose_search.search_deza_digraphs(DezaParams(5, 1, 1, 0, 0), limit=1)),
    ("verify_dsrg", lambda: decompose_search.search_dsrg(6)),
])
def test_search_hits_that_fail_verification_raise(monkeypatch, verifier, search):
    monkeypatch.setattr(decompose_search, verifier, _reject)
    with pytest.raises(RuntimeError, match="does not re-verify"):
        search()


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
