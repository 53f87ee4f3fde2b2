"""The benchmark's tracer (bench/tracer.py) finds the library's field
operations and validators by name; a rename or removal there would break
traced benchmark runs, so its install/uninstall contract is checked here."""

import types
from pathlib import Path

import numpy as np

from dezakit import finite_field, hadamard, matrix_core

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    """bench/tracer.py as a module, executed from its text so that no
    bytecode cache is written next to it."""
    module = types.ModuleType("tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_tracer_wraps_the_field_operations_and_restores_everything():
    tracer = load_tracer()
    field_ops = {op: vars(finite_field.FiniteField)[op] for op in tracer.FIELD_OPS}
    validators = [vars(cls)["__post_init__"] for cls in (
        matrix_core.Digraph, matrix_core.SignedMatrix, hadamard.HadamardMatrix)]
    matmul = matrix_core.exact_matmul
    t = tracer.Tracer()
    try:
        t.install()
        for op, original in field_ops.items():
            assert vars(finite_field.FiniteField)[op].__wrapped__ is original, op
        assert matrix_core.exact_matmul.__wrapped__ is matmul
        f = finite_field.make_field(3, 1)
        f.mul(f.one, f.one)
        assert t.metrics()["finite_field.ops"] == 1
    finally:
        t.uninstall()
    assert matrix_core.exact_matmul is matmul
    for op, original in field_ops.items():
        assert vars(finite_field.FiniteField)[op] is original, op
    assert validators == [vars(cls)["__post_init__"] for cls in (
        matrix_core.Digraph, matrix_core.SignedMatrix, hadamard.HadamardMatrix)]


def test_traced_strip_products_count_their_dense_work():
    # a strip right operand stands for its n x n block-circulant matrix:
    # 2 h n n flops, on BLAS, as the dense product it replaces
    tracer = load_tracer()
    n, h = 132, 4
    strip = np.random.default_rng(5).integers(0, 2, (h, n))
    t = tracer.Tracer()
    try:
        t.install()
        matrix_core.exact_matmul(strip, strip)
        products = matrix_core.Digraph(matrix_core.circulant(strip[0]), loops_allowed=True)
        products.gram_strip
        metrics = t.metrics()
    finally:
        t.uninstall()
    assert products.period == 1
    assert metrics["matrix_core.matmul_calls"] == 2
    assert metrics["matrix_core.matmul_gflop"] == (2 * h * n * n + 2 * 1 * n * n) / 1e9
    assert metrics["matrix_core.matmul_blas_ratio"] == 1.0
