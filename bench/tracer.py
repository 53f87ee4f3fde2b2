"""Per-layer timing for the traced run, from outside the library.

Every public function of every dezakit module is replaced by a wrapper
in each namespace that binds it (so ``verify.exact_matmul``, the copy
bound by import, is wrapped as well as ``matrix_core.exact_matmul``),
plus the dataclass ``__post_init__`` validators and the per-element
``FiniteField`` operations.  A wrapper keeps no span list: it adds its
call to per-function totals (calls, inclusive time, self time), where
self time is the call's duration minus the durations of the wrapped
calls it made.  The self times of all calls therefore add up to the time
spent in the library, with nothing counted twice.  ``uninstall`` puts
every original object back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

MODULES = ("finite_field", "hadamard", "matrix_core", "construct", "verify",
           "scheme", "decompose_search", "fileio", "cli")

# decompose_search holds three layers that later work targets separately
SUBLAYERS = {
    "search_deza_digraphs": "search", "search_dsrg": "search",
    "dsrg_spectral_feasible": "search", "canonical_form": "canonical",
    "decompose_b_eq_t": "decompose", "decompose_type2_b_eq_k": "decompose",
}

FIELD_OPS = ("add", "sub", "mul", "neg", "chi", "nonzero_squares")

VERIFIERS = ("verify_deza_digraph", "verify_dsrg", "verify_type2", "verify_ddd",
             "discover_ddd_partition", "verify_deza_graph",
             "verify_reflexive_directed_deza", "verify_symmetric_design")

_BLAS_MIN_INNER = 128
_FLOAT_EXACT_BOUND = 2**53


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []
        self.stats: dict[str, list] = {}   # key -> [layer, calls, incl_s, self_s]
        self.extra = {"matmul_flop": 0, "matmul_blas": 0,
                      "read_bytes": 0, "write_bytes": 0, "labelled": 0}
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------

    def _wrap(self, key: str, layer: str, fn, after=None):
        stack = self.stack
        rec = self.stats.setdefault(key, [layer, 0, 0.0, 0.0])
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                rec[1] += 1
                rec[2] += dur
                rec[3] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            if after is not None:
                after(args, result)
            return result

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _set(self, owner, name: str, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self):
        import dezakit
        mods = {name: importlib.import_module(f"dezakit.{name}") for name in MODULES}
        wrapped: dict[int, object] = {}
        hooks = self._after_hooks()
        for name, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                layer = SUBLAYERS.get(attr, name)
                wrapped[id(obj)] = self._wrap(f"{name}.{attr}", layer, obj, hooks.get(attr))
        namespaces = [dezakit, *mods.values()]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._set(ns, attr, wrapped[id(obj)])
        ff, mc, hd = mods["finite_field"], mods["matrix_core"], mods["hadamard"]
        for op in FIELD_OPS + ("__init__",):
            fn = vars(ff.FiniteField)[op]
            self._set(ff.FiniteField, op,
                      self._wrap(f"finite_field.FiniteField.{op}", "finite_field", fn))
        for cls, layer in ((mc.Digraph, "matrix_core"), (mc.SignedMatrix, "matrix_core"),
                           (hd.HadamardMatrix, "hadamard")):
            fn = vars(cls)["__post_init__"]
            self._set(cls, "__post_init__",
                      self._wrap(f"{layer}.{cls.__name__}.__post_init__", layer, fn))

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _after_hooks(self):
        extra = self.extra

        def matmul(args, result):
            a, b = args[0], args[1]
            inner = a.shape[1]
            extra["matmul_flop"] += 2 * a.shape[0] * inner * b.shape[1]
            if inner >= _BLAS_MIN_INNER:
                bound = inner * int(abs(a).max()) * int(abs(b).max())
                if bound < _FLOAT_EXACT_BOUND:
                    extra["matmul_blas"] += 1

        def read(args, result):
            extra["read_bytes"] += os.path.getsize(args[0])

        def write(args, result):
            extra["write_bytes"] += os.path.getsize(args[1])

        def search(args, result):
            extra["labelled"] += len(result)

        return {"exact_matmul": matmul, "read_matrix": read, "write_matrix": write,
                "write_report": write, "search_deza_digraphs": search,
                "search_dsrg": search}

    # -- reporting ------------------------------------------------------

    def _sum(self, index: int, keys=None, layer=None) -> float:
        total = 0
        for key, rec in self.stats.items():
            if layer is not None and rec[0] != layer:
                continue
            if keys is not None and key not in keys:
                continue
            total += rec[index]
        return total

    def layer_self(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for rec in self.stats.values():
            out[rec[0]] = out.get(rec[0], 0.0) + rec[3]
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer figures summed over everything recorded."""
        calls, incl = 1, 2
        layers = self.layer_self()
        matmul_calls = self._sum(calls, {"matrix_core.exact_matmul"})
        ops = {f"finite_field.FiniteField.{op}" for op in FIELD_OPS}
        out = {
            "finite_field.self_s": layers.get("finite_field", 0.0),
            "finite_field.ops": self._sum(calls, ops),
            "hadamard.self_s": layers.get("hadamard", 0.0),
            "matrix_core.self_s": layers.get("matrix_core", 0.0),
            "matrix_core.matmul_s": self._sum(incl, {"matrix_core.exact_matmul"}),
            "matrix_core.matmul_calls": matmul_calls,
            "matrix_core.matmul_gflop": self.extra["matmul_flop"] / 1e9,
            "matrix_core.matmul_blas_ratio":
                self.extra["matmul_blas"] / matmul_calls if matmul_calls else 0.0,
            "matrix_core.digraph_init_s":
                self._sum(incl, {"matrix_core.Digraph.__post_init__"}),
            "matrix_core.digraph_init_calls":
                self._sum(calls, {"matrix_core.Digraph.__post_init__"}),
            "matrix_core.kron_block_s": self._sum(incl, {
                "matrix_core.kronecker", "matrix_core.block_assemble",
                "matrix_core.circulant"}),
            "construct.self_s": layers.get("construct", 0.0),
            "verify.self_s": layers.get("verify", 0.0),
            "verify.calls": self._sum(calls, layer="verify"),
            "scheme.self_s": layers.get("scheme", 0.0),
            "search.self_s": layers.get("search", 0.0),
            "search.labelled": self.extra["labelled"],
            "canonical.self_s": layers.get("canonical", 0.0),
            "canonical.calls": self._sum(calls, {"decompose_search.canonical_form"}),
            "decompose.self_s": layers.get("decompose", 0.0),
            "decompose.calls": self._sum(calls, layer="decompose"),
            "fileio.read_s": self._sum(incl, {"fileio.read_matrix"}),
            "fileio.read_mb": self.extra["read_bytes"] / 1e6,
            "fileio.write_s": self._sum(incl, {"fileio.write_matrix"}),
            "fileio.write_mb": self.extra["write_bytes"] / 1e6,
            "fileio.report_s": self._sum(incl, {"fileio.report_to_dict",
                                                "fileio.write_report"}),
            "cli.self_s": layers.get("cli", 0.0),
        }
        for fn in VERIFIERS:
            out[f"verify.{fn}_s"] = self._sum(incl, {f"verify.{fn}"})
        return out

    def top(self, count: int = 12) -> list[list]:
        """The functions with the most self time: [key, calls, incl_s, self_s]."""
        rows = sorted(self.stats.items(), key=lambda kv: -kv[1][3])
        return [[k, r[1], round(r[2], 4), round(r[3], 4)]
                for k, r in rows[:count] if r[1]]
