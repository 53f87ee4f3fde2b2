"""``cli``: in-process ``dezakit.cli.main(argv)`` over a seeded stream of
calls, one call per job: ``construct`` writes first, then reads
(``verify`` with every classifier and ``--report``, with
``--children-prefix``, with ``--as``; ``children``; ``decompose``;
``search --canonical-dedup``), plus calls that must end in exit codes
1, 2 and 3.

Why: matrix-file parsing and formatting, JSON report building and the
seven-classifier fan-out dominate; writes sit beside reads, so a gain on
one that costs the other shows.  Orders run from 6 to 833.

Each call's exit code is checked against the 0/1/2/3 contract and its
JSON report against the paper's closed forms; a traceback is a failed
job.  Output goes to byte-backed text streams, because ``search``
writes to ``sys.stdout.buffer``.  All files live in the run's own
temporary directory.

The seed picks the nonzero field elements, the complete digraphs and
blow-up orders behind the b = t inputs, and the order of the reads;
none of these changes the amount of work much.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from functools import partial
from pathlib import Path

import numpy as np
from dezakit import cli

import oracles
from common import Job

DRT_Q = (7, 11, 19, 23, 31, 43, 47, 59)
PALEY_Q = (5, 9, 13, 17, 25, 29, 37, 41)
QR_Q = (7, 11, 19, 23)
SKEW_U = (1, 2, 3, 5, 6, 8)
TWIN_N = (2, 4, 8)
TWIN_DIRECTED_N = (4, 8, 16)
# (q, with alpha = 0); each field also gets one seeded nonzero alpha
FIELDS = ((3, True), (5, False), (7, False))
SEARCH_PARAMS = ("6,4,4,2,4", "6,2,1,0,1", "5,1,1,0,0", "5,2,1,0,2")
LEX_COMPLETE = 3     # b = t inputs K_n[empty], n and blow-up order seeded
LEX_DESIGN_Q = (7, 11)


def read_matrix_file(path: Path) -> np.ndarray:
    """Parse the matrix text format without dezakit."""
    tokens = path.read_text(encoding="ascii").split()
    n = int(tokens[0])
    return np.array(tokens[2:], dtype=np.int64).reshape(n, n)


def run_main(argv: list[str]) -> tuple[int, str, str]:
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            code = exc.code if isinstance(exc.code, int) else 2
    out.flush()
    err.flush()
    return (code, out.buffer.getvalue().decode("utf-8"),
            err.buffer.getvalue().decode("utf-8"))


# -- closed forms --------------------------------------------------------------
# Each family maps classifier name -> (ok, classification, params tuple or None)
# for the classifiers whose verdict the paper fixes; the oracles in
# oracles.py re-derive the same facts from the written file.


def drt_forms(q):
    t, k = (q - 3) // 4, (q - 1) // 2
    return {"deza": (True, "deza_digraph", (q, k, t + 1, t, 0))}


def paley_forms(q):
    k, lam, mu = (q - 1) // 2, (q - 5) // 4, (q - 1) // 4
    return {"dsrg": (True, "srg", (q, k, lam, mu, k)),
            "deza-graph": (True, "deza_graph", (q, k, mu, lam))}


def design_forms(q):
    return {"design": (True, "design", (q, (q - 1) // 2, (q - 3) // 4))}


def skew_forms(u):
    n, k = 8 * u, 4 * u - 1
    return {"deza": (True, "deza_digraph", (n, k, k, 2 * u - 1, 0)),
            "ddd": (True, "ddd", (n, k, 0, 2 * u - 1, 4 * u, 2))}


def twin_forms(n, part):
    order = (2 * n - 1) * n
    if part in ("A", "B"):
        return {"deza-graph": (True, "deza_graph",
                               (order, (n - 1) * n, n * (n - 1) // 2, n * (n - 2) // 2))}
    return {"reflexive": (True, "reflexive_deza_graph",
                          (order, n * n, n * (n + 1) // 2, n * n // 2))}


def twin_directed_forms(n, part):
    order, k = (2 * n - 1) * n, n * (n - 1)
    if part in ("A", "B"):
        # the paper's DDD parameters are unrealisable: ddd must fail
        return {"deza2": (True, "typeII", (order, k, n * (n - 1) // 2, n * (n - 2) // 2)),
                "ddd": (False, None, None)}
    return {"reflexive": (True, "reflexive_directed_deza", None)}


def field_forms(q, alpha):
    want = (q * q * (2 * q + 3), 2 * q * q + 2 * q, 3 * q, 2 * q)
    forms = {"deza2": (True, "typeII", want)}
    if alpha == 0:
        forms["deza-graph"] = (True, "deza_graph", want)
    return forms


def complete_lex_forms(n, m):
    k = (n - 1) * m
    return {"deza": (True, "deza_graph", (n * m, k, k, (n - 2) * m, k))}


def design_lex_forms(q, n2):
    k, lam = (q - 1) // 2, (q - 3) // 4
    return {"deza2": (True, "typeII", (q * n2, k * n2, k * n2, lam * n2))}


# report parameters are JSON objects with sorted keys; this order lists
# the fields of every parameter class in their declared order
PARAM_ORDER = ("n", "v", "k", "b", "a", "lam", "mu", "lambda1", "lambda2", "t", "m",
               "n_class")


def params_tuple(params: dict) -> tuple:
    return tuple(params[f] for f in PARAM_ORDER if f in params)


def result_errors(forms: dict, results: list[dict]) -> list[str]:
    by_name = {r["classifier"]: r for r in results}
    errs = []
    for name, (ok, classification, params) in forms.items():
        if name not in by_name:
            errs.append(f"{name}: missing from the report")
            continue
        r = by_name[name]
        got = (bool(r.get("ok")), r.get("classification") if ok else None,
               params_tuple(r["params"]) if ok and params is not None else None)
        if got != (ok, classification, params):
            errs.append(f"{name}: report gives {got}, closed form {(ok, classification, params)}")
    return errs


class Workload:

    def __init__(self, seed: int, workdir: str):
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        rng = random.Random(seed)
        self.files: list[tuple[str, dict, object]] = []  # name, forms, matrix check
        self.writes: list[Job] = []
        self.decomposes: list[tuple[str, str, int]] = []
        self.reports = 0
        self._plan_writes(rng)
        self._plan_reads(rng)
        self.search_classes = 0

    def path(self, name: str) -> str:
        return str(self.dir / name)

    # -- planning ---------------------------------------------------------------

    def _construct(self, family: str, args: list[str], out: str,
                   outputs: list[tuple[str, dict, object]]):
        argv = ["construct", family, *args, "--out", self.path(out)]
        self.files.extend(outputs)
        checks = [(name, check) for name, _forms, check in outputs]
        self.writes.append(self._job(f"construct:{out}", argv, 0, checks=checks))

    def _plan_writes(self, rng):
        def one(family, args, name, forms, check):
            self._construct(family, args, name, [(name, forms, check)])

        for q in DRT_Q:
            one("drt", ["--q", str(q)], f"drt{q}.txt", drt_forms(q),
                partial(oracles.drt_errors, q=q))
        for q in PALEY_Q:
            one("paley-graph", ["--q", str(q)], f"paley{q}.txt", paley_forms(q),
                partial(oracles.paley_graph_errors, q=q))
        for q in QR_Q:
            one("qr-design", ["--q", str(q)], f"qr{q}.txt", design_forms(q),
                partial(oracles.qr_design_errors, q=q))
        for u in SKEW_U:
            one("skew-hadamard", ["--u", str(u)], f"skew{u}.txt", skew_forms(u),
                partial(oracles.skew_errors, u=u))
        for n in TWIN_N:
            checks = {"A": oracles.twin_part_errors, "B": oracles.twin_part_errors,
                      "RA": oracles.siamese_errors, "RB": oracles.siamese_errors}
            self._construct("twin", ["--order", str(n)], f"twin{n}",
                            [(f"twin{n}_{p}.txt", twin_forms(n, p), partial(check, n=n))
                             for p, check in checks.items()])
        for n in TWIN_DIRECTED_N:
            checks = {"A": oracles.directed_twin_part_errors,
                      "B": oracles.directed_twin_part_errors,
                      "RA": oracles.directed_reflexive_errors}
            self._construct("twin-directed", ["--order", str(n)], f"dtwin{n}",
                            [(f"dtwin{n}_{p}.txt", twin_directed_forms(n, p),
                              partial(check, n=n)) for p, check in checks.items()])
        for q, with_zero in FIELDS:
            for alpha in ((0,) if with_zero else ()) + (rng.randrange(1, q),):
                one("field-type2", ["--q", str(q), "--alpha", str(alpha)],
                    f"field{q}_{alpha}.txt", field_forms(q, alpha),
                    partial(oracles.field_type2_errors, q=q, alpha=alpha))
        for n2 in (2, 3):
            self._construct("empty", ["--n", str(n2)], f"empty{n2}.txt", [])
        # b = t inputs: complete digraphs K_n written by the benchmark, then
        # blown up by the CLI; the quotient must come back as K_n
        for i in range(LEX_COMPLETE):
            n, m = rng.randrange(3, 7), rng.choice((2, 3))
            k_n = f"complete{i}.txt"
            Path(self.path(k_n)).write_text(f"{n} binary\n" + "\n".join(
                " ".join("0" if r == c else "1" for c in range(n)) for r in range(n)) + "\n")
            out = f"lexk{i}.txt"
            self._construct("lex-product", [self.path(k_n), self.path(f"empty{m}.txt")], out,
                            [(out, complete_lex_forms(n, m), None)])
            self.decomposes.append((out, "b-eq-t", n))
        for q in LEX_DESIGN_Q:
            n2 = rng.choice((2, 3))
            out = f"lexqr{q}.txt"
            self._construct("lex-product", [self.path(f"qr{q}.txt"),
                                            self.path(f"empty{n2}.txt")], out,
                            [(out, design_lex_forms(q, n2), None)])
            self.decomposes.append((out, "b-eq-k", q))

    def _plan_reads(self, rng):
        reads = []
        for name, forms, _check in self.files:
            reads.append(self._verify(name, forms, []))
            reads.append(self._verify(name, forms, ["--as", next(iter(forms))]))
            if forms.get("deza", (False,))[0] and forms["deza"][1] == "deza_digraph":
                prefix = name.replace(".txt", "_kids")
                reads.append(self._verify(name, forms, ["--children-prefix",
                                                        self.path(prefix)]))
                reads.append(self._job(f"children:{name}", [
                    "children", self.path(name), "--out-x", self.path(f"{prefix}_cx.txt"),
                    "--out-y", self.path(f"{prefix}_cy.txt")], 0))
        for name, mode, order in self.decomposes:
            reads.append(self._job(f"decompose:{name}", [
                "decompose", self.path(name), "--mode", mode,
                "--out-quotient", self.path(f"quot_{name}")], 0,
                expect_stdout=f"quotient order {order}"))
        for params in SEARCH_PARAMS:
            reads.append(self._job(f"search:{params}", [
                "search", "--params", params, "--canonical-dedup"], 0, search=True))
        # calls the contract sends to exit codes 1, 2 and 3
        reads += [
            self._job("verify-as-deza-graph:drt7", ["verify", self.path("drt7.txt"),
                                                    "--as", "deza-graph"], 1),
            self._job("decompose:drt7", ["decompose", self.path("drt7.txt"),
                                         "--out-quotient", self.path("q_bad.txt")], 1),
            self._job("feasibility:8,3,3,1,1", ["feasibility", "--params", "8,3,3,1,1"], 1),
            self._job("construct:no-u", ["construct", "skew-hadamard",
                                         "--out", self.path("bad.txt")], 2),
            self._job("construct:drt9", ["construct", "drt", "--q", "9",
                                         "--out", self.path("bad.txt")], 2),
            self._job("construct:unknown", ["construct", "nosuch", "--out",
                                            self.path("bad.txt")], 2),
            self._job("children:loops", ["children", self.path("dtwin4_RA.txt"),
                                         "--out-x", self.path("bx.txt"),
                                         "--out-y", self.path("by.txt")], 2),
            self._job("search:order11", ["search", "--params", "11,2,1,0,1"], 3),
        ]
        rng.shuffle(reads)
        self.reads = reads

    # -- jobs ---------------------------------------------------------------------

    def _verify(self, name: str, forms: dict, extra: list[str]) -> Job:
        self.reports += 1
        report = self.path(f"report{self.reports}.json")
        argv = ["verify", self.path(name), "--report", report, *extra]
        if extra and extra[0] == "--as":
            wanted = {extra[1]: forms[extra[1]]}
            code = 0 if forms[extra[1]][0] else 1
        else:
            wanted, code = forms, 0
        return self._job(f"verify:{name}:{' '.join(extra) or 'all'}", argv, code,
                         report=(report, wanted))

    def _job(self, name, argv, code, checks=(), report=None, expect_stdout=None,
             search=False) -> Job:
        def run():
            got, out, err = run_main(argv)
            if search:
                self.search_classes += len(out.splitlines())
            return {"exit": got, "stdout": out, "stderr": err}, None

        def expect(s):
            errs = [] if s["exit"] == code else [f"exit code {s['exit']}, expected {code}"]
            if "Traceback" in s["stderr"]:
                errs.append("traceback on stderr")
            if expect_stdout is not None and expect_stdout not in s["stdout"]:
                errs.append(f"stdout lacks {expect_stdout!r}")
            if search and s["exit"] == 0 and not s["stdout"]:
                errs.append("search found nothing")
            if report is not None and s["exit"] in (0, 1):
                results = json.loads(Path(report[0]).read_text())["results"]
                errs += result_errors(report[1], results)
            return errs

        def deep(s, _art):
            errs = []
            for out_name, check in checks:
                if check is not None:
                    errs += [f"{out_name}: {e}"
                             for e in check(read_matrix_file(self.dir / out_name))]
            return errs

        return Job(name, run, expect, deep)

    def jobs(self):
        self.search_classes = 0
        yield from self.writes
        yield from self.reads

    def pass_stats(self) -> dict:
        return {"search_classes": self.search_classes}
