"""Command-line surface: construct families, verify matrices against
every classifier, extract children, decompose, run the identity suite,
search small instances, and test parameter feasibility.

Exit codes: 0 success/verified, 1 verification failed (reports are still
written), 2 usage error, 3 size bound exceeded.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import construct, decompose_search, fileio, scheme, verify
from .finite_field import odd_prime_power_field
from .hadamard import HadamardMatrix, is_normalized, normalize, paley_skew, sylvester
from .matrix_core import Digraph, SizeBoundError, check_order
from .verify import DezaParams

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_SIZE = 3


def normalized_hadamard(order: int) -> HadamardMatrix:
    """Normalized Hadamard matrix of the given order from the built-in
    supply: Sylvester powers of two, otherwise a normalized Paley matrix."""
    if order >= 1 and order & (order - 1) == 0:
        return sylvester(order.bit_length() - 1)
    q = order - 1
    try:
        return normalize(paley_skew(q))
    except ValueError:
        raise ValueError(
            f"no built-in Hadamard matrix of order {order}; supply one via --hadamard")


def _required(args, fam: str, name: str):
    """The value of option --name, which family fam cannot do without."""
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"{fam} needs --{name}")
    return value


def _cmd_construct(args) -> int:
    fam = args.family
    if fam == "lex-product":
        if len(args.inputs) < 2:
            raise ValueError("lex-product needs two input files")
        if len(args.inputs) > 2:
            raise ValueError("lex-product takes exactly two input files")
        d1 = fileio.read_digraph(args.inputs[0])
        d2 = fileio.read_digraph(args.inputs[1])
        fileio.write_matrix(construct.lex_product(d1, d2).adjacency, args.out)
    elif fam == "skew-hadamard":
        if args.hadamard:
            h = HadamardMatrix(fileio.read_matrix(args.hadamard))
        elif args.u is not None:
            h = paley_skew(4 * args.u - 1)
        else:
            raise ValueError("skew-hadamard needs --u or --hadamard")
        fileio.write_matrix(construct.skew_hadamard_deza(h).adjacency, args.out)
    elif fam in ("twin", "twin-directed"):
        if args.hadamard:
            h = HadamardMatrix(fileio.read_matrix(args.hadamard))
            if not is_normalized(h):
                h = normalize(h)
        elif args.order is not None:
            # no matrix can give a twin of order (2n - 1) n over the bound
            if args.order > 0:
                check_order((2 * args.order - 1) * args.order)
            h = normalized_hadamard(args.order)
        else:
            raise ValueError(f"{fam} needs --order or --hadamard")
        if fam == "twin":
            pair = construct.twin_deza(h)
            ra, rb = construct.siamese_reflexive(pair)
        else:
            pair, (ra, rb) = construct.twin_directed(h)
        a, b, base = pair.positive_part, pair.negative_part, args.out
        fileio.write_matrix(a.adjacency - b.adjacency, f"{base}_K.txt")
        fileio.write_matrix(a.adjacency, f"{base}_A.txt")
        fileio.write_matrix(b.adjacency, f"{base}_B.txt")
        fileio.write_matrix(ra.adjacency, f"{base}_RA.txt")
        fileio.write_matrix(rb.adjacency, f"{base}_RB.txt")
    elif fam == "drt":
        fileio.write_matrix(scheme.paley_tournament(_required(args, fam, "q")).adjacency, args.out)
    elif fam == "field-type2":
        field = odd_prime_power_field(_required(args, fam, "q"))
        if not 0 <= args.alpha < field.q:
            raise ValueError(f"--alpha {args.alpha} is not an element index in [0, {field.q})")
        fileio.write_matrix(construct.field_type2(field, field.element(args.alpha)).adjacency,
                            args.out)
    elif fam == "qr-design":
        fileio.write_matrix(construct.qr_symmetric_design(_required(args, fam, "q")), args.out)
    elif fam == "paley-graph":
        fileio.write_matrix(construct.paley_graph(_required(args, fam, "q")).adjacency, args.out)
    elif fam == "empty":
        fileio.write_matrix(construct.empty_digraph(_required(args, fam, "n")).adjacency, args.out)
    else:
        raise ValueError(f"unknown family {fam!r}")
    return EXIT_OK


_CLASSIFIERS = ("deza", "deza2", "dsrg", "ddd", "deza-graph", "reflexive", "design")


def _run_classifier(name: str, d: Digraph, partition,
                    children_prefix: str | None = None) -> dict:
    """One classifier, as a JSON-ready result dict; exceptions become
    failed results with the message as witness.  A deza hit with a
    children prefix also writes its two position digraphs and references
    them."""
    try:
        if name == "deza":
            rep = verify.verify_deza_digraph(d)
        elif name == "deza2":
            rep = verify.verify_type2(d)
        elif name == "dsrg":
            rep = verify.verify_dsrg(d)
        elif name == "deza-graph":
            rep = verify.verify_deza_graph(d, reflexive=False)
        elif name == "reflexive":
            if np.array_equal(d.strip, d.co_strip):
                rep = verify.verify_deza_graph(d, reflexive=True)
            else:
                rep = verify.verify_reflexive_directed_deza(d)
        elif name == "design":
            params = verify.verify_symmetric_design(d)
            return {"classifier": name, "ok": True, "classification": "design",
                    "params": fileio.report_to_dict(params)}
        elif name == "ddd":
            classes = partition
            if classes is None:
                classes = verify.discover_ddd_partition(d)
            if classes is None:
                return {"classifier": name, "ok": False,
                        "witness": "no partition given and discovery failed"}
            rep = verify.verify_ddd(d, classes)
            out = fileio.report_to_dict(rep)
            # ddd results have always carried these two keys, as null
            out.update({"classifier": name, "ok": rep.ok, "partition": classes,
                        "x_positions": None, "y_positions": None})
            return out
        else:
            raise ValueError(f"unknown classifier {name}")
    except ValueError as exc:
        return {"classifier": name, "ok": False, "witness": str(exc)}
    out = fileio.report_to_dict(rep)
    out.update({"classifier": name, "ok": rep.ok})
    if name == "deza" and rep.ok and children_prefix:
        out["children"] = {"x": f"{children_prefix}_X.txt", "y": f"{children_prefix}_Y.txt"}
        _write_children(d, rep.params, out["children"].values())
    return out


def _write_children(d: Digraph, params: DezaParams, paths) -> None:
    """Write the position digraphs X and Y of d, verified with directed
    Deza parameters params, to the two paths."""
    for child, path in zip(verify._children(d, params), paths):
        fileio.write_matrix(child.adjacency, path)


def _read_partition(path: str) -> list[list[int]]:
    classes = []
    for line in Path(path).read_text(encoding="ascii").splitlines():
        line = line.strip()
        if line:
            classes.append([int(tok) for tok in line.split()])
    return classes


def _cmd_verify(args) -> int:
    d = fileio.read_digraph(args.file)
    partition = _read_partition(args.partition) if args.partition else None
    names = [args.classify_as] if args.classify_as else list(_CLASSIFIERS)
    results = [_run_classifier(name, d, partition, args.children_prefix)
               for name in names]
    document = {"file": str(args.file), "order": d.n, "results": results}
    if args.report:
        fileio.write_report(document, args.report)
    for r in results:
        status = "ok" if r.get("ok") else "failed"
        extra = ""
        if r.get("ok") and "params" in r and r["params"]:
            extra = f" params={r['params']}"
        elif r.get("witness"):
            extra = f" witness={r['witness']}"
        print(f"{r['classifier']}: {status}{extra}")
    return EXIT_OK if any(r.get("ok") for r in results) else EXIT_VERIFY_FAILED


def _cmd_children(args) -> int:
    d = fileio.read_digraph(args.file)
    rep = verify.verify_deza_digraph(d)
    if not rep.ok:
        print(f"verification failed: {rep.witness}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    _write_children(d, rep.params, (args.out_x, args.out_y))
    return EXIT_OK


def _cmd_decompose(args) -> int:
    d = fileio.read_digraph(args.file)
    try:
        if args.mode == "b-eq-t":
            dec = decompose_search.decompose_b_eq_t(d)
        else:
            dec = decompose_search.decompose_type2_b_eq_k(d)
    except ValueError as exc:
        print(f"decomposition failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    fileio.write_matrix(dec.quotient.adjacency, args.out_quotient)
    print(f"class size {dec.class_size}, quotient order {dec.quotient.n}")
    return EXIT_OK


def _cmd_check_identities(args) -> int:
    field = odd_prime_power_field(args.q)
    report = construct.check_construction_identities(field)
    for check in report.checks:
        if check.passed:
            print(f"ok   {check.name}")
        else:
            print(f"FAIL {check.name}: first counterexample {check.counterexample}")
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAILED


def _parse_params(text: str) -> DezaParams:
    parts = [int(x) for x in text.split(",")]
    if len(parts) != 5:
        raise ValueError("--params expects five integers n,k,b,a,t")
    return DezaParams(*parts)


def _cmd_search(args) -> int:
    params = _parse_params(args.params)
    hits = decompose_search.search_deza_digraphs(params, limit=args.limit)
    if args.canonical_dedup:
        # a relabelled hit shares its first-block hit's certificate
        unique: dict[bytes, Digraph] = {}
        for d in hits:
            unique.setdefault(decompose_search.canonical_form(d), d)
        hits = list(unique.values())
    for d in hits:
        sys.stdout.buffer.write(fileio.to_digraph6(d) + b"\n")
    print(f"{len(hits)} digraph(s) with parameters {params.as_tuple()}", file=sys.stderr)
    return EXIT_OK


def _cmd_feasibility(args) -> int:
    params = _parse_params(args.params)
    try:
        result = verify.feasibility(params)
    except ValueError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    print(f"alpha = {result.alpha}")
    print(f"beta = {result.beta}")
    print(f"feasible: {result.feasible}" + (f" ({result.reason})" if result.reason else ""))
    return EXIT_OK if result.feasible else EXIT_VERIFY_FAILED


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dezakit",
                                     description="directed Deza graph toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a family member and write it out")
    c.add_argument("family", choices=["lex-product", "skew-hadamard", "twin",
                                      "twin-directed", "drt", "field-type2",
                                      "qr-design", "paley-graph", "empty"])
    c.add_argument("inputs", nargs="*", help="input matrix files (lex-product)")
    c.add_argument("--u", type=int, help="skew-hadamard: order parameter 4u")
    c.add_argument("--hadamard", help="path to a Hadamard matrix file")
    c.add_argument("--order", type=int, help="twin families: Hadamard order n")
    c.add_argument("--q", type=int, help="field-based families: prime power q")
    c.add_argument("--alpha", type=int, default=0,
                   help="field-type2: index of the field element")
    c.add_argument("--n", type=int, help="empty: vertex count")
    c.add_argument("--out", required=True,
                   help="output file (twin families: prefix for _K/_A/_B/_RA/_RB)")
    c.set_defaults(func=_cmd_construct)

    v = sub.add_parser("verify", help="classify a matrix file")
    v.add_argument("file")
    v.add_argument("--as", dest="classify_as", choices=list(_CLASSIFIERS))
    v.add_argument("--partition", help="DDD classes, one line of vertex indices per class")
    v.add_argument("--report", help="write the JSON report here")
    v.add_argument("--children-prefix",
                   help="also write the two position digraphs of a Deza hit "
                        "to <prefix>_X.txt / <prefix>_Y.txt and reference them")
    v.set_defaults(func=_cmd_verify)

    ch = sub.add_parser("children", help="write the two position digraphs")
    ch.add_argument("file")
    ch.add_argument("--out-x", required=True)
    ch.add_argument("--out-y", required=True)
    ch.set_defaults(func=_cmd_children)

    de = sub.add_parser("decompose", help="recover the lexicographic quotient")
    de.add_argument("file")
    de.add_argument("--mode", choices=["b-eq-t", "b-eq-k"], default="b-eq-t")
    de.add_argument("--out-quotient", required=True)
    de.set_defaults(func=_cmd_decompose)

    ci = sub.add_parser("check-identities", help="run the construction identity suite")
    ci.add_argument("--q", type=int, required=True)
    ci.set_defaults(func=_cmd_check_identities)

    se = sub.add_parser("search", help="enumerate digraphs with given parameters")
    se.add_argument("--params", required=True, help="n,k,b,a,t")
    se.add_argument("--limit", type=int)
    se.add_argument("--canonical-dedup", action="store_true")
    se.set_defaults(func=_cmd_search)

    fe = sub.add_parser("feasibility", help="parameter arithmetic checks")
    fe.add_argument("--params", required=True, help="n,k,b,a,t")
    fe.set_defaults(func=_cmd_feasibility)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SizeBoundError as exc:
        print(f"size bound exceeded: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
