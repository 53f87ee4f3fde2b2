import contextlib
import io
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import dezakit as dz
from dezakit.cli import _CLASSIFIERS, main
from dezakit.fileio import (MatrixParseError, _digraph6_order_bytes, _matrix_text,
                            _scan_matrix, load_report, read_digraph,
                            read_matrix, to_digraph6, write_matrix,
                            write_report)
from dezakit.hadamard import is_normalized
from dezakit.matrix_core import MAX_ORDER, Digraph

from conftest import (DEZA_8_3_3_1_0, DEZA_8_4_3_1_1, NORMALIZED_HADAMARD_4,
                      SKEW_HADAMARD_4)


def decode_digraph6(data: bytes) -> np.ndarray:
    """Independent decoder following the standard byte layout."""
    assert data[:1] == b"&"
    body = data[1:]
    if body[0] == 126:
        n = ((body[1] - 63) << 12) | ((body[2] - 63) << 6) | (body[3] - 63)
        body = body[4:]
    else:
        n = body[0] - 63
        body = body[1:]
    bits = []
    for ch in body:
        v = ch - 63
        bits.extend((v >> (5 - i)) & 1 for i in range(6))
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(n * n):
        m[i // n, i % n] = bits[i]
    return m


def digraph6_bit_loop(d: Digraph) -> bytes:
    """digraph6 packed one bit at a time: the oracle for to_digraph6."""
    out = bytearray(b"&")
    out += _digraph6_order_bytes(d.n)
    acc = 0
    count = 0
    for b in d.adjacency.reshape(-1):
        acc = (acc << 1) | int(b)
        count += 1
        if count == 6:
            out.append(acc + 63)
            acc = 0
            count = 0
    if count:
        acc <<= (6 - count)
        out.append(acc + 63)
    return bytes(out)


@st.composite
def small_matrices(draw, max_order=40):
    """A square matrix of order 1..max_order, binary or signed."""
    n = draw(st.integers(1, max_order))
    low = draw(st.sampled_from([0, -1]))
    return draw(arrays(np.int64, (n, n), elements=st.integers(low, 1)))


# bytes a one-byte edit draws from: digits, sign, and separators
# that str.split or str.splitlines treat specially
EDIT_BYTES = b"01-\n\r\t\x0b\x0c "


@st.composite
def edited_files(draw):
    """The bytes write_matrix writes for a small matrix, after one edit."""
    data = _matrix_text(draw(small_matrices(max_order=6)))
    edit = draw(st.sampled_from(["change", "insert", "delete", "blank line",
                                 "extra row", "no final newline", "crlf"]))
    if edit in ("change", "insert", "delete"):
        i = draw(st.integers(0, len(data) - (edit != "insert")))
        byte = bytes([draw(st.sampled_from(EDIT_BYTES))])
        tail = data[i:] if edit == "insert" else data[i + 1:]
        return data[:i] + (b"" if edit == "delete" else byte) + tail
    if edit == "blank line":
        return data + b"\n"
    if edit == "extra row":
        return data + data.split(b"\n")[1] + b"\n"
    if edit == "no final newline":
        return data[:-1]
    return data.replace(b"\n", b"\r\n")


@given(small_matrices())
def test_matrix_round_trip_property(tmp_path_factory, m):
    path = tmp_path_factory.getbasetemp() / "round_trip.txt"
    write_matrix(m, path)
    got = read_matrix(path)
    assert got.dtype == np.int64 and np.array_equal(got, m)


@given(edited_files())
@example(b"2\x0bbinary\n0 1\n1 0\n")  # str.splitlines breaks at \x0b
# the short-row check counts characters after CRLF becomes LF: here it
# reports line 3, where counting the CRs would report line 2
@example(b"6 binary\r\n0 0 0 0 0 0 0\r\n0\r\n" + b"0 0 0 0 0\r\n" * 4)
def test_read_matrix_agrees_with_the_scan(tmp_path_factory, data):
    # the oracle is the token scan over the file read in text mode, as
    # every file was read before the canonical fast path existed
    path = tmp_path_factory.getbasetemp() / "edited.txt"
    path.write_bytes(data)
    try:
        want = _scan_matrix(path.read_text(encoding="ascii"))
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            read_matrix(path)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
    else:
        got = read_matrix(path)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_matrix_round_trip(tmp_path):
    path = tmp_path / "m.txt"
    write_matrix(DEZA_8_3_3_1_0, path)
    assert np.array_equal(read_matrix(path), DEZA_8_3_3_1_0)
    assert path.read_text().splitlines()[0] == "8 binary"


def test_signed_round_trip(tmp_path):
    h = dz.HadamardMatrix(NORMALIZED_HADAMARD_4)
    pair = dz.twin_deza(h)
    path = tmp_path / "k.txt"
    write_matrix(pair.signed.matrix, path)
    assert path.read_text().splitlines()[0] == "28 signed"
    assert np.array_equal(read_matrix(path), pair.signed.matrix)


def test_matrix_text_makes_no_int64_temporary():
    # the text of a 0/1 matrix is 2 n^2 bytes, written once with its
    # header; a signed one is written as 3 n^2 bytes with sign bytes, then
    # copied without the 0 ones: about 5.5 n^2.  An n x n int64 temporary
    # would add 8 n^2 to either, a second copy of the text 2 n^2.
    pair, _ = dz.twin_directed(dz.sylvester(4))
    for m, bound in ((pair.positive_part.adjacency, 3), (pair.signed.matrix, 6)):
        n = m.shape[0]
        tracemalloc.start()
        try:
            text = _matrix_text(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == 496 and peak < bound * n * n
        assert np.array_equal(_scan_matrix(text.decode("ascii")), m)


@pytest.mark.parametrize("m,message", [
    (np.array([[2]]), "entry 2 outside alphabet signed"),
    (np.array([[0, -2], [1, 0]]), "entry -2 outside alphabet signed"),
    (np.zeros((0, 0), dtype=np.int64), "order must be positive"),
])
def test_write_matrix_refuses_what_read_matrix_rejects(tmp_path, m, message):
    path = tmp_path / "m.txt"
    with pytest.raises(ValueError, match=message):
        write_matrix(m, path)
    assert not path.exists()


def test_read_matrix_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 binary\n0 1\n0\n")
    with pytest.raises(MatrixParseError) as exc:
        read_matrix(path)
    assert exc.value.line == 3
    path.write_text("2 binary\n0 2\n0 0\n")
    with pytest.raises(MatrixParseError) as exc:
        read_matrix(path)
    assert exc.value.line == 2 and exc.value.column == 2
    path.write_text("2 trits\n0 1\n0 0\n")
    with pytest.raises(MatrixParseError):
        read_matrix(path)
    path.write_text("2 binary\n0 x\n0 0\n")
    with pytest.raises(MatrixParseError):
        read_matrix(path)
    path.write_text("0 binary\n")
    with pytest.raises(MatrixParseError) as exc:
        read_matrix(path)
    assert exc.value.line == 1 and exc.value.column == 1


@pytest.mark.parametrize("alphabet, token", [
    ("binary", "0_1"), ("binary", "+1"), ("binary", "01"), ("binary", "00"),
    ("binary", "-0"), ("binary", "-1"), ("binary", "2"), ("binary", "x"),
    ("signed", "+1"), ("signed", "-01"), ("signed", "-0"), ("signed", "1_0"),
    ("signed", "\u0661"), ("signed", "--1")])
def test_read_matrix_accepts_only_the_alphabets_spellings(tmp_path, capsys, alphabet, token):
    # int() would read each of these as an entry, or as one outside the
    # alphabet; only 0, 1 and, in a signed file, -1 are entries
    path = tmp_path / "odd.txt"
    path.write_text(f"2 {alphabet}\n0 1\n1 {token}\n", encoding="utf-8")
    with pytest.raises(MatrixParseError) as exc:
        _scan_matrix(path.read_text(encoding="utf-8"))
    assert (exc.value.line, exc.value.column) == (3, 2)
    assert f"token {token!r} outside alphabet {alphabet}" in str(exc.value)
    if token.isascii():
        with pytest.raises(MatrixParseError):
            read_matrix(path)
        assert run_cli("verify", path) == 2
        assert capsys.readouterr().err == f"error: {exc.value}\n"


def test_read_matrix_reads_each_spelling():
    text = "3 signed\n-1 0 1\n1 -1 0\n0 1 -1\n"
    assert _scan_matrix(text).tolist() == [[-1, 0, 1], [1, -1, 0], [0, 1, -1]]
    assert _scan_matrix("2 binary\n 0\t1 \n1  0\n").tolist() == [[0, 1], [1, 0]]


@pytest.mark.parametrize("last", ["1 1", "garbage here"])
def test_cli_rejects_content_after_the_last_row(tmp_path, capsys, last):
    path = tmp_path / "extra.txt"
    path.write_text(f"2 binary\n0 1\n1 0\n{last}\n")
    assert run_cli("verify", path, "--as", "dsrg") == 2
    err = capsys.readouterr().err
    assert err == "error: line 4, column 1: content after the last of 2 rows\n"


def test_read_matrix_accepts_trailing_blank_lines(tmp_path):
    path = tmp_path / "blank.txt"
    path.write_text("2 binary\n0 1\n1 0\n\n \t\n")
    assert np.array_equal(read_matrix(path), [[0, 1], [1, 0]])


def test_read_digraph_loops_flag(tmp_path):
    path = tmp_path / "loopy.txt"
    write_matrix(np.eye(3, dtype=np.int64), path)
    d = read_digraph(path)
    assert d.loops_allowed


def test_digraph6_empty_five():
    assert to_digraph6(dz.empty_digraph(5)) == b"&D?????"


@pytest.mark.parametrize("n", [1, 2, 5, 17, 62, 63, 100])
def test_digraph6_round_trip(n):
    rng = np.random.default_rng(n)
    m = (rng.random((n, n)) < 0.3).astype(np.int64)
    np.fill_diagonal(m, 0)
    d = Digraph(m)
    assert np.array_equal(decode_digraph6(to_digraph6(d)), m)


@pytest.mark.parametrize("kind", ["random", "empty", "complete"])
def test_digraph6_matches_bit_loop(kind):
    # orders 62 and 63 straddle the one- and four-byte order encodings;
    # 258 is the largest order exported
    rng = np.random.default_rng(6)
    for n in [*range(1, 71), 258]:
        if kind == "random":
            m = (rng.random((n, n)) < 0.5).astype(np.int64)
        else:
            m = np.full((n, n), int(kind == "complete"), dtype=np.int64)
        np.fill_diagonal(m, 0)
        d = Digraph(m)
        assert to_digraph6(d) == digraph6_bit_loop(d), n


def test_digraph6_rejects_loops_and_large():
    with pytest.raises(ValueError):
        to_digraph6(Digraph(np.eye(2, dtype=np.int64), loops_allowed=True))
    with pytest.raises(ValueError):
        to_digraph6(dz.empty_digraph(300))


def test_report_round_trip(tmp_path):
    doc = {"order": 8, "results": [{"classifier": "deza", "ok": True,
                                    "params": {"n": 8, "k": 3}}]}
    path = tmp_path / "r.json"
    write_report(doc, path)
    assert load_report(path) == doc
    # a numpy member is written as nested lists of ints, bools as 0/1
    write_report({"x": np.eye(2, dtype=bool), "y": np.eye(2, dtype=np.int64)}, path)
    assert path.read_text().count("true") == 0
    assert load_report(path) == {"x": [[1, 0], [0, 1]], "y": [[1, 0], [0, 1]]}


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_cli_construct_and_verify(tmp_path):
    out = tmp_path / "m1.txt"
    report = tmp_path / "m1.json"
    assert run_cli("construct", "skew-hadamard", "--u", 1, "--out", out) == 0
    assert run_cli("verify", out, "--as", "deza", "--report", report) == 0
    doc = load_report(report)
    assert doc["results"][0]["params"] == {"n": 8, "k": 3, "b": 3, "a": 1, "t": 0}
    assert doc["results"][0]["alpha"] == 6 and doc["results"][0]["beta"] == 1


def test_cli_verify_all_classifiers(tmp_path):
    out = tmp_path / "drt.txt"
    report = tmp_path / "drt.json"
    assert run_cli("construct", "drt", "--q", 7, "--out", out) == 0
    assert run_cli("verify", out, "--report", report) == 0
    doc = load_report(report)
    by_name = {r["classifier"]: r for r in doc["results"]}
    assert by_name["deza"]["ok"] and by_name["dsrg"]["ok"]
    assert not by_name["deza-graph"]["ok"]


def test_cli_verify_failure_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    m = np.zeros((3, 3), dtype=np.int64)
    m[0, 1] = m[0, 2] = m[1, 2] = 1
    write_matrix(m, bad)
    report = tmp_path / "bad.json"
    assert run_cli("verify", bad, "--as", "deza", "--report", report) == 1
    assert load_report(report)["results"][0]["ok"] is False


def test_cli_verify_ddd_with_partition(tmp_path, deza_8_3):
    mfile = tmp_path / "m.txt"
    write_matrix(deza_8_3.adjacency, mfile)
    pfile = tmp_path / "classes.txt"
    pfile.write_text("0 1\n2 3\n4 5\n6 7\n")
    report = tmp_path / "ddd.json"
    assert run_cli("verify", mfile, "--as", "ddd", "--partition", pfile,
                   "--report", report) == 0
    doc = load_report(report)
    assert doc["results"][0]["params"]["lambda2"] == 1


def test_cli_verify_ddd_rejects_overlapping_classes(tmp_path, capsys):
    mfile, pfile = tmp_path / "s.txt", tmp_path / "p.txt"
    assert run_cli("construct", "skew-hadamard", "--u", 1, "--out", mfile) == 0
    # five classes of two on eight vertices: 0 and 1 lie in two classes
    pfile.write_text("0 1\n0 1\n2 3\n4 5\n6 7\n")
    capsys.readouterr()
    assert run_cli("verify", mfile, "--as", "ddd", "--partition", pfile) == 1
    assert capsys.readouterr().out == (
        "ddd: failed witness=partition does not cover the vertex set exactly once\n")


def test_cli_children(tmp_path, deza_8_3):
    mfile = tmp_path / "m.txt"
    write_matrix(deza_8_3.adjacency, mfile)
    out_x, out_y = tmp_path / "x.txt", tmp_path / "y.txt"
    assert run_cli("children", mfile, "--out-x", out_x, "--out-y", out_y) == 0
    x, y = read_matrix(out_x), read_matrix(out_y)
    assert np.array_equal(x + y + np.eye(8, dtype=np.int64), np.ones((8, 8), dtype=np.int64))



def test_cli_children_of_a_non_member(tmp_path, capsys):
    mfile = tmp_path / "m.txt"
    m = np.zeros((3, 3), dtype=np.int64)
    m[0, 1] = m[0, 2] = m[1, 2] = 1
    write_matrix(m, mfile)
    out_x, out_y = tmp_path / "x.txt", tmp_path / "y.txt"
    capsys.readouterr()
    assert run_cli("children", mfile, "--out-x", out_x, "--out-y", out_y) == 1
    assert capsys.readouterr().err.startswith("verification failed: ")
    assert not out_x.exists() and not out_y.exists()

@pytest.mark.parametrize("command", ["children", "verify"])
def test_cli_verifies_once_before_it_writes_children(tmp_path, monkeypatch, deza_8_3,
                                                     command):
    mfile, prefix = tmp_path / "m.txt", tmp_path / "kids"
    write_matrix(deza_8_3.adjacency, mfile)
    calls, inner = [], dz.verify.verify_deza_digraph
    monkeypatch.setattr(dz.verify, "verify_deza_digraph", lambda d: calls.append(d) or inner(d))
    argv = (("children", mfile, "--out-x", f"{prefix}_X.txt", "--out-y", f"{prefix}_Y.txt")
            if command == "children" else
            ("verify", mfile, "--as", "deza", "--children-prefix", prefix))
    assert run_cli(*argv) == 0
    assert len(calls) == 1
    x, y = dz.deza_children(deza_8_3)
    assert np.array_equal(read_matrix(f"{prefix}_X.txt"), x.adjacency)
    assert np.array_equal(read_matrix(f"{prefix}_Y.txt"), y.adjacency)


def test_cli_verify_children_references(tmp_path, deza_8_3):
    mfile = tmp_path / "m.txt"
    write_matrix(deza_8_3.adjacency, mfile)
    report = tmp_path / "r.json"
    prefix = tmp_path / "kids"
    assert run_cli("verify", mfile, "--as", "deza", "--report", report,
                   "--children-prefix", prefix) == 0
    doc = load_report(report)
    refs = doc["results"][0]["children"]
    x = read_matrix(refs["x"])
    y = read_matrix(refs["y"])
    assert np.array_equal(x + y + np.eye(8, dtype=np.int64), np.ones((8, 8), dtype=np.int64))


def test_cli_twin_family(tmp_path):
    base = tmp_path / "twin"
    assert run_cli("construct", "twin", "--order", 4, "--out", base) == 0
    a = read_matrix(f"{base}_A.txt")
    rep = dz.verify_deza_graph(Digraph(a))
    assert rep.params.as_tuple() == (28, 12, 6, 4)
    ra = read_matrix(f"{base}_RA.txt")
    rep = dz.verify_deza_graph(Digraph(ra, loops_allowed=True), reflexive=True)
    assert rep.params.as_tuple() == (28, 16, 10, 8)
    k = read_matrix(f"{base}_K.txt")
    assert set(np.unique(k)) <= {-1, 0, 1}



def test_cli_twin_normalizes_a_supplied_hadamard(tmp_path):
    # SKEW_HADAMARD_4 has -1s in its first column, so the CLI normalizes it
    assert not is_normalized(dz.HadamardMatrix(SKEW_HADAMARD_4))
    raw, normal = tmp_path / "raw.txt", tmp_path / "normal.txt"
    write_matrix(SKEW_HADAMARD_4, raw)
    write_matrix(dz.normalize(dz.HadamardMatrix(SKEW_HADAMARD_4)).matrix, normal)
    for family in ("twin", "twin-directed"):
        for h in (raw, normal):
            assert run_cli("construct", family, "--hadamard", h,
                           "--out", tmp_path / f"{family}_{h.stem}") == 0
        for suffix in ("_K", "_A", "_B", "_RA", "_RB"):
            assert (tmp_path / f"{family}_raw{suffix}.txt").read_bytes() == \
                (tmp_path / f"{family}_normal{suffix}.txt").read_bytes()


def test_cli_skew_hadamard_from_a_file(tmp_path):
    h, out = tmp_path / "h.txt", tmp_path / "s.txt"
    write_matrix(SKEW_HADAMARD_4, h)
    assert run_cli("construct", "skew-hadamard", "--hadamard", h, "--out", out) == 0
    expected = dz.skew_hadamard_deza(dz.HadamardMatrix(SKEW_HADAMARD_4))
    assert np.array_equal(read_matrix(out), expected.adjacency)
    assert dz.verify_deza_digraph(read_digraph(out)).params.as_tuple() == (8, 3, 3, 1, 0)

def test_cli_decompose(tmp_path):
    design = tmp_path / "fano.txt"
    assert run_cli("construct", "qr-design", "--q", 7, "--out", design) == 0
    lexed = tmp_path / "lexed.txt"
    write_matrix(dz.design_lex_empty(read_matrix(design), 2).adjacency, lexed)
    quotient = tmp_path / "q.txt"
    assert run_cli("decompose", lexed, "--mode", "b-eq-k",
                   "--out-quotient", quotient) == 0
    assert dz.verify_symmetric_design(read_matrix(quotient)).as_tuple() == (7, 3, 1)


def test_cli_decompose_failure(tmp_path, deza_8_3):
    mfile = tmp_path / "m.txt"
    write_matrix(deza_8_3.adjacency, mfile)
    assert run_cli("decompose", mfile, "--mode", "b-eq-t",
                   "--out-quotient", tmp_path / "q.txt") == 1


def test_cli_check_identities():
    assert run_cli("check-identities", "--q", 3) == 0


@pytest.mark.parametrize("q, code", [(9, 3), (11, 3), (12, 2)])
def test_cli_check_identities_bounds(capsys, q, code):
    # q = 9 and 11 are past the suite's declared size bound; 12 is no
    # prime power, a usage error
    assert run_cli("check-identities", "--q", q) == code
    err = capsys.readouterr().err
    assert err.startswith("size bound exceeded:" if code == 3 else "error:")


def test_cli_search_and_feasibility(capsys):
    assert run_cli("search", "--params", "5,1,1,0,0", "--limit", 2) == 0
    captured = capsys.readouterr()
    assert len(captured.out.strip().splitlines()) == 2
    assert run_cli("feasibility", "--params", "8,3,3,1,0") == 0
    assert run_cli("feasibility", "--params", "8,3,3,1,1") == 1
    capsys.readouterr()
    # a loop-free digraph of order 2 has out-degree at most 1
    assert run_cli("feasibility", "--params", "2,2,2,2,2") == 1
    assert capsys.readouterr().err == ("infeasible: parameter invariants violated for "
                                       "DezaParams(n=2, k=2, b=2, a=2, t=2)\n")


def test_cli_feasibility_with_undefined_counts(capsys):
    assert run_cli("feasibility", "--params", "2,1,0,0,0") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "infeasible: a = b = 0 with k^2 = 1 != t = 0: counts undefined\n"


def test_cli_search_canonical_dedup(capsys):
    assert run_cli("search", "--params", "5,1,1,0,0", "--canonical-dedup") == 0
    captured = capsys.readouterr()
    assert len(captured.out.strip().splitlines()) == 1


def feasible_tuples(max_order: int):
    """Every feasible (n, k, b, a, t) with n <= max_order."""
    for n in range(1, max_order + 1):
        for k in range(n):
            for b in range(k + 1):
                for a in range(b + 1):
                    for t in range(k + 1):
                        params = dz.DezaParams(n, k, b, a, t)
                        try:
                            if dz.feasibility(params).feasible:
                                yield params
                        except ValueError:
                            continue


def test_cli_canonical_dedup_prints_the_first_hit_of_every_class(capsys):
    # the CLI's relabelled hits share the certificate of their first-block
    # hit; the oracle deduplicates every labelled hit up to the limit by a
    # certificate of its own
    for params in feasible_tuples(6):
        for limit in (None, 1, 7):
            seen, want = set(), []
            for d in dz.search_deza_digraphs(params, limit):
                key = dz.canonical_form(Digraph(d.adjacency.copy()))
                if key not in seen:
                    seen.add(key)
                    want.append(to_digraph6(d).decode("ascii") + "\n")
            argv = ["search", "--params", ",".join(map(str, params.as_tuple())),
                    "--canonical-dedup"] + ([] if limit is None else ["--limit", limit])
            assert run_cli(*argv) == 0
            assert capsys.readouterr().out == "".join(want), (params, limit)


def test_cli_search_rejects_broken_invariants(capsys):
    # a > b, a negative k and t, a negative a and b, and k = n = 0: one
    # line on stderr and exit 2, as feasibility rejects them
    for params in ("6,2,0,1,1", "4,1,0,1,0", "3,-1,0,0,-2", "4,2,-1,-3,2", "0,0,0,0,0"):
        assert run_cli("search", "--params", params) == 2, params
        err = capsys.readouterr().err
        assert err.startswith("error: parameter invariants violated for DezaParams(")
        assert err.count("\n") == 1 and "Traceback" not in err, err


def test_cli_size_bound_exit():
    assert run_cli("search", "--params", "12,2,1,0,0") == 3


def test_cli_usage_error(tmp_path, capsys):
    out = tmp_path / "x.txt"
    empty = tmp_path / "empty.txt"
    empty.write_text("0 binary\n")
    rows = [
        (("construct", "skew-hadamard", "--out", out), "skew-hadamard needs --u or --hadamard"),
        (("construct", "drt", "--out", out), "drt needs --q"),
        (("construct", "field-type2", "--out", out), "field-type2 needs --q"),
        (("construct", "qr-design", "--out", out), "qr-design needs --q"),
        (("construct", "paley-graph", "--out", out), "paley-graph needs --q"),
        (("construct", "empty", "--out", out), "empty needs --n"),
        (("construct", "lex-product", "--out", out), "lex-product needs two input files"),
        (("construct", "lex-product", empty, "--out", out), "lex-product needs two input files"),
        (("construct", "lex-product", empty, empty, empty, "--out", out),
         "lex-product takes exactly two input files"),
        # zero is a value, so the error is about it and not a missing option
        (("construct", "skew-hadamard", "--u", 0, "--out", out), "-1 is not a prime power"),
        (("construct", "twin", "--order", 0, "--out", out),
         "no built-in Hadamard matrix of order 0"),
        (("construct", "field-type2", "--q", 3, "--alpha", 99, "--out", out), "--alpha 99"),
        (("construct", "field-type2", "--q", 3, "--alpha", -1, "--out", out), "--alpha -1"),
        (("verify", empty), "line 1, column 1"),
        (("search", "--params", "6,2,1,0,1", "--limit", -2), "limit -2 is negative"),
    ]
    for argv, message in rows:
        assert run_cli(*argv) == 2, argv
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err, (argv, err)
    assert not out.exists()
    with pytest.raises(SystemExit) as exc:
        run_cli("verify")
    assert exc.value.code == 2


def test_cli_non_ascii_file(tmp_path, capsys):
    # recorded from reading the file in text mode; reading bytes keeps it
    path = tmp_path / "latin.txt"
    path.write_bytes(b"2 binary\n0 \xff\n1 0\n")
    assert run_cli("verify", path) == 2
    assert capsys.readouterr().err == ("error: 'ascii' codec can't decode byte 0xff "
                                       "in position 11: ordinal not in range(128)\n")


def test_cli_large_prime_fails_at_once(tmp_path, capsys):
    # trial division stops at sqrt(q), about 31,600 steps, before the
    # field's order bound rejects q; dividing up to q took over a minute
    out = tmp_path / "drt.txt"
    start = time.perf_counter()
    assert run_cli("construct", "drt", "--q", 1000000007, "--out", out) == 3
    assert time.perf_counter() - start < 5
    assert "exceeds the bound" in capsys.readouterr().err and not out.exists()


def test_cli_huge_q_rejected_before_factoring(tmp_path, capsys):
    # q > 2^16 fails the field's order bound before any trial division;
    # factoring this 16-digit prime first took seconds
    out = tmp_path / "drt.txt"
    start = time.perf_counter()
    assert run_cli("construct", "drt", "--q", 1000000000000037, "--out", out) == 3
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "field order 1000000000000037 exceeds the bound 65536" in err
    assert not out.exists()


@pytest.mark.parametrize("q, message", [
    (16411, "order 16411 exceeds the bound 16384"),
    (65539, "field order 65539 exceeds the bound 65536"),
], ids=["matrix-bound", "field-bound"])
def test_cli_field_and_matrix_order_bounds_both_exit_3(tmp_path, capsys, q, message):
    # both primes are 3 mod 4; one passes the field's bound and fails the
    # matrix order bound, the other fails the field's bound
    out = tmp_path / "drt.txt"
    assert run_cli("construct", "drt", "--q", q, "--out", out) == 3
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err and not out.exists()


def test_cli_short_file_with_large_header(tmp_path, capsys):
    # order 50,000 would be a 20 GB array; the header is refused before the body
    path = tmp_path / "huge.txt"
    path.write_text("50000 binary\n" + "\n" * 50000)
    assert run_cli("verify", path) == 3
    assert "order 50000 exceeds the bound 16384" in capsys.readouterr().err


@pytest.mark.parametrize("order, code", [
    (str(MAX_ORDER + 1), 3), ("0" + str(MAX_ORDER + 1), 3), ("9" * 5000, 3), (str(MAX_ORDER), 2),
], ids=["bound+1", "leading-zero", "5000-digits", "bound"])
def test_cli_header_order_bound(tmp_path, capsys, order, code):
    # a header-only file: an order over MAX_ORDER is a size error, found
    # before any row is read; at the bound the missing rows are a parse error
    path = tmp_path / "header.txt"
    path.write_text(f"{order} binary\n")
    assert run_cli("verify", path) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert ("size bound exceeded" in err) == (code == 3), err


def test_cli_field_type2(tmp_path):
    out = tmp_path / "n1.txt"
    assert run_cli("construct", "field-type2", "--q", 3, "--alpha", 1,
                   "--out", out) == 0
    rep = dz.verify_type2(read_digraph(out))
    assert rep.params.as_tuple() == (81, 24, 9, 6)


def test_cli_lex_product(tmp_path):
    a, b, out = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "ab.txt"
    assert run_cli("construct", "drt", "--q", 3, "--out", a) == 0
    assert run_cli("construct", "empty", "--n", 2, "--out", b) == 0
    assert run_cli("construct", "lex-product", a, b, "--out", out) == 0
    assert read_matrix(out).shape == (6, 6)


def test_cli_determinism(tmp_path):
    one, two = tmp_path / "one.txt", tmp_path / "two.txt"
    run_cli("construct", "field-type2", "--q", 3, "--alpha", 2, "--out", one)
    run_cli("construct", "field-type2", "--q", 3, "--alpha", 2, "--out", two)
    assert one.read_bytes() == two.read_bytes()


@pytest.mark.parametrize("argv", [
    ("skew-hadamard", "--u", 2),
    ("drt", "--q", 7),
    ("field-type2", "--q", 3, "--alpha", 0),
    ("qr-design", "--q", 7),
    ("paley-graph", "--q", 5),
    ("empty", "--n", 4),
])
def test_cli_every_single_output_family_verifies(tmp_path, argv):
    out = tmp_path / "member.txt"
    assert run_cli("construct", *argv, "--out", out) == 0
    report = tmp_path / "member.json"
    assert run_cli("verify", out, "--report", report) == 0


@pytest.mark.parametrize("family", ["twin", "twin-directed"])
def test_cli_twin_outputs_verify(tmp_path, family):
    base = tmp_path / "t"
    assert run_cli("construct", family, "--order", 4, "--out", base) == 0
    for suffix in ("_A", "_B", "_RA", "_RB"):
        report = tmp_path / f"{suffix}.json"
        assert run_cli("verify", f"{base}{suffix}.txt", "--report", report) == 0


def test_cli_twin_from_paley_order(tmp_path):
    # order 12 = 11 + 1 comes from the normalized Paley matrix
    base = tmp_path / "p"
    assert run_cli("construct", "twin", "--order", 12, "--out", base) == 0
    a = read_matrix(f"{base}_A.txt")
    rep = dz.verify_deza_graph(Digraph(a))
    assert rep.params.as_tuple() == (23 * 12, 11 * 12, 66, 60)


@pytest.mark.parametrize("argv", [
    ("twin-directed", "--order", 1024),
    ("paley-graph", "--q", 65521),
    ("empty", "--n", 1000000),
], ids=["twin-directed", "paley-graph", "empty"])
def test_cli_oversized_construct_exits_3(tmp_path, capsys, argv):
    # each passes its own argument checks and would otherwise allocate a
    # dense matrix of 8 GB to 8 TB before anything compared its order
    out = tmp_path / "big"
    start = time.perf_counter()
    assert run_cli("construct", *argv, "--out", out) == 3
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "exceeds" in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("family", ["twin", "twin-directed"])
@pytest.mark.parametrize("order, code, message", [
    (92, 3, "order 16836 exceeds the bound 16384"),
    (252, 3, "order 126756 exceeds the bound 16384"),
    (88, 2, "no built-in Hadamard matrix of order 88; supply one via --hadamard"),
    (0, 2, "no built-in Hadamard matrix of order 0; supply one via --hadamard"),
], ids=["92", "252", "88", "0"])
def test_cli_twin_order_bound_before_the_hadamard_supply(tmp_path, capsys, family, order,
                                                         code, message):
    # a twin of order (2n - 1) n over the bound exits 3 whether or not a
    # built-in Hadamard matrix of order n exists; one within it keeps exit 2
    base = tmp_path / "t"
    assert run_cli("construct", family, "--order", order, "--out", base) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


# small ints for every numeric option; searches stay at order 6 or below,
# or exceed the search bound and exit 3 before searching
FUZZ_INT = st.integers(-2, 12).map(str)
FUZZ_PARAMS = st.one_of(
    st.tuples(st.sampled_from([0, 1, 3, 5, 6, 11, 12]), FUZZ_INT, FUZZ_INT, FUZZ_INT,
              FUZZ_INT).map(lambda p: ",".join(map(str, p))),
    st.sampled_from(["", "1,2", "a,b,c,d,e", "6,2,1,0,1,0"]))
FUZZ_FILES = ["deza8.txt", "deza8b.txt", "h4.txt", "skew4.txt", "k28.txt", "loops.txt",
              "crlf.txt", "vt.txt", "latin.txt", "empty.txt", "zero.txt", "short.txt",
              "token.txt", "huge.txt", "classes.txt", "bad_classes.txt", "missing.txt", "."]
FUZZ_FILE = st.sampled_from(FUZZ_FILES)
# each subcommand's options, with the values they take
FUZZ_OPTIONS = {
    "construct": {"--u": FUZZ_INT, "--order": FUZZ_INT, "--q": FUZZ_INT,
                  "--alpha": FUZZ_INT, "--n": FUZZ_INT, "--hadamard": FUZZ_FILE,
                  "--out": st.just("out")},
    "verify": {"--as": st.sampled_from([*_CLASSIFIERS, "none"]), "--partition": FUZZ_FILE,
               "--report": st.just("out.json"), "--children-prefix": st.just("out")},
    "children": {"--out-x": st.just("out_x.txt"), "--out-y": st.just("out_y.txt")},
    "decompose": {"--mode": st.sampled_from(["b-eq-t", "b-eq-k", "b"]),
                  "--out-quotient": st.just("out_q.txt")},
    "check-identities": {"--q": FUZZ_INT},
    "search": {"--params": FUZZ_PARAMS, "--limit": FUZZ_INT, "--canonical-dedup": None},
    "feasibility": {"--params": FUZZ_PARAMS},
    "nonsense": {},
}
FUZZ_FAMILIES = ["lex-product", "skew-hadamard", "twin", "twin-directed", "drt",
                 "field-type2", "qr-design", "paley-graph", "empty", "cube"]


# options without which argparse exits 2; the fuzz leaves each out rarely
FUZZ_REQUIRED = {"construct": ["--out"], "children": ["--out-x", "--out-y"],
                 "decompose": ["--out-quotient"], "check-identities": ["--q"],
                 "search": ["--params"], "feasibility": ["--params"]}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_OPTIONS)))
    argv = [command]
    if command == "construct":
        argv.append(draw(st.sampled_from(FUZZ_FAMILIES)))
        argv += draw(st.lists(FUZZ_FILE, max_size=3))
    elif command in ("verify", "children", "decompose"):
        argv += draw(st.lists(FUZZ_FILE, min_size=1, max_size=2))
    options = FUZZ_OPTIONS[command]
    flags = [f for f in FUZZ_REQUIRED.get(command, []) if draw(st.integers(0, 9))]
    if options:
        flags += draw(st.lists(st.sampled_from(sorted(options)), max_size=4, unique=True))
    for flag in flags:
        argv.append(flag)
        if options[flag] is not None:
            argv.append(draw(options[flag]))
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """Valid and malformed input files; outputs go to out* names."""
    root = tmp_path_factory.mktemp("fuzz")
    write_matrix(DEZA_8_3_3_1_0, root / "deza8.txt")
    write_matrix(DEZA_8_4_3_1_1, root / "deza8b.txt")
    write_matrix(NORMALIZED_HADAMARD_4, root / "h4.txt")
    write_matrix(SKEW_HADAMARD_4, root / "skew4.txt")
    write_matrix(dz.twin_deza(dz.HadamardMatrix(NORMALIZED_HADAMARD_4)).signed.matrix,
                 root / "k28.txt")
    write_matrix(np.eye(3, dtype=np.int64), root / "loops.txt")
    (root / "crlf.txt").write_bytes(_matrix_text(DEZA_8_3_3_1_0).replace(b"\n", b"\r\n"))
    (root / "vt.txt").write_bytes(b"2\x0bbinary\n0 1\n1 0\n")
    (root / "latin.txt").write_bytes(b"2 binary\n0 \xff\n1 0\n")
    (root / "empty.txt").write_bytes(b"")
    (root / "zero.txt").write_text("0 binary\n")
    (root / "short.txt").write_text("3 binary\n0 1\n")
    (root / "token.txt").write_text("2 binary\n0 2\n1 0\n")
    (root / "huge.txt").write_text("50000 binary\n" + "\n" * 10)
    (root / "classes.txt").write_text("0 1\n2 3\n4 5\n6 7\n")
    (root / "bad_classes.txt").write_text("0 9\nx\n")
    return root


@settings(max_examples=200)
@given(argv=cli_argv())
@example(argv=["search", "--params", "6,2,0,1,1"])
@example(argv=["search", "--params", "3,-1,0,0,-2"])
def test_cli_exit_code_contract(fuzz_dir, argv):
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    # any exception other than argparse's SystemExit fails the property
    with contextlib.chdir(fuzz_dir), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
