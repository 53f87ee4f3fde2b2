"""Matrix text files, digraph6 export, and JSON report documents.

The matrix01 text format is the canonical interchange format: a header
line "<order> <alphabet>" with alphabet binary or signed, then order
lines of order whitespace-separated tokens, and blank lines at most.
"""

from __future__ import annotations

import json
from dataclasses import asdict, is_dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .matrix_core import MAX_ORDER, Digraph, SizeBoundError, as_int_matrix, check_order

ALPHABETS = {"binary": {0, 1}, "signed": {-1, 0, 1}}

DIGRAPH6_MAX_ORDER = 258


class MatrixParseError(ValueError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _matrix_text(m: np.ndarray) -> bytes:
    """The file text of m; raises for a matrix read_matrix would reject."""
    m = as_int_matrix(m)
    n = m.shape[0]
    lo, hi = int(m.min()), int(m.max())
    if lo < -1 or hi > 1:
        raise ValueError(f"entry {lo if lo < -1 else hi} outside alphabet signed")
    text = b"%d %s\n" % (n, b"signed" if lo < 0 else b"binary")
    if lo >= 0:  # digits at even offsets, separators at odd ones
        rows = np.full((n, 2 * n), 32, dtype=np.uint8)
        np.add(m, 48, out=rows[:, 0::2], casting="unsafe")
        rows[:, -1] = 10
        return text + rows.tobytes()
    # sign byte, digit, separator; a 0 sign byte is dropped.  The ufuncs
    # write straight into the bytes, with no n x n int64 temporary.
    cells = np.full((n, n, 3), 32, dtype=np.uint8)
    np.multiply(m < 0, 45, out=cells[..., 0], casting="unsafe")
    np.add(m != 0, 48, out=cells[..., 1], casting="unsafe")
    cells[:, -1, 2] = 10
    cells = cells.reshape(-1)
    return text + cells[cells != 0].tobytes()


def write_matrix(m: np.ndarray, path) -> None:
    Path(path).write_bytes(_matrix_text(m))


def _read_canonical(data: bytes) -> np.ndarray | None:
    """The matrix of a file laid out exactly as write_matrix writes a 0/1
    matrix, read without a per-token loop; None for any other file."""
    head, newline, body = data.partition(b"\n")
    order = head.removesuffix(b" binary")
    # a canonical order has no sign, no leading zero and at most 9 digits
    if not (newline and order.isdigit() and len(order) <= 9):
        return None
    n = int(order)
    if n < 1 or head != b"%d binary" % n or len(body) != 2 * n * n:
        return None
    rows = np.frombuffer(body, dtype=np.uint8).reshape(n, 2 * n)
    digits = rows[:, 0::2] - 48  # a byte below '0' wraps above 1
    if (digits > 1).any() or (rows[:, 1:-1:2] != 32).any() or (rows[:, -1] != 10).any():
        return None
    return digits.astype(np.int64)


def _scan_matrix(text: str) -> np.ndarray:
    """Token-by-token parse of any matrix text; every malformed file
    gets a MatrixParseError naming its line and column."""
    lines = text.splitlines()
    if not lines:
        raise MatrixParseError(1, 1, "empty file")
    header = lines[0].split()
    if len(header) != 2 or not header[0].isdigit() or header[1] not in ALPHABETS:
        raise MatrixParseError(1, 1, f"expected header '<order> <binary|signed>', got {lines[0]!r}")
    n = int(header[0])
    if n == 0:
        raise MatrixParseError(1, 1, "order must be positive")
    allowed = ALPHABETS[header[1]]
    if len(lines) < n + 1:
        raise MatrixParseError(len(lines) + 1, 1, f"expected {n} rows, file has {len(lines) - 1}")
    if len(text) < n * (2 * n - 1):  # some row is too short for n tokens
        i = next(i for i in range(1, n + 1) if len(lines[i]) < 2 * n - 1)
        got = len(lines[i].split())
        raise MatrixParseError(i + 1, got + 1, f"expected {n} tokens, got {got}")
    out = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        tokens = lines[i + 1].split()
        if len(tokens) != n:
            raise MatrixParseError(i + 2, len(tokens) + 1,
                                   f"expected {n} tokens, got {len(tokens)}")
        for j, tok in enumerate(tokens):
            try:
                v = int(tok)
            except ValueError:
                raise MatrixParseError(i + 2, j + 1, f"not an integer: {tok!r}") from None
            if v not in allowed:
                raise MatrixParseError(i + 2, j + 1,
                                       f"token {v} outside alphabet {header[1]}")
            out[i, j] = v
    extra = next((i for i in range(n + 1, len(lines)) if lines[i].strip()), None)
    if extra is not None:
        raise MatrixParseError(extra + 1, 1, f"content after the last of {n} rows")
    return out


def read_matrix(path) -> np.ndarray:
    data = Path(path).read_bytes()
    end = data.find(b"\n")
    # the header's order is bounded before any row is parsed or allocated
    head = data[:end if end >= 0 else None].split(b"\r", 1)[0].split()
    digits = head[0].lstrip(b"0") if head and head[0].isdigit() else b""
    if len(digits) > 9:  # far over the bound; int() refuses the longest runs
        raise SizeBoundError(f"order of {len(digits)} digits exceeds the bound {MAX_ORDER}")
    check_order(int(digits or b"0"))
    m = _read_canonical(data)
    if m is None:
        # the newline translation that reading in text mode would apply
        m = _scan_matrix(data.decode("ascii").replace("\r\n", "\n").replace("\r", "\n"))
    return m


def read_digraph(path) -> Digraph:
    m = read_matrix(path)
    if (m < 0).any():
        raise ValueError("signed matrix cannot be read as a digraph")
    return Digraph(m, loops_allowed=bool(np.diagonal(m).any()))


def _digraph6_order_bytes(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    # 63 <= n <= 258047: '~' then three 6-bit groups, high first
    return bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])


def to_digraph6(d: Digraph) -> bytes:
    """Standard digraph6 line: '&', the order, then the row-major
    adjacency bits packed 6 per character."""
    if d.n > DIGRAPH6_MAX_ORDER:
        raise ValueError(f"digraph6 export limited to order {DIGRAPH6_MAX_ORDER}")
    if np.diagonal(d.adjacency).any():
        raise ValueError("digraph6 does not support loops")
    bits = d.adjacency.reshape(-1)
    bits = np.pad(bits, (0, -bits.size % 6)).reshape(-1, 6)
    groups = bits @ np.array([32, 16, 8, 4, 2, 1]) + 63
    return b"&" + _digraph6_order_bytes(d.n) + groups.astype(np.uint8).tobytes()


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.astype(np.int64).tolist()  # bools as 0/1, as int() gives
    if is_dataclass(value):
        return {k: _jsonable(v) for k, v in asdict(value).items()}
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def report_to_dict(report) -> dict:
    """Flatten a verification report (any of the report dataclasses) to a
    JSON-ready dict; numpy members become nested lists."""
    return _jsonable(report)


def write_report(document: dict, path) -> None:
    Path(path).write_text(json.dumps(_jsonable(document), indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def load_report(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
