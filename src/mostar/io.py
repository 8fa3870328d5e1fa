"""On-disk tree formats.

Edge-list text (the canonical format): first line is the vertex count
``n``, followed by exactly ``n - 1`` lines ``u v`` with 0-based ids.
The writer emits single spaces and LF line endings; the reader takes
any whitespace between tokens (tabs, CRLF).  DOT export writes an
undirected graph with vertex ids as node names.  NDJSON records are one
JSON object per tree: ``{"n": ..., "edges": [[u, v], ...]}``.

Every text output with a row per edge or per tree (edge lists, DOT,
the ``compute`` table and JSON, ``enumerate`` records) goes through one
writer, ``_write_rows``: it fills a row template's ``%d`` slots from
int arrays of values 0..2^31 - 1, looking each 4-digit part of a value
up in a table of ASCII words, and writes the text one chunk of at most
64 KB at a time.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import cache
from io import StringIO
from pathlib import Path
from typing import IO, Union

import numpy as np

from .tree import _MAX_N, Tree

__all__ = [
    "to_edge_list_text",
    "parse_edge_list",
    "write_edge_list",
    "read_edge_list",
    "to_dot",
    "tree_record",
    "tree_from_record",
]

PathLike = Union[str, Path]


def _record_row(fmt: str, n: int) -> str:
    """An enumerated tree of order n as one ``edgelist`` or ``ndjson``
    record: edge i is (parent of i, i) for i = 1..n - 1, with the child
    ids written in and a ``%d`` slot for each parent."""
    if fmt == "edgelist":
        head, edge, sep, tail = f"{n}\n", "%d {}\n", "", ""
    else:
        head, edge, sep, tail = '{"n":%d,"edges":[' % n, "[%d,{}]", ",", "]}\n"
    return head + sep.join(map(edge.format, range(1, n))) + tail


# Rows are rendered a chunk of at most this many record bytes at a time.
_CHUNK_BYTES = 1 << 16

_WORD = 10_000  # a value is written as 4-digit words


@cache
def _digit_words() -> np.ndarray:
    """The ASCII bytes of 0..9999 as little-endian 4-byte words, in three
    runs of 10^4: zero-padded (``0042``), a value's leading word padded
    with NUL (``\\0\\042``, 0 all NUL), and a value's only word (the
    same, except that 0 reads ``\\0\\0\\00``).  Filled in place, with
    no temporary larger than ten digits."""
    words = np.empty(3 * _WORD, "<u4")
    padded, leading, only = words.reshape(3, _WORD)
    digits = np.arange(48, 58, dtype=np.uint32)  # b"0".."9"
    grid = padded.reshape(10, 10, 10, 10)  # axis 0 is the thousands digit, the first byte
    grid[...] = digits[:, None, None, None]
    grid |= (digits << 8)[:, None, None]
    grid |= (digits << 16)[:, None]
    grid |= digits << 24
    leading[:] = padded
    for width in (3, 2, 1):  # below 10^width, the first 4 - width bytes are NUL
        leading[:10 ** width] &= 0xFFFFFFFF << 8 * (4 - width) & 0xFFFFFFFF
    leading[0] = 0
    only[:] = leading
    only[0] = 48 << 24
    words.flags.writeable = False  # shared by every call
    return words


def _record(literals: list[bytes], words: int, rows: int) -> np.ndarray:
    """Packed records for ``rows`` rows, or as many as fit in
    ``_CHUNK_BYTES``: each literal, with the ``words`` 4-digit words of
    one slot between each two, the literals filled in."""
    fields = []
    for j, text in enumerate(literals):
        fields += [(f"l{j}", f"S{len(text)}")] if text else []
        fields += [(f"v{j}", "<u4", (words,))] if j < len(literals) - 1 else []
    dtype = np.dtype(fields)
    rec = np.empty(min(rows, max(1, _CHUNK_BYTES // max(dtype.itemsize, 1))), dtype)
    for j, text in enumerate(literals):
        if text:
            rec[f"l{j}"] = text
    return rec


def _write_rows(fh, blocks, row: str, sep: str = "") -> int:
    """Write ``row`` for each row of each int block, its ``%d`` slots
    filled from the row's values, rows joined by ``sep``; one ``write``
    per chunk of at most ``_CHUNK_BYTES``.  Returns the number of rows
    written.

    Rows are packed records (``_record``) filled a chunk at a time: each
    slot holds as many 4-digit words of ``_digit_words`` as the widest
    value so far needs, looked up from the value's 4-digit parts, and
    one ``bytes.translate`` drops the NUL padding.
    ``row`` and ``sep`` may hold no other ``%`` and no NUL; a value
    outside 0..``_MAX_N`` (the ids and sizes of a tree) raises
    ``ValueError``.
    """
    literals = (sep + row).split("%d")
    if "%" in "".join(literals) or "\0" in "".join(literals):
        raise ValueError(f"row {row!r} and sep {sep!r} may hold no '%' but %d slots, and no NUL")
    literals = [text.encode() for text in literals]
    slots, rec, words, want, count = len(literals) - 1, (), -1, 0, 0
    skip = len(sep.encode())  # the first row written has no sep before it
    for block in blocks:
        if not len(block):
            continue
        if block.shape[1:] != (slots,):
            raise ValueError(f"a block of shape {block.shape} for a row of {slots} slots")
        need = 0
        if slots:
            top = int(block.max())
            if block.min() < 0 or top > _MAX_N:
                raise ValueError(f"negative values and values above {_MAX_N} cannot be written")
            need = -(-len(str(top)) // 4)
        if need > words or len(block) > want == len(rec):  # wider, or longer and under the bound
            words, want = max(need, words), max(len(block), want)
            rec = _record(literals, words, want)
            fields = [rec[f"v{j}"] for j in range(slots)]
        for lo in range(0, len(block), len(rec)):
            q = block[lo:lo + len(rec)].astype(np.int32)
            m = len(q)
            if slots:
                index = np.empty((m, slots, words), np.int32)
                for i in reversed(range(words)):  # word i of each value, the last first
                    run = 2 * _WORD if i == words - 1 else _WORD  # past the zero-padded run
                    if i == 0:
                        index[..., 0] = q + run  # the leading word, below 10^4
                    else:
                        high = q // _WORD
                        part = q - high * _WORD
                        index[..., i] = np.where(high, part, part + run)
                        q = high
                values = _digit_words().take(index)
                for j, field in enumerate(fields):
                    field[:m] = values[:, j]
            text = rec[:m].tobytes().translate(None, b"\0")
            fh.write(text[0 if count else skip:].decode())
            count += m
    return count


def _edge_array(t: Tree) -> np.ndarray:
    """The edges as one ``(n - 1, 2)`` int array, in constructor order."""
    return np.asarray(t.edges, np.int64).reshape(-1, 2) if t._earr is None else t._earr


def to_edge_list_text(t: Tree) -> str:
    buf = StringIO()
    write_edge_list(t, buf)
    return buf.getvalue()


def _token_values(text: str) -> np.ndarray:
    """Every whitespace-separated token read as an int64, one by one."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty edge-list input")
    try:
        return np.array(tokens, dtype=np.int64)
    except ValueError as exc:
        raise ValueError(f"edge list contains a non-integer token: {exc}") from None
    except OverflowError as exc:
        raise ValueError(f"edge list contains an id outside the 64-bit range: {exc}") from None


def parse_edge_list(text: str) -> Tree:
    """Parse the edge-list format; malformed input raises ``ValueError``.

    Tokens are whitespace separated and read as one int64 array, so an
    id outside the 64-bit range is rejected like any other bad token.
    A text of ASCII digits and whitespace is read in one ``np.fromstring``
    pass unless it has no token or holds the int64 maximum (that pass
    saturates there); the token path judges every other text.
    """
    values = None
    if text.isascii() and not text.isspace():  # fromstring reads blank text as [0]
        if not text.encode().translate(None, b"0123456789 \t\n\r\x0b\x0c"):
            values = np.fromstring(text, dtype=np.int64, sep=" ")
    if values is None or not len(values) or values.max() == np.iinfo(np.int64).max:
        values = _token_values(text)
    n = int(values[0])
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    rest = values[1:]
    if len(rest) != 2 * (n - 1):
        raise ValueError(
            f"expected {n - 1} edges ({2 * (n - 1)} ids) after the header, got {len(rest)} ids"
        )
    return Tree(n, rest.reshape(-1, 2))


def write_edge_list(t: Tree, target: Union[PathLike, IO[str]]) -> None:
    with nullcontext(target) if hasattr(target, "write") else open(target, "w") as fh:
        fh.write(f"{t.n}\n")
        _write_rows(fh, [_edge_array(t)], "%d %d\n")


def read_edge_list(source: Union[PathLike, IO[str]]) -> Tree:
    if hasattr(source, "read"):
        return parse_edge_list(source.read())
    return parse_edge_list(Path(source).read_text())


def to_dot(t: Tree, name: str = "tree") -> str:
    buf = StringIO()
    buf.write(f"graph {name} {{\n")  # the name stays out of the row template
    if t.n == 1:  # only K1 has a vertex on no edge
        buf.write("  0;\n")
    _write_rows(buf, [_edge_array(t)], "  %d -- %d;\n")
    buf.write("}\n")
    return buf.getvalue()


def tree_record(t: Tree) -> dict:
    return {"n": t.n, "edges": _edge_array(t).tolist()}


def tree_from_record(record: dict) -> Tree:
    """The tree of a ``tree_record``; ``Tree`` judges ``n`` and the pairs as given."""
    return Tree(record["n"], record["edges"])
