"""On-disk tree formats.

Edge-list text (the canonical format): first line is the vertex count
``n``, followed by exactly ``n - 1`` lines ``u v`` with 0-based ids.
The writer emits single spaces and LF line endings; the reader takes
any whitespace between tokens (tabs, CRLF).  DOT export writes an
undirected graph with vertex ids as node names.  NDJSON records are one
JSON object per tree: ``{"n": ..., "edges": [[u, v], ...]}``.
"""

from __future__ import annotations

from contextlib import nullcontext
from itertools import chain
from pathlib import Path
from typing import IO, Union

import numpy as np

from .tree import _BLOCK, Tree

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


def _record_row(fmt: str, n: int, children=None) -> str:
    """A tree of order n as one ``edgelist`` or ``ndjson`` record, with a
    ``%d`` slot per edge id.  Given the n - 1 ``children`` (the second id
    of each edge), they are written into the record, so only the first
    ids fill slots: an enumerated class formats just its parents."""
    if fmt == "edgelist":
        head, edge, sep, tail = f"{n}\n", "%d {}\n", "", ""
    else:
        head, edge, sep, tail = '{"n":%d,"edges":[' % n, "[%d,{}]", ",", "]}\n"
    if children is None:
        return head + sep.join([edge.format("%d")] * (n - 1)) + tail
    return head + sep.join(map(edge.format, children)) + tail


def _write_rows(fh, blocks, row: str, sep: str = "") -> int:
    """Write ``row`` filled from each row of each int block, rows joined
    by ``sep``, one ``%`` per block; returns the number of rows written."""
    count = 0
    for block in blocks:
        if len(block):
            values = tuple(block.ravel().tolist())
            fh.write((sep if count else "") + sep.join([row] * len(block)) % values)
            count += len(block)
    return count


def _ids(t: Tree) -> tuple[int, ...]:
    """The edge ids ``u0, v0, u1, v1, ...``, from the int64 array above ``_SMALL_N``."""
    return tuple(chain.from_iterable(t.edges) if t._earr is None else t._earr.ravel().tolist())


def to_edge_list_text(t: Tree) -> str:
    return _record_row("edgelist", t.n) % _ids(t)


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
    """Write the text of ``to_edge_list_text``, ``_BLOCK`` edges at a time."""
    e = np.asarray(t.edges) if t._earr is None else t._earr
    with nullcontext(target) if hasattr(target, "write") else open(target, "w") as fh:
        fh.write(f"{t.n}\n")
        _write_rows(fh, (e[lo:lo + _BLOCK] for lo in range(0, len(e), _BLOCK)), "%d %d\n")


def read_edge_list(source: Union[PathLike, IO[str]]) -> Tree:
    if hasattr(source, "read"):
        return parse_edge_list(source.read())
    return parse_edge_list(Path(source).read_text())


def to_dot(t: Tree, name: str = "tree") -> str:
    # only K1 has a vertex on no edge; the name stays out of the template
    body = "  0;\n" if t.n == 1 else "  %d -- %d;\n" * (t.n - 1) % _ids(t)
    return f"graph {name} {{\n{body}}}\n"


def tree_record(t: Tree) -> dict:
    ids = _ids(t)
    return {"n": t.n, "edges": [[u, v] for u, v in zip(ids[::2], ids[1::2])]}


def tree_from_record(record: dict) -> Tree:
    return Tree(int(record["n"]), [(int(u), int(v)) for u, v in record["edges"]])
