"""On-disk tree formats.

Edge-list text (the canonical format): first line is the vertex count
``n``, followed by exactly ``n - 1`` lines ``u v`` with 0-based ids,
whitespace separated, LF line endings.  DOT export writes an undirected
graph with vertex ids as node names.  NDJSON records are one JSON
object per tree: ``{"n": ..., "edges": [[u, v], ...]}``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Union

import numpy as np

from .tree import Tree

__all__ = [
    "to_edge_list_text",
    "parse_edge_list",
    "write_edge_list",
    "read_edge_list",
    "to_dot",
    "tree_record",
    "tree_from_record",
    "write_ndjson",
]

PathLike = Union[str, Path]


def to_edge_list_text(t: Tree) -> str:
    lines = [str(t.n)]
    lines.extend(f"{u} {v}" for u, v in t.edges)
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Tree:
    """Parse the edge-list format; malformed input raises ``ValueError``.

    Tokens are whitespace separated and read as one int64 array, so an
    id outside the 64-bit range is rejected like any other bad token.
    """
    tokens = text.split()
    if not tokens:
        raise ValueError("empty edge-list input")
    try:
        values = np.array(tokens, dtype=np.int64)
    except ValueError as exc:
        raise ValueError(f"edge list contains a non-integer token: {exc}") from None
    except OverflowError as exc:
        raise ValueError(f"edge list contains an id outside the 64-bit range: {exc}") from None
    del tokens  # the strings outweigh the array; free them before building
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
    text = to_edge_list_text(t)
    if hasattr(target, "write"):
        target.write(text)
    else:
        Path(target).write_text(text)


def read_edge_list(source: Union[PathLike, IO[str]]) -> Tree:
    if hasattr(source, "read"):
        return parse_edge_list(source.read())
    return parse_edge_list(Path(source).read_text())


def to_dot(t: Tree, name: str = "tree") -> str:
    lines = [f"graph {name} {{"]
    covered = set()
    for u, v in t.edges:
        lines.append(f"  {u} -- {v};")
        covered.add(u)
        covered.add(v)
    for v in range(t.n):
        if v not in covered:
            lines.append(f"  {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def tree_record(t: Tree) -> dict:
    return {"n": t.n, "edges": [[u, v] for u, v in t.edges]}


def tree_from_record(record: dict) -> Tree:
    return Tree(int(record["n"]), [(int(u), int(v)) for u, v in record["edges"]])


def write_ndjson(trees, target: Union[PathLike, IO[str]]) -> int:
    """Write one JSON record per tree; returns the number written."""
    def _dump(fh) -> int:
        count = 0
        for t in trees:
            fh.write(json.dumps(tree_record(t), separators=(",", ":")))
            fh.write("\n")
            count += 1
        return count

    if hasattr(target, "write"):
        return _dump(target)
    with open(target, "w") as fh:
        return _dump(fh)
