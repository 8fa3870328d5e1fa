"""Exhaustive and randomized tree generation.

``all_trees(n)`` streams one representative per isomorphism class of
trees of order n, in the deterministic level-sequence order of the
Wright-Richmond-Odlyzko-McKay free-tree generator, so a stream can be
resumed or sharded by index ranges.  ``trees_satisfying`` filters a
stream by a tree-class constraint.  ``random_tree`` decodes a uniformly
random Prufer sequence, giving a uniform distribution over labeled (not
unlabeled) trees, which is all the randomized test suites need.

The enumeration cap (default 18) guards against accidentally asking
for the 100+ million classes that appear in the mid-20s.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from .tree import _MAX_N, Tree, TreeStats

__all__ = [
    "DEFAULT_CAP",
    "EnumerationCapError",
    "ConstraintSpec",
    "all_trees",
    "trees_satisfying",
    "random_tree",
    "prufer_to_edges",
]

DEFAULT_CAP = 18


class EnumerationCapError(ValueError):
    """Requested order exceeds the configured enumeration cap."""


_CONSTRAINT_KINDS = (
    "odd_count",
    "deg2_count",
    "pendent_path_count",
    "branch_count",
    "series_reduced",
    "all_odd",
    "degree_sequence",
    "unconstrained",
)


@dataclass(frozen=True)
class ConstraintSpec:
    """A tree-class predicate evaluated against :class:`TreeStats`.

    ``value`` carries the count parameter (number of odd vertices,
    degree-2 vertices, branch vertices, or pendent paths); ``r`` is the
    pendent-path length; ``maximal`` switches the pendent-path count to
    the stricter full-run reading.
    """

    kind: str
    value: Optional[int] = None
    r: Optional[int] = None
    degree_sequence_value: Optional[tuple[int, ...]] = None
    maximal: bool = False

    @classmethod
    def odd_count(cls, count: int) -> "ConstraintSpec":
        return cls("odd_count", value=count)

    @classmethod
    def deg2_count(cls, t: int) -> "ConstraintSpec":
        return cls("deg2_count", value=t)

    @classmethod
    def pendent_path_count(cls, k: int, r: int, maximal: bool = False) -> "ConstraintSpec":
        return cls("pendent_path_count", value=k, r=r, maximal=maximal)

    @classmethod
    def branch_count(cls, k: int) -> "ConstraintSpec":
        return cls("branch_count", value=k)

    @classmethod
    def series_reduced(cls) -> "ConstraintSpec":
        return cls("series_reduced")

    @classmethod
    def all_odd(cls) -> "ConstraintSpec":
        return cls("all_odd")

    @classmethod
    def degree_sequence(cls, degrees) -> "ConstraintSpec":
        return cls("degree_sequence",
                    degree_sequence_value=tuple(sorted(degrees, reverse=True)))

    @classmethod
    def unconstrained(cls) -> "ConstraintSpec":
        return cls("unconstrained")

    def validate(self) -> None:
        if self.kind not in _CONSTRAINT_KINDS:
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if self.kind == "odd_count":
            if self.value is None or self.value < 2 or self.value % 2 != 0:
                raise ValueError(
                    f"odd-vertex count must be a positive even integer, got {self.value!r}")
        elif self.kind in ("deg2_count", "branch_count"):
            if self.value is None or self.value < 0:
                raise ValueError(f"{self.kind} must be >= 0, got {self.value!r}")
        elif self.kind == "pendent_path_count":
            if self.value is None or self.value < 0 or self.r is None or self.r < 1:
                raise ValueError(
                    f"pendent_path_count needs k >= 0 and r >= 1, got k={self.value!r}, r={self.r!r}")
        elif self.kind == "degree_sequence" and not self.degree_sequence_value:
            raise ValueError("degree_sequence constraint needs a nonempty sequence")

    def matches(self, st: TreeStats) -> bool:
        return bool(self._where(st))

    def _where(self, st):
        """The class test on one tree's TreeStats, or a row mask on a table."""
        kind = self.kind
        if kind == "unconstrained":
            return True
        if kind == "odd_count":
            return st.odd_count == self.value
        if kind == "deg2_count":
            return st.deg2_count == self.value
        if kind == "branch_count":
            return st.branch_count == self.value
        if kind == "series_reduced":
            return st.deg2_count == 0
        if kind == "all_odd":  # every vertex is a leaf, a degree-2 or a branch vertex
            return st.odd_count == st.leaf_count + st.deg2_count + st.branch_count
        if kind == "pendent_path_count":
            count = st.maximal_runs(self.r) if self.maximal else st.pendent_paths(self.r)
            return count == self.value
        if kind == "degree_sequence":  # a sequence of the wrong length matches nothing
            have, want = st.degree_sequence, self.degree_sequence_value
            return np.shape(have)[-1] == len(want) and np.all(np.equal(have, want), axis=-1)
        raise ValueError(f"unknown constraint kind {kind!r}")

    def describe(self) -> str:
        if self.kind == "odd_count":
            return f"odd-degree vertices = {self.value}"
        if self.kind == "deg2_count":
            return f"degree-2 vertices = {self.value}"
        if self.kind == "branch_count":
            return f"branch vertices = {self.value}"
        if self.kind == "series_reduced":
            return "series-reduced"
        if self.kind == "all_odd":
            return "all degrees odd"
        if self.kind == "pendent_path_count":
            reading = "maximal runs" if self.maximal else "pendent paths"
            return f"{reading} of length {self.r} = {self.value}"
        if self.kind == "degree_sequence":
            return f"degree sequence {self.degree_sequence_value}"
        return "unconstrained"


# The largest order whose search table fits its int8 columns.
_MAX_ORDER = np.iinfo(np.int8).max


def _check_cap(n: int, cap: Optional[int]) -> None:
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n > _MAX_ORDER:
        raise ValueError(f"order {n} exceeds {_MAX_ORDER}, the largest order the search table holds")
    effective = DEFAULT_CAP if cap is None else cap
    if n > effective:
        raise EnumerationCapError(
            f"order {n} exceeds the enumeration cap {effective}; "
            "raise the cap explicitly if you really want this")


# The depths 1, 2, 3, ... as bytes, and the bytes.translate table of depth + 1.
_RISE = bytes(range(1, 256))
_UP = _RISE + b"\0"


def _level_sequences(n: int) -> Iterator[np.ndarray]:
    """Every free tree of order n >= 1 once, by the Wright-Richmond-
    Odlyzko-McKay algorithm (SIAM J. Comput. 15, 1986), as (rows, n)
    uint8 matrices of up to ``_BATCH`` rows, each a view of one buffer.

    A tree is walked as a level sequence, the depth of each vertex in
    preorder from a root at a center.  Rooted trees follow one another
    by the Beyer-Hedetniemi successor at the last vertex ``p`` deeper
    than 1: the block from p's parent ``q`` up to ``p`` is tiled over the
    tail from ``p`` on.  A sequence is the one kept for its free tree
    unless the root's first subtree L is higher than the rest R, or as
    high and larger, or as high, as large and lexicographically later;
    such a sequence is replaced by a jump to the next one that is kept.
    Every sequence opens with the path 1..top to a deepest vertex, so
    L's height is top - 1, the height ``top`` moves only when a step
    cuts that path, and R's height is read off the depths it holds; L
    and R are compared element by element only when heights and sizes
    tie.  The sequence is one bytearray, searched, tiled and stripped by
    bytes methods, and each kept sequence is copied into the next row of
    the batch buffer; a full buffer is yielded as a matrix and a new one
    started.
    """
    seq = bytearray(range(n // 2 + 1)) + bytearray(range(1, (n + 1) // 2))  # the path, rooted at a center
    top = n // 2  # the tree's height
    size = _BATCH * n
    rows, end = bytearray(size), 0
    find, rfind = seq.find, seq.rfind
    while True:
        m = find(1, 2)  # L ends at the root's second child, or at n
        if m < 0:
            m = n
        # L's height is top - 1.  R is lower if it holds no depth top - 1 (a
        # vertex's path to the root holds every smaller depth), higher if it
        # holds depth top; K1 has neither L nor a depth above 0.
        if top > 1 and find(top - 1, m) < 0 or find(top, m) < 0 and (
                2 * m > n + 2 or 2 * m == n + 2 and seq[1:m] > b"\1" + seq[m:].translate(_UP)):
            p = m - 1
            deep = seq[p] > 2
            q = rfind(seq[p] - 1, 0, p)
            seq[p:] = (seq[q:p] * ((n - p) // (p - q) + 1))[:n - p]
            if p <= top:
                top = p - 1
            if deep:
                seq[n - top:] = _RISE[:top]
        rows[end:end + n] = seq
        end += n
        if end == size:
            yield np.frombuffer(rows, np.uint8).reshape(-1, n)
            rows, end = bytearray(size), 0
        p = len(seq.rstrip(b"\1")) - 1  # the last vertex deeper than 1
        if p == 0:
            break
        q = rfind(seq[p] - 1, 0, p)
        seq[p:] = (seq[q:p] * ((n - p) // (p - q) + 1))[:n - p]
        if p <= top:
            top = p - 1
    if end:
        yield np.frombuffer(rows[:end], np.uint8).reshape(-1, n)


def all_trees(n: int, cap: Optional[int] = None) -> Iterator[Tree]:
    """One tree per isomorphism class of order n, deterministically.

    Classes are emitted in the level-sequence order of the Wright-
    Richmond-Odlyzko-McKay generator; counts match the free-tree
    sequence 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, ...  Vertex ``i`` is
    position ``i`` of the sequence, and the edges are listed by child.
    """
    return trees_satisfying(n, ConstraintSpec.unconstrained(), cap)


# Classes per search table when a stream works through an order.
_BATCH = 1024


class _Table:
    """Search columns of a (rows, n) matrix of level sequences, one row
    per class, in int8 or int16: ``parent`` (-1 at the root) and
    ``degrees``, built with the table; ``mo``, ``census`` (column r
    counts the leaves whose pendant run is r or more) and the four
    vertex counts, built on first read; and ``degree_sequence``, sorted
    on every read.  All carry TreeStats' names and shapes, so
    ``ConstraintSpec._where`` reads a table as it reads one tree.
    ``runs()`` makes the per-leaf runs anew on each call.  Each loop
    steps over the positions, all rows at once."""

    def __init__(self, depth: np.ndarray):
        rows, n = depth.shape
        self._base = base = np.arange(rows) * n
        parent = np.full((rows, n), -1, np.int8)
        latest = np.zeros((rows, n), np.int8)  # latest[r, d]: the last vertex at depth d, a parent
        degrees = np.ones((rows, n), np.int8)
        degrees[:, 0] = 0
        for i in range(1, n):
            d = depth[:, i].astype(np.intp)
            parent[:, i] = self._at(latest, d - 1)
            latest.reshape(-1)[base + d] = i
            degrees.reshape(-1)[base + parent[:, i]] += 1
        self.n, self.parent, self.degrees = n, parent, degrees

    def _at(self, m: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """``m[r, cols[r]]`` for every row r."""
        return m.reshape(-1)[self._base + cols]

    @cached_property
    def mo(self) -> np.ndarray:
        n, parent = self.n, self.parent
        size = np.ones(parent.shape, np.int16)
        for i in range(n - 1, 0, -1):
            size.reshape(-1)[self._base + parent[:, i]] += size[:, i]
        return np.abs(n - 2 * size[:, 1:]).sum(axis=1, dtype=np.int16)

    def runs(self) -> np.ndarray:
        """Each leaf's pendant run, else 0, as a (rows, n) int8 matrix."""
        n, parent, degrees = self.n, self.parent, self.degrees
        inner = degrees < 3  # off the branch vertices the tree falls into paths
        head = np.zeros(parent.shape, np.int8)  # head[r, v]: the first vertex of v's path
        count = inner.astype(np.int8)  # count[r, v]: the order of the path that v heads
        for i in range(1, n):
            joined = inner[:, i] & self._at(inner, parent[:, i])
            head[:, i] = np.where(joined, self._at(head, parent[:, i]), i)
            count.reshape(-1)[self._base + head[:, i]] += joined
        # a leaf's run is the order of its path, or n - 2 if that path is the
        # tree; written from the back, over counts that no later step reads
        for i in range(n - 1, -1, -1):
            run = np.minimum(self._at(count, head[:, i]), n - 2)
            count[:, i] = np.where(degrees[:, i] == 1, run, 0)
        return count

    @cached_property
    def census(self) -> np.ndarray:
        """``census[:, r]``: the leaves whose pendant run is at least r,
        for 0 < r < n; columns 0 and n read 0.  (rows, n + 1) int8."""
        rows, n = self.parent.shape
        census = np.zeros((rows, n + 1), np.int8)
        base = np.arange(rows) * (n + 1)
        for run in self.runs().T:  # each row's run lands in a cell of its own row
            census.reshape(-1)[base + run] += 1
        for r in range(n - 1, 0, -1):  # runs of exactly r become runs of r or more
            census[:, r] += census[:, r + 1]
        census[:, 0] = 0
        return census

    @staticmethod
    def _count(test: np.ndarray) -> np.ndarray:
        return np.count_nonzero(test, axis=1).astype(np.int8)

    @cached_property
    def odd_count(self) -> np.ndarray:
        return self._count(self.degrees % 2 == 1)

    @cached_property
    def deg2_count(self) -> np.ndarray:
        return self._count(self.degrees == 2)

    @cached_property
    def branch_count(self) -> np.ndarray:
        return self._count(self.degrees >= 3)

    @cached_property
    def leaf_count(self) -> np.ndarray:
        return self._count(self.degrees == 1)

    @property
    def degree_sequence(self) -> np.ndarray:
        return np.sort(self.degrees, axis=1)[:, ::-1]

    def pendent_paths(self, r: int) -> np.ndarray:
        return self.census[:, min(r, self.n)]

    def maximal_runs(self, r: int) -> np.ndarray:
        return self.census[:, min(r, self.n)] - self.census[:, min(r + 1, self.n)]

    def select(self, constraint: ConstraintSpec) -> np.ndarray:
        """Rows in the constraint's class; K1 is only in the unconstrained one."""
        keep = constraint._where(self) if self.n > 1 else constraint.kind == "unconstrained"
        return np.flatnonzero(np.broadcast_to(keep, len(self.parent)))

    def edges(self, rows) -> np.ndarray:
        """The (parent, child) pairs of the classes in ``rows``, shaped
        (..., n - 1, 2): child ``i`` is position ``i`` of the sequence."""
        parent = self.parent[rows, 1:]
        pairs = np.empty(parent.shape + (2,), np.intp)
        pairs[..., 0], pairs[..., 1] = parent, np.arange(1, self.n)
        return pairs

    def tree(self, row: int) -> Tree:
        """The class in ``row``, labelled as :func:`all_trees` labels it."""
        return Tree(self.n, self.edges(row))


def _selected(n: int, constraint: ConstraintSpec, cap: Optional[int] = None):
    """Each batch's table of order n with the rows in the constraint's class."""
    constraint.validate()
    _check_cap(n, cap)
    for depth in _level_sequences(n):
        table = _Table(depth)
        yield table, table.select(constraint)


def trees_satisfying(n: int, constraint: ConstraintSpec, cap: Optional[int] = None) -> Iterator[Tree]:
    """One tree per class of order n that meets the constraint, in generator order."""
    for table, rows in _selected(n, constraint, cap):
        for edges in table.edges(rows).tolist():
            yield Tree(n, edges)


def prufer_to_edges(seq: Sequence[int]) -> list[tuple[int, int]]:
    """Decode a Prufer sequence over ids 0..n-1 into the n-1 tree edges.

    The length-(n-2) sequence determines a labeled tree on n vertices;
    each vertex appears in the sequence degree-1 times.
    """
    n = len(seq) + 2
    degree = [1] * n
    for s in seq:
        if not 0 <= s < n:
            raise ValueError(f"sequence entry {s} outside 0..{n - 1}")
        degree[s] += 1
    edges = []
    index = 0
    while degree[index] != 1:
        index += 1
    leaf = index
    for s in seq:
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1 and s < index:
            leaf = s
        else:
            index += 1
            while degree[index] != 1:
                index += 1
            leaf = index
    edges.append((leaf, n - 1))
    return edges


def random_tree(n: int, seed: int) -> Tree:
    """Uniformly random labeled tree on n >= 2 vertices, seeded."""
    if not 2 <= n <= _MAX_N:  # checked before the order's Prufer sequence is drawn
        raise ValueError(f"random_tree needs 2 <= n <= {_MAX_N}, got {n}")
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return Tree(n, prufer_to_edges(seq))
