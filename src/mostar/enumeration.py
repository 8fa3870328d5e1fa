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

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from .tree import Tree, TreeStats

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
        if kind == "degree_sequence":
            return st.degree_sequence == self.degree_sequence_value
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


def _check_cap(n: int, cap: Optional[int]) -> None:
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    effective = DEFAULT_CAP if cap is None else cap
    if n > effective:
        raise EnumerationCapError(
            f"order {n} exceeds the enumeration cap {effective}; "
            "raise the cap explicitly if you really want this")


def _next_rooted(seq: list[int], p: int) -> None:
    """Beyer-Hedetniemi successor of a rooted level sequence, in place.

    The block from the parent ``q`` of vertex ``p`` up to ``p`` is
    repeated over the tail from ``p`` on.
    """
    n = len(seq)
    q = p - 1
    while seq[q] != seq[p] - 1:
        q -= 1
    seq[p:] = (seq[q:p] * ((n - p) // (p - q) + 1))[: n - p]


def _first_subtree_end(seq: list[int]) -> int:
    """End of the root's first subtree: its second depth-1 vertex, or n."""
    try:
        return seq.index(1, 2)
    except ValueError:
        return len(seq)


def _level_sequences(n: int) -> Iterator[list[int]]:
    """Every free tree of order n >= 1 once, by the Wright-Richmond-
    Odlyzko-McKay algorithm (SIAM J. Comput. 15, 1986).

    A tree is walked as a level sequence, the depth of each vertex in
    preorder from a root at a center.  Rooted trees follow one another
    by the Beyer-Hedetniemi successor.  A sequence is the one kept for
    its free tree unless the root's first subtree L is higher than the
    rest R, or as high and larger, or as high, as large and
    lexicographically later; such a sequence is replaced by a jump to
    the next one that is kept.  The same list is yielded every time and
    stepped in place afterwards.
    """
    seq = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))  # the path, rooted at a center
    while True:
        m = _first_subtree_end(seq)
        left = [d - 1 for d in seq[1:m]]
        rest = [0] + seq[m:]
        hl, hr = max(left, default=0), max(rest)  # K1 has no first subtree
        if hr < hl or hr == hl and (len(left) > len(rest) or len(left) == len(rest) and left > rest):
            deep = seq[m - 1] > 2
            _next_rooted(seq, m - 1)
            if deep:
                h = max(seq[1:_first_subtree_end(seq)])
                seq[n - h:] = range(1, h + 1)
        yield seq
        p = n - 1
        while seq[p] == 1:
            p -= 1
        if p == 0:
            return
        _next_rooted(seq, p)


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


def _batches(n: int) -> Iterator[np.ndarray]:
    """The level sequences of order n as (rows, n) uint8 matrices of up to ``_BATCH`` rows."""
    sequences = _level_sequences(n)
    while block := bytes(itertools.chain.from_iterable(itertools.islice(sequences, _BATCH))):
        yield np.frombuffer(block, np.uint8).reshape(-1, n)


class _DegreeGroups:
    """Sorted degree sequences ``keys`` and each row's index ``ids``."""

    def __init__(self, degrees: np.ndarray):
        keys, ids = np.unique(-np.sort(-degrees, axis=1), axis=0, return_inverse=True)
        self.keys, self.ids = [tuple(k) for k in keys.tolist()], ids.reshape(-1).astype(np.int16)

    def __eq__(self, seq):
        return self.ids == (self.keys.index(seq) if seq in self.keys else -1)


class _Table:
    """Search columns of a (rows, n) matrix of level sequences, one row
    per class, in int8 or int16: ``parent`` (-1 at the root), ``degrees``,
    ``mo`` and ``runs`` (each leaf's pendant run, else 0).  Counts and
    methods carry TreeStats' names, so ``ConstraintSpec._where`` reads
    a table as it reads one tree.  Each loop steps over the positions,
    all rows at once."""

    def __init__(self, depth: np.ndarray):
        rows, n = depth.shape
        base = np.arange(rows) * n

        def at(m, cols):  # m[r, cols[r]] for every row r
            return m.reshape(-1)[base + cols]

        parent = np.full((rows, n), -1, np.int8)
        latest = np.zeros((rows, n), np.int8)  # latest[r, d]: the last vertex at depth d, a parent
        degrees = np.ones((rows, n), np.int8)
        degrees[:, 0] = 0
        for i in range(1, n):
            d = depth[:, i].astype(np.intp)
            parent[:, i] = at(latest, d - 1)
            latest.reshape(-1)[base + d] = i
            degrees.reshape(-1)[base + parent[:, i]] += 1
        size = np.ones((rows, n), np.int16)
        for i in range(n - 1, 0, -1):
            size.reshape(-1)[base + parent[:, i]] += size[:, i]
        inner = degrees < 3  # off the branch vertices the tree falls into paths
        head = np.zeros((rows, n), np.int8)  # head[r, v]: the first vertex of v's path
        count = inner.astype(np.int8)  # count[r, v]: the order of the path that v heads
        for i in range(1, n):
            joined = inner[:, i] & at(inner, parent[:, i])
            head[:, i] = np.where(joined, at(head, parent[:, i]), i)
            count.reshape(-1)[base + head[:, i]] += joined
        # a leaf's run is the order of its path, or n - 2 if that path is the tree
        runs = np.minimum(np.take_along_axis(count, head.astype(np.intp), axis=1), n - 2)
        runs[degrees != 1] = 0
        self.n, self.parent, self.degrees, self.runs = n, parent, degrees, runs.astype(np.int8)
        self.mo = np.abs(n - 2 * size[:, 1:]).sum(axis=1, dtype=np.int16)
        self.odd_count, self.deg2_count, self.branch_count, self.leaf_count = (
            np.count_nonzero(test, axis=1).astype(np.int8)
            for test in (degrees % 2 == 1, degrees == 2, degrees >= 3, degrees == 1))

    @cached_property
    def degree_sequence(self) -> _DegreeGroups:
        return _DegreeGroups(self.degrees)

    def pendent_paths(self, r: int) -> np.ndarray:
        return np.count_nonzero(self.runs >= r, axis=1)

    def maximal_runs(self, r: int) -> np.ndarray:
        return np.count_nonzero(self.runs == r, axis=1)

    def select(self, constraint: ConstraintSpec) -> np.ndarray:
        """Rows in the constraint's class; K1 is only in the unconstrained one."""
        keep = constraint._where(self) if self.n > 1 else constraint.kind == "unconstrained"
        return np.flatnonzero(np.broadcast_to(keep, self.mo.shape))

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
    for depth in _batches(n):
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
    if n < 2:
        raise ValueError(f"random_tree needs n >= 2, got {n}")
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return Tree(n, prufer_to_edges(seq))
