"""Labeled trees and the Mostar index.

The Mostar index of a graph is the sum, over all edges uv, of
``|n_u - n_v|``, where ``n_u`` counts the vertices strictly closer to u
than to v and ``n_v`` counts those strictly closer to v.  Deleting an
edge of a tree leaves exactly two components and no vertex is
equidistant from the two endpoints, so for trees the contribution of an
edge is ``|n - 2*s|`` where ``s`` is the size of either component.

This module provides:

* :class:`Tree` - an immutable labeled tree on vertices ``0..n-1``,
  validated and oriented by one breadth-first search from vertex 0.
* :func:`mostar_fast` - one subtree-size pass over the orientation that
  search gives; above ``_SMALL_N`` vertices it is one sparse
  unit-triangular solve in BFS order, O(n) compiled work.
* :func:`mostar_bfs` - the definition applied literally (two breadth
  first sweeps per edge, quadratic); kept as an independent oracle.
* :func:`psi_edge` - the split of a single edge.
* :func:`stats` - degree and pendent-path statistics used as tree-class
  predicates (odd vertices, degree-2 vertices, branch vertices,
  pendent-path census, series-reduced and caterpillar flags, diameter).
* :func:`canonical_form` / :func:`is_isomorphic` - AHU-style canonical
  codes rooted at the tree center(s).

Every small-tree walk goes through one of a few private helpers next
to ``_bfs``: ``_path`` (the path between two vertices), ``_side`` (the
vertices on one side of a vertex), ``_chain`` (a run of degree-2
vertices), ``_spine`` (the internal vertices of a caterpillar, in order)
and ``_diametral_path`` (a longest path, which gives both the
diameter and the centers).  ``transforms`` and ``verify`` use them too.
Only the oracle :func:`mostar_bfs` keeps its own distance search.

Everything here is a pure function on immutable data; concurrent
readers need no coordination.
"""

from __future__ import annotations

import operator
from collections import Counter, deque
from collections.abc import Sequence
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, NamedTuple

import numpy as np

__all__ = [
    "Tree",
    "EdgeSplit",
    "SplitSequence",
    "TreeStats",
    "mostar_fast",
    "mostar_bfs",
    "psi_edge",
    "stats",
    "canonical_form",
    "is_isomorphic",
]

# Up to this order the pure-Python BFS beats scipy's; above it the
# constructor calls scipy.  Either way it keeps the search's parent and order.
_SMALL_N = 2048

# Rows per block when splits are read out of their columns.
_BLOCK = 8192

_MAX_N = np.iinfo(np.int32).max  # the largest order: the BFS and size arrays are int32


class EdgeSplit(NamedTuple):
    """Per-edge split: component counts on each side and the contribution."""

    edge: tuple[int, int]
    n_u: int
    n_v: int
    psi: int


class SplitSequence(Sequence):
    """Sequence of :class:`EdgeSplit`, materialized lazily.

    Backed by two int64 columns at every size: the ``(m, 2)`` edges and
    the ``n_u`` counts.  A million-edge result therefore costs two
    arrays; ``n_v`` and ``psi`` are derived a block of rows at a time by
    :meth:`_blocks`, and :class:`EdgeSplit` records, with Python ints,
    are built from those blocks only on indexing or iteration.  Supports
    ``len``, indexing, slicing and iteration like a plain list.
    """

    __slots__ = ("_edges", "_n_u", "_n")

    def __init__(self, edges, n_u_values, n: int):
        self._edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self._n_u = np.asarray(n_u_values, dtype=np.int64)
        self._n = n

    def __len__(self) -> int:
        return len(self._n_u)

    def _blocks(self) -> Iterator[np.ndarray]:
        """Rows ``u, v, n_u, n_v, psi`` as ``(k, 5)`` int64 arrays of at
        most ``_BLOCK`` rows each."""
        n = self._n
        for lo in range(0, len(self), _BLOCK):
            s = self._n_u[lo:lo + _BLOCK]
            yield np.column_stack((self._edges[lo:lo + _BLOCK], s, n - s, np.abs(n - 2 * s)))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(SplitSequence(self._edges[i], self._n_u[i], self._n))
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(i)
        return self[i:i + 1][0]

    def __iter__(self) -> Iterator[EdgeSplit]:
        for block in self._blocks():
            u, v, n_u, n_v, psi = block.T.tolist()
            yield from map(EdgeSplit._make, zip(zip(u, v), n_u, n_v, psi))

    def __eq__(self, other) -> bool:
        if isinstance(other, (SplitSequence, list, tuple)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        if len(self) <= 8:
            return f"SplitSequence({list(self)!r})"
        return f"SplitSequence(<{len(self)} splits>)"


class Tree:
    """Immutable labeled tree on vertex ids ``0..n-1``.

    Construction validates the full invariant set: exactly ``n - 1``
    edges over in-range integer ids, no loops, and a single connected
    component.  Anything else raises ``ValueError``.  A one-vertex tree
    (``n = 1``, no edges) is accepted.

    The check is one breadth-first search from vertex 0: pure Python up
    to ``_SMALL_N`` vertices, scipy's compiled BFS above it.  The tree
    keeps its orientation, ``_parent`` and ``_order`` (lists of Python
    ints when small, scipy's int32 arrays when large), so no later walk
    (:func:`mostar_fast`, ``_diametral_path``) searches from 0 again.

    Each edge is normalized to ``(min, max)`` and kept in the order
    given to the constructor.  Up to ``_SMALL_N`` vertices the edges
    are stored as a tuple of pairs of Python ints (an ndarray input is
    converted with ``tolist`` first, any other integer-like id with
    ``operator.index``).  Above it they are stored as an ``(n - 1, 2)``
    int64 array, and ``edges`` is a tuple view of that array, built on
    first use.  Either way ``edges`` and ``adj`` hold Python ints.
    """

    __slots__ = ("n", "_edges", "_adj", "_degrees", "_earr", "_parent", "_order", "_edge_set")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        try:
            if isinstance(n, bool):
                raise TypeError
            n = operator.index(n)
        except TypeError:
            raise ValueError(f"vertex count must be a positive integer, got {n!r}") from None
        if n < 1:
            raise ValueError(f"vertex count must be a positive integer, got {n!r}")
        if n > _MAX_N:
            raise ValueError(f"vertex count {n} exceeds {_MAX_N}, the largest order a tree holds")
        self.n = n
        self._edges = None
        self._adj = None
        self._degrees = None
        self._earr = None
        self._edge_set = None
        if n <= _SMALL_N:
            norm = _pairs(edges.tolist() if isinstance(edges, np.ndarray) else edges)
            if len(norm) != n - 1:
                raise ValueError(f"a tree on {n} vertices needs {n - 1} edges, got {len(norm)}")
            self._edges = norm
            self._parent, self._order = _bfs(self._build_adj())
        else:
            self._orient(edges)
        if len(self._order) != n:
            raise ValueError("edges do not form a connected tree")

    # -- construction helpers -------------------------------------------------

    def _build_adj(self):
        if self._adj is None:
            n = self.n
            adj = [[] for _ in range(n)]
            for u, v in self.edges:
                if u < 0 or v >= n or u == v:
                    _reject_edge(u, v, n)
                adj[u].append(v)
                adj[v].append(u)
            self._adj = tuple(tuple(a) for a in adj)
        return self._adj

    def _orient(self, edges) -> None:
        """Check the edges as an array and keep its BFS orientation.  An
        array made here from ``edges`` is freed before the search.

        ``_parent[x]`` is the parent of ``x`` with the tree rooted at 0
        (scipy's negative placeholder at the root) and ``_order`` lists
        the vertices in BFS order, both int32 as scipy returns them.
        """
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import breadth_first_order

        n = self.n
        edges = edges if isinstance(edges, (np.ndarray, list, tuple)) else list(edges)
        try:
            e = np.asarray(edges)
        except (TypeError, ValueError) as exc:  # e.g. edges of unequal lengths
            raise ValueError(f"edges must be pairs of integer ids: {exc}") from None
        count = len(e) if e.ndim else 0
        if count != n - 1:
            raise ValueError(f"a tree on {n} vertices needs {n - 1} edges, got {count}")
        if e.shape[1:] != (2,):
            raise ValueError(f"edges must be pairs of integer ids: got array shape {e.shape}")
        if e.dtype.kind not in "iu":  # e.g. an id past int64: judged as a small tree is
            for u, v in _pairs(e.tolist() if isinstance(edges, np.ndarray) else edges):
                if u < 0 or v >= n or u == v:
                    _reject_edge(u, v, n)
        a, b = e.astype(np.int64, copy=False).T
        e = np.empty((n - 1, 2), dtype=np.int64)  # never the caller's array
        u = np.minimum(a, b, out=e[:, 0])
        v = np.maximum(a, b, out=e[:, 1])
        del a, b, edges  # a temporary input array or list is freed before the search
        if u.min() < 0 or v.max() >= n or (u == v).any():
            i = np.flatnonzero((u < 0) | (v >= n) | (u == v))[0]  # the first bad edge
            _reject_edge(int(u[i]), int(v[i]), n)
        mat = coo_matrix((np.ones(n - 1, dtype=np.int8), (u, v)), shape=(n, n))
        e.flags.writeable = False  # every SplitSequence of this tree shares it
        self._earr = e
        self._order, self._parent = breadth_first_order(mat, 0, directed=False, return_predecessors=True)

    # -- structure accessors ---------------------------------------------------

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edge pairs ``(min, max)`` in constructor order."""
        if self._edges is None:
            self._edges = tuple(map(tuple, self._earr.tolist()))
        return self._edges

    @property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex neighbor tuples."""
        return self._build_adj()

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    @property
    def degrees(self) -> tuple[int, ...]:
        if self._degrees is None:
            self._degrees = tuple(len(a) for a in self.adj)
        return self._degrees

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edge_set(self) -> frozenset:
        if self._edge_set is None:
            self._edge_set = frozenset(self.edges)
        return self._edge_set

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edge_set()

    def replace_edges(self, drop: Iterable[tuple[int, int]], add: Iterable[tuple[int, int]]) -> "Tree":
        """New tree with ``drop`` edges removed and ``add`` edges appended."""
        dropped = {(u, v) if u < v else (v, u) for u, v in drop}
        missing = dropped - self.edge_set()
        if missing:
            raise ValueError(f"not edges of this tree: {sorted(missing)}")
        kept = [e for e in self.edges if e not in dropped]
        kept.extend(add)
        return Tree(self.n, kept)

    def __eq__(self, other) -> bool:
        if isinstance(other, Tree):
            return self.n == other.n and frozenset(self.edges) == frozenset(other.edges)
        return NotImplemented

    def __repr__(self) -> str:
        if self.n <= 12:
            return f"Tree(n={self.n}, edges={list(self.edges)})"
        return f"Tree(n={self.n}, <{self.n - 1} edges>)"


def _pairs(edges) -> tuple[tuple[int, int], ...]:
    """Each edge as a ``(min, max)`` pair of Python ints."""
    index = operator.index  # numpy or other integer-like ids become Python ints
    try:
        return tuple((index(u), index(v)) if u < v else (index(v), index(u)) for u, v in edges)
    except (TypeError, ValueError) as exc:  # a non-integer id or an edge not a pair
        raise ValueError(f"edges must be pairs of integer ids: {exc}") from None


def _reject_edge(u: int, v: int, n: int):
    """Raise the one error for a normalized edge that is out of range or a loop."""
    if u < 0 or v >= n:
        raise ValueError(f"edge ({u}, {v}) uses ids outside 0..{n - 1}")
    raise ValueError(f"loop edge at vertex {u}")


# -- Mostar index --------------------------------------------------------------


def _bfs(adj, root: int = 0) -> tuple[list[int], list[int]]:
    """(parent, order) of a breadth-first search from ``root``, pure Python.

    ``order`` lists the vertices reached; ``parent[root]`` and the
    parent of every unreached vertex are -1.
    """
    parent = [-1] * len(adj)
    parent[root] = root
    order = [root]
    for x in order:
        for y in adj[x]:
            if parent[y] < 0:
                parent[y] = x
                order.append(y)
    parent[root] = -1
    return parent, order


def _climb(parent: list[int], v: int) -> list[int]:
    """``v`` and its ancestors under ``parent``, up to the search root."""
    path = [v]
    while parent[v] >= 0:
        v = parent[v]
        path.append(v)
    return path


def _path(adj, x: int, y: int) -> list[int]:
    """Vertices of the x-y path, x first and y last."""
    return _climb(_bfs(adj, y)[0], x)


def _side(adj, x: int, blocked: int) -> list[int]:
    """Vertices reachable from ``x`` without entering ``blocked``.

    For a neighbor ``blocked`` of ``x`` this is the x-side of that edge;
    in general it is the component of the tree minus ``blocked`` that
    holds ``x``.
    """
    seen = {x, blocked}
    order = [x]
    for a in order:
        for b in adj[a]:
            if b not in seen:
                seen.add(b)
                order.append(b)
    return order


def _chain(adj, deg, prev: int, cur: int) -> list[int]:
    """Walk from ``cur`` (entered from ``prev``) through degree-2 vertices.

    The walk ends at, and includes, the first vertex of another degree.
    """
    walk = [cur]
    while deg[cur] == 2:
        a, b = adj[cur]
        prev, cur = cur, b if a == prev else a
        walk.append(cur)
    return walk


def _diametral_path(t: Tree) -> list[int]:
    """A longest path.  The constructor's search from 0 ends at an end of
    some longest path, and a search from that end ends at the other one."""
    parent, order = _bfs(t.adj, int(t._order[-1]))
    return _climb(parent, order[-1])


def _spine(t: Tree) -> list[int] | None:
    """The internal (degree >= 2) vertices in path order, starting at the
    end with the smaller id, or None when they do not form a path, that
    is when the tree is not a caterpillar."""
    deg = t.degrees
    inner = {v: [w for w in t.adj[v] if deg[w] >= 2] for v in range(t.n) if deg[v] >= 2}
    if len(inner) <= 1:
        return list(inner)
    width = {v: len(ws) for v, ws in inner.items()}
    if max(width.values()) > 2:
        return None
    end = min(v for v in inner if width[v] == 1)
    return [end, *_chain(inner, width, end, inner[end][0])]


def mostar_fast(t: Tree) -> tuple[int, SplitSequence]:
    """Mostar index and per-edge splits.

    Sums every subtree size in one pass over the orientation the
    constructor kept, rooted at vertex 0: linear time in pure Python for
    trees of at most ``_SMALL_N`` vertices, one O(n) compiled triangular
    solve above that (:func:`mostar._sizes.subtree_sizes`).  The split
    of edge (u, v) is then (s, n - s) for the child-side size s, and its
    contribution is ``|n - 2*s|``.

    Returns
    -------
    (total, splits)
        ``total`` is the Mostar index; ``splits`` is a sequence of
        :class:`EdgeSplit` aligned with ``t.edges``.
    """
    n, parent, order = t.n, t._parent, t._order
    if t._earr is None:
        sizes = [1] * n
        for i in range(n - 1, 0, -1):
            x = order[i]
            sizes[parent[x]] += sizes[x]
        n_u_values = []
        total = 0
        for u, v in t.edges:
            n_u = sizes[u] if parent[u] == v else n - sizes[v]
            n_u_values.append(n_u)
            total += abs(n - 2 * n_u)
        return total, SplitSequence(t.edges, n_u_values, n)
    from ._sizes import subtree_sizes  # loaded, like scipy, with the first large tree

    sizes = subtree_sizes(parent, order)
    u = t._earr[:, 0]
    v = t._earr[:, 1]
    n_u = np.where(parent[u] == v, sizes[u], n - sizes[v])
    total = int(np.abs(n - 2 * n_u).sum())
    return total, SplitSequence(t._earr, n_u, n)


def _bfs_distances(adj, start: int) -> list[int]:
    """Distance from ``start`` to every vertex; used only by the oracle."""
    dist = [-1] * len(adj)
    dist[start] = 0
    queue = deque([start])
    while queue:
        x = queue.popleft()
        dx = dist[x] + 1
        for y in adj[x]:
            if dist[y] < 0:
                dist[y] = dx
                queue.append(y)
    return dist


def mostar_bfs(t: Tree) -> tuple[int, SplitSequence]:
    """Mostar index by the definition, one edge at a time.

    For every edge uv this runs two breadth-first sweeps and counts the
    vertices strictly closer to u and strictly closer to v.  Quadratic
    in n; this is the oracle that :func:`mostar_fast` is checked
    against, so it deliberately shares no machinery with it.
    """
    n = t.n
    adj = t.adj
    n_u_values = []
    total = 0
    for u, v in t.edges:
        du = _bfs_distances(adj, u)
        dv = _bfs_distances(adj, v)
        n_u = sum(1 for w in range(n) if du[w] < dv[w])
        n_v = sum(1 for w in range(n) if dv[w] < du[w])
        n_u_values.append(n_u)
        total += abs(n_u - n_v)
    return total, SplitSequence(t.edges, n_u_values, n)


def psi_edge(t: Tree, edge: tuple[int, int]) -> EdgeSplit:
    """Split of a single edge; raises ``ValueError`` for a non-edge.

    The contribution satisfies ``psi <= n - 2`` with equality exactly
    when the edge is pendent.
    """
    u, v = edge
    key = (u, v) if u < v else (v, u)
    if key not in t.edge_set():
        raise ValueError(f"({u}, {v}) is not an edge of this tree")
    n_u = len(_side(t.adj, u, v))
    return EdgeSplit((u, v), n_u, t.n - n_u, abs(t.n - 2 * n_u))


# -- structural statistics -----------------------------------------------------


@dataclass(frozen=True)
class TreeStats:
    """Degree and pendent-path statistics of a tree of order >= 2.

    ``pendent_path_census`` maps a length r to the number of pendent
    paths of length r: one per leaf whose pendant run (the distance from
    the leaf to the nearest branch vertex, or n - 2 when the tree is a
    path) is at least r.  ``maximal_run_census`` counts each leaf only
    at its full run length; this is the alternative, stricter reading of
    "has a pendent path of length r".
    """

    degree_sequence: tuple[int, ...]
    odd_count: int
    deg2_count: int
    branch_count: int
    leaf_count: int
    pendent_path_census: MappingProxyType
    maximal_run_census: MappingProxyType
    is_series_reduced: bool
    is_caterpillar: bool
    diameter: int

    def pendent_paths(self, r: int) -> int:
        """Number of pendent paths of length exactly r (census reading)."""
        return self.pendent_path_census.get(r, 0)

    def maximal_runs(self, r: int) -> int:
        return self.maximal_run_census.get(r, 0)


def _pendant_runs(t: Tree) -> list[int]:
    """Run length of every leaf: distance to the nearest branch vertex.

    In a path there is no branch vertex and the run from each end is
    n - 2 (the far endpoint has degree 1 and cannot anchor a pendent
    path).  For n = 2 both runs are 0.
    """
    adj = t.adj
    deg = t.degrees
    runs = []
    for leaf in range(t.n):
        if deg[leaf] != 1:
            continue
        walk = _chain(adj, deg, leaf, adj[leaf][0])
        runs.append(len(walk) if deg[walk[-1]] >= 3 else len(walk) - 1)
    return runs


def stats(t: Tree) -> TreeStats:
    """Compute :class:`TreeStats`; requires n >= 2."""
    n = t.n
    if n < 2:
        raise ValueError("stats requires a tree with at least one edge")
    deg = t.degrees
    degree_sequence = tuple(sorted(deg, reverse=True))
    odd_count = sum(1 for d in deg if d % 2 == 1)
    deg2_count = sum(1 for d in deg if d == 2)
    branch_count = sum(1 for d in deg if d >= 3)
    leaf_count = sum(1 for d in deg if d == 1)

    runs = [run for run in _pendant_runs(t) if run >= 1]
    maximal = dict(Counter(runs))
    census = {r: sum(run >= r for run in runs) for r in range(max(runs, default=0), 0, -1)}

    return TreeStats(
        degree_sequence=degree_sequence,
        odd_count=odd_count,
        deg2_count=deg2_count,
        branch_count=branch_count,
        leaf_count=leaf_count,
        pendent_path_census=MappingProxyType(census),
        maximal_run_census=MappingProxyType(maximal),
        is_series_reduced=(deg2_count == 0),
        is_caterpillar=_spine(t) is not None,
        diameter=len(_diametral_path(t)) - 1,
    )


# -- canonical form ------------------------------------------------------------


def _centers(t: Tree) -> list[int]:
    """The one or two middle vertices of a longest path."""
    path = _diametral_path(t)
    return sorted(path[(len(path) - 1) // 2: len(path) // 2 + 1])


def _rooted_code(t: Tree, root: int) -> str:
    """AHU parenthesization of the tree rooted at ``root``.  A code is
    built from its children's, which are then dropped, so memory stays
    linear in n even on a path."""
    parent, order = (t._parent, t._order) if root == 0 else _bfs(t.adj, root)
    children: list[list[str] | None] = [[] for _ in range(t.n)]
    for x in reversed(order):  # the root comes last
        code = "(" + "".join(sorted(children[x])) + ")"
        children[x] = None
        if x != root:
            children[parent[x]].append(code)
    return code


def canonical_form(t: Tree) -> str:
    """Canonical code: equal strings exactly for isomorphic trees.

    Rooted AHU codes are computed at the tree center(s) and the smaller
    string is returned, which is root-choice independent because any
    isomorphism maps centers to centers.
    """
    return min(_rooted_code(t, c) for c in _centers(t))


def is_isomorphic(a: Tree, b: Tree) -> bool:
    return a.n == b.n and canonical_form(a) == canonical_form(b)
