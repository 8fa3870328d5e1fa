"""Tree surgeries that move the Mostar index in a known direction.

Each operation implements one rewiring used in extremal arguments,
together with the hypothesis that makes the index move strictly:

* :func:`contract_with_pendant` - contract a non-pendent edge and hang
  a fresh leaf off the merged vertex (the index strictly increases).
* :func:`rebalance_paths` - given two pendent paths of lengths l >= m
  at a vertex that carries other structure, move one vertex from the
  short path's tip to the long path's tip (the index of the result is
  strictly smaller than the original when read in the l, m -> l+1, m-1
  direction).
* :func:`move_pendants_to_path_neighbor` - push all pendant leaves at x
  one step toward y, and symmetrically at y; the larger of the two
  results strictly exceeds the original.
* :func:`shift_branch_to_end` - re-attach off-path subtrees of an
  internal vertex of a longest path to the path's near end; under the
  size hypothesis ``n_r >= n_0 + d(v_i, v_0)`` the index strictly
  decreases.  The hypothesis is evaluated and reported, not enforced,
  so callers can observe behavior on both sides of it.
* :func:`relocate_pendant` / :func:`relocate_branch` - re-attach a leaf
  (or a whole hanging subtree) at a different vertex; these realize the
  parameter shifts inside the C, F and A families.

All operations but :func:`attach_two_paths` keep the vertex count;
each returns new trees and never mutates its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .families import _grow
from .tree import Tree, _chain, _diametral_path, _path, _side, mostar_fast

__all__ = [
    "HypothesisError",
    "TransformOutcome",
    "contract_with_pendant",
    "rebalance_paths",
    "move_pendants_to_path_neighbor",
    "shift_branch_to_end",
    "relocate_pendant",
    "relocate_branch",
    "attach_two_paths",
    "outcome",
]


class HypothesisError(ValueError):
    """The structural precondition of a transform does not hold."""


def _check_ids(t: Tree, *ids: int) -> None:
    """Reject vertex ids outside 0..n-1 before they index the tree."""
    bad = [v for v in ids if not 0 <= v < t.n]
    if bad:
        raise ValueError(f"vertex ids {bad} outside 0..{t.n - 1}")


@dataclass(frozen=True)
class TransformOutcome:
    """Before/after pair with index values and the hypothesis flag."""

    before: Tree
    after: Tree
    mo_before: int
    mo_after: int
    hypothesis_held: bool


def outcome(before: Tree, after: Tree, hypothesis_held: bool = True) -> TransformOutcome:
    return TransformOutcome(before, after, mostar_fast(before)[0], mostar_fast(after)[0],
                            hypothesis_held)


def contract_with_pendant(t: Tree, edge: tuple[int, int]) -> Tree:
    """Contract a non-pendent edge into one vertex and add a leaf there.

    The merged vertex keeps the smaller id of the contracted pair; the
    freed larger id becomes the new pendent vertex, so the vertex count
    is preserved.  A pendent edge is rejected.
    """
    u, v = edge
    _check_ids(t, u, v)
    key = (u, v) if u < v else (v, u)
    if key not in t.edge_set():
        raise ValueError(f"({u}, {v}) is not an edge of this tree")
    if t.degree(u) == 1 or t.degree(v) == 1:
        raise HypothesisError(f"edge ({u}, {v}) is pendent; contraction requires a non-pendent edge")
    w, freed = key
    new_edges = []
    for a, b in t.edges:
        if (a, b) == key:
            continue
        if a == u or a == v:
            a = w
        if b == u or b == v:
            b = w
        new_edges.append((a, b))
    new_edges.append((w, freed))
    return Tree(t.n, new_edges)


def _pendant_legs(t: Tree, u: int) -> list[list[int]]:
    """Pendent paths hanging at u, one vertex list per leg (tip last)."""
    deg = t.degrees
    legs = (_chain(t.adj, deg, u, x) for x in sorted(t.adj[u]))
    return [leg for leg in legs if deg[leg[-1]] == 1]


def rebalance_paths(t: Tree, u: int, length_long: int, length_short: int) -> Tree:
    """Move one vertex from the short leg's tip to the long leg's tip.

    ``t`` must carry two pendent paths of lengths ``length_long >=
    length_short >= 1`` at ``u``, and ``u`` must carry structure beyond
    those two legs.  The result has legs of lengths ``length_long + 1``
    and ``length_short - 1`` at ``u``.
    """
    if not length_long >= length_short >= 1:
        raise HypothesisError(
            f"leg lengths must satisfy l >= m >= 1, got l={length_long}, m={length_short}")
    _check_ids(t, u)
    legs = _pendant_legs(t, u)
    long_leg = next((leg for leg in legs if len(leg) == length_long), None)
    short_leg = next(
        (leg for leg in legs if len(leg) == length_short and leg is not long_leg), None)
    if long_leg is None or short_leg is None:
        raise HypothesisError(
            f"no pendent paths of lengths {length_long} and {length_short} found at {u}")
    if t.degree(u) - 2 < 1:
        raise HypothesisError(
            f"vertex {u} carries nothing beyond the two legs; rebalancing a bare path is a no-op")
    moved = short_leg[-1]
    anchor = short_leg[-2] if len(short_leg) >= 2 else u
    return t.replace_edges([(anchor, moved)], [(long_leg[-1], moved)])


def move_pendants_to_path_neighbor(t: Tree, x: int, y: int) -> tuple[Tree, Tree]:
    """Concentrate pendant leaves one step along the x-y path.

    Returns (t1, t2): t1 re-attaches every pendant leaf at x to x's
    neighbor on the path toward y, t2 does the symmetric move at y.
    When x and y are adjacent those neighbors are y and x themselves.
    Requires at least one pendant leaf at each of x and y.
    """
    _check_ids(t, x, y)
    if x == y:
        raise HypothesisError("x and y must be distinct")
    deg = t.degrees
    # y itself can be a leaf adjacent to x only in the two-vertex tree,
    # where the move is degenerate; it is never a movable pendant.
    pend_x = [w for w in t.adj[x] if deg[w] == 1 and w != y]
    pend_y = [w for w in t.adj[y] if deg[w] == 1 and w != x]
    if not pend_x or not pend_y:
        raise HypothesisError(f"need pendant leaves at both {x} and {y}")
    path = _path(t.adj, x, y)
    x_next = path[1]
    y_next = path[-2]
    t1 = t.replace_edges([(x, w) for w in pend_x], [(x_next, w) for w in pend_x])
    t2 = t.replace_edges([(y, w) for w in pend_y], [(y_next, w) for w in pend_y])
    return t1, t2


def shift_branch_to_end(
    t: Tree,
    path: Sequence[int],
    i: int,
    c: int,
    neighbors: Optional[Sequence[int]] = None,
) -> TransformOutcome:
    """Re-attach off-path subtrees of path[i] to the path's first vertex.

    ``path`` must be a longest path of ``t`` (the caller chooses which
    one when several exist).  ``c`` of the off-path neighbors of
    ``path[i]`` are moved, lowest ids first unless ``neighbors`` picks
    them explicitly.  The size hypothesis compares the components of
    ``t - path[i]`` holding the two path ends: with n_0 the order on the
    path[0] side and n_r on the path[-1] side, it reads
    ``n_r >= n_0 + i``.  The outcome records whether it held; the
    surgery is performed either way.
    """
    path = list(path)
    _check_ids(t, *path)
    r = len(path) - 1
    if r < 2:
        raise ValueError("path must have at least three vertices")
    if len(set(path)) != len(path):
        raise ValueError("path repeats a vertex")
    for a, b in zip(path, path[1:]):
        if not t.has_edge(a, b):
            raise ValueError(f"({a}, {b}) is not an edge; path is not a path of the tree")
    if r != len(_diametral_path(t)) - 1:
        raise ValueError("path is not a longest path of the tree")
    if not 1 <= i <= r - 1:
        raise ValueError(f"i must index an internal path vertex, got i={i}")
    vi = path[i]
    on_path = {path[i - 1], path[i + 1]}
    off = [w for w in sorted(t.adj[vi]) if w not in on_path]
    if not off:
        raise ValueError(f"path vertex {vi} has no off-path neighbors")
    if neighbors is None:
        if not 1 <= c <= len(off):
            raise ValueError(f"c must be between 1 and {len(off)}, got {c}")
        chosen = off[:c]
    else:
        chosen = list(neighbors)
        if len(chosen) != c or not set(chosen) <= set(off):
            raise ValueError(f"neighbors must pick exactly c={c} off-path neighbors of {vi}")
    n_0 = len(_side(t.adj, path[0], vi))
    n_r = len(_side(t.adj, path[-1], vi))
    held = n_r >= n_0 + i
    after = t.replace_edges([(vi, w) for w in chosen], [(path[0], w) for w in chosen])
    return outcome(t, after, hypothesis_held=held)


def relocate_pendant(t: Tree, leaf: int, frm: int, to: int) -> Tree:
    """Re-attach a pendant leaf from ``frm`` to ``to``."""
    _check_ids(t, leaf, frm, to)
    if t.degree(leaf) != 1:
        raise HypothesisError(f"vertex {leaf} is not pendent")
    if not t.has_edge(leaf, frm):
        raise ValueError(f"leaf {leaf} is not attached at {frm}")
    if to == frm or to == leaf:
        raise ValueError("target must be a different vertex")
    return t.replace_edges([(frm, leaf)], [(to, leaf)])


def relocate_branch(t: Tree, root: int, frm: int, to: int) -> Tree:
    """Re-attach the whole subtree hanging at ``root`` from ``frm`` to ``to``.

    Generalizes :func:`relocate_pendant` to move a pendent path (or any
    hanging subtree) in one step; ``to`` must lie outside the moved
    subtree, otherwise the result would not be a tree.
    """
    _check_ids(t, root, frm, to)
    if not t.has_edge(root, frm):
        raise ValueError(f"({root}, {frm}) is not an edge of this tree")
    if to == frm:
        raise ValueError("target must be a different vertex")
    if to in _side(t.adj, root, frm):
        raise ValueError(f"target {to} lies inside the moved subtree")
    return t.replace_edges([(frm, root)], [(to, root)])


def attach_two_paths(t: Tree, u: int, length_a: int, length_b: int) -> Tree:
    """Attach two new pendent paths of the given lengths at ``u``.

    New vertices take ids t.n, t.n+1, ... along the first path and then
    the second, grown by the helper the family constructors use.  A zero
    length attaches nothing.
    """
    _check_ids(t, u)
    if length_a < 0 or length_b < 0:
        raise ValueError("path lengths must be >= 0")
    return _grow(t.n + length_a + length_b, [(u, length_a), (u, length_b)], t.edges)
