"""Property tests on random labeled trees from both size regimes."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mostar.tree as tree_mod
from mostar import (
    Tree,
    canonical_form,
    mostar_bfs,
    mostar_fast,
    parse_edge_list,
    psi_edge,
    stats,
    to_edge_list_text,
)
from mostar.enumeration import prufer_to_edges

SMALL_N = tree_mod._SMALL_N


@st.composite
def relabeled_trees(draw):
    """(n, edges): a Prufer-decoded tree, relabeled and shuffled, of an
    order on either side of the small-tree threshold."""
    n = draw(st.one_of(st.integers(2, 60), st.integers(SMALL_N + 1, SMALL_N + 400)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = prufer_to_edges([rng.randrange(n) for _ in range(n - 2)]) if n > 2 else [(0, 1)]
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[u], label[v]) if rng.random() < 0.5 else (label[v], label[u])
             for u, v in edges]
    rng.shuffle(edges)
    return n, edges


@st.composite
def defective_trees(draw):
    """(n, edges): a drawn tree with one defect that no tree on n vertices has."""
    n, edges = draw(relabeled_trees())
    i = draw(st.integers(0, n - 2))
    u, v = edges[i]
    defect = draw(st.sampled_from(["range", "loop", "duplicate", "missing", "extra", "type"]))
    if defect == "range":
        edges[i] = (u, draw(st.sampled_from([-1, n, n + 7])))
    elif defect == "loop":
        edges[i] = (u, u)
    elif defect == "duplicate":  # reversed, in place of another edge (extra when n = 2)
        if n > 2:
            edges[i - 1] = (v, u)
        else:
            edges.append((v, u))
    elif defect == "missing":
        del edges[i]
    elif defect == "extra":
        edges.append((u, draw(st.integers(0, n - 1))))
    else:
        edges[i] = (u, draw(st.sampled_from([0.5, 1.0, "1", None])))
    return n, edges


@settings(max_examples=60, deadline=None, database=None)
@given(defective_trees())
def test_bad_edges_rejected_in_both_regimes(case):
    """One defect is a ValueError on the pure-Python and the array path alike."""
    n, edges = case
    for small_n in (SMALL_N, 1, 10**7):
        with mock.patch.object(tree_mod, "_SMALL_N", small_n), pytest.raises(ValueError):
            Tree(n, edges)


@settings(max_examples=40, deadline=None, database=None)
@given(relabeled_trees())
def test_text_round_trip_and_regimes_agree(case):
    n, edges = case
    t = Tree(n, edges)
    assert (t._parent is None) == (n <= SMALL_N)
    assert parse_edge_list(to_edge_list_text(t)) == t
    # the same edges built in the other regime give the same splits
    with mock.patch.object(tree_mod, "_SMALL_N", 1 if n <= SMALL_N else 10**7):
        other = Tree(n, edges)
    assert (other._parent is None) != (t._parent is None)
    assert other.edges == t.edges
    total, splits = mostar_fast(t)
    other_total, other_splits = mostar_fast(other)
    assert total == other_total == sum(s.psi for s in splits)
    assert list(splits) == list(other_splits)


@settings(max_examples=60, deadline=None, database=None)
@given(relabeled_trees().filter(lambda case: case[0] <= 60), st.randoms(use_true_random=False))
def test_walks_match_distance_definitions(case, rnd):
    """The walks behind stats, centers, psi_edge and paths agree with
    all-pairs distances from the oracle's own search, and the index pass
    agrees with the oracle in both size regimes."""
    n, edges = case
    t = Tree(n, edges)
    with mock.patch.object(tree_mod, "_SMALL_N", 1):
        array_backed = Tree(n, edges)
    assert t._parent is None and array_backed._parent is not None
    for tree in (t, array_backed):
        fast_total, fast_splits = mostar_fast(tree)
        bfs_total, bfs_splits = mostar_bfs(tree)
        assert fast_total == bfs_total and list(fast_splits) == list(bfs_splits)
    dist = [tree_mod._bfs_distances(t.adj, v) for v in range(n)]
    ecc = [max(row) for row in dist]
    assert stats(t).diameter == max(ecc)
    assert tree_mod._centers(t) == [v for v in range(n) if ecc[v] == min(ecc)]
    for u, v in t.edges:
        for a, b in ((u, v), (v, u)):
            closer = sum(1 for w in range(n) if dist[a][w] < dist[b][w])
            assert psi_edge(t, (a, b)).n_u == closer
    a = rnd.randrange(n)
    for b in range(n):
        path = tree_mod._path(t.adj, a, b)
        assert path[0] == a and path[-1] == b and len(path) - 1 == dist[a][b]
        assert all(t.has_edge(x, y) for x, y in zip(path, path[1:]))
    label = list(range(n))
    rnd.shuffle(label)
    relabeled = Tree(n, [(label[x], label[y]) for x, y in t.edges])
    assert canonical_form(relabeled) == canonical_form(t)
