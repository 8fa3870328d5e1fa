"""Reference walks and a third index oracle shared by the tests."""

import numpy as np

from mostar import stats
from mostar.tree import _bfs, _climb


def non_pendent_edges(t):
    return [e for e in t.edges if t.degree(e[0]) > 1 and t.degree(e[1]) > 1]


def diametral_paths(t):
    """Every path realizing the diameter, one per ordered endpoint pair
    (a, b) in row-major order, a first: one search per source a."""
    d = stats(t).diameter
    paths = []
    for a in range(t.n):
        parent, order = _bfs(t.adj, a)
        depth = [0] * t.n
        for v in order[1:]:
            depth[v] = depth[parent[v]] + 1
        paths += [_climb(parent, b)[::-1] for b in range(t.n) if depth[b] == d and b != a]
    return paths


def _graph(n, u, v):
    from scipy.sparse import coo_matrix

    return coo_matrix((np.ones(len(u), np.int8), (u, v)), shape=(n, n))


def transmission(n, edges, c):
    """D(c), the sum of the distances from c, for each tree of order
    n >= 2 once its vertex c is shown a centroid.

    A third Mostar-index oracle, from the transmission identity.  Rooted
    at a centroid c, no child side s exceeds n/2, so every edge gives
    n - 2s, its smaller side is s, and the sides sum to D(c):
    Mo = n(n - 1) - 2 D(c), and the smaller sides sum to D(c).  The
    check reads only the edges, through scipy's graph routines: c is a
    centroid when no ``connected_components`` label of the tree less
    c's edges holds more than n/2 vertices, and D(c) comes from one
    unweighted search.  ``edges`` is (n - 1, 2) for one tree or
    (trees, n - 1, 2) for many, which are then laid side by side, and
    the search starts from a source joined to each tree's c.  It checks
    the two totals, never a single split.
    """
    from scipy.sparse.csgraph import connected_components, shortest_path

    edges = np.asarray(edges, np.int64).reshape(-1, n - 1, 2)
    trees = len(edges)
    first = np.arange(trees) * n  # tree i holds the vertices first[i]..first[i] + n - 1
    u, v = (edges + first[:, None, None]).reshape(-1, 2).T
    roots = first + np.broadcast_to(c, trees)
    own = np.repeat(roots, n - 1)
    off = (u != own) & (v != own)
    labels = connected_components(_graph(trees * n, u[off], v[off]), directed=False)[1]
    assert 2 * np.bincount(labels).max() <= n, "a candidate is not a centroid"
    source = trees * n
    u = np.concatenate((u, np.full(trees, source)))
    v = np.concatenate((v, roots))
    dist = shortest_path(_graph(source + 1, u, v), directed=False, unweighted=True,
                         indices=source)[:-1]
    assert np.isfinite(dist).all(), "the edges do not connect each tree"
    return dist.reshape(trees, n).sum(axis=1).astype(np.int64) - n  # 1 + D(c) per vertex


def assert_transmission_identity(n, edges, mo, n_u):
    """Each tree's index ``mo`` and splits ``n_u`` (aligned with its
    edges) meet the transmission identity at a centroid read off the
    splits: a vertex with no edge whose far side holds more than n/2."""
    edges = np.asarray(edges, np.int64).reshape(-1, n - 1, 2)
    n_u = np.asarray(n_u, np.int64).reshape(len(edges), n - 1)
    off = np.zeros((len(edges), n), bool)
    for far, side in ((1, n_u), (0, n - n_u)):
        tree, i = np.nonzero(2 * side > n)
        off[tree, edges[tree, i, far]] = True
    d = transmission(n, edges, np.argmin(off, axis=1))
    assert (np.asarray(mo, np.int64) == n * (n - 1) - 2 * d).all()
    assert (np.minimum(n_u, n - n_u).sum(axis=1) == d).all()
