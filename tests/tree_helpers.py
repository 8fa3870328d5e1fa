"""Reference walks shared by the surgery tests and the acceptance gate."""

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
