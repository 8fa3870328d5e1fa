"""Seeded benchmark inputs and their expected answers.

Nothing here imports ``mostar``: the trees are generated and their
Mostar indices computed by this module alone, so a change to the
library can change neither the inputs nor the answers they are checked
against.  Every tree gets randomly permuted labels, a shuffled edge
order and randomly swapped endpoints.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def _scramble(edges: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Shuffle the edge order and swap each edge's endpoints at random."""
    edges = edges[rng.permutation(len(edges))]
    swap = rng.random(len(edges)) < 0.5
    edges[swap] = edges[swap][:, ::-1]
    return edges


def random_tree(n: int, rng: np.random.Generator) -> tuple[np.ndarray, int, np.ndarray]:
    """Uniformly random labeled tree on n >= 2 vertices by Prufer decode.

    Returns ``(edges, mostar, psi)``: the ``(n-1, 2)`` edge array, the
    Mostar index, and every edge's contribution ``|n - 2s|``.  The
    decode removes leaves in an order where each removed leaf's other
    neighbours are already gone, so rooting at vertex ``n - 1`` the
    removed leaf is a child whose subtree size is final; one pass
    therefore yields both the edges and the subtree sizes.
    """
    seq = rng.integers(0, n, n - 2).tolist()
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    size = [1] * n
    child = [0] * (n - 1)
    parent = [0] * (n - 1)
    index = degree.index(1)
    leaf = index
    for k, s in enumerate(seq):
        child[k] = leaf
        parent[k] = s
        size[s] += size[leaf]
        degree[s] -= 1
        if degree[s] == 1 and s < index:
            leaf = s
        else:
            index += 1
            while degree[index] != 1:
                index += 1
            leaf = index
    child[n - 2] = leaf
    parent[n - 2] = n - 1
    child_arr = np.asarray(child, dtype=np.int64)
    psi = np.abs(n - 2 * np.asarray(size, dtype=np.int64)[child_arr])
    perm = rng.permutation(n)
    edges = np.stack([perm[child_arr], perm[np.asarray(parent, dtype=np.int64)]], axis=1)
    return _scramble(edges, rng), int(psi.sum()), psi


def path(n: int, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Path on n vertices in random label order, and its index floor((n-1)^2 / 2)."""
    order = rng.permutation(n)
    edges = np.stack([order[:-1], order[1:]], axis=1)
    return _scramble(edges, rng), (n - 1) ** 2 // 2


def broom(n: int, depth: int, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Broom whose farthest vertex from vertex 0 is ``depth`` edges away.

    A handle path of ``depth - 1`` edges runs from vertex 0 (the tip) to
    a hub carrying every other vertex as a leaf.  The handle's i-th edge
    from the tip contributes ``n - 2i`` and each of the ``n - depth``
    leaf edges ``n - 2``.  Labels other than the tip are permuted.
    """
    handle = depth - 1
    if not 1 <= handle < n // 2:
        raise ValueError(f"broom depth {depth} does not fit n = {n}")
    labels = np.concatenate(([0], 1 + rng.permutation(n - 1)))
    hub = labels[handle]
    edges = np.concatenate([
        np.stack([labels[:handle], labels[1:handle + 1]], axis=1),
        np.stack([np.full(n - handle - 1, hub), labels[handle + 1:]], axis=1),
    ])
    leaves = n - handle - 1
    mostar = handle * n - handle * (handle + 1) + leaves * (n - 2)
    return _scramble(edges, rng), mostar


def write_edge_list(target: Path, edges: np.ndarray) -> None:
    """Write the edge-list text format: the vertex count, then one 'u v' line per edge."""
    n = len(edges) + 1
    text = (f"{n}\n" + "%d %d\n" * len(edges)) % tuple(edges.ravel().tolist())
    target.write_text(text)
