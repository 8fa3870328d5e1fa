"""Subtree sizes of a large tree in one compiled pass.

:func:`mostar.tree.mostar_fast` imports this module with the first tree
above ``_SMALL_N`` vertices, as it imports scipy, so commands that never
index a large tree (``enumerate``, ``verify``) neither load nor compile
it.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csc_array
from scipy.sparse.linalg import spsolve_triangular

# float32 holds every integer up to 2**24 exactly, so up to this order
# the solve runs in float32, on half the memory of float64.
F32_MAX_N = 2**24


def subtree_sizes(parent: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Size of every subtree, from the BFS ``parent`` and ``order`` of
    :meth:`mostar.tree.Tree._orient`, in one compiled O(n) pass.

    Number the vertices by BFS position from the end, so that every
    child comes before its parent.  "Size = 1 + the children's sizes" is
    then the unit lower-triangular system (I - C) x = 1, and column j of
    the matrix holds only the diagonal and the parent's row, in that
    order.  The CSC arrays are written directly, with no sort, and
    SuperLU's compiled forward substitution is the whole pass.  Every
    partial sum is an integer of at most n, so it is exact in float32
    up to ``F32_MAX_N`` vertices and in float64 above.
    """
    n = len(order)
    pos = np.empty(n, dtype=np.int32)
    pos[order] = np.arange(n - 1, -1, -1, dtype=np.int32)
    rows = np.empty(2 * n - 1, dtype=np.int32)
    rows[0::2] = np.arange(n, dtype=np.int32)
    rows[1::2] = pos[parent[order[:0:-1]]]
    del pos  # freed before the solve
    starts = np.arange(0, 2 * n + 1, 2, dtype=np.int32)
    starts[-1] = 2 * n - 1  # the root's column holds only the diagonal
    dtype = np.float32 if n <= F32_MAX_N else np.float64
    a = csc_array((np.full(2 * n - 1, -1, dtype=dtype), rows, starts), shape=(n, n))
    x = spsolve_triangular(a, np.ones(n, dtype=dtype), lower=True, unit_diagonal=True,
                           overwrite_A=True, overwrite_b=True)
    sizes = np.empty(n, dtype=np.int64)
    sizes[order[::-1]] = x
    return sizes
