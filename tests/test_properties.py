"""Property tests on random labeled trees from both size regimes."""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mostar.io as io_mod
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
from mostar.transforms import (
    _pendant_legs,
    attach_two_paths,
    contract_with_pendant,
    move_pendants_to_path_neighbor,
    rebalance_paths,
    relocate_branch,
    relocate_pendant,
    shift_branch_to_end,
)

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
    """(defect, n, edges): a drawn tree with one defect that no tree on n
    vertices has."""
    n, edges = draw(relabeled_trees())
    i = draw(st.integers(0, n - 2))
    u, v = edges[i]
    defect = draw(st.sampled_from(
        ["range", "loop", "duplicate", "missing", "extra", "type", "pair"]))
    if defect == "range":
        edges[i] = (u, draw(st.sampled_from([-1, n, n + 7, 2**64, -2**63 - 1])))
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
    elif defect == "type":
        edges[i] = (u, draw(st.sampled_from([0.5, 1.0, "1", None])))
    else:
        edges[i] = draw(st.sampled_from([(u,), (u, v, v)]))
    return defect, n, edges


@settings(max_examples=60, deadline=None, database=None)
@given(defective_trees())
@example(("range", 3, [(0, 1), (2**64, 1)]))  # ids outside int64, drawn in a few examples only
@example(("range", 3, [(0, 1), (1, -2**63 - 1)]))
def test_bad_edges_rejected_in_both_regimes(case):
    """One defect is the same ValueError on the pure-Python and the array
    path; for a non-integer id or a non-pair edge, the same up to the
    reason the parser gave."""
    defect, n, edges = case
    messages = set()
    for small_n in (SMALL_N, 1, 10**7):
        with mock.patch.object(tree_mod, "_SMALL_N", small_n), \
                pytest.raises(ValueError) as exc:
            Tree(n, edges)
        messages.add(str(exc.value))
    if defect in ("type", "pair"):
        assert all(m.startswith("edges must be pairs of integer ids: ") for m in messages)
    else:
        assert len(messages) == 1, messages


@settings(max_examples=40, deadline=None, database=None)
@given(relabeled_trees())
def test_text_round_trip_and_regimes_agree(case):
    n, edges = case
    t = Tree(n, edges)
    assert isinstance(t._parent, list if n <= SMALL_N else np.ndarray)
    assert parse_edge_list(to_edge_list_text(t)) == t
    # the same edges built in the other regime give the same splits
    with mock.patch.object(tree_mod, "_SMALL_N", 1 if n <= SMALL_N else 10**7):
        other = Tree(n, edges)
    assert isinstance(other._parent, np.ndarray if n <= SMALL_N else list)
    assert other.edges == t.edges
    # each regime's longest path starts at the last vertex of its own search
    assert stats(t).diameter == stats(other).diameter
    assert tree_mod._centers(t) == tree_mod._centers(other)
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
    assert isinstance(t._parent, list) and isinstance(array_backed._parent, np.ndarray)
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


# The six ASCII whitespace characters, and CRLF.
SEPARATORS = (" ", "\t", "\n", "\r", "\x0b", "\x0c", "\r\n")
# Each is a token or a separator that only the token path reads; a lone
# surrogate is a token that ``str.encode`` refuses.
OUT_OF_GATE = ("+3", "1_0", "\u0663", "\xa0", "\x1c", "2.5", "\ud800")


@st.composite
def edge_list_texts(draw):
    """Edge-list text of a drawn tree with digits and ASCII whitespace
    only (some ids with leading zeros, 18-25 digit runs or the int64
    maximum, a token missing or repeated), or with one token or
    separator out of that alphabet, or whitespace alone."""
    n, edges = draw(relabeled_trees())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    tokens = [str(n), *(str(x) for edge in edges for x in edge)]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(tokens) - 1))
        change = draw(st.sampled_from(["zeros", "digits", "max", "drop", "repeat"]))
        if change == "zeros":
            tokens[i] = "0" * draw(st.integers(1, 4)) + tokens[i]
        elif change == "digits":
            tokens[i] = draw(st.text("0123456789", min_size=18, max_size=25))
        elif change == "max":
            tokens[i] = "9223372036854775807"
        elif change == "drop":
            del tokens[i]
        else:
            tokens.insert(i, tokens[i])
    if rng.random() < 0.05:
        tokens = []
    seps = ["".join(rng.choices(SEPARATORS, k=rng.randint(1, 2))) for _ in tokens]
    bad = draw(st.one_of(st.none(), st.sampled_from(OUT_OF_GATE)))
    if bad in ("\xa0", "\x1c") and seps:
        seps[rng.randrange(len(seps))] = bad
    elif bad and tokens:
        tokens[rng.randrange(len(tokens))] = bad
    lead = rng.choice(["", *SEPARATORS])
    return lead + "".join(t + sep for t, sep in zip(tokens, seps))


def _parsed(text):
    try:
        t = parse_edge_list(text)
    except ValueError as exc:
        return str(exc)
    return t.n, t.edges


@settings(max_examples=150, deadline=None, database=None)
@given(edge_list_texts())
def test_compiled_parse_matches_the_token_path(text):
    """The one-pass read gives the same tree or the same error as reading
    token by token, which is what every text gets when it reads nothing."""
    with mock.patch.object(np, "fromstring", return_value=np.empty(0, np.int64)), \
            mock.patch.object(io_mod, "_token_values", wraps=io_mod._token_values) as judge:
        expected = _parsed(text)
    assert judge.call_count == 1
    assert _parsed(text) == expected


def _surgeries(t, rnd):
    """(name, result, expected order) for each surgery of ``transforms``
    whose precondition holds on ``t``, with arguments drawn by ``rnd``."""
    n, deg, adj = t.n, t.degrees, t.adj
    inner = [(u, v) for u, v in t.edges if deg[u] > 1 and deg[v] > 1]
    if inner:
        yield "contract_with_pendant", contract_with_pendant(t, rnd.choice(inner)), n
    legs = {u: _pendant_legs(t, u) for u in range(n) if deg[u] >= 3}
    hubs = [u for u, at_u in legs.items() if len(at_u) >= 2]
    if hubs:
        u = rnd.choice(hubs)
        long_len, short_len = sorted(map(len, rnd.sample(legs[u], 2)), reverse=True)
        yield "rebalance_paths", rebalance_paths(t, u, long_len, short_len), n
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y
             and any(deg[w] == 1 and w != y for w in adj[x])
             and any(deg[w] == 1 and w != x for w in adj[y])]
    if pairs:
        for result in move_pendants_to_path_neighbor(t, *rnd.choice(pairs)):
            yield "move_pendants_to_path_neighbor", result, n
    path = tree_mod._diametral_path(t)
    branching = [i for i in range(1, len(path) - 1) if deg[path[i]] > 2]
    if branching:
        i = rnd.choice(branching)
        c = rnd.randint(1, deg[path[i]] - 2)
        yield "shift_branch_to_end", shift_branch_to_end(t, path, i, c).after, n
    if n >= 3:
        leaf = rnd.choice([v for v in range(n) if deg[v] == 1])
        (frm,) = adj[leaf]
        to = rnd.choice([v for v in range(n) if v not in (leaf, frm)])
        yield "relocate_pendant", relocate_pendant(t, leaf, frm, to), n
    root, frm = rnd.choice(t.edges)[::rnd.choice((1, -1))]
    moved = set(tree_mod._side(adj, root, frm))
    targets = [v for v in range(n) if v != frm and v not in moved]
    if targets:
        yield "relocate_branch", relocate_branch(t, root, frm, rnd.choice(targets)), n
    a, b = rnd.randint(0, 3), rnd.randint(0, 3)
    yield "attach_two_paths", attach_two_paths(t, rnd.randrange(n), a, b), n + a + b


@settings(max_examples=60, deadline=None, database=None)
@given(relabeled_trees().filter(lambda case: case[0] <= 40), st.randoms(use_true_random=False),
       st.sampled_from([SMALL_N, 1]))
def test_surgeries_return_trees_the_oracle_agrees_on(case, rnd, small_n):
    """Every surgery, where its precondition holds, returns a tree of the
    same order (attach_two_paths: grown by the two lengths) on which the
    index pass agrees with the oracle, in both size regimes."""
    n, edges = case
    with mock.patch.object(tree_mod, "_SMALL_N", small_n):
        t = Tree(n, edges)
        for name, result, order in _surgeries(t, rnd):
            assert isinstance(result, Tree) and result.n == order, name
            fast_total, fast_splits = mostar_fast(result)
            bfs_total, bfs_splits = mostar_bfs(result)
            assert fast_total == bfs_total and list(fast_splits) == list(bfs_splits), name
