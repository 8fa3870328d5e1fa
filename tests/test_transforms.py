"""Tree surgeries: structural contracts and the strict index inequalities.

The exhaustive inequality sweeps here run on small orders for quick
feedback; the full acceptance-scale sweeps live in test_acceptance.py.
"""

import itertools
import random

import pytest

from mostar import (
    FamilySpec,
    HypothesisError,
    Tree,
    all_trees,
    build,
    canonical_form,
    is_isomorphic,
    mostar_fast,
    random_tree,
    stats,
)
from mostar.transforms import (
    attach_two_paths,
    contract_with_pendant,
    move_pendants_to_path_neighbor,
    outcome,
    rebalance_paths,
    relocate_branch,
    relocate_pendant,
    shift_branch_to_end,
)
from tree_helpers import diametral_paths, non_pendent_edges


def mo(t):
    return mostar_fast(t)[0]


@pytest.mark.parametrize("orders, randoms, seed, seed_bound", [
    (range(2, 10), 200, 20220722, 2**63),
    (range(4, 9), 100, 3, 10**9),
], ids=["n2-9_seed20220722", "n4-8_seed3"])
def test_diametral_paths_match_the_pairwise_definition(orders, randoms, seed, seed_bound):
    from mostar.tree import _path

    rng = random.Random(seed)
    trees = [t for n in orders for t in all_trees(n)]
    trees += [random_tree(rng.randint(5, 40), rng.randrange(seed_bound)) for _ in range(randoms)]
    for t in trees:
        d = stats(t).diameter
        pairwise = [_path(t.adj, a, b) for a in range(t.n) for b in range(t.n)
                    if a != b and len(_path(t.adj, a, b)) - 1 == d]
        assert diametral_paths(t) == pairwise, t.edges


class TestContract:
    def test_p4_middle_edge_becomes_star(self):
        p4 = build(FamilySpec.path(4))
        g = contract_with_pendant(p4, (1, 2))
        assert is_isomorphic(g, build(FamilySpec.star(4)))
        assert mo(p4) == 4 and mo(g) == 6

    def test_pendent_edge_rejected(self):
        with pytest.raises(HypothesisError, match="pendent"):
            contract_with_pendant(build(FamilySpec.path(4)), (0, 1))

    def test_unknown_edge_rejected(self):
        with pytest.raises(ValueError, match="not an edge"):
            contract_with_pendant(build(FamilySpec.path(4)), (0, 3))

    def test_strict_increase_exhaustive_small(self):
        for n in range(3, 9):
            for t in all_trees(n):
                for e in non_pendent_edges(t):
                    g = contract_with_pendant(t, e)
                    assert g.n == t.n
                    assert mo(g) > mo(t), (t.edges, e)


class TestRebalance:
    def test_example_legs_2_2(self):
        t = Tree(6, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5)])
        t2 = rebalance_paths(t, 0, 2, 2)
        # legs (2, 2) plus a pendant become legs (3, 1) plus the pendant
        assert sorted(stats(t2).maximal_run_census.items()) == [(1, 2), (3, 1)]
        assert mo(t) > mo(t2)

    def test_short_leg_vanishes_at_m1(self):
        # legs (2, 1) at the center plus an extra pendant
        t = Tree(6, [(0, 1), (1, 2), (0, 3), (0, 4), (0, 5)])
        t2 = rebalance_paths(t, 0, 2, 1)
        assert t2.n == t.n
        assert stats(t2).pendent_paths(3) == 1

    def test_legs_not_found(self):
        with pytest.raises(HypothesisError, match="no pendent paths"):
            rebalance_paths(build(FamilySpec.star(5)), 0, 2, 1)

    def test_bare_double_path_rejected(self):
        with pytest.raises(HypothesisError, match="bare path"):
            rebalance_paths(build(FamilySpec.path(5)), 2, 2, 2)

    def test_matches_fresh_construction_exhaustive(self):
        # G_{u;l,m} rebalanced equals G_{u;l+1,m-1} built from scratch
        for g_order in range(2, 6):
            for g in all_trees(g_order):
                for u in range(g_order):
                    for total in range(2, 9 - g_order + 1):
                        for m in range(1, total // 2 + 1):
                            length = total - m
                            t1 = attach_two_paths(g, u, length, m)
                            t2 = attach_two_paths(g, u, length + 1, m - 1)
                            moved = rebalance_paths(t1, u, length, m)
                            assert is_isomorphic(moved, t2)
                            assert mo(t1) > mo(t2)


class TestMovePendants:
    def test_double_star(self):
        t = Tree(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
        t1, t2 = move_pendants_to_path_neighbor(t, 0, 1)
        assert is_isomorphic(t1, build(FamilySpec.star(6)))
        assert is_isomorphic(t2, build(FamilySpec.star(6)))
        assert mo(t) < max(mo(t1), mo(t2))

    def test_same_vertex_rejected(self):
        t = Tree(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
        with pytest.raises(HypothesisError):
            move_pendants_to_path_neighbor(t, 0, 0)

    def test_no_pendants_rejected(self):
        t = build(FamilySpec.path(6))
        with pytest.raises(HypothesisError, match="pendant leaves"):
            move_pendants_to_path_neighbor(t, 2, 3)

    def test_inequality_exhaustive_small(self):
        for n in range(4, 9):
            for t in all_trees(n):
                deg = t.degrees
                carriers = [
                    x for x in range(n)
                    if any(deg[w] == 1 for w in t.adj[x])
                ]
                for x, y in itertools.combinations(carriers, 2):
                    t1, t2 = move_pendants_to_path_neighbor(t, x, y)
                    assert mo(t) < max(mo(t1), mo(t2)), (t.edges, x, y)


class TestShiftBranchToEnd:
    def test_caterpillar_example(self):
        t = Tree(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7)])
        out = shift_branch_to_end(t, [0, 1, 2, 3, 4, 5, 6], i=2, c=1)
        assert out.hypothesis_held
        assert out.mo_after < out.mo_before
        assert is_isomorphic(out.after, build(FamilySpec.path(8)))

    def test_c_equals_t_clears_the_vertex(self):
        t = Tree(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7), (2, 8)])
        out = shift_branch_to_end(t, [0, 1, 2, 3, 4, 5, 6], i=2, c=2)
        assert out.after.degree(2) == 2
        assert out.after.degree(0) == 3

    def test_hypothesis_false_is_reported_not_raised(self):
        # pendant near one end, moved toward the far end: n_r = 1 < n_0 + i
        t = Tree(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 7)])
        out = shift_branch_to_end(t, [6, 5, 4, 3, 2, 1, 0], i=5, c=1)
        assert not out.hypothesis_held
        assert out.after.n == 8

    def test_not_longest_path_rejected(self):
        t = Tree(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7)])
        with pytest.raises(ValueError, match="longest"):
            shift_branch_to_end(t, [0, 1, 2, 3, 4], i=2, c=1)

    def test_no_off_path_neighbors_rejected(self):
        t = build(FamilySpec.path(6))
        with pytest.raises(ValueError, match="off-path"):
            shift_branch_to_end(t, [0, 1, 2, 3, 4, 5], i=2, c=1)

    def test_strict_decrease_under_hypothesis_exhaustive_small(self):
        held = 0
        for n in range(4, 9):
            for t in all_trees(n):
                for path in diametral_paths(t):
                    for i in range(1, len(path) - 1):
                        vi = path[i]
                        on = {path[i - 1], path[i + 1]}
                        off = [w for w in t.adj[vi] if w not in on]
                        for c in range(1, len(off) + 1):
                            for chosen in itertools.combinations(off, c):
                                out = shift_branch_to_end(t, path, i, c, neighbors=chosen)
                                if out.hypothesis_held:
                                    held += 1
                                    assert out.mo_after < out.mo_before, (t.edges, path, i, chosen)
        assert held > 50  # the hypothesis must actually fire


class TestRelocate:
    def test_c_family_shift(self):
        t = build(FamilySpec.c(12, 3, 1))
        # innermost pendant of the a-block sits at v_{a+1} (0-based id a);
        # it moves to v_{n-a-2b-1} (0-based id n-a-2b-2)
        moved = relocate_pendant(t, leaf=10, frm=3, to=5)
        assert is_isomorphic(moved, build(FamilySpec.c(12, 2, 2)))
        assert mo(moved) < mo(t)

    def test_f_family_shift(self):
        t = build(FamilySpec.f(17, 3, 1))
        # pendant u_{a+2} at v_{a+2} (id a+1=4) moves to v_{n-a-2b-3} = v_9 (id 8)
        pend = next(p for p in range(t.n) if t.degree(p) == 1 and t.has_edge(p, 4))
        moved = relocate_pendant(t, pend, frm=4, to=8)
        assert is_isomorphic(moved, build(FamilySpec.f(17, 2, 2)))
        assert mo(moved) < mo(t)

    def test_a_family_leg_move(self):
        t = build(FamilySpec.a_family(20, 2, 3, 1))
        spine = 20 - 4 * 2
        moved = relocate_branch(t, root=spine, frm=0, to=spine - 1)
        assert is_isomorphic(moved, build(FamilySpec.a_family(20, 2, 2, 2)))
        assert mo(moved) < mo(t)

    def test_non_pendent_rejected(self):
        t = build(FamilySpec.path(5))
        with pytest.raises(HypothesisError, match="not pendent"):
            relocate_pendant(t, 2, 1, 4)

    def test_branch_into_itself_rejected(self):
        t = build(FamilySpec.srk(10, 2, 3))
        with pytest.raises(ValueError, match="inside the moved subtree"):
            relocate_branch(t, root=1, frm=0, to=3)

    def test_vertex_count_preserved(self):
        t = build(FamilySpec.c(12, 3, 1))
        assert relocate_pendant(t, 10, 3, 5).n == 12


OUT_OF_RANGE_CALLS = {
    "contract_with_pendant": lambda t, v: contract_with_pendant(t, (0, v)),
    "rebalance_paths": lambda t, v: rebalance_paths(t, v, 1, 1),
    "move_pendants_to_path_neighbor": lambda t, v: move_pendants_to_path_neighbor(t, 0, v),
    "shift_branch_to_end": lambda t, v: shift_branch_to_end(t, [0, 1, v], 1, 1),
    "relocate_pendant": lambda t, v: relocate_pendant(t, v, 1, 0),
    "relocate_branch": lambda t, v: relocate_branch(t, 4, 3, v),
    "attach_two_paths": lambda t, v: attach_two_paths(t, v, 0, 0),
}


@pytest.mark.parametrize("vertex", [5, -1])
@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE_CALLS))
def test_out_of_range_vertex_rejected(name, vertex):
    t = build(FamilySpec.path(5))
    with pytest.raises(ValueError, match=r"outside 0\.\.4"):
        OUT_OF_RANGE_CALLS[name](t, vertex)


class TestOutcome:
    def test_fields(self):
        t = build(FamilySpec.path(4))
        g = contract_with_pendant(t, (1, 2))
        out = outcome(t, g)
        assert (out.mo_before, out.mo_after) == (4, 6)
        assert out.hypothesis_held
        assert out.before is t and out.after is g


class TestRandomizedSweeps:
    """Seeded random instances of each inequality at moderate orders."""

    def test_contract_random(self):
        rng = random.Random(1)
        done = 0
        while done < 120:
            t = random_tree(rng.randint(4, 40), rng.randrange(10**9))
            edges = non_pendent_edges(t)
            if not edges:
                continue
            e = edges[rng.randrange(len(edges))]
            assert mo(contract_with_pendant(t, e)) > mo(t)
            done += 1

    def test_rebalance_random(self):
        rng = random.Random(2)
        for _ in range(120):
            g = random_tree(rng.randint(2, 20), rng.randrange(10**9))
            u = rng.randrange(g.n)
            m = rng.randint(1, 5)
            length = m + rng.randint(0, 5)
            t1 = attach_two_paths(g, u, length, m)
            t2 = attach_two_paths(g, u, length + 1, m - 1)
            assert mo(t1) > mo(t2)

    def test_shift_random(self):
        rng = random.Random(3)
        done = 0
        while done < 120:
            t = random_tree(rng.randint(5, 40), rng.randrange(10**9))
            paths = diametral_paths(t)
            path = paths[rng.randrange(len(paths))]
            candidates = [
                i for i in range(1, len(path) - 1)
                if len(t.adj[path[i]]) > 2
            ]
            if not candidates:
                continue
            i = candidates[rng.randrange(len(candidates))]
            off = [w for w in t.adj[path[i]] if w not in (path[i - 1], path[i + 1])]
            out = shift_branch_to_end(t, path, i, rng.randint(1, len(off)))
            if out.hypothesis_held:
                assert out.mo_after < out.mo_before
                done += 1
