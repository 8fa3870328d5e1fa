"""Tree construction, Mostar index paths, stats, and canonical forms."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from mostar import (
    EdgeSplit,
    FamilySpec,
    Tree,
    all_trees,
    build,
    canonical_form,
    is_isomorphic,
    mostar_bfs,
    mostar_fast,
    psi_edge,
    random_tree,
    stats,
)
from tree_helpers import assert_transmission_identity, transmission


def path(n):
    return build(FamilySpec.path(n))


def star(n):
    return build(FamilySpec.star(n))


class TestTreeConstruction:
    def test_single_vertex(self):
        t = Tree(1, [])
        assert t.n == 1 and t.edges == ()

    def test_single_edge(self):
        t = Tree(2, [(1, 0)])
        assert t.edges == ((0, 1),)  # pairs are normalized

    def test_edge_count_mismatch(self):
        with pytest.raises(ValueError, match="needs 2 edges"):
            Tree(3, [(0, 1)])

    def test_out_of_range_id(self):
        with pytest.raises(ValueError):
            Tree(3, [(0, 1), (1, 3)])

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            Tree(3, [(0, 1), (2, 2)])

    def test_cycle_rejected(self):
        # 4 vertices, 3 edges, but a triangle plus an isolated vertex
        with pytest.raises(ValueError, match="connected"):
            Tree(4, [(0, 1), (1, 2), (2, 0)])

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            Tree(4, [(0, 1), (0, 1), (2, 3)])

    def test_adjacency_symmetric(self):
        t = Tree(4, [(0, 1), (1, 2), (1, 3)])
        for u in range(4):
            for v in t.adj[u]:
                assert u in t.adj[v]

    @pytest.mark.parametrize("n", [5, 3000])
    @pytest.mark.parametrize(
        "last_edge",
        [
            lambda n: (n - 2, n - 0.3),  # float id; truncates to a valid tree
            lambda n: (n - 2, n),  # out of range
            lambda n: (n - 1, n - 1),  # loop
            lambda n: (0, 1),  # duplicate edge
            lambda n: (0, n - 2),  # cycle, so n - 1 is cut off
        ],
        ids=["float-id", "out-of-range", "loop", "duplicate", "disconnected"],
    )
    def test_bad_edges_rejected_at_every_size(self, n, last_edge):
        # a path whose last edge is replaced; both sides of _SMALL_N agree
        edges = [(i, i + 1) for i in range(n - 2)] + [last_edge(n)]
        with pytest.raises(ValueError):
            Tree(n, edges)

    def test_vertex_count_must_be_an_index(self):
        import numpy as np

        assert Tree(np.int64(3), [(0, 1), (1, 2)]).n == 3
        for bad in (True, 3.0, "3"):
            with pytest.raises(ValueError, match="positive integer"):
                Tree(bad, [])

    @pytest.mark.parametrize("n", [3_000_000_000, 10**12])
    def test_orders_past_int32_rejected_before_the_edges_are_read(self, n):
        def edges():
            raise AssertionError("edges read")
            yield

        with pytest.raises(ValueError, match=f"vertex count {n} exceeds 2147483647"):
            Tree(n, edges())

    def test_equality_ignores_edge_order(self):
        a = Tree(4, [(0, 1), (1, 2), (2, 3)])
        b = Tree(4, [(2, 3), (1, 0), (2, 1)])
        assert a == b

    def test_large_validation_path(self):
        # above _SMALL_N the constructor validates with scipy's BFS
        n = 5000
        t = Tree(n, [(i, i + 1) for i in range(n - 1)])
        assert t.n == n
        with pytest.raises(ValueError, match="connected"):
            Tree(n, [(i, i + 1) for i in range(n - 2)] + [(0, 1)])

    @pytest.mark.parametrize("dtype", ["int64", "int32", "uint16"])
    def test_large_edge_array_is_a_sorted_read_only_copy(self, dtype):
        import numpy as np

        edges = random_tree(3000, 4)._earr[:, ::-1].astype(dtype)
        t = Tree(3000, edges)
        expected = np.sort(edges.astype(np.int64), axis=1).tobytes()
        assert t._earr.dtype == np.int64 and t._earr.tobytes() == expected
        assert not t._earr.flags.writeable and not np.shares_memory(t._earr, edges)
        edges[:] = 0  # the caller's array stays the caller's
        assert t._earr.tobytes() == expected


class TestMostarIndex:
    def test_p2_is_zero(self):
        assert mostar_fast(Tree(2, [(0, 1)]))[0] == 0
        assert mostar_bfs(Tree(2, [(0, 1)]))[0] == 0

    def test_p3(self):
        assert mostar_bfs(path(3))[0] == 2

    def test_p4_per_edge(self):
        total, splits = mostar_fast(path(4))
        assert total == 4
        assert [s.psi for s in splits] == [2, 0, 2]

    def test_s5(self):
        total, splits = mostar_fast(star(5))
        assert total == 12
        assert all(s.psi == 3 for s in splits)

    def test_c711(self):
        t = build(FamilySpec.c(7, 1, 1))
        assert mostar_fast(t)[0] == 22
        assert mostar_bfs(t)[0] == 22

    def test_single_vertex_empty_sum(self):
        assert mostar_fast(Tree(1, []))[0] == 0
        assert mostar_bfs(Tree(1, []))[0] == 0

    def test_split_component_sizes_sum_to_n(self):
        for n in range(2, 11):
            for t in all_trees(n):
                for s in mostar_fast(t)[1]:
                    assert s.n_u + s.n_v == n
                    assert s.psi == abs(n - 2 * s.n_u)

    def test_split_sizes_randomized_large(self):
        for seed in (1, 2):
            t = random_tree(2000, seed)
            total, splits = mostar_fast(t)
            assert len(splits) == 1999
            assert all(s.n_u + s.n_v == 2000 for s in splits)
            assert total == sum(s.psi for s in splits)

    def test_fast_equals_bfs_small(self):
        for n in range(1, 9):
            for t in all_trees(n):
                ft, fs = mostar_fast(t)
                bt, bs = mostar_bfs(t)
                assert ft == bt
                assert list(fs) == list(bs)

    def test_fast_equals_bfs_random(self):
        for seed in range(25):
            t = random_tree(3 + seed * 7 % 120, seed)
            assert mostar_fast(t)[0] == mostar_bfs(t)[0]

    @staticmethod
    def broom(n, depth):
        # handle 0..h with the remaining n - h - 1 leaves on vertex h
        h = depth - 1
        return [(i, i + 1) for i in range(h)] + [(h, j) for j in range(h + 1, n)]

    def test_numpy_path_agrees_with_python_path(self, monkeypatch):
        # same tree built in both size regimes: a random tree, then shapes
        # that stress the triangular solve's columns: every column's
        # parent the root (star), one long chain from the deepest root
        # (path built with vertex 0 at an end), a chain from its middle,
        # long legs sharing a root (spider) and a long handle (broom)
        import numpy as np

        import mostar.tree as tree_mod

        n_path, n_star, n_spider, legs, n_broom, depth = 5000, 20000, 12001, 3, 20000, 5000
        leg = (n_spider - 1) // legs
        middle_out = [*range(n_path - 1, 0, -2), *range(0, n_path, 2)]  # odd ids down, then even up
        h = depth - 1
        cases = [
            (random_tree(3000, 99).edges, 3000, None),
            (star(n_star).edges, n_star, (n_star - 1) * (n_star - 2)),
            (path(n_path).edges, n_path, (n_path - 1) ** 2 // 2),
            (list(zip(middle_out, middle_out[1:])), n_path, (n_path - 1) ** 2 // 2),
            (
                build(FamilySpec.spider(n_spider, legs)).edges,
                n_spider,
                legs * leg * (n_spider - leg - 1),
            ),
            (
                self.broom(n_broom, depth),
                n_broom,
                h * n_broom - h * (h + 1) + (n_broom - h - 1) * (n_broom - 2),
            ),
        ]
        large = [Tree(n, edges) for edges, n, _ in cases]
        monkeypatch.setattr(tree_mod, "_SMALL_N", 10**7)
        for t, (edges, n, expected) in zip(large, cases):
            small = Tree(n, edges)
            assert isinstance(t._parent, np.ndarray) and isinstance(small._parent, list)
            total_large, splits_large = mostar_fast(t)
            total_small, splits_small = mostar_fast(small)
            assert total_large == total_small
            assert list(splits_large) == list(splits_small)
            if expected is not None:
                assert total_large == expected

    @pytest.mark.parametrize("small_n", [10**7, 1], ids=["list-backed", "array-backed"])
    def test_no_second_search_from_vertex_0(self, monkeypatch, small_n):
        # the constructor's search is the only one from vertex 0: the index
        # pass runs none at all, and the longest path starts at the last
        # vertex of that search; star and middle-out path have 0 as center
        from unittest import mock

        import mostar.tree as tree_mod

        monkeypatch.setattr(tree_mod, "_SMALL_N", small_n)
        cases = [star(9).edges, [(4, 2), (2, 0), (0, 1), (1, 3)], random_tree(40, 5).edges]
        for edges in cases:
            t = Tree(len(edges) + 1, edges)
            with mock.patch.object(tree_mod, "_bfs", wraps=tree_mod._bfs) as search:
                mostar_fast(t)
                assert search.call_count == 0
                stats(t)
                canonical_form(t)
            roots = [(*call.args, call.kwargs.get("root", 0))[1] for call in search.call_args_list]
            assert roots and 0 not in roots, roots

    def test_array_regime_equals_oracle(self, monkeypatch):
        # force every tree of order 2..8 through the scipy BFS and the
        # triangular solve, in float32 and then in float64
        import mostar._sizes as sizes_mod
        import mostar.tree as tree_mod

        monkeypatch.setattr(tree_mod, "_SMALL_N", 1)
        for f32_max_n in (sizes_mod.F32_MAX_N, 1):
            monkeypatch.setattr(sizes_mod, "F32_MAX_N", f32_max_n)
            for n in range(2, 9):
                for t in all_trees(n):
                    forced = Tree(n, t.edges)
                    assert forced._parent is not None
                    ft, fs = mostar_fast(forced)
                    bt, bs = mostar_bfs(forced)
                    assert ft == bt
                    assert list(fs) == list(bs)

    def test_splits_align_with_edges(self):
        t = build(FamilySpec.c(7, 1, 1))
        _, splits = mostar_fast(t)
        assert [s.edge for s in splits] == list(t.edges)

    @pytest.mark.parametrize("small_n", [10**7, 1], ids=["list-backed", "array-backed"])
    def test_split_iteration_crosses_blocks(self, monkeypatch, small_n):
        # iteration works a block of rows at a time; indexing builds one row
        import mostar.tree as tree_mod

        monkeypatch.setattr(tree_mod, "_SMALL_N", small_n)
        monkeypatch.setattr(tree_mod, "_BLOCK", 7)
        t = random_tree(40, 3)
        _, splits = mostar_fast(t)
        assert [s.edge for s in splits] == list(t.edges)
        assert list(splits) == [splits[i] for i in range(len(splits))] == splits[:]
        assert all(type(x) is int for s in splits for x in (*s.edge, s.n_u, s.n_v, s.psi))

    def test_split_sequence_slicing(self):
        _, splits = mostar_fast(path(6))
        assert isinstance(splits[0], EdgeSplit)
        assert splits[-1] == splits[len(splits) - 1]
        assert splits[1:3] == list(splits)[1:3]
        with pytest.raises(IndexError):
            splits[10]


class TestClosedForms:
    """Star and path have closed forms; frozen after checking the oracle."""

    @staticmethod
    def path_closed_form(n):
        return n * (n - 2) // 2 if n % 2 == 0 else (n - 1) ** 2 // 2

    def test_star_closed_form_small_oracle(self):
        for n in range(2, 40):
            assert mostar_bfs(star(n))[0] == (n - 1) * (n - 2)

    def test_path_closed_form_small_oracle(self):
        for n in range(2, 40):
            assert mostar_bfs(path(n))[0] == self.path_closed_form(n)

    def test_closed_forms_to_100_fast(self):
        for n in range(2, 101):
            assert mostar_fast(star(n))[0] == (n - 1) * (n - 2)
            assert mostar_fast(path(n))[0] == self.path_closed_form(n)


class TestTransmissionOracle:
    """The compiled index pass against the transmission identity, at
    orders the quadratic oracle cannot reach (see tree_helpers)."""

    @staticmethod
    def shapes(n):
        """A path with vertex 0 at an end, a star, and a spider whose
        three legs of (n - 1) / 3 vertices hang from vertex 0."""
        ids = np.arange(1, n)
        leg = (n - 1) // 3
        return {"path": np.column_stack((ids - 1, ids)),
                "star": np.column_stack((np.zeros(n - 1, np.int64), ids)),
                "spider": np.column_stack((np.where((ids - 1) % leg == 0, 0, ids - 1), ids))}

    # one shape at 10^6 keeps tier-1 short; the deep spider is the cheapest there
    @pytest.mark.parametrize("shape, n", [("spider", 10**6), ("path", 10**5), ("star", 10**5)])
    def test_shapes(self, shape, n):
        total, splits = mostar_fast(Tree(n, self.shapes(n)[shape]))
        assert_transmission_identity(n, splits._edges, total, splits._n_u)

    def test_random_tree_at_10_5(self):
        # the random tree at 10^6 is criterion 8's
        n = 10**5
        total, splits = mostar_fast(random_tree(n, 20220724))
        assert_transmission_identity(n, splits._edges, total, splits._n_u)

    def test_a_wrong_total_or_centroid_is_caught(self):
        n, edges = 9, self.shapes(9)["path"]
        total, splits = mostar_fast(Tree(n, edges))
        assert_transmission_identity(n, edges, total, splits._n_u)
        assert transmission(n, edges, 4).tolist() == [20]  # 2 (1 + 2 + 3 + 4) from the middle
        for wrong in (lambda: transmission(n, edges, 3),
                      lambda: assert_transmission_identity(n, edges, total + 2, splits._n_u)):
            with pytest.raises(AssertionError):
                wrong()


class TestPsiEdge:
    def test_pendent_edge_of_star(self):
        s = psi_edge(star(6), (0, 3))
        assert s.psi == 4 == 6 - 2
        assert {s.n_u, s.n_v} == {1, 5}

    def test_middle_edge_of_p4(self):
        assert psi_edge(path(4), (1, 2)).psi == 0

    def test_c711_inner_edge(self):
        # spine edge v2-v3 splits 3 | 4
        t = build(FamilySpec.c(7, 1, 1))
        s = psi_edge(t, (1, 2))
        assert (s.n_u, s.n_v) == (3, 4) and s.psi == 1

    def test_unknown_edge_rejected(self):
        with pytest.raises(ValueError, match="not an edge"):
            psi_edge(path(4), (0, 3))

    def test_bound_with_equality_iff_pendent(self):
        for n in range(2, 11):
            for t in all_trees(n):
                for e in t.edges:
                    s = psi_edge(t, e)
                    pendent = t.degree(e[0]) == 1 or t.degree(e[1]) == 1
                    assert s.psi <= n - 2
                    assert (s.psi == n - 2) == pendent

    def test_matches_fast_splits(self):
        t = random_tree(40, 7)
        _, splits = mostar_fast(t)
        for e, s in zip(t.edges, splits):
            assert psi_edge(t, e) == s


class TestStats:
    def test_rejects_single_vertex(self):
        with pytest.raises(ValueError):
            stats(Tree(1, []))

    def test_star_numbers(self):
        st = stats(star(6))
        assert st.degree_sequence == (5, 1, 1, 1, 1, 1)
        assert st.odd_count == 6
        assert st.deg2_count == 0
        assert st.branch_count == 1
        assert st.leaf_count == 5
        assert st.pendent_paths(1) == 5
        assert st.is_series_reduced
        assert st.is_caterpillar
        assert st.diameter == 2

    def test_path_census_every_length(self):
        for n in range(3, 12):
            st = stats(path(n))
            for r in range(1, n - 1):
                assert st.pendent_paths(r) == 2
            assert st.pendent_paths(n - 1) == 0

    def test_p2_has_no_pendent_paths(self):
        st = stats(Tree(2, [(0, 1)]))
        assert dict(st.pendent_path_census) == {}
        assert st.leaf_count == 2

    def test_broom_census(self):
        # one pendent path of each length 2..n-3, three of length 1
        for n in (7, 9, 12):
            t = build(FamilySpec.a_family(n, 1, 2, 1))
            st = stats(t)
            assert st.pendent_paths(1) == 3
            for r in range(2, n - 2):
                assert st.pendent_paths(r) == (1 if r <= n - 3 else 0)

    def test_leaf_count_equals_census1(self):
        for n in range(3, 10):
            for t in all_trees(n):
                st = stats(t)
                assert st.leaf_count == st.pendent_paths(1)

    def test_odd_count_is_even(self):
        for n in range(2, 10):
            for t in all_trees(n):
                assert stats(t).odd_count % 2 == 0

    def test_maximal_census_sums_to_leaves(self):
        for n in range(3, 10):
            for t in all_trees(n):
                st = stats(t)
                assert sum(st.maximal_run_census.values()) == st.leaf_count

    def test_caterpillar_flag(self):
        assert stats(build(FamilySpec.c(9, 2, 1))).is_caterpillar
        assert stats(path(8)).is_caterpillar
        # the balanced spider with legs of length 2 is not a caterpillar
        assert not stats(build(FamilySpec.spider(7, 3))).is_caterpillar

    def test_series_reduced_flag(self):
        assert stats(star(5)).is_series_reduced
        assert not stats(path(4)).is_series_reduced
        assert stats(Tree(2, [(0, 1)])).is_series_reduced


class TestCanonicalForm:
    def test_relabeled_path_equal(self):
        a = path(4)
        b = Tree(4, [(3, 1), (1, 0), (0, 2)])
        assert canonical_form(a) == canonical_form(b)

    def test_path_vs_star_differ(self):
        assert canonical_form(path(4)) != canonical_form(star(4))

    def test_six_classes_on_six_vertices(self):
        codes = {canonical_form(t) for t in all_trees(6)}
        assert len(codes) == 6

    def test_is_isomorphic_wrapper(self):
        assert is_isomorphic(path(5), Tree(5, [(4, 2), (2, 0), (0, 1), (1, 3)]))
        assert not is_isomorphic(path(5), star(5))
        assert not is_isomorphic(path(4), path(5))

    def test_relabeling_invariance_randomized(self):
        import random

        for seed in range(10):
            t = random_tree(30, seed)
            rng = random.Random(seed)
            perm = list(range(30))
            rng.shuffle(perm)
            relabeled = Tree(30, [(perm[u], perm[v]) for u, v in t.edges])
            assert canonical_form(t) == canonical_form(relabeled)

    def test_bicentral_vs_unicentral(self):
        assert canonical_form(Tree(1, [])) == "()"
        assert canonical_form(Tree(2, [(0, 1)])) == "(())"

    def test_forms_to_order_12_frozen(self):
        forms = "\n".join(canonical_form(t) for n in range(1, 13) for t in all_trees(n))
        assert hashlib.sha256(forms.encode()).hexdigest() == \
            "2bd789f75527606c8ef2c412a68a1b4513d4f7d3cf601efc119861bac03049b8"

    def test_path_form_in_linear_memory(self):
        # each code on a path is 2 longer than its child's: holding every
        # vertex's code at once took n^2 bytes (207 MB traced at this n)
        n = 20_000
        t = path(n)
        t.adj  # the tree's own view, kept after the call, is built outside the trace
        tracemalloc.start()
        try:
            form = canonical_form(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(form) == 2 * n and peak < 5_000_000
