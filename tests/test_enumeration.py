"""Free-tree enumeration, class filtering, and random labeled trees."""

import contextlib
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mostar
import mostar.tree as tree_mod
from mostar import (
    ConstraintSpec,
    EnumerationCapError,
    FamilySpec,
    Tree,
    all_trees,
    build,
    canonical_form,
    extremal_search,
    is_isomorphic,
    mostar_fast,
    prufer_to_edges,
    random_tree,
    stats,
    trees_satisfying,
)
from mostar.cli import main
from mostar.enumeration import _level_sequences, _Table
from tree_helpers import assert_transmission_identity

# Classes of unlabeled trees per order (frozen after the dedup cross-check).
FREE_TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159]

# SHA-256 of every level-sequence row of order n = 1..18, in generator order.
ROW_DIGESTS = [
    "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    "b413f47d13ee2fe6c845b2ee141af81de858df4ec549a58b7970bb96645bc8d2",
    "fbb59ed10e9cd4ff45a12c5bb92cbd80df984ba1fe60f26a30febf218e2f0f5e",
    "3774a0c5ecaf521c31a2f6984f28e317880a93f56a52e67cdd81768fd11288d5",
    "13d0c7efa6414aafd0fb3fbd6900e00fae0590649de8b450725c680819a63a1b",
    "d296650050743f4c338d9b22faa61ab341bf5364ba405447529d70a964b3d726",
    "b3aecde5cb4d55ac7f3b8229b2ff24e2c8fa1bacbff192b5a75e363f255706e1",
    "538b7da8519cdc272c5be487f878b87e27fd1be6bb5e5e116d5524a3ed803562",
    "152f4e7ed7ed088a37d5cc62025ed30e4211f3435377acb8a15ec25c06e063f8",
    "affcca541476d16f9474d3ece3376d47d52255242c4bfbdb12851f41e51c93b5",
    "c1c944e01c131985c386217a8a77b1e802d50f0b101c7b91d1190e69e806c760",
    "c6dd4e51b8afcb18c4d1bce9e8b6eafbf02212f2ae61755fc659219973878c96",
    "783d8a4eae37992db69074fc6df52c22ae76214cb62ec9776e48302a8dbb0928",
    "86b198329454b54ff105dd773d4696e4a1be3ae9f1c67e7b0248094635df7091",
    "f88ba3e8c9256cc9aed8685bdf68141d9121fb71456774aa87c0dfda1b1c62a1",
    "b7af4ae64e9411115cfb0fcc27a5503dc220dd261ef546d9aa9272476361a608",
    "3da49a5ae2ee366f84c462b3e658cb1aaf1d9f4200363ba0e154872fa730ba77",
    "197cd0965db5676a891f02d3921ee0fdaaca6d5198e9ccadd1be18a06c644f54",
]


class TestAllTrees:
    def test_counts_small(self):
        for n, expected in zip(range(1, 13), FREE_TREE_COUNTS):
            assert sum(1 for _ in all_trees(n)) == expected

    def test_n4_exactly_path_and_star(self):
        trees = list(all_trees(4))
        codes = {canonical_form(t) for t in trees}
        assert codes == {
            canonical_form(Tree(4, [(0, 1), (1, 2), (2, 3)])),
            canonical_form(Tree(4, [(0, 1), (0, 2), (0, 3)])),
        }

    def test_duplicate_free(self):
        for n in range(1, 13):
            codes = [canonical_form(t) for t in all_trees(n)]
            assert len(codes) == len(set(codes))

    def test_every_tree_valid_with_n_vertices(self):
        for n in range(1, 11):
            for t in all_trees(n):
                assert t.n == n and len(t.edges) == n - 1

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            next(all_trees(19))
        with pytest.raises(EnumerationCapError):
            next(all_trees(7, cap=6))
        assert sum(1 for _ in all_trees(7, cap=7)) == 11

    def test_bad_order(self):
        with pytest.raises(ValueError):
            next(all_trees(0))

    @pytest.mark.parametrize("n", [128, 129])
    @pytest.mark.parametrize("cap", [None, 18, 128, 200])
    def test_orders_above_127_are_rejected_whatever_the_cap(self, n, cap):
        # the int8 columns would wrap: at 128 a path's pendent paths read 0
        for search in (lambda: next(trees_satisfying(n, ConstraintSpec.pendent_path_count(2, 1), cap)),
                       lambda: next(all_trees(n, cap)),
                       lambda: extremal_search(n, ConstraintSpec.unconstrained(), "min", cap)):
            with pytest.raises(ValueError, match="127") as exc:
                search()
            assert type(exc.value) is ValueError

    def test_deterministic_order(self):
        a = [t.edges for t in all_trees(9)]
        b = [t.edges for t in all_trees(9)]
        assert a == b

    def test_classes_order_and_labels_frozen(self):
        # Every class to order 12, edges sorted, in emission order: the
        # generator may list a tree's edges in any order, but must not
        # change which classes come out, in what order, or their labels.
        text = json.dumps([[n, sorted(t.edges)] for n in range(1, 13) for t in all_trees(n)])
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "a8a826c0f140943e90daebcec88586e5b3fd59a70dd680950e73c11303255d9f"

    def test_batch_rows_frozen(self):
        # The generator's level sequences, byte for byte, to order 18.
        digests = [hashlib.sha256(np.concatenate(list(_level_sequences(n))).tobytes())
                   .hexdigest() for n in range(1, 19)]
        assert digests == ROW_DIGESTS

    @pytest.mark.parametrize("batch", [7, 1])
    def test_batch_size_does_not_change_rows(self, batch):
        for n in range(1, 13):
            rows = np.concatenate(list(_level_sequences(n)))
            with mock.patch.object(mostar.enumeration, "_BATCH", batch):
                short = list(_level_sequences(n))
            assert all(1 <= len(b) <= batch for b in short), n
            assert np.array_equal(np.concatenate(short), rows), n

    def test_enumeration_verify_and_cli_never_import_networkx(self, tmp_path):
        code = (
            "import sys\n"
            "import mostar\n"
            "from mostar import all_trees, check_claim, cli\n"
            "assert sum(1 for _ in all_trees(8)) == 23\n"
            "assert all(r.passed for r in check_claim('T2.1', 4, 6))\n"
            "assert cli.main(['enumerate', '--n', '6', '--out', sys.argv[1]]) == 0\n"
            "assert 'networkx' not in sys.modules, 'networkx was imported'\n"
        )
        src = str(Path(mostar.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        out = tmp_path / "trees.ndjson"
        res = subprocess.run([sys.executable, "-c", code, str(out)], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
        assert res.returncode == 0, res.stderr
        assert len(out.read_text().splitlines()) == 6


class TestPruferDedupOracle:
    """Independent route to the class counts: decode every sequence."""

    @staticmethod
    def count_classes(n):
        if n <= 2:
            return 1
        codes = set()
        for seq in itertools.product(range(n), repeat=n - 2):
            codes.add(canonical_form(Tree(n, prufer_to_edges(seq))))
        return len(codes)

    def test_counts_match_generator(self):
        for n in range(1, 8):
            assert self.count_classes(n) == sum(1 for _ in all_trees(n))


class TestTreesSatisfying:
    def test_odd_count_two_is_paths_only(self):
        # exactly 2 odd vertices at order 6: the path and the two other
        # degree-(2,2,2,2,1,1)-style trees do not exist; only P_6 qualifies
        found = list(trees_satisfying(6, ConstraintSpec.odd_count(2)))
        hand = [t for t in all_trees(6) if stats(t).odd_count == 2]
        assert [t.edges for t in found] == [t.edges for t in hand]
        assert all(stats(t).degree_sequence.count(2) == 4 for t in found)

    def test_deg2_n_minus_3_empty(self):
        for n in range(5, 12):
            assert list(trees_satisfying(n, ConstraintSpec.deg2_count(n - 3))) == []

    def test_deg2_n_minus_2_is_path(self):
        for n in range(4, 10):
            found = list(trees_satisfying(n, ConstraintSpec.deg2_count(n - 2)))
            assert len(found) == 1 and stats(found[0]).diameter == n - 1

    def test_all_odd_includes_star(self):
        found = list(trees_satisfying(6, ConstraintSpec.all_odd()))
        star_code = canonical_form(Tree(6, [(0, i) for i in range(1, 6)]))
        assert star_code in {canonical_form(t) for t in found}

    def test_odd_counts_partition_the_classes(self):
        for n in range(2, 11):
            total = sum(
                sum(1 for _ in trees_satisfying(n, ConstraintSpec.odd_count(2 * k)))
                for k in range(1, n // 2 + 1)
            )
            assert total == sum(1 for _ in all_trees(n))

    def test_degree_sequence_filter(self):
        c = ConstraintSpec.degree_sequence([3, 2, 2, 1, 1, 1])
        found = list(trees_satisfying(6, c))
        assert found and all(stats(t).degree_sequence == (3, 2, 2, 1, 1, 1) for t in found)

    def test_pendent_path_maximal_reading_differs(self):
        # the path P_6 has two pendent paths of every length; under the
        # maximal-run reading it has none of length 2
        census = ConstraintSpec.pendent_path_count(2, 2)
        maximal = ConstraintSpec.pendent_path_count(2, 2, maximal=True)
        in_census = {canonical_form(t) for t in trees_satisfying(6, census)}
        in_maximal = {canonical_form(t) for t in trees_satisfying(6, maximal)}
        p6 = canonical_form(Tree(6, [(i, i + 1) for i in range(5)]))
        assert p6 in in_census and p6 not in in_maximal

    def test_class_tests_follow_the_definitions(self):
        for n in range(2, 11):
            for t in all_trees(n):
                deg, want = t.degrees, stats(t)
                assert ConstraintSpec.all_odd().matches(want) == all(d % 2 for d in deg)
                assert ConstraintSpec.series_reduced().matches(want) == (2 not in deg)
                assert ConstraintSpec.deg2_count(deg.count(2)).matches(want)
                assert ConstraintSpec.branch_count(sum(d >= 3 for d in deg)).matches(want)
                assert ConstraintSpec.odd_count(sum(d % 2 for d in deg)).matches(want)
                assert ConstraintSpec.degree_sequence(deg).matches(want)

    def test_invalid_constraint_rejected(self):
        with pytest.raises(ValueError):
            list(trees_satisfying(6, ConstraintSpec.odd_count(3)))
        with pytest.raises(ValueError):
            list(trees_satisfying(6, ConstraintSpec.deg2_count(-1)))

    def test_unfiltered_stream_computes_no_stats(self):
        def refuse(t):
            raise AssertionError("stats called on an unfiltered stream")

        with mock.patch.object(mostar.enumeration, "stats", refuse, create=True):
            for n in range(1, 9):
                streamed = trees_satisfying(n, ConstraintSpec.unconstrained())
                assert [t.edges for t in streamed] == [t.edges for t in all_trees(n)]

    def test_filtered_stream_builds_only_the_trees_it_emits(self):
        refuse = mock.Mock(side_effect=AssertionError("stats called on a filtered stream"))
        with mock.patch.object(mostar.enumeration, "stats", refuse, create=True), \
                mock.patch.object(mostar.enumeration, "Tree", wraps=Tree) as built:
            kept = list(trees_satisfying(10, ConstraintSpec.deg2_count(2)))
        assert kept and built.call_count == len(kept)

    @pytest.mark.parametrize("constraint", [
        ConstraintSpec.odd_count(4), ConstraintSpec.deg2_count(0), ConstraintSpec.branch_count(2),
        ConstraintSpec.series_reduced(), ConstraintSpec.all_odd(),
        ConstraintSpec.pendent_path_count(2, 2), ConstraintSpec.pendent_path_count(2, 2, maximal=True),
        ConstraintSpec.pendent_path_count(3, 1), ConstraintSpec.degree_sequence([3, 3, 2, 1, 1, 1, 1]),
        ConstraintSpec.degree_sequence([2, 1, 1]),  # of order 3 only: a wrong length elsewhere
    ], ids=lambda c: c.describe())
    def test_filtered_stream_equals_the_per_tree_filter(self, constraint):
        for n in range(1, 12):
            hand = [t.edges for t in all_trees(n) if n > 1 and constraint.matches(stats(t))]
            assert [t.edges for t in trees_satisfying(n, constraint)] == hand, n
            with mock.patch.object(mostar.enumeration, "_BATCH", 7):  # many short batches
                assert [t.edges for t in trees_satisfying(n, constraint)] == hand, n

    def test_filtered_stream_spans_batches(self):
        constraint = ConstraintSpec.odd_count(6)
        hand = [t.edges for t in all_trees(13) if constraint.matches(stats(t))]
        streamed = [t.edges for t in trees_satisfying(13, constraint)]
        assert FREE_TREE_COUNTS[12] > mostar.enumeration._BATCH and streamed == hand


def assert_rows_are(table, pairs, same_labels=True):
    """Each (row, tree) pair: the table row holds the index and stats of the tree."""
    n = table.n
    census = {r: (table.pendent_paths(r), table.maximal_runs(r)) for r in range(1, n + 3)}
    assert not any(census[r][0].any() or census[r][1].any() for r in range(n, n + 3))
    runs_of = table.runs()
    for row, t in pairs:
        assert table.mo[row] == mostar_fast(t)[0]
        if same_labels:
            assert table.tree(row).edges == t.edges
        else:
            assert canonical_form(table.tree(row)) == canonical_form(t)
        if n < 2:
            continue
        want = stats(t)
        assert (table.odd_count[row], table.deg2_count[row], table.branch_count[row],
                table.leaf_count[row]) == (want.odd_count, want.deg2_count, want.branch_count,
                                           want.leaf_count)
        assert tuple(table.degree_sequence[row].tolist()) == want.degree_sequence
        runs = [int(runs_of[row, v]) for v in range(n) if table.degrees[row, v] == 1]
        assert runs == tree_mod._pendant_runs(table.tree(row))
        assert sorted(runs) == sorted(tree_mod._pendant_runs(t))
        for r, (paths, maximal) in census.items():
            assert (paths[row], maximal[row]) == (want.pendent_paths(r), want.maximal_runs(r))


class TestSearchTable:
    def test_columns_hold_order_127(self):
        # the star holds the largest degree and Mo, the path the longest runs
        n = 127
        star = _Table(np.array([[0] + [1] * (n - 1)], np.uint8))
        assert_rows_are(star, [(0, build(FamilySpec.star(n)))], same_labels=False)
        table = _Table(next(_level_sequences(n)))
        assert_rows_are(table, [(0, build(FamilySpec.path(n)))], same_labels=False)
        assert_rows_are(table, ((row, table.tree(row)) for row in (1, 2, 500, len(table.mo) - 1)))
        assert table.select(ConstraintSpec.pendent_path_count(2, 1))[0] == 0

    @staticmethod
    def whole_order(n):
        return _Table(np.concatenate(list(_level_sequences(n))))

    def test_every_class_to_14(self):
        for n in range(1, 15):
            table = self.whole_order(n)
            assert len(table.mo) == FREE_TREE_COUNTS[n - 1]
            assert_rows_are(table, enumerate(all_trees(n)))
            if n > 1:  # every row's Mo, and its tree's splits, by the transmission identity
                n_u = [mostar_fast(table.tree(row))[1]._n_u for row in range(len(table.mo))]
                assert_transmission_identity(n, table.edges(slice(None)), table.mo, n_u)

    def test_sample_at_16(self):
        table = self.whole_order(16)
        sample = set(random.Random(16).sample(range(len(table.mo)), 400))
        assert_rows_are(table, ((row, t) for row, t in enumerate(all_trees(16)) if row in sample))

    @settings(max_examples=80, deadline=None, database=None)
    @given(st.integers(2, 60), st.integers(0, 2**32 - 1))
    def test_center_rooted_level_sequences_of_drawn_trees(self, n, seed):
        t = random_tree(n, seed)
        stack = [(tree_mod._centers(t)[0], -1, 0)]
        sequence = []
        while stack:  # preorder from a center: the level sequence of t
            v, parent, d = stack.pop()
            sequence.append(d)
            stack.extend((w, v, d + 1) for w in reversed(t.adj[v]) if w != parent)
        table = _Table(np.array([sequence], dtype=np.uint8))
        assert_rows_are(table, [(0, t)], same_labels=False)


# The _Table columns built on first read.
LAZY_COLUMNS = ("mo", "census", "odd_count", "deg2_count", "branch_count", "leaf_count")


@contextlib.contextmanager
def column_builds():
    """A spy on each lazy column's builder, by column name."""
    with contextlib.ExitStack() as stack:
        yield {name: stack.enter_context(mock.patch.object(
            _Table.__dict__[name], "func", wraps=_Table.__dict__[name].func))
            for name in LAZY_COLUMNS}


class TestLazyColumns:
    def builds(self, argv, tmp_path):
        with column_builds() as spies:
            assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        return {name: spy.call_count for name, spy in spies.items()}

    def test_unfiltered_enumerate_builds_no_column(self, tmp_path, capsys):
        assert self.builds(["enumerate", "--n", "13"], tmp_path) == dict.fromkeys(LAZY_COLUMNS, 0)

    def test_filtered_enumerate_builds_its_count_only(self, tmp_path, capsys):
        built = self.builds(["enumerate", "--n", "13", "--filter", "deg2=3"], tmp_path)
        assert built == {**dict.fromkeys(LAZY_COLUMNS, 0), "deg2_count": 2}  # two batches at n = 13

    def test_verify_builds_each_column_once_per_order(self, tmp_path, monkeypatch):
        orders = range(5, 10)
        monkeypatch.setattr(mostar.verify, "_latest", None)  # no order's table held
        with mock.patch.object(mostar.verify, "_Table", wraps=_Table) as tables, \
                column_builds() as spies:
            argv = ["verify", "--claim", "all", "--n-min", "5", "--n-max", "9"]
            assert main([*argv, "--format", "json", "--out", str(tmp_path / "out")]) == 0
        assert tables.call_count == len(orders)
        for name, spy in spies.items():
            read = [call.args[0] for call in spy.call_args_list]
            assert 0 < len(read) == len(set(map(id, read))) <= len(orders), name


class TestRandomTree:
    def test_seed_reproducibility(self):
        assert random_tree(50, 7).edges == random_tree(50, 7).edges
        assert random_tree(50, 7).edges != random_tree(50, 8).edges

    def test_two_vertices(self):
        assert random_tree(2, 0).edges == ((0, 1),)

    def test_decode_degree_property(self):
        seq = [3, 3, 0, 4, 4]
        t = Tree(7, prufer_to_edges(seq))
        for v in range(7):
            assert t.degree(v) == 1 + seq.count(v)

    def test_decode_known_sequence(self):
        # the classic worked example: (3, 3, 3, 4) on 6 vertices
        edges = set(prufer_to_edges([3, 3, 3, 4]))
        assert edges == {(0, 3), (1, 3), (2, 3), (3, 4), (4, 5)}

    def test_all_sizes_valid(self):
        for n in (2, 3, 5, 17, 100):
            t = random_tree(n, 123)
            assert t.n == n

    def test_n1_rejected(self):
        with pytest.raises(ValueError):
            random_tree(1, 0)

    def test_order_past_int32_rejected_before_generating(self):
        with mock.patch("mostar.enumeration.random.Random", side_effect=AssertionError), \
                pytest.raises(ValueError, match="2147483647"):
            random_tree(3_000_000_000, 0)
