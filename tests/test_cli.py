"""Command-line surface: dispatch, formats, and exit codes."""

import json
from unittest import mock

import pytest

from mostar import (
    ConstraintSpec,
    FamilySpec,
    Tree,
    all_trees,
    build,
    check_claim,
    claim_ids,
    is_isomorphic,
    mostar_bfs,
    mostar_fast,
    parse_edge_list,
    parse_family_spec,
    random_tree,
    relocate_pendant,
    to_edge_list_text,
    tree_from_record,
    tree_record,
    trees_satisfying,
    write_edge_list,
)
from mostar.cli import _parse_filter, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def path7_file(tmp_path):
    target = tmp_path / "path7.txt"
    write_edge_list(build(FamilySpec.path(7)), target)
    return str(target)


class TestCompute:
    def test_text(self, capsys, path7_file):
        code, out, _ = run(capsys, "compute", path7_file)
        assert code == 0
        assert out.splitlines()[0] == "Mo = 18"
        assert len(out.splitlines()) == 7  # header plus one line per edge

    def test_oracle_agrees(self, capsys, path7_file):
        code, out, _ = run(capsys, "compute", path7_file, "--oracle", "--total-only")
        assert code == 0 and out.strip() == "Mo = 18"

    def test_json(self, capsys, path7_file):
        code, out, _ = run(capsys, "compute", path7_file, "--format", "json")
        obj = json.loads(out)
        assert obj["mostar"] == 18 and len(obj["splits"]) == 6

    def test_compute_equals_library_on_family_file(self, capsys, tmp_path):
        t = build(FamilySpec.c(11, 2, 1))
        f = tmp_path / "c.txt"
        write_edge_list(t, f)
        code, out, _ = run(capsys, "compute", str(f), "--total-only")
        assert out.strip() == f"Mo = {mostar_fast(t)[0]}"

    @staticmethod
    def per_row_table(t, index=mostar_fast):
        # the table as one f-string per EdgeSplit record
        total, splits = index(t)
        rows = [f"  ({s.edge[0]}, {s.edge[1]})  n_u={s.n_u}  n_v={s.n_v}  psi={s.psi}"
                for s in list(splits)]
        return "\n".join([f"Mo = {total}", *rows]) + "\n"

    @pytest.mark.parametrize("t", [random_tree(3000, 17), Tree(1, []), Tree(2, [(1, 0)])],
                             ids=["random3000", "n1", "n2"])
    def test_table_same_in_both_regimes_and_sinks(self, capsys, tmp_path, monkeypatch, t):
        import mostar.tree as tree_mod

        f = tmp_path / "t.txt"
        write_edge_list(t, f)
        expected = self.per_row_table(t)
        # the other regime: 3000 vertices as a small tree, n = 2 as an array
        other = 10**7 if t.n > tree_mod._SMALL_N else 1
        outputs = []
        for small_n, block in ((tree_mod._SMALL_N, tree_mod._BLOCK), (other, 1000)):
            monkeypatch.setattr(tree_mod, "_SMALL_N", small_n)
            monkeypatch.setattr(tree_mod, "_BLOCK", block)
            code, out, _ = run(capsys, "compute", str(f))
            assert code == 0
            outputs.append(out)
            target = tmp_path / f"out{small_n}.txt"
            code, out, _ = run(capsys, "compute", str(f), "--out", str(target))
            assert code == 0 and out == ""
            outputs.append(target.read_text())
        assert outputs == [expected] * 4

    def test_oracle_table_and_json_match_records(self, capsys, path7_file):
        t = parse_edge_list(open(path7_file).read())
        code, out, _ = run(capsys, "compute", path7_file, "--oracle")
        assert code == 0 and out == self.per_row_table(t, mostar_bfs)
        code, out, _ = run(capsys, "compute", path7_file, "--format", "json")
        total, splits = mostar_fast(t)
        assert code == 0 and json.loads(out) == {
            "n": 7,
            "mostar": total,
            "splits": [{"edge": list(s.edge), "n_u": s.n_u, "n_v": s.n_v, "psi": s.psi}
                       for s in splits],
        }

    @pytest.mark.parametrize("t", [Tree(1, []), Tree(2, [(1, 0)]), build(FamilySpec.c(7, 1, 1)),
                                   random_tree(9000, 4), random_tree(20000, 4)],
                             ids=["n1", "n2", "n7", "random9000", "random20000"])
    def test_json_and_table_bytes_past_one_block(self, capsys, tmp_path, t):
        import mostar.tree as tree_mod

        assert t.n <= 7 or t.n - 1 > tree_mod._BLOCK  # the large tree spans two blocks
        f = tmp_path / "t.txt"
        write_edge_list(t, f)
        total, splits = mostar_fast(t)
        obj = {"n": t.n, "mostar": total,
               "splits": [{"edge": list(s.edge), "n_u": s.n_u, "n_v": s.n_v, "psi": s.psi}
                          for s in splits]}
        code, out, _ = run(capsys, "compute", str(f), "--format", "json")
        assert code == 0 and out == json.dumps(obj, indent=2) + "\n"
        code, out, _ = run(capsys, "compute", str(f))
        assert code == 0 and out == self.per_row_table(t)

    @pytest.mark.parametrize("n", [3, 3000])
    def test_overflowing_id_exits_2(self, capsys, tmp_path, n):
        f = tmp_path / "big.txt"
        f.write_text("".join([f"{n}\n", *(f"{i} {i + 1}\n" for i in range(n - 2)),
                              f"{n - 2} 12345678901234567890\n"]))
        code, out, err = run(capsys, "compute", str(f))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "64-bit" in err

    def test_json_total_only_exits_2_and_writes_no_file(self, capsys, tmp_path, path7_file):
        # JSON keeps one shape, every split listed, so --total-only is a usage error
        target = tmp_path / "out.json"
        code, out, err = run(capsys, "compute", path7_file, "--format", "json", "--total-only",
                             "--out", str(target))
        assert (code, out) == (2, "") and err.startswith("error:") and err.count("\n") == 1
        assert "--total-only" in err and not target.exists()


class TestFamily:
    def test_dot(self, capsys):
        code, out, _ = run(capsys, "family", "spider:n=8,r=3", "--format", "dot")
        assert code == 0
        assert out.startswith("graph tree {") and out.count("--") == 7

    @pytest.mark.parametrize("spec", ["path:n=1", "path:n=2", "spider:n=8,r=3", "spider:n=20000,r=7"])
    def test_json_bytes_equal_the_record(self, capsys, spec):
        # written a chunk at a time, the last spec past one 64 KB chunk
        code, out, _ = run(capsys, "family", spec, "--format", "json")
        assert code == 0
        assert out == json.dumps(tree_record(build(parse_family_spec(spec)))) + "\n"

    def test_edgelist_round_trip(self, capsys):
        code, out, _ = run(capsys, "family", "C:n=7,a=1,b=1")
        assert code == 0
        assert parse_edge_list(out) == build(FamilySpec.c(7, 1, 1))

    def test_bad_spec_exits_2(self, capsys):
        code, _, err = run(capsys, "family", "C:n=7,a=9,b=9")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("spec", ["star:n=3000000000", "path:n=1000000000000",
                                      "cat:d=2999999997,3"])
    def test_order_past_int32_exits_2(self, capsys, spec):
        code, out, err = run(capsys, "family", spec)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "2147483647" in err

    def test_repeated_parameter_exits_2_and_writes_no_file(self, capsys, tmp_path):
        target = tmp_path / "t.txt"
        code, out, err = run(capsys, "family", "spider:n=8,r=3,r=4", "--out", str(target))
        assert (code, out) == (2, "") and "'r' given twice" in err
        assert not target.exists()

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "t.txt"
        code, _, _ = run(capsys, "family", "path:n=5", "--out", str(target))
        assert code == 0
        assert parse_edge_list(target.read_text()) == build(FamilySpec.path(5))


class TestEnumerate:
    def test_ndjson_round_trip(self, capsys):
        code, out, err = run(capsys, "enumerate", "--n", "6")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 6
        trees = [tree_from_record(r) for r in records]
        assert all(t.n == 6 for t in trees)
        assert "6 trees" in err

    def test_filter_odd(self, capsys):
        # odd=3 selects trees with 2*3 = 6 odd-degree vertices
        code, out, _ = run(capsys, "enumerate", "--n", "10", "--filter", "odd=3")
        from mostar import stats

        trees = [tree_from_record(json.loads(line)) for line in out.splitlines()]
        assert trees and all(stats(t).odd_count == 6 for t in trees)

    def test_filter_series_reduced(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "8", "--filter", "series-reduced")
        from mostar import stats

        trees = [tree_from_record(json.loads(line)) for line in out.splitlines()]
        assert trees and all(stats(t).deg2_count == 0 for t in trees)

    @pytest.mark.parametrize("filt, count", [("ppaths=0:40", 106), ("ppaths=1:40", 0),
                                             ("ppaths=2:8", 1)])
    def test_filter_ppaths_at_and_past_the_order(self, capsys, filt, count):
        # no run reaches 40 at n = 10; only the path has two runs of n - 2
        code, out, err = run(capsys, "enumerate", "--n", "10", "--filter", filt)
        assert (code, len(out.splitlines()), err) == (0, count, f"{count} trees\n")
        k, r = map(int, filt[len("ppaths="):].split(":"))
        from mostar import stats

        trees = [tree_from_record(json.loads(line)) for line in out.splitlines()]
        assert all(stats(t).pendent_paths(r) == k for t in trees)

    def test_offset_limit(self, capsys):
        _, full, _ = run(capsys, "enumerate", "--n", "7")
        _, window, _ = run(capsys, "enumerate", "--n", "7", "--offset", "3", "--limit", "2")
        assert window.splitlines() == full.splitlines()[3:5]

    @pytest.mark.parametrize("n", [128, 129])
    def test_orders_above_127_exit_2(self, capsys, n):
        code, out, err = run(capsys, "enumerate", "--n", str(n), "--cap", "200", "--limit", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "127" in err

    @pytest.mark.parametrize("flag", ["--offset", "--limit"])
    def test_negative_window_exits_2(self, capsys, flag):
        code, out, err = run(capsys, "enumerate", "--n", "7", flag, "-1")
        assert code == 2 and out == "" and f"error: {flag} must be >= 0" in err

    @pytest.mark.parametrize("window", [["--offset", "11"], ["--offset", "500"], ["--limit", "0"]])
    def test_empty_window(self, capsys, window):
        code, out, err = run(capsys, "enumerate", "--n", "7", *window)
        assert (code, out, err) == (0, "", "0 trees\n")

    @pytest.mark.parametrize("n, batch", [(1, 1024), (2, 1024), (7, 1024), (10, 7)])
    @pytest.mark.parametrize("fmt", ["ndjson", "edgelist"])
    def test_output_equals_the_per_tree_rendering(self, capsys, monkeypatch, n, batch, fmt):
        import mostar.enumeration

        monkeypatch.setattr(mostar.enumeration, "_BATCH", batch)
        if fmt == "edgelist":
            render = to_edge_list_text
        else:
            def render(t):
                return json.dumps(tree_record(t), separators=(",", ":")) + "\n"
        # branch=3 leaves some batches of 7 empty at n = 10; windows cross batches
        for filt in ([], ["--filter", "branch=3"]):
            trees = list(trees_satisfying(n, _parse_filter(filt[1]) if filt else
                                          ConstraintSpec.unconstrained()))
            for offset, limit in ((0, None), (3, 9), (5, 9), (20, None), (1, 100)):
                window = ["--offset", str(offset)] + (["--limit", str(limit)] if limit else [])
                code, out, err = run(capsys, "enumerate", "--n", str(n), "--format", fmt,
                                     *filt, *window)
                kept = trees[offset:None if limit is None else offset + limit]
                assert (code, out, err) == (0, "".join(map(render, kept)), f"{len(kept)} trees\n")

    def test_builds_no_tree(self, capsys):
        import mostar.enumeration

        with mock.patch.object(mostar.enumeration, "Tree", wraps=Tree) as built:
            for filt in ([], ["--filter", "deg2=2"]):
                code, out, _ = run(capsys, "enumerate", "--n", "10", *filt)
                assert code == 0 and out
        assert built.call_count == 0

    def test_window_reads_only_the_batches_it_needs(self, capsys):
        import mostar.enumeration

        with mock.patch.object(mostar.enumeration, "_Table", wraps=mostar.enumeration._Table) as fills:
            code, out, _ = run(capsys, "enumerate", "--n", "13", "--limit", "3")
        first = [json.dumps(tree_record(t), separators=(",", ":")) for t in all_trees(13)][:3]
        assert code == 0 and out.splitlines() == first
        assert fills.call_count == 1 and 1301 > mostar.enumeration._BATCH  # n = 13 has two batches

    def test_bad_filter_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--n", "6", "--filter", "bogus=1"])
        assert exc.value.code == 2

    def test_over_cap_exits_2(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "25")
        assert code == 2 and "cap" in err


class TestTransformCommand:
    def test_contract(self, capsys, tmp_path):
        f = tmp_path / "p4.txt"
        write_edge_list(build(FamilySpec.path(4)), f)
        out_file = tmp_path / "after.txt"
        code, out, _ = run(capsys, "transform", "contract", str(f),
                           "--edge", "1,2", "--out", str(out_file))
        assert code == 0
        assert "Mo before = 4" in out and "Mo after  = 6" in out
        after = parse_edge_list(out_file.read_text())
        assert is_isomorphic(after, build(FamilySpec.star(4)))

    def test_contract_pendent_rejected(self, capsys, tmp_path):
        f = tmp_path / "p4.txt"
        write_edge_list(build(FamilySpec.path(4)), f)
        code, _, err = run(capsys, "transform", "contract", str(f), "--edge", "0,1")
        assert code == 2 and "pendent" in err

    def test_shift_reports_hypothesis(self, capsys, tmp_path):
        t = parse_edge_list("8\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n2 7\n")
        f = tmp_path / "cat.txt"
        write_edge_list(t, f)
        code, out, _ = run(capsys, "transform", "shift", str(f),
                           "--path", "0,1,2,3,4,5,6", "--i", "2", "--c", "1")
        assert code == 0
        assert "hypothesis held: True" in out

    def test_move_pendants(self, capsys, tmp_path):
        f = tmp_path / "ds.txt"
        write_edge_list(parse_edge_list("6\n0 1\n0 2\n0 3\n1 4\n1 5\n"), f)
        code, out, _ = run(capsys, "transform", "move-pendants", str(f), "--x", "0", "--y", "1")
        assert code == 0 and "max increases: True" in out

    def test_rebalance(self, capsys, tmp_path):
        f = tmp_path / "t.txt"
        write_edge_list(parse_edge_list("6\n0 1\n1 2\n0 3\n3 4\n0 5\n"), f)
        code, out, _ = run(capsys, "transform", "rebalance", str(f),
                           "--at", "0", "--long", "2", "--short", "2")
        assert code == 0 and "Mo before = 16" in out

    def test_relocate(self, capsys, tmp_path):
        f = tmp_path / "c.txt"
        write_edge_list(build(FamilySpec.c(12, 3, 1)), f)
        code, out, _ = run(capsys, "transform", "relocate", str(f),
                           "--leaf", "10", "--from", "3", "--to", "5")
        assert code == 0
        assert "Mo before = 80" in out and "Mo after  = 76" in out

    def test_out_dash_writes_the_edge_list_to_stdout(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        t = build(FamilySpec.c(12, 3, 1))
        write_edge_list(t, "c.txt")
        code, out, _ = run(capsys, "transform", "relocate", "c.txt",
                           "--leaf", "10", "--from", "3", "--to", "5", "--out", "-")
        summary = "Mo before = 80\nMo after  = 76\nhypothesis held: True\n"
        assert (code, out) == (0, summary + to_edge_list_text(relocate_pendant(t, 10, 3, 5)))
        assert not (tmp_path / "-").exists()

    @pytest.mark.parametrize("shape, argv, line", [
        (4, ["contract", "--edge", "0,1"],
         "error: edge (0, 1) is pendent; contraction requires a non-pendent edge"),
        (5, ["rebalance", "--at", "99", "--long", "1", "--short", "1"],
         "error: vertex ids [99] outside 0..4"),
    ], ids=["HypothesisError", "ValueError"])
    def test_error_is_one_stderr_line_and_exit_2(self, capsys, tmp_path, shape, argv, line):
        f = tmp_path / "p.txt"
        write_edge_list(build(FamilySpec.path(shape)), f)
        name, *opts = argv
        code, out, err = run(capsys, "transform", name, str(f), *opts)
        assert (code, out, err.splitlines()) == (2, "", [line])

    @pytest.mark.parametrize("vertex", ["99", "-1"])
    @pytest.mark.parametrize("argv", [
        ["contract", "--edge=0,{v}"],
        ["rebalance", "--at={v}", "--long=1", "--short=1"],
        ["move-pendants", "--x=0", "--y={v}"],
        ["shift", "--path=0,1,{v}", "--i=1"],
        ["relocate", "--leaf={v}", "--from=2", "--to=0"],
    ], ids=lambda argv: argv[0])
    def test_out_of_range_vertex_exits_2(self, capsys, tmp_path, argv, vertex):
        f = tmp_path / "p5.txt"
        write_edge_list(build(FamilySpec.path(5)), f)
        name, *opts = argv
        code, _, err = run(capsys, "transform", name, str(f),
                           *(o.format(v=vertex) for o in opts))
        assert code == 2
        assert err.startswith("error:") and "outside 0..4" in err


class TestVerifyCommand:
    def test_single_claim_ok(self, capsys):
        code, out, _ = run(capsys, "verify", "--claim", "T3.1",
                           "--n-min", "5", "--n-max", "8")
        assert code == 0
        assert "FAIL" not in out and "T3.1" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--claim", "T3.4",
                           "--n-min", "6", "--n-max", "8", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["claim"] == "T3.4"
        assert all(inst["claimed_is_argopt"] for inst in obj["instances"])

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--claim", "C2.7",
                           "--n-min", "5", "--n-max", "7", "--format", "csv")
        assert code == 0 and out.startswith("claim,n,params")

    def test_unknown_claim_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--claim", "T7.7")
        assert code == 2 and "unknown claim" in err

    def test_empty_order_range_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "--n-min", "10", "--n-max", "5")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "empty order range" in err

    @pytest.mark.parametrize("claim, n_min, n_max", [("T3.4", 5, 5), ("C2.7", 2, 3)])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_no_instances_exits_2(self, capsys, claim, n_min, n_max, fmt):
        # no all-odd class at odd n, no pair of spiders below n = 4:
        # a range that checks nothing is not a success
        code, out, err = run(capsys, "verify", "--claim", claim, "--n-min", str(n_min),
                             "--n-max", str(n_max), "--format", fmt)
        assert code == 2 and out == ""
        assert err.startswith("error:") and claim in err and f"{n_min}..{n_max}" in err
        assert check_claim(claim, n_min, n_max) == []

    @pytest.mark.parametrize("claim", [*claim_ids(), "all"])
    def test_orders_below_1_exit_2(self, capsys, claim):
        code, out, err = run(capsys, "verify", "--claim", claim, "--n-min", "0", "--n-max", "3")
        assert (code, out, err) == (2, "", "error: order must be >= 1, got 0\n")

    def test_orders_above_127_exit_2(self, capsys):
        code, out, err = run(capsys, "verify", "--claim", "LDL-min-degseq",
                             "--n-min", "128", "--n-max", "128", "--cap", "200")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "127" in err

    def test_status_counts_on_stderr(self, capsys):
        code, out, err = run(capsys, "verify", "--claim", "T2.1",
                             "--n-min", "5", "--n-max", "6")
        assert code == 0 and out.count(" ok\n") == 4
        assert err.splitlines() == ["ok=4 fail=0 invalid=0 empty=0"]

    @pytest.mark.parametrize("patch, status, counts", [
        ("claimed_extremal", " INVALID (", "ok=0 fail=0 invalid=4 empty=0"),
        ("extremal_search", " EMPTY CLASS", "ok=0 fail=0 invalid=0 empty=4"),
    ], ids=["invalid", "empty"])
    def test_vacuous_instances_are_counted_apart(self, capsys, monkeypatch, patch, status, counts):
        # with no claimed family, or an empty class, nothing is checked:
        # exit 0, but no instance counts as ok
        import mostar.verify as verify_mod

        stub = {"claimed_extremal": lambda n, constraint, direction: None,
                "extremal_search": lambda n, constraint, direction, cap=None: (None, [])}
        monkeypatch.setattr(verify_mod, patch, stub[patch])
        code, out, err = run(capsys, "verify", "--claim", "T2.1",
                             "--n-min", "5", "--n-max", "6")
        assert code == 0 and out.count(status) == 4
        assert err.splitlines() == [counts]

    def test_all_claims_small_range(self, capsys):
        code, out, _ = run(capsys, "verify", "--claim", "all",
                           "--n-min", "5", "--n-max", "6")
        assert code == 0
        assert "LDL-min-degseq" in out

    def test_verification_failure_exits_1(self, capsys, monkeypatch):
        # force a wrong claimed family to prove the exit-code contract
        import mostar.verify as verify_mod

        def wrong_family(n, constraint, direction):
            return FamilySpec.path(n)

        monkeypatch.setattr(verify_mod, "claimed_extremal", wrong_family)
        code, out, err = run(capsys, "verify", "--claim", "T2.1",
                             "--n-min", "6", "--n-max", "6")
        assert code == 1 and "FAIL" in out and "failing" in err


class TestBench:
    def test_order_past_int32_exits_2_before_generating(self, capsys):
        import mostar.enumeration

        with mock.patch.object(mostar.enumeration.random, "Random", side_effect=AssertionError):
            code, out, err = run(capsys, "bench", "--n", "3000000000")
        assert (code, out) == (2, "") and "2147483647" in err

    def test_small_with_oracle(self, capsys):
        code, out, _ = run(capsys, "bench", "--n", "60", "--seed", "5")
        assert code == 0
        assert "agree" in out

    def test_large_skips_oracle(self, capsys):
        code, out, _ = run(capsys, "bench", "--n", "5000", "--seed", "5")
        assert code == 0
        assert "skipped" in out

    def test_reports_construction_before_index(self, capsys):
        code, out, _ = run(capsys, "bench", "--n", "3000", "--seed", "5")
        lines = out.splitlines()
        assert code == 0
        assert lines[1].startswith("random_tree:") and lines[2].startswith("mostar_fast:")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
