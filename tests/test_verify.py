"""Brute-force extremal search, the claim registry, and report formats."""

import gc
import hashlib
import json
import operator
import sys
import time
import tracemalloc
import types
from unittest import mock

import pytest

import mostar.enumeration
import mostar.verify
from mostar import (
    ConstraintSpec,
    EnumerationCapError,
    FamilySpec,
    ParameterError,
    Tree,
    build,
    canonical_form,
    check_claim,
    check_degree_sequence_structure,
    claim_ids,
    claimed_extremal,
    extremal_search,
    is_isomorphic,
    mostar_fast,
)
from mostar.cli import main
from mostar.enumeration import _Table
from mostar.tree import TreeStats
from mostar.verify import (
    REGISTRY,
    VerificationReport,
    failed_reports,
    reports_to_csv,
    reports_to_json_obj,
)


def reachable(module):
    """Every object the module's names lead to, without entering a module,
    a module's globals or a class defined outside the package."""
    modules = [m for m in list(sys.modules.values()) if isinstance(m, types.ModuleType)]
    stop = {id(m) for m in modules} | {id(vars(m)) for m in modules}
    seen, todo = {}, list(vars(module).values())
    while todo:
        obj = todo.pop()
        if id(obj) in seen or id(obj) in stop or (
                isinstance(obj, type) and not obj.__module__.startswith("mostar")):
            continue
        seen[id(obj)] = obj
        todo.extend(gc.get_referents(obj))
    return list(seen.values())


def order_of(obj):
    """The order of a search table, tree, family or canonical form, else infinity."""
    if isinstance(obj, (_Table, Tree, FamilySpec)):
        return obj.n
    if isinstance(obj, TreeStats):
        return len(obj.degree_sequence)
    if isinstance(obj, str) and obj and not obj.strip("()"):
        return len(obj) // 2
    return float("inf")


@pytest.fixture
def no_order(monkeypatch):
    """Start with no order's scope held."""
    monkeypatch.setattr(mostar.verify, "_latest", None)


class TestExtremalSearch:
    def test_unconstrained_max_is_star(self):
        value, argopt = extremal_search(7, ConstraintSpec.unconstrained(), "max")
        assert value == 30
        assert len(argopt) == 1
        assert is_isomorphic(argopt[0], build(FamilySpec.star(7)))

    def test_unconstrained_min_is_path(self):
        value, argopt = extremal_search(7, ConstraintSpec.unconstrained(), "min")
        assert value == 18
        assert len(argopt) == 1
        assert is_isomorphic(argopt[0], build(FamilySpec.path(7)))

    def test_odd_count_min_contains_claimed(self):
        value, argopt = extremal_search(7, ConstraintSpec.odd_count(4), "min")
        claimed = build(FamilySpec.c(7, 1, 0))
        assert canonical_form(claimed) in {canonical_form(t) for t in argopt}
        assert value == mostar_fast(claimed)[0]

    def test_empty_class_result(self):
        value, argopt = extremal_search(8, ConstraintSpec.deg2_count(5), "min")
        assert value is None and argopt == []

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            extremal_search(6, ConstraintSpec.unconstrained(), "sideways")

    def test_one_record_table_per_order_whatever_the_cap(self, tmp_path, capsys, no_order):
        everything = ConstraintSpec.unconstrained()
        argv = ["verify", "--claim", "all", "--n-min", "8", "--n-max", "8",
                "--out", str(tmp_path / "out")]
        with mock.patch.object(mostar.verify, "_Table", wraps=_Table) as fills:
            assert main(argv) == 0  # the CLI's cap
            extremal_search(8, everything, "max")  # library default cap
            check_degree_sequence_structure(8, cap=8)
            # The cap still guards an order whose table is filled.
            assert main(argv + ["--cap", "7"]) == 2
            with pytest.raises(EnumerationCapError):
                extremal_search(8, everything, "max", cap=7)
            with pytest.raises(EnumerationCapError):
                check_degree_sequence_structure(8, cap=7)
        assert fills.call_count == 1
        assert "order 8 exceeds the enumeration cap 7" in capsys.readouterr().err

    def test_one_fill_per_order_past_16_orders(self, tmp_path, capsys, no_order):
        # order-major over 1..17: every claim of an order reads one table
        argv = ["verify", "--claim", "all", "--n-min", "1", "--n-max", "17", "--cap", "17",
                "--out", str(tmp_path / "out")]
        with mock.patch.object(mostar.verify, "_Table", wraps=_Table) as fills:
            assert main(argv) == 0
        assert [call.args[0].shape[1] for call in fills.call_args_list] == list(range(1, 18))
        assert capsys.readouterr().err.splitlines() == ["ok=1228 fail=0 invalid=0 empty=1"]

    def test_each_family_is_built_and_each_class_formed_once(self, tmp_path, monkeypatch):
        # every instance claim at orders 5..9; C2.7 builds its own spiders
        orders = range(5, 10)
        claims = [claim.id for claim in REGISTRY.values() if claim.instances is not None]
        specs, classes = set(), set()
        for n in orders:
            for cid in claims:
                for _, constraint, direction in REGISTRY[cid].instances(n):
                    specs.add(claimed_extremal(n, constraint, direction))
                    argopt = extremal_search(n, constraint, direction)[1]
                    classes.update((t.n, t.edges) for t in argopt)
        specs.discard(None)

        def buildable(spec):
            try:
                return build(spec) is not None
            except ParameterError:
                return False

        monkeypatch.setattr(mostar.verify, "_latest", None)
        with mock.patch.object(mostar.verify, "canonical_form", wraps=canonical_form) as forms, \
                mock.patch.object(mostar.verify, "build", wraps=build) as builds:
            assert main(["verify", "--claim", "all", "--n-min", "5", "--n-max", "9",
                         "--out", str(tmp_path / "out")]) == 0
        assert len(classes) < forms.call_count == sum(map(buildable, specs)) + len(classes)
        assert builds.call_count == len(specs) + sum(n - 2 for n in orders)

    def test_search_builds_trees_for_the_optimizers_only(self, no_order):
        refuse = mock.Mock(side_effect=AssertionError("per-class work on the search path"))
        with mock.patch.object(mostar.verify, "stats", refuse), \
                mock.patch.object(mostar.verify, "mostar_fast", refuse), \
                mock.patch.object(mostar.enumeration, "stats", refuse, create=True), \
                mock.patch.object(mostar.enumeration, "Tree", wraps=Tree) as built:
            value, argopt = extremal_search(10, ConstraintSpec.odd_count(4), "min")
            again = extremal_search(10, ConstraintSpec.odd_count(4), "min")[1]
        assert value == mostar_fast(build(FamilySpec.c(10, 1, 0)))[0]
        assert argopt and built.call_count == len(argopt)
        assert all(map(operator.is_, again, argopt))  # a row becomes a Tree once per order

    def test_each_row_becomes_a_tree_once_per_order(self, tmp_path, monkeypatch, no_order):
        # the searches and the degree-sequence check share each order's trees
        made, tree = [], _Table.tree

        def counted(table, row):
            made.append((table.n, row))
            return tree(table, row)

        monkeypatch.setattr(_Table, "tree", counted)
        assert main(["verify", "--claim", "all", "--n-min", "5", "--n-max", "12",
                     "--out", str(tmp_path / "out")]) == 0
        assert made and len(made) == len(set(made))

    def test_millis_excludes_the_table_fill(self, tmp_path, monkeypatch):
        fill = mostar.verify._Table

        def slow_fill(depth):
            time.sleep(0.25)
            return fill(depth)

        spy = mock.Mock(side_effect=slow_fill)
        monkeypatch.setattr(mostar.verify, "_Table", spy)
        fills, millis = {}, []
        for cid in claim_ids():  # each claim starts with no table filled
            monkeypatch.setattr(mostar.verify, "_latest", None)
            before, target = spy.call_count, tmp_path / f"{cid}.json"
            assert main(["verify", "--claim", cid, "--n-min", "6", "--n-max", "6",
                         "--format", "json", "--out", str(target)]) == 0
            fills[cid] = spy.call_count - before
            millis += [inst["millis"] for inst in json.loads(target.read_text())["instances"]]
        assert fills == {cid: int(cid != "C2.7") for cid in claim_ids()}  # C2.7 needs no table
        assert millis and max(millis) < 250

    def test_spider_millis_cover_their_builds(self, monkeypatch):
        def slow_build(spec):
            time.sleep(0.005)
            return build(spec)

        monkeypatch.setattr(mostar.verify, "build", slow_build)
        reports = check_claim("C2.7", 4, 9)
        assert len(reports) == sum(n - 3 for n in range(4, 10))
        assert all(r.millis >= 5 for r in reports)

    def test_a_sweep_holds_its_last_order_only(self, tmp_path, monkeypatch):
        def held(n_min):
            """Bytes still allocated after a sweep from n_min to 12."""
            monkeypatch.setattr(mostar.verify, "_latest", None)
            gc.collect()
            tracemalloc.start()
            try:
                assert main(["verify", "--claim", "all", "--n-min", str(n_min), "--n-max", "12",
                             "--out", str(tmp_path / "out")]) == 0
                gc.collect()
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        held(12)  # first-run imports and interned names
        sweep = held(5)
        orders = {order_of(obj) for obj in reachable(mostar.verify)}
        assert 12 in orders and not [n for n in orders if n < 12]
        assert sweep - held(12) < 64 * 1024


class TestClaims:
    def test_registry_ids(self):
        assert claim_ids() == [
            "T2.1", "T2.6", "C2.7", "T3.1", "T3.2", "C3.3", "T3.4",
            "T4.1", "T4.3", "C4.4", "T5.1", "T5.3", "LDL-min-degseq",
        ]

    def test_unknown_claim(self):
        with pytest.raises(KeyError):
            check_claim("T9.9", 5, 6)

    def test_instance_grids_frozen_to_20(self):
        # every (params, constraint, direction) triple of every claim with
        # instances, at orders 1..20, in the order the registry yields them
        digest, count = hashlib.sha256(), 0
        for cid, claim in REGISTRY.items():
            if claim.instances is None:
                continue
            for n in range(1, 21):
                for params, c, direction in claim.instances(n):
                    digest.update(repr((cid, n, tuple(params.items()), c.kind, c.value, c.r,
                                        c.maximal, direction)).encode() + b"\n")
                    count += 1
        assert count == 1631
        assert digest.hexdigest() == (
            "a15bb347926398da38605b9833a7add141e4966b4177d6aa17ad764ed2457f06")

    @pytest.mark.parametrize("cid", claim_ids())
    @pytest.mark.parametrize("n_min, n_max", [(0, 4), (-2, 2), (-3, -1)])
    def test_orders_below_1_are_rejected(self, cid, n_min, n_max):
        with pytest.raises(ValueError, match=f"order must be >= 1, got {n_min}$"):
            check_claim(cid, n_min, n_max)

    def test_t31_instance(self):
        reports = check_claim("T3.1", 8, 8)
        by_k = {r.params["k"]: r for r in reports}
        assert by_k[2].claimed_family == "spider:n=8,r=4"
        assert by_k[2].claimed_is_argopt
        assert by_k[4].claimed_family == "star:n=8"

    def test_t43_even_case_instance(self):
        reports = check_claim("T4.3", 10, 10)
        r = next(rep for rep in reports if rep.params["t"] == 4)
        assert r.claimed_family == "C:n=10,a=1,b=1"
        assert r.claimed_in_class and r.claimed_is_argopt

    def test_t53_k2_all_r_claim_path(self):
        reports = check_claim("T5.3", 9, 9)
        k2 = [r for r in reports if r.params["k"] == 2]
        assert {r.params["r"] for r in k2} == set(range(1, 8))
        assert all(r.claimed_family == "path:n=9" and r.claimed_is_argopt for r in k2)

    def test_all_claims_small_grid_pass(self):
        for cid in claim_ids():
            reports = check_claim(cid, 5, 9)
            assert not failed_reports(reports), cid
            assert not [r for r in reports if r.invalid], cid

    def test_claimed_tree_in_class_throughout(self):
        for cid in ("T3.1", "T3.2", "T4.1", "T4.3", "T5.1", "T5.3"):
            for r in check_claim(cid, 6, 9):
                assert r.claimed_in_class, (cid, r)

    def test_value_match_implies_argopt(self):
        for cid in claim_ids():
            for r in check_claim(cid, 5, 8):
                if r.value_match and r.claimed_in_class:
                    assert r.claimed_is_argopt

    def test_t21_unique_optimizers(self):
        for r in check_claim("T2.1", 5, 10):
            assert r.argopt_unique

    def test_spider_monotonicity_to_30(self):
        for n in range(4, 31):
            mo = [mostar_fast(build(FamilySpec.spider(n, r)))[0] for r in range(2, n)]
            assert all(a < b for a, b in zip(mo, mo[1:])), n

    def test_cross_consistency_all_odd_vs_odd_count(self):
        # the 2k = n instance of the odd-count minimizer must coincide with
        # the all-odd minimizer (the full comb)
        for n in (6, 8, 10, 12, 14):
            a = build(claimed_extremal(n, ConstraintSpec.odd_count(n), "min"))
            b = build(claimed_extremal(n, ConstraintSpec.all_odd(), "min"))
            assert is_isomorphic(a, b)

    def test_maximal_census_run_executes(self):
        # the stricter pendent-path reading is available behind a flag; its
        # reports are informational and may legitimately differ
        reports = check_claim("T5.1", 7, 7, maximal_census=True)
        assert reports

    def test_maximal_census_reaches_the_pendent_path_claims_only(self):
        for cid, claim in REGISTRY.items():
            if claim.instances is None:
                continue
            for n in range(1, 15):
                for _, constraint, _ in claim.instances(n, True):
                    assert constraint.maximal == (cid in ("T5.1", "T5.3")), (cid, n)

    def test_maximal_census_leaves_t26_as_it_is(self, capsys):
        # T2.6 counts leaves: the stricter pendent-path census must not change it
        for fmt in ("text", "csv"):
            outs = []
            for extra in ((), ("--maximal-census",)):
                assert main(["verify", "--claim", "T2.6", "--n-min", "5", "--n-max", "12",
                             "--format", fmt, *extra]) == 0
                out, err = capsys.readouterr()
                assert err.splitlines() == ["ok=36 fail=0 invalid=0 empty=0"]
                outs.append([line.rsplit(",", 1)[0] if fmt == "csv" else line
                             for line in out.splitlines()])
            assert outs[0] == outs[1], fmt

    def test_remaining_claims_full_grid_to_14(self):
        # T3.x/T4.x/T5.x run to 14 in the acceptance gate; the rest of the
        # registry must hold over the same orders
        for cid in ("T2.1", "T2.6", "C2.7", "LDL-min-degseq"):
            reports = check_claim(cid, 5, 14)
            assert not failed_reports(reports), cid

    def test_empty_class_reported_to_14(self):
        for n in range(5, 15):
            value, argopt = extremal_search(n, ConstraintSpec.deg2_count(n - 3), "min")
            assert value is None and argopt == []


class TestReportStatus:
    def test_one_status_per_report_from_the_defaults(self):
        head = {"claim_id": "T2.1", "n": 5, "params": {}, "direction": "max"}
        reports = {
            "invalid": VerificationReport(**head, invalid="no family", empty_class=True),
            "empty": VerificationReport(**head, empty_class=True),
            "ok": VerificationReport(**head, claimed_is_argopt=True),
            "fail": VerificationReport(**head),
        }
        assert {want: r.status for want, r in reports.items()} == {s: s for s in reports}
        assert [s for s, r in reports.items() if r.passed] == ["invalid", "empty", "ok"]
        assert failed_reports(reports.values()) == [reports["fail"]]


def partitions(m, largest=None):
    """Each partition of m into positive parts, as a non-increasing tuple."""
    largest = m if largest is None else largest
    if m == 0:
        yield ()
    for first in range(min(m, largest), 0, -1):
        for rest in partitions(m - first, first):
            yield (first, *rest)


def tree_degree_sequences(n):
    """The degree sequences of trees of order n >= 2, sorted: the n
    degrees less one are a partition of n - 2 padded with zeros, and each
    such sequence is realized by a caterpillar."""
    return sorted(tuple(part + 1 for part in p + (0,) * (n - len(p))) for p in partitions(n - 2))


class TestDegreeSequenceStructure:
    def test_checks_every_sequence_of_orders_2_to_16(self):
        counts = [len(tree_degree_sequences(n)) for n in range(2, 17)]
        assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135]  # p(n - 2)
        for n, count in zip(range(2, 17), counts):
            report = check_degree_sequence_structure(n)
            assert (report.n, report.sequences_checked, report.violations) == (n, count, ()), n

    def test_a_sequence_with_no_valley_minimizer_is_a_violation(self):
        with mock.patch.object(mostar.verify, "_is_valley", return_value=False):
            for n in range(2, 13):
                report = check_degree_sequence_structure(n)
                assert report.violations == tuple(tree_degree_sequences(n)), n
                assert not report.ok

    def test_one_sort_and_no_search(self):
        with mock.patch.object(mostar.verify, "extremal_search") as search, \
                mock.patch.object(ConstraintSpec, "degree_sequence") as constraint:
            assert check_degree_sequence_structure(12).ok
        assert search.call_count == constraint.call_count == 0

    @pytest.mark.parametrize("n", [0, -4])
    def test_orders_below_1_are_rejected(self, n):
        with pytest.raises(ValueError, match=f"order must be >= 1, got {n}"):
            check_degree_sequence_structure(n)

    def test_n7_all_sequences_pass(self):
        report = check_degree_sequence_structure(7)
        assert report.ok and report.sequences_checked > 0

    def test_small_orders_pass(self):
        for n in range(2, 9):
            assert check_degree_sequence_structure(n).ok

    def test_star_and_path_sequences_trivial(self):
        from mostar.verify import _is_valley, _spine_degree_path

        assert _spine_degree_path(build(FamilySpec.star(7))) == [6]
        assert _is_valley([6])
        assert _spine_degree_path(build(FamilySpec.path(6))) == [2, 2, 2, 2]
        assert _is_valley([2, 2, 2, 2])
        assert _spine_degree_path(build(FamilySpec.spider(7, 3))) is None
        assert not _is_valley([2, 3, 2])


class TestReportFormats:
    def test_json_shape_single_claim(self):
        obj = reports_to_json_obj(check_claim("T3.4", 6, 8))
        assert obj["claim"] == "T3.4"
        keys = set(obj["instances"][0])
        assert {"n", "params", "direction", "brute_value", "claimed_value",
                "value_match", "claimed_is_argopt", "argopt_unique",
                "argopt_count", "millis"} <= keys
        json.dumps(obj)  # serializable

    def test_json_shape_multiple_claims(self):
        reports = check_claim("T2.1", 6, 6) + check_claim("T3.4", 6, 6)
        obj = reports_to_json_obj(reports)
        assert isinstance(obj, list) and {o["claim"] for o in obj} == {"T2.1", "T3.4"}

    def test_verify_json_frozen_to_12(self, tmp_path, capsys):
        # every claim's JSON at orders 5..12, less the timings, as it
        # stood before the search table replaced per-class records
        target = tmp_path / "v.json"
        assert main(["verify", "--claim", "all", "--n-min", "5", "--n-max", "12",
                     "--format", "json", "--out", str(target)]) == 0
        obj = json.loads(target.read_text())
        for claim in obj:
            for inst in claim["instances"]:
                del inst["millis"]
        digest = hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()
        assert digest == "c75027cd8d2217b01f6bfb55867f2fe4e475ca19bb812f781b3d1027fe0c364e"

    def test_verify_json_frozen_to_12_under_maximal_census(self, tmp_path, capsys):
        # the only run that reads maximal runs: every claim's JSON at
        # orders 5..12 less the timings, its stderr lines and exit code
        target = tmp_path / "v.json"
        assert main(["verify", "--claim", "all", "--n-min", "5", "--n-max", "12",
                     "--maximal-census", "--format", "json", "--out", str(target)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "ok=415 fail=66 invalid=0 empty=21", "66 failing instance(s)"]
        obj = json.loads(target.read_text())
        for claim in obj:
            for inst in claim["instances"]:
                del inst["millis"]
        digest = hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()
        assert digest == "adb860aa3072f5d7e66b8d0721fa1214a09423fd0e3d46f2a20da900e4cbab8d"

    @pytest.mark.parametrize("extra, code, err, text_digest, csv_digest", [
        ((), 0, ["ok=502 fail=0 invalid=0 empty=0"],
         "40972e2b446c43a43d8e4a8b291708de4dc2ac19ab2e928b3c4e804e20ef4939",
         "383f5d702bc5ec90aa9ab02ed15c28e04a0655afb8f89056ca78923eca51c3f8"),
        (("--maximal-census",), 1, ["ok=415 fail=66 invalid=0 empty=21", "66 failing instance(s)"],
         "9595cff6f66d8eab3969f237537cccbf582ea719311f031c94db531a4d38498a",
         "839705739ebe9a2a57550ce862f2ace01649d4a6d51ac36ede8afb5c5bc58f0b"),
    ], ids=["default", "maximal-census"])
    def test_verify_text_and_csv_frozen_to_12(self, capsys, extra, code, err, text_digest,
                                              csv_digest):
        # the text and CSV bytes (CSV less its millis column), the stderr
        # lines and the exit code of every claim at orders 5..12
        argv = ["verify", "--claim", "all", "--n-min", "5", "--n-max", "12", *extra]
        for fmt, digest in (("text", text_digest), ("csv", csv_digest)):
            assert main(argv + ["--format", fmt]) == code
            out, got_err = capsys.readouterr()
            if fmt == "csv":
                out = "\n".join(line.rsplit(",", 1)[0] for line in out.splitlines())
            assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt
            assert got_err.splitlines() == err

    def test_csv_one_row_per_instance(self):
        reports = check_claim("T3.1", 6, 7)
        text = reports_to_csv(reports)
        lines = text.strip().split("\n")
        assert lines[0].startswith("claim,n,params,direction")
        assert len(lines) == len(reports) + 1
