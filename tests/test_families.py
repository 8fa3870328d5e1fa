"""Family constructors: worked instances, invariants, and parameter errors."""

import hashlib
import itertools
import json
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mostar.families as families_mod
from mostar import (
    ConstraintSpec,
    FamilySpec,
    ParameterError,
    build,
    claimed_extremal,
    is_isomorphic,
    parse_edge_list,
    parse_family_spec,
    stats,
    to_edge_list_text,
)
from mostar.families import _KINDS
from mostar.transforms import attach_two_paths

# Values a FamilySpec field may hold by mistake: missing, float, bool, text.
NOT_INTEGERS = st.one_of(st.none(), st.floats(allow_nan=False), st.booleans(),
                         st.integers(-3, 12).map(float), st.text(max_size=3))


def _field_values(name):
    """Well-formed and malformed values of one FamilySpec field."""
    if name != "degrees":
        return st.integers(-2, 40), NOT_INTEGERS
    entries = st.integers(-1, 6)
    return st.lists(entries, max_size=5).map(tuple), st.one_of(
        NOT_INTEGERS, entries, st.tuples(entries, NOT_INTEGERS))


@st.composite
def malformed_specs(draw):
    """(spec, field): a spec whose first malformed field, in its kind's
    field order, is ``field``; later fields may be malformed too."""
    kind = draw(st.sampled_from(sorted(_KINDS)))
    fields = _KINDS[kind][1]
    first = draw(st.integers(0, len(fields) - 1))
    values = {}
    for i, name in enumerate(fields):
        good, bad = _field_values(name)
        values[name] = draw(good if i < first else bad if i == first else good | bad)
    return FamilySpec(kind, **values), fields[first]


class TestBuildExamples:
    def test_c_n00_is_path(self):
        for n in range(2, 12):
            assert is_isomorphic(build(FamilySpec.c(n, 0, 0)), build(FamilySpec.path(n)))

    def test_c711_shape(self):
        t = build(FamilySpec.c(7, 1, 1))
        assert Counter(t.degrees) == Counter({3: 2, 2: 1, 1: 4})

    def test_f_n00_one_degree_four_vertex(self):
        for n in (5, 8, 11):
            t = build(FamilySpec.f(n, 0, 0))
            counts = Counter(t.degrees)
            assert counts[4] == 1
            assert counts[3] == 0
            assert counts[2] == n - 5

    def test_balanced_spider_8_3(self):
        t = build(FamilySpec.spider(8, 3))
        st = stats(t)
        assert sorted(st.maximal_run_census.items()) == [(2, 2), (3, 1)]

    def test_srk_10_2_3(self):
        t = build(FamilySpec.srk(10, 2, 3))
        assert t.degree(0) == 5
        st = stats(t)
        assert st.pendent_paths(3) == 2
        assert st.pendent_paths(1) == 5

    def test_a_10_2_2_1(self):
        t = build(FamilySpec.a_family(10, 2, 2, 1))
        assert t.n == 10
        st = stats(t)
        # two 2-legs at one spine end, one at the other (which merges with
        # the spine into a longer run)
        assert st.pendent_paths(2) == 3
        assert st.branch_count == 1

    def test_special_cases_collapse(self):
        assert is_isomorphic(build(FamilySpec.spider(7, 6)), build(FamilySpec.star(7)))
        assert is_isomorphic(build(FamilySpec.spider(7, 2)), build(FamilySpec.path(7)))
        assert is_isomorphic(build(FamilySpec.a_family(8, 3, 1, 1)), build(FamilySpec.path(8)))

    def test_all_odd_comb(self):
        t = build(FamilySpec.c(12, 0, 5))
        assert all(d % 2 == 1 for d in t.degrees)

    def test_c_shift_gap_degenerates_to_one_tree(self):
        # the strict C shift is stated for 2(a+b) <= n-3; in the remaining
        # buildable region 2(a+b) = n-2 the attachment windows touch, every
        # split of a+b yields the same comb, and the shift is a no-op
        for n in (10, 14, 20):
            s = (n - 2) // 2
            combs = [build(FamilySpec.c(n, a, s - a)) for a in range(s + 1)]
            assert all(is_isomorphic(combs[0], t) for t in combs[1:])


class TestBuildInvariants:
    @pytest.mark.parametrize("n,a,b", [(9, 1, 1), (12, 2, 3), (15, 4, 1), (20, 3, 3)])
    def test_c_leaf_and_branch_counts(self, n, a, b):
        st = stats(build(FamilySpec.c(n, a, b)))
        assert st.leaf_count == a + b + 2
        assert st.branch_count == a + b

    @pytest.mark.parametrize("n,k,r", [(10, 2, 3), (10, 1, 4), (14, 3, 2), (9, 2, 2)])
    def test_srk_census_and_center(self, n, k, r):
        t = build(FamilySpec.srk(n, k, r))
        assert stats(t).pendent_paths(r) >= k
        assert t.degree(0) == k + (n - k * r - 1)

    @pytest.mark.parametrize("n,r", [(8, 3), (9, 4), (17, 5), (13, 6), (10, 9)])
    def test_spider_leg_lengths(self, n, r):
        runs = sorted(stats(build(FamilySpec.spider(n, r))).maximal_run_census.items())
        lengths = [length for length, count in runs for _ in range(count)]
        assert len(lengths) == r
        assert sum(lengths) == n - 1
        assert max(lengths) - min(lengths) <= 1

    @pytest.mark.parametrize("degrees", [(4, 3, 2), (2, 2), (5, 2, 2, 5), (3, 3, 3)])
    def test_caterpillar_degree_multiset(self, degrees):
        t = build(FamilySpec.caterpillar(degrees))
        assert t.n == sum(degrees) - len(degrees) + 2
        expected = Counter(degrees) + Counter({1: t.n - len(degrees)})
        assert Counter(t.degrees) == expected

    def test_file_round_trip_isomorphic(self):
        specs = [
            FamilySpec.path(9),
            FamilySpec.star(7),
            FamilySpec.spider(11, 4),
            FamilySpec.caterpillar((4, 2, 3)),
            FamilySpec.c(12, 2, 2),
            FamilySpec.f(13, 1, 2),
            FamilySpec.srk(12, 3, 2),
            FamilySpec.a_family(12, 2, 2, 1),
        ]
        for spec in specs:
            t = build(spec)
            assert is_isomorphic(parse_edge_list(to_edge_list_text(t)), t)


class TestParameterErrors:
    @pytest.mark.parametrize(
        "spec",
        [
            FamilySpec.path(0),
            FamilySpec.star(1),
            FamilySpec.spider(8, 1),
            FamilySpec.spider(8, 8),
            FamilySpec.caterpillar((3,)),
            FamilySpec.caterpillar((3, 1)),
            FamilySpec.c(7, 2, 2),       # 2(a+b) > n-1
            FamilySpec.c(9, 4, 0),       # windows collide
            FamilySpec.f(8, 1, 1),       # 2(a+b) > n-5
            FamilySpec.srk(10, 1, 1),    # k=1 needs r >= 2
            FamilySpec.srk(10, 3, 3),    # k*r > n-2
            FamilySpec.a_family(10, 2, 1, 2),  # a < b
            FamilySpec.a_family(10, 2, 0, 0),  # a must be >= 1
            FamilySpec.a_family(10, 4, 2, 1),  # (a+b)*r > n-2
        ],
    )
    def test_rejected(self, spec):
        with pytest.raises(ParameterError):
            build(spec)

    @pytest.mark.parametrize("n", [3_000_000_000, 10**12])
    @pytest.mark.parametrize("make", [
        FamilySpec.path, FamilySpec.star, lambda n: FamilySpec.spider(n, 3),
        lambda n: FamilySpec.caterpillar((n - 3, 3)), lambda n: FamilySpec.c(n, 1, 1),
        lambda n: FamilySpec.f(n, 1, 1), lambda n: FamilySpec.srk(n, 2, 3),
        lambda n: FamilySpec.a_family(n, 2, 1, 1),
    ])
    def test_orders_past_int32_rejected_before_growing(self, make, n):
        refuse = mock.Mock(side_effect=AssertionError("a tree of that order was grown"))
        with mock.patch.object(families_mod, "_grow", refuse), \
                pytest.raises(ParameterError, match=f"order {n} exceeds 2147483647"):
            build(make(n))

    def test_error_names_constraint(self):
        with pytest.raises(ParameterError, match=r"2\*\(a\+b\) <= n-1"):
            build(FamilySpec.c(7, 2, 2))
        with pytest.raises(ParameterError, match="disjoint"):
            build(FamilySpec.c(9, 4, 0))

    @pytest.mark.parametrize("spec, field", [
        (FamilySpec("C", n=9), "a"),
        (FamilySpec("cat"), "degrees"),
        (FamilySpec("spider", n=8, r=3.0), "r"),
        (FamilySpec("path", n=True), "n"),
        (FamilySpec("cat", degrees=(3, 2.0)), "degrees"),
    ])
    def test_malformed_field_named(self, spec, field):
        with pytest.raises(ParameterError, match=f"requires .*{field}.*, got {field}="):
            build(spec)

    @settings(max_examples=150, deadline=None, database=None)
    @given(malformed_specs())
    def test_malformed_specs_rejected_naming_the_field(self, case):
        spec, field = case
        with pytest.raises(ParameterError, match=f"got {field}="):
            build(spec)


class TestSpecText:
    @pytest.mark.parametrize(
        "text",
        [
            "path:n=7",
            "star:n=9",
            "spider:n=8,r=3",
            "cat:d=4,3,2",
            "C:n=7,a=1,b=1",
            "F:n=9,a=1,b=1",
            "srk:n=10,k=2,r=3",
            "A:n=10,r=2,a=2,b=1",
        ],
    )
    def test_round_trip(self, text):
        spec = parse_family_spec(text)
        assert spec.to_text() == text
        build(spec)

    def test_case_insensitive_kind(self):
        assert parse_family_spec("c:n=7,a=1,b=1") == FamilySpec.c(7, 1, 1)

    @pytest.mark.parametrize(
        "text",
        ["nope:n=3", "C:n=7,a=1", "C:n=7,a=1,b=1,k=2", "spider:n=8,r=x", "cat:4,3,2"],
    )
    def test_bad_text_rejected(self, text):
        with pytest.raises(ParameterError):
            parse_family_spec(text)

    @pytest.mark.parametrize("text, key", [("spider:n=8,r=3,r=4", "r"), ("path:n=7,n=9", "n")])
    def test_repeated_parameter_rejected(self, text, key):
        with pytest.raises(ParameterError, match=f"'{key}' given twice"):
            parse_family_spec(text)


class TestClaimedExtremal:
    def test_odd_count_max_spider(self):
        spec = claimed_extremal(10, ConstraintSpec.odd_count(4), "max")
        assert spec == FamilySpec.spider(10, 4)

    def test_odd_count_max_all_odd_is_star(self):
        assert claimed_extremal(10, ConstraintSpec.odd_count(10), "max") == FamilySpec.star(10)

    def test_odd_count_min(self):
        assert claimed_extremal(7, ConstraintSpec.odd_count(4), "min") == FamilySpec.c(7, 1, 0)

    def test_all_odd(self):
        assert claimed_extremal(12, ConstraintSpec.all_odd(), "min") == FamilySpec.c(12, 0, 5)
        assert claimed_extremal(12, ConstraintSpec.all_odd(), "max") == FamilySpec.star(12)
        assert claimed_extremal(9, ConstraintSpec.all_odd(), "min") is None

    def test_deg2_max_spider(self):
        assert claimed_extremal(10, ConstraintSpec.deg2_count(3), "max") == FamilySpec.spider(10, 6)

    def test_deg2_min_parity_branches(self):
        # n - t = 5 lands on F(n, 0, 0)
        assert claimed_extremal(10, ConstraintSpec.deg2_count(5), "min") == FamilySpec.f(10, 0, 0)
        # n - t odd and >= 7
        assert claimed_extremal(12, ConstraintSpec.deg2_count(5), "min") == FamilySpec.f(12, 0, 1)
        # n - t even
        assert claimed_extremal(10, ConstraintSpec.deg2_count(4), "min") == FamilySpec.c(10, 1, 1)

    def test_deg2_boundary_classes(self):
        assert claimed_extremal(8, ConstraintSpec.deg2_count(6), "min") == FamilySpec.path(8)
        assert claimed_extremal(8, ConstraintSpec.deg2_count(5), "min") is None

    def test_branch_count_min(self):
        assert claimed_extremal(9, ConstraintSpec.branch_count(3), "min") == FamilySpec.c(9, 2, 1)
        assert claimed_extremal(9, ConstraintSpec.branch_count(0), "min") == FamilySpec.c(9, 0, 0)

    def test_series_reduced(self):
        assert claimed_extremal(8, ConstraintSpec.series_reduced(), "min") == FamilySpec.c(8, 2, 1)
        assert claimed_extremal(9, ConstraintSpec.series_reduced(), "min") == FamilySpec.f(9, 0, 2)
        assert claimed_extremal(5, ConstraintSpec.series_reduced(), "min") == FamilySpec.f(5, 0, 0)

    def test_pendent_paths_max(self):
        assert (claimed_extremal(10, ConstraintSpec.pendent_path_count(2, 3), "max")
                == FamilySpec.srk(10, 2, 3))
        assert (claimed_extremal(10, ConstraintSpec.pendent_path_count(4, 1), "max")
                == FamilySpec.spider(10, 4))

    def test_pendent_paths_min_three_cases(self):
        assert (claimed_extremal(10, ConstraintSpec.pendent_path_count(1, 4), "min")
                == FamilySpec.a_family(10, 1, 2, 1))
        assert (claimed_extremal(10, ConstraintSpec.pendent_path_count(2, 6), "min")
                == FamilySpec.path(10))
        assert (claimed_extremal(10, ConstraintSpec.pendent_path_count(4, 2), "min")
                == FamilySpec.a_family(10, 2, 2, 2))

    def test_unconstrained(self):
        assert claimed_extremal(7, ConstraintSpec.unconstrained(), "max") == FamilySpec.star(7)
        assert claimed_extremal(7, ConstraintSpec.unconstrained(), "min") == FamilySpec.path(7)

    def test_none_claimed(self):
        assert claimed_extremal(9, ConstraintSpec.branch_count(2), "max") is None
        assert claimed_extremal(9, ConstraintSpec.degree_sequence([3, 2, 2, 1, 1, 1]), "min") is None

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            claimed_extremal(7, ConstraintSpec.unconstrained(), "up")


def _label_grid():
    """Every kind at n = 1..40, rejected values included, plus caterpillars."""
    for n in range(1, 41):
        h = n // 2 + 1
        yield FamilySpec.path(n)
        yield FamilySpec.star(n)
        for r in range(n + 1):
            yield FamilySpec.spider(n, r)
        for a, b in itertools.product(range(-1, h + 1), repeat=2):
            yield FamilySpec.c(n, a, b)
            yield FamilySpec.f(n, a, b)
        for k, r in itertools.product(range(h + 1), range(n)):
            yield FamilySpec.srk(n, k, r)
        for r, a in itertools.product(range(6), range(h + 1)):
            for b in range(-1, a + 2):
                yield FamilySpec.a_family(n, r, a, b)
    for z in range(1, 6):
        for degrees in itertools.product(range(1, 5), repeat=z):
            yield FamilySpec.caterpillar(degrees)


class TestFrozenLabels:
    def test_labels_edge_order_and_messages_frozen(self):
        # Labels and edge order are part of the output (golden files,
        # `mostar family`), so every build, every rejection message and
        # every attach_two_paths result on one comb is pinned.
        entries = []
        for spec in _label_grid():
            try:
                entries.append([spec.to_text(), list(build(spec).edges)])
            except ParameterError as exc:
                entries.append([spec.to_text(), str(exc)])
        comb = build(parse_family_spec("C:n=9,a=1,b=1"))
        for u, a, b in itertools.product(range(comb.n), range(4), range(4)):
            entries.append([[u, a, b], list(attach_two_paths(comb, u, a, b).edges)])
        digest = hashlib.sha256(json.dumps(entries).encode()).hexdigest()
        assert len(entries) == 59658
        assert digest == "0948c12732af1bfce18c5781bc5644c73562162ce49e9d11465ad9826b5e100d"
