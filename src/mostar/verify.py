"""Brute-force verification of extremal claims about the Mostar index.

A claim binds a tree class (a :class:`~mostar.enumeration.ConstraintSpec`),
an optimization direction, and the family asserted to attain the
optimum.  ``check_claim`` enumerates every isomorphism class in the
constrained class at each order, finds the exact optimum and the full
set of optimizers, and reports whether the claimed family is among
them.  Uniqueness of the optimizer is recorded but never required.
``claimed_extremal`` names the claimed family for a class and direction.
Each instance yields one :class:`VerificationReport`, whose ``status``
is its one verdict: invalid, empty, ok or fail.

``REGISTRY`` holds one row per claim id with its summary; the README
tabulates them.

Each claim with instances checks every class of a shared grid in its
directions.  ``maximal_census`` re-reads the pendent-path claims T5.1 and
T5.3 only; T2.6 counts leaves under either reading.

The checks of one order share one scope, and the module keeps the scope
of the latest order only: a call at another order drops it before the
new order's table is filled.  The scope holds the order's table of
columns, read off the level sequences and filled outside every
instance's ``millis``; each claimed family, built and put in canonical
form once; and each table row a search or the degree-sequence check
returns, made a ``Tree`` once and, as an optimizer, put in canonical
form once.  ``verify`` walks the orders on the outside and the claims
on the inside, so it fills each order's table once; calls that go back
to an earlier order fill it again.
"""

from __future__ import annotations

import csv
import io as _io
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .enumeration import ConstraintSpec, _check_cap, _level_sequences, _Table
from .families import FamilySpec, ParameterError, _srk_in_range, build
from .tree import Tree, _spine, canonical_form, mostar_fast, stats

__all__ = [
    "TheoremClaim",
    "VerificationReport",
    "DegreeSequenceStructureReport",
    "REGISTRY",
    "claim_ids",
    "claimed_extremal",
    "extremal_search",
    "check_claim",
    "check_degree_sequence_structure",
    "reports_to_json_obj",
    "reports_to_csv",
    "failed_reports",
]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one claim instance.

    ``claimed_is_argopt`` is the pass bit: for extremal claims it means
    the claimed family attains the brute-force optimum; for the
    monotonicity and degree-sequence claims it carries the claim's own
    pass condition.  ``invalid`` is set (with the violated constraint)
    when the claimed family cannot even be built, and such instances do
    not count as failures of the mathematics, only of the parameters.
    Every field after ``direction`` defaults to "not checked".
    """

    claim_id: str
    n: int
    params: dict
    direction: str
    brute_value: Optional[int] = None
    claimed_value: Optional[int] = None
    value_match: Optional[bool] = None
    claimed_in_class: Optional[bool] = None
    claimed_is_argopt: Optional[bool] = None
    argopt_unique: Optional[bool] = None
    argopt_count: int = 0
    argopt_canonical_forms: tuple[str, ...] = ()
    claimed_family: Optional[str] = None
    empty_class: bool = False
    invalid: Optional[str] = None
    millis: float = 0.0

    @property
    def status(self) -> str:
        """``"invalid"``, ``"empty"``, ``"ok"`` or ``"fail"``, in that
        precedence; invalid and empty instances checked nothing."""
        if self.invalid is not None:
            return "invalid"
        if self.empty_class:
            return "empty"
        return "ok" if self.claimed_is_argopt else "fail"

    @property
    def passed(self) -> bool:
        return self.status != "fail"

    def to_json_dict(self) -> dict:
        out = {k: v for k, v in vars(self).items()
               if k not in ("claim_id", "claimed_in_class", "argopt_canonical_forms")}
        out.update(params=dict(self.params), millis=round(self.millis, 3))
        return out


class _Order:
    """What the checks of order n share: the search table, filled here;
    each claimed family's ``(invalid, Mo, stats, canonical form)``; each
    row's ``Tree``, by row; and each optimizer's canonical form, by the
    edges of its row's ``Tree``."""

    def __init__(self, n: int):
        self.n = n
        self.table = _Table(np.concatenate(list(_level_sequences(n))))
        self._families, self._trees, self._forms = {}, {}, {}

    def tree(self, row: int) -> Tree:
        if row not in self._trees:
            self._trees[row] = self.table.tree(row)
        return self._trees[row]

    def form(self, t: Tree) -> str:
        if t.edges not in self._forms:
            self._forms[t.edges] = canonical_form(t)
        return self._forms[t.edges]

    def claimed(self, family: Optional[FamilySpec]) -> tuple:
        if family not in self._families:
            self._families[family] = _claimed(family)
        return self._families[family]


# The scope of the order checked last; _scope replaces it.
_latest: Optional[_Order] = None


def _scope(n: int, cap: Optional[int]) -> _Order:
    """The scope of order n once the cap admits n.  A scope of another
    order is dropped before this one's table is filled.  A search and the
    degree-sequence check each take the scope once and read its table only."""
    global _latest
    _check_cap(n, cap)
    scope = _latest
    if scope is None or scope.n != n:
        scope = _latest = None  # no other order's scope is held while this table fills
        scope = _latest = _Order(n)
    return scope


def extremal_search(
    n: int,
    constraint: ConstraintSpec,
    direction: str,
    cap: Optional[int] = None,
) -> tuple[Optional[int], list[Tree]]:
    """Exact optimum of the Mostar index over a constrained tree class.

    Returns ``(value, optimizers)`` with every optimizer (one per
    isomorphism class, in generator order).  An empty class yields
    ``(None, [])``, which is a legitimate result rather than an error.
    """
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    constraint.validate()
    scope = _scope(n, cap)
    rows = scope.table.select(constraint)
    if not len(rows):
        return None, []
    mo = scope.table.mo[rows]
    best = mo.max() if direction == "max" else mo.min()
    return int(best), [scope.tree(row) for row in rows[mo == best].tolist()]


def _claimed(family: Optional[FamilySpec]) -> tuple:
    """``(invalid, Mo, stats, canonical form)`` of a claimed family."""
    if family is None:
        return "no family claimed for this instance", None, None, None
    try:
        tree = build(family)
    except ParameterError as exc:
        return str(exc), None, None, None
    return None, mostar_fast(tree)[0], stats(tree), canonical_form(tree)


def _verify_instance(
    claim_id: str,
    n: int,
    params: dict,
    constraint: ConstraintSpec,
    direction: str,
    family: Optional[FamilySpec],
    cap: Optional[int],
) -> VerificationReport:
    scope = _scope(n, cap)  # filled before the timing starts; the search takes it again
    t0 = time.perf_counter()
    invalid, value, claimed_stats, claimed_form = scope.claimed(family)
    brute_value, argopt = extremal_search(n, constraint, direction, cap=cap)
    argopt_canons = tuple(map(scope.form, argopt))
    checked = {}
    if brute_value is not None:
        checked["argopt_unique"] = len(argopt) == 1
        if value is not None:
            in_class = constraint.matches(claimed_stats)
            match = value == brute_value
            checked.update(
                claimed_value=value, value_match=match, claimed_in_class=in_class,
                claimed_is_argopt=bool(in_class and match and claimed_form in argopt_canons))
    return VerificationReport(
        claim_id=claim_id, n=n, params=params, direction=direction,
        brute_value=brute_value, argopt_count=len(argopt),
        argopt_canonical_forms=argopt_canons,
        claimed_family=family.to_text() if family is not None else None,
        empty_class=brute_value is None, invalid=invalid,
        millis=(time.perf_counter() - t0) * 1000.0, **checked)


# -- claim registry -------------------------------------------------------------


def _deg2_minimizer(n: int, t: int) -> FamilySpec:
    """Minimizer over trees with exactly t degree-2 vertices (0 <= t <= n-4).

    Split by the parity of n - t: odd lands in the F family (one degree-4
    vertex), even in the C family (maximum degree 3).  The n - t = 5 case
    is F(n, 0, 0).
    """
    m = n - t
    if m % 2 == 1:
        if m == 5:
            return FamilySpec.f(n, 0, 0)
        # a = ceil((m-5)/4) - 1, b = floor((m-5)/4) + 1 in integer form
        return FamilySpec.f(n, (m - 2) // 4 - 1, (m - 5) // 4 + 1)
    # a = ceil(m/4 - 1/2), b = floor(m/4 - 1/2) in integer form
    return FamilySpec.c(n, (m + 1) // 4, (m - 2) // 4)


def claimed_extremal(n: int, constraint: ConstraintSpec, direction: str) -> Optional[FamilySpec]:
    """Family claimed to attain the optimum of the Mostar index.

    Returns the family spec with parameters instantiated for order
    ``n``, or ``None`` when no family is claimed for the given
    constraint and direction.  ``direction`` is "max" or "min".
    """
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    kind = constraint.kind

    if kind == "unconstrained":
        return FamilySpec.star(n) if direction == "max" else FamilySpec.path(n)

    if kind == "odd_count":
        count = constraint.value
        k = count // 2
        if direction == "max":
            # Balanced spider with 2k legs; all-odd (2k = n) degenerates to the star.
            return FamilySpec.star(n) if 2 * k == n else FamilySpec.spider(n, 2 * k)
        return FamilySpec.c(n, k // 2, (k - 1) // 2)  # a = ceil((k-1)/2), b = floor((k-1)/2)

    if kind == "all_odd":
        if n % 2 == 1:
            return None
        return FamilySpec.star(n) if direction == "max" else FamilySpec.c(n, 0, n // 2 - 1)

    if kind == "branch_count":
        if direction == "min":
            k = constraint.value
            return FamilySpec.c(n, (k + 1) // 2, k // 2)  # a = ceil(k/2), b = floor(k/2)
        return None

    if kind == "deg2_count":
        t = constraint.value
        if t == n - 2:
            return FamilySpec.path(n)
        if t > n - 4:
            return None  # t = n-3 is an empty class
        return FamilySpec.spider(n, n - t - 1) if direction == "max" else _deg2_minimizer(n, t)

    if kind == "series_reduced":  # the classes of deg2_count with t = 0
        return FamilySpec.star(n) if direction == "max" else _deg2_minimizer(n, 0)

    if kind == "pendent_path_count":
        k, r = constraint.value, constraint.r
        if direction == "max":
            if r == 1:
                # k pendent paths of length one = k leaves: the balanced spider.
                return FamilySpec.spider(n, k) if 3 <= k <= n - 2 else None
            return FamilySpec.srk(n, k, r) if _srk_in_range(n, k, r) else None
        if k == 1 and 2 <= r <= n - 3:
            # The broom: a long path with two extra leaves at one end.  Stated
            # with legs (1, 2) but built as the mirror image (2, 1) so a >= b.
            return FamilySpec.a_family(n, 1, 2, 1)
        if k == 2 and 1 <= r <= n - 2:
            return FamilySpec.path(n)
        if k >= 3 and 1 <= r and k * r <= n - 2:
            return FamilySpec.a_family(n, r, (k + 1) // 2, k // 2)
        return None

    return None


@dataclass(frozen=True)
class TheoremClaim:
    id: str
    summary: str
    # instance generator: (n, maximal=False) -> iterable of (params, constraint, direction)
    instances: Optional[Callable[..., Iterable[tuple[dict, ConstraintSpec, str]]]] = None
    # special checks (monotonicity, degree-sequence structure) bypass instances
    custom_check: Optional[Callable[..., list]] = None

    def check(self, n: int, cap: Optional[int] = None, maximal_census: bool = False) -> list[VerificationReport]:
        if self.custom_check is not None:
            return self.custom_check(self.id, n, cap)
        reports = []
        for params, constraint, direction in self.instances(n, maximal_census):
            family = claimed_extremal(n, constraint, direction)
            reports.append(
                _verify_instance(self.id, n, params, constraint, direction, family, cap))
        return reports


def _each(grid, *directions):
    """A claim's instances: each ``(params, constraint)`` of ``grid(n, maximal)``
    in each direction.  Only the pendent-path grids read ``maximal``."""
    def instances(n: int, maximal: bool = False):
        for params, constraint in grid(n, maximal):
            for direction in directions:
                yield params, constraint, direction
    return instances


def _all(n, maximal):
    if n >= 2:
        yield {}, ConstraintSpec.unconstrained()


def _leaves(n, maximal):
    # r leaves are r pendent paths of length 1 under either census
    for r in range(3, n - 1):
        yield {"r": r}, ConstraintSpec.pendent_path_count(r, 1)


def _odd(n, maximal):
    for k in range(1, n // 2 + 1):
        yield {"k": k}, ConstraintSpec.odd_count(2 * k)


def _branch(n, maximal):
    for k in range(0, (n - 2) // 2 + 1):
        yield {"k": k}, ConstraintSpec.branch_count(k)


def _all_odd(n, maximal):
    if n % 2 == 0:
        yield {}, ConstraintSpec.all_odd()


def _deg2(n, maximal):
    for t in range(0, n - 3):
        yield {"t": t}, ConstraintSpec.deg2_count(t)


def _series_reduced(n, maximal):
    if n >= 5:
        yield {}, ConstraintSpec.series_reduced()


def _spider_paths(n, maximal):
    for r in range(2, n - 2):
        yield {"k": 1, "r": r}, ConstraintSpec.pendent_path_count(1, r, maximal)
    for k in range(2, (n - 2) // 2 + 1):
        for r in range(2, (n - 2) // k + 1):
            yield {"k": k, "r": r}, ConstraintSpec.pendent_path_count(k, r, maximal)


def _path_like(n, maximal):
    for r in range(2, n - 2):
        yield {"k": 1, "r": r}, ConstraintSpec.pendent_path_count(1, r, maximal)
    for r in range(1, n - 1):
        yield {"k": 2, "r": r}, ConstraintSpec.pendent_path_count(2, r, maximal)
    for k in range(3, n - 1):
        for r in range(1, (n - 2) // k + 1):
            yield {"k": k, "r": r}, ConstraintSpec.pendent_path_count(k, r, maximal)


def _check_spider_monotonicity(claim_id: str, n: int, cap: Optional[int]) -> list[VerificationReport]:
    """Strict growth of the spider index in the leg count, 2 <= r <= n-2.
    Instance r builds spider r + 1 in its ``millis``, the first spider 2 too."""
    reports = []
    if n < 4:
        return reports
    for r in range(2, n - 1):
        t0 = time.perf_counter()
        spec = FamilySpec.spider(n, r + 1)
        if r == 2:
            low = mostar_fast(build(FamilySpec.spider(n, 2)))[0]
        high = mostar_fast(build(spec))[0]
        ok = low < high
        reports.append(VerificationReport(
            claim_id=claim_id, n=n, params={"r": r}, direction="monotone",
            brute_value=low, claimed_value=high, value_match=ok, claimed_is_argopt=ok,
            claimed_family=spec.to_text(), millis=(time.perf_counter() - t0) * 1000.0,
        ))
        low = high
    return reports


def _spine_degree_path(t: Tree) -> Optional[list[int]]:
    """Tree degrees along the internal-vertex path, or None if the
    internal vertices do not form a path (not a spine caterpillar)."""
    spine = _spine(t)
    return None if spine is None else [t.degrees[v] for v in spine]


def _is_valley(seq: list[int]) -> bool:
    """True when the sequence is non-increasing then non-decreasing."""
    steps = [b - a for a, b in zip(seq, seq[1:])]
    first_rise = next((i for i, step in enumerate(steps) if step > 0), len(steps))
    return all(step >= 0 for step in steps[first_rise:])


@dataclass(frozen=True)
class DegreeSequenceStructureReport:
    """Per-order summary: every degree sequence whose brute-force
    minimizer set contains no valley-spine caterpillar is a violation."""

    n: int
    sequences_checked: int
    violations: tuple[tuple[int, ...], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_degree_sequence_structure(n: int, cap: Optional[int] = None) -> DegreeSequenceStructureReport:
    """Check the degree-sequence minimizer structure at order n.

    For every degree sequence realized by a tree of order n, the set of
    trees minimizing the Mostar index over that sequence must contain a
    caterpillar whose spine degrees (in path order) first decrease and
    then increase.
    """
    scope = _scope(n, cap)  # rejects an order below 1 or above the cap
    table = scope.table
    if n == 1:
        return DegreeSequenceStructureReport(n=n, sequences_checked=0, violations=())
    sequences, mo = table.degree_sequence, table.mo
    order = np.lexsort((mo, *sequences.T[::-1]))  # by sequence, then by Mo
    head = np.zeros(len(order), bool)  # the first row of each sequence's run
    head[0] = True
    for column in sequences.T:
        column = column[order]
        head[1:] |= column[1:] != column[:-1]
    starts = np.flatnonzero(head).tolist()
    violations = []
    for start, stop in zip(starts, starts[1:] + [len(order)]):
        run = order[start:stop]
        minimizers = run[mo[run] == mo[run[0]]].tolist()  # the least Mo heads the run
        if not any(spine is not None and _is_valley(spine)
                   for spine in (_spine_degree_path(scope.tree(row)) for row in minimizers)):
            violations.append(tuple(sequences[run[0]].tolist()))
    return DegreeSequenceStructureReport(
        n=n, sequences_checked=len(starts), violations=tuple(sorted(violations)))


def _check_degseq_claim(claim_id: str, n: int, cap: Optional[int]) -> list[VerificationReport]:
    _scope(n, cap)  # fill the table before the timing starts
    t0 = time.perf_counter()
    summary = check_degree_sequence_structure(n, cap=cap)
    millis = (time.perf_counter() - t0) * 1000.0
    return [VerificationReport(
        claim_id=claim_id, n=n,
        params={"sequences": summary.sequences_checked,
                "violations": [",".join(map(str, v)) for v in summary.violations]},
        direction="min", claimed_is_argopt=summary.ok,
        empty_class=summary.sequences_checked == 0, millis=millis,
    )]


REGISTRY: dict[str, TheoremClaim] = {
    c.id: c
    for c in (
        TheoremClaim("T2.1", "star maximizes and path minimizes over all trees", _each(_all, "max", "min")),
        TheoremClaim("T2.6", "balanced spider maximizes over trees with r leaves", _each(_leaves, "max")),
        TheoremClaim("C2.7", "spider index strictly increases with the leg count",
               custom_check=_check_spider_monotonicity),
        TheoremClaim("T3.1", "spider with 2k legs maximizes over trees with 2k odd vertices",
               _each(_odd, "max")),
        TheoremClaim("T3.2", "near-balanced C caterpillar minimizes over trees with 2k odd vertices",
               _each(_odd, "min")),
        TheoremClaim("C3.3", "near-balanced C caterpillar minimizes over trees with k branch vertices",
               _each(_branch, "min")),
        TheoremClaim("T3.4", "star maximizes and full comb minimizes over all-odd trees",
               _each(_all_odd, "max", "min")),
        TheoremClaim("T4.1", "spider with n-t-1 legs maximizes over trees with t degree-2 vertices",
               _each(_deg2, "max")),
        TheoremClaim("T4.3", "C or F family (by parity of n-t) minimizes over trees with t "
               "degree-2 vertices", _each(_deg2, "min")),
        TheoremClaim("C4.4", "C or F family (by parity of n) minimizes over series-reduced trees",
               _each(_series_reduced, "min")),
        TheoremClaim("T5.1", "spider of k length-r paths plus pendants maximizes over trees with "
               "k pendent paths of length r", _each(_spider_paths, "max")),
        TheoremClaim("T5.3", "path-like A family minimizes over trees with k pendent paths of "
               "length r", _each(_path_like, "min")),
        TheoremClaim("LDL-min-degseq", "a fixed-degree-sequence minimizer is a valley-spine "
               "caterpillar", custom_check=_check_degseq_claim),
    )
}


def claim_ids() -> list[str]:
    return list(REGISTRY)


def check_claim(
    claim_id: str,
    n_min: int,
    n_max: int,
    cap: Optional[int] = None,
    maximal_census: bool = False,
) -> list[VerificationReport]:
    """Run one registered claim over an order range, one report per instance."""
    if claim_id not in REGISTRY:
        raise KeyError(f"unknown claim {claim_id!r}; known: {', '.join(REGISTRY)}")
    claim = REGISTRY[claim_id]
    if n_min < 1 and n_min <= n_max:
        raise ValueError(f"order must be >= 1, got {n_min}")
    reports = []
    for n in range(n_min, n_max + 1):
        reports.extend(claim.check(n, cap=cap, maximal_census=maximal_census))
    return reports


def failed_reports(reports: Iterable[VerificationReport]) -> list[VerificationReport]:
    return [r for r in reports if r.status == "fail"]


def reports_to_json_obj(reports: Iterable[VerificationReport]):
    """Group reports by claim: one {claim, instances: [...]} object each."""
    by_claim: dict[str, list[VerificationReport]] = {}
    for r in reports:
        by_claim.setdefault(r.claim_id, []).append(r)
    objs = [{"claim": cid, "instances": [r.to_json_dict() for r in rs]}
            for cid, rs in by_claim.items()]
    return objs[0] if len(objs) == 1 else objs


# The CSV columns read off each report, between its params and millis.
_CSV_FIELDS = ("direction", "brute_value", "claimed_value", "value_match", "claimed_is_argopt",
               "argopt_unique", "argopt_count")


def reports_to_csv(reports: Iterable[VerificationReport]) -> str:
    """CSV summary, one row per instance."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["claim", "n", "params", *_CSV_FIELDS, "millis"])
    for r in reports:
        params = ";".join(f"{k}={v}" for k, v in r.params.items())
        writer.writerow([r.claim_id, r.n, params, *(getattr(r, f) for f in _CSV_FIELDS),
                         f"{r.millis:.3f}"])
    return buf.getvalue()
