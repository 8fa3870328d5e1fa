"""Acceptance gate: every shipped guarantee, at full scale, with budgets.

One test per criterion; each prints a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  The numeric
checks are exact; the wall-clock budgets are asserted as stated.

 1. oracle equivalence of the linear pass and the quadratic oracle
 2. closed forms for the star and the path
 3. the five structural inequalities (contraction, rebalance, edge
    bound, pendant concentration, branch shift), exhaustive plus
    randomized
 4. the three family parameter-shift inequalities, all tuples to n=40
 5. every registered extremal claim, exhaustive for 5 <= n <= 14
 6. degree-sequence minimizers are valley-spine caterpillars, n <= 10
 7. enumeration counts against the sequence-decode oracle and the
    frozen class counts
 8. the linear pass at n = 1,000,000 in at most one second and O(n)
    working memory
"""

import itertools
import random
import time
import tracemalloc

from mostar import (
    ConstraintSpec,
    FamilySpec,
    Tree,
    all_trees,
    build,
    canonical_form,
    check_claim,
    check_degree_sequence_structure,
    mostar_bfs,
    mostar_fast,
    prufer_to_edges,
    psi_edge,
    random_tree,
)
from mostar.transforms import (
    attach_two_paths,
    contract_with_pendant,
    move_pendants_to_path_neighbor,
    shift_branch_to_end,
)
from mostar.verify import failed_reports
from tree_helpers import assert_transmission_identity, diametral_paths, non_pendent_edges


def mo(t):
    return mostar_fast(t)[0]


def report(name, budget_s, elapsed_s, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"{status} {name}: {elapsed_s:.2f}s of {budget_s:.0f}s budget{suffix}")
    assert ok, f"{name}: {detail}"
    assert elapsed_s < budget_s, f"{name} exceeded its {budget_s}s budget ({elapsed_s:.2f}s)"


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    classes = 0
    for n in range(1, 11):
        for t in all_trees(n):
            ft, fs = mostar_fast(t)
            bt, bs = mostar_bfs(t)
            assert ft == bt and list(fs) == list(bs), t.edges
            classes += 1
    rng = random.Random(20220721)
    for _ in range(1000):
        t = random_tree(rng.randint(2, 200), rng.randrange(2**63))
        assert mostar_fast(t)[0] == mostar_bfs(t)[0], t.edges
    report("criterion 1 (oracle equivalence)", 30, time.perf_counter() - t0, True,
           f"{classes} classes + 1000 random trees")


def test_criterion_2_closed_forms():
    t0 = time.perf_counter()
    for n in range(2, 101):
        star_expected = (n - 1) * (n - 2)
        path_expected = n * (n - 2) // 2 if n % 2 == 0 else (n - 1) ** 2 // 2
        assert mostar_bfs(build(FamilySpec.star(n)))[0] == star_expected, n
        assert mostar_bfs(build(FamilySpec.path(n)))[0] == path_expected, n
        assert mostar_fast(build(FamilySpec.star(n)))[0] == star_expected, n
        assert mostar_fast(build(FamilySpec.path(n)))[0] == path_expected, n
    report("criterion 2 (closed forms)", 5, time.perf_counter() - t0, True, "n = 2..100")


def test_criterion_3_structural_inequalities():
    t0 = time.perf_counter()
    small = [(n, t) for n in range(2, 10) for t in all_trees(n)]
    rng = random.Random(20220722)
    counts = {}

    def tally(name, exhaustive, randomized):
        counts[name] = f"{exhaustive}+{randomized}"
        assert randomized >= 1000

    # contraction: strictly increases on every non-pendent edge
    exhaustive = 0
    for n, t in small:
        for e in non_pendent_edges(t):
            assert mo(contract_with_pendant(t, e)) > mo(t), (t.edges, e)
            exhaustive += 1
    randomized = 0
    while randomized < 1000:
        t = random_tree(rng.randint(4, 40), rng.randrange(2**63))
        edges = non_pendent_edges(t)
        if edges:
            assert mo(contract_with_pendant(t, edges[rng.randrange(len(edges))])) > mo(t)
            randomized += 1
    tally("contraction", exhaustive, randomized)

    # rebalance: two legs (l, m) beat legs (l+1, m-1), l >= m >= 1
    exhaustive = 0
    for g_order in range(2, 8):
        for g in all_trees(g_order):
            for u in range(g_order):
                for total in range(2, 10 - g_order):
                    for m in range(1, total // 2 + 1):
                        t1 = attach_two_paths(g, u, total - m, m)
                        t2 = attach_two_paths(g, u, total - m + 1, m - 1)
                        assert mo(t1) > mo(t2), (g.edges, u, total - m, m)
                        exhaustive += 1
    randomized = 0
    while randomized < 1000:
        g = random_tree(rng.randint(2, 30), rng.randrange(2**63))
        u = rng.randrange(g.n)
        m = rng.randint(1, 5)
        length = m + rng.randint(0, min(5, 40 - g.n - 2 * m))
        assert mo(attach_two_paths(g, u, length, m)) > mo(attach_two_paths(g, u, length + 1, m - 1))
        randomized += 1
    tally("rebalance", exhaustive, randomized)

    # edge bound: psi <= n-2 with equality exactly on pendent edges
    exhaustive = 0
    for n, t in small:
        for e in t.edges:
            s = psi_edge(t, e)
            pendent = t.degree(e[0]) == 1 or t.degree(e[1]) == 1
            assert s.psi <= n - 2 and (s.psi == n - 2) == pendent, (t.edges, e)
            exhaustive += 1
    randomized = 0
    while randomized < 1000:
        t = random_tree(rng.randint(3, 40), rng.randrange(2**63))
        for e, s in zip(t.edges, mostar_fast(t)[1]):
            pendent = t.degree(e[0]) == 1 or t.degree(e[1]) == 1
            assert s.psi <= t.n - 2 and (s.psi == t.n - 2) == pendent
            randomized += 1
    tally("edge bound", exhaustive, randomized)

    # pendant concentration: Mo(T) < max(Mo(T'), Mo(T''))
    def carrier_pairs(t):
        deg = t.degrees
        carriers = [x for x in range(t.n) if any(deg[w] == 1 for w in t.adj[x])]
        return [
            (x, y)
            for x, y in itertools.combinations(carriers, 2)
            if any(deg[w] == 1 and w != y for w in t.adj[x])
            and any(deg[w] == 1 and w != x for w in t.adj[y])
        ]

    exhaustive = 0
    for n, t in small:
        for x, y in carrier_pairs(t):
            t1, t2 = move_pendants_to_path_neighbor(t, x, y)
            assert mo(t) < max(mo(t1), mo(t2)), (t.edges, x, y)
            exhaustive += 1
    randomized = 0
    while randomized < 1000:
        t = random_tree(rng.randint(4, 40), rng.randrange(2**63))
        pairs = carrier_pairs(t)
        if not pairs:
            continue
        x, y = pairs[rng.randrange(len(pairs))]
        t1, t2 = move_pendants_to_path_neighbor(t, x, y)
        assert mo(t) < max(mo(t1), mo(t2))
        randomized += 1
    tally("pendant move", exhaustive, randomized)

    # branch shift: strictly decreases whenever the size hypothesis holds
    exhaustive = 0
    for n, t in small:
        for path in diametral_paths(t):
            for i in range(1, len(path) - 1):
                on = {path[i - 1], path[i + 1]}
                off = [w for w in t.adj[path[i]] if w not in on]
                for c in range(1, len(off) + 1):
                    for chosen in itertools.combinations(off, c):
                        out = shift_branch_to_end(t, path, i, c, neighbors=chosen)
                        if out.hypothesis_held:
                            assert out.mo_after < out.mo_before, (t.edges, path, i, chosen)
                            exhaustive += 1
    randomized = 0
    while randomized < 1000:
        t = random_tree(rng.randint(5, 40), rng.randrange(2**63))
        paths = diametral_paths(t)
        path = paths[rng.randrange(len(paths))]
        candidates = [i for i in range(1, len(path) - 1) if t.degree(path[i]) > 2]
        if not candidates:
            continue
        i = candidates[rng.randrange(len(candidates))]
        off = [w for w in t.adj[path[i]] if w not in (path[i - 1], path[i + 1])]
        out = shift_branch_to_end(t, path, i, rng.randint(1, len(off)))
        if out.hypothesis_held:
            assert out.mo_after < out.mo_before
            randomized += 1
    tally("branch shift", exhaustive, randomized)

    detail = ", ".join(f"{k}: {v}" for k, v in counts.items())
    report("criterion 3 (structural inequalities)", 120, time.perf_counter() - t0, True, detail)


def test_criterion_4_family_shift_inequalities():
    t0 = time.perf_counter()
    c_cases = f_cases = a_cases = 0
    for n in range(5, 41):
        for b in range(1, n):
            for a in range(b + 2, n):
                if 2 * (a + b) > n - 3:
                    break
                assert mo(build(FamilySpec.c(n, a - 1, b + 1))) < mo(build(FamilySpec.c(n, a, b))), (n, a, b)
                c_cases += 1
        for b in range(1, n):
            for a in range(b, n):
                if 2 * (a + b) >= n - 5:
                    break
                assert mo(build(FamilySpec.f(n, a - 1, b + 1))) < mo(build(FamilySpec.f(n, a, b))), (n, a, b)
                f_cases += 1
        for r in range(1, n):
            for b in range(1, n):
                if (b + 2 + b) * r >= n - 1:
                    break
                for a in range(b + 2, n):
                    if (a + b) * r >= n - 1:
                        break
                    assert (mo(build(FamilySpec.a_family(n, r, a - 1, b + 1)))
                            < mo(build(FamilySpec.a_family(n, r, a, b)))), (n, r, a, b)
                    a_cases += 1
    detail = f"C shifts: {c_cases}, F shifts: {f_cases}, A shifts: {a_cases}"
    assert c_cases and f_cases and a_cases
    report("criterion 4 (family shifts)", 60, time.perf_counter() - t0, True, detail)


def test_criterion_5_extremal_claim_regressions():
    t0 = time.perf_counter()
    grids = {
        "T3.1": (5, 14), "T3.2": (5, 14), "C3.3": (5, 14),
        "T3.4": (5, 13),  # all-odd classes exist at even orders only
        "T4.1": (5, 14), "T4.3": (5, 14), "C4.4": (5, 14),
        "T5.1": (5, 14), "T5.3": (5, 14),
    }
    totals = {}
    for cid, (lo, hi) in grids.items():
        reports = check_claim(cid, lo, hi)
        invalid = [r for r in reports if r.invalid]
        assert not invalid, (cid, invalid[:3])
        bad = failed_reports(reports)
        assert not bad, (cid, [(r.n, r.params, r.brute_value, r.claimed_value) for r in bad[:5]])
        assert all(r.claimed_in_class for r in reports), cid
        totals[cid] = len(reports)
    detail = f"{sum(totals.values())} instances: " + ", ".join(
        f"{k}={v}" for k, v in totals.items())
    report("criterion 5 (extremal claims)", 600, time.perf_counter() - t0, True, detail)


def test_criterion_6_degree_sequence_minimizers():
    t0 = time.perf_counter()
    checked = 0
    for n in range(2, 11):
        summary = check_degree_sequence_structure(n)
        assert summary.ok, (n, summary.violations)
        checked += summary.sequences_checked
    report("criterion 6 (degree-sequence minimizers)", 120, time.perf_counter() - t0,
           True, f"{checked} sequences")


def test_criterion_7_enumeration_counts():
    t0 = time.perf_counter()
    frozen = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159]
    for n, expected in zip(range(1, 15), frozen):
        assert sum(1 for _ in all_trees(n)) == expected, n
    # independent route for n <= 8: decode every Prufer sequence and dedup
    for n in range(2, 9):
        codes = set()
        for seq in itertools.product(range(n), repeat=n - 2):
            codes.add(canonical_form(Tree(n, prufer_to_edges(seq))))
        assert len(codes) == frozen[n - 1], n
    report("criterion 7 (enumeration counts)", 60, time.perf_counter() - t0, True,
           "n = 1..14, decode oracle to n = 8")


def test_criterion_8_performance():
    n = 10**6
    t = random_tree(n, 20220723)
    t0 = time.perf_counter()
    total, splits = mostar_fast(t)
    elapsed = time.perf_counter() - t0
    assert len(splits) == n - 1
    assert total > 0
    assert_transmission_identity(n, splits._edges, total, splits._n_u)

    # memory: a fresh tree, traced; the pass may allocate O(n) and no more
    t2 = random_tree(n, 40)
    tracemalloc.start()
    mostar_fast(t2)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    per_vertex = peak / n
    ok = elapsed <= 1.0 and per_vertex < 400
    report("criterion 8 (performance)", 1, elapsed, ok,
           f"n=10^6 in {elapsed:.3f}s, peak {peak / 1e6:.0f} MB ({per_vertex:.0f} B/vertex)")
