"""In-memory spans around the calls into mostar's public functions.

The tracer replaces, for the length of a traced run, the references
that one mostar module holds to another module's public function (for
example ``mostar.verify.all_trees``) with a wrapper that records a span
per call.  A generator's span covers one ``next``, so the time a
consumer spends between items is not charged to it.  Spans carry
name, start, end, parent and request, stay in memory, and are written
out once with :meth:`Tracer.dump`.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list[str] = []
        self.items: Counter = Counter()  # (span name, request) -> items yielded
        self.counts: Counter = Counter()
        self.request = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._orders_seen: set = set()

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self.request)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    # -- wrappers ------------------------------------------------------------

    def _call(self, fn, name):
        def traced(*args, **kwargs):
            i = self.open(name(args) if callable(name) else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
        return traced

    def _iter(self, fn, name, on_call=None):
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            it = iter(fn(*args, **kwargs))

            def drain():
                while True:
                    i = self.open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.close(i)
                    self.items[name, self.request] += 1
                    yield item
            return drain()
        return traced

    def _patch(self, module, attr: str, wrapper) -> None:
        if hasattr(module, attr):
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, wrapper(original))

    def _search_name(self, args) -> str:
        n = args[0]
        if n in self._orders_seen:
            return "verify.search"
        self._orders_seen.add(n)
        return "verify.cold_order"

    def _count_pass(self, args) -> None:
        self.counts["verify.all_trees_passes"] += 1
        self.counts[f"verify.all_trees_order.{args[0]}"] = 1

    def install(self) -> None:
        """Wrap the public calls each mostar layer makes into another layer."""
        import mostar.cli
        import mostar.enumeration
        import mostar.io
        import mostar.verify

        call, it = self._call, self._iter
        self._patch(mostar.io, "parse_edge_list", lambda f: call(f, "io.parse"))
        self._patch(mostar.io, "write_ndjson", lambda f: call(f, "io.write_ndjson"))
        self._patch(mostar.cli, "mostar_fast", lambda f: call(f, "tree.mostar_fast"))
        self._patch(mostar.cli, "trees_satisfying",
                    lambda f: it(f, "enumeration.trees_satisfying"))
        self._patch(mostar.cli, "check_claim",
                    lambda f: call(f, lambda args: f"verify.check_claim.{args[0]}"))
        self._patch(mostar.enumeration, "all_trees", lambda f: it(f, "enumeration.all_trees"))
        self._patch(mostar.enumeration, "Tree", lambda f: call(f, "tree.construct"))
        self._patch(mostar.enumeration, "stats", lambda f: call(f, "tree.stats"))
        self._patch(mostar.verify, "all_trees",
                    lambda f: it(f, "enumeration.all_trees", self._count_pass))
        self._patch(mostar.verify, "extremal_search", lambda f: call(f, self._search_name))
        self._patch(mostar.verify, "stats", lambda f: call(f, "tree.stats"))
        self._patch(mostar.verify, "mostar_fast", lambda f: call(f, "tree.mostar_fast"))
        self._patch(mostar.verify, "canonical_form", lambda f: call(f, "tree.canonical_form"))
        self._patch(mostar.verify, "build", lambda f: call(f, "families.build"))

    def install_scan_counter(self) -> None:
        """Count the records each constraint search scans and keeps.

        A counter per record costs more than the search itself, so this
        runs on a pass of its own, with no spans installed.
        """
        import mostar.enumeration
        import mostar.verify

        searching = [False]

        def flag(search):
            def flagged(*args, **kwargs):
                searching[0] = True
                try:
                    return search(*args, **kwargs)
                finally:
                    searching[0] = False
            return flagged

        def count(matches):
            def counted(spec, st):
                ok = matches(spec, st)
                if searching[0]:
                    self.counts["verify.scanned"] += 1
                    self.counts["verify.useful"] += ok
                return ok
            return counted

        self._patch(mostar.verify, "extremal_search", flag)
        self._patch(mostar.enumeration.ConstraintSpec, "matches", count)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (children excluded)."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            row = out[name]
            row["calls"] += 1
            row["total"] += dur
            row["self"] += dur
            p = self.parents[i]
            if p >= 0:
                out[self.names[p]]["self"] -= dur
        return dict(out)

    def dump(self, target: Path) -> None:
        """Write every span as [name, start_us, end_us, parent, request], gzipped."""
        t0 = self.starts[0] if self.starts else 0.0
        spans = [
            [name, round((s - t0) * 1e6), round((e - t0) * 1e6), p, r]
            for name, s, e, p, r in zip(self.names, self.starts, self.ends,
                                        self.parents, self.requests)
        ]
        with gzip.open(target, "wt") as fh:
            json.dump({"spans": spans, "counts": dict(self.counts)}, fh, separators=(",", ":"))
