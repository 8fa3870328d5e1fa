"""Output checks that share no code with ``mostar``.

Each check takes the text a command wrote and returns a list of error
messages; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import re

import numpy as np

# Free trees on n unlabeled vertices, n = 0..17 (OEIS A000055).
FREE_TREES = (1, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320, 48629)

_PSI = re.compile(r"psi=(\d+)")


def _header_errors(text: str, mostar: int) -> list[str]:
    first = text.split("\n", 1)[0]
    if first != f"Mo = {mostar}":
        return [f"header {first[:60]!r}, expected 'Mo = {mostar}'"]
    return []


def compute_total(text: str, mostar: int) -> list[str]:
    """``compute --total-only``: one line carrying the expected index."""
    errors = _header_errors(text, mostar)
    if text.count("\n") != 1:
        errors.append(f"expected a single line, got {text.count(chr(10))}")
    return errors


def compute_table(text: str, mostar: int, psi: np.ndarray) -> list[str]:
    """``compute`` with the per-edge table: n - 1 rows whose psi values are
    exactly the expected contributions and sum to the index."""
    errors = _header_errors(text, mostar)
    rows = text.count("\n  (")
    if rows != len(psi):
        errors.append(f"{rows} table rows, expected {len(psi)}")
    got = np.asarray(_PSI.findall(text), dtype=np.int64)
    if int(got.sum()) != mostar:
        errors.append(f"psi column sums to {int(got.sum())}, expected {mostar}")
    if len(got) != len(psi) or not np.array_equal(np.sort(got), np.sort(psi)):
        errors.append("psi column differs from the expected per-edge contributions")
    return errors


def enumerate_ndjson(text: str, n: int, count: int, deg2: int | None) -> list[str]:
    """``enumerate`` NDJSON: ``count`` records of order n; with ``deg2`` set,
    every tree must have exactly that many degree-2 vertices."""
    lines = text.splitlines()
    errors = [] if len(lines) == count else [f"{len(lines)} trees, expected {count}"]
    for line in lines:
        rec = json.loads(line)
        edges = rec["edges"]
        if rec["n"] != n or len(edges) != n - 1:
            errors.append(f"record is not a tree of order {n}: {line[:80]}")
            break
        if deg2 is not None:
            degree = np.bincount(np.asarray(edges).ravel(), minlength=n)
            if int((degree == 2).sum()) != deg2:
                errors.append(f"tree outside the deg2={deg2} class: {line[:80]}")
                break
    return errors


def verify_statuses(text: str) -> dict[str, int]:
    """Count the instance lines of ``verify`` text output by status."""
    counts = {"ok": 0, "failed": 0, "invalid": 0, "empty": 0, "unknown": 0}
    for line in text.splitlines():
        if line.endswith(" ok"):
            counts["ok"] += 1
        elif line.endswith(" FAIL"):
            counts["failed"] += 1
        elif " INVALID (" in line:
            counts["invalid"] += 1
        elif line.endswith(" EMPTY CLASS"):
            counts["empty"] += 1
        else:
            counts["unknown"] += 1
    return counts


def verify_report(text: str, instances: int) -> list[str]:
    """``verify`` text output: ``instances`` lines, none failing or unreadable."""
    counts = verify_statuses(text)
    errors = []
    total = sum(counts.values())
    if total != instances:
        errors.append(f"{total} instances, expected {instances}")
    if counts["failed"]:
        errors.append(f"{counts['failed']} FAIL lines")
    if counts["unknown"]:
        errors.append(f"{counts['unknown']} lines with no status")
    return errors
