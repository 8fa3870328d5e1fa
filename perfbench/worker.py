"""One fresh interpreter that drives ``mostar.cli.main`` in-process.

    python3 perfbench/worker.py SPEC.json RESULT.json

The spec names a mode:

* ``setup`` - time ``import mostar`` plus one tiny first command.
* ``timed`` - a closed loop of one client: after one tiny warm-up
  command, run rounds of the workload's commands, each command after
  the previous one completes, until ``min_rounds`` are done and another
  round would overrun ``seconds``.
* ``trace`` - after the warm-up, run each command once untraced (when
  ``plain`` is set) and once traced, then the workload's layer probes
  (``construct``, ``splits``, ``table``, ``scan``).

Only the standard library is imported before ``mostar``, so a setup
probe pays for everything the package imports.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def _import_main(src: str):
    sys.path.insert(0, src)
    from mostar.cli import main
    import mostar

    if not Path(mostar.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise ImportError(f"mostar imported from {mostar.__file__}, not from {src}")
    return main


def _call(main, argv: list[str]) -> dict:
    """Run one command; the error text carries stderr and any traceback."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    return {"seconds": time.perf_counter() - t0, "rc": rc, "stderr": err.getvalue()[-2000:]}


def _op(main, variant: dict, tag: str) -> dict:
    out = variant["out"].replace("{tag}", tag)
    argv = [a.replace("{out}", out) for a in variant["argv"]]
    return {"label": variant["label"], "tag": tag, "out": out, **_call(main, argv)}


def setup(spec: dict) -> dict:
    t0 = time.perf_counter()
    main = _import_main(spec["src"])
    op = _op(main, spec["warmup"], spec["tag"])
    return {"setup_s": time.perf_counter() - t0, "ops": [op]}


def timed(spec: dict) -> dict:
    main = _import_main(spec["src"])
    ops = [_op(main, spec["warmup"], "warmup")]
    rounds: list[float] = []
    start = time.perf_counter()
    while len(rounds) < spec["min_rounds"] or (
            time.perf_counter() - start + statistics.median(rounds) <= spec["seconds"]):
        t0 = time.perf_counter()
        ops.extend(_op(main, v, f"r{len(rounds)}") for v in spec["variants"])
        rounds.append(time.perf_counter() - t0)
    return {"ops": ops}


def trace(spec: dict) -> dict:
    from tracing import Tracer

    main = _import_main(spec["src"])
    ops = [_op(main, spec["warmup"], "warmup")]
    if spec["plain"]:
        # The first full-size command of a process runs slower than the
        # rest; keep it out of the traced-minus-untraced difference.
        ops.append(_op(main, spec["variants"][0], "warm"))
    plain = [_op(main, v, "plain") for v in spec["variants"]] if spec["plain"] else []
    # The table's cost: each command with its table minus the same command
    # with --total-only, both untraced.
    total_only = [_op(main, {**v, "label": v["label"] + ":total-only",
                             "argv": v["argv"] + ["--total-only"]}, "total-only")
                  for v in spec["variants"]] if "table" in spec["probes"] else []
    tracer = Tracer()
    tracer.install()
    try:
        traced = []
        for v in spec["variants"]:
            tracer.request = v["label"]
            with tracer.span("cli.main"):
                traced.append(_op(main, v, "traced"))
        layers = {}
        for v in spec["variants"]:
            tracer.request = v["label"]
            layers.update(_probes(tracer, v, spec["probes"], first=not layers))
    finally:
        tracer.uninstall()
    if "scan" in spec["probes"]:
        tracer.install_scan_counter()
        try:
            ops += [_op(main, v, "scan") for v in spec["variants"]]
        finally:
            tracer.uninstall()
    tracer.dump(Path(spec["trace_file"]))
    return {
        "ops": ops + plain + total_only + traced,
        "plain_s": sum(op["seconds"] for op in plain),
        "table_s": sum(op["seconds"] for op in plain) - sum(op["seconds"] for op in total_only)
        if total_only else 0.0,
        "traced_s": sum(op["seconds"] for op in traced),
        "spans": tracer.totals(),
        "span_count": len(tracer.names),
        "items": [[name, request, k] for (name, request), k in tracer.items.items()],
        "counts": dict(tracer.counts),
        "layers": layers,
    }


def _probes(tracer, variant: dict, probes: list[str], first: bool) -> dict:
    """Layer probes on one compute input, outside the command.

    ``Tree`` gets edges this module parsed, and the split sequence is
    iterated on its own.  On the first input, tracemalloc then measures
    the peak of a second construction and of the index pass.
    """
    if "construct" not in probes:
        return {}
    import tracemalloc

    import numpy as np
    from mostar import Tree, mostar_fast

    text = Path(variant["input"]).read_text()
    ids = np.array(text.split(), dtype=np.int64)
    n = int(ids[0])
    edges = list(zip(ids[1::2].tolist(), ids[2::2].tolist()))
    del text, ids
    with tracer.span("tree.construct"):
        t = Tree(n, edges)
    if "splits" in probes:
        _, splits = mostar_fast(t)
        with tracer.span("tree.splits"):
            for _ in splits:
                pass
        del splits
    del t
    if not first:
        return {}
    tracemalloc.start()
    try:
        t = Tree(n, edges)
        construct_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        mostar_fast(t)
        fast_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return {"tree.construct_peak_mb": construct_peak / 2**20,
            "tree.mostar_fast_peak_mb": fast_peak / 2**20}


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text())
    result = {"setup": setup, "timed": timed, "trace": trace}[spec["mode"]](spec)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(sys.argv[2]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
