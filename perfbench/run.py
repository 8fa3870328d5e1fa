"""Benchmark of the ``mostar`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
The seed makes the inputs (the same seed gives the same files), which
are written before anything is timed.  Every workload then runs in its
own fresh worker process (``worker.py``) as a closed loop of one client
that calls ``mostar.cli.main`` in-process, one command after the
previous one completes.  Every output is checked against answers this
directory computes without ``mostar`` (``inputs.py``, ``checks.py``).

Workloads, by the layers each one stresses:

* ``compute-random``: ``compute FILE`` with the per-edge table on a
  uniformly random labeled tree, n = 10^6.  Parse, construct, orient,
  splits and table formatting all do real work; enumeration and search
  do none.
* ``compute-deep``: ``compute FILE --total-only`` on a path and two
  brooms, n = 10^6 each, whose depth from vertex 0 is 8,094 and 8,101:
  either side of the frontier-BFS round budget (4096 + 4 sqrt(n)), so
  one takes the numpy frontier and the other the scipy fallback.  The
  table is bypassed, so a formatting change must not move it.
* ``enumerate``: ``enumerate --n 17`` to NDJSON, unfiltered (write
  heavy) and with ``--filter deg2=3`` (stats heavy).
* ``verify``: ``verify --claim all --n-min 5 --n-max 16`` with cold
  caches: every sweep runs in a fresh worker.

With ``--trace 0`` a run reports, untraced:

* ``setup_s``: median over fresh interpreters of ``import mostar`` plus
  one tiny first command of the workload (it pays the lazy imports);
* ``wall_s``: wall time of one round of the workload's commands, the
  median time of each command summed over the round;
* ``peak_rss_mb``: peak resident memory of the worker (``ru_maxrss``).

and prints ``fail_ratio`` and the workload's throughput
(``vertices_per_s``, ``classes_per_s`` or ``instances_per_s``, the
round's work over ``wall_s``).  With ``--trace 1`` one traced pass
reports the per-layer metrics of ``PER_LAYER`` from spans around the
calls into each module (``tracing.py``), each span name's total and
self time, and the tracing overhead: the traced commands' wall time
minus the same commands' untraced wall time.  A per-layer ``_s`` value
is the total time inside that layer's calls, children included, except
``io.write_ndjson_s`` (self time: writing, without the stream it
drains) and ``cli.table_s`` (the command minus the same command with
``--total-only``, both untraced).  A layer the workload never calls
reads 0.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_PROBES = 5
MIN_ROUNDS = 2
WORKER_TIMEOUT_S = 150

FULL = {
    "n": 10**6, "tiny_n": 10**4, "broom_depths": (8094, 8101),
    "enum_n": 17, "enum_tiny_n": 8, "deg2": 3,
    "verify": (5, 16), "verify_tiny": (4, 4),
}
TINY = {
    "n": 3000, "tiny_n": 2100, "broom_depths": (40, 60),
    "enum_n": 8, "enum_tiny_n": 5, "deg2": 3,
    "verify": (5, 7), "verify_tiny": (4, 4),
}

# Recorded from the library when the benchmark was written; the class
# counts themselves are checked against OEIS A000055 instead.
FILTERED_CLASSES = {(17, 3): 6742, (8, 3): 3}
VERIFY_INSTANCES = {(5, 16): 1034, (5, 7): 103, (4, 4): 16}

CLAIMS = ("T2.1", "T2.6", "C2.7", "T3.1", "T3.2", "C3.3", "T3.4", "T4.1", "T4.3", "C4.4",
          "T5.1", "T5.3", "LDL-min-degseq")

PER_LAYER = (
    ("io.parse_s", "s"), ("tree.construct_s", "s"), ("tree.construct_peak_mb", "MB"),
    ("tree.mostar_fast_s", "s"), ("tree.mostar_fast_peak_mb", "MB"), ("tree.splits_s", "s"),
    ("cli.table_s", "s"), ("cli.main_s", "s"),
    ("enumeration.all_trees_s", "s"), ("enumeration.classes", "count"),
    ("enumeration.filter_pass_ratio", "ratio"),
    ("tree.stats_s", "s"), ("tree.stats_calls", "count"), ("tree.canonical_form_s", "s"),
    ("io.write_ndjson_s", "s"),
    ("verify.cold_order_s", "s"), ("verify.search_s", "s"),
    *((f"verify.check_claim_s.{cid}", "s") for cid in CLAIMS),
    ("verify.scan_useful_ratio", "ratio"), ("verify.enumerations_per_order", "passes/order"),
    ("verify.instances_ok", "count"), ("verify.instances_failed", "count"),
    ("verify.instances_invalid", "count"), ("verify.instances_empty", "count"),
    ("families.build_s", "s"),
    ("trace.overhead_s", "s"), ("trace.spans", "count"),
)


@dataclass
class Plan:
    """One workload's commands and the checks on their outputs.

    ``warmup`` and each of ``variants`` is ``(label, argv, input file)``;
    ``{out}`` in an argv is replaced by a fresh output path.  ``checks``
    maps an output label to a function from output text to errors, and
    ``inputs`` records how each input file was made.
    """

    warmup: tuple
    variants: list[tuple]
    checks: dict[str, Callable[[str], list[str]]]
    inputs: list[str]
    work: int
    throughput: str
    cold: bool = False
    probes: tuple[str, ...] = ()


def _write_input(work: Path, label: str, edges, shape: str, seed: int, made: list[str]) -> str:
    target = work / f"{label}.txt"
    inputs.write_edge_list(target, edges)
    made.append(f"input {target.name} n={len(edges) + 1} shape={shape} seed={seed}")
    return str(target)


def plan_compute_random(seed: int, work: Path, scale: dict) -> Plan:
    made = []
    edges, mo, psi = inputs.random_tree(scale["n"], np.random.default_rng([seed, 0]))
    _write_input(work, "random", edges, "random", seed, made)
    tiny_edges, tiny_mo, tiny_psi = inputs.random_tree(scale["tiny_n"], np.random.default_rng([seed, 1]))
    _write_input(work, "tiny", tiny_edges, "random", seed, made)
    return Plan(
        warmup=("tiny", ["compute", str(work / "tiny.txt"), "--out", "{out}"], None),
        variants=[("random", ["compute", str(work / "random.txt"), "--out", "{out}"],
                   str(work / "random.txt"))],
        checks={
            "tiny": lambda text: checks.compute_table(text, tiny_mo, tiny_psi),
            "random": lambda text: checks.compute_table(text, mo, psi),
            "random:total-only": lambda text: checks.compute_total(text, mo),
        },
        inputs=made, work=scale["n"], throughput="vertices_per_s",
        probes=("construct", "splits", "table"),
    )


def plan_compute_deep(seed: int, work: Path, scale: dict) -> Plan:
    rng = np.random.default_rng([seed, 0])
    n = scale["n"]
    shapes = [("path", "path", *inputs.path(n, rng))]
    shapes += [(f"broom-{d}", f"broom(depth={d})", *inputs.broom(n, d, rng))
               for d in scale["broom_depths"]]
    shapes.append(("tiny", "path", *inputs.path(scale["tiny_n"], np.random.default_rng([seed, 1]))))
    plan_checks, argvs, made = {}, {}, []
    for label, shape, edges, mo in shapes:
        target = _write_input(work, label, edges, shape, seed, made)
        argvs[label] = ["compute", target, "--total-only", "--out", "{out}"]
        plan_checks[label] = lambda text, mo=mo: checks.compute_total(text, mo)
    return Plan(
        warmup=("tiny", argvs.pop("tiny"), None),
        variants=[(label, argv, argv[1]) for label, argv in argvs.items()],
        checks=plan_checks, inputs=made, work=n * len(argvs), throughput="vertices_per_s",
        probes=("construct",),
    )


def plan_enumerate(seed: int, work: Path, scale: dict) -> Plan:
    n, tiny, deg2 = scale["enum_n"], scale["enum_tiny_n"], scale["deg2"]
    filtered = FILTERED_CLASSES[n, deg2]
    return Plan(
        warmup=("tiny", ["enumerate", "--n", str(tiny), "--out", "{out}"], None),
        variants=[
            ("unfiltered", ["enumerate", "--n", str(n), "--out", "{out}"], None),
            ("filtered", ["enumerate", "--n", str(n), "--filter", f"deg2={deg2}",
                          "--out", "{out}"], None),
        ],
        checks={
            "tiny": lambda text: checks.enumerate_ndjson(text, tiny, checks.FREE_TREES[tiny], None),
            "unfiltered": lambda text: checks.enumerate_ndjson(text, n, checks.FREE_TREES[n], None),
            "filtered": lambda text: checks.enumerate_ndjson(text, n, filtered, deg2),
        },
        inputs=[f"input none: orders {tiny} and {n} are fixed, the seed changes nothing"],
        work=2 * checks.FREE_TREES[n], throughput="classes_per_s",
    )


def plan_verify(seed: int, work: Path, scale: dict) -> Plan:
    def sweep(orders):
        return ["verify", "--claim", "all", "--n-min", str(orders[0]), "--n-max", str(orders[1]),
                "--out", "{out}"]
    instances = VERIFY_INSTANCES[scale["verify"]]
    tiny_instances = VERIFY_INSTANCES[scale["verify_tiny"]]
    return Plan(
        warmup=("tiny", sweep(scale["verify_tiny"]), None),
        variants=[("sweep", sweep(scale["verify"]), None)],
        checks={
            "tiny": lambda text: checks.verify_report(text, tiny_instances),
            "sweep": lambda text: checks.verify_report(text, instances),
        },
        inputs=["input none: orders {}..{} are fixed, the seed changes nothing".format(
            *scale["verify"])],
        work=instances, throughput="instances_per_s", cold=True, probes=("scan",),
    )


PLANS = {
    "compute-random": plan_compute_random,
    "compute-deep": plan_compute_deep,
    "enumerate": plan_enumerate,
    "verify": plan_verify,
}


def _variant(prefix: Path, label: str, argv: list[str], input_file) -> dict:
    return {"label": label, "argv": argv, "input": input_file,
            "out": f"{prefix}-{label}-{{tag}}.out"}


class Runner:
    """Spawns workers for one run and tallies the checked operations."""

    def __init__(self, plan: Plan, work: Path, seconds: float):
        self.plan = plan
        self.work = work
        self.seconds = seconds
        self.spawned = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def spawn(self, mode: str, **spec) -> dict:
        self.spawned += 1
        prefix = self.work / f"worker{self.spawned}"
        spec_path = prefix.with_suffix(".spec.json")
        result_path = prefix.with_suffix(".result.json")
        spec.update(mode=mode, src=str(SRC),
                    warmup=_variant(prefix, *self.plan.warmup),
                    variants=[_variant(prefix, *v) for v in self.plan.variants])
        spec_path.write_text(json.dumps(spec))
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path),
                               str(result_path)], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
        return json.loads(result_path.read_text())

    def check(self, ops: list[dict]) -> None:
        """Check and delete every output; a wrong answer or a raise is a failure."""
        for op in ops:
            self.attempted += 1
            out = Path(op["out"])
            if op["rc"] != 0:
                errors = [f"exit code {op['rc']}: {op['stderr'].strip()[-500:]}"]
            else:
                try:
                    errors = self.plan.checks[op["label"]](out.read_text())
                except Exception as exc:  # a broken output must count, not abort the run
                    errors = [f"check raised {exc!r}"]
            out.unlink(missing_ok=True)
            if errors:
                self.failed += 1
                self.errors.append(f"{op['label']}: {'; '.join(errors)}")

    def timed(self) -> tuple[list[dict], float]:
        """The closed loop; returns the timed ops and the workers' peak RSS."""
        if not self.plan.cold:
            res = self.spawn("timed", seconds=self.seconds, min_rounds=MIN_ROUNDS)
            return res["ops"], res["peak_rss_mb"]
        # One fresh worker per round, so every sweep starts with cold caches.
        ops, peak, rounds = [], 0.0, []
        while len(rounds) < MIN_ROUNDS or sum(rounds) + statistics.median(rounds) <= self.seconds:
            t0 = time.perf_counter()
            res = self.spawn("timed", seconds=0, min_rounds=1)
            rounds.append(time.perf_counter() - t0)
            ops += res["ops"]
            peak = max(peak, res["peak_rss_mb"])
        return ops, peak


def environment() -> str:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = " ".join(f"{pkg}={metadata.version(pkg)}" for pkg in ("numpy", "scipy", "networkx"))
    return (f"env nproc={len(os.sched_getaffinity(0))} cpu={cpu!r} "
            f"python={platform.python_version()} {versions}")


def end_to_end(runner: Runner) -> tuple[dict, list[str]]:
    plan = runner.plan
    setups = [runner.spawn("setup", tag=f"setup{i}") for i in range(SETUP_PROBES)]
    for res in setups:
        runner.check(res["ops"])
    ops, peak = runner.timed()
    runner.check(ops)
    timed_ops = [op for op in ops if op["label"] != plan.warmup[0]]
    per_label = {label: [op["seconds"] for op in timed_ops if op["label"] == label]
                 for label, _, _ in plan.variants}
    wall = sum(statistics.median(times) for times in per_label.values())
    lines = [f"op {op['label']} {op['seconds']:.4f} s rc={op['rc']}" for op in timed_ops]
    lines.append("setup probes " + " ".join(f"{res['setup_s']:.4f}" for res in setups) + " s")
    metrics = {
        "setup_s": (statistics.median(res["setup_s"] for res in setups), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    shown = dict(metrics)
    shown["fail_ratio"] = (runner.failed / runner.attempted, "ratio")
    shown[plan.throughput] = (plan.work / wall, plan.throughput[:-len("_per_s")] + "/s")
    lines += [f"metric {name} {value:.6g} {unit}" for name, (value, unit) in shown.items()]
    return metrics, lines


def traced(runner: Runner, workload: str, seed: int) -> tuple[dict, list[str]]:
    plan = runner.plan
    trace_file = WORK / f"trace-{workload}-{seed}.json.gz"
    if plan.cold:
        plain = runner.spawn("timed", seconds=0, min_rounds=1)
        res = runner.spawn("trace", plain=False, probes=list(plan.probes),
                           trace_file=str(trace_file))
        plain_s = sum(op["seconds"] for op in plain["ops"] if op["label"] != plan.warmup[0])
        runner.check(plain["ops"])
    else:
        res = runner.spawn("trace", plain=True, probes=list(plan.probes),
                           trace_file=str(trace_file))
        plain_s = res["plain_s"]
    statuses = {}
    if workload == "verify":
        traced_out = next(op for op in res["ops"] if op["tag"] == "traced")
        if traced_out["rc"] in (0, 1):
            statuses = checks.verify_statuses(Path(traced_out["out"]).read_text())
    runner.check(res["ops"])

    spans, counts = res["spans"], res["counts"]

    def total(name):
        return spans.get(name, {}).get("total", 0.0)

    def items(name, request=None):
        return sum(k for span, req, k in res["items"] if span == name and request in (None, req))

    orders = sum(1 for key in counts if key.startswith("verify.all_trees_order."))
    enumerated = items("enumeration.all_trees", "filtered")
    values = {
        "io.parse_s": total("io.parse"),
        "tree.construct_s": total("tree.construct"),
        "tree.construct_peak_mb": res["layers"].get("tree.construct_peak_mb", 0.0),
        "tree.mostar_fast_s": total("tree.mostar_fast"),
        "tree.mostar_fast_peak_mb": res["layers"].get("tree.mostar_fast_peak_mb", 0.0),
        "tree.splits_s": total("tree.splits"),
        "cli.table_s": res["table_s"],
        "cli.main_s": total("cli.main"),
        "enumeration.all_trees_s": total("enumeration.all_trees"),
        "enumeration.classes": items("enumeration.all_trees"),
        "enumeration.filter_pass_ratio":
            items("enumeration.trees_satisfying", "filtered") / enumerated if enumerated else 0.0,
        "tree.stats_s": total("tree.stats"),
        "tree.stats_calls": spans.get("tree.stats", {}).get("calls", 0),
        "tree.canonical_form_s": total("tree.canonical_form"),
        "io.write_ndjson_s": spans.get("io.write_ndjson", {}).get("self", 0.0),
        "verify.cold_order_s": total("verify.cold_order"),
        "verify.search_s": total("verify.search"),
        **{f"verify.check_claim_s.{cid}": total(f"verify.check_claim.{cid}") for cid in CLAIMS},
        "verify.scan_useful_ratio":
            counts.get("verify.useful", 0) / counts["verify.scanned"]
            if counts.get("verify.scanned") else 0.0,
        "verify.enumerations_per_order":
            counts.get("verify.all_trees_passes", 0) / orders if orders else 0.0,
        "verify.instances_ok": statuses.get("ok", 0),
        "verify.instances_failed": statuses.get("failed", 0),
        "verify.instances_invalid": statuses.get("invalid", 0),
        "verify.instances_empty": statuses.get("empty", 0),
        "families.build_s": total("families.build"),
        "trace.overhead_s": res["traced_s"] - plain_s,
        "trace.spans": res["span_count"],
    }
    lines = [f"trace spans written to {trace_file.relative_to(ROOT)}",
             f"{'span':<34} {'calls':>9} {'total_s':>10} {'self_s':>10}"]
    lines += [f"{name:<34} {row['calls']:>9} {row['total']:>10.4f} {row['self']:>10.4f}"
              for name, row in sorted(spans.items(), key=lambda kv: -kv[1]["total"])]
    lines.append(f"untraced {plain_s:.4f} s, traced {res['traced_s']:.4f} s")
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
    lines += [f"metric {name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    return metrics, lines


def run(workload: str, seed: int, seconds: float, trace: bool, scale: dict = FULL):
    """One benchmark run; returns (report lines, result object)."""
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        plan = PLANS[workload](seed, work, scale)
        runner = Runner(plan, work, seconds)
        metrics, lines = (traced(runner, workload, seed) if trace else end_to_end(runner))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = [f"workload {workload} seed {seed} trace {int(trace)}", environment(),
             *plan.inputs, *lines]
    lines += [f"error {e}" for e in runner.errors]
    lines.append(f"checked {runner.attempted} operations, {runner.failed} failed")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mostar" / "__init__.py").is_file():
        print(f"error: no mostar package under {SRC}", file=sys.stderr)
        return 2
    lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
