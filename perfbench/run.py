"""pogamma benchmark: one run of one workload, metrics as JSON on the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see perfbench/README.md):

  sweep-4x1-canonical  `pogamma sweep --n 4 --m 1 --canonical --workers 2`
  sweep-3x2-labeled    `pogamma sweep --n 3 --m 2 --workers 1`
  requests-mixed       in-process validate/check/analyze/check --force-violation
                       calls on seeded, distinct, partly malformed inputs

With --trace 0 the run reports the end-to-end metrics, measured with no
tracing; with --trace 1 it reports the per-layer metrics of a traced
run.  Every output is checked against pins.json and pool.txt; `failed`
counts requests or sweeps whose exit code or output differs from its pin
or that raised, and `correct` is false when any of them fails, except a
non-UTF-8 input that crashes with the known UnicodeDecodeError.  Traces
and per-request spans go to perfbench/.out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import procs
import reqmix
import sweeps

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
WORKLOADS = (*sweeps.CASES, "requests-mixed")
SETUP_REPEATS = 16   # cold starts before the workload, and as many after it
TRACE_BATCHES = 10

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("request_p50_ms", "ms"), ("request_p99_ms", "ms"), ("setup_s", "s"))

CHECKERS = ("prop2", "prop3", "prop4", "prop5", "prop6", "remark7", "thm8", "thm9")
SETCALC = ("all_bi_ideals", "regularity", "bi_ideal_generated_formula", "downward_closure")
LAYERS = ("enumeration", "theorems", "setcalc", "model", "formats", "cli")
PARTITIONS = range(4)
PER_LAYER = (
    ("enumeration.canonical.calls", "count"), ("enumeration.canonical.kept", "count"),
    ("enumeration.canonical.keep_ratio", "ratio"), ("enumeration.canonical.s", "s"),
    *((f"enumeration.partition.{v}.{k}", u) for v in PARTITIONS
      for k, u in (("structures", "count"), ("s", "s"))),
    ("enumeration.partition.imbalance", "ratio"), ("enumeration.sweep.utilization", "ratio"),
    ("enumeration.tables.count", "count"), ("enumeration.tables.s", "s"),
    ("enumeration.orders.tested", "count"), ("enumeration.orders.kept", "count"),
    ("enumeration.orders.s", "s"), ("enumeration.classify.s", "s"),
    *((f"theorems.{c}.s", "s") for c in CHECKERS),
    *((f"setcalc.{f}.{k}", u) for f in SETCALC
      for k, u in (("calls", "count/structure"), ("s", "s"))),
    ("model.validate_structure.calls", "count"), ("model.validate_structure.s", "s"),
    ("formats.load.s", "s"), ("formats.serialize_report.s", "s"),
    ("formats.report_bytes", "bytes"),
    ("cli.build_parser.s", "s"), ("cli.main.self_s", "s"), ("cli.main.calls", "count"),
    *((f"layer.{name}.self_s", "s") for name in LAYERS),
    ("trace.overhead_s", "s"), ("failed_ratio", "ratio"),
)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the
    samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail(values) -> float:
    """p99 when at least ten samples lie beyond it (1,000 or more samples);
    otherwise the highest percentile that keeps ten beyond it, and never
    below the median.  A run of a few sweeps therefore reports its median."""
    q = min(0.99, max(0.5, 1 - 10 / len(values)))
    return max(percentile(values, q), statistics.median(values))


def over_windows(requests, results, stat, batches: int = 1) -> float:
    """Median over windows of `batches` consecutive batches of `stat`
    applied to each window's results, so that a burst of machine noise
    moves a few windows rather than the whole run.  A leftover part
    window is dropped, and a run shorter than one window is one window."""
    groups = {}
    for request, result in zip(requests, results):
        groups.setdefault(request["batch"], []).append(result)
    groups = list(groups.values())
    windows = [sum(groups[i * batches:(i + 1) * batches], [])
               for i in range(max(1, len(groups) // batches))]
    return statistics.median(stat(w) for w in windows)


def source_identity() -> dict:
    """The commit when the checkout is a git repository, and always the
    sha256 of the program's sources."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pogamma").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = done.stdout.strip() or None
    return {"commit": commit, "source_sha256": h.hexdigest()}


def layer_metrics(trace: dict, structures: int, extra: dict) -> dict:
    """Per-layer values from a merged trace; `extra` holds the values the
    trace cannot give (partitions, utilization, overhead, failures)."""
    calls, incl = trace.get("calls", {}), trace.get("inclusive", {})
    self_s, yields = trace.get("self_s", {}), trace.get("yields", {})
    canon_calls = calls.get("enumeration.canonical_key", 0)
    values = {
        "enumeration.canonical.calls": canon_calls,
        "enumeration.canonical.s": incl.get("enumeration.canonical", 0.0),
        "enumeration.tables.count": yields.get("enumeration.enumerate_tables", 0),
        "enumeration.tables.s": incl.get("enumeration.tables", 0.0),
        "enumeration.orders.tested": calls.get("enumeration.order_compatible", 0),
        "enumeration.orders.kept": yields.get("enumeration.enumerate_orders", 0),
        "enumeration.orders.s": incl.get("enumeration.orders", 0.0),
        "enumeration.classify.s": incl.get("enumeration.classify", 0.0),
        "model.validate_structure.calls": calls.get("model.validate_structure", 0),
        "model.validate_structure.s": incl.get("model.validate_structure", 0.0),
        "formats.load.s": incl.get("formats.load", 0.0),
        "formats.serialize_report.s": incl.get("formats.serialize_report", 0.0),
        "cli.build_parser.s": incl.get("cli.build_parser", 0.0),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
        "cli.main.calls": calls.get("cli.main", 0),
    }
    for c in CHECKERS:
        values[f"theorems.{c}.s"] = incl.get(f"theorems.{c}", 0.0)
    for f in SETCALC:
        values[f"setcalc.{f}.calls"] = calls.get(f"setcalc.{f}", 0) / structures if structures else 0
        values[f"setcalc.{f}.s"] = incl.get(f"setcalc.{f}", 0.0)
    for name in LAYERS:
        values[f"layer.{name}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(name + "."))
    values.update(extra)
    kept = values.get("enumeration.canonical.kept", 0)
    values["enumeration.canonical.keep_ratio"] = kept / canon_calls if canon_calls else 0
    return values


# -- workloads -----------------------------------------------------------------

def run_sweep_workload(name: str, args, tmp: Path, meta: dict, log) -> dict:
    case, pin = sweeps.CASES[name], load_pins()["sweeps"][name]
    meta["workers"] = case.workers
    if not args.trace:
        r = sweeps.measure(case, pin, ROOT, tmp, args.seconds, log)
        walls = [run.wall_s for run in r["runs"]]
        meta["sweeps_s"] = walls
        metrics = {"wall_s": statistics.median(walls),
                   "cpu_s": statistics.median(run.cpu_s for run in r["runs"]),
                   "peak_rss_mb": statistics.median(run.peak_rss_mb for run in r["runs"]),
                   "request_p50_ms": statistics.median(walls) * 1000,
                   "request_p99_ms": tail(walls) * 1000}
        return {**r, "metrics": metrics}
    r = sweeps.measure_traced(case, pin, ROOT, tmp, log)
    untraced, parts = r["untraced"], r["parts"]
    seconds = [p["seconds"] for p in parts]
    structures = sum(p["tallies"]["structures"] for p in parts)
    extra = {
        "enumeration.canonical.kept": structures if case.canonical else 0,
        "enumeration.partition.imbalance": max(seconds) / statistics.mean(seconds),
        "enumeration.sweep.utilization": untraced.cpu_s / (case.workers * untraced.wall_s),
        "formats.report_bytes": r["report_bytes"],
        "trace.overhead_s": r["traced_wall_s"] - untraced.wall_s,
        "failed_ratio": r["failed"] / r["attempted"],
    }
    for p in parts:
        extra[f"enumeration.partition.{p['v']}.structures"] = p["tallies"]["structures"]
        extra[f"enumeration.partition.{p['v']}.s"] = p["seconds"]
    metrics = layer_metrics(r["trace"], structures, extra)
    write_trace(name, args.seed, {"meta": meta, "partitions": parts, "trace": r["trace"]})
    return {**r, "metrics": metrics}


def run_requests_workload(args, tmp: Path, meta: dict) -> dict:
    pins = load_pins()
    pool = reqmix.load_pool(HERE / "pool.txt", pins["requests"])
    requests = reqmix.make_requests(pool, ROOT / "fixtures", pins["requests"]["fixtures"],
                                    args.seed)
    meta["workers"] = 1
    meta["inputs_generated"] = len(requests)
    meta["inputs_sha256"] = reqmix.inputs_digest(requests)
    manifest, results = tmp / "manifest.jsonl", tmp / "results.jsonl"
    reqmix.write_manifest(requests, manifest)
    argv = [sys.executable, str(HERE / "reqloop.py"), str(manifest), str(results), str(tmp),
            "--seconds", str(args.seconds)]
    if args.trace:
        argv += ["--trace-batches", str(TRACE_BATCHES)]
    run = procs.run_child(argv, procs.program_env(ROOT), tmp / "loop.stdout",
                          tmp / "loop.stderr", timeout=170)
    if run.returncode != 0:
        raise RuntimeError(f"request loop exited {run.returncode}: "
                           f"{(tmp / 'loop.stderr').read_text()[-2000:]}")
    done = [json.loads(line) for line in results.read_text().splitlines()]
    served = [requests[d["i"]] for d in done]
    failures, incorrect = reqmix.tally(served, done)
    failed = sum(failures.values())
    meta["requests"] = len(done)
    meta["batch_mix"] = dict(reqmix.batch_mix(pool))
    meta["expected_exit_shares"] = reqmix.exit_shares(served)
    meta["nonutf8_share"] = sum(r["category"] == "nonutf8" for r in served) / len(served)
    meta["failures"] = failures
    out = {"attempted": len(done), "failed": failed, "incorrect": incorrect}
    if not args.trace:
        def per_thousand(key):
            return lambda w: statistics.mean(d[key] for d in w) * 1000

        def quantile_ms(key, q):
            return lambda w: percentile([d[key] for d in w], q) * 1000

        # The percentiles take each request's CPU time (its service time):
        # on an idle machine it equals the wall latency, but it leaves out
        # the time the host gives to other processes and guests, which
        # otherwise sets the tail.  Wall-clock percentiles go to meta.
        metrics = {"wall_s": over_windows(served, done, per_thousand("latency")),
                   "cpu_s": over_windows(served, done, per_thousand("cpu")),
                   "peak_rss_mb": run.peak_rss_mb,
                   "request_p50_ms": over_windows(served, done, quantile_ms("cpu", 0.5)),
                   # ten batches hold 1,000 requests: ten lie beyond the p99
                   "request_p99_ms": over_windows(served, done, quantile_ms("cpu", 0.99), 10)}
        meta["wall_latency_p50_ms"] = over_windows(served, done, quantile_ms("latency", 0.5))
        meta["wall_latency_p99_ms"] = over_windows(served, done,
                                                   quantile_ms("latency", 0.99), 10)
        return {**out, "metrics": metrics}
    traced = json.loads(results.with_suffix(".trace.json").read_text())
    walls, trace = traced["phase_wall_s"], traced["trace"]
    calls, errors = trace["calls"], trace["errors"]
    structures = calls.get("formats.load_named", 0) - errors.get("formats.load_named", 0)
    extra = {"formats.report_bytes": sum(d["bytes"] or 0 for d in done if d["phase"] == "traced"),
             "trace.overhead_s": walls["traced"] - walls["plain"],
             "failed_ratio": failed / len(done)}
    metrics = layer_metrics(trace, structures, extra)
    spans = [{"i": d["i"], "cmd": requests[d["i"]]["cmd"], "category": requests[d["i"]]["category"],
              "total_s": d["latency"], **{f"{k}.s": v for k, v in d["layers"].items()}}
             for d in done if d["phase"] == "traced"]
    write_trace("requests-mixed", args.seed,
                {"meta": meta, "phase_wall_s": walls, "trace": trace, "requests": spans})
    return {**out, "metrics": metrics}


def load_pins() -> dict:
    return json.loads((HERE / "pins.json").read_text())


def write_trace(workload: str, seed: int, doc: dict) -> None:
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(doc, indent=1, default=str))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "pogamma" / "__init__.py").is_file():
        print(f"error: no pogamma sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2

    def log(msg: str) -> None:
        print(msg, file=sys.stderr)

    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": sys.version.split()[0], "nproc": os.cpu_count(),
            **source_identity()}
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"run-{os.getpid()}"
    tmp.mkdir()
    setup_n = sweeps.CASES[args.workload].n if args.workload in sweeps.CASES else None

    def setup_samples(tag: str, repeats: int = SETUP_REPEATS) -> list:
        return [] if args.trace else procs.measure_setup(ROOT, tmp, setup_n, repeats, tag)

    try:
        setup_samples("warm", 1)   # unmeasured: fills the bytecode cache
        samples = setup_samples("before")
        if args.workload == "requests-mixed":
            result = run_requests_workload(args, tmp, meta)
        else:
            result = run_sweep_workload(args.workload, args, tmp, meta, log)
        samples += setup_samples("after")
        metrics = result["metrics"]
        if args.trace:
            units = dict(PER_LAYER)
        else:
            metrics["setup_s"] = statistics.median(s[0] for s in samples)
            meta["setup_samples_s"] = [s[0] for s in samples]
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    meta["failed_ratio"] = result["failed"] / result["attempted"]
    print("meta: " + json.dumps(meta))
    print(json.dumps({
        "correct": result["incorrect"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics.get(name, 0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
