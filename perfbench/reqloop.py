"""Closed loop with one client: in-process `pogamma.cli.main` calls.

Reads the request manifest line by line, writes each input to its own
file just before its request, and records per request the exit code (or
the uncaught exception), the latency and CPU time of the `main` call and
the sha256 of the --out file.  Writing inputs and reading outputs happens
outside the timed region.

Untraced runs pace the manifest's batches evenly over --seconds: the
client waits before a batch that is not yet due, and stops at --seconds.
So a run samples the machine over the whole window, and lasts --seconds
however fast the program is.  With --trace-batches K it serves K batches
untraced, then K more batches under the tracer, unpaced, and writes the
trace next to the results.

    python3 perfbench/reqloop.py MANIFEST RESULTS TMPDIR --seconds S [--trace-batches K]

pogamma must be importable (PYTHONPATH=src from the repository root).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
from pathlib import Path

import tracing
from reqmix import COMMANDS

# layers whose time is also recorded per traced request
PER_REQUEST = ("cli.build_parser", "formats.load")


def serve(cli, request: dict, tmp: Path) -> dict:
    src, out = tmp / f"in-{request['i']}.json", tmp / f"out-{request['i']}.json"
    src.write_bytes(request["data"].encode("latin-1"))
    argv = [*COMMANDS[request["cmd"]], str(src), "--format", "machine", "--out", str(out)]
    exc = None
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception as e:  # a crash is a failed request, not the end of the run
        rc, exc = None, f"{type(e).__name__}: {e}"
    latency, cpu = time.perf_counter() - t0, time.process_time() - c0
    digest = size = None
    if out.exists():
        data = out.read_bytes()
        digest, size = hashlib.sha256(data).hexdigest(), len(data)
        out.unlink()
    src.unlink()
    return {"i": request["i"], "rc": rc, "exc": exc, "latency": latency, "cpu": cpu,
            "digest": digest, "bytes": size}


def batches(manifest: Path) -> list:
    """The manifest's requests grouped by batch."""
    groups = {}
    with manifest.open() as f:
        for line in f:
            request = json.loads(line)
            groups.setdefault(request["batch"], []).append(request)
    return list(groups.values())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("manifest", type=Path)
    parser.add_argument("results", type=Path)
    parser.add_argument("tmp", type=Path)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-batches", type=int, default=0)
    args = parser.parse_args()

    from pogamma import cli

    k = args.trace_batches
    groups = batches(args.manifest)
    phases = {"plain": 0.0, "traced": 0.0}
    tracer = tracing.Tracer()
    with args.results.open("w") as out:
        start = time.perf_counter()
        for b, group in enumerate(groups):
            if k:
                if b == 2 * k:
                    break
                phase = "plain" if b < k else "traced"
            else:
                due = start + b * args.seconds / len(groups)
                if due > time.perf_counter():
                    time.sleep(due - time.perf_counter())
                if time.perf_counter() - start >= args.seconds:
                    break
                phase = "plain"
            if phase == "traced":
                tracer.install()
            t0 = time.perf_counter()
            for request in group:
                before = tracer.inclusive
                result = serve(cli, request, args.tmp)
                result["phase"] = phase
                if phase == "traced":
                    after = tracer.inclusive
                    result["layers"] = {node: after[node] - before[node] for node in PER_REQUEST}
                out.write(json.dumps(result) + "\n")
            phases[phase] += time.perf_counter() - t0
            tracer.uninstall()
    if k:
        trace = {"phase_wall_s": phases, "trace": tracer.snapshot()}
        args.results.with_suffix(".trace.json").write_text(json.dumps(trace))


if __name__ == "__main__":
    main()
