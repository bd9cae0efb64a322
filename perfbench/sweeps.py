"""The two sweep workloads: `pogamma sweep` run as a child process, and,
for the traced run, a partition profile that drives the public
enumeration, classification and checker functions one first-cell value
at a time under the tracer.

Run as a script, it profiles one partition and pickles the result:

    python3 perfbench/sweeps.py N M CANONICAL V OUT
"""

from __future__ import annotations

import hashlib
import json
import pickle
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import procs
import tracing

TALLY_KEYS = ("structures", "regular_structures", "completely_regular_structures",
              "strongly_regular_structures", "product_property_structures",
              "product_without_cr")

# prop6 computes both directions in one function, so its ids run together
CHECK_GROUPS = (("prop2",), ("prop3",), ("prop4",), ("prop5",),
                ("prop6-forward", "prop6-converse"), ("remark7",), ("thm8",), ("thm9",))


@dataclass(frozen=True)
class SweepCase:
    n: int
    m: int
    canonical: bool
    workers: int

    def argv(self, out: Path) -> list:
        argv = [sys.executable, "-m", "pogamma", "sweep", "--n", str(self.n), "--m", str(self.m)]
        if self.canonical:
            argv.append("--canonical")
        return argv + ["--workers", str(self.workers), "--format", "machine", "--out", str(out)]


CASES = {
    "sweep-4x1-canonical": SweepCase(n=4, m=1, canonical=True, workers=2),
    "sweep-3x2-labeled": SweepCase(n=3, m=2, canonical=False, workers=1),
}


def gate_report(returncode: int, data: bytes | None, pin: dict) -> list:
    """Every way a sweep's exit code or machine report differs from its pin."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}, expected 0")
    if data is None:
        return problems + ["no report written"]
    digest = hashlib.sha256(data).hexdigest()
    if digest != pin["sha256"]:
        problems.append(f"report sha256 {digest}, pinned {pin['sha256']}")
    try:
        payload = json.loads(data)["payload"]
        got = {"structures": payload["structures"],
               "product_without_cr": payload["product_without_cr"],
               "violations": len(payload["violations"])}
    except (ValueError, KeyError, TypeError) as e:
        return problems + [f"unreadable report: {e!r}"]
    for key, value in got.items():
        if value != pin[key]:
            problems.append(f"{key} = {value}, pinned {pin[key]}")
    return problems


def run_sweep(case: SweepCase, root: Path, tmp: Path, tag: str):
    """One `pogamma sweep` child; returns the measurement and its report."""
    out = tmp / f"{tag}.json"
    run = procs.run_child(case.argv(out), procs.program_env(root),
                          tmp / f"{tag}.stdout", tmp / f"{tag}.stderr", timeout=170)
    data = out.read_bytes() if out.exists() else None
    return run, data


# -- partition profile (traced) ----------------------------------------------

def profile_partition(case: SweepCase, v: int) -> dict:
    """Sweep the first-cell partition v under the tracer, one checker
    group at a time, and return its tallies and trace counters."""
    from pogamma import enumeration, theorems

    spec = enumeration.EnumSpec(n=case.n, m=case.m, canonical_only=case.canonical)
    tallies = dict.fromkeys(TALLY_KEYS, 0)
    gap_examples, violations = [], []
    start = time.perf_counter()
    with tracing.Tracer() as tracer:
        for s in enumeration.enumerate_structures(spec, prefix=(v,)):
            flags = enumeration.classify(s)
            tallies["structures"] += 1
            for key in ("regular", "completely_regular", "strongly_regular", "product_property"):
                tallies[f"{key}_structures"] += flags[key]
            if flags["product_property"] and not flags["completely_regular"]:
                tallies["product_without_cr"] += 1
                gap_examples.append(s)
            for group in CHECK_GROUPS:
                for report in theorems.run_selected(s, group):
                    if report.status == "violation":
                        violations.append(enumeration.SweepViolation(structure=s, report=report))
    return {"v": v, "seconds": time.perf_counter() - start, "tallies": tallies,
            "gap_examples": gap_examples[:enumeration.SWEEP_EXAMPLE_CAP],
            "violations": violations, "trace": tracer.snapshot()}


def profile(case: SweepCase, root: Path, tmp: Path):
    """All partitions, each in a fresh process with at most `case.workers`
    alive at once, merged in ascending v; returns the parts, their wall
    time, the serialized report rebuilt from them, and the merged trace."""
    from pogamma import enumeration, formats, theorems

    here = Path(__file__).resolve().parent
    outs = [tmp / f"partition-{v}.pickle" for v in range(case.n)]
    argvs = [[sys.executable, str(here / "sweeps.py"), str(case.n), str(case.m),
              str(int(case.canonical)), str(v), str(out)] for v, out in enumerate(outs)]
    logs = [(tmp / f"partition-{v}.stdout", tmp / f"partition-{v}.stderr") for v in range(case.n)]
    start = time.perf_counter()
    runs = procs.run_children(argvs, procs.program_env(root), logs, case.workers, timeout=170)
    wall = time.perf_counter() - start
    for v, run in enumerate(runs):
        if run.returncode != 0:
            raise RuntimeError(f"partition {v} exited {run.returncode}: {logs[v][1].read_text()[-2000:]}")
    # written by the children above, from this same code
    parts = [pickle.loads(out.read_bytes()) for out in outs]
    totals = {key: sum(p["tallies"][key] for p in parts) for key in TALLY_KEYS}
    report = enumeration.SweepReport(
        n=case.n, m=case.m, canonical=case.canonical, require_order=True,
        theorems=tuple(theorems.THEOREM_IDS),
        **totals,
        product_without_cr_examples=[s for p in parts for s in p["gap_examples"]][
            :enumeration.SWEEP_EXAMPLE_CAP],
        violations=[x for p in parts for x in p["violations"]],
    )
    with tracing.Tracer() as tracer:
        data = formats.serialize_report(report).encode("utf-8")
    trace = tracing.merge([p["trace"] for p in parts] + [tracer.snapshot()])
    return parts, wall, data, trace


def gate_profile(parts, data: bytes, cli_data: bytes | None, pin: dict) -> list:
    """The profile must rebuild the pinned report byte for byte, its
    per-partition sums must equal the CLI report's totals, and its
    partition sizes must match the pinned split."""
    problems = [f"profile: {p}" for p in gate_report(0, data, pin)]
    if cli_data is not None and data != cli_data:
        problems.append("profile report differs from the untraced CLI report")
    if cli_data is not None:
        payload = json.loads(cli_data)["payload"]
        for key in TALLY_KEYS:
            got = sum(p["tallies"][key] for p in parts)
            if got != payload[key]:
                problems.append(f"partition sum of {key} = {got}, CLI report has {payload[key]}")
    split = [p["tallies"]["structures"] for p in parts]
    if split != pin["partitions"]:
        problems.append(f"partition split {split}, pinned {pin['partitions']}")
    return problems


def measure(case: SweepCase, pin: dict, root: Path, tmp: Path, seconds: float, log) -> dict:
    """Untraced run: sweeps back to back until `seconds` have passed."""
    runs, failed = [], 0
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        run, data = run_sweep(case, root, tmp, f"sweep-{len(runs)}")
        problems = gate_report(run.returncode, data, pin)
        if problems:
            failed += 1
            log(f"sweep {len(runs)} failed the gate: {problems}")
        runs.append(run)
    return {"attempted": len(runs), "failed": failed, "incorrect": failed, "runs": runs}


def measure_traced(case: SweepCase, pin: dict, root: Path, tmp: Path, log) -> dict:
    """Traced run: one untraced CLI sweep, then the traced partition profile."""
    sys.path.insert(0, str(root / "src"))
    run, cli_data = run_sweep(case, root, tmp, "sweep-untraced")
    failed = 0
    problems = gate_report(run.returncode, cli_data, pin)
    if problems:
        failed += 1
        log(f"untraced sweep failed the gate: {problems}")
    parts, wall, data, trace = profile(case, root, tmp)
    problems = gate_profile(parts, data, cli_data, pin)
    if problems:
        failed += 1
        log(f"traced profile failed the gate: {problems}")
    return {
        "attempted": 2, "failed": failed, "incorrect": failed,
        "untraced": run, "traced_wall_s": wall, "report_bytes": len(data),
        "parts": [{k: p[k] for k in ("v", "seconds", "tallies")} for p in parts],
        "trace": trace,
    }


if __name__ == "__main__":
    # one partition of the profile: sweeps.py N M CANONICAL V OUT
    n, m, canonical, v = (int(x) for x in sys.argv[1:5])
    result = profile_partition(SweepCase(n=n, m=m, canonical=bool(canonical), workers=1), v)
    Path(sys.argv[5]).write_bytes(pickle.dumps(result))
