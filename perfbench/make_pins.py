"""Regenerate pins.json and pool.txt from the program as it stands.

    PYTHONPATH=src python3 perfbench/make_pins.py

Pins record what the program outputs today, so run this only on a commit
whose outputs are known good: a pin that moves with the code checks
nothing.  It runs both sweeps (the (4, 1) one at --workers 2 and 1,
which must agree) and the partition profile, then builds the request
pool: labeled structures sampled at (4, 1) and (3, 2), axiom-breaking
variants of others, and the output of every command on each.  Takes
about three minutes.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import procs
import reqmix
import sweeps

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
POOL_SEED = 14
POOL_SIZES = {(4, 1): 3200, (3, 2): 2000}
BROKEN_PER_SIZE = 300
PREFIX = 12   # hex digits of sha256 kept per pool output


def pin_sweeps(tmp: Path) -> dict:
    out = {}
    for name, case in sweeps.CASES.items():
        digests = {}
        for workers in sorted({case.workers, 1}):
            run, data = sweeps.run_sweep(replace(case, workers=workers), ROOT, tmp, f"{name}-{workers}")
            if run.returncode != 0:
                sys.exit(f"{name} --workers {workers} exited {run.returncode}")
            digests[workers] = hashlib.sha256(data).hexdigest()
        if len(set(digests.values())) != 1:
            sys.exit(f"{name}: reports differ across worker counts: {digests}")
        payload = json.loads(data)["payload"]
        parts, _, profiled, _ = sweeps.profile(case, ROOT, tmp)
        if profiled != data:
            sys.exit(f"{name}: the partition profile does not rebuild the CLI report")
        out[name] = {"sha256": digests[case.workers], "structures": payload["structures"],
                     "product_without_cr": payload["product_without_cr"],
                     "violations": len(payload["violations"]),
                     "partitions": [p["tallies"]["structures"] for p in parts]}
        print(name, out[name], flush=True)
    return out


def run_cli(cli, cmd: str, data: bytes, tmp: Path):
    src, out = tmp / "in.json", tmp / "out.json"
    src.write_bytes(data)
    out.unlink(missing_ok=True)
    rc = cli.main([*reqmix.COMMANDS[cmd], str(src), "--format", "machine", "--out", str(out)])
    return rc, hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None


def break_structure(s, rng, enumeration, model):
    """An axiom-breaking variant of s: a changed table cell, a dropped
    reflexive pair, a two-way pair, or a partial order the tables do not
    respect.  Returns (tables, order) as nested lists."""
    n, m = s.n, s.m
    while True:
        tables = [[list(row) for row in t] for t in s.tables.op]
        order = [[int(v) for v in row] for row in s.order.leq]
        kind = rng.randrange(4)
        if kind == 0:
            g, a, b = rng.randrange(m), rng.randrange(n), rng.randrange(n)
            tables[g][a][b] = (tables[g][a][b] + rng.randrange(1, n)) % n
        elif kind == 1:
            a = rng.randrange(n)
            order[a][a] = 0
        elif kind == 2:
            a, b = rng.sample(range(n), 2)
            order[a][b] = order[b][a] = 1
        else:
            order = [[int(v) for v in row] for row in rng.choice(enumeration.all_partial_orders(n)).leq]
        broken = model.structure_from_rows(tables, order)
        if not model.validate_structure(broken).ok:
            return broken


def pin_requests(tmp: Path) -> tuple[dict, list]:
    from pogamma import cli, enumeration, model

    rng = random.Random(POOL_SEED)
    pins = {"validate_ok": None, "check_variants": [], "force_variants": [], "fixtures": {}}
    for name in reqmix.FIXTURES:
        data = (ROOT / "fixtures" / name).read_bytes()
        pins["fixtures"][name] = {cmd: list(run_cli(cli, cmd, data, tmp)) for cmd in reqmix.COMMANDS}
    lines, seen = [], set()
    for (n, m), size in POOL_SIZES.items():
        spec = enumeration.EnumSpec(n=n, m=m, canonical_only=False)
        labeled = list(enumeration.enumerate_structures(spec))
        picked = rng.sample(labeled, size + BROKEN_PER_SIZE)
        for i, s in enumerate(picked):
            valid = i < size
            if not valid:
                base, s = s, break_structure(s, rng, enumeration, model)
                while s in seen:  # two bases can break the same way
                    s = break_structure(base, rng, enumeration, model)
            seen.add(s)
            cells = "".join(str(v) for t in s.tables.op for row in t for v in row)
            entry = reqmix.Entry(n, m, cells, reqmix.encode_order(s.order.leq), {})
            got = {cmd: run_cli(cli, cmd, entry.doc_bytes(), tmp) for cmd in reqmix.COMMANDS}
            head = f"{'v' if valid else 'b'} {n} {m} {cells} {entry.order}"
            if not valid:
                assert all(got[c] == (2, None) for c in ("check", "analyze", "force")), got
                assert got["validate"][0] == 2, got
                lines.append(f"{head} {got['validate'][1][:PREFIX]}")
                continue
            assert [got[c][0] for c in reqmix.COMMANDS] == [0, 0, 0, 1], got
            if pins["validate_ok"] is None:
                pins["validate_ok"] = got["validate"][1]
            assert got["validate"][1] == pins["validate_ok"], got
            idx = []
            for cmd in ("check", "force"):
                variants = pins[f"{cmd}_variants"]
                if got[cmd][1] not in variants:
                    variants.append(got[cmd][1])
                idx.append(variants.index(got[cmd][1]))
            lines.append(f"{head} {idx[0]} {idx[1]} {got['analyze'][1][:PREFIX]}")
        print(f"pool ({n}, {m}): {size} valid, {BROKEN_PER_SIZE} broken", flush=True)
    return pins, lines


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        tmp = Path(tmp)
        pins = {"sweeps": pin_sweeps(tmp)}
        pins["requests"], lines = pin_requests(tmp)
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1) + "\n")
    (HERE / "pool.txt").write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
