"""The requests-mixed workload: seeded CLI requests on distinct inputs.

Inputs come from `pool.txt`, a fixed pool of labeled structures at
(4, 1) and (3, 2) with the outputs the seed commit produced for them, and
from documents made at run time: truncated JSON and non-UTF-8 bytes.
The seed picks which pool entries a run uses, in which order, and with
which command; no entry is used twice in a run, so a cache kept across
calls cannot hit where a one-shot CLI user would miss.

Requests come in batches of 100 with a fixed composition, so every run
has the same mix whatever its seed.  The mix is synthetic: a desk-scale
CLI has no usage logs to measure one from.  Each number has one stated
reason instead:

- Each malformed kind (axiom-breaking, truncated JSON, non-UTF-8) takes
  the same 5 requests in 100, because no kind is known to be more common.
  Together they are 15 %, the minority of malformed documents asked for,
  and each kind still occurs about 300 times in a run.
- The other 85 are valid structures, split between (4, 1) and (3, 2) in
  proportion to the pool sizes, so a run uses both pools evenly.
- Within each kind the four commands take turns, because none is known
  to be more common; so 1 in 4 valid requests exits 1 (--force-violation).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

STRUCTURE_FORMAT = "pogamma.structure/1"

COMMANDS = {
    "validate": ["validate"],
    "check": ["check"],
    "analyze": ["analyze"],
    "force": ["check", "--force-violation"],
}
CMD_ORDER = tuple(COMMANDS)

BATCH_SIZE = 100
# malformed category -> requests per batch
MALFORMED = (("broken", 5), ("badjson", 5), ("nonutf8", 5))
FIXTURES = ("one_element.json", "null_table.json", "min_chain.json",
            "left_zero.json", "product_gap.json")


@dataclass(frozen=True)
class Entry:
    """One pool line: a structure and the pinned outcome of each command,
    as (exit code, sha256 prefix of the --out file or None for no file)."""

    n: int
    m: int
    cells: str           # table cells as digits, letter-major then row, column
    order: str           # the n*n relation as hex bits, row-major
    expect: dict

    def doc_bytes(self, name: str | None = None) -> bytes:
        n, m = self.n, self.m
        vals = [int(c) for c in self.cells]
        tables = [[vals[(g * n + a) * n:(g * n + a + 1) * n] for a in range(n)] for g in range(m)]
        bits = format(int(self.order, 16), f"0{n * n}b")
        order = [[int(bits[a * n + b]) for b in range(n)] for a in range(n)]
        doc = {"format": STRUCTURE_FORMAT}
        if name is not None:
            doc["name"] = name
        doc.update({"n": n, "m": m, "tables": tables, "order": order})
        return json.dumps(doc).encode("utf-8")


def encode_order(leq) -> str:
    n = len(leq)
    bits = "".join("1" if leq[a][b] else "0" for a in range(n) for b in range(n))
    return format(int(bits, 2), f"0{(n * n + 3) // 4}x")


def load_pool(path: Path, pins: dict) -> dict:
    """Pool entries by kind.  A valid entry's line carries indexes into
    the pinned check and force-violation outputs and the analyze digest;
    a broken entry's line carries its validate digest."""
    no_file = [2, None]
    pool = {"v41": [], "v32": [], "broken": []}
    for line in path.read_text().splitlines():
        kind, n, m, cells, order, *rest = line.split()
        if kind == "v":
            check, force, analyze = rest
            expect = {"validate": [0, pins["validate_ok"]],
                      "check": [0, pins["check_variants"][int(check)]],
                      "force": [1, pins["force_variants"][int(force)]],
                      "analyze": [0, analyze]}
            kind = f"v{n}{m}"
        else:
            expect = {"validate": [2, rest[0]], "check": no_file,
                      "analyze": no_file, "force": no_file}
            kind = "broken"
        pool[kind].append(Entry(int(n), int(m), cells, order, expect))
    return pool


def batch_mix(pool: dict) -> tuple:
    """(category, requests per batch): the malformed shares, and the valid
    rest split between (4, 1) and (3, 2) in proportion to their pools."""
    valid = BATCH_SIZE - sum(count for _, count in MALFORMED)
    n41, n32 = len(pool["v41"]), len(pool["v32"])
    v41 = round(valid * n41 / (n41 + n32))
    return (("v41", v41), ("v32", valid - v41), *MALFORMED)


def make_requests(pool: dict, fixtures: Path, fixture_pins: dict, seed: int,
                  max_batches: int | None = None) -> list:
    """The run's requests in order, as dicts with the input bytes, the
    command and the expected (exit code, output digest prefix).

    Batches stop when a pool category runs out, so no entry repeats, or
    after `max_batches`."""
    rng = random.Random(seed)
    mix = batch_mix(pool)
    order = {kind: rng.sample(entries, len(entries)) for kind, entries in pool.items()}
    taken = dict.fromkeys(order, 0)
    turn = {kind: rng.randrange(len(CMD_ORDER)) for kind, _ in mix}
    valid = order["v41"] + order["v32"]
    requests = []
    for b in itertools.count():
        if b == max_batches or any(taken[k] + c > len(order[k]) for k, c in mix if k in order):
            break
        batch = []
        if b == 0:
            for name in FIXTURES:
                cmd = rng.choice(CMD_ORDER)
                batch.append(("fixture", cmd, (fixtures / name).read_bytes(),
                              fixture_pins[name][cmd]))
        for kind, count in mix:
            for _ in range(count):
                cmd = CMD_ORDER[turn[kind] % len(CMD_ORDER)]
                turn[kind] += 1
                if kind in order:
                    entry = order[kind][taken[kind]]
                    taken[kind] += 1
                    batch.append((kind, cmd, entry.doc_bytes(), entry.expect[cmd]))
                elif kind == "badjson":
                    data = rng.choice(valid).doc_bytes()
                    batch.append((kind, cmd, data[:rng.randrange(1, len(data) - 1)], [2, None]))
                else:  # nonutf8: a name holding a byte that is not UTF-8
                    data = rng.choice(valid).doc_bytes(name="\x00")
                    data = data.replace(b"\\u0000", bytes([rng.randrange(0x80, 0x100)]))
                    batch.append((kind, cmd, data, [2, None]))
        rng.shuffle(batch)
        for kind, cmd, data, expect in batch:
            requests.append({"i": len(requests), "batch": b, "category": kind, "cmd": cmd,
                             "data": data, "expect": expect})
    return requests


def inputs_digest(requests) -> str:
    h = hashlib.sha256()
    for r in requests:
        h.update(f"{r['cmd']}\n{len(r['data'])}\n".encode())
        h.update(r["data"])
    return h.hexdigest()


def write_manifest(requests, path: Path) -> None:
    with path.open("w") as f:
        for r in requests:
            f.write(json.dumps({"i": r["i"], "batch": r["batch"], "cmd": r["cmd"],
                                "data": r["data"].decode("latin-1")}) + "\n")


def gate(request: dict, result: dict) -> str | None:
    """Why a request failed, or None when its exit code and output match."""
    if result["exc"] is not None:
        return f"uncaught {result['exc']}"
    want_exit, want_digest = request["expect"]
    if result["rc"] != want_exit:
        return f"exit code {result['rc']}, expected {want_exit}"
    digest = result["digest"]
    if want_digest is None:
        return None if digest is None else "wrote output, expected none"
    if digest is None or not digest.startswith(want_digest):
        return f"output sha256 {digest}, pinned {want_digest}"
    return None


def known_defect(request: dict, result: dict) -> bool:
    """A non-UTF-8 input that crashes with `UnicodeDecodeError`: the
    program's known defect (ROADMAP item 4a).  It counts as failed but
    not as incorrect; any other crash is incorrect."""
    return request["category"] == "nonutf8" and (result["exc"] or "").startswith(
        "UnicodeDecodeError:")


def tally(requests, results) -> tuple[dict, int]:
    """Failures by kind, and how many of them make the run incorrect."""
    failures, incorrect = {}, 0
    for request, result in zip(requests, results):
        why = gate(request, result)
        if why is not None:
            key = f"{request['category']}: {why.split(':')[0]}"
            failures[key] = failures.get(key, 0) + 1
            incorrect += not known_defect(request, result)
    return failures, incorrect


def exit_shares(requests) -> dict:
    shares = {str(code): 0 for code in (0, 1, 2)}
    for r in requests:
        shares[str(r["expect"][0])] += 1
    return {code: count / len(requests) for code, count in shares.items()}
