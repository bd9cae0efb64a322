"""Tests for the benchmark's own code: the tracer changes no result and
puts every original back, the gates reject tampered outputs, set-up is
timed in fresh interpreters, and input generation is pinned.

    python3 -m pytest perfbench/tests
"""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import procs
import reqmix
import run
import sweeps
import tracing

ROOT = Path(__file__).resolve().parents[2]
NAMESPACES = [f"pogamma.{m}" for m in tracing.MODULES] + ["pogamma"]


def namespace_state():
    state = {}
    for ns in NAMESPACES:
        for name, obj in vars(importlib.import_module(ns)).items():
            state[ns, name] = obj
            if type(obj) is dict:
                state.update(((ns, name, key), value) for key, value in obj.items())
    return state


def cli_output(tmp_path, argv, name):
    from pogamma import cli

    out = tmp_path / name
    rc = cli.main([*argv, "--format", "machine", "--out", str(out)])
    return rc, out.read_bytes()


def test_tracer_changes_no_result_and_restores_originals(tmp_path):
    from pogamma import enumeration

    before = namespace_state()
    fixture = str(ROOT / "fixtures" / "product_gap.json")
    sweep = ["sweep", "--n", "2", "--m", "2", "--canonical"]
    plain = [cli_output(tmp_path, sweep, "a"), cli_output(tmp_path, ["analyze", fixture], "b")]
    spec = enumeration.EnumSpec(n=3, m=1)
    plain_structures = list(enumeration.enumerate_structures(spec))
    with tracing.Tracer() as tracer:
        traced = [cli_output(tmp_path, sweep, "c"), cli_output(tmp_path, ["analyze", fixture], "d")]
        traced_structures = list(enumeration.enumerate_structures(spec))
        assert enumeration.canonical_key is not before[("pogamma.enumeration", "canonical_key")]
    assert traced == plain
    assert traced_structures == plain_structures
    assert namespace_state() == before
    assert all(namespace_state()[k] is v for k, v in before.items())
    assert tracer.calls["enumeration.canonical_key"] > 0
    swept = json.loads(plain[0][1])["payload"]["structures"]
    assert tracer.yields["enumeration.enumerate_structures"] == swept + len(plain_structures)
    assert tracer.calls["theorems.check_prop2"] > 0
    # theorems imports setcalc names by value; those lookups are traced too
    assert tracer.calls["setcalc.regularity"] > 0


def test_tracer_restores_originals_after_an_exception():
    from pogamma import formats

    before = namespace_state()
    with pytest.raises(FileNotFoundError):
        with tracing.Tracer() as tracer:
            formats.load("/nonexistent/structure.json")
    assert all(namespace_state()[k] is v for k, v in before.items())
    assert tracer.errors["formats.load_named"] == 1


def test_self_times_partition_the_outermost_span(tmp_path):
    with tracing.Tracer() as tracer:
        cli_output(tmp_path, ["check", str(ROOT / "fixtures" / "min_chain.json")], "out")
    total = tracer.inclusive["cli.main"]
    assert sum(tracer.self_s.values()) == pytest.approx(total, rel=1e-6)
    assert tracer.inclusive["cli.build_parser"] > 0
    assert tracer.inclusive["formats.load"] >= tracer.self_s["formats.load"] > 0


def test_generators_are_timed_per_item():
    from pogamma import enumeration

    spec = enumeration.EnumSpec(n=2, m=1, canonical_only=False)
    with tracing.Tracer() as tracer:
        items = list(enumeration.enumerate_structures(spec))
    assert tracer.yields["enumeration.enumerate_structures"] == len(items)
    # one span per yielded item plus the exhausting call
    assert tracer.spans["enumeration.structures"] == len(items) + 1
    assert tracer.calls["enumeration.canonical_key"] == 0


def test_sweep_gate_rejects_a_tampered_digest():
    data = b'{"format": "pogamma.report/1", "kind": "sweep", "payload": ' \
           b'{"structures": 3, "product_without_cr": 0, "violations": []}}'
    pin = {"sha256": hashlib.sha256(data).hexdigest(), "structures": 3,
           "product_without_cr": 0, "violations": 0}
    assert sweeps.gate_report(0, data, pin) == []
    tampered = dict(pin, sha256="0" * 64)
    assert any("sha256" in p for p in sweeps.gate_report(0, data, tampered))
    assert any("exit code" in p for p in sweeps.gate_report(1, data, pin))
    assert sweeps.gate_report(0, None, pin) == ["no report written"]
    assert any("structures" in p for p in sweeps.gate_report(0, data, dict(pin, structures=4)))


def test_request_gate_rejects_tampered_digest_and_crashes():
    request = {"expect": [0, "abc123"]}
    ok = {"exc": None, "rc": 0, "digest": "abc123" + "0" * 58}
    assert reqmix.gate(request, ok) is None
    assert "sha256" in reqmix.gate(request, dict(ok, digest="f" * 64))
    assert "exit code" in reqmix.gate(request, dict(ok, rc=2))
    assert "uncaught" in reqmix.gate(request, dict(ok, rc=None, exc="UnicodeDecodeError: x"))
    assert reqmix.gate({"expect": [2, None]}, dict(ok, rc=2, digest=None)) is None
    assert "expected none" in reqmix.gate({"expect": [2, None]}, dict(ok, rc=2))


def test_only_the_known_nonutf8_crash_keeps_the_run_correct():
    crash = {"rc": None, "digest": None, "exc": "UnicodeDecodeError: 'utf-8' codec"}
    nonutf8, valid = {"category": "nonutf8", "expect": [2, None]}, \
        {"category": "v41", "expect": [0, "abc123"]}
    failures, incorrect = reqmix.tally([nonutf8], [crash])
    assert (failures, incorrect) == ({"nonutf8: uncaught UnicodeDecodeError": 1}, 0)
    # a crash on a valid input, or another crash on a non-UTF-8 one, is incorrect
    assert reqmix.tally([valid], [crash])[1] == 1
    assert reqmix.tally([nonutf8], [dict(crash, exc="KeyError: 'n'")])[1] == 1
    # so is a wrong exit code from a non-UTF-8 input that returned
    assert reqmix.tally([nonutf8], [dict(crash, rc=1, exc=None)])[1] == 1


def test_setup_is_timed_in_fresh_interpreters(tmp_path):
    samples = procs.measure_setup(ROOT, tmp_path, 2, repeats=3)
    assert len(samples) == 3
    pids = {pid for _, pid, _ in samples}
    assert len(pids) == 3 and os.getpid() not in pids
    assert not any(imported for _, _, imported in samples)
    assert all(seconds > 0 for seconds, _, _ in samples)


def test_request_generation_is_seeded_and_never_repeats_an_input():
    pins = run.load_pins()["requests"]
    pool = reqmix.load_pool(run.HERE / "pool.txt", pins)
    fixtures = ROOT / "fixtures"
    first = reqmix.make_requests(pool, fixtures, pins["fixtures"], 1)
    again = reqmix.make_requests(pool, fixtures, pins["fixtures"], 1)
    other = reqmix.make_requests(pool, fixtures, pins["fixtures"], 2)
    assert reqmix.inputs_digest(first) == reqmix.inputs_digest(again)
    assert reqmix.inputs_digest(first) != reqmix.inputs_digest(other)
    assert len(first) >= 1000 + len(reqmix.FIXTURES)
    pooled = [r["data"] for r in first if r["category"] in ("v41", "v32", "broken")]
    assert len(set(pooled)) == len(pooled)
    mix = dict(reqmix.batch_mix(pool))
    batch0 = [r["category"] for r in first if r["batch"] == 0]
    for kind, count in mix.items():
        assert batch0.count(kind) == count
    assert sum(mix.values()) == reqmix.BATCH_SIZE
    # the valid requests follow the pool sizes, so both pools are used evenly
    assert mix["v41"] / mix["v32"] == pytest.approx(len(pool["v41"]) / len(pool["v32"]), rel=0.05)
    shares = reqmix.exit_shares(first)
    assert shares["1"] == pytest.approx(0.85 / 4, abs=0.01)
    assert shares["2"] == pytest.approx(0.15, abs=0.01)


def test_request_inputs_digest_is_pinned():
    # a change to the pool or to input generation shows up here first
    pins = run.load_pins()["requests"]
    pool = reqmix.load_pool(run.HERE / "pool.txt", pins)
    requests = reqmix.make_requests(pool, ROOT / "fixtures", pins["fixtures"], 1, 3)
    assert len(requests) == 305
    assert reqmix.inputs_digest(requests) == PINNED_INPUTS_SHA256


def test_nonutf8_inputs_are_not_utf8_and_badjson_is_not_json():
    pins = run.load_pins()["requests"]
    pool = reqmix.load_pool(run.HERE / "pool.txt", pins)
    requests = reqmix.make_requests(pool, ROOT / "fixtures", pins["fixtures"], 7, 2)
    for r in requests:
        if r["category"] == "nonutf8":
            with pytest.raises(UnicodeDecodeError):
                r["data"].decode("utf-8")
        elif r["category"] == "badjson":
            with pytest.raises(json.JSONDecodeError):
                json.loads(r["data"])


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 0.99) == 99
    assert run.percentile(values, 0.5) == 50
    assert run.percentile([5.0], 0.99) == 5.0


def test_tail_keeps_ten_samples_beyond_it():
    assert run.tail(list(range(1, 1001))) == 990
    assert run.tail(list(range(1, 101))) == 90
    assert run.tail([3.0, 1.0, 2.0]) == 2.0
    assert run.tail([1.0, 2.0]) == 1.5   # never below the median


PINNED_INPUTS_SHA256 = "ebac760a17fb3ecdb3e433374e30acc1e69f4a69ee6ca8ee966e89bc5b7e445a"


def test_benchmark_json_lists_the_metrics_run_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_traced_profile_rebuilds_the_cli_report(tmp_path):
    case = sweeps.SweepCase(n=2, m=2, canonical=True, workers=2)
    run_, cli_data = sweeps.run_sweep(case, ROOT, tmp_path, "cli")
    parts, wall, data, trace = sweeps.profile(case, ROOT, tmp_path)
    pin = {"sha256": hashlib.sha256(cli_data).hexdigest(), "structures": 15,
           "product_without_cr": 0, "violations": 0, "partitions": [15, 0]}
    assert run_.returncode == 0
    assert sweeps.gate_profile(parts, data, cli_data, pin) == []
    assert data == cli_data
    assert trace["calls"]["enumeration.canonical_key"] > 0
    assert sweeps.gate_profile(parts, data, cli_data, dict(pin, partitions=[14, 1]))


def test_children_run_in_parallel_and_are_killed_on_timeout(tmp_path):
    env = procs.program_env(ROOT)
    quick = [sys.executable, "-c", "pass"]
    slow = [sys.executable, "-c", "import time; time.sleep(60)"]
    outputs = [(tmp_path / f"{i}.out", tmp_path / f"{i}.err") for i in range(3)]
    runs = procs.run_children([quick, slow, quick], env, outputs, 2, timeout=2)
    assert [r.returncode for r in runs] == [0, -9, 0]
    assert runs[1].wall_s < 30


def test_requests_run_prints_the_contract_line():
    done = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", "requests-mixed",
                           "--seed", "5", "--seconds", "0.5", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    *_, meta_line, last = done.stdout.splitlines()
    result, meta = json.loads(last), json.loads(meta_line.removeprefix("meta: "))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    # at the seed commit only the non-UTF-8 inputs fail, by crashing
    assert result["correct"]
    assert result["failed"] / result["attempted"] == meta["nonutf8_share"]
