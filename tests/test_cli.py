"""Command line contract: output shapes, exit codes, and byte stability."""

import argparse
import hashlib
import importlib.util
import json
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_DIR, REPO_ROOT, make_min_chain
from pogamma import cli, enumeration, formats
from pogamma.cli import main
from pogamma.enumeration import SweepViolation, sweep
from pogamma.formats import REPORT_FORMAT, STRUCTURE_FORMAT, doc_to_report
from pogamma.model import validate_structure
from pogamma.setcalc import MAX_TABLE_ELEMENTS
from pogamma.theorems import THEOREM_IDS, CheckReport
from test_formats import _mutated

MIN_CHAIN = str(FIXTURE_DIR / "min_chain.json")
NULL_TABLE = str(FIXTURE_DIR / "null_table.json")


def test_validate_text_ok(capsys):
    assert main(["validate", MIN_CHAIN]) == 0
    out = capsys.readouterr().out
    assert out == "ok: min-chain (n=2, m=1) satisfies all axioms\n"


def test_validate_machine_ok(capsys):
    assert main(["validate", MIN_CHAIN, "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format"] == REPORT_FORMAT
    assert doc["kind"] == "validation"
    assert doc["payload"] == {"ok": True, "failures": []}


def test_validate_machine_validates_once(monkeypatch, capsys):
    calls = []

    def counted(s):
        calls.append(s)
        return validate_structure(s)

    monkeypatch.setattr(formats, "validate_structure", counted)
    assert main(["validate", MIN_CHAIN, "--format", "machine"]) == 0
    assert json.loads(capsys.readouterr().out)["payload"] == {"ok": True, "failures": []}
    assert len(calls) == 1


def test_validate_missing_file(capsys):
    assert main(["validate", str(FIXTURE_DIR / "absent.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_validate_malformed_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_validate_axiom_failure(tmp_path, capsys):
    doc = {"format": STRUCTURE_FORMAT, "n": 2, "m": 1,
           "tables": [[[1, 1], [0, 0]]], "order": [[1, 1], [0, 1]]}
    path = tmp_path / "flip.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert "gamma-associativity" in capsys.readouterr().err


def test_validate_axiom_failure_machine_report(tmp_path, capsys):
    doc = {"format": STRUCTURE_FORMAT, "n": 2, "m": 1,
           "tables": [[[1, 1], [0, 0]]], "order": [[1, 1], [0, 1]]}
    path = tmp_path / "flip.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path), "--format", "machine"]) == 2
    captured = capsys.readouterr()
    report = doc_to_report(json.loads(captured.out))
    assert not report.ok
    assert report.failures[0][0] == "gamma-associativity"


# (file content, expected stderr fragment)
LATIN1 = (b'{"format": "pogamma.structure/1", "name": "caf\xe9"}', "not valid UTF-8")
DEEP = (b"[" * 200_000, "nested too deeply")
# past the int() digit limit; also unterminated for Pythons without one
LONG_NUMBER = (b'{"n": ' + b"9" * 5000, "not valid JSON")
# json would keep the last n silently
REPEATED_KEY = (f'{{"format": "{STRUCTURE_FORMAT}", "n": 1, "n": 1, "m": 1, '
                '"tables": [[[0]]], "order": [[1]]}'.encode(), "duplicate key 'n'")
AXIOM_BREAKING = (json.dumps({"format": STRUCTURE_FORMAT, "n": 2, "m": 1,
                              "tables": [[[1, 1], [0, 0]]], "order": [[1, 1], [0, 1]]}).encode(),
                  "axiom failure")


LOADING_COMMANDS = ("validate", "check", "analyze")


@pytest.mark.parametrize("command,content", [
    *(pytest.param(c, LATIN1, id=c) for c in LOADING_COMMANDS),
    *(pytest.param(c, DEEP, id=f"{c}-deep") for c in LOADING_COMMANDS),
    *(pytest.param(c, LONG_NUMBER, id=f"{c}-long-number") for c in LOADING_COMMANDS),
    *(pytest.param(c, REPEATED_KEY, id=f"{c}-repeated-key") for c in LOADING_COMMANDS),
    # validate --format machine writes the validation report of such a file
    *(pytest.param(c, AXIOM_BREAKING, id=f"{c}-axioms") for c in ("check", "analyze")),
])
def test_non_utf8_input_exits_2_without_output(command, content, tmp_path, capsys):
    """Input that cannot be checked is an `error:` line and exit 2."""
    data, message = content
    path = tmp_path / "input.json"
    path.write_bytes(data)
    out_path = tmp_path / "report.json"
    assert main([command, str(path), "--format", "machine", "--out", str(out_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert message in err
    assert not out_path.exists()


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("command", LOADING_COMMANDS)
def test_a_name_with_a_lone_surrogate_exits_2(command, fmt, to_file, tmp_path, capsys):
    # valid UTF-8 on disk, but no text output can encode the name it spells
    path = tmp_path / "input.json"
    path.write_text(f'{{"format": "{STRUCTURE_FORMAT}", "name": "\\ud800", "n": 1, "m": 1, '
                    '"tables": [[[0]]], "order": [[1]]}', encoding="utf-8")
    out_path = tmp_path / "report.txt"
    argv = [command, str(path), "--format", fmt] + (["--out", str(out_path)] if to_file else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "lone surrogate" in captured.err
    assert captured.out == ""
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--n", "1", "--m", "1"],
    ["check", MIN_CHAIN],
])
def test_out_into_missing_directory_exits_2(argv, tmp_path, capsys):
    out_path = tmp_path / "absent" / "report.json"
    assert main(argv + ["--format", "machine", "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write")
    assert captured.out == ""
    assert not out_path.exists()


def test_analyze_text(capsys):
    assert main(["analyze", NULL_TABLE]) == 0
    out = capsys.readouterr().out
    assert "structure: null-table (n=2, m=1)" in out
    assert "completely regular: no" in out
    assert "strongly regular: no" in out
    assert "  0: regular=(0, 0, 0)" in out
    assert ("  1: regular=none left-regular=none right-regular=none "
            "completely-regular=none strongly-regular=none") in out
    assert "  {0}: semiprime=no" in out
    assert "  {0, 1}: semiprime=yes" in out
    assert "  B(0) = {0}" in out
    assert "  B(1) = {0, 1}" in out


def test_analyze_machine_is_byte_stable(capsys):
    assert main(["analyze", NULL_TABLE, "--format", "machine"]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", NULL_TABLE, "--format", "machine"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["kind"] == "analysis"
    payload = doc["payload"]
    assert payload["name"] == "null-table"
    assert payload["completely_regular"] is False
    assert payload["bi_ideals"] == [{"members": [0], "semiprime": False},
                                    {"members": [0, 1], "semiprime": True}]
    assert payload["generated"] == [{"element": 0, "bi_ideal": [0]},
                                    {"element": 1, "bi_ideal": [0, 1]}]


# sha256 of `<command> <fixture> --format machine` on stdout; any change
# to a single-structure machine report must change these on purpose
MACHINE_SHA256 = {
    ("analyze", "left_zero.json"): "d7626d696a48abdd573256aff0c0ca6683a8f9ed0d1258d88241c5834dc3fda1",
    ("check", "left_zero.json"): "6fe526a97d16defa540fcf10e2caf9588fe43e9eb53f9648bd7f837af6a22acd",
    ("validate", "left_zero.json"): "40dc57eb9882033611f7f075cb21ae48a96a629660c406f0f28dd57e96996a4a",
    ("analyze", "min_chain.json"): "4b1af99c99fa73b161e973e1226ede3363a0eb55718371e1f0b8338e045efa6e",
    ("check", "min_chain.json"): "6fe526a97d16defa540fcf10e2caf9588fe43e9eb53f9648bd7f837af6a22acd",
    ("validate", "min_chain.json"): "40dc57eb9882033611f7f075cb21ae48a96a629660c406f0f28dd57e96996a4a",
    ("analyze", "null_table.json"): "6c644a3e1f24397f255a13726f5336d86d0db489f2e6e6c3e911d6ffb4ddbbb2",
    ("check", "null_table.json"): "daf93c6bedbb506d496c3f4fa273998413d7113207dbef6f3ce76d27180eff66",
    ("validate", "null_table.json"): "40dc57eb9882033611f7f075cb21ae48a96a629660c406f0f28dd57e96996a4a",
    ("analyze", "one_element.json"): "6c0b3f52faebbe674686f5ed80f3a89c8416655ee45435a3a0e4aeecb588aac0",
    ("check", "one_element.json"): "6fe526a97d16defa540fcf10e2caf9588fe43e9eb53f9648bd7f837af6a22acd",
    ("validate", "one_element.json"): "40dc57eb9882033611f7f075cb21ae48a96a629660c406f0f28dd57e96996a4a",
    ("analyze", "product_gap.json"): "0bf9ac05067e813df6be733816bd5c9b75162ee56b301130980eed3634d1582d",
    ("check", "product_gap.json"): "382d2f551f2d1333f4f0ab056a8f34442ceb968ef202588dda07d94b44453cd0",
    ("validate", "product_gap.json"): "40dc57eb9882033611f7f075cb21ae48a96a629660c406f0f28dd57e96996a4a",
}


# sha256 of `sweep <args> --format machine` on stdout; any change to a
# sweep's machine report must change these on purpose
SWEEP_SHA256 = {
    "--n 3 --m 2": "444f4826980b5355b4589d84b886975c8c6044e6fc04f2b05137e772b9beef7d",
    "--n 3 --m 2 --canonical": "3e878331cf2f24cb45c9b454db243329050704b4ab6a1c28f4a16a3dbb9456cb",
    "--n 3 --m 3 --canonical": "e483e7c1bfcfa15f259ca64633f61244b7db8c18ca3742321652a61c6e9e25ac",
    # the widest relabeling lists the guards admit: 2! 6! = 1,440 and 8! = 40,320
    "--n 2 --m 6 --canonical": "e1f6c43dae8fb546fe1122a940b3c5ad7a54be30ae18a54e350eae4184880f85",
    "--n 1 --m 8 --canonical": "72c68a403873aaeb9dde8eb35684f47b73506a8e5824a04006639a10477308d5",
    "--n 2 --m 6": "72afdd5ab5cc7fed7fe846c812b51dfd57e52461ba69186d8efde7d49b17bd1f",
    "--n 1 --m 8": "de6dd2971229fa44dd33b9b117bc6c33c27c5a8669aafe0fd28e9f5bc5fc0639",
    # sizes past the cell guard that preceded MAX_LETTERS
    "--n 3 --m 4 --canonical": "64571cd2f4ed79fafe6d45d10829911719d0f22fbf0c17b2646c73677ed733d2",
    "--n 3 --m 4": "6a147845d20fe75b771661805c6004ac4f250ac5066baad8d10afef9f655bd2e",
    "--n 4 --m 2 --canonical": "4f749a2e78369b67eee1dbee75bfe16fbe73375e8bbf9193836df7043ed997b5",
    "--n 4 --m 2": "b359d0139c0307eead6e7686c018375498ed5b993ca04f397383cbc0f372da4e",
}


@pytest.mark.parametrize("args", sorted(SWEEP_SHA256))
def test_sweep_machine_reports_are_pinned(args, capsys):
    assert main(["sweep", *args.split(), "--format", "machine"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SWEEP_SHA256[args]


@pytest.mark.parametrize("command,fixture", sorted(MACHINE_SHA256))
def test_single_structure_machine_reports_are_pinned(command, fixture, capsys):
    assert main([command, str(FIXTURE_DIR / fixture), "--format", "machine"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == MACHINE_SHA256[command, fixture]


def test_check_all_pass(capsys):
    assert main(["check", MIN_CHAIN]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{tid}: pass" for tid in THEOREM_IDS]


def test_check_single_theorem(capsys):
    assert main(["check", MIN_CHAIN, "--theorem", "thm9"]) == 0
    assert capsys.readouterr().out == "thm9: pass\n"


def test_check_machine_round_trip(capsys):
    assert main(["check", MIN_CHAIN, "--format", "machine"]) == 0
    reports = doc_to_report(json.loads(capsys.readouterr().out))
    assert [r.theorem_id for r in reports] == list(THEOREM_IDS)
    assert all(r.status == "pass" for r in reports)


def test_check_force_violation_exits_1(capsys):
    assert main(["check", MIN_CHAIN, "--force-violation"]) == 1
    out = capsys.readouterr().out
    assert "forced-violation: VIOLATION" in out
    assert "synthetic violation" in out


def test_check_force_violation_machine_output_parses(capsys):
    assert main(["check", MIN_CHAIN, "--force-violation", "--format", "machine"]) == 1
    reports = doc_to_report(json.loads(capsys.readouterr().out))
    assert [r.theorem_id for r in reports] == [*THEOREM_IDS, "forced-violation"]
    assert reports[-1].status == "violation" and reports[-1].witness == {"forced": True}


def test_check_rejects_unknown_theorem(capsys):
    assert main(["check", MIN_CHAIN, "--theorem", "lemma3"]) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_check_axiom_breaking_input(tmp_path, capsys):
    doc = {"format": STRUCTURE_FORMAT, "n": 2, "m": 1,
           "tables": [[[1, 1], [0, 0]]], "order": [[1, 1], [0, 1]]}
    path = tmp_path / "flip.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check", str(path)]) == 2
    capsys.readouterr()


def test_structures_past_the_table_limit_exit_2(tmp_path, capsys):
    n = MAX_TABLE_ELEMENTS + 1
    doc = {"format": STRUCTURE_FORMAT, "n": n, "m": 1, "tables": [[[0] * n] * n],
           "order": [[int(a == b) for b in range(n)] for a in range(n)]}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    path = str(path)
    for argv in (["check", path], ["analyze", path], ["check", path, "--format", "machine"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and f"{MAX_TABLE_ELEMENTS}-element" in captured.err
    # validation and the table-free checker run at any size
    assert main(["validate", path]) == 0
    assert main(["check", path, "--theorem", "prop3"]) == 0
    assert capsys.readouterr().out.endswith("prop3: pass\n")


# -- the exit-code contract over file content and flag mixes -----------------

_FIXTURE_BYTES = [p.read_bytes() for p in sorted(FIXTURE_DIR.glob("*.json"))]
_CONTENT = st.one_of(
    st.sampled_from(_FIXTURE_BYTES),
    st.sampled_from([json.loads(b) for b in _FIXTURE_BYTES]).flatmap(_mutated).map(
        lambda doc: json.dumps(doc).encode("utf-8")),
    st.binary(max_size=64),
)
_FORMAT = st.sampled_from([[], ["--format", "text"], ["--format", "machine"]])
_ARGS = st.one_of(
    st.tuples(st.sampled_from(["validate", "analyze"]), _FORMAT).map(lambda c: [c[0], *c[1]]),
    st.tuples(st.sampled_from([[]] + [["--theorem", t] for t in THEOREM_IDS + ("all",)]),
              st.sampled_from([[], ["--force-violation"]]), _FORMAT).map(
        lambda c: ["check", *c[0], *c[1], *c[2]]),
)


def _shows_violation(args, out) -> bool:
    """Whether stdout reports a violated claim: a VIOLATION line of check's
    text output, or a violation status in its machine report."""
    if args[0] != "check" or not out:
        return False
    if "machine" in args:
        return any(r["status"] == "violation" for r in json.loads(out)["payload"]["reports"])
    return any(line.split(": ", 1)[1].startswith("VIOLATION") for line in out.splitlines())


@given(content=_CONTENT, args=_ARGS)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_exit_code_is_1_exactly_when_a_violation_is_shown(tmp_path, capsys, content, args):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code = main([args[0], str(path), *args[1:]])
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    assert (code == 1) == _shows_violation(args, captured.out)
    assert "Traceback" not in captured.err


def test_sweep_text(capsys):
    assert main(["sweep", "--n", "2", "--m", "1", "--canonical"]) == 0
    out = capsys.readouterr().out
    assert "sweep n=2 m=1 canonical=yes" in out
    assert "structures: 11" in out
    assert "violations: 0" in out


def test_sweep_machine_to_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert main(["sweep", "--n", "2", "--m", "1", "--canonical",
                 "--format", "machine", "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["kind"] == "sweep"
    assert doc["payload"]["structures"] == 11
    assert doc["payload"]["violations"] == []


def test_sweep_worker_counts_agree_byte_for_byte(tmp_path, capsys):
    paths = []
    for workers in ("1", "2"):
        path = tmp_path / f"w{workers}.json"
        rc = main(["sweep", "--n", "2", "--m", "2", "--canonical",
                   "--format", "machine", "--workers", workers, "--out", str(path)])
        assert rc == 0
        paths.append(path)
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_sweep_guard_exits_2(capsys):
    assert main(["sweep", "--n", "5", "--m", "2"]) == 2
    assert "desk-scale" in capsys.readouterr().err


def test_sweep_guard_refuses_a_relabeling_list_past_its_bound(monkeypatch, capsys):
    # the canonical walk would list all n! m! relabelings, 12! at (1, 12);
    # the guard refuses from its letter cap alone, before any is listed and
    # without computing n! m!, which at m = 3,000,000 alone takes a minute
    def refuse(n, m):
        raise AssertionError(f"{n}! {m}! relabelings listed")

    monkeypatch.setattr(enumeration, "_relabelings", refuse)
    for argv in (["--n", "1", "--m", "12"], ["--n", "1", "--m", "3000000"],
                 ["--n", "1000000", "--m", "1", "--canonical"]):
        started = time.perf_counter()
        assert main(["sweep", *argv]) == 2
        assert time.perf_counter() - started < 1
        err = capsys.readouterr().err
        assert "desk-scale" in err and "n=1, m=8, n=2, m=7" in err


def test_sweep_rejects_bad_worker_count(capsys):
    assert main(["sweep", "--n", "2", "--m", "1", "--workers", "0"]) == 2
    assert "--workers" in capsys.readouterr().err


def _run_sweep_script():
    path = REPO_ROOT / "scripts" / "run_sweep.py"
    spec = importlib.util.spec_from_file_location("run_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("violated", [False, True])
def test_run_sweep_exit_code_follows_the_contract(monkeypatch, capsys, violated):
    script = _run_sweep_script()

    def one_sweep(spec, workers):
        report = sweep(spec, workers=workers)
        if violated:
            report.violations.append(SweepViolation(
                make_min_chain(), CheckReport("prop4", "violation", {"element": 0}, "synthetic")))
        return report

    monkeypatch.setattr(script, "COMBOS", ((2, 1),))
    monkeypatch.setattr(script, "sweep", one_sweep)
    monkeypatch.setattr(sys, "argv", ["run_sweep.py"])
    assert script.main() == (1 if violated else 0)
    assert f"{int(violated)} violations" in capsys.readouterr().out


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "pogamma", "validate", MIN_CHAIN],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("ok: min-chain")


def test_importing_the_cli_leaves_out_multiprocessing():
    # only a sweep that starts a pool imports it
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, pogamma.cli; print('multiprocessing' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def _through_the_full_tree(argv) -> int:
    """The oracle of main's parse: argv through the full tree alone."""
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.func(args)
    except OSError as e:   # a path that names no file, as main reports it
        print(f"error: {e}", file=sys.stderr)
        return 2


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help", "check"], ["-h", "validate"], ["bogus"], ["bogus", "check"],
    ["validate", "-h"], ["analyze", "--help"], ["check", "-h"], ["sweep", "-h"],
    ["check"], ["sweep", "--n", "1"], ["check", MIN_CHAIN, "--theorem", "nope"],
    ["check", MIN_CHAIN, "--the", "thm9"], ["check", MIN_CHAIN, "--force-violation"],
    ["validate", MIN_CHAIN, "--theorem", "prop2"], ["--x", "check", MIN_CHAIN],
    ["--", "analyze", MIN_CHAIN], ["validate", "check"], ["check", "validate"],
    ["sweep", "--n", "2", "--m", "1", "--workers", "0"], ["sweep", "--n", "1", "--m", "1"],
    ["check", "--", MIN_CHAIN], ["check", MIN_CHAIN, "--"],
    ["validate", MIN_CHAIN, "--", "--out"], ["check", MIN_CHAIN, "--format=machine"],
    ["check", MIN_CHAIN, "extra"], ["analyze", MIN_CHAIN, "--fo", "machine"],
    ["check", "-h", "--bogus"], ["sweep", "--n", "2", "--m", "1", "--n", "1"],
])
def test_parser_for_one_command_behaves_as_the_full_parser(argv, capsys):
    # main parses with the command's parser alone where it can
    argv = [*argv, "--format", "machine"] if MIN_CHAIN in argv else argv
    seen = []
    for run in (main, _through_the_full_tree):
        seen.append((run(argv), capsys.readouterr()))
    assert seen[0] == seen[1]


def test_usage_error_without_arguments_is_pinned(capsys):
    assert main([]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("usage: pogamma [-h] {validate,analyze,check,sweep} ...\n"
                            "pogamma: error: the following arguments are required: command\n")


# the top level and one parser per subcommand
FULL_TREE = ["pogamma", *(f"pogamma {c}" for c in cli.COMMANDS)]


@pytest.mark.parametrize("argv,progs", [
    (["validate", MIN_CHAIN], ["pogamma validate"]), (["analyze", MIN_CHAIN], ["pogamma analyze"]),
    (["check", MIN_CHAIN], ["pogamma check"]), (["sweep", "--n", "1", "--m", "1"], ["pogamma sweep"]),
    ([], FULL_TREE), (["-h"], FULL_TREE), (["bogus"], FULL_TREE),
])
def test_a_request_builds_one_parser(argv, progs, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    main(argv)
    capsys.readouterr()
    assert built == progs


def test_each_call_loads_and_builds_its_own_facts(monkeypatch, capsys):
    # main keeps nothing across calls
    from pogamma import setcalc
    built = []

    class CountedTables(setcalc._TableFacts):
        def __init__(self, tables):
            built.append("table")
            super().__init__(tables)

    class CountedOrders(setcalc._OrderFacts):
        def __init__(self, table, order):
            built.append("structure")
            super().__init__(table, order)

    def counted(s):
        built.append("validate")
        return validate_structure(s)

    monkeypatch.setattr(formats, "validate_structure", counted)
    monkeypatch.setattr(setcalc, "_TableFacts", CountedTables)
    monkeypatch.setattr(setcalc, "_OrderFacts", CountedOrders)
    for _ in range(2):
        assert main(["check", MIN_CHAIN, "--format", "machine"]) == 0
    capsys.readouterr()
    assert sorted(built) == ["structure"] * 2 + ["table"] * 2 + ["validate"] * 2
