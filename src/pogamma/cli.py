"""Command line surface: validate, analyze, check, and sweep.

Exit codes are part of the contract: 0 means every requested check
passed, 1 means some claim was violated, 2 means the input could not be
checked at all (unreadable, unparseable, axiom-breaking, or bad usage)
or the report could not be written to --out.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import formats, setcalc, theorems
from .enumeration import EnumSpec, sweep
from .formats import FormatError, ValidationFailed
from .model import ValidationReport
from .theorems import FORCED_VIOLATION_ID, THEOREM_IDS, CheckReport


class OutputError(Exception):
    """The report could not be written to the --out path."""


def _emit(text: str, out) -> None:
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as e:
            raise OutputError(f"cannot write {out}: {e.strerror or e}") from e
    else:
        sys.stdout.write(text)


def _fmt_set(members) -> str:
    return "{" + ", ".join(str(x) for x in sorted(members)) + "}"


def cmd_validate(args) -> int:
    try:
        s, name = formats.load_named(args.path)
    except ValidationFailed as e:
        print(f"error: {e}", file=sys.stderr)
        if args.format == "machine":
            _emit(formats.serialize_report(e.report), args.out)
        return 2
    if args.format == "machine":
        # load_named has validated s, so its report has no failures
        _emit(formats.serialize_report(ValidationReport.from_failures(())), args.out)
    else:
        label = f"{name} " if name else ""
        _emit(f"ok: {label}(n={s.n}, m={s.m}) satisfies all axioms\n", args.out)
    return 0


def _analysis_payload(s, name) -> dict:
    elements = []
    for a in range(s.n):
        row = {"element": a}
        for kind in setcalc.REGULARITY_KINDS:
            w = setcalc.regularity(s, a, kind)
            row[kind.replace("-", "_")] = None if w is None else list(w.data)
        elements.append(row)
    o = setcalc._facts(s)
    semiprime_failure = o.table.semiprime_failure
    bi_ideals = [{"members": setcalc._members(b), "semiprime": semiprime_failure(b) is None}
                 for b in o.bi_ideals]
    generated = [{"element": a, "bi_ideal": setcalc._members(b)}
                 for a, b in enumerate(o.principal)]
    payload = {}
    if name is not None:
        payload["name"] = name
    payload.update({
        "n": s.n, "m": s.m,
        "completely_regular": all(row["completely_regular"] is not None for row in elements),
        "strongly_regular": all(row["strongly_regular"] is not None for row in elements),
        "elements": elements,
        "bi_ideals": bi_ideals,
        "generated": generated,
    })
    return payload


def _analysis_text(payload) -> str:
    lines = []
    label = f"{payload['name']} " if "name" in payload else ""
    lines.append(f"structure: {label}(n={payload['n']}, m={payload['m']})")
    lines.append(f"completely regular: {'yes' if payload['completely_regular'] else 'no'}")
    lines.append(f"strongly regular: {'yes' if payload['strongly_regular'] else 'no'}")
    lines.append("elements:")
    for row in payload["elements"]:
        parts = []
        for kind in setcalc.REGULARITY_KINDS:
            w = row[kind.replace("-", "_")]
            shown = "none" if w is None else "(" + ", ".join(str(v) for v in w) + ")"
            parts.append(f"{kind}={shown}")
        lines.append(f"  {row['element']}: " + " ".join(parts))
    lines.append("bi-ideals:")
    for entry in payload["bi_ideals"]:
        flag = "yes" if entry["semiprime"] else "no"
        lines.append(f"  {_fmt_set(entry['members'])}: semiprime={flag}")
    lines.append("generated:")
    for entry in payload["generated"]:
        lines.append(f"  B({entry['element']}) = {_fmt_set(entry['bi_ideal'])}")
    return "\n".join(lines) + "\n"


def cmd_analyze(args) -> int:
    s, name = formats.load_named(args.path)
    payload = _analysis_payload(s, name)
    if args.format == "machine":
        _emit(formats.serialize_analysis(payload), args.out)
    else:
        _emit(_analysis_text(payload), args.out)
    return 0


def _check_text(reports) -> str:
    lines = []
    for r in reports:
        if r.status == "pass":
            lines.append(f"{r.theorem_id}: pass")
        else:
            lines.append(f"{r.theorem_id}: VIOLATION {r.witness} ({r.detail})")
    return "\n".join(lines) + "\n"


def cmd_check(args) -> int:
    s, _ = formats.load_named(args.path)
    ids = THEOREM_IDS if args.theorem == "all" else (args.theorem,)
    reports = theorems.run_selected(s, ids)
    if args.force_violation:
        reports = reports + [CheckReport(
            theorem_id=FORCED_VIOLATION_ID, status="violation",
            witness={"forced": True},
            detail="synthetic violation requested with --force-violation")]
    if args.format == "machine":
        _emit(formats.serialize_report(reports), args.out)
    else:
        _emit(_check_text(reports), args.out)
    return 1 if any(r.status == "violation" for r in reports) else 0


def _sweep_text(report) -> str:
    lines = [
        f"sweep n={report.n} m={report.m} canonical={'yes' if report.canonical else 'no'}",
        f"structures: {report.structures}",
        f"regular: {report.regular_structures}",
        f"completely regular: {report.completely_regular_structures}",
        f"strongly regular: {report.strongly_regular_structures}",
        f"product property: {report.product_property_structures}",
        f"product property without complete regularity: {report.product_without_cr}",
        f"violations: {len(report.violations)}",
    ]
    for v in report.violations:
        lines.append(f"  {v.report.theorem_id}: {v.report.witness} ({v.report.detail})")
        lines.append(f"    structure: {formats.structure_to_doc(v.structure)}")
    return "\n".join(lines) + "\n"


def cmd_sweep(args) -> int:
    if args.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return 2
    spec = EnumSpec(n=args.n, m=args.m, canonical_only=args.canonical)
    ids = THEOREM_IDS if args.theorem == "all" else (args.theorem,)
    try:
        report = sweep(spec, theorem_ids=ids, workers=args.workers)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.format == "machine":
        _emit(formats.serialize_report(report), args.out)
    else:
        _emit(_sweep_text(report), args.out)
    return 1 if report.violations else 0


COMMANDS = ("validate", "analyze", "check", "sweep")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser.  With no command, the full tree: the top level
    and every subcommand.  Given a command, that subcommand's parser
    alone, with the prog, arguments and help it has in the tree."""
    if command is None:
        parser = argparse.ArgumentParser(
            prog="pogamma",
            description="Workbench for finite ordered Gamma-semigroups.")
        sub = parser.add_subparsers(dest="command", required=True)
    else:
        parser = argparse.ArgumentParser(prog=f"pogamma {command}")

    def add(name, help, func):
        if command in (None, name):
            p = sub.add_parser(name, help=help) if command is None else parser
            p.set_defaults(func=func)
            return p

    def common(p):
        p.add_argument("--format", choices=("text", "machine"), default="text",
                       help="text for humans, machine for stable JSON")
        p.add_argument("--out", metavar="PATH", default=None,
                       help="write the report here instead of stdout")

    if p := add("validate", "check every axiom of a structure file", cmd_validate):
        p.add_argument("path")
        common(p)

    if p := add("analyze", "witnesses, bi-ideals, and flags for one structure", cmd_analyze):
        p.add_argument("path")
        common(p)

    if p := add("check", "run claim checkers against a structure file", cmd_check):
        p.add_argument("path")
        p.add_argument("--theorem", choices=THEOREM_IDS + ("all",), default="all")
        p.add_argument("--force-violation", action="store_true",
                       help="testing aid: append a synthetic violation to exercise exit code 1")
        common(p)

    if p := add("sweep", "enumerate structures and check claims on each", cmd_sweep):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--theorem", choices=THEOREM_IDS + ("all",), default="all")
        p.add_argument("--canonical", action="store_true",
                       help="keep one representative per isomorphism class")
        p.add_argument("--workers", type=int, default=1)
        common(p)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv else None
    try:
        # alone, a command's parser parses the tokens after its name as it
        # does nested in the tree; the full tree prints top-level help and
        # errors, and reports what the command's parser leaves unrecognized
        if command in COMMANDS:
            args, extras = build_parser(command).parse_known_args(argv[1:])
        if command not in COMMANDS or extras:
            args = build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.func(args)
    except (OutputError, FormatError, ValidationFailed, setcalc.StructureTooLarge, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
