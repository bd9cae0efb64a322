"""Structure files and report documents.

One JSON dialect serves both: every document carries a format tag, keys
appear in a fixed order, and serialization is byte-stable, so fixture
files round-trip exactly and machine reports can be diffed across runs.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import get_type_hints

from .enumeration import SweepReport, SweepViolation
from .model import (
    AXIOMS,
    GammaTables,
    OrderRelation,
    PoGammaSemigroup,
    ValidationReport,
    format_failure,
    validate_structure,
)
from .theorems import FORCED_VIOLATION_ID, THEOREM_IDS, CheckReport

STRUCTURE_FORMAT = "pogamma.structure/1"
REPORT_FORMAT = "pogamma.report/1"


class FormatError(ValueError):
    """The document cannot be parsed into a structure or report."""


class ValidationFailed(ValueError):
    """The document parsed but the structure breaks an axiom."""

    def __init__(self, message: str, report: ValidationReport):
        super().__init__(message)
        self.report = report


def _check_name(name) -> None:
    """A structure's name is a string that UTF-8 can encode: JSON can
    spell a lone surrogate ("\\ud800"), which no text output can write."""
    if not isinstance(name, str):
        raise FormatError("name must be a string")
    try:
        name.encode("utf-8")
    except UnicodeEncodeError as e:
        raise FormatError(f"name holds the lone surrogate {name[e.start]!r}") from e


def structure_to_doc(s: PoGammaSemigroup, name: str | None = None) -> dict:
    doc = {"format": STRUCTURE_FORMAT}
    if name is not None:
        _check_name(name)
        doc["name"] = name
    doc["n"] = s.n
    doc["m"] = s.m
    doc["tables"] = [[[int(v) for v in row] for row in table] for table in s.tables.op]
    doc["order"] = [[1 if v else 0 for v in row] for row in s.order.leq]
    return doc


def doc_to_structure(doc) -> tuple[PoGammaSemigroup, str | None]:
    if not isinstance(doc, dict):
        raise FormatError("structure document must be a JSON object")
    allowed = {"format", "name", "n", "m", "tables", "order"}
    for key in doc:
        if key not in allowed:
            raise FormatError(f"unknown key {key!r}")
    if doc.get("format") != STRUCTURE_FORMAT:
        raise FormatError(f"format tag must be {STRUCTURE_FORMAT!r}, got {doc.get('format')!r}")
    name = doc.get("name")
    if name is not None:
        _check_name(name)
    n = doc.get("n")
    m = doc.get("m")
    if type(n) is not int or n < 1:
        raise FormatError("n must be a positive integer")
    if type(m) is not int or m < 1:
        raise FormatError("m must be a positive integer")
    tables = doc.get("tables")
    if not isinstance(tables, list) or len(tables) != m:
        raise FormatError(f"tables must be a list of {m} tables")
    for g, table in enumerate(tables):
        if not isinstance(table, list) or len(table) != n:
            raise FormatError(f"tables[{g}] must have {n} rows")
        for a, row in enumerate(table):
            if not isinstance(row, list) or len(row) != n:
                raise FormatError(f"tables[{g}][{a}] must have {n} entries")
            for b, v in enumerate(row):
                if type(v) is not int or not 0 <= v < n:
                    raise FormatError(
                        f"tables[{g}][{a}][{b}] must be an integer in 0..{n - 1}, got {v!r}")
    order = doc.get("order")
    if not isinstance(order, list) or len(order) != n:
        raise FormatError(f"order must be a {n}x{n} matrix")
    for a, row in enumerate(order):
        if not isinstance(row, list) or len(row) != n:
            raise FormatError(f"order[{a}] must have {n} entries")
        for b, v in enumerate(row):
            if type(v) is not int or v not in (0, 1):
                raise FormatError(f"order[{a}][{b}] must be 0 or 1, got {v!r}")
    s = PoGammaSemigroup(
        tables=GammaTables(n=n, m=m,
                           op=tuple(tuple(tuple(row) for row in table) for table in tables)),
        order=OrderRelation(n=n, leq=tuple(tuple(bool(v) for v in row) for row in order)))
    return s, name


def _scalar(value) -> str:
    """json.dumps(value), with the common types written directly."""
    t = type(value)
    if t is str:
        return encode_basestring_ascii(value)
    if t is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return json.dumps(value)


def _render(value, pad: str) -> str:
    """value as machine JSON at the depth of pad, in one bottom-up pass.

    The layout rule: a non-empty dict breaks across lines, one key per
    line; a list holding no dict stays on one line when its ", "-joined
    form fits in 72 characters, and breaks one item per line otherwise.
    Items render first: a list stays on one line only if every item did
    and none is an empty dict, so its one-line form is their text joined.
    """
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        items = [f"{inner}{_scalar(k)}: {_render(v, inner)}" for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, list):
        inner = pad + "  "
        items = [_render(v, inner) for v in value]
        flat = "[" + ", ".join(items) + "]"
        if len(flat) <= 72 and "\n" not in flat and "{}" not in items:
            return flat
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    return _scalar(value)


def _dumps(doc: dict) -> str:
    return _render(doc, "") + "\n"


def serialize_structure(s: PoGammaSemigroup, name: str | None = None) -> str:
    return _dumps(structure_to_doc(s, name))


def save_structure(path, s: PoGammaSemigroup, name: str | None = None) -> None:
    Path(path).write_text(serialize_structure(s, name), encoding="utf-8")


def _unique_keys(pairs) -> dict:
    """A JSON object's dict; a repeated key, whose last value json would
    keep silently, is a FormatError."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise FormatError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def load_named(path) -> tuple[PoGammaSemigroup, str | None]:
    """Parse a structure file, then check every axiom before returning."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not valid UTF-8: {e}") from e
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except FormatError as e:
        raise FormatError(f"{path}: {e}") from e
    except ValueError as e:  # JSONDecodeError, or a number too long for int()
        raise FormatError(f"{path}: not valid JSON: {e}") from e
    except RecursionError as e:
        raise FormatError(f"{path}: JSON nested too deeply to parse") from e
    try:
        s, name = doc_to_structure(doc)
    except FormatError as e:
        raise FormatError(f"{path}: {e}") from e
    report = validate_structure(s)
    if not report.ok:
        raise ValidationFailed(
            f"{path}: axiom failure {format_failure(report.failures[0])} "
            f"({len(report.failures)} failure(s) total)", report)
    return s, name


def load(path) -> PoGammaSemigroup:
    return load_named(path)[0]


def _expect(value, kind, what):
    """value, once it is checked to be exactly of type kind."""
    if type(value) is not kind:
        raise FormatError(f"{what} must be of type {kind.__name__}, got {type(value).__name__}")
    return value


def _object(value, keys, what) -> dict:
    """value, once it is checked to be an object with exactly these keys."""
    if type(value) is not dict or set(value) != set(keys):
        raise FormatError(f"{what} must be an object with keys {', '.join(keys)}")
    return value


def _check_payload(r: CheckReport) -> dict:
    return {"theorem": r.theorem_id, "status": r.status,
            "witness": r.witness, "detail": r.detail}


def _payload_check(payload) -> CheckReport:
    p = _object(payload, ("theorem", "status", "witness", "detail"), "a check report")
    if p["theorem"] not in THEOREM_IDS + (FORCED_VIOLATION_ID,):
        raise FormatError(f"unknown theorem {p['theorem']!r}")
    if p["status"] not in ("pass", "violation"):
        raise FormatError(f"status must be 'pass' or 'violation', got {p['status']!r}")
    if p["witness"] is not None:
        _expect(p["witness"], dict, "witness")
    elif p["status"] == "violation":
        raise FormatError("a violation must carry a witness")
    return CheckReport(theorem_id=p["theorem"], status=p["status"],
                       witness=p["witness"], detail=_expect(p["detail"], str, "detail"))


def _payload_failure(f) -> tuple:
    """[axiom, witness] as a validator reports it: integers, but for
    compatibility's side and entry-range's value, any JSON scalar."""
    if type(f) is not list or len(f) != 2 or type(f[0]) is not str or f[0] not in AXIOMS:
        raise FormatError("each failure must be [axiom, witness], naming a validator's axiom")
    axiom, witness = f[0], _expect(f[1], list, "witness")
    numbers = witness[:-1] if axiom in ("compatibility", "entry-range") else witness
    if (len(witness) != AXIOMS[axiom] or any(type(v) is not int for v in numbers)
            or axiom == "compatibility" and witness[-1] not in ("left", "right")
            or axiom == "entry-range" and type(witness[-1]) in (list, dict)):
        raise FormatError(f"{witness!r} is not a witness of {axiom}")
    return axiom, tuple(witness)


def _violation_payload(v: SweepViolation) -> dict:
    return {"structure": structure_to_doc(v.structure), "report": _check_payload(v.report)}


def _payload_violation(payload) -> SweepViolation:
    p = _object(payload, ("structure", "report"), "a violation")
    return SweepViolation(structure=doc_to_structure(p["structure"])[0],
                          report=_payload_check(p["report"]))


# SweepReport field type -> (to payload, from payload with a name for errors)
_SWEEP_CODECS = {
    int: (lambda v: v, lambda v, what: _expect(v, int, what)),
    bool: (lambda v: v, lambda v, what: _expect(v, bool, what)),
    tuple[str, ...]: (list, lambda v, what: tuple(_expect(x, str, what)
                                                  for x in _expect(v, list, what))),
    list[PoGammaSemigroup]: (lambda v: [structure_to_doc(s) for s in v],
                             lambda v, what: [doc_to_structure(d)[0]
                                              for d in _expect(v, list, what)]),
    list[SweepViolation]: (lambda v: [_violation_payload(x) for x in v],
                           lambda v, what: [_payload_violation(d)
                                            for d in _expect(v, list, what)]),
}
_SWEEP_FIELDS = get_type_hints(SweepReport)


def report_to_doc(r) -> dict:
    """Wrap a validation, check, check list, or sweep result as a document."""
    if isinstance(r, ValidationReport):
        kind = "validation"
        payload = {"ok": r.ok,
                   "failures": [[name, list(wit)] for name, wit in r.failures]}
    elif isinstance(r, CheckReport):
        kind = "check"
        payload = _check_payload(r)
    elif isinstance(r, list) and all(isinstance(x, CheckReport) for x in r):
        kind = "checks"
        payload = {"reports": [_check_payload(x) for x in r]}
    elif isinstance(r, SweepReport):
        kind = "sweep"
        payload = {name: _SWEEP_CODECS[t][0](getattr(r, name))
                   for name, t in _SWEEP_FIELDS.items()}
    else:
        raise TypeError(f"cannot serialize report of type {type(r).__name__}")
    return {"format": REPORT_FORMAT, "kind": kind, "payload": payload}


def doc_to_report(doc):
    """Inverse of report_to_doc; a malformed document raises FormatError."""
    if not isinstance(doc, dict) or doc.get("format") != REPORT_FORMAT:
        raise FormatError(f"report documents need format tag {REPORT_FORMAT!r}")
    kind = doc.get("kind")
    payload = doc.get("payload")
    if kind == "validation":
        p = _object(payload, ("ok", "failures"), "a validation payload")
        _expect(p["ok"], bool, "ok")
        failures = [_payload_failure(f) for f in _expect(p["failures"], list, "failures")]
        if p["ok"] == bool(failures):
            raise FormatError("ok must be true exactly when there are no failures")
        return ValidationReport.from_failures(failures)
    if kind == "check":
        return _payload_check(payload)
    if kind == "checks":
        p = _object(payload, ("reports",), "a checks payload")
        return [_payload_check(r) for r in _expect(p["reports"], list, "reports")]
    if kind == "sweep":
        p = _object(payload, tuple(_SWEEP_FIELDS), "a sweep payload")
        r = SweepReport(**{name: _SWEEP_CODECS[t][1](p[name], name)
                           for name, t in _SWEEP_FIELDS.items()})
        counts = [getattr(r, name) for name, t in _SWEEP_FIELDS.items() if t is int]
        if min(r.n, r.m) < 1 or min(counts) < 0:
            raise FormatError("a sweep needs n and m of at least 1 and no negative tally")
        if not set(r.theorems) <= set(THEOREM_IDS):
            raise FormatError(f"unknown theorem among {list(r.theorems)!r}")
        return r
    raise FormatError(f"unknown report kind {kind!r}")


def serialize_report(r) -> str:
    return _dumps(report_to_doc(r))


def serialize_analysis(payload: dict) -> str:
    """An analyze payload as a report document of kind "analysis"."""
    return _dumps({"format": REPORT_FORMAT, "kind": "analysis", "payload": payload})
