"""File dialect: byte-stable serialization, strict parsing, and report docs."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_DIR, FIXTURE_FILES, make_min_chain, make_null_table, structure_pool, table_pool
from pogamma import formats
from pogamma.enumeration import EnumSpec, SweepReport, SweepViolation, all_partial_orders, sweep
from pogamma.formats import (
    REPORT_FORMAT,
    STRUCTURE_FORMAT,
    FormatError,
    ValidationFailed,
    doc_to_report,
    doc_to_structure,
    load,
    load_named,
    report_to_doc,
    save_structure,
    serialize_report,
    serialize_structure,
    structure_to_doc,
)
from pogamma.model import PoGammaSemigroup, ValidationReport, validate_compatibility, validate_structure
from pogamma.theorems import CheckReport, run_all


def test_fixture_files_round_trip_byte_for_byte():
    for fname, (name, build) in FIXTURE_FILES.items():
        path = FIXTURE_DIR / fname
        text = path.read_text(encoding="utf-8")
        s, loaded_name = load_named(path)
        assert loaded_name == name
        assert s == build()
        assert serialize_structure(s, loaded_name) == text


def test_load_drops_the_name():
    s = load(FIXTURE_DIR / "min_chain.json")
    assert s == make_min_chain()


def test_serialization_is_deterministic():
    s = make_null_table()
    assert serialize_structure(s, "null-table") == serialize_structure(s, "null-table")
    assert serialize_structure(s) != serialize_structure(s, "null-table")


def test_structure_doc_key_order():
    doc = structure_to_doc(make_min_chain(), "min-chain")
    assert list(doc) == ["format", "name", "n", "m", "tables", "order"]
    doc = structure_to_doc(make_min_chain())
    assert list(doc) == ["format", "n", "m", "tables", "order"]
    assert doc["format"] == STRUCTURE_FORMAT


def test_enumerated_structures_round_trip(tmp_path):
    for i, s in enumerate(structure_pool(2, 2)):
        path = tmp_path / f"s{i}.json"
        save_structure(path, s, name=f"s{i}")
        back, name = load_named(path)
        assert back == s
        assert name == f"s{i}"


def test_malformed_json_is_a_format_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(FormatError, match="not valid JSON"):
        load(path)


@pytest.mark.parametrize("text,key", [
    ('{"format": "%s", "n": 1, "n": 1, "m": 1, "tables": [[[0]]], "order": [[1]]}', "n"),
    ('{"format": "%s", "name": {"a": 1, "a": 1}, "n": 1, "m": 1, "tables": [[[0]]], '
     '"order": [[1]]}', "a"),
])
def test_repeated_key_is_a_format_error(text, key, tmp_path):
    # json keeps a repeated key's last value silently; the loader refuses it
    path = tmp_path / "repeated.json"
    path.write_text(text % STRUCTURE_FORMAT, encoding="utf-8")
    with pytest.raises(FormatError, match=f"duplicate key '{key}'"):
        load_named(path)


@pytest.mark.parametrize("doc,fragment", [
    ([1, 2], "JSON object"),
    ({"format": "something/9"}, "format tag"),
    ({"format": STRUCTURE_FORMAT, "n": 1, "m": 1,
      "tables": [[[0]]], "order": [[1]], "extra": 0}, "unknown key"),
    ({"format": STRUCTURE_FORMAT, "name": 3, "n": 1, "m": 1,
      "tables": [[[0]]], "order": [[1]]}, "name"),
    ({"format": STRUCTURE_FORMAT, "n": 0, "m": 1, "tables": [], "order": []}, "n must be"),
    ({"format": STRUCTURE_FORMAT, "n": "2", "m": 1,
      "tables": [[[0, 0], [0, 0]]], "order": [[1, 0], [0, 1]]}, "n must be"),
    ({"format": STRUCTURE_FORMAT, "n": 1, "m": 2, "tables": [[[0]]], "order": [[1]]},
     "list of 2 tables"),
    ({"format": STRUCTURE_FORMAT, "n": 2, "m": 1,
      "tables": [[[0, 0]]], "order": [[1, 0], [0, 1]]}, "2 rows"),
    ({"format": STRUCTURE_FORMAT, "n": 2, "m": 1,
      "tables": [[[0, 2], [0, 0]]], "order": [[1, 0], [0, 1]]}, "tables\\[0\\]\\[0\\]\\[1\\]"),
    ({"format": STRUCTURE_FORMAT, "n": 2, "m": 1,
      "tables": [[[0, True], [0, 0]]], "order": [[1, 0], [0, 1]]}, "tables\\[0\\]\\[0\\]\\[1\\]"),
    ({"format": STRUCTURE_FORMAT, "n": 2, "m": 1,
      "tables": [[[0, 0], [0, 0]]], "order": [[1, 0]]}, "order must be"),
    ({"format": STRUCTURE_FORMAT, "n": 2, "m": 1,
      "tables": [[[0, 0], [0, 0]]], "order": [[1, 2], [0, 1]]}, "order\\[0\\]\\[1\\]"),
    ({"format": STRUCTURE_FORMAT, "name": "chain \ud800", "n": 1, "m": 1,
      "tables": [[[0]]], "order": [[1]]}, "lone surrogate"),
])
def test_strict_parsing_rejections(doc, fragment):
    with pytest.raises(FormatError, match=fragment):
        doc_to_structure(doc)


def test_save_structure_refuses_a_name_load_would_refuse(tmp_path):
    path = tmp_path / "named.json"
    with pytest.raises(FormatError, match="lone surrogate"):
        save_structure(path, make_min_chain(), "chain \udfff")
    assert not path.exists()


def test_axiom_breaking_file_raises_validation_failed(tmp_path):
    doc = {"format": STRUCTURE_FORMAT, "n": 2, "m": 1,
           "tables": [[[1, 1], [0, 0]]], "order": [[1, 1], [0, 1]]}
    path = tmp_path / "flip.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValidationFailed) as err:
        load(path)
    assert "gamma-associativity" in str(err.value)
    assert not err.value.report.ok


def test_incompatible_order_file_raises_validation_failed(tmp_path):
    found = None
    for t in table_pool(2, 1):
        for o in all_partial_orders(2):
            s = PoGammaSemigroup(tables=t, order=o)
            if not validate_compatibility(s).ok:
                found = s
                break
        if found:
            break
    assert found is not None
    doc = structure_to_doc(found)
    path = tmp_path / "incompatible.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValidationFailed, match="compatibility"):
        load(path)


def test_validation_report_round_trip():
    from pogamma.model import GammaTables, OrderRelation
    s = PoGammaSemigroup(tables=GammaTables.from_rows([[[1, 1], [0, 0]]]),
                         order=OrderRelation.from_rows([[1, 1], [0, 1]]))
    for report in (validate_structure(s), validate_compatibility(s),
                   validate_structure(make_min_chain())):
        text = serialize_report(report)
        back = doc_to_report(json.loads(text))
        assert back == report


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("entry", [True, 0.5, None, "x", 5, -1, float("nan"), float("inf"), (0,)])
def test_entry_range_reports_round_trip(entry):
    # a table built in code may hold any value; its report names it as is
    # when JSON has a scalar for it, and by its repr otherwise
    from pogamma.model import GammaTables, validate_gamma_tables
    scalar = not isinstance(entry, tuple) and entry == entry and entry != float("inf")
    written = entry if scalar else repr(entry)
    report = validate_gamma_tables(GammaTables(n=2, m=1, op=(((entry, 0), (0, 0)),)))
    assert report.failures == (("entry-range", (0, 0, 0, written)),)
    doc = json.loads(serialize_report(report), parse_constant=_refuse_constant)
    back = doc_to_report(doc)
    assert back == report
    assert type(back.failures[0][1][3]) is type(written)
    doc["payload"]["failures"][0][1][3] = [entry]   # not a scalar
    with pytest.raises(FormatError):
        doc_to_report(doc)


def test_check_report_round_trip():
    reports = run_all(make_min_chain())
    text = serialize_report(reports)
    back = doc_to_report(json.loads(text))
    assert back == reports
    single = CheckReport("prop4", "violation", {"bi_ideal": [0], "element": 1}, "synthetic")
    assert doc_to_report(json.loads(serialize_report(single))) == single


def test_sweep_report_round_trip():
    report = sweep(EnumSpec(2, 1))
    back = doc_to_report(json.loads(serialize_report(report)))
    assert back == report


def test_sweep_report_round_trip_with_embedded_structures():
    synthetic = SweepReport(
        n=2, m=1, canonical=True, require_order=True, theorems=("prop4",),
        structures=2, regular_structures=1, completely_regular_structures=1,
        strongly_regular_structures=1, product_property_structures=2,
        product_without_cr=1,
        product_without_cr_examples=[make_null_table()],
        violations=[SweepViolation(
            structure=make_min_chain(),
            report=CheckReport("prop4", "violation", {"element": 1}, "synthetic"))])
    back = doc_to_report(json.loads(serialize_report(synthetic)))
    assert back == synthetic


def test_report_doc_rejections():
    with pytest.raises(FormatError):
        doc_to_report({"format": "other/1", "kind": "check", "payload": {}})
    with pytest.raises(FormatError, match="unknown report kind"):
        doc_to_report({"format": REPORT_FORMAT, "kind": "tally", "payload": {}})
    with pytest.raises(TypeError):
        report_to_doc(object())


# a well-formed sweep payload, each row below breaking one field of it
_SWEEP_PAYLOAD = report_to_doc(SweepReport(2, 1, True, True, ("prop2",)))["payload"]


@pytest.mark.parametrize("kind,payload", [
    ("check", {}),
    ("sweep", []),
    ("checks", None),
    ("validation", {"failures": [["x", 1]]}),
    ("validation", {"ok": True, "failures": [["x", [1]]]}),
    # payloads the report types rule out
    ("check", {"theorem": "conjecture1", "status": "pass", "witness": None, "detail": ""}),
    ("check", {"theorem": "prop2", "status": "banana", "witness": None, "detail": ""}),
    ("check", {"theorem": "prop2", "status": "violation", "witness": None, "detail": ""}),
    ("checks", {"reports": [{"theorem": "thm9", "status": "violation", "witness": None,
                             "detail": ""}]}),
    ("validation", {"ok": False, "failures": [["no-such-axiom", [0]]]}),
    ("validation", {"ok": False, "failures": [["reflexivity", [None]]]}),
    ("validation", {"ok": False, "failures": [["transitivity", [0, "x", 1.5]]]}),
    ("validation", {"ok": False, "failures": [["antisymmetry", [0, True]]]}),
    ("validation", {"ok": False, "failures": [["antisymmetry", [0, 1, 2]]]}),
    ("validation", {"ok": False, "failures": [["compatibility", [0, 1, 0, 0, "up"]]]}),
    ("validation", {"ok": False, "failures": [["compatibility", [0, 1, 0, "left", "left"]]]}),
    ("validation", {"ok": False, "failures": [["compatibility", [0, 1, 0, 0]]]}),
    ("sweep", {**_SWEEP_PAYLOAD, "theorems": ["nope", "prop2"]}),
    ("sweep", {**_SWEEP_PAYLOAD, "n": 0}),
    ("sweep", {**_SWEEP_PAYLOAD, "structures": -5}),
])
def test_malformed_report_payloads_are_format_errors(kind, payload):
    with pytest.raises(FormatError):
        doc_to_report({"format": REPORT_FORMAT, "kind": kind, "payload": payload})


def test_serialized_reports_are_byte_stable():
    report = sweep(EnumSpec(2, 1))
    assert serialize_report(report) == serialize_report(report)


def test_flat_lists_stay_inline():
    text = serialize_structure(make_min_chain(), "min-chain")
    assert '"tables": [[[0, 0], [0, 1]]]' in text
    assert '"order": [[1, 1], [0, 1]]' in text


# -- the machine layout, against the recursive renderer it replaced ---------

def _dict_free(value) -> bool:
    if isinstance(value, dict):
        return False
    if isinstance(value, list):
        return all(_dict_free(v) for v in value)
    return True


def _oracle_render(value, indent: int) -> str:
    # dicts and long lists break across lines; flat numeric lists stay inline
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f'{pad}  {json.dumps(k)}: {_oracle_render(v, indent + 1)}' for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, list):
        if _dict_free(value):
            flat = json.dumps(value, separators=(", ", ": "))
            if len(flat) <= 72:
                return flat
        if not value:
            return "[]"
        items = [f"{pad}  {_oracle_render(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return json.dumps(value)


def _sized(items, length):
    """items and one more string, sized so the list's one-line form is
    `length` characters long when items leave room for it."""
    short = len(json.dumps([*items, ""], separators=(", ", ": ")))
    return [*items, "a" * max(0, length - short)]


_TEXT = st.text(st.characters() | st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600'),
                max_size=10)
_LAYOUT_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(min_value=2 ** 63)
                   | st.integers(max_value=-2 ** 63) | st.floats(allow_nan=False, allow_infinity=False)
                   | _TEXT)
_NEAR_72 = st.builds(_sized, st.lists(st.integers(-9, 99) | st.lists(st.integers(0, 9), max_size=3),
                                      max_size=8),
                     st.integers(68, 76))
_LAYOUT_DOCS = st.recursive(
    _LAYOUT_SCALARS | _NEAR_72,
    # short keys too, so small dicts turn up inside short lists
    lambda inner: (st.lists(inner, max_size=5)
                   | st.dictionaries(st.sampled_from("an") | _TEXT, inner, max_size=4)),
    max_leaves=16)


@given(_LAYOUT_DOCS)
@settings(max_examples=100, deadline=None)
def test_renderer_matches_the_recursive_oracle(doc):
    assert formats._dumps(doc) == _oracle_render(doc, 0) + "\n"


class _Count(int):
    pass


@pytest.mark.parametrize("doc", [
    {"at 72": _sized([1, 2], 72), "at 73": _sized([1, 2], 73), "nested": [_sized([], 71)]},
    {"empty": [{}, [], [[]], [{}]], "deep": [[[{"a": []}]]], "e": {}},
    # types the common cases do not cover fall back to json.dumps
    {1: [_Count(5), 2.5, 1e16, -0.0], None: (1, {"x": [2]}), 2.5: ["\u00e9", True, None]},
])
def test_renderer_matches_the_oracle_on_edge_cases(doc):
    assert formats._dumps(doc) == _oracle_render(doc, 0) + "\n"


# -- fuzzing: malformed input raises only the documented errors ------------

_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)


def _paths(doc, path=()):
    """The key path of every value inside doc, doc itself (the empty path) included."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, (*path, key))


def _replaced(doc, path, value):
    if not path:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return copy


def _mutated(doc):
    """doc with one value anywhere inside it, or doc itself, swapped for any
    JSON value; scalars get extra weight, since _JSON mostly draws containers."""
    value = _SCALARS | _JSON
    return st.tuples(st.sampled_from(list(_paths(doc))), value).map(lambda pv: _replaced(doc, *pv))


_STRUCTURE_DOCS = [structure_to_doc(make_min_chain(), "min-chain"), structure_to_doc(make_null_table())]
_REPORT_DOCS = [
    report_to_doc(r) for r in (
        validate_structure(make_min_chain()),
        ValidationReport.from_failures([("compatibility", (0, 1, 1, 0, "left"))]),
        run_all(make_min_chain())[0],
        run_all(make_null_table()),
        SweepReport(2, 1, True, True, ("prop4",), structures=1, product_without_cr=1,
                    product_without_cr_examples=[make_null_table()],
                    violations=[SweepViolation(make_min_chain(),
                                               CheckReport("prop4", "violation", {"a": 1}, "x"))]),
        # ruled out by the report types: mutations may turn them valid
        CheckReport("conjecture1", "pass", None, "x"),
        CheckReport("prop2", "banana", None, "x"),
        CheckReport("prop2", "violation", None, "x"),
        ValidationReport.from_failures([("no-such-axiom", (0,))]),
        ValidationReport.from_failures([("reflexivity", (None,)), ("transitivity", (0, "x", 1.5))]),
        ValidationReport.from_failures([("compatibility", (0, 1, 1, 0, "up"))]),
    )
]


@pytest.mark.parametrize("doc", _STRUCTURE_DOCS)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_structure_parser_raises_only_format_error(doc, data):
    try:
        doc_to_structure(data.draw(_mutated(doc)))
    except FormatError:
        pass


@pytest.mark.parametrize("doc", _REPORT_DOCS)
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_report_parser_raises_only_format_error(doc, data):
    try:
        doc_to_report(data.draw(_mutated(doc)))
    except FormatError:
        pass


@given(st.one_of(st.binary(max_size=64),
                 st.sampled_from(_STRUCTURE_DOCS).flatmap(_mutated).map(
                     lambda doc: json.dumps(doc).encode("utf-8"))))
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_named_raises_only_documented_errors(tmp_path, data):
    path = tmp_path / "fuzz.json"
    path.write_bytes(data)
    try:
        load_named(path)
    except (FormatError, ValidationFailed):
        pass
