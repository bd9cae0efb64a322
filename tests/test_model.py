"""Axiom validators against hand-built structures and brute-force scans."""

import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import named_structures, structure_pool
from pogamma.enumeration import _tables_from_cells
from pogamma.model import (
    GammaTables,
    OrderRelation,
    PoGammaSemigroup,
    StructuralError,
    ValidationReport,
    equality_order,
    format_failure,
    structure_from_rows,
    validate_compatibility,
    validate_gamma_tables,
    validate_order,
    validate_structure,
)

# a g b = 1 - a: every triple breaks associativity, every left pair breaks
# compatibility with the chain 0 <= 1
FLIP = GammaTables.from_rows([[[1, 1], [0, 0]]])
CHAIN = OrderRelation.from_rows([[1, 1], [0, 1]])


def test_named_structures_satisfy_all_axioms():
    for name, s in named_structures():
        report = validate_structure(s)
        assert report.ok, f"{name}: {report.failures}"
        assert report.failures == ()


def test_flip_table_fails_every_associativity_instance():
    report = validate_gamma_tables(FLIP)
    assert not report.ok
    expected = {(a, b, c, 0, 0) for a in range(2) for b in range(2) for c in range(2)}
    assert {wit for _, wit in report.failures} == expected
    assert all(kind == "gamma-associativity" for kind, _ in report.failures)


def test_associativity_failures_match_brute_scan():
    t = GammaTables.from_rows([[[1, 0], [0, 0]]])
    report = validate_gamma_tables(t)
    op = t.op
    brute = [
        (a, b, c, g, u)
        for a in range(2) for b in range(2) for c in range(2)
        for g in range(1) for u in range(1)
        if op[u][op[g][a][b]][c] != op[g][a][op[u][b][c]]
    ]
    assert [wit for _, wit in report.failures] == brute
    assert report.failures[0] == ("gamma-associativity", (0, 0, 1, 0, 0))


def _brute_associativity_failures(t):
    op, n, m = t.op, t.n, t.m
    return [("gamma-associativity", (a, b, c, g, u))
            for a in range(n) for b in range(n) for c in range(n)
            for g in range(m) for u in range(m)
            if op[u][op[g][a][b]][c] != op[g][a][op[u][b][c]]]


@pytest.mark.parametrize("n,m,sample", [(2, 1, None), (1, 2, None), (3, 1, 400), (2, 2, 100)])
def test_associativity_failures_match_brute_scan_on_raw_fills(n, m, sample):
    fills = list(product(range(n), repeat=m * n * n))
    if sample is not None:
        fills = random.Random(f"{n}x{m}").sample(fills, sample)
    for cells in fills:
        t = _tables_from_cells(cells, n, m)
        assert list(validate_gamma_tables(t).failures) == _brute_associativity_failures(t)


def test_associativity_witnesses_reevaluate():
    for t in (FLIP, GammaTables.from_rows([[[1, 0], [0, 0]]])):
        for kind, (a, b, c, g, u) in validate_gamma_tables(t).failures:
            assert kind == "gamma-associativity"
            assert t.op[u][t.op[g][a][b]][c] != t.op[g][a][t.op[u][b][c]]


def test_associativity_scan_memory_does_not_grow_with_the_instance_count():
    # 216,000 instances, all of them holding; held at once they take about 50 MB
    n = 60
    zero = GammaTables(n=n, m=1, op=(((0,) * n,) * n,))
    tracemalloc.start()
    try:
        assert validate_gamma_tables(zero).ok
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_entry_range_failures_suppress_associativity_scan():
    report = validate_gamma_tables(GammaTables.from_rows([[[2, 0], [0, 0]]]))
    assert not report.ok
    assert ("entry-range", (0, 0, 0, 2)) in report.failures
    assert all(kind == "entry-range" for kind, _ in report.failures)


def test_bool_entries_are_out_of_range():
    t = GammaTables(n=2, m=1, op=(((True, 0), (0, 0)),))
    report = validate_gamma_tables(t)
    assert ("entry-range", (0, 0, 0, True)) in report.failures


@pytest.mark.parametrize("tables", [
    GammaTables(n=2, m=1, op=(((0,),),)),
    GammaTables(n=1, m=2, op=(((0,),),)),
    GammaTables(n=0, m=1, op=()),
    GammaTables(n=1, m=0, op=()),
])
def test_table_shape_mismatch_raises(tables):
    with pytest.raises(StructuralError):
        validate_gamma_tables(tables)


def test_order_shape_mismatch_raises():
    with pytest.raises(StructuralError):
        validate_order(OrderRelation(n=2, leq=((True,),)))


def test_structure_dimension_mismatch_raises():
    with pytest.raises(StructuralError):
        PoGammaSemigroup(tables=GammaTables.from_rows([[[0]]]),
                         order=OrderRelation.from_rows([[1, 0], [0, 1]]))


def test_valid_orders_pass():
    assert validate_order(equality_order(3)).ok
    assert validate_order(CHAIN).ok


def test_order_antisymmetry_failure():
    report = validate_order(OrderRelation.from_rows([[1, 1], [1, 1]]))
    assert report.failures == (("antisymmetry", (0, 1)),)


def test_order_reflexivity_failure():
    report = validate_order(OrderRelation.from_rows([[0, 1], [0, 1]]))
    assert report.failures == (("reflexivity", (0,)),)


def test_order_transitivity_failure():
    report = validate_order(OrderRelation.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]]))
    assert report.failures == (("transitivity", (0, 1, 2)),)


def test_order_witnesses_reevaluate():
    for rows in ([[1, 1], [1, 1]], [[0, 1], [0, 1]], [[1, 1, 0], [0, 1, 1], [0, 0, 1]]):
        o = OrderRelation.from_rows(rows)
        for kind, wit in validate_order(o).failures:
            if kind == "reflexivity":
                assert not o.leq[wit[0]][wit[0]]
            elif kind == "antisymmetry":
                a, b = wit
                assert a != b and o.leq[a][b] and o.leq[b][a]
            else:
                a, b, c = wit
                assert o.leq[a][b] and o.leq[b][c] and not o.leq[a][c]


def test_compatibility_failures_match_brute_scan():
    s = PoGammaSemigroup(tables=FLIP, order=CHAIN)
    report = validate_compatibility(s)
    expected = {("compatibility", (0, 1, 0, 0, "left")),
                ("compatibility", (0, 1, 1, 0, "left"))}
    assert set(report.failures) == expected
    for _, (a, b, c, g, side) in report.failures:
        assert s.le(a, b)
        if side == "left":
            assert not s.le(s.prod(g, a, c), s.prod(g, b, c))
        else:
            assert not s.le(s.prod(g, c, a), s.prod(g, c, b))


def test_null_table_compatible_with_every_order():
    null = GammaTables.from_rows([[[0, 0], [0, 0]]])
    for rows in ([[1, 0], [0, 1]], [[1, 1], [0, 1]], [[1, 0], [1, 1]]):
        s = PoGammaSemigroup(tables=null, order=OrderRelation.from_rows(rows))
        assert validate_compatibility(s).ok


def test_validate_structure_gates_compatibility_on_earlier_layers():
    # the flip table breaks associativity and compatibility; the combined
    # report must only surface the former
    s = PoGammaSemigroup(tables=FLIP, order=CHAIN)
    assert not validate_compatibility(s).ok
    combined = validate_structure(s)
    assert all(kind == "gamma-associativity" for kind, _ in combined.failures)


def test_validate_structure_merges_table_and_order_failures():
    s = PoGammaSemigroup(tables=FLIP, order=OrderRelation.from_rows([[0, 1], [0, 1]]))
    kinds = {kind for kind, _ in validate_structure(s).failures}
    assert kinds == {"gamma-associativity", "reflexivity"}


def test_validators_are_deterministic():
    listing = [s for _, s in named_structures()]
    listing.append(PoGammaSemigroup(tables=FLIP, order=CHAIN))
    for s in listing:
        assert validate_structure(s) == validate_structure(s)


def test_report_ok_iff_no_failures():
    assert ValidationReport.from_failures([]).ok
    assert not ValidationReport.from_failures([("reflexivity", (0,))]).ok


def test_format_failure_rendering():
    assert format_failure(("gamma-associativity", (0, 0, 1, 0, 0))) == \
        "gamma-associativity(0, 0, 1, 0, 0)"


def test_structure_from_rows_coerces_to_immutable_tuples():
    s = structure_from_rows([[[0, 0], [0, 1]]], [[1, 1], [0, 1]])
    assert isinstance(s.tables.op, tuple)
    assert isinstance(s.order.leq[0], tuple)
    assert s.universe == frozenset({0, 1})
    assert s.prod(0, 1, 1) == 1
    assert s.le(0, 1) and not s.le(1, 0)


POOL = structure_pool(2, 1) + structure_pool(2, 2) + structure_pool(3, 1)


@st.composite
def _structure_and_word(draw):
    s = draw(st.sampled_from(POOL))
    es = tuple(draw(st.integers(0, s.n - 1)) for _ in range(4))
    gs = tuple(draw(st.integers(0, s.m - 1)) for _ in range(3))
    return s, es, gs


@given(_structure_and_word())
@settings(max_examples=300, deadline=None)
def test_word_value_independent_of_bracketing(case):
    # strong mixed associativity must make every parenthesization of
    # e0 g0 e1 g1 e2 g2 e3 collapse to one value
    s, (e0, e1, e2, e3), (g0, g1, g2) = case
    p = s.prod
    values = {
        p(g2, p(g1, p(g0, e0, e1), e2), e3),
        p(g2, p(g0, e0, p(g1, e1, e2)), e3),
        p(g1, p(g0, e0, e1), p(g2, e2, e3)),
        p(g0, e0, p(g2, p(g1, e1, e2), e3)),
        p(g0, e0, p(g1, e1, p(g2, e2, e3))),
    }
    assert len(values) == 1
