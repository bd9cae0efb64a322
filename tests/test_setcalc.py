"""Subset calculus: closures, products, bi-ideals, and witness searches."""

import random
from functools import partial, reduce
from itertools import product
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_subsets,
    axiom_breaking_structures,
    make_left_zero,
    make_min_chain,
    make_null_table,
    make_one_element,
    named_structures,
    nonempty_subsets,
    structure_pool,
    table_pool,
)
from pogamma import setcalc
from pogamma.enumeration import random_structures
from pogamma.model import GammaTables, PoGammaSemigroup, structure_from_rows, validate_gamma_tables
from pogamma.setcalc import (
    REGULARITY_KINDS,
    RegularityWitness,
    all_bi_ideals,
    bi_ideal_generated_fixpoint,
    bi_ideal_generated_formula,
    compose_cr_witness,
    downward_closure,
    is_bi_ideal,
    is_completely_regular,
    is_semiprime,
    is_strongly_regular,
    is_strongly_regular_subset,
    is_subsemigroup,
    product_failure,
    regularity,
    semiprime_failure,
    set_product,
    witness_holds,
    word_product,
)

POOL = structure_pool(2, 1) + structure_pool(2, 2) + structure_pool(3, 1)


def test_downward_closure_examples():
    min_chain = make_min_chain()
    assert downward_closure(min_chain, {1}) == frozenset({0, 1})
    assert downward_closure(min_chain, {0}) == frozenset({0})
    assert downward_closure(make_null_table(), {1}) == frozenset({1})
    assert downward_closure(min_chain, frozenset()) == frozenset()


def test_set_product_examples():
    min_chain = make_min_chain()
    assert set_product(min_chain, {0, 1}, {1}) == frozenset({0, 1})
    left_zero = make_left_zero()
    assert set_product(left_zero, {0, 1}, {1}) == frozenset({0, 1})
    assert set_product(left_zero, {1}, {0, 1}) == frozenset({1})
    assert set_product(make_null_table(), {0, 1}, {0, 1}) == frozenset({0})
    assert set_product(min_chain, frozenset(), {1}) == frozenset()


def test_word_product_folds_left():
    s = make_min_chain()
    assert word_product(s, [{0, 1}]) == frozenset({0, 1})
    a, b, c = {1}, {0, 1}, {1}
    assert word_product(s, [a, b, c]) == set_product(s, set_product(s, a, b), c)
    with pytest.raises(ValueError):
        word_product(s, [])


@st.composite
def _structure_and_masks(draw):
    s = draw(st.sampled_from(POOL))
    masks = draw(st.tuples(st.integers(0, (1 << s.n) - 1), st.integers(0, (1 << s.n) - 1)))
    sets = tuple(frozenset(i for i in range(s.n) if mask >> i & 1) for mask in masks)
    return (s,) + sets


@given(_structure_and_masks())
@settings(max_examples=300, deadline=None)
def test_downward_closure_laws(case):
    s, a, b = case
    ca = downward_closure(s, a)
    assert a <= ca
    assert downward_closure(s, ca) == ca
    assert ca <= downward_closure(s, a | b)
    lhs = set_product(s, ca, downward_closure(s, b))
    assert lhs <= downward_closure(s, set_product(s, a, b))


def test_is_subsemigroup():
    null = make_null_table()
    assert is_subsemigroup(null, null.universe)
    assert is_subsemigroup(null, {0})
    assert not is_subsemigroup(null, {1})
    min_chain = make_min_chain()
    assert is_subsemigroup(min_chain, {1})
    with pytest.raises(ValueError):
        is_subsemigroup(null, frozenset())


def test_is_bi_ideal_examples():
    null = make_null_table()
    assert is_bi_ideal(null, {0})
    assert not is_bi_ideal(null, {1})
    min_chain = make_min_chain()
    assert is_bi_ideal(min_chain, {0})
    assert not is_bi_ideal(min_chain, {1})
    assert is_bi_ideal(min_chain, {0, 1})
    with pytest.raises(ValueError):
        is_bi_ideal(null, frozenset())


def test_all_bi_ideals_listing_and_order():
    assert all_bi_ideals(make_one_element()) == [frozenset({0})]
    assert all_bi_ideals(make_null_table()) == [frozenset({0}), frozenset({0, 1})]
    assert all_bi_ideals(make_min_chain()) == [frozenset({0}), frozenset({0, 1})]
    assert all_bi_ideals(make_left_zero()) == \
        [frozenset({0}), frozenset({1}), frozenset({0, 1})]


def _brute_bi_ideals(s):
    # definition written out with raw loops, no setcalc helpers
    out = []
    for b in nonempty_subsets(s.n):
        prods = {s.prod(g2, s.prod(g1, x, t), y)
                 for x in b for t in range(s.n) for y in b
                 for g1 in range(s.m) for g2 in range(s.m)}
        down = {t for t in range(s.n) if any(s.le(t, u) for u in b)}
        if prods <= set(b) and down == set(b):
            out.append(b)
    return out


def test_all_bi_ideals_matches_brute_definition():
    for s in structure_pool(2, 2) + structure_pool(3, 1):
        assert all_bi_ideals(s) == _brute_bi_ideals(s)


def _mask(elements):
    return sum(1 << i for i in elements)


def test_mask_tables_equal_the_frozenset_definitions():
    # the raw fills need not be associative, and their relations need not be orders
    structures = (structure_pool(2, 2, canonical=False) + structure_pool(3, 1, canonical=False)
                  + tuple(random_structures(3, 2, 40, seed=8))
                  + tuple(random_structures(4, 1, 40, seed=8))
                  + tuple(axiom_breaking_structures()))
    for s in structures:
        _assert_order_tier_matches(s)
        t = setcalc._facts(s).table
        subsets = list(all_subsets(s.n))   # subsets[A] has the bits of A
        for a, sa in enumerate(subsets):
            assert t.am[a] == _mask(set_product(s, sa, s.universe))
            assert setcalc._mul(t.left, t.am[a], a) == _mask(word_product(s, [sa, s.universe, sa]))
            for b, sb in enumerate(subsets):
                assert setcalc._mul(t.left, a, b) == _mask(set_product(s, sa, sb))
                assert setcalc._mul(t.left, t.am[a], b) == \
                    _mask(word_product(s, [sa, s.universe, sb]))
        u = s.universe
        for x in range(s.n):
            assert t.pe[x] == [_mask(set_product(s, {x}, {y})) for y in range(s.n)]
            assert t.xMy[x] == [_mask(word_product(s, [{x}, u, {y}])) for y in range(s.n)]
            assert t.Ma[x] == _mask(set_product(s, u, {x}))
            assert t.MaM[x] == _mask(word_product(s, [u, {x}, u]))
            aa = set_product(s, {x}, {x})
            assert t.aaMaa[x] == _mask(word_product(s, [aa, u, {x}, {x}]))
        for a, sa in enumerate(subsets[1:], start=1):
            assert t.semiprime_failure(a) == semiprime_failure(s, sa)
            if is_subsemigroup(s, sa):
                assert setcalc._strongly_regular_within(s, a) == \
                    is_strongly_regular_subset(s, sa)


def _assert_order_tier_matches(s):
    # every structure-tier fact of s, and the subset maps of its table
    # tier, against their frozenset definitions
    o = setcalc._facts(s)
    t = o.table
    subsets = list(all_subsets(s.n))
    u = s.universe
    assert o.up == [_mask(b for b in range(s.n) if s.le(a, b)) for a in range(s.n)]
    assert o.clo == [_mask(downward_closure(s, sa)) for sa in subsets]
    nonempty = subsets[1:]
    bi_ideals = [b for b in nonempty if is_bi_ideal(s, b)]
    assert o.bi_ideals == tuple(_mask(b) for b in bi_ideals)
    assert all_bi_ideals(s) == bi_ideals
    assert product_failure(s) == next(
        (b for b in bi_ideals if downward_closure(s, set_product(s, b, b)) != b), None)
    assert [o.generated(a) for a in range(1, 1 << s.n)] == \
        [_mask(bi_ideal_generated_formula(s, sa)) for sa in nonempty]
    assert o.principal == tuple(_mask(bi_ideal_generated_formula(s, {a})) for a in range(s.n))
    for a, sa in enumerate(subsets):
        assert setcalc._mul(t.left, a, a) == _mask(set_product(s, sa, sa))
        assert t.AuAMA[a] == _mask(sa | word_product(s, [sa, u, sa]))
    assert t.bmb_closed((1 << len(subsets)) - 1) == \
        _mask(b for b, sb in enumerate(subsets) if word_product(s, [sb, u, sb]) <= sb)


def test_generated_bi_ideal_examples():
    null = make_null_table()
    assert bi_ideal_generated_formula(null, {1}) == frozenset({0, 1})
    assert bi_ideal_generated_formula(null, {0}) == frozenset({0})
    product_of_one = set_product(null, {1}, {1})
    assert bi_ideal_generated_formula(null, product_of_one) == frozenset({0})
    min_chain = make_min_chain()
    assert bi_ideal_generated_formula(min_chain, {1}) == frozenset({0, 1})
    assert bi_ideal_generated_formula(min_chain, {0}) == frozenset({0})


def test_generated_routes_agree_on_named_structures():
    for _, s in named_structures():
        for a in nonempty_subsets(s.n):
            formula = bi_ideal_generated_formula(s, a)
            assert formula == bi_ideal_generated_fixpoint(s, a)
            assert a <= formula
            assert is_bi_ideal(s, formula)


def test_generated_is_least_on_named_structures():
    for _, s in named_structures():
        ideals = all_bi_ideals(s)
        for a in range(s.n):
            b = bi_ideal_generated_formula(s, {a})
            assert b in ideals
            assert all(b <= c for c in ideals if a in c)


def test_generated_requires_nonempty():
    s = make_min_chain()
    with pytest.raises(ValueError):
        bi_ideal_generated_formula(s, frozenset())
    with pytest.raises(ValueError):
        bi_ideal_generated_fixpoint(s, frozenset())


def test_semiprime_examples():
    null = make_null_table()
    assert semiprime_failure(null, {0}) == 1
    assert not is_semiprime(null, {0})
    assert is_semiprime(null, {0, 1})
    assert is_semiprime(make_min_chain(), {0})
    assert is_semiprime(make_left_zero(), {0})


def test_regularity_witness_examples():
    min_chain = make_min_chain()
    w = regularity(min_chain, 1, "regular")
    assert w == RegularityWitness("regular", 1, (1, 0, 0))
    assert witness_holds(min_chain, w)
    assert regularity(min_chain, 0, "regular") == RegularityWitness("regular", 0, (0, 0, 0))
    null = make_null_table()
    for kind in REGULARITY_KINDS:
        assert regularity(null, 1, kind) is None
    assert regularity(null, 0, "regular") == RegularityWitness("regular", 0, (0, 0, 0))


def test_regularity_scan_returns_first_hit():
    # element 1 of the left-zero table is witnessed by x = 0 and x = 1;
    # the scan must settle on 0
    w = regularity(make_left_zero(), 1, "regular")
    assert w.data == (0, 0, 0)


_DATA_WIDTH = {kind: (5 if kind == "completely-regular" else 3) for kind in REGULARITY_KINDS}


def _first_witness_brute(s, a, kind):
    width = _DATA_WIDTH[kind]
    for data in product(range(s.n), *[range(s.m)] * (width - 1)):
        w = RegularityWitness(kind, a, data)
        if witness_holds(s, w):
            return w
    return None


def test_regularity_agrees_with_exhaustive_first_hit():
    # (2, 3) runs the four letter slots of complete regularity over three letters
    for s in structure_pool(2, 2) + structure_pool(2, 3):
        for a in range(s.n):
            for kind in REGULARITY_KINDS:
                assert regularity(s, a, kind) == _first_witness_brute(s, a, kind)


def _assert_set_forms_match_the_scan(tables):
    # each set form, X = {x} by X = {x}, against the scan's reach[x], and
    # every kind's union mask against the union of the scan's values.
    # Strong regularity's facts, from the letter groups, take the place of
    # a set form: their reach against the scan's, and, for every mask U of
    # elements, the first entry whose rhs lies in U against the scan's
    # first candidate there, the witness regularity() returns where U is
    # the up-set of a
    facts = setcalc._TableFacts(tables)
    t = partial(setcalc._times, facts.pe)
    for kind in REGULARITY_KINDS:
        form = setcalc._INEQUALITIES[kind][3]
        for a in range(tables.n):
            scan = list(setcalc._candidates(tables.op, tables.n, tables.m, a, kind))
            reach = [0] * tables.n
            for data, v in scan:
                reach[data[0]] |= 1 << v
            if form is not None:
                assert [form(t, 1 << a, 1 << x) for x in range(tables.n)] == reach, (kind, a)
            else:
                strong_reach, entries = facts.strong[a]
                assert strong_reach == reach, a
                for up in range(1 << tables.n):
                    first = next((hit for hit in scan if up >> hit[1] & 1), None)
                    assert next((e for e in entries if up >> e[1] & 1), None) == first, (a, up)
            assert facts.unions[kind][a] == reduce(or_, reach), (kind, a)


def test_set_forms_match_the_scan_on_every_labeled_table():
    checked = 0
    for n, m in ((3, 1), (2, 2), (2, 3)):
        for tables in table_pool(n, m):
            _assert_set_forms_match_the_scan(tables)
            checked += 1
    assert checked == 113 + 14 + 26   # the labeled (associative) tables


def test_set_forms_match_the_scan_without_associativity():
    # the set forms read the rhs's own parentheses, and the letter groups
    # use no law of the products, so they hold on any fill of the tables,
    # associative or not; (3, 4) gives strong regularity several groups
    rng = random.Random(20131)
    associative = 0
    for n, m in ((1, 3), (2, 1), (2, 3), (3, 1), (3, 2), (4, 2), (5, 1), (3, 4)) * 30:
        op = tuple(tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))
                   for _ in range(m))
        tables = GammaTables(n, m, op)
        associative += validate_gamma_tables(tables).ok
        _assert_set_forms_match_the_scan(tables)
    assert associative < 100


# every tuple of kinds the code asks _least_without about
_KIND_TUPLES = (("regular",), ("completely-regular",), ("strongly-regular",),
                ("regular", "left-regular", "right-regular"), ("left-regular", "right-regular"))


def test_least_without_matches_brute_witnesses_in_any_query_order():
    # the per-kind least elements without a witness against brute
    # witnesses.  Each structure asks for the tuples in its own rotation,
    # and a second pass walks the pool backwards with the tuples reversed,
    # so an answer kept from another structure or another kind, or a
    # minimum over the wrong kinds, would show
    checked = 0
    for n, m in ((3, 1), (2, 2), (2, 3)):
        pool = structure_pool(n, m, canonical=False)
        lacking = [{kind: {a for a in range(s.n) if _first_witness_brute(s, a, kind) is None}
                    for kind in REGULARITY_KINDS} for s in pool]
        passes = (list(enumerate(pool)), list(enumerate(pool))[::-1])
        for forward, structures in zip((True, False), passes):
            for i, s in structures:
                k = i % len(_KIND_TUPLES)
                queries = _KIND_TUPLES[k:] + _KIND_TUPLES[:k]
                for kinds in queries if forward else queries[::-1]:
                    want = min(set().union(*(lacking[i][kind] for kind in kinds)), default=None)
                    assert setcalc._least_without(s, *kinds) == want
                    checked += 1
    assert checked == 2 * 5 * (971 + 34 + 62)


def _orders_per_table(n, m):
    # labeled structures grouped by their shared tables object, stream order
    groups = {}
    for s in structure_pool(n, m, canonical=False):
        groups.setdefault(id(s.tables), []).append(s)
    return list(groups.values())


def test_fact_tiers_survive_interleaved_structures_over_one_table():
    # structures sharing one tables object, queried s1, s2, s1, ..., and a
    # copy of the first over an equal but distinct tables object: every
    # query moves the order memo, and the copy moves the table memo too
    differing = 0
    for group in _orders_per_table(3, 1) + _orders_per_table(2, 2):
        if len(group) < 2:
            continue
        first = group[0]
        copy = PoGammaSemigroup(GammaTables(first.n, first.m, first.tables.op), first.order)
        assert copy.tables == first.tables and copy.tables is not first.tables
        sequence = [x for s in group[1:] for x in (first, s)] + [copy, first]
        shared = {id(setcalc._facts(s).table) for s in group}
        assert len(shared) == 1 and id(setcalc._facts(copy).table) not in shared
        for a in range(first.n):
            for kind in REGULARITY_KINDS:
                found = [regularity(s, a, kind) for s in sequence]
                assert found == [_first_witness_brute(s, a, kind) for s in sequence]
                differing += len(set(found)) > 1
        for s in sequence:
            assert is_completely_regular(s) == next(
                (a for a in range(s.n) if _first_witness_brute(s, a, "completely-regular") is None),
                None)
            _assert_order_tier_matches(s)
    assert differing > 0


def test_witness_lists_need_no_subset_tables_past_the_limit():
    n = setcalc.MAX_TABLE_ELEMENTS + 1
    s = structure_from_rows([[[0] * n] * n], [[a == b for b in range(n)] for a in range(n)])
    assert regularity(s, 0, "completely-regular") == \
        RegularityWitness("completely-regular", 0, (0, 0, 0, 0, 0))
    for kind in REGULARITY_KINDS:
        assert [regularity(s, a, kind) is None for a in range(n)] == [False] + [True] * (n - 1)
    assert is_completely_regular(s) == 1
    o = setcalc._facts(s)
    for tier, name in ((o, "clo"), (o, "bi_ideals"),
                       (o.table, "left"), (o.table, "am")):
        with pytest.raises(setcalc.StructureTooLarge):
            getattr(tier, name)


def _inequality_literal(s, kind, a, data):
    # each inequality written out on its own, independent of setcalc
    p, le = s.prod, s.le
    if kind == "regular":
        x, g, u = data
        return le(a, p(u, p(g, a, x), a))
    if kind == "left-regular":
        z, g, u = data
        return le(a, p(u, p(g, z, a), a))
    if kind == "right-regular":
        y, g, u = data
        return le(a, p(u, p(g, a, a), y))
    if kind == "completely-regular":
        x, g1, g2, g3, g4 = data
        return le(a, p(g3, p(g2, p(g1, a, a), x), p(g4, a, a)))
    x, g, u = data
    return (le(a, p(u, p(g, a, x), a))
            and p(g, a, x) == p(g, x, a) == p(u, x, a) == p(u, a, x))


def test_witness_holds_matches_the_literal_inequalities():
    for s in structure_pool(2, 2):
        for a in range(s.n):
            for kind in REGULARITY_KINDS:
                width = _DATA_WIDTH[kind]
                for data in product(range(s.n), *[range(s.m)] * (width - 1)):
                    assert witness_holds(s, RegularityWitness(kind, a, data)) == \
                        _inequality_literal(s, kind, a, data), (kind, a, data)


def test_witness_data_of_the_wrong_width_is_rejected():
    s = make_min_chain()
    with pytest.raises(ValueError):
        witness_holds(s, RegularityWitness("regular", 0, (0, 0)))
    with pytest.raises(ValueError):
        witness_holds(s, RegularityWitness("completely-regular", 0, (0, 0, 0)))


def test_unknown_kind_rejected():
    s = make_min_chain()
    with pytest.raises(ValueError):
        regularity(s, 0, "reversible")
    with pytest.raises(ValueError):
        witness_holds(s, RegularityWitness("reversible", 0, (0, 0, 0)))


def test_structure_level_flags():
    assert is_completely_regular(make_min_chain()) is None
    assert is_strongly_regular(make_min_chain()) is None
    assert is_completely_regular(make_null_table()) == 1
    assert is_strongly_regular(make_null_table()) == 1
    assert is_strongly_regular(make_left_zero()) is None
    assert is_strongly_regular(make_one_element()) is None


def test_strong_regularity_implies_complete_regularity_on_pool():
    for s in POOL:
        if is_strongly_regular(s) is None:
            assert is_completely_regular(s) is None


def test_compose_cr_witness_on_fully_regular_structures():
    seen = 0
    for s in structure_pool(2, 2) + structure_pool(3, 1):
        if is_completely_regular(s) is not None:
            continue
        for a in range(s.n):
            reg = regularity(s, a, "regular")
            rreg = regularity(s, a, "right-regular")
            lreg = regularity(s, a, "left-regular")
            w = compose_cr_witness(s, a, reg, rreg, lreg)
            assert w.kind == "completely-regular"
            assert w.element == a
            assert len(w.data) == 5
            assert w.data[1:3] == rreg.data[1:]
            assert w.data[3:5] == lreg.data[1:]
            assert witness_holds(s, w)
            seen += 1
    assert seen > 0


def test_compose_cr_witness_rejects_bad_inputs():
    s = make_min_chain()
    reg = regularity(s, 1, "regular")
    rreg = regularity(s, 1, "right-regular")
    lreg = regularity(s, 1, "left-regular")
    with pytest.raises(ValueError):
        compose_cr_witness(s, 1, rreg, rreg, lreg)
    with pytest.raises(ValueError):
        compose_cr_witness(s, 0, reg, rreg, lreg)
    null = make_null_table()
    fake = RegularityWitness("regular", 1, (0, 0, 0))
    assert not witness_holds(null, fake)
    with pytest.raises(ValueError):
        compose_cr_witness(null, 1,
                           fake,
                           RegularityWitness("right-regular", 1, (0, 0, 0)),
                           RegularityWitness("left-regular", 1, (0, 0, 0)))


def test_strongly_regular_subset_examples():
    null = make_null_table()
    assert not is_strongly_regular_subset(null, {0, 1})
    assert is_strongly_regular_subset(null, {0})
    min_chain = make_min_chain()
    assert is_strongly_regular_subset(min_chain, {0})
    assert is_strongly_regular_subset(min_chain, {0, 1})
    assert is_strongly_regular_subset(make_left_zero(), {0, 1})
    with pytest.raises(ValueError):
        is_strongly_regular_subset(null, {1})
    with pytest.raises(ValueError):
        is_strongly_regular_subset(null, frozenset())


def test_subset_witness_relaxation_only_widens():
    # a witness found in T is also a witness in M
    for s in structure_pool(2, 2):
        for t in nonempty_subsets(s.n):
            if not is_subsemigroup(s, t):
                continue
            if is_strongly_regular_subset(s, t):
                assert all(regularity(s, b, "strongly-regular") is not None for b in t)
