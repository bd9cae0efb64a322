"""Table and order generation, canonicalization, and sweep plumbing."""

import gc
import hashlib
import multiprocessing
import random
import re
import weakref
from collections import Counter
from functools import lru_cache
from itertools import permutations, product, starmap
from math import factorial
from types import SimpleNamespace

import pytest

from conftest import (
    FIXTURE_DIR,
    make_left_zero,
    make_min_chain,
    make_null_table,
    make_product_gap,
    structure_pool,
    table_pool,
)
from pogamma import cli, enumeration, model, setcalc, theorems
from pogamma.enumeration import (
    MAX_LETTERS,
    MAX_TABLE_CELLS,
    SWEEP_EXAMPLE_CAP,
    EnumSpec,
    all_partial_orders,
    canonical_key,
    classify,
    enumerate_orders,
    enumerate_structures,
    enumerate_tables,
    enumerate_tables_naive,
    order_compatible,
    random_structures,
    relabel,
    structure_encoding,
    sweep,
)
from pogamma.formats import load, serialize_report
from pogamma.model import (
    GammaTables,
    PoGammaSemigroup,
    equality_order,
    validate_compatibility,
    validate_gamma_tables,
    validate_order,
    validate_structure,
)

LABELED_SPEC_2_1 = EnumSpec(2, 1, canonical_only=False)
LABELED_SPEC_2_2 = EnumSpec(2, 2, canonical_only=False)
LABELED_SPEC_3_2 = EnumSpec(3, 2, canonical_only=False)
LABELED_SPEC_3_3 = EnumSpec(3, 3, canonical_only=False)


def test_table_counts_frozen():
    # at m = 1 these are the labeled semigroups of order n, OEIS A023814
    assert len(table_pool(1, 1)) == 1
    assert len(table_pool(2, 1)) == 8
    assert len(table_pool(2, 2)) == 14
    assert len(table_pool(3, 1)) == 113
    assert len(table_pool(4, 1)) == 3492


def test_pruned_generation_equals_naive_generation():
    for spec in (EnumSpec(1, 1, canonical_only=False),
                 EnumSpec(1, 2, canonical_only=False),
                 EnumSpec(1, 3, canonical_only=False),
                 LABELED_SPEC_2_1,
                 LABELED_SPEC_2_2,
                 EnumSpec(2, 3, canonical_only=False),
                 EnumSpec(3, 1, canonical_only=False)):
        assert list(enumerate_tables(spec)) == list(enumerate_tables_naive(spec))


def test_naive_guard_refuses_large_spaces():
    with pytest.raises(ValueError):
        list(enumerate_tables_naive(EnumSpec(3, 2, canonical_only=False)))


def test_spec_guard(monkeypatch):
    EnumSpec(3, 2).validate()
    EnumSpec(4, 1).validate()
    EnumSpec(3, 2, canonical_only=False).validate()
    EnumSpec(4, 1, canonical_only=False).validate()
    # canonical search lists one table per class, so it gets the larger guard
    EnumSpec(5, 1).validate()
    EnumSpec(3, 3).validate()
    for n, m in ((6, 1), (5, 2), (4, 5), (1, 9), (0, 1), (1, 0)):
        with pytest.raises(ValueError):
            EnumSpec(n, m).validate()
    for n, m in ((5, 1), (3, 3)):
        with pytest.raises(ValueError, match="labeled table stream"):
            EnumSpec(n, m, canonical_only=False).validate()
    with pytest.raises(ValueError, match="labeled table stream") as refused:
        EnumSpec(1, 19, canonical_only=False).validate()
    # every size the message names is admitted, and one more letter is not
    named = re.findall(r"n=(\d+), m=(\d+)", str(refused.value).split("largest supported")[1])
    assert sorted(named) == [("1", "18"), ("2", "4"), ("3", "2"), ("4", "1")]
    for n, m in named:
        EnumSpec(int(n), int(m), canonical_only=False).validate()
        with pytest.raises(ValueError, match="labeled table stream"):
            EnumSpec(int(n), int(m) + 1, canonical_only=False).validate()
    assert MAX_TABLE_CELLS == 18
    # the canonical search lists all n! m! relabelings, at most 8! at the
    # admitted sizes; the labeled stream lists none
    assert MAX_LETTERS == {1: 8, 2: 7, 3: 6, 4: 4, 5: 1}
    assert max(factorial(n) * factorial(m) for n, m in MAX_LETTERS.items()) == factorial(8)
    EnumSpec(1, 8).validate()
    EnumSpec(1, 9, canonical_only=False).validate()
    with pytest.raises(ValueError, match="canonical table stream") as refused:
        EnumSpec(1, 9).validate()
    # every size the message names is admitted, and one more letter is not
    named = re.findall(r"n=(\d+), m=(\d+)", str(refused.value).split("largest supported")[1])
    assert sorted(named) == [("1", "8"), ("2", "7"), ("3", "6"), ("4", "4"), ("5", "1")]
    for n, m in named:
        EnumSpec(int(n), int(m)).validate()
        with pytest.raises(ValueError, match="canonical table stream"):
            EnumSpec(int(n), int(m) + 1).validate()
    # both sweep modes walk the canonical stream, so a sweep is held to its
    # guard whatever the mode
    walked = []

    def no_tables(spec):
        walked.append(spec)
        return iter(())

    monkeypatch.setattr(enumeration, "_walk", no_tables)
    for n, m in ((3, 3), (5, 1)):
        assert sweep(EnumSpec(n, m, canonical_only=False)).structures == 0
    assert walked == [EnumSpec(3, 3), EnumSpec(5, 1)]
    for n, m in ((4, 5), (1, 9)):
        with pytest.raises(ValueError, match="canonical table stream"):
            sweep(EnumSpec(n, m, canonical_only=False))
    assert len(walked) == 2


def test_every_generated_table_is_associative():
    for t in table_pool(2, 2):
        assert validate_gamma_tables(t).ok
    for t in table_pool(3, 1)[::10]:
        assert validate_gamma_tables(t).ok


def test_prefix_partition_reassembles_the_stream():
    for spec in (LABELED_SPEC_2_1, LABELED_SPEC_2_2,
                 EnumSpec(2, 2), EnumSpec(2, 3), EnumSpec(3, 2), EnumSpec(4, 1)):
        full = list(enumerate_tables(spec))
        by_first = [t for v in range(spec.n) for t in enumerate_tables(spec, prefix=(v,))]
        assert by_first == full
        # and each table's tied relabelings, which the sweeps read
        assert [w for v in range(spec.n) for w in enumeration._walk(spec, prefix=(v,))] == \
            list(enumeration._walk(spec))
    full = list(enumerate_tables(LABELED_SPEC_2_1))
    by_pair = [t for v in product(range(2), repeat=2)
               for t in enumerate_tables(LABELED_SPEC_2_1, prefix=v)]
    assert by_pair == full


def test_full_length_prefix_yields_its_table_when_kept():
    # the constant-1 table is associative, but swapping 0 and 1 makes it smaller
    ones = (1, 1, 1, 1)
    assert [t.op for t in enumerate_tables(LABELED_SPEC_2_1, prefix=ones)] == [(((1, 1), (1, 1)),)]
    assert list(enumerate_tables(EnumSpec(2, 1), prefix=ones)) == []
    zeros = (0, 0, 0, 0)
    for spec in (LABELED_SPEC_2_1, EnumSpec(2, 1)):
        assert [t.op for t in enumerate_tables(spec, prefix=zeros)] == [(((0, 0), (0, 0)),)]
    # a b = 1 - a is not associative: (0 0) 0 = 0 but 0 (0 0) = 1
    assert list(enumerate_tables(LABELED_SPEC_2_1, prefix=(1, 1, 0, 0))) == []
    kept = [u for t in table_pool(3, 1)
            for u in enumerate_tables(EnumSpec(3, 1), prefix=_cells(t))]
    assert kept == list(enumerate_tables(EnumSpec(3, 1)))


def _cells(t):
    return tuple(v for table in t.op for row in table for v in row)


@pytest.mark.parametrize("n,m,labeled", [(1, 1, 1), (1, 2, 1), (2, 1, 8), (2, 2, 14),
                                         (2, 3, 26), (3, 1, 113), (3, 2, 413), (3, 3, 1397),
                                         (4, 1, 3492), (5, 1, 183732)])
def test_labeled_table_count_is_the_orbit_sum_of_canonical_tables(n, m, labeled):
    # orbit-stabilizer over S_n x S_m, each stabilizer the identity and
    # the relabelings the canonical walk leaves tied with the table, held
    # relabeling by relabeling to the stabilizer found from images built
    # in full (on every tenth table at (5, 1)); at m = 1 the sums are
    # OEIS A023814
    group = enumeration._relabelings(n, m)
    assert len(group) == factorial(n) * factorial(m)
    walked = _census_walk() if (n, m) == (5, 1) else enumeration._walk(EnumSpec(n, m))
    orbit_sum = 0
    for index, (t, tied) in enumerate(walked):
        if (n, m) != (5, 1) or index % 10 == 0:
            cells = _cells(t)
            stabilizer = [r for r in group if tuple(r[0][cells[j]] for j in r[1]) == cells]
            assert [group[0], *tied] == stabilizer
        orbit_sum += len(group) // (1 + len(tied))
    assert orbit_sum == labeled
    if n * n * m <= MAX_TABLE_CELLS:
        assert len(table_pool(n, m)) == labeled


def test_prefix_validation():
    with pytest.raises(ValueError):
        list(enumerate_tables(LABELED_SPEC_2_1, prefix=(2,)))
    with pytest.raises(ValueError):
        list(enumerate_tables(LABELED_SPEC_2_1, prefix=(0,) * 5))


def test_partial_order_counts_and_validity():
    for n, count in ((1, 1), (2, 3), (3, 19), (4, 219)):
        orders = all_partial_orders(n)
        assert len(orders) == count
        assert len(set(orders)) == count
        for o in orders:
            assert validate_order(o).ok
        assert list(orders) == sorted(orders, key=lambda o: o.leq)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_partial_orders_equal_the_brute_filter(n):
    # every boolean matrix, in flattened order, kept when reflexive,
    # antisymmetric and transitive, written out here without validate_order
    brute = []
    for flat in product((False, True), repeat=n * n):
        leq = tuple(flat[i * n:(i + 1) * n] for i in range(n))
        els = range(n)
        if (all(leq[a][a] for a in els)
                and all(a == b or not (leq[a][b] and leq[b][a]) for a in els for b in els)
                and all(leq[a][c] or not (leq[a][b] and leq[b][c])
                        for a in els for b in els for c in els)):
            brute.append(leq)
    assert [o.leq for o in all_partial_orders(n)] == brute


def test_five_element_posets_are_pinned():
    # OEIS A001035 gives 4231; the listing calls no validate_order, which
    # stays its oracle, and the digest of the flattened relations was
    # taken off the listing that filtered every candidate through it
    orders = all_partial_orders(5)
    assert len(orders) == 4231
    assert all(validate_order(o).ok for o in orders)
    assert list(orders) == sorted(orders, key=lambda o: o.leq)
    flat = bytes(int(v) for o in orders for row in o.leq for v in row)
    assert hashlib.sha256(flat).hexdigest() == \
        "2513d2a66341b1b9aa7b4b64990d16ec117d83c921f2b5b3258209308d471616"


def test_enumerate_orders_matches_the_validator():
    for t in table_pool(2, 1) + table_pool(2, 2):
        fast = list(enumerate_orders(t))
        slow = [o for o in all_partial_orders(t.n)
                if validate_compatibility(PoGammaSemigroup(tables=t, order=o)).ok]
        assert fast == slow
        assert equality_order(t.n) in fast


@pytest.mark.parametrize("n,m,canonical", [(3, 1, False), (2, 3, False), (3, 2, False),
                                            (4, 1, True), (3, 3, True)])
def test_mask_filter_matches_order_compatible(n, m, canonical):
    spec = EnumSpec(n, m, canonical_only=canonical)
    for t in enumerate_tables(spec):
        slow = [o for o in all_partial_orders(n) if order_compatible(t, o)]
        assert list(enumerate_orders(t)) == slow


def test_sweep_never_runs_the_compatibility_scan(monkeypatch):
    def refuse(*args):
        raise AssertionError("the tuple scan is the test oracle only")

    expected = {spec: sweep(spec).structures for spec in (EnumSpec(3, 1), LABELED_SPEC_2_2)}
    monkeypatch.setattr(enumeration, "order_compatible", refuse)
    monkeypatch.setattr(enumeration, "_compatibility_failures", refuse)
    monkeypatch.setattr(model, "_compatibility_failures", refuse)
    for spec, structures in expected.items():
        assert sweep(spec).structures == structures


def test_order_compatible_early_exit_agrees_at_n3():
    for t in table_pool(3, 1)[::7]:
        for o in all_partial_orders(3):
            expected = validate_compatibility(PoGammaSemigroup(tables=t, order=o)).ok
            assert order_compatible(t, o) == expected


def test_relabel_identity_and_inverse():
    for s in structure_pool(2, 2):
        ident = relabel(s, (0, 1), (0, 1))
        assert ident == s
        moved = relabel(s, (1, 0), (1, 0))
        assert relabel(moved, (1, 0), (1, 0)) == s


def test_relabel_preserves_products_and_order():
    s = make_min_chain()
    pi = (1, 0)
    moved = relabel(s, pi, (0,))
    for a in range(2):
        for b in range(2):
            assert moved.prod(0, pi[a], pi[b]) == pi[s.prod(0, a, b)]
            assert moved.le(pi[a], pi[b]) == s.le(a, b)


def test_canonical_key_is_relabeling_invariant():
    for s in structure_pool(2, 2):
        key = canonical_key(s)
        for pi in permutations(range(2)):
            for sigma in permutations(range(2)):
                assert canonical_key(relabel(s, pi, sigma)) == key
    for s in structure_pool(3, 1)[::7]:
        key = canonical_key(s)
        for pi in permutations(range(3)):
            assert canonical_key(relabel(s, pi, (0,))) == key


def test_canonical_pool_is_one_representative_per_class():
    pool = structure_pool(2, 1)
    keys = [canonical_key(s) for s in pool]
    assert len(set(keys)) == len(pool)
    for s, key in zip(pool, keys):
        assert structure_encoding(s) == key


def test_labeled_count_is_the_orbit_sum_of_the_canonical_pool():
    labeled = structure_pool(2, 1, canonical=False)
    orbit_sum = 0
    for s in structure_pool(2, 1):
        orbit = {structure_encoding(relabel(s, pi, sigma))
                 for pi in permutations(range(2)) for sigma in permutations(range(1))}
        orbit_sum += len(orbit)
    assert orbit_sum == len(labeled) == 20


def test_structure_counts_frozen():
    assert len(structure_pool(1, 1)) == 1
    assert len(structure_pool(2, 1)) == 11
    assert len(structure_pool(2, 2)) == 15
    assert len(structure_pool(3, 1)) == 173
    assert len(structure_pool(2, 2, canonical=False)) == 34


def test_every_enumerated_structure_passes_the_validators():
    for s in structure_pool(2, 2) + structure_pool(2, 1, canonical=False):
        assert validate_structure(s).ok


def test_discrete_order_mode():
    # the discrete order is compatible with every table, so the structures
    # with that order are the tables themselves
    pool = list(enumerate_tables(LABELED_SPEC_2_1))
    assert len(pool) == 8
    assert all(equality_order(2) in enumerate_orders(t) for t in pool)
    # canonical: semigroups of order n up to isomorphism, OEIS A027851
    counts = [sum(1 for _ in enumerate_tables(EnumSpec(n, 1))) for n in range(1, 5)]
    assert counts == [1, 5, 24, 188]


def test_classify_named_structures():
    all_true = {"regular": True, "completely_regular": True,
                "strongly_regular": True, "product_property": True}
    assert classify(make_min_chain()) == all_true
    assert classify(make_left_zero()) == all_true
    assert classify(make_null_table()) == {
        "regular": False, "completely_regular": False,
        "strongly_regular": False, "product_property": False}
    # the flags are genuinely independent: the product property can hold
    # without complete regularity
    assert classify(make_product_gap()) == {
        "regular": True, "completely_regular": False,
        "strongly_regular": False, "product_property": True}


def test_random_structures_are_seeded_and_valid():
    first = random_structures(4, 1, 30, seed=11)
    second = random_structures(4, 1, 30, seed=11)
    assert first == second
    assert len(first) == 30
    for s in first:
        assert validate_structure(s).ok
    assert len({structure_encoding(s) for s in first}) > 1


def test_sweep_canonical_2_1():
    report = sweep(EnumSpec(2, 1))
    assert report.theorems == ("prop2", "prop3", "prop4", "prop5", "prop6-forward",
                               "prop6-converse", "remark7", "thm8", "thm9")
    assert report.structures == 11
    assert report.regular_structures == 9
    assert report.completely_regular_structures == 9
    assert report.strongly_regular_structures == 9
    assert report.product_property_structures == 9
    assert report.product_without_cr == 0
    assert report.product_without_cr_examples == []
    assert report.violations == []
    assert len(report.product_without_cr_examples) <= SWEEP_EXAMPLE_CAP


def test_sweep_labeled_2_1():
    assert sweep(EnumSpec(2, 1, canonical_only=False)).structures == 20


def test_sweep_workers_do_not_change_the_report(monkeypatch):
    # at a threshold of 0 the pool takes every table past the first, so
    # at (1, 1), a single table, it gets none
    monkeypatch.setattr(enumeration, "SWEEP_POOL_AFTER_S", 0)
    for spec in (EnumSpec(2, 2), EnumSpec(3, 1), LABELED_SPEC_2_2, EnumSpec(1, 1),
                 LABELED_SPEC_3_2, LABELED_SPEC_3_3):
        solo = sweep(spec, workers=1)
        for workers in (2, 3):
            other = sweep(spec, workers=workers)
            assert other == solo
            assert serialize_report(other) == serialize_report(solo)
    # labeled (3, 3), past the labeled stream's guard, pinned by
    # `sweep --n 3 --m 3 --format machine` from before its sweep was admitted
    assert solo.structures == 10103
    digest = hashlib.sha256(serialize_report(solo).encode("utf-8")).hexdigest()
    assert digest == "15aa2ef31bfe30ecb9896352674a1bd6214febe0f4948695dd3b7defe8aa3d44"


def test_sweep_theorem_subset_and_unknown_id():
    report = sweep(EnumSpec(2, 1), theorem_ids=("prop4",))
    assert report.theorems == ("prop4",)
    assert report.violations == []
    with pytest.raises(ValueError):
        sweep(EnumSpec(2, 1), theorem_ids=("prop4", "conjecture1"))


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_canonical_generation_equals_the_brute_filter(n, m):
    brute = [s for s in structure_pool(n, m, canonical=False)
             if structure_encoding(s) == canonical_key(s)]
    assert list(enumerate_structures(EnumSpec(n, m))) == brute
    # every relabeling fixes the discrete order, so these are the minimal tables
    discrete = [PoGammaSemigroup(tables=t, order=equality_order(n)) for t in table_pool(n, m)]
    brute_tables = [s.tables for s in discrete if structure_encoding(s) == canonical_key(s)]
    assert list(enumerate_tables(EnumSpec(n, m))) == brute_tables


def test_canonical_generation_never_calls_the_brute_key(monkeypatch):
    def refuse(s):
        raise AssertionError("canonical_key is the test oracle only")

    monkeypatch.setattr(enumeration, "canonical_key", refuse)
    assert len(list(enumerate_structures(EnumSpec(3, 1)))) == 173
    assert sweep(EnumSpec(2, 2), workers=2).structures == 15


def test_sweep_canonical_4_1(monkeypatch):
    # (4, 1) ends in process before the pool's threshold; at 0 the pool
    # starts after the first table, and its forked workers give the pin too
    report = sweep(EnumSpec(4, 1), workers=2)
    monkeypatch.setattr(enumeration, "SWEEP_POOL_AFTER_S", 0)
    assert sweep(EnumSpec(4, 1), workers=2) == report
    assert report.structures == 4753
    assert report.product_without_cr == 12
    assert len(report.product_without_cr_examples) == SWEEP_EXAMPLE_CAP
    assert report.violations == []
    # sha256 of `sweep --n 4 --m 1 --canonical --format machine`
    digest = hashlib.sha256(serialize_report(report).encode("utf-8")).hexdigest()
    assert digest == "8e14eb257d6dfcd40498683f4f6f689f3c3eff383eab7b1b414087971da1a632"
    # the product_gap fixture is one of the census's separating examples
    gap = canonical_key(load(FIXTURE_DIR / "product_gap.json"))
    assert gap in [structure_encoding(s) for s in report.product_without_cr_examples]


def test_sweep_labeled_4_1(monkeypatch):
    report = sweep(EnumSpec(4, 1, canonical_only=False), workers=2)
    monkeypatch.setattr(enumeration, "SWEEP_POOL_AFTER_S", 0)
    assert sweep(EnumSpec(4, 1, canonical_only=False), workers=2) == report
    assert report.structures == 107688
    assert report.product_without_cr == 288
    assert len(report.product_without_cr_examples) == SWEEP_EXAMPLE_CAP
    assert report.violations == []
    # sha256 of `sweep --n 4 --m 1 --format machine`, first made by walking
    # every labeled structure
    digest = hashlib.sha256(serialize_report(report).encode("utf-8")).hexdigest()
    assert digest == "22b3ff27eff7056bcf9b24e03522f14b7c5526787b4611f4e0dc010c6b9f3b02"


CENSUS = ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1))


def _brute_sweep(spec):
    # the structure stream itself, labeled or canonical, every structure
    # classified and checked on its own, and the lists left to the merge
    # to sort and cap: the gap examples as encodings, of which the merge
    # builds the ones it keeps
    ids = theorems.THEOREM_IDS
    r = enumeration.SweepReport(spec.n, spec.m, spec.canonical_only, True, ids)
    for s in enumerate_structures(spec):
        flags = classify(s)
        r.structures += 1
        for key, flag in flags.items():
            setattr(r, f"{key}_structures", getattr(r, f"{key}_structures") + flag)
        if flags["product_property"] and not flags["completely_regular"]:
            r.product_without_cr += 1
            r.product_without_cr_examples.append(structure_encoding(s))
        r.violations += enumeration._violations(s, ids)
    return enumeration._merge_partitions(spec, ids, [r])


def _plant_violations(monkeypatch):
    # no real sweep reports a violation, so plant one on every structure
    # that is not completely regular, with that structure's own least
    # failing element as the witness, in both definitions of the claim:
    # its mask, which picks the posets a sweep builds, and its checker
    checks, masks = dict(theorems.CHECKERS), dict(theorems.MASKS)

    def planted(s):
        a = setcalc.is_completely_regular(s)
        if a is None:
            return checks["thm8"](s)
        return theorems._violated("thm8", {"a": a}, "planted")

    def planted_mask(sl):
        return masks["thm8"](sl) | sl.keep & ~sl.holds["completely-regular"]

    monkeypatch.setitem(theorems.CHECKERS, "thm8", planted)
    monkeypatch.setitem(theorems.MASKS, "thm8", planted_mask)


@pytest.mark.parametrize("planted", [True, False])
@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_labeled_sweep_equals_the_brute_tally(monkeypatch, n, m, planted):
    # with violations planted, every image of each violated class is
    # listed with the checkers' own witness
    if planted:
        _plant_violations(monkeypatch)
    spec = EnumSpec(n, m, canonical_only=False)
    report, brute = sweep(spec), _brute_sweep(spec)
    assert report == brute
    assert serialize_report(report) == serialize_report(brute)
    assert len(report.violations) == planted * (report.structures
                                                - report.completely_regular_structures)


@pytest.mark.parametrize("planted", [True, False])
@pytest.mark.parametrize("n,m", CENSUS)
def test_canonical_sweep_equals_the_brute_tally(monkeypatch, n, m, planted):
    # a table that is not self-dual also lists its dual's structures, each
    # as the least of its reversed images, so the brute walk over every
    # canonical table and order is the oracle of that minimum
    if planted:
        _plant_violations(monkeypatch)
    spec = EnumSpec(n, m)
    brute = _brute_sweep(spec)
    for workers in (1, 2):
        report = sweep(spec, workers=workers)
        assert report == brute
        assert serialize_report(report) == serialize_report(brute)


def test_labeled_sweep_lists_each_image_of_a_violated_class(monkeypatch):
    # each image once, in encoding order, with its own least failing element
    _plant_violations(monkeypatch)
    for spec in (LABELED_SPEC_2_2, EnumSpec(3, 1, canonical_only=False)):
        report = sweep(spec)
        keys = [structure_encoding(v.structure) for v in report.violations]
        assert keys == sorted(set(keys))
        assert all(v.report.witness["a"] == setcalc.is_completely_regular(v.structure)
                   for v in report.violations)


def test_labeled_sweep_checks_each_class_once(monkeypatch):
    walked, checked, built = [], [], []

    def counted_tables(spec, *args):
        walked.append(spec)
        return walk(spec, *args)

    def counted_run(s, ids):
        checked.append(s)
        return run_selected(s, ids)

    def counted_structure(**parts):
        built.append(structure(**parts))
        return built[-1]

    def refuse(*args):
        raise AssertionError("a sweep decides its flags over the slice and lists its "
                             "images from _relabelings")

    run_selected, walk = theorems.run_selected, enumeration._walk
    structure = enumeration.PoGammaSemigroup
    monkeypatch.setattr(enumeration, "_walk", counted_tables)
    monkeypatch.setattr(theorems, "run_selected", counted_run)
    monkeypatch.setattr(enumeration, "PoGammaSemigroup", counted_structure)
    # the oracles stay off the sweep path
    for name in ("classify", "relabel", "canonical_key"):
        monkeypatch.setattr(enumeration, name, refuse)
    report = sweep(LABELED_SPEC_3_2)
    assert report.structures == 3203
    assert report.product_without_cr == 0 and report.violations == []
    # the canonical tables only, each class decided once over its table's
    # slice, and checkers run only for the classes a claim's mask marks:
    # none, not even the gap classes, which are listed as they are
    assert walked == [EnumSpec(3, 2, canonical_only=True)]
    assert built == []
    for spec, gap in ((EnumSpec(4, 1), 12), (EnumSpec(4, 1, canonical_only=False), 288)):
        built.clear()
        report = sweep(spec)
        assert report.product_without_cr == gap and report.violations == []
        # of the gap structures or images, only the examples the report keeps are built
        assert built == report.product_without_cr_examples
        assert len(built) == SWEEP_EXAMPLE_CAP
    assert walked[1:] == [EnumSpec(4, 1)] * 2
    assert checked == []
    # a violated class has each of its images built and checked once, and
    # the images over one table share its table tier
    table_tiers = Counter()

    class CountedTables(setcalc._TableFacts):
        def __init__(self, tables):
            table_tiers[tables.op] += 1
            super().__init__(tables)

    _plant_violations(monkeypatch)
    monkeypatch.setattr(setcalc, "_TableFacts", CountedTables)
    built.clear()
    report = sweep(EnumSpec(3, 1, canonical_only=False))
    assert report.product_without_cr_examples == []
    assert len(report.violations) == report.structures - report.completely_regular_structures
    assert built == checked
    assert sorted(built, key=structure_encoding) == [v.structure for v in report.violations]
    # the tables tallied, one per class up to relabeling and reversal, and
    # the images of their violated classes, their duals' images among them
    tallied = {t.op for t in _tallied(enumerate_tables(EnumSpec(3, 1)))}
    assert set(table_tiers) == tallied | {v.structure.tables.op for v in report.violations}
    assert set(table_tiers.values()) == {1}


def test_sweep_caps_workers_at_the_cpu_count(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("one CPU runs the sweep in process")

    solo = sweep(EnumSpec(2, 2), workers=1)
    monkeypatch.setattr(enumeration, "SWEEP_POOL_AFTER_S", 0)
    monkeypatch.setattr(multiprocessing, "Pool", refuse)
    # an affinity set of one CPU, as under `taskset -c 0`, on a 4-CPU machine
    _pretend_cpus(monkeypatch, 1, machine=4)
    assert sweep(EnumSpec(2, 2), workers=3) == solo
    # where the platform has no affinity set, the machine's count
    monkeypatch.delattr(enumeration.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 1)
    assert sweep(EnumSpec(2, 2), workers=3) == solo


def _pretend_cpus(monkeypatch, usable, machine=None):
    """Let this process use usable CPUs of a machine with machine CPUs."""
    monkeypatch.setattr(enumeration.os, "sched_getaffinity", lambda pid: set(range(usable)),
                        raising=False)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: machine or usable)


def _clock_per_table(monkeypatch, seconds):
    """Make process_time read seconds of CPU per table tallied so far, in
    process or in a pool; returns the list of tallied tables."""
    tallied = []
    tally = enumeration._table_tally

    def counted(spec, ids, walked):
        tallied.append(walked)
        return tally(spec, ids, walked)

    monkeypatch.setattr(enumeration, "_table_tally", counted)
    monkeypatch.setattr(enumeration, "time",
                        SimpleNamespace(process_time=lambda: seconds * len(tallied)))
    return tallied


class _InProcessPool:
    """A pool that runs every task in this process, so a test can count calls."""

    def __init__(self, processes):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, func, iterable, chunksize=1):
        return map(func, iterable)

    def map(self, func, iterable, chunksize=None):
        return list(map(func, iterable))

    def starmap(self, func, iterable, chunksize=None):
        return list(starmap(func, iterable))


def test_sweep_generates_the_table_stream_once(monkeypatch):
    solo = sweep(EnumSpec(2, 2), workers=1)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return walk(*args, **kwargs)

    walk = enumeration._walk
    _pretend_cpus(monkeypatch, 4)
    monkeypatch.setattr(enumeration, "SWEEP_POOL_AFTER_S", 0)
    monkeypatch.setattr(multiprocessing, "Pool", _InProcessPool)
    monkeypatch.setattr(enumeration, "_walk", counted)
    assert sweep(EnumSpec(2, 2), workers=3) == solo
    assert len(calls) == 1


def test_sweep_scans_no_witness_and_builds_only_listed_structures(monkeypatch, capsys):
    # fact tiers and witness scans, counted over a canonical sweep.  Each
    # table builds one table tier, whose slice decides every kept poset at
    # once from its union masks: the kinds with a set form read it off the
    # products, and strong regularity off its letter groups, built once
    # per table, so no candidate is scanned.  Only a structure the report
    # lists is built, and only one that a claim's mask marks builds a
    # structure tier: the 12 gap examples of (4, 1) build none.  The
    # slice, every checker and analyze read the bitmask tables, so the
    # frozenset definitions (every one goes through set_product or
    # downward_closure) are never called.
    table_tiers, strong_builds, scans = (Counter() for _ in range(3))
    structure_tiers = []   # (order, tier) per structure tier built
    frozenset_calls = Counter()

    def counted(name):
        definition = getattr(setcalc, name)

        def call(*args):
            frozenset_calls[name] += 1
            return definition(*args)
        return call

    for module in (setcalc, theorems, enumeration, cli):
        for name in ("set_product", "downward_closure"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name))

    candidates = setcalc._candidates

    def counted_candidates(op, n, m, a, kind):
        scans[op, a, kind] += 1
        return candidates(op, n, m, a, kind)

    class CountedTables(setcalc._TableFacts):
        def __init__(self, tables):
            table_tiers[tables.op] += 1
            super().__init__(tables)

        @setcalc._cached
        def strong(self):
            strong_builds[self.op] += 1
            return super().strong

    class CountedOrders(setcalc._OrderFacts):
        def __init__(self, table, order):
            structure_tiers.append((order, self))
            super().__init__(table, order)

    monkeypatch.setattr(setcalc, "_TableFacts", CountedTables)
    monkeypatch.setattr(setcalc, "_OrderFacts", CountedOrders)
    monkeypatch.setattr(setcalc, "_candidates", counted_candidates)
    spec = EnumSpec(4, 1)
    report = sweep(spec)
    assert report.structures == 4753 and report.violations == []
    # one table tier per table tallied, 126 of the 188 canonical tables,
    # and no structure tier
    tallied = _tallied(enumerate_tables(spec))
    assert sorted(table_tiers) == sorted(t.op for t in tallied)
    assert len(table_tiers) == 126
    assert set(table_tiers.values()) == {1}
    assert report.product_without_cr == 12 and structure_tiers == []
    # the strong facts built once per tallied table, and no candidate scanned
    assert strong_builds == table_tiers
    assert not scans
    assert not frozenset_calls
    # a loaded structure brings its own order object, so each call builds
    # its own structure tier and no call reads another call's
    for path in sorted(FIXTURE_DIR.glob("*.json")):
        for command in ("analyze", "check"):
            for fmt in ("text", "machine"):
                built = len(structure_tiers)
                assert cli.main([command, str(path), "--format", fmt]) == 0
                assert len(structure_tiers) == built + 1
    capsys.readouterr()
    called = [tier for _, tier in structure_tiers]
    assert len({id(tier) for tier in called}) == len(called) == 4 * len(list(FIXTURE_DIR.glob("*.json")))
    assert not frozenset_calls
    # the counters see a frozenset definition when one is called
    setcalc.is_bi_ideal(make_min_chain(), {0})
    assert set(frozenset_calls) == {"set_product", "downward_closure"}


def _reversed(t):
    # every product read backwards: a g' b = b g a
    return GammaTables(t.n, t.m, tuple(tuple(zip(*table)) for table in t.op))


def _symmetric_facts(s):
    # what reversal keeps, with left and right regularity swapped
    return (classify(s), [r.status for r in theorems.run_all(s)],
            [setcalc.regularity(s, a, "left-regular") is None for a in range(s.n)],
            [setcalc.regularity(s, a, "right-regular") is None for a in range(s.n)])


def test_reversal_keeps_classes_and_statuses_and_swaps_left_and_right():
    # an oracle from symmetry: reading every product backwards gives
    # another po-Gamma-semigroup with the same order and bi-ideals, so it
    # keeps regularity, complete and strong regularity, the product
    # property and every claim's status, and swaps left and right regularity
    checked = 0
    for n, m in CENSUS:
        groups = {}
        for s in structure_pool(n, m):
            groups.setdefault(s.tables, []).append(s)
        for tables, group in groups.items():
            back = _reversed(tables)
            assert validate_gamma_tables(back).ok
            facts = [_symmetric_facts(s) for s in group]
            for s, (flags, statuses, left, right) in zip(group, facts):
                r = PoGammaSemigroup(back, s.order)
                assert validate_compatibility(r).ok
                assert _symmetric_facts(r) == (flags, statuses, right, left)
                checked += 1
    assert checked == 5977


def _canonical_cells(t):
    # the least relabeled table, each image built in full
    cells = _cells(t)
    return min(tuple(pi[cells[j]] for j in src) for pi, src, _ in enumeration._relabelings(t.n, t.m))


def _tallied(tables):
    # the canonical tables up to reversal: one is kept when it is the least
    # of its own and its reversal's canonical forms
    return [t for t in tables if _cells(t) <= _canonical_cells(_reversed(t))]


def test_self_dual_matches_the_reversal_built_in_full():
    # the dual test against the least relabeling of the reversed table,
    # each image built in full: None, True and False where it lies below,
    # at and above the table itself
    outcomes = Counter()
    for n, m in CENSUS + ((4, 2),):
        relabelings = enumeration._relabelings(n, m)
        for t in enumerate_tables(EnumSpec(n, m)):
            cells, back = _cells(t), _reversed(t)
            dual = _canonical_cells(back)
            expected = None if dual < cells else dual == cells
            assert enumeration._self_dual(cells, _cells(back), relabelings) is expected
            outcomes[expected] += 1
    assert outcomes == {None: 357, True: 409, False: 357}


@pytest.mark.parametrize("n,m,count", [(1, 1, 1), (2, 1, 4), (3, 1, 18), (4, 1, 126), (5, 1, 1160),
                                       (2, 2, 6), (2, 3, 7), (3, 2, 41), (3, 3, 71),
                                       (4, 2, 491), (3, 4, 112), (2, 7, 13), (3, 5, 162),
                                       (4, 3, 1381)])
def test_table_counts_up_to_anti_isomorphism(n, m, count):
    # classes up to relabeling and reversal, the tables a sweep tallies.
    # For m = 1 these are the semigroups up to isomorphism and
    # anti-isomorphism, OEIS A001423
    walked = _census_walk() if (n, m) == (5, 1) else enumeration._walk(EnumSpec(n, m))
    assert len(_tallied(t for t, _ in walked)) == count


@pytest.mark.parametrize("n,m,labeled", [(2, 2, 34), (3, 1, 971), (2, 3, 62), (3, 2, 3203)])
def test_relabeling_keeps_classes_and_statuses(n, m, labeled):
    # the invariance a labeled sweep rests on: it classifies and checks one
    # structure per isomorphism class and counts the outcome for each of
    # the class's labeled structures; each orbit is built by the oracle,
    # relabel over every (pi, sigma)
    images = 0
    for s in structure_pool(n, m):
        expected = (classify(s), [r.status for r in theorems.run_all(s)])
        orbit = {}
        for pi, sigma in product(permutations(range(n)), permutations(range(m))):
            image = relabel(s, pi, sigma)
            orbit[structure_encoding(image)] = image
        for image in orbit.values():
            assert (classify(image), [r.status for r in theorems.run_all(image)]) == expected
            images += 1
    assert images == labeled


def _automorphisms(s):
    cells = tuple(v for table in s.tables.op for row in table for v in row)
    flat = tuple(v for row in s.order.leq for v in row)
    return sum(tuple(pi[cells[j]] for j in table_src) == cells
               and tuple(flat[j] for j in order_src) == flat
               for pi, table_src, order_src in enumeration._relabelings(s.n, s.m))


@pytest.mark.parametrize("n,m,labeled", [(3, 1, 971), (3, 2, 3203), (4, 1, 107688)])
def test_labeled_structure_count_is_the_orbit_sum_of_canonical_structures(n, m, labeled):
    # orbit-stabilizer over S_n x S_m: ties the canonical order filter to
    # the labeled stream, whose counts the labeled sweeps report
    group = factorial(n) * factorial(m)
    assert sum(group // _automorphisms(s) for s in structure_pool(n, m)) == labeled
    if (n, m) == (3, 1):
        assert len(structure_pool(n, m, canonical=False)) == labeled


def test_sweep_fills_the_posets_before_the_pool_forks(monkeypatch):
    # every cache is filled when the pool starts, so forked workers
    # inherit them: the walk fills the relabelings, and the first table
    # tallied in process fills the poset columns and the poset table
    filled = []
    caches = (enumeration._poset_columns, enumeration._poset_table, enumeration._relabelings)

    class Recording(_InProcessPool):
        def __init__(self, processes):
            filled.append(tuple(cache.cache_info().currsize for cache in caches))

    spec = LABELED_SPEC_3_2
    solo = sweep(spec, workers=1)
    for cache in caches:
        cache.cache_clear()
    _pretend_cpus(monkeypatch, 2)
    monkeypatch.setattr(enumeration, "SWEEP_POOL_AFTER_S", 0)
    monkeypatch.setattr(multiprocessing, "Pool", Recording)
    assert sweep(spec, workers=2) == solo
    assert filled == [(1, 1, 1)]


def test_slices_at_one_n_read_one_poset_table(monkeypatch):
    # the poset table is built once per n, and its cache, not a slice,
    # owns it: every slice of a sweep reads the one object
    read = []

    class Recording(setcalc._Slice):
        def __init__(self, table, posets, keep):
            super().__init__(table, posets, keep)
            read.append(posets)

    monkeypatch.setattr(setcalc, "_Slice", Recording)
    sweep(EnumSpec(3, 2))
    assert len(read) > 1
    assert all(posets is enumeration._poset_table(3) for posets in read)


@lru_cache(maxsize=None)
def _census_walk():
    return tuple(enumeration._walk(EnumSpec(5, 1)))


def test_five_element_census_slice():
    # OEIS A001035 gives 4231 posets on 5 elements and A027851 1915
    # semigroups of order 5 up to isomorphism; every tenth canonical
    # table then carries 20,675 canonical structures (198,838 over all)
    assert len(all_partial_orders(5)) == 4231
    walked = _census_walk()
    assert len(walked) == 1915
    spec = EnumSpec(5, 1)
    assert sum(1 for t, tied in walked[::10]
               for _ in enumeration._table_structures(spec, t, tied)) == 20675


def _bits(mask, i):
    return bool(mask >> i & 1)


def _mask(members):
    return sum(1 << x for x in members)


def _closure_at(cols, i):
    # (S] on poset i, read off the slice's columns inclo[S]
    return _mask(z for z, col in enumerate(cols) if _bits(col, i))


@lru_cache(maxsize=None)
def _assert_poset_table(n):
    # every entry of the poset table of n against downward_closure on each
    # poset: per subset S, the posets grouped by (S] on them give where
    # each z lies in (S] (inclo[S][z]), where each T lies inside (S]
    # (inside[S][T]) and where S is down-closed (down[S])
    table, size = enumeration._poset_table(n), 1 << n
    null = GammaTables(n=n, m=1, op=(((0,) * n,) * n,))
    structures = [PoGammaSemigroup(tables=null, order=o) for o in all_partial_orders(n)]
    for s in range(size):
        members = setcalc._members(s)
        by_closure = [0] * size
        for i, structure in enumerate(structures):
            by_closure[_mask(setcalc.downward_closure(structure, members))] |= 1 << i
        assert table.inclo[s] == [sum(p for c, p in enumerate(by_closure) if _bits(c, z))
                                  for z in range(n)]
        assert table.inside[s] == [sum(p for c, p in enumerate(by_closure) if not t & ~c)
                                   for t in range(size)]
        assert table.down[s] == by_closure[s]


def _assert_slice_matches_each_structure(t, keep):
    # the sliced flags against classify and each claim's violation mask
    # against its checker, poset by poset, and each side the masks read:
    # the witness kinds, the bi-ideals, the product property and every
    # entry of the poset table, which gives B(a), B(aa), B(aaMaa),
    # (M a M], (M a], (a M] and (x M y]; returns the violation masks
    n = t.n
    posets = all_partial_orders(n)
    _assert_poset_table(n)
    sl = setcalc._Slice(setcalc._TableFacts(t), enumeration._poset_table(n), keep)
    flags = enumeration._classify_slice(sl)
    masks = {tid: mask(sl) for tid, mask in theorems.MASKS.items()}
    holds = {kind: sl.holds[kind] for kind in setcalc.REGULARITY_KINDS}
    for i in setcalc._members(keep):
        s = PoGammaSemigroup(tables=t, order=posets[i])
        assert {key: _bits(flag, i) for key, flag in flags.items()} == classify(s)
        assert {tid: _bits(mask, i) for tid, mask in masks.items()} == \
            {r.theorem_id: r.status == "violation" for r in theorems.run_all(s)}
        for kind, mask in holds.items():
            assert _bits(mask, i) == (setcalc._least_without(s, kind) is None)
        # the bi-ideals and the closures (S] against the structure's own
        # fact tiers, which the setcalc tests hold against is_bi_ideal and
        # downward_closure; the product property and B(a) against the
        # frozenset definitions themselves
        bi_ideals = setcalc.all_bi_ideals(s)
        assert [b for b, down in sl.bi_ideals if _bits(down, i)] == [_mask(b) for b in bi_ideals]
        assert _bits(sl.product_property, i) == all(
            setcalc.downward_closure(s, setcalc.set_product(s, b, b)) == b for b in bi_ideals)
        assert [_closure_at(sl.inclo[sl.table.AuAMA[1 << a]], i) for a in range(n)] == \
            [_mask(setcalc.bi_ideal_generated_formula(s, {a})) for a in range(n)]
    # nothing is decided for a poset outside keep
    assert all(not mask & ~keep for mask in (*flags.values(), *masks.values()))
    return masks


@pytest.mark.parametrize("n,m", CENSUS)
def test_sliced_facts_match_each_structure(n, m):
    spec = EnumSpec(n, m)
    for t, tied in enumeration._walk(spec):
        keep = enumeration._minimal_orders(t, enumeration._compatible_orders(t), tied)[0]
        _assert_slice_matches_each_structure(t, keep)


def test_sliced_facts_match_each_structure_on_the_census_slice():
    for t, tied in _census_walk()[::10]:
        keep = enumeration._minimal_orders(t, enumeration._compatible_orders(t), tied)[0]
        _assert_slice_matches_each_structure(t, keep)


def test_claim_masks_match_the_checkers_where_claims_fail():
    # no structure a sweep meets violates a claim, so the masks are also
    # held against the checkers on every raw fill at (2, 1) and (2, 2) and
    # a seeded sample at (3, 1), none of them need be associative, with
    # every poset; there every claim fails somewhere, and thm9's mask
    # meets an (M a M] that is no subsemigroup and one that is but is
    # not strongly regular within itself, by the frozenset definitions,
    # and on some posets of the last fill one whose members each have a
    # strong-regularity witness in M, but not all of them within it
    rng = random.Random(5)
    fills = [*product(range(2), repeat=4), *product(range(2), repeat=8),
             *(tuple(rng.randrange(3) for _ in range(9)) for _ in range(300)),
             (2, 1, 0, 2, 1, 1, 0, 1, 1)]
    failed, spans = Counter(), Counter()
    for cells in fills:
        n = 2 if len(cells) < 9 else 3
        t = enumeration._tables_from_cells(cells, n, len(cells) // (n * n))
        posets = all_partial_orders(n)
        for tid, mask in _assert_slice_matches_each_structure(t, (1 << len(posets)) - 1).items():
            failed[tid] += mask.bit_count()
        for order in posets:
            s = PoGammaSemigroup(tables=t, order=order)
            u = s.universe
            for a in range(n):
                span = setcalc.downward_closure(s, setcalc.word_product(s, [u, {a}, u]))
                if not setcalc.is_subsemigroup(s, span):
                    spans["not a subsemigroup"] += 1
                elif not setcalc.is_strongly_regular_subset(s, span):
                    spans["not strongly regular within"] += 1
                    if all(setcalc.regularity(s, b, "strongly-regular") for b in span):
                        spans["witnessed only outside"] += 1
    assert set(failed) == set(theorems.THEOREM_IDS) and all(failed.values())
    assert set(spans) == {"not a subsemigroup", "not strongly regular within",
                          "witnessed only outside"}



def test_table_tier_and_slice_are_freed_without_the_collector():
    # their maps hold locals, never their owner, so reference counting
    # alone frees a table tier and its slice once a sweep moves on; the
    # min chain is strongly regular, so thm8 splits its posets too
    t = make_min_chain().tables
    gc.disable()
    try:
        table = setcalc._TableFacts(t)
        sl = setcalc._Slice(table, enumeration._poset_table(t.n), enumeration._compatible_orders(t))
        enumeration._classify_slice(sl)
        assert sl.holds["strongly-regular"]
        for mask in theorems.MASKS.values():
            mask(sl)
        for obj in table, sl:
            lazy = {k for k, v in vars(type(obj)).items() if isinstance(v, setcalc._cached)}
            assert lazy <= vars(obj).keys()
        refs = weakref.ref(table), weakref.ref(sl)
        del table, sl, obj
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_sweep_runs_a_short_table_stream_in_process(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep that ends before the pool's threshold runs in process")

    spec = LABELED_SPEC_3_2
    solo = sweep(spec, workers=1)
    _pretend_cpus(monkeypatch, 2)
    tallied = _clock_per_table(monkeypatch, 0.0)
    monkeypatch.setattr(multiprocessing, "Pool", refuse)
    assert sweep(spec, workers=2) == solo
    assert len(tallied) == 54


@pytest.mark.parametrize("after", [1, 20])
def test_sweep_pools_the_rest_of_the_stream_once_the_clock_passes(monkeypatch, after):
    # at one second per table, the pool starts after `after` tables and
    # imaps each remaining one, and the report is the one-worker report
    spec = LABELED_SPEC_3_2
    solo = sweep(spec, workers=1)
    pooled = []

    class Recording(_InProcessPool):
        def imap(self, func, iterable, chunksize=1):
            assert chunksize == enumeration.SWEEP_CHUNK
            return map(func, (pooled.append(walked) or walked for walked in iterable))

    _pretend_cpus(monkeypatch, 2)
    tallied = _clock_per_table(monkeypatch, 1.0)
    monkeypatch.setattr(enumeration, "SWEEP_POOL_AFTER_S", after - 0.5)
    monkeypatch.setattr(multiprocessing, "Pool", Recording)
    report = sweep(spec, workers=2)
    assert report == solo
    assert serialize_report(report) == serialize_report(solo)
    assert len(tallied) == 54
    assert pooled == tallied[after:]
