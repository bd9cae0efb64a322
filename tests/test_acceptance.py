"""Acceptance gate, one test per criterion.

Each test prints a single summary line on success; the test name carries
the criterion number, so a plain `pytest -v` run shows one pass or fail
line per criterion.
"""

import random
import time

from conftest import (
    FIXTURE_DIR,
    FIXTURE_FILES,
    all_subsets,
    named_structures,
    nonempty_subsets,
    structure_pool,
)
from pogamma import enumeration
from pogamma.cli import main
from pogamma.enumeration import (
    EnumSpec,
    all_partial_orders,
    enumerate_tables,
    enumerate_tables_naive,
    random_structures,
    sweep,
)
from pogamma.formats import load_named, serialize_report, serialize_structure
from pogamma.model import PoGammaSemigroup, validate_compatibility
from pogamma.setcalc import (
    all_bi_ideals,
    bi_ideal_generated_fixpoint,
    bi_ideal_generated_formula,
    compose_cr_witness,
    downward_closure,
    is_completely_regular,
    is_strongly_regular,
    regularity,
    set_product,
    witness_holds,
)
from pogamma.theorems import thm8_witness

COMBOS = ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2))
CANONICAL_COUNTS = {(1, 1): 1, (1, 2): 1, (2, 1): 11, (2, 2): 15, (3, 1): 173, (3, 2): 371}
SWEEP_BUDGET_SECONDS = 600.0


def _sweep_pool():
    return [s for combo in COMBOS for s in structure_pool(*combo)]


def test_criterion_1_full_sweep_is_clean_and_parallel_stable(monkeypatch):
    start = time.perf_counter()
    reports = {}
    for combo in COMBOS:
        report = sweep(EnumSpec(*combo), workers=1)
        assert report.structures == CANONICAL_COUNTS[combo]
        assert report.violations == [], f"{combo}: {report.violations}"
        assert report.product_without_cr == 0
        reports[combo] = report
    elapsed = time.perf_counter() - start
    assert elapsed < SWEEP_BUDGET_SECONDS
    # every size ends before the pool's threshold; at 0 each table past the first is pooled
    monkeypatch.setattr(enumeration, "SWEEP_POOL_AFTER_S", 0)
    for combo in COMBOS:
        parallel = sweep(EnumSpec(*combo), workers=2)
        assert serialize_report(parallel) == serialize_report(reports[combo])
    total = sum(r.structures for r in reports.values())
    print(f"criterion 1 PASS: swept {total} canonical structures over {len(COMBOS)} "
          f"size combinations, 0 violations, single worker {elapsed:.2f}s "
          f"(budget {SWEEP_BUDGET_SECONDS:.0f}s), two-worker reports byte-identical")


def test_criterion_2_generated_bi_ideal_routes_agree():
    pairs = 0
    for s in _sweep_pool():
        for a in nonempty_subsets(s.n):
            assert bi_ideal_generated_formula(s, a) == bi_ideal_generated_fixpoint(s, a)
            pairs += 1
    sampled = random_structures(4, 1, 1000, seed=20260822)
    for s in sampled:
        for a in nonempty_subsets(s.n):
            assert bi_ideal_generated_formula(s, a) == bi_ideal_generated_fixpoint(s, a)
            pairs += 1
    print(f"criterion 2 PASS: closed form equals fixpoint iteration on {pairs} "
          f"(structure, generating set) pairs, including {len(sampled)} seeded "
          f"random structures at n=4")


def test_criterion_3_generated_bi_ideal_is_least():
    checked = 0
    for s in _sweep_pool():
        ideals = all_bi_ideals(s)
        for a in range(s.n):
            b = bi_ideal_generated_formula(s, {a})
            assert a in b
            assert b in ideals
            assert all(b <= c for c in ideals if a in c)
            checked += 1
    print(f"criterion 3 PASS: B(a) is the least bi-ideal containing a for all "
          f"{checked} (structure, element) pairs, verified against the full "
          f"bi-ideal listing")


def test_criterion_4_witnesses_replay_outside_the_checkers():
    derived = composed = 0
    for s in _sweep_pool():
        p = s.prod
        if is_strongly_regular(s) is None:
            for a in range(s.n):
                x, g, u = regularity(s, a, "strongly-regular").data
                y, g2, u2 = thm8_witness(s, a, x, g, u)
                assert (g2, u2) == (g, u)
                assert s.le(a, p(u, p(g, a, y), a))
                assert s.le(y, p(g, p(u, y, a), y))
                assert p(g, a, y) == p(g, y, a) == p(u, y, a) == p(u, a, y)
                derived += 1
        if is_completely_regular(s) is None:
            for a in range(s.n):
                w = compose_cr_witness(s, a,
                                       regularity(s, a, "regular"),
                                       regularity(s, a, "right-regular"),
                                       regularity(s, a, "left-regular"))
                x, g1, g2, g3, g4 = w.data
                assert s.le(a, p(g3, p(g2, p(g1, a, a), x), p(g4, a, a)))
                assert witness_holds(s, w)
                composed += 1
    assert derived > 0 and composed > 0
    print(f"criterion 4 PASS: {derived} derived witnesses and {composed} composed "
          f"witnesses re-evaluated directly against the defining inequalities")


def test_criterion_5_closure_algebra_laws():
    cases = 0
    for _, s in named_structures():
        subsets = list(all_subsets(s.n))
        for a in subsets:
            for b in subsets:
                ca = downward_closure(s, a)
                cb = downward_closure(s, b)
                assert a <= ca
                assert downward_closure(s, ca) == ca
                if a <= b:
                    assert ca <= cb
                assert set_product(s, ca, cb) <= downward_closure(s, set_product(s, a, b))
                cases += 1
    rng = random.Random(20260822)
    pool = (structure_pool(3, 1) + structure_pool(3, 2)
            + tuple(random_structures(4, 1, 200, seed=7)))
    randomized = 10_000
    for _ in range(randomized):
        s = pool[rng.randrange(len(pool))]
        mask_a = rng.randrange(1 << s.n)
        mask_b = rng.randrange(1 << s.n)
        a = frozenset(i for i in range(s.n) if mask_a >> i & 1)
        b = frozenset(i for i in range(s.n) if mask_b >> i & 1)
        ca = downward_closure(s, a)
        cb = downward_closure(s, b)
        assert a <= ca
        assert downward_closure(s, ca) == ca
        assert ca <= downward_closure(s, a | b)
        assert set_product(s, ca, cb) <= downward_closure(s, set_product(s, a, b))
        cases += 1
    print(f"criterion 5 PASS: idempotence, extensivity, monotonicity, and the "
          f"product-closure law held in {cases} cases ({randomized} randomized)")


def test_criterion_6_enumeration_counts_match_independent_routes():
    for n, m, expected in ((2, 1, 8), (2, 2, 14)):
        spec = EnumSpec(n, m, canonical_only=False)
        pruned = list(enumerate_tables(spec))
        naive = list(enumerate_tables_naive(spec))
        assert pruned == naive
        assert len(pruned) == expected
    labeled = structure_pool(2, 1, canonical=False)
    cross = sum(
        1
        for t in enumerate_tables_naive(EnumSpec(2, 1, canonical_only=False))
        for o in all_partial_orders(2)
        if validate_compatibility(PoGammaSemigroup(tables=t, order=o)).ok)
    assert cross == len(labeled) == 20
    print("criterion 6 PASS: table counts 8 and 14 and the labeled structure "
          "count 20 agree between pruned search, naive generation, and the "
          "validator-filtered cross product")


def test_criterion_7_cli_round_trip_and_exit_codes(tmp_path, capsys):
    for fname, (name, build) in FIXTURE_FILES.items():
        path = FIXTURE_DIR / fname
        text = path.read_text(encoding="utf-8")
        s, loaded_name = load_named(path)
        assert loaded_name == name
        assert s == build()
        assert serialize_structure(s, loaded_name) == text
    min_chain = str(FIXTURE_DIR / "min_chain.json")
    assert main(["check", min_chain]) == 0
    assert main(["check", min_chain, "--force-violation"]) == 1
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    assert main(["validate", str(broken)]) == 2
    capsys.readouterr()
    print("criterion 7 PASS: all four fixture files round-trip byte-for-byte and "
          "the CLI exits 0 on pass, 1 on violation, 2 on unreadable input")
