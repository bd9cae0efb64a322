"""Claim checkers: catalog order, pass behavior, witness derivations, and
naive cross-checks of two checkers on every labeled structure at n = 2."""

import hashlib
from collections import Counter
from itertools import combinations

import pytest

from conftest import (
    axiom_breaking_structures,
    make_min_chain,
    make_null_table,
    make_one_element,
    named_structures,
    structure_pool,
)
from pogamma.formats import serialize_report
from pogamma.setcalc import regularity
from pogamma.theorems import (
    THEOREM_IDS,
    CheckReport,
    check_prop4,
    check_prop6_converse,
    check_prop6_forward,
    check_remark7,
    check_thm8,
    run_all,
    run_selected,
    thm8_witness,
)

POOL = structure_pool(2, 1) + structure_pool(2, 2) + structure_pool(3, 1)


def test_run_all_passes_on_named_structures():
    for name, s in named_structures():
        reports = run_all(s)
        assert [r.theorem_id for r in reports] == list(THEOREM_IDS)
        for r in reports:
            assert r.status == "pass", f"{name} {r.theorem_id}: {r.detail}"
            assert r.witness is None
            assert isinstance(r.detail, str) and r.detail


def test_run_all_passes_on_enumerated_pool():
    for s in POOL:
        for r in run_all(s):
            assert r.status == "pass", f"{r.theorem_id}: {r.detail}"


def test_run_selected_keeps_catalog_order():
    s = make_min_chain()
    reports = run_selected(s, ["thm9", "prop2"])
    assert [r.theorem_id for r in reports] == ["prop2", "thm9"]
    only = run_selected(s, ["prop4"])
    assert [r.theorem_id for r in only] == ["prop4"]


def test_run_selected_splits_the_paired_checker():
    s = make_min_chain()
    forward = run_selected(s, ["prop6-forward"])
    assert [r.theorem_id for r in forward] == ["prop6-forward"]
    converse = run_selected(s, ["prop6-converse"])
    assert [r.theorem_id for r in converse] == ["prop6-converse"]


def test_run_selected_rejects_unknown_ids():
    with pytest.raises(ValueError):
        run_selected(make_min_chain(), ["prop2", "lemma1"])


def test_prop6_directions_are_vacuous_where_hypotheses_fail():
    # the null table is neither completely regular nor product-closed
    forward, converse = check_prop6_forward(make_null_table()), check_prop6_converse(make_null_table())
    assert forward.status == "pass" and "vacuous" in forward.detail
    assert converse.status == "pass" and "vacuous" in converse.detail
    forward, converse = check_prop6_forward(make_min_chain()), check_prop6_converse(make_min_chain())
    assert "applies" in forward.detail
    assert "applies" in converse.detail


def test_remark7_vacuous_and_active_details():
    assert "vacuous" in check_remark7(make_null_table()).detail
    assert "completely regular" in check_remark7(make_min_chain()).detail


def test_thm8_witness_examples():
    min_chain = make_min_chain()
    assert thm8_witness(min_chain, 1, 1, 0, 0) == (1, 0, 0)
    assert thm8_witness(make_one_element(), 0, 0, 0, 0) == (0, 0, 0)
    with pytest.raises(ValueError):
        thm8_witness(min_chain, 1, 0, 0, 0)


def test_thm8_derived_witnesses_replay_directly():
    from pogamma.setcalc import is_strongly_regular
    replayed = 0
    for s in POOL:
        if is_strongly_regular(s) is not None:
            continue
        assert check_thm8(s).status == "pass"
        for a in range(s.n):
            x, g, u = regularity(s, a, "strongly-regular").data
            y, g2, u2 = thm8_witness(s, a, x, g, u)
            assert (g2, u2) == (g, u)
            p = s.prod
            assert s.le(a, p(u, p(g, a, y), a))
            assert s.le(y, p(g, p(u, y, a), y))
            assert p(g, a, y) == p(g, y, a) == p(u, y, a) == p(u, a, y)
            replayed += 1
    assert replayed > 0


def test_check_report_shape():
    r = run_all(make_one_element())[0]
    assert isinstance(r, CheckReport)
    assert r.status in ("pass", "violation")
    assert r.theorem_id in THEOREM_IDS


def _naive_prop4_holds(s):
    # the equivalence restated with raw loops and itertools.combinations,
    # sharing no helper code with the checker
    n, m = s.n, s.m

    def completely(a):
        return any(
            s.le(a, s.prod(g3, s.prod(g2, s.prod(g1, a, a), x), s.prod(g4, a, a)))
            for x in range(n)
            for g1 in range(m) for g2 in range(m) for g3 in range(m) for g4 in range(m))

    cr = all(completely(a) for a in range(n))
    all_semiprime = True
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            b = set(combo)
            prods = {s.prod(g2, s.prod(g1, x, t), y)
                     for x in b for t in range(n) for y in b
                     for g1 in range(m) for g2 in range(m)}
            down = {t for t in range(n) if any(s.le(t, u) for u in b)}
            if not (prods <= b and down == b):
                continue
            for a in range(n):
                if a not in b and all(s.prod(g, a, a) in b for g in range(m)):
                    all_semiprime = False
    return cr == all_semiprime


def _naive_remark7_holds(s):
    n, m = s.n, s.m

    def strong(a):
        for x in range(n):
            for g in range(m):
                for u in range(m):
                    ax = s.prod(g, a, x)
                    if (s.le(a, s.prod(u, ax, a))
                            and ax == s.prod(g, x, a) == s.prod(u, x, a) == s.prod(u, a, x)):
                        return True
        return False

    def completely(a):
        return any(
            s.le(a, s.prod(g3, s.prod(g2, s.prod(g1, a, a), x), s.prod(g4, a, a)))
            for x in range(n)
            for g1 in range(m) for g2 in range(m) for g3 in range(m) for g4 in range(m))

    if not all(strong(a) for a in range(n)):
        return True
    return all(completely(a) for a in range(n))


def test_naive_cross_check_on_all_labeled_n2_structures():
    labeled = structure_pool(2, 1, canonical=False) + structure_pool(2, 2, canonical=False)
    assert len(labeled) == 20 + 34
    for s in labeled:
        assert (check_prop4(s).status == "pass") == _naive_prop4_holds(s)
        assert (check_remark7(s).status == "pass") == _naive_remark7_holds(s)


# sha256 over the concatenated machine reports of every axiom-breaking
# structure: run_all under "all", and a one-id run_selected under each id
VIOLATION_SHA256 = {
    "all": "324af4a7630b95958b7ee736480a767cd3ad847489f21d97541ca3f3b3116773",
    "prop2": "a224bfeec870c1e5680dbe62588934697fc5dd72ccbfc5c59b1dd668090e1cc0",
    "prop3": "d4f979b3bec050e89b7867035050819304d7212d353bc270abb744c9d6cb38b1",
    "prop4": "92b0fa027285fed6843c1e3d1f1e4e2d7ab9c66729c81851738d0ab2fee5a3cd",
    "prop5": "83a4de76933db4d8cf67671d95599b13c40b0fd02fab50e5e31a63ff9a8091b7",
    "prop6-forward": "4da251738f670e97db56b5dc31ac5fc96779064028aa0e3474214f72b830d22d",
    "prop6-converse": "7bcffcbcc20d7d21aa9f67794d19a63d54a0ee8dccea26f82b905d03cb795e20",
    "remark7": "59df6f9b6c81f431b11ed2c0ccaba2a50f9ab289b0db14cf1a3fe24a9bb85046",
    "thm8": "9a63bb6b7b3aa671cc0ed3ec90b8475226adadfc87e214a36f6489bca086ab36",
    "thm9": "4556db6f83e1634c5cd2d3184bc4c370f36318c5047f3a0185d58b533bc65c0d",
}


def test_violation_branches_are_pinned_on_axiom_breaking_structures():
    structures = list(axiom_breaking_structures())
    assert len(structures) == 64 + 1024 + 1
    digests = {key: hashlib.sha256() for key in VIOLATION_SHA256}
    violated = Counter()
    for s in structures:
        reports = run_all(s)
        digests["all"].update(serialize_report(reports).encode("utf-8"))
        violated.update(r.theorem_id for r in reports if r.status == "violation")
    # one id at a time over the whole list, so each check starts on
    # facts computed for a different structure
    for tid in THEOREM_IDS:
        for s in structures:
            digests[tid].update(serialize_report(run_selected(s, [tid])).encode("utf-8"))
    assert set(violated) == set(THEOREM_IDS)
    assert violated == {"prop2": 82, "prop3": 76, "prop4": 1, "prop5": 12, "prop6-forward": 12,
                        "prop6-converse": 70, "remark7": 22, "thm8": 164, "thm9": 54}
    assert {key: d.hexdigest() for key, d in digests.items()} == VIOLATION_SHA256
