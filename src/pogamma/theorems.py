"""Executable checkers for the workbench's claim catalog.

Each checker evaluates one universally quantified claim about bi-ideals
and regularity on a concrete finite structure and reports pass or a
violating witness.  Claim ids (prop2 .. thm9) are the stable interface
used by the CLI filter and by sweep reports; CHECKERS maps each id to
its checker, in catalog order.  Checkers read the facts setcalc keeps
per structure, so each is computed once however many run.  Equivalence
checkers evaluate every side of an equivalence independently and
compare at the end, so a bug in one side cannot mask the other.

MASKS maps each id to the second definition of its claim, next to the
checker: the same sides over every poset of one table at once (setcalc's
slice), each a mask of posets, compared into the mask of the posets
where the claim fails.  A sweep reads the masks and runs the checkers
only on the structures its report lists; the tests hold the two
definitions against each other poset by poset.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import PoGammaSemigroup
from .setcalc import is_completely_regular, is_strongly_regular, product_failure
from .setcalc import RegularityWitness, _commute, _derived_witness, _facts, _least_without, _members
from .setcalc import _mul, _regular_rhs, _strongly_regular_within, regularity, witness_holds

# the synthetic report `check --force-violation` appends to exercise exit code 1
FORCED_VIOLATION_ID = "forced-violation"


@dataclass
class CheckReport:
    """Outcome of one claim check on one structure.

    status is "pass" or "violation"; a violation always carries a witness
    mapping with enough data to re-evaluate the failure directly.
    """

    theorem_id: str
    status: str
    witness: dict | None
    detail: str


def _passed(tid: str, detail: str) -> CheckReport:
    return CheckReport(tid, "pass", None, detail)


def _violated(tid: str, witness: dict, detail: str) -> CheckReport:
    return CheckReport(tid, "violation", witness, detail)


def check_prop2(s: PoGammaSemigroup) -> CheckReport:
    """B(x) M B(y) <= (x M y] for all elements x, y."""
    o = _facts(s)
    left, am, clo, principal = o.table.left, o.table.am, o.clo, o.principal
    for x, (bx, xM) in enumerate(zip(principal, o.table.xMy)):
        for y, (by, xMy) in enumerate(zip(principal, xM)):
            extra = _mul(left, am[bx], by) & ~clo[xMy]
            if extra:
                e = _members(extra)[0]
                return _violated("prop2", {"x": x, "y": y, "element": e},
                                 f"element {e} of B({x})MB({y}) escapes (x M y]")
    return _passed("prop2", "B(x)MB(y) <= (xMy] for all pairs")


def mask_prop2(sl) -> int:
    """check_prop2's violations over a slice, element pair by element pair:
    B(x)MB(y) is the union of uMv over the u in B(x) and the v in B(y)."""
    t, inclo, inside = sl.table, sl.inclo, sl.posets.inside
    principal = [inclo[t.AuAMA[1 << x]] for x in range(sl.n)]
    bad = 0
    for bx, xM in zip(principal, t.xMy):
        for by, xMy in zip(principal, xM):
            within = inside[xMy]
            for u, uM in enumerate(t.xMy):
                for v, uMv in enumerate(uM):
                    # a uMv inside xMy lies inside (xMy] on every poset
                    if uMv & ~xMy:
                        bad |= bx[u] & by[v] & ~within[uMv]
    return bad & sl.keep


def check_prop3(s: PoGammaSemigroup) -> CheckReport:
    """Regular + left regular + right regular everywhere is the same as
    the one-inequality form a <= (a g1 a) g2 x g3 (a g4 a) everywhere."""
    conj_fail = _least_without(s, "regular", "left-regular", "right-regular")
    single_fail = is_completely_regular(s)
    conj = conj_fail is None
    single = single_fail is None
    if conj != single:
        element = single_fail if conj else conj_fail
        return _violated("prop3",
                         {"conjunction": conj, "single_inequality": single, "element": element},
                         f"sides disagree at element {element}")
    state = "hold" if conj else "fail"
    return _passed("prop3", f"both characterizations {state} together")


def mask_prop3(sl) -> int:
    """check_prop3's violations over a slice."""
    conj = sl.holds["regular"] & sl.holds["left-regular"] & sl.holds["right-regular"]
    return conj ^ sl.holds["completely-regular"]


def check_prop4(s: PoGammaSemigroup) -> CheckReport:
    """Complete regularity holds exactly when every bi-ideal is semiprime."""
    cr_fail = is_completely_regular(s)
    cr = cr_fail is None
    o = _facts(s)
    # the first bi-ideal that is not semiprime, with its least failure
    failures = ((b, o.table.semiprime_failure(b)) for b in o.bi_ideals)
    bad = next(((b, a) for b, a in failures if a is not None), None)
    all_semiprime = bad is None
    if cr != all_semiprime:
        if bad is not None:
            members = _members(bad[0])
            witness = {"bi_ideal": members, "element": bad[1]}
            detail = f"completely regular but bi-ideal {members} is not semiprime at {bad[1]}"
        else:
            witness = {"element": cr_fail}
            detail = f"every bi-ideal semiprime but element {cr_fail} is not completely regular"
        return _violated("prop4", witness, detail)
    state = "holds" if cr else "fails"
    return _passed("prop4", f"each side {state}: equivalence intact")


def mask_prop4(sl) -> int:
    """check_prop4's violations over a slice: every bi-ideal is semiprime
    where no B that fails to be is down-closed."""
    all_semiprime = sl.keep
    for b, down in sl.bi_ideals:
        if sl.table.semiprime_failure(b) is not None:
            all_semiprime &= ~down
    return sl.holds["completely-regular"] ^ all_semiprime


def check_prop5(s: PoGammaSemigroup) -> CheckReport:
    """Complete regularity, B(a) = B(aa) = B(aaMaa) for all a, and
    B(a) = B(aa) for all a hold or fail together."""
    o = _facts(s)
    t = o.table
    cr = is_completely_regular(s) is None
    chain_ok, chain_wit = True, None
    pair_ok, pair_wit = True, None
    for a in range(s.n):
        b_a = o.principal[a]
        b_aa = o.generated(t.pe[a][a])
        b_big = o.generated(t.aaMaa[a])
        if pair_ok and b_a != b_aa:
            pair_ok, pair_wit = False, a
        if chain_ok and not (b_a == b_aa == b_big):
            chain_ok, chain_wit = False, a
    if not (cr == chain_ok == pair_ok):
        element = next(w for w in (chain_wit, pair_wit, 0) if w is not None)
        return _violated("prop5",
                         {"completely_regular": cr, "triple_equality": chain_ok,
                          "pair_equality": pair_ok, "element": element},
                         f"conditions disagree at element {element}")
    state = "hold" if cr else "fail"
    return _passed("prop5", f"all three conditions {state} together")


def mask_prop5(sl) -> int:
    """check_prop5's violations over a slice, comparing (A u AMA] for
    A = a, aa and aaMaa poset by poset."""
    t = sl.table
    gen = t.AuAMA
    chain = pair = sl.keep
    for a in range(sl.n):
        b_a, b_aa, b_big = gen[1 << a], gen[t.pe[a][a]], gen[t.aaMaa[a]]
        same = sl.same_closure(b_a, b_aa)
        pair &= same
        chain &= same & sl.same_closure(b_aa, b_big)
    cr = sl.holds["completely-regular"]
    return (cr ^ chain) | (cr ^ pair)


def check_prop6_forward(s: PoGammaSemigroup) -> CheckReport:
    """Complete regularity forces B = (BB] for every bi-ideal B."""
    if is_completely_regular(s) is not None:
        return _passed("prop6-forward", "forward direction is vacuous (not completely regular)")
    product_fail = product_failure(s)
    if product_fail is not None:
        return _violated("prop6-forward", {"bi_ideal": sorted(product_fail)},
                         f"bi-ideal {sorted(product_fail)} differs from (BB]")
    return _passed("prop6-forward", "forward direction applies")


def mask_prop6_forward(sl) -> int:
    """check_prop6_forward's violations over a slice."""
    return sl.holds["completely-regular"] & ~sl.product_property


def check_prop6_converse(s: PoGammaSemigroup) -> CheckReport:
    """In the printed form: B = (BB] for every bi-ideal B forces every
    element to be regular (not the full way back to complete regularity)."""
    if product_failure(s) is not None:
        return _passed("prop6-converse", "converse direction is vacuous (product property fails)")
    reg_fail = _least_without(s, "regular")
    if reg_fail is not None:
        return _violated("prop6-converse", {"element": reg_fail},
                         f"every bi-ideal equals (BB] yet {reg_fail} is not regular")
    return _passed("prop6-converse", "converse direction applies")


def mask_prop6_converse(sl) -> int:
    """check_prop6_converse's violations over a slice."""
    return sl.product_property & ~sl.holds["regular"]


def check_remark7(s: PoGammaSemigroup) -> CheckReport:
    """Strong regularity implies complete regularity."""
    if is_strongly_regular(s) is not None:
        return _passed("remark7", "vacuous: not strongly regular")
    cr_fail = is_completely_regular(s)
    if cr_fail is not None:
        return _violated("remark7", {"element": cr_fail},
                         f"strongly regular but element {cr_fail} is not completely regular")
    return _passed("remark7", "strongly regular and completely regular")


def mask_remark7(sl) -> int:
    """check_remark7's violations over a slice."""
    return sl.holds["strongly-regular"] & ~sl.holds["completely-regular"]


def thm8_witness(s: PoGammaSemigroup, a: int, x: int, g: int, u: int) -> tuple[int, int, int]:
    """Turn a strong-regularity witness (x, g, u) for a into the derived
    witness y = (x u a) g x, keeping the letters.

    Raises ValueError when (x, g, u) is not actually a strong witness.
    """
    w = RegularityWitness("strongly-regular", a, (x, g, u))
    if not witness_holds(s, w):
        raise ValueError(f"({x}, {g}, {u}) is not a strong-regularity witness for {a}")
    return (_derived_witness(s.tables.op, a, x, g, u), g, u)


def check_thm8(s: PoGammaSemigroup) -> CheckReport:
    """On a strongly regular structure the derived witness y for each a
    satisfies a <= (a g y) u a, y <= (y u a) g y, and
    a g y = y g a = y u a = a u y."""
    if is_strongly_regular(s) is not None:
        return _passed("thm8", "vacuous: not strongly regular")
    op, leq = s.tables.op, s.order.leq
    for a in range(s.n):
        x, g, u = regularity(s, a, "strongly-regular").data
        y = _derived_witness(op, a, x, g, u)
        # a <= (a g y) u a and y <= (y u a) g y are plain regularity
        a_ok = leq[a][_regular_rhs(op, a, y, g, u)]
        y_ok = leq[y][_regular_rhs(op, y, a, u, g)]
        four_ok = _commute(op, a, y, g, u)
        if not (a_ok and y_ok and four_ok):
            return _violated("thm8",
                             {"a": a, "x": x, "y": y, "g": g, "u": u,
                              "holds": [a_ok, y_ok, four_ok]},
                             f"derived witness {y} fails for element {a}")
    return _passed("thm8", "derived witnesses verified for every element")


def mask_thm8(sl) -> int:
    """check_thm8's violations over a slice: per element, the strongly
    regular posets split by the witness check_thm8 derives from."""
    op, inclo = sl.table.op, sl.inclo
    strong = sl.holds["strongly-regular"]
    bad = 0
    for a, (_, entries) in enumerate(sl.table.strong):
        for hit, (x, g, u) in sl.firsts(entries, a, strong):
            y = _derived_witness(op, a, x, g, u)
            ok = (inclo[1 << _regular_rhs(op, a, y, g, u)][a]
                  & inclo[1 << _regular_rhs(op, y, a, u, g)][y])
            bad |= hit & ~ok if _commute(op, a, y, g, u) else hit
    return bad


def check_thm9(s: PoGammaSemigroup) -> CheckReport:
    """Strong regularity, condition (2), and condition (3) coincide.

    Condition (2): every element is left and right regular and (M a M] is
    a strongly regular subsemigroup for every a.  Condition (3): every a
    lies in (M a] and in (a M], with the same subsemigroup requirement.
    The subsemigroup property of (M a M] is itself part of the claim, so
    a failure there is reported as a violation outright.
    """
    o = _facts(s)
    t, clo = o.table, o.clo
    b1 = is_strongly_regular(s) is None
    sub_ok, tested = True, set()
    for a in range(s.n):
        span = clo[t.MaM[a]]
        if _mul(t.left, span, span) & ~span:
            return _violated("thm9", {"a": a, "subset": _members(span)},
                             f"(M {a} M] is not a subsemigroup")
        if sub_ok and span not in tested:
            tested.add(span)
            sub_ok = _strongly_regular_within(s, span)
    one_sided = _least_without(s, "left-regular", "right-regular") is None
    b2 = one_sided and sub_ok
    sided_ok = all(clo[t.Ma[a]] & clo[t.am[1 << a]] & 1 << a for a in range(s.n))
    b3 = sided_ok and sub_ok
    if not (b1 == b2 == b3):
        return _violated("thm9",
                         {"strongly_regular": b1, "condition2": b2, "condition3": b3},
                         "the three conditions disagree")
    state = "hold" if b1 else "fail"
    return _passed("thm9", f"all three conditions {state} together")


def mask_thm9(sl) -> int:
    """check_thm9's violations over a slice, element by element of each
    (M a M]: it is no subsemigroup where uv escapes it for some members u
    and v, and strongly regular within itself where each member b lies
    below a value of its strong-regularity reach at some member x."""
    t, inclo, inside = sl.table, sl.inclo, sl.posets.inside
    not_sub, sub_ok = 0, sl.keep
    for mam in t.MaM:
        member, within = inclo[mam], inside[mam]
        for u, row in enumerate(t.pe):
            for v, uv in enumerate(row):
                # a uv inside M a M lies inside (M a M] on every poset
                if uv & ~mam:
                    not_sub |= member[u] & member[v] & ~within[uv]
        for b, (reach, _) in enumerate(t.strong):
            within = 0
            for x, values in enumerate(reach):
                within |= member[x] & inclo[values][b]
            sub_ok &= ~member[b] | within
    b1 = sl.holds["strongly-regular"]
    b2 = sl.holds["left-regular"] & sl.holds["right-regular"] & sub_ok
    sided = sl.keep
    for a in range(sl.n):
        sided &= inclo[t.Ma[a]][a] & inclo[t.am[1 << a]][a]
    b3 = sided & sub_ok
    return (not_sub | (b1 ^ b2) | (b1 ^ b3)) & sl.keep


CHECKERS = {
    "prop2": check_prop2,
    "prop3": check_prop3,
    "prop4": check_prop4,
    "prop5": check_prop5,
    "prop6-forward": check_prop6_forward,
    "prop6-converse": check_prop6_converse,
    "remark7": check_remark7,
    "thm8": check_thm8,
    "thm9": check_thm9,
}
THEOREM_IDS = tuple(CHECKERS)

MASKS = {
    "prop2": mask_prop2,
    "prop3": mask_prop3,
    "prop4": mask_prop4,
    "prop5": mask_prop5,
    "prop6-forward": mask_prop6_forward,
    "prop6-converse": mask_prop6_converse,
    "remark7": mask_remark7,
    "thm8": mask_thm8,
    "thm9": mask_thm9,
}


def run_selected(s: PoGammaSemigroup, ids) -> list[CheckReport]:
    """Run the named checkers, reporting in catalog order."""
    wanted = set(ids)
    unknown = wanted - CHECKERS.keys()
    if unknown:
        raise ValueError(f"unknown theorem ids: {sorted(unknown)}")
    return [check(s) for tid, check in CHECKERS.items() if tid in wanted]


def run_all(s: PoGammaSemigroup) -> list[CheckReport]:
    """All nine checkers in catalog order."""
    return run_selected(s, THEOREM_IDS)
