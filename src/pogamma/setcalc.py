"""Subset calculus over a finite po-Gamma-semigroup.

Subsets of the universe are plain frozensets of element indices.  In
docstrings we write juxtaposition AB for the product set {x g y : x in
A, g any letter, y in B} and (A] for the downward closure of A, so for
example (A u AMA] is the closure of A united with the three-factor
product through the whole universe M.

Each structure also gets one set of bitmask tables, _Masks (element i
is bit i), built once per structure in the fact memo.  classify, the
checkers and the CLI's analyze read every subset fact from them:
bi-ideals, B(a), semiprimeness, the product property.  The frozenset
functions (downward_closure, set_product, is_bi_ideal,
semiprime_failure, ...) stay as the definitions, and the tests hold the
tables against them.  The tables take 2^n entries per element, so past
MAX_TABLE_ELEMENTS elements building them raises StructureTooLarge.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .model import PoGammaSemigroup


def _regular(op, leq, a, x, g, u):
    """a <= (a g x) u a"""
    return leq[a][op[u][op[g][a][x]][a]]


def _commute(op, a, x, g, u):
    """a g x = x g a = x u a = a u x, what strong regularity adds to regular."""
    ax = op[g][a][x]
    return ax == op[g][x][a] == op[u][x][a] == op[u][a][x]


# kind -> (letter slots, predicate(op, leq, a, element, *letters)): the
# one definition of each regularity inequality; regularity() lists them
# in the notation of the paper.  The strong predicate tests the equalities
# first because they fail far more often than the inequality.
_INEQUALITIES = {
    "regular": (2, _regular),
    "left-regular": (2, lambda op, leq, a, z, g, u: leq[a][op[u][op[g][z][a]][a]]),
    "right-regular": (2, lambda op, leq, a, y, g, u: leq[a][op[u][op[g][a][a]][y]]),
    "completely-regular": (4, lambda op, leq, a, x, g1, g2, g3, g4:
                           leq[a][op[g3][op[g2][op[g1][a][a]][x]][op[g4][a][a]]]),
    "strongly-regular": (2, lambda op, leq, a, x, g, u:
                         _commute(op, a, x, g, u) and _regular(op, leq, a, x, g, u)),
}
REGULARITY_KINDS = tuple(_INEQUALITIES)


def downward_closure(s: PoGammaSemigroup, a) -> frozenset:
    """(A]: every element lying below some member of A."""
    leq = s.order.leq
    return frozenset(t for t in range(s.n) if any(leq[t][u] for u in a))


def set_product(s: PoGammaSemigroup, a, b) -> frozenset:
    """AB: all products x g y with x in A, y in B, g any letter."""
    op = s.tables.op
    m = s.m
    return frozenset(op[g][x][y] for x in a for g in range(m) for y in b)


def word_product(s: PoGammaSemigroup, parts) -> frozenset:
    """Product of several subsets, folded from the left."""
    parts = [frozenset(p) for p in parts]
    if not parts:
        raise ValueError("word_product requires at least one factor")
    acc = parts[0]
    for p in parts[1:]:
        acc = set_product(s, acc, p)
    return acc


def is_subsemigroup(s: PoGammaSemigroup, t) -> bool:
    """Nonempty T with TT inside T."""
    t = frozenset(t)
    if not t:
        raise ValueError("subsemigroups are nonempty")
    return set_product(s, t, t) <= t


def is_bi_ideal(s: PoGammaSemigroup, b) -> bool:
    """Nonempty B with BMB inside B, closed downward."""
    b = frozenset(b)
    if not b:
        raise ValueError("bi-ideals are nonempty")
    return word_product(s, [b, s.universe, b]) <= b and downward_closure(s, b) == b


def bi_ideal_generated_formula(s: PoGammaSemigroup, a) -> frozenset:
    """(A u AMA]: the closed form of the bi-ideal generated by A."""
    a = frozenset(a)
    if not a:
        raise ValueError("generating sets are nonempty")
    return downward_closure(s, a | word_product(s, [a, s.universe, a]))


def bi_ideal_generated_fixpoint(s: PoGammaSemigroup, a) -> frozenset:
    """Least bi-ideal containing A, grown by iterating X -> (X u XMX].

    Deliberately independent of the closed form so the two routes can
    serve as mutual oracles; stabilizes within n rounds.
    """
    a = frozenset(a)
    if not a:
        raise ValueError("generating sets are nonempty")
    u = s.universe
    cur = a
    while True:
        nxt = downward_closure(s, cur | word_product(s, [cur, u, cur]))
        if nxt == cur:
            return cur
        cur = nxt


_last = (None, {})   # the structure last asked about, and its facts


def _facts(s: PoGammaSemigroup) -> dict:
    """Facts about s, found by identity (never by hashing its nested tuples) until another
    structure is asked about: (element, kind) witnesses and "masks"."""
    global _last
    if _last[0] is not s:
        _last = (s, {})
    return _last[1]


def _union_table(size: int, per_bit) -> list:
    """t[A] for every mask A < size: the union of per_bit[i] over the bits i of A,
    each entry the entry without A's lowest bit plus that bit's own."""
    t = [0] * size
    for a in range(1, size):
        low = a & -a
        t[a] = t[a ^ low] | per_bit[low.bit_length() - 1]
    return t


def _members(mask: int) -> list:
    """The elements of a mask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


MAX_TABLE_ELEMENTS = 20   # n = 20 already takes seconds and hundreds of MB


class StructureTooLarge(ValueError):
    """The structure has too many elements for the bitmask tables."""


class _Masks:
    """Bitmask tables of one structure, element i as bit i: clo[A] is (A],
    am[A] is AM, left[x][B] is xB and pe[x][y] is x g y over every letter g;
    bi_ideals lists every bi-ideal B, ascending (B = (B] and BMB inside B),
    principal[a] is B(a) and product_failure the first B with (BB] != B."""

    __slots__ = ("full", "clo", "am", "left", "pe", "bi_ideals", "principal", "product_failure")

    def __init__(self, s: PoGammaSemigroup):
        n, op, leq = s.n, s.tables.op, s.order.leq
        if n > MAX_TABLE_ELEMENTS:
            raise StructureTooLarge(
                f"n = {n} is past the {MAX_TABLE_ELEMENTS}-element limit of the subset "
                f"tables, which take 2^n entries per element")
        size = 1 << n
        self.full = size - 1
        down = [sum(1 << t for t in range(n) if leq[t][u]) for u in range(n)]
        self.clo = _union_table(size, down)
        self.pe = [[0] * n for _ in range(n)]
        for table in op:
            for x, row in enumerate(table):
                for y, z in enumerate(row):
                    self.pe[x][y] |= 1 << z
        self.left = [_union_table(size, row) for row in self.pe]
        self.am = _union_table(size, [row[self.full] for row in self.left])
        self.bi_ideals = tuple(b for b in range(1, size)
                               if self.clo[b] == b and not self.mul(self.am[b], b) & ~b)
        self.principal = tuple(self.generated(1 << a) for a in range(n))
        self.product_failure = next(
            (b for b in self.bi_ideals if self.clo[self.mul(b, b)] != b), None)

    def mul(self, a: int, b: int) -> int:
        """AB"""
        out = 0
        for x, row in enumerate(self.left):
            if a >> x & 1:
                out |= row[b]
        return out

    def generated(self, a: int) -> int:
        """(A u AMA], the bi-ideal generated by a nonempty A"""
        return self.clo[a | self.mul(self.am[a], a)]

    def semiprime_failure(self, b: int):
        """Least a outside B with aa inside B, or None when B is semiprime."""
        return next((a for a, row in enumerate(self.pe) if not (b >> a & 1 or row[a] & ~b)), None)


def _masks(s: PoGammaSemigroup) -> _Masks:
    """The bitmask tables of s, built on first request."""
    facts = _facts(s)
    if "masks" not in facts:
        facts["masks"] = _Masks(s)
    return facts["masks"]


def all_bi_ideals(s: PoGammaSemigroup) -> list:
    """Every bi-ideal, ascending by bit pattern (element i is bit i)."""
    return [frozenset(_members(b)) for b in _masks(s).bi_ideals]


def product_failure(s: PoGammaSemigroup):
    """First bi-ideal B with (BB] != B, or None: the one definition of
    the bi-ideal product property, scanned once per structure."""
    bad = _masks(s).product_failure
    return None if bad is None else frozenset(_members(bad))


def semiprime_failure(s: PoGammaSemigroup, b):
    """Least a with aa inside B but a outside B, or None."""
    b = frozenset(b)
    for a in range(s.n):
        if a not in b and set_product(s, frozenset({a}), frozenset({a})) <= b:
            return a
    return None


def is_semiprime(s: PoGammaSemigroup, b) -> bool:
    """B is semiprime when aa inside B forces a in B."""
    return semiprime_failure(s, b) is None


@dataclass(frozen=True)
class RegularityWitness:
    """A concrete instantiation of one regularity inequality.

    data lists the witnessing element first and then the letters, in the
    same order the search scans them; see regularity() for the layout of
    each kind.
    """

    kind: str
    element: int
    data: tuple[int, ...]


def witness_holds(s: PoGammaSemigroup, w: RegularityWitness) -> bool:
    """Re-evaluate the defining inequality of a witness."""
    if w.kind not in _INEQUALITIES:
        raise ValueError(f"unknown witness kind {w.kind!r}")
    letters, holds = _INEQUALITIES[w.kind]
    if len(w.data) != 1 + letters:
        raise ValueError(f"{w.kind} witness data needs {1 + letters} entries, got {len(w.data)}")
    return holds(s.tables.op, s.order.leq, w.element, *w.data)


def _first_hit(s: PoGammaSemigroup, a: int, kind: str, pool):
    """First data tuple, element from pool, that witnesses kind for a."""
    letters, holds = _INEQUALITIES[kind]
    op, leq = s.tables.op, s.order.leq
    for data in product(pool, *[range(s.m)] * letters):
        if holds(op, leq, a, *data):
            return data
    return None


def regularity(s: PoGammaSemigroup, a: int, kind: str):
    """First witness of the given kind for a, or None.

    The scan runs the element slot ascending, then each letter slot, and
    returns the first hit, so results are deterministic; each (a, kind)
    is scanned once per structure.  data layouts:

      regular             (x, g, u)           a <= (a g x) u a
      left-regular        (z, g, u)           a <= (z g a) u a
      right-regular       (y, g, u)           a <= (a g a) u y
      completely-regular  (x, g1, g2, g3, g4) a <= ((a g1 a) g2 x) g3 (a g4 a)
      strongly-regular    (x, g, u)           as regular, plus
                                              a g x = x g a = x u a = a u x
    """
    if kind not in _INEQUALITIES:
        raise ValueError(f"unknown regularity kind {kind!r}, expected one of {REGULARITY_KINDS}")
    facts = _facts(s)
    if (a, kind) not in facts:
        data = _first_hit(s, a, kind, range(s.n))
        facts[a, kind] = None if data is None else RegularityWitness(kind, a, data)
    return facts[a, kind]


def _least_without(s: PoGammaSemigroup, *kinds):
    """Least element lacking a witness of any of the kinds, or None."""
    for a in range(s.n):
        for kind in kinds:
            if regularity(s, a, kind) is None:
                return a
    return None


def is_completely_regular(s: PoGammaSemigroup):
    """None when every element has a completely-regular witness, else the
    least element without one."""
    return _least_without(s, "completely-regular")


def is_strongly_regular(s: PoGammaSemigroup):
    """None when every element has a strongly-regular witness, else the
    least element without one."""
    return _least_without(s, "strongly-regular")


def compose_cr_witness(s: PoGammaSemigroup, a: int, reg: RegularityWitness,
                       rreg: RegularityWitness, lreg: RegularityWitness) -> RegularityWitness:
    """Combine regular, right-regular, and left-regular witnesses for a
    into a completely-regular witness.

    The middle element is (y g1 t) g2 z built from the plain witness
    (t, g1, g2) and the one-sided elements y, z; the outer letters are
    taken from the one-sided witnesses.  Inputs are re-checked and a
    ValueError is raised if any of them does not actually hold.
    """
    for w, want in ((reg, "regular"), (rreg, "right-regular"), (lreg, "left-regular")):
        if not isinstance(w, RegularityWitness) or w.kind != want or w.element != a:
            raise ValueError(f"expected a {want} witness for element {a}")
        if not witness_holds(s, w):
            raise ValueError(f"{want} witness {w.data} does not hold for element {a}")
    t, tg1, tg2 = reg.data     # a <= (a tg1 t) tg2 a
    y, rg1, rg2 = rreg.data    # a <= (a rg1 a) rg2 y
    z, lg1, lg2 = lreg.data    # a <= (z lg1 a) lg2 a
    x = s.prod(tg2, s.prod(tg1, y, t), z)
    return RegularityWitness("completely-regular", a, (x, rg1, rg2, lg1, lg2))


def _strongly_regular_within(s: PoGammaSemigroup, mask: int) -> bool:
    """Strong regularity relativized to a subsemigroup given as a mask."""
    pool = _members(mask)
    return all(_first_hit(s, b, "strongly-regular", pool) is not None for b in pool)


def is_strongly_regular_subset(s: PoGammaSemigroup, t) -> bool:
    """Strong regularity relativized to a subsemigroup T.

    Every b in T needs an x in T with b <= (b g x) u b and the four
    equal products b g x = x g b = x u b = b u x.
    """
    t = frozenset(t)
    if not is_subsemigroup(s, t):
        raise ValueError("expected a subsemigroup")
    pool = sorted(t)
    return all(_first_hit(s, b, "strongly-regular", pool) is not None for b in pool)
