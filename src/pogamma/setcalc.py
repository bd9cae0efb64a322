"""Subset calculus over a finite po-Gamma-semigroup.

Subsets of the universe are plain frozensets of element indices.  In
docstrings we write juxtaposition AB for the product set {x g y : x in
A, g any letter, y in B} and (A] for the downward closure of A, so for
example (A u AMA] is the closure of A united with the three-factor
product through the whole universe M.

classify, the checkers and the CLI's analyze read every fact from
bitmask tables (element i is bit i, and subset B is bit B of a mask over
subsets) kept in three tiers.  The table tier, _TableFacts, holds what
the products alone decide: x g y over every letter, the products xB and
AM, the fixed products the checkers read, the subset maps AA, A u AMA,
AMB and BMB inside B, and for each element and regularity kind a
witness list.  Each regularity notion is an inequality a <= rhs with rhs
a product, so the list holds the candidates of the scan, in scan order,
that bring a new value of rhs, with the union mask of the values scanned
so far; a list grows only as far as a query needs.  The poset tier,
_PosetFacts, holds what the order alone decides: up-sets, closures and
the down-closed subsets.  The structure tier, _OrderFacts, holds what
needs both: bi-ideals, B(a), the product property and per kind the
least element without a witness (one exists when the union mask meets
the up-set of a).  Structures over one table object share its table
tier, and structures over one order object its poset tier, so a sweep
builds one per table and one per poset of all_partial_orders(n).

The frozenset functions (downward_closure, set_product, is_bi_ideal,
semiprime_failure, ...) stay as the definitions, and the tests hold the
tables against them.  The subset tables take 2^n entries, so past
MAX_TABLE_ELEMENTS elements building them raises StructureTooLarge; the
witness lists and up-sets need none of them.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass
from itertools import product

from .model import GammaTables, OrderRelation, PoGammaSemigroup


def _regular_rhs(op, a, x, g, u):
    """(a g x) u a"""
    return op[u][op[g][a][x]][a]


def _commute(op, a, x, g, u):
    """a g x = x g a = x u a = a u x, what strong regularity adds to regular."""
    ax = op[g][a][x]
    return ax == op[g][x][a] == op[u][x][a] == op[u][a][x]


# kind -> (letter slots, rhs(op, a, element, *letters), side condition or
# None): the kind holds for a at the data that meet the side condition and
# give a <= rhs.  The one definition of each regularity inequality;
# regularity() lists them in the notation of the paper.  The side condition
# is tested first because it fails far more often than the inequality.
_INEQUALITIES = {
    "regular": (2, _regular_rhs, None),
    "left-regular": (2, lambda op, a, z, g, u: op[u][op[g][z][a]][a], None),
    "right-regular": (2, lambda op, a, y, g, u: op[u][op[g][a][a]][y], None),
    "completely-regular": (4, lambda op, a, x, g1, g2, g3, g4:
                           op[g3][op[g2][op[g1][a][a]][x]][op[g4][a][a]], None),
    "strongly-regular": (2, _regular_rhs, _commute),
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


def _union_table(size: int, per_bit) -> list:
    """t[A] for every mask A < size: the union of per_bit[i] over the bits i of A,
    each entry the entry without A's lowest bit plus that bit's own."""
    t = [0] * size
    for a in range(1, size):
        low = a & -a
        t[a] = t[a ^ low] | per_bit[low.bit_length() - 1]
    return t


def _bit_masks(rows) -> list:
    """The mask of the true entries of each row."""
    masks = []
    for row in rows:
        mask = 0
        for v, bit in enumerate(row):
            if bit:
                mask |= 1 << v
        masks.append(mask)
    return masks


def _members(mask: int) -> list:
    """The elements of a mask, ascending.  A lowest-bit step costs the
    length of the mask, so a long one (a sweep's poset masks, a subset
    mask past n = 8) is read from its binary digits instead."""
    if mask.bit_length() > 256:
        return [m.start() for m in re.finditer("1", bin(mask)[:1:-1])]
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _mask_of(bits, size: int) -> int:
    """The mask of the bits, all below size, built in time linear in size."""
    digits = bytearray(b"0" * size)
    for b in bits:
        digits[size - 1 - b] = 49   # "1"
    return int(digits, 2)


class _cached:
    """functools.cached_property without the lock it takes on each first
    read in Python 3.11 (the one-slot fact memos assume one thread): the
    first read computes the value and stores it on the instance, where
    later reads find it without this descriptor."""

    def __init__(self, compute):
        self.compute, self.name = compute, compute.__name__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


class _Lazy(dict):
    """A map filled on demand: a missing key k is stored as fill(k)."""

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key):
        out = self[key] = self.fill(key)
        return out


MAX_TABLE_ELEMENTS = 20   # n = 20 already takes seconds and hundreds of MB


class StructureTooLarge(ValueError):
    """The structure has too many elements for the bitmask tables."""


def _subset_table_size(n: int) -> int:
    """2^n, the entries of one subset table; past the limit, StructureTooLarge."""
    if n > MAX_TABLE_ELEMENTS:
        raise StructureTooLarge(
            f"n = {n} is past the {MAX_TABLE_ELEMENTS}-element limit of the subset "
            f"tables, which take 2^n entries per element")
    return 1 << n


class _Witnesses:
    """The candidates for one regularity kind at one element a, listed
    lazily in the scan order of regularity().

    Candidates that fail the kind's side condition are skipped.  union is
    the mask of the rhs values scanned so far and reach[x] that of the
    ones with element x; entries keeps (data, rhs) for each candidate
    whose rhs was not in union before it.  A candidate left out repeats
    the rhs of an earlier entry, so the first candidate whose rhs lies in
    a mask is always an entry."""

    __slots__ = ("entries", "union", "reach", "_scan", "_op", "_a", "_kind")

    def __init__(self, op, n: int, m: int, a: int, kind: str):
        self.entries, self.union, self.reach = [], 0, [0] * n
        self._scan = product(range(n), *[range(m)] * _INEQUALITIES[kind][0])
        self._op, self._a, self._kind = op, a, kind

    def _grow(self, up: int, pool: int):
        """Scan on to the next candidate with its element in pool and its
        rhs in up, and return its data; at the end of the scan, None, and
        the scan is dropped."""
        _, rhs, side = _INEQUALITIES[self._kind]
        op, a = self._op, self._a
        for data in self._scan:
            if side is not None and not side(op, a, *data):
                continue
            v = rhs(op, a, *data)
            bit = 1 << v
            self.reach[data[0]] |= bit
            if not self.union & bit:
                self.union |= bit
                self.entries.append((data, v))
            if bit & up and pool >> data[0] & 1:
                return data
        self._scan = None
        return None

    def first(self, up: int):
        """Data of the first candidate whose rhs lies in up, or None."""
        if self.union & up:
            return next(data for data, v in self.entries if up >> v & 1)
        return None if self._scan is None else self._grow(up, -1)

    def exists(self, up: int, pool: int = -1) -> bool:
        """Whether some candidate with its element in pool has its rhs in up;
        the pool is a mask, and -1, every bit set, takes every element."""
        if pool == -1:
            reach = self.union
        else:
            reach = 0
            for x, r in enumerate(self.reach):
                if pool >> x & 1:
                    reach |= r
        return bool(reach & up) or (self._scan is not None and self._grow(up, pool) is not None)


def _mul(left, a: int, b: int) -> int:
    """AB, the union of xB over the x in A, read from the rows left[x][B] = xB"""
    out = 0
    for x, row in enumerate(left):
        if a >> x & 1:
            out |= row[b]
    return out


class _TableFacts:
    """The table tier: what the products alone decide, element i as bit i.

    pe[x][y] is x g y over every letter g; left[x][B] is xB and am[A] is
    AM; xMy[x][y], Ma[a], MaM[a] and aaMaa[a] are the fixed products of
    prop2, thm9 and prop5; witnesses(kind)[a] is a's witness list.  The
    subset maps AA[A], AuAMA[A] = A u AMA and amb[A, B] = AMB keep each
    value the orders over the table ask for, and bmb_closed(wanted)
    picks the subsets B of a mask with BMB inside B, testing each B once
    per table.  The subset tables and products are built on first use."""

    def __init__(self, tables: GammaTables):
        n, op = tables.n, tables.op
        self.n, self.m, self.op = n, tables.m, op
        self.full = (1 << n) - 1
        self.pe = [[0] * n for _ in range(n)]
        for table in op:
            for x, row in enumerate(table):
                for y, z in enumerate(row):
                    self.pe[x][y] |= 1 << z
        self._witnesses = {}
        self._bmb_known = self._bmb_closed = 0

    def witnesses(self, kind: str) -> list:
        ws = self._witnesses.get(kind)
        if ws is None:
            ws = self._witnesses[kind] = [_Witnesses(self.op, self.n, self.m, a, kind)
                                          for a in range(self.n)]
        return ws

    @_cached
    def left(self) -> list:
        size = _subset_table_size(self.n)
        return [_union_table(size, row) for row in self.pe]

    @_cached
    def am(self) -> list:
        return _union_table(1 << self.n, [row[self.full] for row in self.left])

    @_cached
    def xMy(self) -> list:
        return [[_mul(self.left, self.am[1 << x], 1 << y) for y in range(self.n)]
                for x in range(self.n)]

    @_cached
    def Ma(self) -> list:
        return [_mul(self.left, self.full, 1 << a) for a in range(self.n)]

    @_cached
    def MaM(self) -> list:
        return [self.am[ma] for ma in self.Ma]

    @_cached
    def aaMaa(self) -> list:
        left, am = self.left, self.am
        return [_mul(left, _mul(left, am[self.pe[a][a]], 1 << a), 1 << a) for a in range(self.n)]

    # the maps hold the rows, not self, so no cycle keeps a table tier alive
    @_cached
    def AA(self) -> dict:
        left = self.left
        return _Lazy(lambda a: _mul(left, a, a))

    @_cached
    def AuAMA(self) -> dict:
        left, am = self.left, self.am
        return _Lazy(lambda a: a | _mul(left, am[a], a))

    @_cached
    def amb(self) -> dict:
        left, am = self.left, self.am
        return _Lazy(lambda ab: _mul(left, am[ab[0]], ab[1]))

    def bmb_closed(self, wanted: int) -> int:
        """The subsets B in the mask wanted (subset B as bit B) with BMB inside B."""
        todo = wanted & ~self._bmb_known
        if todo:
            left, am, self._bmb_known = self.left, self.am, self._bmb_known | todo
            closed = (b for b in _members(todo) if not _mul(left, am[b], b) & ~b)
            self._bmb_closed |= _mask_of(closed, 1 << self.n)
        return wanted & self._bmb_closed

    def semiprime_failure(self, b: int):
        """Least a outside B with aa inside B, or None when B is semiprime."""
        return next((a for a, row in enumerate(self.pe) if not (b >> a & 1 or row[a] & ~b)), None)


class _PosetFacts:
    """The poset tier: what the order alone decides.  up[a] is the mask
    of the v with a <= v, clo[A] is (A], and down_closed is the mask of
    the subsets B with (B] = B, subset B as bit B.  up needs no subset
    table; clo and down_closed are built on first use."""

    def __init__(self, order: OrderRelation):
        self.n, self.leq = order.n, order.leq
        self.up = _bit_masks(order.leq)

    @_cached
    def clo(self) -> list:
        return _union_table(_subset_table_size(self.n), _bit_masks(zip(*self.leq)))

    @_cached
    def down_closed(self) -> int:
        clo = self.clo
        return _mask_of((b for b, c in enumerate(clo) if c == b), len(clo))


class _OrderFacts:
    """The structure tier, over the table tier and the poset tier of one
    structure: bi_ideals lists every bi-ideal B, ascending (nonempty,
    down-closed and BMB inside B), principal[a] is B(a) and
    product_failure the first B with (BB] != B; least[kind] is the least
    element without a witness of the kind (n when there is none), kept by
    _least_without."""

    def __init__(self, table: _TableFacts, poset: _PosetFacts):
        self.table, self.poset, self.up = table, poset, poset.up
        self.least = {}

    @_cached
    def bi_ideals(self) -> tuple:
        return tuple(_members(self.table.bmb_closed(self.poset.down_closed & ~1)))

    @_cached
    def principal(self) -> tuple:
        clo, gen = self.poset.clo, self.table.AuAMA
        return tuple(clo[gen[1 << a]] for a in range(self.table.n))

    @_cached
    def product_failure(self):
        clo, aa = self.poset.clo, self.table.AA
        return next((b for b in self.bi_ideals if clo[aa[b]] != b), None)

    def generated(self, a: int) -> int:
        """(A u AMA], the bi-ideal generated by a nonempty A"""
        return self.poset.clo[self.table.AuAMA[a]]


_last_table = (None, None)   # the tables last asked about, and their facts
_last_order = (None, None)   # the structure last asked about, and its facts
_posets = {}                 # id(order) -> (weak reference to the order, its poset tier)


def _table_facts(tables: GammaTables) -> _TableFacts:
    """The table tier of a tables object, found by identity (never by hashing
    its nested tuples) until another tables object is asked about."""
    global _last_table
    if _last_table[0] is not tables:
        _last_table = (tables, _TableFacts(tables))
    return _last_table[1]


def _poset_facts(order: OrderRelation) -> _PosetFacts:
    """The poset tier of an order object, found by identity while the object
    lives: a sweep's structures share the posets of all_partial_orders(n),
    and a loaded structure brings an order object of its own."""
    key = id(order)
    entry = _posets.get(key)
    if entry is None or entry[0]() is not order:
        entry = _posets[key] = (weakref.ref(order, lambda _: _posets.pop(key, None)),
                                _PosetFacts(order))
    return entry[1]


def _facts(s: PoGammaSemigroup) -> _OrderFacts:
    """The structure tier of s, over its table and poset tiers; found by
    identity like _table_facts, and built afresh when another structure
    is asked about."""
    global _last_order
    if _last_order[0] is not s:
        _last_order = (s, _OrderFacts(_table_facts(s.tables), _poset_facts(s.order)))
    return _last_order[1]


def all_bi_ideals(s: PoGammaSemigroup) -> list:
    """Every bi-ideal, ascending by bit pattern (element i is bit i)."""
    return [frozenset(_members(b)) for b in _facts(s).bi_ideals]


def product_failure(s: PoGammaSemigroup):
    """First bi-ideal B with (BB] != B, or None: the one definition of
    the bi-ideal product property, scanned once per structure."""
    bad = _facts(s).product_failure
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
    letters, rhs, side = _INEQUALITIES[w.kind]
    if len(w.data) != 1 + letters:
        raise ValueError(f"{w.kind} witness data needs {1 + letters} entries, got {len(w.data)}")
    op, a = s.tables.op, w.element
    return (side is None or side(op, a, *w.data)) and s.order.leq[a][rhs(op, a, *w.data)]


def regularity(s: PoGammaSemigroup, a: int, kind: str):
    """First witness of the given kind for a, or None.

    The scan runs the element slot ascending, then each letter slot, and
    returns the first hit, so results are deterministic; the candidates
    of each (a, kind) are scanned at most once per table.  data layouts:

      regular             (x, g, u)           a <= (a g x) u a
      left-regular        (z, g, u)           a <= (z g a) u a
      right-regular       (y, g, u)           a <= (a g a) u y
      completely-regular  (x, g1, g2, g3, g4) a <= ((a g1 a) g2 x) g3 (a g4 a)
      strongly-regular    (x, g, u)           as regular, plus
                                              a g x = x g a = x u a = a u x
    """
    if kind not in _INEQUALITIES:
        raise ValueError(f"unknown regularity kind {kind!r}, expected one of {REGULARITY_KINDS}")
    o = _facts(s)
    data = o.table.witnesses(kind)[a].first(o.up[a])
    return None if data is None else RegularityWitness(kind, a, data)


def _least_without(s: PoGammaSemigroup, *kinds):
    """Least element lacking a witness of any of the kinds, or None: the
    least of the kinds' own least such elements, each found once per
    structure by a scan that stops where it is found."""
    o = _facts(s)
    n = least = len(o.up)
    for kind in kinds:
        a = o.least.get(kind)
        if a is None:
            a = 0
            for up, w in zip(o.up, o.table.witnesses(kind)):
                if not (w.union & up or w.exists(up)):
                    break
                a += 1
            o.least[kind] = a
        if a < least:
            least = a
    return None if least == n else least


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
    o = _facts(s)
    ws = o.table.witnesses("strongly-regular")
    return all(ws[b].exists(o.up[b], mask) for b in _members(mask))


def is_strongly_regular_subset(s: PoGammaSemigroup, t) -> bool:
    """Strong regularity relativized to a subsemigroup T.

    Every b in T needs an x in T with b <= (b g x) u b and the four
    equal products b g x = x g b = x u b = b u x.
    """
    t = frozenset(t)
    if not is_subsemigroup(s, t):
        raise ValueError("expected a subsemigroup")
    pool = sorted(t)
    return all(any(witness_holds(s, RegularityWitness("strongly-regular", b, data))
                   for data in product(pool, range(s.m), range(s.m)))
               for b in pool)
