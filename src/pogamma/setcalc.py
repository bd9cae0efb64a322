"""Subset calculus over a finite po-Gamma-semigroup.

Subsets of the universe are plain frozensets of element indices.  In
docstrings we write juxtaposition AB for the product set {x g y : x in
A, g any letter, y in B} and (A] for the downward closure of A, so for
example (A u AMA] is the closure of A united with the three-factor
product through the whole universe M.

classify, the checkers and the CLI's analyze read every fact from
bitmask tables (element i is bit i, and subset B is bit B of a mask over
subsets) kept in two tiers.  The table tier, _TableFacts, holds what the
products alone decide: x g y over every letter, the products xB and AM,
the fixed products the checkers read, the subset map A u AMA, and for
each element and regularity kind the union mask of the values its rhs
takes.  Each regularity notion is an inequality a <= rhs, so a has a
witness exactly where that mask meets the up-set of a.  Four kinds have
an rhs that is a product of sets, and their masks are computed once per
table from x g y; strong regularity adds a side condition, under which
its rhs depends on one letter, so its masks come from the letters of
each element grouped by one product, in n m steps per element.
The structure tier, _OrderFacts, holds what the order decides, alone or
with the products: up-sets, closures, bi-ideals, B(a) and the product
property.  Structures over one table object share its table tier.

A sweep reads no structure tier for most structures.  The slice,
_Slice, holds what one table decides over a set of posets at once, each
fact the mask of the posets where it holds (poset i of
all_partial_orders(n) as bit i).  What the order alone decides is the
poset table, _PosetTable, which asks the order its questions once per
n, for every subset S: the posets where each z lies in (S], where each
T lies inside (S], and where S is down-closed.  Every slice fact reads
it: per kind, the posets where every element has a witness, from the
table tier's union masks; per BMB-closed B, the posets where B is
down-closed; and each claim's mask, element by element of the sets it
compares.
A sweep builds one poset table per n, one table tier and one slice per
table, and a structure tier only for each structure a claim's mask
marks as violated.

The frozenset functions (downward_closure, set_product, is_bi_ideal,
semiprime_failure, ...) stay as the definitions, and the tests hold the
tables against them.  The subset tables take 2^n entries, so past
MAX_TABLE_ELEMENTS elements building them raises StructureTooLarge; the
witness masks and up-sets need none of them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial, reduce
from itertools import product
from operator import or_

from .model import GammaTables, OrderRelation, PoGammaSemigroup


def _regular_rhs(op, a, x, g, u):
    """(a g x) u a"""
    return op[u][op[g][a][x]][a]


def _derived_witness(op, a, x, g, u):
    """(x u a) g x, the witness thm8 derives for a from a strong one (x, g, u)"""
    return op[g][op[u][x][a]][x]


def _commute(op, a, x, g, u):
    """a g x = x g a = x u a = a u x, what strong regularity adds to regular."""
    ax = op[g][a][x]
    return ax == op[g][x][a] == op[u][x][a] == op[u][a][x]


def _times(pe, s: int, t: int) -> int:
    """ST for masks S and T: the union of pe[x][y], the x g y over every
    letter g, over the x in S and the y in T, each taken by lowest bit."""
    out = 0
    while s:
        x = s & -s
        s ^= x
        row, rest = pe[x.bit_length() - 1], t
        while rest:
            y = rest & -rest
            rest ^= y
            out |= row[y.bit_length() - 1]
    return out


# kind -> (letter slots, rhs(op, a, element, *letters), side condition or
# None, set form or None): the kind holds for a at the data that meet the
# side condition and give a <= rhs.  The one definition of each regularity
# inequality; regularity() lists them in the notation of the paper.  The
# side condition is tested first because it fails far more often than the
# inequality.  A kind without one has a set form(t, A, X), the rhs's own
# parentheses over sets, with t(S, T) = ST over masks and A = {a}: it is
# the mask of the rhs values over the candidates with element in X, for
# every choice of letters, exactly (no associativity is assumed).  The
# tests hold each form to the scan, X = {x} by X = {x}.
_INEQUALITIES = {
    "regular": (2, _regular_rhs, None, lambda t, a, x: t(t(a, x), a)),
    "left-regular": (2, lambda op, a, z, g, u: op[u][op[g][z][a]][a], None,
                     lambda t, a, z: t(t(z, a), a)),
    "right-regular": (2, lambda op, a, y, g, u: op[u][op[g][a][a]][y], None,
                      lambda t, a, y: t(t(a, a), y)),
    "completely-regular": (4, lambda op, a, x, g1, g2, g3, g4:
                           op[g3][op[g2][op[g1][a][a]][x]][op[g4][a][a]], None,
                           lambda t, a, x: t(t(t(a, a), x), t(a, a))),
    "strongly-regular": (2, _regular_rhs, _commute, None),
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


def _candidates(op, n: int, m: int, a: int, kind: str):
    """(data, rhs) for each candidate of the kind at a that meets its side
    condition, in the scan order of regularity()."""
    letters, rhs, side, _ = _INEQUALITIES[kind]
    for data in product(range(n), *[range(m)] * letters):
        if side is None or side(op, a, *data):
            yield data, rhs(op, a, *data)


def _strong_at(op, n: int, a: int):
    """(reach, entries) of strong regularity at a, in n m steps.

    (x, g, u) meets _commute exactly when g and u both lie in C_x = {v :
    a v x = x v a} and a g x = a u x, and its rhs is then (a u x) u a,
    which (x, u, u) gives too.  So reach[x], the mask of the rhs values
    over the candidates with element x, is that of (a u x) u a over the u
    in C_x.  entries keeps (data, rhs) for the first candidate in the
    scan order of regularity() of each value no earlier one gave, so the
    first candidate whose rhs lies in a mask is always an entry: per x,
    the scan meets the letters of C_x grouped by a u x at the least
    letter g of each group first, as (x, g, u) for each u of the group."""
    reach, union, entries = [0] * n, 0, []
    for x in range(n):
        groups = {}   # a u x -> the u in C_x with that product, ascending
        for u, table in enumerate(op):
            aux = table[a][x]
            if aux == table[x][a]:
                groups.setdefault(aux, []).append(u)
        for aux, us in groups.items():
            for u in us:
                v = op[u][aux][a]
                bit = 1 << v
                reach[x] |= bit
                if not union & bit:
                    union |= bit
                    entries.append(((x, us[0], u), v))
    return reach, entries


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
    prop2, thm9 and prop5; strong[a] is strong regularity's (reach,
    entries) at a (_strong_at); unions[kind][a] is the mask of the rhs
    values of the kind over every candidate at a, read off pe through the
    kind's set form or, for strong regularity, the union of strong[a]'s
    reach.  Each is computed once per table.  The maps unions and
    AuAMA[A] = A u AMA keep each value asked for, and bmb_closed(wanted)
    picks the subsets B of a mask with BMB inside B.  The subset tables,
    products and map entries are built on first use; the maps hold
    locals, never self, so no cycle keeps a table tier alive."""

    def __init__(self, tables: GammaTables):
        n, op = tables.n, tables.op
        self.n, self.op = n, op
        self.full = (1 << n) - 1
        self.pe = [[0] * n for _ in range(n)]
        for table in op:
            for x, row in enumerate(table):
                for y, z in enumerate(row):
                    self.pe[x][y] |= 1 << z

    @_cached
    def strong(self) -> list:
        return [_strong_at(self.op, self.n, a) for a in range(self.n)]

    @_cached
    def unions(self) -> dict:
        t, full, n = partial(_times, self.pe), self.full, self.n
        unions = _Lazy(lambda kind: [_INEQUALITIES[kind][3](t, 1 << a, full) for a in range(n)])
        unions["strongly-regular"] = [reduce(or_, reach) for reach, _ in self.strong]
        return unions

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

    # about two reads in three hit over a (4, 1) sweep's slices
    @_cached
    def AuAMA(self) -> dict:
        left, am = self.left, self.am
        return _Lazy(lambda a: a | _mul(left, am[a], a))

    def bmb_closed(self, wanted: int) -> int:
        """The subsets B in the mask wanted (subset B as bit B) with BMB inside B."""
        left, am = self.left, self.am
        closed = (b for b in _members(wanted) if not _mul(left, am[b], b) & ~b)
        return _mask_of(closed, 1 << self.n)

    def semiprime_failure(self, b: int):
        """Least a outside B with aa inside B, or None when B is semiprime."""
        return next((a for a, row in enumerate(self.pe) if not (b >> a & 1 or row[a] & ~b)), None)


class _OrderFacts:
    """The structure tier, over the table tier of one structure and its
    order: up[a] is the mask of the v with a <= v, clo[A] is (A],
    bi_ideals lists every bi-ideal B, ascending (nonempty, down-closed and
    BMB inside B), principal[a] is B(a) and product_failure the first B
    with (BB] != B.  up needs no subset table; the rest is built on first
    use."""

    def __init__(self, table: _TableFacts, order: OrderRelation):
        self.table, self.leq = table, order.leq
        self.up = _bit_masks(order.leq)

    @_cached
    def clo(self) -> list:
        return _union_table(_subset_table_size(self.table.n), _bit_masks(zip(*self.leq)))

    @_cached
    def bi_ideals(self) -> tuple:
        down_closed = _mask_of((b for b, c in enumerate(self.clo) if c == b), len(self.clo))
        return tuple(_members(self.table.bmb_closed(down_closed & ~1)))

    @_cached
    def principal(self) -> tuple:
        clo, gen = self.clo, self.table.AuAMA
        return tuple(clo[gen[1 << a]] for a in range(self.table.n))

    @_cached
    def product_failure(self):
        clo, left = self.clo, self.table.left
        return next((b for b in self.bi_ideals if clo[_mul(left, b, b)] != b), None)

    def generated(self, a: int) -> int:
        """(A u AMA], the bi-ideal generated by a nonempty A"""
        return self.clo[self.table.AuAMA[a]]


class _PosetTable:
    """What the order alone decides over every poset of all_partial_orders(n)
    at once, poset i as bit i, built from cols[x*n + y], the mask of the
    posets with x <= y: inclo[S][z] is where z lies in (S], so
    inclo[1 << v][z] is where z <= v; inside[S][T] is where T lies inside
    (S], the complement of where some member of T lies outside it; and
    down[S] is where S is down-closed.  Each is filled for every subset,
    once per n, the first two by _union_table."""

    def __init__(self, n: int, cols):
        size, full = _subset_table_size(n), (1 << n) - 1
        everything = cols[0]   # every poset holds 0 <= 0
        self.inclo = [list(row) for row in
                      zip(*(_union_table(size, cols[z * n:z * n + n]) for z in range(n)))]
        self.inside = [[everything & ~out for out in
                        _union_table(size, [everything & ~col for col in row])]
                       for row in self.inclo]
        self.down = [everything & ~_or_of(row, full & ~s) for s, row in enumerate(self.inclo)]


class _Slice:
    """The slice: what one table decides over a set of posets at once.

    Poset i of all_partial_orders(n) is bit i of a mask, and keep is the
    mask of the posets asked about.  The order facts are the poset table
    of n (_PosetTable), which every slice at n reads and none fills; every
    other fact reads its inclo and is the mask of the posets in keep where
    it holds: holds[kind] where every element a has a witness of the
    kind, that is lies in the closure of the table tier's union mask at
    a; bi_ideals the subsets B with BMB inside B and where each is
    down-closed; and product_property where every bi-ideal B equals
    (BB].  The poset table and the complement of a slice mask cover
    posets outside keep, so a claim's mask built from them ends with &
    keep.  The map holds closes over locals, never self, as the table
    tier's maps do."""

    def __init__(self, table: _TableFacts, posets: _PosetTable, keep: int):
        self.table, self.posets, self.keep, self.n = table, posets, keep, table.n
        self.inclo = inclo = posets.inclo
        unions = table.unions

        def witnessed(kind):
            out = keep
            for a, union in enumerate(unions[kind]):
                out &= inclo[union][a]
            return out
        self.holds = _Lazy(witnessed)

    def firsts(self, entries, a: int, target: int):
        """The posets of target split by the first of a's strong-regularity
        entries (the table tier's strong[a]) whose rhs lies above a, as
        (mask, data) in scan order; every poset of target must be one
        where holds found a witness for a."""
        for data, v in entries:
            hit = target & self.inclo[1 << v][a]
            if hit:
                yield hit, data
                target &= ~hit
                if not target:
                    return

    @_cached
    def bi_ideals(self) -> list:
        """(B, the posets where B is down-closed) for each nonempty B with BMB
        inside B and down-closed somewhere."""
        out, down = [], self.posets.down
        for b in _members(self.table.bmb_closed((1 << (1 << self.n)) - 2)):
            closed = self.keep & down[b]
            if closed:
                out.append((b, closed))
        return out

    @_cached
    def product_property(self) -> int:
        """Where (BB] = B for every bi-ideal B; B is down-closed there, so
        (BB] = B exactly where (BB] and (B] agree."""
        left, out = self.table.left, self.keep
        for b, down in self.bi_ideals:
            out &= ~down | self.same_closure(_mul(left, b, b), b)
        return out

    def same_closure(self, s: int, t: int) -> int:
        """Where (S] = (T], that is where each lies inside the other's closure."""
        inside = self.posets.inside
        return self.keep & inside[s][t] & inside[t][s]


def _or_of(masks, bits: int) -> int:
    """The union of masks[v] over the bits v of a mask."""
    out = 0
    for v, mask in enumerate(masks):
        if bits >> v & 1:
            out |= mask
    return out


_last_table = (None, None)   # a table's violated structures reread the masks its slice read
_last_order = (None, None)   # classify, the checkers and analyze pass one structure object


def _table_facts(tables: GammaTables) -> _TableFacts:
    """The table tier of a tables object, found by identity (never by hashing
    its nested tuples) until another tables object is asked about."""
    global _last_table
    if _last_table[0] is not tables:
        _last_table = (tables, _TableFacts(tables))
    return _last_table[1]


def _facts(s: PoGammaSemigroup) -> _OrderFacts:
    """The structure tier of s, over its table tier; found by identity like
    _table_facts, and built afresh when another structure is asked about."""
    global _last_order
    if _last_order[0] is not s:
        _last_order = (s, _OrderFacts(_table_facts(s.tables), s.order))
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
    letters, rhs, side, _ = _INEQUALITIES[w.kind]
    if len(w.data) != 1 + letters:
        raise ValueError(f"{w.kind} witness data needs {1 + letters} entries, got {len(w.data)}")
    op, a = s.tables.op, w.element
    return (side is None or side(op, a, *w.data)) and s.order.leq[a][rhs(op, a, *w.data)]


def regularity(s: PoGammaSemigroup, a: int, kind: str):
    """First witness of the given kind for a, or None.

    The scan runs the element slot ascending, then each letter slot, and
    returns the first hit, so results are deterministic; only analyze and
    check_thm8 call it, once per element and kind.  data layouts:

      regular             (x, g, u)           a <= (a g x) u a
      left-regular        (z, g, u)           a <= (z g a) u a
      right-regular       (y, g, u)           a <= (a g a) u y
      completely-regular  (x, g1, g2, g3, g4) a <= ((a g1 a) g2 x) g3 (a g4 a)
      strongly-regular    (x, g, u)           as regular, plus
                                              a g x = x g a = x u a = a u x
    """
    if kind not in _INEQUALITIES:
        raise ValueError(f"unknown regularity kind {kind!r}, expected one of {REGULARITY_KINDS}")
    up = _facts(s).up[a]
    for data, v in _candidates(s.tables.op, s.n, s.m, a, kind):
        if up >> v & 1:
            return RegularityWitness(kind, a, data)
    return None


def _least_without(s: PoGammaSemigroup, *kinds):
    """Least element lacking a witness of any of the kinds, or None."""
    o = _facts(s)
    unions = [o.table.unions[kind] for kind in kinds]
    for a, up in enumerate(o.up):
        for u in unions:
            if not u[a] & up:
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
    o = _facts(s)
    strong = o.table.strong
    return all(_or_of(strong[b][0], mask) & o.up[b] for b in _members(mask))


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
