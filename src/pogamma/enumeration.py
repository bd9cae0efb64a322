"""Exhaustive generation of table families and compatible orders, plus
isomorphism canonicalization and the claim sweep over everything found.

Tables are generated depth first, one cell at a time in (letter, row,
column) order.  Each new cell is checked against the associativity
instances that can read it, which model's scan lists, so a partial fill
is abandoned at the first fully determined instance that fails.

Orders are filtered as bitmasks over the posets of all_partial_orders,
listed once per process, each extended from one on fewer elements by
the placements of the new element that keep it transitive: for each
relation entry, one mask holds the posets that contain it.  Per table,
each pair a <= b maps to the mask of the pairs it forces through the
products, and one pass over those implications keeps the compatible
posets, all at once; the tuple scan order_compatible stays as the test
oracle.

Canonical forms are minimal byte encodings over every relabeling of
elements and letters.  The encoding is table-major, so a structure is
canonical exactly when its table is minimal over all relabelings and
its order is minimal over the orbit of the table's automorphisms.  A
canonical search prunes a partial fill as soon as some relabeling makes
its filled prefix smaller, since every completion then loses too, and so
generates only minimal tables (Read's orderly generation, 1978; McKay,
"Isomorph-free exhaustive generation", 1998).  It hands down only the
relabelings still tied with the prefix, since one that makes it larger
does so for every completion, and those tied with a full table are its
automorphisms.  The compatible orders are then compared, again all at
once through the masks, only with their relabelings by those
automorphisms.  The brute `canonical_key`, which relabels whole
structures, stays as the test oracle.

A sweep, labeled or canonical, walks the canonical stream and decides
every canonical structure over a table at once: each classify flag and
each selected claim's violations is a mask over the table's kept
posets (setcalc's slice, theorems.MASKS), and every tally is a
popcount.  It tallies one table per class up to isomorphism and
reversal (a g' b = b g a over the same order), which keeps every flag
and every claim's status: the walk's full stream stays as it is, and
at each table its reversal's relabelings are compared with it once.  A
table whose reversal has the smaller canonical form is left to that
form, and one that is not self-dual stands for its dual too, counted
twice, with its dual's structures listed as the reversals of its own.
A labeled sweep counts each canonical structure n! m! / |Stab| times,
the size of its orbit, where the stabilizer holds the relabelings that
fix both its table and its order; the automorphism comparison that
picks the minimal orders also records which posets each automorphism
fixes, and the posets are grouped by that weight.  A class the report
lists is taken as the byte encodings of its images off _relabelings,
the identity's alone in a canonical sweep, and for a dual those of
its reversed cells, the least alone in a canonical sweep, the dual's
canonical form as the encoding is table-major.  Only what the report
keeps is built: the SWEEP_EXAMPLE_CAP smallest gap examples, as the
flags do not change under relabeling or reversal, and every image of a
class some claim's mask marks as violated, with the selected checkers
run on it, the oracle of the masks.  relabel, the labeled stream and
the tests' brute tallies, which no sweep calls, are the oracle of the
report.

A sweep generates the table stream once and tallies it table by table
in process, until the sweep has used SWEEP_POOL_AFTER_S of CPU; with
more than one worker it then hands the rest of the stream to
Pool.imap.  Both give per-table results in stream order, and the merge
sorts listed structures by encoding, so any worker count, and any point
at which the pool starts, reproduces the single-worker report byte for
byte.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import lru_cache, partial
from itertools import chain, permutations, product
from operator import iadd

from . import setcalc, theorems
from .model import (
    GammaTables,
    OrderRelation,
    PoGammaSemigroup,
    _associativity_failures,
    _associativity_instances,
    _compatibility_failures,
    _forced_pairs,
    equality_order,
    validate_gamma_tables,
)

# Letters per universe size n on the canonical table stream, which both
# sweep modes walk; an n past the table is refused.  Each entry is the
# largest m whose one-worker CLI sweep, canonical and labeled, ends well
# inside 60 s on a 2-core VM ((4, 4) takes 8.5-9.3 s, and (3, 7), with the
# cap lifted in a copy, 38-39 s) and whose n! m! relabelings stay within
# 8! ((2, 8) lists 80,640), so the widest _relabelings list, the one a
# sweep keeps, is 8! entries, at (1, 8).
MAX_LETTERS = {1: 8, 2: 7, 3: 6, 4: 4, 5: 1}
# m * n^2 cells of the labeled table stream (the oracles, random_structures)
MAX_TABLE_CELLS = 18

# naive generation enumerates n ** (m * n^2) raw fills
MAX_NAIVE_FILLS = 1_000_000

SWEEP_EXAMPLE_CAP = 10

# tables per Pool.imap task: 1 pays a pipe round trip per table, 128 holds more results in memory
SWEEP_CHUNK = 16

# CPU seconds a sweep tallies in process before it starts a pool of more
# than one worker.  Starting late costs at most T (1 - 1/K) of wall time
# against pooling from the first table, 0.25 s on 2 workers, while an
# empty Pool(2) plus the multiprocessing import cost about 0.04 s of CPU.
# Canonical (4, 1), about 0.05 s of work in process, took 0.17 s of wall
# and of CPU on a pool of 2 started at its first table, against 0.135 s
# of each in process (CLI, medians of 20, 2-core VM).
SWEEP_POOL_AFTER_S = 0.5


@dataclass(frozen=True)
class EnumSpec:
    """What to enumerate: universe size, letter count, and whether to keep
    only canonical representatives of isomorphism classes."""

    n: int
    m: int
    canonical_only: bool = True

    def validate(self) -> None:
        n, m = self.n, self.m
        if n < 1 or m < 1:
            raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
        if self.canonical_only and m > MAX_LETTERS.get(n, 0):
            raise ValueError(
                f"n={n}, m={m} is past the desk-scale guard of the canonical table stream, "
                f"which both sweep modes walk; {_largest(MAX_LETTERS.items())}")
        if not self.canonical_only and m * n * n > MAX_TABLE_CELLS:
            raise ValueError(
                f"m * n^2 = {m * n * n} exceeds the desk-scale guard of {MAX_TABLE_CELLS} for the "
                f"labeled table stream, which lists every labeled table; " + _largest(
                    (k, MAX_TABLE_CELLS // k**2) for k in MAX_LETTERS if k**2 <= MAX_TABLE_CELLS))


def _largest(sizes) -> str:
    return "the largest supported are " + ", ".join(f"n={n}, m={m}" for n, m in sizes)


def _tables_from_cells(cells, n, m) -> GammaTables:
    op = tuple(
        tuple(tuple(cells[(g * n + a) * n + b] for b in range(n)) for a in range(n))
        for g in range(m))
    return GammaTables(n=n, m=m, op=op)


def enumerate_tables(spec: EnumSpec, prefix=()):
    """Yield every Gamma-associative table family over (n, m) depth first;
    with canonical_only, only those minimal over every relabeling.

    prefix pins the first len(prefix) cells in (letter, row, column)
    order, which partitions the search space for parallel sweeps; the
    concatenation of all single-cell prefixes in ascending order equals
    the unpartitioned stream.  Pinned cells are checked as they are
    placed, like every other cell.
    """
    yield from (t for t, _ in _walk(spec, prefix))


def _walk(spec: EnumSpec, prefix=()):
    """enumerate_tables' stream as (table, tied) pairs: tied lists the
    table's automorphisms but the identity, in _relabelings order, and
    is empty without canonical_only."""
    spec.validate()
    n, m = spec.n, spec.m
    total = m * n * n
    if len(prefix) > total:
        raise ValueError("prefix longer than the table")
    for v in prefix:
        if not 0 <= v < n:
            raise ValueError(f"prefix value {v} out of range")
    choices = [(v,) for v in prefix] + [range(n)] * (total - len(prefix))
    # the identity, first, never makes a prefix smaller
    relabelings = _relabelings(n, m)[1:] if spec.canonical_only else ()
    yield from _extend([-1] * total, 0, choices, n, m, _cell_instances(n, m), relabelings)


def _extend(cells, pos, choices, n, m, instances, tied):
    """Fill cell pos with each of its choices in turn and recurse past the
    fills that break no associativity instance and that no relabeling in
    tied makes smaller, with the relabelings still tied; cells before pos
    are filled, those after are not."""
    if pos == len(cells):
        yield _tables_from_cells(cells, n, m), tied
        return
    for v in choices[pos]:
        cells[pos] = v
        if next(_associativity_failures(cells, instances[pos], n), None) is None:
            still = _tied(cells, pos, tied)
            if still is not None:
                yield from _extend(cells, pos + 1, choices, n, m, instances, still)
    cells[pos] = -1


@lru_cache(maxsize=None)
def _cell_instances(n: int, m: int) -> tuple:
    """Per flat cell k, model's associativity instances that can read k,
    in model's order: as cell (g, a, b) or (u, b, c), or as one of the n
    cells each side's value may select.  An instance is listed under k
    only when k is at or after both (g, a, b) and (u, b, c): a search
    that fills cells in order has not filled the later of the two
    before then.  Every failing instance is listed under the last of
    its four cells, so checking each new cell's list finds it as soon
    as all four are filled."""
    buckets = [[] for _ in range(m * n * n)]
    for inst in _associativity_instances(n, m):
        _, ab, bc, lhs_base, rhs_base = inst
        reads = {ab, bc, *range(lhs_base, lhs_base + n * n, n), *range(rhs_base, rhs_base + n)}
        for k in reads:
            if k >= max(ab, bc):
                buckets[k].append(inst)
    return tuple(map(tuple, buckets))


def _tied(cells, pos, relabelings):
    """The relabelings that leave the filled cells 0..pos undecided or
    equal, or None when one makes them smaller.

    Relabeled cell k is pi[cells[table_src[k]]]; the comparison runs
    k = 0, 1, ... and stops undecided at the first k whose source is
    not filled yet.  A decision there holds for every completion."""
    tied = []
    for r in relabelings:
        pi, table_src, _ = r
        for k in range(pos + 1):
            src = table_src[k]
            if src > pos:
                tied.append(r)
                break
            moved = pi[cells[src]]
            if moved != cells[k]:
                if moved < cells[k]:
                    return None
                break
        else:
            tied.append(r)
    return tied


def _self_dual(cells, rev, relabelings):
    """Whether the full canonical table cells is self-dual, given its
    reversal rev: True when a relabeling maps rev to cells, False when
    each maps it to a larger table, None when one maps it to a smaller
    one.  The first tie decides, since the images of rev are then the
    relabelings of cells, over which cells is minimal."""
    for pi, table_src, _ in relabelings:
        for k, src in enumerate(table_src):
            moved = pi[rev[src]]
            if moved != cells[k]:
                if moved < cells[k]:
                    return None
                break
        else:
            return True
    return False


def enumerate_tables_naive(spec: EnumSpec):
    """Oracle-grade generation: try every raw fill and keep the ones the
    validator accepts.  Only viable for tiny (n, m)."""
    spec.validate()
    n, m = spec.n, spec.m
    total = m * n * n
    if n ** total > MAX_NAIVE_FILLS:
        raise ValueError(f"{n}^{total} raw fills is past the naive guard of {MAX_NAIVE_FILLS}")
    for combo in product(range(n), repeat=total):
        t = _tables_from_cells(combo, n, m)
        if validate_gamma_tables(t).ok:
            yield t


@lru_cache(maxsize=None)
def all_partial_orders(n: int) -> tuple:
    """Every partial order on 0..n-1, sorted by flattened relation.

    A partial order restricts to one on 0..n-2, and relating n-1 to the
    smaller elements keeps it one exactly when the set D below n-1 is
    down-closed, the set U above it is up-closed, the two are disjoint,
    and every member of D lies below every member of U.  So each order on
    0..n-2 is extended by those placements alone, each tested as masks
    over 0..n-2 (element i as bit i); validate_order, which no listing
    calls, stays as the test oracle.
    """
    if n == 1:
        return (equality_order(1),)
    size, full = 1 << n - 1, (1 << n - 1) - 1
    extended = []
    for o in all_partial_orders(n - 1):
        above = setcalc._bit_masks(o.leq)
        down = setcalc._union_table(size, setcalc._bit_masks(zip(*o.leq)))
        up = setcalc._union_table(size, above)
        ups = [u for u in range(size) if up[u] == u]
        common = [full]   # common[D]: the elements above every member of D
        for d in range(1, size):
            low = d & -d
            common.append(common[d ^ low] & above[low.bit_length() - 1])
        for d in range(size):
            if down[d] == d:
                allowed = common[d] & ~d
                rows = tuple(row + (bool(d >> i & 1),) for i, row in enumerate(o.leq))
                extended += (rows + (tuple(bool(u >> i & 1) for i in range(n - 1)) + (True,),)
                             for u in ups if not u & ~allowed)
    return tuple(OrderRelation(n=n, leq=leq) for leq in sorted(extended))


def order_compatible(tables: GammaTables, order: OrderRelation) -> bool:
    """Two-sided compatibility test that stops at the first failure; the
    test oracle of the mask filter, which no sweep calls."""
    return next(_compatibility_failures(tables, order), None) is None


@lru_cache(maxsize=None)
def _poset_columns(n: int) -> tuple:
    """Per flat relation entry k = x*n + y, the mask of the posets i in
    all_partial_orders(n) with x <= y, poset i as bit i."""
    cols = [0] * (n * n)
    for i, o in enumerate(all_partial_orders(n)):
        for k, v in enumerate(chain.from_iterable(o.leq)):
            if v:
                cols[k] |= 1 << i
    return tuple(cols)


@lru_cache(maxsize=None)
def _poset_table(n: int) -> setcalc._PosetTable:
    """The order facts of every slice at n (setcalc._PosetTable), over the
    poset columns; built once per n, so a sweep fills it with its first
    tally, before any pool forks."""
    return setcalc._PosetTable(n, _poset_columns(n))


def _implications(tables: GammaTables) -> list:
    """imp[a*n + b] is the mask of the pairs x <= y with x != y, as bit
    x*n + y, that a <= b forces for a != b (model's _forced_pairs); an
    order is compatible exactly when it holds imp[p] for each p it holds."""
    n = tables.n
    off_diagonal = (1 << n * n) - 1 - sum(1 << x * (n + 1) for x in range(n))
    imp = [0] * (n * n)
    for a, b in permutations(range(n), 2):
        forced = 0
        for _, _, ac, bc, ca, cb in _forced_pairs(tables, a, b):
            forced |= 1 << ac * n + bc | 1 << ca * n + cb
        imp[a * n + b] = forced & off_diagonal
    return imp


def _compatible_orders(tables: GammaTables) -> int:
    """The posets compatible with the tables, as a mask over
    all_partial_orders(n): for each pair p, a poset that holds p must
    hold every pair in imp[p], tested for all posets at once through
    the columns."""
    cols = _poset_columns(tables.n)
    keep = cols[0]   # every poset holds 0 <= 0
    for p, forced in enumerate(_implications(tables)):
        if forced:
            holds = keep
            for q in setcalc._members(forced):
                holds &= cols[q]
            keep &= holds | ~cols[p]
    return keep


def enumerate_orders(tables: GammaTables):
    """All partial orders compatible with the given tables, in the order
    of all_partial_orders."""
    posets = all_partial_orders(tables.n)
    for i in setcalc._members(_compatible_orders(tables)):
        yield posets[i]


def relabel(s: PoGammaSemigroup, pi, sigma) -> PoGammaSemigroup:
    """Transport the structure along element map pi and letter map sigma
    (both old index -> new index); the brute oracle's relabeling, which
    no sweep calls."""
    n, m = s.n, s.m
    op = s.tables.op
    leq = s.order.leq
    op2 = [[[0] * n for _ in range(n)] for _ in range(m)]
    for g in range(m):
        for a in range(n):
            for b in range(n):
                op2[sigma[g]][pi[a]][pi[b]] = pi[op[g][a][b]]
    leq2 = [[False] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            leq2[pi[a]][pi[b]] = leq[a][b]
    return PoGammaSemigroup(
        tables=GammaTables(n=n, m=m, op=tuple(tuple(tuple(r) for r in t) for t in op2)),
        order=OrderRelation(n=n, leq=tuple(tuple(r) for r in leq2)))


def structure_encoding(s: PoGammaSemigroup) -> bytes:
    """Flat byte string: all table cells, then the order matrix."""
    flat = []
    for table in s.tables.op:
        for row in table:
            flat.extend(row)
    for row in s.order.leq:
        flat.extend(1 if v else 0 for v in row)
    return bytes(flat)


def canonical_key(s: PoGammaSemigroup) -> bytes:
    """Minimal encoding over every relabeling of elements and letters.

    Equal keys mean isomorphic structures (products and order preserved
    both ways), so the key doubles as the canonical-form test.
    """
    best = None
    for sigma in permutations(range(s.m)):
        for pi in permutations(range(s.n)):
            enc = structure_encoding(relabel(s, pi, sigma))
            if best is None or enc < best:
                best = enc
    return best


@lru_cache(maxsize=None)
def _relabelings(n: int, m: int) -> tuple:
    """(pi, table_src, order_src) for every element map pi and letter map
    sigma, the identity first: the relabeled table has flat cell
    k = pi[cells[table_src[k]]] and the relabeled order has flat entry
    k = leq[order_src[k]]."""
    out = []
    for sigma in permutations(range(m)):
        for pi in permutations(range(n)):
            table_src = [0] * (m * n * n)
            for g in range(m):
                for a in range(n):
                    for b in range(n):
                        table_src[(sigma[g] * n + pi[a]) * n + pi[b]] = (g * n + a) * n + b
            order_src = [0] * (n * n)
            for a in range(n):
                for b in range(n):
                    order_src[pi[a] * n + pi[b]] = a * n + b
            out.append((pi, tuple(table_src), tuple(order_src)))
    return tuple(out)


def _minimal_orders(t: GammaTables, keep: int, tied) -> tuple:
    """The posets of mask keep that no automorphism of table t (tied, as
    _walk hands them over, and the identity) maps to a smaller flattened
    relation, and per automorphism, the identity's first, the mask of
    those posets it fixes.  Relabeled entry k is entry order_src[k], so
    per automorphism the columns are compared position by position over
    all posets at once: a poset is smaller after relabeling when, at the
    first moved entry that differs, it loses a pair, and fixed when no
    moved entry differs."""
    cols = _poset_columns(t.n)
    fixed = []
    for _, _, order_src in tied:
        same, smaller = keep, 0
        for k, src in enumerate(order_src):
            if src != k:
                mine, moved = cols[k], cols[src]
                smaller |= same & mine & ~moved
                same &= ~(mine ^ moved)
                if not same:
                    break
        keep &= ~smaller
        fixed.append(same)
    return keep, [keep, *fixed]


def _table_structures(spec: EnumSpec, t: GammaTables, tied):
    """The structures over table t that enumerate_structures keeps."""
    keep = _compatible_orders(t)
    if spec.canonical_only:
        keep = _minimal_orders(t, keep, tied)[0]
    posets = all_partial_orders(t.n)
    for i in setcalc._members(keep):
        yield PoGammaSemigroup(tables=t, order=posets[i])


def enumerate_structures(spec: EnumSpec, prefix=()):
    """Yield po-structures at the requested size, depth first by table
    then order.

    Every yielded structure passes all three validators; with
    canonical_only, only structures equal to their own canonical form
    (structure_encoding(s) == canonical_key(s)) survive, one per
    isomorphism class.  Canonical generation lists only the tables that
    are minimal over their relabelings, so no table is rejected after it
    is found.
    """
    for t, tied in _walk(spec, prefix):
        yield from _table_structures(spec, t, tied)


@lru_cache(maxsize=None)
def _labeled_tables(n: int, m: int) -> tuple:
    return tuple(enumerate_tables(EnumSpec(n, m, canonical_only=False)))


def random_structures(n: int, m: int, count: int, seed: int):
    """Deterministic sample of valid structures: a uniformly chosen table
    family paired with a compatible order (orders tried in shuffled
    sequence; the discrete order guarantees a hit)."""
    rng = random.Random(seed)
    tables = _labeled_tables(n, m)
    posets = list(all_partial_orders(n))
    out = []
    for _ in range(count):
        t = rng.choice(tables)
        candidates = posets[:]
        rng.shuffle(candidates)
        order = next(o for o in candidates if order_compatible(t, o))
        out.append(PoGammaSemigroup(tables=t, order=order))
    return out


# classify's regularity flags, each with the kind it reads
_REGULARITY_FLAGS = {"regular": "regular", "completely_regular": "completely-regular",
                     "strongly_regular": "strongly-regular"}


def classify(s: PoGammaSemigroup) -> dict:
    """Structure-level property flags used in sweep tallies."""
    return {**{flag: setcalc._least_without(s, kind) is None
               for flag, kind in _REGULARITY_FLAGS.items()},
            "product_property": setcalc.product_failure(s) is None}


def _classify_slice(sl) -> dict:
    """classify's flags over a slice of posets, each the mask of the
    posets where it holds."""
    return {**{flag: sl.holds[kind] for flag, kind in _REGULARITY_FLAGS.items()},
            "product_property": sl.product_property}


@dataclass
class SweepViolation:
    structure: PoGammaSemigroup
    report: theorems.CheckReport


@dataclass
class SweepReport:
    """Aggregate of one sweep: what was enumerated, per-class tallies,
    every violation, and the structures satisfying the bi-ideal product
    property without being completely regular (the open converse gap).

    The fields with defaults are the tallies: reports over disjoint sets
    of structures merge by adding their counts and joining their lists.
    """

    n: int
    m: int
    canonical: bool
    require_order: bool   # always True: every sweep attaches each compatible order
    theorems: tuple[str, ...]
    structures: int = 0
    regular_structures: int = 0
    completely_regular_structures: int = 0
    strongly_regular_structures: int = 0
    product_property_structures: int = 0
    product_without_cr: int = 0
    product_without_cr_examples: list[PoGammaSemigroup] = field(default_factory=list)
    violations: list[SweepViolation] = field(default_factory=list)


_TALLIES = tuple(f.name for f in fields(SweepReport)
                 if f.default is not MISSING or f.default_factory is not MISSING)


def _decode(spec: EnumSpec, key: bytes, tables=None) -> PoGammaSemigroup:
    """The structure of encoding key; tables, when given, are key's own."""
    n = spec.n
    order = OrderRelation(n=n, leq=tuple(zip(*[map(bool, key[spec.m * n * n:])] * n)))
    return PoGammaSemigroup(tables=tables or _tables_from_cells(key, n, spec.m), order=order)


def _violations(s: PoGammaSemigroup, ids) -> list:
    """The selected checkers' violations on s."""
    return [SweepViolation(structure=s, report=report)
            for report in theorems.run_selected(s, ids) if report.status == "violation"]


def _table_tally(spec: EnumSpec, ids, walked) -> SweepReport:
    """Tally the share of the sweep of canonical table t, walked as
    (t, tied), by popcount over masks of its kept posets (setcalc._Slice):
    each classify flag and each selected claim's violations are decided
    for every poset at once.

    Reversal keeps every flag and claim status, so t is tallied with its
    dual, the canonical form of its reversal rev, every letter's table
    transposed: nothing is tallied when a relabeling of rev makes t
    smaller, as the dual is then the smaller table and tallies t, and t
    counts twice when none ties with it, as t is then not self-dual and
    the structures over the dual are the reversals of its own.  A
    canonical sweep counts each canonical structure over t once per such
    copy.  A labeled sweep counts it once per structure in its orbit and
    its dual's, n! m! / |Stab(S)| each, where Stab(S) holds the
    automorphisms of t that also fix its order (orbit-stabilizer), so the
    posets are grouped by that weight and each isomorphism class is
    decided once.  A poset the report lists is taken as its images'
    encodings: image cell k is pi[cells[table_src[k]]] and image entry k
    is leq[order_src[k]], over the identity alone in a canonical sweep
    and every relabeling in a labeled one, and for a dual, with rev in
    place of cells, over every relabeling, of which a canonical sweep
    keeps the least image.  Gap examples stay encodings, cut to the
    SWEEP_EXAMPLE_CAP smallest, which _merge_partitions builds.  Every
    image of a structure a selected claim's mask marks is checked in
    encoding order (table-major, t first) over one tables object per
    table, so each table tier is built once."""
    t, tied = walked
    r = SweepReport(spec.n, spec.m, spec.canonical_only, True, tuple(ids))
    cells = bytes(chain.from_iterable(chain.from_iterable(t.op)))
    rev = bytes(chain.from_iterable(chain.from_iterable(zip(*table) for table in t.op)))
    relabelings = _relabelings(t.n, t.m)
    self_dual = _self_dual(cells, rev, relabelings)
    if self_dual is None:
        return r
    keep, fixed = _minimal_orders(t, _compatible_orders(t), tied)
    copies = 1 if self_dual else 2
    if spec.canonical_only:
        weights = {copies: keep}
    else:
        weights = {}
        for i in setcalc._members(keep):
            weight = copies * len(relabelings) // sum(mask >> i & 1 for mask in fixed)
            weights[weight] = weights.get(weight, 0) | 1 << i
    sl = setcalc._Slice(setcalc._table_facts(t), _poset_table(t.n), keep)
    flags = _classify_slice(sl)
    gap = flags["product_property"] & ~flags["completely_regular"]
    violated = 0
    for tid in ids:
        violated |= theorems.MASKS[tid](sl)
    counted = {"structures": keep, "product_without_cr": gap,
               **{f"{key}_structures": flag for key, flag in flags.items()}}
    for name, mask in counted.items():
        setattr(r, name, sum(weight * (mask & members).bit_count()
                             for weight, members in weights.items()))
    sides = [(cells, relabelings[:1] if spec.canonical_only else relabelings)]
    if not self_dual:
        sides.append((rev, relabelings))
    images = [[(bytes([pi[source[k]] for k in table_src]), order_src)
               for pi, table_src, order_src in side]
              for source, side in sides] if gap | violated else []
    posets, examples, marked = all_partial_orders(t.n), set(), set()
    for i in setcalc._members(gap | violated):
        leq = bytes(chain.from_iterable(posets[i].leq))
        listed = set()
        for side in images:
            keys = {table + bytes([leq[k] for k in order_src]) for table, order_src in side}
            listed |= {min(keys)} if spec.canonical_only else keys
        if gap >> i & 1:
            examples |= listed
        if violated >> i & 1:
            marked |= listed
    for key in sorted(marked):
        if not key.startswith(cells):   # the next image table; t's own come first
            cells, t = key[:len(cells)], _tables_from_cells(key, t.n, t.m)
        r.violations += _violations(_decode(spec, key, t), ids)
    r.product_without_cr_examples = sorted(examples)[:SWEEP_EXAMPLE_CAP]
    return r


def _merge_partitions(spec: EnumSpec, ids, parts) -> SweepReport:
    """Add up the parts' tallies and join their lists, sorted by
    structure_encoding, the order of both streams; the sort is stable, so
    a structure's violations stay in catalog order.  Examples arrive as
    encodings, and only the SWEEP_EXAMPLE_CAP smallest are built."""
    merged = SweepReport(spec.n, spec.m, spec.canonical_only, True, tuple(ids))
    for p in parts:
        for name in _TALLIES:
            # lists grow in place, so a merge never recopies what it already holds
            setattr(merged, name, iadd(getattr(merged, name), getattr(p, name)))
    kept = sorted(merged.product_without_cr_examples)[:SWEEP_EXAMPLE_CAP]
    merged.product_without_cr_examples = [_decode(spec, key) for key in kept]
    merged.violations.sort(key=lambda v: structure_encoding(v.structure))
    return merged


def _tallies(tally, tables, workers: int):
    """tally over every walked table, in stream order: in process until
    the sweep has used SWEEP_POOL_AFTER_S of CPU, and then, with more
    than one worker, by Pool.imap over the rest.  The walk has filled
    the relabeling cache and the in-process tallies the poset columns and
    the poset table by then, so forked workers inherit all three."""
    start = time.process_time()
    for walked in tables:
        yield tally(walked)
        if workers > 1 and time.process_time() - start >= SWEEP_POOL_AFTER_S:
            import multiprocessing   # here, so that a start which runs no pool does not import it
            with multiprocessing.Pool(workers) as pool:
                yield from pool.imap(tally, tables, SWEEP_CHUNK)
            return


def sweep(spec: EnumSpec, theorem_ids=None, workers: int = 1) -> SweepReport:
    """Tally every structure per spec by popcount, deciding each
    isomorphism class once and running the selected checkers only on the
    structures a claim's mask marks as violated.

    Both modes walk the canonical table stream, so its guard is the one
    checked; it is generated once, here, and each table is tallied on its
    own (_table_tally), in process until the sweep has used
    SWEEP_POOL_AFTER_S of CPU, and after that by Pool.imap when the
    worker count, capped at the CPUs this process may run on, is above 1
    (_tallies).  A sweep that ends sooner never starts a pool.  Both
    yield per-table results in stream order, and the merge sorts what it
    lists, so the report is identical for any worker count.
    """
    walk = replace(spec, canonical_only=True)
    walk.validate()
    ids = tuple(theorem_ids) if theorem_ids else theorems.THEOREM_IDS
    unknown = set(ids) - set(theorems.THEOREM_IDS)
    if unknown:
        raise ValueError(f"unknown theorem ids: {sorted(unknown)}")
    # the CPUs this process may run on, which taskset shrinks, where the platform lists them
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, cpus or 1)
    tally = partial(_table_tally, spec, ids)
    return _merge_partitions(spec, ids, _tallies(tally, _walk(walk), workers))
