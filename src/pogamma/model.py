"""Finite po-Gamma-semigroup structures and axiom validation.

A structure is a finite set M = {0, ..., n-1} together with a family of
binary operations indexed by letters {0, ..., m-1} (the product of a and
b under letter g is written a g b) and a partial order on M.  Validation
covers three axiom layers: mixed associativity of the operation family,
the partial-order axioms, and two-sided compatibility of the order with
every operation.  All core types are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product


class StructuralError(ValueError):
    """Declared dimensions and array shapes disagree."""


@dataclass(frozen=True)
class GammaTables:
    """Multiplication tables op[g][a][b], one n x n table per letter g."""

    n: int
    m: int
    op: tuple[tuple[tuple[int, ...], ...], ...]

    @classmethod
    def from_rows(cls, rows) -> "GammaTables":
        op = tuple(tuple(tuple(int(v) for v in row) for row in table) for table in rows)
        m = len(op)
        n = len(op[0]) if m else 0
        return cls(n=n, m=m, op=op)


@dataclass(frozen=True)
class OrderRelation:
    """Boolean relation with leq[a][b] encoding a <= b."""

    n: int
    leq: tuple[tuple[bool, ...], ...]

    @classmethod
    def from_rows(cls, rows) -> "OrderRelation":
        leq = tuple(tuple(bool(v) for v in row) for row in rows)
        return cls(n=len(leq), leq=leq)


def equality_order(n: int) -> OrderRelation:
    """The discrete order: a <= b only when a = b."""
    return OrderRelation(n=n, leq=tuple(tuple(i == j for j in range(n)) for i in range(n)))


@dataclass(frozen=True)
class PoGammaSemigroup:
    """Tables and an order over the same universe.

    Construction only enforces matching dimensions; run the validators
    (or load through the file layer, which does) before trusting the
    axioms.
    """

    tables: GammaTables
    order: OrderRelation

    def __post_init__(self):
        if self.tables.n != self.order.n:
            raise StructuralError(
                f"tables are over {self.tables.n} elements but the order is over {self.order.n}")

    @property
    def n(self) -> int:
        return self.tables.n

    @property
    def m(self) -> int:
        return self.tables.m

    @property
    def universe(self) -> frozenset:
        return frozenset(range(self.tables.n))

    def prod(self, g: int, a: int, b: int) -> int:
        return self.tables.op[g][a][b]

    def le(self, a: int, b: int) -> bool:
        return self.order.leq[a][b]


def structure_from_rows(tables_rows, order_rows) -> PoGammaSemigroup:
    return PoGammaSemigroup(tables=GammaTables.from_rows(tables_rows),
                            order=OrderRelation.from_rows(order_rows))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a validator: ok, or every failure as (axiom, witness)."""

    ok: bool
    failures: tuple[tuple[str, tuple], ...]

    @classmethod
    def from_failures(cls, failures) -> "ValidationReport":
        frozen = tuple((name, tuple(wit)) for name, wit in failures)
        return cls(ok=not frozen, failures=frozen)


# every axiom a validator reports, with the length of its witnesses
AXIOMS = {"entry-range": 4, "gamma-associativity": 5, "reflexivity": 1,
          "antisymmetry": 2, "transitivity": 3, "compatibility": 5}


def format_failure(failure) -> str:
    name, witness = failure
    return f"{name}{tuple(witness)}"


def _check_table_shape(t: GammaTables) -> None:
    if t.n < 1 or t.m < 1:
        raise StructuralError(f"need n >= 1 and m >= 1, got n={t.n}, m={t.m}")
    if len(t.op) != t.m:
        raise StructuralError(f"expected {t.m} tables, found {len(t.op)}")
    for g, table in enumerate(t.op):
        if len(table) != t.n or any(len(row) != t.n for row in table):
            raise StructuralError(f"table {g} is not {t.n}x{t.n}")


def _associativity_instances(n: int, m: int):
    """Yield (witness, ab, bc, lhs_base, rhs_base) per instance
    (a g b) u c = a g (b u c), in validate_gamma_tables' order.  The
    witness is (a, b, c, g, u); ab and bc are the flat indices
    (g*n + a)*n + b of cells (g, a, b) and (u, b, c), and with p and q
    their values the two sides are the cells at lhs_base + p*n and
    rhs_base + q.  Instances are made one at a time, so a full scan
    holds one of them, not all n^3 m^2."""
    for a, b, c, g, u in product(range(n), range(n), range(n), range(m), range(m)):
        yield (a, b, c, g, u), (g * n + a) * n + b, (u * n + b) * n + c, u * n * n + c, (g * n + a) * n


def _associativity_failures(cells, instances, n: int):
    """Lazily yield the witness of each failing instance whose four cells
    are filled; a negative cell is not filled yet."""
    for witness, ab, bc, lhs_base, rhs_base in instances:
        p, q = cells[ab], cells[bc]
        if p < 0 or q < 0:
            continue
        lhs, rhs = cells[lhs_base + p * n], cells[rhs_base + q]
        if lhs != rhs and lhs >= 0 and rhs >= 0:
            yield witness


def validate_gamma_tables(t: GammaTables) -> ValidationReport:
    """Report every entry-range and mixed-associativity failure.

    Associativity is required in the strong mixed form: (a g b) u c must
    equal a g (b u c) for every pair of letters g, u.  It is only
    meaningful once all entries are in range, so range failures suppress
    the associativity scan.  An entry-range witness ends with the entry
    itself when JSON writes it as a scalar, and with its repr otherwise
    (NaN, an infinity, a tuple), so every report is JSON.
    """
    _check_table_shape(t)
    n = t.n
    failures = []
    for g, table in enumerate(t.op):
        for a, row in enumerate(table):
            for b, v in enumerate(row):
                if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < n:
                    scalar = v is None or isinstance(v, (int, str)) or (
                        isinstance(v, float) and math.isfinite(v))
                    failures.append(("entry-range", (g, a, b, v if scalar else repr(v))))
    if not failures:
        cells = [v for table in t.op for row in table for v in row]
        failures = [("gamma-associativity", w) for w in
                    _associativity_failures(cells, _associativity_instances(n, t.m), n)]
    return ValidationReport.from_failures(failures)


def validate_order(o: OrderRelation) -> ValidationReport:
    """Report every reflexivity, antisymmetry, and transitivity failure."""
    if o.n < 1:
        raise StructuralError(f"need n >= 1, got n={o.n}")
    if len(o.leq) != o.n or any(len(row) != o.n for row in o.leq):
        raise StructuralError(f"relation is not {o.n}x{o.n}")
    n, leq = o.n, o.leq
    failures = []
    for a in range(n):
        if not leq[a][a]:
            failures.append(("reflexivity", (a,)))
    for a in range(n):
        for b in range(a + 1, n):
            if leq[a][b] and leq[b][a]:
                failures.append(("antisymmetry", (a, b)))
    for a in range(n):
        for b in range(n):
            if leq[a][b]:
                for c in range(n):
                    if leq[b][c] and not leq[a][c]:
                        failures.append(("transitivity", (a, b, c)))
    return ValidationReport.from_failures(failures)


def _forced_pairs(tables: GammaTables, a: int, b: int):
    """Yield (c, g, a g c, b g c, c g a, c g b) per c and letter g, in
    validate_compatibility's order: a <= b forces the first product to be
    <= the second (side "left"), and the third <= the fourth ("right")."""
    for c in range(tables.n):
        for g, og in enumerate(tables.op):
            yield c, g, og[a][c], og[b][c], og[c][a], og[c][b]


def _compatibility_failures(tables: GammaTables, order: OrderRelation):
    """Lazily yield the witness of each compatibility failure, as
    validate_compatibility reports them."""
    leq, n = order.leq, tables.n
    for a in range(n):
        for b in range(n):
            if a == b or not leq[a][b]:
                continue
            for c, g, ac, bc, ca, cb in _forced_pairs(tables, a, b):
                if not leq[ac][bc]:
                    yield (a, b, c, g, "left")
                if not leq[ca][cb]:
                    yield (a, b, c, g, "right")


def validate_compatibility(s: PoGammaSemigroup) -> ValidationReport:
    """Report every place the order fails to survive multiplication.

    Side "left" means the compared pair sits on the left of the product
    (a g c against b g c), side "right" that it sits on the right.
    Witnesses are (a, b, c, g, side).
    """
    return ValidationReport.from_failures(
        ("compatibility", w) for w in _compatibility_failures(s.tables, s.order))


def validate_structure(s: PoGammaSemigroup) -> ValidationReport:
    """All three validators; compatibility runs only once both layers hold."""
    tables_report = validate_gamma_tables(s.tables)
    order_report = validate_order(s.order)
    failures = list(tables_report.failures) + list(order_report.failures)
    if tables_report.ok and order_report.ok:
        failures += list(validate_compatibility(s).failures)
    return ValidationReport.from_failures(failures)
