"""Shared builders and cached enumeration pools for the test suite."""

from functools import lru_cache
from itertools import product
from pathlib import Path

from pogamma.enumeration import EnumSpec, enumerate_structures, enumerate_tables
from pogamma.model import structure_from_rows

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURE_DIR = REPO_ROOT / "fixtures"


def make_one_element():
    return structure_from_rows([[[0]]], [[1]])


def make_null_table():
    return structure_from_rows([[[0, 0], [0, 0]]], [[1, 0], [0, 1]])


def make_min_chain():
    return structure_from_rows([[[0, 0], [0, 1]]], [[1, 1], [0, 1]])


def make_left_zero():
    return structure_from_rows([[[0, 0], [1, 1]]], [[1, 0], [0, 1]])


def make_product_gap():
    # every bi-ideal equals (BB] but element 0 is not completely regular
    return structure_from_rows(
        [[[3, 3, 1, 3], [1, 1, 1, 1], [2, 2, 2, 2], [3, 3, 3, 3]]],
        [[1, 1, 1, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 1, 1, 1]])


# fixture file -> (embedded name, builder)
FIXTURE_FILES = {
    "one_element.json": ("one-element", make_one_element),
    "null_table.json": ("null-table", make_null_table),
    "min_chain.json": ("min-chain", make_min_chain),
    "left_zero.json": ("left-zero", make_left_zero),
    "product_gap.json": ("product-gap", make_product_gap),
}


def named_structures():
    return [(name, build()) for name, build in
            (("one-element", make_one_element), ("null-table", make_null_table),
             ("min-chain", make_min_chain), ("left-zero", make_left_zero),
             ("product-gap", make_product_gap))]


@lru_cache(maxsize=None)
def structure_pool(n, m, canonical=True):
    return tuple(enumerate_structures(EnumSpec(n, m, canonical_only=canonical)))


@lru_cache(maxsize=None)
def table_pool(n, m):
    return tuple(enumerate_tables(EnumSpec(n, m, canonical_only=False)))


def nonempty_subsets(n):
    for mask in range(1, 1 << n):
        yield frozenset(i for i in range(n) if mask >> i & 1)


def all_subsets(n):
    for mask in range(1 << n):
        yield frozenset(i for i in range(n) if mask >> i & 1)


def axiom_breaking_structures():
    """Every raw table fill at (2, 1) and (2, 2), each paired with every
    reflexive relation, then the (3, 1) structure on which prop4 first
    fails: none of them need satisfy the axioms, so between them they
    reach the violation branch of every checker."""
    for n, m in ((2, 1), (2, 2)):
        for cells in product(range(n), repeat=m * n * n):
            rows = [[cells[(g * n + a) * n:(g * n + a + 1) * n] for a in range(n)]
                    for g in range(m)]
            for bits in product((0, 1), repeat=n * n - n):
                off = iter(bits)
                yield structure_from_rows(
                    rows, [[1 if a == b else next(off) for b in range(n)] for a in range(n)])
    yield structure_from_rows([[[0, 0, 0]] * 3], [[1, 0, 0], [0, 1, 1], [1, 0, 1]])
