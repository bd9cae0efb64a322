"""Probe the gap between the bi-ideal product property and complete
regularity.

The converse claim in the catalog only recovers plain regularity from
B = (BB] for every bi-ideal.  This script hunts for a structure with the
product property that is not completely regular, which would show the
converse cannot be strengthened as stated.  It scans every canonical
structure inside the cell guard, up to (4, 1), and prints any
witnesses found.

Run from the repository root: python3 scripts/prop6_converse_probe.py
"""

import argparse

from pogamma.enumeration import EnumSpec, classify, enumerate_structures
from pogamma.formats import serialize_structure

COMBOS = ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1))


def scan(structures, label: str, witnesses: list) -> None:
    total = product = gap = 0
    for s in structures:
        flags = classify(s)
        total += 1
        if flags["product_property"]:
            product += 1
            if not flags["completely_regular"]:
                gap += 1
                witnesses.append(s)
    print(f"{label}: {total} structures, {product} with the product property, "
          f"{gap} of those not completely regular")


def main() -> None:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()

    witnesses = []
    for n, m in COMBOS:
        scan(enumerate_structures(EnumSpec(n, m)), f"canonical n={n} m={m}", witnesses)

    if witnesses:
        print(f"\nfound {len(witnesses)} separating witness(es); the first one:")
        print(serialize_structure(witnesses[0]), end="")
    else:
        print("\nno separating witness at these sizes: every structure with the "
              "product property was also completely regular")


if __name__ == "__main__":
    main()
