"""Sweep every supported size and print one tally line per combination.

Runs the canonical enumeration with all nine claim checkers for each
(n, m) in COMBOS, every size up to (3, 3) and (4, 1), and reports
structure counts, regularity class tallies, the product-property gap,
and violations.  With --out-dir the machine report for each size is
also written to disk.

The gap column counts structures with the bi-ideal product property
(every bi-ideal B equals (BB]) that are not completely regular: each one
shows the prop6 converse, which recovers regularity, cannot be
strengthened to complete regularity.  After the totals, the first such
witness of the last size that has one is printed as a structure
document.

Exit codes follow the CLI's contract: 0 when every size is clean, 1 when
any size reports a claim violation.

Run from the repository root: python3 scripts/run_sweep.py [--workers K]
"""

import argparse
import sys
import time
from pathlib import Path

from pogamma.enumeration import EnumSpec, sweep
from pogamma.formats import serialize_report, serialize_structure

COMBOS = ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out-dir", metavar="DIR", default=None,
                        help="write one machine report per size into DIR")
    args = parser.parse_args()

    header = (f"{'n':>2} {'m':>2} {'structures':>10} {'regular':>8} {'compl':>6} "
              f"{'strong':>7} {'product':>8} {'gap':>4} {'violations':>11} {'secs':>6}")
    print(header)
    totals = {"structures": 0, "violations": 0, "gap": 0}
    witness = None
    for n, m in COMBOS:
        start = time.perf_counter()
        report = sweep(EnumSpec(n, m), workers=args.workers)
        elapsed = time.perf_counter() - start
        print(f"{n:>2} {m:>2} {report.structures:>10} {report.regular_structures:>8} "
              f"{report.completely_regular_structures:>6} "
              f"{report.strongly_regular_structures:>7} "
              f"{report.product_property_structures:>8} "
              f"{report.product_without_cr:>4} {len(report.violations):>11} {elapsed:>6.2f}")
        totals["structures"] += report.structures
        totals["violations"] += len(report.violations)
        totals["gap"] += report.product_without_cr
        if report.product_without_cr_examples:
            witness = report.product_without_cr_examples[0]
        if args.out_dir:
            out_dir = Path(args.out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"sweep_n{n}_m{m}.json"
            path.write_text(serialize_report(report), encoding="utf-8")
    print(f"total: {totals['structures']} structures, "
          f"{totals['gap']} product-property-without-complete-regularity, "
          f"{totals['violations']} violations")
    if witness is None:
        print("no separating witness: every structure with the product property "
              "is completely regular")
    else:
        print(f"separating witness (n={witness.n}, m={witness.m}):")
        print(serialize_structure(witness), end="")
    return 1 if totals["violations"] else 0


if __name__ == "__main__":
    sys.exit(main())
