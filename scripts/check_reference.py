#!/usr/bin/env python3
"""Classify the four reference groups and check every stored expectation.

The reference rows give the automorphism group order, vertex-stabilizer
order, s-arc-transitivity, and a class count for the exceptional graphs on
5, 21, 55, and 253 vertices.  The oracle count is authoritative; mismatches
are printed, not fatal.

Usage:
    python scripts/check_reference.py [--jobs 4]
"""

from __future__ import annotations

import argparse
import sys
import time

from metacirc.classify import classify_spec
from metacirc.groups import GroupSpec
from metacirc.predictions import table1_checks

REFERENCE_SPECS = [
    GroupSpec(5, 1, 1),
    GroupSpec(7, 3, 2),
    GroupSpec(11, 5, 3),
    GroupSpec(23, 11, 2),
]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args(argv)

    structural_ok = True
    for spec in REFERENCE_SPECS:
        t0 = time.time()
        report = classify_spec(spec, jobs=args.jobs)
        took = time.time() - t0
        row = report.table1
        print(f"\n=== {row.group}  ({spec.m},{spec.n},{spec.r})  |G| = {spec.order}  [{took:.1f}s]")
        print(f"    classes: {report.oracle_count}   phi(n0)/2: {report.phi_n0_half}   "
              f"stated exception count: {report.thm2_exception_count}   table n: {row.n}")
        for c in report.classes:
            kind = f"{c.s}-arc-transitive" if c.arc else "half-transitive"
            print(f"    aut={c.aut_order:<6} stab={c.stab_order:<3} {kind:<18} "
                  f"normal={c.normal_cayley} set={[tuple(x) for x in c.connection_set]}")
        for name, ok, detail in table1_checks(spec, report.classes):
            print(f"    [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
            structural_ok &= ok
        # the oracle count is authoritative, so this one is not fatal
        print(f"    [{'PASS' if report.count_matches_n else 'FAIL'}] class count equals table n: "
              f"oracle {report.oracle_count}, table {row.n}")
        for f in report.findings:
            print(f"    note: {f[:100]}")
    print("\nstructural expectations:", "all satisfied" if structural_ok else "VIOLATED")
    return 0 if structural_ok else 1


if __name__ == "__main__":
    sys.exit(main())
