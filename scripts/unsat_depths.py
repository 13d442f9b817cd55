#!/usr/bin/env python3
"""Measure the refutation depth of the count equality for general weights.

For each coprime weight pair (k1, k2) with k2 > k1 >= 2 the exhaustive
search reports the smallest prefix length at which every 0/1 assignment
violates some equality constraint with n >= n0.  With n0 = 0 the constraint
at n = 0 is already unsatisfiable (exactly one side contains 0), so depths
are only interesting from n0 = 1 up.
"""

import argparse
from math import gcd

from repfn import UNSAT, WeightPair, nonexistence_search


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-weight", type=int, default=7)
    parser.add_argument("--max-n0", type=int, default=4)
    parser.add_argument("--cap", type=int, default=600)
    args = parser.parse_args()

    pairs = [
        (k1, k2)
        for k1 in range(2, args.max_weight)
        for k2 in range(k1 + 1, args.max_weight + 1)
        if gcd(k1, k2) == 1
    ]
    header = " ".join(f"n0={n0:<3}" for n0 in range(args.max_n0 + 1))
    print(f"{'pair':>8}  {header}   (entries are N*, nodes)")
    for k1, k2 in pairs:
        cells = []
        for n0 in range(args.max_n0 + 1):
            outcome = nonexistence_search(WeightPair(k1, k2), n0, args.cap)
            if outcome.status == UNSAT:
                cells.append(f"{outcome.unsat_depth},{outcome.nodes}")
            else:
                cells.append(outcome.status)
        print(f"({k1},{k2})".rjust(8) + "  " + " ".join(c.ljust(6) for c in cells))


if __name__ == "__main__":
    main()
