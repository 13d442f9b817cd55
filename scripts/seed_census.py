#!/usr/bin/env python3
"""Census of valid initial segments over a (k, n0) grid.

For each pair the script lists every seed satisfying the window identity,
rechecks each one through ``SeedAssignment.is_valid``, which shares no code
with the class construction that listed it, and extends one representative
to verify the count equality on a short prefix.
"""

import argparse

from repfn import SeedAssignment, enumerate_seeds, extend_seed, verify_equality


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-k", type=int, default=6)
    parser.add_argument("--max-n0", type=int, default=4)
    parser.add_argument("--check-limit", type=int, default=5000,
                        help="prefix length for the spot equality check")
    args = parser.parse_args()

    print(f"{'k':>3} {'n0':>3} {'count':>6}  seeds")
    for k in range(2, args.max_k + 1):
        for n0 in range(0, args.max_n0 + 1):
            seeds = enumerate_seeds(k, n0)
            rows = seeds.tolist()
            strings = ["".join(map(str, row)) for row in rows]
            invalid = [
                s for s, row in zip(strings, rows) if not SeedAssignment(k, n0, tuple(row)).is_valid()
            ]
            if invalid:
                raise SystemExit(f"seeds failing the window identity at k={k}, n0={n0}: {invalid}")
            print(f"{k:>3} {n0:>3} {len(seeds):>6}  {' '.join(strings) or '-'}")
            if len(seeds):
                first = SeedAssignment(k, n0, tuple(rows[0]))
                diff = verify_equality(extend_seed(first, args.check_limit), k, n0)
                if diff.any():
                    bad = (n0 + diff.nonzero()[0][:3]).tolist()
                    raise SystemExit(f"count equality fails at k={k}, n0={n0}, n={bad}")
    print("\nall listed seeds extend to tables with exact count equality "
          f"up to N={args.check_limit}")


if __name__ == "__main__":
    main()
