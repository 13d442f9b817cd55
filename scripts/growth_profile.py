#!/usr/bin/env python3
"""Growth profile of the representation count along dyadic windows.

Builds the table for one seed, then prints per-window minima of
R_{1,k}(A, n) next to the guaranteed bound B(n) at the window start and the
empirical ratio min R / ln(window start).  The minima double per window for
the canonical k=2 seed, far above the guaranteed floor(log/4) floor.
"""

import argparse
import math

from repfn import SeedAssignment, bound_scan, extend_seed, guaranteed_bound


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--n0", type=int, default=1)
    parser.add_argument("--seed", type=str, default="011")
    parser.add_argument("--max-exp", type=int, default=16,
                        help="largest dyadic exponent m; scans up to 2**(m+1) - 1")
    args = parser.parse_args()

    seed = SeedAssignment.from_string(args.k, args.n0, args.seed)
    hi = 2 ** (args.max_exp + 1) - 1
    chi = extend_seed(seed, hi)
    report = bound_scan(chi, args.k, args.n0, 2)
    if not report.ok.all():
        raise SystemExit(f"counts below the guaranteed bound at n={report.ns[~report.ok][:5].tolist()}")

    print(f"{'window':>20} {'min R':>8} {'B(lo)':>6} {'min R / ln lo':>14}")
    for m in range(2, args.max_exp + 1):
        lo, up = 2**m, 2 ** (m + 1) - 1
        window = (report.ns >= lo) & (report.ns <= up)
        min_r = int(report.r_set[window].min())
        bound = guaranteed_bound(args.k, args.n0, lo)
        print(f"[{lo:>8}, {up:>8}] {min_r:>8} {bound:>6} {min_r / math.log(lo):>14.3f}")
    print(f"\nscan-wide minimum of R / max(1, ln n): {report.min_ratio:.6f}")


if __name__ == "__main__":
    main()
