"""Independent checks of the output of the repfn CLI.

Nothing here imports repfn.  Membership comes from the digit formula
chi(n) = seed[n // k**d] ^ (d & 1), with d the first scale at which the
quotient falls inside the seed, and every count from a plain loop over the
solutions.  A defect in the package therefore cannot hide in its own check.

``Checker.check`` takes an op, its exit code and its captured stdout, and
returns None when the output is right or a one-line reason when it is not.
"""

from __future__ import annotations

import json
import math

SIDES = {"set": 1, "complement": 0}
SAMPLES_PER_OP = 20
# verify recounts every n in [n0, n0 + HEAD], where a bad seed first shows
HEAD = 64


def chi(seed: str, k: int, n: int) -> int:
    """Membership of n in the flip-rule extension of ``seed``."""
    d = 0
    while n >= len(seed):
        n //= k
        d += 1
    return int(seed[n]) ^ (d & 1)


def chain_threshold(k: int, n0: int) -> int:
    return (n0 + k) // k + 1


def integer_log(k: int, n: int, scale: int) -> int:
    """Largest e with k**e * scale <= n."""
    e = 0
    while scale * k ** (e + 1) <= n:
        e += 1
    return e


def sample_points(lo: int, hi: int, count: int = SAMPLES_PER_OP) -> list[int]:
    """``count`` evenly spaced integers in [lo, hi], both ends included."""
    if hi - lo + 1 <= count:
        return list(range(lo, hi + 1))
    return sorted({lo + (hi - lo) * i // (count - 1) for i in range(count)})


def naive_rep(table: bytes, k: int, n: int, bit: int) -> int:
    """Pairs (a1, a2) with a1 + k*a2 = n and chi(a1) = chi(a2) = bit."""
    return sum(1 for a2 in range(n // k + 1) if table[a2] == bit and table[n - k * a2] == bit)


def naive_classic(table: bytes, n: int, bit: int) -> tuple[int, int, int]:
    """(r1, r2, r3): ordered pairs a + b = n, pairs a < b, pairs a <= b."""
    r1 = sum(1 for a in range(n + 1) if table[a] == bit and table[n - a] == bit)
    r3 = sum(1 for a in range(n // 2 + 1) if table[a] == bit and table[n - a] == bit)
    middle = 1 if n % 2 == 0 and table[n // 2] == bit else 0
    return r1, r3 - middle, r3


class Checker:
    """Holds the membership tables the checks of one run share."""

    def __init__(self):
        self._tables: dict[tuple[str, int, int], bytes] = {}

    def table(self, seed: str, k: int, limit: int) -> bytes:
        key = (seed, k, limit)
        if key not in self._tables:
            self._tables[key] = bytes(chi(seed, k, n) for n in range(limit + 1))
        return self._tables[key]

    def check(self, op, rc: int | None, out: str) -> str | None:
        if rc != op.expect_rc:
            return f"exit code {rc}, expected {op.expect_rc}"
        try:
            doc = json.loads(out)
        except ValueError as exc:
            return f"stdout is not JSON: {exc}"
        return getattr(self, f"_check_{op.kind.replace('-', '_')}")(op.params, doc)

    def _check_verify(self, p: dict, doc: dict) -> str | None:
        k, n0, seed, limit = p["k"], p["n0"], p["seed"], p["limit"]
        tab = self.table(seed, k, limit)
        head = range(n0, min(limit, n0 + HEAD) + 1)
        ns = sorted(set(head) | set(sample_points(n0, limit)))
        mismatch = [n for n in ns if naive_rep(tab, k, n, 1) != naive_rep(tab, k, n, 0)]
        checks = doc["checks"]
        structure, equality, parity = checks["structure"], checks["equality"], checks["block_parity"]
        # inside the seed window every pair lies in the seed, so the identity there is the window identity
        window_bad = [n for n in mismatch if n < k + n0]
        if structure["window_violations"] != window_bad:
            return f"window violations {structure['window_violations']}, expected {window_bad}"
        if structure["flip_violation_count"] != 0 or structure["flip_first_violation"] is not None:
            return "flip rule reported broken on a flip-rule extension"
        first = equality["first_violation"]
        if mismatch and mismatch[0] in head:
            if first != mismatch[0]:
                return f"first equality violation {first}, expected {mismatch[0]}"
        elif mismatch:
            if first is None or not head[-1] < first <= mismatch[0]:
                return f"first equality violation {first}, expected in ({head[-1]}, {mismatch[0]}]"
        elif first is not None and first in ns:
            return f"equality violation reported at n={first}, where the counts agree"
        if equality["passed"] != (first is None):
            return "equality verdict disagrees with its first violation"
        threshold = chain_threshold(k, n0)
        expected_checked = sum(max(0, limit + 1 - k**i * threshold) for i in range(1, parity["i_max"] + 1))
        if parity["checked"] != expected_checked:
            return f"block parity checked {parity['checked']} cells, expected {expected_checked}"
        if parity["violation_count"] != 0:
            return "block parity reported broken on a flip-rule extension"
        if doc["passed"] != (structure["passed"] and equality["passed"] and parity["passed"]):
            return "overall verdict disagrees with the three checks"
        return None

    def _check_scan_bound(self, p: dict, doc: dict) -> str | None:
        k, n0, seed, lo, hi = p["k"], p["n0"], p["seed"], p["lo"], p["hi"]
        rows = doc["rows"]
        if len(rows) != hi - lo + 1 or rows[0][0] != lo or rows[-1][0] != hi:
            return f"rows cover [{rows[0][0]}, {rows[-1][0]}] x{len(rows)}, expected [{lo}, {hi}]"
        if any(r[1] != r[2] for r in rows):
            return "R_A differs from R_comp on a valid seed"
        tab = self.table(seed, k, hi)
        threshold = chain_threshold(k, n0)
        for n in sample_points(lo, hi):
            row = rows[n - lo]
            bound = integer_log(k, n, threshold) // 4 if n >= threshold else 0
            expected = [n, naive_rep(tab, k, n, 1), naive_rep(tab, k, n, 0), bound]
            if row[:4] != expected:
                return f"row {row[:4]} at n={n}, expected {expected}"
            if row[4] != int(expected[1] >= bound and expected[2] >= bound):
                return f"ok flag wrong at n={n}"
        if not doc["passed"] or doc["violations"]:
            return "bound scan reported violations"
        ratio = min(r[1] / max(1.0, math.log(max(r[0], 1))) for r in rows)
        if not math.isclose(doc["min_ratio"], ratio, rel_tol=1e-9):
            return f"min_ratio {doc['min_ratio']}, expected {ratio}"
        return None

    def _check_classic(self, p: dict, doc: dict) -> str | None:
        seed, k, limit, lo, hi = p["seed"], p["k"], p["limit"], p["lo"], p["hi"]
        rows = doc["rows"]
        if [r[0] for r in rows] != list(range(lo, hi + 1)):
            return "classic rows do not cover the requested range"
        tab = self.table(seed, k, limit)
        for n in sample_points(lo, hi):
            expected = [n, *naive_classic(tab, n, 1), *naive_classic(tab, n, 0)]
            if rows[n - lo] != expected:
                return f"row {rows[n - lo]}, expected {expected}"
        return None

    def _check_witness(self, p: dict, doc: dict) -> str | None:
        k, n0, seed, n = p["k"], p["n0"], p["seed"], p["n"]
        threshold = chain_threshold(k, n0)
        level = integer_log(k, n, threshold) if n >= threshold else 0
        if doc["guaranteed_bound"] != (level // 4 if n >= threshold else 0):
            return f"guaranteed bound {doc['guaranteed_bound']} at n={n}"
        records = doc["records"]
        for r in records:
            if r["a1"] + k * r["a2"] != n:
                return f"a1 + k*a2 != n for j={r['j']}"
            bit = SIDES.get(r["side"])
            if bit is None or chi(seed, k, r["a1"]) != bit or chi(seed, k, r["a2"]) != bit:
                return f"witness for j={r['j']} is not on side {r['side']}"
            if k ** r["i"] * (k ** r["j"] + 1) * r["t"] + r["r"] != n:
                return f"decomposition for j={r['j']} does not reassemble n"
            if not threshold <= r["t"] <= k * threshold - 1:
                return f"t={r['t']} outside [T, kT - 1] for j={r['j']}"
        if len({r["a2"] for r in records}) != len(records):
            return "a2 values are not distinct"
        skipped = doc["skipped"]
        if any(s["reason"] not in ("below-witness-threshold", "small-element-pool-exhausted") for s in skipped):
            return "unknown skip reason"
        js = sorted([r["j"] for r in records] + [s["j"] for s in skipped])
        odd = list(range(1, level // 2 + 1, 2))
        if js != odd:
            return f"records and skips cover j={js}, expected {odd}"
        return None

    def _check_seeds(self, p: dict, doc: dict) -> str | None:
        k, n0 = p["k"], p["n0"]
        seeds = doc["seeds"]
        if doc["count"] != len(seeds) or len(set(seeds)) != len(seeds):
            return "seed count or uniqueness wrong"
        for s in seeds:
            if len(s) != k + n0 or set(s) - {"0", "1"}:
                return f"malformed seed {s}"
            tab = bytes(int(c) for c in s)
            for n in range(n0, k + n0):
                if naive_rep(tab, k, n, 1) != naive_rep(tab, k, n, 0):
                    return f"seed {s} fails the window identity at n={n}"
        flipped = {s.translate(str.maketrans("01", "10")) for s in seeds}
        if flipped != set(seeds):
            return "seed list is not closed under complement"
        return None

    def _check_search(self, p: dict, doc: dict) -> str | None:
        if doc["status"] != "unsat" or doc["certificate"] is not None:
            return f"status {doc['status']}, expected unsat"
        if doc["unsat_depth"] != p["pinned_depth"]:
            return f"unsat depth {doc['unsat_depth']}, pinned {p['pinned_depth']}"
        return None
