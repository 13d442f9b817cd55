"""Reference implementations that the fast paths in repfn are checked against.

Each oracle computes the same quantity as a library function by a different
route: the naive per-n counter, the strided sieve and the pair-grid
histogram for ``rep_values``, a per-n pair loop for the window identity that
``rep_difference`` decides, a per-n loop for the flip check of
``verify_structure``, a per-base loop for ``verify_block_parity``, a
per-n pair loop for ``classic_rep``, the flip rule as a recursion for
``SeedAssignment.value``, a recursive depth-first search over the
solution slices of each n for the block frontier of ``prefix_search``,
and a pair-grid double loop for ``validate_certificate``.  They are slow
on purpose and live only in the tests.
"""

import sys
from itertools import islice

import numpy as np

from repfn import (
    COMPLEMENT,
    SET,
    BlockParityReport,
    ChiTable,
    PreconditionError,
    QueryBeyondPrefix,
    WeightPair,
)

MAX_STORED_VIOLATIONS = 100


def _member(bits: np.ndarray, side: str) -> np.ndarray:
    bits = np.asarray(bits, dtype=np.int64)
    return bits if side == SET else 1 - bits


def rep_count_weighted(chi: ChiTable, side: str, w: WeightPair, n: int) -> int:
    """Count ordered pairs (a1, a2) with k1*a1 + k2*a2 = n, both on ``side``.

    This is the naive per-n reference counter: one pass over a2 in
    [0, n // k2].
    """
    if side not in (SET, COMPLEMENT):
        raise PreconditionError(f"side must be one of {(SET, COMPLEMENT)}, got {side!r}")
    if n < 0:
        raise PreconditionError(f"n must be nonnegative, got {n}")
    if n > chi.limit:
        raise QueryBeyondPrefix(f"n={n} outside known prefix [0, {chi.limit}]")
    bits = chi.bits
    target = 1 if side == SET else 0
    count = 0
    for a2 in range(n // w.k2 + 1):
        rem = n - w.k2 * a2
        if rem % w.k1:
            continue
        a1 = rem // w.k1
        if bits[a1] == target and bits[a2] == target:
            count += 1
    return count


def chi_recursive(seed: str, k: int, n0: int, n: int) -> int:
    """chi(n) of the flip-rule extension of a seed string, by the rule as
    written: seed[n] inside the seed, else 1 - chi(n // k).  The recursion
    runs as a loop, one step per power of k, so n may have thousands of
    digits."""
    flips = 0
    while n >= k + n0:
        n //= k
        flips ^= 1
    return int(seed[n]) ^ flips


def window_identity_loop(values, k: int, n: int) -> bool:
    """The window identity at n, literally: over the solutions of
    a1 + k*a2 = n, the solution count equals sum chi(a1) + chi(a2)."""
    total = 0
    weighted = 0
    for a2 in range(n // k + 1):
        total += 1
        weighted += values[n - k * a2] + values[a2]
    return total == weighted


def sieve_rep_values(bits: np.ndarray, side: str, w: WeightPair, up_to: int) -> np.ndarray:
    """Strided-add sieve: one slice update per member a2 <= up_to // k2."""
    member = _member(bits[: up_to + 1], side)
    values = np.zeros(up_to + 1, dtype=np.int64)
    for a2 in np.flatnonzero(member[: up_to // w.k2 + 1]):
        start = w.k2 * int(a2)
        cnt = (up_to - start) // w.k1 + 1
        values[start : start + (cnt - 1) * w.k1 + 1 : w.k1] += member[:cnt]
    return values


def pair_grid_rep_values(bits: np.ndarray, side: str, w: WeightPair, up_to: int) -> np.ndarray:
    """Enumerate every member pair and histogram the weighted sums."""
    member = _member(bits, side)
    a1s = np.nonzero(member[: up_to // w.k1 + 1])[0].astype(np.int64)
    a2s = np.nonzero(member[: up_to // w.k2 + 1])[0].astype(np.int64)
    if a1s.size == 0 or a2s.size == 0:
        return np.zeros(up_to + 1, dtype=np.int64)
    sums = np.add.outer(w.k1 * a1s, w.k2 * a2s).ravel()
    return np.bincount(sums[sums <= up_to], minlength=up_to + 1).astype(np.int64)


def classic_counts(bits, side: str, n: int) -> tuple[int, int, int]:
    """(r1, r2, r3) at n: ordered pairs, pairs a < a', pairs a <= a' with a + a' = n."""
    target = 1 if side == SET else 0
    r1 = r2 = r3 = 0
    for a in range(n // 2 + 1):
        b = n - a
        if bits[a] == target and bits[b] == target:
            r3 += 1
            if a < b:
                r2 += 1
                r1 += 2
            else:
                r1 += 1
    return r1, r2, r3


def flip_rule_loop(chi: ChiTable, k: int, n0: int) -> tuple[int | None, int]:
    """(first violation, violation count) of the flip rule
    chi(n) = 1 - chi(n // k) over n in [k + n0, limit], one n at a time."""
    first, count = None, 0
    for n in range(k + n0, chi.limit + 1):
        if chi.bits[n] == chi.bits[n // k]:
            count += 1
            if first is None:
                first = n
    return first, count


def block_parity_loop(chi: ChiTable, k: int, n0: int, i_max: int) -> BlockParityReport:
    """verify_block_parity as one comparison per base n and power i, over
    the bases n >= (n0 + k) // k + 1 whose block starts within the table."""
    limit = chi.limit
    threshold = (n0 + k) // k + 1
    bits = chi.bits
    checked = 0
    violations: list[tuple[int, int, int]] = []
    violation_count = 0
    for i in range(1, i_max + 1):
        base = k**i
        for n in range(threshold, limit // base + 1):
            block = bits[base * n : min(base * (n + 1), limit + 1)]
            bad = np.nonzero(block != bits[n] ^ (i & 1))[0]
            checked += block.size
            violation_count += int(bad.size)
            for j in islice(bad, max(0, MAX_STORED_VIOLATIONS - len(violations))):
                violations.append((n, i, int(j)))
    return BlockParityReport(
        checked=checked,
        violation_count=violation_count,
        violations=tuple(violations),
    )


def solution_slices(w: WeightPair, n: int) -> tuple[slice, slice, int]:
    """Slices (s2, s1) of a chi prefix picking the a2 and the a1 of the
    c solutions of k1*a1 + k2*a2 = n, for coprime k1 <= k2.

    The a2 form one residue class mod k1 in [0, n // k2] and the a1 one
    residue class mod k2, counted down from the a1 of the smallest a2.
    """
    a2 = n * pow(w.k2, -1, w.k1) % w.k1
    if a2 > n // w.k2:
        # no solution: an a1 slice would start at a negative index
        return slice(0, 0), slice(0, 0), 0
    c = (n // w.k2 - a2) // w.k1 + 1
    return slice(a2, n // w.k2 + 1, w.k1), slice((n - w.k2 * a2) // w.k1, None, -w.k2), c


def prefix_search_dfs(
    w: WeightPair, n0: int, width: int, first_only: bool = False
) -> tuple[list[tuple[int, ...]], int, int]:
    """prefix_search as a recursive depth-first search, one frame per child.

    Bits are assigned in increasing index order, 0 before 1; bit d settles
    the n in [k1*d, k1*(d+1)) at or above n0, and a branch dies at its first
    violation.  ``nodes`` counts the children tried, in preorder; with
    ``first_only`` the search stops at the first survivor.
    """
    k1 = w.k1
    settled = [
        [solution_slices(w, n) for n in range(max(n0, k1 * d), k1 * (d + 1))]
        for d in range(width)
    ]
    bits = [0] * width
    survivors: list[tuple[int, ...]] = []
    nodes = deepest = 0

    def dfs(d: int) -> bool:
        """Extend the prefix bits[:d]; True stops the whole search."""
        nonlocal nodes, deepest
        if d > deepest:
            deepest = d
        if d == width:
            survivors.append(tuple(bits))
            return first_only
        for v in (0, 1):
            nodes += 1
            bits[d] = v
            for s2, s1, c in settled[d]:
                if sum(bits[s2]) + sum(bits[s1]) != c:
                    break
            else:
                if dfs(d + 1):
                    return True
        return False

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, width + 200))
    try:
        dfs(0)
    finally:
        sys.setrecursionlimit(old_limit)
    return survivors, nodes, deepest


def validate_certificate_pairs(bits, w: WeightPair, n0: int) -> bool:
    """validate_certificate by tallying both sides over the full pair grid,
    a plain double loop, at every n in [n0, k1 * len(bits) - 1]."""
    bits = [int(b) for b in bits]
    size = len(bits)
    top = w.k1 * size - 1
    r_set = [0] * (top + 1)
    r_comp = [0] * (top + 1)
    for a1 in range(size):
        for a2 in range(size):
            s = w.k1 * a1 + w.k2 * a2
            if s > top:
                break
            if bits[a1] and bits[a2]:
                r_set[s] += 1
            elif not bits[a1] and not bits[a2]:
                r_comp[s] += 1
    return all(r_set[n] == r_comp[n] for n in range(n0, top + 1))
