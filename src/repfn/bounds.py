"""Constructive lower-bound machinery for the partition identity.

For the set built from a valid seed, every large n admits explicit
representations n = a1 + k*a2 with a1, a2 on a common side.  The witness
functions read membership from the seed itself (SeedAssignment.value), at
O(log n) points per witness and with no table, so n may be any Python int.
The construction rests on an exact scale decomposition

    n = k**i * (k**j + 1) * t + r,      t in [T, k*T - 1],
                                        0 <= r < k**i * (k**j + 1),

where T = floor((n0 + k) / k) + 1 and j ranges over the odd integers up to
half the integer logarithm of n / T.  :func:`decompositions` takes that
logarithm once per n and derives every (i, t, r) from it.  Distinct j yield
representations with pairwise distinct a2, which certifies the guaranteed
lower bound B(n) = floor(floor(log_k(n / T)) / 4) on the representation
count.  A witness is one flat :class:`WitnessRecord`: the fields (j, i, t,
r, case, s) of its :class:`Decomposition`, then the pair (a1, a2) and its
side, which is the row ``repfn witness`` prints.  All logarithms here are
exact integer quantities; floating point is forbidden in this module's
arithmetic because boundary values of n would misclassify.  :func:`bound_scan` checks the bound on a dense table and
returns its per-n arrays as a :class:`BoundScan`, with no layout: the CLI
writes them.  Its ``min_ratio`` is the one float, reported for reading; it
decides nothing.

The module also runs the prefix search of :mod:`repfn.partitions` at
weights k2 > k1 >= 2 (coprime), showing that no 0/1 assignment of a prefix
can satisfy the set/complement count equality: every branch dies at a
measurable depth.  A prefix the search returns is rechecked through
:func:`repfn.core.rep_difference` and the counting kernel.
"""

from __future__ import annotations

import time
from collections.abc import Set as AbstractSet
from math import gcd
from typing import NamedTuple

from ._numpy import np
from .core import COMPLEMENT, SET, ChiTable, WeightPair, rep_difference, rep_values
from .errors import DomainError, NoWitness, PreconditionError
from .partitions import (
    SeedAssignment,
    _check_params,
    chain_threshold,
    ilog,
    prefix_search,
    side_counts,
)

CASE_INTERVAL = "case1"
CASE_SMALL_SHIFT = "case2"

# why extract_witness gives no record: the construction is not yet in force
# at n, or every candidate it met is excluded
BELOW_THRESHOLD = "below-witness-threshold"
POOL_EXHAUSTED = "small-element-pool-exhausted"


def flog(k: int, n: int, scale: int) -> int:
    """Largest e with k**e * scale <= n, in exact integers."""
    if k < 2:
        raise PreconditionError(f"k must be >= 2, got {k}")
    if scale < 1:
        raise DomainError(f"scale must be >= 1, got {scale}")
    if n < scale:
        raise DomainError(f"n={n} is below scale={scale}")
    return ilog(k, n // scale)  # k**e * scale <= n exactly when k**e <= n // scale


def guaranteed_bound(k: int, n0: int, n: int) -> int:
    """B(n): the representation count guaranteed by the witness construction."""
    return flog(k, n, chain_threshold(k, n0)) // 4


def bound_array(k: int, n0: int, lo: int, hi: int) -> np.ndarray:
    """Vector of guaranteed bounds for n in [lo, hi].

    Entries with n below the chain threshold get bound 0 (nothing is
    guaranteed there).  Power boundaries are exact: the cut points are the
    integers k**e * T themselves, never floating-point logs.
    """
    t0 = chain_threshold(k, n0)
    # one array filled slice by slice: np.empty, since np.zeros measured a
    # larger peak RSS through the heap layout it leaves
    bound = np.empty(hi - lo + 1, dtype=np.int64)
    bound[: max(min(t0, hi + 1) - lo, 0)].fill(0)
    cut, e = t0, 0
    while cut <= hi:  # [k**e * T, k**(e+1) * T) has bound e // 4
        bound[max(cut - lo, 0) : max(min(cut * k, hi + 1) - lo, 0)].fill(e // 4)
        cut, e = cut * k, e + 1
    return bound


class Decomposition(NamedTuple):
    """Exact writing n = k**i * (k**j + 1) * t + r with t in [T, k*T - 1].

    ``case`` records which regime the remainder falls in: "case1" when
    r <= k**(i+j) + k**i - k - 1 (witness from paired scaled blocks) and
    "case2" otherwise, with s = r - (k**(i+j) + k**i - k - 1) in [1, k]
    (witness from one scaled block plus a small element).
    """

    j: int
    i: int
    t: int
    r: int
    case: str
    s: int | None


def decompositions(k: int, n0: int, n: int) -> list[Decomposition]:
    """The decomposition of n at every admissible j: the odd j with
    1 <= j <= level // 2, where level = flog(k, n, T); empty below T.

    The inner exponent i is the unique integer with

        k**i * (k**j + 1) * T <= n < k**(i+1) * (k**j + 1) * T,

    and (t, r) is the division of n by k**i * (k**j + 1).  Since
    k**j < k**j + 1 <= k**(j+1), the left side gives k**(i+j) * T < n, so
    i + j <= level, and the right side gives n < k**(i+j+2) * T, so
    i + j >= level - 1.  One comparison picks between the two: i is
    level - j unless k**(level-j) * (k**j + 1) * T exceeds n.  So one
    integer log serves every j.

    The same bounds put t in [T, k*T - 1], and r < k**i * (k**j + 1) puts
    s <= k: the NoWitness checks on t and s fire only when ``flog`` is
    wrong, the fault ``test_witness_checks_survive_optimized_python`` injects.
    """
    t0 = chain_threshold(k, n0)
    if n < t0:
        return []
    level = flog(k, n, t0)
    out = []
    for j in range(1, level // 2 + 1, 2):
        spread = k**j + 1
        i = level - j - (k ** (level - j) * spread * t0 > n)
        t, r = divmod(n, spread * k**i)
        if not t0 <= t <= k * t0 - 1:
            raise NoWitness(f"t={t} outside [{t0}, {k * t0 - 1}] at n={n}, j={j}, i={i}")
        s = r - (k ** (i + j) + k**i - k - 1)
        if s <= 0:
            out.append(Decomposition(j, i, t, r, CASE_INTERVAL, None))
        elif s <= k:
            out.append(Decomposition(j, i, t, r, CASE_SMALL_SHIFT, s))
        else:
            raise NoWitness(f"shift s={s} outside [1, {k}] at n={n}, j={j}")
    return out


class WitnessRecord(NamedTuple):
    """One explicit representation n = a1 + k*a2 with both ends on ``side``:
    the fields of the :class:`Decomposition` it came from, then the pair."""

    j: int
    i: int
    t: int
    r: int
    case: str
    s: int | None
    a1: int
    a2: int
    side: str


def extract_witness(
    seed: SeedAssignment, n: int, d: Decomposition, exclude: AbstractSet[int] = frozenset()
) -> WitnessRecord | str:
    """Produce a representation of n from its decomposition ``d``, or the
    reason there is none.

    case1: a2 is scanned ascending in the block [k**(i+j-1) * t, + k**(i+j-1))
    and the first value with a1 = n - k*a2 inside [k**i * t, + k**i) is
    taken; block parity puts both blocks on one side, so the pair is
    monochromatic.  case2: the small element a is scanned ascending in
    [0, k*T] on the side of the block containing n - k*a; the construction
    needs k*a <= k**i - k - 1, and when no eligible a satisfies that the
    call returns :data:`BELOW_THRESHOLD` rather than failing, since the
    guarantee only kicks in for large n.

    ``exclude`` removes specific a2 values from consideration so that a
    caller collecting witnesses across several j can keep them pairwise
    distinct; when exclusions eat every candidate the scan met the call
    returns :data:`POOL_EXHAUSTED` (the representation exists, it is just
    already taken).  A genuine absence of any admissible pair raises
    NoWitness: that would contradict the construction and must fail loudly.
    """
    k = seed.k
    if d.case == CASE_INTERVAL:
        p = k ** (d.i + d.j - 1)
        q = k**d.i
        a2_lo, a2_hi = p * d.t, p * d.t + p - 1
        a1_lo, a1_hi = q * d.t, q * d.t + q - 1
        # from the least a2 with a1 = n - k*a2 <= a1_hi, so a1 stays in its block
        start = max(a2_lo, -(-(n - a1_hi) // k))
        excluded = False
        for a2 in range(start, a2_hi + 1):
            a1 = n - k * a2
            if a1 < a1_lo:
                break
            if a2 in exclude:
                excluded = True
                continue
            b1, b2 = seed.value(a1), seed.value(a2)
            if b1 != b2:
                raise NoWitness(
                    f"blocks disagree at n={n}, j={d.j}: chi({a1})={b1} vs chi({a2})={b2}"
                )
            return WitnessRecord(*d, a1, a2, SET if b1 else COMPLEMENT)
        if excluded:
            return POOL_EXHAUSTED
        raise NoWitness(f"paired-block scan exhausted at n={n}, j={d.j}")

    # case2: n - (k**i - k - 1 + s) = k**i * m for the shifted base m
    headroom = k**d.i - k - 1
    if headroom < 0:
        # no small element can fit (at i = 0 the shifted base m even sits
        # above n itself)
        return BELOW_THRESHOLD
    m = (k**d.j + 1) * d.t + k**d.j
    side_bit = seed.value(m) ^ (d.i & 1)
    blk_lo = k**d.i * m
    saw_side_match = excluded = False
    t0 = chain_threshold(k, seed.n0)
    for a in range(0, k * t0 + 1):
        if seed.value(a) != side_bit:
            continue
        saw_side_match = True
        if k * a > headroom:
            break
        if a in exclude:
            excluded = True
            continue
        a1 = n - k * a
        if not blk_lo <= a1 <= blk_lo + k**d.i - 1:
            raise NoWitness(f"a1={a1} outside the shifted block at n={n}, j={d.j}, a={a}")
        if seed.value(a1) != side_bit:
            raise NoWitness(
                f"block side mismatch at n={n}, j={d.j}: chi({a1}) != chi({m}) parity"
            )
        return WitnessRecord(*d, a1, a, SET if side_bit else COMPLEMENT)
    if not saw_side_match:
        # one of T, k*T lies on each side, so a match always exists in [0, k*T]
        raise NoWitness(f"no element of the required side in [0, {k * t0}] at n={n}")
    return POOL_EXHAUSTED if excluded else BELOW_THRESHOLD


def witness_list(seed: SeedAssignment, n: int) -> tuple[list[WitnessRecord], list[tuple[int, str]]]:
    """Witnesses for every admissible odd j at n, with pairwise distinct a2.

    case1 witnesses are automatically distinct across j (their a1 blocks
    live at disjoint scales); case2 witnesses share the small-element pool
    [0, k*T], so each used small element is excluded from later j.  Skipped
    j values are reported with the reason :func:`extract_witness` gives
    instead of a record.
    """
    records: list[WitnessRecord] = []
    skipped: list[tuple[int, str]] = []
    used_small: set[int] = set()
    for d in decompositions(seed.k, seed.n0, n):
        rec = extract_witness(seed, n, d, exclude=used_small)
        if isinstance(rec, str):
            skipped.append((d.j, rec))
            continue
        records.append(rec)
        if rec.case == CASE_SMALL_SHIFT:
            used_small.add(rec.a2)
    if len({r.a2 for r in records}) != len(records):
        raise NoWitness(f"duplicate a2 at n={n}")
    return records, skipped


class BoundScan(NamedTuple):
    """Per-n arrays of :func:`bound_scan` on [lo, limit]: n, R_{1,k} on the
    set and on the complement, the bound B(n), and the flag that both
    counts reach B(n); and ``min_ratio``, the minimum of
    r_set / max(1, ln n) over the scan."""

    ns: np.ndarray
    r_set: np.ndarray
    r_comp: np.ndarray
    bound: np.ndarray
    ok: np.ndarray
    min_ratio: float


def bound_scan(chi: ChiTable, k: int, n0: int, lo: int) -> BoundScan:
    """Both representation counts against the guaranteed bound, for each n
    in [lo, limit] of the table.

    The counts are :func:`repfn.partitions.side_counts` of D from
    :func:`repfn.core.rep_difference`, so the kernel runs once.
    ``min_ratio`` is an empirical growth constant; it is reported, never
    asserted.
    """
    _check_params(k, n0)
    hi = chi.limit
    if not 0 <= lo <= hi:
        raise PreconditionError(f"need 0 <= lo <= hi, got [{lo}, {hi}]")
    r_set, r_comp = side_counts(chi, k, rep_difference(chi, WeightPair(1, k), hi)[lo:])
    ns = np.arange(lo, hi + 1, dtype=np.int64)
    bound = bound_array(k, n0, lo, hi)
    ok = (r_set >= bound) & (r_comp >= bound)
    ratios = r_set / np.maximum(1.0, np.log(np.maximum(ns, 1).astype(np.float64)))
    return BoundScan(ns, r_set, r_comp, bound, ok, float(ratios.min()))


UNSAT = "unsat"
INCONCLUSIVE = "inconclusive"

# the search's budget, in the children a depth-first search tries over the
# searched half of the free prefixes (prefix_search's running count): the
# largest case of the (2, 3), (2, 5), (3, 4) and (3, 5) unsat depths up to
# n0 = 56 counts 5.6e8 and takes 1.7-2.1 s, and a search that the budget
# stops, (2, 3, 60), takes 5.5-6.3 s (2-core Xeon VM)
NODE_CAP = 2**31


class SearchOutcome(NamedTuple):
    """Result of the exhaustive prefix search for the count equality.

    ``unsat_depth`` is the smallest number of assigned bits at which every
    branch has died, and ``nodes`` the children a depth-first search tries
    on the way.  A branch that reaches the search's ``depth_cap`` bits
    only shows that the cap is below that depth: the result is
    inconclusive, ``certificate`` is that prefix, already re-validated,
    and ``nodes`` counts the searched half of the free prefixes up to the
    end of the window that held it.  A search that passes ``NODE_CAP`` is
    inconclusive with no certificate, and ``nodes`` is the count it
    reached.  ``elapsed`` is the search's wall time in seconds.
    """

    status: str
    unsat_depth: int | None
    certificate: tuple[int, ...] | None
    nodes: int
    elapsed: float


def validate_certificate(bits, w: WeightPair, n0: int) -> bool:
    """Independent recheck of the equality constraints a certificate claims.

    Decides D = R_A - R_C by :func:`repfn.core.rep_difference`, which counts
    no pairs and shares no code with the search, at every n the prefix
    determines, i.e. n in [n0, k1 * len(bits) - 1]; then cross-checks the
    counting kernel's R_A - R_C against D on [0, len(bits)).
    """
    size = len(bits)
    chi = ChiTable(bits)
    diff = rep_difference(chi, w, w.k1 * size - 1)
    kernel = rep_values(chi, SET, w, size - 1) - rep_values(chi, COMPLEMENT, w, size - 1)
    return not diff[n0:].any() and np.array_equal(kernel, diff[:size])


def nonexistence_search(w: WeightPair, n0: int, depth_cap: int) -> SearchOutcome:
    """Exhaustive search for a 0/1 prefix of ``depth_cap`` bits satisfying
    the count equality at every n >= n0 it decides.

    Runs :func:`repfn.partitions.prefix_search` and stops at the first
    survivor.  If no branch reaches ``depth_cap`` bits the result is UNSAT
    at the measured depth.  A surviving prefix is re-validated by
    :func:`validate_certificate` and reported as the certificate of an
    inconclusive result.  A search whose count passes ``NODE_CAP`` at the
    end of a window with no survivor stops there, inconclusive too and
    without a certificate.

    The weights must satisfy k2 > k1 >= 2 with gcd(k1, k2) = 1, where no
    infinite set satisfies the equality and finite UNSAT is the expected
    outcome.
    """
    if not (w.k2 > w.k1 >= 2):
        raise PreconditionError(f"weights must satisfy k2 > k1 >= 2, got ({w.k1}, {w.k2})")
    if gcd(w.k1, w.k2) != 1:
        raise PreconditionError(f"weights must be coprime, got ({w.k1}, {w.k2})")
    if n0 < 0:
        raise PreconditionError(f"n0 must be >= 0, got {n0}")
    if depth_cap < 1:
        raise PreconditionError(f"depth_cap must be >= 1, got {depth_cap}")

    np.ndarray  # load NumPy now: elapsed times the search, not a first import
    start = time.perf_counter()
    survivors, nodes, deepest = prefix_search(w, n0, depth_cap, first_only=True, node_cap=NODE_CAP)
    elapsed = time.perf_counter() - start
    status, unsat_depth, cert = INCONCLUSIVE, None, None
    if len(survivors):
        cert = tuple(survivors[0].tolist())
        if not validate_certificate(cert, w, n0):
            raise AssertionError("search produced a certificate the recheck rejects")
    elif deepest is not None:
        status, unsat_depth = UNSAT, deepest + 1
    return SearchOutcome(status, unsat_depth, cert, nodes, elapsed)
