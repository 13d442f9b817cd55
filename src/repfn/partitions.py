"""Construction and verification of self-complementary partition prefixes.

A set A of nonnegative integers satisfies the partition identity for weight
k >= 2 and start n0 when R_{1,k}(A, n) = R_{1,k}(complement, n) for every
n >= n0.  Such sets are rigid: they are determined by a short initial
segment plus a deterministic recursion.  Concretely, the identity holds on
all of [n0, infinity) exactly when

  (a) the window identity holds for every n in [n0, k + n0):
      the number of solutions of a1 + k*a2 = n equals
      sum chi(a1) + sum chi(a2) over those solutions, which is the
      difference identity R_A(n) - R_C(n) = 0 of core.rep_difference, and

  (b) the flip rule chi(n) = 1 - chi(floor(n / k)) holds for every
      n >= k + n0.

This module enumerates the initial segments satisfying (a), class by
residue class mod k, extends them via (b), and verifies (a), (b), the
identity itself, and the power-block parity relation that (b) induces along
chains n -> k*n + j.  Its prefix search decides the identity at general
coprime weights k1 <= k2 one n at a time; it serves the nonexistence search
in :mod:`repfn.bounds`, and at weights (1, k) it is the independent check of
the seed enumeration.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from ._numpy import np
from .core import SET, ChiTable, WeightPair, rep_difference, rep_values
from .errors import DomainError, EnumerationCapExceeded, InvalidSeed, PreconditionError

# listing takes time and memory in proportion to the census, one byte per
# bit, and the census grows like 2**(k + n0) / n0**(k / 2); beyond this it
# stops being interactive.  enumerate_seeds packs a seed in one uint64, so
# the cap must stay <= 64.
ENUMERATION_CAP = 24

# prefix_search advances 2**BLOCK_BITS prefixes of the free bits at a time,
# and takes a window's deep bits prefix by prefix, as Python ints, once at
# most NARROW prefixes are live: on so few columns a NumPy call costs more
# than the popcounts it does
BLOCK_BITS = 14
NARROW = 16


def _check_params(k: int, n0: int) -> None:
    if k < 2:
        raise PreconditionError(f"k must be >= 2, got {k}")
    if n0 < 0:
        raise PreconditionError(f"n0 must be >= 0, got {n0}")


def chain_threshold(k: int, n0: int) -> int:
    """floor((n0 + k) / k) + 1: first base where block parity is guaranteed."""
    _check_params(k, n0)
    return (n0 + k) // k + 1


def ilog(k: int, q: int) -> int:
    """Largest e with k**e <= q, for integers k >= 2 and q >= 1, exactly.

    Since k**64 < 2**L with L = (k**64).bit_length(), log2(k) < L / 64, so
    step = (bit_length(q) - 1) * 64 // L has k**step <= q.  Each pass
    divides q by k**max(1, step) and adds that exponent to e, so q stays
    floor(q_start / k**e) and the loop ends at q < k.  The first pass
    leaves about log_k(q) / (64 * log2(k)) powers, the next a few: about
    4 passes at q near 10**1000, not one big-int division per power of k.
    """
    e = 0
    while q >= k:
        step = max(1, (q.bit_length() - 1) * 64 // (k**64).bit_length())
        q //= k**step
        e += step
    return e


def _settled_checks(w: WeightPair, n0: int, free: int):
    """Yield, for d = free, free + 1, ..., the checks of bit d on prefixes
    packed as in :func:`prefix_search`: one (both, twice, c) per n >= n0 in
    [k1*d, k1*(d+1)) with c > 0 solutions.  The identity at n holds on a
    prefix p when popcount(p & both) + popcount(p & twice) is c: ``both``
    marks the a1 and the a2 of n, and ``twice`` the bits that are both an
    a1 and an a2, as they count twice.

    From n to n + k1 every a1 grows by one and at most one a2 joins (k1 <= k2),
    so the masks of each residue of n mod k1 are carried from one depth to
    the next, none built from scratch.
    """
    k1, k2 = w.k1, w.k2
    low = (1 << free) - 1  # the packed positions of the free bits

    def at(i: int) -> int:
        """The packed position of chi index i."""
        return free - 1 - i if i < free else i

    # per residue j of n mod k1: the next a2 of its class, the solutions so
    # far and the packed masks of their a1 and of their a2
    inv = pow(k2, -1, k1)
    state = [(j * inv % k1, 0, 0, 0) for j in range(k1)]
    for d in itertools.count():
        checks = []
        for j, (a2, c, a1s, a2s) in enumerate(state):
            n = k1 * d + j
            # index i + 1 is one position down below free, one up from it
            part = a1s & low
            a1s = (a1s ^ part) << 1 | part >> 1 | (part & 1) << free
            if a2 <= n // k2:
                a1s |= 1 << at((n - k2 * a2) // k1)
                a2s |= 1 << at(a2)
                a2, c = a2 + k1, c + 1
            state[j] = (a2, c, a1s, a2s)
            if c and d >= free and n >= n0:
                checks.append((a1s | a2s, a1s & a2s, c))
        if d >= free:
            yield checks


def _terms(both: int, twice: int, d: int) -> list[tuple[int, np.uint64]]:
    """The two masks of a check of bit d cut into (word, value) terms, one
    per nonzero 64-bit word of either, for a frontier matrix."""
    return [
        (i, np.uint64(v))
        for m in (both, twice)
        for i in range(d // 64 + 1)
        if (v := m >> 64 * i & (2**64 - 1))
    ]


def _weight(frontier: np.ndarray, terms: list, c: int) -> np.ndarray:
    """Per column of a packed frontier, the popcounts of word & value summed
    over the terms of a check with c solutions, in the least unsigned type
    that holds their largest sum, 2c."""
    (word, value), *rest = terms
    weight = np.bitwise_count(frontier[word] & value)
    if 2 * c > 255:  # the uint8 popcounts could wrap
        weight = weight.astype(np.min_scalar_type(2 * c))
    for word, value in rest:
        weight += np.bitwise_count(frontier[word] & value)
    return weight


def _unpack(packed: np.ndarray, free: int, width: int) -> np.ndarray:
    """Prefixes packed one per column, as in :func:`prefix_search`, as a
    C-contiguous uint8 array of shape (count, width)."""
    rows = np.ascontiguousarray(packed.T, dtype="<u8").view(np.uint8)
    bits = np.unpackbits(rows, axis=1, bitorder="little")
    out = np.empty((len(bits), width), dtype=np.uint8)
    out[:, :free] = bits[:, :free][:, ::-1]
    out[:, free:] = bits[:, free:width]
    return out


def prefix_search(
    w: WeightPair, n0: int, width: int, first_only: bool = False, node_cap: float = math.inf
) -> tuple[np.ndarray, int, int | None]:
    """Search for 0/1 prefixes of length ``width`` on which the identity
    holds at every n >= n0 that they decide.

    The identity at n reads chi on [0, n // k1] only (k1 <= k2), so bit d
    settles exactly the n in [k1*d, k1*(d+1)) intersected with
    [n0, infinity), and a prefix dies at its first violation.  The first
    ``free`` = min(n0 // k1, width) bits settle no n, so every prefix of
    that length is live.  Flipping every bit negates each solution's
    chi(a1) + chi(a2) - 1, so a prefix survives exactly when its
    complement does: when free >= 1 only the free prefixes with bit 0 = 0
    are searched, in blocks of 2**BLOCK_BITS consecutive prefixes (the
    last BLOCK_BITS free bits vary within a block), in increasing order.
    A frontier is a uint64 matrix F[word, r] whose columns are prefixes in
    lexicographic order, each packed in the words of its column: free bit
    i at position free - 1 - i, so that the free bits read as an integer
    are the prefix's lexicographic rank, and deeper bit d at position d.
    Each newly settled n is decided on all columns at once, by popcounts
    under a mask of its a1 and a2.

    Each block takes bit ``free`` on its own; then the survivors of
    consecutive blocks are joined, in order, into a window of at most
    2**(BLOCK_BITS + 1) columns, which takes the deeper bits one at a time
    as one matrix, or prefix by prefix as Python ints once at most NARROW
    are live.  Past the free bits every bit is forced: of the terms of
    n = k1*d only a1 = d holds bit d, so the bit is c minus the other
    terms, and a prefix keeps one child or none.  Only bit ``free``, when
    k1*free < n0 (or free = 0, where a1 = a2 = 0 counts bit 0 twice), is
    branched on: each prefix gets both children.

    Returns (survivors, nodes, deepest): the surviving prefixes, one per
    row of a C-contiguous uint8 array of shape (count, width), in
    lexicographic order (no rows when none survive); the children that a
    depth-first search trying 0 before 1 tries; and the most bits any
    branch held.  That search tries both children of every live prefix,
    forced bit or not, so ``nodes`` adds 2 per prefix and depth.  When
    free >= 1 it tries bit 0 = 1 only after the whole bit 0 = 0 half, its
    mirror: the survivors are the half's, then their complements in
    reverse order, and ``nodes`` is twice the half's.

    The half's count, kept window by window, is also the budget: it is
    checked against ``node_cap`` once per window, after the window's
    survivors are taken.  With ``first_only`` the first window that has
    survivors ends the search: its first column is the lexicographically
    first survivor, and ``nodes`` counts through that window, past
    ``node_cap`` or not.  A window that leaves the count above
    ``node_cap`` otherwise stops the search: no rows, ``nodes`` is the
    count reached and ``deepest`` is None.
    """
    k1 = w.k1
    free = min(n0 // k1, width)
    mirror = free >= 1  # search the prefixes with bit 0 = 0, mirror the rest
    low = min(BLOCK_BITS, free - mirror)
    high = free - mirror - low
    words = max(1, -(-free // 64))  # of a free prefix
    low_values = np.arange(1 << low, dtype=np.uint64)
    # settled[d - free]: the checks of bit d, drawn when the search first
    # reaches depth d, so memory follows the depth reached, not width
    settled: list[list[tuple[int, int, int]]] = []
    upcoming = _settled_checks(w, n0, free)
    # cut[d]: the checks of bit d as (terms, c), cut when a frontier matrix
    # first takes bit d, as the chains take most deep bits without them
    cut: dict[int, list[tuple[list, int]]] = {}

    def checks_at(d: int) -> list[tuple[int, int, int]]:
        if d - free == len(settled):
            settled.append(next(upcoming))
        return settled[d - free]

    def step(frontier: np.ndarray, d: int) -> np.ndarray:
        """Bit d on the prefixes of a frontier: the children that pass every
        check of bit d, in order."""
        if d not in cut:
            cut[d] = [(_terms(both, twice, d), c) for both, twice, c in checks_at(d)]
        checks = cut[d]
        if d >> 6 == len(frontier):  # bit d opens a new word
            frontier = np.concatenate((frontier, np.zeros_like(frontier[:1])))
        forced = d > 0 and k1 * d >= n0
        if forced:
            # the first check, n = k1*d, holds bit d once (as a1 = d): the
            # bit is c minus the popcount of the other terms
            (terms, c), *checks = checks
            bit = c - _weight(frontier, terms, c)  # unsigned: below 0 wraps far above 1
            ok = bit <= 1
            # in place, as the other checks may read bit d as an a2
            row = frontier[d >> 6]
            np.bitwise_or(row, np.uint64(1 << (d & 63)), out=row, where=bit == 1)
        else:
            frontier = frontier.repeat(2, axis=1)
            frontier[d >> 6, 1::2] |= np.uint64(1 << (d & 63))
            ok = np.ones(frontier.shape[1], dtype=bool)
        for terms, c in checks:
            ok &= _weight(frontier, terms, c) == c
        return frontier if ok.all() else frontier[:, ok]

    def chains(frontier: np.ndarray, d0: int) -> tuple[np.ndarray, int]:
        """Bits d0, d0 + 1, ... (all forced) on each prefix of a frontier
        alone, as a Python int, until it dies or holds ``width`` bits: the
        frontier of those that reach ``width``, in order, and the most bits
        any prefix held."""
        nonlocal deep_nodes
        rows = np.ascontiguousarray(frontier.T, dtype="<u8")
        live, held = [], d0
        for p in (int.from_bytes(row, "little") for row in rows):
            d = d0
            while d < width:
                deep_nodes += 2
                (both, twice, c), *rest = checks_at(d)
                bit = c - (p & both).bit_count() - (p & twice).bit_count()
                if not 0 <= bit <= 1:
                    break
                p |= bit << d
                if any((p & b).bit_count() + (p & t).bit_count() != s for b, t, s in rest):
                    break
                d += 1
            held = max(held, d)
            if d == width:
                live.append(p)
        size = 8 * -(-width // 64)  # bytes of a packed prefix of width bits
        packed = b"".join(p.to_bytes(size, "little") for p in live)
        return np.frombuffer(packed, "<u8").reshape(-1, size // 8).T, held

    def count(stop: int) -> int:
        """The half's count through the blocks before ``stop``: children
        tried on their free prefixes, up to the last one v, at depths
        1..free (the sum over i < free of (v >> i) + 1, which is
        2v - popcount(v) + free) and at bit free (both children of each),
        and deep_nodes below bit free."""
        v = (stop << low) - 1
        return 2 * v - v.bit_count() + free + (width > free) * 2 * (v + 1) + deep_nodes

    def windows():
        """Yield (stop, parts) per window: its blocks end before block
        ``stop``, and parts holds the survivors of their bit ``free`` (the
        blocks themselves when width = free), one array per block.  A
        window ends before it would pass 2**(BLOCK_BITS + 1) columns, once
        the count passes ``node_cap`` (so that blocks whose prefixes all
        die at bit free cannot hold a window open), and after every block
        when width = free, as then it takes no bits to share."""
        parts, cols = [], 0
        for block in range(1 << high):
            frontier = np.empty((words, 1 << low), dtype=np.uint64)
            frontier[:] = np.frombuffer((block << low).to_bytes(8 * words, "little"), "<u8")[:, None]
            frontier[0] |= low_values
            if width > free:
                frontier = step(frontier, free)
            if cols + frontier.shape[1] > 2 << BLOCK_BITS:
                yield block, parts
                parts, cols = [], 0
            parts.append(frontier)
            cols += frontier.shape[1]
            if width == free or block + 1 == 1 << high or count(block + 1) > node_cap:
                yield block + 1, parts
                parts, cols = [], 0

    none = np.empty((0, width), dtype=np.uint8)
    survivors = [none]  # per window: the rows of its surviving prefixes
    deep_nodes = deepest = 0  # deep_nodes: children tried below bit free
    for stop, parts in windows():
        frontier = np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0]
        parts.clear()  # joined: free the blocks' arrays while the window runs
        held = free + (width > free and frontier.shape[1] > 0)  # bits of the longest live prefix
        while frontier.shape[1] and held < width:
            if frontier.shape[1] <= NARROW:
                frontier, held = chains(frontier, held)
                break
            deep_nodes += 2 * frontier.shape[1]
            frontier = step(frontier, held)
            held += frontier.shape[1] > 0
        deepest = max(deepest, held)
        total = count(stop)
        if frontier.shape[1]:
            if first_only:
                return _unpack(frontier[:, :1], free, width), total, width
            survivors.append(_unpack(frontier, free, width))
        if total > node_cap:
            return none, total, None
    if mirror:
        survivors += [rows[::-1] ^ 1 for rows in reversed(survivors)]
        total *= 2
    return np.concatenate(survivors), total, deepest


@dataclass(frozen=True, slots=True)
class SeedAssignment:
    """chi restricted to [0, k + n0): candidate initial segment.

    A census is an array from :func:`enumerate_seeds`, not a list of these;
    ``SeedAssignment(k, n0, tuple(row))`` makes one from a row's ``tolist()``.
    """

    k: int
    n0: int
    values: tuple[int, ...]

    def __post_init__(self):
        _check_params(self.k, self.n0)
        if len(self.values) != self.k + self.n0:
            raise PreconditionError(
                f"seed must have length k + n0 = {self.k + self.n0}, got {len(self.values)}"
            )
        if not set(self.values) <= {0, 1}:
            raise PreconditionError("seed values must be 0 or 1")

    @classmethod
    def from_string(cls, k: int, n0: int, s: str) -> "SeedAssignment":
        """Parse a 0/1 string with character index equal to the integer index."""
        if any(c not in "01" for c in s):
            raise PreconditionError(f"seed string must contain only 0 and 1, got {s!r}")
        return cls(k, n0, tuple(int(c) for c in s))

    def bit_string(self) -> str:
        return "".join(map(str, self.values))

    def is_valid(self) -> bool:
        """Window identity at every n in [n0, k + n0): the n // k + 1
        solutions of a1 + k*a2 = n, a2 on [0, n // k] and a1 = n, n - k, ...,
        hold as many ones among their chi(a1) + chi(a2).  This is
        core.rep_difference at one n, in pure Python."""
        v, k = self.values, self.k
        return all(
            sum(v[: n // k + 1]) + sum(v[n::-k]) == n // k + 1 for n in range(self.n0, k + self.n0)
        )

    def value(self, n: int) -> int:
        """chi(n) of the flip-rule extension of this seed, for any integer n >= 0.

        Dividing by k d times brings n into the seed, and each division
        flips the bit: chi(n) = seed[n // k**d] xor (d & 1).  The least such
        d has n // width < k**d, for width = k + n0, so past the seed it is
        ilog(k, n // width) + 1 and the bit takes one division by k**d.
        Exact integers and no table, so n may be arbitrarily large.
        """
        if n < 0:
            raise DomainError(f"n must be nonnegative, got {n}")
        width = self.k + self.n0
        if n < width:
            return self.values[n]
        d = ilog(self.k, n // width) + 1
        return self.values[n // self.k**d] ^ (d & 1)


def enumerate_seeds(k: int, n0: int) -> np.ndarray:
    """All initial segments on [0, k + n0) satisfying the window identity,
    as a C-contiguous uint8 array with one seed per row, of shape
    (count, k + n0), rows in lexicographic order.

    The identity splits by residue class mod k.  Each n in [n0, k + n0) is
    the last member of its class c = n mod k inside the seed, so its a1
    terms are that whole class and its a2 terms the bits 0..q_c, for
    q_c = n // k: the identity at n holds exactly when class c holds
    q_c + 1 - S(q_c) ones, S(q) = chi(0) + ... + chi(q).  Every a2 is at
    most top = (k + n0 - 1) // k, so each pattern p of the bits 0..top,
    tried exhaustively and packed as a seed is (bit i at position 63 - i of
    a uint64), leaves class c needing
    t_c = q_c + 1 - popcount(p & a2 mask) - popcount(p & a1 mask) ones
    among its positions above top, and the seeds that p starts are every
    choice of them: the product of the classes' combinations.  Patterns
    with the same tuple (t_c) share that product, built once and sorted.
    The census is each pattern's product OR-ed with the pattern, joined in
    pattern order, and unpacked once.  Past the 2**(top + 1) patterns the
    work follows the number of seeds, not the 2**(k + n0) prefixes.

    The result is closed under bitwise complement, since flipping every bit
    leaves the two sides of the window identity equal.
    """
    _check_params(k, n0)
    width = k + n0
    if width > ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"k + n0 = {width} exceeds the enumeration cap {ENUMERATION_CAP}"
        )
    top = (width - 1) // k
    patterns = np.arange(1 << top + 1, dtype=np.uint64) << np.uint64(63 - top)
    # per class c: q_c = n // k for its last n, the masks of its a2 terms
    # (bits 0..q_c) and of its a1 terms at or below top, and the masks of
    # its positions above top, all as in a packed seed
    q = (n0 + (np.arange(k) - n0) % k) // k
    a2 = [sum(1 << 63 - i for i in range(j + 1)) for j in q.tolist()]
    a1 = [sum(1 << 63 - i for i in range(c, top + 1, k)) for c in range(k)]
    above = [[1 << 63 - i for i in range(c, width, k) if i > top] for c in range(k)]
    counts = np.bitwise_count(patterns & np.array([a2, a1], dtype=np.uint64)[..., None])
    need = (q + 1)[:, None] - counts[0] - counts[1]
    room = np.array([len(masks) for masks in above])
    ok = ((need >= 0) & (need <= room[:, None])).all(axis=0)
    groups: dict[tuple[int, ...], np.ndarray] = {}  # by (t_c): the sorted product
    parts = []
    for key in map(tuple, need[:, ok].T.tolist()):
        if key not in groups:
            tail = np.zeros(1, dtype=np.uint64)
            for masks, t in zip(above, key):
                picks = [sum(pick) for pick in itertools.combinations(masks, t)]
                tail = (tail[:, None] | np.array(picks, dtype=np.uint64)).ravel()
            groups[key] = np.sort(tail)
        parts.append(groups[key])
    seeds = np.concatenate([np.zeros(0, dtype=np.uint64), *parts])
    seeds |= np.repeat(patterns[ok], [len(part) for part in parts])
    if sys.byteorder == "little":
        seeds.byteswap(inplace=True)  # byte j holds bits 8j..8j + 7, as unpackbits reads
    return np.unpackbits(seeds.view(np.uint8).reshape(-1, 8), axis=1, count=width)


def _quotient_bits(bits: np.ndarray, d: int, lo: int, hi: int) -> np.ndarray:
    """bits[n // d] for n in [lo, hi] (lo <= hi), with no index array.

    A range that holds a whole quotient is the bits on [lo // d, hi // d],
    each repeated d times, cut to the range: then d <= hi - lo + 1, so the
    repeat is under three times the range.  A range within two quotients is
    filled directly, since d may be far longer than the range.
    """
    q0, q1 = lo // d, hi // d
    if q1 - q0 >= 2:
        return np.repeat(bits[q0 : q1 + 1], d)[lo - q0 * d : hi - q0 * d + 1]
    out = np.empty(hi - lo + 1, dtype=bits.dtype)
    split = (q0 + 1) * d - lo
    out[:split], out[split:] = bits[q0], bits[q1]
    return out


def check_extension(seed: SeedAssignment, limit: int, require_valid: bool = True) -> None:
    """The preconditions of :func:`extend_seed` to ``limit``: the prefix
    covers the seed window and, with ``require_valid``, the seed passes its
    window identity."""
    if limit < seed.k + seed.n0 - 1:
        raise PreconditionError(
            f"limit must cover the seed window [0, {seed.k + seed.n0 - 1}], got {limit}"
        )
    if require_valid and not seed.is_valid():
        raise InvalidSeed(f"seed {seed.bit_string()} fails the window identity")


def extend_seed(seed: SeedAssignment, limit: int, require_valid: bool = True) -> ChiTable:
    """Extend a seed to [0, limit] by the flip rule chi(n) = 1 - chi(n // k).

    The extension is total and deterministic; two extensions of the same
    seed agree on any common prefix.  With ``require_valid`` (the default)
    the seed must pass its window identity, so the result satisfies the
    partition identity everywhere it is defined.
    """
    check_extension(seed, limit, require_valid)
    width = seed.k + seed.n0
    bits = np.empty(limit + 1, dtype=np.uint8)
    bits[:width] = seed.values
    # fill in increasing order: floor(n / k) < n is always already defined
    lo = width
    while lo <= limit:
        hi = min(limit, seed.k * lo - 1)
        np.bitwise_xor(_quotient_bits(bits, seed.k, lo, hi), 1, out=bits[lo : hi + 1])
        lo = hi + 1
    bits.setflags(write=False)  # so that ChiTable takes it as it is
    return ChiTable(bits)


def _flip_mismatches(bits: np.ndarray, d: int, lo: int, odd: bool) -> np.ndarray:
    """Flags, for n in [lo, limit] of the table ``bits``, of the cells that
    break bits[n] = bits[n // d] xor odd: a cell must differ from its
    quotient's bit for odd powers of k and equal it for even ones."""
    cells, parents = bits[lo:], _quotient_bits(bits, d, lo, len(bits) - 1)
    return cells == parents if odd else cells != parents


class StructureReport(NamedTuple):
    """Outcome of checking the window identity and the flip rule."""

    window_violations: tuple[int, ...]
    flip_first_violation: int | None
    flip_violation_count: int

    @property
    def ok(self) -> bool:
        return not self.window_violations and self.flip_first_violation is None


def verify_structure(chi: ChiTable, k: int, n0: int) -> StructureReport:
    """Check condition (a) on the seed window and condition (b) on the whole
    table: the window identity at every n in [n0, k + n0) the table covers,
    and the flip rule at every n in [k + n0, limit]."""
    _check_params(k, n0)
    diff = rep_difference(chi, WeightPair(1, k), min(k + n0 - 1, chi.limit))
    window = (n0 + np.flatnonzero(diff[n0:])).tolist()
    flip_first = None
    flip_count = 0
    if chi.limit >= k + n0:
        bad = _flip_mismatches(chi.bits, k, k + n0, odd=True)
        flip_count = int(np.count_nonzero(bad))
        if flip_count:
            flip_first = k + n0 + int(bad.argmax())
    return StructureReport(
        window_violations=tuple(window),
        flip_first_violation=flip_first,
        flip_violation_count=flip_count,
    )


def verify_equality(chi: ChiTable, k: int, n0: int) -> np.ndarray:
    """D = R_{1,k}(A, n) - R_{1,k}(complement, n) for every n in [n0, limit]
    of the table, from :func:`repfn.core.rep_difference`, which counts no
    pairs: the identity holds exactly where D is 0."""
    _check_params(k, n0)
    if chi.limit < n0:
        raise PreconditionError(f"the table ends at {chi.limit}, below n0={n0}")
    return rep_difference(chi, WeightPair(1, k), chi.limit)[n0:]


def side_counts(chi: ChiTable, k: int, diff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R_A, R_C): R_{1,k} on the set and on the complement for the last
    len(diff) n of the table, given D = R_A - R_C there.  The counting
    kernel runs once, for R_A, and R_C = R_A - D is written over diff."""
    r_set = rep_values(chi, SET, WeightPair(1, k), chi.limit)[chi.limit + 1 - len(diff) :]
    return r_set, np.subtract(r_set, diff, out=diff)


class BlockParityReport(NamedTuple):
    """Outcome of checking chi on the blocks k**i * n + [0, k**i).

    Along any chain the flip rule forces chi to be constant on each block
    and to alternate with the parity of i, for every base n at or above
    :func:`chain_threshold`.  ``checked`` counts the cells k**i * n + j
    judged; the last block of each power may be cut at the table's limit.
    ``violations`` holds the first :data:`_MAX_STORED_VIOLATIONS` failing
    (n, i, j), by i and then by cell.
    """

    checked: int
    violation_count: int
    violations: tuple[tuple[int, int, int], ...]

    @property
    def ok(self) -> bool:
        return self.violation_count == 0


_MAX_STORED_VIOLATIONS = 100


def verify_block_parity(chi: ChiTable, k: int, n0: int, i_max: int) -> BlockParityReport:
    """Check the block parity relation for every i in [1, i_max].

    For each base n >= threshold and each j with k**i * n + j <= limit:
    chi(k**i * n + j) must equal chi(n) when i is even and 1 - chi(n) when
    i is odd.  Each power is one comparison of the table from its first
    judged cell k**i * threshold on; a power whose first judged cell is
    past the limit judges nothing.  The expected violation count on a
    table built from a valid seed is zero.
    """
    if i_max < 1:
        raise PreconditionError(f"i_max must be >= 1, got {i_max}")
    limit = chi.limit
    threshold = chain_threshold(k, n0)
    checked = violation_count = 0
    violations: list[tuple[int, int, int]] = []
    for i in range(1, i_max + 1):
        base = k**i
        lo = base * threshold
        if lo > limit:  # and so are the first cells of every higher power
            break
        bad = _flip_mismatches(chi.bits, base, lo, odd=bool(i & 1))
        count = int(np.count_nonzero(bad))
        checked += bad.size
        violation_count += count
        # the first mismatches, each found from the last: no index of them all
        at = 0
        for _ in range(min(count, _MAX_STORED_VIOLATIONS - len(violations))):
            at += int(bad[at:].argmax())
            n, j = divmod(lo + at, base)
            violations.append((n, i, j))
            at += 1
    return BlockParityReport(
        checked=checked,
        violation_count=violation_count,
        violations=tuple(violations),
    )
