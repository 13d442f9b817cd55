"""Exact representation-function arithmetic over finite prefixes of the naturals.

A :class:`ChiTable` stores the characteristic function chi of a set A of
nonnegative integers on a finite prefix [0, N].  Queries whose answer could
depend on unknown elements (n > N) are hard errors, never silent zeros.  The
complement is never stored: a count on it flips the table's bits into one
array for that call, so both sides of any identity share one source of
truth.

The weighted count for a weight pair (k1, k2) at target n is the number of
ordered pairs (a1, a2) with k1*a1 + k2*a2 = n and both coordinates on the
requested side.  Counts are exact integers throughout.  Both table kernels
write the increments of their count in the narrowest integer type whose
range the increments provably stay in (int8 for :func:`rep_difference`; for
:func:`rep_values` the least type holding plus and minus its run count),
then widen them to int64 once and sum them along residue classes; a count
never exceeds n + 1, so int64 holds every sum.  Every count comes back as a
plain int64 array indexed by n; laying arrays out as per-n tables is left
to :mod:`repfn.cli`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from ._numpy import np
from .errors import PreconditionError, QueryBeyondPrefix

SET = "set"
COMPLEMENT = "complement"
_SIDES = (SET, COMPLEMENT)


class ChiTable:
    """Characteristic function of a set on the prefix [0, limit], as a
    validated read-only 0/1 table.  The weight k and start n0 it is checked
    against are arguments of the verifiers, not part of the table.  A
    read-only uint8 array that owns its data is taken as it is; any other
    input is copied, so that no other holder can write the table."""

    __slots__ = ("_bits",)

    def __init__(self, bits):
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.flags.writeable or not arr.flags.owndata:
            arr = arr.copy()
        if arr.ndim != 1 or arr.size == 0:
            raise PreconditionError("bits must be a nonempty one-dimensional sequence")
        if arr.max() > 1:
            raise PreconditionError("bits must contain only 0 and 1")
        arr.setflags(write=False)
        self._bits = arr

    @property
    def limit(self) -> int:
        return self._bits.size - 1

    @property
    def bits(self) -> np.ndarray:
        """Read-only uint8 array; index n gives chi(n)."""
        return self._bits

    def side_bits(self, side: str, up_to: int | None = None) -> np.ndarray:
        """Indicator array of the chosen side on [0, up_to]: for the set a
        read-only view of the table, for the complement one new array."""
        if side not in _SIDES:
            raise PreconditionError(f"side must be one of {_SIDES}, got {side!r}")
        hi = self.limit if up_to is None else up_to
        if not 0 <= hi <= self.limit:
            raise QueryBeyondPrefix(f"up_to={hi} outside known prefix [0, {self.limit}]")
        view = self._bits[: hi + 1]
        return view if side == SET else view ^ 1


@dataclass(frozen=True)
class WeightPair:
    """Coefficients of the weighted equation n = k1*a1 + k2*a2."""

    k1: int
    k2: int

    def __post_init__(self):
        if self.k1 < 1 or self.k2 < 1:
            raise PreconditionError(f"weights must be positive, got ({self.k1}, {self.k2})")


def _class_prefix(inc: np.ndarray, p: int) -> np.ndarray:
    """F[x] = inc[x] + inc[x - p] + inc[x - 2p] + ...: prefix sums within
    each residue class mod p, as int64, for x in [0, inc.size).

    ``inc`` may be of any integer type; it is widened once, into an int64
    array padded to a whole number of rows of p, and the (q, r) grid of
    x = p*q + r is summed down its rows.  Every F here is at most x + 1 in
    absolute value, so int64 holds it.
    """
    f = np.zeros(-(-inc.size // p) * p, dtype=np.int64)
    f[: inc.size] = inc
    grid = f.reshape(-1, p)
    np.cumsum(grid, axis=0, out=grid)
    return f[: inc.size]


def rep_values(chi: ChiTable, side: str, w: WeightPair, up_to: int) -> np.ndarray:
    """Array of the weighted counts R_{k1,k2}(side, n) for n in [0, up_to].

    With v the side's indicator placed on multiples of k1, a run [s, e) of
    members a2 adds v[n - k2*x] for each x in the run, so R(n) - R(n - k2)
    is the sum over runs of the taps v[n - k2*s] - v[n - k2*e] (terms with
    a negative index are zero).  Each run's tap lies in {-1, 0, 1}, so the
    taps of r runs lie in [-r, r], at every partial sum too: they are added
    in the least signed type that holds -r - 1, two contiguous adds per
    run, and summed along the classes mod k2 by :func:`_class_prefix`.  A
    table built by the flip rule has only O((k + n0) * log N) runs on
    [0, N], so its taps are int8.
    """
    member = chi.side_bits(side, up_to)
    # the diff stays uint8 (a bare 0 would make it int64) and the edges come
    # from a bool mask: at up_to = 10**5, k2 = 2, 32 microseconds against 300
    zero = np.uint8(0)
    edges = np.flatnonzero(np.diff(member[: up_to // w.k2 + 1], prepend=zero, append=zero) != 0)
    kind = np.min_scalar_type(-(edges.size // 2) - 1)
    v = np.zeros(up_to + 1, dtype=kind)
    v[:: w.k1] = member[: up_to // w.k1 + 1]
    taps = np.zeros(up_to + 1, dtype=kind)
    for s, e in zip(edges[0::2].tolist(), edges[1::2].tolist()):
        start, stop = w.k2 * s, w.k2 * e
        taps[start:] += v[: up_to + 1 - start]
        if stop <= up_to:
            taps[stop:] -= v[: up_to + 1 - stop]
    return _class_prefix(taps, w.k2)


def rep_difference(chi: ChiTable, w: WeightPair, up_to: int) -> np.ndarray:
    """R_{k1,k2}(A, n) - R_{k1,k2}(complement, n) for n in [0, up_to], in
    O(up_to), for coprime k1 <= k2; chi must be known on [0, up_to // k1].

    Each solution of k1*a1 + k2*a2 = n adds chi(a1) + chi(a2) - 1.  Every
    a1 of n - k1*k2 is an a1 of n, which has one more: that of its solution
    with a2 < k1; likewise its one new a2 is that of its solution with
    a1 < k2.  So D(n) - D(n - k1*k2) is at most one term chi(a1) and one
    term chi(a2) - 1, in {-1, 0, 1}: int8 increments, summed along the
    classes mod k1*k2 by :func:`_class_prefix`.  At n = k2*j + k1*i with
    j < k1 the two solutions are (a1, a2) = (i, j) and
    (i % k2, k1*(i // k2) + j), so the increments are one strided slice per
    j: chi, plus ``np.repeat`` of chi on the class j mod k1, minus 1.  It
    counts no pairs, so it is an independent check on :func:`rep_values`.
    """
    k1, k2 = w.k1, w.k2
    if k1 > k2 or gcd(k1, k2) != 1:
        raise PreconditionError(f"identity requires coprime k1 <= k2, got ({k1}, {k2})")
    bits = chi.side_bits(SET, up_to // k1).view(np.int8)
    top = up_to // k2
    inc = np.zeros(up_to + 1, dtype=np.int8)
    for j in range(k1):
        part = inc[k2 * j :: k1]
        np.add(bits[: part.size], np.repeat(bits[j : top + 1 : k1], k2)[: part.size], out=part)
        part -= 1
    return _class_prefix(inc, k1 * k2)


def classic_rep(chi: ChiTable, side: str, up_to: int) -> np.ndarray:
    """Classic ordered count r1 at weight (1, 1) for n in [0, up_to]: the
    pairs a + a' = n with both elements on the chosen side.  Its halves r2
    and r3 come from :func:`classic_halves`."""
    return rep_values(chi, side, WeightPair(1, 1), up_to)


def classic_halves(r1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(r2, r3) from r1, or from any slice of it: r2 counts the pairs with
    a < a', r3 the pairs with a <= a'.  The pairs with a != a' come in
    swapped pairs, so r1 is odd exactly when a = a' = n/2 is on the side:
    r2 = r1 // 2 and r3 = r1 - r2."""
    r2 = r1 >> 1
    return r2, r1 - r2
