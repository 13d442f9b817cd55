"""Exact representation-function arithmetic over finite prefixes of the naturals.

A :class:`ChiTable` stores the characteristic function chi of a set A of
nonnegative integers on a finite prefix [0, N].  Queries whose answer could
depend on unknown elements (n > N) are hard errors, never silent zeros.  The
complement is never stored: a count on it flips the table's bits into one
array for that call, so both sides of any identity share one source of
truth.

The weighted count for a weight pair (k1, k2) at target n is the number of
ordered pairs (a1, a2) with k1*a1 + k2*a2 = n and both coordinates on the
requested side.  Counts are exact integers throughout: tables use int64
accumulation (counts never exceed n, so 64 bits is ample).  Every count
comes back as a plain array indexed by n; laying arrays out as per-n tables
is left to :mod:`repfn.cli`.
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


def _class_prefix(u: np.ndarray, k: int, size: int, step: int = 1) -> np.ndarray:
    """F[x] = v[x] + v[x - k] + v[x - 2k] + ...: prefix sums within each
    residue class mod k of v, where v[step*i] = u[i] and v is 0 elsewhere.

    Returned for x in [0, size) padded to a whole number of rows of k, so
    ``reshape(-1, k)`` gives the (q, r) grid of x = k*q + r.
    """
    f = np.zeros(-(-size // k) * k, dtype=np.int64)
    f[: step * u.size : step] = u
    grid = f.reshape(-1, k)
    np.cumsum(grid, axis=0, out=grid)
    return f


def rep_values(chi: ChiTable, side: str, w: WeightPair, up_to: int) -> np.ndarray:
    """Array of the weighted counts R_{k1,k2}(side, n) for n in [0, up_to].

    With u the side's indicator placed on multiples of k1 and F its prefix
    sums along each residue class mod k2, a run [s, e) of members a2
    contributes F[n - k2*s] - F[n - k2*e] to R(n) (terms with a negative
    index are zero).  The cost is one pair of contiguous adds per run, and a
    table built by the flip rule has only O((k + n0) * log N) runs on [0, N].
    """
    member = chi.side_bits(side, up_to)
    f = _class_prefix(member[: up_to // w.k1 + 1], w.k2, up_to + 1, w.k1)
    edges = np.flatnonzero(np.diff(member[: up_to // w.k2 + 1], prepend=0, append=0))
    values = np.zeros(up_to + 1, dtype=np.int64)
    for s, e in zip(edges[0::2].tolist(), edges[1::2].tolist()):
        start, stop = w.k2 * s, w.k2 * e
        values[start:] += f[: up_to + 1 - start]
        if stop <= up_to:
            values[stop:] -= f[: up_to + 1 - stop]
    return values


def rep_difference(chi: ChiTable, w: WeightPair, up_to: int) -> np.ndarray:
    """R_{k1,k2}(A, n) - R_{k1,k2}(complement, n) for n in [0, up_to], in
    O(up_to), for coprime k1 <= k2; chi must be known on [0, up_to // k1].

    Each solution of k1*a1 + k2*a2 = n adds chi(a1) + chi(a2) - 1.  The a1
    term is chi on the multiples of k1 summed along n's class mod k2, as in
    :func:`rep_values`.  For n = k2*q + r the a2 are the x <= q in one class
    mod k1, the largest being q - s with s = -r * k2**-1 mod k1, so the a2
    term is P(q - s) for P the prefix sums of chi - 1 along the classes mod
    k1: one shifted add per class of the columns r mod k1.  It counts no
    pairs, so it is an independent check on :func:`rep_values`.
    """
    k1, k2 = w.k1, w.k2
    if k1 > k2 or gcd(k1, k2) != 1:
        raise PreconditionError(f"identity requires coprime k1 <= k2, got ({k1}, {k2})")
    bits = chi.side_bits(SET, up_to // k1)
    top = up_to // k2
    # the a2 term's int8 temporaries are freed before the a1 term is allocated
    per_q = _class_prefix(bits[: top + 1].astype(np.int8) - 1, k1, top + 1)
    diff = _class_prefix(bits, k2, up_to + 1, k1)
    grid = diff.reshape(-1, k2)
    inverse = pow(k2, -1, k1)
    for r0 in range(k1):
        cols = grid[-r0 * inverse % k1 :, r0::k1]  # rows q >= s
        cols += per_q[: len(cols), None]
    return diff[: up_to + 1]


def classic_rep(chi: ChiTable, side: str, up_to: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classic two-term counts (r1, r2, r3) at weight (1, 1) for n in [0, up_to].

    r1 counts ordered pairs a + a' = n, r2 the pairs with a < a', r3 the
    pairs with a <= a'; both elements must lie on the chosen side.  The
    pairs with a != a' come in swapped pairs, so r1 is odd exactly when
    a = a' = n/2 is on the side: r2 = r1 // 2 and r3 = r1 - r2.
    """
    r1 = rep_values(chi, side, WeightPair(1, 1), up_to)
    r2 = r1 >> 1
    return r1, r2, r1 - r2
