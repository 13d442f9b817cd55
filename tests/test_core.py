import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repfn import (
    COMPLEMENT,
    SET,
    ChiTable,
    PreconditionError,
    QueryBeyondPrefix,
    WeightPair,
    classic_halves,
    classic_rep,
    rep_difference,
    rep_values,
)
from oracles import classic_counts, pair_grid_rep_values, rep_count_weighted, sieve_rep_values


def brute_count(bits, k1, k2, n, side=SET):
    """Oracle: full double loop over all (a1, a2) pairs."""
    target = 1 if side == SET else 0
    count = 0
    for a1 in range(n + 1):
        for a2 in range(n + 1):
            if k1 * a1 + k2 * a2 != n:
                continue
            if bits[a1] == target and bits[a2] == target:
                count += 1
    return count


def random_table(rng, limit):
    bits = (rng.random(limit + 1) < rng.uniform(0.15, 0.85)).astype(int)
    return ChiTable(bits)


# ---------------------------------------------------------------- ChiTable

def test_chi_table_validation():
    with pytest.raises(PreconditionError):
        ChiTable([0, 1, 2])
    with pytest.raises(PreconditionError):
        ChiTable([])


def test_chi_table_keeps_no_array_another_holder_can_write():
    """Writing to the caller's writable array, or to the writable base of a
    read-only view, after ChiTable is made leaves the table unchanged."""
    bits = np.array([0, 1, 1, 0], dtype=np.uint8)
    chi = ChiTable(bits)
    view = bits[:]
    view.setflags(write=False)
    from_view = ChiTable(view)
    bits[:] = 1
    assert chi.bits.tolist() == from_view.bits.tolist() == [0, 1, 1, 0]
    assert not chi.bits.flags.writeable and not from_view.bits.flags.writeable


def test_chi_table_prefix_is_hard_boundary():
    chi = ChiTable([0, 1, 1])
    assert chi.limit == 2
    with pytest.raises(QueryBeyondPrefix):
        rep_values(chi, SET, WeightPair(1, 2), 3)


def test_complement_is_a_flipped_view():
    chi = ChiTable([0, 1, 1, 0])
    assert chi.side_bits(COMPLEMENT).tolist() == [1, 0, 0, 1]
    assert chi.side_bits(COMPLEMENT).dtype == np.uint8
    assert chi.side_bits(COMPLEMENT)[0] == 1
    assert chi.side_bits(SET, 3).sum() == 2
    assert chi.side_bits(COMPLEMENT, 3).sum() == 2


def test_weight_pair_validation():
    with pytest.raises(PreconditionError):
        WeightPair(0, 2)
    with pytest.raises(PreconditionError):
        WeightPair(1, 0)


# ------------------------------------------------------- weighted counting

def test_rep_count_all_ones():
    chi = ChiTable(np.ones(101, dtype=int))
    # a2 ranges over {0, 1, 2}, a1 is forced
    assert rep_count_weighted(chi, SET, WeightPair(1, 2), 5) == 3
    assert rep_count_weighted(chi, COMPLEMENT, WeightPair(1, 2), 5) == 0


def test_rep_count_all_zeros():
    chi = ChiTable(np.zeros(51, dtype=int))
    assert rep_count_weighted(chi, SET, WeightPair(1, 2), 10) == 0
    # the complement is everything, so the count is the full solution count
    assert rep_count_weighted(chi, COMPLEMENT, WeightPair(1, 2), 10) == 6


def test_rep_count_hand_enumeration():
    # A = {0, 1, 2, 3} on [0, 4]: pairs for n=4 are (0,2) and (2,1); (4,0) misses
    chi = ChiTable([1, 1, 1, 1, 0])
    assert rep_count_weighted(chi, SET, WeightPair(1, 2), 4) == 2


def test_rep_table_all_ones():
    chi = ChiTable(np.ones(7, dtype=int))
    assert rep_values(chi, SET, WeightPair(1, 2), 6).tolist() == [1, 1, 2, 2, 3, 3, 4]


def test_rep_table_all_zeros_side_set():
    chi = ChiTable(np.zeros(11, dtype=int))
    assert rep_values(chi, SET, WeightPair(2, 3), 10).tolist() == [0] * 11


def test_rep_table_beyond_prefix():
    chi = ChiTable([1, 1, 1])
    for up_to in (3, -1):
        with pytest.raises(QueryBeyondPrefix, match=rf"^up_to={up_to} outside known prefix \[0, 2\]$"):
            rep_values(chi, SET, WeightPair(1, 2), up_to)


def test_rep_table_bad_side():
    chi = ChiTable([1, 1, 1])
    message = r"^side must be one of \('set', 'complement'\), got 'r4'$"
    # the side is judged before the range, as one call checks both
    for up_to in (2, 3):
        with pytest.raises(PreconditionError, match=message):
            rep_values(chi, "r4", WeightPair(1, 2), up_to)


def test_rep_table_matches_naive_counter(rng):
    for _ in range(10):
        chi = random_table(rng, 60)
        w = WeightPair(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        side = SET if rng.random() < 0.5 else COMPLEMENT
        values = rep_values(chi, side, w, 60)
        for n in range(61):
            assert values[n] == rep_count_weighted(chi, side, w, n)
            assert values[n] == brute_count(chi.bits, w.k1, w.k2, n, side)


def _edge_tables(k2: int) -> list[tuple[str, np.ndarray, int]]:
    """(label, bits, up_to) for the boundary cases of the kernel."""
    rng = np.random.default_rng(1000 + k2)
    mixed = (rng.random(41) < 0.5).astype(np.uint8)
    return [
        ("up_to=0", mixed, 0),
        ("up_to<k2", mixed, k2 - 1),
        ("all zero", np.zeros(41, dtype=np.uint8), 40),
        ("all one", np.ones(41, dtype=np.uint8), 40),
        ("single run", np.r_[np.zeros(7), np.ones(9), np.zeros(25)].astype(np.uint8), 40),
        ("mixed", mixed, 40),
    ]


def _wrap_table(k2: int, runs: int) -> tuple[np.ndarray, int]:
    """(bits, n) for k1 = 1 where the kernel's taps R(m) - R(m - k2) are
    +runs at m = n and -runs at m = n + k2, the table's last index.

    The members a2 <= (n + k2) // k2 are the even a2 < 2*runs, each a run
    of one; at k2 = 1 these alternating bits are the whole table.  Above
    them, for k2 > 1, the bits have period 2*k2: set at every
    a1 = n - 2*k2*i and clear at every n - k2 - 2*k2*i, and n is large
    enough that each of these a1 lies above every a2.
    """
    n = 2 * runs - 2 if k2 == 1 else k2 * (2 * runs * k2 // (k2 - 1) + 2)
    top = (n + k2) // k2
    bits = np.zeros(n + k2 + 1, dtype=np.uint8)
    bits[: 2 * runs : 2] = 1
    bits[top + 1 :] = (n - np.arange(top + 1, n + k2 + 1)) % (2 * k2) < k2
    return bits, n


# run counts at the edges of int8 and int16, the types the kernel's taps take
WRAP_RUNS = (127, 128, 32767, 32768)


@pytest.mark.parametrize("k2", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("k1", [1, 2, 3])
def test_kernel_matches_oracles_on_edge_cases(k1, k2):
    """Kernel vs strided sieve vs pair grid; all-zero on SET and all-one on
    COMPLEMENT are the empty-side cases.  At k1 = 1 the kernel also meets
    the naive counter where its taps reach plus and minus the run count,
    which the type of the taps must hold: 127 and 128 runs at every k2,
    32767 and 32768 at k2 = 1 (a table of 2**16 bits; at k2 > 1 one of
    that many runs costs several seconds)."""
    w = WeightPair(k1, k2)
    for label, bits, up_to in _edge_tables(k2):
        chi = ChiTable(bits)
        for side in (SET, COMPLEMENT):
            values = rep_values(chi, side, w, up_to)
            assert values.dtype == np.int64 and values.size == up_to + 1
            assert values.tolist() == sieve_rep_values(bits, side, w, up_to).tolist(), (label, side)
            assert values.tolist() == pair_grid_rep_values(bits, side, w, up_to).tolist(), (label, side)
            # at most one solution per admissible a1 and per admissible a2
            ns = np.arange(up_to + 1)
            assert (values <= ns // max(w.k1, w.k2) + 1).all(), (label, side)
    if k1 > 1:
        return
    for runs in WRAP_RUNS if k2 == 1 else WRAP_RUNS[:2]:
        bits, n = _wrap_table(k2, runs)
        chi = ChiTable(bits)
        at = [n - k2, n, n + k2]
        naive = [rep_count_weighted(chi, SET, w, m) for m in at]
        assert (naive[1] - naive[0], naive[2] - naive[1]) == (runs, -runs)
        assert rep_values(chi, SET, w, n + k2)[at].tolist() == naive, runs


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    k1=st.integers(1, 3),
    k2=st.integers(1, 3),
)
def test_sieve_naive_agreement_property(data, k1, k2):
    limit = data.draw(st.integers(5, 40))
    bits = data.draw(st.lists(st.integers(0, 1), min_size=limit + 1, max_size=limit + 1))
    chi = ChiTable(bits)
    w = WeightPair(k1, k2)
    values = rep_values(chi, SET, w, limit)
    n = data.draw(st.integers(0, limit))
    assert values[n] == brute_count(bits, k1, k2, n)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_monotone_bound_property(data):
    limit = data.draw(st.integers(1, 50))
    bits = data.draw(st.lists(st.integers(0, 1), min_size=limit + 1, max_size=limit + 1))
    k2 = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(0, limit))
    chi = ChiTable(bits)
    assert rep_count_weighted(chi, SET, WeightPair(1, k2), n) <= n // k2 + 1


# ----------------------------------------------------------- classic counts

def test_classic_rep_hand_values():
    # A = {1, 2, 3} on [0, 4]
    chi = ChiTable([0, 1, 1, 1, 0])
    r1 = classic_rep(chi, SET, 4)
    r2, r3 = classic_halves(r1)
    assert r1[4] == 3  # (1,3), (3,1), (2,2)
    assert r2[4] == 1  # (1,3)
    assert r3[4] == 2  # (1,3), (2,2)


def test_classic_rep_bad_side():
    chi = ChiTable([1, 1])
    with pytest.raises(PreconditionError):
        classic_rep(chi, "r4", 1)
    with pytest.raises(QueryBeyondPrefix):
        classic_rep(chi, SET, 2)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_ordered_pair_symmetry(data):
    """Weight (1, 1) counting coincides with the classic ordered count."""
    limit = data.draw(st.integers(1, 40))
    bits = data.draw(st.lists(st.integers(0, 1), min_size=limit + 1, max_size=limit + 1))
    n = data.draw(st.integers(0, limit))
    chi = ChiTable(bits)
    for side in (SET, COMPLEMENT):
        assert rep_count_weighted(chi, side, WeightPair(1, 1), n) == classic_rep(chi, side, n)[n]


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_classic_variant_relations(data):
    """Every entry of r1/r2/r3 equals a direct recount of the pairs a <= a',
    and r1 = 2*r2 + [n even and n/2 on side], r3 = r2 + that same indicator."""
    limit = data.draw(st.integers(0, 40))
    bits = data.draw(st.lists(st.integers(0, 1), min_size=limit + 1, max_size=limit + 1))
    chi = ChiTable(bits)
    for side in (SET, COMPLEMENT):
        ordered = classic_rep(chi, side, limit)
        counts = (ordered, *classic_halves(ordered))
        for n in range(limit + 1):
            r1, r2, r3 = classic_counts(bits, side, n)
            assert tuple(int(c[n]) for c in counts) == (r1, r2, r3)
            diag = 1 if n % 2 == 0 and chi.side_bits(side)[n // 2] == 1 else 0
            assert r1 == 2 * r2 + diag and r3 == r2 + diag


# ------------------------------------------------------ difference identity

def test_total_identity_examples():
    """R_A - R_C from the linear identity, on tables with a known answer."""
    chi = ChiTable(np.ones(101, dtype=int))
    for k2 in (2, 3):
        # the complement is empty, so the difference is the solution count
        assert rep_difference(chi, WeightPair(1, k2), 100).tolist() == [n // k2 + 1 for n in range(101)]
    # A = {1, 2}, solutions (a1, a2) of a1 + 2*a2 = n: n=0 has (0,0) in C x C;
    # n=3 has (3,0) in C x C and (1,1) in A x A; n=4 has (4,0) in C x C,
    # (2,1) in A x A and the mixed (0,2); n=1 and n=2 have mixed pairs only
    chi = ChiTable([0, 1, 1, 0, 0])
    assert rep_difference(chi, WeightPair(1, 2), 4).tolist() == [-1, 0, 0, 0, 0]


def test_total_identity_requires_coprime_k1_at_most_k2():
    chi = ChiTable([1, 1, 1])
    with pytest.raises(PreconditionError):
        rep_difference(chi, WeightPair(3, 2), 2)  # k1 > k2
    with pytest.raises(PreconditionError):
        rep_difference(chi, WeightPair(2, 4), 2)  # gcd = 2
    with pytest.raises(QueryBeyondPrefix):
        rep_difference(chi, WeightPair(1, 3), 3)


COPRIME_WEIGHTS = [
    (k1, k2) for k2 in range(1, 10) for k1 in range(1, k2 + 1) if math.gcd(k1, k2) == 1
]


@pytest.mark.parametrize("k1,k2", [*COPRIME_WEIGHTS, (1, 97)])
def test_total_identity_matches_pair_grid_at_coprime_weights(k1, k2, rng):
    """On random tables of ``size`` bits, D = R_A - R_C equals the pair-grid
    difference at every up_to the table decides, [0, k1*size - 1]; one more
    n needs a bit the table does not hold.  The largest table reaches past
    k1*k2 + 1, so up_to in {0, 1, k1*k2 - 1, k1*k2, k1*k2 + 1}, where the
    kernel's increments first repeat along the classes mod k1*k2, is
    always among them."""
    w = WeightPair(k1, k2)
    for size in (1, 2, 5, max(23, k2 + 2)):
        chi = random_table(rng, size - 1)
        bits = chi.bits
        for up_to in range(k1 * size):
            expected = pair_grid_rep_values(bits, SET, w, up_to) - pair_grid_rep_values(
                bits, COMPLEMENT, w, up_to
            )
            assert rep_difference(chi, w, up_to).tolist() == expected.tolist(), (size, up_to)
        with pytest.raises(QueryBeyondPrefix):
            rep_difference(chi, w, k1 * size)


def test_total_identity_randomized_with_brute_recount(rng):
    """1000 random (table, n) trials: the difference identity against a
    direct recount of the A x A and C x C solutions."""
    tables = [random_table(rng, 500) for _ in range(10)]
    diffs = {}
    for _ in range(1000):
        t = int(rng.integers(0, len(tables)))
        chi = tables[t]
        n = int(rng.integers(0, 501))
        k2 = int(rng.integers(1, 5))
        if (t, k2) not in diffs:
            diffs[t, k2] = rep_difference(chi, WeightPair(1, k2), 500)
        both_in = both_out = 0
        for a2 in range(n // k2 + 1):
            b1 = int(chi.bits[n - k2 * a2])
            b2 = int(chi.bits[a2])
            both_in += b1 & b2
            both_out += (1 - b1) & (1 - b2)
        assert diffs[t, k2][n] == both_in - both_out, (t, k2, n)


def test_difference_identity_catches_corrupted_kernel(rng):
    """The identity is an independent route: one wrong kernel entry shows."""
    chi = random_table(rng, 3000)
    w = WeightPair(1, 3)
    diff = rep_difference(chi, w, 3000)
    values = rep_values(chi, SET, w, 3000)
    assert (values - rep_values(chi, COMPLEMENT, w, 3000) == diff).all()
    values[1234] += 1
    mismatch = np.flatnonzero(values - rep_values(chi, COMPLEMENT, w, 3000) != diff)
    assert mismatch.tolist() == [1234]
