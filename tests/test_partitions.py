import random
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repfn import (
    COMPLEMENT,
    SET,
    ChiTable,
    DomainError,
    ENUMERATION_CAP,
    EnumerationCapExceeded,
    InvalidSeed,
    PreconditionError,
    SeedAssignment,
    WeightPair,
    chain_threshold,
    enumerate_seeds,
    extend_seed,
    prefix_search,
    rep_difference,
    rep_values,
    side_counts,
    verify_block_parity,
    verify_equality,
    verify_structure,
)
from repfn.partitions import _quotient_bits
from oracles import (
    block_parity_loop,
    chi_recursive,
    flip_rule_loop,
    pair_grid_rep_values,
    rep_count_weighted,
    solution_slices,
    window_identity_loop,
)

# weights (1, k) of seed enumeration and coprime k2 > k1 >= 2 of the
# nonexistence search
ORACLE_WEIGHTS = [(1, 2), (1, 3), (1, 5), (2, 3), (2, 5), (3, 4), (3, 5)]


def census_strings(k, n0):
    """enumerate_seeds(k, n0) as bit strings, one per row."""
    return ["".join(map(str, row)) for row in enumerate_seeds(k, n0).tolist()]


def oracle_seeds(k, n0):
    """Independent exhaustive oracle: check the window identity literally."""
    return [
        "".join(map(str, cand))
        for cand in product((0, 1), repeat=k + n0)
        if all(window_identity_loop(cand, k, n) for n in range(n0, k + n0))
    ]


# -------------------------------------------------------------- seed window

def test_seed_validation():
    with pytest.raises(PreconditionError):
        SeedAssignment(2, 1, (0, 1))  # wrong length
    with pytest.raises(PreconditionError):
        SeedAssignment(2, 1, (0, 1, 2))
    with pytest.raises(PreconditionError):
        SeedAssignment.from_string(2, 1, "0a1")


def test_seed_census_k2_n01():
    seeds = enumerate_seeds(2, 1).tolist()
    assert census_strings(2, 1) == ["011", "100"] == oracle_seeds(2, 1)
    assert seeds == sorted(seeds)
    # the two seeds are bitwise complements of each other
    assert seeds[1] == [1 - v for v in seeds[0]]


@pytest.mark.parametrize("k,n0", list(product((2, 3, 4, 5), (0, 1, 2))))
def test_seed_census_matches_oracle(k, n0):
    assert census_strings(k, n0) == oracle_seeds(k, n0)


@pytest.mark.parametrize("k,n0", list(product((2, 3, 4, 5), (0, 1, 2))))
def test_seed_census_complement_closed(k, n0):
    strings = set(census_strings(k, n0))
    assert {s.translate(str.maketrans("01", "10")) for s in strings} == strings


def test_window_check_matches_loop_oracle():
    """verify_structure's window violations and SeedAssignment.is_valid agree
    with the literal per-n loops on every bit string of width k + n0 <= 8, on
    every table that ends in [0, k + n0], including before n0.  Up to
    k + n0 - 1 the flip range is empty; at k + n0 it is the one cell k + n0,
    tried with both bits."""
    for k in range(2, 9):
        for n0 in range(0, 9 - k):
            width = k + n0
            for cand in product((0, 1), repeat=width):
                bad = [n for n in range(n0, width) if not window_identity_loop(cand, k, n)]
                assert SeedAssignment(k, n0, cand).is_valid() == (not bad), (k, n0, cand)
                tables = [cand[: up_to + 1] for up_to in range(width)] + [cand + (0,), cand + (1,)]
                for bits in tables:
                    expected = tuple(n for n in bad if n < len(bits))
                    chi = ChiTable(bits)
                    report = verify_structure(chi, k, n0)
                    assert report.window_violations == expected, (k, n0, bits)
                    flip = (report.flip_first_violation, report.flip_violation_count)
                    assert flip == flip_rule_loop(chi, k, n0), (k, n0, bits)


@pytest.mark.parametrize("k1,k2", ORACLE_WEIGHTS)
def test_window_identity_matches_naive_counter(k1, k2):
    """On every bit string of width <= 10 and every n it decides, including n
    with no solution, the slice form of the identity agrees with counting
    both sides pair by pair."""
    w = WeightPair(k1, k2)
    for width in range(1, 11):
        for cand in product((0, 1), repeat=width):
            # the counter rejects n beyond its table; the padding is never read
            chi = ChiTable(cand + (0,) * (k1 - 1) * width)
            for n in range(k1 * width):
                r_set = rep_count_weighted(chi, SET, w, n)
                r_comp = rep_count_weighted(chi, COMPLEMENT, w, n)
                s2, s1, c = solution_slices(w, n)
                holds = sum(cand[s2]) + sum(cand[s1]) == c
                assert holds == (r_set == r_comp), (w, cand, n)


@pytest.mark.parametrize("k1,k2", ORACLE_WEIGHTS)
def test_prefix_search_matches_brute_force(k1, k2):
    """prefix_search keeps exactly the strings, in lexicographic order, whose
    pair-grid counts agree on both sides at every n in [n0, k1 * width)."""
    w = WeightPair(k1, k2)
    for width in range(1, 13):
        strings = list(product((0, 1), repeat=width))
        diffs = [
            pair_grid_rep_values(np.array(cand), SET, w, k1 * width - 1)
            - pair_grid_rep_values(np.array(cand), COMPLEMENT, w, k1 * width - 1)
            for cand in strings
        ]
        for n0 in (0, 1, 3):
            expected = [cand for cand, d in zip(strings, diffs) if not d[n0:].any()]
            got = prefix_search(w, n0, width)[0]
            assert [tuple(r) for r in got.tolist()] == expected, (w, n0, width)


def test_census_equals_prefix_search():
    """The census built from its residue classes lists the survivors of the
    prefix search at weights (1, k), row for row, in the same layout, at all
    276 (k, n0) with k + n0 up to the cap, empty censuses included."""
    cases = [(k, n0) for k in range(2, ENUMERATION_CAP + 1) for n0 in range(ENUMERATION_CAP + 1 - k)]
    assert len(cases) == 276
    for k, n0 in cases:
        got = enumerate_seeds(k, n0)
        expected = prefix_search(WeightPair(1, k), n0, k + n0)[0]
        assert got.dtype == np.uint8 and got.flags.c_contiguous, (k, n0)
        assert got.shape == expected.shape and np.array_equal(got, expected), (k, n0)


def test_largest_census_rows_are_valid_seeds():
    """Each of the 379,494 rows at k = 2, n0 = 22 passes the window identity
    as SeedAssignment.is_valid reads it, in pure Python, and no row repeats."""
    seeds = enumerate_seeds(2, 22)
    assert seeds.shape == (379_494, 24)
    rows = seeds.tolist()
    assert all(SeedAssignment(2, 22, tuple(row)).is_valid() for row in rows)
    assert len(set(map(tuple, rows))) == len(rows)


@pytest.mark.parametrize("k, n0, count", [(3, 21, 139_358), (2, 22, 379_494)])
def test_census_memory_is_one_byte_per_bit(k, n0, count):
    """The census takes one byte per bit, and building it peaks at most
    8 bytes per seed (its packed uint64 form) and 1 MiB above that, in
    traced allocations."""
    tracemalloc.start()
    try:
        seeds = enumerate_seeds(k, n0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seeds.shape == (count, k + n0) and seeds.nbytes == count * (k + n0)
    assert peak <= seeds.nbytes + 8 * count + 2**20, peak


def test_enumeration_cap():
    with pytest.raises(EnumerationCapExceeded):
        enumerate_seeds(2, 30)
    with pytest.raises(PreconditionError):
        enumerate_seeds(1, 0)


# ---------------------------------------------------------------- extension

def test_extend_matches_hand_table(seed011):
    chi = extend_seed(seed011, 10)
    assert chi.bits.tolist() == [0, 1, 1, 0, 0, 0, 1, 1, 1, 1, 1]
    # membership view: A on [0, 10] is {1, 2, 6, 7, 8, 9, 10}
    assert [n for n in range(11) if chi.bits[n]] == [1, 2, 6, 7, 8, 9, 10]


def test_extend_commutes_with_complement(seed011):
    comp = extend_seed(SeedAssignment(2, 1, tuple(1 - v for v in seed011.values)), 10)
    chi = extend_seed(seed011, 10)
    assert (comp.bits == 1 - chi.bits).all()


def test_extend_rejects_invalid_seed():
    bad = SeedAssignment.from_string(2, 1, "010")
    assert not bad.is_valid()
    with pytest.raises(InvalidSeed):
        extend_seed(bad, 100)


def test_extensions_agree_on_common_prefix(seed011):
    short = extend_seed(seed011, 500)
    long = extend_seed(seed011, 5000)
    assert (long.bits[:501] == short.bits).all()


def test_extend_seed_hands_its_array_to_the_table(seed011):
    """extend_seed(10**6) peaks at most 1.5 bytes per n of traced
    allocations: the table, which ChiTable takes without a copy, and the
    quotient bits of its last range; no copy and no 0/1 mask of it."""
    limit = 10**6
    tracemalloc.start()
    try:
        chi = extend_seed(seed011, limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not chi.bits.flags.writeable and chi.limit == limit
    assert peak <= 1.5 * limit, peak


@settings(max_examples=40, deadline=None)
@given(k=st.integers(2, 5), n0=st.integers(0, 3), data=st.data())
def test_extension_satisfies_flip_rule(k, n0, data):
    seeds = enumerate_seeds(k, n0).tolist()
    if not seeds:
        return
    seed = SeedAssignment(k, n0, tuple(seeds[data.draw(st.integers(0, len(seeds) - 1))]))
    limit = data.draw(st.integers(k + n0, 600))
    chi = extend_seed(seed, limit)
    for n in range(k + n0, limit + 1):
        assert chi.bits[n] + chi.bits[n // k] == 1


# the benchmark's three valid seeds, a second (k, n0) = (2, 2) seed, and the
# corrupted 01111, whose extension is still defined
VALUE_SEEDS = [(2, 1, "011"), (3, 2, "01110"), (5, 3, "01011101"), (2, 2, "0110"), (3, 2, "01111")]


@pytest.mark.parametrize("k, n0, s", VALUE_SEEDS)
def test_seed_value_matches_extension(k, n0, s):
    seed = SeedAssignment.from_string(k, n0, s)
    bits = extend_seed(seed, 2 * 10**5, require_valid=False).bits.tolist()
    assert [seed.value(n) for n in range(2 * 10**5 + 1)] == bits


@pytest.mark.parametrize("k, n0, s", VALUE_SEEDS)
def test_seed_value_flip_rule_up_to_ten_to_the_hundred(k, n0, s):
    """1000 n drawn log-uniformly up to 10**1000: the flip rule holds and the
    recursive oracle agrees."""
    seed = SeedAssignment.from_string(k, n0, s)
    rng = random.Random(20261018)
    for _ in range(1000):
        n = rng.randrange(k + n0, 10 ** rng.randint(1, 1000) + 1)
        assert seed.value(n) == 1 - seed.value(n // k) == chi_recursive(s, k, n0, n), n


def test_seed_value_rejects_negative(seed011):
    for n in (-1, -3, -(10**100)):
        with pytest.raises(DomainError):
            seed011.value(n)


# ---------------------------------------------------------------- verifiers

def test_verify_structure_passes_on_built_table(chi_small):
    assert verify_structure(chi_small, 2, 1).ok


def test_verify_structure_detects_flip(seed011):
    chi = extend_seed(seed011, 200)
    bits = chi.bits.copy()
    bits[50] ^= 1
    broken = ChiTable(bits)
    report = verify_structure(broken, 2, 1)
    assert not report.ok
    # the flip breaks the rule at n=50 and at its children 100 and 101
    assert (report.flip_first_violation, report.flip_violation_count) == flip_rule_loop(broken, 2, 1)
    assert report.flip_first_violation == 50


def _flip_tables(k: int, n0: int):
    """(chi, label) pairs on [0, 8k + n0 + 5]: random bits, and the
    extension of a random seed with a few corrupted bits."""
    rng = np.random.default_rng(100 * k + n0)
    limit = 8 * k + n0 + 5
    yield ChiTable((rng.random(limit + 1) < 0.5).astype(np.uint8)), "random"
    seed = SeedAssignment(k, n0, tuple(rng.integers(0, 2, size=k + n0).tolist()))
    for flips in (1, 3):
        bits = extend_seed(seed, limit, require_valid=False).bits.copy()
        bits[rng.integers(0, limit + 1, size=flips)] ^= 1
        yield ChiTable(bits), f"{flips} corrupted"


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("n0", [0, 1, 2, 3])
def test_flip_check_matches_loop_oracle(k, n0):
    """The flip check's first violation and count equal the per-n loop's
    on tables ending at every limit: every residue mod k, and below k + n0,
    where no n is checked."""
    for table, label in _flip_tables(k, n0):
        for up_to in range(table.limit + 1):
            chi = ChiTable(table.bits[: up_to + 1])
            report = verify_structure(chi, k, n0)
            got = (report.flip_first_violation, report.flip_violation_count)
            assert got == flip_rule_loop(chi, k, n0), (label, up_to)


def test_verify_structure_all_ones():
    chi = ChiTable(np.ones(101, dtype=int))
    report = verify_structure(chi, 2, 1)
    assert not report.ok
    assert report.flip_first_violation == 3


def test_verify_equality_hand_value(chi_small):
    chi = ChiTable(chi_small.bits[:21])
    diff = verify_equality(chi, 2, 1)
    assert not diff.any()
    r_set, r_comp = side_counts(chi, 2, diff)
    # at n=4 (index 3 from n0 = 1): set pair (2, 1), complement pair (4, 0)
    assert (r_set[3], r_comp[3]) == (1, 1)


def test_verify_equality_zero_violations(chi_small):
    assert not verify_equality(chi_small, 2, 1).any()


def test_verify_equality_below_n0_excluded(seed011):
    """D on [n0, limit] is the rep_difference table from n0 on."""
    chi = extend_seed(seed011, 100)
    diff = verify_equality(chi, 2, 1)
    assert len(diff) == 100  # n = 1 .. 100
    assert np.array_equal(diff, rep_difference(chi, WeightPair(1, 2), 100)[1:])


def test_verify_equality_rejects_a_table_ending_below_n0():
    with pytest.raises(PreconditionError):
        verify_equality(ChiTable([0, 1, 1]), 2, 3)
    assert len(verify_equality(ChiTable([0, 1, 1, 0]), 2, 3)) == 1


@pytest.mark.parametrize("k,n0,message", [(1, 1, "k must be >= 2"), (2, -1, "n0 must be >= 0")])
def test_verifiers_reject_bad_params(chi_small, k, n0, message):
    for verify in (verify_structure, verify_equality):
        with pytest.raises(PreconditionError, match=message):
            verify(chi_small, k, n0)
    with pytest.raises(PreconditionError, match=message):
        verify_block_parity(chi_small, k, n0, 4)


def test_flipped_bit_breaks_equality_nearby(seed011):
    flip_at = 50
    chi = extend_seed(seed011, 250)
    bits = chi.bits.copy()
    bits[flip_at] ^= 1
    broken = ChiTable(bits)
    violations = (1 + np.flatnonzero(verify_equality(broken, 2, 1))).tolist()
    assert violations
    # a violation shows up within a window of size k * flip point
    assert min(violations) <= 2 * (flip_at + 1)


def test_verify_equality_counts_on_random_table(rng):
    """On a random table R_A - R_C takes both signs; D is zero exactly where
    the kernel's counts on the two sides agree, and side_counts gives the
    kernel's count on each side, R_C written over D's buffer."""
    chi = ChiTable((rng.random(301) < 0.5).astype(np.uint8))
    diff = verify_equality(chi, 2, 1)
    r_set = rep_values(chi, SET, WeightPair(1, 2), 300)[1:]
    r_comp = rep_values(chi, COMPLEMENT, WeightPair(1, 2), 300)[1:]
    assert (r_set > r_comp).any() and (r_set < r_comp).any()
    assert np.array_equal(diff == 0, r_set == r_comp)
    got_set, got_comp = side_counts(chi, 2, diff)
    assert np.array_equal(got_set, r_set) and np.array_equal(got_comp, r_comp)
    assert np.shares_memory(got_comp, diff)
    # the last len(diff) n of the table, for any tail of it
    tail_set, tail_comp = side_counts(chi, 2, (r_set - r_comp)[-50:])
    assert np.array_equal(tail_set, r_set[-50:]) and np.array_equal(tail_comp, r_comp[-50:])


@pytest.mark.parametrize("k,n0", list(product((2, 3), (1, 2))))
def test_equality_scan_all_seeds(k, n0):
    for row in enumerate_seeds(k, n0).tolist():
        seed = SeedAssignment(k, n0, tuple(row))
        assert not verify_equality(extend_seed(seed, 3000), k, n0).any()


# ------------------------------------------------------------- block parity

def test_block_parity_on_hand_table(seed011):
    chi = extend_seed(seed011, 50)
    report = verify_block_parity(chi, 2, 1, 2)
    assert report.ok
    # read off the table: chi(2)=1; even exponent block 2**2 * 2 + [0, 4) all 1
    assert [chi.bits[n] for n in (8, 9, 10, 11)] == [1, 1, 1, 1]
    # odd exponent block 2 * 2 + [0, 2) flipped
    assert [chi.bits[n] for n in (4, 5)] == [0, 0]


def test_block_parity_zero_violations(chi_small):
    report = verify_block_parity(chi_small, 2, 1, 4)
    assert report.ok
    # power 4 judges cells, and so does every lower one, whose cells start lower
    assert 0 < verify_block_parity(chi_small, 2, 1, 3).checked < report.checked


def test_block_parity_reports_below_threshold_without_judging(chi_small):
    report = verify_block_parity(chi_small, 2, 1, 1)
    # below the threshold the relation fails (at i = 1 a cell equals its
    # base's bit), but that is not a violation
    top = 2 * chain_threshold(2, 1)
    assert (chi_small.bits[:top] == chi_small.bits[np.arange(top) // 2]).any()
    assert report.ok


def test_block_parity_requires_positive_imax(chi_small):
    with pytest.raises(PreconditionError):
        verify_block_parity(chi_small, 2, 1, 0)


def test_block_parity_detects_corruption(seed011):
    chi = extend_seed(seed011, 400)
    bits = chi.bits.copy()
    bits[300] ^= 1
    report = verify_block_parity(ChiTable(bits), 2, 1, 3)
    assert not report.ok
    assert report.violation_count > 0
    assert all(n >= chain_threshold(2, 1) for n, _, _ in report.violations)


def test_flip_check_pass_implies_block_parity():
    """Whenever verify_structure's flip check passes, block parity to i = 4
    finds no violation: a cell k**i * n + j with n at or above the chain
    threshold reaches n by i divisions by k, each from a cell in the flip
    check's range, and the i flips compose to chi(n) xor (i odd).  Over
    random short tables and flip-rule extensions of random seeds with a few
    bits flipped; some of each kind pass the flip check with cells judged."""
    rng = random.Random(31)
    judged = {"random": 0, "corrupted": 0}
    for trial in range(10000):
        k, n0 = rng.randint(2, 5), rng.randint(0, 6)
        width = k + n0
        if trial % 2:
            kind, bits = "random", [rng.randint(0, 1) for _ in range(width + rng.randint(0, 12))]
        else:
            kind = "corrupted"
            seed = SeedAssignment(k, n0, tuple(rng.randint(0, 1) for _ in range(width)))
            bits = extend_seed(seed, rng.randint(width, 300), require_valid=False).bits.copy()
            # in and near the seed window, where a flip can leave the flip check passing
            for _ in range(rng.randint(1, 3)):
                bits[rng.randrange(min(len(bits), 3 * width))] ^= 1
        chi = ChiTable(bits)
        if verify_structure(chi, k, n0).flip_first_violation is None:
            report = verify_block_parity(chi, k, n0, 4)
            assert report.violation_count == 0, (k, n0, chi.bits.tolist())
            judged[kind] += report.checked > 0
    assert min(judged.values()) >= 50, judged


def _parity_tables(k: int):
    """(chi, n0, label) triples: random bits (far over 100 violations), a valid
    extension with a dozen corrupted bits, and a start n0 that puts the
    threshold above the full-block count of the high powers; then both
    first kinds cut at k**i * T - 1, k**i * T and k**i * T + 1 for each
    i <= 4, where power i judges no cell, one and two."""
    rng = np.random.default_rng(7 * k)
    seed = SeedAssignment(k, 1, tuple(enumerate_seeds(k, 1)[0].tolist()))
    for limit in (k**4 + 5, 1999):
        noisy = (rng.random(limit + 1) < 0.5).astype(np.uint8)
        yield ChiTable(noisy), 1, f"random limit={limit}"
        bits = extend_seed(seed, limit).bits.copy()
        bits[rng.integers(0, limit + 1, size=12)] ^= 1
        yield ChiTable(bits), 1, f"corrupted limit={limit}"
        yield ChiTable(bits), 20 * k, f"high threshold limit={limit}"
    for i in range(1, 5):
        first = k**i * chain_threshold(k, 1)  # the first cell power i judges
        for limit in (first - 1, first, first + 1):
            yield ChiTable(noisy[: limit + 1]), 1, f"random cut at {limit}"
            yield ChiTable(bits[: limit + 1]), 1, f"corrupted cut at {limit}"


@pytest.mark.parametrize("k", [2, 3, 5])
def test_block_parity_matches_loop_oracle(k):
    """The whole report, violation order included, equals that of the
    per-base loop."""
    for chi, n0, label in _parity_tables(k):
        for i_max in (1, 2, 4, 6):
            got = verify_block_parity(chi, k, n0, i_max)
            assert got == block_parity_loop(chi, k, n0, i_max), (label, i_max)


def test_block_parity_with_powers_beyond_the_limit():
    """With k**i far above the limit (60**4 = 12960000 against 200) every
    level is one base n = 0 cut at the limit: the report equals the loop's,
    and the check allocates a few kilobytes, not k**i bytes."""
    rng = np.random.default_rng(60)
    chi = ChiTable((rng.random(201) < 0.5).astype(np.uint8))
    tracemalloc.start()
    try:
        report = verify_block_parity(chi, 60, 0, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == block_parity_loop(chi, 60, 0, 4)
    assert peak < 2**14


def test_block_parity_keeps_first_violations_without_an_index_of_all():
    """On random bits about half of each power's cells are violations.  The
    report keeps the first 100 without an int64 index of every one, so the
    check peaks under 4 bytes per cell; such an index took it to 5."""
    rng = np.random.default_rng(1)
    chi = ChiTable((rng.random(2 * 10**5 + 1) < 0.5).astype(np.uint8))
    tracemalloc.start()
    try:
        report = verify_block_parity(chi, 2, 1, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.violation_count > 10**5 and len(report.violations) == 100
    assert peak < 4 * chi.limit


@pytest.mark.parametrize("d", [1, 2, 3, 7, 60, 10**12])
def test_quotient_bits_matches_gather(d):
    """_quotient_bits(bits, d, lo, hi) is bits[n // d] on [lo, hi], exactly
    hi - lo + 1 long, for every range in a window around each of the first
    quotient boundaries; d = 10**12 would need a terabyte if the bits were
    repeated d times."""
    bits = (np.random.default_rng(d % 1000).random(40) < 0.5).astype(np.uint8)
    starts = {b + e for b in (0, d, 2 * d, 3 * d) for e in range(-4, 5) if b + e >= 0}
    for lo in sorted(starts):
        for hi in range(lo, lo + min(3 * d, 200) + 5):
            got = _quotient_bits(bits, d, lo, hi)
            assert np.array_equal(got, bits[np.arange(lo, hi + 1) // d]), (lo, hi)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_block_constancy_and_alternation(data):
    """chi is constant on each block k**i * n + [0, k**i) and alternates in i."""
    k = data.draw(st.integers(2, 3))
    n0 = data.draw(st.integers(1, 2))
    seeds = enumerate_seeds(k, n0).tolist()
    seed = SeedAssignment(k, n0, tuple(seeds[data.draw(st.integers(0, len(seeds) - 1))]))
    chi = extend_seed(seed, 3000)
    threshold = (n0 + k) // k + 1
    n = data.draw(st.integers(threshold, 20))
    for i in (1, 2, 3):
        base = k**i
        if base * n + base - 1 > chi.limit:
            break
        block = {chi.bits[base * n + j] for j in range(base)}
        assert len(block) == 1
        assert block.pop() == chi.bits[n] ^ (i & 1)
