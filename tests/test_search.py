import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repfn import (
    INCONCLUSIVE,
    UNSAT,
    SET,
    PreconditionError,
    SeedAssignment,
    WeightPair,
    enumerate_seeds,
    extend_seed,
    nonexistence_search,
    prefix_search,
    rep_values,
    validate_certificate,
)
from repfn import bounds, partitions
from oracles import prefix_search_dfs, solution_slices, validate_certificate_pairs

GOLDEN = Path(__file__).parent / "golden" / "search_unsat.json"
# (k1, k2, n0, cap); the last two are refutation depths above 16 bits
# that an independent breadth-first search confirmed
GOLDEN_CASES = [
    (2, 3, 0, 64), (2, 5, 0, 64), (3, 4, 0, 64), (2, 3, 1, 64), (2, 5, 1, 64), (3, 4, 1, 64),
    (2, 5, 8, 64), (2, 7, 10, 64), (2, 9, 12, 64), (2, 3, 34, 64), (2, 5, 32, 128),
]


def measured_depths():
    entries = []
    for k1, k2, n0, cap in GOLDEN_CASES:
        outcome = nonexistence_search(WeightPair(k1, k2), n0, cap)
        assert outcome.status == UNSAT
        assert outcome.unsat_depth is not None and outcome.unsat_depth <= cap
        entries.append(
            {"k1": k1, "k2": k2, "n0": n0, "cap": cap,
             "status": outcome.status, "unsat_depth": outcome.unsat_depth}
        )
    return entries


def test_unsat_depths_match_golden():
    """Measured depths equal the committed golden file; a missing file fails."""
    pinned = json.loads(GOLDEN.read_text())["entries"]
    assert measured_depths() == pinned


def test_weight_preconditions():
    with pytest.raises(PreconditionError):
        nonexistence_search(WeightPair(1, 2), 0, 16)  # k1 >= 2 violated
    with pytest.raises(PreconditionError):
        nonexistence_search(WeightPair(2, 4), 0, 16)  # gcd = 2
    with pytest.raises(PreconditionError):
        nonexistence_search(WeightPair(3, 2), 0, 16)  # k2 > k1 violated


def test_search_range_preconditions():
    with pytest.raises(PreconditionError, match="n0 must be >= 0, got -1"):
        nonexistence_search(WeightPair(2, 3), -1, 16)
    with pytest.raises(PreconditionError, match="depth_cap must be >= 1, got 0"):
        nonexistence_search(WeightPair(2, 3), 0, 0)


def first_survivor(w, n0, width):
    survivors, _, _ = prefix_search(w, n0, width, first_only=True)
    return tuple(survivors[0].tolist())


def test_satisfiable_mode_finds_validated_certificate():
    """k1 = 1 is satisfiable; the search must find the canonical solution and
    it must pass the independent recheck."""
    cert = first_survivor(WeightPair(1, 2), 1, 48)
    assert validate_certificate(cert, WeightPair(1, 2), 1)
    # the lexicographically first survivor is the flip-rule extension of 011
    expected = extend_seed(SeedAssignment.from_string(2, 1, "011"), 47)
    assert list(cert) == expected.bits.tolist()


def test_certificate_validator_rejects_corruption():
    broken = list(first_survivor(WeightPair(1, 2), 1, 32))
    broken[20] ^= 1
    assert not validate_certificate(broken, WeightPair(1, 2), 1)


def test_certificate_validator_cross_checks_kernel(monkeypatch):
    """The kernel recount is live: one wrong kernel entry rejects a good
    certificate.  Only the set side is corrupted: the same error on both
    sides would cancel in R_A - R_C, the quantity the certificate claims."""
    cert = first_survivor(WeightPair(1, 2), 1, 32)

    def corrupted(chi, side, w, up_to):
        values = rep_values(chi, side, w, up_to)
        if side == SET:
            values[-1] += 1
        return values

    monkeypatch.setattr(bounds, "rep_values", corrupted)
    assert not validate_certificate(cert, WeightPair(1, 2), 1)


def test_certificate_validator_rejects_empty_prefix():
    """An empty prefix is no certificate: the table it would be read into
    refuses it."""
    with pytest.raises(PreconditionError, match="nonempty"):
        validate_certificate([], WeightPair(2, 3), 0)


def test_search_rejects_a_survivor_the_recheck_rejects(monkeypatch):
    """A survivor that fails the independent recheck is a fault of the
    search, raised even under an inconclusive status."""
    monkeypatch.setattr(
        bounds, "prefix_search",
        lambda w, n0, cap, **_: (np.zeros((1, cap), dtype=np.uint8), 0, None),
    )
    with pytest.raises(AssertionError, match="recheck rejects"):
        nonexistence_search(WeightPair(2, 3), 0, 8)


def test_node_budget_gives_inconclusive(monkeypatch):
    monkeypatch.setattr(bounds, "NODE_CAP", 10)
    outcome = nonexistence_search(WeightPair(2, 3), 34, 64)
    assert outcome.status == INCONCLUSIVE
    assert outcome.certificate is None and outcome.unsat_depth is None
    assert outcome.nodes > 10


def test_node_budget_counts_the_searched_half(monkeypatch):
    """The budget counts the bit 0 = 0 half of the free prefixes, and the
    mirrored half costs no work: with the budget at that half's count,
    (2, 3, 34) is still refuted, with the recursive search's full count."""
    w = WeightPair(2, 3)
    nodes = prefix_search_dfs(w, 34, 64)[1]
    monkeypatch.setattr(bounds, "NODE_CAP", nodes // 2)
    outcome = nonexistence_search(w, 34, 64)
    assert outcome.status == UNSAT and outcome.nodes == nodes


def test_cap_below_refutation_depth_is_inconclusive():
    """(2, 5) at n0 = 32 is refuted only at 113 bits, so a branch survives a
    64-bit cap: that proves nothing about N*, and the surviving prefix is
    reported, validated, under an inconclusive status."""
    outcome = nonexistence_search(WeightPair(2, 5), 32, 64)
    assert outcome.status == INCONCLUSIVE and outcome.unsat_depth is None
    assert outcome.certificate is not None and len(outcome.certificate) == 64
    assert validate_certificate(outcome.certificate, WeightPair(2, 5), 32)


@pytest.mark.parametrize(
    "k1,k2,n0,depth", [(2, 3, 41, 68), (2, 3, 44, 68), (2, 5, 8, 18), (2, 7, 10, 32), (2, 9, 12, 50)]
)
def test_certificate_one_bit_below_unsat_depth(k1, k2, n0, depth):
    """Each case is refuted at ``depth`` bits; at depth - 1 bits a branch
    survives, which the independent recheck accepts: the lower side of
    N* by a second route.  The windows of (2, 5, 8), (2, 7, 10) and
    (2, 9, 12) hold at most 16 prefixes past bit free, so their survivor
    comes from the chains."""
    w = WeightPair(k1, k2)
    assert nonexistence_search(w, n0, 256).unsat_depth == depth
    outcome = nonexistence_search(w, n0, depth - 1)
    assert outcome.status == INCONCLUSIVE and outcome.unsat_depth is None
    assert outcome.certificate is not None and len(outcome.certificate) == depth - 1
    assert validate_certificate(outcome.certificate, w, n0)


def test_search_determinism():
    a = nonexistence_search(WeightPair(2, 3), 1, 64)
    b = nonexistence_search(WeightPair(2, 3), 1, 64)
    assert (a.status, a.unsat_depth, a.nodes) == (b.status, b.unsat_depth, b.nodes)


# seed enumeration weights (1, k) and coprime k2 > k1 >= 2
FRONTIER_WEIGHTS = [(1, 2), (1, 3), (1, 5), (2, 3), (2, 5), (3, 4), (3, 5), (2, 7)]
FRONTIER_WIDTHS = [*range(1, 13), 16, 20, 24]


# NARROW settings: every deep bit in lockstep, and every window past bit
# free in chains (windows hold at most 2**(BLOCK_BITS + 1) columns)
DEEP_PATHS = (0, 2**20)
DEFAULT_NARROW = partitions.NARROW


def assert_matches_oracle(monkeypatch, w, n0, width, first_only, block_sizes):
    """prefix_search returns the survivors of the recursive search in blocks
    of 2**block_bits prefixes for each size, with the deep bits taken in
    lockstep and in chains, and its ``nodes`` and ``deepest`` for complete
    and unsat results.  A first_only survivor is returned at the end of
    its window, so there only the survivor is compared.  Returns the
    oracle's result, with BLOCK_BITS left at the last size and NARROW at
    its default."""
    expected = prefix_search_dfs(w, n0, width, first_only)
    for block_bits, narrow in itertools.product(block_sizes, DEEP_PATHS):
        monkeypatch.setattr(partitions, "BLOCK_BITS", block_bits)
        monkeypatch.setattr(partitions, "NARROW", narrow)
        got = prefix_search(w, n0, width, first_only)
        case = (n0, width, first_only, block_bits, narrow)
        assert [tuple(r) for r in got[0].tolist()] == expected[0], case
        if not (first_only and expected[0]):
            assert got[1:] == expected[1:], case
    monkeypatch.setattr(partitions, "NARROW", DEFAULT_NARROW)
    return expected


@pytest.mark.parametrize("k1,k2", FRONTIER_WEIGHTS)
def test_prefix_search_matches_depth_first_oracle(k1, k2, monkeypatch):
    """The block frontier returns the survivors of the recursive search,
    complete and with first_only, and its node count and depth where the
    search runs to the end.  Blocks hold 2**14 prefixes (one block here)
    and 4 (many blocks; at most 2**7 of them, as more only slow the
    test)."""
    w = WeightPair(k1, k2)
    for n0 in range(14):
        block_sizes = (2, 14) if n0 // k1 <= 9 else (14,)
        for width in FRONTIER_WIDTHS:
            for first_only in (False, True):
                assert_matches_oracle(monkeypatch, w, n0, width, first_only, block_sizes)


@pytest.mark.parametrize("block_bits", [2, 14])
@pytest.mark.parametrize("k1,k2", [(1, 3), (2, 3), (2, 5)])
def test_half_at_block_boundaries(k1, k2, block_bits, monkeypatch):
    """Only the free prefixes with bit 0 = 0 are searched, so the half has
    free - 1 bits: none at free = 1 (the single prefix 0), and exactly one
    block or two at free - 1 = BLOCK_BITS and BLOCK_BITS + 1.  Each matches
    the recursive search complete and with first_only, at n0 = k1 * free
    and, where k1 > 1, at n0 = k1 * (free + 1) - 1, where bit free is
    branched on."""
    w = WeightPair(k1, k2)
    for free in (1, block_bits + 1, block_bits + 2):
        for n0 in sorted({k1 * free, k1 * free + k1 - 1}):
            for width in (free, free + 1, free + 6):
                for first_only in (False, True):
                    assert_matches_oracle(monkeypatch, w, n0, width, first_only, (block_bits,))


def rows(result):
    """A prefix_search result with its survivors as a list of tuples."""
    survivors, nodes, deepest = result
    return [tuple(r) for r in survivors.tolist()], nodes, deepest


@pytest.mark.parametrize("k1,k2,n0,width", [(2, 3, 13, 20), (2, 5, 12, 30), (2, 5, 9, 12), (1, 3, 5, 16)])
def test_first_only_caps_across_the_mirror(k1, k2, n0, width, monkeypatch):
    """The bit 0 = 1 half, the mirror of the bit 0 = 0 half, is not
    searched, so none of its children count against the cap: with
    first_only, every node cap from the half's count to twice it gives the
    uncapped result, survivors, nodes and depth alike, in blocks of 4
    prefixes and of 2**14.  Where nothing survives, that is the recursive
    search's refutation, with both halves' count."""
    w = WeightPair(k1, k2)
    total = prefix_search_dfs(w, n0, width)[1]
    assert total % 2 == 0
    for block_bits in (2, 14):
        expected = assert_matches_oracle(monkeypatch, w, n0, width, True, (block_bits,))
        whole = rows(prefix_search(w, n0, width, True))
        if not expected[0]:
            assert whole == expected and whole[1] == total, block_bits
        for cap in range(total // 2, total + 1):
            assert rows(prefix_search(w, n0, width, True, cap)) == whole, (block_bits, cap)


@pytest.mark.parametrize(
    "k1,k2,n0,width",
    [(1, 3, 5, 16), (1, 3, 9, 16), (2, 5, 9, 12), (2, 5, 12, 30), (2, 3, 13, 20)],
)
def test_every_node_cap_in_windows(k1, k2, n0, width, monkeypatch):
    """Every node cap from 0 to one past the count of the searched half,
    complete and with first_only, in blocks of 4 prefixes joined into
    windows of up to 8 columns and in one block of 2**14: the result is
    the uncapped one (for first_only, its survivor, counted through a
    window that the cap may end early), or no rows, a count past the cap
    and no depth.  A cap at or above the half's count gives the uncapped
    result, and a search with no first_only survivor stops exactly below
    it."""
    w = WeightPair(k1, k2)
    half, rest = divmod(prefix_search(w, n0, width)[1], 2)
    assert rest == 0 and n0 >= k1  # the bit 0 = 1 half is mirrored
    for block_bits, first_only in itertools.product((2, 14), (False, True)):
        uncapped = assert_matches_oracle(monkeypatch, w, n0, width, first_only, (block_bits,))
        whole = prefix_search(w, n0, width, first_only)
        for cap in range(half + 2):
            survivors, nodes, deepest = prefix_search(w, n0, width, first_only, cap)
            case = (block_bits, first_only, cap)
            stopped = survivors.shape == (0, width) and nodes > cap and deepest is None
            if cap >= half or not stopped:
                assert [tuple(r) for r in survivors.tolist()] == uncapped[0], case
            if cap >= half or not (stopped or first_only):
                assert (nodes, deepest) == whole[1:], case
            if not (first_only and uncapped[0]):
                assert stopped == (cap < half), case


# one to three words of the packed frontier, each side of a word boundary
WORD_WIDTHS = [63, 64, 65, 70, 130]


@pytest.mark.parametrize("k1,k2", FRONTIER_WEIGHTS)
def test_prefix_search_matches_oracle_across_words(k1, k2, monkeypatch):
    """Prefixes of 63 to 130 bits, packed in one to three uint64 words,
    complete and with first_only, in blocks of 2**14 prefixes and of 4
    (where that makes at most 2**7 blocks)."""
    w = WeightPair(k1, k2)
    for n0 in range(0, 14, 3):
        block_sizes = (2, 14) if n0 // k1 <= 9 else (14,)
        for width in WORD_WIDTHS:
            for first_only in (False, True):
                assert_matches_oracle(monkeypatch, w, n0, width, first_only, block_sizes)


def test_free_prefix_wider_than_a_word(monkeypatch):
    """(2, 3) at n0 = 140 has 70 free bits, so a free prefix's rank spans
    two words.  At widths up to the free bits every prefix survives, and
    the first matches the recursive search in blocks of 2**14 and 4.  Past
    them the first prefixes all die at bit 70, block after block, so no
    window fills; node caps from 1 to 20000 still end a window once the
    count passes them, and the search stops with no rows, past the cap by
    at most the last block's count, 4 * 2**BLOCK_BITS + 70."""
    w = WeightPair(2, 3)
    for width in (64, 65, 70):
        assert_matches_oracle(monkeypatch, w, 140, width, True, (2, 14))
    for block_bits in (2, 14):
        monkeypatch.setattr(partitions, "BLOCK_BITS", block_bits)
        for width in (71, 80, 140):
            for cap in (1, 50, 200, 20_000):
                survivors, nodes, deepest = prefix_search(w, 140, width, True, cap)
                case = (block_bits, width, cap)
                assert survivors.shape == (0, width) and deepest is None, case
                assert cap < nodes <= cap + 4 * 2**block_bits + 70, case


@pytest.mark.parametrize("k1,k2,n0", [(1, 2, 1), (1, 3, 2), (1, 5, 3)])
def test_identity_sums_past_255(k1, k2, n0):
    """At 600 bits of weights (1, k) an n has up to 301 solutions, so its
    identity sum passes 255, the most a uint8 popcount can hold: the
    complete search still matches the recursive one."""
    w = WeightPair(k1, k2)
    expected = prefix_search_dfs(w, n0, 600)
    survivors, nodes, deepest = prefix_search(w, n0, 600)
    assert len(expected[0]) > 0
    assert ([tuple(r) for r in survivors.tolist()], nodes, deepest) == expected


def test_packed_checks_match_solution_slices():
    """The popcount checks of each depth, carried from one depth to the
    next, give on random prefixes the sum over the solution slices of the
    unpacked bits, with free bits packed in reverse, from the two whole
    masks and word by word on a frontier column alike: free prefixes of 0
    to 130 bits, n0 at and just above k1 * free, 140 depths each, weights
    (1, 3), (2, 3), (3, 7) and (2, 71), whose a1 skip whole words, and
    (1, 2) at 130 free bits, where c reaches 128 at depth 254.  Odd depths
    take the all-ones prefix, whose sum 2c then passes a uint8's 255."""
    rng = np.random.default_rng(11)
    every = (0, 5, 63, 64, 65, 70, 130)
    cases = [(1, 3, every), (2, 3, every), (3, 7, every), (2, 71, every), (1, 2, (130,))]
    for k1, k2, frees in cases:
        w = WeightPair(k1, k2)
        for free, n0 in itertools.product(frees, (0, k1 - 1)):
            n0 += k1 * free
            checks = partitions._settled_checks(w, n0, free)
            for d in range(free, free + 140):
                bits = [1] * (d + 1) if d % 2 else rng.integers(0, 2, d + 1).tolist()
                packed = sum(b << (free - 1 - i if i < free else i) for i, b in enumerate(bits))
                words = [packed >> 64 * i & (2**64 - 1) for i in range(d // 64 + 1)]
                expected = []
                for n in range(max(n0, k1 * d), k1 * (d + 1)):
                    s2, s1, c = solution_slices(w, n)
                    if c:
                        expected.append((sum(bits[s2]) + sum(bits[s1]), c))
                frontier = np.array(words, dtype=np.uint64)[:, None]
                checks_d = next(checks)
                by_masks = [
                    ((packed & both).bit_count() + (packed & twice).bit_count(), c)
                    for both, twice, c in checks_d
                ]
                by_words = [
                    (int(partitions._weight(frontier, partitions._terms(both, twice, d), c)[0]), c)
                    for both, twice, c in checks_d
                ]
                assert by_masks == by_words == expected, (k1, k2, n0, free, d)


@pytest.mark.parametrize("k1,k2", FRONTIER_WEIGHTS)
def test_survivors_are_one_uint8_matrix(k1, k2):
    """Complete, first_only, capped first_only and empty results alike are one
    C-contiguous uint8 array of shape (count, width), count being the
    depth-first oracle's number of survivors, or 0 where the cap stopped
    the search."""
    w = WeightPair(k1, k2)
    seen = set()
    for n0 in range(14):
        for width in (1, 8, 16):
            for mode, first_only, cap in (
                ("complete", False, math.inf), ("first_only", True, math.inf),
                ("capped", True, 1), ("capped", True, 50),
            ):
                survivors, _, deepest = prefix_search(w, n0, width, first_only, cap)
                count = len(prefix_search_dfs(w, n0, width, first_only)[0]) if deepest is not None else 0
                case = (n0, width, mode, cap)
                assert survivors.dtype == np.uint8 and survivors.flags.c_contiguous, case
                assert survivors.shape == (count, width), case
                seen.add((mode, count > 0))
    assert seen == {(m, f) for m in ("complete", "first_only", "capped") for f in (False, True)}
    assert enumerate_seeds(2, 0).shape == (0, 2)


@pytest.mark.parametrize("k1,k2", FRONTIER_WEIGHTS)
def test_certificate_verdicts_match_pair_grid(k1, k2):
    """validate_certificate and the pair-grid double loop agree on the first
    survivors of the 12-bit prefix search at every even n0 up to 12*k1, and
    on each of their single-bit flips; both verdicts occur."""
    w = WeightPair(k1, k2)
    verdicts = {True: 0, False: 0}
    for n0 in range(0, k1 * 12 + 1, 2):
        survivors, _, _ = prefix_search(w, n0, 12)
        for cert in map(tuple, survivors[:8].tolist()):
            flips = [cert[:i] + (1 - cert[i],) + cert[i + 1 :] for i in range(len(cert))]
            for bits in (cert, *flips):
                verdict = validate_certificate(bits, w, n0)
                assert verdict == validate_certificate_pairs(bits, w, n0), (n0, bits)
                verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False], verdicts


def test_prefix_search_matches_oracle_on_benchmark_case():
    """(2, 3, 34) at 256 bits: 8 blocks of 2**14 free prefixes, half a
    million nodes, refuted at 29 bits; and the same search stopped by a
    node cap of 200,000, below its half's count of 276,511."""
    w = WeightPair(2, 3)
    expected = prefix_search_dfs(w, 34, 256, True)
    survivors, nodes, deepest = prefix_search(w, 34, 256, True)
    assert ([tuple(r) for r in survivors.tolist()], nodes, deepest) == expected
    survivors, nodes, deepest = prefix_search(w, 34, 256, True, 200_000)
    assert survivors.shape == (0, 256) and 200_000 < nodes <= expected[1] // 2 and deepest is None


@pytest.mark.parametrize("k1,k2,n0", [(2, 3, 34), (2, 5, 8), (2, 5, 32), (2, 7, 10), (2, 9, 12)])
def test_deep_paths_agree_on_benchmark_cases(k1, k2, n0, monkeypatch):
    """The search benchmark's cases at 256 bits, with first_only and the
    search command's node cap: every deep bit in lockstep and every window
    past bit free in chains give the same survivors, nodes and depth as
    the default, which mixes the two."""
    w = WeightPair(k1, k2)
    default = rows(prefix_search(w, n0, 256, True, bounds.NODE_CAP))
    for narrow in DEEP_PATHS:
        monkeypatch.setattr(partitions, "NARROW", narrow)
        assert rows(prefix_search(w, n0, 256, True, bounds.NODE_CAP)) == default, narrow


def test_search_memory_is_bounded():
    """The frontier of (2, 3, 34), whose 17 free bits give 131072 prefixes,
    is held one block of 2**14 packed prefixes at a time for its first deep
    bit, and then in windows of at most 2**15 columns: traced allocations
    peak under 2 MiB."""
    tracemalloc.start()
    try:
        outcome = nonexistence_search(WeightPair(2, 3), 34, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.status == UNSAT and outcome.unsat_depth == 29
    assert peak < 2 * 2**20, peak


def test_search_memory_follows_depth_reached_not_cap():
    """(2, 3, 1) is refuted at 3 bits; a cap of 10**6 bits changes neither
    the outcome nor the memory, which follows the depths the search reaches."""
    w = WeightPair(2, 3)
    small = nonexistence_search(w, 1, 64)
    tracemalloc.start()
    try:
        large = nonexistence_search(w, 1, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    fields = ("status", "unsat_depth", "nodes", "certificate")
    assert [getattr(large, f) for f in fields] == [getattr(small, f) for f in fields]
    assert small.status == UNSAT
    assert peak < 2**16, peak


@pytest.mark.parametrize("k1,k2,n0,width", [(1, 2, 9, 24), (1, 3, 9, 16), (1, 5, 9, 24), (2, 5, 9, 12)])
def test_first_survivor_caps_in_windows(k1, k2, n0, width, monkeypatch):
    """Blocks of 4 prefixes join into windows of up to 8 columns.  With
    first_only, node caps one below the first survivor's preorder rank in
    the recursive search, at it and one above it either return that
    survivor at full depth, counted through its window (so at least the
    rank), or stop with no rows, a count past the cap and no depth; a cap
    at the uncapped count gives the uncapped result."""
    w = WeightPair(k1, k2)
    expected = assert_matches_oracle(monkeypatch, w, n0, width, True, (2,))
    survivors, rank, _ = expected
    assert len(survivors) == 1
    whole = rows(prefix_search(w, n0, width, True))
    assert whole[1] >= rank
    for cap in (rank - 1, rank, rank + 1):
        got = rows(prefix_search(w, n0, width, True, cap))
        if got[0]:
            assert got[0] == survivors and got[1] >= rank and got[2] == width, cap
        else:
            assert got[1] > cap and got[2] is None, cap
    assert rows(prefix_search(w, n0, width, True, whole[1])) == whole


@pytest.mark.parametrize("k1,k2,n0", [(2, 3, 35), (3, 4, 31)])
def test_branched_first_bit_at_256_bits(k1, k2, n0, monkeypatch):
    """k1 does not divide n0, so bit n0 // k1 settles no n = k1*d and is
    branched on; every later bit is forced.  At 256 bits, as the search
    command runs it, the survivors, nodes and depth match the recursive
    search in blocks of 2**14 and of 4."""
    assert n0 % k1
    assert_matches_oracle(monkeypatch, WeightPair(k1, k2), n0, 256, True, (2, 14))


# traced peaks of these calls before the search took its deep bits in
# windows, one block at a time, each prefix branching on every bit
PEAKS_BEFORE_WINDOWS = [
    ("search (2, 3, 34)", lambda: nonexistence_search(WeightPair(2, 3), 34, 256), 889_321),
    ("search (2, 5, 32)", lambda: nonexistence_search(WeightPair(2, 5), 32, 256), 920_689),
    # many windows, refuted at 68 bits: one window's data is freed before the next
    ("search (2, 3, 44)", lambda: nonexistence_search(WeightPair(2, 3), 44, 256), 899_849),
    ("seeds (7, 17)", lambda: enumerate_seeds(7, 17), 1_081_577),
]


@pytest.mark.parametrize("name,call,before", PEAKS_BEFORE_WINDOWS, ids=[p[0] for p in PEAKS_BEFORE_WINDOWS])
def test_windows_add_no_memory(name, call, before):
    """The search benchmark's windowed calls peak no higher than they did
    block by block: a window holds at most a block's doubled children."""
    call()  # NumPy and the search's code loaded outside the trace
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= before, (name, peak)
