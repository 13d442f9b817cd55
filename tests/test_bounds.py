import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repfn import (
    CASE_INTERVAL,
    CASE_SMALL_SHIFT,
    COMPLEMENT,
    SET,
    DomainError,
    PreconditionError,
    SeedAssignment,
    WeightPair,
    bound_array,
    bound_scan,
    chain_threshold,
    decompositions,
    enumerate_seeds,
    extend_seed,
    extract_witness,
    flog,
    guaranteed_bound,
    rep_values,
    witness_list,
)
from repfn import bounds
from oracles import chi_recursive


def oracle_flog(k, n, scale):
    """Independent oracle: loop e upward while k**e * scale <= n."""
    e = 0
    while k ** (e + 1) * scale <= n:
        e += 1
    return e


# ----------------------------------------------------------------- exact log

def test_flog_examples():
    assert flog(2, 100, 2) == 5  # 2**5 * 2 = 64 <= 100 < 128
    assert flog(2, 2, 2) == 0
    assert flog(3, 1000, 2) == oracle_flog(3, 1000, 2) == 5


def test_flog_domain_errors():
    with pytest.raises(DomainError):
        flog(2, 1, 2)
    with pytest.raises(DomainError):
        flog(2, 5, 0)
    with pytest.raises(PreconditionError):
        flog(1, 5, 1)


@pytest.mark.parametrize("k", (2, 3, 5, 10))
@pytest.mark.parametrize("scale", (1, 2, 3))
def test_flog_boundaries_exhaustive(k, scale):
    """Each side of every power boundary k**e * scale up to e = 3400, past
    10**1000 for every k here."""
    power = scale
    for e in range(1, 3401):
        power *= k
        assert flog(k, power, scale) == e
        if power - 1 >= scale:
            assert flog(k, power - 1, scale) == e - 1


@settings(max_examples=100, deadline=None)
@given(k=st.integers(2, 10), scale=st.integers(1, 50), n=st.integers(1, 10**1000))
def test_flog_matches_oracle(k, scale, n):
    if n < scale:
        with pytest.raises(DomainError):
            flog(k, n, scale)
    else:
        e = flog(k, n, scale)
        assert e == oracle_flog(k, n, scale)
        assert k**e * scale <= n < k ** (e + 1) * scale


def test_chain_threshold_values():
    assert chain_threshold(2, 1) == 2
    assert chain_threshold(2, 0) == 2
    assert chain_threshold(5, 7) == 3


def test_guaranteed_bound_values():
    assert guaranteed_bound(2, 1, 100) == 1
    assert guaranteed_bound(2, 1, 2) == 0
    assert guaranteed_bound(2, 1, 10**6) == 4
    with pytest.raises(DomainError):
        guaranteed_bound(2, 1, 1)


def test_bound_array_matches_pointwise():
    arr = bound_array(2, 1, 0, 300)
    for n in range(301):
        expected = guaranteed_bound(2, 1, n) if n >= 2 else 0
        assert arr[n] == expected


@pytest.mark.parametrize("k", [2, 3, 5])
def test_bound_array_matches_pointwise_across_powers(k):
    """The bound steps exactly at the cuts k**e * T: ranges starting below
    T, short ranges straddling each cut, and ranges starting or ending on a
    cut agree with guaranteed_bound n by n."""
    for n0 in (0, 1, 3):
        t0 = chain_threshold(k, n0)
        cuts = [t0 * k**e for e in range(7)]
        ranges = [(0, 600), (cuts[4], cuts[5] - 1), (cuts[4] - 1, cuts[6]), (cuts[5], cuts[5])]
        ranges += [(c - 2, c + 2) for c in cuts]
        for lo, hi in ranges:
            expected = [guaranteed_bound(k, n0, n) if n >= t0 else 0 for n in range(lo, hi + 1)]
            assert bound_array(k, n0, lo, hi).tolist() == expected, (n0, lo, hi)


def test_bound_array_matches_pointwise_random_ranges():
    """Random (k, n0, lo, hi): lo below T, and hi one short of, on and one
    past a cut k**e * T, against guaranteed_bound n by n."""
    rng = random.Random(20261019)
    for _ in range(60):
        k, n0 = rng.randint(2, 7), rng.randint(0, 12)
        t0 = chain_threshold(k, n0)
        lo = rng.randint(0, t0 - 1)
        cuts = [t0 * k**e for e in range(20) if t0 * k**e <= 5000]
        cut = rng.choice(cuts)
        for hi in (cut - 1, cut, cut + 1):
            if hi < lo:
                continue
            expected = [guaranteed_bound(k, n0, n) if n >= t0 else 0 for n in range(lo, hi + 1)]
            assert bound_array(k, n0, lo, hi).tolist() == expected, (k, n0, lo, hi)


# -------------------------------------------------------------- decomposition

def test_decompose_spec_point():
    (d,) = decompositions(2, 1, 100)
    assert (d.j, d.i, d.t, d.r, d.case) == (1, 4, 2, 4, CASE_INTERVAL)
    assert 2**d.i * (2**d.j + 1) * d.t + d.r == 100


def test_decompose_boundary():
    (d,) = decompositions(2, 1, 96)
    assert (d.j, d.i, d.t, d.r, d.case) == (1, 4, 2, 0, CASE_INTERVAL)


def test_decompose_domain_errors():
    """j is generated, so no j is out of range; below T the list is empty,
    and only parameters outside k >= 2, n0 >= 0 raise."""
    assert decompositions(2, 1, 1) == []  # below chain threshold T = 2
    assert decompositions(2, 1, 0) == decompositions(2, 1, -5) == []
    with pytest.raises(PreconditionError):
        decompositions(1, 1, 100)
    with pytest.raises(PreconditionError):
        decompositions(2, -1, 100)


def test_decompose_small_shift_case():
    d = decompositions(2, 1, 286)[0]
    assert d.j == 1 and d.case == CASE_SMALL_SHIFT
    assert d.s is not None and 1 <= d.s <= 2
    assert 2**d.i * (2**d.j + 1) * d.t + d.r == 286


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(2, 7),
    n0=st.integers(0, 12),
    digits=st.one_of(st.integers(1, 10), st.integers(1, 1000)),
    data=st.data(),
)
def test_decompose_window_and_reassembly(k, n0, digits, data):
    """n of up to 1000 digits, log-uniform: the j are the odd numbers up to
    oracle_flog(k, n, T) // 2, and each d reassembles n inside its window.
    d.i is the largest e with k**e * (k**d.j + 1) * T <= n: that defining
    inequality is checked for every d, and one drawn d is rerun through the
    upward-loop oracle, which on every d would cost seconds per example."""
    n = data.draw(st.integers(10 ** (digits - 1), 10**digits))
    t0 = chain_threshold(k, n0)
    ds = decompositions(k, n0, n)
    level = oracle_flog(k, n, t0) if n >= t0 else 0
    assert [d.j for d in ds] == list(range(1, level // 2 + 1, 2))
    for d in ds:
        base = (k**d.j + 1) * t0
        assert k**d.i * base <= n < k ** (d.i + 1) * base
        assert d.i + d.j in (level, level - 1)
        assert k**d.i * (k**d.j + 1) * d.t + d.r == n
        assert t0 <= d.t <= k * t0 - 1
        assert 0 <= d.r < k**d.i * (k**d.j + 1)
        if d.case == CASE_SMALL_SHIFT:
            assert 1 <= d.s <= k
    if ds:
        d = ds[data.draw(st.integers(0, len(ds) - 1))]
        assert d.i == oracle_flog(k, n, (k**d.j + 1) * t0)


def test_admissible_j_values():
    def js(n):
        return [d.j for d in decompositions(2, 1, n)]

    assert js(2) == []  # flog = 0
    assert js(100) == [1]  # flog = 5
    assert js(10**6) == [1, 3, 5, 7, 9]  # flog = 18
    assert js(1) == []  # below threshold


# ------------------------------------------------------------------ witnesses
# The witness functions read the seed; dense tables below are membership
# oracles for the asserts only.

def _at(n, j):
    """The decomposition of n at exponent j, for the seed 011."""
    (d,) = [d for d in decompositions(2, 1, n) if d.j == j]
    return d


def test_witness_spec_point(seed011):
    rec = extract_witness(seed011, 100, _at(100, 1))
    assert (rec.a1, rec.a2, rec.side) == (36, 32, SET)
    assert rec.a1 + 2 * rec.a2 == 100


def test_witness_small_shift_case(seed011):
    chi = extend_seed(seed011, 200)
    rec = extract_witness(seed011, 70, _at(70, 1))
    assert rec.case == CASE_SMALL_SHIFT
    assert rec.a1 + 2 * rec.a2 == 70
    assert chi.bits[rec.a1] == chi.bits[rec.a2]


def test_witness_below_threshold_returns_none(seed011):
    # at n=34 the shifted-base case applies but no small element fits
    assert extract_witness(seed011, 34, _at(34, 1)) == "below-witness-threshold"


def test_witness_minimal_prefix_small_shift(seed011):
    """At i=0 the shifted base sits above n and no small element fits; the
    extractor reports the skip."""
    for n in (8, 10, 11):
        assert extract_witness(seed011, n, _at(n, 1)) == "below-witness-threshold"


def test_witness_exclusion_dedupes_small_elements(seed011):
    # both admissible j at n=286 land in the small-shift case on one side
    first = extract_witness(seed011, 286, _at(286, 1))
    assert first.case == CASE_SMALL_SHIFT
    repeat = extract_witness(seed011, 286, _at(286, 3))
    assert repeat.a2 == first.a2  # no exclusion: collision
    deduped = extract_witness(seed011, 286, _at(286, 3), exclude=frozenset({first.a2}))
    assert deduped == "small-element-pool-exhausted"
    # a paired-block (case1) scan whose every candidate is excluded says so too
    paired = extract_witness(seed011, 100, _at(100, 1))
    taken = frozenset(range(paired.a2, 100 // 2 + 1))
    assert extract_witness(seed011, 100, _at(100, 1), exclude=taken) == "small-element-pool-exhausted"


def test_witness_list_extracts_once_per_j(seed011, monkeypatch):
    """Each skip reason comes from the one extraction of its j: at 286 and
    287, where j = 3 finds its small element taken, and at 142, where it
    is below threshold."""
    calls = []
    real = bounds.extract_witness

    def counted(seed, n, d, exclude=frozenset()):
        calls.append(d.j)
        return real(seed, n, d, exclude)

    monkeypatch.setattr(bounds, "extract_witness", counted)
    for n in (142, 286, 287):
        calls.clear()
        _, skipped = witness_list(seed011, n)
        assert calls == [1, 3], n
        assert [j for j, _ in skipped] == [3], n


def test_witness_list_takes_one_flog_per_n(seed011, monkeypatch):
    """One integer log per n serves every j: flog runs once per call, at
    n with one admissible j and with hundreds, and not at all below T."""
    calls = []
    real = bounds.flog

    def counted(k, n, scale):
        calls.append(n)
        return real(k, n, scale)

    monkeypatch.setattr(bounds, "flog", counted)
    for n in (2, 100, 286, 10**100, 10**1000):
        calls.clear()
        witness_list(seed011, n)
        assert calls == [n], n
    calls.clear()
    assert witness_list(seed011, 1) == ([], [])
    assert calls == []


def test_witness_list_distinct_and_sound(seed011):
    chi = extend_seed(seed011, 300)
    records, skipped = witness_list(seed011, 286)
    assert len({r.a2 for r in records}) == len(records)
    assert len(records) >= guaranteed_bound(2, 1, 286)
    for r in records:
        assert r.a1 + 2 * r.a2 == 286
        assert chi.bits[r.a1] == chi.bits[r.a2]


def test_witness_sweep_across_weights():
    """Every n in a solid range yields sound, distinct witnesses for each
    admissible j, for several (k, n0) pairs; the record count reaches the
    guaranteed bound except at the pinned small-n exceptions for k=2."""
    exceptions = {(2, 1): {34, 35, 46, 47}}  # only j=1 admissible, below threshold
    for k, n0 in ((2, 1), (3, 1), (3, 2), (5, 1)):
        seed = SeedAssignment(k, n0, tuple(enumerate_seeds(k, n0)[0].tolist()))
        chi = extend_seed(seed, 8000)
        t0 = chain_threshold(k, n0)
        for n in range(t0, 8001):
            records, _ = witness_list(seed, n)
            a2s = [r.a2 for r in records]
            assert len(set(a2s)) == len(a2s), (k, n0, n)
            for r in records:
                assert r.a1 + k * r.a2 == n
                assert chi.bits[r.a1] == chi.bits[r.a2]
            if n not in exceptions.get((k, n0), ()):
                assert len(records) >= guaranteed_bound(k, n0, n), (k, n0, n)


def test_witness_skip_structure_is_pinned(seed011):
    """The exact small-n skip pattern for k=2, n0=1 (measured, then pinned)."""
    skip_events = {}
    for n in range(2, 301):
        _, skipped = witness_list(seed011, n)
        if skipped:
            skip_events[n] = skipped
    below = {n for n, ev in skip_events.items() if ev == [(1, "below-witness-threshold")]}
    assert below == {8, 10, 11, 16, 17, 22, 23, 34, 35, 46, 47}
    assert skip_events[142] == [(3, "below-witness-threshold")]
    assert skip_events[143] == [(3, "below-witness-threshold")]
    # both admissible j at 286/287 want the same small element; the second
    # is skipped rather than duplicating the pair
    assert skip_events[286] == [(3, "small-element-pool-exhausted")]
    assert skip_events[287] == [(3, "small-element-pool-exhausted")]
    assert set(skip_events) == below | {142, 143, 286, 287}


_SEED_011 = SeedAssignment.from_string(2, 1, "011")
# one shared oracle table for the hypothesis property below (fixtures cannot feed @given)
_CHI_20K = extend_seed(_SEED_011, 20000)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 20000))
def test_witness_list_soundness_property(n):
    chi = _CHI_20K
    records, _ = witness_list(_SEED_011, n)
    a2s = [r.a2 for r in records]
    assert len(set(a2s)) == len(a2s)
    for r in records:
        assert r.a1 + 2 * r.a2 == n
        assert chi.bits[r.a1] == chi.bits[r.a2]
        assert (r.side == SET) == (chi.bits[r.a1] == 1)


@pytest.mark.parametrize("k, n0, s", [(2, 1, "011"), (3, 2, "01110"), (5, 3, "01011101")])
def test_witnesses_at_ten_to_the_hundred(k, n0, s):
    """At n = 10**100 every admissible odd j gets a record or a skip, the
    records are representations on their side with distinct a2, and they
    reach the guaranteed bound; membership, the admissible j and the bound
    are recomputed here without the library."""
    n = 10**100
    records, skipped = witness_list(SeedAssignment.from_string(k, n0, s), n)
    for r in records:
        assert r.a1 + k * r.a2 == n
        bit = 1 if r.side == SET else 0
        assert chi_recursive(s, k, n0, r.a1) == chi_recursive(s, k, n0, r.a2) == bit
    assert len({r.a2 for r in records}) == len(records)
    level = oracle_flog(k, n, (n0 + k) // k + 1)
    assert len(records) >= level // 4
    covered = [r.j for r in records] + [j for j, _ in skipped]
    assert sorted(covered) == list(range(1, level // 2 + 1, 2))


# ------------------------------------------------------------ checks under -O

_OPTIMIZED_CHECKS = """
from repfn import NoWitness, SeedAssignment, bounds

seed = SeedAssignment.from_string(2, 1, "011")
record = bounds.extract_witness(seed, 100000, bounds.decompositions(2, 1, 100000)[0])
real_extract, real_flog = bounds.extract_witness, bounds.flog

# one record for every j: the distinct-a2 check must fire
bounds.extract_witness = lambda seed, n, d, exclude=frozenset(): record
try:
    bounds.witness_list(seed, 100000)
    raise SystemExit("witness_list accepted duplicate a2")
except NoWitness:
    pass
bounds.extract_witness = real_extract

# a level one too small makes the inner exponent one too small, which puts
# t above [T, k*T - 1] (T = 2 here)
bounds.flog = lambda k, n, scale: real_flog(k, n, scale) - 1
try:
    bounds.decompositions(2, 1, 100000)
    raise SystemExit("decompositions accepted t outside [T, k*T - 1]")
except NoWitness:
    pass
print("ok")
"""


def test_witness_checks_survive_optimized_python():
    """python -O strips assert statements; the checks the bound argument
    rests on must still raise NoWitness there."""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_CHECKS], capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


# ------------------------------------------------------------------ bound scan

def test_bound_scan_small(seed011):
    chi = extend_seed(seed011, 2000)
    report = bound_scan(chi, 2, 1, 2)
    assert report.ok.all()
    # R(2) = 0 for this table, so the reported ratio floor is exactly 0
    assert report.min_ratio == 0.0
    assert bound_scan(chi, 2, 1, 100).min_ratio > 0
    row100 = dict(zip(report.ns.tolist(), zip(report.r_set.tolist(), report.bound.tolist())))
    assert row100[100][1] == 1  # B(100) = 1
    assert row100[100][0] >= 1


@pytest.mark.parametrize(
    "k, n0, s", [(2, 1, "011"), (3, 2, "01110"), (5, 3, "01011101"), (3, 2, "01111")]
)
def test_bound_scan_complement_matches_kernel(k, n0, s):
    """bound_scan reports R_C as R_A - D; the kernel's complement side must
    agree.  On the corrupted seed 01111, D is nonzero, so the sign of D counts."""
    lo, hi = 1000, 10**5
    chi = extend_seed(SeedAssignment.from_string(k, n0, s), hi, require_valid=False)
    report = bound_scan(chi, k, n0, lo)
    assert np.array_equal(rep_values(chi, COMPLEMENT, WeightPair(1, k), hi)[lo:], report.r_comp)


def test_bound_zero_below_fourth_power(seed011):
    chi = extend_seed(seed011, 31)
    report = bound_scan(chi, 2, 1, 2)  # below T * k**4 = 32
    assert (report.bound == 0).all()
    assert report.ok.all()


def test_bound_scan_validation(seed011):
    chi = extend_seed(seed011, 100)
    for lo in (-1, 101):
        with pytest.raises(PreconditionError):
            bound_scan(chi, 2, 1, lo)
    for k, n0, message in ((1, 1, "k must be >= 2"), (2, -1, "n0 must be >= 0")):
        with pytest.raises(PreconditionError, match=message):
            bound_scan(chi, k, n0, 2)
    assert bound_scan(chi, 2, 1, 100).ns.tolist() == [100]
