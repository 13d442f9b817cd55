"""Acceptance gate: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.  Every comparison here is exact integer equality or an
exact integer inequality; there are no tolerances anywhere.
"""

import json
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from repfn import (
    COMPLEMENT,
    SET,
    ChiTable,
    SeedAssignment,
    WeightPair,
    bound_scan,
    enumerate_seeds,
    extend_seed,
    flog,
    guaranteed_bound,
    nonexistence_search,
    prefix_search,
    rep_difference,
    rep_values,
    side_counts,
    validate_certificate,
    verify_block_parity,
    verify_equality,
    witness_list,
)
from oracles import pair_grid_rep_values, rep_count_weighted, sieve_rep_values

SEED_011 = SeedAssignment.from_string(2, 1, "011")
GOLDEN = Path(__file__).parent / "golden" / "search_unsat.json"


def report(criterion: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


@pytest.fixture(scope="module")
def scan_131k():
    """k=2, n0=1, seed 011 scanned on [2, 2**17 - 1].

    The scan covers 2**17 - 1 >= 10**5 so that criterion 9's last dyadic
    window [2**16, 2**17) is complete.
    """
    chi = extend_seed(SEED_011, 2**17 - 1)
    return bound_scan(chi, 2, 1, 2)


@pytest.fixture(scope="module")
def chi_mega():
    return extend_seed(SEED_011, 10**6)


def test_criterion_1_partition_identity():
    """Every enumerated seed extends to a table with exact count equality; the
    complement counts, derived from the difference identity, also equal the
    kernel's own count on the complement."""
    checked = 0
    seeds_seen = 0
    for k, n0 in product((2, 3, 4, 5), (0, 1, 2)):
        for row in enumerate_seeds(k, n0).tolist():
            seed = SeedAssignment(k, n0, tuple(row))
            seeds_seen += 1
            chi = extend_seed(seed, 10**6)
            diff = verify_equality(chi, k, n0)
            bad = (n0 + np.flatnonzero(diff)[:5]).tolist()
            assert not bad, (k, n0, seed.bit_string(), bad)
            r_set, r_comp = side_counts(chi, k, diff)
            assert (r_set == r_comp).all()
            kernel_comp = rep_values(chi, COMPLEMENT, WeightPair(1, k), 10**6)[n0:]
            assert (kernel_comp == r_comp).all(), (k, n0, seed.bit_string())
            checked += r_set.size
    report(
        "criterion 1: partition identity across the (k, n0) grid to N=10**6",
        seeds_seen > 0 and checked > 0,
        f"{seeds_seen} seeds, {checked} exact equalities (n0=0 rows are vacuous)",
    )


def test_criterion_2_seed_census():
    """Exhaustive oracle over all 2**3 assignments pins the k=2, n0=1 census."""
    oracle = []
    for mask in range(8):
        cand = [(mask >> p) & 1 for p in range(3)]
        ok = True
        for n in (1, 2):
            total = n // 2 + 1
            weighted = sum(cand[n - 2 * a2] + cand[a2] for a2 in range(n // 2 + 1))
            if weighted != total:
                ok = False
        if ok:
            oracle.append("".join(map(str, cand)))
    listed = ["".join(map(str, row)) for row in enumerate_seeds(2, 1).tolist()]
    census_ok = listed == sorted(oracle) == ["011", "100"]
    closure_ok = True
    for k, n0 in product((2, 3, 4, 5), (0, 1, 2)):
        strings = {"".join(map(str, row)) for row in enumerate_seeds(k, n0).tolist()}
        flipped = {s.translate(str.maketrans("01", "10")) for s in strings}
        closure_ok = closure_ok and strings == flipped
    report(
        "criterion 2: seed census (011/100) and complement closure",
        census_ok and closure_ok,
    )


def test_criterion_3_block_parity():
    """Zero violations of the block parity relation up to i=4, N=50000."""
    total_checked = 0
    for k, n0 in product((2, 3), (0, 1, 2)):
        for row in enumerate_seeds(k, n0).tolist():
            seed = SeedAssignment(k, n0, tuple(row))
            chi = extend_seed(seed, 50000)
            rep = verify_block_parity(chi, k, n0, 4)
            assert rep.ok, (k, n0, seed.bit_string(), rep.violations[:5])
            # i = 4 judges cells too: it adds to the count of i <= 3
            assert verify_block_parity(chi, k, n0, 3).checked < rep.checked
            total_checked += rep.checked
    report(
        "criterion 3: block parity relations, i in 1..4, N=50000",
        total_checked > 0,
        f"{total_checked} exact checks",
    )


def test_criterion_4_growth_bound(scan_131k):
    """R_{1,2}(A, n) >= floor(flog(2, n, 2) / 4) for every n in [2, 10**5]."""
    in_range = scan_131k.ns <= 10**5
    ok_flags = scan_131k.ok[in_range]
    bound_ok = bool(ok_flags.all())
    anchor_ok = guaranteed_bound(2, 1, 10**6) == 4 and flog(2, 10**6, 2) == 18
    witness_ok = True
    for n in (10**5, 5 * 10**5, 10**6):
        records, _ = witness_list(SEED_011, n)
        witness_ok = witness_ok and len(records) >= guaranteed_bound(2, 1, n)
    report(
        "criterion 4: growth bound on [2, 10**5] with witness-mode anchors",
        bound_ok and anchor_ok and witness_ok,
        f"{int(in_range.sum())} ns checked, {int((~ok_flags).sum())} violations",
    )


def test_criterion_5_witness_soundness(chi_mega):
    """1000 sampled n: witnesses exist for every admissible j, are valid,
    have pairwise distinct a2, and number at least B(n).  They are built
    from the seed alone; the dense table is the membership oracle."""
    rng = np.random.default_rng(20260810)
    ns = rng.integers(10**4, 10**6 + 1, size=1000)
    recount_sample = set(map(int, rng.choice(ns, size=20, replace=False)))
    w = WeightPair(1, 2)
    for n in map(int, ns):
        records, skipped = witness_list(SEED_011, n)
        assert not skipped, (n, skipped)
        for r in records:
            assert r.a1 + 2 * r.a2 == n
            assert chi_mega.bits[r.a1] == chi_mega.bits[r.a2]
        a2s = [r.a2 for r in records]
        assert len(set(a2s)) == len(a2s), n
        assert len(records) >= guaranteed_bound(2, 1, n), n
        if n in recount_sample:
            # witnesses really are counted representations
            by_side = {}
            for r in records:
                by_side[r.side] = by_side.get(r.side, 0) + 1
            for side, m in by_side.items():
                assert rep_count_weighted(chi_mega, side, w, n) >= m
    report("criterion 5: witness soundness and multiplicity at 1000 sampled n", True)


def test_criterion_6_oracle_equivalence():
    """Kernel vs sieve and pair-grid oracles on 50 random tables; on 20 more,
    R_A - R_C from the kernel equals the linear difference identity."""
    rng = np.random.default_rng(42)
    for trial in range(50):
        bits = (rng.random(2001) < rng.uniform(0.1, 0.9)).astype(np.uint8)
        chi = ChiTable(bits)
        w = WeightPair(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        side = SET if trial % 2 == 0 else COMPLEMENT
        values = rep_values(chi, side, w, 2000)
        assert (values == pair_grid_rep_values(bits, side, w, 2000)).all(), (trial, w)
        assert (values == sieve_rep_values(bits, side, w, 2000)).all(), (trial, w)
    for trial in range(20):
        bits = (rng.random(10**4 + 1) < rng.uniform(0.1, 0.9)).astype(np.uint8)
        chi = ChiTable(bits)
        w = WeightPair(1, int(rng.integers(2, 6)))
        diff = rep_values(chi, SET, w, 10**4) - rep_values(chi, COMPLEMENT, w, 10**4)
        assert (diff == rep_difference(chi, w, 10**4)).all(), (trial, w)
    report("criterion 6: kernel/oracle agreement and difference identity, exact", True)


def test_criterion_7_exact_log_boundaries():
    """flog hits every power boundary exactly for k in {2,3,5,10}, e <= 40."""
    checks = 0
    for k in (2, 3, 5, 10):
        for scale in (1, 2, 3):
            for e in range(1, 41):
                power = k**e * scale
                assert flog(k, power, scale) == e
                checks += 1
                if power - 1 >= scale:
                    assert flog(k, power - 1, scale) == e - 1
                    checks += 1
    report("criterion 7: exact integer-log boundaries", True, f"{checks} checks")


def test_criterion_8_nonexistence_search():
    """Measured UNSAT depths pinned in the golden file; the satisfiable k1 = 1
    search yields a certificate that the independent recheck accepts."""
    entries = []
    for k1, k2 in ((2, 3), (2, 5), (3, 4)):
        outcome = nonexistence_search(WeightPair(k1, k2), 0, 64)
        assert outcome.status == "unsat"
        assert outcome.unsat_depth is not None and outcome.unsat_depth <= 64
        entries.append(
            {"k1": k1, "k2": k2, "n0": 0, "cap": 64,
             "status": outcome.status, "unsat_depth": outcome.unsat_depth}
        )
    pinned = json.loads(GOLDEN.read_text())["entries"]
    assert entries == [e for e in pinned if e["n0"] == 0]
    survivors, _, _ = prefix_search(WeightPair(1, 2), 1, 48, first_only=True)
    assert validate_certificate(tuple(survivors[0].tolist()), WeightPair(1, 2), 1)
    report(
        "criterion 8: nonexistence search UNSAT depths pinned, k1 = 1 certificate validated",
        True,
        ", ".join(f"({e['k1']},{e['k2']})->N*={e['unsat_depth']}" for e in entries),
    )


def test_criterion_9_dyadic_minima_monotone(scan_131k):
    """Window minima of R_{1,2}(A, n) over [2**m, 2**(m+1)) never decrease
    once the guaranteed bound becomes positive (from m=5 on)."""
    r_set = scan_131k.r_set
    ns = scan_131k.ns
    minima = {}
    for m in range(4, 17):
        window = (ns >= 2**m) & (ns < 2 ** (m + 1))
        minima[m] = int(r_set[window].min())
    first_positive = 5  # B(n) >= 1 exactly from n = 2**4 * 2 = 32
    monotone = all(minima[m + 1] >= minima[m] for m in range(first_positive, 16))
    report(
        "criterion 9: dyadic window minima non-decreasing from m=5",
        monotone,
        " ".join(f"m{m}:{minima[m]}" for m in sorted(minima)),
    )
