import json
from pathlib import Path

import pytest

from repfn import (
    INCONCLUSIVE,
    SAT,
    UNSAT,
    PreconditionError,
    SeedAssignment,
    WeightPair,
    extend_seed,
    nonexistence_search,
    rep_values,
    validate_certificate,
)
from repfn import bounds

GOLDEN = Path(__file__).parent / "golden" / "search_unsat.json"
GOLDEN_CASES = [
    (2, 3, 0), (2, 5, 0), (3, 4, 0), (2, 3, 1), (2, 5, 1), (3, 4, 1),
    (2, 5, 8), (2, 7, 10), (2, 9, 12),
]


def measured_depths():
    entries = []
    for k1, k2, n0 in GOLDEN_CASES:
        outcome = nonexistence_search(WeightPair(k1, k2), n0, 64)
        assert outcome.status == UNSAT
        assert outcome.unsat_depth is not None and outcome.unsat_depth <= 64
        entries.append(
            {"k1": k1, "k2": k2, "n0": n0, "cap": 64,
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
    with pytest.raises(PreconditionError):
        nonexistence_search(WeightPair(2, 1), 0, 16, check_weights=False)


def test_satisfiable_mode_finds_validated_certificate():
    """k1 = 1 is deliberately satisfiable; the search must find the canonical
    solution and the certificate must pass the independent recheck."""
    outcome = nonexistence_search(WeightPair(1, 2), 1, 48, check_weights=False)
    assert outcome.status == SAT
    assert outcome.certificate is not None
    assert validate_certificate(outcome.certificate, WeightPair(1, 2), 1)
    # the lexicographically first survivor is the flip-rule extension of 011
    expected = extend_seed(SeedAssignment.from_string(2, 1, "011"), 47)
    assert list(outcome.certificate) == expected.bits.tolist()


def test_certificate_validator_rejects_corruption():
    outcome = nonexistence_search(WeightPair(1, 2), 1, 32, check_weights=False)
    broken = list(outcome.certificate)
    broken[20] ^= 1
    assert not validate_certificate(broken, WeightPair(1, 2), 1)


def test_certificate_validator_cross_checks_kernel(monkeypatch):
    """The kernel recount is live: one wrong kernel entry rejects a good certificate."""
    outcome = nonexistence_search(WeightPair(1, 2), 1, 32, check_weights=False)

    def corrupted(chi, side, w, up_to):
        values = rep_values(chi, side, w, up_to)
        values[-1] += 1
        return values

    monkeypatch.setattr(bounds, "rep_values", corrupted)
    assert not validate_certificate(outcome.certificate, WeightPair(1, 2), 1)


def test_node_budget_gives_inconclusive():
    outcome = nonexistence_search(
        WeightPair(1, 2), 1, 48, check_weights=False, node_cap=10
    )
    assert outcome.status == INCONCLUSIVE
    assert outcome.certificate is None and outcome.unsat_depth is None


def test_search_determinism():
    a = nonexistence_search(WeightPair(2, 3), 1, 64)
    b = nonexistence_search(WeightPair(2, 3), 1, 64)
    assert (a.status, a.unsat_depth, a.nodes) == (b.status, b.unsat_depth, b.nodes)
