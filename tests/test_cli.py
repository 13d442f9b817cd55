import csv
import io
import json
import subprocess
import sys

import pytest

from repfn import COMPLEMENT, SET, ChiTable, WeightPair, guaranteed_bound, validate_certificate
from repfn.cli import main
from oracles import rep_count_weighted


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------- seeds

def test_seeds_plain_listing(capsys):
    code, out, err = run(capsys, "seeds", "--k", "2", "--n0", "1")
    assert code == 0
    assert out == "011\n100\n"
    assert "2 valid seed(s)" in err


def test_seeds_json(capsys):
    code, out, _ = run(capsys, "seeds", "--k", "2", "--n0", "1", "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["schema"] == 1
    assert doc["seeds"] == ["011", "100"]
    assert doc["count"] == 2


def test_seeds_cap_exceeded_exits_2(capsys):
    code, _, err = run(capsys, "seeds", "--k", "2", "--n0", "30")
    assert code == 2
    assert "cap" in err


def test_seeds_k1_rejected(capsys):
    code, _, _ = run(capsys, "seeds", "--k", "1", "--n0", "0")
    assert code == 2


def test_seeds_deterministic(capsys):
    first = run(capsys, "seeds", "--k", "3", "--n0", "2")
    second = run(capsys, "seeds", "--k", "3", "--n0", "2")
    assert first == second


# ------------------------------------------------------------------- build

def test_build_plain_bitstring(capsys):
    code, out, _ = run(capsys, "build", "--k", "2", "--n0", "1", "--seed", "011",
                       "--limit", "10")
    assert code == 0
    assert out == "01100011111\n"


def test_build_csv(capsys):
    code, out, _ = run(capsys, "build", "--k", "2", "--n0", "1", "--seed", "011",
                       "--limit", "5", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 0
    assert rows[0] == ["n", "chi"]
    assert rows[1:] == [["0", "0"], ["1", "1"], ["2", "1"], ["3", "0"], ["4", "0"], ["5", "0"]]


def test_build_invalid_seed_exits_2(capsys):
    code, _, err = run(capsys, "build", "--k", "2", "--n0", "1", "--seed", "010",
                       "--limit", "10")
    assert code == 2
    assert "window identity" in err


# ------------------------------------------------------------------ verify

def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--k", "2", "--n0", "1", "--seed", "011",
                       "--limit", "2000")
    doc = json.loads(out)
    assert code == 0
    assert doc["passed"] is True
    assert doc["checks"]["structure"]["passed"] is True
    assert doc["checks"]["equality"]["violation_count"] == 0
    assert doc["checks"]["block_parity"]["passed"] is True


def test_verify_bad_seed_exits_1(capsys):
    code, out, _ = run(capsys, "verify", "--k", "2", "--n0", "1", "--seed", "010",
                       "--limit", "200")
    doc = json.loads(out)
    assert code == 1
    assert doc["passed"] is False
    # the window identity fails at n=2 for seed 010
    assert 2 in doc["checks"]["structure"]["window_violations"]


def test_verify_csv_rows(capsys):
    code, out, _ = run(capsys, "verify", "--k", "2", "--n0", "1", "--seed", "011",
                       "--limit", "50", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 0
    assert rows[0] == ["n", "R_A", "R_comp", "equal"]
    assert [int(r[0]) for r in rows[1:]] == list(range(1, 51))  # scan starts at n0
    # recount both sides with the naive counter, independently of the kernel
    chi = ChiTable([int(c) for c in _build_bits(capsys, 50)], 2, 1)
    w = WeightPair(1, 2)
    for n, r_a, r_comp, equal in (map(int, r) for r in rows[1:]):
        assert r_a == rep_count_weighted(chi, SET, w, n)
        assert r_comp == rep_count_weighted(chi, COMPLEMENT, w, n)
        assert (r_a == r_comp) == (equal == 1)


# -------------------------------------------------------------- scan-bound

def test_scan_bound_json_roundtrip(capsys):
    code, out, _ = run(capsys, "scan-bound", "--k", "2", "--n0", "1", "--seed", "011",
                       "--lo", "30", "--hi", "200")
    doc = json.loads(out)
    assert code == 0
    assert doc["passed"] is True and doc["violations"] == []
    assert doc["columns"] == ["n", "R_A", "R_comp", "bound", "ok"]
    # re-validate every claim in the report against the reference counter
    chi = ChiTable([int(c) for c in _build_bits(capsys, 200)], 2, 1)
    w = WeightPair(1, 2)
    for n, r_a, r_comp, bound, ok in doc["rows"]:
        assert rep_count_weighted(chi, SET, w, n) == r_a
        assert bound == guaranteed_bound(2, 1, n)
        assert ok == int(r_a >= bound and r_comp >= bound)


def _build_bits(capsys, limit):
    code, out, _ = run(capsys, "build", "--k", "2", "--n0", "1", "--seed", "011",
                       "--limit", str(limit))
    assert code == 0
    return out.strip()


def test_scan_bound_empty_range_exits_2(capsys):
    code, _, _ = run(capsys, "scan-bound", "--k", "2", "--n0", "1", "--seed", "011",
                     "--lo", "100", "--hi", "10")
    assert code == 2


def test_scan_bound_csv(capsys):
    code, out, err = run(capsys, "scan-bound", "--k", "2", "--n0", "1", "--seed", "011",
                         "--lo", "90", "--hi", "110", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 0
    assert rows[0] == ["n", "R_A", "R_comp", "bound", "ok"]
    by_n = {r[0]: r for r in rows[1:]}
    assert by_n["100"][3] == "1"  # B(100) = 1
    assert "min_ratio" in err


# ----------------------------------------------------------------- witness

def test_witness_spec_record(capsys):
    code, out, _ = run(capsys, "witness", "--k", "2", "--n0", "1", "--seed", "011",
                       "--n", "100")
    doc = json.loads(out)
    assert code == 0
    assert doc["records"] == [
        {"j": 1, "i": 4, "t": 2, "r": 4, "case": "case1", "s": None,
         "a1": 36, "a2": 32, "side": "set"}
    ]


def test_witness_no_admissible_j(capsys):
    code, out, _ = run(capsys, "witness", "--k", "2", "--n0", "1", "--seed", "011",
                       "--n", "2")
    doc = json.loads(out)
    assert code == 0
    assert doc["records"] == [] and doc["skipped"] == []


def test_witness_below_threshold_reported_not_error(capsys):
    # the table is built exactly to n, the tightest legal prefix
    code, out, _ = run(capsys, "witness", "--k", "2", "--n0", "1", "--seed", "011",
                       "--n", "10")
    doc = json.loads(out)
    assert code == 0
    assert doc["records"] == []
    assert doc["skipped"] == [{"j": 1, "reason": "below-witness-threshold"}]


def test_witness_distinct_a2(capsys):
    code, out, _ = run(capsys, "witness", "--k", "2", "--n0", "1", "--seed", "011",
                       "--n", "100000")
    doc = json.loads(out)
    assert code == 0
    a2s = [r["a2"] for r in doc["records"]]
    assert len(set(a2s)) == len(a2s)
    assert len(doc["records"]) >= doc["guaranteed_bound"]


# ------------------------------------------------------------------ search

def test_search_unsat_json(capsys):
    code, out, _ = run(capsys, "search", "--k1", "2", "--k2", "3", "--n0", "0",
                       "--cap", "64")
    doc = json.loads(out)
    assert code == 0
    assert doc["status"] == "unsat"
    assert doc["unsat_depth"] is not None and doc["unsat_depth"] <= 64
    assert doc["nodes"] > 0 and doc["certificate"] is None


def test_search_cap_below_refutation_depth_inconclusive(capsys):
    """(2, 5) at n0 = 32 is refuted at 113 bits; a 64-bit cap proves nothing."""
    code, out, _ = run(capsys, "search", "--k1", "2", "--k2", "5", "--n0", "32",
                       "--cap", "64")
    doc = json.loads(out)
    assert code == 0
    assert doc["status"] == "inconclusive" and doc["unsat_depth"] is None
    cert = doc["certificate"]
    assert len(cert) == 64 and set(cert) <= {"0", "1"}
    assert validate_certificate([int(c) for c in cert], WeightPair(2, 5), 32)


def test_search_gcd_precondition(capsys):
    code, _, err = run(capsys, "search", "--k1", "2", "--k2", "4", "--n0", "0",
                       "--cap", "64")
    assert code == 2
    assert "coprime" in err


def test_search_k1_one_rejected(capsys):
    code, _, _ = run(capsys, "search", "--k1", "1", "--k2", "2", "--n0", "0",
                     "--cap", "64")
    assert code == 2


# ----------------------------------------------------------------- classic

def test_classic_rows(capsys):
    code, out, _ = run(capsys, "classic", "--k", "2", "--n0", "1", "--seed", "011",
                       "--limit", "20", "--lo", "0", "--hi", "10", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 0
    assert rows[0] == ["n", "r1_set", "r2_set", "r3_set", "r1_comp", "r2_comp", "r3_comp"]
    by_n = {r[0]: list(map(int, r[1:])) for r in rows[1:]}
    # A on [0, 10] is {1, 2, 6, 7, 8, 9, 10}: 3 = 1+2 = 2+1 only
    assert by_n["3"][:3] == [2, 1, 1]


def test_classic_negative_lo_exits_2(capsys):
    code, out, err = run(capsys, "classic", "--k", "2", "--n0", "1", "--seed", "011",
                         "--limit", "20", "--lo", "-5", "--hi", "10")
    assert code == 2 and out == ""
    assert "n must be nonnegative" in err


# ------------------------------------------------------------------- misc

def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "seeds.txt"
    code, out, _ = run(capsys, "seeds", "--k", "2", "--n0", "1", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "011\n100\n"


def test_plain_format_rejected_elsewhere(capsys):
    code, _, err = run(capsys, "verify", "--k", "2", "--n0", "1", "--seed", "011",
                       "--limit", "100", "--format", "plain")
    assert code == 2
    code, out, err = run(capsys, "search", "--k1", "2", "--k2", "3", "--n0", "0",
                         "--cap", "64", "--format", "csv")
    assert code == 2 and out == ""
    assert err == "error: --format csv is not supported by search\n"


@pytest.mark.parametrize("command", ["witness", "verify"])
def test_oversized_table_exits_2(capsys, command):
    """A table that cannot be allocated is a usage error, not a failed claim;
    numpy refuses 10**15 bytes before touching any memory."""
    size = "--n" if command == "witness" else "--limit"
    code, out, err = run(capsys, command, "--k", "2", "--n0", "1", "--seed", "011",
                         size, str(10**15))
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "repfn", "seeds", "--k", "2", "--n0", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "011\n100\n"


def test_missing_required_flag_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "repfn", "seeds", "--k", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
