import csv
import io
import json
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from repfn import COMPLEMENT, SET, ChiTable, WeightPair, guaranteed_bound, validate_certificate
from repfn import bounds, cli, partitions
from repfn.cli import CHUNK, build_parser, main
from oracles import chi_recursive, rep_count_weighted


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


def test_seeds_empty_census(capsys):
    """k = 2, n0 = 0 has no seed: json lists none, csv is the header alone
    and plain prints nothing."""
    assert partitions.enumerate_seeds(2, 0).shape == (0, 2)
    base = ["seeds", "--k", "2", "--n0", "0", "--format"]
    code, out, err = run(capsys, *base, "json")
    doc = {"schema": 1, "command": "seeds", "k": 2, "n0": 0, "count": 0, "seeds": []}
    assert (code, out) == (0, json.dumps(doc, indent=2) + "\n")
    assert err == "0 valid seed(s) for k=2, n0=0\n"
    header = io.StringIO()
    csv.writer(header).writerow(["seed"])
    assert run(capsys, *base, "csv")[:2] == (0, header.getvalue())
    assert run(capsys, *base, "plain")[:2] == (0, "")


def _check_seeds_against_stdlib(capsys, k, n0):
    """json, csv and plain output of a census, written from the census
    array through row templates, are byte for byte those of
    json.dumps(indent=2), csv.writer and one line per seed."""
    seeds = ["".join(map(str, row)) for row in partitions.enumerate_seeds(k, n0).tolist()]
    base = ["seeds", "--k", str(k), "--n0", str(n0), "--format"]
    doc = {"schema": 1, "command": "seeds", "k": k, "n0": n0, "count": len(seeds), "seeds": seeds}
    assert run(capsys, *base, "json")[:2] == (0, json.dumps(doc, indent=2) + "\n")
    table = io.StringIO()
    csv.writer(table).writerows([["seed"], *([s] for s in seeds)])
    assert run(capsys, *base, "csv")[:2] == (0, table.getvalue())
    assert run(capsys, *base, "plain")[:2] == (0, "".join(s + "\n" for s in seeds))
    return seeds


@pytest.mark.parametrize("k,n0", [(2, 1), (3, 2), (7, 17)])
def test_seeds_bytes_match_stdlib_encoders(capsys, k, n0):
    assert _check_seeds_against_stdlib(capsys, k, n0)


@pytest.mark.parametrize("k,n0,count", [(2, 0, 0), (3, 4, 6), (4, 4, 8), (2, 5, 10),
                                        (5, 5, 16), (2, 6, 18)])
def test_seeds_match_stdlib_across_chunks(capsys, monkeypatch, k, n0, count):
    """With an 8-row chunk, censuses of none, one short of, exactly and
    past one and two chunks keep the bytes of the stdlib encoders: json
    drops the separator of the first seed only."""
    monkeypatch.setattr(cli, "CHUNK", 8)
    assert len(_check_seeds_against_stdlib(capsys, k, n0)) == count


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_seeds_peak_is_the_census(tmp_path, fmt):
    """Writing a census adds at most 1 MiB of traced memory to the peak of
    building it: the text goes out CHUNK seeds at a time."""
    main(["seeds", "--k", "2", "--n0", "3", "--out", str(tmp_path / "warm")])
    tracemalloc.start()
    try:
        partitions.enumerate_seeds(3, 21)
        census = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    argv = ["seeds", "--k", "3", "--n0", "21", "--format", fmt, "--out", str(tmp_path / "seeds")]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= census + 2**20, (peak, census)


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


@pytest.mark.parametrize("chunk", [8, CHUNK])
@pytest.mark.parametrize("k,n0,seed", [(2, 1, "011"), (5, 3, "01011101")])
def test_build_bytes_match_stdlib_encoders(capsys, monkeypatch, chunk, k, n0, seed):
    """build's json, plain and csv bytes, at the smallest limit k + n0 - 1
    and at 50, are those of json.dumps(indent=2), the bit string and a
    newline, and csv.writer, with the bits from the recursive flip-rule
    oracle; with an 8-row chunk the csv table spans several chunks."""
    monkeypatch.setattr(cli, "CHUNK", chunk)
    for limit in (k + n0 - 1, 50):
        bits = "".join(str(chi_recursive(seed, k, n0, n)) for n in range(limit + 1))
        base = ["build", "--k", str(k), "--n0", str(n0), "--seed", seed, "--limit", str(limit)]
        doc = {"schema": 1, "command": "build", "k": k, "n0": n0, "seed": seed, "limit": limit,
               "bits": bits}
        assert run(capsys, *base, "--format", "json") == (0, json.dumps(doc, indent=2) + "\n", "")
        assert run(capsys, *base, "--format", "plain") == (0, bits + "\n", "")
        expected_csv = _stdlib_csv(["n", "chi"], enumerate(bits))
        assert run(capsys, *base, "--format", "csv") == (0, expected_csv, "")


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
    chi = ChiTable([int(c) for c in _build_bits(capsys, 50)])
    w = WeightPair(1, 2)
    for n, r_a, r_comp, equal in (map(int, r) for r in rows[1:]):
        assert r_a == rep_count_weighted(chi, SET, w, n)
        assert r_comp == rep_count_weighted(chi, COMPLEMENT, w, n)
        assert (r_a == r_comp) == (equal == 1)


def test_verify_csv_of_non_seed(capsys, tmp_path):
    """010 fails the identity, so D != 0: the R_comp column, formed over D's
    buffer, and the equal flags still match the naive counter on both
    sides.  At N = 2 * 10**5 the csv command peaks under 32 bytes per n;
    holding D (8 bytes per n) beside R_comp took it to 36."""
    code, out, _ = run(capsys, "verify", "--k", "2", "--n0", "1", "--seed", "010",
                       "--limit", "60", "--format", "csv")
    rows = [list(map(int, r)) for r in list(csv.reader(io.StringIO(out)))[1:]]
    assert code == 1
    chi = partitions.extend_seed(partitions.SeedAssignment.from_string(2, 1, "010"), 60,
                                 require_valid=False)
    w = WeightPair(1, 2)
    expected = [
        [n, r_a := rep_count_weighted(chi, SET, w, n), r_c := rep_count_weighted(chi, COMPLEMENT, w, n),
         int(r_a == r_c)]
        for n in range(1, 61)
    ]
    assert rows == expected
    assert any(not equal for *_, equal in rows)
    n = 200_000
    argv = ["verify", "--k", "2", "--n0", "1", "--seed", "010", "--limit", str(n),
            "--format", "csv", "--out", str(tmp_path / "table")]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert peak < 32 * (n + 1), peak / (n + 1)


def test_verify_json_runs_no_counting_kernel(capsys, monkeypatch):
    """JSON verify decides equality from D alone: with the counting kernel
    made to raise, its documents and exit codes are those of an unpatched
    run, on a valid seed and on the corrupted 01111.  The csv table reads
    R_A, so it still reaches the kernel."""
    argvs = [
        ["verify", "--k", "2", "--n0", "1", "--seed", "011", "--limit", "2000"],
        ["verify", "--k", "3", "--n0", "2", "--seed", "01111", "--limit", "2000"],
    ]
    expected = [run(capsys, *argv) for argv in argvs]
    assert [code for code, _, _ in expected] == [0, 1]

    def no_kernel(*args, **kwargs):
        raise AssertionError("the counting kernel ran")

    monkeypatch.setattr(partitions, "rep_values", no_kernel)
    assert [run(capsys, *argv) for argv in argvs] == expected
    with pytest.raises(AssertionError, match="counting kernel"):
        main([*argvs[0], "--format", "csv"])


def test_verify_with_k_beyond_the_limit(capsys):
    """verify with k**4 far above the limit (60**4 = 12960000 against 200)
    reports on [0, 200] and allocates a few pages, not k**i bytes."""
    argv = ["verify", "--k", "60", "--n0", "0", "--seed", "0" + "1" * 59, "--limit", "200"]
    run(capsys, *argv)  # imports and first-call caches stay out of the peak
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    doc = json.loads(out)
    assert code == 1 and doc["limit"] == 200
    # only i = 1 has bases at or over the threshold 2: cells 120..200
    assert doc["checks"]["block_parity"]["checked"] == 81
    assert peak < 2**16


# -------------------------------------------------------------- scan-bound

def test_scan_bound_json_roundtrip(capsys):
    code, out, _ = run(capsys, "scan-bound", "--k", "2", "--n0", "1", "--seed", "011",
                       "--lo", "30", "--hi", "200")
    doc = json.loads(out)
    assert code == 0
    assert out == json.dumps(doc, indent=2) + "\n"
    assert list(doc) == [
        "schema", "command", "seed", "kind", "k", "n0", "lo", "hi", "step",
        "passed", "violations", "min_ratio", "columns", "rows",
    ]
    assert doc["passed"] is True and doc["violations"] == []
    assert doc["columns"] == ["n", "R_A", "R_comp", "bound", "ok"]
    # re-validate every claim in the report against the reference counter
    chi = ChiTable([int(c) for c in _build_bits(capsys, 200)])
    w = WeightPair(1, 2)
    for n, r_a, r_comp, bound, ok in doc["rows"]:
        assert rep_count_weighted(chi, SET, w, n) == r_a
        assert bound == guaranteed_bound(2, 1, n)
        assert ok == int(r_a >= bound and r_comp >= bound)


def _stdlib_csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _build_bits(capsys, limit):
    code, out, _ = run(capsys, "build", "--k", "2", "--n0", "1", "--seed", "011",
                       "--limit", str(limit))
    assert code == 0
    return out.strip()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_scan_bound_negative_lo_exits_2_before_allocating(capsys, monkeypatch, fmt):
    def no_table(*args, **kwargs):
        raise AssertionError("the table was built")

    monkeypatch.setattr(partitions, "extend_seed", no_table)
    code, out, err = run(capsys, "scan-bound", "--k", "2", "--n0", "1", "--seed", "011",
                         "--lo", "-5", "--hi", "10", "--format", fmt)
    assert (code, out, err) == (2, "", "error: need 0 <= lo <= hi, got [-5, 10]\n")


def test_scan_bound_empty_range_exits_2(capsys):
    code, _, _ = run(capsys, "scan-bound", "--k", "2", "--n0", "1", "--seed", "011",
                     "--lo", "100", "--hi", "10")
    assert code == 2


def test_scan_bound_csv(capsys):
    code, out, err = run(capsys, "scan-bound", "--k", "2", "--n0", "1", "--seed", "011",
                         "--lo", "90", "--hi", "110", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 0
    assert out == _stdlib_csv(rows[0], rows[1:])
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
    # at n = 10 the only admissible j has i = 0, where no small element fits
    code, out, _ = run(capsys, "witness", "--k", "2", "--n0", "1", "--seed", "011",
                       "--n", "10")
    doc = json.loads(out)
    assert code == 0
    assert doc["records"] == []
    assert doc["skipped"] == [{"j": 1, "reason": "below-witness-threshold"}]


def test_witness_at_its_smallest_n_has_a_bound(capsys):
    """No seed has n0 = 0 (its one solution of n = 0, (0, 0), would need
    2 * chi(0) = 1), so witness's smallest n, k + n0 - 1, is never below the
    chain threshold T = n0 // k + 2: there, for every census seed with
    k + n0 <= 10, witness exits 0 with the bound floor(log_k(n / T)) // 4."""
    for k in range(2, 8):
        assert len(partitions.enumerate_seeds(k, 0)) == 0, k
    for k in range(2, 10):
        for n0 in range(1, 11 - k):
            t0, n = n0 // k + 2, k + n0 - 1
            assert t0 <= n, (k, n0)
            level = max(e for e in range(n.bit_length()) if k**e * t0 <= n)
            for bits in partitions.enumerate_seeds(k, n0):
                seed = "".join(map(str, bits.tolist()))
                code, out, _ = run(capsys, "witness", "--k", str(k), "--n0", str(n0),
                                   "--seed", seed, "--n", str(n))
                assert code == 0, (k, n0, seed)
                assert json.loads(out)["guaranteed_bound"] == level // 4, (k, n0, seed)


@pytest.mark.parametrize("k, n0, seed, n, message", [
    ("2", "1", "011", "1", "error: limit must cover the seed window [0, 2], got 1\n"),
    ("2", "1", "011", "-5", "error: limit must cover the seed window [0, 2], got -5\n"),
    ("3", "2", "01111", "100", "error: seed 01111 fails the window identity\n"),
])
def test_witness_rejects_short_n_and_invalid_seed(capsys, k, n0, seed, n, message):
    """witness builds no table but keeps the preconditions of one to n."""
    code, out, err = run(capsys, "witness", "--k", k, "--n0", n0, "--seed", seed, "--n", n)
    assert (code, out, err) == (2, "", message)


def test_witness_distinct_a2(capsys):
    code, out, _ = run(capsys, "witness", "--k", "2", "--n0", "1", "--seed", "011",
                       "--n", "100000")
    doc = json.loads(out)
    assert code == 0
    a2s = [r["a2"] for r in doc["records"]]
    assert len(set(a2s)) == len(a2s)
    assert len(doc["records"]) >= doc["guaranteed_bound"]


def test_witness_claim_failure_exits_1(capsys, monkeypatch):
    """A membership that breaks block parity is a failed claim, not a usage
    error: exit 1, no data, and the NoWitness message on stderr."""
    monkeypatch.setattr(partitions.SeedAssignment, "value", lambda self, n: n & 1)
    code, out, err = run(capsys, "witness", "--k", "2", "--n0", "1", "--seed", "011",
                         "--n", "100000")
    assert (code, out) == (1, "")
    assert err.startswith("claim failure: blocks disagree"), err


@pytest.mark.parametrize("k, n0, seed, n", [
    ("2", "1", "011", 10**100),
    ("3", "2", "01110", 10**100),
    ("5", "3", "01011101", 10**100),
    ("2", "1", "011", 286),  # one case2 record; the other j finds its small element taken
], ids=["011-1e100", "01110-1e100", "01011101-1e100", "011-286"])
def test_witness_csv_rows_are_the_json_records(capsys, k, n0, seed, n):
    """The csv header is WitnessRecord._fields, the json record's keys, and
    each row is that record's values in order, with s empty for case1."""
    argv = ["witness", "--k", k, "--n0", n0, "--seed", seed, "--n", str(n)]
    records = json.loads(run(capsys, *argv)[1])["records"]
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert (code, err) == (0, "")
    header, *rows = csv.reader(io.StringIO(out))
    assert records and header == list(bounds.WitnessRecord._fields) == list(records[0])
    assert all((r["s"] is None) == (r["case"] == "case1") for r in records)
    assert rows == [["" if v is None else str(v) for v in r.values()] for r in records]


# ------------------------------------------------------------------ search

def test_search_unsat_json(capsys):
    code, out, _ = run(capsys, "search", "--k1", "2", "--k2", "3", "--n0", "0",
                       "--cap", "64")
    doc = json.loads(out)
    assert code == 0
    assert doc["status"] == "unsat"
    assert doc["unsat_depth"] is not None and doc["unsat_depth"] <= 64
    assert doc["nodes"] > 0 and doc["certificate"] is None


@pytest.mark.parametrize("n0", ["41", "44"])
def test_search_decides_past_five_million_nodes(capsys, n0):
    """(2, 3) at n0 = 41 and 44 counts 5.1 and 17.7 million depth-first
    nodes, which a cap of 5,000,000 on that count called inconclusive; the
    search decides both, refuted at 68 bits."""
    code, out, _ = run(capsys, "search", "--k1", "2", "--k2", "3", "--n0", n0,
                       "--cap", "256")
    doc = json.loads(out)
    assert code == 0
    assert doc["status"] == "unsat" and doc["unsat_depth"] == 68
    assert doc["nodes"] > 5_000_000 and doc["certificate"] is None


def test_search_stdout_is_deterministic(capsys):
    """The search's own wall time goes to stderr, so stdout repeats byte for
    byte across runs."""
    argv = ["search", "--k1", "2", "--k2", "5", "--n0", "8", "--cap", "64"]
    runs = [run(capsys, *argv) for _ in range(2)]
    assert runs[0][1] == runs[1][1] and "wall_time_s" not in runs[0][1]
    for code, _, err in runs:
        assert code == 0
        assert re.fullmatch(r"search: unsat in \d+\.\d{6} s\n", err), err


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
    code, out_json, _ = run(capsys, "classic", "--k", "2", "--n0", "1", "--seed", "011",
                            "--limit", "20", "--lo", "0", "--hi", "10")
    doc = json.loads(out_json)
    assert out_json == json.dumps(doc, indent=2) + "\n"
    # not the flags of classic's row: deriving it would change the schema
    assert list(doc) == ["schema", "command", "k", "n0", "seed", "columns", "rows"]
    assert doc["columns"] == rows[0]
    assert doc["rows"] == [list(map(int, r)) for r in rows[1:]]


def test_classic_negative_lo_exits_2(capsys):
    code, out, err = run(capsys, "classic", "--k", "2", "--n0", "1", "--seed", "011",
                         "--limit", "20", "--lo", "-5", "--hi", "10")
    assert code == 2 and out == ""
    assert "n must be nonnegative" in err


@pytest.mark.parametrize("limit, lo, hi, message", [
    ("20", "0", "30", "error: hi=30 exceeds limit=20\n"),
    ("20", "15", "10", "error: empty range: lo=15 > hi=10\n"),
])
def test_classic_range_errors_exit_2(capsys, limit, lo, hi, message):
    code, out, err = run(capsys, "classic", "--k", "2", "--n0", "1", "--seed", "011",
                         "--limit", limit, "--lo", lo, "--hi", hi)
    assert (code, out, err) == (2, "", message)


# ------------------------------------------------------------------- heads

_SEED_011 = ["--k", "2", "--n0", "1", "--seed", "011"]


@pytest.mark.parametrize("argv, keys", [
    (["seeds", "--k", "2", "--n0", "1"], ["k", "n0", "count", "seeds"]),
    (["build", *_SEED_011, "--limit", "20"], ["k", "n0", "seed", "limit", "bits"]),
    (["verify", *_SEED_011, "--limit", "200"], ["k", "n0", "seed", "limit", "passed", "checks"]),
    (["witness", *_SEED_011, "--n", "100"],
     ["k", "n0", "seed", "n", "guaranteed_bound", "records", "skipped"]),
    (["search", "--k1", "2", "--k2", "3", "--n0", "0", "--cap", "64"],
     ["k1", "k2", "n0", "cap", "status", "unsat_depth", "nodes", "certificate"]),
], ids=["seeds", "build", "verify", "witness", "search"])
def test_json_head_is_the_command_row(capsys, argv, keys):
    """A command's JSON document begins with schema, command and the flags
    of its _COMMANDS row in row order, each as given on the command line."""
    code, out, _ = run(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    flags = list(cli._COMMANDS[argv[0]][2])
    assert code == 0
    assert list(doc) == ["schema", "command", *keys]
    assert keys[: len(flags)] == flags
    given = dict(zip(argv[1::2], argv[2::2]))
    assert (doc["schema"], doc["command"]) == (1, argv[0])
    assert [str(doc[flag]) for flag in flags] == [given[f"--{flag}"] for flag in flags]


# ------------------------------------------------------------ table writer

def _writer_table(nrows, ncols):
    """Values from 0 to beyond 32 bits, with 0 and int64 max."""
    rng = np.random.default_rng(nrows * 8 + ncols)
    table = rng.integers(0, 2**41, size=(nrows, ncols), dtype=np.int64)
    table[: (nrows + 1) // 2, ::2] //= 2**20  # short numbers too
    if nrows:
        table[0, 0] = 0
        table[-1, -1] = np.iinfo(np.int64).max
        table[nrows // 2, ncols // 2] = 2**31
    return table


def _check_writer_against_stdlib(capsys, tmp_path, cols):
    """csv and json bytes, on stdout and through --out, equal the stdlib's."""
    columns = [f"c{i}" for i in range(len(cols))]
    rows = [[int(v) for v in row] for row in zip(*cols)]
    head = {"schema": 1, "command": "table", "seed": "011", "nested": {"a": [1, None]}}
    expected_json = json.dumps({**head, "columns": columns, "rows": rows}, indent=2)
    for doc, expected in ((None, _stdlib_csv(columns, rows)), (head, expected_json + "\n")):
        cli._emit_table(columns, cols, sys.stdout, doc)
        assert capsys.readouterr().out == expected
        target = tmp_path / "table.out"
        with cli._open_out(str(target)) as out:
            cli._emit_table(columns, cols, out, doc)
        assert target.read_bytes() == expected.encode()


@pytest.mark.parametrize("ncols", range(1, 8))
@pytest.mark.parametrize("nrows", [0, 1, 2, 7, 8, 9, 17])
def test_emit_table_matches_stdlib_across_chunks(capsys, tmp_path, monkeypatch, nrows, ncols):
    """With an 8-row chunk every table size meets the chunk boundaries."""
    monkeypatch.setattr(cli, "CHUNK", 8)
    _check_writer_against_stdlib(capsys, tmp_path, _writer_table(nrows, ncols).T)


@pytest.mark.parametrize("ncols", [1, 5, 7])
@pytest.mark.parametrize("nrows", [m * CHUNK + d for m in (1, 4) for d in (-1, 0, 1)])
def test_emit_table_matches_stdlib_at_chunk_size(capsys, tmp_path, nrows, ncols):
    """One row short of, exactly at and one row past one and four chunks."""
    _check_writer_against_stdlib(capsys, tmp_path, _writer_table(nrows, ncols).T)


@pytest.mark.parametrize(
    "col",
    [
        np.array([True, False, False, True, True]),
        np.array([0, 1, 9, 10, 99, 100, 255], dtype=np.uint8),
        # one chunk holds 1- to 19-digit numbers
        np.array([0, 7, 70, 10, 99, 12345, 10**18, 10**18 - 1, 999, 10**9], dtype=np.int64),
        np.zeros(11, dtype=np.int64),
        np.array([1, 127, 0, 100], dtype=np.int8),
        # each side of a four-digit lane boundary, one and several lanes up
        np.array([9999, 10**4, 10**8 - 1, 10**8, 10**16 - 1, 10**16, 0, 10**4 - 1, 10**8], dtype=np.int64),
        # 19 digits fill four whole lanes and three digits over; int64 max among them
        np.array([10**18 + 1, 10**18 - 1, 10**18, np.iinfo(np.int64).max,
                  2 * 10**18 + 1, 9 * 10**18 + 1234567890, 7, 10**15 + 1], dtype=np.int64),
        # uniform 8-row chunks of 1, 4, 5, 8, 9 and 19 digits, that take no
        # NUL pass, then a chunk of mixed widths
        np.concatenate([np.full(8, v) for v in (7, 1000, 10**4, 10**7, 10**8, 10**18)]
                       + [np.arange(0, 8) * 10**5 + 9999]).astype(np.int64),
    ],
    ids=["bool", "uint8", "widths-in-one-chunk", "all-zero", "int8", "lane-boundaries",
         "19-digit-lanes", "uniform-chunks"],
)
def test_emit_table_column_kinds(capsys, tmp_path, monkeypatch, col):
    """Columns of other dtypes and widths, alone and next to an int64 column
    of mixed widths, in chunks of 8 and of CHUNK rows."""
    for chunk in (8, CHUNK):
        monkeypatch.setattr(cli, "CHUNK", chunk)
        _check_writer_against_stdlib(capsys, tmp_path, [col])
        _check_writer_against_stdlib(capsys, tmp_path, [np.arange(len(col)) * 7, col])


@pytest.mark.parametrize(
    "col",
    [
        np.array([3, 0, -1, 10**6], dtype=np.int64),
        np.array([-1, -5, -(10**4), -(10**12)], dtype=np.int64),
        np.array([np.iinfo(np.int64).min, 0], dtype=np.int64),
    ],
    ids=["one-negative", "all-negative", "int64-min"],
)
def test_emit_table_rejects_negative_column(col):
    """No command writes a negative value, so the writer refuses one."""
    with pytest.raises(ValueError, match="nonnegative"):
        cli._emit_table(["n", "v"], (np.arange(len(col)), col), io.StringIO())


def test_digit_lanes_spell_every_group():
    """Each lane is four bytes, most significant digit first: every digit,
    leading zeros as NUL, and that with 0 as nothing at all."""
    lanes = cli._digit_lanes()
    assert lanes.dtype == np.dtype("<u4") and lanes.shape == (3 * cli.LANE,)
    text = lanes.tobytes().decode("ascii")
    spelled = [text[4 * i : 4 * i + 4] for i in range(3 * cli.LANE)]
    assert spelled[: cli.LANE] == [f"{x:04d}" for x in range(cli.LANE)]
    assert spelled[cli.LANE : 2 * cli.LANE] == [str(x).rjust(4, "\0") for x in range(cli.LANE)]
    assert spelled[2 * cli.LANE :] == ["\0" * 4] + spelled[cli.LANE + 1 : 2 * cli.LANE]


def test_emit_table_rows_must_be_last_key():
    out = io.StringIO()
    doc = {"schema": 1, "rows": None, "command": "table"}
    with pytest.raises(ValueError, match="last key"):
        cli._emit_table(["n"], np.zeros((3, 1), dtype=np.int64).T, out, doc)
    assert out.getvalue() == ""


# ------------------------------------------------------------------ memory

_TABLE_COMMANDS = ("build", "classic", "scan-bound", "verify")


def _table_argv(command, n):
    """A table command over [0, n] for the seed 011."""
    sizes = {
        "build": ["--limit", n],
        "verify": ["--limit", n],
        "scan-bound": ["--lo", "0", "--hi", n],
        "classic": ["--limit", n, "--lo", "0", "--hi", n],
    }
    return [command, "--k", "2", "--n0", "1", "--seed", "011", *sizes[command]]


@pytest.mark.parametrize("command", _TABLE_COMMANDS)
def test_table_beyond_memory_exits_2_before_allocating(capsys, monkeypatch, command):
    def no_table(*args, **kwargs):
        raise AssertionError("the table was built")

    monkeypatch.setattr(cli, "_memory_limit", lambda: 2**13)
    monkeypatch.setattr(partitions, "extend_seed", no_table)
    code, out, err = run(capsys, *_table_argv(command, "1000"))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {command} --") and "needs about" in err and "GiB" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", _TABLE_COMMANDS)
def test_table_peak_within_memory_estimate(capsys, tmp_path, command, fmt):
    """The estimate the memory guard checks before allocating bounds the
    traced peak of the whole command, from the seed to the last chunk."""
    n = 200_000
    argv = [*_table_argv(command, str(n)), "--format", fmt, "--out", str(tmp_path / "table")]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= cli._bytes_per_n(command, fmt) * (n + 1), peak / (n + 1)


@pytest.mark.parametrize("n0,cap", [(1000, 10**6), (10**6, 1000)], ids=["n0", "cap"])
def test_search_beyond_memory_exits_2_before_searching(capsys, monkeypatch, n0, cap):
    """The search's frontier grows with its free bits, min(n0 // k1, cap):
    either option alone can make it too large."""
    def no_search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(cli, "_memory_limit", lambda: 2**20)
    monkeypatch.setattr(bounds, "prefix_search", no_search)
    code, out, err = run(capsys, "search", "--k1", "2", "--k2", "3",
                         "--n0", str(n0), "--cap", str(cap))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: search --n0 {n0} --cap {cap} needs about") and "GiB" in err


def test_verify_memory_guard_is_per_format(capsys, monkeypatch):
    """json verify counts nothing, so its estimate is below csv's: with the
    memory between the two, json runs and csv is refused."""
    n = 100_000
    need = {fmt: cli._bytes_per_n("verify", fmt) * (n + 1) for fmt in ("json", "csv")}
    assert need["json"] < need["csv"]
    monkeypatch.setattr(cli, "_memory_limit", lambda: (need["json"] + need["csv"]) // 2)
    argv = ["verify", "--k", "2", "--n0", "1", "--seed", "011", "--limit", str(n), "--format"]
    code, out, _ = run(capsys, *argv, "json")
    assert code == 0 and json.loads(out)["passed"]
    code, out, err = run(capsys, *argv, "csv")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: verify --limit {n} needs about"), err


def test_memory_limit_honours_rlimit_as(monkeypatch):
    physical = cli._memory_limit()
    monkeypatch.setattr(cli.resource, "getrlimit", lambda which: (2**20, cli.resource.RLIM_INFINITY))
    assert cli._memory_limit() == min(physical, 2**20)


# ------------------------------------------------------------------- misc

def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "seeds.txt"
    code, out, _ = run(capsys, "seeds", "--k", "2", "--n0", "1", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "011\n100\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "--k", "2", "--n0", "1", "--seed", "011", "--n", "1000"],
        ["verify", "--k", "2", "--n0", "1", "--seed", "011", "--limit", "100", "--format", "csv"],
        ["seeds", "--k", "2", "--n0", "1"],
        ["verify", "--k", "2", "--n0", "1", "--seed", "011", "--limit", "100"],
    ],
    ids=["json", "table", "plain", "before-work"],
)
def test_out_in_missing_directory_exits_2(tmp_path, capsys, monkeypatch, argv):
    """An --out path that cannot be opened is a usage error (exit 2), not a
    failed claim (exit 1) and not a traceback; it is opened before the
    command builds anything."""
    def no_table(*args, **kwargs):
        raise AssertionError("the table was built")

    monkeypatch.setattr(partitions, "extend_seed", no_table)
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: cannot open --out {target}: No such file or directory\n"
    assert not target.parent.exists()


def test_error_after_open_leaves_empty_out_file(tmp_path, capsys):
    """--out is opened before the work, so a refused request leaves an empty
    file behind, as a shell redirection would."""
    target = tmp_path / "out.json"
    code, out, err = run(capsys, "build", "--k", "2", "--n0", "1", "--seed", "010",
                         "--limit", "100", "--out", str(target))
    assert (code, out) == (2, "") and err.startswith("error: ")
    assert target.read_bytes() == b""


def test_plain_format_rejected_elsewhere(capsys):
    """Every (command, format) pair outside the command's formats exits 2
    before any work, with empty stdout and one line naming the pair."""
    seed = ["--k", "2", "--n0", "1", "--seed", "011"]
    search = ["--k1", "2", "--k2", "3", "--n0", "0", "--cap", "64"]
    for argv, fmt in [
        (["verify", *seed, "--limit", "100"], "plain"),
        (["scan-bound", *seed, "--lo", "0", "--hi", "100"], "plain"),
        (["witness", *seed, "--n", "100"], "plain"),
        (["classic", *seed, "--limit", "100", "--lo", "0", "--hi", "100"], "plain"),
        (["search", *search], "csv"),
        (["search", *search], "plain"),
    ]:
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, out, err) == (
            2, "", f"error: --format {fmt} is not supported by {argv[0]}\n"
        ), (argv[0], fmt)


@pytest.mark.parametrize("command", ["verify"])
def test_oversized_table_exits_2(capsys, command):
    """A table that cannot be allocated is a usage error, not a failed claim;
    the memory estimate refuses 10**15 entries before anything is allocated."""
    code, out, err = run(capsys, command, "--k", "2", "--n0", "1", "--seed", "011",
                         "--limit", str(10**15))
    assert code == 2 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("n", [10**15, 10**100], ids=["1e15", "1e100"])
def test_witness_at_huge_n_needs_no_table(capsys, monkeypatch, n):
    """witness reads the seed alone: no table is built, and every record is a
    representation on its side, checked by the recursive flip-rule oracle."""

    def no_table(*args, **kwargs):
        raise AssertionError("witness built a table")

    monkeypatch.setattr(partitions, "extend_seed", no_table)
    code, out, err = run(capsys, "witness", "--k", "2", "--n0", "1", "--seed", "011",
                         "--n", str(n))
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["records"] and len(doc["records"]) >= doc["guaranteed_bound"]
    a2s = [r["a2"] for r in doc["records"]]
    assert len(set(a2s)) == len(a2s)
    for r in doc["records"]:
        assert r["a1"] + 2 * r["a2"] == n
        bit = 1 if r["side"] == SET else 0
        assert chi_recursive("011", 2, 1, r["a1"]) == chi_recursive("011", 2, 1, r["a2"]) == bit


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


def test_one_parser_per_process_matches_fresh_processes(capsys, monkeypatch):
    """main reuses one parser for every call in a process; a witness, a seeds
    listing, an argparse error and the witness again each print exactly what
    a fresh ``python -m repfn`` prints."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to this width
    witness = ["witness", "--k", "3", "--n0", "2", "--seed", "01110", "--n", "100000"]
    missing_flag = ["witness", "--k", "2", "--n0", "1", "--n", "100"]
    codes = []
    for argv in (witness, ["seeds", "--k", "2", "--n0", "1"], missing_flag, witness):
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "repfn", *argv], capture_output=True, text=True
        )
        assert (codes[-1], captured.out, captured.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr
        ), argv
    assert codes == [0, 0, 2, 0]
    assert build_parser() is build_parser()
