#!/usr/bin/env python3
"""Compare the repfn CLI of two source trees, byte for byte.

Runs a fixed list of commands as ``python -m repfn ...`` once with
``PYTHONPATH=<base>/src`` and once with ``PYTHONPATH=<head>/src``, and
reports every command whose stdout, stderr, exit code or ``--out`` file
differs between the two.  Exit status 0 means every command matched.

    python3 scripts/cli_diff.py --base /path/to/old/checkout --head .

The list covers every per-n table (``scan-bound``, ``verify``, ``classic``
and ``build``, in json and csv), seed censuses in every format, empty and
of up to 379,494 seeds, the ``table`` and ``search`` benchmark ops, a corrupted seed, one-row ranges, ranges longer than one write chunk,
``scan-bound``, ``classic`` and ``verify`` over a million rows, ``verify``
over ten million in json and csv, ``build`` over ten million in json and
plain, ``scan-bound`` with a negative ``--lo``, ``verify`` on a non-seed with many
equality violations,
``verify`` with k**4 far above the limit, ``verify`` (json and csv),
``scan-bound`` and ``classic`` over 10**5 rows for the seed ``0 1^k`` at
n0 = 1 with k = 13 and k = 97, wide residue grids, ``verify`` at limits around
k**4 * T (T the chain threshold), where block parity's last power starts,
``--out``, an ``--out`` in a missing directory, ``--help`` and each
subcommand's ``--help``, no subcommand, an unknown command, a command
missing flags, one unsupported ``--format`` for each command that lacks
one, ``classic``'s two range errors and a few other usage errors.
``witness`` runs in json and csv at n = 10**5 for one seed, at 10**100 for
every seed, at 10**1000 for k = 2 and k = 5, at 286, where a small element
is shared across j, at 10, below the witness threshold, and at 10**7 and
10**100 for the seed ``0 1^k`` at n0 = 1 with k = 13 and k = 97; and in
json at 50 targets drawn log-uniform in [10**3, 10**7] by
``random.Random(0)``, one per equal slice of the exponent range, round-robin
over three seeds, as the ``point`` benchmark workload draws its queries.
``search`` runs the golden cases of ``tests/test_search.py`` and outcomes
of every kind: unsat, certificates ((2, 5, 32) at cap 64; (2, 5, 8), (2, 7, 10) and (2, 9, 12) one bit below
their refutation depth, where a window of few prefixes returns the
survivor from its per-prefix chains; and caps at or below n0 // k1, whose
prefixes of up to 8000 bits decide no n), refutations past 5,000,000
depth-first nodes ((2, 3, 41), (2, 3, 42), (2, 3, 44), (2, 5, 45), (3, 4, 62) and
(3, 5, 62)), starts n0 that k1 does not divide ((2, 3, 35), (3, 4, 31),
(2, 5, 33)) and free prefixes of 1 and 15 bits ((2, 3, 2), (2, 3, 30));
the censuses include 1, 15 and 16 free bits, and patterns of one and two
bits ((24, 0), (22, 2) and (12, 12)).  The search's stderr carries
the search's own wall time, so the seconds of its ``search: <status> in
<seconds> s`` line are masked on both sides before comparing; nothing else
is.  Requests refused for their
size are left out: their message names the memory they would need, which
is not a fixed string.
"""

from __future__ import annotations

import argparse
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

OUT = "{out}"  # replaced by a fresh file path on each side
MISSING = "{missing}"  # replaced by a path in a directory that does not exist

SEEDS = [("2", "1", "011"), ("3", "2", "01110"), ("5", "3", "01011101")]
# the valid seed 0 1^k at n0 = 1, where the kernels' (rows, k) grids of the
# residue classes mod k are wide: at 10**5 rows and k = 97, 1031 rows of 97
WIDE = [(str(k), "1", "0" + "1" * k) for k in (13, 97)]
CORRUPTED = ("3", "2", "01111")
# fails the window identity at n = 2, and equality at many n after it
NON_SEED = ("2", "1", "010")

# (k1, k2, n0, cap): the search benchmark ops, the golden cases, a deeper
# refutation, caps below the refutation depth (one bit below it for the
# narrow benchmark cases, whose survivor comes from the chains),
# refutations past 5,000,000 depth-first nodes, starts n0 that k1 does
# not divide, where bit n0 // k1 is branched on, and 1 and 15 free bits,
# where the searched half of the free prefixes is the single prefix 0 and
# exactly one block of 2**14.
# (2, 3, 41) and (2, 3, 42) pass 5,000,000 nodes only with the mirrored
# half counted; (2, 3, 44), (2, 5, 45), (3, 4, 62) and (3, 5, 62) pass it
# within the searched half.
SEARCHES = [
    (2, 3, 34, 256), (2, 5, 8, 256), (2, 5, 32, 256), (2, 7, 10, 256), (2, 9, 12, 256),
    (2, 3, 0, 64), (2, 5, 0, 64), (3, 4, 0, 64), (2, 3, 1, 64), (2, 5, 1, 64), (3, 4, 1, 64),
    (2, 5, 8, 64), (2, 7, 10, 64), (2, 9, 12, 64), (2, 3, 34, 64), (2, 5, 32, 128),
    (2, 3, 40, 256), (2, 5, 32, 64), (2, 5, 8, 17), (2, 7, 10, 31), (2, 9, 12, 49),
    (2, 3, 44, 256), (2, 3, 41, 256), (2, 3, 42, 256),
    (2, 3, 2000, 1000), (2, 3, 16000, 8000), (3, 4, 900, 300),
    (2, 3, 35, 256), (3, 4, 31, 256), (2, 5, 33, 256), (2, 3, 2, 64), (2, 3, 30, 256),
    (2, 5, 45, 256), (3, 4, 62, 256), (3, 5, 62, 256),
]
# (k, n0) of seed censuses: none at (2, 0), the benchmark's (7, 17), its
# neighbour (6, 16), 379,494 seeds at (2, 22), 1, 15 and 16 free bits,
# where the searched half is the single prefix 0, one block and two, and
# patterns of bits 0..top with top = 1 or 0, where most classes have no
# bit in the pattern: 2 seeds at (22, 2), 2048 at (12, 12), none at (24, 0)
CENSUSES = [
    (2, 0), (3, 2), (5, 3), (6, 4), (2, 22), (7, 17), (6, 16), (2, 1), (9, 15), (8, 16),
    (22, 2), (12, 12), (24, 0),
]
POINT_QUERIES = 50
WALL_TIME = re.compile(rb"(?m)^(search: \w+ in )[0-9.]+ s$")


def _seed(k: str, n0: str, s: str) -> list[str]:
    return ["--k", k, "--n0", n0, "--seed", s]


def commands() -> list[list[str]]:
    cmds: list[list[str]] = []
    # the table workload's ops, as perfbench/workloads.py runs them
    for seed in (*SEEDS, CORRUPTED):
        cmds.append(["verify", *_seed(*seed), "--limit", "100000"])
    cmds.append(["scan-bound", *_seed(*SEEDS[0]), "--lo", "1000", "--hi", "100000"])
    cmds.append(["classic", *_seed(*SEEDS[0]), "--limit", "1000", "--lo", "0", "--hi", "1000"])
    for fmt in ("json", "csv"):
        f = ["--format", fmt]
        for seed in (*SEEDS, CORRUPTED):
            cmds.append(["verify", *_seed(*seed), "--limit", "2000", *f])
        cmds.append(["verify", *_seed(*SEEDS[0]), "--limit", "2", *f])  # the fewest rows: n0, n0 + 1
        cmds.append(["verify", *_seed(*SEEDS[0]), "--limit", "1", *f])
        cmds.append(["verify", *_seed(*SEEDS[0]), "--limit", "40000", *f])
        for seed in (*SEEDS, CORRUPTED):
            cmds.append(["scan-bound", *_seed(*seed), "--lo", "0", "--hi", "500", *f])
        cmds.append(["scan-bound", *_seed(*SEEDS[0]), "--lo", "7", "--hi", "7", *f])
        cmds.append(["scan-bound", *_seed(*SEEDS[1]), "--lo", "30", "--hi", "200", *f])
        cmds.append(["scan-bound", *_seed(*SEEDS[2]), "--lo", "0", "--hi", "40000", *f])
        for seed in SEEDS:
            cmds.append(["classic", *_seed(*seed), "--limit", "300", "--lo", "0", "--hi", "200", *f])
        cmds.append(["classic", *_seed(*SEEDS[0]), "--limit", "20", "--lo", "5", "--hi", "5", *f])
        cmds.append(["classic", *_seed(*SEEDS[1]), "--limit", "40000", "--lo", "0", "--hi", "40000", *f])
        cmds.append(["classic", *_seed(*SEEDS[0]), "--limit", "20", "--lo", "-5", "--hi", "10", *f])
        for limit in ("2", "50", "40000"):
            cmds.append(["build", *_seed(*SEEDS[0]), "--limit", limit, *f])
        cmds.append(["build", *_seed(*SEEDS[0]), "--limit", "1", *f])
        cmds.append(["build", *_seed(*CORRUPTED), "--limit", "50", *f])
        cmds.append(["scan-bound", *_seed(*SEEDS[0]), "--lo", "100", "--hi", "10", *f])
        cmds.append(["witness", *_seed(*SEEDS[1]), "--n", "100000", *f])
        cmds.append(["scan-bound", *_seed(*SEEDS[0]), "--lo", "0", "--hi", "20000", *f, "--out", OUT])
        cmds.append(["verify", *_seed(*SEEDS[1]), "--limit", "20000", *f, "--out", OUT])
        cmds.append(["classic", *_seed(*SEEDS[2]), "--limit", "20000", "--lo", "3", "--hi", "20000", *f, "--out", OUT])
        cmds.append(["build", *_seed(*SEEDS[0]), "--limit", "20000", *f, "--out", OUT])
        # about 245 write chunks, with 7-digit n
        cmds.append(["scan-bound", *_seed(*SEEDS[0]), "--lo", "0", "--hi", "1000000", *f])
        cmds.append(["classic", *_seed(*SEEDS[0]), "--limit", "1000000", "--lo", "0", "--hi", "1000000", *f])
        for seed in (CORRUPTED, NON_SEED):
            cmds.append(["verify", *_seed(*seed), "--limit", "1000000", *f])
        # k**4 far beyond the limit: every level past the first is one cut block
        for k in (200, 1000):
            cmds.append(["verify", *_seed(str(k), "0", "0" + "1" * (k - 1)), "--limit", str(3 * k), *f])
    # wide grids over 10**5 rows
    for seed in WIDE:
        for fmt in ("json", "csv"):
            cmds.append(["verify", *_seed(*seed), "--limit", "100000", "--format", fmt])
        cmds.append(["scan-bound", *_seed(*seed), "--lo", "0", "--hi", "100000"])
        cmds.append(["classic", *_seed(*seed), "--limit", "100000", "--lo", "0", "--hi", "100000"])
    # limits k**4 * T - 1, k**4 * T and k**4 * T + 1, T the chain threshold:
    # block parity's last power judges no cell, one and two
    for seed, cut in ((SEEDS[0], 32), (SEEDS[1], 162)):
        for limit in (cut - 1, cut, cut + 1):
            cmds.append(["verify", *_seed(*seed), "--limit", str(limit)])
    cmds.append(["verify", *_seed(*NON_SEED), "--limit", "33"])
    cmds.append(["verify", *_seed(*SEEDS[0]), "--limit", "10000000"])
    # csv: its n column reaches 10**7, eight digits in two whole four-digit lanes
    cmds.append(["verify", *_seed(*SEEDS[0]), "--limit", "10000000", "--format", "csv"])
    # build in plain, its default format: one 0/1 row, as seeds writes its rows
    for limit in ("50", "40000", "10000000"):
        cmds.append(["build", *_seed(*SEEDS[0]), "--limit", limit])
    cmds.append(["build", *_seed(*SEEDS[0]), "--limit", "10000000", "--format", "json"])
    # a negative lo, refused before the table is built
    cmds.append(["scan-bound", *_seed(*SEEDS[0]), "--lo", "-5", "--hi", "10"])
    for k1, k2, n0, cap in SEARCHES:
        cmds.append(["search", "--k1", str(k1), "--k2", str(k2), "--n0", str(n0), "--cap", str(cap)])
    cmds.append(["search", "--k1", "2", "--k2", "3", "--n0", "34", "--cap", "64", "--format", "csv"])
    for k, n0 in CENSUSES:
        for fmt in ("json", "csv", "plain"):
            cmds.append(["seeds", "--k", str(k), "--n0", str(n0), "--format", fmt])
    # commands that load no NumPy: witnesses at 10**100, at 10**1000, at 286
    # (one case2 record, the other j's small element taken) and at 10 (below
    # the threshold), help and usage errors
    for fmt in ("json", "csv"):
        for seed in SEEDS:
            cmds.append(["witness", *_seed(*seed), "--n", str(10**100), "--format", fmt])
        for seed in (SEEDS[0], SEEDS[2]):
            cmds.append(["witness", *_seed(*seed), "--n", str(10**1000), "--format", fmt])
        for n in ("286", "10"):
            cmds.append(["witness", *_seed(*SEEDS[0]), "--n", n, "--format", fmt])
        for seed in WIDE:
            for n in (10**7, 10**100):
                cmds.append(["witness", *_seed(*seed), "--n", str(n), "--format", fmt])
    # witness queries drawn as the point workload draws them
    rng = random.Random(0)
    for i in range(POINT_QUERIES):
        n = int(10 ** (3 + 4 * (i + rng.random()) / POINT_QUERIES))
        cmds.append(["witness", *_seed(*SEEDS[i % len(SEEDS)]), "--n", str(n)])
    cmds.append(["--help"])
    for command in ("seeds", "build", "verify", "scan-bound", "witness", "search", "classic"):
        cmds.append([command, "--help"])
    cmds.append([])
    cmds.append(["nosuch", "--k", "2"])
    cmds.append(["verify", "--k", "2"])
    cmds.append(["verify", *_seed(*SEEDS[0]), "--limit", "100", "--format", "plain"])
    cmds.append(["scan-bound", *_seed(*SEEDS[0]), "--lo", "0", "--hi", "100", "--format", "plain"])
    cmds.append(["witness", *_seed(*SEEDS[0]), "--n", "100", "--format", "plain"])
    cmds.append(["search", "--k1", "2", "--k2", "3", "--n0", "0", "--cap", "64", "--format", "plain"])
    cmds.append(["classic", *_seed(*SEEDS[0]), "--limit", "100", "--lo", "0", "--hi", "100", "--format", "plain"])
    cmds.append(["classic", *_seed(*SEEDS[0]), "--limit", "20", "--lo", "0", "--hi", "30"])
    cmds.append(["classic", *_seed(*SEEDS[0]), "--limit", "20", "--lo", "15", "--hi", "10"])
    cmds.append(["witness", *_seed(*SEEDS[0]), "--n", "1000", "--out", MISSING])
    cmds.append(["verify", *_seed(*SEEDS[0]), "--limit", "100000", "--out", MISSING])
    return cmds


def run(tree: Path, argv: list[str], scratch: Path) -> tuple[int, bytes, bytes, bytes | None]:
    out = scratch / "out"
    out.unlink(missing_ok=True)
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    paths = {OUT: str(out), MISSING: str(scratch / "missing" / "out")}
    argv = [paths.get(a, a) for a in argv]
    proc = subprocess.run([sys.executable, "-m", "repfn", *argv], capture_output=True, env=env)
    stderr = proc.stderr
    if argv[:1] == ["search"]:
        stderr = WALL_TIME.sub(rb"\1<masked> s", stderr)
    return proc.returncode, proc.stdout, stderr, out.read_bytes() if out.exists() else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="source tree to compare against")
    parser.add_argument("--head", type=Path, required=True, help="source tree under test")
    args = parser.parse_args()

    fields = ("exit code", "stdout", "stderr", "--out file")
    cmds = commands()
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        for argv in cmds:
            base = run(args.base.resolve(), argv, scratch)
            head = run(args.head.resolve(), argv, scratch)
            diffs = [name for name, a, b in zip(fields, base, head) if a != b]
            if diffs:
                differ += 1
                print(f"DIFFERS ({', '.join(diffs)}): repfn {' '.join(argv)}")
    print(f"{len(cmds) - differ} of {len(cmds)} commands byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
