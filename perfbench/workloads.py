"""Op lists of the three workloads.

Each op is one ``repfn`` CLI invocation plus what the benchmark needs to
check its output.  Only ``point`` draws from the workload seed; ``table``
and ``search`` are fixed so that their run-to-run spread is timing noise
alone.  No op passes ``--workers``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# one valid seed for each (k, n0); the seed string lists chi(0), chi(1), ...
VALID_SEEDS = [(2, 1, "011"), (3, 2, "01110"), (5, 3, "01011101")]
# 01110 with its last bit flipped: the window identity fails at n = 4
CORRUPTED_SEED = (3, 2, "01111")

TABLE_LIMIT = 10**5
POINT_OPS = 1000
POINT_LO_EXP, POINT_HI_EXP = 3, 7
SEARCH_CAP = 256

# Refutation depths N* of the general-weight search, keyed by (k1, k2, n0).
# Pinned constants, never recomputed here.  All but (2, 3, 34) are the
# measured values listed in ROADMAP.md; every one of them, (2, 3, 34) -> 29
# included, was confirmed by a breadth-first search written independently
# of repfn.
PINNED_DEPTHS = {
    (2, 3, 34): 29,
    (2, 5, 8): 18,
    (2, 5, 32): 113,
    (2, 7, 10): 32,
    (2, 9, 12): 50,
}


@dataclass
class Op:
    kind: str
    argv: list[str]
    params: dict
    expect_rc: int = 0


def _op(kind: str, expect_rc: int = 0, extra: dict | None = None, **flags) -> Op:
    argv = [kind]
    for name, value in flags.items():
        argv += [f"--{name}", str(value)]
    return Op(kind, argv, {**flags, **(extra or {})}, expect_rc)


def table_ops(seed: int) -> list[Op]:
    ops = [_op("verify", k=k, n0=n0, seed=s, limit=TABLE_LIMIT) for k, n0, s in VALID_SEEDS]
    k, n0, s = CORRUPTED_SEED
    ops.append(_op("verify", expect_rc=1, k=k, n0=n0, seed=s, limit=TABLE_LIMIT))
    ops.append(_op("scan-bound", k=2, n0=1, seed="011", lo=1000, hi=TABLE_LIMIT))
    ops.append(_op("classic", k=2, n0=1, seed="011", limit=1000, lo=0, hi=1000))
    return ops


def point_ops(seed: int) -> list[Op]:
    """POINT_OPS witness queries, log-uniform in [1e3, 1e7].

    The draw is stratified, one target per equal slice of the exponent
    range, so that the total work of a pass, which grows with the sum of the
    targets, barely moves from one seed to the next.
    """
    rng = random.Random(seed)
    span = POINT_HI_EXP - POINT_LO_EXP
    targets = [int(10 ** (POINT_LO_EXP + span * (i + rng.random()) / POINT_OPS)) for i in range(POINT_OPS)]
    ops = []
    for i, n in enumerate(targets):
        k, n0, s = VALID_SEEDS[i % len(VALID_SEEDS)]
        ops.append(_op("witness", k=k, n0=n0, seed=s, n=n))
    return ops


def search_ops(seed: int) -> list[Op]:
    ops = [
        _op("search", extra={"pinned_depth": depth}, k1=k1, k2=k2, n0=n0, cap=SEARCH_CAP)
        for (k1, k2, n0), depth in PINNED_DEPTHS.items()
    ]
    ops.append(_op("seeds", k=7, n0=17, format="json"))
    return ops


WORKLOADS = {"table": table_ops, "point": point_ops, "search": search_ops}
