#!/usr/bin/env python3
"""Compare the benchmark of two source trees in alternating pairs of runs.

    python3 scripts/bench.py --base /path/to/parent --head . \\
        --workload search --pairs 10 --seconds 30 --out BENCH_26.json

Each tree runs its own ``perfbench/run.py``, unchanged, as a subprocess with
``--trace 0``.  Pair i runs both trees with ``--seed i + 1``, the base first
in even pairs and the head first in odd ones, so that a drift of the host
over the session falls on both sides alike.  Several workloads may be
given; each gets its own pairs, in the order given.

The record written to ``--out`` holds both trees' git commits, the
lines of each tree's ``src/`` Python files (as ``wc -l`` counts them), the
``MALLOC_*`` environment (or null), and per workload every run in the
order it ran: its side, pair, seed, metrics, correctness and the minor page
faults of the run and its children, read as the change in
``getrusage(RUSAGE_CHILDREN)`` across it.  It also holds each side's median
and quartiles per metric and, per metric, the pairs the head won, by the
direction that ``BENCHMARK.json`` gives (ties count for neither side).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

SCHEMA = 1


def git_commit(tree: Path) -> dict | None:
    """The commit checked out at the root of ``tree`` and whether its files
    differ from it; None when ``tree`` is not the root of a git checkout."""
    def git(*args: str) -> str | None:
        proc = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    if git("rev-parse", "--show-toplevel") != str(tree):
        return None
    return {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}


def src_lines(tree: Path) -> int:
    """Newlines in the Python files under ``tree``'s ``src/``: its net source lines."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src").rglob("*.py"))


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run of ``tree``'s perfbench: its result object and its children's faults."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: perfbench/run.py exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "minor_faults": faults,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def spread(values: list[float]) -> dict:
    """Median, quartiles and their distance of one side's runs."""
    q1, _, q3 = quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarise(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's spread, the head's median change in percent
    of the base's, and the pairs the head won."""
    pairs = sorted({run["pair"] for run in runs})
    side = {(run["side"], run["pair"]): run for run in runs}
    out = {}
    for name, direction in better.items():
        base = [side["base", p]["metrics"][name] for p in pairs]
        head = [side["head", p]["metrics"][name] for p in pairs]
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
        base_s, head_s = spread(base), spread(head)
        change = 100 * (head_s["median"] / base_s["median"] - 1) if base_s["median"] else None
        out[name] = {
            "better": direction, "base": base_s, "head": head_s,
            "change_pct": change, "head_wins": wins, "pairs": len(pairs),
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="tree of the parent commit")
    parser.add_argument("--head", type=Path, required=True, help="tree of the change")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="--seconds of each run")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")

    trees = {"base": args.base.resolve(), "head": args.head.resolve()}
    spec = json.loads((trees["head"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    malloc = {k: v for k, v in sorted(os.environ.items()) if k.startswith("MALLOC_")}
    record = {
        "schema": SCHEMA,
        "commits": {name: git_commit(tree) for name, tree in trees.items()},
        "src_lines": {name: src_lines(tree) for name, tree in trees.items()},
        "malloc_env": malloc or None,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "workloads": {},
    }
    for workload in args.workload:
        runs = []
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for name in order:
                run = run_once(trees[name], workload, pair + 1, args.seconds)
                runs.append({"side": name, "pair": pair, "seed": pair + 1, **run})
                print(f"{workload} pair {pair} {name}: wall_s {run['metrics']['wall_s']:.5f} "
                      f"correct {run['correct']}", file=sys.stderr)
        record["workloads"][workload] = {"runs": runs, "summary": summarise(runs, better)}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    lines = record["src_lines"]
    print(f"src/ lines: base {lines['base']} head {lines['head']} "
          f"({lines['head'] - lines['base']:+d})")
    for workload, entry in record["workloads"].items():
        for name, s in entry["summary"].items():
            change = "n/a" if s["change_pct"] is None else f"{s['change_pct']:+.1f} %"
            print(f"{workload:>7} {name:>12}: base {s['base']['median']:.6g} head "
                  f"{s['head']['median']:.6g} ({change}), head won {s['head_wins']} of {s['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
