"""The research scripts under ``scripts/`` still run against the package.

No other test imports them, so a signature change in ``repfn`` would break
them silently.  Each one runs here as a subprocess on small arguments, with
the package's ``src`` on ``PYTHONPATH``, and must exit 0 with its usual
last line; ``bench.py`` runs on two copies of the tree.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# (script, arguments, start of its last output line)
SCRIPTS = [
    (
        "seed_census.py",
        ["--max-k", "3", "--max-n0", "1", "--check-limit", "300"],
        "all listed seeds extend to tables with exact count equality up to N=300",
    ),
    ("unsat_depths.py", ["--max-weight", "4", "--max-n0", "2", "--cap", "40"], "(3,4)"),
]


def run_script(script: str, args: list[str]) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script,args,last", SCRIPTS, ids=[s for s, _, _ in SCRIPTS])
def test_research_script_runs(script, args, last):
    out = run_script(script, args)
    assert out.splitlines()[-1].strip().startswith(last), out


def test_unsat_depths_decide_every_cell():
    """(2, 3) at every n0 up to 44, where n0 = 41 to 44 pass 5,000,000
    depth-first nodes: every cell is decided."""
    out = run_script("unsat_depths.py", ["--max-weight", "3", "--max-n0", "44", "--cap", "256"])
    assert out.splitlines()[-1].startswith("   (2,3)"), out
    assert "inconclusive" not in out, out


def test_bench_alternates_pairs_of_two_trees(tmp_path):
    """scripts/bench.py runs each tree's own perfbench on one short search
    pair and records both runs, their faults, the head's wins and each
    tree's src/ lines (the head's has one line more)."""
    for side in ("base", "head"):
        for part in ("src", "perfbench"):
            shutil.copytree(ROOT / part, tmp_path / side / part,
                            ignore=shutil.ignore_patterns("__pycache__", "out"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path / side)
    with open(tmp_path / "head" / "src" / "repfn" / "errors.py", "a") as fh:
        fh.write("# one more line\n")
    out = tmp_path / "BENCH.json"
    run_script("bench.py", ["--base", str(tmp_path / "base"), "--head", str(tmp_path / "head"),
                            "--workload", "search", "--pairs", "1", "--seconds", "0.05",
                            "--out", str(out)])
    record = json.loads(out.read_text())
    assert record["commits"] == {"base": None, "head": None}  # copies, not checkouts
    lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    assert record["src_lines"] == {"base": lines, "head": lines + 1}
    runs = record["workloads"]["search"]["runs"]
    assert [(r["side"], r["pair"], r["seed"]) for r in runs] == [("base", 0, 1), ("head", 0, 1)]
    names = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    for run in runs:
        assert run["correct"] and run["failed"] == 0 and run["minor_faults"] > 0, run
        assert set(run["metrics"]) == names
    summary = record["workloads"]["search"]["summary"]
    assert set(summary) == names
    for s in summary.values():
        assert s["pairs"] == 1 and s["head_wins"] in (0, 1) and s["base"]["iqr"] == 0


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("better, base, head, over", [
    ("lower", 1.00, 1.04, False),
    ("lower", 1.00, 1.06, True),
    ("lower", 1.00, 0.50, False),
    ("higher", 1.00, 0.96, False),
    ("higher", 1.00, 0.94, True),
    ("higher", 1.00, 2.00, False),
], ids=["lower-inside", "lower-outside", "lower-better", "higher-inside", "higher-outside",
        "higher-better"])
def test_bench_flags_a_breached_bound(better, base, head, over):
    """A head median worse than the base's by more than the bound, in the
    metric's own direction, is over the bound; a better one never is."""
    metrics = [{"name": "m", "better": better, "bound": 0.05}]
    runs = [
        {"side": side, "pair": pair, "metrics": {"m": value * (1 + pair / 1000)}}
        for pair in range(3) for side, value in (("base", base), ("head", head))
    ]
    summary = _load_bench().summarise(runs, metrics)["m"]
    assert (summary["bound"], summary["over_bound"]) == (0.05, over)
    assert summary["head_wins"] == (3 if (head < base) == (better == "lower") else 0)
