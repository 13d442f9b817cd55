"""Benchmark of the repfn CLI: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload table --seed 1 --seconds 10 --trace 0

The ops of a workload (see workloads.py) run in this one warm process through
``repfn.cli.main(argv)`` with stdout captured, pass after pass, until the
measuring time is used up; the first pass is a warm-up.  An op's time is its
median over the timed passes, scaled by the host-speed probe below.  Each
op's output is then checked by the independent routes in checks.py; a wrong
exit code or a failed check counts as a failed op.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured with
tracing off.  ``--trace 1`` spends half the time untraced and half with the
layer tracer of tracer.py installed, and reports the per-layer metrics; the
spans go to perfbench/out/.  The last line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import subprocess
import sys
import traceback
from collections import Counter
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

from checks import Checker
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_RUNS = 7
SETUP_CODE = "import repfn.cli; repfn.cli.build_parser()"

# Host-speed probe.  On a shared host the same code runs up to 1.5x slower
# for stretches of seconds to minutes, depending on its neighbours.  Every
# timing is therefore scaled by PROBE_REF_S / probe, where probe is the mean
# of the probes taken just before and just after the timed work.  Reported
# seconds are seconds on a host where the probe takes PROBE_REF_S, which is
# its time on an uncontended core of a 2-core x86-64 VM.
PROBE_LOOP = 20000
PROBE_REF_S = 0.0014
# Probe again once this much op time has gone by since the last probe.
PROBE_EVERY_S = 0.05


def probe() -> float:
    """Median of three timings of a fixed pure-Python loop."""
    times = []
    for _ in range(3):
        start = perf_counter()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i * i % 7
        times.append(perf_counter() - start)
    return median(times)


class Recorder:
    """Op latencies per pass, raw and probe-scaled, and the distinct outputs seen.

    Equal outputs of later passes are dropped after comparison, so memory
    (and peak RSS) does not grow with the number of passes.
    """

    def __init__(self):
        self.raw: list[list[float]] = []
        self.passes: list[list[float]] = []  # scaled by the host-speed probe
        self.outputs: Counter = Counter()  # (op index, exit code, stdout) -> times seen
        self.layers: list[dict] = []  # tracer totals per timed pass, when traced


def call_cli(cli, argv: list[str]) -> int | None:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        return exc.code
    except Exception:  # any crash is a failed op; its traceback goes with the captured stderr
        traceback.print_exc()
        return None


def run_pass(cli, ops, rec: Recorder, errors: dict, tracer: Tracer | None = None) -> None:
    latencies = []
    scaled = []
    last_probe = probe()
    pending = 0.0  # op time since the last probe
    for i, op in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        with tracer.span("cli.main") if tracer else nullcontext() as span:
            start = perf_counter()
            with redirect_stdout(out), redirect_stderr(err):
                rc = call_cli(cli, op.argv)
            latencies.append(perf_counter() - start)
        text = out.getvalue()
        if span is not None:
            span.counts = {"out_bytes": len(text.encode())}
        rec.outputs[(i, rc, text)] += 1
        if rc != op.expect_rc:
            errors.setdefault(i, err.getvalue())
        pending += latencies[-1]
        if pending >= PROBE_EVERY_S or i == len(ops) - 1:
            now = probe()
            factor = 2 * PROBE_REF_S / (last_probe + now)
            scaled += [t * factor for t in latencies[len(scaled):]]
            last_probe, pending = now, 0.0
    rec.raw.append(latencies)
    rec.passes.append(scaled)


def measure(cli, ops, seconds: float, errors: dict, tracer: Tracer | None = None) -> Recorder:
    """Run whole passes over ``ops`` while the next one is expected to end within ``seconds``.

    The first pass warms the process up (the allocator's heap grows to its
    working size in it) and is left out of the timings, though its outputs
    are checked.  At least one timed pass always follows.
    """
    rec = Recorder()
    start = perf_counter()
    while len(rec.raw) < 2 or perf_counter() - start + sum(rec.raw[-1]) <= seconds:
        gc.collect()
        first = len(tracer.spans) if tracer else 0
        run_pass(cli, ops, rec, errors, tracer)
        if tracer and len(rec.raw) > 1:
            rec.layers.append(tracer.totals(first))
    del rec.raw[0], rec.passes[0]
    return rec


def measure_setup() -> float:
    """Median probe-scaled wall time of a fresh interpreter importing repfn.cli and building its parser."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(cmd, env=env, check=True, timeout=120)  # compiles the bytecode once
    times = []
    last_probe = probe()
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=120)
        elapsed = perf_counter() - start
        now = probe()
        times.append(elapsed * 2 * PROBE_REF_S / (last_probe + now))
        last_probe = now
    return median(times)


def check_outputs(ops, recs: list[Recorder], errors: dict) -> tuple[int, int]:
    """Check each distinct output once; returns (attempted, failed)."""
    checker = Checker()
    attempted = failed = 0
    for rec in recs:
        for (i, rc, text), seen in rec.outputs.items():
            attempted += seen
            reason = checker.check(ops[i], rc, text)
            if reason:
                failed += seen
                print(f"FAILED {' '.join(ops[i].argv)}: {reason}", file=sys.stderr)
                if i in errors:
                    print(errors[i], file=sys.stderr)
    return attempted, failed


def kind_figures(ops, op_s: list[float]) -> dict[str, float]:
    """Figures for the op kind each workload is about; 0 on workloads without it."""
    def total_s(kind):
        return sum(t for op, t in zip(ops, op_s) if op.kind == kind)

    verify_n = sum(op.params["limit"] + 1 for op in ops if op.kind == "verify")
    witness_ops = sum(op.kind == "witness" for op in ops)
    return {
        "verify_n_per_s": verify_n / total_s("verify") if verify_n else 0.0,
        "witness_per_s": witness_ops / total_s("witness") if witness_ops else 0.0,
        "search_s": total_s("search"),
    }


def op_seconds(rec: Recorder) -> list[float]:
    """Each op's latency, as its median over the passes."""
    return [median(samples) for samples in zip(*rec.passes)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repfn" / "cli.py").is_file():
        print(f"error: the repfn sources are missing from {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repfn
    import repfn.cli

    if Path(repfn.__file__).resolve().parent != SRC / "repfn":
        print(f"error: imported repfn from {repfn.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    # One core for the whole run, set-up children included, so the probes time
    # the core the measured work runs on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    ops = WORKLOADS[args.workload](args.seed)
    errors: dict[int, str] = {}
    correct = True
    if args.trace:
        untraced = measure(repfn.cli, ops, args.seconds / 2, errors)
        tracer = Tracer(repfn)
        tracer.install()
        try:
            traced = measure(repfn.cli, ops, args.seconds / 2, errors, tracer)
        finally:
            tracer.uninstall()
        OUT_DIR.mkdir(exist_ok=True)
        dump = {"workload": args.workload, "seed": args.seed, "spans": tracer.dump()}
        (OUT_DIR / f"spans_{args.workload}_seed{args.seed}.json").write_text(json.dumps(dump))
        values, unsteady = layer_metrics(traced.layers)
        if unsteady:
            correct = False
            print(f"computed counts differ between passes: {unsteady}", file=sys.stderr)
        untraced_s = op_seconds(untraced)
        values["trace_overhead_s"] = sum(op_seconds(traced)) - sum(untraced_s)
        values.update(kind_figures(ops, untraced_s))
        recs = [untraced, traced]
    else:
        setup_s = measure_setup()
        rec = measure(repfn.cli, ops, args.seconds, errors)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the checks allocate
        op_s = op_seconds(rec)
        values = {
            "setup_s": setup_s,
            "wall_s": sum(op_s),
            "op_p50_s": median(op_s),
            "op_p90_s": quantiles(op_s, n=10, method="inclusive")[-1],
            "peak_rss_mb": peak_rss_mb,
        }
        recs = [rec]

    attempted, failed = check_outputs(ops, recs, errors)
    if args.trace:
        values["ops_failed"] = failed / attempted
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"error: BENCHMARK.json lists metrics this run does not compute: {missing}", file=sys.stderr)
        return 1
    passes = sum(len(r.passes) for r in recs)
    raw_wall = median(sum(lat) for lat in recs[0].raw)
    print(f"{args.workload}: {len(ops)} ops x {passes} passes, {failed} of {attempted} failed, "
          f"unscaled wall {raw_wall:.3f} s per pass", file=sys.stderr)
    result = {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
