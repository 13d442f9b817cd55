"""Span tracing of repfn's layers, done from outside the package.

The tracer replaces module attributes with wrappers: the functions that
``repfn.cli`` calls across a module boundary, and ``rep_values`` as
``partitions`` and ``bounds`` imported it.  Every call becomes a span
(name, start, end, parent), kept in memory until the run ends.  A span's
self time is its duration minus that of its direct children.

Work counts (``slices``, ``cells``, ``checked``, ``seeds``, ``records``,
``skipped_*``, ``nodes``) are computed from a call's arguments and return
value, so they are exact and repeat on every run of the same ops.  They are
worked out after the call returns, inside a ``trace.count`` span that is
charged to the caller as a child, so they never add to a layer's self time.
"""

from __future__ import annotations

import functools
import inspect
from contextlib import contextmanager
from statistics import median
from time import perf_counter

import numpy as np

COUNT_SPAN = "trace.count"


class Span:
    __slots__ = ("name", "parent", "start", "end", "counts")

    def __init__(self, name: str, parent: int | None):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.counts: dict[str, int] = {}


def _rep_values_counts(a: dict, values) -> dict[str, int]:
    """One strided add per member a2 <= up_to // k2, of (up_to - k2*a2) // k1 + 1 cells."""
    w, up_to = a["w"], a["up_to"]
    bits = a["chi"].bits[: up_to // w.k2 + 1]
    a2s = np.flatnonzero(bits if a["side"] == "set" else bits == 0)
    return {"slices": int(a2s.size), "cells": int(np.sum((up_to - w.k2 * a2s) // w.k1 + 1))}


def _witness_counts(a: dict, result) -> dict[str, int]:
    records, skipped = result
    reasons = [reason for _, reason in skipped]
    return {
        "records": len(records),
        "skipped_below_threshold": reasons.count("below-witness-threshold"),
        "skipped_pool_exhausted": reasons.count("small-element-pool-exhausted"),
    }


# (module, attribute, span name, count keys, counter)
def _targets(repfn):
    cli, partitions, bounds = repfn.cli, repfn.partitions, repfn.bounds
    rep_keys = ("slices", "cells")
    witness_keys = ("records", "skipped_below_threshold", "skipped_pool_exhausted")
    return [
        (partitions, "rep_values", "core.rep_values", rep_keys, _rep_values_counts),
        (bounds, "rep_values", "core.rep_values", rep_keys, _rep_values_counts),
        (cli, "classic_rep", "core.classic_rep", (), None),
        (partitions, "extend_seed", "partitions.extend_seed", ("cells",), lambda a, r: {"cells": a["limit"] + 1}),
        (partitions, "enumerate_seeds", "partitions.enumerate_seeds", ("seeds",), lambda a, r: {"seeds": len(r)}),
        (partitions, "verify_structure", "partitions.verify_structure", (), None),
        (partitions, "verify_equality", "partitions.verify_equality", (), None),
        (partitions, "verify_block_parity", "partitions.verify_block_parity", ("checked",),
         lambda a, r: {"checked": r.checked}),
        (bounds, "bound_scan", "bounds.bound_scan", (), None),
        (bounds, "witness_list", "bounds.witness_list", witness_keys, _witness_counts),
        (bounds, "nonexistence_search", "bounds.nonexistence_search", ("nodes",), lambda a, r: {"nodes": r.nodes}),
    ]


class Tracer:
    """Records spans while installed; ``layers`` lists every span name and its count keys."""

    def __init__(self, repfn):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._targets = _targets(repfn)
        self.layers = {"cli.main": ("out_bytes",)}
        for _, _, name, keys, _ in self._targets:
            self.layers[name] = keys

    @contextmanager
    def span(self, name: str):
        s = Span(name, self._stack[-1] if self._stack else None)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        s.start = perf_counter()
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if counter is not None:
                with self.span(COUNT_SPAN):
                    s.counts = counter(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, _, counter in self._targets:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def totals(self, first: int = 0) -> dict[str, dict[str, float]]:
        """Calls, self time and counts per layer over the spans from index ``first`` on."""
        child_s = [0.0] * len(self.spans)
        for s in self.spans[first:]:
            if s.parent is not None:
                child_s[s.parent] += s.end - s.start
        out = {name: {"calls": 0, "self_s": 0.0, **dict.fromkeys(keys, 0)} for name, keys in self.layers.items()}
        for i in range(first, len(self.spans)):
            s = self.spans[i]
            if s.name not in out:
                continue
            row = out[s.name]
            row["calls"] += 1
            row["self_s"] += s.end - s.start - child_s[i]
            for key, value in s.counts.items():
                row[key] += value
        return out

    def dump(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.counts] for s in self.spans]


# The search command prints its own wall time, so its stdout length moves by a few bytes.
NOT_EXACT = ("self_s", "out_bytes")


def layer_metrics(passes: list[dict[str, dict[str, float]]]) -> tuple[dict[str, float], list[str]]:
    """Per-pass layer metrics: medians over the passes, and exact counts.

    Returns the metrics and the names of counts that differed between passes,
    which would mean the counts are not exact.
    """
    metrics: dict[str, float] = {}
    unsteady = []
    for layer, row in passes[0].items():
        for key in row:
            values = [p[layer][key] for p in passes]
            name = f"{layer}.{key}"
            if key in NOT_EXACT:
                metrics[name] = median(values)
            else:
                metrics[name] = values[0]
                if any(v != values[0] for v in values):
                    unsteady.append(name)
    w = "bounds.witness_list"
    attempts = sum(metrics[f"{w}.{k}"] for k in ("records", "skipped_below_threshold", "skipped_pool_exhausted"))
    metrics[f"{w}.useful_ratio"] = metrics[f"{w}.records"] / attempts if attempts else 0.0
    s = "bounds.nonexistence_search"
    self_s = metrics[f"{s}.self_s"]
    metrics[f"{s}.nodes_per_s"] = metrics[f"{s}.nodes"] / self_s if self_s > 0 else 0.0
    return metrics, unsteady
