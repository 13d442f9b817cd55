"""The benchmark's tracer still fits the package it traces.

``perfbench/tracer.py`` wraps module attributes of repfn and computes its
work counts from their arguments and results: ``rep_values(chi, side, w,
up_to)`` as ``partitions`` and ``bounds`` imported it (reading
``chi.bits``), ``extend_seed(..., limit)``, ``verify_block_parity(...)
.checked``, ``nonexistence_search(...).nodes`` and ``witness_list``
returning ``(records, [(j, reason)])``.  A traced benchmark run fails when
any of these moves, while the untraced one does not notice.  This test runs
the benchmark's own ops under the tracer, once each, and checks them with
the benchmark's own checks.  The perfbench modules are imported by path and
not changed.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

import repfn
import repfn.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
POINT_OPS = 30


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


tracer, checks, workloads = (_load(name) for name in ("tracer", "checks", "workloads"))


def _ops():
    ops = workloads.table_ops(1) + workloads.search_ops(1) + workloads.point_ops(1)[:POINT_OPS]
    return [pytest.param(op, id=" ".join(op.argv)) for op in ops]


@pytest.fixture(scope="module")
def checker():
    return checks.Checker()


@pytest.mark.parametrize("op", _ops())
def test_traced_op_is_correct(op, checker):
    traced = tracer.Tracer(repfn)
    traced.install()
    try:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = repfn.cli.main(op.argv)
    finally:
        traced.uninstall()
    assert rc == op.expect_rc
    assert checker.check(op, rc, out.getvalue()) is None
    assert traced.spans, "no traced layer ran"
