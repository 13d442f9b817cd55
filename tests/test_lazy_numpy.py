"""NumPy loads on first use: commands that need no table never import it.

The rest of the suite runs after conftest.py has imported NumPy, so it never
takes the lazy path; these tests run each case in a fresh interpreter.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repfn.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs main(argv) in a fresh interpreter and prints its exit code, its stdout
# and stderr, and the NumPy submodules loaded by then (loading NumPy imports
# numpy._core and others; the lazy module itself is only "numpy").
PROBE = """
import contextlib, io, json, sys
from repfn.cli import main
out, err = io.StringIO(), io.StringIO()
try:
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
loaded = sorted(m for m in sys.modules if m.startswith("numpy."))
print(json.dumps({"code": code, "out": out.getvalue(), "err": err.getvalue(), "numpy": loaded}))
"""

WALL_TIME = re.compile(r"(?m)^(search: \w+ in )[0-9.]+ s$")
SEED = ["--k", "2", "--n0", "1", "--seed", "011"]


def fresh(*args: str) -> str:
    """stdout of ``python -c <args>`` in a fresh interpreter importing repfn from this tree."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "COLUMNS": "80"}
    proc = subprocess.run(
        [sys.executable, "-c", *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def in_process(capsys, argv: list[str]) -> dict:
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return {"code": code, "out": captured.out, "err": captured.err}


def test_import_and_parser_load_no_numpy():
    code = (
        "import sys, repfn, repfn.cli; repfn.cli.build_parser(); "
        "print(sorted(m for m in sys.modules if m.startswith('numpy.')))"
    )
    assert fresh(code) == "[]\n"


NO_NUMPY = {
    "witness-1e7-json": ["witness", *SEED, "--n", str(10**7)],
    "witness-1e7-csv": ["witness", *SEED, "--n", str(10**7), "--format", "csv"],
    "witness-1e100-json": ["witness", *SEED, "--n", str(10**100)],
    "witness-1e100-csv": ["witness", *SEED, "--n", str(10**100), "--format", "csv"],
    "help": ["--help"],
    "argparse-error": ["witness", "--k", "2", "--n0", "1", "--n", "100"],
    "precondition-error": ["witness", *SEED, "--n", "1"],
}

WITH_NUMPY = {
    "verify": ["verify", *SEED, "--limit", "2000"],
    "search": ["search", "--k1", "2", "--k2", "5", "--n0", "8", "--cap", "64"],
    "seeds": ["seeds", "--k", "3", "--n0", "2"],
    "build-csv": ["build", *SEED, "--limit", "50", "--format", "csv"],
}


@pytest.mark.parametrize(
    "argv,loads_numpy",
    [(argv, False) for argv in NO_NUMPY.values()] + [(argv, True) for argv in WITH_NUMPY.values()],
    ids=[*NO_NUMPY, *WITH_NUMPY],
)
def test_fresh_process_matches_in_process(capsys, monkeypatch, argv, loads_numpy):
    """A fresh interpreter prints what the in-process call prints, and loads
    NumPy only for the commands that build a table or run the prefix search."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to this width
    got = json.loads(fresh(PROBE, *argv))
    assert bool(got.pop("numpy")) is loads_numpy
    expected = in_process(capsys, argv)
    if argv[0] == "search":
        for doc in (got, expected):
            doc["err"] = WALL_TIME.sub(r"\1<masked> s", doc["err"])
    assert got == expected
    assert got["code"] in (0, 2) and (got["out"] or got["err"])


def test_user_numpy_is_the_one_module():
    """Importing NumPy after repfn, or before it, gives one working module,
    the one repfn uses."""
    check = (
        "import sys; {first}; {second}; import numpy.linalg; "
        "from repfn._numpy import np; "
        "assert numpy is sys.modules['numpy'] is np; "
        "assert int(numpy.arange(4).sum()) == 6 and float(numpy.linalg.norm([3, 4])) == 5.0; "
        "print('ok')"
    )
    for first, second in (("import repfn", "import numpy"), ("import numpy", "import repfn")):
        assert fresh(check.format(first=first, second=second)) == "ok\n", first
