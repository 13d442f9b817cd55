"""Command-line surface: builders, verifiers, scans and searches.

Every command is deterministic for a given configuration.  Data goes to
stdout (or --out) in a machine-readable format; diagnostics go to stderr.
Exit codes: 0 success, 1 a mathematical claim failed, 2 usage or
precondition error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import resource
import sys
from collections.abc import Callable, Sequence
from typing import TextIO

from . import bounds, partitions
from ._numpy import np
from .core import COMPLEMENT, SET, WeightPair, classic_halves, classic_rep
from .errors import (
    DomainError,
    EnumerationCapExceeded,
    InvalidSeed,
    NoWitness,
    PreconditionError,
    QueryBeyondPrefix,
)

SCHEMA_VERSION = 1

_USAGE_ERRORS = (
    PreconditionError,
    DomainError,
    EnumerationCapExceeded,
    InvalidSeed,
    QueryBeyondPrefix,
    # a table too large to allocate: the request, not the claim, is at fault
    MemoryError,
)


@contextlib.contextmanager
def _open_out(path: str | None):
    """The stream a command writes its data to: stdout, or the --out file,
    opened before the command does any work."""
    if not path:
        yield sys.stdout
        return
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        # a path that cannot be written is a usage error, not a failed claim
        raise PreconditionError(f"cannot open --out {path}: {exc.strerror}") from exc
    with fh:
        yield fh


def _emit_json(cfg: argparse.Namespace, out: TextIO, **fields) -> None:
    out.write(json.dumps({**_head(cfg), **fields}, indent=2) + "\n")


# rows formatted per write, so the text of a long table is never held whole;
# a larger chunk formats no faster and leaves a larger heap behind
CHUNK = 4096


LANE = 10**4  # the values of one four-digit lane


@functools.cache
def _digit_lanes() -> np.ndarray:
    """The four ASCII digits of each x < LANE, most significant first, as one
    ``"<u4"`` lane: at x every digit (a group below the value's lead), at
    LANE + x with leading zeros as NUL (the value's lead group), and at
    2 * LANE + x the same but with 0 as four NULs (a group above the lead).

    Built on first use, so importing the CLI loads no NumPy.
    """
    # in uint16 every temporary stays under 100 KB; int64 ones (320 KB)
    # left a heap 0.5 MB larger in a process formatting tables after them
    x = np.arange(LANE, dtype=np.uint16)[:, None]
    places = np.array([1000, 100, 10, 1], dtype=np.uint16)
    every = (x // places % 10 + ord("0")).astype(np.uint8)
    above = np.where(x >= places, every, np.uint8(0))
    lead = above.copy()
    lead[0, -1] = ord("0")
    return np.concatenate([every, lead, above]).view("<u4").ravel()


def _store(rows: np.ndarray, at: int, values: np.ndarray) -> None:
    """Write values[i] at byte ``at`` of row i of ``rows``: one unaligned
    store per row, about 7 microseconds for 4096 rows against 28 for the same
    bytes as a (rows, width) assign."""
    np.ndarray(len(values), values.dtype, rows, at, (rows.shape[1],))[:] = values


def _format_rows(cols: Sequence[np.ndarray], seps: list[str], start: int, skip: int) -> str:
    """The text of the chunk of rows from ``start``: row i is seps[0],
    cols[0][i], seps[1], ..., cols[-1][i], seps[-1], each value in decimal,
    with the first ``skip`` characters left out.

    The rows are one (rows, width) uint8 buffer filled with a row template,
    the separators with a NUL field per column as wide as its widest value.
    A column's digits go in groups of four from the right, each one lookup
    in :func:`_digit_lanes` and one unaligned ``uint32`` store; a partial
    top group stores only its own bytes, so the separator before it stays.
    Digits above a value's lead stay NUL.  Only a chunk with a ragged
    column (values of several widths) has NULs, and only then are they
    dropped from the decoded text.  No table has a negative value: a column
    with one raises ValueError.
    """
    cols = [col[start : start + CHUNK].astype(np.int64, copy=False) for col in cols]
    lanes = _digit_lanes()
    template, fields, ragged = seps[0], [], False
    for col, sep in zip(cols, seps[1:]):
        lo, hi = int(col.min()), int(col.max())
        if lo < 0:
            raise ValueError(f"table columns are nonnegative, got {lo}")
        digits, least_digits = len(str(hi)), len(str(lo))
        ragged |= least_digits < digits
        fields.append((len(template), digits, least_digits))
        template += "\0" * digits + sep
    rows = np.empty((len(cols[0]), len(template)), dtype=np.uint8)
    rows[:] = np.frombuffer(template.encode(), dtype=np.uint8)
    for col, (top, digits, least_digits) in zip(cols, fields):
        rest = col.view(np.uint64)  # // on uint64 is faster than on int64
        end = top + digits
        for pos in range(end - 4, top - 4, -4):  # each group's first byte, from the right
            quot = None
            if pos > top:  # a group above this one: split off the lowest four digits
                # // and a subtraction: np.divmod on uint64 is several times slower
                quot = rest // LANE
                rest = rest - quot * LANE
            index = rest.view(np.int64)
            # the lanes of a value's lead group; 0 shows as "0" in the lowest group only
            lead = LANE if pos == end - 4 else 2 * LANE
            if end - pos <= least_digits:  # every value has all four digits
                lane = lanes.take(index)
            elif quot is None:  # the top group: no value goes on above it
                lane = lanes[lead:].take(index)
            else:  # some values go on above this group, some do not
                lane = lanes.take(np.where(quot == 0, index + lead, index))
            if pos >= top:
                _store(rows, pos, lane)
            else:  # the top 1-3 digits: an odd one as a byte, a pair as the lane's last two bytes
                shown = pos + 4 - top
                if shown % 2:
                    rows[:, top] = lane.view(np.uint8)[4 - shown :: 4]
                if shown > 1:
                    _store(rows, pos + 2, lane.view("<u2")[1::2])
            rest = quot
    # a str straight from the buffer: a tobytes() copy first costs as much
    # again, and dropping NULs from the str beats a boolean mask on the array
    text = str(rows.ravel()[skip:], "ascii")
    return text.replace("\0", "") if ragged else text


def _bit_rows(bits: np.ndarray, before: bytes, after: bytes) -> Callable[[int, int], str]:
    """The ``text`` of :func:`_emit_list` for the rows of the 0/1 array
    ``bits``: each ``before``, its bits as 0/1 characters, ``after``.  One
    buffer holds every chunk; a fresh one per chunk wrote the 9236 seeds of
    k = 7, n0 = 17 about 1.5 times slower."""
    width = bits.shape[1]
    rows = np.empty((min(len(bits), CHUNK), len(before) + width + len(after)), dtype=np.uint8)
    rows[:] = np.frombuffer(before + bytes(width) + after, dtype=np.uint8)
    cells = rows[:, len(before) : len(before) + width]

    def text(start: int, skip: int) -> str:
        chunk = bits[start : start + CHUNK]
        np.add(chunk, ord("0"), out=cells[: len(chunk)])
        return str(rows[: len(chunk)].ravel()[skip:], "ascii")

    return text


def _json_head(doc: dict, key: str) -> str:
    """``json.dumps({**doc, key: value}, indent=2)`` up to the value; ``key`` must be last."""
    doc = {**doc, key: None}
    if list(doc)[-1] != key:
        raise ValueError(f'"{key}" must be the last key of the document')
    return json.dumps(doc, indent=2)[: -len("null\n}")]


# json.dumps's text of each scalar a witness record holds, keyed by exact
# type: bool (an int subclass) and float are refused, not written as ints
_SCALARS = {int: int.__repr__, str: json.encoder.encode_basestring_ascii, type(None): lambda _: "null"}


@functools.cache
def _object_template(fields: tuple[str, ...]) -> str:
    """The ``%``-template of one object with these keys, as an item of a
    list nested one level deep in a ``json.dumps(indent=2)`` document."""
    keys = [json.encoder.encode_basestring_ascii(f).replace("%", "%%") for f in fields]
    return "\n    {\n      " + ",\n      ".join(f"{key}: %s" for key in keys) + "\n    }"


def _json_objects(fields: Sequence[str], rows: Sequence[Sequence]) -> str:
    """``json.dumps(indent=2)`` of ``[dict(zip(fields, row)) for row in rows]``
    as the value of a top-level key: each row through one template, each
    value through one encoding of :data:`_SCALARS`, so none goes through
    the pure-Python encoder that ``indent`` forces.  Values are int, str or
    None; any other type raises TypeError."""
    if not rows:
        return "[]"
    template = _object_template(tuple(fields))
    try:
        objects = [template % tuple([_SCALARS[type(v)](v) for v in row]) for row in rows]
    except KeyError as exc:
        raise TypeError(f"cannot write a {exc.args[0].__name__} as a JSON scalar") from None
    return "[" + ",".join(objects) + "\n  ]"


def _emit_list(out: TextIO, head: str | dict, key: str, count: int, text: Callable) -> None:
    """Write a list of ``count`` items CHUNK at a time: ``text(start, skip)``
    is a chunk's items, each led by its separator, less the first ``skip``
    characters.  A str ``head`` (a csv header line, or none) goes first; with a
    dict the bytes are ``json.dumps({**head, key: items}, indent=2)`` and a newline."""
    skip, tail = 0, ""
    if isinstance(head, dict):
        head = _json_head(head, key) + "["
        skip, tail = 1, ("\n  ]" if count else "]") + "\n}\n"
    out.write(head)
    for start in range(0, count, CHUNK):
        out.write(text(start, 0 if start else skip))
    out.write(tail)


def _emit_table(
    columns: list[str], cols: Sequence[np.ndarray], out: TextIO, doc: dict | None = None
) -> None:
    """Write equal-length 1-D integer columns by :func:`_emit_list`: as csv
    under a header of the column names, or with ``doc`` as ``{**doc,
    "columns": columns, "rows": rows}``, ``rows`` listing each index's
    values.  :func:`_format_rows` formats each chunk in NumPy, with no
    Python int per value and without the pure-Python encoder that
    ``indent`` forces on ``json.dumps``."""
    if doc is None:
        head = ",".join(columns) + "\r\n"
        seps = ["", *[","] * (len(cols) - 1), "\r\n"]
    else:
        head = {**doc, "columns": columns}
        seps = [",\n    [\n      ", *[",\n      "] * (len(cols) - 1), "\n    ]"]
    _emit_list(out, head, "rows", len(cols[0]), functools.partial(_format_rows, cols, seps))


# Peak bytes per table entry of each command, from the chi bits to the last
# output chunk.  Measured as tracemalloc peaks (NumPy buffers and Python
# objects) of main() writing to --out, after a first command has loaded
# NumPy, at N = 2 * 10**5 and 10**6 over every format and over valid and
# corrupted seeds, the larger of the two (the writer's chunk buffers weigh
# more per n at the smaller N): build 9.9, verify 12.0 (json, which counts
# nothing) and 27.6 (csv), scan-bound 50.4 (lo = 0), classic 32.3 (json) and
# 28.6 (csv) (lo = 0, hi = limit; it holds r1 per side, and forms r2 and r3
# per chunk); rounded up to a multiple of 8, per format where they differ.
# Every table grows linearly with N, so a constant times N estimates a
# request's peak before anything is allocated.
# For search N is the number of free bits, min(n0 // k1, cap), which sets
# the words per prefix of its packed frontier: 4175 bytes per free bit at
# most, over (k1, k2) in (2, 3), (3, 4), (2, 9), (5, 7) and free = 500,
# 2000, 8000, with cap = free and 2 * free (measured as peak / (free + 1)
# around the whole command).
_BYTES_PER_N = {
    "build": 16,
    "verify": {"json": 16, "csv": 32},
    "scan-bound": 56,
    "classic": {"json": 40, "csv": 32},
    "search": 4176,
}


def _bytes_per_n(command: str, fmt: str) -> int:
    """The estimate of :data:`_BYTES_PER_N` for a command in an output format."""
    per_n = _BYTES_PER_N[command]
    return per_n[fmt] if isinstance(per_n, dict) else per_n


def _memory_limit() -> int:
    """Bytes this process may use: physical memory, capped by RLIMIT_AS when set."""
    limit = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    return limit if soft == resource.RLIM_INFINITY else min(limit, soft)


def _check_memory(cfg: argparse.Namespace, size: int, *flags: str) -> None:
    """Refuse a request over [0, size] (table entries, or free search bits)
    whose estimated peak exceeds :func:`_memory_limit`; ``flags`` name the
    options that set ``size``."""
    need = _bytes_per_n(cfg.command, cfg.format) * (size + 1)
    have = _memory_limit()
    if need > have:
        given = " ".join(f"--{flag} {getattr(cfg, flag)}" for flag in flags)
        raise PreconditionError(
            f"{cfg.command} {given} needs about {need / 2**30:.1f} GiB, "
            f"more than the {have / 2**30:.1f} GiB this process may use"
        )


def _parse_seed(cfg: argparse.Namespace) -> partitions.SeedAssignment:
    return partitions.SeedAssignment.from_string(cfg.k, cfg.n0, cfg.seed)


def _head(cfg: argparse.Namespace) -> dict:
    """The first keys of a command's JSON document: the schema, the command
    and the flags of its :data:`_COMMANDS` row, in row order."""
    flags = _COMMANDS[cfg.command][2]
    return {"schema": SCHEMA_VERSION, "command": cfg.command, **{f: getattr(cfg, f) for f in flags}}


def _cmd_seeds(cfg: argparse.Namespace, out: TextIO) -> int:
    found = partitions.enumerate_seeds(cfg.k, cfg.n0)
    head, before, after = {
        "json": ({**_head(cfg), "count": len(found)}, b',\n    "', b'"'),
        "csv": ("seed\r\n", b"", b"\r\n"),
        "plain": ("", b"", b"\n"),
    }[cfg.format]
    _emit_list(out, head, "seeds", len(found), _bit_rows(found, before, after))
    print(f"{len(found)} valid seed(s) for k={cfg.k}, n0={cfg.n0}", file=sys.stderr)
    return 0


def _cmd_build(cfg: argparse.Namespace, out: TextIO) -> int:
    seed = _parse_seed(cfg)
    _check_memory(cfg, cfg.limit, "limit")
    chi = partitions.extend_seed(seed, cfg.limit)
    if cfg.format == "csv":
        _emit_table(["n", "chi"], (np.arange(chi.limit + 1), chi.bits), out)
        return 0
    # the bit string is one row of the seeds encoder
    if cfg.format == "json":
        out.write(_json_head(_head(cfg), "bits") + '"')
    out.write(_bit_rows(chi.bits[None], b"", b'"\n}\n' if cfg.format == "json" else b"\n")(0, 0))
    return 0


_VERIFY_BLOCK_IMAX = 4


def _cmd_verify(cfg: argparse.Namespace, out: TextIO) -> int:
    seed = _parse_seed(cfg)
    _check_memory(cfg, cfg.limit, "limit")
    # build mechanically even from a bad seed so the report can show the failure
    chi = partitions.extend_seed(seed, cfg.limit, require_valid=False)
    structure = partitions.verify_structure(chi, seed.k, seed.n0)
    diff = partitions.verify_equality(chi, seed.k, seed.n0)
    parity = partitions.verify_block_parity(chi, seed.k, seed.n0, _VERIFY_BLOCK_IMAX)
    eq_count = int(np.count_nonzero(diff))
    ok = structure.ok and not eq_count and parity.ok
    if cfg.format == "csv":
        equal = diff == 0  # before side_counts writes R_comp over D
        r_set, r_comp = partitions.side_counts(chi, seed.k, diff)
        table = (np.arange(seed.n0, chi.limit + 1), r_set, r_comp, equal)
        _emit_table(["n", "R_A", "R_comp", "equal"], table, out)
        print(f"verify: {'pass' if ok else 'FAIL'}", file=sys.stderr)
    else:
        _emit_json(
            cfg,
            out,
            passed=ok,
            checks={
                "structure": {
                    "passed": structure.ok,
                    "window_violations": list(structure.window_violations),
                    "flip_first_violation": structure.flip_first_violation,
                    "flip_violation_count": structure.flip_violation_count,
                },
                "equality": {
                    "passed": not eq_count,
                    "first_violation": seed.n0 + int((diff != 0).argmax()) if eq_count else None,
                    "violation_count": eq_count,
                },
                "block_parity": {
                    "passed": parity.ok,
                    "i_max": _VERIFY_BLOCK_IMAX,
                    "checked": parity.checked,
                    "violation_count": parity.violation_count,
                    "first_violations": [list(v) for v in parity.violations[:5]],
                },
            },
        )
    return 0 if ok else 1


def _cmd_scan_bound(cfg: argparse.Namespace, out: TextIO) -> int:
    seed = _parse_seed(cfg)
    if cfg.lo > cfg.hi:
        raise PreconditionError(f"empty range: lo={cfg.lo} > hi={cfg.hi}")
    if cfg.lo < 0:  # bound_scan refuses it too, but only once the table is built
        raise PreconditionError(f"need 0 <= lo <= hi, got [{cfg.lo}, {cfg.hi}]")
    _check_memory(cfg, cfg.hi, "hi")
    chi = partitions.extend_seed(seed, cfg.hi)
    scan = bounds.bound_scan(chi, seed.k, seed.n0, cfg.lo)
    columns = ["n", "R_A", "R_comp", "bound", "ok"]
    table = (scan.ns, scan.r_set, scan.r_comp, scan.bound, scan.ok)
    violations = (cfg.lo + np.flatnonzero(~scan.ok)).tolist()
    if cfg.format == "csv":
        _emit_table(columns, table, out)
        print(
            f"scan-bound: {len(violations)} violation(s), min_ratio={scan.min_ratio:.6f}",
            file=sys.stderr,
        )
    else:
        doc = {
            "schema": SCHEMA_VERSION,
            "command": "scan-bound",
            "seed": cfg.seed,
            "kind": "bound",
            "k": cfg.k,
            "n0": cfg.n0,
            "lo": cfg.lo,
            "hi": cfg.hi,
            "step": 1,
            "passed": not violations,
            "violations": violations,
            "min_ratio": scan.min_ratio,
        }
        _emit_table(columns, table, out, doc)
    return 1 if violations else 0


def _cmd_witness(cfg: argparse.Namespace, out: TextIO) -> int:
    seed = _parse_seed(cfg)
    # no table is built, but n must still cover the seed window and the seed be valid
    partitions.check_extension(seed, cfg.n)
    records, skipped = bounds.witness_list(seed, cfg.n)
    if cfg.format == "csv":
        csv.writer(out).writerows([bounds.WitnessRecord._fields, *records])
    else:
        head = {**_head(cfg), "guaranteed_bound": bounds.guaranteed_bound(cfg.k, cfg.n0, cfg.n)}
        out.write(_json_head(head, "records") + _json_objects(bounds.WitnessRecord._fields, records)
                  + ',\n  "skipped": ' + _json_objects(("j", "reason"), skipped) + "\n}\n")
    return 0


def _cmd_search(cfg: argparse.Namespace, out: TextIO) -> int:
    w = WeightPair(cfg.k1, cfg.k2)
    _check_memory(cfg, min(cfg.n0 // w.k1, cfg.cap), "n0", "cap")
    outcome = bounds.nonexistence_search(w, cfg.n0, cfg.cap)
    _emit_json(
        cfg,
        out,
        status=outcome.status,
        unsat_depth=outcome.unsat_depth,
        nodes=outcome.nodes,
        certificate="".join(map(str, outcome.certificate))
        if outcome.certificate is not None
        else None,
    )
    print(f"search: {outcome.status} in {outcome.elapsed:.6f} s", file=sys.stderr)
    return 0


class _Half:
    """Column r2 (``half`` 0) or r3 (``half`` 1) of classic, formed by
    :func:`repfn.core.classic_halves` from each chunk of r1 that
    :func:`_format_rows` slices, so neither is held whole."""

    __slots__ = ("r1", "half")

    def __init__(self, r1: np.ndarray, half: int):
        self.r1, self.half = r1, half

    def __getitem__(self, chunk: slice) -> np.ndarray:
        return classic_halves(self.r1[chunk])[self.half]


def _cmd_classic(cfg: argparse.Namespace, out: TextIO) -> int:
    seed = _parse_seed(cfg)
    if cfg.lo > cfg.hi:
        raise PreconditionError(f"empty range: lo={cfg.lo} > hi={cfg.hi}")
    if cfg.hi > cfg.limit:
        raise PreconditionError(f"hi={cfg.hi} exceeds limit={cfg.limit}")
    if cfg.lo < 0:
        raise PreconditionError(f"n must be nonnegative, got {cfg.lo}")
    _check_memory(cfg, cfg.limit, "limit")
    chi = partitions.extend_seed(seed, cfg.limit)
    r1_set, r1_comp = (classic_rep(chi, side, cfg.hi)[cfg.lo :] for side in (SET, COMPLEMENT))
    table = (np.arange(cfg.lo, cfg.hi + 1), r1_set, _Half(r1_set, 0), _Half(r1_set, 1),
             r1_comp, _Half(r1_comp, 0), _Half(r1_comp, 1))
    header = ["n", "r1_set", "r2_set", "r3_set", "r1_comp", "r2_comp", "r3_comp"]
    doc = {"schema": SCHEMA_VERSION, "command": "classic", "k": cfg.k, "n0": cfg.n0,
           "seed": cfg.seed}
    _emit_table(header, table, out, doc if cfg.format == "json" else None)
    return 0


# name: (handler, help text, its required flags, its formats with the default first)
_COMMANDS = {
    "seeds": (_cmd_seeds, "enumerate valid initial segments",
              ("k", "n0"), ("plain", "json", "csv")),
    "build": (_cmd_build, "extend a seed to a full prefix table",
              ("k", "n0", "seed", "limit"), ("plain", "json", "csv")),
    "verify": (_cmd_verify, "run structure, equality and block-parity checks",
               ("k", "n0", "seed", "limit"), ("json", "csv")),
    "scan-bound": (_cmd_scan_bound, "compare representation counts against the guaranteed bound",
                   ("k", "n0", "seed", "lo", "hi"), ("json", "csv")),
    "witness": (_cmd_witness, "extract explicit representations at one target n",
                ("k", "n0", "seed", "n"), ("json", "csv")),
    "search": (_cmd_search, "exhaustive prefix search for the count equality",
               ("k1", "k2", "n0", "cap"), ("json",)),
    "classic": (_cmd_classic, "classic unweighted counts r1/r2/r3 over a range",
                ("k", "n0", "seed", "limit", "lo", "hi"), ("json", "csv")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; building it costs more than most commands."""
    parser = argparse.ArgumentParser(
        prog="repfn",
        description="Build, verify and probe partitions of the naturals with "
        "equal weighted representation counts on both sides.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags, formats) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(f"--{flag}", type=str if flag == "seed" else int, required=True)
        p.add_argument("--format", choices=("json", "csv", "plain"), default=formats[0])
        p.add_argument("--out", type=str, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    cfg = parser.parse_args(argv)
    handler, _, _, formats = _COMMANDS[cfg.command]
    if cfg.format not in formats:
        print(f"error: --format {cfg.format} is not supported by {cfg.command}", file=sys.stderr)
        return 2
    try:
        with _open_out(cfg.out) as out:
            return handler(cfg, out)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoWitness as exc:
        print(f"claim failure: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
