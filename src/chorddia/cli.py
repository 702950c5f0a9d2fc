"""Command-line front end.

Subcommands: count, table, enumerate, crossings, strict, verify.
Exit codes: 0 success, 1 verification failure or stdout closed by its
reader, 2 usage or domain error, 3 resource-cap error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from itertools import chain, islice
from operator import getitem
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import DomainError, ResourceLimitError, _is_int, _require_int

if TYPE_CHECKING:
    from .groups import PermGroup

# Each handler imports the modules it runs, so a short command compiles and
# loads only those: a formula count never loads the oracle or Burnside.

# standard group kind -> the name of its closed form in closed_forms
_FORMULA_NAMES = {
    "identity": "diagram_count",
    "cyclic": "cyclic_count",
    "dihedral": "dihedral_count",
}


def _standard_formula(kind: str):
    from . import closed_forms

    return getattr(closed_forms, _FORMULA_NAMES[kind])


def _require_order(n: int) -> int:
    return _require_int(n, 1, "n must be >= 1")


def _threads(text: str) -> int:
    """argparse type of --threads: a bad count is refused while the command
    line is parsed, before any work, even where no oracle runs."""
    try:
        threads = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if threads < 1:
        raise argparse.ArgumentTypeError("threads must be >= 1")
    return threads


def _group_file_int(text: str) -> int:
    # run() lifts Python's digit limit for output, but int() of a long digit
    # string takes quadratic time, so a group file keeps the default limit
    if len(text) > 4300:
        raise DomainError(f"group file holds an integer of {len(text)} digits")
    return int(text)


# A group file is read whole before it is parsed. JSON's densest layout,
# `[[],[],...]`, parses to about 28 bytes of RSS per file byte: at this bound
# the command peaks at 224 MB RSS, at 16 MiB it peaked at 442 MB, and at
# 24 MiB it ran out of a 600 MB address space. A file that lists all 40,320
# elements of S_8 on 16 points is 2.3 MB.
MAX_GROUP_FILE_BYTES = 8 * 2**20


def load_group_file(path: str, points_expected: int | None = None) -> PermGroup:
    """Read {"points": 2n, "elements": [[1-based images], ...]} and close it
    under composition."""
    from . import groups

    points, rows = _group_file_rows(path, points_expected)
    return groups.generate_group([groups.GroupElement._unchecked(row) for row in rows], points)


def _group_file_rows(path: str, points_expected: int | None) -> tuple[int, list[tuple[int, ...]]]:
    """The points and the 0-based image rows of a group file, with every
    check of load_group_file, the closure's bound on the listed entries
    included."""
    import json  # a few ms of start-up, so only where JSON is read or written

    from . import groups

    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_GROUP_FILE_BYTES + 1)
    except OSError as exc:
        raise DomainError(f"cannot read group file {path}: {exc}") from exc
    if len(data) > MAX_GROUP_FILE_BYTES:
        raise ResourceLimitError(
            f"group file {path} is longer than {MAX_GROUP_FILE_BYTES} bytes"
        )
    try:
        obj = json.loads(data.decode("utf-8"), parse_int=_group_file_int)
    except UnicodeDecodeError as exc:
        raise DomainError(f"group file {path} is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"group file {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DomainError(f"group file {path} is nested too deeply") from exc
    if not isinstance(obj, dict) or "points" not in obj or "elements" not in obj:
        raise DomainError("group file must contain 'points' and 'elements'")
    points = obj["points"]
    message = "group file 'points' must be an even integer >= 2"
    if _require_int(points, 2, message) % 2:
        raise DomainError(message)
    if points_expected is not None and points != points_expected:
        raise DomainError(
            f"group file acts on {points} points but n requires {points_expected}"
        )
    rows = obj["elements"]
    if not isinstance(rows, list):
        raise DomainError("group file 'elements' must be a list of image lists")
    for row in rows:
        # the length check comes first: the range below has `points` entries
        if (
            not isinstance(row, list)
            or len(row) != points
            or not all(_is_int(x) for x in row)
            or sorted(row) != list(range(1, points + 1))
        ):
            raise DomainError(f"group file element {row!r} is not a 1-based bijection")
    # the closure's bound on stored entries, checked before any element is built
    if len(rows) * points > groups.MAX_CLOSURE_ENTRIES:
        raise ResourceLimitError(
            f"group file lists {len(rows)} elements of {points} points, more than"
            f" {groups.MAX_CLOSURE_ENTRIES} image entries"
        )
    return points, [tuple([x - 1 for x in row]) for row in rows]


def _resolve_group(args, n: int) -> PermGroup:
    if getattr(args, "group_file", None):
        return load_group_file(args.group_file, points_expected=2 * n)
    from .groups import make_standard_group

    return make_standard_group(args.group, 2 * n)


# Pieces of output that _write joins into one write, whatever the format:
# one system call per chunk where stdout is unbuffered, so a count, a table
# or a JSON document is one write, and a listing holds one chunk of lines
# at a time (377 kB at n = 8).
WRITE_CHUNK = 4096


def _write(pieces, stream=None) -> None:
    """Write the text pieces to stream (sys.stdout by default), WRITE_CHUNK
    of them per call: the one writer of the CLI's stdout and stderr."""
    pieces = iter(pieces)
    stream = stream or sys.stdout
    while chunk := list(islice(pieces, WRITE_CHUNK)):
        stream.write("".join(chunk))


def _write_csv(header: tuple[str, ...], rows) -> None:
    """The header line, then one comma-joined line per row."""
    _write(",".join(map(str, row)) + "\n" for row in chain([header], rows))


def _write_json(payload) -> None:
    import json  # a few ms of start-up, so only where JSON is written

    # the encoder's chunks, then a newline: the bytes of json.dump(indent=2)
    _write(chain(json.JSONEncoder(indent=2).iterencode(payload), ["\n"]))


def _write_jsonl(n: int, partners) -> None:
    """One line per partner array, json.dumps(ChordDiagram(p).to_json_dict())
    and a newline. partners may be the walk's own arrays: each line is made
    before the next is asked for."""
    size = 2 * n
    # cell[v][w]: the text of chord (v, w) from its smaller endpoint, so a
    # line is the non-empty cells of (v, p[v]) in the order of v
    cell = [[f"[{v + 1}, {w + 1}]" if v < w else "" for w in range(size)]
            for v in range(size)]
    head = f'{{"n": {n}, "chords": ['
    _write(f"{head}{', '.join(filter(None, map(getitem, cell, p)))}]}}\n" for p in partners)


# ---------------------------------------------------------------- count

# the closed forms' big products and their decimal output grow as about n^2,
# and so do a Burnside count's: it walks each cycle length's multiplicities
# once for all the group's types, and the closure bound leaves the group at
# most MAX_CLOSURE_ENTRIES / 2n elements (71 here). At n = 70000 on a 2-vCPU
# machine the cyclic and dihedral formulas took 4.3 and 4.6 s, and a Burnside
# count 2.8 s for the identity group, 4.7 s for a half turn and 5.8 s for a
# file of 6 generators that swap 1, 2, 4, ..., 32 disjoint pairs (64 types).
# The oracle path is bounded by the enumeration cap.
MAX_COUNT_N = 70000


def _cmd_count(args) -> int:
    n = _require_order(args.n)
    # arbitrary groups have no closed form; their default path is burnside
    method = args.method or ("burnside" if args.group_file else "formula")
    if args.group_file and method == "formula":
        raise DomainError("--method formula needs a standard group; use burnside or oracle")
    # refused before any group is built or group file read
    if method != "oracle" and n > MAX_COUNT_N:
        raise ResourceLimitError(f"{method} count capped at --n <= {MAX_COUNT_N}, got {n}")
    if method == "formula":
        value = _standard_formula(args.group)(n)
    elif method == "burnside":
        from . import burnside

        if args.group_file:
            # a file may list a group of up to 10^6 elements (S_8 on 16 points
            # has 40,320): its count reads the closure's image rows and builds
            # no element. A standard group has 2n or 4n elements, which
            # burnside_count types one by one.
            value = burnside._generated_count(n, _group_file_rows(args.group_file, 2 * n)[1])
        else:
            value = burnside.burnside_count(n, _resolve_group(args, n))
    else:
        from . import oracle

        # refused before the group is built or closed
        oracle._check_n(n)
        value = oracle.orbit_count(n, _resolve_group(args, n), threads=args.threads).orbit_count
    _write([f"{value}\n"])
    return 0


# ---------------------------------------------------------------- table

# the rows' closed forms grow as about n^3 in time, and the floors, from one
# (2n-1)!! carried across the rows, take 0.01 s of it at --to 2000:
# `table --from 1 --to 2000` takes about 4.5 s and 92 MB on a 2-vCPU
# machine, and --to 3000 took 16 s and 200 MB
MAX_TABLE_N = 2000


def _cmd_table(args) -> int:
    from .closed_forms import cyclic_count, diagram_count, dihedral_count

    first, last = args.from_n, args.to_n
    if first < 1 or last < first:
        raise DomainError("table needs 1 <= from <= to")
    if last > MAX_TABLE_N:
        raise ResourceLimitError(f"table capped at --to <= {MAX_TABLE_N}, got {last}")
    columns = ("n", "c_n", "floor_c_lower", "d_n", "floor_d_lower")
    rows = []
    # (2n-1)!!, carried from row to row; the floors are those of
    # closed_forms.asymptotic_lower_bound, (2n-1)!! / 2n and (2n-1)!! / 4n
    matchings = diagram_count(first)
    for n in range(first, last + 1):
        rows.append((n, cyclic_count(n), matchings // (2 * n),
                     dihedral_count(n), matchings // (4 * n)))
        matchings *= 2 * n + 1
    if args.format == "csv":
        _write_csv(columns, rows)
    else:
        # counts as strings: many JSON readers parse numbers as doubles
        _write_json([dict(zip(columns, (n, *map(str, counts)))) for n, *counts in rows])
    return 0


# ---------------------------------------------------------------- enumerate

# The JSON lines and the SVG files stream from the walk, so a listing holds
# one chunk of lines, or one file, at a time. On a 2-vCPU machine the
# longest listing under the default oracle cap, `enumerate --n 8 --group
# identity` (2,027,025 classes, 186 MB of text), takes 5.3 s and peaks at
# 20 MB RSS; the longest under the hard cap, `--n 9 --group cyclic`
# (1,915,951), 5.3 s and 20 MB. The next listing, the identity group at
# n = 9, has 34,459,425 classes (3.5 GB of text).
MAX_ENUMERATE_CLASSES = 2027025


def _cmd_enumerate(args) -> int:
    from . import oracle

    n = _require_order(args.n)
    oracle._check_n(n)  # refused before the group is built or closed
    if args.format == "svg-dir" and not args.out:
        raise DomainError("--format svg-dir requires --out DIR")
    # a standard group is counted by its closed form before it is built; a
    # group file is counted once it is read and closed
    if args.group_file:
        from .burnside import burnside_count

        group = _resolve_group(args, n)
        classes = burnside_count(n, group)
    else:
        classes = _standard_formula(args.group)(n)
    if classes > MAX_ENUMERATE_CLASSES:
        raise ResourceLimitError(
            f"enumerate capped at {MAX_ENUMERATE_CLASSES} classes, got {classes}"
        )
    if not args.group_file:
        group = _resolve_group(args, n)
    if args.format == "jsonl":
        _write_jsonl(n, oracle._minima(group))
        return 0
    from .diagrams import ChordDiagram
    from .svg import render_svg

    width = max(2, len(str(classes)))
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for idx, p in enumerate(oracle._minima(group), start=1):
            (out_dir / f"diagram-{idx:0{width}d}.svg").write_text(
                render_svg(ChordDiagram._unchecked(tuple(p))), encoding="utf-8"
            )
    except OSError as exc:
        raise DomainError(f"cannot write to {out_dir}: {exc}") from exc
    _write([f"wrote {classes} SVG files to {out_dir}\n"], sys.stderr)
    return 0


# ---------------------------------------------------------------- crossings

def _cmd_crossings(args) -> int:
    n = _require_order(args.n)
    if args.method == "formula":
        from . import classic

        poly = classic.crossing_polynomial(n)
    else:
        from . import oracle

        poly = oracle.crossing_distribution(n, threads=args.threads)
    if args.format == "csv":
        _write_csv(("crossings", "count"), enumerate(poly.coefficients))
    else:
        _write_json({"n": n, "coefficients": [str(c) for c in poly.coefficients]})
    return 0


# ---------------------------------------------------------------- strict

def _cmd_strict(args) -> int:
    from . import classic

    n_max = _require_order(args.n_max)
    seqs = classic.strict_sequences(n_max)
    _write_csv(("n", "strict", "cumulative"),
               zip(range(1, n_max + 1), seqs.strict, seqs.cumulative))
    return 0


# ---------------------------------------------------------------- verify

# the wreath mass line walks every pair-permutation type and split choice
# for each n <= --n-max (589,128 terms at n = 30), about 1.35 times more
# per step of n, and the transfer count line, one scan for every n, adds
# about 0.13 s at 35: `verify --n-max 35` took 5.4-5.8 s on a 2-vCPU
# machine, up to 10.6 s when it was busier (--n-max 30 about 1.6 s)
MAX_VERIFY_N = 35


def _verify_checks(n_max: int, oracle_max: int, threads: int) -> list[tuple]:
    """verify's lines in print order, each (label, last n, pair, stream):
    pair(n) returns the two values that the label says are equal at n, in
    the label's order."""
    from . import burnside, classic, closed_forms, oracle
    from .groups import make_standard_group

    rotation_max = min(oracle_max, 6)

    # the values that several lines read, each computed once
    groups, counts, formulas = {}, {}, {}
    for kind in _FORMULA_NAMES:
        for n in range(1, n_max + 1):
            groups[kind, n] = make_standard_group(kind, 2 * n)
            counts[kind, n] = burnside.burnside_count(n, groups[kind, n])
            formulas[kind, n] = _standard_formula(kind)(n)
    # one walk of the D_2n orbit minima per n gives the identity, cyclic and
    # dihedral orbit summaries, the crossing histogram and the strict count
    census = {n: oracle._dihedral_census(n, threads) for n in range(1, oracle_max + 1)}
    strict = classic.strict_sequences(n_max).strict
    # one scan of 2 * n_max points gives the transfer row of every n
    transfer = classic._crossing_transfers(n_max)

    def oracle_pair(kind: str, n: int) -> tuple:
        # the census starts with the orbit summaries in _FORMULA_NAMES order
        summary = dict(zip(_FORMULA_NAMES, census[n]))[kind]
        mass = sum(s * k for s, k in summary.orbit_size_histogram.items())
        return (formulas[kind, n], closed_forms.diagram_count(n)), (summary.orbit_count, mass)

    def rotation_pair(n: int) -> tuple:
        rotations = groups["cyclic", n].elements
        closed = tuple(closed_forms.rotation_fixed_count(n, g.order()) for g in rotations)
        walked = tuple(oracle.fixed_diagram_count(n, g) for g in rotations)
        return (closed, 2 * n * formulas["cyclic", n]), (walked, sum(walked))

    # A line on stderr counts towards the failures and the exit code like
    # any other; it is there because perfbench/pins.json pins verify's
    # stdout byte for byte.
    out, err = sys.stdout, sys.stderr
    checks = []
    for kind in _FORMULA_NAMES:
        checks += [
            (f"formula == burnside ({kind}, n <= {n_max})", n_max,
             lambda n, kind=kind: (formulas[kind, n], counts[kind, n]), out),
            (f"burnside == wreath class sum ({kind}, n <= {n_max})", n_max,
             lambda n, kind=kind: (
                 counts[kind, n], burnside._wreath_class_sum(n, groups[kind, n])), err),
        ]
    for kind in _FORMULA_NAMES:
        checks.append((f"formula == oracle ({kind}, n <= {oracle_max})", oracle_max,
                       lambda n, kind=kind: oracle_pair(kind, n), out))
    return checks + [
        (f"rotation fixed counts match closed form (n <= {rotation_max})", rotation_max,
         rotation_pair, out),
        # the weights of every term that the class sums draw from, added up
        # without grouping them by cycle type
        (f"wreath distribution mass == 2^n n! (n <= {n_max})", n_max,
         lambda n: (sum(weight for _, weight in burnside._wreath_terms(n)),
                    2**n * math.factorial(n)), out),
        (f"crossing polynomial == crossing histogram (n <= {oracle_max})", oracle_max,
         lambda n: (classic.crossing_polynomial(n).coefficients,
                    census[n][3].coefficients), out),
        # the census's crossings share its pruning with the orbit counts, so
        # a formula-free transfer count checks the polynomial on its own; it
        # walks no matching, so it runs to n_max
        (f"crossing polynomial == transfer count (n <= {n_max})", n_max,
         lambda n: (classic.crossing_polynomial(n).coefficients, transfer[n - 1]), err),
        (f"strict recurrence == strict enumeration (n <= {oracle_max})", oracle_max,
         lambda n: (strict[n - 1], census[n][4]), out),
        # a second count of strict diagrams that needs no oracle, so it runs
        # to n_max
        (f"strict recurrence == inclusion-exclusion (n <= {n_max})", n_max,
         lambda n: (strict[n - 1], classic._strict_inclusion_exclusion(n)), err),
    ]


def _cmd_verify(args) -> int:
    from . import oracle

    n_max = _require_order(args.n_max)
    if n_max > MAX_VERIFY_N:
        raise ResourceLimitError(f"verify capped at --n-max <= {MAX_VERIFY_N}, got {n_max}")
    cap = oracle.enumeration_cap()
    oracle_max = args.oracle_max
    if oracle_max is None:
        oracle_max = min(n_max, 6, cap)
    elif oracle_max < 1:
        # below 1 every oracle check would pass without testing anything
        raise DomainError(f"--oracle-max must be at least 1, got {oracle_max}")
    elif oracle_max > n_max:
        raise DomainError("--oracle-max cannot exceed --n-max")
    elif oracle_max > cap:
        raise ResourceLimitError(f"--oracle-max {oracle_max} exceeds the enumeration cap {cap}")
    failures = 0
    # each line is written once decided, so a long run shows its progress
    for label, last, pair, stream in _verify_checks(n_max, oracle_max, args.threads):
        line = f"ok   {label}\n"
        for n in range(1, last + 1):
            left, right = pair(n)
            if left != right:
                failures += 1
                line = f"FAIL {label}: n={n}: {left} != {right}\n"
                break
        _write([line], stream)
    _write([f"{failures} failure(s)\n" if failures else "all checks passed\n"])
    return 1 if failures else 0


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chorddia",
        description="Count and enumerate chord diagrams up to symmetry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group_options(p, with_method=None):
        group = p.add_mutually_exclusive_group()
        group.add_argument(
            "--group",
            choices=("identity", "cyclic", "dihedral"),
            help="standard symmetry group (default: cyclic)",
        )
        group.add_argument(
            "--group-file",
            metavar="PATH",
            help="JSON file with an arbitrary permutation group (1-based images)",
        )
        if with_method:
            p.add_argument("--method", choices=with_method, default=None)

    p_count = sub.add_parser("count", help="count nonequivalent diagrams")
    p_count.add_argument("--n", type=int, required=True, help="diagram order")
    add_group_options(p_count, with_method=("formula", "burnside", "oracle"))
    p_count.add_argument("--threads", type=_threads, default=1, help="workers for oracle runs")
    p_count.set_defaults(handler=_cmd_count)

    p_table = sub.add_parser("table", help="growth table of counts and bounds")
    p_table.add_argument("--from", dest="from_n", type=int, required=True)
    p_table.add_argument("--to", dest="to_n", type=int, required=True)
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.set_defaults(handler=_cmd_table)

    p_enum = sub.add_parser("enumerate", help="list one representative per orbit")
    p_enum.add_argument("--n", type=int, required=True)
    add_group_options(p_enum)
    p_enum.add_argument("--format", choices=("jsonl", "svg-dir"), default="jsonl")
    p_enum.add_argument("--out", metavar="DIR", help="output directory for svg-dir")
    p_enum.set_defaults(handler=_cmd_enumerate)

    p_cross = sub.add_parser("crossings", help="diagram counts by crossing number")
    p_cross.add_argument("--n", type=int, required=True)
    p_cross.add_argument("--method", choices=("formula", "oracle"), default="formula")
    p_cross.add_argument("--format", choices=("csv", "json"), default="csv")
    p_cross.add_argument("--threads", type=_threads, default=1)
    p_cross.set_defaults(handler=_cmd_crossings)

    p_strict = sub.add_parser("strict", help="strict diagram counts")
    p_strict.add_argument("--n-max", dest="n_max", type=int, required=True)
    p_strict.set_defaults(handler=_cmd_strict)

    p_verify = sub.add_parser("verify", help="cross-check all computation paths")
    p_verify.add_argument("--n-max", dest="n_max", type=int, required=True)
    p_verify.add_argument("--oracle-max", dest="oracle_max", type=int, default=None)
    p_verify.add_argument("--threads", type=_threads, default=1)
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    # --group defaults to None so that argparse can refuse it beside --group-file
    if getattr(args, "group", "") is None:
        args.group = "cyclic"
    # Counts past 4300 digits must print, so Python's int-to-str limit
    # (3.11+) is lifted while the command runs; argv was parsed under it.
    previous = None
    if hasattr(sys, "set_int_max_str_digits"):
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    except (DomainError, ResourceLimitError) as exc:
        _write([f"error: {exc}\n"], sys.stderr)
        return 2 if isinstance(exc, DomainError) else 3
    finally:
        if previous is not None:
            sys.set_int_max_str_digits(previous)


def main() -> None:
    # with file descriptor 1 closed at start, Python sets sys.stdout to None:
    # end as a closed pipe does, before any work
    if sys.stdout is None:
        sys.exit(1)
    # with fd 2 closed, sys.stderr is None and argparse writes usage to stdout
    if sys.stderr is None:
        sys.stderr = open(os.devnull, "w")
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`chorddia enumerate ... | head`):
        # point stdout at /dev/null so that the flush at exit cannot raise
        # again, and end as a failed write would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
