"""Command-line front end.

Subcommands: count, table, enumerate, crossings, strict, verify.
Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
3 resource-cap error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import DomainError, ResourceLimitError

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
    if n < 1:
        raise DomainError("n must be >= 1")
    return n


def _check_threads(threads: int) -> int:
    """Refuse a bad --threads before any work, even where no oracle runs."""
    if threads == 1:
        return threads  # the default: no need to load the oracle to check it
    from . import oracle

    return oracle._resolve_threads(threads)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _group_file_int(text: str) -> int:
    # run() lifts Python's digit limit for output, but int() of a long digit
    # string takes quadratic time, so a group file keeps the default limit
    if len(text) > 4300:
        raise DomainError(f"group file holds an integer of {len(text)} digits")
    return int(text)


def load_group_file(path: str, points_expected: int | None = None) -> PermGroup:
    """Read {"points": 2n, "elements": [[1-based images], ...]} and close it
    under composition."""
    import json  # a few ms of start-up, so only where JSON is read or written

    from . import groups

    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh, parse_int=_group_file_int)
    except OSError as exc:
        raise DomainError(f"cannot read group file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"group file {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "points" not in obj or "elements" not in obj:
        raise DomainError("group file must contain 'points' and 'elements'")
    points = obj["points"]
    # JSON true/false load as bool, which Python counts as an int
    if not _is_int(points) or points < 2 or points % 2:
        raise DomainError("group file 'points' must be an even integer >= 2")
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
    elements = [groups.GroupElement.from_images([x - 1 for x in row]) for row in rows]
    return groups.generate_group(elements, points)


def _resolve_group(args, n: int) -> PermGroup:
    if getattr(args, "group_file", None):
        return load_group_file(args.group_file, points_expected=2 * n)
    from .groups import make_standard_group

    return make_standard_group(args.group, 2 * n)


# ---------------------------------------------------------------- count

def _cmd_count(args) -> int:
    threads = _check_threads(args.threads)
    n = _require_order(args.n)
    # arbitrary groups have no closed form; their default path is burnside
    method = args.method or ("burnside" if args.group_file else "formula")
    if args.group_file and method == "formula":
        raise DomainError("--method formula needs a standard group; use burnside or oracle")
    if method == "formula":
        value = _standard_formula(args.group)(n)
    elif method == "burnside":
        from . import burnside

        value = burnside.burnside_count(n, _resolve_group(args, n))
    else:
        from . import oracle

        # refused before the group is built or closed
        oracle._check_n(n)
        value = oracle.orbit_count(n, _resolve_group(args, n), threads=threads).orbit_count
    print(value)
    return 0


# ---------------------------------------------------------------- table

# the rows' closed forms and floors grow as about n^2.7 in time:
# `table --from 1 --to 2000` takes about 10 s and 90 MB on a 2-vCPU machine,
# and --to 3000 took 35 s
MAX_TABLE_N = 2000


def _table_records(first: int, last: int) -> list[dict]:
    from . import closed_forms

    records = []
    for n in range(first, last + 1):
        records.append(
            {
                "n": n,
                "c_n": closed_forms.cyclic_count(n),
                "floor_c_lower": closed_forms.asymptotic_lower_bound("cyclic", n).exact_floor,
                "d_n": closed_forms.dihedral_count(n),
                "floor_d_lower": closed_forms.asymptotic_lower_bound("dihedral", n).exact_floor,
            }
        )
    return records


def _cmd_table(args) -> int:
    first, last = args.from_n, args.to_n
    if first < 1 or last < first:
        raise DomainError("table needs 1 <= from <= to")
    if last > MAX_TABLE_N:
        raise ResourceLimitError(f"table capped at --to <= {MAX_TABLE_N}, got {last}")
    records = _table_records(first, last)
    if args.format == "csv":
        out = ["n,c_n,floor_c_lower,d_n,floor_d_lower"]
        for r in records:
            out.append(
                f"{r['n']},{r['c_n']},{r['floor_c_lower']},{r['d_n']},{r['floor_d_lower']}"
            )
        sys.stdout.write("\n".join(out) + "\n")
    else:
        import json

        payload = [
            {
                "n": r["n"],
                "c_n": str(r["c_n"]),
                "floor_c_lower": str(r["floor_c_lower"]),
                "d_n": str(r["d_n"]),
                "floor_d_lower": str(r["floor_d_lower"]),
            }
            for r in records
        ]
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return 0


# ---------------------------------------------------------------- enumerate

def _cmd_enumerate(args) -> int:
    from . import oracle

    n = _require_order(args.n)
    oracle._check_n(n)  # refused before the group is built or closed
    reps = oracle.representatives(n, _resolve_group(args, n))
    if args.format == "jsonl":
        from .diagrams import _json_line

        sys.stdout.writelines(_json_line(d.partner) for d in reps)
        return 0
    if not args.out:
        raise DomainError("--format svg-dir requires --out DIR")
    from .svg import render_svg

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        width = max(2, len(str(len(reps))))
        for idx, d in enumerate(reps, start=1):
            (out_dir / f"diagram-{idx:0{width}d}.svg").write_text(
                render_svg(d), encoding="utf-8"
            )
    except OSError as exc:
        raise DomainError(f"cannot write to {out_dir}: {exc}") from exc
    print(f"wrote {len(reps)} SVG files to {out_dir}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------- crossings

def _cmd_crossings(args) -> int:
    threads = _check_threads(args.threads)
    n = _require_order(args.n)
    if args.method == "formula":
        from . import classic

        poly = classic.crossing_polynomial(n)
    else:
        from . import oracle

        poly = oracle.crossing_distribution(n, threads=threads)
    if args.format == "csv":
        out = ["crossings,count"]
        out += [f"{j},{c}" for j, c in enumerate(poly.coefficients)]
        sys.stdout.write("\n".join(out) + "\n")
    else:
        import json

        json.dump(
            {"n": n, "coefficients": [str(c) for c in poly.coefficients]},
            sys.stdout,
            indent=2,
        )
        sys.stdout.write("\n")
    return 0


# ---------------------------------------------------------------- strict

def _cmd_strict(args) -> int:
    from . import classic

    n_max = _require_order(args.n_max)
    seqs = classic.strict_sequences(n_max)
    out = ["n,strict,cumulative"]
    for k in range(n_max):
        out.append(f"{k + 1},{seqs.strict[k]},{seqs.cumulative[k]}")
    sys.stdout.write("\n".join(out) + "\n")
    return 0


# ---------------------------------------------------------------- verify

def _cmd_verify(args) -> int:
    from . import burnside, classic, closed_forms, oracle
    from .groups import make_standard_group

    threads = oracle._resolve_threads(args.threads)
    n_max = _require_order(args.n_max)
    cap = oracle.enumeration_cap()
    if args.oracle_max is None:
        oracle_max = min(n_max, 6)
    else:
        oracle_max = args.oracle_max
        if oracle_max < 1:
            # below 1 every oracle check would pass without testing anything
            raise DomainError(f"--oracle-max must be at least 1, got {oracle_max}")
        if oracle_max > n_max:
            raise DomainError("--oracle-max cannot exceed --n-max")
        if oracle_max > cap:
            raise ResourceLimitError(
                f"--oracle-max {oracle_max} exceeds the enumeration cap {cap}"
            )
    failures = 0

    def report(name: str, ok: bool, detail: str = "", file=None):
        nonlocal failures
        if ok:
            print(f"ok   {name}", file=file)
        else:
            failures += 1
            print(f"FAIL {name}{': ' + detail if detail else ''}", file=file)

    for kind in _FORMULA_NAMES:
        formula = _standard_formula(kind)
        # first mismatch of each line, "" while there is none
        formula_detail = wreath_detail = ""
        for n in range(1, n_max + 1):
            group = make_standard_group(kind, 2 * n)
            got = burnside.burnside_count(n, group)
            expected = formula(n)
            if got != expected and not formula_detail:
                formula_detail = f"n={n}: burnside {got} != formula {expected}"
            wreath = burnside._wreath_class_sum(n, group)
            if wreath != got and not wreath_detail:
                wreath_detail = f"n={n}: wreath class sum {wreath} != burnside {got}"
        report(f"formula == burnside ({kind}, n <= {n_max})", not formula_detail, formula_detail)
        # on stderr, because perfbench/pins.json pins verify's stdout byte
        # for byte; it still counts towards the failures and the exit code
        report(
            f"burnside == wreath class sum ({kind}, n <= {n_max})",
            not wreath_detail,
            wreath_detail,
            sys.stderr,
        )

    effective = min(oracle_max, cap)
    # one walk of the D_2n orbit minima per n gives the dihedral orbit count,
    # the crossing histogram and the strict count for the lines below
    census_max = min(effective, 7)
    census = {n: oracle._dihedral_census(n, threads) for n in range(1, census_max + 1)}
    for kind in _FORMULA_NAMES:
        formula = _standard_formula(kind)
        ok = True
        detail = ""
        for n in range(1, effective + 1):
            expected = formula(n)
            if kind == "dihedral" and n in census:
                summary = census[n][0]
            else:
                group = make_standard_group(kind, 2 * n)
                summary = oracle.orbit_count(n, group, threads=threads)
            if summary.orbit_count != expected:
                ok, detail = False, f"n={n}: oracle {summary.orbit_count} != {expected}"
                break
            mass = sum(s * k for s, k in summary.orbit_size_histogram.items())
            if mass != closed_forms.diagram_count(n):
                ok, detail = False, f"n={n}: histogram mass {mass}"
                break
        report(f"formula == oracle ({kind}, n <= {effective})", ok, detail)

    ok = True
    detail = ""
    for n in range(1, min(effective, 6) + 1):
        group = make_standard_group("cyclic", 2 * n)
        fixed_total = 0
        for g in group.elements:
            fixed = oracle.fixed_diagram_count(n, g)
            fixed_total += fixed
            expected = closed_forms.rotation_fixed_count(n, g.order())
            if fixed != expected:
                ok, detail = False, f"n={n}, order {g.order()}: {fixed} != {expected}"
                break
        if not ok:
            break
        if fixed_total != 2 * n * closed_forms.cyclic_count(n):
            ok, detail = False, f"n={n}: Burnside average mismatch"
            break
    report(f"rotation fixed counts match closed form (n <= {min(effective, 6)})", ok, detail)

    ok = True
    detail = ""
    for n in range(1, n_max + 1):
        dist = burnside.wreath_cycle_type_distribution(n)
        if dist.total != 2**n * math.factorial(n):
            ok, detail = False, f"n={n}: total {dist.total}"
            break
    report(f"wreath distribution mass == 2^n n! (n <= {n_max})", ok, detail)

    ok = True
    detail = ""
    for n in range(1, census_max + 1):
        if classic.crossing_polynomial(n).coefficients != census[n][1].coefficients:
            ok, detail = False, f"n={n}"
            break
    report(f"crossing polynomial == crossing histogram (n <= {census_max})", ok, detail)

    # the oracle's crossing walk shares its pruning with the orbit counts,
    # so a formula-free transfer count checks the polynomial on its own
    # (on stderr, like the wreath lines)
    ok = True
    detail = ""
    for n in range(1, census_max + 1):
        if classic.crossing_polynomial(n).coefficients != classic._crossing_transfer(n):
            ok, detail = False, f"n={n}"
            break
    report(
        f"crossing polynomial == transfer count (n <= {census_max})",
        ok,
        detail,
        sys.stderr,
    )

    ok = True
    detail = ""
    seqs = classic.strict_sequences(n_max)
    for n in range(1, census_max + 1):
        if seqs.strict[n - 1] != census[n][2]:
            ok, detail = False, f"n={n}"
            break
    report(f"strict recurrence == strict enumeration (n <= {census_max})", ok, detail)

    # a second count of strict diagrams that needs no oracle, so it runs
    # to n_max (on stderr, like the wreath lines)
    ok = True
    detail = ""
    for n in range(1, n_max + 1):
        got = classic._strict_inclusion_exclusion(n)
        if got != seqs.strict[n - 1]:
            ok, detail = False, f"n={n}: inclusion-exclusion {got} != {seqs.strict[n - 1]}"
            break
    report(f"strict recurrence == inclusion-exclusion (n <= {n_max})", ok, detail, sys.stderr)

    print(f"{failures} failure(s)" if failures else "all checks passed")
    return 1 if failures else 0


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chorddia",
        description="Count and enumerate chord diagrams up to symmetry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group_options(p, with_method=None):
        p.add_argument(
            "--group",
            choices=("identity", "cyclic", "dihedral"),
            default="cyclic",
            help="standard symmetry group (default: cyclic)",
        )
        p.add_argument(
            "--group-file",
            metavar="PATH",
            help="JSON file with an arbitrary permutation group (1-based images)",
        )
        if with_method:
            p.add_argument("--method", choices=with_method, default=None)

    p_count = sub.add_parser("count", help="count nonequivalent diagrams")
    p_count.add_argument("--n", type=int, required=True, help="diagram order")
    add_group_options(p_count, with_method=("formula", "burnside", "oracle"))
    p_count.add_argument("--threads", type=int, default=1, help="workers for oracle runs")
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
    p_cross.add_argument("--threads", type=int, default=1)
    p_cross.set_defaults(handler=_cmd_crossings)

    p_strict = sub.add_parser("strict", help="strict diagram counts")
    p_strict.add_argument("--n-max", dest="n_max", type=int, required=True)
    p_strict.set_defaults(handler=_cmd_strict)

    p_verify = sub.add_parser("verify", help="cross-check all computation paths")
    p_verify.add_argument("--n-max", dest="n_max", type=int, required=True)
    p_verify.add_argument("--oracle-max", dest="oracle_max", type=int, default=None)
    p_verify.add_argument("--threads", type=int, default=1)
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    # Counts past 4300 digits must print, so Python's int-to-str limit
    # (3.11+) is lifted while the command runs; argv was parsed under it.
    previous = None
    if hasattr(sys, "set_int_max_str_digits"):
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        if previous is not None:
            sys.set_int_max_str_digits(previous)


def main() -> None:
    sys.exit(run())
