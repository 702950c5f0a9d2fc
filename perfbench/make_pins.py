#!/usr/bin/env python3
"""Write pins.json: the expected exit code and output of every benchmark
command, after checking the outputs against each other.

    python3 perfbench/make_pins.py          # from the root of a checkout

Each command runs once as ``python -m chorddia`` against the checkout's
``src/``. Before anything is written, the outputs are cross-checked across
the computation paths: formula = burnside = oracle wherever the oracle
reaches, and the remaining values against independent counts (the number
of involutions for the S_8 group file, Catalan numbers and (2n-1)!! for the
crossing table). The ``table`` rows are pinned as the code computes them,
including n = 11 (c = 624999093, d = 312700297). Exits 1 without writing
when a check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads
from workloads import Command, cmd, double_factorial


class Outputs:
    """Runs commands once each and remembers what they printed."""

    def __init__(self, harness: run.Harness):
        self.harness = harness
        self.seen: dict[Command, tuple[int, bytes, tuple[int, str] | None]] = {}

    def get(self, command: Command) -> tuple[int, bytes, tuple[int, str] | None]:
        if command not in self.seen:
            argv, out_dir = self.harness.expand(command)
            _, code, out, _, _ = self.harness.spawn(
                [sys.executable, "-m", "chorddia", *argv])
            files = run.dir_digest(out_dir) if out_dir is not None else None
            if out_dir is not None:
                shutil.rmtree(out_dir, ignore_errors=True)
            self.seen[command] = (code, out, files)
        return self.seen[command]

    def value(self, text: str) -> int:
        code, out, _ = self.get(cmd(text))
        if code != 0:
            raise SystemExit(f"{text}: exit {code}")
        return int(out)


def cross_check(o: Outputs) -> list[str]:
    """Problems found; empty when every path agrees."""
    problems = []

    def same(label: str, *values):
        if any(v != values[0] for v in values[1:]):
            problems.append(f"{label}: {values}")

    for group in ("cyclic", "dihedral"):
        for n in (5, 6, 8):
            same(f"{group} n={n}",
                 *(o.value(f"count --group {group} --n {n} --method {m}")
                   for m in ("formula", "burnside", "oracle")))
        for n in (10, 12, 20, 24, 28):
            same(f"{group} n={n}",
                 *(o.value(f"count --group {group} --n {n} --method {m}")
                   for m in ("formula", "burnside")))
    same("count --n 5", o.value("count --n 5"), o.value("count --group cyclic --n 5 --method oracle"))
    # S_8 on 8 of 16 points: an orbit is fixed by which of points 9..16 meet
    # points 1..8 and how the rest of 9..16 pair up, which is an involution
    same("S_8 group file", o.value("count --n 8 --group-file {S8}"),
         sum(math.comb(8, 2 * j) * double_factorial(2 * j - 1) for j in range(5)))
    same("half-turn group file", o.value("count --n 3 --group-file {HALF}"),
         o.value("count --n 3 --group-file {HALF} --method oracle"), 11)

    code, csv, _ = o.get(cmd("table --from 3 --to 60"))
    rows = [line.split(",") for line in csv.decode().split()[1:]]
    _, js, _ = o.get(cmd("table --from 3 --to 60 --format json"))
    same("table csv == json", [[int(x) for x in r] for r in rows],
         [[int(r[k]) for k in ("n", "c_n", "floor_c_lower", "d_n", "floor_d_lower")]
          for r in json.loads(js)])
    table = {int(r[0]): (int(r[1]), int(r[3])) for r in rows}
    same("table n=11 as computed", table[11], (624999093, 312700297))
    for n in (5, 6, 8, 10, 12, 20, 24, 28):
        same(f"table n={n}", table[n],
             (o.value(f"count --group cyclic --n {n} --method burnside"),
              o.value(f"count --group dihedral --n {n} --method burnside")))

    for n in (6, 7):
        same(f"crossings n={n}", o.get(cmd(f"crossings --n {n}"))[1],
             o.get(cmd(f"crossings --n {n} --method oracle"))[1])
    _, cross, _ = o.get(cmd("crossings --n 12"))
    coeffs = [int(line.split(",")[1]) for line in cross.decode().split()[1:]]
    same("crossings n=12 total", sum(coeffs), double_factorial(23))
    same("crossings n=12 noncrossing", coeffs[0], math.comb(24, 12) // 13)

    sys.path.insert(0, str(run.ROOT / "src"))
    from chorddia.oracle import strict_count

    _, strict, _ = o.get(cmd("strict --n-max 40"))
    strict_rows = [line.split(",") for line in strict.decode().split()[1:]]
    for n in range(1, 8):
        same(f"strict n={n}", int(strict_rows[n - 1][1]), strict_count(n))

    for text, n, group in (("enumerate --n 5 --group cyclic", 5, "cyclic"),
                           ("enumerate --n 7 --group dihedral", 7, "dihedral")):
        lines = o.get(cmd(text))[1].decode().splitlines()
        same(text, len(lines), len(set(lines)),
             o.value(f"count --group {group} --n {n} --method formula"))
    svg = o.get(cmd("enumerate --n 4 --group dihedral --format svg-dir --out {OUT}"))[2]
    same("svg files", svg[0], o.value("count --group dihedral --n 4 --method formula"))

    for text in ("verify --n-max 16 --oracle-max 4", "verify --n-max 7 --oracle-max 7",
                 "verify --n-max 5 --oracle-max 3"):
        code, out, _ = o.get(cmd(text))
        same(text, code, 0)
        same(text, out.decode().splitlines()[-1], "all checks passed")
    same("count --n 0", o.get(cmd("count --n 0"))[0], 2)
    same("count --n 9 --method oracle", o.get(cmd("count --n 9 --method oracle"))[0], 3)
    same("threads 2", o.value("count --group cyclic --n 8 --method oracle --threads 2"),
         o.value("count --group cyclic --n 8 --method oracle"))
    return problems


def main() -> int:
    out_root = run.ROOT / ".perfbench"
    out_root.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="pins-", dir=out_root)
    try:
        outputs = Outputs(run.Harness(run.ROOT, {}, Path(work), limit_s=3600.0))
        problems = cross_check(outputs)
        pins = {}
        for command in workloads.all_commands():
            code, out, files = outputs.get(command)
            pin = {"exit": code, "stdout_sha256": run.digest(out)}
            if len(out) <= 80:
                pin["stdout"] = out.decode()
            if files is not None:
                pin["svg_files"], pin["svg_sha256"] = files
            pins[" ".join(command)] = pin
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"MISMATCH {problem}", file=sys.stderr)
    if problems:
        return 1
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {len(pins)} commands in {run.PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
