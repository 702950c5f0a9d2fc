"""The benchmark's workloads: which chorddia commands one pass runs.

A command is a tuple of CLI arguments (after ``python -m chorddia``). Three
placeholders stand for paths the harness makes in its work directory:
``{S8}`` and ``{HALF}`` are group files written by ``write_group_files``,
and ``{OUT}`` is a fresh, empty output directory for each invocation. The
command with its placeholders is the key of its pinned output in
``pins.json``.

The seed decides the order of the commands in each pass and, for
``cli-short``, which pool entry fills each slot. The program sees only the
generated argv.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

Command = tuple[str, ...]


def cmd(text: str) -> Command:
    return tuple(text.split())


# Cold Burnside counts: the wreath table, the class sum, group closure and
# cycle-type splitting take nearly all of the time; the oracle almost none.
CLASS_SUM: tuple[Command, ...] = tuple(
    cmd(f"count --method burnside --group {group} --n {n}")
    for group in ("cyclic", "dihedral")
    for n in (20, 24, 28)
) + (
    cmd("count --n 8 --group-file {S8}"),
    cmd("verify --n-max 16 --oracle-max 4"),
)

# Enumeration: the matching walk and the canonical, crossing, strict and
# fixed-count leaf tests take nearly all of the time; Burnside almost none.
# Orbit, crossing and listing commands are mixed so that a speedup of one
# walker that costs another shows. The two-worker pool count runs only in
# the traced run (POOL_PARALLEL): its workers would share the cores with
# the harness's speed sampler.
ORACLE_WALK: tuple[Command, ...] = (
    cmd("count --group dihedral --n 8 --method oracle"),
    cmd("crossings --n 7 --method oracle"),
    cmd("enumerate --n 7 --group dihedral"),
    cmd("verify --n-max 7 --oracle-max 7"),
)

# Short commands: interpreter start, package import and argument parsing
# are most of each command's time.
CLI_SHORT_POOL: tuple[Command, ...] = (
    cmd("count --n 5"),
    cmd("count --group dihedral --n 12 --method formula"),
    cmd("count --group dihedral --n 6 --method burnside"),
    cmd("count --group cyclic --n 10 --method burnside"),
    cmd("count --group dihedral --n 5 --method oracle"),
    cmd("count --n 3 --group-file {HALF}"),
    cmd("table --from 3 --to 60"),
    cmd("table --from 3 --to 60 --format json"),
    cmd("crossings --n 12"),
    cmd("strict --n-max 40"),
    cmd("enumerate --n 5 --group cyclic"),
    cmd("enumerate --n 4 --group dihedral --format svg-dir --out {OUT}"),
    cmd("verify --n-max 5 --oracle-max 3"),
    cmd("count --n 0"),
    cmd("count --n 9 --method oracle"),
)
# Every pool entry fills the same number of slots (7 x 15 = 105), so the
# work in a pass, and with it every end-to-end metric, does not depend on
# the seed; the seed decides which entry fills which slot.
CLI_SHORT_COPIES = 7

WORKLOADS: dict[str, tuple[Command, ...]] = {
    "class-sum": CLASS_SUM,
    "oracle-walk": ORACLE_WALK,
    "cli-short": CLI_SHORT_POOL * CLI_SHORT_COPIES,
}

# Run with every traced pass, whatever the workload, so that the svg and
# group-file layers are measured on every workload.
COVERAGE: tuple[Command, ...] = (
    cmd("enumerate --n 4 --group dihedral --format svg-dir --out {OUT}"),
    cmd("count --n 3 --group-file {HALF}"),
)

# chorddia's default oracle cap; the harness drops CHORDDIA_ORACLE_CAP
ORACLE_CAP = 8

# The traced run's pool probe: the same count with one and with two workers.
POOL_SERIAL = cmd("count --group cyclic --n 8 --method oracle")
POOL_PARALLEL = cmd("count --group cyclic --n 8 --method oracle --threads 2")


def pass_order(workload: str, rng: random.Random) -> list[Command]:
    """The commands of one pass, in the order the seeded generator picks."""
    commands = list(WORKLOADS[workload])
    rng.shuffle(commands)
    return commands


def all_commands() -> list[Command]:
    """Every command any run may execute, each once."""
    seen: dict[Command, None] = {}
    for commands in (*WORKLOADS.values(), COVERAGE, (POOL_SERIAL, POOL_PARALLEL)):
        for command in commands:
            seen.setdefault(command, None)
    return list(seen)


def write_group_files(directory: Path) -> dict[str, str]:
    """Write the group files and return the placeholder -> path map."""
    points = 16
    # S_8 on points 1..8 of 16, generated by (1 2) and (1 2 ... 8)
    swap = [2, 1] + list(range(3, points + 1))
    cycle = list(range(2, 9)) + [1] + list(range(9, points + 1))
    groups = {
        "S8": {"points": points, "elements": [swap, cycle]},
        "HALF": {"points": 6, "elements": [[4, 5, 6, 1, 2, 3]]},
    }
    paths = {}
    for name, obj in groups.items():
        path = directory / f"group-{name.lower()}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        paths[name] = str(path)
    return paths


def double_factorial(m: int) -> int:
    result = 1
    while m > 1:
        result *= m
        m -= 2
    return result


def _walks(n: int) -> int:
    return double_factorial(2 * n - 1)


def _flag(command: Command, name: str, default: str | None = None) -> str | None:
    if name in command:
        return command[command.index(name) + 1]
    return default


def matchings_walked(command: Command) -> int:
    """Matchings the command's oracle calls walk, computed from its argv.

    This is the work the command asks of the oracle: one full stream of
    (2n-1)!! matchings per oracle call, counted the way ``verify`` makes
    its calls (orbit counts for the three standard groups, fixed counts
    for every rotation up to n = 6, crossing and strict histograms up to
    n = 7). It is not read from the program.
    """
    verb = command[0]
    if verb in ("count", "crossings"):
        n = int(_flag(command, "--n"))
        if _flag(command, "--method") != "oracle" or not 1 <= n <= ORACLE_CAP:
            return 0
        return _walks(n)
    if verb == "enumerate":
        n = int(_flag(command, "--n"))
        return _walks(n) if 1 <= n <= ORACLE_CAP else 0
    if verb == "verify":
        n_max = int(_flag(command, "--n-max"))
        oracle_max = int(_flag(command, "--oracle-max", str(min(n_max, 6))))
        top = min(oracle_max, ORACLE_CAP)
        total = 3 * sum(_walks(n) for n in range(1, top + 1))
        total += sum(2 * n * _walks(n) for n in range(1, min(top, 6) + 1))
        total += 2 * sum(_walks(n) for n in range(1, min(top, 7) + 1))
        return total
    return 0
