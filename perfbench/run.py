#!/usr/bin/env python3
"""Benchmark of the chorddia command-line program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each command of a workload is the
real ``python -m chorddia ...`` started as a fresh process of
``sys.executable`` against the checkout's own ``src/``, one at a time from a
single client in a closed loop. Every command's exit code and stdout digest
(and, for ``svg-dir``, its files) is checked against ``pins.json``.

Passes over the workload start one after another until S seconds have
passed, so a run measures at least S seconds and at most S plus one pass.
Every time of an end-to-end metric is in reference seconds: wall seconds
scaled by the machine's speed while the process ran, as a thread timing a
fixed loop saw it (see ``SpeedSampler``); the result file keeps each
process's wall seconds and scale. A pass's time is the summed time of its
commands. ``setup_s`` is the median time of fresh interpreters that only
``import chorddia.cli``, sampled between the commands of every pass so
that it sees the same machine as the commands. With ``--trace 0`` the
last line of stdout is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run (see
``child.py`` and ``layers.py``): untraced and traced passes alternate,
then three probes run (package import under ``-X importtime``, a bare
walk of every matching on 16 points, and one oracle count with one and
with two workers).

The exit code is 0 when every command was correct, 1 when one was not, and
2 when the checkout has no ``src/chorddia``. Run context, the report and
(in a traced run) every span are written to ``.perfbench/`` in the
checkout. ``make_pins.py`` regenerates ``pins.json``; ``selftest.py`` tests
this harness.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layers
import workloads
from workloads import Command

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"

# (name, unit) in the order of BENCHMARK.json
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cmd_p50_s", "s"),
    ("cmd_p90_s", "s"),
    ("matchings_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)
PER_LAYER = (
    ("burnside.wreath_table_s", "s"),
    ("burnside.wreath_classes", "count"),
    ("burnside.class_sum_s", "s"),
    ("groups.standard_build_s", "s"),
    ("groups.closure_s", "s"),
    ("groups.closure_elements", "count"),
    ("groups.class_split_s", "s"),
    ("groups.class_split_calls", "count"),
    ("groups.classes", "count"),
    ("cli.load_group_file_s", "s"),
    ("diagrams.walk_s", "s"),
    ("diagrams.walk_matchings_per_s", "1/s"),
    ("oracle.orbit_s", "s"),
    ("oracle.orbit_self_s", "s"),
    ("oracle.orbits_accepted", "count"),
    ("oracle.orbit_matchings", "count"),
    ("oracle.accept_ratio", "ratio"),
    ("oracle.crossing_s", "s"),
    ("oracle.strict_s", "s"),
    ("oracle.fixed_s", "s"),
    ("oracle.representatives_s", "s"),
    ("oracle.pool_speedup", "ratio"),
    ("oracle.pool_cpu_ratio", "ratio"),
    ("cli.import_s", "s"),
    ("cli.import_multiprocessing_s", "s"),
    ("cli.dispatch_s", "s"),
    ("closed_forms.count_s", "s"),
    ("classic.crossing_polynomial_s", "s"),
    ("classic.strict_sequences_s", "s"),
    ("svg.render_s", "s"),
    ("svg.bytes_written", "bytes"),
    ("trace.overhead_s", "s"),
)

SETUP_PER_PASS = 12  # fresh interpreters importing chorddia.cli, per untraced pass
IMPORT_SAMPLES = 5  # -X importtime probes, per traced run
WALK_POINTS = 16  # the bare walk probe: (15)!! = 2027025 matchings
RUN_LIMIT_S = 170.0  # a run never outlives this; a command still running is killed
SPEED_LOOPS = 20_000  # iterations of the speed sampler's loop
SPEED_PERIOD_S = 0.02  # the sampler times its loop this often
SPEED_PAD_S = 0.1  # a run's speed is read from samples this close to it, too
SPEED_REF_S = 0.0014  # the loop time at which reference seconds equal wall seconds


@dataclass
class Result:
    """One command, as the harness saw it."""

    command: Command
    seconds: float
    cpu_s: float
    maxrss_kb: int
    error: str | None  # None when the exit code and output match the pins
    kind: str = "command"  # "command", "traced" or "probe"
    span: tuple[float, float] = (0.0, 0.0)  # perf_counter at start and end
    scale: float = 1.0  # reference seconds per wall second while it ran

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def ref_s(self) -> float:
        return self.seconds * self.scale


class SpeedSampler(threading.Thread):
    """Times a fixed pure-Python loop every SPEED_PERIOD_S seconds, in a
    thread of the harness, for as long as the run's passes last.

    The machine's speed drifts by tens of percent over seconds (other
    tenants of a shared host), so wall times of the same command differ
    more between runs than any bound could allow. A process's scale is
    SPEED_REF_S over the median loop time while it ran: wall seconds times
    scale are reference seconds, the time the process would have taken on
    a machine running at the reference speed. The loop does not use
    chorddia, so no change to the program moves it. It takes about 7% of
    one core while the commands use one of the others.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.samples: list[tuple[float, float]] = []  # (midpoint, loop seconds)
        self.done = threading.Event()

    def run(self) -> None:
        while not self.done.wait(SPEED_PERIOD_S):
            t0 = time.perf_counter()
            total = 0
            for i in range(SPEED_LOOPS):
                total += i * i
            t1 = time.perf_counter()
            self.samples.append(((t0 + t1) / 2, t1 - t0))

    def stop(self) -> None:
        self.done.set()
        self.join()

    def scale(self, results: list[Result]) -> None:
        """Set each result's scale from the samples taken while it ran."""
        times = [t for t, _ in self.samples]
        for r in results:
            lo = bisect.bisect_left(times, r.span[0] - SPEED_PAD_S)
            hi = bisect.bisect_right(times, r.span[1] + SPEED_PAD_S)
            loops = [s for _, s in self.samples[lo:hi]]
            if loops:
                r.scale = SPEED_REF_S / statistics.median(loops)


def child_env(src: Path) -> dict[str, str]:
    """The caller's environment without CHORDDIA_* settings (a user's
    CHORDDIA_ORACLE_CAP would turn the exit-3 probe into a long walk),
    importing chorddia from the measured tree only."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CHORDDIA_")}
    env["PYTHONPATH"] = str(src)
    return env


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dir_digest(directory: Path) -> tuple[int, str]:
    """(number of files, digest of their names and contents in name order)."""
    h = hashlib.sha256()
    files = sorted(p for p in directory.iterdir() if p.is_file())
    for path in files:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return len(files), h.hexdigest()


def read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return "unavailable"


def run_context(root: Path) -> dict:
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git failed)"
    cpu_model = "unknown"
    for line in read_text("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    return {
        "commit": commit,
        "python": sys.version.split()[0],
        "executable": sys.executable,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "loadavg_start": read_text("/proc/loadavg"),
    }


class Harness:
    """Runs chorddia commands in fresh processes and checks their output."""

    def __init__(self, root: Path, pins: dict, work: Path, limit_s: float = RUN_LIMIT_S):
        self.root = root
        self.pins = pins
        self.work = work
        self.env = child_env(root / "src")
        self.paths = workloads.write_group_files(work)
        self.deadline = time.monotonic() + limit_s
        self.timed_out = False
        self._outputs = 0
        self.span = (0.0, 0.0)  # of the last process spawn started

    def spawn(self, argv: list[str]) -> tuple[float, int, bytes, bytes, object]:
        """Start argv, wait for it with os.wait4 and return (wall seconds,
        exit code, stdout, stderr, rusage). Sets self.span."""
        limit = self.deadline - time.monotonic()
        with tempfile.TemporaryFile(dir=self.work) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=subprocess.PIPE, stderr=err)
            timer = threading.Timer(max(limit, 0.0), self._kill, (proc,))
            timer.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                proc.stdout.close()
            t1 = time.perf_counter()
            self.span = (t0, t1)
            err.seek(0)
            return t1 - t0, proc.returncode, out, err.read(), usage

    def _kill(self, proc: subprocess.Popen) -> None:
        self.timed_out = True
        proc.kill()

    def expand(self, command: Command) -> tuple[list[str], Path | None]:
        out_dir = None
        argv = []
        for arg in command:
            if arg == "{OUT}":
                self._outputs += 1
                out_dir = self.work / f"out-{self._outputs}"
                arg = str(out_dir)
            elif arg.startswith("{"):
                arg = self.paths[arg.strip("{}")]
            argv.append(arg)
        return argv, out_dir

    def run(self, command: Command, spans: Path | None = None) -> Result:
        """Run one command, traced when spans names the span file."""
        argv, out_dir = self.expand(command)
        if spans is None:
            prefix = [sys.executable, "-m", "chorddia"]
        else:
            prefix = [sys.executable, str(HERE / "child.py"), "cli", str(spans)]
        seconds, code, out, err, usage = self.spawn(prefix + argv)
        error = self.check(command, code, out, err, out_dir)
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)
        return Result(command, seconds, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                      error, "command" if spans is None else "traced", self.span)

    def probe(self, name: str, argv: list[str]) -> tuple[Result, bytes, bytes]:
        """Run a probe process; it fails when it exits non-zero."""
        seconds, code, out, err, usage = self.spawn(argv)
        error = None if code == 0 else f"exit {code}"
        if self.timed_out:
            error = "killed at the run's time limit"
        result = Result((name,), seconds, usage.ru_utime + usage.ru_stime,
                        usage.ru_maxrss, error, "probe", self.span)
        return result, out, err

    def check(self, command: Command, code: int, out: bytes, err: bytes,
              out_dir: Path | None) -> str | None:
        pin = self.pins.get(" ".join(command))
        if pin is None:
            return "no pinned output"
        if self.timed_out:
            return "killed at the run's time limit"
        problems = []
        if code != pin["exit"]:
            problems.append(f"exit {code} != {pin['exit']}")
        if digest(out) != pin["stdout_sha256"]:
            problems.append("stdout digest differs")
        if "svg_files" in pin:
            count, files_digest = dir_digest(out_dir) if out_dir.is_dir() else (0, "")
            if count != pin["svg_files"]:
                problems.append(f"{count} svg files != {pin['svg_files']}")
            elif files_digest != pin["svg_sha256"]:
                problems.append("svg digest differs")
        if not problems:
            return None
        tail = err.decode("utf-8", "replace").strip().splitlines()[-1:]
        return "; ".join(problems) + (f" (stderr: {tail[0]})" if tail else "")

    def setup(self) -> Result:
        """One fresh interpreter that imports chorddia.cli."""
        return self.probe("setup", [sys.executable, "-c", "import chorddia.cli"])[0]


def fail_ratio(results: list[Result]) -> float:
    """Runs with a wrong exit code or output, per run attempted."""
    return sum(not r.ok for r in results) / len(results)


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the closest samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_passes(harness: Harness, workload: str, rng: random.Random, seconds: float,
               traced_dir: Path | None = None):
    """Untraced passes, a new one starting until seconds have passed; with
    traced_dir, pairs of an untraced and a traced pass, each with the
    coverage commands.

    A pass's time is the summed reference time of its commands (see
    SpeedSampler). Set-up samples are taken between the commands of
    untraced passes, at least SETUP_PER_PASS per pass, so that they spread
    over the whole run. Returns (untraced pass times, results, set-up samples,
    traced passes as (seconds, span files)).
    """
    harness.setup()  # let the byte-code cache fill
    started = time.monotonic()
    passes: list[list[Result]] = []
    setup: list[Result] = []
    traced: list = []
    sampler = SpeedSampler()
    sampler.start()
    try:
        while not harness.timed_out and (not passes or time.monotonic() - started < seconds):
            order = workloads.pass_order(workload, rng)
            if traced_dir is not None:
                order += workloads.COVERAGE
            every = math.ceil(len(order) / SETUP_PER_PASS)
            per_slot = math.ceil(SETUP_PER_PASS / len(order))
            ran = []
            for i, command in enumerate(order):
                if i % every == 0:
                    setup += [harness.setup() for _ in range(per_slot)]
                ran.append(harness.run(command))
            passes.append(ran)
            if traced_dir is not None and not harness.timed_out:
                files = []
                ran = []
                for i, command in enumerate(order):
                    path = traced_dir / f"pass{len(traced)}-{i}.json"
                    ran.append(harness.run(command, spans=path))
                    if path.is_file():
                        files.append(json.loads(path.read_text(encoding="utf-8")))
                traced.append((ran, files))
    finally:
        sampler.stop()
    results = [r for ran in passes + [ran for ran, _ in traced] for r in ran]
    sampler.scale(setup + results)
    times = [sum(r.ref_s for r in ran) for ran in passes]
    return times, results, setup, [(sum(r.ref_s for r in ran), files) for ran, files in traced]


def end_to_end(workload: str, setup: list[Result], times: list[float],
               results: list[Result]) -> dict[str, float]:
    commands = [r for r in results if r.kind == "command"]
    latencies = [r.ref_s for r in commands]
    run_s = statistics.median(times)
    per_pass = sum(workloads.matchings_walked(c) for c in workloads.WORKLOADS[workload])
    return {
        "setup_s": statistics.median(r.ref_s for r in setup),
        "run_s": run_s,
        "cmd_p50_s": quantile(latencies, 50),
        "cmd_p90_s": quantile(latencies, 90),
        "matchings_per_s": per_pass / run_s,
        "peak_rss_mb": max(r.maxrss_kb for r in commands) / 1024,
        "ok_ratio": 1.0 - fail_ratio(setup + results),
    }


def traced_layers(harness: Harness, times: list[float], traced: list,
                  results: list[Result]) -> dict[str, float]:
    """Per-layer metrics: medians over the traced passes, then the probes.
    The probes' results are appended to results."""
    passes = [layers.pass_layers(files) for _, files in traced] or [layers.pass_layers([])]
    out = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    out["trace.overhead_s"] = (statistics.median(t for t, _ in traced)
                               - statistics.median(times)) if traced else 0.0

    imports = []
    for _ in range(IMPORT_SAMPLES):
        result, _, err = harness.probe(
            "importtime", [sys.executable, "-X", "importtime", "-c", "import chorddia.cli"])
        results.append(result)
        imports.append(layers.import_times(err.decode("utf-8", "replace")))
    out["cli.import_s"] = statistics.median(p for p, _ in imports)
    out["cli.import_multiprocessing_s"] = statistics.median(m for _, m in imports)

    result, stdout, _ = harness.probe(
        "walk", [sys.executable, str(HERE / "child.py"), "walk", str(WALK_POINTS)])
    walk = json.loads(stdout) if result.ok else {"matchings": 0, "seconds": 0.0}
    expected = workloads.double_factorial(WALK_POINTS - 1)
    if result.ok and walk["matchings"] != expected:
        result.error = f"walked {walk['matchings']} matchings, not {expected}"
    results.append(result)
    out["diagrams.walk_s"] = walk["seconds"]
    rate = ratio(walk["matchings"], walk["seconds"])
    out["diagrams.walk_matchings_per_s"] = rate

    serial = harness.run(workloads.POOL_SERIAL)
    parallel = harness.run(workloads.POOL_PARALLEL)
    for r in (serial, parallel):
        r.kind = "probe"
    results += [serial, parallel]
    out["oracle.pool_speedup"] = ratio(serial.seconds, parallel.seconds)
    out["oracle.pool_cpu_ratio"] = ratio(parallel.cpu_s, serial.cpu_s)
    return layers.finish(out, rate)


def report(names: tuple, values: dict[str, float], notes: dict[str, str]) -> dict:
    metrics = {}
    for name, unit in names:
        value = values[name]
        metrics[name] = {"value": value, "unit": unit}
        note = notes.get(name, "")
        print(f"  {name:32s} {value:>16.6g} {unit:6s} {note}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chorddia" / "cli.py").is_file():
        print(f"error: no chorddia sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    out_root = ROOT / ".perfbench"
    out_root.mkdir(exist_ok=True)
    context = run_context(ROOT)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=out_root))
    try:
        harness = Harness(ROOT, pins, work)
        rng = random.Random(args.seed)
        traced_dir = work if args.trace else None
        times, results, setup, traced = run_passes(harness, args.workload, rng,
                                                   args.seconds, traced_dir)
        e2e = end_to_end(args.workload, setup, times, results)
        if args.trace:
            values = traced_layers(harness, times, traced, results)
            spans = [record for _, files in traced for record in files]
            (out_root / f"spans-{tag}.json").write_text(json.dumps(spans), encoding="utf-8")
        else:
            values = e2e
    finally:
        shutil.rmtree(work, ignore_errors=True)
    context["loadavg_end"] = read_text("/proc/loadavg")

    checked = setup + results
    failures = [r for r in checked if not r.ok]
    attempted = len(checked)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(times)} pass(es), {attempted} checked runs, closed loop, one client")
    print("context: " + json.dumps(context))
    for r in failures[:20]:
        print(f"FAILED {' '.join(r.command)}: {r.error}")
    print(f"  fail_ratio {fail_ratio(checked):.6g} ({len(failures)}/{attempted})")
    samples = sum(r.kind == "command" for r in results)
    notes = {
        "setup_s": f"median of {len(setup)}",
        "run_s": f"median of {len(times)} pass(es)",
        "cmd_p50_s": f"{samples} samples",
        "cmd_p90_s": f"{samples} samples",
        "matchings_per_s": "computed from argv",
        "trace.overhead_s": "traced minus untraced pass",
    }
    names = PER_LAYER if args.trace else END_TO_END
    metrics = report(names, values, notes)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    (out_root / f"result-{tag}.json").write_text(
        json.dumps({"context": context, "end_to_end": e2e, **result,
                    "runs": [[" ".join(r.command), r.kind, r.seconds, r.scale, r.error]
                             for r in checked]}, indent=1),
        encoding="utf-8")
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
