#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py        # from the root of a checkout

They run real chorddia commands and two short benchmark runs of the
class-sum workload, which takes about a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

import layers
import run
import workloads
from workloads import cmd

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PINS = json.loads(run.PINS.read_text(encoding="utf-8"))


def bench_run(workload: str, trace: int) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def work_dir() -> tempfile.TemporaryDirectory:
    out_root = run.ROOT / ".perfbench"
    out_root.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=out_root)


class NamesTest(unittest.TestCase):
    def test_harness_declares_the_names_of_benchmark_json(self):
        self.assertEqual([(m["name"], m["unit"]) for m in BENCH["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in BENCH["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in BENCH["workloads"]], list(workloads.WORKLOADS))

    def test_untraced_run_emits_every_end_to_end_metric(self):
        code, result = bench_run("class-sum", 0)
        self.assertEqual(code, 0)
        self.assertEqual((result["correct"], result["failed"]), (True, 0))
        self.assertEqual(list(result["metrics"]), [m["name"] for m in BENCH["end_to_end"]])
        for name, metric in result["metrics"].items():
            self.assertGreater(metric["value"], 0, name)

    def test_traced_run_emits_every_per_layer_metric(self):
        code, result = bench_run("class-sum", 1)
        self.assertEqual(code, 0)
        self.assertEqual((result["correct"], result["failed"]), (True, 0))
        self.assertEqual(list(result["metrics"]), [m["name"] for m in BENCH["per_layer"]])
        spans = json.loads((run.ROOT / ".perfbench" / "spans-class-sum-seed7-trace1.json")
                           .read_text(encoding="utf-8"))
        self.assertEqual(len(spans), len(workloads.CLASS_SUM) + len(workloads.COVERAGE))


class CorrectnessGateTest(unittest.TestCase):
    def test_every_command_is_pinned(self):
        self.assertEqual(sorted(PINS), sorted(" ".join(c) for c in workloads.all_commands()))

    def run_commands(self, pins: dict, commands: list) -> list[run.Result]:
        with work_dir() as work:
            harness = run.Harness(run.ROOT, pins, Path(work))
            return [harness.run(c) for c in commands]

    def test_pinned_outputs_pass(self):
        commands = [cmd("count --n 5"), cmd("count --n 0"),
                    cmd("enumerate --n 4 --group dihedral --format svg-dir --out {OUT}")]
        self.assertEqual(run.fail_ratio(self.run_commands(PINS, commands)), 0)

    def test_wrong_pinned_digest_fails(self):
        key = "count --n 5"
        wrong = dict(PINS, **{key: dict(PINS[key], stdout_sha256="0" * 64)})
        results = self.run_commands(wrong, [cmd(key), cmd("count --n 0")])
        self.assertEqual([r.ok for r in results], [False, True])
        self.assertGreater(run.fail_ratio(results), 0)

    def test_wrong_svg_count_fails(self):
        key = "enumerate --n 4 --group dihedral --format svg-dir --out {OUT}"
        wrong = dict(PINS, **{key: dict(PINS[key], svg_files=PINS[key]["svg_files"] + 1)})
        self.assertGreater(run.fail_ratio(self.run_commands(wrong, [cmd(key)])), 0)

    def test_children_ignore_the_callers_oracle_cap(self):
        os.environ["CHORDDIA_ORACLE_CAP"] = "9"
        try:
            env = run.child_env(run.ROOT / "src")
            results = self.run_commands(PINS, [cmd("count --n 9 --method oracle")])
        finally:
            del os.environ["CHORDDIA_ORACLE_CAP"]
        self.assertNotIn("CHORDDIA_ORACLE_CAP", env)
        self.assertEqual(env["PYTHONPATH"], str(run.ROOT / "src"))
        self.assertTrue(results[0].ok, results[0].error)


class SpansTest(unittest.TestCase):
    def test_traced_command_writes_its_spans_when_it_ends(self):
        with work_dir() as work:
            path = Path(work) / "spans.json"
            harness = run.Harness(run.ROOT, PINS, Path(work))
            result = harness.run(cmd("count --group dihedral --n 6 --method burnside"), spans=path)
            record = json.loads(path.read_text(encoding="utf-8"))
        self.assertTrue(result.ok, result.error)
        spans = record["spans"]
        self.assertEqual(spans[0]["name"], "cli.run")
        self.assertIsNone(spans[0]["parent"])
        for span in spans:
            self.assertLessEqual({"name", "start", "end", "parent", "trace"}, set(span))
            self.assertEqual(span["trace"], record["trace"])
            self.assertLessEqual(span["start"], span["end"])
            if span["parent"] is not None:
                parent = spans[span["parent"]]
                self.assertLess(parent["id"], span["id"])
                self.assertLessEqual(parent["start"], span["start"])
                self.assertLessEqual(span["end"], parent["end"])
        names = [s["name"] for s in spans]
        self.assertEqual(names.index("burnside.wreath_table") + 1, names.index("burnside.class_sum"))
        totals = layers.pass_layers([record])
        for name in ("burnside.wreath_table_s", "burnside.class_sum_s",
                     "groups.standard_build_s", "groups.class_split_s", "cli.dispatch_s"):
            self.assertGreater(totals[name], 0, name)
        self.assertEqual(totals["groups.class_split_calls"], 24)  # |D_12| elements

    def test_traced_commands_that_exit_non_zero_sum_into_layers(self):
        # the cli-short pool holds both error exits (count --n 0 and the
        # oracle cap probe), whose wrapped calls raise
        spans = []
        with work_dir() as work:
            harness = run.Harness(run.ROOT, PINS, Path(work))
            for i, command in enumerate(workloads.CLI_SHORT_POOL):
                path = Path(work) / f"spans-{i}.json"
                result = harness.run(command, spans=path)
                self.assertTrue(result.ok, f"{' '.join(command)}: {result.error}")
                spans.append(json.loads(path.read_text(encoding="utf-8")))
        raised = [s for record in spans for s in record["spans"] if "error" in s["attrs"]]
        self.assertTrue(raised)
        totals = layers.finish(layers.pass_layers(spans), walk_rate=1e6)
        self.assertGreater(totals["closed_forms.count_s"], 0)
        self.assertGreater(totals["svg.bytes_written"], 0)

    def test_import_report_parsing(self):
        # the shape -X importtime prints for "import chorddia.cli"
        report = ("import time: self [us] | cumulative | imported package\n"
                  "import time:       441 |      11556 |       multiprocessing\n"
                  "import time:      4347 |      15903 |     chorddia.oracle\n"
                  "import time:       939 |      55485 |   chorddia\n"
                  "import time:      3153 |       4368 |   argparse\n"
                  "import time:      6622 |      69238 | chorddia.cli\n")
        self.assertEqual(layers.import_times(report), (0.069238, 0.011556))


class SpeedSamplerTest(unittest.TestCase):
    def test_scale_is_read_from_the_samples_taken_while_a_run_lasted(self):
        sampler = run.SpeedSampler()
        ref = run.SPEED_REF_S
        # the machine runs at full speed until t = 10, then at half speed
        sampler.samples = [(t / 10, ref if t < 100 else 2 * ref) for t in range(200)]
        fast, slow, unsampled = (run.Result((name,), 2.0, 0.0, 0, None, span=span)
                                 for name, span in (("fast", (2.0, 4.0)),
                                                    ("slow", (14.0, 16.0)),
                                                    ("unsampled", (50.0, 52.0))))
        sampler.scale([fast, slow, unsampled])
        self.assertEqual((fast.ref_s, slow.ref_s, unsampled.ref_s), (2.0, 1.0, 2.0))

    def test_sampler_thread_samples_until_stopped(self):
        sampler = run.SpeedSampler()
        sampler.start()
        time.sleep(10 * run.SPEED_PERIOD_S)
        sampler.stop()
        self.assertFalse(sampler.is_alive())
        self.assertGreater(len(sampler.samples), 0)
        count = len(sampler.samples)
        time.sleep(2 * run.SPEED_PERIOD_S)
        self.assertEqual(len(sampler.samples), count)


if __name__ == "__main__":
    unittest.main()
