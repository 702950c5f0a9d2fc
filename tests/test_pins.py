"""Every command of the benchmark's pins, run in-process: the exit code, the
sha256 of stdout and, for ``svg-dir``, the files must match
``perfbench/pins.json`` byte for byte. The test reads ``perfbench/`` and
writes nothing there."""

import hashlib
import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

from chorddia.cli import run

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PINS = json.loads((PERFBENCH / "pins.json").read_text(encoding="utf-8"))


def load_workloads():
    """perfbench/workloads.py as a module, compiled without writing its
    bytecode next to it."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


workloads = load_workloads()


def dir_digest(directory: Path) -> tuple[int, str]:
    """(number of files, digest of their names and contents in name order),
    as perfbench/run.py computes it."""
    h = hashlib.sha256()
    files = sorted(p for p in directory.iterdir() if p.is_file())
    for path in files:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return len(files), h.hexdigest()


@pytest.mark.parametrize("command", sorted(PINS))
def test_pinned_output(command, tmp_path, capsys, monkeypatch):
    for name in list(os.environ):
        if name.startswith("CHORDDIA_"):
            monkeypatch.delenv(name)
    paths = workloads.write_group_files(tmp_path)
    out_dir = tmp_path / "out"
    argv = [
        str(out_dir) if arg == "{OUT}" else paths[arg.strip("{}")] if arg.startswith("{") else arg
        for arg in command.split()
    ]
    pin = PINS[command]
    assert run(argv) == pin["exit"]
    stdout = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(stdout).hexdigest() == pin["stdout_sha256"]
    if "svg_files" in pin:
        assert dir_digest(out_dir) == (pin["svg_files"], pin["svg_sha256"])
