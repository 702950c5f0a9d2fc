"""Lazy start-up: the package and the CLI import a submodule only when a
name from it is used, so each command loads only the code it runs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chorddia

# Prints, on its last line, the modules that the snippet passed as argv[1]
# loaded; it imports nothing itself, so json is seen like any other module.
PROBE = """
import sys
before = set(sys.modules)
exec(sys.argv[1])
print(" ".join(sorted(set(sys.modules) - before)))
"""

# `python -m chorddia ARGS` as runpy runs it, then the modules it loaded
MAIN = """
import runpy
sys.argv = ["chorddia", *ARGS]
try:
    runpy.run_module("chorddia", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code in (0, None), exc.code
"""


def loaded_by(snippet: str) -> set[str]:
    """Modules a fresh interpreter loads to run snippet, importing the
    package these tests import."""
    src = str(Path(chorddia.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n{PROBE}", snippet],
        capture_output=True,
        text=True,
        check=True,
    )
    return set(proc.stdout.splitlines()[-1].split())


def main_snippet(*args: str) -> str:
    return MAIN.replace("ARGS", repr(list(args)))


def test_cli_import_loads_no_command_module():
    loaded = loaded_by("import chorddia.cli")
    assert "chorddia.cli" in loaded
    for name in ("multiprocessing", "fractions", "chorddia.oracle",
                 "chorddia.burnside", "chorddia.svg"):
        assert name not in loaded


@pytest.mark.parametrize(
    "args,absent",
    [
        (("count", "--n", "5"),
         ("chorddia.oracle", "chorddia.burnside", "multiprocessing", "fractions")),
        (("count", "--n", "5", "--method", "oracle"),
         ("multiprocessing", "chorddia.burnside", "chorddia.classic")),
        (("enumerate", "--n", "5", "--group", "dihedral"),
         ("multiprocessing", "chorddia.burnside", "chorddia.classic")),
        (("strict", "--n-max", "5"), ("chorddia.closed_forms", "chorddia.groups")),
    ],
    ids=["formula", "oracle", "enumerate", "strict"],
)
def test_command_loads_only_its_modules(args, absent):
    loaded = loaded_by(main_snippet(*args))
    assert "chorddia.cli" in loaded
    for name in absent:
        assert name not in loaded


def test_every_public_name_resolves():
    for name in chorddia.__all__:
        assert getattr(chorddia, name).__module__.startswith("chorddia.")
    assert chorddia.__all__ == sorted(set(chorddia.__all__))
    # dir() lists every public name before any is used, and imports nothing
    loaded = loaded_by("import chorddia; assert set(chorddia.__all__) <= set(dir(chorddia))")
    assert loaded == {"chorddia"}


def test_star_import_and_unknown_name():
    namespace: dict = {}
    exec("from chorddia import *", namespace)
    assert set(chorddia.__all__) <= set(namespace)
    assert namespace["dihedral_count"](4) == 17
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        chorddia.no_such_name


def test_submodules_stay_attributes():
    # an eager `import chorddia` used to bind every submodule
    loaded = loaded_by("import chorddia; chorddia.oracle.orbit_count")
    assert "chorddia.oracle" in loaded


@pytest.mark.parametrize(
    "args",
    [
        ("count", "--n", "5"),
        ("count", "--method", "burnside", "--group", "dihedral", "--n", "20"),
        ("crossings", "--n", "12"),
        ("enumerate", "--n", "5", "--group", "cyclic"),
    ],
    ids=["formula", "burnside", "crossings", "enumerate"],
)
def test_command_loads_no_dataclasses(args):
    # dataclasses imports inspect, which imports ast, dis and tokenize
    loaded = loaded_by(main_snippet(*args))
    assert "chorddia.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast"}


def test_formula_count_loads_no_json():
    loaded = loaded_by(main_snippet("count", "--n", "5"))
    assert "chorddia.closed_forms" in loaded
    assert "json" not in loaded


def test_importtime_logs_the_handler_modules():
    # a handler's `from . import closed_forms` resolves through the package's
    # __getattr__, which must import on the path that -X importtime logs
    src = str(Path(chorddia.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "chorddia", "count", "--n", "5"],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout == "105\n"
    logged = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()}
    assert {"chorddia.cli", "chorddia.closed_forms"} <= logged


def test_no_module_imports_dataclasses():
    package = Path(chorddia.__file__).resolve().parent
    sources = sorted(package.glob("*.py"))
    assert len(sources) > 10
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                assert module.partition(".")[0] != "dataclasses", (path.name, node.lineno)
