import hashlib
import json
import os
import resource
import subprocess
import sys
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from pathlib import Path

import pytest

import chorddia
from chorddia import ChordDiagram, dihedral_count, make_standard_group, representatives
from chorddia import cli
from chorddia.cli import run
from chorddia.svg import render_svg

EXPECTED_TABLE_3_10 = (
    "n,c_n,floor_c_lower,d_n,floor_d_lower\n"
    "3,5,2,5,1\n"
    "4,18,13,17,6\n"
    "5,105,94,79,47\n"
    "6,902,866,554,433\n"
    "7,9749,9652,5283,4826\n"
    "8,127072,126689,65346,63344\n"
    "9,1915951,1914412,966156,957206\n"
    "10,32743182,32736453,16411700,16368226\n"
)


@contextmanager
def int_str_digits(limit):
    """Python's int-to-str digit limit set to limit (0 for none), where the
    interpreter has one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def diagram(*chords_1b):
    return ChordDiagram.from_chords([(a - 1, b - 1) for a, b in chords_1b])


class TestCount:
    def test_formula_default(self, capsys):
        assert run(["count", "--group", "cyclic", "--n", "5"]) == 0
        assert capsys.readouterr().out == "105\n"

    @pytest.mark.parametrize("method", ["formula", "burnside", "oracle"])
    def test_methods_agree(self, method, capsys):
        assert run(["count", "--group", "dihedral", "--n", "4", "--method", method]) == 0
        assert capsys.readouterr().out == "17\n"

    def test_identity_group(self, capsys):
        assert run(["count", "--group", "identity", "--n", "6"]) == 0
        assert capsys.readouterr().out == "10395\n"

    def test_zero_order_is_domain_error(self, capsys):
        assert run(["count", "--group", "cyclic", "--n", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_oracle_over_cap_is_resource_error(self, capsys):
        assert run(["count", "--group", "cyclic", "--n", "9", "--method", "oracle"]) == 3
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,code,message",
        [
            (["count", "--n", "9", "--method", "oracle"], 3, "oracle capped at n <= 8"),
            (["enumerate", "--n", "9"], 3, "oracle capped at n <= 8"),
            (["count", "--n", "5", "--method", "oracle", "--threads", "0"], 2,
             "threads must be >= 1"),
        ],
        ids=["count", "enumerate", "threads"],
    )
    def test_oracle_refuses_before_building_group(
        self, tmp_path, capsys, monkeypatch, argv, code, message
    ):
        from chorddia import groups

        # S_9 on points 1..9 of 18 would close 362,880 elements first
        n = int(argv[argv.index("--n") + 1])
        points = 2 * n
        swap = [2, 1] + list(range(3, points + 1))
        cycle = [2, 3, 4, 5, 6, 7, 8, 9, 1] + list(range(10, points + 1))
        path = tmp_path / "s9.json"
        path.write_text(json.dumps({"points": points, "elements": [swap, cycle]}))

        def refuse(*args, **kwargs):
            raise AssertionError("the group was built before the oracle's checks")

        monkeypatch.setattr(groups, "generate_group", refuse)
        monkeypatch.setattr(groups, "make_standard_group", refuse)
        for extra in ([], ["--group-file", str(path)]):
            assert run(argv + extra) == code
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err

    def test_usage_error(self, capsys):
        assert run(["count", "--group", "wavelet", "--n", "3"]) == 2
        capsys.readouterr()

    def test_count_past_int_str_digit_limit(self, capsys):
        # d_2000 has 6332 digits; CPython 3.11 refuses str() past 4300 by default
        with int_str_digits(4300):
            assert run(["count", "--group", "dihedral", "--n", "2000"]) == 0
            restored = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
        assert restored == 4300
        out = capsys.readouterr().out
        with int_str_digits(0):
            assert out == f"{dihedral_count(2000)}\n"
        assert len(out) > 4301

    def test_formula_work_bound(self, capsys, monkeypatch):
        from chorddia import cli

        monkeypatch.setattr(cli, "MAX_COUNT_N", 4)
        assert run(["count", "--group", "dihedral", "--n", "4"]) == 0
        assert capsys.readouterr().out == "17\n"
        assert run(["count", "--group", "dihedral", "--n", "5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "formula count capped at --n <= 4, got 5" in captured.err
        # the oracle path has its own bound
        assert run(["count", "--group", "dihedral", "--n", "5", "--method", "oracle"]) == 0
        assert capsys.readouterr().out == "79\n"

    def test_burnside_work_bound(self, tmp_path, capsys, monkeypatch):
        from chorddia import cli, groups

        path = tmp_path / "c10.json"
        path.write_text(json.dumps({"points": 10, "elements": [[2, 3, 4, 5, 6, 7, 8, 9, 10, 1]]}))
        monkeypatch.setattr(cli, "MAX_COUNT_N", 5)
        assert run(["count", "--group", "dihedral", "--n", "5", "--method", "burnside"]) == 0
        assert capsys.readouterr().out == "79\n"
        assert run(["count", "--n", "5", "--group-file", str(path)]) == 0
        assert capsys.readouterr().out == "105\n"

        def refuse(*args, **kwargs):
            raise AssertionError("a group was built or read past the bound")

        monkeypatch.setattr(groups, "generate_group", refuse)
        monkeypatch.setattr(groups, "make_standard_group", refuse)
        monkeypatch.setattr(cli, "load_group_file", refuse)
        for extra in (["--group", "identity"], ["--group-file", str(path)]):
            assert run(["count", "--n", "6", "--method", "burnside", *extra]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "burnside count capped at --n <= 5, got 6" in captured.err
        # the formula path has the same bound
        assert run(["count", "--group", "dihedral", "--n", "6"]) == 3
        assert "formula count capped at --n <= 5, got 6" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["identity", "empty-file"])
    def test_huge_burnside_count_exits_before_any_work(self, tmp_path, source):
        # the identity group on 2 * 10^6 points passes the closure's entry
        # bound, and so does a file that lists no elements; each class sum
        # ran on past 20 s
        if source == "identity":
            group = ["--group", "identity", "--method", "burnside"]
        else:
            path = tmp_path / "empty.json"
            path.write_text('{"points": 2000000, "elements": []}')
            group = ["--group-file", str(path)]
        proc = run_module(
            "count", "--n", "1000000", *group, address_space=600 * 2**20, timeout=30
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "burnside count capped at --n <= 70000, got 1000000" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_burnside_count_at_the_bound(self, tmp_path):
        # 6 generators that swap 1, 2, 4, ..., 32 disjoint pairs of their own
        # close to 64 elements, one of each type 1^(2n-2j) 2^j; with one
        # fixed count per type this took 93 s, with one class sum about 6 s
        n = cli.MAX_COUNT_N
        generators, first = [], 0
        for j in range(6):
            images = list(range(1, 2 * n + 1))
            for a in range(first, first + 2 ** (j + 1), 2):
                images[a], images[a + 1] = a + 2, a + 1
            first += 2 ** (j + 1)
            generators.append(images)
        path = tmp_path / "swaps.json"
        path.write_text(json.dumps({"points": 2 * n, "elements": generators}))
        proc = run_module(
            "count", "--n", str(n), "--group-file", str(path),
            address_space=600 * 2**20, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
        # the output of the per-type count, bound lifted
        assert digest == "7c0e1262543d5624c57b86237cfb6af8ee67cbe16839b047fb1df5129f0e84fc"

    def test_huge_formula_count_exits_before_any_work(self):
        proc = run_module(
            "count", "--group", "dihedral", "--n", "200000",
            address_space=600 * 2**20, timeout=30,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "formula count capped at --n <= 70000, got 200000" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_standard_group_entry_bound(self):
        # C_20000 would store 4 * 10^8 image entries; nothing is built
        proc = run_module(
            "count", "--method", "burnside", "--group", "cyclic", "--n", "10000",
            address_space=600 * 2**20,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "stored image entries" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_largest_dihedral_group_under_250_mb(self):
        # D_2236 stores 2 * 2236^2 = 9,999,392 image entries, the most the
        # bound allows for a dihedral group
        proc = run_module(
            "count", "--method", "burnside", "--group", "dihedral", "--n", "1118",
            address_space=250 * 2**20,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{dihedral_count(1118)}\n"

    def test_group_file(self, tmp_path, capsys):
        # rotation generator, 1-based images; closure yields the full C_6
        path = tmp_path / "c6.json"
        path.write_text(json.dumps({"points": 6, "elements": [[2, 3, 4, 5, 6, 1]]}))
        assert run(["count", "--n", "3", "--group-file", str(path)]) == 0
        assert capsys.readouterr().out == "5\n"

    def test_group_file_wrong_points(self, tmp_path, capsys):
        path = tmp_path / "c4.json"
        path.write_text(json.dumps({"points": 4, "elements": [[2, 3, 4, 1]]}))
        assert run(["count", "--n", "3", "--group-file", str(path)]) == 2
        capsys.readouterr()

    def test_group_file_malformed(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"points": 6, "elements": [[1, 1, 2, 3, 4, 5]]}))
        assert run(["count", "--n", "3", "--group-file", str(path)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "obj",
        [
            {"points": 6, "elements": [[True, 3, 2, 4, 5, 6]]},
            {"points": True, "elements": [[1]]},
        ],
    )
    def test_group_file_booleans_rejected(self, tmp_path, capsys, obj):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(obj))
        assert run(["count", "--n", "3", "--group-file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err

    @pytest.mark.parametrize("elements", [5, {"1": [2, 3, 4, 5, 6, 1]}])
    def test_group_file_elements_not_a_list(self, tmp_path, capsys, elements):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"points": 6, "elements": elements}))
        assert run(["count", "--n", "3", "--group-file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'elements' must be a list" in captured.err

    def test_group_file_closure_entry_bound(self, tmp_path, capsys, monkeypatch):
        from chorddia import groups

        # S_4 on points 1..4 of 8 stores 24 tuples of 8 entries: 192 entries
        path = tmp_path / "s4.json"
        swap = [2, 1, 3, 4, 5, 6, 7, 8]
        cycle = [2, 3, 4, 1, 5, 6, 7, 8]
        path.write_text(json.dumps({"points": 8, "elements": [swap, cycle]}))
        monkeypatch.setattr(groups, "MAX_CLOSURE_ENTRIES", 191)
        assert run(["count", "--n", "4", "--group-file", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "191 stored image entries" in captured.err

    def test_group_file_long_integer(self, tmp_path, capsys):
        # refused before int() parses it, though run() lifts the output limit
        path = tmp_path / "long.json"
        path.write_text('{"points": ' + "2" * 5000 + ', "elements": []}')
        assert run(["count", "--n", "3", "--group-file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "integer of 5000 digits" in captured.err

    def test_group_file_row_bound(self, tmp_path, capsys, monkeypatch):
        from chorddia import groups

        # two identity rows on 6 points list 12 entries; their closure stores 6
        path = tmp_path / "rows.json"
        path.write_text(json.dumps({"points": 6, "elements": [list(range(1, 7))] * 2}))
        monkeypatch.setattr(groups, "MAX_CLOSURE_ENTRIES", 12)
        assert run(["count", "--n", "3", "--group-file", str(path)]) == 0
        assert capsys.readouterr().out == "15\n"
        monkeypatch.setattr(groups, "MAX_CLOSURE_ENTRIES", 11)

        def refuse(images):
            raise AssertionError("an element was built past the bound")

        monkeypatch.setattr(groups.GroupElement, "from_images", refuse)
        assert run(["count", "--n", "3", "--group-file", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "2 elements of 6 points, more than 11 image entries" in captured.err

    @pytest.mark.parametrize(
        "elements,error,message",
        [
            # the row's length is checked before a 2 * 10^8 range is built
            ([[1]], "DomainError", "is not a 1-based bijection"),
            # the identity alone would pass the closure's entry bound
            ([], "ResourceLimitError", "stored image entries"),
        ],
        ids=["short-row", "no-elements"],
    )
    def test_group_file_huge_points(self, tmp_path, elements, error, message):
        # `count` refuses so large an n before it reads the file, so the
        # loader is called on its own
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"points": 200000000, "elements": elements}))
        proc = run_python(
            "-c", "import sys; from chorddia import cli; cli.load_group_file(sys.argv[1])",
            str(path), address_space=600 * 2**20,
        )
        assert proc.returncode == 1
        assert f"chorddia.errors.{error}: " in proc.stderr
        assert message in proc.stderr
        assert "MemoryError" not in proc.stderr

    def test_group_file_endless(self):
        # only the first MAX_GROUP_FILE_BYTES + 1 bytes are read
        proc = run_module(
            "count", "--n", "1", "--group-file", "/dev/zero",
            address_space=600 * 2**20, timeout=30,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert f"longer than {cli.MAX_GROUP_FILE_BYTES} bytes" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_group_file_byte_bound(self, tmp_path, capsys):
        # empty lists are the most JSON objects a byte can hold
        cap = cli.MAX_GROUP_FILE_BYTES
        lists = "[" + "[]," * ((cap - 4) // 3) + "[]]"
        path = tmp_path / "lists.json"
        path.write_text(lists.ljust(cap))
        proc = run_module(
            "count", "--n", "1", "--group-file", str(path),
            address_space=600 * 2**20, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "must contain 'points' and 'elements'" in proc.stderr
        assert "Traceback" not in proc.stderr
        path.write_text(lists.ljust(cap + 1))
        assert run(["count", "--n", "1", "--group-file", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"longer than {cap} bytes" in captured.err

    def test_group_file_deep_nesting(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000)
        assert run(["count", "--n", "1", "--group-file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "nested too deeply" in captured.err

    def test_group_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"points": 2, "elements": [], "\xe9": 0}')
        assert run(["count", "--n", "1", "--group-file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not UTF-8" in captured.err

    def test_group_file_formula_rejected(self, tmp_path, capsys):
        path = tmp_path / "c6.json"
        path.write_text(json.dumps({"points": 6, "elements": [[2, 3, 4, 5, 6, 1]]}))
        assert (
            run(["count", "--n", "3", "--group-file", str(path), "--method", "formula"])
            == 2
        )
        capsys.readouterr()


class TestTable:
    def test_csv_rows_3_to_10(self, capsys):
        assert run(["table", "--from", "3", "--to", "10"]) == 0
        assert capsys.readouterr().out == EXPECTED_TABLE_3_10

    def test_json(self, capsys):
        assert run(["table", "--from", "3", "--to", "4", "--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert records == [
            {"n": 3, "c_n": "5", "floor_c_lower": "2", "d_n": "5", "floor_d_lower": "1"},
            {"n": 4, "c_n": "18", "floor_c_lower": "13", "d_n": "17", "floor_d_lower": "6"},
        ]

    @pytest.mark.parametrize("first", [1, 137])
    def test_floors_equal_the_bounds(self, capsys, first):
        # table carries (2n-1)!! from row to row instead of asking
        # asymptotic_lower_bound for it twice per row
        from chorddia.closed_forms import asymptotic_lower_bound

        assert run(["table", "--from", str(first), "--to", "300"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [int(row[0]) for row in rows] == list(range(first, 301))
        for n, _, floor_c, _, floor_d in rows:
            n = int(n)
            assert int(floor_c) == asymptotic_lower_bound("cyclic", n).exact_floor
            assert int(floor_d) == asymptotic_lower_bound("dihedral", n).exact_floor

    def test_bad_range(self, capsys):
        assert run(["table", "--from", "5", "--to", "3"]) == 2
        capsys.readouterr()

    def test_work_bound(self, capsys, monkeypatch):
        from chorddia import cli

        monkeypatch.setattr(cli, "MAX_TABLE_N", 4)
        assert run(["table", "--from", "3", "--to", "4"]) == 0
        capsys.readouterr()
        assert run(["table", "--from", "3", "--to", "5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "table capped at --to <= 4, got 5" in captured.err

    def test_huge_to_exits_before_any_work(self):
        proc = run_module(
            "table", "--from", "1", "--to", "100000", address_space=600 * 2**20, timeout=30
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "table capped at --to <= 2000" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestEnumerate:
    def test_jsonl(self, capsys):
        assert run(["enumerate", "--n", "3", "--group", "cyclic"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        reps = representatives(3, make_standard_group("cyclic", 6))
        parsed = [ChordDiagram.from_json_dict(json.loads(line)) for line in lines]
        assert parsed == reps

    def test_svg_dir(self, tmp_path, capsys):
        out = tmp_path / "figs"
        assert (
            run(
                [
                    "enumerate", "--n", "3", "--group", "cyclic",
                    "--format", "svg-dir", "--out", str(out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        files = sorted(out.glob("*.svg"))
        assert len(files) == 5
        for f in files:
            root = ET.fromstring(f.read_text())
            assert root.tag.endswith("svg")

    def test_svg_dir_requires_out(self, capsys):
        assert run(["enumerate", "--n", "3", "--format", "svg-dir"]) == 2
        capsys.readouterr()

    def test_svg_dir_requires_out_before_the_walk(self, capsys, monkeypatch):
        from chorddia import oracle

        def refuse(*args, **kwargs):
            raise AssertionError("walked or built before --out was checked")

        monkeypatch.setattr(oracle, "representatives", refuse)
        monkeypatch.setattr(cli, "_resolve_group", refuse)
        assert run(["enumerate", "--n", "8", "--format", "svg-dir"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --format svg-dir requires --out DIR" in captured.err
        # the order and cap checks still come first
        assert run(["enumerate", "--n", "0", "--format", "svg-dir"]) == 2
        assert "error: n must be >= 1" in capsys.readouterr().err
        assert run(["enumerate", "--n", "9", "--format", "svg-dir"]) == 3
        assert "oracle capped at n <= 8" in capsys.readouterr().err

    def test_class_bound(self, tmp_path, capsys, monkeypatch):
        from chorddia import oracle

        # the half-turn of 6 points: 11 classes at n = 3
        path = tmp_path / "half.json"
        path.write_text(json.dumps({"points": 6, "elements": [[4, 5, 6, 1, 2, 3]]}))
        monkeypatch.setattr(cli, "MAX_ENUMERATE_CLASSES", 11)
        assert run(["enumerate", "--n", "3", "--group-file", str(path)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 11
        assert run(["enumerate", "--n", "5", "--group", "cyclic"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "enumerate capped at 11 classes, got 105" in captured.err

        def refuse(*args, **kwargs):
            raise AssertionError("walked or built past the class bound")

        monkeypatch.setattr(oracle, "representatives", refuse)
        monkeypatch.setattr(cli, "MAX_ENUMERATE_CLASSES", 10)
        assert run(["enumerate", "--n", "3", "--group-file", str(path)]) == 3
        assert "enumerate capped at 10 classes, got 11" in capsys.readouterr().err
        monkeypatch.setattr(cli, "_resolve_group", refuse)
        for kind, classes in (("identity", 15), ("cyclic", 5), ("dihedral", 5)):
            monkeypatch.setattr(cli, "MAX_ENUMERATE_CLASSES", classes - 1)
            argv = ["enumerate", "--n", "3", "--group", kind, "--format", "svg-dir"]
            assert run([*argv, "--out", str(tmp_path / kind)]) == 3
            assert f"capped at {classes - 1} classes, got {classes}" in capsys.readouterr().err
            assert not (tmp_path / kind).exists()

    @pytest.mark.parametrize("source", ["identity", "file"])
    def test_huge_listing_exits_before_the_walk(self, tmp_path, monkeypatch, source):
        # 34,459,425 classes at n = 9, about 9 GB if held whole
        monkeypatch.setenv("CHORDDIA_ORACLE_CAP", "9")
        if source == "identity":
            argv = ["--group", "identity"]
        else:
            path = tmp_path / "identity.json"
            path.write_text(json.dumps({"points": 18, "elements": []}))
            argv = ["--group-file", str(path)]
        proc = run_module(
            "enumerate", "--n", "9", *argv, address_space=600 * 2**20, timeout=30
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "enumerate capped at 2027025 classes, got 34459425" in proc.stderr
        assert "Traceback" not in proc.stderr

    @staticmethod
    def expected_jsonl(n, group):
        # the serialized form as it was before the lines were written
        # straight from the partner array; ChordDiagram checks each array
        reps = [ChordDiagram(d.partner) for d in representatives(n, group)]
        return "".join(json.dumps(d.to_json_dict()) + "\n" for d in reps)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("kind", ["identity", "cyclic", "dihedral"])
    def test_jsonl_equals_json_dumps(self, kind, n, capsys):
        assert run(["enumerate", "--n", str(n), "--group", kind]) == 0
        assert capsys.readouterr().out == self.expected_jsonl(n, make_standard_group(kind, 2 * n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_jsonl_equals_json_dumps_group_file(self, n, tmp_path, capsys):
        # the half-turn of 2n points
        half_turn = [(v + n) % (2 * n) + 1 for v in range(2 * n)]
        path = tmp_path / "half.json"
        path.write_text(json.dumps({"points": 2 * n, "elements": [half_turn]}))
        assert run(["enumerate", "--n", str(n), "--group-file", str(path)]) == 0
        group = chorddia.generate_group(
            [chorddia.GroupElement.from_images([x - 1 for x in half_turn])], 2 * n
        )
        assert group.order == 2
        assert capsys.readouterr().out == self.expected_jsonl(n, group)


class TestCrossingsCommand:
    def test_csv(self, capsys):
        assert run(["crossings", "--n", "3"]) == 0
        assert capsys.readouterr().out == "crossings,count\n0,5\n1,6\n2,3\n3,1\n"

    def test_oracle_method_agrees(self, capsys):
        assert run(["crossings", "--n", "4", "--method", "oracle", "--format", "json"]) == 0
        oracle_out = json.loads(capsys.readouterr().out)
        assert run(["crossings", "--n", "4", "--format", "json"]) == 0
        formula_out = json.loads(capsys.readouterr().out)
        assert oracle_out == formula_out


    def test_formula_work_bound(self, capsys, monkeypatch):
        from chorddia import classic

        monkeypatch.setattr(classic, "MAX_CROSSING_N", 3)
        assert run(["crossings", "--n", "3"]) == 0
        capsys.readouterr()
        assert run(["crossings", "--n", "4"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "crossing polynomial capped at n <= 3" in captured.err

    def test_huge_n_exits_before_allocating(self):
        # n = 100000 would allocate 5 * 10^9 coefficient slots
        proc = run_module("crossings", "--n", "100000", address_space=600 * 2**20)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "crossing polynomial capped at n <= 500" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestThreadsFlag:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--n-max", "3", "--threads", "0"],
            ["count", "--n", "3", "--threads", "0"],
            ["count", "--n", "3", "--method", "burnside", "--threads", "-2"],
            ["crossings", "--n", "3", "--threads", "-1"],
        ],
        ids=["verify", "count-formula", "count-burnside", "crossings-formula"],
    )
    def test_refused_before_any_work(self, capsys, argv):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "threads must be >= 1" in captured.err

    def test_two_threads_accepted(self, capsys):
        assert run(["count", "--n", "3", "--threads", "2"]) == 0
        assert capsys.readouterr().out == "5\n"


class TestStrictCommand:
    def test_csv(self, capsys):
        assert run(["strict", "--n-max", "4"]) == 0
        assert capsys.readouterr().out == (
            "n,strict,cumulative\n1,0,0\n2,1,1\n3,4,5\n4,31,36\n"
        )

    def test_work_bound(self, capsys, monkeypatch):
        from chorddia import classic

        monkeypatch.setattr(classic, "MAX_STRICT_N", 4)
        assert run(["strict", "--n-max", "4"]) == 0
        capsys.readouterr()
        assert run(["strict", "--n-max", "5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "strict sequences capped at n <= 4, got n = 5" in captured.err

    def test_huge_n_max_exits_before_allocating(self):
        # at 20000 the cumulative values alone outgrow 600 MB
        proc = run_module("strict", "--n-max", "20000", address_space=600 * 2**20, timeout=30)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "strict sequences capped at n <= 4000" in proc.stderr
        assert "Traceback" not in proc.stderr


# verify"s exit code, stdout and stderr for the argv sets below, recorded
# from the release before its checks became one table; since then only the
# transfer count line's last n has changed, from the oracle's to --n-max
VERIFY_GOLDEN = {
    "--n-max 16 --oracle-max 4": (
        0,
        (
            "ok   formula == burnside (identity, n <= 16)\n"
            "ok   formula == burnside (cyclic, n <= 16)\n"
            "ok   formula == burnside (dihedral, n <= 16)\n"
            "ok   formula == oracle (identity, n <= 4)\n"
            "ok   formula == oracle (cyclic, n <= 4)\n"
            "ok   formula == oracle (dihedral, n <= 4)\n"
            "ok   rotation fixed counts match closed form (n <= 4)\n"
            "ok   wreath distribution mass == 2^n n! (n <= 16)\n"
            "ok   crossing polynomial == crossing histogram (n <= 4)\n"
            "ok   strict recurrence == strict enumeration (n <= 4)\n"
            "all checks passed\n"
        ),
        (
            "ok   burnside == wreath class sum (identity, n <= 16)\n"
            "ok   burnside == wreath class sum (cyclic, n <= 16)\n"
            "ok   burnside == wreath class sum (dihedral, n <= 16)\n"
            "ok   crossing polynomial == transfer count (n <= 16)\n"
            "ok   strict recurrence == inclusion-exclusion (n <= 16)\n"
        ),
    ),
    "--n-max 7 --oracle-max 7": (
        0,
        (
            "ok   formula == burnside (identity, n <= 7)\n"
            "ok   formula == burnside (cyclic, n <= 7)\n"
            "ok   formula == burnside (dihedral, n <= 7)\n"
            "ok   formula == oracle (identity, n <= 7)\n"
            "ok   formula == oracle (cyclic, n <= 7)\n"
            "ok   formula == oracle (dihedral, n <= 7)\n"
            "ok   rotation fixed counts match closed form (n <= 6)\n"
            "ok   wreath distribution mass == 2^n n! (n <= 7)\n"
            "ok   crossing polynomial == crossing histogram (n <= 7)\n"
            "ok   strict recurrence == strict enumeration (n <= 7)\n"
            "all checks passed\n"
        ),
        (
            "ok   burnside == wreath class sum (identity, n <= 7)\n"
            "ok   burnside == wreath class sum (cyclic, n <= 7)\n"
            "ok   burnside == wreath class sum (dihedral, n <= 7)\n"
            "ok   crossing polynomial == transfer count (n <= 7)\n"
            "ok   strict recurrence == inclusion-exclusion (n <= 7)\n"
        ),
    ),
    "--n-max 5 --oracle-max 3": (
        0,
        (
            "ok   formula == burnside (identity, n <= 5)\n"
            "ok   formula == burnside (cyclic, n <= 5)\n"
            "ok   formula == burnside (dihedral, n <= 5)\n"
            "ok   formula == oracle (identity, n <= 3)\n"
            "ok   formula == oracle (cyclic, n <= 3)\n"
            "ok   formula == oracle (dihedral, n <= 3)\n"
            "ok   rotation fixed counts match closed form (n <= 3)\n"
            "ok   wreath distribution mass == 2^n n! (n <= 5)\n"
            "ok   crossing polynomial == crossing histogram (n <= 3)\n"
            "ok   strict recurrence == strict enumeration (n <= 3)\n"
            "all checks passed\n"
        ),
        (
            "ok   burnside == wreath class sum (identity, n <= 5)\n"
            "ok   burnside == wreath class sum (cyclic, n <= 5)\n"
            "ok   burnside == wreath class sum (dihedral, n <= 5)\n"
            "ok   crossing polynomial == transfer count (n <= 5)\n"
            "ok   strict recurrence == inclusion-exclusion (n <= 5)\n"
        ),
    ),
    "--n-max 4": (
        0,
        (
            "ok   formula == burnside (identity, n <= 4)\n"
            "ok   formula == burnside (cyclic, n <= 4)\n"
            "ok   formula == burnside (dihedral, n <= 4)\n"
            "ok   formula == oracle (identity, n <= 4)\n"
            "ok   formula == oracle (cyclic, n <= 4)\n"
            "ok   formula == oracle (dihedral, n <= 4)\n"
            "ok   rotation fixed counts match closed form (n <= 4)\n"
            "ok   wreath distribution mass == 2^n n! (n <= 4)\n"
            "ok   crossing polynomial == crossing histogram (n <= 4)\n"
            "ok   strict recurrence == strict enumeration (n <= 4)\n"
            "all checks passed\n"
        ),
        (
            "ok   burnside == wreath class sum (identity, n <= 4)\n"
            "ok   burnside == wreath class sum (cyclic, n <= 4)\n"
            "ok   burnside == wreath class sum (dihedral, n <= 4)\n"
            "ok   crossing polynomial == transfer count (n <= 4)\n"
            "ok   strict recurrence == inclusion-exclusion (n <= 4)\n"
        ),
    ),
    "--n-max 1": (
        0,
        (
            "ok   formula == burnside (identity, n <= 1)\n"
            "ok   formula == burnside (cyclic, n <= 1)\n"
            "ok   formula == burnside (dihedral, n <= 1)\n"
            "ok   formula == oracle (identity, n <= 1)\n"
            "ok   formula == oracle (cyclic, n <= 1)\n"
            "ok   formula == oracle (dihedral, n <= 1)\n"
            "ok   rotation fixed counts match closed form (n <= 1)\n"
            "ok   wreath distribution mass == 2^n n! (n <= 1)\n"
            "ok   crossing polynomial == crossing histogram (n <= 1)\n"
            "ok   strict recurrence == strict enumeration (n <= 1)\n"
            "all checks passed\n"
        ),
        (
            "ok   burnside == wreath class sum (identity, n <= 1)\n"
            "ok   burnside == wreath class sum (cyclic, n <= 1)\n"
            "ok   burnside == wreath class sum (dihedral, n <= 1)\n"
            "ok   crossing polynomial == transfer count (n <= 1)\n"
            "ok   strict recurrence == inclusion-exclusion (n <= 1)\n"
        ),
    ),
    "--n-max 3 --oracle-max 5": (
        2,
        "",
        (
            "error: --oracle-max cannot exceed --n-max\n"
        ),
    ),
    "--n-max 0": (
        2,
        "",
        (
            "error: n must be >= 1\n"
        ),
    ),
}


class TestVerify:
    def test_small_run_passes(self, capsys):
        assert run(["verify", "--n-max", "4"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "FAIL" not in out
        assert out.count("ok   ") >= 8

    def test_wreath_class_sum_line(self, capsys):
        assert run(["verify", "--n-max", "3", "--oracle-max", "1"]) == 0
        err = capsys.readouterr().err
        for kind in ("identity", "cyclic", "dihedral"):
            assert f"ok   burnside == wreath class sum ({kind}, n <= 3)" in err

    def test_wreath_class_sum_mismatch_fails(self, capsys, monkeypatch):
        from chorddia import burnside

        monkeypatch.setattr(burnside, "_wreath_class_sum", lambda n, group: 0)
        assert run(["verify", "--n-max", "2", "--oracle-max", "1"]) == 1
        captured = capsys.readouterr()
        assert "FAIL burnside == wreath class sum (cyclic, n <= 2)" in captured.err
        assert "3 failure(s)" in captured.out

    def test_wreath_mass_mismatch_fails(self, capsys, monkeypatch):
        from chorddia import burnside

        terms = burnside._wreath_terms

        def heavier(n, eta=None):
            # one extra unit on every unfiltered term; the class sums pass eta
            return ((code, weight + (eta is None)) for code, weight in terms(n, eta))

        monkeypatch.setattr(burnside, "_wreath_terms", heavier)
        assert run(["verify", "--n-max", "2", "--oracle-max", "1"]) == 1
        captured = capsys.readouterr()
        assert "FAIL wreath distribution mass == 2^n n! (n <= 2): n=1: total 4" in captured.out
        assert "1 failure(s)" in captured.out

    def test_work_bound(self, capsys, monkeypatch):
        from chorddia import cli

        monkeypatch.setattr(cli, "MAX_VERIFY_N", 3)
        assert run(["verify", "--n-max", "3", "--oracle-max", "1"]) == 0
        capsys.readouterr()
        assert run(["verify", "--n-max", "4", "--oracle-max", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "verify capped at --n-max <= 3, got 4" in captured.err

    def test_huge_n_max_exits_before_any_work(self):
        # the wreath tables of every n <= 40 once outgrew 600 MB
        for n_max in ("40", "100000"):
            proc = run_module(
                "verify", "--n-max", n_max, "--oracle-max", "3",
                address_space=600 * 2**20, timeout=30,
            )
            assert proc.returncode == 3
            assert proc.stdout == ""
            assert f"verify capped at --n-max <= 35, got {n_max}" in proc.stderr
            assert "Traceback" not in proc.stderr

    def test_transfer_count_line(self, capsys):
        # it walks no matching, so it runs past the oracle to --n-max
        assert run(["verify", "--n-max", "4", "--oracle-max", "3"]) == 0
        captured = capsys.readouterr()
        assert "ok   crossing polynomial == transfer count (n <= 4)" in captured.err
        assert "transfer count" not in captured.out

    def test_transfer_count_mismatch_fails(self, capsys, monkeypatch):
        from chorddia import classic

        monkeypatch.setattr(classic, "_crossing_transfers", lambda n_max: [(0,)] * n_max)
        assert run(["verify", "--n-max", "2", "--oracle-max", "2"]) == 1
        captured = capsys.readouterr()
        assert "FAIL crossing polynomial == transfer count (n <= 2): n=1" in captured.err
        assert "1 failure(s)" in captured.out

    def test_strict_inclusion_exclusion_line(self, capsys):
        assert run(["verify", "--n-max", "5", "--oracle-max", "2"]) == 0
        captured = capsys.readouterr()
        assert "ok   strict recurrence == inclusion-exclusion (n <= 5)" in captured.err
        assert "inclusion-exclusion" not in captured.out

    def test_strict_inclusion_exclusion_mismatch_fails(self, capsys, monkeypatch):
        from chorddia import classic

        monkeypatch.setattr(classic, "_strict_inclusion_exclusion", lambda n: 1)
        assert run(["verify", "--n-max", "3", "--oracle-max", "1"]) == 1
        captured = capsys.readouterr()
        assert (
            "FAIL strict recurrence == inclusion-exclusion (n <= 3):"
            " n=1: inclusion-exclusion 1 != 0" in captured.err
        )
        assert "1 failure(s)" in captured.out

    @pytest.mark.parametrize("raw", ["0", "-3"])
    def test_nonpositive_oracle_cap(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("CHORDDIA_ORACLE_CAP", raw)
        assert run(["verify", "--n-max", "2"]) == 2
        captured = capsys.readouterr()
        assert "CHORDDIA_ORACLE_CAP" in captured.err
        assert "all checks passed" not in captured.out

    @pytest.mark.parametrize("raw", ["0", "-1"])
    def test_nonpositive_oracle_max(self, capsys, raw):
        assert run(["verify", "--n-max", "3", "--oracle-max", raw]) == 2
        captured = capsys.readouterr()
        assert "--oracle-max" in captured.err
        assert captured.out == ""

    def test_oracle_max_validation(self, capsys):
        assert run(["verify", "--n-max", "3", "--oracle-max", "5"]) == 2
        capsys.readouterr()

    def test_two_threads_print_the_same(self, capsys):
        argv = ["verify", "--n-max", "7", "--oracle-max", "7"]
        assert run(argv + ["--threads", "1"]) == 0
        solo = capsys.readouterr()
        assert run(argv + ["--threads", "2"]) == 0
        assert capsys.readouterr() == solo
        assert "all checks passed" in solo.out

    def test_one_census_walk_per_n(self, capsys, monkeypatch):
        # the identity, cyclic and dihedral orbit lines, the crossing line
        # and the strict line read one census walk per n
        from chorddia import oracle

        census = []
        census_walk = oracle._dihedral_census

        def record_census(n, threads=None):
            census.append(n)
            return census_walk(n, threads)

        def refuse(*args, **kwargs):
            raise AssertionError("verify walked the matchings twice")

        monkeypatch.setattr(oracle, "_dihedral_census", record_census)
        monkeypatch.setattr(oracle, "orbit_count", refuse)
        monkeypatch.setattr(oracle, "crossing_distribution", refuse)
        monkeypatch.setattr(oracle, "strict_count", refuse)
        assert run(["verify", "--n-max", "8", "--oracle-max", "8"]) == 0
        assert "all checks passed" in capsys.readouterr().out
        assert census == [1, 2, 3, 4, 5, 6, 7, 8]

    @pytest.mark.parametrize(
        "part,line",
        [
            (0, "FAIL formula == oracle (identity, n <= 3): n=3: oracle 16 != 15"),
            (1, "FAIL formula == oracle (cyclic, n <= 3): n=3: oracle 6 != 5"),
            (2, "FAIL formula == oracle (dihedral, n <= 3): n=3: oracle 6 != 5"),
            (3, "FAIL crossing polynomial == crossing histogram (n <= 3): n=3"),
            (4, "FAIL strict recurrence == strict enumeration (n <= 3): n=3"),
        ],
        ids=["identity", "cyclic", "orbits", "crossings", "strict"],
    )
    def test_census_mismatch_fails(self, capsys, monkeypatch, part, line):
        from chorddia import classic, oracle

        census_walk = oracle._dihedral_census
        wrong = (
            oracle.OrbitSummary(3, 1, 16, {1: 16}),
            oracle.OrbitSummary(3, 6, 6, {6: 6}),
            oracle.OrbitSummary(3, 12, 6, {12: 6}),
            classic.CrossingPolynomial(3, (5, 6, 3, 2)),
            5,
        )

        def wrong_at_3(n, threads=None):
            result = list(census_walk(n, threads))
            if n == 3:
                result[part] = wrong[part]
            return tuple(result)

        monkeypatch.setattr(oracle, "_dihedral_census", wrong_at_3)
        assert run(["verify", "--n-max", "3", "--oracle-max", "3"]) == 1
        captured = capsys.readouterr()
        assert line in captured.out
        assert "1 failure(s)" in captured.out

    def test_oracle_max_above_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("CHORDDIA_ORACLE_CAP", "2")
        assert run(["verify", "--n-max", "5", "--oracle-max", "5"]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("argv", sorted(VERIFY_GOLDEN))
    def test_golden_output(self, capsys, argv):
        code, out, err = VERIFY_GOLDEN[argv]
        assert run(["verify", *argv.split()]) == code
        assert capsys.readouterr() == (out, err)

    def test_first_failure_detail(self, capsys, monkeypatch):
        # one stdout line and one stderr line fail at n = 2 and n = 3; each
        # reports n = 2 only, and both count towards the summary
        from chorddia import burnside, classic

        terms = burnside._wreath_terms
        strict = classic._strict_inclusion_exclusion

        def heavier(n, eta=None):
            # one extra unit of mass; the class sums pass eta and never see it
            yield from terms(n, eta)
            if eta is None and n in (2, 3):
                yield None, 1

        def off_by_one(n):
            return strict(n) + (n in (2, 3))

        monkeypatch.setattr(burnside, "_wreath_terms", heavier)
        monkeypatch.setattr(classic, "_strict_inclusion_exclusion", off_by_one)
        assert run(["verify", "--n-max", "4", "--oracle-max", "2"]) == 1
        out, err = capsys.readouterr()
        assert "FAIL wreath distribution mass == 2^n n! (n <= 4): n=2: total 9\n" in out
        assert (
            "FAIL strict recurrence == inclusion-exclusion (n <= 4):"
            " n=2: inclusion-exclusion 2 != 1\n" in err
        )
        assert "n=3" not in out + err
        assert out.endswith("2 failure(s)\n")


class TestRenderSvg:
    def test_structure_diameters(self):
        text = render_svg(diagram((1, 4), (2, 5), (3, 6)))
        assert text.count("<circle") == 1
        assert text.count("<line") == 3
        assert text.count("<rect") == 6
        assert text.count("<text") == 6

    def test_structure_single_chord(self):
        text = render_svg(diagram((1, 2)))
        assert text.count("<circle") == 1
        assert text.count("<line") == 1

    def test_structure_first_representative_n4(self):
        rep = representatives(4, make_standard_group("cyclic", 8))[0]
        text = render_svg(rep)
        assert text.count("<circle") == 1
        assert text.count("<line") == 4
        assert text.count("<rect") == 8

    def test_valid_xml_with_labels(self):
        root = ET.fromstring(render_svg(diagram((1, 3), (2, 4))))
        ns = "{http://www.w3.org/2000/svg}"
        labels = [el.text for el in root.iter(f"{ns}text")]
        assert labels == ["1", "2", "3", "4"]

    def test_deterministic(self):
        d = diagram((1, 5), (2, 3), (4, 6))
        assert render_svg(d) == render_svg(d)


def run_module(*args, address_space=None, timeout=120):
    """python -m chorddia ARGS; see run_python."""
    return run_python("-m", "chorddia", *args, address_space=address_space, timeout=timeout)


def run_python(*args, address_space=None, timeout=120):
    """python ARGS, importing the package these tests import; address_space
    caps the child's virtual memory in bytes. A child still running after
    timeout seconds is killed and the test fails, so a lost work bound
    cannot hang the suite."""
    src = str(Path(chorddia.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        preexec_fn=limit_memory if address_space else None,
        timeout=timeout,
    )


class TestProcessEntry:
    def test_module_invocation(self):
        proc = run_module("count", "--group", "cyclic", "--n", "4")
        assert proc.returncode == 0
        assert proc.stdout == "18\n"

    def test_help_exits_zero(self):
        proc = run_module("--help")
        assert proc.returncode == 0
        assert "count" in proc.stdout
