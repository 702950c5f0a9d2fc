import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import chorddia
from chorddia import ChordDiagram, make_standard_group, representatives
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

    def test_usage_error(self, capsys):
        assert run(["count", "--group", "wavelet", "--n", "3"]) == 2
        capsys.readouterr()

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

    def test_bad_range(self, capsys):
        assert run(["table", "--from", "5", "--to", "3"]) == 2
        capsys.readouterr()


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


class TestStrictCommand:
    def test_csv(self, capsys):
        assert run(["strict", "--n-max", "4"]) == 0
        assert capsys.readouterr().out == (
            "n,strict,cumulative\n1,0,0\n2,1,1\n3,4,5\n4,31,36\n"
        )


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

    @pytest.mark.parametrize("raw", ["0", "-3"])
    def test_nonpositive_oracle_cap(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("CHORDDIA_ORACLE_CAP", raw)
        assert run(["verify", "--n-max", "2"]) == 2
        captured = capsys.readouterr()
        assert "CHORDDIA_ORACLE_CAP" in captured.err
        assert "all checks passed" not in captured.out

    def test_oracle_max_validation(self, capsys):
        assert run(["verify", "--n-max", "3", "--oracle-max", "5"]) == 2
        capsys.readouterr()

    def test_oracle_max_above_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("CHORDDIA_ORACLE_CAP", "2")
        assert run(["verify", "--n-max", "5", "--oracle-max", "5"]) == 3
        capsys.readouterr()


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


def run_module(*args):
    """python -m chorddia ARGS, importing the package these tests import."""
    src = str(Path(chorddia.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "chorddia", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
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
