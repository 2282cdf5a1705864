import ast
import json
import re
import sys
from pathlib import Path

import pytest

from ppmplan import files
from ppmplan.files import fmt, is_number, read_csv, read_object, write_csv, write_json
from ppmplan.topology import topology_from_dict
from ppmplan.traffic import Demand, DemandSet, read_demands_csv, write_demands_csv

SRC = Path(files.__file__).parent


def test_csv_round_trip_with_and_without_hash(tmp_path):
    path = tmp_path / "t.csv"
    for chash, first, line in ((None, "a,b\r\n", 2), ("abc", "# config_hash=abc\n", 3)):
        write_csv(path, ["a", "b"], [[1, "x,y"], [fmt(0.5), fmt(None)]], chash)
        assert path.read_bytes().decode().startswith(first)
        assert read_csv(path, ("a", "b")) == [(line, {"a": "1", "b": "x,y"}),
                                              (line + 1, {"a": "0.5", "b": ""})]


@pytest.mark.parametrize("text, missing", [("a,b\n1,2\n", "c"), ("b\n", "a, c"), ("", "a, b, c")])
def test_csv_without_a_read_column_names_the_file_and_column(tmp_path, text, missing):
    path = tmp_path / "t.csv"
    path.write_text("# config_hash=abc\n" + text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))} has no {missing} column$"):
        read_csv(path, ("a", "b", "c"))


def test_read_object_names_the_file(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"seed": 3}')
    assert read_object(path) == {"seed": 3}
    path.write_text("[1]")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))} must hold a JSON object, got list$"):
        read_object(path)
    for raw in (b"{", b"\xff{}"):
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=f"^invalid JSON in {re.escape(str(path))}: "):
            read_object(path)


def test_csv_of_non_utf8_bytes_names_the_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"a,b\n1,\xff\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))} is not UTF-8 text: "):
        read_csv(path, ("a", "b"))


@pytest.mark.parametrize("last, cells", [("4", 1), ("4,5,6", 3)], ids=["short", "long"])
def test_csv_row_of_another_length_names_the_file_and_line(tmp_path, last, cells):
    # the line counts the "#" line, the blank line and both lines of the quoted cell
    path = tmp_path / "t.csv"
    path.write_text(f'# config_hash=abc\na,b\n1,2\n\n"x\ny",3\n{last}\n')
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 7 has {cells} "
                                         "cells, not the header's 2$"):
        read_csv(path, ("a",))
    path.write_text('a,b\n1,2\n\n"x\ny",3\n')
    assert read_csv(path, ("a",)) == [(2, {"a": "1", "b": "2"}), (5, {"a": "x\ny", "b": "3"})]


def test_csv_header_with_a_repeated_column_names_the_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,a,c,c\n1,2,3,4,5\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))} has the a, c column "
                                         "more than once$"):
        read_csv(path, ("b",))


def test_csv_cell_beyond_the_field_limit_names_the_file_and_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n1," + "9" * 200_000 + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 3: field larger "):
        read_csv(path, ("a",))


@pytest.mark.parametrize("row, message", [
    ("1,2,abc", "rate_gbps 'abc', not one of [100, 200, 300, 400]"),
    ("1,2,1e400", "rate_gbps '1e400', not one of [100, 200, 300, 400]"),
    ("1,2,", "rate_gbps '', not one of [100, 200, 300, 400]"),
    ("1,2,150", "rate_gbps '150', not one of [100, 200, 300, 400]"),
    ("1,1,100", "dst '1', not a node other than src"),
    ("0,2,100", "src '0', not a node of topology 'N14'"),
    ("1,99,100", "dst '99', not a node of topology 'N14'"),
], ids=["word", "huge-float", "empty", "off-the-list", "same-ends", "unknown-src", "unknown-dst"])
def test_demand_row_error_names_the_file_line_and_column(n14, tmp_path, row, message):
    path = tmp_path / "d.csv"
    path.write_text(f"src,dst,rate_gbps\n2,3,100\n{row}\n")
    with pytest.raises(ValueError) as err:
        read_demands_csv(path, n14)
    assert str(err.value) == f"{path}: line 3 has {message}"


def test_demands_sidecar_of_non_object_json_is_a_value_error(n14, tmp_path):
    path = tmp_path / "d.csv"
    write_demands_csv(DemandSet((Demand("1", "2", 100),), seed=4), path)
    (tmp_path / "d.csv.meta.json").write_text("[1]")
    with pytest.raises(ValueError, match="d.csv.meta.json must hold a JSON object, got list"):
        read_demands_csv(path, n14)


def test_hash_lines_after_the_header_are_rows(tmp_path):
    # only lines before the header are comments, so a node may be named "#1"
    ds = DemandSet((Demand("#1", "2", 100), Demand("2", "#1", 200)), seed=4)
    path = tmp_path / "d.csv"
    write_demands_csv(ds, path)
    topo = topology_from_dict({"name": "hash", "nodes": ["#1", "2"],
                               "edges": [{"a": "#1", "b": "2", "length_km": 100}]})
    assert read_demands_csv(path, topo) == ds
    assert json.loads((tmp_path / "d.csv.meta.json").read_text()) == {"count": 2, "seed": 4}


def test_write_json_layout_and_stdout(tmp_path, capsys):
    text = '{\n  "a": [\n    1\n  ],\n  "b": null\n}\n'
    write_json("-", {"b": None, "a": [1]})
    assert capsys.readouterr().out == text
    write_json(tmp_path / "x.json", {"b": None, "a": [1]})
    assert (tmp_path / "x.json").read_text() == text


def test_fmt():
    assert [fmt(None), fmt(True), fmt(False), fmt(1 / 3), fmt(3), fmt("Tr")] == \
        ["", "true", "false", "0.333333", "3", "Tr"]


def test_is_number():
    assert [is_number(v) for v in (3, 0.5, 1e308, 10**308, True, "3", None)] == \
        [True, True, True, True, False, False, False]
    # an int too large for a float is no number where floats are accepted
    assert not is_number(10**400) and not is_number(-(10**400))
    assert is_number(10**400, int) and not is_number(True, int) and not is_number(0.5, int)


def test_files_imports_only_the_standard_library():
    tree = ast.parse((SRC / "files.py").read_text(encoding="utf-8"))
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, "files.py imports from the package"
            modules.add(node.module)
    assert {name.split(".")[0] for name in modules} <= set(sys.stdlib_module_names)


def test_no_other_module_writes_csv_or_json():
    for path in SRC.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        if path.name != "files.py":
            assert "csv.writer" not in text and "json.dump" not in text, path.name
