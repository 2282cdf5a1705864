import ast
import json
import sys
from pathlib import Path

from ppmplan import files
from ppmplan.files import fmt, read_csv, write_csv, write_json
from ppmplan.traffic import Demand, DemandSet, read_demands_csv, write_demands_csv

SRC = Path(files.__file__).parent


def test_csv_round_trip_with_and_without_hash(tmp_path):
    path = tmp_path / "t.csv"
    for chash, first in ((None, "a,b\r\n"), ("abc", "# config_hash=abc\n")):
        write_csv(path, ["a", "b"], [[1, "x,y"], [fmt(0.5), fmt(None)]], chash)
        assert path.read_bytes().decode().startswith(first)
        assert read_csv(path) == [{"a": "1", "b": "x,y"}, {"a": "0.5", "b": ""}]


def test_hash_lines_after_the_header_are_rows(tmp_path):
    # only lines before the header are comments, so a node may be named "#1"
    ds = DemandSet((Demand("#1", "2", 100), Demand("2", "#1", 200)), seed=4)
    path = tmp_path / "d.csv"
    write_demands_csv(ds, path)
    assert read_demands_csv(path) == ds
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
