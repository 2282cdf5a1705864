import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ppmplan
from ppmplan import cli
from ppmplan.cli import main
from ppmplan.provisioning import provision, write_lightpaths_csv
from ppmplan.topology import bundled_topology
from ppmplan.traffic import find_load_at_rejection, generate_demands, write_demands_csv


def run_cli(*argv):
    return main(list(argv))


class TestTopoCommands:
    def test_gen_validate_round_trip(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert run_cli("topo", "gen", "--nodes", "10", "--seed", "2",
                       "--out", str(out)) == 0
        assert run_cli("topo", "validate", str(out)) == 0
        assert "ok" in capsys.readouterr().out

    def test_gen_span_flag(self, tmp_path):
        out = tmp_path / "g.json"
        assert run_cli("topo", "gen", "--nodes", "6", "--seed", "2",
                       "--extent-km", "200", "--span-km", "40",
                       "--out", str(out)) == 0
        assert json.loads(out.read_text())["span_length_km"] == 40.0

    def test_validate_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x"}')
        assert run_cli("topo", "validate", str(bad)) == 2

    @pytest.mark.parametrize("raw", [b"{", b"\xff{}"], ids=["not-json", "not-utf8"])
    def test_validate_undecodable_file_names_it(self, tmp_path, capsys, raw):
        bad = tmp_path / "bad.json"
        bad.write_bytes(raw)
        assert run_cli("topo", "validate", str(bad)) == 2
        assert capsys.readouterr().err.startswith(f"error: invalid JSON in {bad}: ")

    def test_missing_file_is_data_error(self):
        assert run_cli("topo", "validate", "no_such_file.json") == 2

    @pytest.mark.parametrize("span, length", [
        ('"span_length_km": 80', '"length_km": 1e400'),
        ('"span_length_km": NaN', '"length_km": 100'),
        ('"span_length_km": 1e400', '"length_km": 100')])
    def test_validate_non_finite_numbers_is_data_error(self, tmp_path, capsys, span, length):
        path = tmp_path / "topo.json"
        path.write_text('{"name": "t", %s, "nodes": ["A", "B"], '
                        '"edges": [{"a": "A", "b": "B", %s}]}' % (span, length))
        assert run_cli("topo", "validate", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "positive and finite" in err
        assert "Traceback" not in err
        assert run_cli("baseline", "--topo", str(path)) == 2

    @pytest.mark.parametrize("field, value, message", [
        ("span_length_km", None, "span_length_km must be a number, got None"),
        ("edges", 5, "edges must be a list, got 5"),
        ("nodes", "AB", "nodes must be a list, got 'AB'"),
        ("edges", [{"a": "A", "b": "B", "length_km": True}],
         "edge A-B length_km must be a number, got True"),
        # JSON reads these integers exactly; as floats they would overflow
        ("span_length_km", 10**400, f"span_length_km must be a number, got {10**400}"),
        ("edges", [{"a": "A", "b": "B", "length_km": 10**400}],
         f"edge A-B length_km must be a number, got {10**400}")])
    def test_validate_field_of_the_wrong_type_is_data_error(self, tmp_path, capsys,
                                                           field, value, message):
        path = tmp_path / "topo.json"
        path.write_text(json.dumps({"name": "t", "span_length_km": 80, "nodes": ["A", "B"],
                                    "edges": [{"a": "A", "b": "B", "length_km": 100}],
                                    field: value}))
        assert run_cli("topo", "validate", str(path)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        out = tmp_path / "out"
        assert run_cli("run", "--topo", str(path), "--seeds", "0", "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--extent-km", "nan"), ("--extent-km", "inf"),
                                             ("--span-km", "nan"), ("--span-km", "inf")])
    def test_gen_non_finite_number_is_data_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "g.json"
        assert run_cli("topo", "gen", "--nodes", "6", "--seed", "2", flag, value,
                       "--out", str(out)) == 2
        assert "positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["topo", "validate", "{path}"], ["baseline", "--topo", "{path}"],
        ["demands", "--topo", "{path}", "--count", "5", "--out", "{out}"],
        ["run", "--topo", "{path}", "--seeds", "0", "--out", "{out}"]],
        ids=["validate", "baseline", "demands", "run"])
    def test_arrow_in_node_name_is_data_error(self, tmp_path, capsys, command):
        # "->" separates the nodes of a link label and a lightpath route
        path = tmp_path / "arrow.json"
        path.write_text(json.dumps({"name": "t", "span_length_km": 80, "nodes": ["A->B", "C"],
                                    "edges": [{"a": "A->B", "b": "C", "length_km": 100}]}))
        out = tmp_path / "out"
        assert run_cli(*[arg.format(path=path, out=out) for arg in command]) == 2
        assert capsys.readouterr().err == "error: node 'A->B' contains '->'\n"
        assert not out.exists()


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 1

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("baseline", "--topo", "n14", "--bogus")
        assert exc.value.code == 1

    def test_missing_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("demands", "--count", "5")
        assert exc.value.code == 1

    def test_place_has_no_arch_flag(self, capsys):
        # the lightpath file fixes the architecture: opaque dumps are single-hop
        with pytest.raises(SystemExit) as exc:
            run_cli("place", "--topo", "n14", "--lightpaths", "lps.csv", "--arch", "opaque",
                    "--gamma", "1")
        assert exc.value.code == 1
        assert "unrecognized arguments: --arch opaque" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--tie-break", "seeded_random"], ["--seed", "3"]],
                             ids=["tie-break", "seed"])
    def test_place_has_no_tie_break_flags(self, capsys, flag):
        # the greedy has one tie rule: least cost, then lowest group index
        with pytest.raises(SystemExit) as exc:
            run_cli("place", "--topo", "n14", "--lightpaths", "lps.csv", "--gamma", "1", *flag)
        assert exc.value.code == 1
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_place_has_no_oracle_solver(self, tmp_path, capsys):
        # the exact solver answers what an enumeration would, at any size
        out = tmp_path / "sol.json"
        with pytest.raises(SystemExit) as exc:
            run_cli("place", "--topo", "n14", "--lightpaths", "lps.csv", "--solver", "oracle",
                    "--gamma", "1", "--out", str(out))
        assert exc.value.code == 1
        assert "argument --solver: invalid choice: 'oracle'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["place", "export-lp"])
    def test_no_alpha_policy_flag(self, capsys, command):
        # the placement model has no weight: it asks for the fewest monitors
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--topo", "n14", "--lightpaths", "lps.csv", "--gamma", "1",
                    "--alpha-policy", "hop_plus_one", "--out", "out")
        assert exc.value.code == 1
        assert "unrecognized arguments: --alpha-policy hop_plus_one" in capsys.readouterr().err


class TestPipeline:
    @pytest.fixture()
    def stage_files(self, tmp_path):
        d = tmp_path / "demands.csv"
        lps = tmp_path / "lps.csv"
        assert run_cli("demands", "--topo", "n14", "--count", "60",
                       "--seed", "1", "--out", str(d)) == 0
        assert run_cli("provision", "--topo", "n14", "--demands", str(d),
                       "--arch", "transparent", "--out", str(lps)) == 0
        return d, lps

    def test_place_solvers_agree_format(self, tmp_path, stage_files):
        _, lps = stage_files
        sols = {}
        for solver in ("greedy", "exact"):
            out = tmp_path / f"{solver}.json"
            assert run_cli("place", "--topo", "n14", "--lightpaths", str(lps),
                           "--solver", solver, "--gamma", "1", "--out", str(out)) == 0
            sols[solver] = json.loads(out.read_text())
        assert set(sols["exact"]) == {"p", "x", "unsatisfied", "monitors", "optimal"}
        assert sols["exact"]["optimal"] is True
        assert sols["greedy"]["monitors"] >= sols["exact"]["monitors"]

    def test_place_defaults_to_exact(self, tmp_path):
        # on the N14 seed-0 set at 1% rejection the greedy places 19 monitors
        # at gamma = 1 and the optimum is 18: place with no --solver is exact
        _, lset = find_load_at_rejection(bundled_topology("n14"), 0.01, 0)
        lps = tmp_path / "lps.csv"
        write_lightpaths_csv(lset, lps)
        sols = {}
        for name, flag in (("default", []), ("exact", ["--solver", "exact"]),
                           ("greedy", ["--solver", "greedy"])):
            out = tmp_path / f"{name}.json"
            assert run_cli("place", "--topo", "n14", "--lightpaths", str(lps), *flag,
                           "--gamma", "1", "--out", str(out)) == 0
            sols[name] = out.read_bytes()
        assert sols["default"] == sols["exact"]
        assert json.loads(sols["exact"])["monitors"] == 18
        assert json.loads(sols["greedy"])["monitors"] == 19

    def test_place_weighted_mode(self, tmp_path, capsys):
        # one placement model: --mode is gone, so passing it is a usage error
        with pytest.raises(SystemExit) as exc:
            run_cli("place", "--topo", "n14", "--lightpaths", "lps.csv", "--solver", "exact",
                    "--mode", "weighted", "--gamma", "1", "--out", str(tmp_path / "w.json"))
        assert exc.value.code == 1
        assert "unrecognized arguments: --mode weighted" in capsys.readouterr().err
        assert not (tmp_path / "w.json").exists()

    def test_place_budget_exit_code(self, tmp_path, stage_files):
        _, lps = stage_files
        out = tmp_path / "sol.json"
        code = run_cli("place", "--topo", "n14", "--lightpaths", str(lps),
                       "--solver", "exact", "--gamma", "1",
                       "--node-budget", "0", "--out", str(out))
        assert code == 3
        assert json.loads(out.read_text())["optimal"] is False

    def test_place_negative_budget_is_data_error(self, tmp_path, stage_files, capsys):
        _, lps = stage_files
        out = tmp_path / "sol.json"
        code = run_cli("place", "--topo", "n14", "--lightpaths", str(lps),
                       "--solver", "exact", "--gamma", "1",
                       "--node-budget", "-3", "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert "node_budget must be >= 0, got -3" in err
        assert "node budget exceeded" not in err
        assert not out.exists()

    def test_place_lp_failure_exit_code(self, tmp_path, stage_files, monkeypatch, capsys):
        from ppmplan import exact

        monkeypatch.setattr(exact, "linprog", lambda lp: (
            exact._core.HighsModelStatus.kSolveError, math.inf, None))
        _, lps = stage_files
        code = run_cli("place", "--topo", "n14", "--lightpaths", str(lps),
                       "--solver", "exact", "--gamma", "1",
                       "--out", str(tmp_path / "sol.json"))
        assert code == 4
        assert "LP relaxation failed: HiGHS model status kSolveError" in capsys.readouterr().err

    def test_export_lp(self, tmp_path, stage_files):
        _, lps = stage_files
        out = tmp_path / "model.lp"
        assert run_cli("export-lp", "--topo", "n14", "--lightpaths", str(lps),
                       "--gamma", "2", "--out", str(out)) == 0
        assert out.read_text().startswith("\\ monitor-cover integer model")

    def test_provision_unknown_node_is_data_error(self, tmp_path, capsys):
        # the demand reader checks each row against the topology, so provision
        # stops on the file's line before it serves any demand
        d = tmp_path / "bad.csv"
        for arch in ("opaque", "transparent"):
            for bad, column in (("99,2", "src"), ("1,99", "dst")):
                d.write_text(f"src,dst,rate_gbps\n1,2,100\n{bad},100\n")
                assert run_cli("provision", "--topo", "n14", "--demands", str(d), "--arch", arch,
                               "--out", str(tmp_path / "lps.csv")) == 2, (arch, bad)
                assert capsys.readouterr().err == \
                    f"error: {d}: line 3 has {column} '99', not a node of topology 'N14'\n"
                assert not (tmp_path / "lps.csv").exists()

    @pytest.mark.parametrize("command", [["place", "--gamma", "1"], ["baseline"]],
                             ids=["place", "baseline"])
    def test_lightpath_off_the_topology_is_data_error(self, tmp_path, capsys, command):
        lps = tmp_path / "lps.csv"
        lps.write_text("lp_id,add_node,drop_node,route,rate_gbps,channel,carried_gbps\n"
                       "0,1,9,1->9,400,0,100\n")
        assert run_cli(*command, "--topo", "n14", "--lightpaths", str(lps),
                       "--out", str(tmp_path / "out.json")) == 2
        assert capsys.readouterr().err == "error: route ('1', '9') leaves topology 'N14'\n"

    def test_provision_non_object_sidecar_is_data_error(self, tmp_path, capsys):
        demands, out = tmp_path / "d.csv", tmp_path / "lps.csv"
        assert run_cli("demands", "--topo", "n14", "--count", "5", "--seed", "0",
                       "--out", str(demands)) == 0
        sidecar = tmp_path / "d.csv.meta.json"
        sidecar.write_text("[1]")
        capsys.readouterr()
        assert run_cli("provision", "--topo", "n14", "--demands", str(demands),
                       "--arch", "opaque", "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {sidecar} must hold a JSON object, got list\n"
        assert not out.exists()

    @pytest.mark.parametrize("header, missing", [("src,dst,rate", "rate_gbps"),
                                                 ("a,b,c", "src, dst, rate_gbps")])
    def test_provision_demands_without_a_column_is_data_error(self, tmp_path, capsys,
                                                              header, missing):
        demands, out = tmp_path / "d.csv", tmp_path / "lps.csv"
        demands.write_text(f"{header}\n1,2,100\n")
        assert run_cli("provision", "--topo", "n14", "--demands", str(demands),
                       "--arch", "opaque", "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {demands} has no {missing} column\n"
        assert not out.exists()

    @pytest.mark.parametrize("row, message", [
        ("1,2", "line 2 has 2 cells, not the header's 3"),
        ("1,2,abc", "line 2 has rate_gbps 'abc', not one of [100, 200, 300, 400]"),
        ("1,1,100", "line 2 has dst '1', not a node other than src"),
    ], ids=["short-row", "bad-rate", "same-ends"])
    def test_provision_bad_demand_row_is_data_error(self, tmp_path, capsys, row, message):
        demands, out = tmp_path / "d.csv", tmp_path / "lps.csv"
        demands.write_text(f"src,dst,rate_gbps\n{row}\n")
        assert run_cli("provision", "--topo", "n14", "--demands", str(demands),
                       "--arch", "opaque", "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {demands}: {message}\n"
        assert not out.exists()

    def test_provision_repeated_column_is_data_error(self, tmp_path, capsys):
        demands, out = tmp_path / "d.csv", tmp_path / "lps.csv"
        demands.write_text("src,dst,rate_gbps,rate_gbps\n1,2,100,200\n")
        assert run_cli("provision", "--topo", "n14", "--demands", str(demands),
                       "--arch", "opaque", "--out", str(out)) == 2
        assert capsys.readouterr().err == \
            f"error: {demands} has the rate_gbps column more than once\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["place", "--gamma", "1"], ["baseline"],
                                         ["export-lp", "--gamma", "1"]],
                             ids=["place", "baseline", "export-lp"])
    @pytest.mark.parametrize("text, message", [
        ("{header}\n0,1,2,1->2,800\n", ": line 2 has 5 cells, not the header's 7"),
        ("{header}\n0,1,2\n", ": line 2 has 3 cells, not the header's 7"),
        ("{header},channel\n0,1,2,1->2,800,0,100,0\n", " has the channel column more than once"),
    ], ids=["short-row", "route-only", "repeated-column"])
    def test_lightpath_file_of_bad_shape_is_data_error(self, tmp_path, capsys, command,
                                                       text, message):
        lps, out = tmp_path / "lps.csv", tmp_path / "out"
        lps.write_text(text.format(
            header="lp_id,add_node,drop_node,route,rate_gbps,channel,carried_gbps"))
        assert run_cli(*command, "--topo", "n14", "--lightpaths", str(lps),
                       "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {lps}{message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["place", "--gamma", "1"], ["baseline"]],
                             ids=["place", "baseline"])
    def test_lightpaths_without_a_column_is_data_error(self, tmp_path, capsys, command):
        lps, out = tmp_path / "lps.csv", tmp_path / "out.json"
        lps.write_text("lp_id,add_node,drop_node,route,rate_gbps,carried_gbps\n"
                       "0,1,2,1->2,400,100\n")
        assert run_cli(*command, "--topo", "n14", "--lightpaths", str(lps),
                       "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {lps} has no channel column\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["place", "--gamma", "1"], ["baseline"],
                                         ["export-lp", "--gamma", "1"]],
                             ids=["place", "baseline", "export-lp"])
    @pytest.mark.parametrize("rows, message", [
        ("3,1,2,1->2,400,-1,100", "lightpath '3' has channel '-1', not an integer >= 0"),
        ("3,1,2,1->2,150,0,100",
         "lightpath '3' has rate_gbps '150', not one of [800, 700, 600, 500, 400, 300, 200]"),
        ("3,1,2,1->2,400,0,500", "lightpath '3' has carried_gbps '500', not an integer in 1..400"),
        ("3,1,2,1->2,400,0,100\n3,2,1,2->1,400,0,100",
         "lightpath '3' has lp_id '3', not an integer unused by earlier rows"),
        ("3,1,1,1->2->1,400,0,100",
         "lightpath '3' has route '1->2->1', not a route that visits each node once"),
        ("3,1,1,1->2,400,0,100", "lightpath '3' has drop_node '1', not the route's last node"),
    ], ids=["negative-channel", "rate-off-the-table", "carried-above-rate",
            "repeated-lp-id", "node-twice", "drop-node-off-the-route"])
    def test_lightpath_row_provision_never_writes_is_data_error(self, tmp_path, capsys,
                                                                command, rows, message):
        lps, out = tmp_path / "lps.csv", tmp_path / "out"
        lps.write_text("lp_id,add_node,drop_node,route,rate_gbps,channel,carried_gbps\n"
                       f"{rows}\n")
        assert run_cli(*command, "--topo", "n14", "--lightpaths", str(lps),
                       "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {lps}: {message}\n"
        assert not out.exists()

    def test_baseline_n14(self, tmp_path):
        out = tmp_path / "plan.json"
        assert run_cli("baseline", "--topo", "n14", "--out", str(out)) == 0
        assert json.loads(out.read_text())["total"] == 154

    def test_baseline_lit_restriction(self, tmp_path, stage_files):
        _, lps = stage_files
        out = tmp_path / "plan.json"
        assert run_cli("baseline", "--topo", "n14", "--lightpaths", str(lps),
                       "--out", str(out)) == 0
        assert json.loads(out.read_text())["total"] <= 154


# sha256 of every file the staged CLI chain of CI's runtime-only job writes:
# a Gabriel-20 topology (seed 3), 120 demands (seed 1), both architectures
# provisioned and placed at gamma 3 greedy and exact, the OTDR baseline over
# the transparent lit links and the LP export. They pin the stage-file
# formats the bundle goldens do not reach; a change to them must be
# deliberate and explained.
CLI_STAGES = {
    "demands.csv":
        "24d4e485e8ac4d31272cdb13b26eda40460c7a395771998e6a5c4c1f4279c10d",
    # changed when every JSON file came to be written by files.write_json:
    # the sidecar went from one line to the indented layout, same keys and values
    "demands.csv.meta.json":
        "75aba54bc59c823d4f72b6def71ca9330fd3d68fb11ff32ed8823f212f959b36",
    "g20.json":
        "c653ec6389188cd5df3defd5fc333d7858627a1ea1ace3168838fe2d7426b870",
    "lps_opaque.csv":
        "43fd77d272563d0e0b20b8742bf2f3cf610c87ca5834866687a91d76e54375b8",
    "lps_opaque.csv.meta.json":
        "d14280a16b4d1cfc3bf4099b72c061b52012dbf59e6e80fef95b2f5425d06792",
    "lps_transparent.csv":
        "c61da05f941119f43b4607197ac296888b5efc02f3672f224123c7be21c05cf0",
    "lps_transparent.csv.meta.json":
        "0e035bbfab0944f60e89b3c477dd62c34861cd81c0638d880b6fbe79ba872c51",
    "model.lp":
        "b335ceeeeee488cbf778893212b8f45bac4f3e5cfaedbe1bd78efefa4c182ef9",
    "otdr.json":
        "be469a339c9f746d70068c21c71df2ac429978589d8764cab9d669647b78b68f",
    "sol_opaque_exact.json":
        "359683153617fe6a4d79afad86b75a188e221b8f91cf32ccec0a7af5b03b1943",
    "sol_opaque_greedy.json":
        "ef96723725395dc0cf7e45e8b3776f7e2819b0d5c6434932d2d5c20e364f6c40",
    "sol_transparent_exact.json":
        "831dff9ea2cddfb839928b3440ad281dc47351557ef0c502566b82d78e01529f",
    "sol_transparent_greedy.json":
        "8a75d4ffce554d58df72a00635815bd665c0e1c7e42e8b70b4df8156e5c43279",
}


def test_staged_cli_chain_golden(tmp_path):
    topo, demands = str(tmp_path / "g20.json"), str(tmp_path / "demands.csv")
    assert run_cli("topo", "gen", "--nodes", "20", "--seed", "3", "--out", topo) == 0
    assert run_cli("demands", "--topo", topo, "--count", "120", "--seed", "1",
                   "--out", demands) == 0
    for arch in ("opaque", "transparent"):
        lps = str(tmp_path / f"lps_{arch}.csv")
        assert run_cli("provision", "--topo", topo, "--demands", demands,
                       "--arch", arch, "--out", lps) == 0
        for solver in ("greedy", "exact"):
            assert run_cli("place", "--topo", topo, "--lightpaths", lps, "--solver", solver,
                           "--gamma", "3",
                           "--out", str(tmp_path / f"sol_{arch}_{solver}.json")) == 0
    lps = str(tmp_path / "lps_transparent.csv")
    assert run_cli("baseline", "--topo", topo, "--lightpaths", lps,
                   "--out", str(tmp_path / "otdr.json")) == 0
    assert run_cli("export-lp", "--topo", topo, "--lightpaths", lps, "--gamma", "3",
                   "--out", str(tmp_path / "model.lp")) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == CLI_STAGES


def without_config_hash(path: Path) -> str:
    """The text of a bundle file without its one `# config_hash=` line or
    top-level `config_hash` key, which the stage commands do not write."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    kept = [line for line in lines
            if not line.startswith(("# config_hash=", '  "config_hash": '))]
    assert len(kept) == len(lines) - 1, path
    return "".join(kept)


def test_staged_chain_reproduces_the_run_bundle(tmp_path):
    # the library path (`run`) and the stage commands give the same
    # lightpaths and exact placements: N14 seed 0, whose load search at 1%
    # rejection stops at 580 demands
    bundle = tmp_path / "bundle"
    assert run_cli("run", "--topo", "n14", "--seeds", "0", "--out", str(bundle)) == 0
    per_seed = bundle / "per_seed" / "seed_0"
    demands = tmp_path / "demands.csv"
    assert run_cli("demands", "--topo", "n14", "--count", "580", "--seed", "0",
                   "--out", str(demands)) == 0
    for arch, prefix in (("opaque", "Op"), ("transparent", "Tr")):
        lps = tmp_path / f"lps_{arch}.csv"
        assert run_cli("provision", "--topo", "n14", "--demands", str(demands),
                       "--arch", arch, "--out", str(lps)) == 0
        assert lps.read_text(encoding="utf-8") == \
            without_config_hash(per_seed / f"lightpaths_{arch}.csv")
        for gamma in (1, 3):
            sol = tmp_path / f"sol_{arch}_{gamma}.json"
            assert run_cli("place", "--topo", "n14", "--lightpaths", str(lps),
                           "--solver", "exact", "--gamma", str(gamma), "--out", str(sol)) == 0
            assert sol.read_text(encoding="utf-8") == \
                without_config_hash(per_seed / f"solution_{prefix}-O-{gamma}_n580.json")


class TestRunAndAnalyze:
    def test_run_and_analyze(self, tmp_path):
        cfg = {"topology": "j14", "seeds": [0], "load_mode": "counts",
               "counts": [40], "scenarios": ["Tr", "Tr-O-1", "OTDR"],
               "solver": "greedy"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "bundle"
        assert run_cli("run", "--config", str(cfg_path), "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["scenarios"]["Tr-O-1"]["monitors"] > 0
        ana = tmp_path / "analysis"
        assert run_cli("analyze", "--summary", str(out / "summary.json"),
                       "--fractions", "0,25,50,100", "--out", str(ana)) == 0
        crossing = json.loads((ana / "crossing.json").read_text())
        assert "Tr-O-1" in crossing["crossings"]
        assert (ana / "cost_curves.csv").exists()
        assert (ana / "power_curves.csv").exists()

    def test_analyze_uses_bundle_cost_model(self, tmp_path):
        cfg = {"topology": "j14", "seeds": [0], "load_mode": "counts",
               "counts": [40], "scenarios": ["Op", "Tr-O-1", "OTDR"],
               "solver": "greedy",
               "cost_model": {"transponder_cost": 8.0, "transponder_power": 5.0,
                              "otdr_cost": 0.2, "otdr_power": 0.25}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "bundle"
        assert run_cli("run", "--config", str(cfg_path), "--out", str(out)) == 0
        ana = tmp_path / "analysis"
        assert run_cli("analyze", "--summary", str(out / "summary.json"),
                       "--out", str(ana)) == 0
        summary = json.loads((out / "summary.json").read_text())
        crossing = json.loads((ana / "crossing.json").read_text())
        expected = {name: {"cost_pct": row["crossing_cost_pct"],
                           "power_pct": row["crossing_power_pct"],
                           "break_even_ratio": row["break_even_ratio"]}
                    for name, row in summary["scenarios"].items()
                    if row["crossing_cost_pct"] is not None}
        assert crossing["crossings"] == expected
        assert set(expected) == {"Op", "Tr-O-1"}

    def test_analyze_reproduces_bundle_curves(self, tmp_path):
        # scenarios out of name order, so row order is the config's or wrong
        cfg = {"topology": "j14", "seeds": [0, 1], "load_mode": "counts",
               "counts": [40], "scenarios": ["Tr-O-1", "Op", "Tr", "OTDR"],
               "solver": "greedy", "ppm_fractions": [0, 12.5, 25, 100]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "bundle"
        assert run_cli("run", "--config", str(cfg_path), "--out", str(out)) == 0
        ana = tmp_path / "analysis"
        assert run_cli("analyze", "--summary", str(out / "summary.json"),
                       "--out", str(ana)) == 0
        for name in ("cost_curves.csv", "power_curves.csv"):
            assert (ana / name).read_bytes() == (out / name).read_bytes(), name
        summary = json.loads((out / "summary.json").read_text())
        crossing = json.loads((ana / "crossing.json").read_text())
        assert crossing["otdr_total"] == summary["otdr_total"]
        assert crossing["crossings"] == {
            name: {"cost_pct": row["crossing_cost_pct"],
                   "power_pct": row["crossing_power_pct"],
                   "break_even_ratio": row["break_even_ratio"]}
            for name, row in summary["scenarios"].items()
            if row["crossing_cost_pct"] is not None}

    def test_analyze_needs_bundle_config(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        assert run_cli("run", "--topo", "j14", "--mode", "counts", "--counts", "20",
                       "--seeds", "0", "--scenarios", "Tr-O-1,OTDR",
                       "--solver", "greedy", "--out", str(out)) == 0
        lone = tmp_path / "lone"
        lone.mkdir()
        (lone / "summary.json").write_bytes((out / "summary.json").read_bytes())
        assert run_cli("analyze", "--summary", str(lone / "summary.json"),
                       "--out", str(tmp_path / "analysis")) == 2
        assert "config.json" in capsys.readouterr().err

    def test_analyze_missing_scenario_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        assert run_cli("run", "--topo", "j14", "--mode", "counts", "--counts", "20",
                       "--seeds", "0", "--scenarios", "Tr-O-1,OTDR",
                       "--solver", "greedy", "--out", str(out)) == 0
        summary_path = out / "summary.json"
        summary = json.loads(summary_path.read_text())
        del summary["scenarios"]["Tr-O-1"]
        summary_path.write_text(json.dumps(summary))
        ana = tmp_path / "analysis"
        assert run_cli("analyze", "--summary", str(summary_path), "--out", str(ana)) == 2
        err = capsys.readouterr().err
        assert err == f"error: summary {summary_path} has no scenario 'Tr-O-1' of its config\n"
        assert not ana.exists()

    def test_analyze_bundle_with_compare_solvers_is_config_error(self, tmp_path, capsys):
        # a bundle written while the compare_solvers key existed holds it in
        # config.json; analyze reads that config, so it refuses the bundle
        out = tmp_path / "bundle"
        assert run_cli("run", "--topo", "j14", "--mode", "counts", "--counts", "20",
                       "--seeds", "0", "--scenarios", "Tr-O-1,OTDR",
                       "--solver", "greedy", "--out", str(out)) == 0
        config_path = out / "config.json"
        bundle = json.loads(config_path.read_text())
        bundle["config"]["compare_solvers"] = False
        config_path.write_text(json.dumps(bundle))
        ana = tmp_path / "analysis"
        assert run_cli("analyze", "--summary", str(out / "summary.json"), "--out", str(ana)) == 2
        assert capsys.readouterr().err == "error: unknown config keys: ['compare_solvers']\n"
        assert not ana.exists()

    @pytest.mark.parametrize("fractions,message", [
        pytest.param("nan", "ppm_fractions must", id="nan"),
        pytest.param("inf", "ppm_fractions must", id="inf"),
        pytest.param("-5,10", "ppm_fractions must", id="-5,10"),
        pytest.param(",", "--fractions needs comma-separated values with none empty", id=","),
        pytest.param("5,,10", "--fractions needs comma-separated values with none empty",
                     id="5,,10"),
        pytest.param("5,abc", "--fractions must be comma-separated numbers, got '5,abc'",
                     id="5,abc"),
    ])
    def test_analyze_bad_fractions_is_config_error(self, tmp_path, capsys, fractions, message):
        out = tmp_path / "bundle"
        assert run_cli("run", "--topo", "j14", "--mode", "counts", "--counts", "20",
                       "--seeds", "0", "--scenarios", "Tr-O-1,OTDR",
                       "--solver", "greedy", "--out", str(out)) == 0
        ana = tmp_path / "analysis"
        assert run_cli("analyze", "--summary", str(out / "summary.json"),
                       f"--fractions={fractions}", "--out", str(ana)) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not ana.exists()

    def test_run_lp_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        from ppmplan import exact

        monkeypatch.setattr(exact, "linprog", lambda lp: (
            exact._core.HighsModelStatus.kSolveError, math.inf, None))
        assert run_cli("run", "--topo", "n14", "--mode", "counts", "--counts", "40",
                       "--seeds", "0,1", "--scenarios", "Tr-O-1,OTDR",
                       "--solver", "exact", "--out", str(tmp_path / "o")) == 4
        assert "LP relaxation failed: HiGHS model status kSolveError" in capsys.readouterr().err

    def test_run_mip_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        from ppmplan import exact

        real = exact._run_highs

        def failing_mip(lp, **options):
            if not lp.integrality_:  # the root LP
                return real(lp, **options)
            return exact._core.HighsModelStatus.kSolveError, math.inf, None

        monkeypatch.setattr(exact, "_run_highs", failing_mip)
        # N14 seed 15's Tr-O-3 instance has a fractional root LP that the
        # rounding does not settle
        cfg = {"topology": "n14", "seeds": [15], "scenarios": ["Tr-O-3", "OTDR"],
               "solver": "exact"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli("run", "--config", str(cfg_path), "--out",
                       str(tmp_path / "o")) == 4
        assert "MIP failed: HiGHS model status kSolveError" in capsys.readouterr().err

    def test_run_otdr_only_is_config_error(self, tmp_path, capsys):
        cfg = {"topology": "n14", "seeds": [0], "scenarios": ["OTDR"],
               "load_mode": "counts", "counts": [10]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli("run", "--config", str(cfg_path), "--out",
                       str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert "monitored scenario" in err
        assert "Traceback" not in err

    def test_run_counts_in_rejection_mode_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli("run", "--topo", "n14", "--counts", "40", "--seeds", "0",
                       "--scenarios", "Tr-O-1,OTDR", "--solver", "greedy",
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "load_mode 'counts'" in err
        assert "Traceback" not in err
        assert not (out / "config.json").exists()

    def test_run_all_seeds_failed_is_data_error(self, tmp_path, capsys):
        # 1% rejection is out of reach within 20 demands on J14: every seed
        # saturates and there is no bundle to write
        cfg = {"topology": "j14", "seeds": [0], "max_demands": 20,
               "scenarios": ["Tr-O-1", "OTDR"], "solver": "greedy"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli("run", "--config", str(cfg_path), "--out",
                       str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: all seeds failed:")
        assert "SaturationError" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("scenarios, message", [
        ("Tr-O-0,OTDR", "error: scenario 'Tr-O-0' asks for 0 monitors per link"),
        ("Tr-O-1,Tr-O-1,OTDR", "error: scenario 'Tr-O-1' repeats"),
    ], ids=["zero-n", "repeated"])
    def test_run_bad_scenario_is_config_error(self, tmp_path, capsys, scenarios, message):
        out = tmp_path / "o"
        assert run_cli("run", "--topo", "n14", "--seeds", "0", "--scenarios", scenarios,
                       "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    def test_run_reports_a_failed_seed_on_stderr(self, tmp_path):
        # seed 0 saturates within 570 N14 demands and seed 1 does not; a
        # separate process shows stderr as a user sees it, with no logging setup
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"topology": "n14", "seeds": [0, 1], "max_demands": 570,
                                        "scenarios": ["Tr-O-1", "OTDR"], "solver": "greedy"}))
        src = str(Path(ppmplan.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "ppmplan.cli", "run", "--config", str(cfg_path),
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
        assert done.returncode == 0
        assert done.stderr == ("seed 0 failed: SaturationError: rejection 0.0088 below "
                               "target 0.01 after 570 demands\n")
        assert done.stdout.startswith(f"wrote bundle to {tmp_path / 'o'}")

    def test_run_one_node_topology_is_data_error(self, tmp_path, capsys):
        topo = tmp_path / "one.json"
        topo.write_text('{"name": "one", "nodes": ["A"], "edges": []}')
        assert run_cli("run", "--topo", str(topo), "--seeds", "0",
                       "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: all seeds failed:")
        assert "TopologyError: need at least 2 nodes" in err

    def test_run_missing_topology_is_data_error(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("run", "--topo", str(tmp_path / "nowhere.json"), "--mode", "counts",
                       "--counts", "5", "--seeds", "0", "--out", str(out)) == 2
        assert not out.exists()  # the topology is resolved before anything is written

    @pytest.mark.parametrize("bad", [{"k_paths": 0}, {"n_channels": 0}, {"step": 0},
                                     {"max_demands": 0}, {"rejection_target": 0},
                                     {"node_budget": -1}, {"ppm_fractions": []},
                                     {"k_paths": None}, {"k_paths": "3"},
                                     {"node_budget": None}, {"rejection_target": "0.01"},
                                     {"rejection_target": None, "load_mode": "counts",
                                      "counts": [10]}])
    def test_run_bad_numeric_field_is_config_error(self, tmp_path, capsys, bad):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"topology": "n14", "seeds": [0],
                                        "scenarios": ["Tr-O-1", "OTDR"], **bad}))
        out = tmp_path / "o"
        assert run_cli("run", "--config", str(cfg_path), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {next(iter(bad))} must")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("bad", [{"seeds": ["a"]}, {"seeds": [0, 0]},
                                     {"load_mode": "counts", "counts": [10.5]},
                                     {"load_mode": "counts", "counts": [10, 10]},
                                     {"ppm_fractions": ["x"]},
                                     {"ppm_fractions": [True]},
                                     {"span_length_km": "80"},
                                     {"span_length_km": 0},
                                     {"span_length_km": 10**400},
                                     {"ppm_fractions": [0, 10**400]}])
    def test_run_bad_list_element_or_span_is_config_error(self, tmp_path, capsys, bad):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"topology": "n14", "seeds": [0],
                                        "scenarios": ["Tr-O-1", "OTDR"], **bad}))
        out = tmp_path / "o"
        assert run_cli("run", "--config", str(cfg_path), "--out", str(out)) == 2
        err = capsys.readouterr().err
        key = next(k for k in bad if k != "load_mode")
        assert err.startswith(f"error: {key} must")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("bad, prefix", [
        ({"cost_model": {"transponder_cost": "a"}}, "cost_model: transponder_cost must"),
        ({"cost_model": "cheap"}, "cost_model must"),
        ({"cost_model": {"otdr_cost": 0.2, "laser_cost": 1}}, "unknown cost_model keys"),
        # compare_solvers is gone: every exact run writes gap.csv
        pytest.param({"compare_solvers": True}, "unknown config keys: ['compare_solvers']",
                     id="bad3-compare_solvers is an unknown key"),
        ({"topology": None, "gabriel": {"nodes": "x"}}, "gabriel must"),
        ({"topology": None, "gabriel": {"nodes": 20, "extent": 5}}, "gabriel must"),
        # an integer too large for a float used to overflow after the output
        # directory was made
        ({"cost_model": {"transponder_cost": 10**400}}, "cost_model: transponder_cost must"),
        ({"topology": None, "gabriel": {"nodes": 20, "extent_km": 10**400}}, "gabriel must"),
    ])
    def test_run_bad_cost_model_gabriel_or_flag_is_config_error(self, tmp_path, capsys,
                                                                bad, prefix):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"topology": "n14", "seeds": [0],
                                        "scenarios": ["Tr-O-1", "OTDR"], **bad}))
        out = tmp_path / "o"
        assert run_cli("run", "--config", str(cfg_path), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {prefix}")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("topology", [5, 0, True, [1], "", " "])
    def test_run_non_string_topology_is_config_error(self, tmp_path, capsys, topology):
        # 5 used to be opened as file descriptor 5, and 0 read as absent
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"topology": topology, "seeds": [0],
                                        "scenarios": ["Tr-O-1", "OTDR"]}))
        out = tmp_path / "o"
        assert run_cli("run", "--config", str(cfg_path), "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "error: topology must be a non-empty string (a file path or a bundled name), "
            f"got {topology!r}\n")
        assert not out.exists()

    def test_run_solver_auto_is_config_error(self, tmp_path, capsys):
        # the solver is exact unless the greedy is named; "auto" is unknown
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"topology": "n14", "seeds": [0],
                                        "scenarios": ["Tr-O-1", "OTDR"], "solver": "auto"}))
        out = tmp_path / "o"
        assert run_cli("run", "--config", str(cfg_path), "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: unknown solver 'auto'\n"
        assert not out.exists()

    def test_run_solver_flag_auto_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--topo", "n14", "--solver", "auto", "--out", str(out))
        assert exc.value.code == 1
        assert "argument --solver: invalid choice: 'auto'" in capsys.readouterr().err
        assert not out.exists()

    def test_run_repeated_seed_flag_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli("run", "--topo", "n14", "--mode", "counts", "--counts", "5",
                       "--seeds", "1,1", "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: seeds must not repeat")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--seeds", "--counts", "--scenarios"])
    def test_run_empty_list_flag_is_config_error(self, tmp_path, capsys, flag):
        out = tmp_path / "o"
        assert run_cli("run", "--topo", "n14", flag, "", "--out", str(out)) == 2
        assert capsys.readouterr().err == \
            f"error: {flag} needs comma-separated values with none empty, got ''\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--topo", "--config"])
    def test_run_empty_topo_or_config_is_config_error(self, tmp_path, capsys, flag):
        # an empty value is an error, not a fall-back to the other flag's topology
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"topology": "j14", "load_mode": "counts", "counts": [10],
                                   "seeds": [0], "solver": "greedy"}))
        given = {"--topo": ["--config", str(cfg), "--topo", ""],
                 "--config": ["--config", "", "--topo", "j14", "--mode", "counts",
                              "--counts", "10", "--seeds", "0"]}[flag]
        out = tmp_path / "o"
        assert run_cli("run", *given, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {flag} needs a value, got ''\n"
        assert not out.exists()

    def test_run_non_integer_seed_flag_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli("run", "--topo", "n14", "--seeds", "0,a", "--out", str(out)) == 2
        assert capsys.readouterr().err == \
            "error: --seeds must be comma-separated integers, got '0,a'\n"
        assert not out.exists()

    @pytest.mark.parametrize("text, kind", [("[1, 2]", "list"), ('"n14"', "str"),
                                            ("3", "int"), ("null", "NoneType")])
    @pytest.mark.parametrize("flags", [[], ["--topo", "n14"]], ids=["config", "config-and-topo"])
    def test_run_non_object_config_is_config_error(self, tmp_path, capsys, text, kind, flags):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        out = tmp_path / "o"
        assert run_cli("run", "--config", str(cfg_path), *flags, "--out", str(out)) == 2
        assert capsys.readouterr().err == \
            f"error: {cfg_path} must hold a JSON object, got {kind}\n"
        assert not out.exists()

    @pytest.mark.parametrize("name", ["summary.json", "config.json"])
    def test_analyze_non_object_json_is_config_error(self, tmp_path, capsys, name):
        # the summary and the bundle config beside it
        out = tmp_path / "bundle"
        assert run_cli("run", "--topo", "j14", "--mode", "counts", "--counts", "20",
                       "--seeds", "0", "--scenarios", "Tr-O-1,OTDR",
                       "--solver", "greedy", "--out", str(out)) == 0
        (out / name).write_text("[1, 2]")
        capsys.readouterr()
        analysis = tmp_path / "analysis"
        assert run_cli("analyze", "--summary", str(out / "summary.json"),
                       "--out", str(analysis)) == 2
        assert capsys.readouterr().err == \
            f"error: {out / name} must hold a JSON object, got list\n"
        assert not analysis.exists()

    @pytest.mark.parametrize("name, edit, message", [
        ("config.json", lambda data: data.pop("config"), "has no JSON object under the config key"),
        ("config.json", lambda data: data.update(config=5),
         "has no JSON object under the config key"),
        ("summary.json", lambda data: data.pop("config_hash"), "has no config_hash key"),
    ], ids=["no-config", "config-not-an-object", "no-config-hash"])
    def test_analyze_missing_key_is_config_error(self, tmp_path, capsys, name, edit, message):
        out = tmp_path / "bundle"
        assert run_cli("run", "--topo", "j14", "--mode", "counts", "--counts", "20",
                       "--seeds", "0", "--scenarios", "Tr-O-1,OTDR",
                       "--solver", "greedy", "--out", str(out)) == 0
        path = out / name
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))
        capsys.readouterr()
        analysis = tmp_path / "analysis"
        assert run_cli("analyze", "--summary", str(out / "summary.json"),
                       "--out", str(analysis)) == 2
        assert capsys.readouterr().err == f"error: {path} {message}\n"
        assert not analysis.exists()

    def test_key_error_in_a_command_is_a_bug_not_a_data_error(self, monkeypatch):
        # a KeyError is a bug: main lets it out, and Python exits 1 with its traceback
        def broken(args):
            raise KeyError("oops")

        monkeypatch.setitem(cli._HANDLERS, "analyze", broken)
        with pytest.raises(KeyError, match="oops"):
            run_cli("analyze", "--summary", "s.json", "--out", "o")

    def test_run_bad_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"load_mode": "counts"}))
        assert run_cli("run", "--config", str(cfg_path), "--out",
                       str(tmp_path / "o")) == 2

    def test_run_flag_form_rejection_mode(self, tmp_path):
        out = tmp_path / "bundle"
        assert run_cli("run", "--topo", "j14", "--mode", "rejection",
                       "--target", "0.01", "--step", "20", "--seeds", "0",
                       "--scenarios", "Tr,Tr-O-1,OTDR", "--solver", "greedy",
                       "--out", str(out)) == 0
        lines = (out / "monitors.csv").read_text().splitlines()
        assert lines[1] == "scenario,load_tbps,monitors,unsatisfied_npl"
        assert len(lines) == 2 + 3  # one load point x three scenarios

    def test_run_requires_some_topology(self, tmp_path):
        assert run_cli("run", "--mode", "rejection",
                       "--out", str(tmp_path / "o")) == 2


@cache
def valid_inputs() -> dict[str, bytes]:
    """A demands CSV with its sidecar and the transparent lightpath dump
    (hash line included) that provisioning them on N14 writes."""
    n14 = bundled_topology("n14")
    demands = generate_demands(n14, 8, seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_demands_csv(demands, tmp / "d.csv")
        write_lightpaths_csv(provision(n14, demands, "transparent"), tmp / "lps.csv", "abc")
        return {path.name: path.read_bytes() for path in tmp.iterdir()}


# the commands that read each file
READERS = {
    "d.csv": [["provision", "--arch", "transparent"]],
    "d.csv.meta.json": [["provision", "--arch", "opaque"]],
    "lps.csv": [["place", "--gamma", "1"], ["baseline"], ["export-lp", "--gamma", "1"]],
}
BAD_CELLS = st.sampled_from(["abc", "1.5", "1e400", "NaN", "inf", "", "-1", "0", " 7",
                             str(10**400), "9" * 5000, "1->", "->"])


@st.composite
def mutated_inputs(draw):
    """The valid inputs with one file changed by one mutation: a cell dropped
    or added, a header column repeated, a cell replaced by a bad value, or
    the whole file emptied, prefixed with a BOM or given a non-UTF-8 byte.
    The sidecar is JSON, so it takes only the last three."""
    files = dict(valid_inputs())
    name = draw(st.sampled_from(sorted(READERS)))
    data = files[name]
    kinds = ["empty", "bom", "non-utf8"]
    if name.endswith(".csv"):
        kinds += ["drop-cell", "add-cell", "repeat-column", "bad-value"]
    kind = draw(st.sampled_from(kinds))
    if kind == "empty":
        data = b""
    elif kind == "bom":
        data = "\ufeff".encode() + data
    elif kind == "non-utf8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    else:
        lines = [line.split(",") for line in data.decode().splitlines()]
        header = 1 if lines[0][0].startswith("#") else 0
        last = len(lines) - 1
        if kind == "repeat-column":
            lines[header].append(draw(st.sampled_from(lines[header])))
        else:
            cells = lines[draw(st.integers(header + (kind == "bad-value"), last))]
            at = draw(st.integers(0, len(cells) - (kind != "add-cell")))
            if kind == "drop-cell":
                del cells[at]
            elif kind == "add-cell":
                cells.insert(at, draw(BAD_CELLS))
            else:
                cells[at] = draw(BAD_CELLS)
        data = "".join(",".join(cells) + "\r\n" for cells in lines).encode()
    files[name] = data
    return name, files


# 150 examples keep the test near 1 s; derandomized, every run draws the same ones
@settings(max_examples=150, deadline=None, derandomize=True)
@given(mutated_inputs())
def test_malformed_input_exits_0_or_2_and_writes_nothing_on_2(case):
    name, files = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for file, data in files.items():
            (tmp / file).write_bytes(data)
        for command, *flags in READERS[name]:
            given_file = (["--demands", str(tmp / "d.csv")] if command == "provision"
                          else ["--lightpaths", str(tmp / "lps.csv")])
            out = tmp / f"{command}.out"
            code = main([command, "--topo", "n14", *given_file, *flags, "--out", str(out)])
            assert code in (0, 2), (command, code)
            written = [path.name for path in tmp.glob(f"{command}.out*")]
            assert bool(written) == (code == 0), (command, code, written)
