import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ppmplan
from ppmplan.cli import main
from ppmplan.provisioning import write_lightpaths_csv
from ppmplan.topology import bundled_topology
from ppmplan.traffic import find_load_at_rejection


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
        for solver in ("greedy", "exact", "oracle"):
            out = tmp_path / f"{solver}.json"
            code = run_cli("place", "--topo", "n14", "--lightpaths", str(lps),
                           "--solver", solver, "--gamma", "1", "--out", str(out))
            if solver == "oracle":
                # enumeration may legitimately refuse on larger dumps
                assert code in (0, 3)
                if code == 3:
                    continue
            else:
                assert code == 0
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
        from scipy.optimize import OptimizeResult

        from ppmplan import exact

        monkeypatch.setattr(exact, "linprog", lambda *a, **k: OptimizeResult(
            status=4, message="numerical difficulties", x=None, fun=None))
        _, lps = stage_files
        code = run_cli("place", "--topo", "n14", "--lightpaths", str(lps),
                       "--solver", "exact", "--gamma", "1",
                       "--out", str(tmp_path / "sol.json"))
        assert code == 4
        assert "LP relaxation failed with status 4" in capsys.readouterr().err

    def test_export_lp(self, tmp_path, stage_files):
        _, lps = stage_files
        out = tmp_path / "model.lp"
        assert run_cli("export-lp", "--topo", "n14", "--lightpaths", str(lps),
                       "--gamma", "2", "--out", str(out)) == 0
        assert out.read_text().startswith("\\ monitor-cover integer model")

    def test_provision_unknown_node_is_data_error(self, tmp_path, capsys):
        # the first demand leaves spare on a link leaving node 1, so opaque
        # grooming looks for a link entering an unknown destination
        d = tmp_path / "bad.csv"
        for arch in ("opaque", "transparent"):
            for bad in ("99,2", "1,99"):
                d.write_text(f"src,dst,rate_gbps\n1,2,100\n{bad},100\n")
                assert run_cli("provision", "--topo", "n14", "--demands", str(d), "--arch", arch,
                               "--out", str(tmp_path / "lps.csv")) == 2, (arch, bad)
                assert capsys.readouterr().err == "error: unknown node '99' in topology 'N14'\n"

    @pytest.mark.parametrize("command", [["place", "--gamma", "1"], ["baseline"]],
                             ids=["place", "baseline"])
    def test_lightpath_off_the_topology_is_data_error(self, tmp_path, capsys, command):
        lps = tmp_path / "lps.csv"
        lps.write_text("lp_id,add_node,drop_node,route,rate_gbps,channel,carried_gbps\n"
                       "0,1,9,1->9,400,0,100\n")
        assert run_cli(*command, "--topo", "n14", "--lightpaths", str(lps),
                       "--out", str(tmp_path / "out.json")) == 2
        assert capsys.readouterr().err == "error: route ('1', '9') leaves topology 'N14'\n"

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
        from scipy.optimize import OptimizeResult

        from ppmplan import exact

        monkeypatch.setattr(exact, "linprog", lambda *a, **k: OptimizeResult(
            status=4, message="numerical difficulties", x=None, fun=None))
        assert run_cli("run", "--topo", "n14", "--mode", "counts", "--counts", "40",
                       "--seeds", "0,1", "--scenarios", "Tr-O-1,OTDR",
                       "--solver", "exact", "--out", str(tmp_path / "o")) == 4
        assert "LP relaxation failed with status 4" in capsys.readouterr().err

    def test_run_mip_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        from scipy.optimize import OptimizeResult

        from ppmplan import exact

        real_milp = exact.milp

        def failing_mip(*args, **kwargs):
            if kwargs.get("integrality") is None:  # the root LP
                return real_milp(*args, **kwargs)
            return OptimizeResult(status=4, message="(HiGHS Status 4: model_status is Solve error)",
                                  x=None, fun=None)

        monkeypatch.setattr(exact, "milp", failing_mip)
        # N14 seed 15's Tr-O-3 instance has a fractional root LP that the
        # rounding does not settle
        cfg = {"topology": "n14", "seeds": [15], "scenarios": ["Tr-O-3", "OTDR"],
               "solver": "exact"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli("run", "--config", str(cfg_path), "--out",
                       str(tmp_path / "o")) == 4
        assert "MIP failed with status 4" in capsys.readouterr().err

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
                                     {"span_length_km": 0}])
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
