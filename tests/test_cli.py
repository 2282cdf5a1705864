import json

import pytest

from ppmplan.cli import main


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
        assert set(sols["exact"]) == {"p", "x", "unsatisfied", "monitors",
                                      "objective", "optimal"}
        assert sols["exact"]["optimal"] is True
        assert sols["greedy"]["monitors"] >= sols["exact"]["monitors"]

    def test_place_weighted_mode(self, tmp_path, stage_files):
        _, lps = stage_files
        lex_out = tmp_path / "lex.json"
        w_out = tmp_path / "w.json"
        assert run_cli("place", "--topo", "n14", "--lightpaths", str(lps),
                       "--solver", "exact", "--gamma", "1", "--out", str(lex_out)) == 0
        assert run_cli("place", "--topo", "n14", "--lightpaths", str(lps),
                       "--solver", "exact", "--mode", "weighted", "--gamma", "1",
                       "--out", str(w_out)) == 0
        lex, w = json.loads(lex_out.read_text()), json.loads(w_out.read_text())
        assert (lex["unsatisfied"], lex["monitors"]) == (w["unsatisfied"], w["monitors"])

    def test_place_budget_exit_code(self, tmp_path, stage_files):
        _, lps = stage_files
        out = tmp_path / "sol.json"
        code = run_cli("place", "--topo", "n14", "--lightpaths", str(lps),
                       "--solver", "exact", "--gamma", "1",
                       "--node-budget", "0", "--out", str(out))
        assert code == 3
        assert json.loads(out.read_text())["optimal"] is False

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
        d = tmp_path / "bad.csv"
        d.write_text("src,dst,rate_gbps\n1,99,100\n")
        assert run_cli("provision", "--topo", "n14", "--demands", str(d),
                       "--arch", "transparent", "--out", str(tmp_path / "lps.csv")) == 2
        assert "unknown node '99'" in capsys.readouterr().err

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
                           "power_pct": row["crossing_power_pct"]}
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
                   "power_pct": row["crossing_power_pct"]}
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

    def test_run_lp_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        from scipy.optimize import OptimizeResult

        from ppmplan import exact

        monkeypatch.setattr(exact, "linprog", lambda *a, **k: OptimizeResult(
            status=4, message="numerical difficulties", x=None, fun=None))
        assert run_cli("run", "--topo", "n14", "--mode", "counts", "--counts", "40",
                       "--seeds", "0,1", "--scenarios", "Tr-O-1,OTDR",
                       "--solver", "exact", "--out", str(tmp_path / "o")) == 4
        assert "LP relaxation failed with status 4" in capsys.readouterr().err

    def test_run_missing_topology_is_data_error(self, tmp_path):
        assert run_cli("run", "--topo", str(tmp_path / "nowhere.json"), "--mode", "counts",
                       "--counts", "5", "--seeds", "0", "--out", str(tmp_path / "o")) == 2

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
