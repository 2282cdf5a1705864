import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from ppmplan.exact import solve_exact
from ppmplan.otdr import count_otdrs
from ppmplan.experiment import ConfigError, ExperimentConfig, parse_scenario, run_experiment
from ppmplan.placement import build_cover_instance
from ppmplan.provisioning import read_lightpaths_csv
from ppmplan.topology import bundled_topology
from ppmplan.traffic import SaturationError


def bundle_digest(out: Path) -> dict[str, str]:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


class TestConfig:
    def test_scenario_parsing(self):
        assert parse_scenario("Op") == ("opaque", None)
        assert parse_scenario("Tr-O-3") == ("transparent", 3)
        assert parse_scenario("OTDR") == (None, None)
        with pytest.raises(ConfigError):
            parse_scenario("Xy-O-1")

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(topology="n14", scenarios=())
        with pytest.raises(ConfigError):
            ExperimentConfig(topology="n14", seeds=())
        with pytest.raises(ConfigError):
            ExperimentConfig(topology=None, gabriel=None)
        with pytest.raises(ConfigError):
            ExperimentConfig(topology="n14", gabriel={"nodes": 5})
        with pytest.raises(ConfigError):
            ExperimentConfig(topology="n14", load_mode="counts")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"topology": "n14", "frobnicate": 1})

    @pytest.mark.parametrize("topology", [5, 0, True, [1], "", " "])
    def test_topology_must_be_a_non_empty_string(self, topology):
        with pytest.raises(ConfigError, match=r"^topology must be a non-empty string"):
            ExperimentConfig(topology=topology)
        with pytest.raises(ConfigError, match=r"^topology must be a non-empty string"):
            ExperimentConfig.from_dict({"topology": topology})

    def test_otdr_needs_a_monitored_scenario(self):
        with pytest.raises(ConfigError, match="monitored scenario"):
            ExperimentConfig(topology="n14", scenarios=("OTDR",))
        with pytest.raises(ConfigError, match="unknown scenario"):
            ExperimentConfig(topology="n14", scenarios=("Tr-O-1", "Xy"))
        assert ExperimentConfig(topology="n14", scenarios=("Op", "OTDR")).scenarios

    @pytest.mark.parametrize("scenarios, message", [
        (("Tr-O-0", "OTDR"), "scenario 'Tr-O-0' asks for 0 monitors per link"),
        (("Op-O-1", "Op-O-00"), "unknown scenario 'Op-O-00'"),
        (("Tr-O-1", "Tr-O-01", "OTDR"), "unknown scenario 'Tr-O-01'"),
        (("Tr-O-1", "Tr-O-1", "OTDR"), "scenario 'Tr-O-1' repeats"),
        (("Op", "OTDR", "OTDR"), "scenario 'OTDR' repeats"),
    ])
    def test_zero_n_or_repeated_scenario_rejected(self, scenarios, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(topology="n14", scenarios=scenarios)
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict({"topology": "n14", "scenarios": list(scenarios)})

    def test_counts_need_counts_mode(self):
        # rejection mode never reads counts: taking them silently would write
        # them into config.json for a run they did not shape
        with pytest.raises(ConfigError, match="load_mode 'counts'"):
            ExperimentConfig(topology="n14", counts=(40,))
        with pytest.raises(ConfigError, match="load_mode 'counts'"):
            ExperimentConfig.from_dict({"topology": "n14", "load_mode": "rejection",
                                        "counts": [40]})
        assert ExperimentConfig(topology="n14", counts=()).load_mode == "rejection"

    @pytest.mark.parametrize("bad, message", [
        ({"k_paths": 0}, "k_paths must be >= 1"),
        ({"n_channels": 0}, "n_channels must be >= 1"),
        ({"step": 0}, "step must be >= 1"),
        ({"max_demands": 0}, "max_demands must be >= 1"),
        ({"rejection_target": 0}, "rejection_target must lie in"),
        ({"rejection_target": 1}, "rejection_target must lie in"),
        ({"rejection_target": -0.5}, "rejection_target must lie in"),
        ({"node_budget": -1}, "node_budget must be >= 0"),
        ({"ppm_fractions": []}, "ppm_fractions must be nonempty"),
        ({"k_paths": None}, "k_paths must be an integer, got None"),
        ({"k_paths": "3"}, "k_paths must be an integer, got '3'"),
        ({"k_paths": 2.5}, "k_paths must be an integer"),
        ({"k_paths": True}, "k_paths must be an integer, got True"),
        ({"n_channels": 80.0}, "n_channels must be an integer"),
        ({"step": None}, "step must be an integer"),
        ({"max_demands": "3"}, "max_demands must be an integer"),
        ({"node_budget": None}, "node_budget must be an integer"),
        ({"node_budget": "3"}, "node_budget must be an integer"),
        ({"rejection_target": None}, "rejection_target must be a number, got None"),
        ({"rejection_target": "0.01"}, "rejection_target must be a number"),
        ({"rejection_target": False}, "rejection_target must be a number"),
        ({"rejection_target": float("nan")}, "rejection_target must lie in"),
    ])
    def test_numeric_fields_checked(self, bad, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict({"topology": "n14", **bad})

    @pytest.mark.parametrize("bad, message", [
        ({"seeds": ["a"]}, "seeds must be integers >= 0, got 'a'"),
        ({"seeds": [0, True]}, "seeds must be integers >= 0, got True"),
        ({"seeds": [1.0]}, "seeds must be integers >= 0, got 1.0"),
        ({"seeds": [-1]}, "seeds must be integers >= 0, got -1"),
        ({"seeds": [0, 0]}, r"seeds must not repeat, got \[0, 0\]"),
        ({"seeds": 3}, "seeds must be a list, got 3"),
        ({"load_mode": "counts", "counts": [10.5]}, "counts must be integers >= 1, got 10.5"),
        ({"load_mode": "counts", "counts": [0]}, "counts must be integers >= 1, got 0"),
        ({"load_mode": "counts", "counts": ["10"]}, "counts must be integers >= 1"),
        ({"load_mode": "counts", "counts": [False]}, "counts must be integers >= 1, got False"),
        ({"load_mode": "counts", "counts": [10, 20, 10]}, "counts must not repeat"),
        ({"ppm_fractions": ["x"]}, "ppm_fractions must be finite numbers >= 0, got 'x'"),
        ({"ppm_fractions": [5, None]}, "ppm_fractions must be finite numbers >= 0, got None"),
        ({"ppm_fractions": [True]}, "ppm_fractions must be finite numbers >= 0, got True"),
        ({"ppm_fractions": [-5]}, "ppm_fractions must be finite numbers >= 0, got -5"),
        ({"ppm_fractions": [float("nan")]}, "ppm_fractions must be finite numbers >= 0"),
        ({"ppm_fractions": [float("inf")]}, "ppm_fractions must be finite numbers >= 0"),
        ({"span_length_km": "80"}, "span_length_km must be None or a positive finite number"),
        ({"span_length_km": 0}, "span_length_km must be None or a positive finite number"),
        ({"span_length_km": -80.0}, "span_length_km must be None or a positive"),
        ({"span_length_km": True}, "span_length_km must be None or a positive"),
        ({"span_length_km": float("inf")}, "span_length_km must be None or a positive"),
    ])
    def test_list_elements_and_span_checked(self, bad, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict({"topology": "n14", **bad})

    @pytest.mark.parametrize("bad, message", [
        ({"cost_model": {"transponder_cost": "a"}},
         "cost_model: transponder_cost must be a positive finite number, got 'a'"),
        ({"cost_model": {"otdr_cost": True}}, "cost_model: otdr_cost must be"),
        ({"cost_model": {"otdr_power": 0}}, "cost_model: otdr_power must be"),
        ({"cost_model": {"otdr_power": float("nan")}}, "cost_model: otdr_power must be"),
        ({"cost_model": {"otdr_power": None}}, "cost_model: otdr_power must be"),
        ({"cost_model": 4}, "cost_model must be an object, got 4"),
        ({"cost_model": None}, "cost_model must be an object, got None"),
        ({"cost_model": [4.0]}, "cost_model must be an object"),
        ({"cost_model": {"otdr_cost": 0.2, "laser_cost": 1}},
         r"unknown cost_model keys: \['laser_cost'\]"),
        # compare_solvers is gone, whatever its value: every exact run writes gap.csv
        *(pytest.param({"compare_solvers": value}, r"unknown config keys: \['compare_solvers'\]",
                       id=f"bad{9 + i}-compare_solvers may not be set, {value!r}")
          for i, value in enumerate((True, False, "yes"))),
    ])
    def test_cost_model_and_compare_solvers_checked(self, bad, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict({"topology": "n14", **bad})

    @pytest.mark.parametrize("gabriel", [
        {"nodes": "x"}, {"nodes": 20, "extent": 5}, {"nodes": 1}, {"nodes": 20.0},
        {"nodes": True}, {}, {"extent_km": 500}, {"nodes": 20, "extent_km": 0},
        {"nodes": 20, "extent_km": "500"}, {"nodes": 20, "extent_km": float("inf")},
        {"nodes": 20, "extent_km": False}, {"nodes": 20, "span_length_km": 60}, [20], 20,
    ])
    def test_gabriel_entry_checked(self, gabriel):
        with pytest.raises(ConfigError, match="gabriel must be"):
            ExperimentConfig.from_dict({"gabriel": gabriel})

    def test_cost_model_and_gabriel_edges_accepted(self):
        cfg = ExperimentConfig.from_dict({
            "gabriel": {"nodes": 2, "extent_km": 0.5},
            "cost_model": {"transponder_cost": 1, "otdr_power": 0.5}})
        assert cfg.cost_model.transponder_cost == 1
        assert cfg.cost_model.otdr_cost == 0.2
        assert ExperimentConfig(gabriel={"nodes": 30}).gabriel == {"nodes": 30}
        assert ExperimentConfig.from_dict({"topology": "n14", "cost_model": {}}).cost_model \
            == ExperimentConfig(topology="n14").cost_model

    def test_list_element_edges_accepted(self):
        cfg = ExperimentConfig(topology="n14", seeds=(0, 7), load_mode="counts",
                               counts=(1, 30), ppm_fractions=(0, 2.5, 150),
                               span_length_km=80)
        assert cfg.ppm_fractions == (0, 2.5, 150)
        assert ExperimentConfig(topology="n14", span_length_km=0.5).span_length_km == 0.5

    def test_numeric_field_edges_accepted(self):
        cfg = ExperimentConfig(topology="n14", k_paths=1, n_channels=1, step=1,
                               max_demands=1, rejection_target=0.5, node_budget=0,
                               ppm_fractions=(50,))
        assert cfg.node_budget == 0

    def test_hash_stable_and_sensitive(self):
        a = ExperimentConfig(topology="n14", seeds=(0,), load_mode="counts",
                             counts=(10,))
        b = ExperimentConfig(topology="n14", seeds=(0,), load_mode="counts",
                             counts=(10,))
        c = ExperimentConfig(topology="n14", seeds=(1,), load_mode="counts",
                             counts=(10,))
        assert a.config_hash == b.config_hash
        assert a.config_hash != c.config_hash

    def test_solver_exact_by_default_and_auto_unknown(self):
        assert ExperimentConfig(topology="n14").solver == "exact"
        assert ExperimentConfig(gabriel={"nodes": 20}).solver == "exact"
        with pytest.raises(ConfigError, match="unknown solver 'auto'"):
            ExperimentConfig.from_dict({"topology": "n14", "solver": "auto"})
        with pytest.raises(ConfigError, match="unknown solver 'auto'"):
            ExperimentConfig(gabriel={"nodes": 20}, solver="auto")

    def test_round_trip_dict(self):
        cfg = ExperimentConfig(topology="n14", seeds=(0, 1), load_mode="counts",
                               counts=(10, 20))
        again = ExperimentConfig.from_dict(json.loads(json.dumps(asdict(cfg))))
        assert again == cfg

    def test_hash_pinned(self):
        # config_hash names every bundle file; these values were computed
        # when the compare_solvers field left the config, and with it the
        # Gabriel config's default solver went from "auto" to "exact"
        readme_n14 = ExperimentConfig.from_dict({  # the README_N14_BUNDLE config
            "topology": "n14",
            "scenarios": ["Op", "Tr", "Op-O-1", "Tr-O-1", "Op-O-3", "Tr-O-3", "OTDR"],
            "seeds": [0, 1, 2], "load_mode": "rejection", "rejection_target": 0.01,
            "solver": "exact", "ppm_fractions": [0, 5, 10, 25, 50, 75, 100]})
        gabriel = ExperimentConfig.from_dict({
            "gabriel": {"nodes": 30, "extent_km": 500}, "span_length_km": 60.0,
            "seeds": [1, 2], "load_mode": "counts", "counts": [5, 10],
            "cost_model": {"transponder_cost": 8.0, "transponder_power": 5.0,
                           "otdr_cost": 0.2, "otdr_power": 0.25}})
        assert readme_n14.config_hash == "1c4d86f8cb3254da"
        assert gabriel.config_hash == "fb718c6d2572895b"


@pytest.fixture(scope="module")
def small_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    cfg = ExperimentConfig(topology="n14", seeds=(0, 1),
                           load_mode="counts", counts=(40, 120),
                           scenarios=("Op", "Tr", "Op-O-1", "Tr-O-1", "OTDR"),
                           solver="exact")
    summary = run_experiment(cfg, out)
    return cfg, out, summary


class TestRun:
    def test_summary_shape(self, small_bundle):
        cfg, out, summary = small_bundle
        assert summary["config_hash"] == cfg.config_hash
        assert not summary["partial"]
        assert set(summary["scenarios"]) == set(cfg.scenarios)
        tr = summary["scenarios"]["Tr-O-1"]
        assert tr["monitors"] > 0
        assert tr["crossing_cost_pct"] > 0

    def test_files_written_with_hash(self, small_bundle):
        cfg, out, _ = small_bundle
        for name in ("config.json", "summary.json", "monitors.csv",
                     "cost_curves.csv", "power_curves.csv"):
            assert (out / name).exists(), name
        tag = f"config_hash={cfg.config_hash}"
        for path in out.rglob("*"):
            if path.is_file():
                assert tag.split("=")[1] in path.read_text(), path

    def test_monitors_csv_rows(self, small_bundle):
        cfg, out, _ = small_bundle
        lines = (out / "monitors.csv").read_text().splitlines()
        # header comment + column row + scenarios x load points
        assert len(lines) == 2 + len(cfg.scenarios) * len(cfg.counts)

    def test_stage_rerun_matches_bundle(self, small_bundle):
        """provision dump -> place reproduces the bundled solution."""
        cfg, out, _ = small_bundle
        topo = bundled_topology("n14")
        lps = read_lightpaths_csv(out / "per_seed" / "seed_0" /
                                  "lightpaths_transparent.csv", topo)
        inst = build_cover_instance(lps, topo, 1)
        sol = solve_exact(inst)
        recorded = json.loads((out / "per_seed" / "seed_0" /
                               "solution_Tr-O-1_n120.json").read_text())
        assert sol.total_monitors == recorded["monitors"]
        assert sol.to_json_dict()["p"] == recorded["p"]

    def test_byte_identical_rerun(self, small_bundle, tmp_path):
        cfg, out, _ = small_bundle
        again = tmp_path / "again"
        run_experiment(cfg, again)
        assert bundle_digest(out) == bundle_digest(again)

    def test_failed_seed_recorded_partial(self, tmp_path):
        # 1% rejection is out of reach within 20 demands on J14, so every seed
        # fails with SaturationError and there is no bundle to write
        cfg = ExperimentConfig(topology="j14", seeds=(0, 1), max_demands=20,
                               scenarios=("Tr-O-1", "OTDR"), solver="greedy")
        with pytest.raises(RuntimeError, match="all seeds failed") as exc:
            run_experiment(cfg, tmp_path / "x")
        assert "SaturationError" in str(exc.value)
        # a missing topology file is an input error, raised before any seed runs
        missing = ExperimentConfig(topology="nowhere.json", seeds=(0,),
                                   load_mode="counts", counts=(5,))
        with pytest.raises(FileNotFoundError):
            run_experiment(missing, tmp_path / "y")

    def test_gabriel_counts_run(self, tmp_path):
        cfg = ExperimentConfig(gabriel={"nodes": 16}, seeds=(3,),
                               load_mode="counts", counts=(30,),
                               scenarios=("Tr-O-1", "OTDR"))
        summary = run_experiment(cfg, tmp_path / "g")
        assert summary["scenarios"]["Tr-O-1"]["monitors"] > 0
        assert summary["solver"] == "exact"  # the default on generated graphs too

    def test_failed_seed_marks_bundle_partial(self, tmp_path, monkeypatch):
        import ppmplan.experiment as exp

        real = exp.generate_demands

        def flaky(topology, count, seed):
            if seed == 1:
                raise SaturationError("synthetic seed failure")
            return real(topology, count, seed)

        monkeypatch.setattr(exp, "generate_demands", flaky)
        cfg = ExperimentConfig(topology="j14", seeds=(0, 1), load_mode="counts",
                               counts=(20,), scenarios=("Tr-O-1", "OTDR"),
                               solver="greedy")
        summary = run_experiment(cfg, tmp_path / "p")
        assert summary["partial"] is True
        assert "synthetic seed failure" in summary["errors"]["1"]
        assert summary["seeds"] == [0]

    def test_failed_seed_logged_as_a_warning(self, tmp_path, caplog):
        # N14 reaches 1% rejection at 580 demands on seed 0 and at 560 on
        # seed 1, so with at most 570 only seed 0 saturates
        cfg = ExperimentConfig(topology="n14", seeds=(0, 1), max_demands=570,
                               scenarios=("Tr-O-1", "OTDR"), solver="greedy")
        with caplog.at_level("WARNING", logger="ppmplan.experiment"):
            summary = run_experiment(cfg, tmp_path / "w")
        assert summary["seeds"] == [1] and summary["partial"] is True
        # one seed succeeded, so there is no spread to report
        assert [row["monitors_se"] for row in summary["scenarios"].values()] == [None, None]
        [record] = caplog.records
        assert (record.name, record.levelname) == ("ppmplan.experiment", "WARNING")
        assert record.getMessage() == f"seed 0 failed: {summary['errors']['0']}"
        assert record.getMessage().startswith("seed 0 failed: SaturationError: ")

    def test_bug_in_a_seed_propagates(self, tmp_path, monkeypatch):
        import ppmplan.experiment as exp

        def broken(topology, count, seed):
            raise KeyError("synthetic bug")

        monkeypatch.setattr(exp, "generate_demands", broken)
        cfg = ExperimentConfig(topology="j14", seeds=(0, 1), load_mode="counts",
                               counts=(20,), scenarios=("Tr-O-1", "OTDR"),
                               solver="greedy")
        with pytest.raises(KeyError, match="synthetic bug"):
            run_experiment(cfg, tmp_path / "b")

    def test_compare_solvers_gap_table(self, tmp_path):
        # every exact run writes the greedy-vs-exact table, with no flag
        cfg = ExperimentConfig(gabriel={"nodes": 16}, seeds=(3, 4),
                               load_mode="counts", counts=(40,),
                               scenarios=("Tr-O-1",))
        out = tmp_path / "cmp"
        run_experiment(cfg, out)
        lines = (out / "gap.csv").read_text().splitlines()
        assert lines[1].split(",") == ["seed", "load_tbps", "scenario",
                                       "greedy_monitors", "exact_monitors",
                                       "exact_optimal", "gap_pct"]
        rows = [l.split(",") for l in lines[2:]]
        assert len(rows) == 2
        for row in rows:
            assert row[2] == "Tr-O-1"
            assert int(row[3]) >= int(row[4])  # greedy never beats exact

    @pytest.mark.parametrize("solver", ["exact", "greedy"])
    def test_gap_table_from_every_exact_run_only(self, tmp_path, monkeypatch, solver):
        import ppmplan.experiment as exp

        greedy_solves = []
        real = exp.solve_greedy
        monkeypatch.setattr(exp, "solve_greedy",
                            lambda inst: greedy_solves.append(inst) or real(inst))
        cfg = ExperimentConfig(topology="j14", seeds=(0, 1), load_mode="counts",
                               counts=(30, 60), scenarios=("Op-O-1", "Tr-O-3", "OTDR"),
                               solver=solver)
        out = tmp_path / solver
        run_experiment(cfg, out)
        if solver == "greedy":
            assert not (out / "gap.csv").exists()
            assert len(greedy_solves) == 8
            return
        # the greedy column is the exact solve's cached incumbent, not a second solve
        assert not greedy_solves
        rows = [line.split(",") for line in (out / "gap.csv").read_text().splitlines()[2:]]
        assert [(r[0], r[2]) for r in rows] == [(seed, name) for seed in "01"
                                                for _ in (30, 60)
                                                for name in ("Op-O-1", "Tr-O-3")]
        assert all(int(r[3]) >= int(r[4]) and r[5] == "true" for r in rows)
        topo = bundled_topology("j14")
        for seed in (0, 1):
            for arch, gamma, row in (("opaque", 1, 0), ("transparent", 3, 1)):
                lps = read_lightpaths_csv(out / "per_seed" / f"seed_{seed}" /
                                          f"lightpaths_{arch}.csv", topo)
                inst = build_cover_instance(lps, topo, gamma)
                assert int(rows[4 * seed + 2 + row][3]) == real(inst).total_monitors


# sha256 of per_seed/seed_N/lightpaths_{arch}.csv for the README N14 config on
# seeds 0-2. They pin provisioning output (routes, grooming, channels) across
# versions; a change to them must be deliberate and explained. Last changed
# only in the "# config_hash=" line, when compare_solvers left the config.
README_N14_LIGHTPATHS = {
    (0, "opaque"): "d8685d590b36331112db74b3ea2419923870837690d1ad8e6728daf37c79ba4c",
    (0, "transparent"): "ac9bf53767615a4a8e3b11fd3f3e3f9ee3b26b30a839a574086e2f0a41633264",
    (1, "opaque"): "ea2affc19150c41379ead3b14629451cf595e58d8445303c4de1624509037094",
    (1, "transparent"): "bc9a6115c87bac0869713b8f5af53abeca139fac14177696aae1708dd5a8adf9",
    (2, "opaque"): "cd0e6b52c73d29ae20871531a924b56627569c1f5e94a298047748ca959a0192",
    (2, "transparent"): "6010f4343ccc28f506b7e0e1d6df8027b51897005e88bf430eae467c47b17c74",
}


def test_readme_n14_lightpaths_golden(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "topology": "n14",
        "scenarios": ["Op", "Tr", "Op-O-1", "Tr-O-1", "Op-O-3", "Tr-O-3", "OTDR"],
        "seeds": [0, 1, 2], "load_mode": "rejection", "rejection_target": 0.01,
        "solver": "exact", "ppm_fractions": [0, 5, 10, 25, 50, 75, 100]})
    run_experiment(cfg, tmp_path)
    got = {(seed, arch): hashlib.sha256(
               (tmp_path / "per_seed" / f"seed_{seed}" / f"lightpaths_{arch}.csv")
               .read_bytes()).hexdigest()
           for seed, arch in README_N14_LIGHTPATHS}
    assert got == README_N14_LIGHTPATHS


# sha256 over the sorted "relative path\0file sha256\n" lines of the whole
# README N14 bundle on seeds 0-2. The three bundle goldens were last
# regenerated when one change moved every file: the config_hash changed
# (compare_solvers left the config), solution files lost `objective`,
# summary.json gained `break_even_ratio` and `monitors_se`, and exact bundles
# gained gap.csv. Placements and monitor counts did not move.
README_N14_BUNDLE = "3508eade2560226a7ddb3d962b42d5ec976aa5f8911fd45eac01ba3db696dea8"


def test_fixed_topology_resolved_once_per_run(tmp_path, monkeypatch):
    from ppmplan import topology

    calls = []
    search = topology._best_first

    def counting_search(topo, src, dst, k):
        calls.append((id(topo), src, dst, k))
        return search(topo, src, dst, k)

    monkeypatch.setattr(topology, "_best_first", counting_search)
    cfg = ExperimentConfig.from_dict({
        "topology": "n14",
        "scenarios": ["Op", "Tr", "Op-O-1", "Tr-O-1", "Op-O-3", "Tr-O-3", "OTDR"],
        "seeds": [0, 1, 2], "load_mode": "rejection", "rejection_target": 0.01,
        "solver": "exact", "ppm_fractions": [0, 5, 10, 25, 50, 75, 100]})
    run_experiment(cfg, tmp_path)
    assert calls and len({c[0] for c in calls}) == 1  # one Topology for all seeds
    assert len(calls) == len(set(calls))  # each (src, dst, k) route set computed once
    assert len(calls) == 14 * 13  # every ordered N14 pair, at k=3 only
    lines = sorted(f"{path}\0{digest}\n" for path, digest in bundle_digest(tmp_path).items())
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == README_N14_BUNDLE


def test_gabriel_topology_drawn_per_seed(tmp_path, monkeypatch):
    from ppmplan import experiment

    drawn = []
    generate = experiment.generate_gabriel

    def recording(n, seed, **kwargs):
        drawn.append(seed)
        return generate(n, seed=seed, **kwargs)

    monkeypatch.setattr(experiment, "generate_gabriel", recording)
    cfg = ExperimentConfig.from_dict({
        "gabriel": {"nodes": 8}, "scenarios": ["Tr-O-1"], "seeds": [3, 4],
        "load_mode": "counts", "counts": [20], "solver": "greedy"})
    run_experiment(cfg, tmp_path)
    assert drawn == [3, 4]


def whole_bundle_sha(out: Path) -> str:
    lines = sorted(f"{path}\0{digest}\n" for path, digest in bundle_digest(out).items())
    return hashlib.sha256("".join(lines).encode()).hexdigest()


# Whole-bundle sha256 (as README_N14_BUNDLE), regenerated with it for the
# same reasons. With no transparent scenario the OTDR baseline counts the
# opaque lit links and the bundle holds no transparent files; at k=5 the
# search and provisioning see routes past the default cut.
OPAQUE_ONLY_N14_BUNDLE = "6ada66d734bab9c79f07a00917e29f771077d15b175d1b6ce422479319888efd"
# Recomputed when exact placement moved from the hand-rolled branch-and-bound
# to the HiGHS MIP: three Tr-O-* instances here have a fractional root LP,
# and HiGHS returns another optimal p with the same monitors and unsatisfied
# (seed_0 Tr-O-1 and Tr-O-3 at n1120, seed_1 Tr-O-3 at n1000). Regenerated
# since with README_N14_BUNDLE, for its reasons; no p moved. Regenerated
# when the rounded root LP came before the MIP: it settles those same three
# instances, so per_seed/seed_0/solution_Tr-O-1_n1120.json,
# per_seed/seed_0/solution_Tr-O-3_n1120.json and
# per_seed/seed_1/solution_Tr-O-3_n1000.json hold the rounding's p, with
# monitors, unsatisfied and optimal unchanged; every other file is unchanged.
J14_K5_BUNDLE = "f5bee22ae8cf15b4b6197a7c1c14d2d3f80fde452d9c62c3094c12e408cb8ed9"
# Whole-bundle sha256 of a counts-mode J14 run over three load points. Opaque
# has only its unmonitored row and transparent only gamma 3, so each
# architecture's rows come from the points' shared lightpath sets without a
# gamma-1 placement.
J14_COUNTS_BUNDLE = "3be01bbcc2b3bba418392c9e7e5a92f7c81e793ef0523ed217d5529c24a3e615"


def test_opaque_only_rejection_bundle_golden(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "topology": "n14", "scenarios": ["Op", "Op-O-1", "OTDR"],
        "seeds": [0, 1, 2], "load_mode": "rejection", "rejection_target": 0.01,
        "solver": "exact", "ppm_fractions": [0, 5, 10, 25, 50, 75, 100]})
    run_experiment(cfg, tmp_path)
    assert not list(tmp_path.rglob("*transparent*"))
    assert whole_bundle_sha(tmp_path) == OPAQUE_ONLY_N14_BUNDLE


def test_j14_k5_bundle_golden(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "topology": "j14",
        "scenarios": ["Op", "Tr", "Op-O-1", "Tr-O-1", "Op-O-3", "Tr-O-3", "OTDR"],
        "seeds": [0, 1, 2], "k_paths": 5, "solver": "exact",
        "ppm_fractions": [0, 5, 10, 25, 50, 75, 100]})
    run_experiment(cfg, tmp_path)
    assert whole_bundle_sha(tmp_path) == J14_K5_BUNDLE


def test_j14_counts_bundle_golden(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "topology": "j14", "scenarios": ["Op", "Tr-O-3", "OTDR"],
        "seeds": [0, 1, 2], "load_mode": "counts", "counts": [100, 300, 600],
        "solver": "exact", "ppm_fractions": [0, 5, 10, 25, 50, 75, 100]})
    run_experiment(cfg, tmp_path)
    assert whole_bundle_sha(tmp_path) == J14_COUNTS_BUNDLE


def test_one_gamma1_instance_per_set_and_load_point(tmp_path, monkeypatch):
    from ppmplan import experiment

    built = []
    build = experiment.build_cover_instance

    def recording(lightpaths, topology, gamma):
        built.append(gamma)
        return build(lightpaths, topology, gamma)

    monkeypatch.setattr(experiment, "build_cover_instance", recording)
    cfg = ExperimentConfig.from_dict({
        "topology": "j14", "scenarios": ["Op", "Op-O-3", "Tr-O-1", "Tr-O-3", "OTDR"],
        "seeds": [0, 1], "load_mode": "counts", "counts": [100, 300, 600],
        "solver": "greedy"})
    run_experiment(cfg, tmp_path)
    # every other gamma reuses the groups of its set's gamma-1 instance
    assert built == [1] * (2 * 3 * 2)  # seeds x load points x architectures


@pytest.mark.parametrize("scenarios, ref", [(["Op", "OTDR"], "opaque"),
                                            (["Op", "Tr", "OTDR"], "transparent")])
def test_rows_agree_with_the_dumped_lightpaths(tmp_path, scenarios, ref):
    cfg = ExperimentConfig.from_dict({
        "topology": "j14", "scenarios": scenarios, "seeds": [0],
        "load_mode": "counts", "counts": [300]})
    rows = run_experiment(cfg, tmp_path)["scenarios"]
    topo = bundled_topology("j14")
    lit = {}
    for name in scenarios[:-1]:
        arch = parse_scenario(name)[0]
        lps = read_lightpaths_csv(tmp_path / "per_seed" / "seed_0" / f"lightpaths_{arch}.csv",
                                  topo)
        lit[arch] = {e for lp in lps for e in lp.links}
        dark = sum(e not in lit[arch] for e in topo.link_labels)
        assert (rows[name]["monitors"], rows[name]["unsatisfied_npl_avg"]) == \
            (len(lps), dark / len(topo.links))
    assert rows["OTDR"]["monitors"] == count_otdrs(topo, lit_links=lit[ref]).total
