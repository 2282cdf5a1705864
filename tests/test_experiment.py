import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from ppmplan.exact import solve_exact
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

    def test_hash_stable_and_sensitive(self):
        a = ExperimentConfig(topology="n14", seeds=(0,), load_mode="counts",
                             counts=(10,))
        b = ExperimentConfig(topology="n14", seeds=(0,), load_mode="counts",
                             counts=(10,))
        c = ExperimentConfig(topology="n14", seeds=(1,), load_mode="counts",
                             counts=(10,))
        assert a.config_hash == b.config_hash
        assert a.config_hash != c.config_hash

    def test_solver_auto(self):
        file_cfg = ExperimentConfig(topology="n14", load_mode="counts", counts=(5,))
        gabriel_cfg = ExperimentConfig(gabriel={"nodes": 20}, load_mode="counts",
                                       counts=(5,))
        assert file_cfg.resolve_solver() == "exact"
        assert gabriel_cfg.resolve_solver() == "greedy"

    def test_round_trip_dict(self):
        cfg = ExperimentConfig(topology="n14", seeds=(0, 1), load_mode="counts",
                               counts=(10, 20))
        again = ExperimentConfig.from_dict(json.loads(json.dumps(asdict(cfg))))
        assert again == cfg

    def test_hash_pinned(self):
        # config_hash names every bundle file; these values were computed
        # when the canonical dict was still listed field by field
        readme_n14 = ExperimentConfig.from_dict({  # the README_N14_BUNDLE config
            "topology": "n14",
            "scenarios": ["Op", "Tr", "Op-O-1", "Tr-O-1", "Op-O-3", "Tr-O-3", "OTDR"],
            "seeds": [0, 1, 2], "load_mode": "rejection", "rejection_target": 0.01,
            "solver": "exact", "ppm_fractions": [0, 5, 10, 25, 50, 75, 100]})
        gabriel = ExperimentConfig.from_dict({
            "gabriel": {"nodes": 30, "extent_km": 500}, "span_length_km": 60.0,
            "seeds": [1, 2], "load_mode": "counts", "counts": [5, 10],
            "compare_solvers": True,
            "cost_model": {"transponder_cost": 8.0, "transponder_power": 5.0,
                           "otdr_cost": 0.2, "otdr_power": 0.25}})
        assert readme_n14.config_hash == "62d5089921b882ba"
        assert gabriel.config_hash == "ad08320be8edc872"


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
        assert summary["solver"] == "greedy"

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
        cfg = ExperimentConfig(gabriel={"nodes": 16}, seeds=(3, 4),
                               load_mode="counts", counts=(40,),
                               scenarios=("Tr-O-1",), compare_solvers=True)
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


# sha256 of per_seed/seed_N/lightpaths_{arch}.csv for the README N14 config on
# seeds 0-2. They pin provisioning output (routes, grooming, channels) across
# versions; a change to them must be deliberate and explained.
README_N14_LIGHTPATHS = {
    (0, "opaque"): "fce869b6fddb3f40305f401138b9109f7fa1a7013c6e51a5b80214e4f021340c",
    (0, "transparent"): "e8ec68098489658a868b14164e8dca3d9a16e565633482a8e00f6c31b222b6d2",
    (1, "opaque"): "f7136392f9ed300f716c6140976f8e426a15811a65c07d1109c84fd976380136",
    (1, "transparent"): "62bebb47c022b94257909ff152ffc8bdba0806ad80f16f57ae6eccea00265f6c",
    (2, "opaque"): "b7b886ee12fb3f85902ab54dc3f0a5cad8890cbb2906b16155d31bb06af6a9cd",
    (2, "transparent"): "0a5b7ab20ddd105f6d2ef4b6da36ead58d935ecf57d9ea21d0d6a434c000d479",
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
# README N14 bundle on seeds 0-2, computed when every seed still resolved its
# own copy of the bundled topology.
README_N14_BUNDLE = "116b44509f1681e92cdd03d1c48cce8815073a854ff05fae316534d6ebd5cd7e"


def test_fixed_topology_resolved_once_per_run(tmp_path, monkeypatch):
    from ppmplan import topology

    calls = []
    yen = topology._yen

    def counting_yen(topo, src, dst, k):
        calls.append((id(topo), src, dst, k))
        return yen(topo, src, dst, k)

    monkeypatch.setattr(topology, "_yen", counting_yen)
    cfg = ExperimentConfig.from_dict({
        "topology": "n14",
        "scenarios": ["Op", "Tr", "Op-O-1", "Tr-O-1", "Op-O-3", "Tr-O-3", "OTDR"],
        "seeds": [0, 1, 2], "load_mode": "rejection", "rejection_target": 0.01,
        "solver": "exact", "ppm_fractions": [0, 5, 10, 25, 50, 75, 100]})
    run_experiment(cfg, tmp_path)
    assert calls and len({c[0] for c in calls}) == 1  # one Topology for all seeds
    assert len(calls) == len(set(calls))  # each (src, dst, k) route set computed once
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
