"""One workload in one process: set-up, timed passes and the correctness gate.

run.py starts this file with ``src/`` on PYTHONPATH and BLAS/OpenMP threads
pinned to 1. It prints ``ready`` once set-up is done, stops there with
``--setup-only``, and otherwise prints one JSON line with the results.

A pass runs every timed unit of the workload once, on the run's fixed
inputs. A unit is one seed's ``run_experiment`` bundle for the pipeline
workloads and one instance (build, greedy, exact) for
``gabriel30-place-exact``. Passes repeat until the time budget is spent (at
least MIN_PASSES), and every pass must produce the same digest.

Untraced runs time the work in reference seconds: a ``probe.SpeedProbe``
samples the host's speed throughout, the time of each unit and each solve
is scaled by the host speed measured around it, and each reports its median
over the passes. Traced runs use plain ``perf_counter`` time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import tracing
from probe import SpeedProbe

MIN_PASSES = 3
# --seed n maps to workload seeds n * SEED_STRIDE + 0, 1, 2, ...
SEED_STRIDE = 1000
N14_SCENARIOS = ("Op", "Tr", "Op-O-1", "Tr-O-1", "Op-O-3", "Tr-O-3", "OTDR")
N14_OTDR_TOTAL = 154


class GateFailure(Exception):
    """An output failed a correctness check."""


def check_solutions(spans, solver_span, greedy_of=None):
    """Verify every top-level solution; returns (the (start, end) of each
    solve of ``solver_span``, exact optimal flags, greedy gaps in %) and
    raises GateFailure on the first bad one.

    ``greedy_of(instance)`` gives the greedy reference for exact solves that
    have no greedy solve of their own in ``spans``.
    """
    from ppmplan.placement import verify_solution

    greedy = {id(s.attrs["instance"]): s.attrs["solution"]
              for s in tracing.top_level_solves(spans, "placement.greedy")}
    optimal, gaps = [], []
    for name in ("placement.greedy", "exact.solve"):
        for s in tracing.top_level_solves(spans, name):
            inst, sol = s.attrs["instance"], s.attrs["solution"]
            if not verify_solution(inst, sol):
                raise GateFailure(f"{name} solution fails verify_solution")
            if name != "exact.solve":
                continue
            ref = greedy.get(id(inst)) or greedy_of(inst)
            if (sol.unsatisfied, sol.total_monitors) > (ref.unsatisfied, ref.total_monitors):
                raise GateFailure("exact solution worse than greedy")
            optimal.append(sol.optimal)
            if sol.optimal and sol.total_monitors > 0:
                gaps.append(100.0 * (ref.total_monitors - sol.total_monitors)
                            / sol.total_monitors)
    solves = [(s.start, s.end) for s in tracing.top_level_solves(spans, solver_span)]
    return solves, optimal, gaps


def bundle_stats(path: Path) -> tuple[str, int, int]:
    """(sha256 over relative paths and bytes, total bytes, file count)."""
    digest = hashlib.sha256()
    size = files = 0
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        data = f.read_bytes()
        digest.update(str(f.relative_to(path)).encode() + b"\0" + data)
        size += len(data)
        files += 1
    return digest.hexdigest(), size, files


class Pipeline:
    """``run_experiment`` once per seed; each seed's bundle is one timed unit."""

    def __init__(self, config: dict, n_seeds: int, solver_span: str,
                 otdr_total: int | None, offset: int, out: Path):
        self.config = config
        self.seeds = [offset * SEED_STRIDE + i for i in range(n_seeds)]
        self.solver_span = solver_span
        self.otdr_total = otdr_total
        self.out = out

    def setup(self) -> None:
        from ppmplan.experiment import ExperimentConfig
        self.configs = [ExperimentConfig.from_dict({**self.config, "seeds": [seed]})
                        for seed in self.seeds]
        self.configs[0].resolve_topology(self.seeds[0])

    def check(self, summary: dict) -> None:
        from ppmplan.analysis import CostModel, crossing_value

        if summary["partial"]:
            raise GateFailure(f"seed failed: {summary['errors']}")
        if self.otdr_total is not None and summary["otdr_total"] != self.otdr_total:
            raise GateFailure(f"otdr_total {summary['otdr_total']} != {self.otdr_total}")
        for name, entry in summary["scenarios"].items():
            for dim in ("cost", "power"):
                value = entry[f"crossing_{dim}_pct"]
                if value is not None and not math.isclose(value, crossing_value(
                        entry["monitors"], summary["otdr_total"], CostModel(), dim),
                        rel_tol=1e-12):
                    raise GateFailure(f"{name} crossing_{dim}_pct is not "
                                      "crossing_value() of its counts")

    def run_pass(self, tracer: tracing.Tracer) -> tuple[dict, list]:
        from ppmplan import experiment
        from ppmplan.placement import solve_greedy

        result = {"ops": len(self.seeds), "failed": 0, "units": [], "unit_spans": [],
                  "instances": 0, "solves": [], "optimal": [], "gaps": [], "demands": 0,
                  "bundle_bytes": 0, "bundle_files": 0}
        digest, spans, errors = hashlib.sha256(), [], []
        for config in self.configs:
            out = self.out / f"seed_{config.seeds[0]}"
            shutil.rmtree(out, ignore_errors=True)
            t0 = tracer.clock()
            try:
                summary = experiment.run_experiment(config, out)
            except RuntimeError as exc:  # raised when the bundle's only seed failed
                summary, error = None, str(exc)
            t1 = tracer.clock()
            result["units"].append(t1 - t0)
            result["unit_spans"].append((t0, t1))
            unit_spans = tracer.take()
            spans = tracing.concat(spans, unit_spans)
            try:
                if summary is None:
                    raise GateFailure(error)
                self.check(summary)
                for key, values in zip(("solves", "optimal", "gaps"), check_solutions(
                        unit_spans, self.solver_span, solve_greedy)):
                    result[key] += values
            except GateFailure as exc:
                errors.append(str(exc))
            tracer.take()  # spans of the greedy references computed above
            result["instances"] += len(tracing.top_level_solves(unit_spans, self.solver_span))
            meta = out / "per_seed" / f"seed_{config.seeds[0]}" / "provision_transparent.meta.json"
            if meta.is_file():
                data = json.loads(meta.read_text(encoding="utf-8"))
                result["demands"] += data["accepted"] + data["rejected"]
            unit_digest, size, files = bundle_stats(out)
            digest.update(unit_digest.encode())
            result["bundle_bytes"] += size
            result["bundle_files"] += files
        result["digest"] = digest.hexdigest()
        result["failed"] = len(errors)
        if errors:
            result["error"] = "; ".join(errors[:3])
        return result, spans


class Placement:
    """Placement only, as ``ppmplan place`` does it: set-up provisions
    transparent lightpath sets on Gabriel graphs; a pass builds the cover
    instance and runs greedy and exact for every set and gamma. Each
    instance is one timed unit."""

    def __init__(self, nodes: int, counts: tuple[int, ...], gammas: tuple[int, ...],
                 n_seeds: int, offset: int):
        self.nodes, self.counts, self.gammas = nodes, counts, gammas
        self.seeds = [offset * SEED_STRIDE + i for i in range(n_seeds)]
        self.solver_span = "exact.solve"
        self.sets: list = []

    def setup(self) -> None:
        from ppmplan import provisioning, topology, traffic

        for seed in self.seeds:
            topo = topology.generate_gabriel(self.nodes, seed=seed)
            demands = traffic.generate_demands(topo, max(self.counts), seed).demands
            prov = provisioning.Provisioner(topo, "transparent")
            for i, d in enumerate(demands, 1):
                prov.serve(d)
                if i in self.counts:
                    self.sets.append((topo, list(prov.result().lightpaths), i))

    def run_pass(self, tracer: tracing.Tracer) -> tuple[dict, list]:
        from ppmplan import exact, placement

        n = len(self.sets) * len(self.gammas)
        result = {"ops": n, "failed": 0, "instances": n, "units": [], "unit_spans": [],
                  "demands": sum(count for _, _, count in self.sets)}
        errors = []
        for topo, lightpaths, _ in self.sets:
            for gamma in self.gammas:
                t0 = tracer.clock()
                try:
                    inst = placement.build_cover_instance(lightpaths, topo, gamma)
                    placement.solve_greedy(inst)
                    exact.solve_exact(inst)
                except Exception as exc:  # counted per instance, run goes on
                    errors.append(f"{type(exc).__name__}: {exc}")
                t1 = tracer.clock()
                result["units"].append(t1 - t0)
                result["unit_spans"].append((t0, t1))
        spans = tracer.take()
        digest = hashlib.sha256()
        for s in spans:
            if s.name in ("placement.greedy", "exact.solve") and s.parent is None:
                digest.update(json.dumps(s.attrs["solution"].to_json_dict(),
                                         sort_keys=True).encode())
        result["digest"] = digest.hexdigest()
        result["failed"] = len(errors)
        try:
            result["solves"], result["optimal"], result["gaps"] = check_solutions(
                spans, self.solver_span)
        except GateFailure as exc:
            errors.append(str(exc))
            result.update(solves=[], optimal=[], gaps=[], failed=n)
        if errors:
            result["error"] = "; ".join(errors[:3])
        return result, spans


def make_workload(name: str, offset: int, out: Path):
    if name == "n14-rejection-exact":
        return Pipeline({"topology": "n14", "scenarios": list(N14_SCENARIOS),
                         "load_mode": "rejection", "rejection_target": 0.01,
                         "solver": "exact", "ppm_fractions": [0, 5, 10, 25, 50, 75, 100]},
                        n_seeds=20, solver_span="exact.solve",
                        otdr_total=N14_OTDR_TOTAL, offset=offset, out=out)
    if name == "gabriel100-sweep-greedy":
        return Pipeline({"gabriel": {"nodes": 100}, "load_mode": "counts",
                         "counts": [250, 500, 1000, 1500], "solver": "greedy"},
                        n_seeds=1, solver_span="placement.greedy",
                        otdr_total=None, offset=offset, out=out)
    if name == "gabriel30-place-exact":
        return Placement(nodes=30, counts=(200, 300), gammas=(1, 2, 3),
                         n_seeds=24, offset=offset)
    raise SystemExit(f"unknown workload {name!r}")


def fastest(passes: list[dict], key: str) -> list[float]:
    """Each unit's fastest repetition; units come in the same order every pass."""
    return [min(xs) for xs in zip(*(p[key] for p in passes))]


def typical(passes: list[dict], key: str) -> list[float]:
    """Each unit's or solve's median over the passes in reference seconds:
    its time scaled by the host speed measured around it."""
    scaled = ([(end - start) * speed for (start, end), speed in zip(p[key], p[key + "_speed"])]
              for p in passes)
    return [statistics.median(xs) for xs in zip(*scaled)]


def end_to_end(passes: list[dict]) -> dict:
    wall = sum(typical(passes, "unit_spans"))
    latencies = typical(passes, "solves")
    first = passes[0]
    metrics = {
        "wall_s": wall,
        "wall_raw_s": statistics.median(sum(p["units"]) for p in passes),
        "host_speed": statistics.median(p["speed"] for p in passes),
        "demands_per_s": first["demands"] / wall,
        "instances_per_s": first["instances"] / wall,
        "place_s.samples": len(latencies),
    }
    if len(latencies) > 1:
        metrics["place_s.p50"] = statistics.median(latencies)
        metrics["place_s.p90"] = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    optimal, gaps = first["optimal"], first["gaps"]
    if optimal:
        metrics["exact_optimal_frac"] = sum(optimal) / len(optimal)
    if gaps:
        metrics["greedy_gap_pct"] = statistics.fmean(gaps)
    return metrics


def per_layer(untraced: list[dict], traced: list[tuple[dict, list]], setup_spans,
              missing) -> dict:
    """Layer metrics of the fastest traced pass, set-up spans included."""
    result, spans = min(traced, key=lambda pair: sum(pair[0]["units"]))
    metrics = tracing.layer_metrics(tracing.concat(setup_spans, spans), missing)
    metrics["experiment.bundle_bytes"] = result.get("bundle_bytes", 0)
    metrics["experiment.bundle_files"] = result.get("bundle_files", 0)
    metrics["trace.coverage"] = sum(s.self_s for s in spans) / sum(result["units"])
    metrics["trace.overhead_pct"] = 100.0 * (
        sum(fastest([r for r, _ in traced], "units")) / sum(fastest(untraced, "units")) - 1.0)
    metrics["trace.spans"] = len(spans)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    probe = None if args.trace else SpeedProbe()
    if probe:
        probe.start()
    import ppmplan  # noqa: F401  (set-up time includes the package import)
    import ppmplan.experiment  # noqa: F401

    workload = make_workload(args.workload, args.seed, args.out)
    tracer = tracing.Tracer(probe.clock if probe else perf_counter)
    full = tracing.LAYER_TARGETS + tracing.SOLVER_TARGETS
    tracer.install(full if args.trace else ())
    workload.setup()
    setup_spans = tracer.take()
    # run.py times set-up from process start to this line; the probe's own
    # time and the host speed during set-up let it convert that time.
    ready = {"probe_s": probe.spent, "speed": probe.speed()} if probe else {}
    print("ready", json.dumps(ready), flush=True)
    if args.setup_only:
        if probe:
            probe.stop()
        return 0

    def run(targets) -> tuple[dict, list]:
        tracer.uninstall()
        tracer.install(targets)
        start = tracer.clock()
        result, spans = workload.run_pass(tracer)
        if probe:
            result["speed"] = probe.speed(start, tracer.clock())
            for key in ("unit_spans", "solves"):
                result[key + "_speed"] = [probe.speed(*span) for span in result[key]]
        reference = untraced[0]["digest"] if untraced else result["digest"]
        if result["digest"] != reference:
            result["failed"] = result["ops"]
            result.setdefault("error", "output digest differs between passes")
        return result, spans

    # Trace runs alternate untraced and traced passes on the same inputs.
    untraced, traced = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        untraced.append(run(tracing.SOLVER_TARGETS)[0])
        if args.trace:
            traced.append(run(full))
        last = perf_counter() - t0
        done = len(untraced) >= (2 if args.trace else MIN_PASSES)
        if done and perf_counter() - start + last > args.seconds:
            break
    tracer.uninstall()
    if probe:
        probe.stop()

    import networkx
    import numpy
    import scipy
    checked = untraced + [result for result, _ in traced]
    report = {
        "workload": args.workload,
        "seeds": workload.seeds,
        "passes": len(checked),
        "pass_walls": [sum(p["units"]) for p in checked],
        "pass_speeds": [p["speed"] for p in checked if "speed" in p],
        "attempted": sum(p["ops"] for p in checked),
        "failed": sum(p["failed"] for p in checked),
        "errors": sorted({p["error"] for p in checked if "error" in p}),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "networkx": networkx.__version__},
        "missing": sorted(tracer.missing.values()),
    }
    if args.trace:
        report["metrics"] = per_layer(untraced, traced, setup_spans, tracer.missing)
    else:
        report["metrics"] = end_to_end(untraced)
        report["metrics"]["peak_rss_mb"] = report["peak_rss_mb"]
    report["metrics"]["error_frac"] = report["failed"] / report["attempted"]
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
