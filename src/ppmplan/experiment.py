"""End-to-end experiment orchestration: topology -> demands -> provisioning ->
placement -> baseline -> analysis, with seeded reproducibility.

Every output file embeds the config hash; bundles are byte-identical for
identical configs and seeds (no wall-clock content). Per-seed artifacts are
kept under per_seed/ for debugging and stage-wise re-runs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import __version__
from .analysis import CostModel, ScenarioResult, crossing_value, sweep_cost_curves, unsatisfied_npl_avg
from .exact import DEFAULT_NODE_BUDGET, solve_exact
from .otdr import count_otdrs
from .placement import CoverInstance, build_cover_instance, make_instance, solve_greedy
from .provisioning import (
    CHANNELS_PER_FIBER,
    DEFAULT_K_PATHS,
    LightpathSet,
    Provisioner,
    ProvisioningError,
    write_lightpaths_csv,
)
from .topology import Topology, TopologyError, generate_gabriel, resolve_topology
from .traffic import SaturationError, find_load_at_rejection, generate_demands

DEFAULT_SCENARIOS = ("Op", "Tr", "Op-O-1", "Tr-O-1", "Op-O-3", "Tr-O-3", "OTDR")
_SCENARIO_RE = re.compile(r"^(Op|Tr)(-O-(\d+))?$|^OTDR$")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class AllSeedsFailedError(RuntimeError):
    """Every seed of a run failed with a domain error; no bundle is written."""


def parse_scenario(name: str) -> tuple[str | None, int | None]:
    """(architecture, gamma) for a scenario name; OTDR maps to (None, None)."""
    m = _SCENARIO_RE.match(name)
    if not m:
        raise ConfigError(f"unknown scenario {name!r}")
    if name == "OTDR":
        return None, None
    arch = "opaque" if m.group(1) == "Op" else "transparent"
    gamma = int(m.group(3)) if m.group(3) else None
    return arch, gamma


def _is_number(value, types) -> bool:
    """An instance of `types` that is not a bool (JSON true/false)."""
    return isinstance(value, types) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    topology: str | None = None              # file path or bundled name
    gabriel: dict | None = None              # {"nodes": n, "extent_km": km}
    span_length_km: float | None = None
    scenarios: tuple[str, ...] = DEFAULT_SCENARIOS
    seeds: tuple[int, ...] = tuple(range(10))
    load_mode: str = "rejection"             # "rejection" | "counts"
    rejection_target: float = 0.01
    step: int = 10
    max_demands: int = 100_000
    counts: tuple[int, ...] = ()
    solver: str = "auto"                     # greedy | exact | auto
    node_budget: int = DEFAULT_NODE_BUDGET
    k_paths: int = DEFAULT_K_PATHS
    n_channels: int = CHANNELS_PER_FIBER
    cost_model: CostModel = field(default_factory=CostModel)
    ppm_fractions: tuple[float, ...] = tuple(range(0, 101, 5))
    compare_solvers: bool = False

    def __post_init__(self):
        if not self.scenarios:
            raise ConfigError("at least one scenario required")
        archs = [parse_scenario(s)[0] for s in self.scenarios]
        if all(arch is None for arch in archs):
            # the OTDR baseline counts the links a monitored scenario lights
            raise ConfigError("OTDR needs at least one monitored scenario beside it")
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if (self.topology is None) == (self.gabriel is None):
            raise ConfigError("exactly one of topology / gabriel must be given")
        gab = self.gabriel
        if gab is not None and not (
                isinstance(gab, dict) and set(gab) <= {"nodes", "extent_km"}
                and _is_number(gab.get("nodes"), int) and gab["nodes"] >= 2
                and _is_number(gab.get("extent_km", 1), (int, float))
                and 0 < gab.get("extent_km", 1) < math.inf):
            raise ConfigError('gabriel must be {"nodes": an integer >= 2, optionally '
                              f'"extent_km": a positive finite number}}, got {gab!r}')
        if not isinstance(self.cost_model, CostModel):
            raise ConfigError(f"cost_model must be an object, got {self.cost_model!r}")
        if not isinstance(self.compare_solvers, bool):
            raise ConfigError("compare_solvers must be true or false, "
                              f"got {self.compare_solvers!r}")
        if self.load_mode not in ("rejection", "counts"):
            raise ConfigError(f"unknown load_mode {self.load_mode!r}")
        if self.load_mode == "counts" and not self.counts:
            raise ConfigError("counts mode needs a nonempty counts list")
        if self.load_mode != "counts" and self.counts:
            raise ConfigError("counts are read only with load_mode 'counts', "
                              f"not {self.load_mode!r}")
        if self.solver not in ("greedy", "exact", "auto"):
            raise ConfigError(f"unknown solver {self.solver!r}")
        for key, least in (("k_paths", 1), ("n_channels", 1), ("step", 1),
                           ("max_demands", 1), ("node_budget", 0)):
            value = getattr(self, key)
            if not _is_number(value, int):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
            if value < least:
                raise ConfigError(f"{key} must be >= {least}, got {value}")
        target = self.rejection_target
        if not _is_number(target, (int, float)):
            raise ConfigError(f"rejection_target must be a number, got {target!r}")
        if not 0 < target < 1:
            raise ConfigError(f"rejection_target must lie in (0, 1), got {target}")
        if not self.ppm_fractions:
            raise ConfigError("ppm_fractions must be nonempty")
        for key, least in (("seeds", 0), ("counts", 1)):
            values = getattr(self, key) or ()
            for value in values:
                if not _is_number(value, int) or value < least:
                    raise ConfigError(f"{key} must be integers >= {least}, got {value!r}")
            if len(set(values)) != len(values):
                raise ConfigError(f"{key} must not repeat, got {list(values)}")
        for value in self.ppm_fractions:
            if not _is_number(value, (int, float)) or not 0 <= value < math.inf:
                raise ConfigError(f"ppm_fractions must be finite numbers >= 0, got {value!r}")
        span = self.span_length_km
        if span is not None and (not _is_number(span, (int, float))
                                 or not 0 < span < math.inf):
            raise ConfigError("span_length_km must be None or a positive finite number, "
                              f"got {span!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        cost = data.get("cost_model")
        if isinstance(cost, dict):
            unknown = set(cost) - set(CostModel.__dataclass_fields__)
            if unknown:
                raise ConfigError(f"unknown cost_model keys: {sorted(unknown)}")
            try:
                data["cost_model"] = CostModel(**cost)
            except ValueError as exc:
                raise ConfigError(f"cost_model: {exc}") from None
        for key in ("scenarios", "seeds", "counts", "ppm_fractions"):
            if key in data and data[key] is not None:
                if not isinstance(data[key], (list, tuple)):
                    raise ConfigError(f"{key} must be a list, got {data[key]!r}")
                data[key] = tuple(data[key])
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @property
    def config_hash(self) -> str:
        canonical = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def resolve_topology(self, seed: int) -> Topology:
        if self.gabriel is None:
            return resolve_topology(self.topology, self.span_length_km)
        kwargs = dict(self.gabriel)
        n = kwargs.pop("nodes")
        if self.span_length_km is not None:
            kwargs.setdefault("span_length_km", self.span_length_km)
        return generate_gabriel(n, seed=seed, **kwargs)

    def resolve_solver(self) -> str:
        if self.solver != "auto":
            return self.solver
        # exact is desk-scale on the bundled 14-node networks; the heuristic
        # is the default on generated graphs
        return "greedy" if self.gabriel is not None else "exact"


def run_experiment(config: ExperimentConfig, out_dir: str | Path) -> dict:
    """Run all seeds and write the result bundle; returns the summary dict."""
    # a file or bundled topology is resolved once, before anything is written;
    # every seed shares it and its routes
    shared = None if config.gabriel is not None else config.resolve_topology(config.seeds[0])
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    chash = config.config_hash
    solver = config.resolve_solver()
    archs = sorted({parse_scenario(s)[0] for s in config.scenarios
                    if parse_scenario(s)[0] is not None})

    per_seed: dict[int, dict] = {}
    errors: dict[int, str] = {}
    for seed in config.seeds:
        try:
            topo = shared or config.resolve_topology(seed)
            per_seed[seed] = _run_seed(config, topo, seed, solver, archs, out, chash)
        except (SaturationError, ProvisioningError, TopologyError) as exc:
            # a seed the model cannot serve is recorded and the bundle marked
            # partial; solver failures and bugs propagate
            errors[seed] = f"{type(exc).__name__}: {exc}"
    if not per_seed:
        raise AllSeedsFailedError(f"all seeds failed: {errors}")

    seeds_ok = sorted(per_seed)
    # per-load-point aggregation over seeds
    agg_points = [_mean_fields([per_seed[s]["points"][i] for s in seeds_ok])
                  for i in range(len(per_seed[seeds_ok[0]]["points"]))]

    # summary at the final load point, with crossing values
    final = agg_points[-1]["scenarios"]
    otdr_count = final["OTDR"]["monitors"] if "OTDR" in final else None
    cross = {} if otdr_count is None else crossings(final, otdr_count, config.cost_model)
    scenario_summaries = {}
    for name, row in final.items():
        values = cross.get(name, {})
        scenario_summaries[name] = {**row, "crossing_cost_pct": values.get("cost_pct"),
                                    "crossing_power_pct": values.get("power_pct")}

    summary = {
        "config_hash": chash,
        "version": __version__,
        "solver": solver,
        "seeds": list(seeds_ok),
        "partial": bool(errors),
        "errors": {str(k): v for k, v in sorted(errors.items())},
        "scenarios": scenario_summaries,
        "otdr_total": otdr_count,
    }

    write_json(out / "config.json", {"config_hash": chash, "version": __version__,
                                     "config": asdict(config)})
    write_json(out / "summary.json", summary)
    _write_monitors_csv(out / "monitors.csv", chash, config.scenarios, agg_points)
    if otdr_count is not None:
        write_curves(out, chash, final, config.cost_model, config.ppm_fractions)
    if config.compare_solvers:
        _write_gap_csv(out / "gap.csv", chash, per_seed, seeds_ok)
    return summary


def _mean_or_none(values):
    vals = [v for v in values if v is not None]
    return sum(vals) / len(vals) if vals else None


def _mean_fields(items: list):
    """Field-wise mean of same-shaped (nested) dicts; each leaf is the mean of
    its values that are not None, or None when all are."""
    if isinstance(items[0], dict):
        return {key: _mean_fields([item[key] for item in items]) for key in items[0]}
    return _mean_or_none(items)


def crossings(rows: dict, otdr_total: float, cost_model: CostModel) -> dict:
    """{scenario: {"cost_pct", "power_pct"}} for every monitored scenario
    row (name -> row with "monitors") that places at least one monitor."""
    return {name: {"cost_pct": crossing_value(row["monitors"], otdr_total, cost_model, "cost"),
                   "power_pct": crossing_value(row["monitors"], otdr_total, cost_model, "power")}
            for name, row in rows.items() if name != "OTDR" and row["monitors"] > 0}


def write_curves(out: Path, chash: str, rows: dict, cost_model: CostModel,
                 fractions) -> None:
    """Write cost_curves.csv and power_curves.csv into `out`.

    `rows` maps scenario name -> row with "monitors" and "carried_tbps", in
    the order the curves are written; its OTDR row gives the baseline.
    Scenarios that carry no traffic or place no monitor get no curve."""
    results = [ScenarioResult(name, row["monitors"], row["carried_tbps"] or 0.0)
               for name, row in rows.items()
               if name == "OTDR" or (row["carried_tbps"] and row["monitors"] > 0)]
    for dim in ("cost", "power"):
        points = sweep_cost_curves(results, cost_model, fractions, dimension=dim)
        with open(out / f"{dim}_curves.csv", "w", newline="", encoding="utf-8") as fh:
            fh.write(f"# config_hash={chash}\n")
            writer = csv.writer(fh)
            writer.writerow(["scenario", "fraction_pct", "cost_per_tbps",
                             "otdr_cost_per_tbps"])
            for pt in points:
                writer.writerow([pt.scenario, _fmt(pt.fraction_pct),
                                 _fmt(pt.cost_per_tbps), _fmt(pt.otdr_cost_per_tbps)])


def _run_seed(config: ExperimentConfig, topo: Topology, seed: int, solver: str, archs,
              out: Path, chash: str) -> dict:
    seed_dir = out / "per_seed" / f"seed_{seed}"
    seed_dir.mkdir(parents=True, exist_ok=True)

    # lightpath sets already built for the whole demand set, per architecture;
    # one is used only when a scenario of its architecture is configured
    built: dict[str, LightpathSet] = {}
    if config.load_mode == "rejection":
        # the search serves its demands transparently, in order, with this
        # k and channel count, so its set is the seed's transparent result
        demand_set, built["transparent"] = find_load_at_rejection(
            topo, config.rejection_target, seed, step=config.step,
            max_demands=config.max_demands, k=config.k_paths,
            n_channels=config.n_channels)
        counts = [len(demand_set)]
        demands = demand_set.demands
    else:
        counts = sorted(config.counts)
        demands = generate_demands(topo, counts[-1], seed).demands

    provisioners = {a: Provisioner(topo, a, k=config.k_paths,
                                   n_channels=config.n_channels)
                    for a in archs if a not in built}
    served = 0
    points = []
    gap_rows = []
    for n in counts:
        for d in demands[served:n]:
            for prov in provisioners.values():
                prov.serve(d)
        served = n
        lsets = {a: built[a] if a in built else provisioners[a].result() for a in archs}
        offered = sum(d.rate_gbps for d in demands[:n]) / 1000.0
        point = {"offered_tbps": offered, "scenarios": {}}
        # each lightpath set is grouped once; its other gammas reuse the groups
        instances: dict[str, CoverInstance] = {}
        for name in config.scenarios:
            arch, gamma = parse_scenario(name)
            if name == "OTDR":
                ref = lsets.get("transparent") or next(iter(lsets.values()))
                plan = count_otdrs(topo, lit_links=ref.lit_links(topo))
                point["scenarios"][name] = {"monitors": plan.total,
                                            "unsatisfied_npl_avg": None,
                                            "carried_tbps": None}
                continue
            ls = lsets[arch]
            carried = ls.carried_gbps / 1000.0
            if gamma is None:
                cov = ls.coverage(topo)
                point["scenarios"][name] = {
                    "monitors": len(ls.lightpaths),
                    "unsatisfied_npl_avg": unsatisfied_npl_avg(cov, 1),
                    "carried_tbps": carried,
                }
            else:
                if arch in instances:
                    base = instances[arch]
                    inst = make_instance(base.links, base.groups, gamma)
                else:
                    inst = instances[arch] = build_cover_instance(ls, topo, gamma)
                greedy = exact = None
                if solver == "exact" or config.compare_solvers:
                    exact = solve_exact(inst, node_budget=config.node_budget)
                if solver == "greedy" or config.compare_solvers:
                    greedy = solve_greedy(inst)
                sol = exact if solver == "exact" else greedy
                point["scenarios"][name] = {
                    "monitors": sol.total_monitors,
                    "unsatisfied_npl_avg": sol.unsatisfied / len(topo.links),
                    "carried_tbps": carried,
                }
                if config.compare_solvers:
                    gap_rows.append({
                        "seed": seed, "offered_tbps": offered, "scenario": name,
                        "greedy_monitors": greedy.total_monitors,
                        "exact_monitors": exact.total_monitors,
                        "exact_optimal": exact.optimal,
                    })
                write_json(seed_dir / f"solution_{name}_n{n}.json",
                           {"config_hash": chash, **sol.to_json_dict()})
        points.append(point)

    for arch, ls in lsets.items():
        write_lightpaths_csv(ls, seed_dir / f"lightpaths_{arch}.csv", config_hash=chash)
        write_json(seed_dir / f"provision_{arch}.meta.json",
                   {"config_hash": chash, **ls.meta(topo)})
    return {"points": points, "gap_rows": gap_rows}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def write_json(path: str | Path, payload: dict) -> None:
    """Indented, key-sorted JSON with a trailing newline; path "-" is stdout."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _write_monitors_csv(path: Path, chash: str, scenarios, agg_points) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# config_hash={chash}\n")
        writer = csv.writer(fh)
        writer.writerow(["scenario", "load_tbps", "monitors", "unsatisfied_npl"])
        for point in agg_points:
            for name in scenarios:
                row = point["scenarios"][name]
                writer.writerow([name, _fmt(point["offered_tbps"]),
                                 _fmt(row["monitors"]),
                                 _fmt(row["unsatisfied_npl_avg"])])


def _write_gap_csv(path: Path, chash: str, per_seed, seeds_ok) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# config_hash={chash}\n")
        writer = csv.writer(fh)
        writer.writerow(["seed", "load_tbps", "scenario", "greedy_monitors",
                         "exact_monitors", "exact_optimal", "gap_pct"])
        for s in seeds_ok:
            for row in per_seed[s]["gap_rows"]:
                gap = None
                if row["exact_optimal"] and row["exact_monitors"] > 0:
                    gap = 100.0 * (row["greedy_monitors"] - row["exact_monitors"]) \
                        / row["exact_monitors"]
                writer.writerow([row["seed"], _fmt(row["offered_tbps"]),
                                 row["scenario"], row["greedy_monitors"],
                                 row["exact_monitors"],
                                 _fmt(row["exact_optimal"]), _fmt(gap)])
