"""End-to-end experiment orchestration: topology -> demands -> provisioning ->
placement -> baseline -> analysis, with seeded reproducibility.

Every output file embeds the config hash; bundles are byte-identical for
identical configs and seeds (no wall-clock content). Per-seed artifacts are
kept under per_seed/ for debugging and stage-wise re-runs.
"""

from __future__ import annotations

import logging
import math
import re
import statistics
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import __version__
from .analysis import CostModel, crossing_value, sweep_cost_curves, unsatisfied_npl_avg
from .exact import DEFAULT_NODE_BUDGET, solve_exact
from .files import content_hash, fmt, is_number, write_csv, write_json
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
# n has no leading zero, so one scenario has one name
_SCENARIO_RE = re.compile(r"^(Op|Tr)(-O-(0|[1-9]\d*))?$|^OTDR$")
_log = logging.getLogger(__name__)


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
    solver: str = "exact"                    # exact (the paper's ILP) | greedy (its heuristic)
    node_budget: int = DEFAULT_NODE_BUDGET
    k_paths: int = DEFAULT_K_PATHS
    n_channels: int = CHANNELS_PER_FIBER
    cost_model: CostModel = field(default_factory=CostModel)
    ppm_fractions: tuple[float, ...] = tuple(range(0, 101, 5))

    def __post_init__(self):
        if not self.scenarios:
            raise ConfigError("at least one scenario required")
        parsed = [parse_scenario(s) for s in self.scenarios]
        for name, (_, gamma) in zip(self.scenarios, parsed):
            if gamma == 0:
                raise ConfigError(f"scenario {name!r} asks for 0 monitors per link; "
                                  "n must be >= 1")
            if self.scenarios.count(name) > 1:
                raise ConfigError(f"scenario {name!r} repeats")
        if all(arch is None for arch, _ in parsed):
            # the OTDR baseline counts the links a monitored scenario lights
            raise ConfigError("OTDR needs at least one monitored scenario beside it")
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if (self.topology is None) == (self.gabriel is None):
            raise ConfigError("exactly one of topology / gabriel must be given")
        topo = self.topology
        if topo is not None and not (isinstance(topo, str) and topo.strip()):
            raise ConfigError("topology must be a non-empty string (a file path or a "
                              f"bundled name), got {topo!r}")
        gab = self.gabriel
        if gab is not None and not (
                isinstance(gab, dict) and set(gab) <= {"nodes", "extent_km"}
                and is_number(gab.get("nodes"), int) and gab["nodes"] >= 2
                and is_number(gab.get("extent_km", 1))
                and 0 < gab.get("extent_km", 1) < math.inf):
            raise ConfigError('gabriel must be {"nodes": an integer >= 2, optionally '
                              f'"extent_km": a positive finite number}}, got {gab!r}')
        if not isinstance(self.cost_model, CostModel):
            raise ConfigError(f"cost_model must be an object, got {self.cost_model!r}")
        if self.load_mode not in ("rejection", "counts"):
            raise ConfigError(f"unknown load_mode {self.load_mode!r}")
        if self.load_mode == "counts" and not self.counts:
            raise ConfigError("counts mode needs a nonempty counts list")
        if self.load_mode != "counts" and self.counts:
            raise ConfigError("counts are read only with load_mode 'counts', "
                              f"not {self.load_mode!r}")
        if self.solver not in ("greedy", "exact"):
            raise ConfigError(f"unknown solver {self.solver!r}")
        for key, least in (("k_paths", 1), ("n_channels", 1), ("step", 1),
                           ("max_demands", 1), ("node_budget", 0)):
            value = getattr(self, key)
            if not is_number(value, int):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
            if value < least:
                raise ConfigError(f"{key} must be >= {least}, got {value}")
        target = self.rejection_target
        if not is_number(target):
            raise ConfigError(f"rejection_target must be a number, got {target!r}")
        if not 0 < target < 1:
            raise ConfigError(f"rejection_target must lie in (0, 1), got {target}")
        if not self.ppm_fractions:
            raise ConfigError("ppm_fractions must be nonempty")
        for key, least in (("seeds", 0), ("counts", 1)):
            values = getattr(self, key) or ()
            for value in values:
                if not is_number(value, int) or value < least:
                    raise ConfigError(f"{key} must be integers >= {least}, got {value!r}")
            if len(set(values)) != len(values):
                raise ConfigError(f"{key} must not repeat, got {list(values)}")
        for value in self.ppm_fractions:
            if not is_number(value) or not 0 <= value < math.inf:
                raise ConfigError(f"ppm_fractions must be finite numbers >= 0, got {value!r}")
        span = self.span_length_km
        if span is not None and (not is_number(span)
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
        return content_hash(asdict(self))

    def resolve_topology(self, seed: int) -> Topology:
        if self.gabriel is None:
            return resolve_topology(self.topology, self.span_length_km)
        kwargs = dict(self.gabriel)
        n = kwargs.pop("nodes")
        if self.span_length_km is not None:
            kwargs.setdefault("span_length_km", self.span_length_km)
        return generate_gabriel(n, seed=seed, **kwargs)


def run_experiment(config: ExperimentConfig, out_dir: str | Path) -> dict:
    """Run all seeds and write the result bundle; returns the summary dict."""
    # a file or bundled topology is resolved once, before anything is written;
    # every seed shares it and its routes
    shared = None if config.gabriel is not None else config.resolve_topology(config.seeds[0])
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    chash = config.config_hash
    archs = sorted({parse_scenario(s)[0] for s in config.scenarios
                    if parse_scenario(s)[0] is not None})

    per_seed: dict[int, dict] = {}
    errors: dict[int, str] = {}
    for seed in config.seeds:
        try:
            topo = shared or config.resolve_topology(seed)
            per_seed[seed] = _run_seed(config, topo, seed, archs, out, chash)
        except (SaturationError, ProvisioningError, TopologyError) as exc:
            # a seed the model cannot serve is recorded and the bundle marked
            # partial; solver failures and bugs propagate
            errors[seed] = f"{type(exc).__name__}: {exc}"
            _log.warning("seed %d failed: %s", seed, errors[seed])
    if not per_seed:
        raise AllSeedsFailedError(f"all seeds failed: {errors}")

    seeds_ok = sorted(per_seed)
    # per-load-point aggregation over seeds
    agg_points = [_mean_fields([per_seed[s]["points"][i] for s in seeds_ok])
                  for i in range(len(per_seed[seeds_ok[0]]["points"]))]

    # summary at the final load point, with crossing values and the seed spread
    final = agg_points[-1]["scenarios"]
    otdr_count = final["OTDR"]["monitors"] if "OTDR" in final else None
    cross = {} if otdr_count is None else crossings(final, otdr_count, config.cost_model)
    scenario_summaries = {}
    for name, row in final.items():
        values = cross.get(name, {})
        seed_monitors = [per_seed[s]["points"][-1]["scenarios"][name]["monitors"]
                         for s in seeds_ok]
        scenario_summaries[name] = {**row, "crossing_cost_pct": values.get("cost_pct"),
                                    "crossing_power_pct": values.get("power_pct"),
                                    "break_even_ratio": values.get("break_even_ratio"),
                                    "monitors_se": _standard_error(seed_monitors)}

    summary = {
        "config_hash": chash,
        "version": __version__,
        "solver": config.solver,
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
    if config.solver == "exact":
        write_csv(out / "gap.csv", ["seed", "load_tbps", "scenario", "greedy_monitors",
                                    "exact_monitors", "exact_optimal", "gap_pct"],
                  [row for s in seeds_ok for row in per_seed[s]["gap_rows"]], chash)
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


def _standard_error(values) -> float | None:
    """Standard error of the mean (sample deviation / sqrt(n)); None for one value."""
    if len(values) < 2:
        return None
    return statistics.stdev(values) / math.sqrt(len(values))


def crossings(rows: dict, otdr_total: float, cost_model: CostModel) -> dict:
    """{scenario: {"cost_pct", "power_pct", "break_even_ratio"}} for every
    monitored scenario row (name -> row with "monitors") that places at least
    one monitor; the ratio is OTDRs per monitor, otdr_total / monitors."""
    return {name: {"cost_pct": crossing_value(row["monitors"], otdr_total, cost_model, "cost"),
                   "power_pct": crossing_value(row["monitors"], otdr_total, cost_model, "power"),
                   "break_even_ratio": otdr_total / row["monitors"]}
            for name, row in rows.items() if name != "OTDR" and row["monitors"] > 0}


def write_curves(out: Path, chash: str, rows: dict, cost_model: CostModel,
                 fractions) -> None:
    """Write cost_curves.csv and power_curves.csv into `out`.

    `rows` maps scenario name -> row with "monitors" and "carried_tbps", in
    the order the curves are written; its OTDR row gives the baseline."""
    for dim in ("cost", "power"):
        points = sweep_cost_curves(rows, cost_model, fractions, dim)
        write_csv(out / f"{dim}_curves.csv",
                  ["scenario", "fraction_pct", "cost_per_tbps", "otdr_cost_per_tbps"],
                  ([name, fmt(fraction), fmt(cost), fmt(otdr_cost)]
                   for name, fraction, cost, otdr_cost in points),
                  chash)


def _run_seed(config: ExperimentConfig, topo: Topology, seed: int, archs,
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
        # each set's link coverage and carried traffic, counted once per point
        coverage = {a: ls.coverage(topo) for a, ls in lsets.items()}
        carried = {a: ls.carried_gbps / 1000.0 for a, ls in lsets.items()}
        offered = sum(d.rate_gbps for d in demands[:n]) / 1000.0
        point = {"offered_tbps": offered, "scenarios": {}}
        # each lightpath set is grouped once; its other gammas reuse the groups
        instances: dict[str, CoverInstance] = {}
        for name in config.scenarios:
            arch, gamma = parse_scenario(name)
            if name == "OTDR":
                ref = "transparent" if "transparent" in lsets else next(iter(lsets))
                plan = count_otdrs(topo, lit_links=[e for e, c in coverage[ref].items() if c])
                point["scenarios"][name] = {"monitors": plan.total,
                                            "unsatisfied_npl_avg": None,
                                            "carried_tbps": None}
                continue
            ls = lsets[arch]
            if gamma is None:
                point["scenarios"][name] = {
                    "monitors": len(ls.lightpaths),
                    "unsatisfied_npl_avg": unsatisfied_npl_avg(coverage[arch], 1),
                    "carried_tbps": carried[arch],
                }
            else:
                if arch in instances:
                    base = instances[arch]
                    inst = make_instance(base.links, base.groups, gamma)
                else:
                    inst = instances[arch] = build_cover_instance(ls, topo, gamma)
                if config.solver == "greedy":
                    sol = solve_greedy(inst)
                else:
                    sol = solve_exact(inst, node_budget=config.node_budget)
                    # the exact solve's incumbent is the instance's cached greedy
                    greedy = sum(inst.greedy[0])
                    exact = sol.total_monitors
                    gap = None
                    if sol.optimal and exact > 0:
                        gap = 100.0 * (greedy - exact) / exact
                    gap_rows.append([seed, fmt(offered), name, greedy, exact,
                                     fmt(sol.optimal), fmt(gap)])
                point["scenarios"][name] = {
                    "monitors": sol.total_monitors,
                    "unsatisfied_npl_avg": sol.unsatisfied / len(topo.links),
                    "carried_tbps": carried[arch],
                }
                write_json(seed_dir / f"solution_{name}_n{n}.json",
                           {"config_hash": chash, **sol.to_json_dict()})
        points.append(point)

    for arch, ls in lsets.items():
        write_lightpaths_csv(ls, seed_dir / f"lightpaths_{arch}.csv", config_hash=chash)
        write_json(seed_dir / f"provision_{arch}.meta.json",
                   {"config_hash": chash, **ls.meta(topo)})
    return {"points": points, "gap_rows": gap_rows}


def _write_monitors_csv(path: Path, chash: str, scenarios, agg_points) -> None:
    rows = []
    for point in agg_points:
        for name in scenarios:
            row = point["scenarios"][name]
            rows.append([name, fmt(point["offered_tbps"]), fmt(row["monitors"]),
                         fmt(row["unsatisfied_npl_avg"])])
    write_csv(path, ["scenario", "load_tbps", "monitors", "unsatisfied_npl"], rows, chash)
