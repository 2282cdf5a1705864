"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 solver budget exceeded,
4 solver failure (LP relaxation or MIP failed). Any other exception is a bug:
it propagates, and Python exits 1 with its traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import re
import sys
from pathlib import Path

from . import __version__
from .analysis import crossings, curve_points, write_curves
from .exact import DEFAULT_NODE_BUDGET, SolverError, solve_exact
from .experiment import AllSeedsFailedError, ConfigError, ExperimentConfig, run_experiment
from .files import is_number, read_object, write_json
from .lpfile import export_lp
from .otdr import count_otdrs
from .placement import build_cover_instance, solve_greedy
from .provisioning import (
    CHANNELS_PER_FIBER,
    DEFAULT_K_PATHS,
    provision,
    read_lightpaths_csv,
    write_lightpaths_csv,
)
from .topology import (
    DEFAULT_EXTENT_KM,
    DEFAULT_SPAN_KM,
    generate_gabriel,
    load_topology,
    resolve_topology,
    save_topology,
)
from .traffic import (
    SaturationError,
    generate_demands,
    read_demands_csv,
    write_demands_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BUDGET = 3
EXIT_SOLVER = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ppmplan",
                     description="Optical-network monitor-placement planning toolkit")
    parser.add_argument("--version", action="version", version=f"ppmplan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    topo = sub.add_parser("topo", help="topology generation and validation")
    topo_sub = topo.add_subparsers(dest="topo_command", required=True, parser_class=_Parser)
    gen = topo_sub.add_parser("gen", help="generate a random Gabriel-graph topology")
    gen.add_argument("--nodes", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--extent-km", type=float, default=DEFAULT_EXTENT_KM)
    gen.add_argument("--span-km", type=float, default=DEFAULT_SPAN_KM)
    gen.add_argument("--out", required=True)
    val = topo_sub.add_parser("validate", help="validate a topology JSON file")
    val.add_argument("path")

    dem = sub.add_parser("demands", help="generate a random demand set")
    dem.add_argument("--topo", required=True)
    dem.add_argument("--count", type=int, required=True)
    dem.add_argument("--seed", type=int, default=0)
    dem.add_argument("--out", required=True)

    prov = sub.add_parser("provision", help="establish lightpaths for a demand set")
    prov.add_argument("--topo", required=True)
    prov.add_argument("--demands", required=True)
    prov.add_argument("--arch", choices=["opaque", "transparent"], required=True)
    prov.add_argument("--k", type=int, default=DEFAULT_K_PATHS)
    prov.add_argument("--channels", type=int, default=CHANNELS_PER_FIBER)
    prov.add_argument("--out", required=True)

    place = sub.add_parser("place", help="solve monitor placement over dumped lightpaths")
    place.add_argument("--topo", required=True)
    place.add_argument("--lightpaths", required=True)
    place.add_argument("--solver", choices=["greedy", "exact"], default="exact")
    place.add_argument("--gamma", type=int, required=True)
    place.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    place.add_argument("--out", default="-")

    base = sub.add_parser("baseline", help="fiber-monitoring (OTDR) baseline count")
    base.add_argument("--topo", required=True)
    base.add_argument("--lightpaths", help="restrict to links lit by these lightpaths")
    base.add_argument("--out", default="-")

    exp = sub.add_parser("export-lp", help="write the covering model in LP format")
    exp.add_argument("--topo", required=True)
    exp.add_argument("--lightpaths", required=True)
    exp.add_argument("--gamma", type=int, required=True)
    exp.add_argument("--out", required=True)

    ana = sub.add_parser("analyze", help="crossing values and cost curves from a summary")
    ana.add_argument("--summary", required=True)
    ana.add_argument("--fractions", help="comma-separated monitor price fractions "
                     "(%% of transponder); default: the bundle's ppm_fractions")
    ana.add_argument("--out", required=True)

    run = sub.add_parser("run", help="full pipeline from a config file and/or flags")
    run.add_argument("--config", help="experiment config JSON; flags below override it")
    run.add_argument("--topo", help="topology file or bundled name (j14, n14)")
    run.add_argument("--mode", choices=["rejection", "counts"], dest="load_mode")
    run.add_argument("--target", type=float, help="rejection-mode target fraction")
    run.add_argument("--step", type=int, help="rejection-mode demand increment")
    run.add_argument("--counts", help="comma-separated demand counts (counts mode)")
    run.add_argument("--seeds", help="comma-separated seeds")
    run.add_argument("--solver", choices=["greedy", "exact"])
    run.add_argument("--scenarios", help="comma-separated scenario names")
    run.add_argument("--out", required=True)
    return parser


def _cmd_topo(args) -> int:
    if args.topo_command == "gen":
        topo = generate_gabriel(args.nodes, seed=args.seed, extent_km=args.extent_km,
                                span_length_km=args.span_km)
        save_topology(topo, args.out)
        print(f"wrote {args.out}: {len(topo.nodes)} nodes, "
              f"{len(topo.links)} directed links")
        return EXIT_OK
    topo = load_topology(args.path)
    print(f"{args.path}: ok ({topo.name}: {len(topo.nodes)} nodes, "
          f"{len(topo.links)} directed links)")
    return EXIT_OK


def _cmd_demands(args) -> int:
    topo = resolve_topology(args.topo)
    ds = generate_demands(topo, args.count, args.seed)
    write_demands_csv(ds, args.out)
    print(f"wrote {args.out}: {len(ds)} demands, {ds.total_tbps:.2f} Tb/s offered")
    return EXIT_OK


def _cmd_provision(args) -> int:
    topo = resolve_topology(args.topo)
    ds = read_demands_csv(args.demands, topo)
    lset = provision(topo, ds, args.arch, k=args.k, n_channels=args.channels)
    write_lightpaths_csv(lset, args.out)
    write_json(str(Path(args.out)) + ".meta.json",
               {**lset.meta(topo), "transponders": lset.transponder_count})
    print(f"wrote {args.out}: {len(lset.lightpaths)} lightpaths, "
          f"{len(lset.rejected)} rejected")
    return EXIT_OK


def _topology_and_lightpaths(args):
    """The --topo topology and the --lightpaths dump read against it (None without it)."""
    topo = resolve_topology(args.topo)
    lps = read_lightpaths_csv(args.lightpaths, topo) if args.lightpaths else None
    return topo, lps


def _cmd_place(args) -> int:
    topo, lps = _topology_and_lightpaths(args)
    instance = build_cover_instance(lps, topo, args.gamma)
    if args.solver == "greedy":
        sol = solve_greedy(instance)
    else:
        sol = solve_exact(instance, node_budget=args.node_budget)
    write_json(args.out, sol.to_json_dict())
    if args.solver == "exact" and not sol.optimal:
        print("node budget exceeded: incumbent only", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_baseline(args) -> int:
    topo, lps = _topology_and_lightpaths(args)
    lit = None if lps is None else {e for lp in lps for e in lp.links}
    plan = count_otdrs(topo, lit_links=lit)
    write_json(args.out, plan.to_json_dict())
    if args.out != "-":
        print(f"wrote {args.out}: total {plan.total}")
    return EXIT_OK


def _cmd_export_lp(args) -> int:
    topo, lps = _topology_and_lightpaths(args)
    instance = build_cover_instance(lps, topo, args.gamma)
    export_lp(instance, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    summary_path = Path(args.summary)
    summary = read_object(summary_path)
    chash = summary.get("config_hash")
    # the curve files' header line carries it, as content_hash writes it
    if not (isinstance(chash, str) and re.fullmatch("[0-9a-f]{16}", chash)):
        raise ConfigError(f"{summary_path} has no 16 hex digits under the config_hash key")
    # the bundle's config gives the cost model, fractions and scenario order
    config_path = summary_path.with_name("config.json")
    data = read_object(config_path).get("config")
    if not isinstance(data, dict):
        raise ConfigError(f"{config_path} has no JSON object under the config key")
    config = ExperimentConfig.from_dict(data)
    if args.fractions is not None:  # the config's own check applies to the flag
        config = dataclasses.replace(config, ppm_fractions=tuple(
            _number_items(args.fractions, "--fractions", float)))
    scenarios = summary.get("scenarios", {})
    if not isinstance(scenarios, dict):
        raise ConfigError(f"{summary_path} has no JSON object under the scenarios key")
    missing = [name for name in config.scenarios if name not in scenarios]
    if missing:
        raise ConfigError(f"summary {summary_path} has no scenario {missing[0]!r} of its config")
    if "OTDR" not in config.scenarios:
        raise ConfigError(f"{config_path} has no OTDR scenario for the baseline")
    rows = {name: scenarios[name] for name in config.scenarios}
    for name, row in rows.items():
        if not isinstance(row, dict):
            raise ConfigError(f"{summary_path} scenario {name!r} is not a JSON object")
        # the OTDR row gives the baseline count; the others a curve each
        for key in ("monitors",) if name == "OTDR" else ("monitors", "carried_tbps"):
            value = row.get(key)
            if not (is_number(value) and 0 <= value < math.inf):
                raise ConfigError(f"{summary_path} scenario {name!r} has no finite "
                                  f"number >= 0 under the {key} key")
    cross = crossings(rows, config.cost_model)
    curves = curve_points(rows, config.cost_model, config.ppm_fractions)
    # a ratio over a near-zero value overflows, and neither JSON nor the
    # curve files hold an infinity: every value is checked before any is written
    cells = [(name, key, value, "crossing.json")
             for name, row in cross.items() for key, value in row.items()]
    cells += [(name, key, value, f"{dim}_curves.csv")
              for dim, points in curves.items() for name, _, *values in points
              for key, value in zip(("cost_per_tbps", "otdr_cost_per_tbps"), values)]
    for name, key, value, file in cells:
        if not math.isfinite(value):
            raise ConfigError(f"{summary_path} scenario {name!r} gives a non-finite {key} in {file}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "crossing.json", {"otdr_total": rows["OTDR"]["monitors"], "crossings": cross})
    write_curves(out, chash, curves)
    print(f"wrote {out}/crossing.json and curves")
    return EXIT_OK


def _items(value: str, flag: str) -> list[str]:
    """The items of a comma-separated flag value; an empty value or item is a
    config error, not a request for the config's default."""
    items = [item.strip() for item in value.split(",")]
    if "" in items:
        raise ConfigError(f"{flag} needs comma-separated values with none empty, got {value!r}")
    return items


def _number_items(value: str, flag: str, cast) -> list:
    items = _items(value, flag)
    try:
        return [cast(item) for item in items]
    except ValueError:
        kind = "integers" if cast is int else "numbers"
        raise ConfigError(f"{flag} must be comma-separated {kind}, got {value!r}") from None


def _cmd_run(args) -> int:
    for flag, value in (("--config", args.config), ("--topo", args.topo)):
        if value is not None and not value.strip():
            raise ConfigError(f"{flag} needs a value, got {value!r}")
    data = {}
    if args.config is not None:
        data = read_object(Path(args.config))
    if args.topo is not None:
        data["topology"] = args.topo
        data.pop("gabriel", None)
    if args.load_mode:
        data["load_mode"] = args.load_mode
    if args.target is not None:
        data["rejection_target"] = args.target
    if args.step is not None:
        data["step"] = args.step
    if args.counts is not None:
        data["counts"] = _number_items(args.counts, "--counts", int)
    if args.seeds is not None:
        data["seeds"] = _number_items(args.seeds, "--seeds", int)
    if args.solver:
        data["solver"] = args.solver
    if args.scenarios is not None:
        data["scenarios"] = _items(args.scenarios, "--scenarios")
    if data.get("topology") is None and data.get("gabriel") is None:
        raise ConfigError("give --config or --topo (or a gabriel entry in the config)")
    config = ExperimentConfig.from_dict(data)
    summary = run_experiment(config, args.out)
    print(f"wrote bundle to {args.out} (config_hash={summary['config_hash']})")
    return EXIT_OK


_HANDLERS = {
    "topo": _cmd_topo,
    "demands": _cmd_demands,
    "provision": _cmd_provision,
    "place": _cmd_place,
    "baseline": _cmd_baseline,
    "export-lp": _cmd_export_lp,
    "analyze": _cmd_analyze,
    "run": _cmd_run,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OSError, SaturationError, AllSeedsFailedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
