"""Random demand sets and the offered-load search at a target rejection rate."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .files import int_cell, read_csv, read_object, write_csv, write_json
from .provisioning import LightpathSet, Provisioner
from .topology import Topology, TopologyError

ALLOWED_RATES_GBPS = (100, 200, 300, 400)


class SaturationError(RuntimeError):
    """Target rejection rate unreachable within the demand cap."""


@dataclass(frozen=True)
class Demand:
    src: str
    dst: str
    rate_gbps: int

    def __post_init__(self):
        if self.src == self.dst:
            raise ValueError(f"demand endpoints must differ, got {self.src!r}")
        if self.rate_gbps not in ALLOWED_RATES_GBPS:
            raise ValueError(f"rate {self.rate_gbps} not in {ALLOWED_RATES_GBPS}")


@dataclass(frozen=True)
class DemandSet:
    demands: tuple[Demand, ...]
    seed: int | None = None

    @property
    def total_tbps(self) -> float:
        return sum(d.rate_gbps for d in self.demands) / 1000.0

    def __len__(self) -> int:
        return len(self.demands)


def _draw(rng: np.random.Generator, nodes: tuple[str, ...], batch: int):
    """Demands without end, drawn `batch` at a time from one `integers` call
    over the bounds (n, n - 1, rates) repeated `batch` times. numpy bounds
    each element on its own, so the stream is that of three scalar calls per
    demand: source, destination among the other nodes, rate index. A Demand
    is built only when it is taken. The first draw raises TopologyError on
    fewer than two nodes."""
    n = len(nodes)
    if n < 2:
        raise TopologyError("need at least 2 nodes to generate demands")
    bounds = [n, n - 1, len(ALLOWED_RATES_GBPS)] * batch
    while True:
        draws = rng.integers(bounds).tolist()
        for t in range(0, 3 * batch, 3):
            i, j, r = draws[t:t + 3]
            if j >= i:
                j += 1
            yield Demand(nodes[i], nodes[j], ALLOWED_RATES_GBPS[r])


def generate_demands(topology: Topology, count: int, seed: int) -> DemandSet:
    """count i.i.d. demands: uniform ordered node pair, uniform allowed rate.

    All draws come from one numpy call whose stream is that of three draws
    per demand in sequence, so generate_demands(n + k, seed) extends
    generate_demands(n, seed) demand-for-demand.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    return DemandSet(demands=tuple(islice(_draw(rng, topology.nodes, count), count)),
                     seed=seed)


# steps of demands the load search draws per numpy call
_STEPS_PER_DRAW = 50


def find_load_at_rejection(topology: Topology, target_rejection: float, seed: int,
                           step: int = 10, max_demands: int = 100_000,
                           **provision_kwargs) -> tuple[DemandSet, LightpathSet]:
    """Grow the demand set by `step` until the transparent-architecture
    rejection fraction reaches `target_rejection`.

    The demands come 50 steps at a time from one numpy call on the stream
    `generate_demands` draws from, so the offered set equals
    `generate_demands(topology, len(demand_set), seed)`. Returns that set and
    the transparent lightpath set the search built while serving it. That set
    equals `provision(topology, demand_set, "transparent",
    **provision_kwargs)`, so it need not be provisioned again; its carried
    traffic in Tb/s is `lset.carried_gbps / 1000`. The same demand set is
    meant to be reused for the opaque run. Raises SaturationError if the cap
    is hit first.
    """
    if not (0.0 < target_rejection < 1.0):
        raise ValueError(f"target_rejection must be in (0, 1), got {target_rejection}")
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    prov = Provisioner(topology, "transparent", **provision_kwargs)
    rng = np.random.default_rng(seed)
    stream = _draw(rng, topology.nodes, min(_STEPS_PER_DRAW * step, max_demands))
    demands: list[Demand] = []
    while len(demands) < max_demands:
        for d in islice(stream, min(step, max_demands - len(demands))):
            demands.append(d)
            prov.serve(d)
        if prov.rejected_count / len(demands) >= target_rejection:
            return DemandSet(tuple(demands), seed=seed), prov.result()
    raise SaturationError(
        f"rejection {prov.rejected_count / len(demands):.4f} below target "
        f"{target_rejection} after {max_demands} demands")


def write_demands_csv(demand_set: DemandSet, path: str | Path) -> None:
    """Demand CSV with header plus a .meta.json sidecar recording the seed."""
    path = Path(path)
    write_csv(path, ["src", "dst", "rate_gbps"],
              ([d.src, d.dst, d.rate_gbps] for d in demand_set.demands))
    write_json(path.with_suffix(path.suffix + ".meta.json"),
               {"seed": demand_set.seed, "count": len(demand_set)})


def read_demands_csv(path: str | Path) -> DemandSet:
    """Demands of a CSV, each row checked as `Demand` requires; a row that
    breaks a check is a ValueError naming the file, the line and the column."""
    path = Path(path)
    demands = []
    for line, row in read_csv(path, ("src", "dst", "rate_gbps")):
        where = f"line {line}"
        if row["dst"] == row["src"]:
            raise ValueError(f"{path}: {where} has dst {row['dst']!r}, not a node other than src")
        rate = int_cell(path, where, row, "rate_gbps", f"one of {list(ALLOWED_RATES_GBPS)}",
                        ALLOWED_RATES_GBPS.__contains__)
        demands.append(Demand(row["src"], row["dst"], rate))
    seed = None
    sidecar = path.with_suffix(path.suffix + ".meta.json")
    if sidecar.exists():
        seed = read_object(sidecar).get("seed")
    return DemandSet(demands=tuple(demands), seed=seed)
