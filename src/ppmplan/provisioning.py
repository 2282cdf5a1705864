"""Lightpath provisioning under opaque or transparent IPoWDM architectures.

Demands are served in input order. Grooming onto established lightpaths is
tried first (opaque: a hop-by-hop chain of single-hop lightpaths with spare
capacity, found by a shortest-path search over the links that still have
one; transparent: a chain of established lightpaths whose add/drop
endpoints follow one of the k candidate routes). Otherwise new lightpaths
are created along the shortest feasible candidate route: opaque decomposes
it into one single-hop lightpath per link, transparent covers it with the
fewest reach-feasible segments; every new lightpath takes the highest rate
whose reach covers its length (maximizing groomable headroom) and the
first-fit channel free on all traversed links. Demands are never split
across lightpaths, and a demand either commits fully or is rejected.

Grooming looks only at lightpaths with spare capacity. Spare only falls and
every rate is positive, so a lightpath that fills up leaves the grooming
indexes for good; a link keeps its place among its node's successors, with a
largest spare of 0, so that equal-length opaque chains still resolve by link
creation order.

Candidate routes are the k shortest loopless routes by length, ties broken
by the sequence of node names (`Topology.k_shortest_routes`). They are kept
on the Topology object, so every Provisioner on one object shares them.
"""

from __future__ import annotations

import csv
import heapq
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from pathlib import Path
from typing import TYPE_CHECKING

from .topology import Topology, link_label

if TYPE_CHECKING:
    from .traffic import Demand

# Table of long-haul transponder operating points: (rate Gb/s, reach km),
# all at 100 GHz spacing.
RATE_REACH_ROWS = (
    (800, 150),
    (700, 400),
    (600, 700),
    (500, 1300),
    (400, 2500),
    (300, 4700),
    (200, 5700),
)

# 6 THz C-band at 100 GHz spacing
CHANNELS_PER_FIBER = 60

DEFAULT_K_PATHS = 3


class ProvisioningError(ValueError):
    """Configuration errors: bad architecture, unreachable links, bad tables."""


@dataclass(frozen=True)
class ReachTable:
    rows: tuple[tuple[int, int], ...] = RATE_REACH_ROWS
    spacing_ghz: int = 100

    def __post_init__(self):
        rates = [r for r, _ in self.rows]
        reaches = [d for _, d in self.rows]
        if not self.rows:
            raise ProvisioningError("empty reach table")
        if any(rates[i] <= rates[i + 1] for i in range(len(rates) - 1)):
            raise ProvisioningError("rates must be strictly decreasing")
        if any(reaches[i] >= reaches[i + 1] for i in range(len(reaches) - 1)):
            raise ProvisioningError("reaches must be strictly increasing")

    @property
    def max_reach_km(self) -> int:
        return self.rows[-1][1]

    def best_rate(self, length_km: float) -> int | None:
        """Highest rate whose reach covers `length_km`."""
        for rate, reach in self.rows:
            if reach >= length_km:
                return rate
        return None

    def max_length_for(self, rate_gbps: int) -> int | None:
        """Longest lightpath still able to carry `rate_gbps` in one hop set:
        the reach of the lowest table rate >= rate_gbps."""
        best = None
        for rate, reach in self.rows:
            if rate >= rate_gbps:
                best = reach
        return best


DEFAULT_REACH_TABLE = ReachTable()


@dataclass
class Lightpath:
    lp_id: int
    nodes: tuple[str, ...]
    length_km: float
    rate_gbps: int
    channel: int
    carried_gbps: int = 0

    @cached_property
    def links(self) -> tuple[str, ...]:
        """Directed link labels along the route; a Provisioner sets them at
        creation, otherwise they are computed on first access."""
        return tuple(link_label(a, b) for a, b in zip(self.nodes, self.nodes[1:]))

    @property
    def add_node(self) -> str:
        return self.nodes[0]

    @property
    def drop_node(self) -> str:
        return self.nodes[-1]

    @property
    def hops(self) -> int:
        return len(self.nodes) - 1

    @property
    def spare_gbps(self) -> int:
        return self.rate_gbps - self.carried_gbps


@dataclass
class LightpathSet:
    architecture: str
    lightpaths: list[Lightpath]
    accepted: list[Demand]
    rejected: list[Demand]
    assignments: list[tuple[Demand, tuple[int, ...]]]
    n_channels: int = CHANNELS_PER_FIBER

    @property
    def transponder_count(self) -> int:
        return 2 * len(self.lightpaths)

    @property
    def carried_gbps(self) -> int:
        return sum(d.rate_gbps for d in self.accepted)

    @property
    def rejection_fraction(self) -> float:
        total = len(self.accepted) + len(self.rejected)
        return len(self.rejected) / total if total else 0.0

    def coverage(self, topology: Topology) -> dict[str, int]:
        """Lightpaths traversing each directed link (all links included)."""
        cov = {e: 0 for e in topology.link_labels}
        for lp in self.lightpaths:
            for e in lp.links:
                cov[e] += 1
        return cov

    def lit_links(self, topology: Topology) -> set[str]:
        return {e for e, n in self.coverage(topology).items() if n > 0}

    def spectrum_occupancy(self, topology: Topology) -> float:
        used = sum(lp.hops for lp in self.lightpaths)
        return used / (self.n_channels * len(topology.links))

    def meta(self, topology: Topology) -> dict:
        """Provisioning outcome, as written beside a lightpath dump."""
        return {
            "architecture": self.architecture,
            "accepted": len(self.accepted),
            "rejected": len(self.rejected),
            "carried_tbps": self.carried_gbps / 1000.0,
            "rejection_fraction": self.rejection_fraction,
            "spectrum_occupancy": self.spectrum_occupancy(topology),
        }


class Provisioner:
    """Stateful sequential provisioner; serve() demands one at a time."""

    def __init__(self, topology: Topology, architecture: str,
                 reach_table: ReachTable = DEFAULT_REACH_TABLE,
                 k: int = DEFAULT_K_PATHS, n_channels: int = CHANNELS_PER_FIBER):
        if architecture not in ("opaque", "transparent"):
            raise ProvisioningError(f"unknown architecture {architecture!r}")
        if k < 1:
            raise ProvisioningError(f"k must be >= 1, got {k}")
        if n_channels < 1:
            raise ProvisioningError(f"n_channels must be >= 1, got {n_channels}")
        longest = topology.max_link_length()
        if longest > reach_table.max_reach_km:
            raise ProvisioningError(
                f"link of {longest} km exceeds the maximum reach "
                f"{reach_table.max_reach_km} km; no rate can cross it")
        self.topology = topology
        self.architecture = architecture
        self.reach_table = reach_table
        self.k = k
        self.n_channels = n_channels
        # per link, a bitmask of the channels in use: bit c set <=> channel c taken
        self._channel_used: dict[str, int] = dict.fromkeys(topology.link_labels, 0)
        self._lps: list[Lightpath] = []
        # spare capacity per lightpath id; the grooming indexes below hold
        # only live ids (spare > 0): spare only falls and every rate is
        # positive, so a spent lightpath is never groomed again
        self._spare: list[int] = []
        # live lightpath ids per (add, drop) node pair, in creation order;
        # opaque lightpaths span one link, so there the pair is the link
        self._by_ends: dict[tuple[str, str], list[int]] = {}
        # opaque only: per node the largest spare capacity on each outgoing
        # link (0 once spent), in the order the links got their first lightpath
        self._max_spare: dict[str, dict[str, int]] = {n: {} for n in topology.nodes}
        self._accepted: list[Demand] = []
        self._rejected: list[Demand] = []
        self._assignments: list[tuple[Demand, tuple[int, ...]]] = []

    @property
    def rejected_count(self) -> int:
        return len(self._rejected)

    def result(self) -> LightpathSet:
        return LightpathSet(
            architecture=self.architecture,
            lightpaths=self._lps,
            accepted=self._accepted,
            rejected=self._rejected,
            assignments=self._assignments,
            n_channels=self.n_channels,
        )

    # -- route candidates ---------------------------------------------------

    def routes(self, src: str, dst: str) -> tuple[tuple[str, ...], ...]:
        return self.topology.k_shortest_routes(src, dst, self.k)

    # -- serving ------------------------------------------------------------

    def serve(self, demand: Demand) -> bool:
        """Serve one demand; returns True when accepted. Atomic: state is
        only mutated on success."""
        chain = self._groom(demand)
        if chain is None:
            chain = self._establish(demand)
        if chain is None:
            self._rejected.append(demand)
            return False
        self._accepted.append(demand)
        self._assignments.append((demand, chain))
        return True

    # -- grooming -----------------------------------------------------------

    def _groom(self, demand: Demand) -> tuple[int, ...] | None:
        if self.architecture == "opaque":
            chain = self._groom_opaque(demand)
        else:
            chain = self._groom_transparent(demand)
        if chain is None:
            return None
        rate = demand.rate_gbps
        spare, by_ends = self._spare, self._by_ends
        opaque = self.architecture == "opaque"
        for lp_id in chain:
            lp = self._lps[lp_id]
            lp.carried_gbps += rate
            before = spare[lp_id]
            spare[lp_id] = left = before - rate
            ends = (lp.nodes[0], lp.nodes[-1])
            if not left:
                ids = by_ends[ends]
                ids.remove(lp_id)
                if not ids:
                    del by_ends[ends]
            if opaque:
                u, v = ends
                if before == self._max_spare[u][v]:
                    # the link's largest spare falls only if this lightpath held it
                    self._max_spare[u][v] = max((spare[i] for i in by_ends.get(ends, ())),
                                                default=0)
        return chain

    def _groom_opaque(self, demand: Demand) -> tuple[int, ...] | None:
        """Shortest chain of links whose single-hop lightpaths have `rate`
        spare, by Dijkstra over `_max_spare`. The heap is keyed (distance,
        push count) and a node is relaxed only on a strictly shorter
        distance, so equal-length chains resolve by link creation order."""
        rate = demand.rate_gbps
        src, dst = demand.src, demand.dst
        max_spare = self._max_spare
        adj = self.topology.link_lengths
        # no chain unless a link leaving src and a link entering dst can carry
        # it; links come in both directions, so dst's successors feed it
        if (all(spare < rate for spare in max_spare[src].values())
                or all(max_spare[u].get(dst, 0) < rate for u in adj[dst])):
            return None
        pushes = count(1)
        seen = {src: 0.0}
        pred: dict[str, str] = {}
        done: set[str] = set()
        heap = [(0.0, 0, src)]
        while heap:
            d, _, u = heapq.heappop(heap)
            if u in done:
                continue
            if u == dst:
                break
            done.add(u)
            for v, spare in max_spare[u].items():
                if spare < rate or v in done:
                    continue
                nd = d + adj[u][v]
                if v not in seen or nd < seen[v]:
                    seen[v] = nd
                    pred[v] = u
                    heapq.heappush(heap, (nd, next(pushes), v))
        else:
            return None
        path = [dst]
        while path[-1] != src:
            path.append(pred[path[-1]])
        path.reverse()
        spare = self._spare
        return tuple(next(i for i in self._by_ends[(u, v)] if spare[i] >= rate)
                     for u, v in zip(path, path[1:]))

    def _groom_transparent(self, demand: Demand) -> tuple[int, ...] | None:
        rate = demand.rate_gbps
        by_ends, spare = self._by_ends, self._spare
        for route in self.routes(demand.src, demand.dst):
            i = 0
            chain: list[int] = []
            while i < len(route) - 1:
                # the lightpath reaching furthest along the route; among
                # those, the first created
                best = None
                for j in range(len(route) - 1, i, -1):
                    ids = by_ends.get((route[i], route[j]))
                    if ids is None:
                        continue
                    for lp_id in ids:
                        if spare[lp_id] >= rate:
                            best = lp_id
                            break
                    if best is not None:
                        break
                if best is None:
                    break
                chain.append(best)
                i = j
            else:
                return tuple(chain)
        return None

    # -- new lightpaths -----------------------------------------------------

    def _establish(self, demand: Demand) -> tuple[int, ...] | None:
        rmax = self.reach_table.max_length_for(demand.rate_gbps)
        if rmax is None:
            return None
        for route in self.routes(demand.src, demand.dst):
            segments = self._segment(route, rmax)
            if segments is None:
                continue
            plan = []
            for seg in segments:
                labels = tuple(link_label(a, b) for a, b in zip(seg, seg[1:]))
                ch = self._first_fit(labels)
                if ch is None:
                    break
                plan.append((seg, labels, ch))
            else:
                chain = []
                for seg, labels, ch in plan:
                    length = self.topology.route_length(seg)
                    rate = self.reach_table.best_rate(length)
                    chain.append(self._create(seg, labels, length, rate, ch,
                                              demand.rate_gbps))
                return tuple(chain)
        return None

    def _segment(self, route, rmax: float) -> list[tuple[str, ...]] | None:
        """Cut the route into lightpaths of length <= rmax: one per link when
        opaque; when transparent the fewest, each extended as far as reach
        allows before cutting."""
        max_links = 1 if self.architecture == "opaque" else len(route)
        segments = []
        i = 0
        n = len(route)
        while i < n - 1:
            acc = 0.0
            j = i
            while j < n - 1 and j - i < max_links:
                step = self.topology.link(route[j], route[j + 1]).length_km
                if acc + step > rmax:
                    break
                acc += step
                j += 1
            if j == i:  # single link beyond reach at this rate
                return None
            segments.append(tuple(route[i:j + 1]))
            i = j
        return segments

    def _first_fit(self, labels) -> int | None:
        """The lowest channel free on every link in `labels`, or None."""
        used = 0
        for e in labels:
            used |= self._channel_used[e]
        ch = (~used & (used + 1)).bit_length() - 1  # lowest clear bit
        return ch if ch < self.n_channels else None

    def _create(self, nodes: tuple[str, ...], links: tuple[str, ...], length: float,
                rate: int, channel: int, carried: int) -> int:
        lp_id = len(self._lps)
        lp = Lightpath(lp_id=lp_id, nodes=nodes, length_km=length,
                       rate_gbps=rate, channel=channel, carried_gbps=carried)
        lp.__dict__["links"] = links  # fills the cached property with first-fit's labels
        self._lps.append(lp)
        spare = rate - carried
        self._spare.append(spare)
        for e in links:
            self._channel_used[e] |= 1 << channel
        if self.architecture == "opaque":
            u, v = nodes
            self._max_spare[u][v] = max(self._max_spare[u].get(v, 0), spare)
        if spare:
            self._by_ends.setdefault((nodes[0], nodes[-1]), []).append(lp_id)
        return lp_id


def provision(topology: Topology, demands, architecture: str,
              reach_table: ReachTable = DEFAULT_REACH_TABLE,
              k: int = DEFAULT_K_PATHS,
              n_channels: int = CHANNELS_PER_FIBER) -> LightpathSet:
    """Provision a demand set (DemandSet or iterable of Demand) in order."""
    prov = Provisioner(topology, architecture, reach_table=reach_table, k=k,
                       n_channels=n_channels)
    if hasattr(demands, "demands"):
        demands = demands.demands
    for d in demands:
        prov.serve(d)
    return prov.result()


def write_lightpaths_csv(lightpaths, path: str | Path,
                         config_hash: str | None = None) -> None:
    """Lightpath dump: lp_id,add_node,drop_node,route,rate_gbps,channel,carried_gbps."""
    if hasattr(lightpaths, "lightpaths"):
        lightpaths = lightpaths.lightpaths
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if config_hash:
            fh.write(f"# config_hash={config_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(["lp_id", "add_node", "drop_node", "route",
                         "rate_gbps", "channel", "carried_gbps"])
        for lp in lightpaths:
            writer.writerow([lp.lp_id, lp.add_node, lp.drop_node,
                             "->".join(lp.nodes), lp.rate_gbps, lp.channel,
                             lp.carried_gbps])


def read_lightpaths_csv(path: str | Path, topology: Topology | None = None) -> list[Lightpath]:
    lps = []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = (line for line in fh if not line.startswith("#"))
        for row in csv.DictReader(rows):
            nodes = tuple(row["route"].split("->"))
            length = 0.0
            if topology is not None:
                length = sum(topology.link(a, b).length_km
                             for a, b in zip(nodes, nodes[1:]))
            lps.append(Lightpath(lp_id=int(row["lp_id"]), nodes=nodes,
                                 length_km=length, rate_gbps=int(row["rate_gbps"]),
                                 channel=int(row["channel"]),
                                 carried_gbps=int(row["carried_gbps"])))
    return lps
