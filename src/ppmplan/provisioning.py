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
on the Topology object with one link record per route (`Topology.route_links`:
link labels, link lengths and the length summed in path order), so every
Provisioner on one object shares them, and serving a demand looks up no link
by its end nodes. A transparent demand looks its routes up once and hands
them to grooming and then to establishment; an opaque demand grooms over the
spare links and looks its routes up only when it must establish.

The reach table is `RATE_REACH_ROWS`, and each Provisioner memoises its
answers in two caches of its own: the longest lightpath per demand rate
(`max_length_for`) and the line rate per lightpath length (`best_rate`).
They live and die with the Provisioner, so a script that rebinds
`RATE_REACH_ROWS` between Provisioners gets the new table's answers.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

from .files import int_cell, read_csv, write_csv
from .topology import Topology, link_label

if TYPE_CHECKING:
    from .traffic import Demand

# Table of long-haul transponder operating points: (rate Gb/s, reach km),
# all at 100 GHz spacing. Rates strictly fall and reaches strictly rise down
# the table; `best_rate` and the maximum reach rely on that order.
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
    """Configuration errors: bad architecture, k or channel count, or a link
    longer than every reach."""


def best_rate(length_km: float) -> int | None:
    """Highest rate of `RATE_REACH_ROWS` whose reach covers `length_km`."""
    for rate, reach in RATE_REACH_ROWS:
        if reach >= length_km:
            return rate
    return None


def max_length_for(rate_gbps: int) -> int | None:
    """Longest lightpath still able to carry `rate_gbps` in one hop set:
    the reach of the lowest `RATE_REACH_ROWS` rate >= rate_gbps."""
    best = None
    for rate, reach in RATE_REACH_ROWS:
        if rate >= rate_gbps:
            best = reach
    return best


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
    def hops(self) -> int:
        return len(self.nodes) - 1


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
                 k: int = DEFAULT_K_PATHS, n_channels: int = CHANNELS_PER_FIBER):
        if architecture not in ("opaque", "transparent"):
            raise ProvisioningError(f"unknown architecture {architecture!r}")
        if k < 1:
            raise ProvisioningError(f"k must be >= 1, got {k}")
        if n_channels < 1:
            raise ProvisioningError(f"n_channels must be >= 1, got {n_channels}")
        longest = topology.max_link_length()
        max_reach = RATE_REACH_ROWS[-1][1]  # the lowest rate reaches furthest
        if longest > max_reach:
            raise ProvisioningError(
                f"link of {longest} km exceeds the maximum reach "
                f"{max_reach} km; no rate can cross it")
        self.topology = topology
        self.architecture = architecture
        self.k = k
        self.n_channels = n_channels
        # per link, a bitmask of the channels in use: bit c set <=> channel c taken
        self._channel_used: dict[str, int] = dict.fromkeys(topology.link_labels, 0)
        self._lps: list[Lightpath] = []
        # spare capacity per lightpath id; the grooming indexes below hold
        # only live ids (spare > 0): spare only falls and every rate is
        # positive, so a spent lightpath is never groomed again
        self._spare: list[int] = []
        # live lightpath ids per add node and drop node, in creation order;
        # opaque lightpaths span one link, so there the pair is the link. A
        # node without live lightpaths has no entry
        self._by_ends: dict[str, dict[str, list[int]]] = {}
        # opaque only: per node the largest spare capacity on each outgoing
        # link (0 once spent), in the order the links got their first lightpath
        self._max_spare: dict[str, dict[str, int]] = {n: {} for n in topology.nodes}
        self._accepted: list[Demand] = []
        self._rejected: list[Demand] = []
        self._assignments: list[tuple[Demand, tuple[int, ...]]] = []
        # the reach table's answers, per demand rate (the longest lightpath
        # that carries it) and per lightpath length (its line rate)
        self._max_length = functools.cache(max_length_for)
        self._line_rate = functools.cache(best_rate)

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
        opaque = self.architecture == "opaque"
        if opaque:
            chain = self._groom_opaque(demand)
        else:
            routes = self.routes(demand.src, demand.dst)
            chain = self._groom_transparent(demand, routes)
        if chain is not None:
            self._carry(chain, demand.rate_gbps)
        else:
            if opaque:
                routes = self.routes(demand.src, demand.dst)
            chain = self._establish(demand, routes)
        if chain is None:
            self._rejected.append(demand)
            return False
        self._accepted.append(demand)
        self._assignments.append((demand, chain))
        return True

    # -- grooming -----------------------------------------------------------

    def _carry(self, chain: tuple[int, ...], rate: int) -> None:
        """Load a groomed chain with `rate` and update the grooming indexes."""
        opaque = self.architecture == "opaque"
        lps, spare, by_ends, max_spare = self._lps, self._spare, self._by_ends, self._max_spare
        for lp_id in chain:
            lp = lps[lp_id]
            lp.carried_gbps += rate
            before = spare[lp_id]
            spare[lp_id] = left = before - rate
            u, v = lp.nodes[0], lp.nodes[-1]
            if not left:
                drops = by_ends[u]
                ids = drops[v]
                ids.remove(lp_id)
                if not ids:
                    del drops[v]
                    if not drops:
                        del by_ends[u]
            if opaque and before == max_spare[u][v]:
                # the link's largest spare falls only if this lightpath held it
                ids = by_ends.get(u, {}).get(v, ())
                max_spare[u][v] = max([spare[i] for i in ids], default=0)

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
        # it; links come in both directions, so dst's successors feed it. An
        # unknown node has neither: the route lookup after it raises
        if (max(max_spare.get(src, {}).values(), default=0) < rate
                or not any(max_spare[u].get(dst, 0) >= rate for u in adj.get(dst, ()))):
            return None
        heappush, heappop = heapq.heappush, heapq.heappop
        inf = math.inf
        pushes = 0
        dist = {src: 0.0}
        pred: dict[str, str] = {}
        heap = [(0.0, 0, src)]
        while heap:
            d, _, u = heappop(heap)
            if d > dist[u]:  # a node pops at its distance once; lengths are positive
                continue
            if u == dst:
                break
            lengths = adj[u]
            for v, spare in max_spare[u].items():
                if spare >= rate:
                    nd = d + lengths[v]
                    if nd < dist.get(v, inf):
                        dist[v] = nd
                        pred[v] = u
                        pushes += 1
                        heappush(heap, (nd, pushes, v))
        else:
            return None
        spare, by_ends = self._spare, self._by_ends
        chain = []
        while dst != src:
            u = pred[dst]
            for i in by_ends[u][dst]:
                if spare[i] >= rate:
                    chain.append(i)
                    break
            dst = u
        chain.reverse()
        return tuple(chain)

    def _groom_transparent(self, demand: Demand,
                           routes: tuple[tuple[str, ...], ...]) -> tuple[int, ...] | None:
        rate = demand.rate_gbps
        by_ends, spare = self._by_ends, self._spare
        for route in routes:
            last = len(route) - 1
            i = 0
            chain: list[int] = []
            while i < last:
                drops = by_ends.get(route[i])
                if drops is None:  # no live lightpath starts here
                    break
                # the lightpath reaching furthest along the route; among
                # those, the first created
                best = None
                for j in range(last, i, -1):
                    ids = drops.get(route[j])
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

    def _establish(self, demand: Demand,
                   routes: tuple[tuple[str, ...], ...]) -> tuple[int, ...] | None:
        """New lightpaths along the first route whose segments all reach and
        all find a channel; None when no route does."""
        rate = demand.rate_gbps
        rmax = self._max_length(rate)
        if rmax is None:
            return None
        route_links, used = self.topology.route_links, self._channel_used
        for route in routes:
            labels, lengths, total = route_links[route]
            segments = self._segment(lengths, total, rmax)
            if segments is None:
                continue
            channels = []
            for i, j, _ in segments:
                # first fit: the lowest channel free on every link of the segment
                taken = 0
                for e in labels[i:j]:
                    taken |= used[e]
                ch = (~taken & (taken + 1)).bit_length() - 1  # lowest clear bit
                if ch >= self.n_channels:
                    break
                channels.append(ch)
            else:
                return self._create(route, labels, segments, channels, rate)
        return None

    def _segment(self, lengths: tuple[float, ...], total: float,
                 rmax: float) -> list[tuple[int, int, float]] | None:
        """Cut a route, given its link lengths and their sum in path order,
        into lightpaths of length <= rmax: one per link when opaque; when
        transparent the fewest, each extended as far as reach allows before
        cutting. Each lightpath is (first link, end link, length summed in
        path order)."""
        if self.architecture == "opaque":
            if max(lengths) > rmax:  # a link beyond reach at this rate
                return None
            return [(i, i + 1, w) for i, w in enumerate(lengths)]
        if total <= rmax:  # every partial sum is at most the whole
            return [(0, len(lengths), total)]
        segments = []
        i = 0
        n = len(lengths)
        while i < n:
            acc = 0.0
            j = i
            while j < n and acc + lengths[j] <= rmax:
                acc += lengths[j]
                j += 1
            if j == i:  # single link beyond reach at this rate
                return None
            segments.append((i, j, acc))
            i = j
        return segments

    def _create(self, route: tuple[str, ...], labels: tuple[str, ...],
                segments: list[tuple[int, int, float]], channels: list[int],
                carried: int) -> tuple[int, ...]:
        """One new lightpath per segment of `route`, on its channel and at the
        line rate its length allows, carrying `carried`; returns their ids."""
        lps, spare_of, used, by_ends = self._lps, self._spare, self._channel_used, self._by_ends
        opaque = self.architecture == "opaque"
        max_spare, hops, line_rate = self._max_spare, self.topology.link_hops, self._line_rate
        ids = []
        for (i, j, length), channel in zip(segments, channels):
            lp_id = len(lps)
            # single-hop lightpaths share their link's node pair and label tuple
            nodes, links = hops[labels[i]] if opaque else (route[i:j + 1], labels[i:j])
            rate = line_rate(length)
            lp = Lightpath(lp_id, nodes, length, rate, channel, carried)
            lp.links = links  # fills the cached property with the route's labels
            lps.append(lp)
            spare = rate - carried
            spare_of.append(spare)
            bit = 1 << channel
            for e in links:
                used[e] |= bit
            u, v = nodes[0], nodes[-1]
            if opaque:
                succ = max_spare[u]
                succ[v] = max(succ.get(v, 0), spare)
            if spare:
                by_ends.setdefault(u, {}).setdefault(v, []).append(lp_id)
            ids.append(lp_id)
        return tuple(ids)


def provision(topology: Topology, demands, architecture: str,
              k: int = DEFAULT_K_PATHS,
              n_channels: int = CHANNELS_PER_FIBER) -> LightpathSet:
    """Provision a demand set (DemandSet or iterable of Demand) in order."""
    prov = Provisioner(topology, architecture, k=k, n_channels=n_channels)
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
    write_csv(path, ["lp_id", "add_node", "drop_node", "route",
                     "rate_gbps", "channel", "carried_gbps"],
              ([lp.lp_id, lp.nodes[0], lp.nodes[-1], "->".join(lp.nodes),
                lp.rate_gbps, lp.channel, lp.carried_gbps] for lp in lightpaths),
              config_hash)


def read_lightpaths_csv(path: str | Path, topology: Topology) -> list[Lightpath]:
    """Lightpaths of a dump, each row checked as `provision` writes it: an
    integer lp_id no earlier row has, a route of two or more nodes that
    visits each node once, add_node and drop_node its first and last nodes,
    a channel >= 0, a rate of `RATE_REACH_ROWS` and 0 < carried <= rate. A
    row that breaks one is a ValueError naming the file, the lp_id and the
    column; a route off `topology` raises TopologyError."""
    rates = [rate for rate, _ in RATE_REACH_ROWS]
    lps = []
    seen: set[int] = set()
    for _, row in read_csv(path, ("lp_id", "add_node", "drop_node", "route", "rate_gbps",
                                  "channel", "carried_gbps")):
        where = f"lightpath {row['lp_id']!r}"
        nodes = tuple(row["route"].split("->"))
        if len(nodes) < 2:
            raise ValueError(f"{path}: {where} has route {row['route']!r}, "
                             "not two or more nodes joined by '->'")
        if len(set(nodes)) < len(nodes):
            raise ValueError(f"{path}: {where} has route {row['route']!r}, "
                             "not a route that visits each node once")
        for column, end, node in (("add_node", "first", nodes[0]),
                                  ("drop_node", "last", nodes[-1])):
            if row[column] != node:
                raise ValueError(f"{path}: {where} has {column} {row[column]!r}, "
                                 f"not the route's {end} node")
        rate = int_cell(path, where, row, "rate_gbps", f"one of {rates}", rates.__contains__)
        lp_id = int_cell(path, where, row, "lp_id", "an integer unused by earlier rows",
                         lambda v: v not in seen)
        seen.add(lp_id)
        lps.append(Lightpath(
            lp_id=lp_id, nodes=nodes,
            length_km=topology.route_links[nodes].length_km, rate_gbps=rate,
            channel=int_cell(path, where, row, "channel", "an integer >= 0", lambda v: v >= 0),
            carried_gbps=int_cell(path, where, row, "carried_gbps", f"an integer in 1..{rate}",
                                  lambda v: 0 < v <= rate)))
    return lps
