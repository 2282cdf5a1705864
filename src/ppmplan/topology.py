"""Bidirectional optical-network topologies.

Topologies are loaded from JSON files listing undirected edges (both link
directions are materialized), or generated as random Gabriel graphs. Link
span counts and node degrees drive the monitoring baseline. Each Topology
object also keeps the table of candidate routes (k shortest loopless paths,
found by one best-first search) that provisioning asks it for, and beside it
one link record per route: the route's link labels and link lengths, resolved
once. Every user of one object shares both. Routes are ordered by length,
summed link by link in path order, then by the tuple of node names, and the
search pushes and pops the name tuples themselves.
"""

from __future__ import annotations

import heapq
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .files import is_number, write_json

DEFAULT_SPAN_KM = 80.0
DEFAULT_EXTENT_KM = 1000.0


class TopologyError(ValueError):
    """Malformed topology data: schema violations, bad lengths, unknown nodes."""


def ceil_div(a: int, b: int) -> int:
    """Ceiling of a/b for integers with positive b."""
    return -(-a // b)


def span_count(length_km: float, span_length_km: float) -> int:
    """Number of amplifier spans on a link: ceil(length / span length)."""
    if not 0 < length_km < math.inf:
        raise TopologyError(f"link length must be positive and finite, got {length_km}")
    if not 0 < span_length_km < math.inf:
        raise TopologyError(f"span length must be positive and finite, got {span_length_km}")
    return max(1, math.ceil(length_km / span_length_km))


@dataclass(frozen=True)
class DirectedLink:
    src: str
    dst: str
    length_km: float
    spans: int

    @property
    def label(self) -> str:
        return f"{self.src}->{self.dst}"


def link_label(src: str, dst: str) -> str:
    return f"{src}->{dst}"


def _sum_in_order(values) -> float:
    """Left-to-right float sum. Python 3.12's sum() compensates float
    rounding, so on 3.12 it can differ from the sums the route search adds
    up link by link."""
    total = 0.0
    for v in values:
        total += v
    return total


class RouteLinks(NamedTuple):
    """A route's directed link labels and link lengths in path order, and
    its length summed in that order."""
    labels: tuple[str, ...]
    lengths: tuple[float, ...]
    length_km: float


class RouteLinkTable(dict):
    """RouteLinks per route of one topology, each resolved on its first
    lookup `table[route]`; a route along a missing link raises
    TopologyError."""

    def __init__(self, link_lengths: dict[str, dict[str, float]], name: str):
        super().__init__()
        self.link_lengths = link_lengths
        self.name = name

    def __missing__(self, route: tuple[str, ...]) -> RouteLinks:
        hops = tuple(zip(route, route[1:]))
        try:
            lengths = tuple(self.link_lengths[a][b] for a, b in hops)
        except KeyError:
            raise TopologyError(f"route {route} leaves topology {self.name!r}") from None
        record = self[route] = RouteLinks(tuple(link_label(a, b) for a, b in hops),
                                          lengths, _sum_in_order(lengths))
        return record


@dataclass(frozen=True)
class Topology:
    """Immutable directed-link view of a bidirectional fiber network."""

    name: str
    span_length_km: float
    nodes: tuple[str, ...]
    links: tuple[DirectedLink, ...]

    @cached_property
    def _link_map(self) -> dict[tuple[str, str], DirectedLink]:
        return {(l.src, l.dst): l for l in self.links}

    @cached_property
    def link_lengths(self) -> dict[str, dict[str, float]]:
        """Per node, each successor and the length of the link to it, in
        link order."""
        adj: dict[str, dict[str, float]] = {n: {} for n in self.nodes}
        for l in self.links:
            adj[l.src][l.dst] = l.length_km
        return adj

    @cached_property
    def _ids(self) -> dict[str, int]:
        """Integer id per node, its index in `nodes`: the index of the
        distance tables and of `_id_lengths`."""
        return {n: i for i, n in enumerate(self.nodes)}

    @cached_property
    def _id_lengths(self) -> list[list[tuple[int, float]]]:
        """`link_lengths` on node ids: per id, each successor id and the
        length of the link to it, in link order."""
        ids = self._ids
        adj: list[list[tuple[int, float]]] = [[] for _ in ids]
        for l in self.links:
            adj[ids[l.src]].append((ids[l.dst], l.length_km))
        return adj

    @cached_property
    def _route_table(self) -> dict[tuple[str, str, int], tuple[tuple[str, ...], ...]]:
        return {}

    @cached_property
    def route_links(self) -> RouteLinkTable:
        """Per route (a node tuple), its link labels and link lengths, and
        its length summed in path order. A route is resolved on its first
        lookup and kept on this object, beside the route table."""
        return RouteLinkTable(self.link_lengths, self.name)

    @cached_property
    def _distance_table(self) -> dict[str, list[float]]:
        return {}

    @cached_property
    def undirected_edges(self) -> tuple[tuple[str, str, float], ...]:
        """One (a, b, length) entry per bidirectional pair, in link order."""
        seen: set[tuple[str, str]] = set()
        edges = []
        for l in self.links:
            a, b = sorted((l.src, l.dst), key=self._ids.__getitem__)
            if (a, b) not in seen:
                seen.add((a, b))
                edges.append((a, b, l.length_km))
        return tuple(edges)

    @cached_property
    def link_labels(self) -> tuple[str, ...]:
        return tuple(l.label for l in self.links)

    @cached_property
    def link_hops(self) -> dict[str, tuple[tuple[str, str], tuple[str]]]:
        """Per link label, the link's node pair and a one-label tuple: the
        nodes and links of a single-hop lightpath on it, shared by all."""
        return {l.label: ((l.src, l.dst), (l.label,)) for l in self.links}

    def link(self, src: str, dst: str) -> DirectedLink:
        try:
            return self._link_map[(src, dst)]
        except KeyError:
            raise TopologyError(f"no link {src}->{dst} in topology {self.name!r}") from None

    def neighbors(self, node: str) -> tuple[str, ...]:
        if node not in self.link_lengths:
            raise TopologyError(f"unknown node {node!r} in topology {self.name!r}")
        return tuple(self.link_lengths[node])

    def max_link_length(self) -> float:
        return max(l.length_km for l in self.links) if self.links else 0.0

    def route_length(self, nodes) -> float:
        """Length of a node chain, summed link by link in path order."""
        adj = self.link_lengths
        return _sum_in_order(adj[a][b] for a, b in zip(nodes, nodes[1:]))

    def k_shortest_routes(self, src: str, dst: str, k: int) -> tuple[tuple[str, ...], ...]:
        """The k shortest loopless routes src -> dst, ordered by (length, node
        names); fewer when fewer exist. Lengths are summed link by link in
        path order, and equal lengths are ordered by the tuple of node names,
        compared as strings. Computed once per (src, dst, k) by a best-first
        search over loopless paths, and kept on this object."""
        key = (src, dst, k)
        routes = self._route_table.get(key)
        if routes is None:
            if k < 1:
                raise ValueError(f"k must be >= 1, got {k}")
            for node in (src, dst):
                self.neighbors(node)  # raises TopologyError for an unknown node
            routes = self._route_table[key] = _best_first(self, src, dst, k)
        return routes

    def _distances_to(self, dst: str) -> list[float]:
        """Shortest distance to node dst from every node, by node id (inf
        where dst cannot be reached)."""
        dist = self._distance_table.get(dst)
        if dist is None:
            dist = self._distance_table[dst] = _distances(self._id_lengths, self._ids[dst], set())
        return dist


def _distances(adj: list[list[tuple[int, float]]], dst: int, avoid: set[int]) -> list[float]:
    """Shortest distance to node id dst from every node id, over paths that
    pass through no node id in `avoid` (inf where there is none). `adj` gives
    per node id each successor id and the length of the link to it; every
    link has a reverse of the same length, so the search walks it from dst."""
    dist = [math.inf] * len(adj)
    dist[dst] = 0.0
    heap = [(0.0, dst)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for u, w in adj[v]:
            if d + w < dist[u] and u not in avoid:
                dist[u] = d + w
                heapq.heappush(heap, (d + w, u))
    return dist


# Relative to the k-th route length: the best-first search keeps every path
# that ties with it although its sums with the distances to dst round
# differently from the route's own length.
_BOUND_SLACK = 1e-9


def _best_first(topology: Topology, src: str, dst: str, k: int,
                prune: bool = False) -> tuple[tuple[str, ...], ...]:
    """The k shortest loopless routes, found by a best-first search over
    loopless paths from src, each a tuple of node names.

    Paths pop in order of their length plus an estimate of the distance from
    their end to dst, a lower bound on any route that extends them, and then
    of their node names; a path popped at dst is a route. Once k routes are
    found, a path longer than the k-th of them can neither make the cut nor
    tie with it, so the search drops such paths and stops when the next pop
    is one. Every route up to the k-th length is thus found, and the routes
    are sorted by (length, node names) and cut to k. Lengths are summed link
    by link from src, as `route_length` sums them.

    The estimate is the distance in the whole graph, which ignores the
    path's own nodes. Where fewer than k routes exist, or a path has cut
    itself off from dst, the search can pop a great many paths that never
    reach dst. After 2k pops per node it starts again with `prune`, and
    estimates each child of a popped path by its distance to dst avoiding
    the path's nodes: one graph search per pop, on the few pairs that need
    it. A child that cannot reach dst is dropped, and every other path pops
    at the length of the shortest route that extends it. Each path that pass
    expands is thus a prefix of a route no longer than the k-th (or tied
    with it), so it needs no pop limit.
    """
    adj, ids, names = topology._id_lengths, topology._ids, topology.nodes
    to_dst = topology._distances_to(dst)
    if to_dst[ids[src]] == math.inf:
        return ()
    heappush, heappop = heapq.heappush, heapq.heappop
    pops_left = math.inf if prune else 2 * k * len(adj)
    heap = [(to_dst[ids[src]], (src,), 0)]
    found: list[tuple[float, tuple[str, ...]]] = []
    # until k routes are found, any path that can still reach dst is kept
    bound = sys.float_info.max
    while heap:
        f, path, length = heappop(heap)
        if f > bound:
            break
        pops_left -= 1
        if pops_left < 0:
            return _best_first(topology, src, dst, k, prune=True)
        u = path[-1]
        if u == dst:
            found.append((length, path))
            if len(found) >= k:
                found.sort()
                bound = found[k - 1][0] * (1 + _BOUND_SLACK)
            continue
        ahead = _distances(adj, ids[dst], {ids[n] for n in path}) if prune else to_dst
        for i, w in adj[ids[u]]:
            v = names[i]
            if v in path:
                continue
            reached = length + w
            estimate = reached + ahead[i]
            if estimate <= bound:
                heappush(heap, (estimate, path + (v,), reached))
    found.sort()
    return tuple(p for _, p in found[:k])


def _build(name: str, span_length_km: float,
           nodes: list[str], edges: list[tuple[str, str, float]]) -> Topology:
    if not 0 < span_length_km < math.inf:
        raise TopologyError(f"span_length_km must be positive and finite, got {span_length_km}")
    if len(set(nodes)) != len(nodes):
        raise TopologyError("duplicate node ids")
    for node in nodes:
        if "->" in node:  # the separator of link labels and lightpath routes
            raise TopologyError(f"node {node!r} contains '->'")
    node_set = set(nodes)
    seen: set[frozenset[str]] = set()
    links: list[DirectedLink] = []
    for a, b, length in edges:
        if a not in node_set or b not in node_set:
            raise TopologyError(f"edge {a}-{b} references unknown node")
        if a == b:
            raise TopologyError(f"self-loop on node {a!r}")
        key = frozenset((a, b))
        if key in seen:
            raise TopologyError(f"duplicate or asymmetric edge {a}-{b}")
        seen.add(key)
        if not 0 < length < math.inf:
            raise TopologyError(f"edge {a}-{b} length must be positive and finite, got {length}")
        spans = span_count(length, span_length_km)
        links.append(DirectedLink(a, b, float(length), spans))
        links.append(DirectedLink(b, a, float(length), spans))
    return Topology(name=name, span_length_km=float(span_length_km),
                    nodes=tuple(nodes), links=tuple(links))


def topology_from_dict(data: dict, span_length_km: float | None = None) -> Topology:
    """Build a Topology from the JSON schema dict; both directions materialized."""
    try:
        name = data["name"]
        nodes = data["nodes"]
        raw_edges = data["edges"]
    except (KeyError, TypeError) as exc:
        raise TopologyError(f"topology schema missing field: {exc}") from None
    for key, value in (("nodes", nodes), ("edges", raw_edges)):
        if not isinstance(value, list):
            raise TopologyError(f"{key} must be a list, got {value!r}")
    span = span_length_km if span_length_km is not None else data.get("span_length_km", DEFAULT_SPAN_KM)
    edges = []
    for e in raw_edges:
        try:
            a, b, length = str(e["a"]), str(e["b"]), e["length_km"]
        except (KeyError, TypeError) as exc:
            raise TopologyError(f"bad edge entry {e!r}: {exc}") from None
        if not is_number(length):
            raise TopologyError(f"edge {a}-{b} length_km must be a number, got {length!r}")
        edges.append((a, b, float(length)))
    if not is_number(span):
        raise TopologyError(f"span_length_km must be a number, got {span!r}")
    return _build(str(name), float(span), [str(n) for n in nodes], edges)


def load_topology(path: str | Path, span_length_km: float | None = None) -> Topology:
    """Load and validate a topology JSON file.

    `span_length_km`, when given, overrides the file's value.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise TopologyError(f"invalid JSON in {path}: {exc}") from None
    return topology_from_dict(data, span_length_km)


def topology_to_dict(topology: Topology) -> dict:
    return {
        "name": topology.name,
        "span_length_km": topology.span_length_km,
        "nodes": list(topology.nodes),
        "edges": [{"a": a, "b": b, "length_km": length}
                  for a, b, length in topology.undirected_edges],
    }


def save_topology(topology: Topology, path: str | Path) -> None:
    write_json(path, topology_to_dict(topology))


def bundled_topology(name: str, span_length_km: float | None = None) -> Topology:
    """Load one of the packaged reference datasets ('j14' or 'n14')."""
    ref = resources.files("ppmplan.data").joinpath(f"{name.lower()}.json")
    if not ref.is_file():
        raise TopologyError(f"no bundled dataset named {name!r}")
    return topology_from_dict(json.loads(ref.read_text(encoding="utf-8")), span_length_km)


def resolve_topology(name_or_path: str | Path, span_length_km: float | None = None) -> Topology:
    """A bundled dataset when given its name ('j14' or 'n14'), else a topology JSON file."""
    if str(name_or_path).lower() in ("j14", "n14"):
        return bundled_topology(str(name_or_path), span_length_km)
    return load_topology(name_or_path, span_length_km)


def gabriel_edges(points: np.ndarray) -> list[tuple[int, int]]:
    """Index pairs (i < j) forming the Gabriel graph of 2-D `points`.

    Edge (i, j) is kept iff no third point lies strictly inside the circle
    with diameter ij. Candidates come from the Delaunay triangulation when
    available (the Gabriel graph is one of its subgraphs); degenerate inputs
    fall back to checking all pairs.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n < 2:
        raise TopologyError("need at least 2 points")
    if n == 2:
        return [(0, 1)]
    candidates: set[tuple[int, int]] = set()
    try:
        from scipy.spatial import Delaunay, QhullError

        tri = Delaunay(pts)
        for simplex in tri.simplices:
            for i in range(3):
                a, b = int(simplex[i]), int(simplex[(i + 1) % 3])
                candidates.add((min(a, b), max(a, b)))
    except QhullError:
        candidates = {(i, j) for i in range(n) for j in range(i + 1, n)}
    edges = []
    for i, j in sorted(candidates):
        # strictly inside the diameter circle <=> angle at k is obtuse
        vecs_i = pts[i] - pts
        vecs_j = pts[j] - pts
        dots = np.einsum("ij,ij->i", vecs_i, vecs_j)
        dots[i] = dots[j] = 1.0
        if np.all(dots >= 0):
            edges.append((i, j))
    return edges


def generate_gabriel(n: int, seed: int, extent_km: float = DEFAULT_EXTENT_KM,
                     span_length_km: float = DEFAULT_SPAN_KM) -> Topology:
    """Random Gabriel-graph topology over `n` uniform points in a square."""
    if n < 2:
        raise TopologyError(f"need at least 2 nodes, got {n}")
    if not 0 < extent_km < math.inf:
        raise TopologyError(f"extent_km must be positive and finite, got {extent_km}")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, extent_km, size=(n, 2))
    nodes = [str(i) for i in range(n)]
    edges = []
    for i, j in gabriel_edges(pts):
        length = float(np.hypot(*(pts[i] - pts[j])))
        if length <= 0:
            raise TopologyError("coincident points in Gabriel generation")
        edges.append((nodes[i], nodes[j], length))
    return _build(f"gabriel-n{n}-s{seed}", span_length_km, nodes, edges)
