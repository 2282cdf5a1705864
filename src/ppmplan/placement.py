"""Monitoring-placement core: cover instances and the greedy solver.

A cover instance groups established lightpaths by identical physical route;
placing a monitor on one lightpath of a group raises the achieved
monitors-per-link count on every link of that route. Solvers pick per-group
monitor counts p (0 <= p <= group size) that bring every link to its
requirement, min(gamma, max coverage), with as few monitors as they can.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class InstanceError(ValueError):
    """Invalid cover-instance data."""


def route_key(links: tuple[str, ...]) -> str:
    """Display key for a route: node chain when labels parse as 'u->v'."""
    nodes: list[str] = []
    for lnk in links:
        if "->" not in lnk:
            return "|".join(links)
        u, v = lnk.split("->", 1)
        if not nodes:
            nodes = [u, v]
        elif nodes[-1] == u:
            nodes.append(v)
        else:
            return "|".join(links)
    return "->".join(nodes)


@dataclass(frozen=True)
class PathGroup:
    """Distinct physical route with its lightpath multiplicity."""

    links: tuple[str, ...]
    count: int

    def __post_init__(self):
        if not self.links:
            raise InstanceError("path group with empty route")
        if len(set(self.links)) != len(self.links):
            raise InstanceError(f"route repeats a link: {self.links}")
        if self.count < 1:
            raise InstanceError(f"path group multiplicity must be >= 1, got {self.count}")

    @cached_property
    def key(self) -> str:
        """`route_key` of the route, computed when first read."""
        return route_key(self.links)

    @property
    def hops(self) -> int:
        return len(self.links)


@dataclass(frozen=True)
class CoverInstance:
    links: tuple[str, ...]
    groups: tuple[PathGroup, ...]
    gamma: int
    max_hops: int = field(init=False, repr=False, compare=False)
    # coverage indicator (|links| x |groups|) in column form, HiGHS's
    # (start, index): group j covers links rows[starts[j]:starts[j + 1]], ascending
    delta: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.gamma < 1:
            raise InstanceError(f"gamma must be >= 1, got {self.gamma}")
        if len(self.link_index) != len(self.links):
            raise InstanceError("duplicate link labels")
        # one pass resolves every route's link indices: it is the unknown-link
        # check, and it gives `delta` its rows and `max_hops` its value
        index = self.link_index
        try:
            rows = [index[e] for g in self.groups for e in g.links]
            clean = len({g.links for g in self.groups}) == len(self.groups)
        except KeyError:
            clean = False
        if not clean:
            self._reject_routes()
        hops = [len(g.links) for g in self.groups]
        object.__setattr__(self, "max_hops", max(hops, default=0))
        # sorting group * |links| + row puts each group's rows in ascending
        # order and leaves the groups where they are
        offset = np.repeat(np.arange(len(hops), dtype=np.int64) * len(self.links), hops)
        rows = np.sort(np.array(rows, dtype=np.int64) + offset) - offset
        object.__setattr__(self, "delta", (np.cumsum([0] + hops, dtype=np.int32),
                                           rows.astype(np.int32)))

    def _reject_routes(self) -> None:
        """Raise for the first route that repeats an earlier one or uses an
        unknown link."""
        seen_routes: set[tuple[str, ...]] = set()
        for g in self.groups:
            if g.links in seen_routes:
                raise InstanceError(f"duplicate route {g.links}")
            seen_routes.add(g.links)
            missing = set(g.links) - self.link_index.keys()
            if missing:
                raise InstanceError(f"route uses unknown links {sorted(missing)}")

    @cached_property
    def link_index(self) -> dict[str, int]:
        return {e: i for i, e in enumerate(self.links)}

    # group_links and link_groups are built on each read, not cached: each
    # solver reads them once, and an instance that is kept holds only `delta`
    @property
    def group_links(self) -> list[list[int]]:
        """Per group, the indices of its route's links, ascending."""
        starts, rows = (a.tolist() for a in self.delta)
        return [rows[a:b] for a, b in zip(starts, starts[1:])]

    @property
    def link_groups(self) -> list[list[int]]:
        """Per link, the indices of the groups whose route uses it, ascending."""
        starts, rows = self.delta
        # a stable sort by link keeps each link's groups in group order
        by_link = np.argsort(rows, kind="stable")
        groups = np.repeat(np.arange(len(self.groups)), np.diff(starts))[by_link].tolist()
        ends = np.cumsum(np.bincount(rows, minlength=len(self.links))).tolist()
        return [groups[a:b] for a, b in zip([0] + ends, ends)]

    def coverage(self, p) -> np.ndarray:
        """`delta @ p`: per link, the sum of p over the groups covering it."""
        starts, rows = self.delta
        # bincount sums in float64, exact for integer sums below 2**53
        return np.bincount(rows, np.repeat(p, np.diff(starts)),
                           minlength=len(self.links)).astype(np.int64)

    @cached_property
    def counts(self) -> np.ndarray:
        return np.array([g.count for g in self.groups], dtype=np.int64)

    @cached_property
    def max_coverage(self) -> np.ndarray:
        """Per-link coverage when every lightpath gets a monitor."""
        return self.coverage(self.counts)

    @cached_property
    def requirement(self) -> np.ndarray:
        """Per-link monitors the placement model asks for: min(gamma, max coverage).
        It is 0 exactly on the links that no route covers."""
        return np.minimum(self.gamma, self.max_coverage)

    @cached_property
    def greedy(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(p, selection) of the greedy, solved once and shared by
        `solve_greedy` and the exact solver.

        A single-hop instance (every opaque one) needs no greedy run: each
        link has at most one group, so the greedy takes min(count, gamma) of
        each group, and since a pick only lowers its own group's availability
        it takes them group by group in (count, group index) order."""
        if self.max_hops == 1:
            p = tuple(min(g.count, self.gamma) for g in self.groups)
            order = sorted(range(len(p)), key=lambda j: (self.groups[j].count, j))
            return p, tuple(j for j in order for _ in range(p[j]))
        p, selection = _greedy_counts(self)
        return tuple(p), tuple(selection)

    @property
    def min_unsatisfied(self) -> int:
        """Floor on unsatisfied coverage; reached at p = counts (coverage is monotone)."""
        return int((self.gamma - self.requirement).sum())


def make_instance(links, groups, gamma: int) -> CoverInstance:
    """Validated CoverInstance; drops inert zero-multiplicity groups.

    `groups` entries are (links, count) pairs or PathGroup objects.
    """
    built: list[PathGroup] = []
    for g in groups:
        if isinstance(g, PathGroup):
            pg = g
        else:
            route, count = g
            if count == 0:
                continue
            pg = PathGroup(tuple(route), int(count))
        built.append(pg)
    return CoverInstance(links=tuple(links), groups=tuple(built), gamma=int(gamma))


def build_cover_instance(lightpaths, topology, gamma: int) -> CoverInstance:
    """Cover instance over all directed links of `topology` from established
    lightpaths (a LightpathSet or an iterable of Lightpath / link-tuple routes)."""
    if hasattr(lightpaths, "lightpaths"):
        lightpaths = lightpaths.lightpaths
    tally = Counter(tuple(lp.links) if hasattr(lp, "links") else tuple(lp)
                    for lp in lightpaths)
    return make_instance(topology.link_labels, sorted(tally.items()), gamma)


@dataclass(frozen=True)
class PlacementSolution:
    p: dict[str, int]
    x: dict[str, int]
    total_monitors: int
    unsatisfied: int
    optimal: bool
    selection: tuple[int, ...] | None = None

    def to_json_dict(self) -> dict:
        return {
            "p": dict(self.p),
            "x": dict(self.x),
            "unsatisfied": self.unsatisfied,
            "monitors": self.total_monitors,
            "optimal": self.optimal,
        }


def solution_from_counts(instance: CoverInstance, p_vec, optimal: bool,
                         selection: tuple[int, ...] | None = None) -> PlacementSolution:
    """Derive achieved coverage and the unsatisfied total from p."""
    p = np.asarray(p_vec, dtype=np.int64)
    if p.shape != (len(instance.groups),):
        raise InstanceError("p vector length mismatch")
    if np.any(p < 0) or np.any(p > instance.counts):
        raise InstanceError("p out of bounds")
    x = np.minimum(instance.gamma, instance.coverage(p))
    return PlacementSolution(
        p={g.key: c for g, c in zip(instance.groups, p.tolist()) if c > 0},
        x=dict(zip(instance.links, x.tolist())),
        total_monitors=int(p.sum()),
        unsatisfied=int((instance.gamma - x).sum()),
        optimal=optimal,
        selection=selection,
    )


def verify_solution(instance: CoverInstance, sol: PlacementSolution) -> bool:
    """Feasibility of a reported solution against the model constraints:
    every `p` key names a group and holds a positive int count, and the `x`
    keys are exactly the instance's links."""
    # route_key, not g.key: reading g.key would keep a key (and a __dict__)
    # on every group of the instance, where solutions key only the used ones
    index = {route_key(g.links): j for j, g in enumerate(instance.groups)}
    p = np.zeros(len(instance.groups), dtype=np.int64)
    for key, count in sol.p.items():
        if key not in index or type(count) is not int or count < 1:
            return False
        p[index[key]] = count
    if np.any(p > instance.counts) or sol.x.keys() != set(instance.links):
        return False
    x = np.array([sol.x[e] for e in instance.links], dtype=np.int64)
    if np.any(x != np.minimum(instance.gamma, instance.coverage(p))):
        return False
    return (sol.unsatisfied == int((instance.gamma - x).sum())
            and sol.total_monitors == int(p.sum()))


def greedy_cost(z_values) -> float:
    """Harmonic tie-break cost over covered-link availabilities: 1 / sum(1/z).

    Only strictly positive availabilities participate; links with no
    remaining coverage need contribute nothing. The reciprocals are added
    left to right in the order given, on every Python version.
    """
    inv = 0.0
    for z in z_values:
        if z > 0:
            inv += 1.0 / z
    if inv == 0:
        return math.inf
    return 1.0 / inv


def solve_greedy(instance: CoverInstance) -> PlacementSolution:
    """Iterative covering heuristic.

    Picks, while any link is below the required count, the group covering
    the most still-needy links. Ties go to the smallest `greedy_cost` over
    the group's still-needy links with positive availability, summed in
    link-index order and compared by exact equality, then to the lowest
    group index. A group's tie cost is kept until a pick changes the
    availability or need of one of its links, and only then computed again.
    A pick costs time in proportion to the tied groups and to the links and
    covering groups it touches, not to |links| x |groups|. The placement is
    the instance's cached `greedy`.
    """
    p, selection = instance.greedy
    return solution_from_counts(instance, p, optimal=False, selection=selection)


def _greedy_counts(instance: CoverInstance) -> tuple[list[int], list[int]]:
    """Per-group monitor counts and pick sequence of the greedy."""
    gamma = instance.gamma
    rows, covering = instance.group_links, instance.link_groups
    counts = instance.counts.tolist()
    z = instance.max_coverage.tolist()  # availability: lightpaths left on a needy link
    need = [gamma] * len(instance.links)
    n_needy = len(need)
    v = [len(row) for row in rows]  # still-needy links per group; 0 once used up
    # live groups by v; v only falls, so the top non-empty bucket only falls
    bucket: list[set[int]] = [set() for _ in range(max(v, default=0) + 1)]
    for j, vj in enumerate(v):
        bucket[vj].add(j)
    top = len(bucket) - 1
    cost = [0.0] * len(rows)  # tie cost, kept until a pick changes one of the group's links
    stale = set(range(len(rows)))  # groups whose tie cost must be computed again
    p = [0] * len(rows)
    selection: list[int] = []

    while n_needy:
        while top and not bucket[top]:
            top -= 1
        if top == 0:
            break
        if len(bucket[top]) == 1:
            (ls,) = bucket[top]
        else:
            tied = bucket[top]
            for j in stale & tied:
                cost[j] = greedy_cost([z[e] for e in rows[j] if need[e]])
            stale -= tied
            best = min(map(cost.__getitem__, tied))
            ls = min(j for j in tied if cost[j] == best)
        selection.append(ls)
        p[ls] += 1
        for e in rows[ls]:
            if need[e]:
                need[e] -= 1
                z[e] -= 1
                stale.update(covering[e])
                if not need[e]:
                    n_needy -= 1
                    for j in covering[e]:
                        if v[j]:  # 0 here only for used-up groups, out of the buckets
                            bucket[v[j]].remove(j)
                            v[j] -= 1
                            bucket[v[j]].add(j)
        if p[ls] == counts[ls]:
            bucket[v[ls]].remove(ls)
            v[ls] = 0
    return p, selection

