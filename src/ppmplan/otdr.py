"""Fiber-monitoring baseline: OTDR module counts per node degree and inline span.

One OTDR card serves four fiber links, so a node of undirected degree d needs
ceil(2d/4) cards; a link of s spans needs max(0, ceil((s-2)/2)) inline cards
because the two end spans are covered from the nodes. The inline term is
counted once per bidirectional pair (one card covers both directions).
"""

from __future__ import annotations

from dataclasses import dataclass

from .topology import Topology, TopologyError, ceil_div, span_count


def undirected_label(a: str, b: str) -> str:
    return f"{a}<->{b}"


@dataclass(frozen=True)
class OtdrPlan:
    per_node: dict[str, int]
    per_link_inline: dict[str, int]

    @property
    def total(self) -> int:
        return sum(self.per_node.values()) + sum(self.per_link_inline.values())

    def to_json_dict(self) -> dict:
        return {
            "per_node": dict(self.per_node),
            "per_link": dict(self.per_link_inline),
            "total": self.total,
        }


def count_otdrs(topology: Topology, lit_links=None) -> OtdrPlan:
    """OTDR plan for the network; unlit links are skipped when `lit_links` is given.

    `lit_links` holds directed labels ("a->b"); an undirected edge is lit when
    either direction is. The degree term also counts only lit links, matching
    deployment tied to monitored fibers.
    """
    lit = None
    if lit_links is not None:
        ends = {l.label: frozenset((l.src, l.dst)) for l in topology.links}
        lit = set()
        for label in lit_links:
            if label not in ends:
                raise TopologyError(f"lit link {label!r} not in topology {topology.name!r}")
            lit.add(ends[label])
    degrees: dict[str, int] = {n: 0 for n in topology.nodes}
    inline: dict[str, int] = {}
    for a, b, length in topology.undirected_edges:
        if lit is not None and frozenset((a, b)) not in lit:
            continue
        degrees[a] += 1
        degrees[b] += 1
        spans = span_count(length, topology.span_length_km)
        inline[undirected_label(a, b)] = max(0, ceil_div(spans - 2, 2))
    per_node = {n: ceil_div(2 * d, 4) for n, d in degrees.items()}
    return OtdrPlan(per_node=per_node, per_link_inline=inline)
