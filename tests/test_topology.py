import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ppmplan.provisioning import read_lightpaths_csv
from ppmplan.topology import (
    RouteLinks,
    TopologyError,
    bundled_topology,
    gabriel_edges,
    generate_gabriel,
    load_topology,
    save_topology,
    span_count,
    topology_from_dict,
    topology_to_dict,
)

DATA = Path(__file__).parent / "data"


def write_topo(tmp_path, payload):
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(payload))
    return path


class TestLoading:
    def test_two_node_file(self, tmp_path):
        path = write_topo(tmp_path, {
            "name": "t", "span_length_km": 80, "nodes": ["A", "B"],
            "edges": [{"a": "A", "b": "B", "length_km": 100}]})
        topo = load_topology(path)
        assert len(topo.links) == 2
        assert {l.label for l in topo.links} == {"A->B", "B->A"}
        assert all(l.spans == 2 for l in topo.links)  # ceil(100/80)

    def test_span_derivation(self):
        assert span_count(250, 80) == 4
        assert span_count(100, 80) == 2
        assert span_count(80, 80) == 1
        assert span_count(1, 80) == 1

    def test_span_override(self, tmp_path):
        path = write_topo(tmp_path, {
            "name": "t", "span_length_km": 80, "nodes": ["A", "B"],
            "edges": [{"a": "A", "b": "B", "length_km": 100}]})
        topo = load_topology(path, span_length_km=50)
        assert topo.links[0].spans == 2

    def test_bidirectional_symmetry(self, n14):
        for link in n14.links:
            rev = n14.link(link.dst, link.src)
            assert rev.length_km == link.length_km
            assert rev.spans == link.spans

    def test_link_labels_built_once(self, n14):
        assert n14.link_labels == tuple(l.label for l in n14.links)
        assert n14.link_labels is n14.link_labels

    def test_n14_shape(self, n14):
        assert len(n14.nodes) == 14
        assert len(n14.links) == 42

    def test_j14_shape(self, j14):
        assert len(j14.nodes) == 14
        assert len(j14.links) == 44

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(TopologyError):
            load_topology(path)

    def test_missing_fields(self, tmp_path):
        with pytest.raises(TopologyError, match="missing"):
            load_topology(write_topo(tmp_path, {"name": "x"}))

    @pytest.mark.parametrize("field, value, message", [
        ("nodes", "AB", "nodes must be a list, got 'AB'"),
        ("nodes", {"A": 1, "B": 2}, "nodes must be a list, got {'A': 1, 'B': 2}"),
        ("edges", 5, "edges must be a list, got 5"),
        ("span_length_km", None, "span_length_km must be a number, got None"),
        ("span_length_km", "80", "span_length_km must be a number, got '80'"),
        ("span_length_km", False, "span_length_km must be a number, got False"),
        ("edges", [{"a": "A", "b": "B", "length_km": True}],
         "edge A-B length_km must be a number, got True"),
        ("edges", [{"a": "A", "b": "B", "length_km": "100"}],
         "edge A-B length_km must be a number, got '100'"),
        ("edges", [{"a": "A", "b": "B", "length_km": None}],
         "edge A-B length_km must be a number, got None"),
        # JSON reads these integers exactly; as floats they would overflow
        ("span_length_km", 10**400, f"span_length_km must be a number, got {10**400}"),
        ("edges", [{"a": "A", "b": "B", "length_km": 10**400}],
         f"edge A-B length_km must be a number, got {10**400}")])
    def test_field_of_the_wrong_type_rejected(self, field, value, message):
        # a string is not a node list and a bool is not a length
        data = {"name": "t", "span_length_km": 80, "nodes": ["A", "B"],
                "edges": [{"a": "A", "b": "B", "length_km": 100}], field: value}
        with pytest.raises(TopologyError, match=f"^{re.escape(message)}$"):
            topology_from_dict(data)

    def test_bool_span_override_rejected(self):
        data = {"name": "t", "nodes": ["A", "B"], "edges": [{"a": "A", "b": "B", "length_km": 100}]}
        with pytest.raises(TopologyError, match="span_length_km must be a number, got True"):
            topology_from_dict(data, span_length_km=True)
        assert topology_from_dict(data, span_length_km=40).links[0].spans == 3

    def test_nonpositive_length(self, tmp_path):
        path = write_topo(tmp_path, {
            "name": "t", "span_length_km": 80, "nodes": ["A", "B"],
            "edges": [{"a": "A", "b": "B", "length_km": 0}]})
        with pytest.raises(TopologyError, match="length"):
            load_topology(path)

    def test_duplicate_pair_rejected(self, tmp_path):
        path = write_topo(tmp_path, {
            "name": "t", "span_length_km": 80, "nodes": ["A", "B"],
            "edges": [{"a": "A", "b": "B", "length_km": 100},
                      {"a": "B", "b": "A", "length_km": 200}]})
        with pytest.raises(TopologyError, match="duplicate or asymmetric"):
            load_topology(path)

    def test_self_loop_rejected(self, tmp_path):
        path = write_topo(tmp_path, {
            "name": "t", "span_length_km": 80, "nodes": ["A"],
            "edges": [{"a": "A", "b": "A", "length_km": 5}]})
        with pytest.raises(TopologyError, match="self-loop"):
            load_topology(path)

    def test_unknown_endpoint_rejected(self, tmp_path):
        path = write_topo(tmp_path, {
            "name": "t", "span_length_km": 80, "nodes": ["A", "B"],
            "edges": [{"a": "A", "b": "C", "length_km": 5}]})
        with pytest.raises(TopologyError, match="unknown node"):
            load_topology(path)

    @pytest.mark.parametrize("bad", ["B->C", "->", "A->", "->A"])
    def test_node_name_with_arrow_rejected(self, bad):
        # "->" joins link labels and lightpath routes: with a node "B->C" the
        # label "A->B->C" would name the link A -> B->C, and a route through
        # the node could not be split back into its nodes
        with pytest.raises(TopologyError, match=f"node '{bad}' contains '->'"):
            topology_from_dict({"name": "t", "span_length_km": 80, "nodes": ["A", bad, "D"],
                                "edges": [{"a": "A", "b": bad, "length_km": 100},
                                          {"a": bad, "b": "D", "length_km": 100}]})

    def test_node_name_with_single_dash_or_gt_accepted(self):
        topo = topology_from_dict({"name": "t", "span_length_km": 80, "nodes": ["A-", ">B"],
                                   "edges": [{"a": "A-", "b": ">B", "length_km": 100}]})
        assert topo.link_labels == ("A-->>B", ">B->A-")

    def test_save_round_trip(self, tmp_path, j14):
        path = tmp_path / "j14.json"
        save_topology(j14, path)
        again = load_topology(path)
        assert again.links == j14.links
        assert again.nodes == j14.nodes

    def test_unknown_bundled(self):
        with pytest.raises(TopologyError):
            bundled_topology("x99")


# JSON reads 1e400 as inf and NaN as nan; neither is a length
NON_FINITE_TOPOLOGIES = [
    ('"span_length_km": 80', '"length_km": 1e400', "length must be positive and finite"),
    ('"span_length_km": NaN', '"length_km": 100', "span_length_km must be positive and finite"),
    ('"span_length_km": 1e400', '"length_km": 100', "span_length_km must be positive and finite"),
]


def write_raw_topo(tmp_path, span, length):
    path = tmp_path / "topo.json"
    path.write_text('{"name": "t", %s, "nodes": ["A", "B"], '
                    '"edges": [{"a": "A", "b": "B", %s}]}' % (span, length))
    return path


class TestFiniteNumbers:
    @pytest.mark.parametrize("span, length, message", NON_FINITE_TOPOLOGIES)
    def test_non_finite_file_values_rejected(self, tmp_path, span, length, message):
        with pytest.raises(TopologyError, match=message):
            load_topology(write_raw_topo(tmp_path, span, length))

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_span_override_rejected(self, tmp_path, value):
        path = write_raw_topo(tmp_path, '"span_length_km": 80', '"length_km": 100')
        with pytest.raises(TopologyError, match="span_length_km"):
            load_topology(path, span_length_km=value)

    @pytest.mark.parametrize("length, span", [(math.inf, 80.0), (math.nan, 80.0),
                                              (100.0, math.inf), (100.0, math.nan)])
    def test_span_count_needs_finite_positive_values(self, length, span):
        with pytest.raises(TopologyError, match="positive and finite"):
            span_count(length, span)

    @pytest.mark.parametrize("extent", [math.nan, math.inf, -math.inf])
    def test_gabriel_extent_must_be_finite(self, extent):
        with pytest.raises(TopologyError, match="extent_km must be positive and finite"):
            generate_gabriel(10, seed=0, extent_km=extent)

    @pytest.mark.parametrize("span", [math.nan, math.inf])
    def test_gabriel_span_must_be_finite(self, span):
        with pytest.raises(TopologyError, match="span_length_km must be positive and finite"):
            generate_gabriel(10, seed=0, span_length_km=span)


class TestDegrees:
    # a node's undirected degree is its number of neighbors
    def test_path_graph_middle(self, line3):
        assert len(line3.neighbors("B")) == 2

    def test_two_node(self, two_node):
        assert len(two_node.neighbors("A")) == 1

    def test_handshake_identity_n14(self, n14):
        # sum of undirected degrees equals the directed link count
        assert sum(len(n14.neighbors(v)) for v in n14.nodes) == len(n14.links) == 42
        assert len(n14.undirected_edges) == 21

    def test_unknown_node(self, n14):
        with pytest.raises(TopologyError, match="unknown node"):
            n14.neighbors("zz")


def oracle_gabriel(points):
    """Independent O(n^3) check straight from the circle definition."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            mid = (pts[i] + pts[j]) / 2.0
            r = np.linalg.norm(pts[i] - pts[j]) / 2.0
            inside = any(np.linalg.norm(pts[k] - mid) < r
                         for k in range(n) if k not in (i, j))
            if not inside:
                edges.add((i, j))
    return edges


class TestGabriel:
    def test_collinear_points(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assert set(gabriel_edges(pts)) == {(0, 1), (1, 2)}

    def test_two_points(self):
        assert gabriel_edges(np.array([[0.0, 0.0], [3.0, 4.0]])) == [(0, 1)]
        topo = generate_gabriel(2, seed=5)
        assert len(topo.links) == 2

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            pts = rng.uniform(0, 100, size=(int(rng.integers(3, 25)), 2))
            assert set(gabriel_edges(pts)) == oracle_gabriel(pts)

    def test_n100_against_oracle_and_golden(self):
        topo = generate_gabriel(100, seed=7)
        rng = np.random.default_rng(7)
        pts = rng.uniform(0.0, 1000.0, size=(100, 2))
        expected = oracle_gabriel(pts)
        got = {(min(int(a), int(b)), max(int(a), int(b)))
               for a, b, _ in topo.undirected_edges}
        assert got == expected
        golden = json.loads((DATA / "gabriel_n100_s7.json").read_text())
        assert sorted(got) == [tuple(e) for e in golden["edges"]]
        avg_degree = 2 * len(got) / 100
        assert 3.0 <= avg_degree <= 4.5

    def test_connected(self):
        # Gabriel graphs contain the Euclidean MST, hence are connected
        import networkx as nx

        topo = generate_gabriel(60, seed=3)
        g = nx.Graph((a, b) for a, b, _ in topo.undirected_edges)
        g.add_nodes_from(topo.nodes)
        assert nx.is_connected(g)

    def test_subgraph_of_delaunay(self):
        from scipy.spatial import Delaunay

        rng = np.random.default_rng(11)
        pts = rng.uniform(0, 10, size=(20, 2))
        tri = Delaunay(pts)
        dedges = set()
        for s in tri.simplices:
            for i in range(3):
                a, b = int(s[i]), int(s[(i + 1) % 3])
                dedges.add((min(a, b), max(a, b)))
        assert set(gabriel_edges(pts)) <= dedges

    def test_deterministic(self):
        a = generate_gabriel(30, seed=9)
        b = generate_gabriel(30, seed=9)
        assert a == b

    def test_validation(self):
        with pytest.raises(TopologyError):
            generate_gabriel(1, seed=0)
        with pytest.raises(TopologyError):
            generate_gabriel(5, seed=0, extent_km=-1)


@given(length=st.floats(min_value=0.001, max_value=1e5),
       bump=st.floats(min_value=0.0, max_value=1e4))
def test_spans_monotone_in_length(length, bump):
    assert span_count(length + bump, 80.0) >= span_count(length, 80.0)


@given(length=st.floats(min_value=0.001, max_value=1e5))
def test_spans_match_ceiling(length):
    assert span_count(length, 80.0) == max(1, math.ceil(length / 80.0))


def sum_in_order(values):
    total = 0.0
    for v in values:
        total += v
    return total


@pytest.fixture
def uneven3():
    # three links whose left-to-right float sum differs from the correctly
    # rounded one: (100.1 + 200.2) + 300.3 is 600.5999999999999, while
    # Python 3.12's compensated sum() gives 600.6
    return topology_from_dict({
        "name": "uneven", "span_length_km": 80, "nodes": ["A", "B", "C", "D"],
        "edges": [{"a": "A", "b": "B", "length_km": 100.1},
                  {"a": "B", "b": "C", "length_km": 200.2},
                  {"a": "C", "b": "D", "length_km": 300.3}]})


class TestLengthsInPathOrder:
    def test_route_length_sums_left_to_right(self, uneven3):
        route = ("A", "B", "C", "D")
        assert uneven3.route_length(route) == (100.1 + 200.2) + 300.3
        assert uneven3.route_length(route[::-1]) == (300.3 + 200.2) + 100.1
        assert uneven3.route_links[route].length_km == (100.1 + 200.2) + 300.3

    def test_read_lightpaths_sums_left_to_right(self, uneven3, tmp_path):
        path = tmp_path / "lps.csv"
        path.write_text("lp_id,add_node,drop_node,route,rate_gbps,channel,carried_gbps\n"
                        "0,A,D,A->B->C->D,600,0,100\n")
        (lp,) = read_lightpaths_csv(path, uneven3)
        assert lp.length_km == (100.1 + 200.2) + 300.3

    def test_routes_order_by_left_to_right_sums(self):
        # s-x-y-t sums to 600.5999999999999 left to right and s-t is 600.6,
        # so the three-link route comes first; a compensated sum ties them,
        # and then the names put s-t first
        topo = topology_from_dict({
            "name": "ulp", "span_length_km": 80, "nodes": ["s", "x", "y", "t"],
            "edges": [{"a": "s", "b": "x", "length_km": 100.1},
                      {"a": "x", "b": "y", "length_km": 200.2},
                      {"a": "y", "b": "t", "length_km": 300.3},
                      {"a": "s", "b": "t", "length_km": 600.6}]})
        assert topo.k_shortest_routes("s", "t", 2) == (("s", "x", "y", "t"), ("s", "t"))


class TestRouteLinks:
    def test_record_of_a_route(self, uneven3):
        record = uneven3.route_links[("A", "B", "C")]
        assert record == RouteLinks(("A->B", "B->C"), (100.1, 200.2), 100.1 + 200.2)
        assert uneven3.route_links[("A", "B", "C")] is record
        assert uneven3.route_links[("D",)] == RouteLinks((), (), 0.0)

    def test_route_off_the_topology(self, uneven3):
        with pytest.raises(TopologyError, match="leaves topology"):
            uneven3.route_links[("A", "C")]
        with pytest.raises(TopologyError, match="leaves topology"):
            uneven3.route_links[("A", "Z")]
        assert ("A", "C") not in uneven3.route_links

    def test_kept_per_topology_object(self, uneven3):
        again = topology_from_dict(topology_to_dict(uneven3))
        route = ("A", "B")
        assert uneven3.route_links[route] is uneven3.route_links[route]
        assert again.route_links[route] is not uneven3.route_links[route]
        assert again.route_links[route] == uneven3.route_links[route]


def test_distance_tables_are_shortest_distances_one_per_destination():
    topo = generate_gabriel(30, seed=1)
    adj, ids = topo._id_lengths, topo._ids
    for name in topo.nodes:
        dist = topo._distances_to(name)
        assert topo._distances_to(name) is dist
        dst = ids[name]
        # each table is the shortest distance to dst: no link shortens it
        assert dist[dst] == 0.0
        assert all(dist[u] <= w + dist[v] for u, succ in enumerate(adj) for v, w in succ)
        assert all(dist[u] == min(w + dist[v] for v, w in adj[u])
                   for u in range(len(adj)) if u != dst)
    assert len(topo._distance_table) == len(topo.nodes)
