import os
import subprocess
import sys
from itertools import islice
from pathlib import Path
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import ppmplan
from ppmplan import topology
from ppmplan.exact import solve_exact
from ppmplan.placement import build_cover_instance, solve_greedy, verify_solution
from ppmplan import provisioning
from ppmplan.provisioning import (
    CHANNELS_PER_FIBER,
    RATE_REACH_ROWS,
    ProvisioningError,
    Provisioner,
    best_rate,
    max_length_for,
    provision,
    read_lightpaths_csv,
    write_lightpaths_csv,
)
from ppmplan.topology import (
    TopologyError,
    bundled_topology,
    generate_gabriel,
    link_label,
    topology_from_dict,
    topology_to_dict,
)
from ppmplan.traffic import Demand, generate_demands


def sum_in_order(values):
    """Left-to-right float sum, as the route search adds lengths up."""
    total = 0.0
    for v in values:
        total += v
    return total


def single_link(length):
    return topology_from_dict({
        "name": "one", "span_length_km": 80, "nodes": ["A", "B"],
        "edges": [{"a": "A", "b": "B", "length_km": length}]})


class TestReachTable:
    def test_default_rows(self):
        assert RATE_REACH_ROWS == (
            (800, 150), (700, 400), (600, 700), (500, 1300),
            (400, 2500), (300, 4700), (200, 5700))
        assert CHANNELS_PER_FIBER == 60  # 6 THz / 100 GHz

    def test_best_rate(self):
        assert best_rate(100) == 800
        assert best_rate(150) == 800
        assert best_rate(151) == 700
        assert best_rate(500) == 600
        assert best_rate(5700) == 200
        assert best_rate(5701) is None

    def test_max_length_for(self):
        assert max_length_for(400) == 2500
        assert max_length_for(100) == 5700
        assert max_length_for(800) == 150
        assert max_length_for(900) is None

    def test_monotonicity_validation(self):
        # best_rate takes the first row that reaches, and the last row's
        # reach is the maximum: both need rates falling and reaches rising
        rates = [rate for rate, _ in RATE_REACH_ROWS]
        reaches = [reach for _, reach in RATE_REACH_ROWS]
        assert all(a > b for a, b in zip(rates, rates[1:]))
        assert all(a < b for a, b in zip(reaches, reaches[1:]))

    def test_no_reach_table_parameter(self, line3):
        with pytest.raises(TypeError):
            Provisioner(line3, "opaque", reach_table=RATE_REACH_ROWS)
        with pytest.raises(TypeError):
            provision(line3, [], "opaque", reach_table=RATE_REACH_ROWS)

    def test_a_rebound_table_reaches_the_next_provisioner(self, line3, monkeypatch):
        # a Provisioner's caches are its own, so one made after the table is
        # rebound answers from the new table
        demands = [Demand("A", "C", 100)]
        lp, = provision(line3, demands, "transparent").lightpaths
        assert lp.rate_gbps == 700
        monkeypatch.setattr(provisioning, "RATE_REACH_ROWS", ((1000, 5000),))
        lp, = provision(line3, demands, "transparent").lightpaths
        assert lp.rate_gbps == 1000


class TestTransparent:
    def test_single_demand_high_rate(self):
        lset = provision(single_link(100), [Demand("A", "B", 400)], "transparent")
        lp = lset.lightpaths[0]
        assert (lp.rate_gbps, lp.carried_gbps) == (800, 400)
        assert lset.transponder_count == 2

    def test_grooming_consumes_headroom(self):
        lset = provision(single_link(100),
                         [Demand("A", "B", 400), Demand("A", "B", 400)], "transparent")
        assert len(lset.lightpaths) == 1
        assert lset.lightpaths[0].carried_gbps == 800
        assert lset.transponder_count == 2

    def test_500km_route_rate(self):
        lset = provision(single_link(500), [Demand("A", "B", 400)], "transparent")
        assert lset.lightpaths[0].rate_gbps == 600

    def test_channel_exhaustion_rejects(self):
        demands = [Demand("A", "B", 400)] * 121
        lset = provision(single_link(100), demands, "transparent")
        assert len(lset.lightpaths) == 60
        assert len(lset.rejected) == 1
        assert {lp.channel for lp in lset.lightpaths} == set(range(60))

    def test_first_fit_takes_lowest_channel_free_on_every_link(self, line3):
        # two 400G demands fill one 800G single-hop lightpath: channel 0 ends
        # up full on A->B, channels 0 and 1 on B->C
        demands = [Demand("A", "B", 400)] * 2 + [Demand("B", "C", 400)] * 4
        demands += [Demand("A", "C", 400), Demand("A", "B", 400)]
        lset = provision(line3, demands, "transparent")
        assert [(lp.nodes, lp.channel) for lp in lset.lightpaths] == [
            (("A", "B"), 0), (("B", "C"), 0), (("B", "C"), 1),
            (("A", "B", "C"), 2),  # lowest channel free on both links
            (("A", "B"), 1)]

    def test_multi_hop_when_reach_allows(self, line3):
        lset = provision(line3, [Demand("A", "C", 400)], "transparent")
        assert len(lset.lightpaths) == 1
        assert lset.lightpaths[0].nodes == ("A", "B", "C")
        assert lset.lightpaths[0].rate_gbps == 700  # 200 km <= 400 km reach

    def test_segmentation_on_long_route(self):
        topo = topology_from_dict({
            "name": "long", "span_length_km": 80, "nodes": ["A", "B", "C"],
            "edges": [{"a": "A", "b": "B", "length_km": 2000},
                      {"a": "B", "b": "C", "length_km": 2000}]})
        lset = provision(topo, [Demand("A", "C", 400)], "transparent")
        # 4000 km exceeds the 2500 km limit for 400G: split at the regenerator
        assert [lp.nodes for lp in lset.lightpaths] == [("A", "B"), ("B", "C")]
        assert all(lp.rate_gbps == 400 for lp in lset.lightpaths)

    def test_reach_infeasible_demand_rejected(self):
        lset = provision(single_link(3000), [Demand("A", "B", 400)], "transparent")
        assert len(lset.rejected) == 1
        lset = provision(single_link(3000), [Demand("A", "B", 300)], "transparent")
        assert len(lset.accepted) == 1

    def test_endpoint_chain_grooming(self, line3):
        demands = [Demand("A", "B", 400), Demand("B", "C", 400), Demand("A", "C", 400)]
        lset = provision(line3, demands, "transparent")
        # third demand rides the two half-filled lightpaths end to end
        assert len(lset.lightpaths) == 2
        assert lset.assignments[2][1] == (0, 1)
        assert all(lp.carried_gbps == 800 for lp in lset.lightpaths)


class TestOpaque:
    def test_one_hop_per_link(self, line3):
        lset = provision(line3, [Demand("A", "C", 400)], "opaque")
        assert [lp.nodes for lp in lset.lightpaths] == [("A", "B"), ("B", "C")]
        assert all(lp.hops == 1 for lp in lset.lightpaths)
        assert lset.transponder_count == 4

    def test_chain_grooming(self, line3):
        demands = [Demand("A", "C", 400), Demand("A", "C", 400)]
        lset = provision(line3, demands, "opaque")
        assert len(lset.lightpaths) == 2  # second demand groomed hop-by-hop
        assert lset.assignments[1][1] == (0, 1)

    def test_equal_chains_follow_link_creation_order(self):
        square = topology_from_dict({
            "name": "square", "span_length_km": 80, "nodes": ["A", "B", "C", "D"],
            "edges": [{"a": a, "b": b, "length_km": 100}
                      for a, b in (("A", "B"), ("B", "D"), ("A", "C"), ("C", "D"))]})
        demands = [Demand(a, b, 400) for a, b in
                   (("A", "C"), ("C", "D"), ("A", "B"), ("B", "D"), ("A", "D"))]
        lset = provision(square, demands, "opaque")
        # A->B->D and A->C->D are both 200 km; the links lit first win
        assert lset.assignments[-1][1] == (0, 1)

    def test_per_link_channel_rejection(self, line3):
        # saturate only link A->B, then A->C demands cannot be served
        demands = [Demand("A", "B", 400)] * 120 + [Demand("A", "C", 400)]
        lset = provision(line3, demands, "opaque")
        assert len(lset.rejected) == 1
        assert lset.rejected[0].dst == "C"

    def test_atomic_rejection_leaves_no_partial_state(self, line3):
        demands = [Demand("A", "B", 400)] * 120 + [Demand("A", "C", 400)]
        lset = provision(line3, demands, "opaque")
        # the rejected demand must not have lit B->C
        assert all(lp.nodes != ("B", "C") for lp in lset.lightpaths)


@pytest.mark.parametrize("arch", ["opaque", "transparent"])
@pytest.mark.parametrize("demand", [Demand("ZZ", "B", 100), Demand("A", "ZZ", 100)],
                         ids=["src", "dst"])
def test_unknown_node_is_topology_error(line3, arch, demand):
    prov = Provisioner(line3, arch)
    # a 100G demand on a 400G lightpath leaves spare on a link leaving A, so
    # opaque grooming looks past A for a link entering the unknown node
    assert prov.serve(Demand("A", "B", 100))
    with pytest.raises(TopologyError, match=r"^unknown node 'ZZ' in topology 'line3'$"):
        prov.serve(demand)
    lset = prov.result()
    assert (len(lset.accepted), len(lset.rejected), len(lset.lightpaths)) == (1, 0, 1)


class TestInvariants:
    def test_config_error_unreachable_link(self):
        with pytest.raises(ProvisioningError, match="exceeds the maximum reach"):
            provision(single_link(6000), [], "transparent")

    def test_unknown_architecture(self, line3):
        with pytest.raises(ProvisioningError):
            provision(line3, [], "translucent")

    def test_channel_exclusivity_and_continuity(self, n14):
        lset = provision(n14, generate_demands(n14, 300, seed=4), "transparent")
        used = {}
        for lp in lset.lightpaths:
            for e in lp.links:
                key = (e, lp.channel)
                assert key not in used, "channel reused on a link"
                used[key] = lp.lp_id

    def test_reach_respected(self, n14):
        lset = provision(n14, generate_demands(n14, 300, seed=4), "transparent")
        for lp in lset.lightpaths:
            reach = dict(RATE_REACH_ROWS)[lp.rate_gbps]
            assert lp.length_km <= reach
            assert lp.carried_gbps <= lp.rate_gbps

    def test_capacity_bookkeeping(self, n14):
        for arch in ("opaque", "transparent"):
            lset = provision(n14, generate_demands(n14, 200, seed=5), arch)
            per_lp = {lp.lp_id: 0 for lp in lset.lightpaths}
            for demand, chain in lset.assignments:
                for lp_id in chain:
                    per_lp[lp_id] += demand.rate_gbps
            for lp in lset.lightpaths:
                assert lp.carried_gbps == per_lp[lp.lp_id]
            total = sum(d.rate_gbps * len(chain) for d, chain in lset.assignments)
            assert sum(lp.carried_gbps for lp in lset.lightpaths) == total

    def test_transparent_needs_no_more_transponders(self, n14):
        # on a zero-rejection load, optical bypass only merges lightpaths
        demands = generate_demands(n14, 150, seed=6)
        op = provision(n14, demands, "opaque")
        tr = provision(n14, demands, "transparent")
        assert not op.rejected and not tr.rejected
        assert tr.transponder_count <= op.transponder_count

    def test_determinism(self, n14, tmp_path):
        demands = generate_demands(n14, 120, seed=7)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_lightpaths_csv(provision(n14, demands, "transparent"), a)
        write_lightpaths_csv(provision(n14, demands, "transparent"), b)
        assert a.read_bytes() == b.read_bytes()

    def test_csv_round_trip(self, n14, tmp_path):
        lset = provision(n14, generate_demands(n14, 50, seed=8), "transparent")
        path = tmp_path / "lps.csv"
        write_lightpaths_csv(lset, path)
        again = read_lightpaths_csv(path, n14)
        assert len(again) == len(lset.lightpaths)
        for orig, back in zip(lset.lightpaths, again):
            assert back.nodes == orig.nodes
            assert back.rate_gbps == orig.rate_gbps
            assert back.channel == orig.channel
            assert back.carried_gbps == orig.carried_gbps
            assert back.length_km == pytest.approx(orig.length_km)

    def test_csv_quoting_pinned_and_read_back(self, tmp_path):
        # names with a comma, a double quote and a space: the excel dialect
        # quotes the first two, doubling the quote, and leaves the third
        topo = topology_from_dict({
            "name": "quoted", "span_length_km": 80, "nodes": ["a,b", 'say "hi"', "c d"],
            "edges": [{"a": "a,b", "b": 'say "hi"', "length_km": 100},
                      {"a": 'say "hi"', "b": "c d", "length_km": 200}]})
        lset = provision(topo, [Demand("a,b", "c d", 100), Demand("c d", 'say "hi"', 200),
                                Demand("a,b", 'say "hi"', 300)], "transparent")
        path = tmp_path / "lps.csv"
        write_lightpaths_csv(lset, path, config_hash="0123abcd")
        assert path.read_bytes() == (
            b"# config_hash=0123abcd\n"
            b"lp_id,add_node,drop_node,route,rate_gbps,channel,carried_gbps\r\n"
            b'0,"a,b",c d,"a,b->say ""hi""->c d",700,0,100\r\n'
            b'1,c d,"say ""hi""","c d->say ""hi""",700,0,200\r\n'
            b'2,"a,b","say ""hi""","a,b->say ""hi""",800,1,300\r\n')
        again = read_lightpaths_csv(path, topo)
        assert again == lset.lightpaths

    def test_csv_read_needs_topology(self, n14, tmp_path):
        # the topology gives each route its length; there is no zero-length fallback
        path = tmp_path / "lps.csv"
        write_lightpaths_csv(provision(n14, generate_demands(n14, 5, seed=8), "transparent"), path)
        with pytest.raises(TypeError):
            read_lightpaths_csv(path)

    @pytest.mark.parametrize("row, column, value, rule", [
        ("7,1,2,1->2,400,-1,100", "channel", "-1", "an integer >= 0"),
        ("7,1,2,1->2,400,x,100", "channel", "x", "an integer >= 0"),
        ("7,1,2,1->2,150,0,100", "rate_gbps", "150", "one of [800, 700, 600, 500, 400, 300, 200]"),
        ("7,1,2,1->2,400,0,500", "carried_gbps", "500", "an integer in 1..400"),
        ("7,1,2,1->2,400,0,0", "carried_gbps", "0", "an integer in 1..400"),
        ("7,1,2,1,400,0,100", "route", "1", "two or more nodes joined by '->'"),
        ("7,1,2,,400,0,100", "route", "", "two or more nodes joined by '->'"),
        ("0,1,2,1->2,400,1,100", "lp_id", "0", "an integer unused by earlier rows"),
        ("7,1,1,1->2->1,400,0,100", "route", "1->2->1", "a route that visits each node once"),
        ("7,2,2,1->2,400,0,100", "add_node", "2", "the route's first node"),
        ("7,1,1,1->2,400,0,100", "drop_node", "1", "the route's last node"),
    ], ids=["negative-channel", "text-channel", "rate-off-the-table",
            "carried-above-rate", "nothing-carried", "one-node-route", "empty-route",
            "repeated-lp-id", "node-twice", "add-node-off-the-route", "drop-node-off-the-route"])
    def test_csv_read_rejects_a_row_provision_never_writes(self, n14, tmp_path,
                                                           row, column, value, rule):
        path = tmp_path / "lps.csv"
        path.write_text("lp_id,add_node,drop_node,route,rate_gbps,channel,carried_gbps\n"
                        f"0,1,2,1->2,400,0,100\n{row}\n")
        with pytest.raises(ValueError) as err:
            read_lightpaths_csv(path, n14)
        lp_id = row.split(",")[0]
        assert str(err.value) == f"{path}: lightpath {lp_id!r} has {column} {value!r}, not {rule}"

    def test_lightpath_links_cached_without_changing_identity(self, tmp_path):
        from dataclasses import fields

        from ppmplan.provisioning import Lightpath

        a = Lightpath(0, ("A", "B", "C"), 200.0, 600, 3, carried_gbps=100)
        b = Lightpath(0, ("A", "B", "C"), 200.0, 600, 3, carried_gbps=100)
        fresh = repr(a)
        write_lightpaths_csv([a], tmp_path / "before.csv")
        assert a.links == ("A->B", "B->C")
        assert a.links is a.links  # built once per lightpath
        assert a == b and repr(a) == repr(b) == fresh
        assert fresh == ("Lightpath(lp_id=0, nodes=('A', 'B', 'C'), length_km=200.0, "
                         "rate_gbps=600, channel=3, carried_gbps=100)")
        assert [f.name for f in fields(a)] == ["lp_id", "nodes", "length_km", "rate_gbps",
                                                "channel", "carried_gbps"]
        write_lightpaths_csv([a], tmp_path / "after.csv")
        assert (tmp_path / "after.csv").read_bytes() == (tmp_path / "before.csv").read_bytes()

    def test_serve_is_incremental(self, n14):
        # serving a prefix then the rest equals serving everything at once
        demands = generate_demands(n14, 80, seed=9).demands
        prov = Provisioner(n14, "transparent")
        for d in demands[:40]:
            prov.serve(d)
        mid = len(prov.result().lightpaths)
        for d in demands[40:]:
            prov.serve(d)
        whole = provision(n14, demands, "transparent")
        assert len(prov.result().lightpaths) == len(whole.lightpaths)
        assert mid <= len(whole.lightpaths)

    @pytest.mark.parametrize("arch", ["opaque", "transparent"])
    def test_lightpath_full_at_creation_is_never_indexed(self, arch):
        # 2,000 km carries 400G at most, so a 400G demand fills its lightpath
        prov = Provisioner(single_link(2000), arch)
        assert prov.serve(Demand("A", "B", 400))
        opaque = arch == "opaque"
        assert prov._spare == [0]
        assert prov._by_ends == {}
        assert prov._max_spare["A"] == ({"B": 0} if opaque else {})
        assert prov.serve(Demand("A", "B", 100))
        assert prov.serve(Demand("A", "B", 100))
        assert [chain for _, chain in prov.result().assignments] == [(0,), (1,), (1,)]
        assert prov._by_ends == {"A": {"B": [1]}}
        assert prov._max_spare["A"] == ({"B": 200} if opaque else {})


@st.composite
def random_networks(draw):
    """A provisioned Gabriel network: (topology, demands, n_channels, k)."""
    topo = generate_gabriel(draw(st.integers(6, 30)), seed=draw(st.integers(0, 2**16)))
    demands = generate_demands(topo, draw(st.integers(1, 120)),
                               seed=draw(st.integers(0, 2**16))).demands
    return topo, demands, draw(st.sampled_from([2, 6, 60])), draw(st.integers(1, 4))


class TestInvariantsOnRandomTopologies:
    @settings(max_examples=20, deadline=None)
    @given(random_networks())
    def test_lightpath_and_placement_invariants(self, network):
        topo, demands, n_channels, k = network
        for arch in ("opaque", "transparent"):
            lset = provision(topo, demands, arch, k=k, n_channels=n_channels)
            by_id = {lp.lp_id: lp for lp in lset.lightpaths}
            assert len(by_id) == len(lset.lightpaths)
            used, cov = set(), dict.fromkeys(topo.link_labels, 0)
            for lp in lset.lightpaths:
                # continuity: one channel along a route of topology links
                assert 0 <= lp.channel < n_channels
                assert lp.hops >= 1 and (arch == "transparent" or lp.hops == 1)
                for a, b in zip(lp.nodes, lp.nodes[1:]):
                    label = link_label(a, b)
                    assert (label, lp.channel) not in used, "channel reused on a link"
                    used.add((label, lp.channel))
                    cov[label] += 1
                assert lp.length_km == sum_in_order(
                    topo.link_lengths[a][b] for a, b in zip(lp.nodes, lp.nodes[1:]))
                assert lp.length_km <= max_length_for(lp.rate_gbps)
            carried = dict.fromkeys(by_id, 0)
            assert len(lset.assignments) == len(lset.accepted)
            for demand, chain in lset.assignments:
                hops = [by_id[i] for i in chain]
                assert hops[0].nodes[0] == demand.src and hops[-1].nodes[-1] == demand.dst
                assert all(x.nodes[-1] == y.nodes[0] for x, y in zip(hops, hops[1:]))
                for i in chain:
                    carried[i] += demand.rate_gbps
            for lp in lset.lightpaths:
                assert lp.carried_gbps == carried[lp.lp_id] <= lp.rate_gbps
            base = build_cover_instance(lset, topo, 1)
            assert dict(zip(base.links, base.max_coverage.tolist())) == cov
            lit = {e for e, n in cov.items() if n}
            assert {e for e, c in zip(base.links, base.max_coverage) if c} == lit
            assert base.min_unsatisfied == len(cov) - len(lit)  # the dark links
            for gamma in (1, 3):
                inst = build_cover_instance(lset, topo, gamma)
                greedy = solve_greedy(inst)
                exact = solve_exact(inst)
                assert verify_solution(inst, greedy) and verify_solution(inst, exact)
                assert exact.optimal
                assert (exact.unsatisfied, exact.total_monitors) <= \
                    (greedy.unsatisfied, greedy.total_monitors)


    @settings(max_examples=20, deadline=None)
    @given(random_networks())
    def test_grooming_indexes_hold_live_lightpaths(self, network):
        # spent lightpaths leave the grooming indexes; the rest stay in
        # creation order, and the spare list mirrors the lightpaths
        topo, demands, n_channels, k = network
        for arch in ("opaque", "transparent"):
            prov = Provisioner(topo, arch, k=k, n_channels=n_channels)
            for d in demands:
                prov.serve(d)
                lps = prov.result().lightpaths
                assert prov._spare == [lp.rate_gbps - lp.carried_gbps for lp in lps]
                by_ends, links = {}, {}
                for lp in lps:
                    links.setdefault(lp.nodes, [])
                    if lp.rate_gbps > lp.carried_gbps:
                        by_ends.setdefault(lp.nodes[0], {}).setdefault(
                            lp.nodes[-1], []).append(lp.lp_id)
                        links[lp.nodes].append(lp.lp_id)
                assert prov._by_ends == by_ends
                if arch == "transparent":
                    assert all(succ == {} for succ in prov._max_spare.values())
                    continue
                # a spent link keeps its place among a node's successors
                for u, succ in prov._max_spare.items():
                    assert list(succ) == [b for a, b in links if a == u]
                for (u, v), ids in links.items():
                    assert prov._max_spare[u][v] == max(
                        (lps[i].rate_gbps - lps[i].carried_gbps for i in ids), default=0)


class TestRouteLinkRecords:
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(6, 30), seed=st.integers(0, 2**16),
           demand_seed=st.integers(0, 2**16), count=st.integers(1, 150),
           k=st.sampled_from([1, 3, 5]))
    def test_lightpaths_and_records_match_their_routes(self, n, seed, demand_seed, count, k):
        topo = generate_gabriel(n, seed=seed)
        demands = generate_demands(topo, count, seed=demand_seed).demands
        for arch in ("opaque", "transparent"):
            for lp in provision(topo, demands, arch, k=k).lightpaths:
                hops = list(zip(lp.nodes, lp.nodes[1:]))
                assert lp.links == tuple(link_label(a, b) for a, b in hops)
                assert lp.length_km == sum_in_order(topo.link_lengths[a][b] for a, b in hops)
                assert lp.rate_gbps == best_rate(lp.length_km)
        assert topo.route_links  # every established lightpath resolved its route
        for route, record in topo.route_links.items():
            hops = list(zip(route, route[1:]))
            assert record.labels == tuple(link_label(a, b) for a, b in hops)
            assert record.lengths == tuple(topo.link_lengths[a][b] for a, b in hops)
            assert record.length_km == sum_in_order(record.lengths)

    def test_serving_looks_up_no_link(self):
        # links are resolved once per route record; serving a demand set
        # labels no link per demand
        topo = bundled_topology("n14")
        demands = generate_demands(topo, 700, seed=4).demands
        with mock.patch.object(topology, "link_label", wraps=topology.link_label) as label:
            for arch in ("opaque", "transparent"):
                assert len(provision(topo, demands, arch).accepted) > 600
        assert label.call_count == sum(len(r.labels) for r in topo.route_links.values())


def nx_digraph(topo):
    g = nx.DiGraph()
    g.add_nodes_from(topo.nodes)
    for l in topo.links:
        g.add_edge(l.src, l.dst, length_km=l.length_km)
    return g


def brute_force_routes(topo, a, b):
    """Every simple path a -> b, ordered by (length, node names)."""
    return sorted((tuple(p) for p in nx.all_simple_paths(nx_digraph(topo), a, b)),
                  key=lambda p: (topo.route_links[p].length_km, p))


def coarse(topo, grid_km=100.0):
    """The same graph with lengths rounded to multiples of grid_km (at least
    one), so that many routes tie."""
    data = topology_to_dict(topo)
    for e in data["edges"]:
        e["length_km"] = grid_km * max(1, round(e["length_km"] / grid_km))
    return topology_from_dict(data)


def networkx_routes(topo, a, b, k):
    """The first k of networkx's shortest simple paths a -> b and every path
    tied with the k-th, ordered by (length, node names) and cut to k."""
    paths = []
    for p in nx.shortest_simple_paths(nx_digraph(topo), a, b, weight="length_km"):
        length = topo.route_links[tuple(p)].length_km
        if len(paths) >= k and length > topo.route_links[paths[k - 1]].length_km:
            break
        paths.append(tuple(p))
    return sorted(paths, key=lambda p: (topo.route_links[p].length_km, p))[:k]


def search_passes(topo, a, b, k):
    """`k_shortest_routes(a, b, k)`, and how many passes its search took."""
    with mock.patch.object(topology, "_best_first", wraps=topology._best_first) as search:
        routes = topo.k_shortest_routes(a, b, k)
    return routes, search.call_count


def expanded_by_second_pass(limit):
    """A spy on the distance searches: its list holds one entry per path the
    pruned pass expands, and it fails after `limit` of them."""
    expanded = []

    def spy(into, dst, avoid):
        if avoid:
            expanded.append(avoid)
            assert len(expanded) <= limit, "the pruned pass expanded too many paths"
        return distances(into, dst, avoid)

    distances = topology._distances
    return mock.patch.object(topology, "_distances", side_effect=spy), expanded


def pocket_grid(side, distinct):
    """s-t is 1 km; the next routes run from s through x into a side x side
    grid, and leave its far corner for t by a 1000 km link. Grid links are
    1 km, or 1 km plus a distinct thousandth each, so that no routes tie."""
    edges = [{"a": "s", "b": "t", "length_km": 1}, {"a": "s", "b": "x", "length_km": 1},
             {"a": "x", "b": "0_0", "length_km": 1},
             {"a": f"{side - 1}_{side - 1}", "b": "t", "length_km": 1000}]
    for i in range(side):
        for j in range(side):
            for di, dj in ((0, 1), (1, 0)):
                if i + di < side and j + dj < side:
                    edges.append({"a": f"{i}_{j}", "b": f"{i + di}_{j + dj}",
                                  "length_km": 1 + distinct * len(edges) / 1000})
    nodes = sorted({e["a"] for e in edges} | {e["b"] for e in edges})
    return topology_from_dict({"name": "pocket-grid", "span_length_km": 80,
                               "nodes": nodes, "edges": edges})


class TestRoutes:
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(6, 30), seed=st.integers(0, 10_000), k=st.integers(1, 5))
    def test_k_shortest_match_networkx(self, n, seed, k):
        # networkx's first k paths, sorted by the pinned rule, wherever its
        # k-th and (k+1)-th paths differ in length (ties are settled below)
        topo = generate_gabriel(n, seed=seed)
        g = nx_digraph(topo)
        for a in topo.nodes[:4]:
            for b in topo.nodes:
                if a == b:
                    continue
                paths = [tuple(p) for p in islice(
                    nx.shortest_simple_paths(g, a, b, weight="length_km"), k + 1)]
                lengths = [topo.route_links[p].length_km for p in paths]
                if len(paths) > k and lengths[k - 1] == lengths[k]:
                    continue
                expected = sorted(paths[:k], key=lambda p: (topo.route_links[p].length_km, p))
                assert topo.k_shortest_routes(a, b, k) == tuple(expected)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(6, 9), seed=st.integers(0, 10_000), k=st.integers(1, 5))
    def test_ties_follow_node_names(self, n, seed, k):
        # with many equal lengths, the k routes are the first k of all simple
        # paths ordered by (length, node names)
        topo = coarse(generate_gabriel(n, seed=seed, extent_km=400.0))
        for a in topo.nodes:
            for b in topo.nodes:
                if a == b:
                    continue
                every = brute_force_routes(topo, a, b)
                assert topo.k_shortest_routes(a, b, k) == tuple(every[:k])

    def test_ties_follow_names_not_insertion_or_numeric_order(self):
        # node names listed out of order, where string order ("10" < "9" <
        # "B" < "a") differs from numeric order; five routes s -> t tie at
        # 200 km, so cuts at k = 1..4 fall inside the tie
        topo = topology_from_dict({
            "name": "names", "span_length_km": 80,
            "nodes": ["a", "s", "9", "t", "B", "10"],
            "edges": [{"a": "s", "b": m, "length_km": 100} for m in ("9", "10", "a")]
                     + [{"a": m, "b": "t", "length_km": 100} for m in ("9", "10", "a")]
                     + [{"a": "s", "b": "B", "length_km": 50},
                        {"a": "B", "b": "t", "length_km": 150},
                        {"a": "B", "b": "a", "length_km": 50},
                        {"a": "9", "b": "10", "length_km": 30}]})
        assert topo.k_shortest_routes("s", "t", 5) == (
            ("s", "10", "t"), ("s", "9", "t"), ("s", "B", "a", "t"),
            ("s", "B", "t"), ("s", "a", "t"))
        for k in range(1, 7):
            for a in topo.nodes:
                for b in topo.nodes:
                    if a != b:
                        assert topo.k_shortest_routes(a, b, k) == \
                            tuple(brute_force_routes(topo, a, b)[:k])

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(10, 30), seed=st.integers(0, 10_000), k=st.integers(1, 6),
           grid=st.sampled_from([100.0, 300.0]))
    def test_tied_routes_match_networkx(self, n, seed, k, grid):
        topo = coarse(generate_gabriel(n, seed=seed), grid)
        for a in topo.nodes[:3]:
            for b in topo.nodes:
                if a != b:
                    assert topo.k_shortest_routes(a, b, k) == tuple(networkx_routes(topo, a, b, k))

    def test_routes_match_brute_force_past_the_pop_limit(self):
        # coarse Gabriel graphs where some pairs pass the first pass's pop
        # limit, and others have fewer than k routes
        second_pass = fewer_than_k = 0
        for n, seed in ((8, 5), (9, 1), (10, 5)):
            for grid in (100.0, 300.0):
                topo = coarse(generate_gabriel(n, seed=seed, extent_km=400.0), grid)
                for a in topo.nodes:
                    for b in topo.nodes:
                        if a == b:
                            continue
                        every = brute_force_routes(topo, a, b)
                        for k in range(1, 9):
                            routes, passes = search_passes(topo, a, b, k)
                            assert routes == tuple(every[:k])
                            second_pass += passes == 2
                            fewer_than_k += len(every) < k
        assert second_pass and fewer_than_k

    def test_pop_limit_starts_the_pruned_pass(self):
        # s-t is the only route; s also opens onto a clique of five, whose
        # hundreds of loopless paths from s all end cut off from t
        clique = ["a", "b", "c", "d", "e"]
        topo = topology_from_dict({
            "name": "pocket", "span_length_km": 80, "nodes": ["s", "t"] + clique,
            "edges": [{"a": "s", "b": "t", "length_km": 100}]
                     + [{"a": "s", "b": m, "length_km": 10} for m in clique]
                     + [{"a": m, "b": o, "length_km": 10}
                        for i, m in enumerate(clique) for o in clique[i + 1:]]})
        for k in range(1, 9):
            spy, expanded = expanded_by_second_pass(limit=1)
            with spy:
                routes, passes = search_passes(topo, "s", "t", k)
            assert routes == (("s", "t"),)
            # at k=1 the first pass finds s-t and stops; later, the pruned
            # pass drops every path into the clique and expands s alone
            assert passes == (1 if k == 1 else 2)
            assert len(expanded) == passes - 1

    def test_pruned_pass_expands_only_route_prefixes(self):
        # a search that expanded every walk in the grid that can still reach
        # its far corner would not end; the pruned pass expands only
        # prefixes of the k routes, as no two routes tie
        topo = pocket_grid(10, distinct=True)
        for k in (2, 3, 8):
            spy, expanded = expanded_by_second_pass(limit=8 * len(topo.nodes))
            with spy:
                routes, passes = search_passes(topo, "s", "t", k)
            assert passes == 2
            assert routes == tuple(networkx_routes(topo, "s", "t", k))
            assert len(expanded) <= sum(len(r) - 1 for r in routes)

    def test_second_pass_has_no_pop_limit(self):
        # in a 5x5 grid of 1 km links, 70 routes tie at the second length,
        # and the tie rule needs every one of them: the pruned pass pops
        # more than 2k paths per node to find them
        topo = pocket_grid(5, distinct=False)
        routes, passes = search_passes(topo, "s", "t", 2)
        assert passes == 2
        assert routes == tuple(networkx_routes(topo, "s", "t", 2))
        assert routes[1] == ("s", "x", "0_0", "0_1", "0_2", "0_3", "0_4",
                             "1_4", "2_4", "3_4", "4_4", "t")

    def test_second_route_far_longer_than_the_first(self):
        # 88 -> 43 is one 51 km link, and the next routes are over 1,150 km:
        # the first pass passes its pop limit before it finds them
        topo = generate_gabriel(100, seed=0)
        routes, passes = search_passes(topo, "88", "43", 3)
        assert passes == 2
        assert routes == tuple(networkx_routes(topo, "88", "43", 3))

    def test_j14_pairs_with_two_routes(self):
        # each pair has two loopless routes, so the first pass hits its pop
        # limit at k >= 3 and the pruned pass finds both
        topo = bundled_topology("j14")
        for a, b in (("12", "13"), ("12", "14"), ("13", "14"), ("14", "13")):
            every = brute_force_routes(topo, a, b)
            assert len(every) == 2
            for k in (3, 5, 8):
                assert search_passes(topo, a, b, k) == (tuple(every), 2)

    def test_tie_kept_where_an_estimate_rounds_up(self):
        # s-a-b-t sums to 0.6 from s, as s-t does, and wins the tie on names;
        # but a's distance to t sums to 0.30000000000000004, so the estimate
        # for s-a comes out above 0.6
        topo = topology_from_dict({
            "name": "rounding", "span_length_km": 80, "nodes": ["s", "a", "b", "t"],
            "edges": [{"a": "s", "b": "a", "length_km": 0.3},
                      {"a": "a", "b": "b", "length_km": 0.2},
                      {"a": "b", "b": "t", "length_km": 0.1},
                      {"a": "s", "b": "t", "length_km": 0.6}]})
        assert topo.route_links[("s", "a", "b", "t")].length_km == \
            topo.route_links[("s", "t")].length_km
        assert topology._best_first(topo, "s", "t", 1) == (("s", "a", "b", "t"),)
        assert topo.k_shortest_routes("s", "t", 2) == (("s", "a", "b", "t"), ("s", "t"))

    def test_n14_routes_take_no_second_pass(self):
        # the pop limit is loose enough that every N14 route set at the
        # default k comes from the first pass, with no distance search per pop
        topo = bundled_topology("n14")
        for a in topo.nodes:
            for b in topo.nodes:
                assert search_passes(topo, a, b, 3)[1] == 1

    def test_pinned_tie_on_n14(self, n14):
        # 4->11->12->14 and 4->11->13->14 are both 3400 km; networkx yields
        # the latter second, the node-name rule the former
        routes = Provisioner(n14, "transparent", k=2).routes("4", "14")
        assert routes[1] == ("4", "11", "12", "14")

    def test_shared_per_topology_object(self, line3):
        a = Provisioner(line3, "opaque")
        b = Provisioner(line3, "transparent")
        assert a.routes("A", "C") is b.routes("A", "C")
        again = topology_from_dict(topology_to_dict(line3))
        assert Provisioner(again, "opaque").routes("A", "C") is not a.routes("A", "C")

    def test_no_route(self):
        topo = topology_from_dict({
            "name": "split", "span_length_km": 80, "nodes": ["A", "B", "C"],
            "edges": [{"a": "A", "b": "B", "length_km": 100}]})
        assert Provisioner(topo, "transparent").routes("A", "C") == ()
        assert topo.k_shortest_routes("A", "A", 2) == (("A",),)  # the one-node path
        lset = provision(topo, [Demand("A", "C", 100)], "opaque")
        assert len(lset.rejected) == 1
        with pytest.raises(TopologyError, match="unknown node"):
            topo.k_shortest_routes("A", "Z", 3)
        with pytest.raises(ValueError, match="k must be"):
            topo.k_shortest_routes("A", "B", 0)


class ReferenceProvisioner(Provisioner):
    """Grooming as it was done with networkx and full lightpath scans: a
    spare-capacity DiGraph searched by nx.dijkstra_path (opaque), and every
    lightpath added at a node checked against the route (transparent)."""

    def _groom_opaque(self, demand):
        rate = demand.rate_gbps
        # every lightpath spans one link; links enter the graph in the order
        # they got their first lightpath
        links = {}
        for lp in self._lps:
            links.setdefault(lp.nodes, []).append(lp)
        spare = nx.DiGraph()
        spare.add_nodes_from(self.topology.nodes)
        for (u, v), lps in links.items():
            if any(lp.rate_gbps - lp.carried_gbps >= rate for lp in lps):
                spare.add_edge(u, v, length_km=self.topology.link_lengths[u][v])
        try:
            path = nx.dijkstra_path(spare, demand.src, demand.dst, weight="length_km")
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            return None
        return tuple(next(lp.lp_id for lp in links[(u, v)]
                          if lp.rate_gbps - lp.carried_gbps >= rate)
                     for u, v in zip(path, path[1:]))

    def _groom_transparent(self, demand, routes):
        # the reference looks its routes up itself, not through `routes`
        rate = demand.rate_gbps
        for route in self.routes(demand.src, demand.dst):
            pos = {n: i for i, n in enumerate(route)}
            i = 0
            chain = []
            while i < len(route) - 1:
                best_id, best_j = None, i
                for lp in self._lps:
                    j = pos.get(lp.nodes[-1], -1)
                    if (lp.nodes[0] == route[i] and j > best_j
                            and lp.rate_gbps - lp.carried_gbps >= rate):
                        best_id, best_j = lp.lp_id, j
                if best_id is None:
                    break
                chain.append(best_id)
                i = best_j
            else:
                return tuple(chain)
        return None


class TestGroomingAgainstReference:
    @settings(max_examples=25, deadline=None)
    @given(topo_key=st.sampled_from(["n14", "j14", "gabriel"]),
           seed=st.integers(0, 10_000), count=st.integers(20, 250),
           n_channels=st.sampled_from([2, 6, 60]),
           arch=st.sampled_from(["opaque", "transparent"]))
    def test_same_chains(self, topo_key, seed, count, n_channels, arch):
        if topo_key == "gabriel":
            # coarse lengths make equal-length grooming chains common
            topo = coarse(generate_gabriel(12, seed=seed, extent_km=800.0))
        else:
            topo = bundled_topology(topo_key)
        demands = generate_demands(topo, count, seed).demands
        fast = Provisioner(topo, arch, n_channels=n_channels)
        ref = ReferenceProvisioner(topo, arch, n_channels=n_channels)
        for d in demands:
            assert fast.serve(d) == ref.serve(d)
        got, want = fast.result(), ref.result()
        assert [chain for _, chain in got.assignments] == \
            [chain for _, chain in want.assignments]
        assert got.lightpaths == want.lightpaths


def run_python(code: str, check: bool = True, **kwargs) -> subprocess.CompletedProcess:
    """`code` in a fresh interpreter that imports this checkout's ppmplan."""
    src = str(Path(ppmplan.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], check=check,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120, **kwargs)


def test_runtime_imports_no_networkx():
    run_python("import sys, ppmplan, ppmplan.experiment, ppmplan.cli; "
               "assert 'networkx' not in sys.modules")


def test_runtime_imports_leave_scipy_optimize_unloaded():
    # exact.py loads scipy's HiGHS binding from its file, and a later import
    # of scipy.optimize runs scipy's front end on that same module
    run_python("import sys, ppmplan, ppmplan.experiment, ppmplan.cli; "
               "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize loaded'; "
               "import scipy.optimize; "
               "core = ppmplan.exact._core; "
               "assert sys.modules['scipy.optimize._highspy._core'] is core; "
               "assert scipy.optimize._highspy._highs_wrapper._h is core; "
               "res = scipy.optimize.linprog([1], bounds=[(1, 2)], method='highs'); "
               "assert res.status == 0 and res.x.tolist() == [1.0], res")


def test_runtime_imports_leave_scipy_sparse_unloaded():
    # the cover model is plain index arrays; an exact solve that runs HiGHS
    # (a two-link route) loads scipy.sparse neither
    run_python("import sys, ppmplan, ppmplan.experiment, ppmplan.cli; "
               "assert 'scipy.sparse' not in sys.modules, 'scipy.sparse loaded on import'; "
               "inst = ppmplan.make_instance(['a', 'b'], "
               "[(['a', 'b'], 2), (['a'], 1), (['b'], 1)], 2); "
               "assert ppmplan.solve_exact(inst).total_monitors == 2; "
               "assert 'scipy.sparse' not in sys.modules, 'scipy.sparse loaded by a solve'")


def test_exact_reuses_the_binding_scipy_optimize_loaded():
    # pybind11 registers the binding's types once per process, so a second
    # load would fail; the instance has a two-link route, so HiGHS runs
    run_python("import scipy.optimize, ppmplan; "
               "assert ppmplan.exact._core is scipy.optimize._highspy._core; "
               "inst = ppmplan.make_instance(['a', 'b'], "
               "[(['a', 'b'], 2), (['a'], 1), (['b'], 1)], 2); "
               "assert ppmplan.solve_exact(inst).total_monitors == 2")


def test_exact_import_names_where_it_looked_for_the_binding(tmp_path):
    moved = tmp_path / "scipy"
    run = run_python(f"import scipy; scipy.__file__ = {str(moved / '__init__.py')!r}; "
                     "import ppmplan", check=False, capture_output=True, text=True)
    assert run.returncode == 1
    assert (f"ImportError: scipy's HiGHS binding is not in {moved / 'optimize' / '_highspy'}: "
            "no _core with a suffix in [") in run.stderr


def test_provisioning_does_not_import_traffic():
    # traffic imports provisioning, so the reverse import would be a cycle. The
    # package __init__ imports every module, so it is bypassed with a bare
    # package object to see what provisioning itself loads.
    run_python("import importlib.util, sys, types; "
               "pkg = types.ModuleType('ppmplan'); "
               "pkg.__path__ = importlib.util.find_spec('ppmplan').submodule_search_locations; "
               "sys.modules['ppmplan'] = pkg; "
               "import ppmplan.provisioning; "
               "assert 'ppmplan.traffic' not in sys.modules, 'ppmplan.traffic loaded'")
