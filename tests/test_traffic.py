import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ppmplan.provisioning import Provisioner, provision
from ppmplan.topology import TopologyError, bundled_topology, generate_gabriel, topology_from_dict
from ppmplan.traffic import (
    ALLOWED_RATES_GBPS,
    Demand,
    SaturationError,
    find_load_at_rejection,
    generate_demands,
    read_demands_csv,
    write_demands_csv,
)


class TestDemandTypes:
    def test_endpoints_distinct(self):
        with pytest.raises(ValueError):
            Demand("A", "A", 100)

    def test_rate_restricted(self):
        with pytest.raises(ValueError):
            Demand("A", "B", 150)
        for rate in ALLOWED_RATES_GBPS:
            Demand("A", "B", rate)

    def test_total_tbps(self):
        ds = generate_demands(
            topology_from_dict({"name": "t", "span_length_km": 80,
                                "nodes": ["A", "B"],
                                "edges": [{"a": "A", "b": "B", "length_km": 10}]}),
            100, seed=0)
        assert ds.total_tbps == pytest.approx(
            sum(d.rate_gbps for d in ds.demands) / 1000.0)


class TestGeneration:
    def test_two_node_endpoints(self, two_node):
        ds = generate_demands(two_node, 1, seed=0)
        d = ds.demands[0]
        assert {d.src, d.dst} == {"A", "B"}

    def test_mean_rate(self, n14):
        # uniform over {100,200,300,400}: expected total 0.25 Tb/s per demand
        ds = generate_demands(n14, 4000, seed=0)
        assert ds.total_tbps / len(ds) == pytest.approx(0.25, abs=0.01)

    def test_determinism(self, n14):
        assert generate_demands(n14, 10, seed=3) == generate_demands(n14, 10, seed=3)
        assert generate_demands(n14, 10, seed=3) != generate_demands(n14, 10, seed=4)

    def test_prefix_property(self, n14):
        short = generate_demands(n14, 25, seed=5)
        long = generate_demands(n14, 60, seed=5)
        assert long.demands[:25] == short.demands

    def test_validation(self, n14):
        with pytest.raises(ValueError):
            generate_demands(n14, 0, seed=0)
        lonely = topology_from_dict({"name": "l", "span_length_km": 80,
                                     "nodes": ["A"], "edges": []})
        with pytest.raises(TopologyError):
            generate_demands(lonely, 5, seed=0)


def scalar_draws(topology, count, seed):
    """The demand stream as three scalar draws per demand: source,
    destination among the other nodes, rate index."""
    rng = np.random.default_rng(seed)
    nodes = topology.nodes
    demands = []
    for _ in range(count):
        i = int(rng.integers(len(nodes)))
        j = int(rng.integers(len(nodes) - 1))
        if j >= i:
            j += 1
        rate = ALLOWED_RATES_GBPS[int(rng.integers(len(ALLOWED_RATES_GBPS)))]
        demands.append(Demand(nodes[i], nodes[j], rate))
    return tuple(demands)


class TestDrawStream:
    """Each batch comes from one `integers` call; its stream must stay that of
    the scalar draws, which every bundle was generated from."""

    @pytest.fixture(params=[2, 3, 14, 30])
    def topo(self, request, two_node, line3, n14):
        return {2: two_node, 3: line3, 14: n14,
                30: generate_gabriel(30, seed=request.param)}[request.param]

    @pytest.mark.parametrize("seed", [0, 1, 7, 12_345])
    def test_generate_matches_scalar_draws(self, topo, seed):
        for count in (1, 2, 10, 333):
            assert generate_demands(topo, count, seed).demands == \
                scalar_draws(topo, count, seed)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_prefix_property_across_batch_sizes(self, topo, seed):
        long = generate_demands(topo, 200, seed).demands
        for count in (1, 9, 10, 11, 199):
            assert generate_demands(topo, count, seed).demands == long[:count]

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("step", [1, 7, 10])
    def test_load_search_matches_scalar_draws(self, topo, seed, step):
        # six channels saturate even the two-node network within the cap
        ds, _ = find_load_at_rejection(topo, 0.02, seed, step=step,
                                       max_demands=2_000, n_channels=6)
        assert ds.demands == scalar_draws(topo, len(ds), seed)
        assert ds == generate_demands(topo, len(ds), seed)


class TestLoadSearch:
    def test_closed_form_crossing_single_direction(self, two_node):
        """Capacity oracle: 60 channels x 800 G = 48 Tb/s per direction, so
        one-directional 400G demands fit 120 lightpath slots; the rejected
        count first reaches 1% of offered at demand 122."""
        demands = [Demand("A", "B", 400)] * 130
        prov = Provisioner(two_node, "transparent")
        crossing = None
        for i, d in enumerate(demands, start=1):
            prov.serve(d)
            if crossing is None and prov.rejected_count / i >= 0.01:
                crossing = i
        assert crossing == 122
        assert prov.result().carried_gbps == 120 * 400

    def test_first_crossing_contract(self, two_node):
        ds, searched = find_load_at_rejection(two_node, 0.01, seed=0, step=10)
        lset = provision(two_node, ds, "transparent")
        # the search returns the very set that provisioning the demands builds
        assert searched == lset
        assert searched.carried_gbps / 1000.0 == lset.carried_gbps / 1000.0 == 92.7
        assert lset.rejection_fraction >= 0.01
        before = provision(two_node, ds.demands[:len(ds) - 10], "transparent")
        assert before.rejection_fraction < 0.01
        # returned set regenerates from its seed and count
        assert generate_demands(two_node, len(ds), ds.seed) == ds

    def test_target_validation(self, two_node):
        with pytest.raises(ValueError):
            find_load_at_rejection(two_node, 1.0, seed=0)
        with pytest.raises(ValueError):
            find_load_at_rejection(two_node, 0.0, seed=0)

    def test_saturation_error(self, two_node):
        with pytest.raises(SaturationError):
            find_load_at_rejection(two_node, 0.01, seed=0, step=10, max_demands=50)

    def test_rejected_count_monotone(self, n14):
        prov = Provisioner(n14, "transparent")
        ds = generate_demands(n14, 900, seed=0)
        counts = []
        for i, d in enumerate(ds.demands, start=1):
            prov.serve(d)
            if i % 50 == 0:
                counts.append(prov.rejected_count)
        assert counts == sorted(counts)

    def test_occupancy_relation_between_datasets(self, n14, j14):
        """Under this provisioning policy the continental network saturates
        at a higher spectrum occupancy than the national one, mirroring the
        reported ordering; the absolute levels stay policy-dependent."""
        occ = {}
        for name, topo in (("n14", n14), ("j14", j14)):
            ds, searched = find_load_at_rejection(topo, 0.01, seed=0, step=10)
            lset = provision(topo, ds, "transparent")
            assert searched == lset
            assert searched.carried_gbps == lset.carried_gbps
            occ[name] = lset.spectrum_occupancy(topo)
            assert 0.30 <= occ[name] <= 0.90
            op = provision(topo, ds, "opaque")
            assert op.carried_gbps >= lset.carried_gbps
        assert occ["n14"] > occ["j14"]


class TestSearchReuse:
    """The lightpath set the load search returns is the set a fresh
    transparent provisioning of its demands builds, so `run` can take it as
    the seed's transparent result instead of serving the demands again."""

    @settings(max_examples=20, deadline=None)
    @given(topo_key=st.sampled_from(["n14", "j14", "gabriel12"]),
           seed=st.integers(0, 10_000),
           target=st.floats(0.005, 0.05),
           k=st.integers(1, 4),
           n_channels=st.sampled_from([6, 60]))
    def test_search_set_equals_provisioning(self, topo_key, seed, target, k, n_channels):
        topo = (generate_gabriel(12, seed=seed) if topo_key == "gabriel12"
                else bundled_topology(topo_key))
        ds, searched = find_load_at_rejection(topo, target, seed, k=k,
                                              n_channels=n_channels)
        fresh = provision(topo, ds, "transparent", k=k, n_channels=n_channels)
        assert searched.architecture == "transparent"
        assert searched.lightpaths == fresh.lightpaths
        assert searched.assignments == fresh.assignments
        assert searched.accepted == fresh.accepted
        assert searched.rejected == fresh.rejected
        assert searched.n_channels == n_channels
        assert len(searched.accepted) + len(searched.rejected) == len(ds)
        assert searched.rejection_fraction >= target


class TestCsv:
    def test_round_trip_with_sidecar(self, n14, tmp_path):
        ds = generate_demands(n14, 20, seed=11)
        path = tmp_path / "demands.csv"
        write_demands_csv(ds, path)
        again = read_demands_csv(path)
        assert again.demands == ds.demands
        assert again.seed == 11
