import pytest
from hypothesis import strategies as st

from ppmplan.placement import make_instance
from ppmplan.topology import bundled_topology, topology_from_dict
from ppmplan.traffic import Demand


@pytest.fixture(scope="session")
def n14():
    return bundled_topology("n14")


@pytest.fixture(scope="session")
def j14():
    return bundled_topology("j14")


@pytest.fixture
def two_node():
    return topology_from_dict({
        "name": "two", "span_length_km": 80,
        "nodes": ["A", "B"],
        "edges": [{"a": "A", "b": "B", "length_km": 100}],
    })


@pytest.fixture
def line3():
    return topology_from_dict({
        "name": "line3", "span_length_km": 80,
        "nodes": ["A", "B", "C"],
        "edges": [{"a": "A", "b": "B", "length_km": 100},
                  {"a": "B", "b": "C", "length_km": 100}],
    })


def random_instance(rng, max_links=6, max_groups=6, max_count=2, max_gamma=2,
                    single_hop=False):
    """Random cover instance with distinct routes; solver cross-check fuel."""
    n_e = int(rng.integers(1, max_links + 1))
    links = [f"e{i}" for i in range(n_e)]
    routes = set()
    n_l = int(rng.integers(0, max_groups + 1))
    for _ in range(n_l):
        if single_hop:
            route = (links[int(rng.integers(n_e))],)
        else:
            size = int(rng.integers(1, min(3, n_e) + 1))
            route = tuple(rng.choice(n_e, size=size, replace=False))
            route = tuple(links[i] for i in route)
        routes.add(route)
    groups = [(route, int(rng.integers(1, max_count + 1))) for route in sorted(routes)]
    gamma = int(rng.integers(1, max_gamma + 1))
    return make_instance(links, groups, gamma)


def saturating_demands(topology, gamma, rate=300):
    """Demand list giving every directed link at least `gamma` single-hop
    lightpaths under either architecture: 2*gamma same-pair demands per link,
    grouped per link so spare capacity never leaks across links."""
    demands = []
    for link in topology.links:
        demands.extend(Demand(link.src, link.dst, rate) for _ in range(2 * gamma))
    return demands


@st.composite
def cover_instances(draw, max_links=30, max_groups=40):
    """1 to `max_links` links under shuffled labels, up to `max_groups`
    groups whose routes list links in drawn order (not link-index order),
    counts 1-4, gamma 1-3. Small counts against gamma up to 3 leave links
    whose availability runs out while they are still needy, and some links
    have no group at all. Smaller caps keep instances within the oracle's
    reach."""
    n_e = draw(st.integers(1, max_links))
    labels = draw(st.permutations([f"e{i}" for i in range(n_e)]))
    routes = draw(st.lists(
        st.lists(st.integers(0, n_e - 1), min_size=1, max_size=min(n_e, 6), unique=True)
        .map(tuple), max_size=max_groups, unique=True))
    groups = [(tuple(labels[i] for i in route), draw(st.integers(1, 4))) for route in routes]
    return make_instance(labels, groups, draw(st.integers(1, 3)))
