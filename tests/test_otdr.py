import pytest

from ppmplan.otdr import count_otdrs, undirected_label
from ppmplan.topology import TopologyError, topology_from_dict


def single_link_topology(length_km, span=80):
    return topology_from_dict({
        "name": "one", "span_length_km": span, "nodes": ["A", "B"],
        "edges": [{"a": "A", "b": "B", "length_km": length_km}]})


class TestUnitEvaluations:
    def test_single_span_link(self):
        # s=1: inline max(0, ceil(-1/2)) = 0; node terms ceil(2/4) each
        plan = count_otdrs(single_link_topology(50))
        assert plan.per_link_inline == {undirected_label("A", "B"): 0}
        assert plan.per_node == {"A": 1, "B": 1}
        assert plan.total == 2

    def test_six_span_link(self):
        # s=6: inline ceil(4/2) = 2
        plan = count_otdrs(single_link_topology(450))
        assert plan.per_link_inline == {undirected_label("A", "B"): 2}
        assert plan.total == 4

    @pytest.mark.parametrize("length,expected_inline", [
        (80, 0),    # s=1
        (160, 0),   # s=2
        (161, 1),   # s=3
        (320, 1),   # s=4
        (400, 2),   # s=5
    ])
    def test_short_links_no_inline(self, length, expected_inline):
        plan = count_otdrs(single_link_topology(length))
        assert plan.per_link_inline[undirected_label("A", "B")] == expected_inline


class TestCalibration:
    def test_n14_total(self, n14):
        assert count_otdrs(n14).total == 154

    def test_j14_total(self, j14):
        assert count_otdrs(j14).total == 37

    def test_all_lit_equals_unrestricted(self, n14):
        lit = [l.label for l in n14.links]
        assert count_otdrs(n14, lit_links=lit).total == 154


class TestLitRestriction:
    def test_degree_term_restricted(self, line3):
        plan = count_otdrs(line3, lit_links=["A->B"])
        assert plan.per_node == {"A": 1, "B": 1, "C": 0}
        assert plan.total == 2

    def test_direction_ignored(self, line3):
        a = count_otdrs(line3, lit_links=["A->B", "C->B"])
        b = count_otdrs(line3, lit_links=["B->A", "B->C"])
        assert a == b

    def test_unknown_link(self, line3):
        with pytest.raises(TopologyError, match="lit link 'A->C' not in topology"):
            count_otdrs(line3, lit_links=["A->C"])

    @pytest.mark.parametrize("label", ["A<->B", ("A", "B")], ids=["undirected", "pair"])
    def test_only_directed_labels(self, line3, label):
        with pytest.raises(TopologyError, match="lit link .* not in topology"):
            count_otdrs(line3, lit_links=[label])

    def test_json_dump(self, two_node):
        d = count_otdrs(two_node).to_json_dict()
        assert d["total"] == 2
        assert set(d) == {"per_node", "per_link", "total"}


class TestMonotonicity:
    def test_adding_edge_never_decreases(self):
        base = topology_from_dict({
            "name": "b", "span_length_km": 80, "nodes": ["A", "B", "C"],
            "edges": [{"a": "A", "b": "B", "length_km": 300}]})
        bigger = topology_from_dict({
            "name": "b2", "span_length_km": 80, "nodes": ["A", "B", "C"],
            "edges": [{"a": "A", "b": "B", "length_km": 300},
                      {"a": "B", "b": "C", "length_km": 300}]})
        assert count_otdrs(bigger).total >= count_otdrs(base).total

    def test_adding_span_never_decreases(self):
        for length in range(100, 3000, 75):
            shorter = count_otdrs(single_link_topology(length)).total
            longer = count_otdrs(single_link_topology(length + 80)).total
            assert longer >= shorter
