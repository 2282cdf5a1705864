import pytest
from hypothesis import given, strategies as st

from ppmplan.analysis import (
    CostModel,
    crossing_value,
    crossings,
    sweep_cost_curves,
)


class TestCostModel:
    def test_defaults(self):
        cm = CostModel()
        assert (cm.transponder_cost, cm.transponder_power) == (4.0, 8.0)
        assert (cm.otdr_cost, cm.otdr_power) == (0.2, 0.25)

    def test_positivity(self):
        with pytest.raises(ValueError):
            CostModel(otdr_cost=0)

    @pytest.mark.parametrize("bad", ["a", None, True, -1.0, float("nan"), float("inf")])
    def test_type_checked_before_value(self, bad):
        with pytest.raises(ValueError, match="transponder_cost must be a positive finite"):
            CostModel(transponder_cost=bad)

    def test_integers_accepted(self):
        assert CostModel(transponder_cost=4, otdr_power=1).transponder_cost == 4

    def test_units_dimension(self):
        cm = CostModel()
        assert cm.units("cost") == (4.0, 0.2)
        assert cm.units("power") == (8.0, 0.25)
        with pytest.raises(ValueError):
            cm.units("mass")


class TestCrossingValue:
    def test_reference_counts_cost(self):
        cm = CostModel()
        assert crossing_value(42, 154, cm, "cost") == pytest.approx(18.3, abs=0.05)
        assert crossing_value(14, 37, cm, "cost") == pytest.approx(13.2, abs=0.05)

    def test_reference_counts_power(self):
        cm = CostModel()
        assert crossing_value(42, 154, cm, "power") == pytest.approx(11.5, abs=0.05)
        assert crossing_value(14, 37, cm, "power") == pytest.approx(8.3, abs=0.05)

    def test_zero_monitors_undefined(self):
        with pytest.raises(ValueError):
            crossing_value(0, 10, CostModel())

    def test_triples_scale_to_a_third(self):
        cm = CostModel()
        assert crossing_value(3 * 42, 154, cm, "cost") == \
            pytest.approx(crossing_value(42, 154, cm, "cost") / 3)

    @given(scale=st.floats(min_value=0.01, max_value=100))
    def test_homogeneous_in_unit_costs(self, scale):
        base = CostModel()
        scaled = CostModel(transponder_cost=4 * scale, otdr_cost=0.2 * scale)
        assert crossing_value(15, 154, scaled, "cost") == \
            pytest.approx(crossing_value(15, 154, base, "cost"))


class TestCrossings:
    def test_the_otdr_row_is_the_baseline(self):
        # a scenario with no monitor has no crossing; the OTDR row needs no traffic
        rows = {"Tr": {"monitors": 0}, "Tr-O-1": {"monitors": 15}, "OTDR": {"monitors": 154}}
        cm = CostModel()
        assert crossings(rows, cm) == {"Tr-O-1": {
            "cost_pct": crossing_value(15, 154, cm, "cost"),
            "power_pct": crossing_value(15, 154, cm, "power"),
            "break_even_ratio": 154 / 15}}


class TestSweep:
    def rows(self):
        return {"Tr-O-1": {"monitors": 15, "carried_tbps": 160.0},
                "OTDR": {"monitors": 154, "carried_tbps": None}}

    def test_crossing_point_equality(self):
        cm = CostModel()
        cross = crossing_value(15, 154, cm, "cost")
        points = {fraction: (cost, otdr_cost) for _, fraction, cost, otdr_cost
                  in sweep_cost_curves(self.rows(), cm, [0.0, cross, 100.0])}
        assert points[cross][0] == pytest.approx(points[cross][1])
        assert points[0.0][0] == 0.0

    def test_linear_zero_intercept(self):
        cm = CostModel()
        points = sweep_cost_curves(self.rows(), cm, [10, 20, 40])
        vals = {fraction: cost for _, fraction, cost, _ in points}
        assert vals[20] == pytest.approx(2 * vals[10])
        assert vals[40] == pytest.approx(4 * vals[10])

    def test_paper_adjacent_crossing(self):
        # monitor count 15 vs baseline 154: formula gives 51.3%; the reported
        # 52.7% reflects unrounded instance averages
        assert crossing_value(15, 154, CostModel(), "cost") == pytest.approx(51.33, abs=0.05)

    def test_validation(self):
        cm = CostModel()
        with pytest.raises(ValueError):
            sweep_cost_curves(self.rows(), cm, [])
        with pytest.raises(ValueError):
            sweep_cost_curves({"Tr-O-1": {"monitors": 5, "carried_tbps": 1.0}}, cm, [1.0])

    def test_no_curve_without_traffic_or_monitors(self):
        # such a scenario is skipped, in the order the rows give the curves
        rows = {"Tr": {"monitors": 0, "carried_tbps": 2.0},
                "Tr-O-1": {"monitors": 5, "carried_tbps": 0.0},
                "Op-O-1": {"monitors": 5, "carried_tbps": None},
                "Tr-O-3": {"monitors": 4, "carried_tbps": 2.0},
                "OTDR": {"monitors": 10, "carried_tbps": None},
                "Op": {"monitors": 2, "carried_tbps": 1.0}}
        assert sweep_cost_curves(rows, CostModel(), [50]) == [
            ("Tr-O-3", 50.0, 4 * 2.0 / 2.0, 10 * 0.2 / 2.0),
            ("Op", 50.0, 2 * 2.0 / 1.0, 10 * 0.2 / 1.0)]

    def test_the_otdr_row_needs_no_carried_traffic(self):
        # it used to be read, and a summary's OTDR row without it ended in a KeyError
        rows = {"Tr-O-1": {"monitors": 15, "carried_tbps": 160.0}, "OTDR": {"monitors": 154}}
        assert sweep_cost_curves(rows, CostModel(), [50]) == \
            sweep_cost_curves(self.rows(), CostModel(), [50])
