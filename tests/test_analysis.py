import pytest
from hypothesis import given, strategies as st

from ppmplan.analysis import (
    CostModel,
    ScenarioResult,
    crossing_value,
    sweep_cost_curves,
    unsatisfied_npl_avg,
)
from ppmplan.placement import make_instance, solve_greedy


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


class TestUnsatisfiedAvg:
    def test_all_satisfied(self):
        assert unsatisfied_npl_avg({"a": 3, "b": 3}, gamma=3) == 0.0

    def test_partial(self):
        assert unsatisfied_npl_avg({"a": 3, "b": 1}, gamma=3) == pytest.approx(1.0)

    def test_unoptimized_indicator(self):
        # at gamma = 1 the capped shortfall is the zero-coverage indicator
        assert unsatisfied_npl_avg({"a": 5, "b": 0, "c": 2}, gamma=1) == pytest.approx(1 / 3)

    def test_accepts_solution(self):
        inst = make_instance(["e1", "e2"], [(("e1",), 1)], gamma=2)
        sol = solve_greedy(inst)
        assert unsatisfied_npl_avg(sol, gamma=2) == pytest.approx(3 / 2)

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            unsatisfied_npl_avg({"a": 1}, gamma=0)

    def test_overcoverage_capped(self):
        assert unsatisfied_npl_avg({"a": 9}, gamma=2) == 0.0


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


class TestSweep:
    def rows(self):
        return [
            ScenarioResult("Tr-O-1", monitor_count=15, carried_tbps=160.0),
            ScenarioResult("OTDR", monitor_count=154),
        ]

    def test_crossing_point_equality(self):
        cm = CostModel()
        cross = crossing_value(15, 154, cm, "cost")
        points = sweep_cost_curves(self.rows(), cm, [0.0, cross, 100.0])
        at_cross = [p for p in points if p.fraction_pct == cross][0]
        assert at_cross.cost_per_tbps == pytest.approx(at_cross.otdr_cost_per_tbps)
        at_zero = [p for p in points if p.fraction_pct == 0.0][0]
        assert at_zero.cost_per_tbps == 0.0

    def test_linear_zero_intercept(self):
        cm = CostModel()
        points = sweep_cost_curves(self.rows(), cm, [10, 20, 40])
        vals = {p.fraction_pct: p.cost_per_tbps for p in points}
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
            sweep_cost_curves([ScenarioResult("Tr-O-1", 5, carried_tbps=0.0),
                               ScenarioResult("OTDR", 10)], cm, [1.0])
        with pytest.raises(ValueError):
            sweep_cost_curves([ScenarioResult("Tr-O-1", 5, carried_tbps=1.0)], cm, [1.0])
