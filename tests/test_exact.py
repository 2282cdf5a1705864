import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from conftest import random_instance
from ppmplan import exact
from ppmplan.exact import SolverError, solve_exact
from ppmplan.placement import (
    brute_force_oracle,
    make_instance,
    solve_greedy,
    verify_solution,
)


class TestSpecCases:
    def test_shared_route_covers_both_links(self):
        inst = make_instance(
            ["e1", "e2"],
            [(("e1", "e2"), 1), (("e1",), 3), (("e2",), 3)], gamma=1)
        sol = solve_exact(inst)
        assert sol.total_monitors == 1
        assert sol.unsatisfied == 0
        assert sol.p == {"e1|e2": 1}
        assert sol.optimal

    def test_gamma_three(self):
        inst = make_instance(
            ["e1", "e2"],
            [(("e1", "e2"), 1), (("e1",), 3), (("e2",), 3)], gamma=3)
        sol = solve_exact(inst)
        assert sol.total_monitors == 5
        assert sol.unsatisfied == 0
        assert sol.objective == brute_force_oracle(inst).objective

    def test_coverage_capped_by_multiplicity(self):
        inst = make_instance(["e1"], [(("e1",), 1)], gamma=2)
        sol = solve_exact(inst)
        assert (sol.total_monitors, sol.x["e1"], sol.unsatisfied) == (1, 1, 1)
        assert sol.objective == inst.alpha + 1

    def test_empty(self):
        inst = make_instance(["e1", "e2"], [], gamma=2)
        sol = solve_exact(inst)
        assert sol.total_monitors == 0
        assert sol.unsatisfied == 4
        assert sol.optimal


class TestOracleAgreement:
    @pytest.mark.parametrize("mode", ["lexicographic", "weighted"])
    def test_matches_oracle_on_randoms(self, mode):
        rng = np.random.default_rng(7)
        for _ in range(120):
            inst = random_instance(rng)
            sol = solve_exact(inst, mode=mode)
            oracle = brute_force_oracle(inst, mode=mode)
            assert sol.optimal
            assert sol.objective == oracle.objective
            assert verify_solution(inst, sol)

    def test_lex_and_weighted_agree(self):
        rng = np.random.default_rng(8)
        for _ in range(80):
            inst = random_instance(rng, max_count=3)
            lex = solve_exact(inst, mode="lexicographic")
            weighted = solve_exact(inst, mode="weighted")
            assert (lex.unsatisfied, lex.total_monitors) == \
                (weighted.unsatisfied, weighted.total_monitors)

    def test_greedy_soundness(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            inst = random_instance(rng, max_links=8, max_groups=8)
            greedy = solve_greedy(inst)
            exact = solve_exact(inst)
            assert greedy.unsatisfied >= exact.unsatisfied
            if greedy.unsatisfied == exact.unsatisfied:
                assert greedy.total_monitors >= exact.total_monitors


class TestBudget:
    def test_zero_budget_returns_incumbent(self):
        inst = make_instance(
            ["e1", "e2", "e3"],
            [(("e1", "e2"), 1), (("e2", "e3"), 1), (("e1",), 1), (("e3",), 1)],
            gamma=1)
        sol = solve_exact(inst, node_budget=0)
        assert not sol.optimal
        assert verify_solution(inst, sol)
        assert sol.objective >= brute_force_oracle(inst).objective

    def test_mode_validation(self):
        inst = make_instance(["e1"], [(("e1",), 1)], gamma=1)
        with pytest.raises(Exception):
            solve_exact(inst, mode="fastest")


class TestWarmStartAndFailures:
    def test_warm_start_is_the_greedy_placement(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            inst = random_instance(rng, max_links=8, max_groups=8, max_count=3, max_gamma=3)
            greedy = solve_greedy(inst)
            p = exact._greedy_p(inst)
            assert p.dtype == np.int64
            assert {g.key: int(c) for g, c in zip(inst.groups, p) if c} == greedy.p

    def test_lp_failure_raises_solver_error(self, monkeypatch):
        def failing_linprog(*args, **kwargs):
            return OptimizeResult(status=4, message="numerical difficulties", x=None, fun=None)

        monkeypatch.setattr(exact, "linprog", failing_linprog)
        inst = make_instance(["e1", "e2"], [(("e1", "e2"), 1), (("e1",), 2)], gamma=1)
        with pytest.raises(SolverError, match="status 4: numerical difficulties"):
            solve_exact(inst)
        assert issubclass(SolverError, RuntimeError)
