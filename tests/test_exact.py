from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import OptimizeResult

from conftest import random_instance
from ppmplan import exact, placement
from ppmplan.exact import DEFAULT_NODE_BUDGET, SolverError, solve_exact
from ppmplan.placement import (
    InstanceError,
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

    @pytest.mark.parametrize("budget", [-1, -3])
    def test_negative_budget_rejected(self, budget):
        inst = make_instance(["e1", "e2"], [(("e1", "e2"), 1), (("e1",), 1)], gamma=1)
        with pytest.raises(InstanceError, match=f"node_budget must be >= 0, got {budget}"):
            solve_exact(inst, node_budget=budget)

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


def _branching_instance():
    # root LP 4.5 (1.5 on each two-link group), greedy 6, optimum 5: the
    # root screen settles neither mode, so the MIP runs
    return make_instance(
        ["e0", "e1", "e2"],
        [(("e0", "e2"), 3), (("e1", "e0"), 3), (("e2",), 2), (("e2", "e1"), 2)],
        gamma=3)


@pytest.fixture
def milp_calls(monkeypatch):
    """Records (options, result) of every real milp call solve_exact makes."""
    calls = []
    real_milp = exact.milp

    def spy(*args, **kwargs):
        options = dict(kwargs["options"])  # milp pops node_limit from its options
        res = real_milp(*args, **kwargs)
        calls.append((options, res))
        return res

    monkeypatch.setattr(exact, "milp", spy)
    return calls


@pytest.mark.parametrize("mode", ["lexicographic", "weighted"])
def test_lp_and_mip_get_sparse_constraint_matrices(mode, monkeypatch):
    inst = _branching_instance()
    seen = {}
    real_linprog, real_milp = exact.linprog, exact.milp

    def linprog_spy(*args, **kwargs):
        seen["linprog"] = kwargs["A_ub"]
        return real_linprog(*args, **kwargs)

    def milp_spy(*args, **kwargs):
        seen["milp"] = kwargs["constraints"].A
        return real_milp(*args, **kwargs)

    monkeypatch.setattr(exact, "linprog", linprog_spy)
    monkeypatch.setattr(exact, "milp", milp_spy)
    solve_exact(inst, mode=mode)
    delta = inst.delta.toarray()
    if mode == "lexicographic":
        expected = -delta[inst.max_coverage > 0]
    else:
        expected = np.hstack([-delta, np.eye(len(inst.links))])
    assert set(seen) == {"linprog", "milp"}
    for a in seen.values():
        assert sparse.issparse(a)
        assert np.array_equal(a.toarray(), expected)


class TestMipFallback:
    @pytest.mark.parametrize("mode", ["lexicographic", "weighted"])
    def test_fractional_root_goes_to_the_mip(self, mode, milp_calls):
        inst = _branching_instance()
        sol = solve_exact(inst, mode=mode)
        assert [options for options, _ in milp_calls] == \
            [{"node_limit": DEFAULT_NODE_BUDGET - 1, "mip_rel_gap": 0}]
        assert sol.optimal
        assert (sol.total_monitors, sol.unsatisfied) == (5, 0)
        assert sol.objective == brute_force_oracle(inst, mode=mode).objective

    def test_matches_oracle_where_the_root_is_fractional(self, milp_calls):
        # about one solve in 450 of these draws reaches the MIP (21 of the
        # first 9,780 from seed 0)
        rng = np.random.default_rng(0)
        reached = {"lexicographic": 0, "weighted": 0}
        for _ in range(10_000):
            if min(reached.values()) >= 10:
                break
            inst = random_instance(rng, max_links=8, max_groups=8, max_count=3, max_gamma=3)
            for mode in reached:
                before = len(milp_calls)
                sol = solve_exact(inst, mode=mode)
                if len(milp_calls) == before:
                    continue
                reached[mode] += 1
                assert sol.optimal
                assert sol.objective == brute_force_oracle(inst, mode=mode).objective
                assert verify_solution(inst, sol)
        assert min(reached.values()) >= 10, reached

    @pytest.mark.parametrize("mode", ["lexicographic", "weighted"])
    def test_node_limit_stop_returns_incumbent(self, mode, milp_calls):
        inst = _branching_instance()
        sol = solve_exact(inst, mode=mode, node_budget=1)
        [(options, res)] = milp_calls
        assert options["node_limit"] == 0
        assert res.status == 4 and "HiGHS Status 16:" in res.message
        assert not sol.optimal
        assert verify_solution(inst, sol)
        assert sol.objective >= brute_force_oracle(inst, mode=mode).objective

    def test_other_status_4_raises_solver_error(self, monkeypatch):
        monkeypatch.setattr(exact, "milp", lambda *a, **k: OptimizeResult(
            status=4, message="(HiGHS Status 4: model_status is Solve error)",
            x=None, fun=None))
        with pytest.raises(SolverError, match="MIP failed with status 4"):
            solve_exact(_branching_instance())


@pytest.fixture
def greedy_calls(monkeypatch):
    """Records (instance, rng) of every run of the transparent greedy."""
    calls = []
    real = placement._greedy_counts

    def spy(instance, rng=None):
        calls.append((instance, rng))
        return real(instance, rng)

    monkeypatch.setattr(placement, "_greedy_counts", spy)
    return calls


class TestSharedGreedy:
    @pytest.mark.parametrize("greedy_first", [True, False], ids=["greedy-exact", "exact-greedy"])
    def test_greedy_runs_once_per_instance(self, greedy_calls, greedy_first):
        # exact then greedy is the order _run_seed uses under compare_solvers
        rng = np.random.default_rng(21)
        instances = [random_instance(rng, max_links=8, max_groups=8, max_count=3, max_gamma=3)
                     for _ in range(40)]
        for inst in instances:
            if greedy_first:
                solve_greedy(inst)
            for mode in ("lexicographic", "weighted"):
                solve_exact(inst, mode=mode)
            solve_greedy(inst)
        # a single-hop instance's greedy is settled without a run
        assert Counter(id(inst) for inst, _ in greedy_calls) == \
            {id(inst): 1 for inst in instances if inst.max_hops != 1}
        assert all(rng is None for _, rng in greedy_calls)

    def test_seeded_random_is_never_cached(self, greedy_calls):
        rng = np.random.default_rng(22)
        for _ in range(40):
            inst = random_instance(rng, max_links=8, max_groups=8, max_count=3, max_gamma=3)
            before = len(greedy_calls)
            seeded = [solve_greedy(inst, tie_break="seeded_random", seed=s) for s in (0, 1, 0)]
            assert len(greedy_calls) == before + 3
            assert all(isinstance(r, np.random.Generator) for _, r in greedy_calls[before:])
            assert "greedy" not in vars(inst)
            assert seeded[0] == seeded[2]
            fresh = replace(inst)
            assert "greedy" not in vars(fresh)
            assert solve_greedy(inst) == solve_greedy(fresh)

    @pytest.mark.parametrize("mode", ["lexicographic", "weighted"])
    def test_reused_instance_solves_like_a_fresh_one(self, mode):
        rng = np.random.default_rng(23)
        for _ in range(60):
            inst = random_instance(rng, max_links=8, max_groups=8, max_count=3, max_gamma=3)
            reused = (solve_greedy(inst), solve_exact(inst, mode=mode), solve_greedy(inst),
                      solve_exact(inst, mode=mode))
            assert reused[0] == reused[2] and reused[1] == reused[3]
            assert reused[:2] == (solve_greedy(replace(inst)),
                                  solve_exact(replace(inst), mode=mode))

    def test_cached_value_is_tuples(self):
        inst = make_instance(
            ["e1", "e2", "e3"],
            [(("e1", "e2"), 2), (("e2", "e3"), 1), (("e3",), 2)], gamma=2)
        p, selection = inst.greedy
        assert type(inst.greedy) is tuple
        assert type(p) is tuple and type(selection) is tuple
        assert all(type(v) is int for v in p + selection)
        assert inst.greedy is inst.greedy
        assert solve_greedy(inst).selection == selection
        assert tuple(exact._greedy_p(inst)) == p


@pytest.fixture
def lp_calls(monkeypatch):
    """Counts the linprog and milp calls solve_exact makes."""
    calls = {"linprog": 0, "milp": 0}
    for name in calls:
        real = getattr(exact, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(exact, name, spy)
    return calls


class TestSingleHop:
    @pytest.mark.parametrize("mode", ["lexicographic", "weighted"])
    def test_settled_without_an_lp(self, mode, lp_calls):
        rng = np.random.default_rng(31)
        for _ in range(150):
            inst = random_instance(rng, max_links=8, max_groups=8, max_count=4,
                                   max_gamma=3, single_hop=True)
            sol = solve_exact(inst, mode=mode)
            assert sol.optimal
            assert sol.objective == brute_force_oracle(inst, mode=mode).objective
            assert verify_solution(inst, sol)
        assert lp_calls == {"linprog": 0, "milp": 0}

    @pytest.mark.parametrize("mode", ["lexicographic", "weighted"])
    @pytest.mark.parametrize("node_budget", [0, DEFAULT_NODE_BUDGET])
    def test_incumbent_in_closed_form(self, mode, node_budget, monkeypatch):
        # min(counts, gamma) is the greedy's own p, so the greedy is not run
        greedy_calls = []
        real = placement._greedy_counts

        def spy(*args, **kwargs):
            greedy_calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(placement, "_greedy_counts", spy)
        rng = np.random.default_rng(32)
        for _ in range(100):
            inst = random_instance(rng, max_links=8, max_groups=8, max_count=4,
                                   max_gamma=3, single_hop=True)
            sol = solve_exact(inst, mode=mode, node_budget=node_budget)
            assert greedy_calls == []
            p = tuple(sol.p.get(g.key, 0) for g in inst.groups)
            assert p == inst.greedy[0]
            assert sol.optimal == (node_budget >= 1 or not inst.groups)
            greedy_calls.clear()

    def test_zero_budget_is_still_not_optimal(self, lp_calls):
        inst = make_instance(["e1", "e2"], [(("e1",), 2), (("e2",), 1)], gamma=2)
        sol = solve_exact(inst, node_budget=0)
        assert not sol.optimal
        assert verify_solution(inst, sol)
        assert lp_calls == {"linprog": 0, "milp": 0}

    def test_multi_hop_still_solves_the_root_lp(self, lp_calls):
        inst = make_instance(
            ["e1", "e2"],
            [(("e1", "e2"), 1), (("e1",), 3), (("e2",), 3)], gamma=1)
        assert solve_exact(inst).optimal
        assert lp_calls == {"linprog": 1, "milp": 0}
