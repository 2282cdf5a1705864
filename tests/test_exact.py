from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import OptimizeResult
from scipy.optimize import linprog as scipy_linprog

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
        oracle = brute_force_oracle(inst)
        assert (sol.total_monitors, sol.unsatisfied) == (oracle.total_monitors, oracle.unsatisfied)

    def test_coverage_capped_by_multiplicity(self):
        inst = make_instance(["e1"], [(("e1",), 1)], gamma=2)
        sol = solve_exact(inst)
        assert (sol.total_monitors, sol.x["e1"], sol.unsatisfied) == (1, 1, 1)

    def test_empty(self):
        inst = make_instance(["e1", "e2"], [], gamma=2)
        sol = solve_exact(inst)
        assert sol.total_monitors == 0
        assert sol.unsatisfied == 4
        assert sol.optimal


class TestOracleAgreement:
    def test_matches_oracle_on_randoms(self):
        rng = np.random.default_rng(7)
        for _ in range(120):
            inst = random_instance(rng)
            sol = solve_exact(inst)
            oracle = brute_force_oracle(inst)
            assert sol.optimal
            assert sol.total_monitors == oracle.total_monitors
            assert sol.unsatisfied == oracle.unsatisfied
            assert verify_solution(inst, sol)

    def test_weighted_optimum_reaches_the_unsatisfied_floor(self):
        # the oracle keeps the placements that meet every link's requirement,
        # so both optima leave only the unsatisfied floor
        rng = np.random.default_rng(8)
        for _ in range(80):
            inst = random_instance(rng, max_count=3)
            oracle = brute_force_oracle(inst)
            sol = solve_exact(inst)
            assert oracle.unsatisfied == sol.unsatisfied == inst.min_unsatisfied
            assert oracle.total_monitors == sol.total_monitors

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
        oracle = brute_force_oracle(inst)
        assert sol.unsatisfied == oracle.unsatisfied
        assert sol.total_monitors >= oracle.total_monitors

    @pytest.mark.parametrize("budget", [-1, -3])
    def test_negative_budget_rejected(self, budget):
        inst = make_instance(["e1", "e2"], [(("e1", "e2"), 1), (("e1",), 1)], gamma=1)
        with pytest.raises(InstanceError, match=f"node_budget must be >= 0, got {budget}"):
            solve_exact(inst, node_budget=budget)

    def test_mode_validation(self):
        # one model: neither solver takes a mode
        inst = make_instance(["e1"], [(("e1",), 1)], gamma=1)
        with pytest.raises(TypeError, match="mode"):
            solve_exact(inst, mode="weighted")
        with pytest.raises(TypeError, match="mode"):
            brute_force_oracle(inst, mode="weighted")


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
    # root screen does not settle it, so the MIP runs
    return make_instance(
        ["e0", "e1", "e2"],
        [(("e0", "e2"), 3), (("e1", "e0"), 3), (("e2",), 2), (("e2", "e1"), 2)],
        gamma=3)


def _is_mip(milp_kwargs):
    # exact.linprog calls exact.milp too, for the root LP, with no integrality
    return milp_kwargs.get("integrality") is not None


@pytest.fixture
def milp_calls(monkeypatch):
    """Records (options, result) of every real MIP solve solve_exact makes."""
    calls = []
    real_milp = exact.milp

    def spy(*args, **kwargs):
        if not _is_mip(kwargs):
            return real_milp(*args, **kwargs)
        options = dict(kwargs["options"])  # milp pops node_limit from its options
        res = real_milp(*args, **kwargs)
        calls.append((options, res))
        return res

    monkeypatch.setattr(exact, "milp", spy)
    return calls


def test_lp_and_mip_get_sparse_constraint_matrices(monkeypatch):
    inst = _branching_instance()
    seen = {}
    real_linprog, real_milp = exact.linprog, exact.milp

    def linprog_spy(cost, constraints, bounds):
        seen["linprog"] = constraints
        return real_linprog(cost, constraints, bounds)

    def milp_spy(*args, **kwargs):
        if _is_mip(kwargs):
            seen["milp"] = kwargs["constraints"]
        return real_milp(*args, **kwargs)

    monkeypatch.setattr(exact, "linprog", linprog_spy)
    monkeypatch.setattr(exact, "milp", milp_spy)
    solve_exact(inst)
    expected = -inst.delta.toarray()[inst.max_coverage > 0]
    assert set(seen) == {"linprog", "milp"}
    assert seen["linprog"] is seen["milp"]
    for constraints in seen.values():
        assert sparse.issparse(constraints.A)
        assert np.array_equal(constraints.A.toarray(), expected)


class TestMipFallback:
    def test_fractional_root_goes_to_the_mip(self, milp_calls):
        inst = _branching_instance()
        sol = solve_exact(inst)
        assert [options for options, _ in milp_calls] == \
            [{"node_limit": DEFAULT_NODE_BUDGET - 1, "mip_rel_gap": 0}]
        assert sol.optimal
        assert (sol.total_monitors, sol.unsatisfied) == (5, 0)
        oracle = brute_force_oracle(inst)
        assert (sol.total_monitors, sol.unsatisfied) == (oracle.total_monitors, oracle.unsatisfied)

    def test_matches_oracle_where_the_root_is_fractional(self, milp_calls):
        # draws around _branching_instance, with 0-3 extra links and 0-3
        # extra random groups on any links: 30 of these 80 keep a fractional
        # root below the greedy and reach the MIP, where plain random draws
        # reach it about once in 360
        rng = np.random.default_rng(0)
        base = _branching_instance()
        reached = 0
        for _ in range(80):
            links = [*base.links, *(f"x{i}" for i in range(rng.integers(0, 4)))]
            groups = {g.links: g.count for g in base.groups}
            for _ in range(rng.integers(0, 4)):
                size = int(rng.integers(1, 4))
                route = tuple(links[i] for i in rng.choice(len(links), size=size, replace=False))
                groups.setdefault(route, int(rng.integers(1, 4)))
            inst = make_instance(links, groups.items(), base.gamma)
            sol = solve_exact(inst)
            assert sol.optimal
            oracle = brute_force_oracle(inst)
            assert sol.total_monitors == oracle.total_monitors
            assert sol.unsatisfied == oracle.unsatisfied
            assert verify_solution(inst, sol)
            reached += len(milp_calls)
            milp_calls.clear()
        assert reached >= 10, reached

    def test_node_limit_stop_returns_incumbent(self, milp_calls):
        inst = _branching_instance()
        sol = solve_exact(inst, node_budget=1)
        [(options, res)] = milp_calls
        assert options["node_limit"] == 0
        assert res.status == 4 and "HiGHS Status 16:" in res.message
        assert not sol.optimal
        assert verify_solution(inst, sol)
        oracle = brute_force_oracle(inst)
        assert sol.unsatisfied == oracle.unsatisfied
        assert sol.total_monitors >= oracle.total_monitors

    def test_other_status_4_raises_solver_error(self, monkeypatch):
        real_milp = exact.milp

        def failing_mip(*args, **kwargs):
            if not _is_mip(kwargs):
                return real_milp(*args, **kwargs)
            return OptimizeResult(status=4, message="(HiGHS Status 4: model_status is Solve error)",
                                  x=None, fun=None)

        monkeypatch.setattr(exact, "milp", failing_mip)
        with pytest.raises(SolverError, match="MIP failed with status 4"):
            solve_exact(_branching_instance())


@pytest.fixture
def greedy_calls(monkeypatch):
    """Records the instance of every run of the transparent greedy."""
    calls = []
    real = placement._greedy_counts

    def spy(instance):
        calls.append(instance)
        return real(instance)

    monkeypatch.setattr(placement, "_greedy_counts", spy)
    return calls


class TestSharedGreedy:
    @pytest.mark.parametrize("greedy_first", [True, False], ids=["greedy-exact", "exact-greedy"])
    def test_greedy_runs_once_per_instance(self, greedy_calls, greedy_first):
        # _run_seed's exact runs read the greedy from the instance after the solve
        rng = np.random.default_rng(21)
        instances = [random_instance(rng, max_links=8, max_groups=8, max_count=3, max_gamma=3)
                     for _ in range(40)]
        for inst in instances:
            if greedy_first:
                solve_greedy(inst)
            solve_exact(inst)
            solve_greedy(inst)
        # a single-hop instance's greedy is settled without a run
        assert Counter(id(inst) for inst in greedy_calls) == \
            {id(inst): 1 for inst in instances if inst.max_hops != 1}

    def test_reused_instance_solves_like_a_fresh_one(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            inst = random_instance(rng, max_links=8, max_groups=8, max_count=3, max_gamma=3)
            reused = (solve_greedy(inst), solve_exact(inst), solve_greedy(inst),
                      solve_exact(inst))
            assert reused[0] == reused[2] and reused[1] == reused[3]
            assert reused[:2] == (solve_greedy(replace(inst)), solve_exact(replace(inst)))

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
    """Counts the root LP (exact.linprog) and MIP (exact.milp with integrality)
    solves solve_exact makes."""
    calls = {"linprog": 0, "milp": 0}
    for name in calls:
        real = getattr(exact, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            if _name == "linprog" or _is_mip(kwargs):
                calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(exact, name, spy)
    return calls


class TestSingleHop:
    def test_settled_without_an_lp(self, lp_calls):
        rng = np.random.default_rng(31)
        for _ in range(150):
            inst = random_instance(rng, max_links=8, max_groups=8, max_count=4,
                                   max_gamma=3, single_hop=True)
            sol = solve_exact(inst)
            assert sol.optimal
            oracle = brute_force_oracle(inst)
            assert sol.total_monitors == oracle.total_monitors
            assert sol.unsatisfied == oracle.unsatisfied
            assert verify_solution(inst, sol)
        assert lp_calls == {"linprog": 0, "milp": 0}

    @pytest.mark.parametrize("node_budget", [0, DEFAULT_NODE_BUDGET])
    def test_incumbent_in_closed_form(self, node_budget, monkeypatch):
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
            sol = solve_exact(inst, node_budget=node_budget)
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


@pytest.fixture
def root_lps(monkeypatch):
    """Every root LP solve_exact makes, also solved by scipy's own linprog:
    (ppmplan result, scipy result) pairs."""
    pairs = []
    real = exact.linprog

    def spy(cost, constraints, bounds):
        res = real(cost, constraints, bounds)
        ref = scipy_linprog(cost, A_ub=constraints.A, b_ub=constraints.ub,
                            bounds=np.column_stack([bounds.lb, bounds.ub]), method="highs")
        pairs.append((res, ref))
        return res

    monkeypatch.setattr(exact, "linprog", spy)
    return pairs


def assert_same_as_scipy_linprog(pairs):
    assert pairs
    for res, ref in pairs:
        assert res.status == ref.status == 0
        assert res.fun == ref.fun
        assert np.array_equal(res.x, ref.x)


class TestRootLpMatchesScipyLinprog:
    """The root LP goes through milp; its x and objective stay those of
    scipy.optimize.linprog(method="highs"), which every golden output was
    computed with."""

    def test_random_instances(self, root_lps):
        rng = np.random.default_rng(41)
        for _ in range(150):
            solve_exact(random_instance(rng, max_links=8, max_groups=8, max_count=3,
                                        max_gamma=3))
        assert_same_as_scipy_linprog(root_lps)

    def test_readme_n14_config(self, root_lps, tmp_path):
        from ppmplan.experiment import ExperimentConfig, run_experiment

        config = ExperimentConfig.from_dict({
            "topology": "n14",
            "scenarios": ["Op", "Tr", "Op-O-1", "Tr-O-1", "Op-O-3", "Tr-O-3", "OTDR"],
            "seeds": [0, 1], "load_mode": "rejection", "rejection_target": 0.01,
            "solver": "exact", "ppm_fractions": [0, 5, 10, 25, 50, 75, 100]})
        run_experiment(config, tmp_path / "bundle")
        assert_same_as_scipy_linprog(root_lps)

    def test_gabriel30_transparent_set(self, root_lps):
        from ppmplan.provisioning import Provisioner
        from ppmplan.topology import generate_gabriel
        from ppmplan.traffic import generate_demands

        topo = generate_gabriel(30, seed=0)
        prov = Provisioner(topo, "transparent")
        for d in generate_demands(topo, 300, seed=0).demands:
            prov.serve(d)
        for gamma in (1, 2, 3):
            solve_exact(placement.build_cover_instance(prov.result(), topo, gamma))
        assert len(root_lps) == 3
        assert_same_as_scipy_linprog(root_lps)
