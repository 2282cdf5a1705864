import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.optimize import linprog as scipy_linprog

from conftest import cover_instances, lp_model, random_instance
from oracle import brute_force_oracle, incidence
from ppmplan import exact, placement
from ppmplan.exact import DEFAULT_NODE_BUDGET, SolverError, solve_exact
from ppmplan.placement import (
    InstanceError,
    make_instance,
    solve_greedy,
    verify_solution,
)

STATUS = exact._core.HighsModelStatus


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
        def failing_linprog(lp):
            return STATUS.kSolveError, math.inf, None

        monkeypatch.setattr(exact, "linprog", failing_linprog)
        inst = make_instance(["e1", "e2"], [(("e1", "e2"), 1), (("e1",), 2)], gamma=1)
        with pytest.raises(SolverError, match="LP relaxation failed: HiGHS model status kSolveError"):
            solve_exact(inst)
        assert issubclass(SolverError, RuntimeError)


def _branching_instance():
    # root LP 4.5 (1.5 on each two-link group), greedy 6, optimum 5: the
    # root screen does not settle it, and the rounding (2, 2, 0, 1) meets
    # ceil(4.5) = 5, so no MIP runs
    return make_instance(
        ["e0", "e1", "e2"],
        [(("e0", "e2"), 3), (("e1", "e0"), 3), (("e2",), 2), (("e2", "e1"), 2)],
        gamma=3)


def _mip_instance(prefix="e"):
    # root LP 8/3 (2/3 on each three-link group), greedy 4, optimum 3 (one
    # each on the last three groups): the rounding (0, 2, 2, 0, 0) takes 4,
    # above ceil(8/3) = 3, so the MIP runs. A random search over 3-6 links
    # and 3-7 groups finds such an instance about once in 1,000 draws
    e0, e1, e2, e3 = (f"{prefix}{i}" for i in range(4))
    return make_instance(
        [e0, e1, e2, e3],
        [((e0,), 3), ((e0, e1, e2), 3), ((e0, e2, e3), 3), ((e1, e0, e3), 1),
         ((e3, e1, e2), 2)],
        gamma=2)


def _is_mip(lp):
    # exact.linprog runs exact._run_highs too, on the root LP, whose model
    # has no integer columns
    return len(lp.integrality_) > 0


@pytest.fixture
def mip_calls(monkeypatch):
    """Records (options, (status, objective, x)) of every real MIP run
    solve_exact makes."""
    calls = []
    real = exact._run_highs

    def spy(lp, **options):
        res = real(lp, **options)
        if _is_mip(lp):
            calls.append((options, res))
        return res

    monkeypatch.setattr(exact, "_run_highs", spy)
    return calls


def test_lp_and_mip_get_sparse_constraint_matrices(monkeypatch):
    # a link no route covers, first, has no row: the rows after it move up
    base = _mip_instance()
    inst = make_instance(["x", *base.links], base.groups, base.gamma)
    seen = {}
    real_linprog, real_run = exact.linprog, exact._run_highs

    def linprog_spy(lp):
        seen["linprog"] = lp
        return real_linprog(lp)

    def run_spy(lp, **options):
        if _is_mip(lp):
            seen["mip"] = lp
        return real_run(lp, **options)

    monkeypatch.setattr(exact, "linprog", linprog_spy)
    monkeypatch.setattr(exact, "_run_highs", run_spy)
    solve_exact(inst)
    dense = incidence(inst)
    expected = -dense[dense.any(axis=1)]
    assert set(seen) == {"linprog", "mip"}
    assert seen["linprog"] is seen["mip"]
    lp = seen["mip"]
    # in column form with sorted rows, as HiGHS takes it: each column starts
    # after the routes before it, and its row indices are renumbered
    assert lp.a_matrix_.format_ == exact._core.MatrixFormat.kColwise
    assert np.array_equal(lp.a_matrix_.start_, np.cumsum([0] + [len(g.links) for g in inst.groups]))
    model = lp_model(lp)
    assert model.A.has_sorted_indices
    assert np.array_equal(model.A.toarray(), expected)


def _fallback_draws():
    # draws around _mip_instance, with 0-3 extra links and 0-3 extra random
    # groups on any links: 30 of these 80 keep a fractional root below the
    # greedy that the rounding does not settle, and reach the MIP, where
    # plain random draws reach it about once in 1,000
    rng = np.random.default_rng(0)
    base = _mip_instance()
    for _ in range(80):
        links = [*base.links, *(f"x{i}" for i in range(rng.integers(0, 4)))]
        groups = {g.links: g.count for g in base.groups}
        for _ in range(rng.integers(0, 4)):
            size = int(rng.integers(1, 4))
            route = tuple(links[i] for i in rng.choice(len(links), size=size, replace=False))
            groups.setdefault(route, int(rng.integers(1, 4)))
        yield make_instance(links, groups.items(), base.gamma)


class TestMipFallback:
    def test_fractional_root_goes_to_the_mip(self, mip_calls):
        inst = _mip_instance()
        sol = solve_exact(inst)
        assert [options for options, _ in mip_calls] == \
            [{"mip_max_nodes": DEFAULT_NODE_BUDGET - 1, "mip_rel_gap": 0}]
        assert sol.optimal
        assert (sol.total_monitors, sol.unsatisfied) == (3, 0)
        oracle = brute_force_oracle(inst)
        assert (sol.total_monitors, sol.unsatisfied) == (oracle.total_monitors, oracle.unsatisfied)

    def test_matches_oracle_where_the_root_is_fractional(self, mip_calls):
        reached = 0
        for inst in _fallback_draws():
            sol = solve_exact(inst)
            assert sol.optimal
            oracle = brute_force_oracle(inst)
            assert sol.total_monitors == oracle.total_monitors
            assert sol.unsatisfied == oracle.unsatisfied
            assert verify_solution(inst, sol)
            reached += len(mip_calls)
            mip_calls.clear()
        assert reached >= 10, reached

    @pytest.mark.parametrize("node_budget", [DEFAULT_NODE_BUDGET, 1])
    def test_same_p_as_scipy_milp(self, node_budget, monkeypatch):
        # every MIP run, also solved by scipy's public milp on the same
        # arrays and options: the same p, or no p from either
        compared = []
        real = exact._run_highs

        def spy(lp, **options):
            status, fun, x = real(lp, **options)
            if _is_mip(lp):
                model = lp_model(lp)
                ref = milp(model.cost, integrality=1,
                           constraints=LinearConstraint(model.A, model.row_lower, model.row_upper),
                           bounds=Bounds(model.col_lower, model.col_upper),
                           options={"node_limit": options["mip_max_nodes"],
                                    "mip_rel_gap": options["mip_rel_gap"]})
                assert (ref.status == 0) == (status == STATUS.kOptimal)
                assert (x is None) == (ref.x is None)
                if x is not None:
                    assert np.array_equal(np.round(x), np.round(ref.x))
                compared.append(status)
            return status, fun, x

        monkeypatch.setattr(exact, "_run_highs", spy)
        for inst in _fallback_draws():
            solve_exact(inst, node_budget=node_budget)
        assert len(compared) >= 10, compared
        if node_budget == 1:
            assert STATUS.kSolutionLimit in compared

    def test_node_limit_stop_returns_incumbent(self, mip_calls):
        inst = _mip_instance()
        sol = solve_exact(inst, node_budget=1)
        [(options, (status, _, _))] = mip_calls
        assert options["mip_max_nodes"] == 0
        assert status == STATUS.kSolutionLimit
        assert not sol.optimal
        assert verify_solution(inst, sol)
        oracle = brute_force_oracle(inst)
        assert sol.unsatisfied == oracle.unsatisfied
        assert sol.total_monitors >= oracle.total_monitors

    def test_other_status_4_raises_solver_error(self, monkeypatch):
        # scipy's milp reported a HiGHS solve error as status 4, like a stop
        # at the node limit; the model statuses tell them apart
        real = exact._run_highs

        def failing_mip(lp, **options):
            if not _is_mip(lp):
                return real(lp, **options)
            return STATUS.kSolveError, math.inf, None

        monkeypatch.setattr(exact, "_run_highs", failing_mip)
        with pytest.raises(SolverError, match="MIP failed: HiGHS model status kSolveError"):
            solve_exact(_mip_instance())

    def test_node_budget_beyond_highs_int_means_no_limit(self, mip_calls, capfd):
        sol = solve_exact(_mip_instance(), node_budget=10**12)
        [(options, (status, _, _))] = mip_calls
        assert options["mip_max_nodes"] == exact._core.kHighsIInf
        assert status == STATUS.kOptimal and sol.optimal
        assert capfd.readouterr() == ("", "")


def _root_lp(instance):
    """solve_exact's solution and the root LP result it solved, or None
    where it solved none."""
    seen = []
    real = exact.linprog

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(exact, "linprog", spy)
        sol = solve_exact(instance)
    return sol, (seen[0] if seen else None)


class TestRounding:
    def test_settles_the_branching_instance_without_a_mip(self, mip_calls):
        inst = _branching_instance()
        for budget in (DEFAULT_NODE_BUDGET, 1):  # the rounding is part of the root node
            sol = solve_exact(inst, node_budget=budget)
            assert sol.p == {"e0|e2": 2, "e1|e0": 2, "e2|e1": 1}
            assert (sol.total_monitors, sol.unsatisfied, sol.optimal) == (5, 0, True)
        assert mip_calls == []

    def test_tie_rules_pinned(self):
        inst = _branching_instance()
        # the root LP: floor (1, 1, 0, 1), repair raises groups 0 and 1
        assert exact._round_lp(inst, np.array([1.5, 1.5, 0.0, 1.5])).tolist() == [2, 2, 0, 1]
        # repair in descending fractional part, ties to the lower index:
        # group 2 (0.5) rises first; ties to the higher index give
        # (0, 3, 1, 2), ascending parts (3, 3, 0, 0), and a reverse-delete
        # that takes longest routes first gives (1, 3, 2, 0)
        assert exact._round_lp(inst, np.array([0.0, 1.0, 0.5, 0.0])).tolist() == [2, 3, 1, 0]
        # reverse-delete shortest route first, ties to the lower index: the
        # one-link group 2 falls to 0, then group 0 to 1; ties to the higher
        # index give (2, 2, 0, 1)
        assert exact._round_lp(inst, np.array([2.0, 2.0, 2.0, 2.0])).tolist() == [1, 2, 0, 2]
        # x within _INT_TOL below an integer floors to it; a plain floor
        # gives (3, 3, 0, 0)
        assert exact._round_lp(inst, np.array([0.0, 0.9999999, 0.0, 0.0])).tolist() == [2, 1, 0, 2]

    def test_second_incumbent_under_the_node_limit(self, mip_calls):
        # two link-disjoint parts at gamma 2: the branching instance's routes,
        # whose rounding (3) beats their greedy (4) and meets their bound,
        # beside _mip_instance, whose rounding (4) does not meet ceil(8/3).
        # Together: ceil(LP) 6, rounding 7, greedy 8, optimum 6
        left, right = _branching_instance(), _mip_instance("f")
        inst = make_instance([*left.links, *right.links], [*left.groups, *right.groups],
                             gamma=2)
        assert sum(inst.greedy[0]) == 8
        stopped = solve_exact(inst, node_budget=1)
        [(options, (status, _, _))] = mip_calls
        assert options["mip_max_nodes"] == 0 and status == STATUS.kSolutionLimit
        assert (stopped.total_monitors, stopped.optimal) == (7, False)
        assert verify_solution(inst, stopped)
        sol = solve_exact(inst)
        assert (sol.total_monitors, sol.unsatisfied, sol.optimal) == (6, 0, True)

    @settings(max_examples=150, deadline=None)
    @given(cover_instances(max_links=8, max_groups=7))
    @example(_branching_instance())
    @example(_mip_instance())
    def test_matches_the_oracle_on_drawn_instances(self, inst):
        sol = solve_exact(inst)
        assert sol.optimal
        assert verify_solution(inst, sol)
        oracle = brute_force_oracle(inst)
        assert (sol.total_monitors, sol.unsatisfied) == (oracle.total_monitors, oracle.unsatisfied)

    @settings(max_examples=150, deadline=None)
    @given(cover_instances())
    @example(_branching_instance())
    @example(_mip_instance())
    def test_never_below_the_lp_bound(self, inst):
        # the rounding of every root LP, not only of those solve_exact rounds
        sol, res = _root_lp(inst)
        assert verify_solution(inst, sol)
        if res is None:
            return
        _, fun, x = res
        bound = math.ceil(fun - exact._INT_TOL)
        p = exact._round_lp(inst, x)
        assert p.dtype == np.int64
        assert np.all(p >= 0) and np.all(p <= inst.counts)
        assert np.all(incidence(inst) @ p >= inst.requirement)
        assert p.sum() >= bound
        assert sol.total_monitors >= bound


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
    """Counts the root LP (exact.linprog) and MIP (exact._run_highs on a model
    with integer columns) runs solve_exact makes."""
    calls = {"linprog": 0, "mip": 0}
    real_linprog, real_run = exact.linprog, exact._run_highs

    def linprog_spy(lp):
        calls["linprog"] += 1
        return real_linprog(lp)

    def run_spy(lp, **options):
        calls["mip"] += _is_mip(lp)
        return real_run(lp, **options)

    monkeypatch.setattr(exact, "linprog", linprog_spy)
    monkeypatch.setattr(exact, "_run_highs", run_spy)
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
        assert lp_calls == {"linprog": 0, "mip": 0}

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
        assert lp_calls == {"linprog": 0, "mip": 0}

    def test_multi_hop_still_solves_the_root_lp(self, lp_calls):
        inst = make_instance(
            ["e1", "e2"],
            [(("e1", "e2"), 1), (("e1",), 3), (("e2",), 3)], gamma=1)
        assert solve_exact(inst).optimal
        assert lp_calls == {"linprog": 1, "mip": 0}


@pytest.fixture
def root_lps(monkeypatch):
    """Every root LP solve_exact makes, also solved by scipy's own linprog:
    (ppmplan result, scipy result) pairs."""
    pairs = []
    real = exact.linprog

    def spy(lp):
        res = real(lp)
        model = lp_model(lp)
        assert np.all(model.row_lower == -np.inf)  # every row is an upper bound
        ref = scipy_linprog(model.cost, A_ub=model.A, b_ub=model.row_upper,
                            bounds=np.column_stack([model.col_lower, model.col_upper]),
                            method="highs")
        pairs.append((res, ref))
        return res

    monkeypatch.setattr(exact, "linprog", spy)
    return pairs


def assert_same_as_scipy_linprog(pairs):
    assert pairs
    for (status, fun, x), ref in pairs:
        assert status == STATUS.kOptimal and ref.status == 0
        assert fun == ref.fun
        assert np.array_equal(x, ref.x)


class TestRootLpMatchesScipyLinprog:
    """The root LP goes to HiGHS directly; its x and objective stay those of
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
