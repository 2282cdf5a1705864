import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import cover_instances, random_instance
from oracle import OracleCapError, brute_force_oracle, incidence
from ppmplan import placement
from ppmplan.experiment import ExperimentConfig, run_experiment
from ppmplan.placement import (
    CoverInstance,
    InstanceError,
    PathGroup,
    build_cover_instance,
    greedy_cost,
    make_instance,
    solution_from_counts,
    solve_greedy,
    verify_solution,
)
from ppmplan.provisioning import provision
from ppmplan.traffic import Demand


class TestInstanceBuild:
    def test_grouping_by_route(self, line3):
        routes = [("A->B",), ("A->B",), ("A->B", "B->C")]
        inst = build_cover_instance(routes, line3, gamma=1)
        by_key = {g.key: g for g in inst.groups}
        assert by_key["A->B"].count == 2
        assert by_key["A->B->C"].count == 1
        j = [i for i, g in enumerate(inst.groups) if g.key == "A->B->C"][0]
        assert inst.link_index["A->B"] in inst.group_links[j]
        assert inst.link_index["B->C"] in inst.group_links[j]
        assert inst.link_index["B->A"] not in inst.group_links[j]

    def test_opaque_provisioning_single_hop_groups(self, line3):
        lset = provision(line3, [Demand("A", "C", 200), Demand("C", "A", 100)], "opaque")
        inst = build_cover_instance(lset, line3, gamma=1)
        assert inst.groups and all(g.hops == 1 for g in inst.groups)

    def test_empty_lightpath_set(self, line3):
        inst = build_cover_instance([], line3, gamma=1)
        assert inst.groups == ()
        assert inst.min_unsatisfied == len(line3.links) == 4

    def test_zero_count_groups_dropped(self):
        inst = make_instance(["e1", "e2"], [(("e1",), 0), (("e2",), 2)], gamma=1)
        assert len(inst.groups) == 1

    def test_unoptimized_indicator(self):
        # at gamma 1 the unsatisfied floor counts the dark links: coverage
        # a 5, b 0, c 2 leaves one link of three dark
        inst = make_instance(["a", "b", "c"], [(("a",), 5), (("b",), 0), (("c",), 2)], gamma=1)
        assert inst.min_unsatisfied / len(inst.links) == pytest.approx(1 / 3)

    def test_duplicate_route_rejected(self):
        with pytest.raises(InstanceError, match="duplicate route"):
            make_instance(["e1"], [(("e1",), 1), (("e1",), 2)], gamma=1)

    def test_alpha_policies(self):
        # the placement model has no weight: no alpha to read or to pass
        groups = [(("e1", "e2"), 2), (("e1",), 3)]
        assert not hasattr(make_instance(["e1", "e2"], groups, 1), "alpha")
        with pytest.raises(TypeError, match="alpha"):
            make_instance(["e1", "e2"], groups, 1, alpha=7)
        with pytest.raises(TypeError, match="alpha"):
            CoverInstance(links=("e1", "e2"), groups=(PathGroup(("e1", "e2"), 1),),
                          gamma=1, alpha=7)

    def test_gamma_validation(self):
        with pytest.raises(InstanceError):
            make_instance(["e1"], [], gamma=0)

    def test_unknown_link_in_route(self):
        with pytest.raises(InstanceError, match=r"unknown links \['e9'\]"):
            make_instance(["e1"], [(("e1", "e9"), 1)], gamma=1)

    def test_empty_route_rejected(self):
        with pytest.raises(InstanceError, match="empty route"):
            PathGroup((), 1)
        with pytest.raises(InstanceError, match="empty route"):
            make_instance(["e1"], [((), 1)], gamma=1)

    def test_repeated_link_rejected(self):
        with pytest.raises(InstanceError, match="route repeats a link"):
            make_instance(["e1", "e2"], [(("e1", "e2", "e1"), 1)], gamma=1)

    def test_count_below_one_rejected(self):
        # make_instance drops zero counts; PathGroup itself refuses them too
        with pytest.raises(InstanceError, match="multiplicity must be >= 1, got -1"):
            make_instance(["e1"], [(("e1",), -1)], gamma=1)
        with pytest.raises(InstanceError, match="multiplicity must be >= 1, got 0"):
            PathGroup(("e1",), 0)

    def test_duplicate_link_labels_rejected(self):
        with pytest.raises(InstanceError, match="duplicate link labels"):
            make_instance(["e1", "e2", "e1"], [(("e1",), 1)], gamma=1)

    def test_first_bad_route_named(self):
        # routes are checked in group order, as one loop over them would
        groups = [(("e1",), 1), (("e1", "e8"), 1), (("e1",), 2), (("e9",), 1)]
        with pytest.raises(InstanceError, match=r"unknown links \['e8'\]"):
            CoverInstance(links=("e1",), groups=tuple(PathGroup(r, c) for r, c in groups),
                          gamma=1)
        groups[1] = (("e1",), 3)
        with pytest.raises(InstanceError, match=r"duplicate route \('e1',\)"):
            CoverInstance(links=("e1",), groups=tuple(PathGroup(r, c) for r, c in groups),
                          gamma=1)

    def test_max_hops_set_at_construction(self):
        inst = make_instance(["e1", "e2", "e3"], [(("e1", "e2", "e3"), 1), (("e2",), 2)], 1)
        assert inst.max_hops == 3
        assert make_instance(["e1"], [], gamma=1).max_hops == 0

    def test_route_key_read_on_demand(self):
        g = PathGroup(("A->B", "B->C"), 2)
        assert "key" not in vars(g)
        assert g.key == placement.route_key(g.links) == "A->B->C"
        assert vars(g)["key"] == "A->B->C"
        assert PathGroup(("x", "y"), 1).key == "x|y"
        with pytest.raises(TypeError):
            PathGroup(("A->B",), 1, "A->B")


class TestGreedyOpaque:
    def test_min_count_gamma(self):
        inst = make_instance(["e"], [(("e",), 5)], gamma=3)
        sol = solve_greedy(inst)
        assert sol.total_monitors == 3
        assert sol.x["e"] == 3
        assert verify_solution(inst, sol)

    def test_count_below_gamma(self):
        inst = make_instance(["e"], [(("e",), 1)], gamma=2)
        sol = solve_greedy(inst)
        assert sol.x["e"] == 1
        assert (sol.total_monitors, sol.unsatisfied) == (1, 1)

    def test_selection_in_count_then_index_order(self):
        inst = make_instance(["e0", "e1", "e2", "e3"],
                             [(("e0",), 3), (("e1",), 1), (("e2",), 2), (("e3",), 2)],
                             gamma=2)
        sol = solve_greedy(inst)
        assert sol.p == {"e0": 2, "e1": 1, "e2": 2, "e3": 2}
        assert sol.selection == (1, 2, 2, 3, 3, 0, 0)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_closed_form_is_the_greedy(self, data):
        # each link has at most one group; groups come in drawn link order
        n_e = data.draw(st.integers(1, 30))
        used = data.draw(st.lists(st.integers(0, n_e - 1), min_size=1, unique=True))
        groups = [((f"e{i}",), data.draw(st.integers(1, 6))) for i in used]
        inst = make_instance([f"e{i}" for i in range(n_e)], groups, data.draw(st.integers(1, 4)))
        p, selection = placement._greedy_counts(inst)
        assert inst.greedy == (tuple(p), tuple(selection))


class TestGreedyTransparent:
    def test_harmonic_cost(self):
        assert greedy_cost([2, 3]) == pytest.approx(6 / 5)
        assert greedy_cost([2, 0, 3]) == pytest.approx(6 / 5)  # exhausted links skipped
        assert greedy_cost([]) == float("inf")

    def test_harmonic_cost_sums_left_to_right(self):
        # a compensated sum (math.fsum) rounds this one differently
        assert greedy_cost([1, 3, 1]) == 1.0 / (1.0 + 1.0 / 3 + 1.0)
        assert greedy_cost([1, 3, 1]) != 1.0 / math.fsum([1.0, 1.0 / 3, 1.0])
        assert greedy_cost(np.array([1, 3, 1])) == greedy_cost([1, 3, 1])

    def test_walkthrough(self):
        # two overlapping 2-hop routes dominate; the single-hop pile is unused
        inst = make_instance(
            ["e1", "e2", "e3"],
            [(("e1", "e2"), 1), (("e2", "e3"), 1), (("e2",), 5)], gamma=1)
        sol = solve_greedy(inst)
        assert sol.total_monitors == 2
        assert sol.selection == (0, 1)
        assert sol.p == {"e1|e2": 1, "e2|e3": 1}
        oracle = brute_force_oracle(inst)  # greedy is optimal here
        assert (sol.total_monitors, sol.unsatisfied) == (oracle.total_monitors, oracle.unsatisfied)

    def test_unsatisfied_floor_always_reached(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            inst = random_instance(rng)
            sol = solve_greedy(inst)
            assert sol.unsatisfied == inst.min_unsatisfied
            assert verify_solution(inst, sol)

    def test_termination_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            inst = random_instance(rng, max_count=3, max_gamma=3)
            sol = solve_greedy(inst)
            assert len(sol.selection) <= int(inst.counts.sum())

    def test_empty_instance(self):
        inst = make_instance(["e1"], [], gamma=2)
        sol = solve_greedy(inst)
        assert sol.total_monitors == 0
        assert sol.unsatisfied == 2

    def test_tie_goes_to_the_lowest_index_of_least_cost(self):
        # groups 0, 2 and 3 each cover two needy links; group 0 costs more
        # (e0 has a second lightpath), so 2 and 3 go first, in index order
        inst = make_instance(
            ["e0", "e1", "e2", "e3", "e4", "e5"],
            [(("e0", "e1"), 1), (("e0",), 1), (("e2", "e3"), 1), (("e4", "e5"), 1)], gamma=1)
        assert solve_greedy(inst).selection == (2, 3, 0)

    def test_one_tie_rule(self):
        inst = make_instance(["e1", "e2"], [(("e1", "e2"), 1)], gamma=1)
        for option in ("tie_break", "seed"):
            with pytest.raises(TypeError, match=option):
                solve_greedy(inst, **{option: 0})
        with pytest.raises(TypeError, match="rng"):
            placement._greedy_counts(inst, rng=None)

    def test_scale_invariance_of_selection(self):
        # scaling availabilities uniformly preserves both ranking criteria:
        # cost scales by the same factor and the covering matrix is unchanged
        z = [4, 2, 7]
        base = [greedy_cost(z[:k]) for k in (2, 3)]
        scaled = [greedy_cost([3 * v for v in z[:k]]) for k in (2, 3)]
        assert np.argmin(base) == np.argmin(scaled)
        assert scaled[0] == pytest.approx(3 * base[0])
        # run-level: tripling counts on an amply-supplied instance keeps the
        # selected route sequence
        links = ["e1", "e2", "e3", "e4"]
        groups = [(("e1", "e2"), 4), (("e2", "e3"), 4), (("e3", "e4"), 4), (("e2",), 8)]
        a = solve_greedy(make_instance(links, groups, gamma=2))
        b = solve_greedy(make_instance(links, [(r, 3 * c) for r, c in groups], gamma=2))
        assert a.selection == b.selection


class TestOracle:
    def test_empty_groups(self):
        inst = make_instance(["e1", "e2", "e3", "e4"], [], gamma=1)
        sol = brute_force_oracle(inst)
        assert sol.unsatisfied == 4
        assert sol.total_monitors == 0
        assert sol.optimal

    def test_cap_refusal(self):
        inst = make_instance(["e1"], [(("e1",), 9)], gamma=1)
        with pytest.raises(OracleCapError):
            brute_force_oracle(inst, cap=5)

    def test_modes_agree_on_unsat_floor(self):
        # every placement that meets the requirement leaves only the floor
        rng = np.random.default_rng(3)
        for _ in range(50):
            inst = random_instance(rng)
            sol = brute_force_oracle(inst)
            assert sol.unsatisfied == inst.min_unsatisfied
            assert verify_solution(inst, sol)

    def test_fewest_monitors_among_feasible_vectors(self):
        # the first of the feasible vectors with the fewest monitors, in
        # itertools.product order (the last group counts fastest)
        rng = np.random.default_rng(5)
        for _ in range(60):
            inst = random_instance(rng)
            d = incidence(inst)
            feasible = [p for p in itertools.product(*(range(c + 1) for c in inst.counts))
                        if np.all(d @ np.array(p, dtype=np.int64) >= inst.requirement)]
            best = min(feasible, key=sum)  # min keeps the first of equal sums
            oracle = brute_force_oracle(inst)
            assert oracle.p == solution_from_counts(inst, best, optimal=True).p
            assert oracle.total_monitors == sum(best)


class TestSolutionPlumbing:
    def test_from_counts_bounds(self):
        inst = make_instance(["e1"], [(("e1",), 2)], gamma=1)
        with pytest.raises(InstanceError):
            solution_from_counts(inst, [3], optimal=False)
        with pytest.raises(InstanceError):
            solution_from_counts(inst, [1, 1], optimal=False)

    def test_from_counts_keys_only_used_groups(self):
        inst = make_instance(["A->B", "B->C"], [(("A->B",), 2), (("A->B", "B->C"), 1)], gamma=1)
        sol = solution_from_counts(inst, [0, 1], optimal=False)
        assert sol.p == {"A->B->C": 1}
        assert sol.x == {"A->B": 1, "B->C": 1}
        assert all(type(v) is int for v in [*sol.p.values(), *sol.x.values()])
        assert "key" not in vars(inst.groups[0])

    def test_json_dict_schema(self):
        inst = make_instance(["e1"], [(("e1",), 2)], gamma=1)
        sol = solve_greedy(inst)
        d = sol.to_json_dict()
        assert set(d) == {"p", "x", "unsatisfied", "monitors", "optimal"}


class TestVerifySolution:
    @pytest.fixture
    def solved(self):
        inst = make_instance(["A->B", "B->C", "C->D"],
                             [(("A->B", "B->C"), 2), (("B->C", "C->D"), 1)], gamma=1)
        return inst, solve_greedy(inst)

    def test_valid_solution(self, solved):
        assert verify_solution(*solved)

    @pytest.mark.parametrize("extra", [{"a->b": 1.5}, {"a->b": 1}, {"A->B->C->D": 1}])
    def test_unknown_route_key(self, solved, extra):
        inst, sol = solved
        assert not verify_solution(inst, dataclasses.replace(sol, p={**sol.p, **extra}))

    @pytest.mark.parametrize("count", [0, -1, 1.0, True, "1"])
    def test_count_not_a_positive_int(self, solved, count):
        inst, sol = solved
        p = dict.fromkeys(sol.p, count)
        assert not verify_solution(inst, dataclasses.replace(sol, p=p))

    def test_extra_x_link(self, solved):
        inst, sol = solved
        assert not verify_solution(inst, dataclasses.replace(sol, x={**sol.x, "D->E": 0}))

    def test_missing_x_link(self, solved):
        inst, sol = solved
        x = dict(sol.x)
        del x["C->D"]
        assert not verify_solution(inst, dataclasses.replace(sol, x=x))

    def test_count_above_multiplicity(self, solved):
        inst, sol = solved
        p = {"A->B->C": 3}
        x = {"A->B": 1, "B->C": 1, "C->D": 0}
        assert not verify_solution(inst, dataclasses.replace(
            sol, p=p, x=x, total_monitors=3, unsatisfied=1))


def reference_greedy(instance):
    """The transparent greedy as first written, on dense numpy matrices: every
    pick rescans the |links| x |groups| need matrix. The sparse solver must
    reproduce its picks exactly."""
    n_e, n_l = len(instance.links), len(instance.groups)
    gamma = instance.gamma
    delta = incidence(instance)
    c = instance.counts.copy()
    if n_l == 0 or n_e == 0:
        return solution_from_counts(instance, np.zeros(n_l, dtype=np.int64),
                                    optimal=False, selection=())
    p = np.zeros(n_l, dtype=np.int64)
    x = np.zeros(n_e, dtype=np.int64)
    in_em = np.ones(n_e, dtype=bool)
    m = delta.astype(np.int64).copy()
    v = m.sum(axis=0)
    z = delta @ c
    group_rows = [np.flatnonzero(delta[:, j]) for j in range(n_l)]
    selection = []
    while in_em.any():
        vmax = v.max()
        if vmax == 0:
            break
        tied = np.flatnonzero(v == vmax)
        if len(tied) > 1:
            costs = np.array([greedy_cost(z[m[:, j] == 1]) for j in tied])
            tied = tied[costs == costs.min()]
        ls = int(tied[0])
        selection.append(ls)
        p[ls] += 1
        for e in group_rows[ls]:
            x[e] += 1
            if in_em[e]:
                z[e] -= 1
                if x[e] >= gamma:
                    v -= m[e, :]
                    m[e, :] = 0
                    in_em[e] = False
                    z[e] = 0
        if p[ls] >= c[ls]:
            m[:, ls] = 0
            v[ls] = 0
    return solution_from_counts(instance, p, optimal=False, selection=tuple(selection))


class TestGreedyMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(cover_instances())
    @example(make_instance(["e1", "e0"], [(("e0", "e1"), 1), (("e1",), 1)], gamma=3))
    def test_same_picks_deterministic(self, inst):
        sol = solve_greedy(inst)
        assert sol == reference_greedy(inst)
        assert verify_solution(inst, sol)

    def test_same_picks_on_provisioned_n14(self, n14):
        from ppmplan.provisioning import Provisioner
        from ppmplan.traffic import generate_demands

        prov = Provisioner(n14, "transparent")
        for d in generate_demands(n14, 500, seed=4).demands:
            prov.serve(d)
        for gamma in (1, 2, 3):
            inst = build_cover_instance(prov.result(), n14, gamma)
            assert solve_greedy(inst) == reference_greedy(inst)

    @pytest.mark.parametrize("topo_seed", [0, 1])
    def test_same_picks_on_provisioned_gabriel30(self, topo_seed):
        # about 20 tied groups per pick: the tie costs kept between picks are
        # read far more often than on the small drawn instances
        from ppmplan.provisioning import Provisioner
        from ppmplan.topology import generate_gabriel
        from ppmplan.traffic import generate_demands

        topo = generate_gabriel(30, seed=topo_seed)
        prov = Provisioner(topo, "transparent")
        for d in generate_demands(topo, 300, seed=topo_seed).demands:
            prov.serve(d)
        for gamma in (1, 2, 3):
            inst = build_cover_instance(prov.result(), topo, gamma)
            assert solve_greedy(inst) == reference_greedy(inst)



class TestIncidence:
    @settings(max_examples=200, deadline=None)
    @given(cover_instances())
    def test_sparse_views_match_the_definition(self, inst):
        expected = incidence(inst)
        starts, rows = inst.delta
        assert starts.dtype == rows.dtype == np.int32
        assert starts.tolist() == np.cumsum([0] + [len(g.links) for g in inst.groups]).tolist()
        assert len(rows) == expected.sum()
        # each column's rows ascending, the order HiGHS's column form keeps
        assert all(np.all(np.diff(rows[a:b]) > 0) for a, b in zip(starts[:-1], starts[1:]))
        assert inst.group_links == [np.flatnonzero(col).tolist() for col in expected.T]
        assert inst.link_groups == [np.flatnonzero(row).tolist() for row in expected]
        assert np.array_equal(inst.max_coverage, expected @ inst.counts)
        assert inst.max_coverage.dtype == np.int64
        p = np.arange(len(inst.groups), dtype=np.int64) % 3
        assert np.array_equal(inst.coverage(p), expected @ p)


# sha256 of the placement outputs of the README N14 config on seeds 0-2:
# exact solutions (warm-started by the greedy) and gap.csv (greedy monitor
# counts). Regenerated when the weighted `objective` left the solution files
# and the `compare_solvers` key left the config (so its hash changed); the
# files are otherwise those computed with the dense greedy above.
README_N14_PLACEMENT = {
    "gap.csv": "35ffa44cf7e798f953a2ef7060beacd46af9c274fe5131304923895bf633473a",
    "per_seed/seed_0/solution_Op-O-1_n580.json":
        "335967811e827da5dfcbf6a2d86c70f89ecb854a360a3c1ef5c4a5cd4ff632ab",
    "per_seed/seed_0/solution_Op-O-3_n580.json":
        "347ea6611bb5bcfcedd8ef5c366e9556c1507aa28a82d1a4056b04fa3927d6f3",
    "per_seed/seed_0/solution_Tr-O-1_n580.json":
        "ecb71ba077985f1b1d6ac7ac82f6115cff70eaace71650eff43ba18403b51c98",
    "per_seed/seed_0/solution_Tr-O-3_n580.json":
        "41784d7ea12dab7cd1e6d16624c058369af5913b616d75f07aaa0e6700598903",
    "per_seed/seed_1/solution_Op-O-1_n560.json":
        "335967811e827da5dfcbf6a2d86c70f89ecb854a360a3c1ef5c4a5cd4ff632ab",
    "per_seed/seed_1/solution_Op-O-3_n560.json":
        "00585d82e22e8e5ed113eb5666154df96f5678b039c8146c7daed39faa4d9185",
    "per_seed/seed_1/solution_Tr-O-1_n560.json":
        "45249c24501f5e0a264f486d8b780421e09d26cd8e2ef8ae10f9ad4a10c2ce7c",
    "per_seed/seed_1/solution_Tr-O-3_n560.json":
        "2bdc7e1450607fd6e89ee398efe25e84a4546f798087edc87512ef4d66eaabaf",
    "per_seed/seed_2/solution_Op-O-1_n550.json":
        "335967811e827da5dfcbf6a2d86c70f89ecb854a360a3c1ef5c4a5cd4ff632ab",
    "per_seed/seed_2/solution_Op-O-3_n550.json":
        "0c80db1fe8d8fd72a43263edea8b22736244b1ed43e367402c2a9b123fd3e312",
    "per_seed/seed_2/solution_Tr-O-1_n550.json":
        "66181aaeb546958a1dbb201bc9d4ea6bdeb5d2c7e55bd9f641b2d83cc5e18029",
    "per_seed/seed_2/solution_Tr-O-3_n550.json":
        "800719e4df41ec4cc795a33e6a80ce99bc8d3aee0fcb4ca5b4b0b606fa00af83",
}


def test_readme_n14_placement_golden(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "topology": "n14",
        "scenarios": ["Op", "Tr", "Op-O-1", "Tr-O-1", "Op-O-3", "Tr-O-3", "OTDR"],
        "seeds": [0, 1, 2], "load_mode": "rejection", "rejection_target": 0.01,
        "solver": "exact", "ppm_fractions": [0, 5, 10, 25, 50, 75, 100]})
    run_experiment(cfg, tmp_path)
    got = {str(p.relative_to(tmp_path)): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.rglob("*"))
           if p.name == "gap.csv" or p.name.startswith("solution_")}
    assert got == README_N14_PLACEMENT
