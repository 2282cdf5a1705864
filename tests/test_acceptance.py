"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -v` (the summary lines print directly
to the terminal, bypassing capture).
"""

import functools
import hashlib
import time

import numpy as np

from conftest import random_instance, saturating_demands
from oracle import brute_force_oracle
from ppmplan.analysis import CostModel, crossing_value
from ppmplan.exact import solve_exact
from ppmplan.experiment import ExperimentConfig, run_experiment
from ppmplan.otdr import count_otdrs
from ppmplan.placement import build_cover_instance, solve_greedy
from ppmplan.provisioning import Provisioner, provision
from ppmplan.topology import bundled_topology, generate_gabriel, topology_from_dict, topology_to_dict
from ppmplan.traffic import generate_demands


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(capsys, *args, **kwargs):
            try:
                detail = fn(capsys, *args, **kwargs)
            except BaseException as exc:
                with capsys.disabled():
                    print(f"\nACCEPTANCE {num} FAIL [{label}]: {exc}")
                raise
            with capsys.disabled():
                print(f"\nACCEPTANCE {num} PASS [{label}]"
                      + (f": {detail}" if detail else ""))
        return wrapper
    return deco


# Reported monitor counts at the 1%-rejection operating point.
COUNTS = {
    "J14": {"Op": 1167, "Tr": 624, "Op-O-1": 44, "Tr-O-1": 14,
            "Op-O-3": 132, "Tr-O-3": 43, "OTDR": 37},
    "N14": {"Op": 1135, "Tr": 782, "Op-O-1": 42, "Tr-O-1": 15,
            "Op-O-3": 126, "Tr-O-3": 44, "OTDR": 154},
}
# Reported crossing values (percent of transponder cost / power).
CROSSINGS = {
    "N14": {"Op": (0.7, 0.4), "Tr": (1.0, 0.6), "Op-O-1": (18.3, 11.5),
            "Tr-O-1": (52.7, 33.0), "Op-O-3": (6.1, 3.8), "Tr-O-3": (17.4, 10.9)},
    "J14": {"Op": (0.2, 0.1), "Tr": (0.3, 0.2), "Op-O-1": (4.2, 2.6),
            "Tr-O-1": (13.2, 8.3), "Op-O-3": (1.4, 0.9), "Tr-O-3": (4.3, 2.7)},
}
EXACT_ROWS = ("Op-O-1", "Op-O-3")


@criterion(1, "crossing-value tables")
def test_crossing_tables(capsys):
    t0 = time.time()
    cm = CostModel()
    checked = 0
    for network, rows in CROSSINGS.items():
        n_otdr = COUNTS[network]["OTDR"]
        for scenario, (cost_pct, power_pct) in rows.items():
            n_ppm = COUNTS[network][scenario]
            got_cost = crossing_value(n_ppm, n_otdr, cm, "cost")
            got_power = crossing_value(n_ppm, n_otdr, cm, "power")
            assert abs(got_cost - cost_pct) <= 2.0, (network, scenario, got_cost)
            assert abs(got_power - power_pct) <= 2.0, (network, scenario, got_power)
            if scenario in EXACT_ROWS:
                assert abs(round(got_cost, 1) - cost_pct) <= 0.05, (network, scenario)
                assert abs(round(got_power, 1) - power_pct) <= 0.05, (network, scenario)
            checked += 2
    elapsed = time.time() - t0
    assert elapsed < 1.0
    return f"{checked} table entries within 2.0 pp ({elapsed * 1000:.0f} ms)"


def _single_hop_lightpath_coverage(lset):
    cov = {}
    for lp in lset.lightpaths:
        if lp.hops == 1:
            cov[lp.links[0]] = cov.get(lp.links[0], 0) + 1
    return cov


@criterion(2, "structural monitor-count identity")
def test_structural_identity(capsys):
    t0 = time.time()
    topologies = [bundled_topology("n14"), bundled_topology("j14"),
                  generate_gabriel(10, seed=0), generate_gabriel(12, seed=1)]
    expected_table = {"N14": {1: 42, 3: 126}, "J14": {1: 44, 3: 132}}
    details = []
    for topo in topologies:
        for gamma in (1, 3):
            lset = provision(topo, saturating_demands(topo, gamma), "opaque")
            assert not lset.rejected
            cov = _single_hop_lightpath_coverage(lset)
            assert all(cov.get(e, 0) >= gamma for e in topo.link_labels), \
                "saturating load must light every directed link"
            inst = build_cover_instance(lset, topo, gamma)
            want = gamma * len(topo.links)
            exact = solve_exact(inst)
            greedy = solve_greedy(inst)
            assert exact.total_monitors == want, (topo.name, gamma)
            assert greedy.total_monitors == want, (topo.name, gamma)
            assert exact.unsatisfied == 0
            if topo.name in expected_table:
                assert want == expected_table[topo.name][gamma]
            details.append(f"{topo.name}:g{gamma}={want}")
    elapsed = time.time() - t0
    assert elapsed < 60
    return ", ".join(details) + f" ({elapsed:.1f} s)"


@criterion(3, "exact-solver / oracle agreement")
def test_oracle_exactness(capsys):
    t0 = time.time()
    rng = np.random.default_rng(2024)
    n = 0
    while n < 500:
        inst = random_instance(rng, max_links=6, max_groups=6, max_count=2,
                               max_gamma=2)
        if int(inst.counts.sum()) > 12:
            continue
        n += 1
        exact = solve_exact(inst)
        oracle = brute_force_oracle(inst)
        assert exact.optimal
        # every feasible placement leaves only the unsatisfied floor
        assert exact.unsatisfied == oracle.unsatisfied == inst.min_unsatisfied, f"instance #{n}"
        assert exact.total_monitors == oracle.total_monitors, f"instance #{n}"
    elapsed = time.time() - t0
    assert elapsed < 60, f"took {elapsed:.1f} s"
    return f"500/500 match oracle ({elapsed:.1f} s)"


@criterion(4, "opaque greedy optimality")
def test_opaque_greedy_optimality(capsys):
    t0 = time.time()
    rng = np.random.default_rng(77)
    for n in range(500):
        inst = random_instance(rng, max_links=8, max_groups=8, max_count=4,
                               max_gamma=3, single_hop=True)
        greedy = solve_greedy(inst)
        exact = solve_exact(inst)
        oracle = brute_force_oracle(inst)
        assert greedy.total_monitors == exact.total_monitors == oracle.total_monitors, \
            f"instance #{n}"
        assert greedy.unsatisfied == exact.unsatisfied == oracle.unsatisfied, f"instance #{n}"
    elapsed = time.time() - t0
    return f"500/500 optimal ({elapsed:.1f} s)"


@criterion(5, "heuristic gap at desk scale")
def test_heuristic_gap_n100(capsys):
    seeds = range(8)
    gaps = []
    budget_hits = 0
    for seed in seeds:
        topo = generate_gabriel(100, seed=seed)
        lset = provision(topo, generate_demands(topo, 1500, seed), "transparent")
        inst = build_cover_instance(lset, topo, 1)
        t0 = time.time()
        greedy = solve_greedy(inst)
        greedy_time = time.time() - t0
        assert greedy_time <= 5.0, f"greedy took {greedy_time:.2f} s"
        exact = solve_exact(inst, node_budget=20_000)
        if not exact.optimal:
            budget_hits += 1  # incumbents excluded from the gap statistic
            continue
        gap = 100.0 * (greedy.total_monitors - exact.total_monitors) \
            / exact.total_monitors
        assert gap <= 20.0, f"seed {seed}: gap {gap:.1f}%"
        gaps.append(gap)
    assert len(gaps) >= len(list(seeds)) // 2, "too few instances solved to optimality"
    mean_gap = sum(gaps) / len(gaps)
    assert mean_gap <= 15.0, f"mean gap {mean_gap:.1f}%"
    return (f"{len(gaps)} instances solved, mean gap {mean_gap:.1f}%, "
            f"max {max(gaps):.1f}%, {budget_hits} budget hits")


@criterion(6, "trend reproduction on N14")
def test_trends_n14(capsys):
    topo = bundled_topology("n14")
    seeds = range(5)
    grid = [10, 20, 40, 80, 160, 240, 320, 480, 640, 800, 1000]
    scenarios = ("Op", "Tr", "Op-O-1", "Tr-O-1", "Op-O-3", "Tr-O-3")
    target = 0.01
    curves = {name: {s: [] for s in seeds} for name in scenarios}
    unsat = {name: {s: [] for s in seeds} for name in scenarios}
    crossing_idx = {}
    for seed in seeds:
        demands = generate_demands(topo, grid[-1], seed).demands
        provs = {a: Provisioner(topo, a) for a in ("opaque", "transparent")}
        served = 0
        for i, n in enumerate(grid):
            for d in demands[served:n]:
                for p in provs.values():
                    p.serve(d)
            served = n
            lsets = {a: p.result() for a, p in provs.items()}
            if seed not in crossing_idx and \
                    lsets["transparent"].rejection_fraction >= target:
                crossing_idx[seed] = i
            for name in scenarios:
                arch = "opaque" if name.startswith("Op") else "transparent"
                ls = lsets[arch]
                if name in ("Op", "Tr"):
                    cov = ls.coverage(topo)
                    curves[name][seed].append(len(ls.lightpaths))
                    unsat[name][seed].append(
                        sum(1 for v in cov.values() if v == 0) / len(cov))
                else:
                    gamma = int(name.rsplit("-", 1)[1])
                    sol = solve_exact(build_cover_instance(ls, topo, gamma))
                    curves[name][seed].append(sol.total_monitors)
                    unsat[name][seed].append(sol.unsatisfied / len(topo.links))
        assert seed in crossing_idx, "load grid never reached the rejection target"

    # (a) unsatisfied coverage: nonincreasing, eventually zero, zero beyond
    # the rejection load (gamma=3 tolerates the odd thin link, averaged out)
    for name in scenarios:
        for seed in seeds:
            series = unsat[name][seed]
            assert all(a >= b - 1e-12 for a, b in zip(series, series[1:])), \
                f"{name} seed {seed}: unsatisfied not nonincreasing"
            assert series[-1] == 0.0, f"{name} seed {seed}: tail not satisfied"
            beyond = series[crossing_idx[seed]:]
            if name.endswith("-3"):
                assert all(v <= 2 / 42 + 1e-12 for v in beyond), \
                    f"{name} seed {seed}: residual unsatisfied beyond rejection load"
            else:
                assert all(v == 0.0 for v in beyond), \
                    f"{name} seed {seed}: unsatisfied beyond rejection load"
        mean_beyond = [np.mean([unsat[name][s][i] for s in seeds])
                       for i in range(max(crossing_idx.values()), len(grid))]
        assert all(v <= 0.03 for v in mean_beyond)

    # (b) optimized transparent count rises then falls; opaque never decreases
    tr1_mean = [float(np.mean([curves["Tr-O-1"][s][i] for s in seeds]))
                for i in range(len(grid))]
    peak = int(np.argmax(tr1_mean))
    assert 0 < peak < len(grid) - 1, f"Tr-O-1 peak at boundary: {tr1_mean}"
    assert tr1_mean[0] < tr1_mean[peak]
    assert tr1_mean[-1] <= tr1_mean[peak] - 1.0, f"Tr-O-1 does not fall: {tr1_mean}"
    for name in ("Op-O-1", "Op-O-3"):
        for seed in seeds:
            series = curves[name][seed]
            assert all(a <= b for a, b in zip(series, series[1:])), \
                f"{name} seed {seed} decreased"

    # (c) one monitor per lightpath: counts strictly increase with load
    for name in ("Op", "Tr"):
        for seed in seeds:
            series = curves[name][seed]
            assert all(a < b for a, b in zip(series, series[1:])), \
                f"{name} seed {seed} not strictly increasing"
    return (f"Tr-O-1 mean {tr1_mean[0]:.1f} -> peak {tr1_mean[peak]:.1f} "
            f"-> {tr1_mean[-1]:.1f}")


@criterion(7, "fiber-monitoring baseline calibration")
def test_otdr_calibration(capsys):
    n14 = bundled_topology("n14")
    j14 = bundled_topology("j14")
    assert count_otdrs(n14).total == 154
    assert count_otdrs(j14).total == 37

    one_span = topology_from_dict({
        "name": "u1", "span_length_km": 80, "nodes": ["A", "B"],
        "edges": [{"a": "A", "b": "B", "length_km": 50}]})
    assert count_otdrs(one_span).total == 2  # node terms only
    six_span = topology_from_dict({
        "name": "u6", "span_length_km": 80, "nodes": ["A", "B"],
        "edges": [{"a": "A", "b": "B", "length_km": 450}]})
    plan = count_otdrs(six_span)
    assert sum(plan.per_link_inline.values()) == 2
    assert plan.total == 4

    # drift path: a replaced upstream dataset reports, not asserts, the totals
    drift_note = ""
    perturbed = topology_to_dict(n14)
    for edge in perturbed["edges"]:
        edge["length_km"] = edge["length_km"] * 1.05
    drifted = count_otdrs(topology_from_dict(perturbed)).total
    rel = abs(drifted - 154) / 154
    assert rel <= 0.10, f"perturbed dataset drifted {rel:.1%}, beyond tolerance"
    if drifted != 154:
        drift_note = f"; +5% lengths -> {drifted} ({rel:.1%} drift, reported)"
        with capsys.disabled():
            print(f"  dataset drift: perturbed total {drifted} vs 154 ({rel:.1%})")
    return f"N14=154, J14=37, unit cases exact{drift_note}"


@criterion(8, "bundle determinism")
def test_run_determinism(capsys, tmp_path):
    cfg = ExperimentConfig(topology="n14", seeds=(0, 1),
                           load_mode="rejection", rejection_target=0.01,
                           step=20, solver="exact",
                           scenarios=("Op", "Tr", "Op-O-1", "Tr-O-1", "OTDR"))
    digests = []
    for run in ("a", "b"):
        out = tmp_path / run
        run_experiment(cfg, out)
        digests.append({
            str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()})
    assert digests[0] == digests[1], "bundles differ between identical runs"
    assert len(digests[0]) > 5
    return f"{len(digests[0])} files byte-identical across runs"
