"""Exact placement solver: a root-LP screen in front of the HiGHS MIP.

The model is the paper's OMP problem: the fewest monitors such that every
link reaches its `requirement`, min(gamma, max coverage);
`ppmplan.lpfile.export_lp` writes the same model. Coverage is monotone in p,
so p = counts is feasible, and every feasible p leaves the same unsatisfied
total, `min_unsatisfied`.

The greedy placement is the incumbent; it is the instance's cached greedy
(`CoverInstance.greedy`), so a greedy solve of the same instance, before or
after, does not repeat it. An instance of single-hop groups needs no LP: it
splits per link, and the greedy's p, min(counts, gamma), is optimal.
Otherwise one LP relaxation settles most instances: its bound, rounded up
since monitor counts are integral, meets the incumbent, or its optimum is
integral. A fractional root below the incumbent is rounded (`_round_lp`):
floor, repair in descending fractional part, reverse-delete shortest route
first. When the rounding meets the bound it is optimal; otherwise it is a
second incumbent, and the HiGHS MIP solves the same model. The rounding is
part of the root node, so a node budget of 1 can return an optimum. Both
solves go through `scipy.optimize.milp`, the root LP with no integer
variables, so HiGHS has one front end here.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from .placement import (
    CoverInstance,
    InstanceError,
    PlacementSolution,
    index_lists,
    solution_from_counts,
)

DEFAULT_NODE_BUDGET = 100_000
_INT_TOL = 1e-6
# scipy's status table (1.17) has no entry for HiGHS's kSolutionLimit (16),
# which HiGHS reports when the node limit stops the search, so milp returns it
# as status 4 ("other"), like a genuine failure; only the message differs
_NODE_LIMIT = "HiGHS Status 16:"


class SolverError(RuntimeError):
    """The LP relaxation or the MIP failed for a reason other than the node
    budget."""


def linprog(cost: np.ndarray, constraints: LinearConstraint, bounds: Bounds):
    """The root LP relaxation: `milp` with no integer variables.

    HiGHS gets the model that `scipy.optimize.linprog(method="highs")` would
    give it, and the tests pin an equal x and optimum, but `milp`'s front
    end costs less per call. The function carries scipy's name because
    perfbench's `exact.lp` span hooks `ppmplan.exact.linprog`; ROADMAP.md
    item 2 renames the function and the hook together.
    """
    return milp(cost, constraints=constraints, bounds=bounds)


def _greedy_p(instance: CoverInstance) -> np.ndarray:
    return np.array(instance.greedy[0], dtype=np.int64)


def _round_lp(instance: CoverInstance, x: np.ndarray) -> np.ndarray:
    """A placement that meets every requirement, rounded from the LP's x.

    1. Floor `x + _INT_TOL`, capped at `counts`.
    2. Repair: groups in descending fractional part, ties to the lower
       index; each rises while one of its links is below its requirement.
       One pass is feasible: a link still short at the end would have every
       covering group at its count.
    3. Reverse-delete: groups shortest route first, ties to the lower index;
       each falls while every one of its links stays at or above its
       requirement.
    """
    delta = instance.delta
    floor = np.minimum(np.floor(x + _INT_TOL).astype(np.int64), instance.counts)
    links, counts = index_lists(delta), instance.counts.tolist()
    req, cover, p = instance.requirement.tolist(), (delta @ floor).tolist(), floor.tolist()
    for j in np.argsort(floor - x, kind="stable").tolist():
        rise = min(counts[j] - p[j], max(req[e] - cover[e] for e in links[j]))
        if rise > 0:
            p[j] += rise
            for e in links[j]:
                cover[e] += rise
    for j in np.argsort(np.diff(delta.indptr), kind="stable").tolist():
        fall = min(p[j], min(cover[e] - req[e] for e in links[j]))
        if fall > 0:
            p[j] -= fall
            for e in links[j]:
                cover[e] -= fall
    return np.array(p, dtype=np.int64)


def solve_exact(instance: CoverInstance,
                node_budget: int = DEFAULT_NODE_BUDGET) -> PlacementSolution:
    """Provably optimal placement, or the best incumbent with optimal=False
    when the node budget runs out. The root LP and its rounding count as one
    node; the MIP gets the rest as its node limit."""
    if node_budget < 0:
        raise InstanceError(f"node_budget must be >= 0, got {node_budget}")
    n_l = len(instance.groups)
    if n_l == 0 or not instance.links:
        return solution_from_counts(instance, np.zeros(n_l, dtype=np.int64), optimal=True)

    if instance.max_hops == 1:
        # each link has at most one group, so the problem splits per link and
        # the greedy's p, min(counts, gamma), is optimal
        return solution_from_counts(instance, _greedy_p(instance),
                                    optimal=node_budget >= 1)
    counts = instance.counts

    # one sparse model for the LP and the MIP: integer counts p in [0, counts]
    # reaching the requirement, positive exactly on delta's non-empty rows.
    # Renumbering those rows keeps each column's rows sorted, so milp hands
    # the CSC array to HiGHS unconverted
    req, delta = instance.requirement, instance.delta
    rows = np.flatnonzero(req)
    renumber = np.cumsum(req > 0, dtype=delta.indices.dtype) - 1
    a_ub = sparse.csc_array((np.full(delta.nnz, -1.0), renumber[delta.indices], delta.indptr),
                            shape=(len(rows), n_l))
    constraints = LinearConstraint(a_ub, -np.inf, -req[rows])
    bounds = Bounds(np.zeros(n_l), counts.astype(np.float64))
    cost = np.ones(n_l)

    best_p = _greedy_p(instance)
    if np.any(delta @ best_p < req):
        best_p = counts.copy()  # always feasible
    if node_budget < 1:
        return solution_from_counts(instance, best_p, optimal=False)

    res = linprog(cost, constraints, bounds)
    if res.status != 0:
        raise SolverError(f"LP relaxation failed with status {res.status}: "
                          f"{res.message}")
    bound = math.ceil(res.fun - _INT_TOL)
    if bound >= best_p.sum():
        return solution_from_counts(instance, best_p, optimal=True)
    if np.all(np.abs(res.x - np.round(res.x)) <= _INT_TOL):
        return solution_from_counts(instance, np.round(res.x).astype(np.int64), optimal=True)
    rounded = _round_lp(instance, res.x)
    if rounded.sum() <= bound:
        return solution_from_counts(instance, rounded, optimal=True)

    res = milp(cost, integrality=1, bounds=bounds, constraints=constraints,
               options={"node_limit": node_budget - 1, "mip_rel_gap": 0})
    budget_stop = res.status == 4 and _NODE_LIMIT in res.message
    if res.status != 0 and not budget_stop:
        raise SolverError(f"MIP failed with status {res.status}: {res.message}")
    if res.x is not None:
        p_int = np.round(res.x).astype(np.int64)
        if p_int.sum() < best_p.sum():
            best_p = p_int
    # the rounding is the second incumbent: it is kept only where it has
    # fewer monitors than both the greedy and the MIP's p
    if rounded.sum() < best_p.sum():
        best_p = rounded
    return solution_from_counts(instance, best_p, optimal=not budget_stop)
