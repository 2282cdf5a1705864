"""Exact placement solver: branch-and-bound over per-group monitor counts.

The LP relaxation of the covering model supplies an admissible bound at
every node (objectives are integral, so bounds are rounded up); branching
splits the most fractional group count. The default lexicographic mode
first fixes the minimum achievable unsatisfied total - coverage is monotone
in p, so that floor is reached at p = counts and needs no search - then
minimizes monitors subject to reaching it. The weighted mode minimizes
alpha * unsatisfied + monitors directly.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog

from .placement import (
    CoverInstance,
    InstanceError,
    PlacementSolution,
    _greedy_counts,
    solution_from_counts,
)

DEFAULT_NODE_BUDGET = 100_000
_INT_TOL = 1e-6


class SolverError(RuntimeError):
    """The LP relaxation failed for a reason other than infeasibility."""


def _greedy_p(instance: CoverInstance) -> np.ndarray:
    return np.array(_greedy_counts(instance)[0], dtype=np.int64)


def solve_exact(instance: CoverInstance, mode: str = "lexicographic",
                node_budget: int = DEFAULT_NODE_BUDGET) -> PlacementSolution:
    """Provably optimal placement, or the best incumbent with optimal=False
    when the node budget runs out.

    mode="lexicographic": minimize unsatisfied coverage, then monitors.
    mode="weighted": minimize alpha * unsatisfied + monitors. For any
    alpha > 1 the two agree (raising a count that covers an undersatisfied
    link trades one monitor for at least one unit of unsatisfied), which the
    test suite asserts against the oracle rather than assumes.
    """
    if mode not in ("lexicographic", "weighted"):
        raise InstanceError(f"unknown solver mode {mode!r}")
    n_l, n_e = len(instance.groups), len(instance.links)
    if n_l == 0 or n_e == 0:
        return solution_from_counts(instance, np.zeros(n_l, dtype=np.int64), optimal=True)

    gamma = instance.gamma
    delta = instance.delta.astype(np.float64)
    counts = instance.counts

    if mode == "lexicographic":
        # phase 2 requirements: reach the coverage floor min(gamma, max coverage)
        req = np.minimum(gamma, instance.max_coverage).astype(np.float64)
        rows = req > 0
        a_ub = -delta[rows]
        b_ub = -req[rows]
        cost = np.ones(n_l)
        x_bounds = []
    else:
        a_ub = np.hstack([-delta, np.eye(n_e)])
        b_ub = np.zeros(n_e)
        cost = np.concatenate([np.ones(n_l), -float(instance.alpha) * np.ones(n_e)])
        x_bounds = [(0.0, float(gamma))] * n_e

    def true_value(p_vec: np.ndarray) -> int:
        cov = instance.delta @ p_vec
        if mode == "lexicographic":
            return int(p_vec.sum())
        return int(p_vec.sum()) - instance.alpha * int(np.minimum(gamma, cov).sum())

    best_p = _greedy_p(instance)
    if mode == "lexicographic" and np.any(instance.delta @ best_p < req):
        best_p = counts.copy()  # always feasible for phase 2
    best_val = true_value(best_p)

    stack = [(np.zeros(n_l, dtype=np.int64), counts.copy())]
    nodes = 0
    within_budget = True
    while stack:
        if nodes >= node_budget:
            within_budget = False
            break
        lo, hi = stack.pop()
        if mode == "lexicographic" and np.any(instance.delta @ hi < req):
            continue
        nodes += 1
        res = linprog(cost, A_ub=a_ub if a_ub.size else None,
                      b_ub=b_ub if a_ub.size else None,
                      bounds=list(zip(lo.astype(float), hi.astype(float))) + x_bounds,
                      method="highs")
        if res.status == 2:  # infeasible under current bounds
            continue
        if res.status != 0:
            raise SolverError(f"LP relaxation failed with status {res.status}: "
                              f"{res.message}")
        bound = math.ceil(res.fun - _INT_TOL)
        if bound >= best_val:
            continue
        px = res.x[:n_l]
        frac = np.abs(px - np.round(px))
        if np.all(frac <= _INT_TOL):
            p_int = np.round(px).astype(np.int64)
            val = true_value(p_int)
            if val < best_val:
                best_val, best_p = val, p_int
            continue  # LP optimum integral in p: subtree solved
        j = int(np.argmax(frac))
        vj = px[j]
        lo_hi = hi.copy()
        lo_hi[j] = math.floor(vj)
        up_lo = lo.copy()
        up_lo[j] = math.ceil(vj)
        stack.append((lo, lo_hi))       # explored second
        stack.append((up_lo, hi))       # explored first: push coverage up
    return solution_from_counts(instance, best_p, optimal=within_budget)
