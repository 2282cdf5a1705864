"""Exact placement solver: a root-LP screen in front of the HiGHS MIP.

The greedy placement is the incumbent; it is the instance's cached greedy
(`CoverInstance.greedy`), so a greedy solve of the same instance, before or
after, does not repeat it. An instance of single-hop groups needs no LP: it
splits per link, and the greedy's p, min(counts, gamma), is optimal.
Otherwise one LP relaxation settles most
instances: its bound, rounded up since objectives are integral, meets the
incumbent, or its optimum is integral in the group counts. Only a
fractional root below the incumbent goes to HiGHS
(`scipy.optimize.milp`) on the same model. The default lexicographic mode
first fixes the minimum achievable unsatisfied total - coverage is monotone
in p, so that floor is reached at p = counts and needs no search - then
minimizes monitors subject to reaching it. The weighted mode minimizes
alpha * unsatisfied + monitors.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from .placement import (
    CoverInstance,
    InstanceError,
    PlacementSolution,
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


def _greedy_p(instance: CoverInstance) -> np.ndarray:
    return np.array(instance.greedy[0], dtype=np.int64)


def solve_exact(instance: CoverInstance, mode: str = "lexicographic",
                node_budget: int = DEFAULT_NODE_BUDGET) -> PlacementSolution:
    """Provably optimal placement, or the best incumbent with optimal=False
    when the node budget runs out. The root LP counts as one node; the MIP
    gets the rest as its node limit.

    mode="lexicographic": minimize unsatisfied coverage, then monitors.
    mode="weighted": minimize alpha * unsatisfied + monitors. For any
    alpha > 1 the two agree (raising a count that covers an undersatisfied
    link trades one monitor for at least one unit of unsatisfied), which the
    test suite asserts against the oracle rather than assumes.
    """
    if mode not in ("lexicographic", "weighted"):
        raise InstanceError(f"unknown solver mode {mode!r}")
    if node_budget < 0:
        raise InstanceError(f"node_budget must be >= 0, got {node_budget}")
    n_l, n_e = len(instance.groups), len(instance.links)
    if n_l == 0 or n_e == 0:
        return solution_from_counts(instance, np.zeros(n_l, dtype=np.int64), optimal=True)

    if instance.max_hops == 1:
        # each link has at most one group, so the problem splits per link and
        # the greedy's p, min(counts, gamma), is optimal in both modes
        return solution_from_counts(instance, _greedy_p(instance),
                                    optimal=node_budget >= 1)
    gamma = instance.gamma
    counts = instance.counts

    # one sparse model for the LP and the MIP: integer counts p in [0, counts],
    # plus in weighted mode continuous capped coverages x in [0, gamma]
    if mode == "lexicographic":
        # phase 2: reach min(gamma, max coverage), positive exactly on delta's non-empty rows
        req = np.minimum(gamma, instance.max_coverage).astype(np.float64)
        rows, by_link = np.flatnonzero(req), instance.delta_rows
        a_ub = sparse.csr_array((np.full(by_link.nnz, -1.0), by_link.indices,
                                 np.append(0, by_link.indptr[rows + 1])), shape=(len(rows), n_l))
        b_ub = -req[rows]
        cost = np.ones(n_l)
        ub = counts.astype(np.float64)
    else:
        a_ub = sparse.hstack([-instance.delta, sparse.identity(n_e)], format="csc")
        b_ub = np.zeros(n_e)
        cost = np.concatenate([np.ones(n_l), -float(instance.alpha) * np.ones(n_e)])
        ub = np.concatenate([counts, np.full(n_e, gamma)]).astype(np.float64)
    lb = np.zeros_like(ub)
    integrality = (np.arange(len(cost)) < n_l).astype(np.int64)

    def true_value(p_vec: np.ndarray) -> int:
        if mode == "lexicographic":
            return int(p_vec.sum())
        cov = instance.delta @ p_vec
        return int(p_vec.sum()) - instance.alpha * int(np.minimum(gamma, cov).sum())

    best_p = _greedy_p(instance)
    if mode == "lexicographic" and np.any(instance.delta @ best_p < req):
        best_p = counts.copy()  # always feasible for phase 2
    best_val = true_value(best_p)
    if node_budget < 1:
        return solution_from_counts(instance, best_p, optimal=False)

    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=np.column_stack([lb, ub]), method="highs")
    if res.status != 0:
        raise SolverError(f"LP relaxation failed with status {res.status}: "
                          f"{res.message}")
    if math.ceil(res.fun - _INT_TOL) >= best_val:
        return solution_from_counts(instance, best_p, optimal=True)
    px = res.x[:n_l]
    if np.all(np.abs(px - np.round(px)) <= _INT_TOL):
        return solution_from_counts(instance, np.round(px).astype(np.int64), optimal=True)

    res = milp(cost, integrality=integrality, bounds=Bounds(lb, ub),
               constraints=LinearConstraint(a_ub, -np.inf, b_ub),
               options={"node_limit": node_budget - 1, "mip_rel_gap": 0})
    budget_stop = res.status == 4 and _NODE_LIMIT in res.message
    if res.status != 0 and not budget_stop:
        raise SolverError(f"MIP failed with status {res.status}: {res.message}")
    if res.x is not None:
        p_int = np.round(res.x[:n_l]).astype(np.int64)
        if true_value(p_int) < best_val:
            best_p = p_int
    return solution_from_counts(instance, best_p, optimal=not budget_stop)
