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
part of the root node, so a node budget of 1 can return an optimum.

Both solves hand one `HighsLp` to HiGHS through `_run_highs`, each on a
fresh solver. The binding is `scipy.optimize._highspy._core`, scipy's
bundled copy of HiGHS's own Python binding (highspy's names). scipy's
public front end would build the same model from its arguments, in
per-column Python loops that cost as much as HiGHS's own run at these
sizes.

The binding is loaded from its file in scipy's directory when this module
is imported (`_load_core`), not through `import scipy.optimize`: that
package's init loads scipy.linalg, scipy.special and the optimize front
end, which nothing here uses and every process would pay for at start-up.
`_core` has no Python-level tie to its package, and it is registered under
its own name, so a later `import scipy.optimize` runs on the same module.
Its path is private to scipy: a scipy that moves the file fails this
import with an ImportError naming the directory searched. It is loaded
eagerly, since a load on the first solve would only move the cost into it.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import scipy

from .placement import (
    CoverInstance,
    InstanceError,
    PlacementSolution,
    index_lists,
    solution_from_counts,
)


def _load_core():
    """scipy's HiGHS binding, loaded from its file in scipy's directory.
    Where `scipy.optimize` has already loaded it, this is that module:
    pybind11 registers the binding's types once per process. Loaded here
    first, it is no attribute of the `_highspy` package that a later
    `import scipy.optimize` loads; scipy's modules import it by name, which
    finds it in sys.modules."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    directory = Path(scipy.__file__).parent / "optimize" / "_highspy"
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    path = next((p for p in (directory / f"_core{s}" for s in suffixes) if p.is_file()), None)
    if path is None:
        raise ImportError(f"scipy's HiGHS binding is not in {directory}: "
                          f"no _core with a suffix in {suffixes}", name=name)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # a later import of scipy.optimize finds it here
    spec.loader.exec_module(module)
    return module


_core = _load_core()

DEFAULT_NODE_BUDGET = 100_000
_INT_TOL = 1e-6


class SolverError(RuntimeError):
    """The LP relaxation or the MIP failed for a reason other than the node
    budget."""


def _run_highs(lp: _core.HighsLp, **options):
    """(model status, objective, x) of one HiGHS run on `lp` with `options`.

    x is None unless the status is optimal, or the node limit stopped the
    MIP (kSolutionLimit) with a finite objective, that is, with a feasible
    incumbent: this is scipy's rule, and other stops leave x undefined."""
    highs = _core._Highs()
    highs.setOptionValue("log_to_console", False)
    for key, value in options.items():
        highs.setOptionValue(key, value)
    highs.passModel(lp)
    highs.run()
    status, fun = highs.getModelStatus(), highs.getInfo().objective_function_value
    solved = status == _core.HighsModelStatus.kOptimal or (
        status == _core.HighsModelStatus.kSolutionLimit and fun < _core.kHighsInf)
    return status, fun, np.array(highs.getSolution().col_value) if solved else None


def linprog(lp: _core.HighsLp):
    """The root LP relaxation: `_run_highs` on `lp`, which has no integer
    columns; the tests pin the x and optimum of `scipy.optimize.linprog`.
    perfbench's `exact.lp` span hooks this name (ROADMAP.md item 2 renames
    both), and its tracer rebinds every name bound to the function it wraps.
    So this is a function of its own: as an alias of `_run_highs`, the MIP
    would be timed as an LP too."""
    return _run_highs(lp)


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
    counts, req, delta = instance.counts, instance.requirement, instance.delta
    best_p = _greedy_p(instance)
    if np.any(delta @ best_p < req):
        best_p = counts.copy()  # always feasible
    if node_budget < 1:
        return solution_from_counts(instance, best_p, optimal=False)

    # one model for the LP and the MIP: counts p in [0, counts] reaching the
    # requirement, -delta @ p <= -req on delta's non-empty rows. Renumbering
    # those rows keeps each column's rows sorted, so the matrix is delta's
    # column form
    rows = np.flatnonzero(req)
    lp = _core.HighsLp()
    lp.num_col_, lp.num_row_ = n_l, len(rows)
    lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = delta.indptr
    lp.a_matrix_.index_ = (np.cumsum(req > 0, dtype=delta.indices.dtype) - 1)[delta.indices]
    lp.a_matrix_.value_ = np.full(delta.nnz, -1.0)
    lp.col_cost_ = np.ones(n_l)
    lp.col_lower_, lp.col_upper_ = np.zeros(n_l), counts.astype(np.float64)
    lp.row_lower_, lp.row_upper_ = np.full(len(rows), -np.inf), -req[rows].astype(np.float64)

    status, fun, x = linprog(lp)
    if x is None:
        raise SolverError(f"LP relaxation failed: HiGHS model status {status.name}")
    bound = math.ceil(fun - _INT_TOL)
    if bound >= best_p.sum():
        return solution_from_counts(instance, best_p, optimal=True)
    if np.all(np.abs(x - np.round(x)) <= _INT_TOL):
        return solution_from_counts(instance, np.round(x).astype(np.int64), optimal=True)
    rounded = _round_lp(instance, x)
    if rounded.sum() <= bound:
        return solution_from_counts(instance, rounded, optimal=True)

    lp.integrality_ = [_core.HighsVarType.kInteger] * n_l
    # HiGHS's node limit is an int; a larger one means no limit, as in scipy
    status, fun, x = _run_highs(lp, mip_max_nodes=min(node_budget - 1, _core.kHighsIInf),
                                mip_rel_gap=0.0)
    budget_stop = status == _core.HighsModelStatus.kSolutionLimit
    if status != _core.HighsModelStatus.kOptimal and not budget_stop:
        raise SolverError(f"MIP failed: HiGHS model status {status.name}")
    if x is not None:
        p_int = np.round(x).astype(np.int64)
        if p_int.sum() < best_p.sum():
            best_p = p_int
    # the rounding is the second incumbent: it is kept only where it has
    # fewer monitors than both the greedy and the MIP's p
    if rounded.sum() < best_p.sum():
        best_p = rounded
    return solution_from_counts(instance, best_p, optimal=not budget_stop)
