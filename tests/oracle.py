"""The exhaustive placement oracle the exact solver is checked against:
every p vector enumerated, testing-scale only."""

import numpy as np

from ppmplan.placement import CoverInstance, PlacementSolution, solution_from_counts


class OracleCapError(RuntimeError):
    """Enumeration space exceeds the configured oracle cap."""


def brute_force_oracle(instance: CoverInstance, cap: int = 1_000_000) -> PlacementSolution:
    """Exhaustive optimum by enumerating every p vector.

    Keeps the vectors that bring every link to its `requirement` and returns
    the first with the fewest monitors, by enumeration rather than HiGHS.
    Refuses when prod(count+1) exceeds `cap`.
    """
    counts = instance.counts
    space = float(np.prod((counts + 1).astype(np.float64))) if len(counts) else 1.0
    if space > cap:
        raise OracleCapError(f"enumeration space {space:.3g} exceeds cap {cap}")
    if len(counts) == 0:
        return solution_from_counts(instance, np.zeros(0, dtype=np.int64), optimal=True)
    grids = np.meshgrid(*(np.arange(cc + 1) for cc in counts), indexing="ij")
    all_p = np.stack([g.ravel() for g in grids], axis=1)  # (space, |groups|)
    feasible = np.all(all_p @ instance.delta.T >= instance.requirement, axis=1)
    monitors = np.where(feasible, all_p.sum(axis=1), np.iinfo(np.int64).max)
    best = int(np.argmin(monitors))  # first minimum: deterministic; p = counts is feasible
    return solution_from_counts(instance, all_p[best], optimal=True)
