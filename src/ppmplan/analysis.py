"""Monitoring metrics and the techno-economic crossing-value analysis.

The crossing value is the per-module monitor cost (or power), expressed as a
percentage of a transponder's, at which network-wide monitor expenditure
equals the fiber-monitoring (OTDR) baseline:

    crossing = 100 * (n_otdr * otdr_unit) / (n_ppm * transponder_unit)

Below that fraction the receiver-side monitors are cheaper network-wide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .files import is_number


@dataclass(frozen=True)
class CostModel:
    """Normalized unit cost and power of the involved components."""

    transponder_cost: float = 4.0
    transponder_power: float = 8.0
    otdr_cost: float = 0.2
    otdr_power: float = 0.25

    def __post_init__(self):
        for name in ("transponder_cost", "transponder_power", "otdr_cost", "otdr_power"):
            value = getattr(self, name)
            if not is_number(value) or not 0 < value < math.inf:
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")

    def units(self, dimension: str) -> tuple[float, float]:
        """(transponder_unit, otdr_unit) for 'cost' or 'power'."""
        if dimension == "cost":
            return self.transponder_cost, self.otdr_cost
        if dimension == "power":
            return self.transponder_power, self.otdr_power
        raise ValueError(f"unknown dimension {dimension!r}")


def unsatisfied_npl_avg(solution_or_counts, gamma: int) -> float:
    """Mean unsatisfied monitors-per-link over all links: gamma minus the
    achieved (capped) count. At gamma = 1 it is the share of unmonitored links."""
    if gamma < 1:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    counts = getattr(solution_or_counts, "x", solution_or_counts)
    values = list(counts.values())
    if not values:
        raise ValueError("no per-link counts given")
    return sum(max(0, gamma - min(gamma, v)) for v in values) / len(values)


def crossing_value(n_ppm: float, n_otdr: float, cost_model: CostModel,
                   dimension: str = "cost") -> float:
    """Break-even monitor unit price as a percentage of a transponder's."""
    if n_ppm <= 0:
        raise ValueError("crossing value undefined for zero placed monitors")
    t_unit, o_unit = cost_model.units(dimension)
    return 100.0 * (n_otdr * o_unit) / (n_ppm * t_unit)


def sweep_cost_curves(rows: dict, cost_model: CostModel, fractions,
                      dimension: str = "cost") -> list[tuple[str, float, float, float]]:
    """Monitoring expenditure per Tb/s versus the monitor unit-price fraction.

    `rows` maps scenario name -> row with "monitors" and "carried_tbps", as
    `crossings` takes them; the "OTDR" row gives the baseline count. Each
    other scenario, in row order, contributes one (scenario, fraction_pct,
    cost_per_tbps, otdr_cost_per_tbps) tuple per fraction f: monitors *
    (f/100 * transponder_unit) / carried_tbps, with the baseline n_otdr *
    otdr_unit / carried_tbps (the scenario's own carried traffic) alongside.
    A scenario that carries no traffic or places no monitor gets no curve.
    """
    fractions = list(fractions)
    if not fractions:
        raise ValueError("empty fractions list")
    if "OTDR" not in rows:
        raise ValueError("no OTDR baseline among scenario rows")
    n_otdr = rows["OTDR"]["monitors"]
    t_unit, o_unit = cost_model.units(dimension)
    points = []
    for name, row in rows.items():
        monitors, carried = row["monitors"], row["carried_tbps"]
        if name == "OTDR" or not carried or monitors <= 0:
            continue
        otdr_line = n_otdr * o_unit / carried
        for f in fractions:
            points.append((name, float(f), monitors * (f / 100.0 * t_unit) / carried,
                           otdr_line))
    return points
