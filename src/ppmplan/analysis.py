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
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not 0 < value < math.inf):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")

    def units(self, dimension: str) -> tuple[float, float]:
        """(transponder_unit, otdr_unit) for 'cost' or 'power'."""
        if dimension == "cost":
            return self.transponder_cost, self.otdr_cost
        if dimension == "power":
            return self.transponder_power, self.otdr_power
        raise ValueError(f"unknown dimension {dimension!r}")


@dataclass(frozen=True)
class ScenarioResult:
    scenario: str
    monitor_count: float
    carried_tbps: float = 0.0


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


@dataclass(frozen=True)
class CurvePoint:
    scenario: str
    fraction_pct: float
    cost_per_tbps: float
    otdr_cost_per_tbps: float


def sweep_cost_curves(scenario_results, cost_model: CostModel, fractions,
                      dimension: str = "cost") -> list[CurvePoint]:
    """Monitoring expenditure per Tb/s versus the monitor unit-price fraction.

    Each monitored scenario contributes one point per fraction f:
    monitor_count * (f/100 * transponder_unit) / carried_tbps, with the
    baseline n_otdr * otdr_unit / carried_tbps (the scenario's own carried
    traffic) alongside. The baseline count comes from the "OTDR" entry of
    `scenario_results`.
    """
    fractions = list(fractions)
    if not fractions:
        raise ValueError("empty fractions list")
    results = list(scenario_results)
    otdr_rows = [r for r in results if r.scenario.upper() == "OTDR"]
    if not otdr_rows:
        raise ValueError("no OTDR baseline among scenario results")
    n_otdr = otdr_rows[0].monitor_count
    t_unit, o_unit = cost_model.units(dimension)
    points = []
    for r in results:
        if r.scenario.upper() == "OTDR":
            continue
        if r.carried_tbps <= 0:
            raise ValueError(f"scenario {r.scenario}: carried_tbps must be positive")
        otdr_line = n_otdr * o_unit / r.carried_tbps
        for f in fractions:
            ppm = r.monitor_count * (f / 100.0 * t_unit) / r.carried_tbps
            points.append(CurvePoint(r.scenario, float(f), ppm, otdr_line))
    return points
