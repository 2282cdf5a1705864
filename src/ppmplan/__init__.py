"""Planning toolkit for receiver-side power-profile monitor placement on
optical networks: topology handling, lightpath provisioning, exact and
greedy multi-cover placement, the fiber-monitoring baseline, and the
cost/power crossing-value analysis."""

__version__ = "0.1.0"

from .analysis import CostModel, crossing_value, sweep_cost_curves
from .exact import solve_exact
from .lpfile import export_lp
from .otdr import OtdrPlan, count_otdrs
from .placement import (
    CoverInstance,
    PathGroup,
    PlacementSolution,
    build_cover_instance,
    make_instance,
    solve_greedy,
)
from .provisioning import (
    Lightpath,
    LightpathSet,
    provision,
)
from .topology import (
    DirectedLink,
    Topology,
    TopologyError,
    bundled_topology,
    generate_gabriel,
    load_topology,
)
from .traffic import Demand, DemandSet, find_load_at_rejection, generate_demands
