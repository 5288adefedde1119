"""Collision-free UAV trajectory planning in a grid-divided low-altitude airspace.

Coarse planning routes among equal sub-airspaces by occupancy-aware shortest
path with sliding-window re-planning and attraction-based exit points; fine
planning inside each sub-airspace refines RRT/Bi-RRT seed trajectories with
particle-swarm optimization; a simulated ADS-B bus carries positions and
sudden-obstacle alerts driving in-flight repair.
"""

from .adsb import AdsbBus, AdsbMessage, OccupancyReport, PositionReport, SuddenObstacleAlert
from .coarse import (
    CoarsePlan,
    SspParams,
    attraction_region,
    node_costs,
    plan_coarse,
    select_exit_point,
    sliding_window_replan,
)
from .geometry import CuboidObstacle, ObstacleKind, Point3
from .grid import AirspaceGrid, NotAdjacent, OutOfAirspace
from .pso import (
    ConstraintParams,
    CostParams,
    SwarmParams,
    build_seed_population,
    feasibility_penalty,
    optimize,
    trajectory_cost,
)
from .replan import detect_conflicts, repair
from .sampling import PlanningFailed, RrtParams, Waypath, birrt_plan, rrt_plan, smooth_and_resample
from .scenario import ParseError, Scenario, UavSpec, ValidationError, load_scenario, single_cell_scenario
from .sim import Mode, SimMetrics, UavPhase, World, run_scenario

__version__ = "0.1.0"
