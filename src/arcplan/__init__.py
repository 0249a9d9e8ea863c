"""arcplan: shortest line-and-arc paths for a point robot among fixed obstacles.

The library models an 800x800 scene with convex obstacles and a 10-unit
clearance rule, solves single-corner and multi-corner tangent problems in
closed form, and selects routes over a corner roadmap either exactly or with
a binary-chromosome ant colony.
"""

from .geometry import Point, Scene, builtin_scene
from .aco import AcoParams, aco_run, builtin_graph
from .planner import (
    KNOWN_TARGETS,
    PlanResult,
    RequestError,
    RouteInfeasible,
    RouteRequest,
    enumerate_candidates,
    plan_route,
)

__version__ = "0.1.0"

__all__ = [
    "Point", "Scene", "builtin_scene",
    "AcoParams", "aco_run", "builtin_graph",
    "KNOWN_TARGETS", "PlanResult", "RequestError", "RouteInfeasible", "RouteRequest",
    "enumerate_candidates", "plan_route",
    "__version__",
]
