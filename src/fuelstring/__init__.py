"""Planning and simulation for fuel-limited UAV surveys with a mobile
ground refueling vehicle.

Remaining fuel is treated as a string tied between the UAV and its next
refuel site: while it has slack the plan stands, and once taut the site is
dragged back toward the UAV, skipping or abandoning targets as needed to
keep the rendezvous reachable by both vehicles.
"""
from .geometry import Point2D
from .model import Scenario, Target, VehicleParams, World
from .offline import MissionPlan, PlanningError, plan_mission, validate_plan
from .scenario_io import (
    CostModel,
    ScenarioFormatError,
    TooManyTargetsError,
    emit_plan,
    emit_scenario,
    generate_scenario,
    parse_plan,
    parse_scenario,
)
from .sim import (
    InvariantViolation,
    RunReport,
    SimConfig,
    TickLimitError,
    run,
)
from .trace import fold_jsonl, metrics_to_text

__version__ = "0.1.0"
