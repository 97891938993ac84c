"""Planning and simulation for fuel-limited UAV surveys with a mobile
ground refueling vehicle.

Remaining fuel is treated as a string tied between the UAV and its next
refuel site: while it has slack the plan stands, and once taut the site is
dragged back toward the UAV, skipping or abandoning targets as needed to
keep the rendezvous reachable by both vehicles.
"""
from .geometry import Point2D, Polyline
from .model import Scenario, Target, VehicleParams, World
from .offline import (
    MissionPlan,
    PlanningError,
    SegmentPlan,
    Tour,
    build_tour,
    plan_mission,
    split_tour,
    validate_plan,
)
from .online import (
    Case,
    Mode,
    SegmentState,
    backtrack_site,
    check_abandonment,
    classify_segment_outcome,
    on_processing_tick,
    on_transit_tick,
    slack,
    transfer_and_repair,
    ugv_reachable,
)
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
    WorldState,
    fold_jsonl,
    fold_records,
    metrics_to_text,
    run,
    step,
)

__version__ = "0.1.0"
