"""Shared scenario and plan builders for the test suite, and the step-only
reference engine that run()'s outputs are compared with.

Three fixed geometries cover most tests:

  * line:      one target at (10, 0), hand-built out-and-back plan with a
               refuel stop at (20, 0).  Varying tau walks it through the
               no-replan / backtrack / abandon outcomes.
  * bend:      two targets on an L-shaped leg sized so the retreating site
               passes the second target mid-processing (the skip outcome).
  * collinear: four targets on the x axis whose optimal tour and fuel
               splits are computable by hand.
"""
from __future__ import annotations

import io
import json
import math

from fuelstring import sim
from fuelstring.geometry import Point2D, Polyline
from fuelstring.model import EPS_TIME, Scenario, Target, VehicleParams, World
from fuelstring.offline import MissionPlan, PlanningError, SegmentPlan
from fuelstring.rng import SplitMix64
from fuelstring.scenario_io import CostModel, generate_scenario
from fuelstring.trace import metrics_to_text

DEFAULT_PARAMS = VehicleParams(v_uav=2.0, v_ugv=1.0, fuel_capacity=50.0,
                               fuel_per_meter=1.0)


def line_scenario(tau: float, fuel: float = 50.0, v_ugv: float = 1.0) -> Scenario:
    return Scenario(
        world=World(50.0, 50.0),
        depot=Point2D(0.0, 0.0),
        params=VehicleParams(v_uav=2.0, v_ugv=v_ugv, fuel_capacity=fuel,
                             fuel_per_meter=1.0),
        targets=(Target(id=1, position=Point2D(10.0, 0.0), tau=tau),),
    )


def line_plan() -> MissionPlan:
    seg1 = SegmentPlan(
        index=0,
        path=Polyline([Point2D(0.0, 0.0), Point2D(10.0, 0.0), Point2D(20.0, 0.0)]),
        target_arcs=((1, 10.0),),
    )
    seg2 = SegmentPlan(
        index=1,
        path=Polyline([Point2D(20.0, 0.0), Point2D(0.0, 0.0)]),
    )
    return MissionPlan(segments=(seg1, seg2))


def bend_scenario() -> Scenario:
    # tank 30 -> reach radius 15; tau=16 at the first target drags the site
    # from arc 20 back past the second target at arc 15 before finishing
    return Scenario(
        world=World(50.0, 50.0),
        depot=Point2D(0.0, 0.0),
        params=VehicleParams(v_uav=2.0, v_ugv=1.0, fuel_capacity=30.0,
                             fuel_per_meter=1.0),
        targets=(Target(id=1, position=Point2D(2.0, 0.0), tau=16.0),
                 Target(id=2, position=Point2D(7.0, 4.0), tau=2.0)),
    )


def bend_plan() -> MissionPlan:
    seg1 = SegmentPlan(
        index=0,
        path=Polyline([Point2D(0.0, 0.0), Point2D(10.0, 0.0), Point2D(4.0, 8.0)]),
        target_arcs=((1, 2.0), (2, 15.0)),
    )
    seg2 = SegmentPlan(
        index=1,
        path=Polyline([Point2D(4.0, 8.0), Point2D(0.0, 0.0)]),
    )
    return MissionPlan(segments=(seg1, seg2))


def collinear_scenario() -> Scenario:
    return Scenario(
        world=World(50.0, 50.0),
        depot=Point2D(0.0, 0.0),
        params=DEFAULT_PARAMS,
        targets=(
            Target(id=10, position=Point2D(10.0, 0.0), tau=0.0),
            Target(id=20, position=Point2D(20.0, 0.0), tau=0.0),
            Target(id=30, position=Point2D(30.0, 0.0), tau=0.0),
            Target(id=40, position=Point2D(40.0, 0.0), tau=0.0),
        ),
    )


def tick_record(world) -> dict:
    """A world's current tick as a trace record, built here from the world's
    state apart from the simulator's own writer, with its keys in the trace
    format's order: t, uav, fuel, ugv, seg, site, mode.  The site is the
    point at the site's arc, so a line that agrees also shows that the
    engine's stored site point is that point."""
    st, ugv = world.active, world.ugv_pos
    uav, site = st.uav_position, st.plan.path.point_at_arc(st.site_arc)
    return {"t": world.clock, "uav": [uav.x, uav.y], "fuel": st.fuel, "ugv": [ugv.x, ugv.y],
            "seg": st.ordinal, "site": [site.x, site.y], "mode": st.mode}


def traced_run(scenario, config=None, plan=None, sink=None):
    """run() with a trace sink, a fresh StringIO unless one is given.
    Returns the report, the sink's tick records and its event records, each
    decoded with json.loads."""
    sink = io.StringIO() if sink is None else sink
    rep = sim.run(scenario, config, plan=plan, trace_file=sink)
    ticks, events = [], []
    for line in sink.getvalue().splitlines():
        rec = json.loads(line)
        (events if "kind" in rec else ticks).append(rec)
    return rep, ticks, events


# what run() raises mid-mission: a repair's refusal or a broken invariant
RUN_ERRORS = (PlanningError, sim.InvariantViolation)


def run_outputs(scenario, config, plan, sink=None) -> list:
    """What run() gives on a planned mission: its status, metrics text and
    unprocessed ids, or a raised error's type and text; then the sink's
    text.  The texts write every float with repr, so equal texts mean equal
    bits, -0.0 included."""
    sink = io.StringIO() if sink is None else sink
    try:
        rep = sim.run(scenario, config, plan=plan, trace_file=sink)
    except RUN_ERRORS as exc:
        got = [type(exc).__name__, str(exc)]
    else:
        got = [rep.status, metrics_to_text(rep.metrics), rep.unprocessed]
    return got + [sink.getvalue()]


def stepped_outputs(scenario, config, plan) -> list:
    """run_outputs of the reference engine: a WorldState driven tick by tick
    with step under run's cap, and closed as run closes it.  Its tick
    records are built from the world after each tick, apart from the
    simulator's writer, which must have written their lines; the end event
    must count them."""
    sink = io.StringIO()
    world = sim.WorldState(scenario, plan, config, trace_file=sink)
    world.record_tick()
    records = [tick_record(world)]
    limit = sim.time_cap(config, plan, scenario.params) - EPS_TIME
    try:
        while not world.mission_complete and world.clock < limit:
            sim.step(world)
            records.append(tick_record(world))
    except RUN_ERRORS as exc:
        got = [type(exc).__name__, str(exc)]
    else:
        rep = world.finish()
        got = [rep.status, metrics_to_text(rep.metrics), rep.unprocessed]
        end = json.loads(sink.getvalue().splitlines()[-1])
        assert (end["kind"], end["detail"]["ticks"]) == ("end", len(records))
    # only an event line has a "kind" key
    lines = sink.getvalue().splitlines(keepends=True)
    assert [line for line in lines if '"kind":' not in line] == [
        json.dumps(r, separators=(",", ":")) + "\n" for r in records]
    return got + [sink.getvalue()]


def checked_outcomes(recipe, seeds, dt: float = 0.05) -> dict[str, list[int]]:
    """Run recipe(seed) for each seed at tick size dt, every tick checked,
    and sort the seeds by outcome: completed, timeout and fault (a broken
    invariant, whose message is printed).  A planner refusal raises."""
    seen = {"completed": [], "timeout": [], "fault": []}
    config = sim.SimConfig(dt=dt, check_invariants=True)
    for seed in seeds:
        try:
            seen[sim.run(recipe(seed), config).status].append(seed)
        except sim.InvariantViolation as exc:
            seen["fault"].append(seed)
            print(f"seed {seed}: {exc}")
    return seen


def segment_cases(events) -> list[tuple[int, int]]:
    """(segment, case) of every `case` event; a repaired segment twice."""
    return [(e["detail"]["segment"], e["detail"]["case"])
            for e in events if e["kind"] == "case"]


def case_counts(metrics) -> list[int]:
    """metrics["case_1"] ... metrics["case_5"]: a run's case events by case."""
    return [metrics[f"case_{k}"] for k in range(1, 6)]


def acceptance7(i: int) -> Scenario:
    """Mission i of acceptance 7's recipe: 5 + SplitMix64(9000 + i) % 26
    targets, scenario seed 9000 + i, uniform [0, 25] costs with seed 17 + i."""
    n = int(5 + SplitMix64(9000 + i).next_u64() % 26)
    return generate_scenario(n, seed=9000 + i, cost_model=CostModel(
        kind="uniform", low=0.0, high=25.0, seed=17 + i))


def vehicle_space(s: int) -> Scenario:
    """Mission s of the vehicle-space recipe: the vehicle and the costs vary
    too.  Each u is a fresh draw of SplitMix64(s), in the order written."""
    r = SplitMix64(s)
    ratio = 0.05 + 1.5 * r.next_float()
    fuel_per_meter = 0.25 + 3.75 * r.next_float()
    fuel_capacity = 20 + 280 * r.next_float()
    r_max = None if r.next_float() < 0.5 else 3 + 30 * r.next_float()
    n = 3 + math.floor(25 * r.next_float())
    if r.next_float() < 0.5:
        cost = CostModel(kind="uniform", low=0.0, high=fuel_capacity * r.next_float(), seed=s)
    else:
        cost = CostModel(kind="lognormal", mu=1.0, sigma=1.2, seed=s)
    params = VehicleParams(v_uav=2.0, v_ugv=2.0 * ratio, fuel_capacity=fuel_capacity,
                           fuel_per_meter=fuel_per_meter, r_max=r_max)
    return generate_scenario(n, seed=s, params=params, cost_model=cost)
