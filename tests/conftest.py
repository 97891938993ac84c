"""Shared scenario and plan builders for the test suite.

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

from fuelstring import sim
from fuelstring.geometry import Point2D, Polyline
from fuelstring.model import Scenario, Target, VehicleParams, World
from fuelstring.offline import MissionPlan, SegmentPlan

DEFAULT_PARAMS = VehicleParams(v_uav=2.0, v_ugv=1.0, fuel_capacity=50.0,
                               fuel_per_meter=1.0)


def line_scenario(tau: float, fuel: float = 50.0) -> Scenario:
    return Scenario(
        world=World(50.0, 50.0),
        depot=Point2D(0.0, 0.0),
        params=VehicleParams(v_uav=2.0, v_ugv=1.0, fuel_capacity=fuel,
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
    format's order: t, uav, fuel, ugv, seg, site, mode."""
    st, ugv = world.active, world.ugv_pos
    uav, site = st.uav_position, st.site_position
    return {"t": world.clock, "uav": [uav.x, uav.y], "fuel": st.fuel, "ugv": [ugv.x, ugv.y],
            "seg": st.ordinal, "site": [site.x, site.y], "mode": st.mode}


def traced_run(scenario, config=None, plan=None, sink=None):
    """run() with a trace sink, a fresh StringIO unless one is given.
    Returns the report and the sink's tick records.  Every line is decoded
    with the simulator's own decoder; the event lines must decode to the
    report's events."""
    sink = io.StringIO() if sink is None else sink
    rep = sim.run(scenario, config, plan=plan, trace_file=sink)
    ticks, events = [], []
    for line in sink.getvalue().splitlines():
        rec = sim._decode_line(line)
        (events if "kind" in rec else ticks).append(rec)
    assert events == rep.events
    return rep, ticks
