"""run() coasts through quiet transit and processing ticks, one loop for
each mode; every output must be the one a step()-only engine gives, byte
for byte."""
from __future__ import annotations

import io
import json
import math
from collections import Counter
from contextlib import contextmanager

import pytest

from conftest import (acceptance7, bend_plan, bend_scenario, line_plan, line_scenario,
                      run_outputs, stepped_outputs, traced_run, vehicle_space)
from fuelstring import sim
from fuelstring.geometry import Point2D, Polyline, distance
from fuelstring.model import EPS_TIME, Scenario, Target, VehicleParams, World
from fuelstring.offline import MissionPlan, PlanningError, SegmentPlan, plan_mission
from fuelstring.online import Mode
from fuelstring.scenario_io import CostModel, generate_scenario
from fuelstring.sim import InvariantViolation, SimConfig, WorldState, run, step


@contextmanager
def _counted_steps():
    """Patch sim.step to note the clock each stepped tick starts at; the
    clock only rises, so an instant names a tick."""
    stepped_at = set()

    def counted(world):
        stepped_at.add(world.clock)
        step(world)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "step", counted)
        yield stepped_at


def _coasted(trace, stepped_at) -> dict:
    """The kind of each tick run() coasted, keyed on the record that ends
    it: the mode the tick starts in, and for processing whether the site
    held ("processing slack") or was dragged ("processing taut")."""
    coasted = {}
    for j in range(1, len(trace)):
        a, b = trace[j - 1], trace[j]
        if a["t"] not in stepped_at:
            kind = a["mode"]
            if kind == "processing":
                kind += " slack" if a["site"] == b["site"] else " taut"
            coasted[j] = kind
    return coasted


def _assert_run_matches_steps(scenario, cfg, plan) -> Counter:
    """Compare run() with the stepped reference; return the ticks it
    coasted, by kind."""
    sink = io.StringIO()
    with _counted_steps() as stepped_at:
        got = run_outputs(scenario, cfg, plan, sink)
    assert got == stepped_outputs(scenario, cfg, plan)
    trace = [rec for rec in map(json.loads, sink.getvalue().splitlines())
             if "kind" not in rec]
    return Counter(_coasted(trace, stepped_at).values())


def _coasted_run(scenario, cfg, plan, sink=None):
    """traced_run, and the kind of each tick run() coasted."""
    with _counted_steps() as stepped_at:
        rep, trace, events = traced_run(scenario, cfg, plan, sink=sink)
    return rep, trace, events, _coasted(trace, stepped_at)


def _planned(scenario):
    try:
        return plan_mission(scenario)
    except PlanningError:
        return None


@pytest.mark.parametrize("checked", [False, True])
def test_acceptance7_missions_match_the_stepped_engine(checked):
    coasted = Counter()
    for i in range(20):
        sc = acceptance7(i)
        plan = _planned(sc)
        if plan is not None:
            coasted += _assert_run_matches_steps(sc, SimConfig(check_invariants=checked), plan)
    assert coasted.keys() >= {"transit", "to_rendezvous", "processing slack", "processing taut"}


@pytest.mark.parametrize("checked", [False, True])
def test_vehicle_space_missions_match_the_stepped_engine(checked):
    # speeds, tank, burn, r_max and costs vary too
    coasted, vehicles = Counter(), []
    for seed in range(1000, 1020):
        sc = vehicle_space(seed)
        plan = _planned(sc)
        if plan is not None:
            coasted += _assert_run_matches_steps(sc, SimConfig(check_invariants=checked), plan)
            vehicles.append(sc.params)
    assert coasted.keys() >= {"transit", "to_rendezvous", "processing slack", "processing taut"}
    assert min(p.v_ugv / p.v_uav for p in vehicles) < 0.2
    assert any(p.r_max is not None for p in vehicles)
    assert len({p.burn_rate for p in vehicles}) == len(vehicles)


def test_relay_hops_mid_run_match_the_stepped_engine():
    # vehicle-space seed 1031: no site past target 8 is in reach of the
    # rendezvous at (13.7653, 21.7461), so the repaired segment 7 hops the
    # site toward it; segment 12 is a second hop.  The mission completes
    sc = vehicle_space(1031)
    plan = plan_mission(sc)
    for checked in (False, True):
        assert _assert_run_matches_steps(sc, SimConfig(check_invariants=checked),
                                         plan)["transit"] > 0
    assert run_outputs(sc, SimConfig(), plan)[0] == "completed"


def _sweep_cell(n: int, ratio: float, seed: int, fuel: float = 50.0) -> Scenario:
    # batch.run_cell's recipe
    params = VehicleParams(v_uav=2.0, v_ugv=2.0 * ratio, fuel_capacity=fuel, fuel_per_meter=1.0)
    return generate_scenario(n, seed=seed, params=params, cost_model=CostModel(
        kind="uniform", low=0.0, high=20.0, seed=seed + 1))


def _quiet_ugv_kinds(trace) -> set[str]:
    """What the UGV does in transit ticks: "parked" on the site or "drives"."""
    return {"parked" if b["ugv"] == b["site"] else "drives"
            for a, b in zip(trace, trace[1:])
            if a["seg"] == b["seg"] and a["mode"] == b["mode"] == "transit"}


@pytest.mark.parametrize("ratio, ugv", [(0.2, "drives"), (1.0, "parked")])
def test_sweep_cells_match_the_stepped_engine(ratio, ugv):
    kinds = set()
    for seed in (1, 2):
        sc = _sweep_cell(10, ratio, seed)
        plan = _planned(sc)
        assert _assert_run_matches_steps(sc, SimConfig(), plan)["transit"] > 0
        kinds |= _quiet_ugv_kinds(traced_run(sc, plan=plan)[1])
    assert ugv in kinds


@pytest.mark.parametrize("ratio, fuel, kind", [(0.2, 50.0, "processing taut"),
                                               (1.0, 500.0, "processing slack")])
def test_processing_sweep_cells_match_the_stepped_engine(ratio, fuel, kind):
    # ratio 0.2: the slow UGV chases a dragged site; fuel 500: the string
    # stays slack through every target
    coasted = Counter()
    chased = 0
    for seed in (1, 2):
        sc = _sweep_cell(10, ratio, seed, fuel)
        plan = _planned(sc)
        coasted += _assert_run_matches_steps(sc, SimConfig(), plan)
        _, trace, _, ticks = _coasted_run(sc, SimConfig(), plan)
        chased += sum(trace[j]["ugv"] != trace[j]["site"]
                      for j, k in ticks.items() if k == "processing taut")
    assert coasted[kind] > 0
    assert (chased > 0) == (kind == "processing taut")


@pytest.mark.parametrize("dt", [0.2, 0.0125])
def test_tick_sizes_match_the_stepped_engine(dt):
    for i in range(3):
        sc = acceptance7(i)
        plan = _planned(sc)
        if plan is not None:
            coasted = _assert_run_matches_steps(sc, SimConfig(dt=dt), plan)
            assert coasted["transit"] > 0 and coasted["processing slack"] > 0


def test_time_cap_inside_a_coast_matches_the_stepped_engine():
    # line: 5 s of transit before the target; the cap falls 2 s in
    assert _assert_run_matches_steps(line_scenario(3.0), SimConfig(max_mission_time=2.0),
                                     line_plan()) == {"transit": 40}
    # a generated mission: the cap lands on a quiet tick in mid-mission
    sc = acceptance7(0)
    plan = plan_mission(sc)
    _, trace, events = traced_run(sc, plan=plan)
    instants = {e["t"] for e in events}
    j = next(j for j in range(len(trace) // 2, len(trace) - 1)
             if trace[j - 1]["mode"] == trace[j]["mode"] == trace[j + 1]["mode"] == "transit"
             and trace[j - 1]["seg"] == trace[j + 1]["seg"]
             and not any(trace[j - 1]["t"] < t <= trace[j + 1]["t"] for t in instants))
    cfg = SimConfig(max_mission_time=trace[j]["t"])
    assert _assert_run_matches_steps(sc, cfg, plan)["transit"] > 0
    assert traced_run(sc, cfg, plan)[1] == trace[:j + 1]


def _site_moves(scenario, cfg, plan) -> Counter:
    """Drive run()'s loop by hand, _coast else step, and after every call
    check that the active segment's site point is the point at its site
    arc, to the bit.  Returns the calls that moved the site, by engine."""
    world = WorldState(scenario, plan, cfg)
    world.record_tick()
    limit = sim.time_cap(cfg, plan, scenario.params) - EPS_TIME
    moves = Counter()
    while not world.mission_complete and world.clock < limit:
        st, arc = world.active, world.active.site_arc
        engine = "coast" if sim._coast(world, limit) else "step"
        if engine == "step":
            step(world)
        if world.active is st and st.site_arc != arc:
            moves[engine] += 1
        st = world.active
        want = st.plan.path.point_at_arc(st.site_arc)
        got = st.site_position
        assert (repr(got.x), repr(got.y)) == (repr(want.x), repr(want.y))
    return moves


@pytest.mark.parametrize("checked", [False, True])
@pytest.mark.parametrize("dt", [0.05, 0.2])
def test_the_site_point_is_the_point_at_the_site_arc_after_every_call(dt, checked):
    cfg = SimConfig(dt=dt, check_invariants=checked)
    missions = [(line_scenario(tau), line_plan()) for tau in (5.0, 25.0, 60.0)]
    missions.append((bend_scenario(), bend_plan()))
    missions += [(sc, _planned(sc)) for sc in map(acceptance7, range(20))]
    moves = Counter()
    for sc, plan in missions:
        if plan is not None:
            moves += _site_moves(sc, cfg, plan)
    assert moves["coast"] > 0 and moves["step"] > 0  # both engines dragged a site


def _cache_states(trace, coasted) -> Counter:
    """The coasted ticks whose lines reuse a cached piece, by what the
    cache holds: in transit, a UGV that parks within the coast (its text
    becomes the site's); in processing, a site that held, or one dragged
    with the UGV parked on it or chasing it."""
    states = Counter()
    for j, kind in coasted.items():
        a, b = trace[j - 1], trace[j]
        on_site = b["ugv"] == b["site"]
        if kind == "processing slack":
            states[kind] += 1
        elif kind == "processing taut":
            states["processing taut, UGV parked" if on_site else "processing taut, UGV chasing"] += 1
        elif on_site and j - 1 in coasted and a["ugv"] != a["site"] and a["mode"] == b["mode"]:
            states["transit, UGV parks mid-coast"] += 1
    return states


@pytest.mark.parametrize("dt", [0.05, 0.2])
@pytest.mark.parametrize("state, tau, v_ugv", [
    # line: the UGV reaches the site (20, 0) at t=4, the UAV the target at t=5
    ("transit, UGV parks mid-coast", 3.0, 5.0),
    ("processing slack", 3.05, 1.0),
    # the string is taut from t=20; a fast UGV parks first and follows the
    # dragged site, a slow one chases it until the abandonment at t=22.5
    ("processing taut, UGV parked", 60.0, 4.0),
    ("processing taut, UGV chasing", 60.0, 1.0),
])
def test_each_tick_line_cache_state_matches_the_stepped_engine(state, tau, v_ugv, dt):
    sc, plan, cfg = line_scenario(tau, v_ugv=v_ugv), line_plan(), SimConfig(dt=dt)
    _assert_run_matches_steps(sc, cfg, plan)
    _, trace, _, coasted = _coasted_run(sc, cfg, plan)
    assert _cache_states(trace, coasted)[state] > 0


def _dyadic_scenario() -> Scenario:
    return Scenario(
        world=World(50.0, 50.0),
        depot=Point2D(7.3, 0.0),
        params=VehicleParams(v_uav=2.0, v_ugv=1.0, fuel_capacity=50.0, fuel_per_meter=1.0),
        targets=(Target(id=1, position=Point2D(0.3, 8.0), tau=3.0),),
    )


def _dyadic_plan() -> MissionPlan:
    # arcs 0, 7, 15 and 23 are multiples of the 0.5 m a 0.25 s tick flies,
    # so ticks land exactly on the bend at (0.3, 0), the target and the
    # site.  7.3 + (0.3 - 7.3) is 0.2999999999999998, not 0.3: a point
    # interpolated at the end of the first edge misses the bend's vertex.
    return MissionPlan(segments=(
        SegmentPlan(index=0, target_arcs=((1, 15.0),), path=Polyline([
            Point2D(7.3, 0.0), Point2D(0.3, 0.0), Point2D(0.3, 8.0), Point2D(0.3, 16.0)])),
        SegmentPlan(index=1, path=Polyline([Point2D(0.3, 16.0), Point2D(7.3, 0.0)])),
    ))


@pytest.mark.parametrize("checked", [False, True])
def test_ticks_landing_exactly_on_vertices_and_stops_match(checked):
    plan = _dyadic_plan()
    assert plan.segments[0].path.cumulative_arc == (0.0, 7.0, 15.0, 23.0)
    sc = _dyadic_scenario()
    assert _assert_run_matches_steps(sc, SimConfig(dt=0.25, check_invariants=checked),
                                     plan)["transit"] > 0
    trace = traced_run(sc, SimConfig(dt=0.25), plan)[1]
    assert {"t": 3.5, "uav": [0.3, 0.0]}.items() <= trace[14].items()
    assert (trace[29]["mode"], trace[30]["mode"]) == ("transit", "processing")


class _Starved(WorldState):
    """A world whose first tank holds 3 fuel: transit runs dry mid-coast."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.active.fuel = 3.0
        _Starved.last = self


@pytest.mark.parametrize("checked", [False, True])
@pytest.mark.parametrize("mission", ["line", "generated"])
def test_fault_inside_a_coast_reports_what_step_reports(mission, checked):
    if mission == "line":
        sc, plan = line_scenario(3.0), line_plan()
    else:
        sc = acceptance7(0)
        plan = plan_mission(sc)
    cfg = SimConfig(check_invariants=checked)
    stepped_buf = io.StringIO()
    stepped = _Starved(sc, plan, cfg, trace_file=stepped_buf)
    stepped.record_tick()
    with pytest.raises(InvariantViolation) as want:
        while True:
            step(stepped)
    coasted_buf = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "WorldState", _Starved)
        mp.setattr(sim, "step", None)  # every tick up to the fault coasts
        with pytest.raises(InvariantViolation) as got:
            run(sc, cfg, plan=plan, trace_file=coasted_buf)
    coasted = _Starved.last
    assert coasted is not stepped
    assert str(got.value) == str(want.value)
    assert ("string invariant" if checked else "fuel exhausted in transit") in str(got.value)
    assert coasted_buf.getvalue() == stepped_buf.getvalue()
    assert (coasted.clock, coasted.ugv_pos, coasted.active.uav_arc, coasted.active.fuel) == (
        stepped.clock, stepped.ugv_pos, stepped.active.uav_arc, stepped.active.fuel)


def _corrupted(corrupt):
    """A WorldState class whose worlds pass _check_invariants as built, which
    leaves the conservation memo warm as at any coast after a mission's
    first tick, and are then broken by corrupt(world)."""

    class Corrupted(WorldState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sim._check_invariants(self)
            corrupt(self)
            Corrupted.last = self

    return Corrupted


def _corrupt_string(world):
    # 3 fuel cannot span the 20 m to the site; the UGV, parked on it, is in reach
    world.active.fuel, world.ugv_pos = 3.0, world.active.site_position


def _corrupt_fuel(world):
    # the site where the UAV stands after 25 ticks (their 0.1 m added one
    # by one), the UGV parked on it, and a tank that holds 5e-10 less than
    # those ticks burn: fuel then lies within EPS_FUEL below zero, which
    # only the reach check refuses
    st, arc = world.active, sum([0.1] * 25)
    st.site_arc, st.site_position = arc, st.plan.path.point_at_arc(arc)
    st.fuel, world.ugv_pos = 2.5 - 5e-10, st.site_position


def _corrupt_reach(world):
    world.ugv_pos = Point2D(-90.0, 0.0)  # 110 m from the site, 25 s of hover


def _corrupt_site_arc_seen(world):
    world.active.site_arc_seen = world.active.site_arc - 1.0


def _corrupt_site(world):
    # the site on arc 5, short of the target at arc 10: the UAV passes it
    world.active.site_arc, world.active.site_position = 5.0, Point2D(5.0, 0.0)


def _corrupt_mode(world):
    world.active.mode = Mode.TO_RENDEZVOUS  # with target 1 still pending


def _corrupt_holders(world):
    world.active.deferred = ((1, Point2D(10.0, 0.0)),)  # target 1 is pending too


@pytest.mark.parametrize("corrupt, message", [
    (_corrupt_string, "string invariant broken: fuel spans 2.9 of a 19.9 gap [t=0.05 "),
    (_corrupt_fuel, "refuel site out of ground-vehicle reach [t=1.25 "),
    (_corrupt_reach, "refuel site out of ground-vehicle reach [t=0.05 "),
    (_corrupt_site_arc_seen, "refuel site moved forward along the path (19 -> 20) [t=0.05 "),
    (_corrupt_site, "uav ahead of its refuel site [t=2.55 "),
    (_corrupt_mode, "pending targets while heading to rendezvous [t=0.05 "),
    (_corrupt_holders, "target conservation broken: held twice=[1] "),
], ids=["string", "fuel", "reach", "site moved forward", "uav ahead", "pending", "conservation"])
def test_each_check_faults_inside_a_checked_coast_as_step_faults(corrupt, message):
    # the coast judges each check on its locals and hands a failing tick to
    # _check_invariants; a comparison it skipped would let the coast fly on,
    # to a later fault or to the target, where the unset step raises TypeError
    sc, plan, cfg = line_scenario(3.0), line_plan(), SimConfig(check_invariants=True)
    broken = _corrupted(corrupt)
    stepped_buf = io.StringIO()
    stepped = broken(sc, plan, cfg, trace_file=stepped_buf)
    stepped.record_tick()
    with pytest.raises(InvariantViolation) as want:
        while True:
            step(stepped)
    coasted_buf = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "WorldState", broken)
        mp.setattr(sim, "step", None)  # every tick up to the fault coasts
        with pytest.raises(InvariantViolation) as got:
            run(sc, cfg, plan=plan, trace_file=coasted_buf)
    coasted = broken.last
    assert coasted is not stepped
    assert str(want.value).startswith(message)
    assert str(got.value) == str(want.value)
    assert coasted_buf.getvalue() == stepped_buf.getvalue()
    got_state, want_state = [(w.clock, w.ugv_pos, w.driven, w.active.uav_arc, w.active.fuel,
                              w.active.site_arc, w.active.site_position)
                             for w in (coasted, stepped)]
    assert got_state == want_state


def test_a_clean_checked_mission_writes_back_once_per_coast():
    # a checked coast judges its ticks on its locals and writes them back
    # once, as it ends.  The mission's first coast meets an empty
    # conservation memo, so its first tick also goes to _put and
    # _check_invariants; every later coast finds the memo step left.
    sc = acceptance7(0)
    plan = plan_mission(sc)
    calls = Counter()

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    coast = sim._coast

    def counted_coast(world, limit):
        took = coast(world, limit)
        calls["coasts"] += took
        return took

    with pytest.MonkeyPatch.context() as mp:
        for name in ("_put", "_check_invariants", "step"):
            mp.setattr(sim, name, counted(name, getattr(sim, name)))
        mp.setattr(sim, "_coast", counted_coast)
        rep = run(sc, SimConfig(check_invariants=True), plan=plan)
    assert rep.completed and calls["coasts"] > 0
    assert calls["_put"] == calls["coasts"] + 1
    assert calls["_check_invariants"] <= calls["step"] + 1


def _processing_events(sc, plan, cfg=None):
    """_coasted_run's records, each event paired with the index of the
    record that ends its tick: the first tick line after it in the sink."""
    buf = io.StringIO()
    _, trace, _, coasted = _coasted_run(sc, cfg or SimConfig(), plan, buf)
    events, ticks = [], 0
    for line in buf.getvalue().splitlines():
        rec = json.loads(line)
        if "kind" in rec:
            events.append((rec, ticks))
        else:
            ticks += 1
    return trace, events, coasted


def test_lookahead_firing_after_a_processing_coast_matches_the_stepped_engine():
    # line, tau 60: taut from t=20, the chase is lost at t=22.5
    sc, plan = line_scenario(60.0), line_plan()
    assert _assert_run_matches_steps(sc, SimConfig(), plan)["processing taut"] > 0
    trace, events, coasted = _processing_events(sc, plan)
    (j, *_) = [j for e, j in events if e["kind"] == "abandon"]
    assert j not in coasted  # step abandons ...
    assert coasted[j - 1] == "processing taut"  # ... the tick after a coasted drag
    assert trace[j]["mode"] == "to_rendezvous"


def test_completion_mid_tick_after_a_processing_coast_matches_the_stepped_engine():
    # 3.05 fuel of processing at 0.1 a tick: the 31st tick completes it
    sc, plan = line_scenario(3.05), line_plan()
    assert _assert_run_matches_steps(sc, SimConfig(), plan)["processing slack"] == 30
    trace, events, coasted = _processing_events(sc, plan)
    (e, j), = [(e, j) for e, j in events if e["kind"] == "complete"]
    assert trace[j - 1]["t"] < e["t"] < trace[j]["t"]
    assert j not in coasted and coasted[j - 1] == "processing slack"


@pytest.mark.parametrize("checked", [False, True])
def test_skip_after_a_processing_coast_matches_the_stepped_engine(checked):
    # bend: the site dragged back from the first target passes the second
    sc, plan = bend_scenario(), bend_plan()
    cfg = SimConfig(check_invariants=checked)
    assert _assert_run_matches_steps(sc, cfg, plan)["processing taut"] > 0
    trace, events, coasted = _processing_events(sc, plan, cfg)
    (j, *_) = [j for e, j in events if e["kind"] == "skip"]
    assert j not in coasted and coasted[j - 1] == "processing taut"


def _vertex_mission() -> tuple[Scenario, MissionPlan]:
    # the site retreats from arc 23 toward the target at arc 8, 0.5 m a
    # 0.25 s tick, and lands exactly on the bend at arc 15, (0.3, 8).  The
    # edge before the bend misses its vertex: 7.3 + (0.3 - 7.3) is
    # 0.2999999999999998.  A UGV as fast as the UAV keeps up.
    sc = Scenario(
        world=World(50.0, 50.0),
        depot=Point2D(7.3, 0.0),
        params=VehicleParams(v_uav=2.0, v_ugv=2.0, fuel_capacity=50.0, fuel_per_meter=1.0),
        targets=(Target(id=1, position=Point2D(7.3, 8.0), tau=36.0),),
    )
    plan = MissionPlan(segments=(
        SegmentPlan(index=0, target_arcs=((1, 8.0),), path=Polyline([
            Point2D(7.3, 0.0), Point2D(7.3, 8.0), Point2D(0.3, 8.0), Point2D(0.3, 16.0)])),
        SegmentPlan(index=1, path=Polyline([Point2D(0.3, 16.0), Point2D(7.3, 0.0)])),
    ))
    return sc, plan


@pytest.mark.parametrize("checked", [False, True])
def test_site_dragged_exactly_onto_a_vertex_matches_the_stepped_engine(checked):
    sc, plan = _vertex_mission()
    assert plan.segments[0].path.cumulative_arc == (0.0, 8.0, 15.0, 23.0)
    cfg = SimConfig(dt=0.25, check_invariants=checked)
    assert _assert_run_matches_steps(sc, cfg, plan)["processing taut"] > 0
    _, trace, _, coasted = _coasted_run(sc, cfg, plan)
    (j,) = [j for j, r in enumerate(trace) if r["site"] == [0.3, 8.0]]
    assert coasted[j] == coasted[j + 1] == "processing taut"
    assert trace[j]["ugv"] == [0.3, 8.0]


def _zigzag_plan() -> MissionPlan:
    # line's plan, with segment 0's leg past the target zig-zagging to (20,
    # 0) in 0.03 m steps of x, y alternating 0.01 and 0: each edge is about
    # 0.0316 m, and a taut 0.05 s tick drags the site 0.1 m, over three
    # edges or four
    zig = [Point2D(10.0 + 0.03 * k, 0.01 * (k % 2)) for k in range(1, 334)]
    return MissionPlan(segments=(
        SegmentPlan(index=0, target_arcs=((1, 10.0),), path=Polyline(
            [Point2D(0.0, 0.0), Point2D(10.0, 0.0)] + zig + [Point2D(20.0, 0.0)])),
        SegmentPlan(index=1, path=Polyline([Point2D(20.0, 0.0), Point2D(0.0, 0.0)])),
    ))


@pytest.mark.parametrize("checked", [False, True])
def test_site_dragged_over_several_edges_a_tick_matches_the_stepped_engine(checked):
    sc, plan = line_scenario(30.0), _zigzag_plan()
    cfg = SimConfig(check_invariants=checked)
    assert _assert_run_matches_steps(sc, cfg, plan)["processing taut"] > 0
    _, trace, _, coasted = _coasted_run(sc, cfg, plan)
    # a chord longer than two edges: the coast's cursor passed two vertices
    moves = [distance(Point2D(*trace[j - 1]["site"]), Point2D(*trace[j]["site"]))
             for j, kind in coasted.items() if kind == "processing taut"]
    assert max(moves) > 2 * math.hypot(0.03, 0.01)


@pytest.mark.parametrize("tau, cap, kind", [(25.0, 7.0, "processing slack"),
                                            (60.0, 21.0, "processing taut")])
def test_time_cap_inside_a_processing_coast_matches_the_stepped_engine(tau, cap, kind):
    # line: processing from t=5, the string taut from t=20
    sc, plan = line_scenario(tau), line_plan()
    cfg = SimConfig(max_mission_time=cap)
    assert _assert_run_matches_steps(sc, cfg, plan)[kind] > 0
    rep, trace, _, coasted = _coasted_run(sc, cfg, plan)
    assert rep.status == "timeout"
    assert trace[-1]["t"] == pytest.approx(cap) and trace[-1]["mode"] == "processing"
    assert coasted[len(trace) - 1] == kind


@pytest.mark.parametrize("checked", [False, True])
def test_processing_past_an_empty_tank_after_a_coast_reports_what_step_reports(checked):
    # test_sim's twin: with step's lookahead off, 100 fuel of processing at
    # arc 10 drains the 50 tank.  The coast takes each tick its own
    # lookahead approves, up to the one before the tank runs dry.
    sc, plan = line_scenario(100.0), line_plan()
    cfg = SimConfig(check_invariants=checked)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "check_abandonment", lambda *args: None)
        stepped_buf = io.StringIO()
        stepped = WorldState(sc, plan, cfg, trace_file=stepped_buf)
        stepped.record_tick()
        with pytest.raises(InvariantViolation) as want:
            while True:
                step(stepped)
        coasted_buf = io.StringIO()
        stepped_at = []
        mp.setattr(sim, "step", lambda world: stepped_at.append(world.clock) or step(world))
        with pytest.raises(InvariantViolation) as got:
            run(sc, cfg, plan=plan, trace_file=coasted_buf)
    assert str(want.value).startswith(
        "refuel site out of ground-vehicle reach [t=22.55 " if checked
        else "processing target 1 would exhaust fuel [t=25 ")
    assert str(got.value) == str(want.value)
    assert coasted_buf.getvalue() == stepped_buf.getvalue()
    # the lookahead holds to t=22.5: every processing tick before it coasts
    # but the one from t=20, the visit's first drag, whose event step writes
    assert [round(t, 6) for t in stepped_at if 5.0 < t < 22.45] == [20.0]
