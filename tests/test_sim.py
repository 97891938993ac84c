"""Mission engine behavior on hand-solvable missions."""
from __future__ import annotations

import dataclasses
import io
import json
import math

import pytest

from conftest import (
    acceptance7,
    bend_plan,
    bend_scenario,
    case_counts,
    collinear_scenario,
    line_plan,
    line_scenario,
    segment_cases,
    tick_record,
    traced_run,
    vehicle_space,
)
from fuelstring.geometry import Point2D, Polyline, step_toward
from fuelstring.model import EPS_TIME
from fuelstring.offline import MissionPlan, PlanningError, plan_mission
from fuelstring.online import Mode
from fuelstring.scenario_io import CostModel, generate_scenario
from fuelstring.sim import (
    InvariantViolation,
    RunReport,
    SimConfig,
    TargetTracker,
    WorldState,
    run,
    step,
)
from fuelstring.trace import MetricsFold, fold_jsonl, fold_records, metrics_to_text


def test_tracker_splits_the_completing_tick():
    tr = TargetTracker(7.0)
    assert tr.reveal(5.0) == (5.0, False)
    assert tr.progress == 5.0
    assert tr.reveal(5.0) == (2.0, True)  # refunds the unused 3.0
    assert tr.progress == 7.0
    assert tr.reveal(3.0) == (0.0, True)


def test_tracker_zero_cost_completes_on_contact():
    # a free job still requires its visit: target 1 sits at arc 10 of the
    # line plan and is done only from the tick that carries the UAV there
    buf = io.StringIO()
    world = WorldState(line_scenario(0.0), line_plan(), SimConfig(), trace_file=buf)
    while world.active.uav_arc < 10.0:
        assert not world.done_ids
        step(world)
    assert world.done_ids == {1}
    complete = [e for e in map(json.loads, buf.getvalue().splitlines())
                if e.get("kind") == "complete"]
    assert len(complete) == 1
    assert world.clock - 0.05 <= complete[0]["t"] <= world.clock


def test_single_tank_out_and_back():
    rep, _, events = traced_run(line_scenario(0.0))
    assert rep.completed
    assert math.isclose(rep.metrics["mission_time"], 10.0, abs_tol=1e-6)
    assert math.isclose(rep.metrics["uav_distance"], 20.0, abs_tol=1e-6)
    assert rep.metrics["ugv_distance"] == 0.0
    assert rep.metrics["rendezvous_count"] == 0
    assert case_counts(rep.metrics) == [1, 0, 0, 0, 0]
    kinds = [(e["kind"], round(e["t"], 6)) for e in events]
    assert kinds == [("complete", 5.0), ("case", 10.0)]


def test_uav_hovers_until_ground_vehicle_arrives():
    from fuelstring.geometry import Point2D, Polyline
    from fuelstring.offline import MissionPlan, SegmentPlan

    plan = MissionPlan(segments=(
        SegmentPlan(index=0,
                    path=Polyline([Point2D(0, 0), Point2D(10, 0), Point2D(14, 0)]),
                    target_arcs=((1, 10.0),)),
        SegmentPlan(index=1, path=Polyline([Point2D(14, 0), Point2D(0, 0)])),
    ))
    # the UAV reaches (14, 0) at 7 s with 36 fuel and hovers, burning 2 per
    # second; the UGV's 14 m drive at 1 m/s ends at 14 s, and the refuel
    # happens then, with 36 - 2 * 7 = 22 left
    rep, trace, events = traced_run(line_scenario(0.0), SimConfig(check_invariants=True), plan)
    assert rep.completed
    refuels = [e for e in events if e["kind"] == "refuel"]
    assert len(refuels) == 1
    assert math.isclose(refuels[0]["t"], 14.0, abs_tol=1e-9)

    by_t = {round(r["t"], 4): r for r in trace}
    assert by_t[7.0]["mode"] == "wait"
    assert math.isclose(by_t[13.95]["fuel"], 22.1, abs_tol=1e-9)
    assert by_t[14.0]["fuel"] == 50.0  # tick records post-refuel state
    # 14 m home at 2 m/s after the 14 s refuel
    assert math.isclose(rep.metrics["mission_time"], 21.0, abs_tol=1e-6)
    assert math.isclose(rep.metrics["uav_distance"], 28.0, abs_tol=1e-6)
    # ground travel stops at the tick before the UAV lands at 21 s: 14 out,
    # then 6.95 s at 1 m/s back
    assert math.isclose(rep.metrics["ugv_distance"], 20.95, abs_tol=1e-6)


def test_timeout_reports_unprocessed_targets():
    rep = run(line_scenario(25.0), SimConfig(max_mission_time=10.0), plan=line_plan())
    assert rep.status == "timeout"
    assert not rep.completed
    assert rep.unprocessed == [1]
    assert math.isclose(rep.metrics["mission_time"], 10.0, abs_tol=1e-9)


def test_run_refuses_a_plan_with_a_bool_vertex():
    # False == 0.0, so every other rule holds: unchecked, the first tick line
    # read "uav":[False,0.0] and the trace did not fold
    first, second = line_plan().segments
    path = Polyline([Point2D(False, 0.0), *first.path.vertices[1:]])
    bad = dataclasses.replace(first, path=path)
    buf = io.StringIO()
    with pytest.raises(PlanningError, match="^invalid mission plan:\nvertex: segment 0 vertex 0: "
                                            "x must be a real number, got False$"):
        run(line_scenario(3.0), plan=MissionPlan(segments=(bad, second)), trace_file=buf)
    assert buf.getvalue() == ""


@pytest.mark.parametrize("field, bad", [
    ("dt", 0.0), ("dt", -0.05), ("dt", math.nan), ("dt", math.inf),
    ("dt", EPS_TIME), ("dt", 5e-10),
    ("max_mission_time", 0.0), ("max_mission_time", math.inf),
])
def test_config_rejects_bad_numbers(field, bad):
    # a zero or negative dt would never advance the clock, and a tick of
    # EPS_TIME or less never runs step's UAV phase
    with pytest.raises(ValueError, match=field):
        SimConfig(**{field: bad})


@pytest.mark.parametrize("field, bad", [
    ("dt", True), ("dt", "0.05"), ("dt", None), ("max_mission_time", False),
    ("max_mission_time", "30"),
])
def test_config_names_a_field_of_the_wrong_type(field, bad):
    with pytest.raises(ValueError, match=f"^{field} must be a real number, got {bad!r}$"):
        SimConfig(**{field: bad})
    assert SimConfig(**{field: 1}) == SimConfig(**{field: 1.0})


def test_config_is_frozen():
    # a dt assigned after construction would skip the check above, and a
    # negative one would run the clock backward below the time cap forever
    cfg = SimConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.dt = -0.05


def test_config_has_three_fields_and_refuses_a_kept_trace():
    # a run's trace leaves it through run(trace_file=...) alone
    assert [f.name for f in dataclasses.fields(SimConfig)] == [
        "dt", "max_mission_time", "check_invariants"]
    assert SimConfig(keep_trace=False) == SimConfig()
    with pytest.raises(ValueError, match="trace_file"):
        SimConfig(keep_trace=True)
    assert [f.name for f in dataclasses.fields(RunReport)] == [
        "status", "metrics", "unprocessed"]


def test_kept_progress_lets_oversized_jobs_finish():
    # progress carries across visits: 60 fuel of processing cannot finish in
    # one tank, so the target is abandoned once and finished on the next visit
    rep = run(line_scenario(60.0), plan=line_plan())
    assert rep.completed
    assert rep.metrics["abandonments"] == 1
    assert math.isclose(rep.metrics["mission_time"], 45.0, abs_tol=1e-6)


def test_trace_stream_decodes_like_json_and_refolds():
    buf = io.StringIO()
    rep, trace, events = traced_run(bend_scenario(), plan=bend_plan(), sink=buf)
    lines = buf.getvalue().splitlines()
    records = [json.loads(line) for line in lines]
    assert [r for r in records if "kind" not in r] == trace
    assert [r for r in records if "kind" in r] == events
    # metrics are a pure fold over the stream: refolding reproduces them
    assert fold_jsonl(lines) == rep.metrics
    assert fold_records(records) == rep.metrics


def _compact(rec) -> str:
    return json.dumps(rec, separators=(",", ":"))


def test_trace_lines_are_compact_json_of_their_records():
    # acceptance 7's recipe, first twenty missions
    for i in range(20):
        sc = acceptance7(i)
        try:
            plan = plan_mission(sc)
        except PlanningError:
            continue
        buf = io.StringIO()
        _, trace, event_list = traced_run(sc, plan=plan, sink=buf)
        ticks, events = iter(trace), iter(event_list)
        lines = buf.getvalue().splitlines()
        for k, line in enumerate(lines):
            rec = next(events) if "kind" in json.loads(line) else next(ticks)
            assert line == _compact(rec), f"mission {9000 + i}, line {k}"
        assert next(ticks, None) is None and next(events, None) is None
        assert len(lines) == len(trace) + len(event_list)


@pytest.mark.parametrize("value", [-0.0, 25.0, 1e-17, 1e16, 0.1 + 0.2, 7])
def test_tick_line_matches_json_on_edge_floats(value):
    buf = io.StringIO()
    world = WorldState(line_scenario(25.0), line_plan(), SimConfig(), trace_file=buf)
    world.ugv_pos = Point2D(value, -value)
    world.active.fuel = value
    world.record_tick()
    assert buf.getvalue() == _compact(tick_record(world)) + "\n"
    assert json.loads(buf.getvalue())["fuel"] == value


def test_fold_jsonl_reads_json_lines_like_json_loads():
    buf = io.StringIO()
    rep = run(bend_scenario(), plan=bend_plan(), trace_file=buf)
    lines = buf.getvalue().splitlines()
    padded = ["", " \t"] + [f" \t{line} \r" for line in lines] + ["\x0c", "\n"]
    assert fold_jsonl(padded) == rep.metrics
    for bad in (lines[0] + " x", "\x0c" + lines[0]):
        with pytest.raises(json.JSONDecodeError):
            json.loads(bad)
        with pytest.raises(json.JSONDecodeError):
            fold_jsonl([bad])


def test_repeat_runs_are_identical():
    a, a_trace, a_events = traced_run(bend_scenario(), SimConfig(check_invariants=True),
                                      bend_plan())
    b, b_trace, b_events = traced_run(bend_scenario(), SimConfig(check_invariants=True),
                                      bend_plan())
    assert a.metrics == b.metrics
    assert a_events == b_events
    assert json.dumps(a_trace) == json.dumps(b_trace)


def test_case_events_count_a_repaired_segment_twice():
    # mission 9000 of acceptance 7's recipe: 8 segments, 6 of them repaired.
    # A repaired segment's case events are 5 at its activation, then its
    # final case, so the histogram counts segments + case_5 events.
    rep, _, events = traced_run(acceptance7(0))
    segments = 1 + sum(e["kind"] == "refuel" for e in events)
    cases = segment_cases(events)
    assert (segments, len(cases), rep.metrics["case_5"]) == (8, 14, 6)
    assert sum(case_counts(rep.metrics)) == segments + rep.metrics["case_5"]
    assert [seg for seg, _ in cases] == sorted(seg for seg, _ in cases)
    for seg in range(segments):
        mine = [case for s, case in cases if s == seg]
        assert mine[-1] != 5
        assert mine[:-1] in ([], [5]), (seg, mine)


def test_disabled_trace_still_folds_metrics():
    # a run with no sink folds the metrics a run with one does
    with_sink = traced_run(bend_scenario(), plan=bend_plan())[0]
    without = run(bend_scenario(), plan=bend_plan())
    assert without.metrics == with_sink.metrics


def test_invariant_checks_catch_corrupted_state():
    world = WorldState(line_scenario(25.0), line_plan(),
                       SimConfig(check_invariants=True))
    world.active.fuel = -1.0
    with pytest.raises(InvariantViolation, match="fuel exhausted in transit"):
        step(world)

    world = WorldState(line_scenario(25.0), line_plan(),
                       SimConfig(check_invariants=True))
    world.active.fuel = 3.0  # cannot span the 20 arc to the site
    with pytest.raises(InvariantViolation, match="string invariant"):
        step(world)

    world = WorldState(line_scenario(25.0), line_plan(),
                       SimConfig(check_invariants=True))
    st = world.active
    st.pending, st.mode, st.uav_arc = (), Mode.WAIT, st.site_arc + 1.0
    world.ugv_pos = Point2D(0.0, 40.0)
    with pytest.raises(InvariantViolation, match="^uav ahead of its refuel site"):
        step(world)

    world = WorldState(line_scenario(25.0), line_plan(),
                       SimConfig(check_invariants=True))
    world.active.mode = Mode.TO_RENDEZVOUS
    with pytest.raises(InvariantViolation, match="^pending targets while heading to rendezvous"):
        step(world)


def test_invariant_checks_catch_forward_site_motion():
    # backtracking is one-way; a site arc above its low-water mark is a fault
    world = WorldState(line_scenario(25.0), line_plan(),
                       SimConfig(check_invariants=True))
    step(world)
    world.active.site_arc_seen = world.active.site_arc - 1.0
    with pytest.raises(InvariantViolation, match="site moved forward"):
        step(world)


def test_processing_past_an_empty_tank_faults(monkeypatch):
    # with the abandonment lookahead off, 100 fuel of processing at arc 10
    # drains the 50 tank: 5 s out, then 20 s of burn at 2 per second
    from fuelstring import sim

    monkeypatch.setattr(sim, "check_abandonment", lambda *args: None)
    with pytest.raises(InvariantViolation,
                       match=r"^processing target 1 would exhaust fuel \[t=25 "):
        run(line_scenario(100.0), plan=line_plan())


def _collinear_world() -> WorldState:
    # segments [10, 20], [30, 40], [] with free processing
    sc = collinear_scenario()
    return WorldState(sc, plan_mission(sc), SimConfig(check_invariants=True))


def test_conservation_catches_target_dropped_from_queue():
    world = _collinear_world()
    seg = world.queue[0]
    world.queue = (dataclasses.replace(seg, target_arcs=seg.target_arcs[1:]),) + world.queue[1:]
    with pytest.raises(InvariantViolation, match="target conservation"):
        step(world)


def test_conservation_catches_done_target_back_in_pending():
    world = _collinear_world()
    while not world.done_ids:
        step(world)
    assert world.done_ids == {10}
    world.active.pending += ((10, 10.0),)
    with pytest.raises(InvariantViolation, match="target conservation"):
        step(world)


def test_conservation_catches_target_held_twice():
    world = _collinear_world()
    assert world.active.pending[0][0] == 10
    world.active.deferred += ((10, Point2D(10.0, 0.0)),)
    with pytest.raises(InvariantViolation, match="target conservation"):
        step(world)


def _mission_9000_world() -> WorldState:
    # acceptance 7's recipe, its first mission: 8 targets, with one skip,
    # three abandonments and six repairs
    sc = acceptance7(0)
    return WorldState(sc, plan_mission(sc), SimConfig(check_invariants=True))


def _swap_first(entries, tid):
    # the same holder length, its first entry's id replaced
    return ((tid,) + entries[0][1:],) + entries[1:]


def _corrupt_queue(world, done):
    seg = world.queue[0]
    world.queue = ((dataclasses.replace(seg, target_arcs=_swap_first(seg.target_arcs, done)),)
                   + world.queue[1:])


def _corrupt_pending(world, done):
    world.active.pending = _swap_first(world.active.pending, done)


def _corrupt_deferred(world, done):
    world.active.deferred = _swap_first(world.active.deferred, done)


def _corrupt_done(world, done):
    world.done_ids = world.done_ids - {done} | {world.active.deferred[0][0]}


@pytest.mark.parametrize("ready, corrupt", [
    (lambda w: w.queue and w.queue[0].target_arcs, _corrupt_queue),
    (lambda w: w.active.pending, _corrupt_pending),
    (lambda w: w.active.deferred, _corrupt_deferred),
    (lambda w: w.active.deferred, _corrupt_done),
], ids=["queue", "pending", "deferred", "done"])
def test_conservation_catches_each_holder_with_a_warm_memo(ready, corrupt):
    # two checked ticks with the holder non-empty and a target done put the
    # live holders in the memo; one done id then replaces a held one (or the
    # reverse), keeping every length, and every later tick must see it
    world = _mission_9000_world()
    warm = 0
    while warm < 2:
        step(world)
        warm = warm + 1 if ready(world) and world.done_ids else 0
    corrupt(world, min(world.done_ids))
    for _ in range(2):
        with pytest.raises(InvariantViolation, match="target conservation"):
            step(world)


def test_target_holders_stay_immutable_through_a_repairing_mission():
    # the conservation memo compares holders by identity and value, which is
    # exact only while no holder can change in place
    world = _mission_9000_world()
    while not world.mission_complete:
        step(world)
        st = world.active
        assert type(st.pending) is tuple and type(st.deferred) is tuple, world.clock
        assert type(world.queue) is tuple and type(world.done_ids) is frozenset, world.clock
    assert len(world.done_ids) == 8
    metrics = world.fold.result()
    assert (metrics["case_3"], metrics["case_4"], metrics["case_5"]) == (1, 3, 6)


def test_shed_targets_start_the_next_segments_deferred(monkeypatch):
    # each refuel's shed targets are the new segment's whole deferred, and the
    # segment's own skips and abandonments go before them: the next repair's
    # deferred ends with them
    from fuelstring import sim

    sheds = []  # each repair's shed targets
    repair, refuel = sim.transfer_and_repair, sim._refuel

    def repair_spy(start, deferred, *args, **kwargs):
        last = sheds[-1] if sheds else ()
        assert deferred[len(deferred) - len(last):] == last
        plan, shed, modified = repair(start, deferred, *args, **kwargs)
        sheds.append(tuple(shed))
        return plan, shed, modified

    def refuel_spy(world, t_now):
        refuel(world, t_now)
        assert world.active.deferred == sheds[-1]

    monkeypatch.setattr(sim, "transfer_and_repair", repair_spy)
    monkeypatch.setattr(sim, "_refuel", refuel_spy)
    world = _mission_9000_world()
    while not world.mission_complete:
        step(world)
    assert sum(1 for shed in sheds if shed) == 5


def test_checks_leave_generated_traces_byte_identical():
    # acceptance 7's recipe, first ten missions: checking reads, never writes
    for i in range(10):
        sc = acceptance7(i)
        try:
            plan = plan_mission(sc)
        except PlanningError:
            continue
        traces = []
        for checked in (False, True):
            buf = io.StringIO()
            run(sc, SimConfig(check_invariants=checked), plan=plan, trace_file=buf)
            traces.append(buf.getvalue())
        assert traces[0] == traces[1], f"mission {9000 + i}"


def _checked_generated_run(n: int, seed: int, dt: float = 0.05):
    cost = CostModel(kind="uniform", low=0.0, high=25.0, seed=seed - 8983)
    return run(generate_scenario(n, seed=seed, cost_model=cost),
               SimConfig(dt=dt, check_invariants=True))


def test_vehicle_space_missions_pass_every_check():
    """Seeds 1000-1099 of the vehicle-space recipe, every tick checked: no
    fault, and each mission completes, times out or names a target
    permanently infeasible."""
    seen = {"completed": 0, "timeout": 0, "infeasible": 0}
    for seed in range(1000, 1100):
        try:
            seen[run(vehicle_space(seed), SimConfig(check_invariants=True)).status] += 1
        except PlanningError as exc:
            assert "permanently infeasible" in str(exc), (seed, exc)
            seen["infeasible"] += 1
    assert seen == {"completed": 90, "timeout": 5, "infeasible": 5}


def test_reach_holds_on_the_segment_after_a_refuel():
    # segment 2 once started out of reach here: the UAV could dock with the
    # UGV short of the site, and the next site's reach counted from the site
    assert _checked_generated_run(10, 9422).completed


def test_coarse_tick_hover_docks_in_time():
    # at dt 0.2 the UAV once hovered whole ticks waiting for a UGV step that
    # would have reached the site within the tick, and ran dry at t=273.8
    assert _checked_generated_run(16, 9029, dt=0.2).completed


@pytest.mark.xfail(strict=True, raises=InvariantViolation,
                   reason="ROADMAP item 10, abandonment as an event: at dt 0.5 the "
                          "lookahead approves processing to tick end, the target "
                          "completes at 141.74 s with the site less dragged than "
                          "predicted, and at 142 s it is out of the UGV's reach")
def test_coarse_tick_abandonment_keeps_the_site_in_reach():
    assert _checked_generated_run(14, 9149, dt=0.5).completed


def test_uav_docks_at_the_ugv_arrival_mid_tick(monkeypatch):
    # the UAV reaches the site (7.015, 0) at 3.5075 s and hovers; the UGV,
    # at 0.5 m/s from the depot, arrives at 7.015 / 0.5 = 14.03 s, 0.03 s
    # into the tick that starts at 14.0
    from fuelstring import sim
    from fuelstring.geometry import Polyline
    from fuelstring.model import Scenario, Target, VehicleParams, World
    from fuelstring.offline import MissionPlan, SegmentPlan

    P = Point2D
    sc = Scenario(world=World(50.0, 50.0), depot=P(0.0, 0.0),
                  params=VehicleParams(v_uav=2.0, v_ugv=0.5, fuel_capacity=50.0,
                                       fuel_per_meter=1.0),
                  targets=(Target(id=1, position=P(5.0, 0.0), tau=0.0),))
    plan = MissionPlan(segments=(
        SegmentPlan(index=0, path=Polyline([P(0, 0), P(5, 0), P(7.015, 0)]),
                    target_arcs=((1, 5.0),)),
        SegmentPlan(index=1, path=Polyline([P(7.015, 0), P(0, 0)])),
    ))
    docks = []
    refuel = sim._refuel

    def spy(world, t_now):
        docks.append((t_now, world.ugv_pos, world.active.site_position))
        refuel(world, t_now)

    monkeypatch.setattr(sim, "_refuel", spy)
    rep, trace, events = traced_run(sc, SimConfig(check_invariants=True), plan)
    assert rep.completed
    (t_dock, ugv, site), = docks
    assert ugv == site == P(7.015, 0.0)
    refuels = [e for e in events if e["kind"] == "refuel"]
    assert refuels[0]["t"] == t_dock
    assert math.isclose(t_dock, 14.03, abs_tol=1e-9)
    # the tick-end step toward the next site (0, 0) covers the 0.02 s left
    # of the tick at 0.5 m/s: 0.01 m
    tick = min((r for r in trace if r["t"] > t_dock), key=lambda r: r["t"])
    assert math.isclose(tick["t"], 14.05, abs_tol=1e-9)
    assert tick["seg"] == 1 and tick["ugv"][1] == 0.0
    assert math.isclose(7.015 - tick["ugv"][0], 0.5 * (0.05 - 0.03), abs_tol=1e-9)


def test_checked_refuel_holds_the_next_segment_to_the_contract(monkeypatch):
    # a repair that returns a 40 + 44.7 m leg for a 50 m tank faults at the
    # refuel that activates it, before the UAV flies it
    from fuelstring import sim
    from fuelstring.geometry import Polyline
    from fuelstring.offline import SegmentPlan

    repairs = []

    def too_long(start, deferred, next_plan, depot, params, ordinal):
        repairs.append(start)
        path = Polyline([start, Point2D(20.0, 40.0), depot])
        return SegmentPlan(index=ordinal, path=path), [], False

    monkeypatch.setattr(sim, "transfer_and_repair", too_long)
    with pytest.raises(InvariantViolation,
                       match=r"^over-length: segment 1 length 84\.7214 exceeds flight "
                             r"range 50 \[t=19\.95 seg=1 mode=transit uav_arc=0 fuel=50 "):
        run(line_scenario(0.0), SimConfig(check_invariants=True), plan=line_plan())
    assert repairs == [Point2D(20.0, 0.0)]


def test_reach_holds_on_the_way_to_rendezvous_after_abandon():
    _checked_generated_run(22, 9414)


@pytest.mark.parametrize("n, seed", [(28, 9204), (25, 9241), (18, 9370), (25, 9494)])
def test_reach_holds_when_processing_starts_with_under_a_tick_of_margin(n, seed):
    # in each the UAV reaches a target with under one tick of reach margin left
    assert _checked_generated_run(n, seed).completed


def test_abandon_decided_at_a_mid_tick_target_arrival():
    # tank 26.73; the target at (20.03, 0) lies past the site at (13.33, 0),
    # so a taut string drags the site away from the approaching UGV.  The UAV
    # arrives at t=10.015, 0.015 s into a tick, with 3.35 s of hover left
    # against the UGV's 3.33 s drive.  Processing to the tick end would put
    # the site out of reach, so the abandon happens at the arrival.
    from fuelstring.geometry import Polyline
    from fuelstring.model import Scenario, Target, VehicleParams, World
    from fuelstring.offline import MissionPlan, SegmentPlan

    P = Point2D
    sc = Scenario(world=World(50.0, 50.0), depot=P(0.0, 0.0),
                  params=VehicleParams(v_uav=2.0, v_ugv=1.0, fuel_capacity=26.73,
                                       fuel_per_meter=1.0),
                  targets=(Target(id=1, position=P(20.03, 0.0), tau=5.0),))
    plan = MissionPlan(segments=(
        SegmentPlan(index=0, path=Polyline([P(0, 0), P(20.03, 0), P(13.33, 0)]),
                    target_arcs=((1, 20.03),)),
        SegmentPlan(index=1, path=Polyline([P(13.33, 0), P(0, 0)])),
    ))
    rep, trace, events = traced_run(sc, SimConfig(check_invariants=True), plan)
    assert rep.completed
    abandon = [e for e in events if e["kind"] == "abandon"]
    assert len(abandon) == 1
    assert math.isclose(abandon[0]["t"], 20.03 / 2.0, abs_tol=1e-9)
    tick_end = min(r["t"] for r in trace if r["t"] > abandon[0]["t"])
    assert tick_end - abandon[0]["t"] > 0.03
    assert next(r for r in trace if r["t"] == tick_end)["mode"] == "to_rendezvous"


def test_reach_is_checked_on_the_tick_the_lookahead_fires():
    # mid-processing at the line target with the UGV 110 m from the site:
    # the first step abandons, and the site is already out of reach
    buf = io.StringIO()
    world = WorldState(line_scenario(25.0), line_plan(),
                       SimConfig(check_invariants=True), trace_file=buf)
    st = world.active
    st.uav_arc, st.fuel = 10.0, 40.0
    st.current, st.pending = st.pending[0][0], st.pending[1:]
    st.mode = Mode.PROCESSING
    world.ugv_pos = Point2D(-90.0, 0.0)
    with pytest.raises(InvariantViolation, match="out of ground-vehicle reach"):
        step(world)
    assert [json.loads(line)["kind"] for line in buf.getvalue().splitlines()] == ["abandon"]


def test_ugv_steps_toward_the_site_each_tick():
    # the tick's UGV step is step_toward the site the tick ends with,
    # through slack and taut processing, transit and the final run home
    world = WorldState(bend_scenario(), bend_plan(), SimConfig())
    stride = world.params.v_ugv * world.config.dt
    modes = []
    while not world.mission_complete:
        st, ugv, site_arc = world.active, world.ugv_pos, world.active.site_arc
        step(world)
        if world.active is st and not world.mission_complete:
            assert world.ugv_pos == step_toward(ugv, st.site_position, stride), world.clock
            modes.append((st.mode, st.site_arc != site_arc))
    assert (Mode.PROCESSING, False) in modes and (Mode.PROCESSING, True) in modes
    assert (Mode.TRANSIT, False) in modes
    assert len(modes) > 0.95 * world.clock / world.config.dt


def test_fold_counts_maximal_backtrack_episodes():
    fold = MetricsFold()
    rows = [
        (0, 0, 0, 0.0, 0, 0, 20.0, 0),
        (1, 1, 0, 0.5, 0, 0, 20.0, 0),
        (2, 1, 0, 1.0, 0, 0, 19.0, 0),  # episode 1
        (3, 1, 0, 1.5, 0, 0, 18.0, 0),
        (4, 1, 0, 2.0, 0, 0, 18.0, 0),  # pause ends it
        (5, 1, 0, 2.5, 0, 0, 17.0, 0),  # episode 2
        (6, 5, 0, 3.0, 0, 1, 40.0, 0),  # new segment: no episode
        (7, 6, 0, 3.5, 0, 1, 39.5, 0),  # episode 3
    ]
    for t, ux, uy, gx, gy, seg, sx, sy in rows:
        fold.add_tick(t, ux, uy, 50.0, gx, gy, seg, sx, sy, Mode.TRANSIT)
    m = fold.result()
    assert m["backtrack_episodes"] == 3
    assert math.isclose(m["uav_distance"], 6.0, abs_tol=1e-12)
    assert math.isclose(m["ugv_distance"], 3.5, abs_tol=1e-12)
    assert m["mission_time"] == 7


def test_fold_counts_events():
    fold = MetricsFold()
    fold.add_event("abandon", {"targets": [1, 2], "segment": 0, "site": [0, 0]})
    fold.add_event("skip", {"targets": [3], "segment": 1, "site_arc": 4.0})
    fold.add_event("refuel", {"segment": 0, "site": [1, 1], "fuel": 50})
    fold.add_event("case", {"segment": 0, "case": 4})
    m = fold.result()
    assert m["abandonments"] == 1
    assert m["targets_deferred"] == 3
    assert m["rendezvous_count"] == 1
    assert m["case_4"] == 1


def test_metrics_text_is_sorted_key_value_lines():
    text = metrics_to_text({"b": 2, "a": 1.5})
    assert text == "a = 1.5\nb = 2\n"
