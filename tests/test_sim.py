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
    checked_outcomes,
    collinear_scenario,
    line_plan,
    line_scenario,
    segment_cases,
    traced_run,
    vehicle_space,
)
from fuelstring.geometry import Point2D, Polyline, step_toward
from fuelstring.model import EPS_TIME, Scenario, Target, VehicleParams, World
from fuelstring.offline import MissionPlan, PlanningError, SegmentPlan, plan_mission
from fuelstring.online import Case, Mode
from fuelstring.scenario_io import CostModel, generate_scenario
from fuelstring.sim import (
    InvariantViolation,
    RunReport,
    SimConfig,
    TargetTracker,
    TickLimitError,
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
    assert kinds == [("complete", 5.0), ("case", 10.0), ("end", 10.0)]


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
    # the UGV drives through the landing tick and stops when the UAV lands
    # at 21 s: 14 m out, then 7 s at 1 m/s back
    assert math.isclose(rep.metrics["ugv_distance"], 21.0, abs_tol=1e-6)


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
    # ints past the largest float, which max_t / dt could not convert
    pytest.param("dt", 10**400, id="dt-10**400"),
    pytest.param("max_mission_time", 10**400, id="max_mission_time-10**400"),
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


def test_dt_may_be_at_most_one_full_tanks_airtime():
    # the line's 50-unit tank burns 2 a second: 25 s of airtime.  In the
    # first 25 s tick the UAV flies the 20 m out in 10 s, the UGV drives
    # along at 1 m/s and docks at 20 s, and the UAV flies 10 m of the 20 m
    # home; it lands at 30 s, when the UGV has driven 5 m more
    rep = run(line_scenario(0.0), SimConfig(dt=25.0, check_invariants=True), plan=line_plan())
    assert rep.completed
    assert (rep.metrics["mission_time"], rep.metrics["ugv_distance"]) == (30.0, 30.0)
    assert rep.metrics["rendezvous_count"] == 1
    with pytest.raises(TickLimitError, match=r"^dt 25\.000000000000004 s exceeds one full "
                                             r"tank's airtime, fuel_capacity / burn_rate = 25\.0 s$"):
        run(line_scenario(0.0), SimConfig(dt=math.nextafter(25.0, math.inf)), plan=line_plan())


def test_uav_reaching_the_site_at_a_tick_end_refuels_with_no_hover_tick():
    # at dt 0.5 every float is exact: the UGV, at 4 m/s, parks on the site
    # (20, 0) at 5 s, and the UAV reaches it exactly at the end of the tick
    # ending at 10 s, with no time left in that tick.  It docks at once.
    sc = dataclasses.replace(line_scenario(0.0), params=VehicleParams(
        v_uav=2.0, v_ugv=4.0, fuel_capacity=50.0, fuel_per_meter=1.0))
    rep, trace, events = traced_run(sc, SimConfig(dt=0.5, check_invariants=True), line_plan())
    assert rep.completed
    (refuel,) = [e for e in events if e["kind"] == "refuel"]
    assert refuel["t"] == 10.0
    assert all(r["mode"] != Mode.WAIT for r in trace)
    (tick,) = [r for r in trace if r["t"] == 10.0]
    assert (tick["seg"], tick["fuel"], tick["uav"], tick["ugv"]) == (1, 50.0, [20.0, 0.0],
                                                                    [20.0, 0.0])
    # the UGV drives home at 4 m/s and parks there at 15 s; the UAV lands at 20 s
    assert (rep.metrics["mission_time"], rep.metrics["ugv_distance"]) == (20.0, 40.0)


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


def test_fold_jsonl_reads_json_lines_like_json_loads():
    buf = io.StringIO()
    rep = run(bend_scenario(), plan=bend_plan(), trace_file=buf)
    lines = buf.getvalue().splitlines()
    padded = ["", " \t"] + [f" \t{line} \r" for line in lines] + ["\x0c", "\n"]
    assert fold_jsonl(padded) == rep.metrics
    event = next(line for line in lines if '"kind":' in line)
    for bad in (event + " x", "\x0c" + event):
        with pytest.raises(json.JSONDecodeError):
            json.loads(bad)
        with pytest.raises(json.JSONDecodeError):
            fold_jsonl([bad])


def test_fold_jsonl_counts_tick_lines_against_the_end_event():
    # a sink that drops or repeats a tick line, or loses the end event, is
    # caught without decoding a tick line
    buf = io.StringIO()
    rep = run(bend_scenario(), plan=bend_plan(), trace_file=buf)
    lines = buf.getvalue().splitlines()
    assert fold_jsonl(lines) == rep.metrics
    ticks = sum('"kind":' not in line for line in lines)
    k = next(k for k, line in enumerate(lines) if '"kind":' in line) - 1  # a tick line
    for bad, got in ((lines[:k] + lines[k + 1:], ticks - 1),
                     (lines[:k] + [lines[k]] + lines[k:], ticks + 1)):
        with pytest.raises(ValueError, match=f"^trace has {got} tick lines, but its end "
                                             f"event counts {ticks}$"):
            fold_jsonl(bad)
    with pytest.raises(ValueError, match=f"^trace has {ticks} tick lines, but no end event$"):
        fold_jsonl(lines[:-1])


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
    fault, no refusal, and each mission completes or times out."""
    seen = checked_outcomes(vehicle_space, range(1000, 1100))
    assert {k: len(v) for k, v in seen.items()} == {"completed": 95, "timeout": 5, "fault": 0}


@pytest.mark.parametrize("i", [188, 416])
def test_relay_hop_completes_a_once_refused_mission(i):
    """Acceptance-7 missions 9188 and 9416 once ended in a repair's refusal:
    no site past a lone target was in reach.  Now a repaired segment that
    is not the last hops the site toward it, visiting no target, and the
    mission completes with every tick checked."""
    rep, _, events = traced_run(acceptance7(i), SimConfig(check_invariants=True))
    assert rep.completed
    cases = segment_cases(events)
    repaired = {s for s, case in cases if case == Case.SEGMENT_REPAIR}
    visited = {e["detail"]["segment"] for e in events
               if e["kind"] in ("complete", "skip", "abandon")}
    assert repaired - visited - {cases[-1][0]}


def test_reach_holds_on_the_segment_after_a_refuel():
    # segment 2 once started out of reach here: the UAV could dock with the
    # UGV short of the site, and the next site's reach counted from the site
    assert _checked_generated_run(10, 9422).completed


def test_coarse_tick_hover_docks_in_time():
    # at dt 0.2 the UAV once hovered whole ticks waiting for a UGV step that
    # would have reached the site within the tick, and ran dry at t=273.8
    assert _checked_generated_run(16, 9029, dt=0.2).completed


@pytest.mark.xfail(strict=True, raises=InvariantViolation,
                   reason="ROADMAP, Decide abandonment at its exact instant: at dt 0.5 the "
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
    # after the dock, the UGV's step over the UAV's sub-step of the 0.02 s
    # left in the tick goes 0.01 m, at 0.5 m/s, toward the next site (0, 0)
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


def test_ugv_steps_toward_the_site_each_sub_step(monkeypatch):
    # after each of the UAV's sub-steps the UGV steps v_ugv times that
    # sub-step's seconds straight toward the site it ends with, through
    # slack and taut processing, transit and the final run home; without a
    # dock, a tick's sub-steps cover the tick up to its end or the landing
    from fuelstring import sim

    # at dt 0.03 the UAV reaches target 1 at 1 s, 0.01 s into a tick
    world = WorldState(bend_scenario(), bend_plan(), SimConfig(dt=0.03))
    drive, drives = sim._drive, []

    def spy(world, t_rem, used):
        ugv, st = world.ugv_pos, world.active
        left = drive(world, t_rem, used)
        seconds = t_rem - left
        assert world.ugv_pos == step_toward(ugv, st.site_position, world.params.v_ugv * seconds)
        drives.append((seconds, st.mode, st.site_arc))
        return left

    monkeypatch.setattr(sim, "_drive", spy)
    sub_steps, site_arcs = [], set()
    while not world.mission_complete:
        t0, seg = world.clock, world.active.ordinal
        drives.clear()
        step(world)
        if world.active.ordinal == seg:
            assert sum(h for h, _, _ in drives) == pytest.approx(world.clock - t0, abs=1e-12)
            sub_steps.append(len(drives))
            site_arcs |= {arc for _, mode, arc in drives if mode is Mode.PROCESSING}
    assert max(sub_steps) == 2 and len(site_arcs) > 10  # split ticks; a dragged site
    assert len(sub_steps) > 0.95 * world.clock / world.config.dt


def test_processed_ticks_end_where_the_lookahead_put_the_ugv(monkeypatch):
    # the lookahead steps the UGV v_ugv * t_left toward the site dragged for
    # all of t_left: exactly the step it takes when processing runs to the
    # tick end, on the line's no-replan, drag and abandon missions and the
    # bend's skip, in slack and taut ticks
    from fuelstring import sim
    from fuelstring.online import backtrack_site

    lookahead, calls = sim.check_abandonment, []

    def spy(st, ugv, t_left, params):
        fuel_next = st.fuel - params.burn_rate * t_left
        site = st.plan.path.point_at_arc(backtrack_site(st, fuel_next, params))
        calls.append((st.current, step_toward(ugv, site, params.v_ugv * t_left)))
        return lookahead(st, ugv, t_left, params)

    monkeypatch.setattr(sim, "check_abandonment", spy)
    missions = [(line_scenario(tau), line_plan()) for tau in (5.0, 25.0, 60.0)]
    missions.append((bend_scenario(), bend_plan()))
    compared = dragged = parked = 0
    for scenario, plan in missions:
        world = WorldState(scenario, plan, SimConfig())
        while not world.mission_complete:
            calls.clear()
            site_arc = world.active.site_arc
            step(world)
            st = world.active
            if st.mode is Mode.PROCESSING and calls and calls[-1][0] == st.current:
                assert world.ugv_pos == calls[-1][1], world.clock
                compared += 1
                dragged += st.site_arc != site_arc
                parked += world.ugv_pos == st.site_position
    assert dragged > 50 and compared - dragged > 500 and parked < 10, (compared, dragged, parked)


def test_fold_counts_maximal_backtrack_episodes():
    # an episode is a drag event, one per processing visit that drags the
    # site; the end event gives the time and both distances
    fold = MetricsFold()
    events = [
        (1.0, "drag", {"segment": 0, "target": 3, "site_arc": 19.0}),
        (2.5, "drag", {"segment": 0, "target": 4, "site_arc": 17.0}),
        (3.0, "refuel", {"segment": 0, "site": [1, 0], "fuel": 50.0}),
        (3.5, "drag", {"segment": 1, "target": 3, "site_arc": 39.5}),
        (7.0, "end", {"ticks": 8}),
    ]
    for k, (t, kind, detail) in enumerate(events):
        fold.add_event(t, kind, {**detail, "uav_odo": 6.0 * k / 4, "ugv_odo": 3.5 * k / 4})
    m = fold.result()
    assert m["backtrack_episodes"] == 3
    assert (m["uav_distance"], m["ugv_distance"], m["mission_time"]) == (6.0, 3.5, 7.0)


def test_one_drag_event_per_dragging_visit():
    # bend: only the visit to target 1 drags the site, over many ticks, from
    # arc 20 back past the second target; only its first drag writes an event
    rep, trace, events = traced_run(bend_scenario(), plan=bend_plan())
    (drag,) = [e for e in events if e["kind"] == "drag"]
    assert (drag["detail"]["segment"], drag["detail"]["target"]) == (0, 1)
    assert rep.metrics["backtrack_episodes"] == 1
    moved = [(b["seg"], tuple(b["uav"])) for a, b in zip(trace, trace[1:])
             if a["seg"] == b["seg"] and a["site"] != b["site"]]
    assert len(moved) > 1 and set(moved) == {(0, (2.0, 0.0))}
    (skip,) = [e for e in events if e["kind"] == "skip"]
    assert drag["t"] < skip["t"] and drag["detail"]["site_arc"] > 15.0


def test_uav_distance_is_the_flown_path_length():
    # dt 0.3 flies 0.6 m a tick, so the bend at arc 5.05 falls mid-tick: a
    # chord between tick positions cuts that corner, the odometer does not
    sc = Scenario(world=World(50.0, 50.0), depot=Point2D(0.0, 0.0),
                  params=VehicleParams(v_uav=2.0, v_ugv=1.0, fuel_capacity=50.0,
                                       fuel_per_meter=1.0),
                  targets=(Target(id=1, position=Point2D(5.05, 3.0), tau=0.0),))
    plan = MissionPlan(segments=(
        SegmentPlan(index=0, target_arcs=((1, 8.05),), path=Polyline([
            Point2D(0.0, 0.0), Point2D(5.05, 0.0), Point2D(5.05, 6.0)])),
        SegmentPlan(index=1, path=Polyline([Point2D(5.05, 6.0), Point2D(0.0, 0.0)])),
    ))
    rep, trace, events = traced_run(sc, SimConfig(dt=0.3, check_invariants=True), plan)
    assert rep.completed
    first, second = (seg.path.length for seg in plan.segments)
    assert rep.metrics["uav_distance"] == first + second
    assert not any(r["uav"] == [5.05, 0.0] for r in trace)  # no tick lands on the bend
    chords = sum(math.dist(a["uav"], b["uav"]) for a, b in zip(trace, trace[1:]))
    assert chords < first + second - 0.1
    # the UGV drives without a stop, to the site and on toward the depot,
    # until the UAV lands: the site is 7.84 m from the depot, the UGV docks
    # when it gets there, and the UAV's 7.84 m home at 2 m/s takes half that
    # time again, so both the clock and the UGV's odometer end at 1.5 times
    # 7.84.  The chords between its tick positions cut the corner it turns
    # at the site in the docking tick.
    drive = 1.5 * math.hypot(5.05, 6.0)
    assert rep.metrics["mission_time"] == pytest.approx(drive, abs=1e-9)
    assert rep.metrics["ugv_distance"] == pytest.approx(drive, abs=1e-9)
    steps = sum(math.dist(a["ugv"], b["ugv"]) for a, b in zip(trace, trace[1:]))
    assert steps < drive - 0.05


def test_odometers_never_decrease_and_end_with_the_metrics():
    for i in range(5):
        sc = acceptance7(i)
        try:
            plan = plan_mission(sc)
        except PlanningError:
            continue
        rep, _, events = traced_run(sc, plan=plan)
        odos = [(e["detail"]["uav_odo"], e["detail"]["ugv_odo"]) for e in events]
        assert all(a[0] <= b[0] and a[1] <= b[1] for a, b in zip(odos, odos[1:])), 9000 + i
        end = events[-1]
        assert end["kind"] == "end" and [e["kind"] for e in events].count("end") == 1
        assert (end["t"], *odos[-1]) == (rep.metrics["mission_time"], rep.metrics["uav_distance"],
                                         rep.metrics["ugv_distance"])


def _physics_excess(scenario, plan) -> tuple[int, float, float, float]:
    """Read one traced run's lines in order.  For each pair of consecutive
    tick records of one segment with no refuel event between them, how far
    the UAV and the UGV moved beyond speed times the time between the
    records, and how far the fuel burned differs from burn_rate times that
    time.  Returns the pair count and the largest of each."""
    buf = io.StringIO()
    run(scenario, plan=plan, trace_file=buf)
    p = scenario.params
    pairs, uav, ugv, fuel = 0, -math.inf, -math.inf, 0.0
    last = None
    for line in buf.getvalue().splitlines():
        rec = json.loads(line)
        if "kind" in rec:
            if rec["kind"] == "refuel":
                last = None
            continue
        if last is not None and last["seg"] == rec["seg"]:
            dt = rec["t"] - last["t"]
            pairs += 1
            uav = max(uav, math.dist(last["uav"], rec["uav"]) - p.v_uav * dt)
            ugv = max(ugv, math.dist(last["ugv"], rec["ugv"]) - p.v_ugv * dt)
            fuel = max(fuel, abs(last["fuel"] - rec["fuel"] - p.burn_rate * dt))
        last = rec
    return pairs, uav, ugv, fuel


def test_stored_traces_move_and_burn_within_physics():
    # every vehicle moves at most speed x dt between two tick records of a
    # segment, and the tank falls by burn_rate x dt, on the lines written by
    # the coast's cached pieces and by step alike
    pairs = 0
    for scenario in [acceptance7(i) for i in range(40)] + [
            vehicle_space(s) for s in range(1000, 1060)]:
        try:
            plan = plan_mission(scenario)
        except PlanningError:
            continue
        n, uav, ugv, fuel = _physics_excess(scenario, plan)
        pairs += n
        assert uav <= 1e-9 and ugv <= 1e-9 and fuel <= 1e-9, (scenario.params, uav, ugv, fuel)
    assert pairs > 500_000


def test_fold_counts_events():
    fold = MetricsFold()
    fold.add_event(1.0, "abandon", {"targets": [1, 2], "segment": 0, "site": [0, 0]})
    fold.add_event(2.0, "skip", {"targets": [3], "segment": 1, "site_arc": 4.0})
    fold.add_event(3.0, "refuel", {"segment": 0, "site": [1, 1], "fuel": 50})
    fold.add_event(3.0, "case", {"segment": 0, "case": 4})
    m = fold.result()
    assert m["abandonments"] == 1
    assert m["targets_deferred"] == 3
    assert m["rendezvous_count"] == 1
    assert m["case_4"] == 1


def test_metrics_text_is_sorted_key_value_lines():
    text = metrics_to_text({"b": 2, "a": 1.5})
    assert text == "a = 1.5\nb = 2\n"
