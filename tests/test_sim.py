"""Mission engine behavior on hand-solvable missions."""
from __future__ import annotations

import dataclasses
import io
import json
import math

import pytest

from conftest import bend_plan, bend_scenario, collinear_scenario, line_plan, line_scenario
from fuelstring.geometry import Point2D
from fuelstring.offline import PlanningError, plan_mission
from fuelstring.rng import SplitMix64
from fuelstring.scenario_io import CostModel, generate_scenario
from fuelstring.sim import (
    InvariantViolation,
    MetricsFold,
    SimConfig,
    TargetTracker,
    WorldState,
    fold_jsonl,
    fold_records,
    metrics_to_text,
    run,
    step,
)


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
    world = WorldState(line_scenario(0.0), line_plan(), SimConfig())
    while world.active.uav_arc < 10.0:
        assert not world.done_ids
        step(world)
    assert world.done_ids == {1}
    complete = [e for e in world.events if e["kind"] == "complete"]
    assert len(complete) == 1
    assert world.clock - 0.05 <= complete[0]["t"] <= world.clock


def test_single_tank_out_and_back():
    rep = run(line_scenario(0.0))
    assert rep.completed
    assert math.isclose(rep.metrics["mission_time"], 10.0, abs_tol=1e-6)
    assert math.isclose(rep.metrics["uav_distance"], 20.0, abs_tol=1e-6)
    assert rep.metrics["ugv_distance"] == 0.0
    assert rep.metrics["rendezvous_count"] == 0
    assert rep.case_histogram == {1: 1}
    kinds = [(e["kind"], round(e["t"], 6)) for e in rep.events]
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
    rep = run(line_scenario(0.0), SimConfig(check_invariants=True), plan=plan)
    assert rep.completed
    refuels = [e for e in rep.events if e["kind"] == "refuel"]
    assert len(refuels) == 1
    assert math.isclose(refuels[0]["t"], 13.9, abs_tol=1e-9)

    by_t = {round(r["t"], 4): r for r in rep.trace}
    assert by_t[7.0]["mode"] == "wait"
    assert math.isclose(by_t[13.85]["fuel"], 22.3, abs_tol=1e-9)
    assert by_t[13.9]["fuel"] == 50.0  # tick records post-refuel state
    assert math.isclose(rep.metrics["mission_time"], 20.9, abs_tol=1e-6)
    assert math.isclose(rep.metrics["uav_distance"], 28.0, abs_tol=1e-6)
    # ground travel stops the instant the UAV lands: 13.9 out, 6.95 back
    assert math.isclose(rep.metrics["ugv_distance"], 20.85, abs_tol=1e-6)


def test_timeout_reports_unprocessed_targets():
    rep = run(line_scenario(25.0), SimConfig(max_mission_time=10.0), plan=line_plan())
    assert rep.status == "timeout"
    assert not rep.completed
    assert rep.unprocessed == [1]
    assert math.isclose(rep.metrics["mission_time"], 10.0, abs_tol=1e-9)


@pytest.mark.parametrize("field, bad", [
    ("dt", 0.0), ("dt", -0.05), ("dt", math.nan), ("dt", math.inf),
    ("max_mission_time", 0.0), ("max_mission_time", math.inf),
])
def test_config_rejects_bad_numbers(field, bad):
    # a zero or negative dt would never advance the clock
    with pytest.raises(ValueError, match=field):
        SimConfig(**{field: bad})


def test_kept_progress_lets_oversized_jobs_finish():
    # progress carries across visits: 60 fuel of processing cannot finish in
    # one tank, so the target is abandoned once and finished on the next visit
    rep = run(line_scenario(60.0), plan=line_plan())
    assert rep.completed
    assert rep.metrics["abandonments"] == 1
    assert math.isclose(rep.metrics["mission_time"], 45.0, abs_tol=1e-6)


def test_trace_stream_matches_memory_and_refolds():
    buf = io.StringIO()
    rep = run(bend_scenario(), plan=bend_plan(), trace_file=buf)
    lines = buf.getvalue().splitlines()
    records = [json.loads(line) for line in lines]
    ticks = [r for r in records if "kind" not in r]
    events = [r for r in records if "kind" in r]
    assert ticks == rep.trace
    assert events == rep.events
    # metrics are a pure fold over the stream: refolding reproduces them
    assert fold_jsonl(lines) == rep.metrics
    assert fold_records(records) == rep.metrics


def _compact(rec) -> str:
    return json.dumps(rec, separators=(",", ":"))


def test_trace_lines_are_compact_json_of_their_records():
    # acceptance 7's recipe, first twenty missions
    for i in range(20):
        n = int(5 + SplitMix64(9000 + i).next_u64() % 26)
        sc = generate_scenario(n, seed=9000 + i, cost_model=CostModel(
            kind="uniform", low=0.0, high=25.0, seed=17 + i))
        try:
            plan = plan_mission(sc)
        except PlanningError:
            continue
        buf = io.StringIO()
        rep = run(sc, SimConfig(keep_trace=True), plan=plan, trace_file=buf)
        ticks, events = iter(rep.trace), iter(rep.events)
        lines = buf.getvalue().splitlines()
        for k, line in enumerate(lines):
            rec = next(events) if "kind" in json.loads(line) else next(ticks)
            assert line == _compact(rec), f"mission {9000 + i}, line {k}"
        assert next(ticks, None) is None and next(events, None) is None
        assert len(lines) == len(rep.trace) + len(rep.events)


@pytest.mark.parametrize("value", [-0.0, 25.0, 1e-17, 1e16, 0.1 + 0.2, 7])
def test_tick_line_matches_json_on_edge_floats(value):
    buf = io.StringIO()
    world = WorldState(line_scenario(25.0), line_plan(), SimConfig(), trace_file=buf)
    world.ugv_pos = Point2D(value, -value)
    world.active.fuel = value
    world.record_tick()
    assert buf.getvalue() == _compact(world.trace[-1]) + "\n"
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
    a = run(bend_scenario(), SimConfig(check_invariants=True), plan=bend_plan())
    b = run(bend_scenario(), SimConfig(check_invariants=True), plan=bend_plan())
    assert a.metrics == b.metrics
    assert a.events == b.events
    assert json.dumps(a.trace) == json.dumps(b.trace)


def test_disabled_trace_still_folds_metrics():
    with_trace = run(bend_scenario(), plan=bend_plan())
    without = run(bend_scenario(), SimConfig(keep_trace=False), plan=bend_plan())
    assert without.trace is None
    assert without.metrics == with_trace.metrics


def test_invariant_checks_catch_corrupted_state():
    world = WorldState(line_scenario(25.0), line_plan(),
                       SimConfig(check_invariants=True))
    world.active.fuel = -1.0
    with pytest.raises(InvariantViolation):
        step(world)

    world = WorldState(line_scenario(25.0), line_plan(),
                       SimConfig(check_invariants=True))
    world.active.fuel = 3.0  # cannot span the 20 arc to the site
    with pytest.raises(InvariantViolation, match="string invariant"):
        step(world)


def test_invariant_checks_catch_forward_site_motion():
    # backtracking is one-way; a site arc above its low-water mark is a fault
    world = WorldState(line_scenario(25.0), line_plan(),
                       SimConfig(check_invariants=True))
    step(world)
    world.active.site_arc_seen = world.active.site_arc - 1.0
    with pytest.raises(InvariantViolation, match="site moved forward"):
        step(world)


def _collinear_world() -> WorldState:
    # segments [10, 20], [30, 40], [] with free processing
    sc = collinear_scenario()
    return WorldState(sc, plan_mission(sc), SimConfig(check_invariants=True))


def test_conservation_catches_target_dropped_from_queue():
    world = _collinear_world()
    seg = world.queue[0]
    world.queue[0] = dataclasses.replace(seg, target_arcs=seg.target_arcs[1:])
    with pytest.raises(InvariantViolation, match="target conservation"):
        step(world)


def test_conservation_catches_done_target_back_in_pending():
    world = _collinear_world()
    while not world.done_ids:
        step(world)
    assert world.done_ids == {10}
    world.active.pending.append((10, 10.0))
    with pytest.raises(InvariantViolation, match="target conservation"):
        step(world)


def test_conservation_catches_target_held_twice():
    world = _collinear_world()
    assert world.active.pending[0][0] == 10
    world.carry.append((10, Point2D(10.0, 0.0)))
    with pytest.raises(InvariantViolation, match="target conservation"):
        step(world)


def test_checks_leave_generated_traces_byte_identical():
    # acceptance 7's recipe, first ten missions: checking reads, never writes
    for i in range(10):
        n = int(5 + SplitMix64(9000 + i).next_u64() % 26)
        sc = generate_scenario(n, seed=9000 + i, cost_model=CostModel(
            kind="uniform", low=0.0, high=25.0, seed=17 + i))
        try:
            plan = plan_mission(sc)
        except PlanningError:
            continue
        traces = []
        for checked in (False, True):
            buf = io.StringIO()
            run(sc, SimConfig(check_invariants=checked, keep_trace=False),
                plan=plan, trace_file=buf)
            traces.append(buf.getvalue())
        assert traces[0] == traces[1], f"mission {9000 + i}"


def _checked_generated_run(n: int, seed: int):
    cost = CostModel(kind="uniform", low=0.0, high=25.0, seed=seed - 8983)
    return run(generate_scenario(n, seed=seed, cost_model=cost),
               SimConfig(check_invariants=True, keep_trace=False))


@pytest.mark.xfail(strict=True, raises=InvariantViolation,
                   reason="known defect: a refuel within EPS_DOCK short of the site, "
                          "then a repaired site at the full reach radius from it")
def test_reach_holds_after_refuel_short_of_site():
    # segment 2, in transit at uav_arc=0 right after the refuel
    _checked_generated_run(10, 9422)


@pytest.mark.xfail(strict=True, raises=InvariantViolation,
                   reason="known defect: the site leaves ground-vehicle reach "
                          "on the way to the rendezvous after an abandon")
def test_reach_holds_on_the_way_to_rendezvous_after_abandon():
    _checked_generated_run(22, 9414)


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
    for row in rows:
        fold.add_tick(*row)
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
