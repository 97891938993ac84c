"""Acceptance gate: nine end-to-end guarantees, one test each.

Each test states its tolerance inline.  Golden values come from closed-form
traces of the straight-line and bend missions plus brute-force enumeration;
timing budgets are generous for a desktop-class machine.
"""
import csv
import io
import json
import math
import time

import pytest

from fuelstring.batch import CSV_COLUMNS, SweepConfig, batch_run, results_to_csv
from fuelstring.geometry import Point2D, Polyline
from fuelstring.model import Scenario, Target, VehicleParams, World
from fuelstring.offline import (
    MissionPlan,
    PlanningError,
    SegmentPlan,
    plan_mission,
)
from fuelstring.online import transfer_and_repair
from fuelstring.sim import InvariantViolation, SimConfig, run

from conftest import (
    DEFAULT_PARAMS,
    acceptance7,
    bend_plan,
    bend_scenario,
    case_counts,
    collinear_scenario,
    line_plan,
    line_scenario,
    segment_cases,
    traced_run,
)
from test_offline import brute_force_tour_length

P = Point2D
DT = 0.05
BURN = 2.0  # fuel per second at v_uav=2, one unit per meter
EPS = 1e-9


def of_kind(events, kind):
    return [e for e in events if e["kind"] == kind]


def exact_arrival(trace, key, site):
    for r in trace:
        if math.dist(r[key], site) <= EPS:
            return r["t"]
    return None


def test_01_baseline_segment_matches_closed_form():
    """Processing fits the slack: no replanning, metrics are pure geometry."""
    t0 = time.perf_counter()
    rep, _, events = traced_run(line_scenario(25.0), SimConfig(), line_plan())
    wall = time.perf_counter() - t0
    assert wall < 1.0
    assert rep.status == "completed"
    assert rep.metrics["backtrack_episodes"] == 0
    assert case_counts(rep.metrics) == [2, 0, 0, 0, 0]
    # depot -> target -> site -> depot at 2 m/s, 12.5 s of processing
    assert rep.metrics["mission_time"] == pytest.approx(32.5, rel=1e-6)
    assert rep.metrics["uav_distance"] == pytest.approx(40.0, rel=1e-6)
    ref = of_kind(events, "refuel")[0]
    assert ref["t"] == pytest.approx(22.5, rel=1e-6)
    assert ref["detail"]["site"] == pytest.approx([20.0, 0.0], abs=EPS)


def test_02_taut_string_drags_site_exactly_once():
    """5 units of overrun pull the rendezvous from (20,0) to (15,0)."""
    rep, trace, events = traced_run(line_scenario(35.0), SimConfig(), line_plan())
    assert rep.status == "completed"
    assert rep.metrics["backtrack_episodes"] == 1
    ref = of_kind(events, "refuel")[0]
    sx, sy = ref["detail"]["site"]
    assert math.dist((sx, sy), (15.0, 0.0)) <= 2.0 * DT + EPS  # v_uav * dt
    # tank runs dry exactly at the dragged site: the last tick before the
    # top-up may hold at most one tick of burn
    pre = [r for r in trace if r["t"] < ref["t"] - EPS]
    assert 0.0 - EPS <= pre[-1]["fuel"] <= BURN * DT + EPS
    assert exact_arrival(trace, "uav", [sx, sy]) == pytest.approx(25.0, abs=DT)


def test_03_costly_target_skipped_and_finished_next_segment():
    """The dragging site crosses the far target's arc; that target defers."""
    rep, _, events = traced_run(bend_scenario(), SimConfig(), bend_plan())
    assert rep.status == "completed"
    skip = of_kind(events, "skip")[0]
    assert skip["detail"]["segment"] == 0
    assert skip["detail"]["targets"] == [2]
    # the crossing is caught within one tick of drag below arc 15
    assert 15.0 - BURN * DT - EPS <= skip["detail"]["site_arc"] < 15.0
    done = [(e["detail"]["segment"], e["detail"]["target"])
            for e in of_kind(events, "complete")]
    assert (0, 1) in done and (1, 2) in done
    first_seg = [c for s, c in segment_cases(events) if s == 0]
    assert first_seg == [3]


def test_04_doomed_chase_abandoned_at_the_break_even_tick():
    """String goes taut at t=20; 2.5 s later the catch-up race is lost."""
    rep, trace, events = traced_run(line_scenario(60.0), SimConfig(), line_plan())
    ab = of_kind(events, "abandon")[0]
    assert ab["t"] == pytest.approx(22.5, abs=DT + EPS)
    site = ab["detail"]["site"]
    assert math.dist(site, (15.0, 0.0)) <= 2.0 * DT + EPS
    # both vehicles reach the frozen rendezvous within one tick of each other
    t_uav = exact_arrival(trace, "uav", site)
    t_ugv = exact_arrival((r for r in trace if r["t"] >= ab["t"] - EPS),
                          "ugv", site)
    assert t_uav is not None and t_ugv is not None
    assert abs(t_uav - t_ugv) <= DT + EPS
    assert rep.status == "completed"  # the deferred target still gets done


def test_05_overlong_transfer_segment_pulled_back_ten_meters():
    # thread start -> (35,0) -> (10,0) is 60 long against a 50 tank:
    # the terminal must retreat along the path to arc 50, i.e. (20,0)
    nxt = SegmentPlan(index=1, path=Polyline([P(30, 0), P(10, 0)]))
    plan, shed, modified = transfer_and_repair(
        P(0, 0), [(9, P(35, 0))], nxt, P(0, 0), DEFAULT_PARAMS, ordinal=1)
    assert modified and shed == []
    assert plan.path.length == pytest.approx(50.0, abs=EPS)
    assert plan.site == P(20.0, 0.0)
    assert plan.target_arcs == ((9, 35.0),)

    # the same mechanism end to end: abandon, rebuild over-length, skip
    params = VehicleParams(v_uav=2.0, v_ugv=2.0, fuel_capacity=30.0,
                           fuel_per_meter=1.0)
    sc = Scenario(world=World(), depot=P(0, 0), params=params, targets=(
        Target(id=1, position=P(10, 0), tau=40.0),
        Target(id=2, position=P(25, 0), tau=0.0),
    ))
    hand = MissionPlan(segments=(
        SegmentPlan(index=0, path=Polyline([P(0, 0), P(10, 0), P(15, 0)]),
                    target_arcs=((1, 10.0),)),
        SegmentPlan(index=1, path=Polyline([P(15, 0), P(25, 0), P(44, 0)]),
                    target_arcs=((2, 10.0),)),
        SegmentPlan(index=2, path=Polyline([P(44, 0), P(14, 0)])),
        SegmentPlan(index=3, path=Polyline([P(14, 0), P(0, 0)])),
    ))
    rep, _, events = traced_run(sc, SimConfig(), hand)
    assert rep.status == "completed"
    assert segment_cases(events) == [(0, 4), (1, 5), (1, 3), (2, 1), (3, 1)]
    assert case_counts(rep.metrics) == [2, 0, 1, 1, 1]


def test_06_offline_plan_matches_hand_trace_and_brute_force():
    sc = collinear_scenario()
    plan = plan_mission(sc)
    assert plan.total_length == pytest.approx(
        brute_force_tour_length(sc), abs=1e-9)
    assert plan.total_length == pytest.approx(80.0, abs=1e-9)
    lengths = [seg.path.length for seg in plan.segments]
    assert lengths == pytest.approx([25.0, 50.0, 5.0], abs=1e-9)
    sites = [(s.x, s.y) for s in plan.sites]
    assert sites[:2] == [(25.0, 0.0), (5.0, 0.0)]
    partition = [list(seg.target_ids()) for seg in plan.segments]
    assert partition == [[10, 20], [30, 40], []]


def test_07_invariants_hold_across_random_missions():
    """200 generated missions, every tick checked, all diagnosed or done."""
    t0 = time.perf_counter()
    outcomes = {"completed": 0, "timeout": 0, "infeasible": 0}
    for i in range(200):
        sc = acceptance7(i)
        try:
            rep = run(sc, SimConfig(check_invariants=True))
        except PlanningError as exc:
            # a diagnosed dead end must name the stuck target
            assert "infeasible" in str(exc)
            outcomes["infeasible"] += 1
            continue
        except InvariantViolation as exc:  # pragma: no cover
            pytest.fail(f"invariant broke on seed {9000 + i}: {exc}")
        if rep.status == "completed":
            assert not rep.unprocessed
        else:
            assert rep.unprocessed  # timeout reports name the leftovers
        outcomes[rep.status] += 1
    assert sum(outcomes.values()) == 200
    assert outcomes["completed"] >= 150  # the common case stays common
    assert time.perf_counter() - t0 < 60.0


def test_08_reruns_byte_identical_and_dt_refinement_stable():
    def trace_bytes(scenario, plan, dt):
        buf = io.StringIO()
        run(scenario, SimConfig(dt=dt), plan=plan, trace_file=buf)
        return buf.getvalue().encode()

    goldens = [
        (line_scenario(25.0), line_plan()),
        (line_scenario(35.0), line_plan()),
        (line_scenario(60.0), line_plan()),
        (bend_scenario(), bend_plan()),
    ]
    for sc, plan in goldens:
        assert trace_bytes(sc, plan, DT) == trace_bytes(sc, plan, DT)
        coarse = traced_run(sc, SimConfig(dt=DT), plan)[2]
        fine = traced_run(sc, SimConfig(dt=DT / 2), plan)[2]
        assert segment_cases(coarse) == segment_cases(fine)


def test_09_default_sweep_grid_produces_wellformed_csv():
    t0 = time.perf_counter()
    results = batch_run(SweepConfig())
    text = results_to_csv(results)
    assert time.perf_counter() - t0 < 300.0
    assert len(results) == 27
    for r in results:
        diagnosed = r.status.startswith("error:") and "infeasible" in r.status
        assert r.status in ("completed", "timeout") or diagnosed
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) == 1 + 27 * 4  # each cell: 1 seed row + mean/min/max
    assert rows[0] == list(CSV_COLUMNS)
    width = len(CSV_COLUMNS)
    for row in rows[1:]:
        assert len(row) == width
        for v in row[5:]:
            if v != "":
                float(v)  # every metric cell is numeric
