"""run() coasts through quiet transit ticks in one loop; every output must
be the one a step()-only engine gives, byte for byte."""
from __future__ import annotations

import io
import json

import pytest

from conftest import line_plan, line_scenario, tick_record, traced_run
from fuelstring import sim
from fuelstring.geometry import Point2D, Polyline
from fuelstring.model import EPS_TIME, Scenario, Target, VehicleParams, World
from fuelstring.offline import MissionPlan, PlanningError, SegmentPlan, plan_mission
from fuelstring.rng import SplitMix64
from fuelstring.scenario_io import CostModel, generate_scenario
from fuelstring.sim import InvariantViolation, SimConfig, WorldState, run, step


def _stepped(scenario, cfg, plan) -> list:
    """The reference: a WorldState driven tick by tick with step under
    run's cap.  Its tick records are built from the world after each tick,
    apart from the simulator's writer, which must have written their lines."""
    buf = io.StringIO()
    world = WorldState(scenario, plan, cfg, trace_file=buf)
    world.record_tick()
    records = [tick_record(world)]
    cap = cfg.max_mission_time
    if cap is None:
        cap = 10.0 * plan.total_length / scenario.params.v_uav
    while not world.mission_complete and world.clock < cap - EPS_TIME:
        step(world)
        records.append(tick_record(world))
    # only an event line has a "kind" key
    lines = buf.getvalue().splitlines(keepends=True)
    assert [line for line in lines if '"kind":' not in line] == [
        json.dumps(r, separators=(",", ":")) + "\n" for r in records]
    status = "completed" if world.mission_complete else "timeout"
    return _outputs(status, world.fold.result(), world.events, records,
                    world.unprocessed_ids(), buf)


def _outputs(status, metrics, events, trace, unprocessed, buf) -> list:
    # the JSONL text and the metrics text write every float with repr, so
    # equal texts mean equal bits, -0.0 included
    return [status, sim.metrics_to_text(metrics), events, trace, unprocessed, buf.getvalue()]


def _assert_run_matches_steps(scenario, cfg, plan) -> int:
    """Compare run() with the reference; return how many ticks it coasted."""
    calls = []

    def counted(world):
        calls.append(world.clock)
        step(world)

    buf = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "step", counted)
        rep, trace = traced_run(scenario, cfg, plan, sink=buf)
    got = _outputs(rep.status, rep.metrics, rep.events, trace, rep.unprocessed, buf)
    assert got == _stepped(scenario, cfg, plan)
    return len(trace) - 1 - len(calls)  # ticks after the first record, less step's


def _acceptance7(i: int) -> Scenario:
    n = int(5 + SplitMix64(9000 + i).next_u64() % 26)
    return generate_scenario(n, seed=9000 + i, cost_model=CostModel(
        kind="uniform", low=0.0, high=25.0, seed=17 + i))


def _planned(scenario):
    try:
        return plan_mission(scenario)
    except PlanningError:
        return None


@pytest.mark.parametrize("checked", [False, True])
def test_acceptance7_missions_match_the_stepped_engine(checked):
    coasted = 0
    for i in range(20):
        sc = _acceptance7(i)
        plan = _planned(sc)
        if plan is not None:
            coasted += _assert_run_matches_steps(sc, SimConfig(check_invariants=checked), plan)
    assert coasted > 0


def _sweep_cell(n: int, ratio: float, seed: int) -> Scenario:
    # batch.run_cell's recipe at fuel capacity 50
    params = VehicleParams(v_uav=2.0, v_ugv=2.0 * ratio, fuel_capacity=50.0, fuel_per_meter=1.0)
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
        assert _assert_run_matches_steps(sc, SimConfig(), plan) > 0
        kinds |= _quiet_ugv_kinds(traced_run(sc, plan=plan)[1])
    assert ugv in kinds


@pytest.mark.parametrize("dt", [0.2, 0.0125])
def test_tick_sizes_match_the_stepped_engine(dt):
    for i in range(3):
        sc = _acceptance7(i)
        plan = _planned(sc)
        if plan is not None:
            assert _assert_run_matches_steps(sc, SimConfig(dt=dt), plan) > 0


def test_time_cap_inside_a_coast_matches_the_stepped_engine():
    # line: 5 s of transit before the target; the cap falls 2 s in
    assert _assert_run_matches_steps(line_scenario(3.0), SimConfig(max_mission_time=2.0),
                                     line_plan()) == 40
    # a generated mission: the cap lands on a quiet tick in mid-mission
    sc = _acceptance7(0)
    plan = plan_mission(sc)
    full, trace = traced_run(sc, plan=plan)
    events = {e["t"] for e in full.events}
    j = next(j for j in range(len(trace) // 2, len(trace) - 1)
             if trace[j - 1]["mode"] == trace[j]["mode"] == trace[j + 1]["mode"] == "transit"
             and trace[j - 1]["seg"] == trace[j + 1]["seg"]
             and not any(trace[j - 1]["t"] < t <= trace[j + 1]["t"] for t in events))
    cfg = SimConfig(max_mission_time=trace[j]["t"])
    assert _assert_run_matches_steps(sc, cfg, plan) > 0
    assert traced_run(sc, cfg, plan)[1] == trace[:j + 1]


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
    assert _assert_run_matches_steps(sc, SimConfig(dt=0.25, check_invariants=checked), plan) > 0
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
        sc = _acceptance7(0)
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
