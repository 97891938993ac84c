"""Metamorphic relations: the same mission relabelled, mirrored or scaled must
give the same plan and the same trace, so these tests need no golden number.
A changed processing cost must change nothing the simulator records before
the changed target completes, nor anything the planner does.

The missions are the first ones of acceptance 7's recipe, built by
conftest.acceptance7.
"""
from __future__ import annotations

import dataclasses
import io
import json
import math

import pytest

from fuelstring import (
    CostModel,
    Point2D,
    Scenario,
    World,
    emit_plan,
    generate_scenario,
    plan_mission,
    run,
    sim,
)
from fuelstring.geometry import distance

from conftest import acceptance7, segment_cases, traced_run

RELABEL_MISSIONS = 60
MIRROR_MISSIONS = 60
SCALE_MISSIONS = 6
COST_MISSIONS = 6
PLAN_COST_MISSIONS = 40


def relabelled(sc: Scenario) -> tuple[Scenario, dict[int, int]]:
    """Target id -> n + 1 - id, each target otherwise unchanged."""
    n = len(sc.targets)
    new_id = {t.id: n + 1 - t.id for t in sc.targets}
    targets = tuple(dataclasses.replace(t, id=new_id[t.id]) for t in sc.targets)
    return dataclasses.replace(sc, targets=targets), new_id


def mirrored(sc: Scenario) -> Scenario:
    """Depot and targets reflected across the world's vertical midline."""
    w = sc.world.width
    return dataclasses.replace(
        sc, depot=Point2D(w - sc.depot.x, sc.depot.y),
        targets=tuple(dataclasses.replace(t, position=Point2D(w - t.position.x, t.position.y))
                      for t in sc.targets))


def scaled(sc: Scenario, k: float) -> Scenario:
    """Every length times k, every duration and fuel amount unchanged:
    speeds and r_max times k, fuel per meter divided by k."""
    p = sc.params
    params = dataclasses.replace(
        p, v_uav=p.v_uav * k, v_ugv=p.v_ugv * k, fuel_per_meter=p.fuel_per_meter / k,
        r_max=None if p.r_max is None else p.r_max * k)
    return Scenario(
        world=World(sc.world.width * k, sc.world.height * k),
        depot=Point2D(sc.depot.x * k, sc.depot.y * k),
        params=params,
        targets=tuple(dataclasses.replace(t, position=Point2D(t.position.x * k, t.position.y * k))
                      for t in sc.targets))


def scale_record(rec: dict, k: float) -> dict:
    """A trace record as the scaled mission must write it: positions, arcs
    and odometers times k, everything else as it is."""
    if "kind" not in rec:
        return {**rec, **{key: [v * k for v in rec[key]] for key in ("uav", "ugv", "site")}}
    detail = dict(rec["detail"])
    if "site" in detail:
        detail["site"] = [v * k for v in detail["site"]]
    for key in ("site_arc", "uav_odo", "ugv_odo"):
        if key in detail:
            detail[key] *= k
    return {**rec, "detail": detail}


def records(sc: Scenario) -> list[dict]:
    """The run's tick records, then its event records."""
    _, ticks, events = traced_run(sc)
    return ticks + events


def scale_mismatch(i: int, k: float) -> str | None:
    """Where mission i's trace and its k-scaled mission's trace first part,
    or None when every record of the scaled trace is exactly the scaled
    record."""
    sc = acceptance7(i)
    base, other = records(sc), records(scaled(sc, k))
    for line, (want, got) in enumerate(zip(base, other)):
        if scale_record(want, k) != got:
            return f"mission {9000 + i}, k={k}, record {line}: {want} -> {got}"
    if len(base) != len(other):
        return f"mission {9000 + i}, k={k}: {len(base)} -> {len(other)} records"
    return None


def test_relabelled_targets_give_the_same_plan():
    for i in range(RELABEL_MISSIONS):
        sc = acceptance7(i)
        other, new_id = relabelled(sc)
        plan, got = plan_mission(sc), plan_mission(other)
        assert len(got.segments) == len(plan.segments), 9000 + i
        for want, seg in zip(plan.segments, got.segments):
            assert seg.path.vertices == want.path.vertices, 9000 + i
            assert seg.target_arcs == tuple((new_id[tid], arc) for tid, arc in want.target_arcs)


def outcomes(sc: Scenario, cfg) -> tuple:
    """The run's report and the (segment, case) of its case events, read
    from the trace sink; the tick lines are left undecoded."""
    buf = io.StringIO()
    rep = run(sc, cfg, trace_file=buf)
    lines = buf.getvalue().splitlines()
    return rep, segment_cases(json.loads(line) for line in lines if '"kind":"case"' in line)


def test_mirrored_mission_gives_the_same_outcomes():
    """Equal segment-outcome sequences and mission_time equal to rounding."""
    cfg = sim.SimConfig()
    for i in range(MIRROR_MISSIONS):
        sc = acceptance7(i)
        (base, base_cases), (other, other_cases) = outcomes(sc, cfg), outcomes(mirrored(sc), cfg)
        assert other.status == base.status == "completed", 9000 + i
        assert other_cases == base_cases, 9000 + i
        shift = other.metrics["mission_time"] - base.metrics["mission_time"]
        assert abs(shift) <= 1e-9, (9000 + i, shift)


@pytest.mark.parametrize("k", [2.0, 0.5])
def test_scaled_mission_gives_the_scaled_trace(k):
    for i in range(SCALE_MISSIONS):
        assert scale_mismatch(i, k) is None


def with_tau(sc: Scenario, tid: int, tau: float) -> Scenario:
    return dataclasses.replace(sc, targets=tuple(
        dataclasses.replace(t, tau=tau) if t.id == tid else t for t in sc.targets))


def trace_lines(sc: Scenario, plan, cap: float | None = None) -> list[str]:
    """The run's JSONL lines, ticks and events in the order written, up to
    the time cap.  The closing end event is left out: a capped run writes
    its own at the cap."""
    buf = io.StringIO()
    run(sc, sim.SimConfig(max_mission_time=cap), plan=plan, trace_file=buf)
    return [line for line in buf.getvalue().splitlines() if '"kind":"end"' not in line]


def completions(lines: list[str]) -> dict[int, float]:
    """Target id -> the instant of its "complete" event."""
    events = (json.loads(line) for line in lines if '"kind":"complete"' in line)
    return {e["detail"]["target"]: e["t"] for e in events}


def first_difference_at(base: list[str], other: list[str]) -> float:
    """The instant of the first line where the runs part, or inf when one
    run's lines are a prefix of the other's."""
    k = 0
    while k < len(base) and k < len(other) and base[k] == other[k]:
        k += 1
    if k == len(base) or k == len(other):
        return math.inf
    return min(json.loads(base[k])["t"], json.loads(other[k])["t"])


def progress_when_abandoned(sc: Scenario, lines: list[str]) -> dict[int, tuple[float, float]]:
    """Target id -> (instant, fuel burned on it) of the first abandonment
    of each target, worked out from the trace alone.  The abandoned target
    is its first visit's; the UAV flew to it straight from its last stop,
    the segment's start or the last target it completed there, and fuel
    burns at burn_rate in flight and in processing alike."""
    p = sc.params
    position = {t.id: t.position for t in sc.targets}
    stop = (0.0, sc.depot)  # the instant the UAV left its last stop, and where
    out: dict[int, tuple[float, float]] = {}
    for line in lines:
        if '"kind"' not in line:
            continue
        e = json.loads(line)
        kind, detail = e["kind"], e["detail"]
        if kind == "refuel":
            stop = (e["t"], Point2D(*detail["site"]))
        elif kind == "complete":
            stop = (e["t"], position[detail["target"]])
        elif kind == "abandon" and detail["targets"][0] not in out:
            tid = detail["targets"][0]
            t_left, at = stop
            arrived = t_left + distance(at, position[tid]) / p.v_uav
            out[tid] = (e["t"], p.burn_rate * (e["t"] - arrived))
    return out


def test_online_decisions_are_blind_to_unrevealed_costs():
    """Raise one target's cost by 7: both runs write the same lines before
    the instant the base run completes that target.  Set an abandoned
    target's cost to half a tick's burn past what it had burned when
    abandoned, so that it would complete in the tick it was abandoned in:
    the lookahead must abandon it all the same, and the runs stay equal
    up to the instant the changed run completes it."""
    dt = sim.SimConfig().dt
    cases = 0
    # missions 188 and 416 relay their rendezvous toward a lone target
    for i in [*range(COST_MISSIONS), 188, 416]:
        sc = acceptance7(i)
        plan = plan_mission(sc)
        base = trace_lines(sc, plan)
        done = completions(base)
        tau = {t.id: t.tau for t in sc.targets}
        changes = [(tid, tau[tid] + 7.0, t) for tid, t in list(done.items())[::3]]
        changes += [(tid, burned + 0.5 * sc.params.burn_rate * dt, t)
                    for tid, (t, burned) in progress_when_abandoned(sc, base).items()]
        for tid, changed, t in changes:
            other = trace_lines(with_tau(sc, tid, changed), plan, cap=t + 2 * dt)
            got = completions(other)
            cut = min(done.get(tid, math.inf), got.get(tid, math.inf))
            assert first_difference_at(base, other) >= cut, (9000 + i, tid, changed)
            cases += 1
    assert cases >= 90


def test_plans_are_blind_to_costs():
    for i in range(PLAN_COST_MISSIONS):
        sc = acceptance7(i)
        want = emit_plan(plan_mission(sc))
        for costs in (CostModel(kind="uniform", low=0.0, high=100.0, seed=5000 + i),
                      CostModel(kind="uniform", low=0.0, high=0.0)):
            other = generate_scenario(len(sc.targets), seed=9000 + i, cost_model=costs)
            assert [t.position for t in other.targets] == [t.position for t in sc.targets]
            assert [t.tau for t in other.targets] != [t.tau for t in sc.targets]
            assert emit_plan(plan_mission(other)) == want, 9000 + i
