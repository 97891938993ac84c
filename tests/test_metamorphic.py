"""Metamorphic relations: the same mission relabelled, mirrored or scaled must
give the same plan and the same trace, so these tests need no golden number.

The missions are the first ones of acceptance 7's recipe: mission i has
5 + SplitMix64(9000 + i).next_u64() % 26 targets, scenario seed 9000 + i and
uniform [0, 25] costs with cost seed 17 + i.
"""
from __future__ import annotations

import dataclasses

import pytest

from fuelstring import (
    CostModel,
    Point2D,
    Scenario,
    World,
    generate_scenario,
    plan_mission,
    run,
    sim,
)
from fuelstring.rng import SplitMix64

RELABEL_MISSIONS = 60
MIRROR_MISSIONS = 60
SCALE_MISSIONS = 6


def mission(i: int) -> Scenario:
    n = int(5 + SplitMix64(9000 + i).next_u64() % 26)
    return generate_scenario(n, seed=9000 + i, cost_model=CostModel(
        kind="uniform", low=0.0, high=25.0, seed=17 + i))


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
    """A trace record as the scaled mission must write it: positions and
    arcs times k, everything else as it is."""
    if "kind" not in rec:
        return {**rec, **{key: [v * k for v in rec[key]] for key in ("uav", "ugv", "site")}}
    detail = dict(rec["detail"])
    if "site" in detail:
        detail["site"] = [v * k for v in detail["site"]]
    if "site_arc" in detail:
        detail["site_arc"] *= k
    return {**rec, "detail": detail}


def scale_mismatch(i: int, k: float) -> str | None:
    """Where mission i's trace and its k-scaled mission's trace first part,
    or None when every record of the scaled trace is exactly the scaled
    record."""
    sc = mission(i)
    base, other = run(sc), run(scaled(sc, k))
    for line, (want, got) in enumerate(zip(base.trace, other.trace)):
        if scale_record(want, k) != got:
            return f"mission {9000 + i}, k={k}, record {line}: {want} -> {got}"
    if len(base.trace) != len(other.trace):
        return f"mission {9000 + i}, k={k}: {len(base.trace)} -> {len(other.trace)} records"
    return None


def test_relabelled_targets_give_the_same_plan():
    for i in range(RELABEL_MISSIONS):
        sc = mission(i)
        other, new_id = relabelled(sc)
        plan, got = plan_mission(sc), plan_mission(other)
        assert len(got.segments) == len(plan.segments), 9000 + i
        for want, seg in zip(plan.segments, got.segments):
            assert seg.path.vertices == want.path.vertices, 9000 + i
            assert seg.target_arcs == tuple((new_id[tid], arc) for tid, arc in want.target_arcs)


def test_mirrored_mission_gives_the_same_outcomes():
    """Equal segment-outcome sequences and mission_time equal to rounding."""
    cfg = sim.SimConfig(keep_trace=False)
    for i in range(MIRROR_MISSIONS):
        sc = mission(i)
        base, other = run(sc, cfg), run(mirrored(sc), cfg)
        assert other.status == base.status == "completed", 9000 + i
        assert other.segment_cases() == base.segment_cases(), 9000 + i
        shift = other.metrics["mission_time"] - base.metrics["mission_time"]
        assert abs(shift) <= 1e-9, (9000 + i, shift)


@pytest.mark.parametrize("k", [2.0, 0.5])
def test_scaled_mission_gives_the_scaled_trace(k):
    for i in range(SCALE_MISSIONS):
        assert scale_mismatch(i, k) is None
