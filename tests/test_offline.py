"""Tour building and fuel splitting against brute-force enumeration."""
from __future__ import annotations

import itertools
import math
import random
import time

import pytest

from conftest import collinear_scenario
from fuelstring.geometry import EPS_GEOM, Point2D, Polyline, distance
from fuelstring.model import Scenario, Target, VehicleParams, World
from fuelstring.offline import (
    MissionPlan,
    PlanningError,
    SegmentPlan,
    Violation,
    _two_opt,
    build_tour,
    plan_mission,
    segment_violations,
    split_tour,
    validate_plan,
)
from fuelstring.scenario_io import generate_scenario
from fuelstring.sim import SimConfig, run


def brute_force_tour_length(scenario: Scenario) -> float:
    """Exact optimum by enumerating every visit order."""
    best = math.inf
    pts = [t.position for t in scenario.targets]
    for perm in itertools.permutations(pts):
        chain = [scenario.depot] + list(perm) + [scenario.depot]
        best = min(best, sum(distance(a, b) for a, b in zip(chain, chain[1:])))
    return best


def single_target_scenario(x: float, y: float, fuel: float = 50.0,
                           r_max: float | None = None) -> Scenario:
    return Scenario(
        world=World(50.0, 50.0),
        depot=Point2D(0.0, 0.0),
        params=VehicleParams(v_uav=2.0, v_ugv=1.0, fuel_capacity=fuel,
                             fuel_per_meter=1.0, r_max=r_max),
        targets=(Target(id=7, position=Point2D(x, y), tau=0.0),),
    )


def test_tour_visits_each_target_once_in_arc_order():
    tour = build_tour(collinear_scenario())
    assert [tid for tid, _ in tour.visits] == [10, 20, 30, 40]
    assert [arc for _, arc in tour.visits] == [10.0, 20.0, 30.0, 40.0]
    assert tour.length == brute_force_tour_length(collinear_scenario()) == 80.0


def test_tour_improvement_pass_untangles_greedy_order():
    # greedy from the depot picks b first (nearest) and ends 0.11 long;
    # one edge swap reaches the enumerated optimum
    sc = Scenario(
        world=World(50.0, 50.0),
        depot=Point2D(0.0, 0.0),
        params=VehicleParams(),
        targets=(Target(id=1, position=Point2D(1.0, 10.0), tau=0.0),
                 Target(id=2, position=Point2D(1.1, 0.0), tau=0.0),
                 Target(id=3, position=Point2D(2.0, 10.0), tau=0.0)),
    )
    optimum = math.sqrt(101.0) + 1.0 + math.sqrt(100.81) + 1.1
    tour = build_tour(sc)
    assert abs(tour.length - optimum) <= 1e-9
    assert abs(tour.length - brute_force_tour_length(sc)) <= 1e-9


def test_tour_near_optimal_on_small_random_instances():
    # deterministic seeds; local search may miss the optimum but not by much
    for seed in range(8):
        sc = generate_scenario(7, seed=seed)
        positions = {t.id: t.position for t in sc.targets}
        tour = build_tour(sc)
        best = brute_force_tour_length(sc)
        assert tour.length <= best * 1.05 + 1e-9
        assert sorted(tid for tid, _ in tour.visits) == [t.id for t in sc.targets]
        arcs = [arc for _, arc in tour.visits]
        assert all(b > a for a, b in zip(arcs, arcs[1:]))
        for tid, arc in tour.visits:
            assert distance(tour.path.point_at_arc(arc), positions[tid]) <= 1e-9


def reference_two_opt(order: list[int], pos: dict[int, Point2D],
                      depot: Point2D) -> list[int]:
    """Restart-from-zero first-improvement 2-opt: after every applied move
    the scan starts again at the first pair.  _two_opt must return exactly
    this order."""
    if len(order) < 3:
        return order
    pts = [depot] + [pos[t] for t in order] + [depot]
    n = len(pts)
    improved = True
    while improved:
        improved = False
        for i in range(n - 3):
            for j in range(i + 2, n - 1):
                old = distance(pts[i], pts[i + 1]) + distance(pts[j], pts[j + 1])
                new = distance(pts[i], pts[j]) + distance(pts[i + 1], pts[j + 1])
                if new < old - EPS_GEOM:
                    pts[i + 1:j + 1] = pts[i + 1:j + 1][::-1]
                    order[i:j] = order[i:j][::-1]
                    improved = True
                    break
            if improved:
                break
    return order


def two_opt_cases():
    """200 seeded (start order, positions, depot) cases: generated scenarios
    with 3 to 60 targets, collinear targets, and lattices full of exact
    distance ties.  Start orders are shuffled so that 2-opt has work to do."""
    cases = []
    for seed in range(150):
        sc = generate_scenario(3 + seed % 58, seed=seed)
        cases.append(({t.id: t.position for t in sc.targets}, sc.depot))
    for seed in range(25):
        rng = random.Random(seed)
        xs = rng.sample(range(-40, 41), rng.randint(3, 30))
        slope = rng.choice((0.0, 1.0, -0.5, 3.0))
        cases.append(({k: Point2D(float(x), slope * x) for k, x in enumerate(xs)},
                      Point2D(0.0, 0.0)))
    for seed in range(25):
        rng = random.Random(1000 + seed)
        cells = rng.sample([(x, y) for x in range(8) for y in range(8)],
                           rng.randint(3, 40))
        pos = {k: Point2D(2.0 * x, 2.0 * y) for k, (x, y) in enumerate(cells[1:])}
        cases.append((pos, Point2D(2.0 * cells[0][0], 2.0 * cells[0][1])))
    out = []
    for k, (pos, depot) in enumerate(cases):
        order = sorted(pos)
        random.Random(k).shuffle(order)
        out.append((order, pos, depot))
    return out


def test_two_opt_matches_restarting_reference():
    moved = 0
    cases = two_opt_cases()
    assert len(cases) >= 200
    for order, pos, depot in cases:
        expected = reference_two_opt(list(order), pos, depot)
        points = [depot] + [pos[t] for t in order]
        dist = [[distance(p, q) for q in points] for p in points]
        tour = _two_opt(list(range(len(points))) + [0], dist)
        assert tour[0] == tour[-1] == 0
        assert [order[k - 1] for k in tour[1:-1]] == expected, (order, depot)
        moved += expected != order
    assert moved >= 190  # the cases exercise many moves, not just the scan


def test_split_collinear_tour_into_three_tanks():
    plan = plan_mission(collinear_scenario())
    assert [seg.length for seg in plan.segments] == [25.0, 50.0, 5.0]
    assert [(s.x, s.y) for s in plan.sites] == [(25.0, 0.0), (5.0, 0.0), (0.0, 0.0)]
    assert [seg.target_ids() for seg in plan.segments] == [[10, 20], [30, 40], []]
    assert plan.segments[0].target_arcs == ((10, 10.0), (20, 20.0))
    assert plan.segments[1].target_arcs == ((30, 5.0), (40, 15.0))
    assert validate_plan(plan, collinear_scenario()).ok


def test_split_single_far_target_cuts_on_return_leg():
    plan = plan_mission(single_target_scenario(30.0, 0.0))
    assert [seg.length for seg in plan.segments] == [50.0, 10.0]
    assert [(s.x, s.y) for s in plan.sites] == [(10.0, 0.0), (0.0, 0.0)]
    assert plan.segments[0].target_arcs == ((7, 30.0),)


def test_split_respects_rendezvous_cap():
    # capping the site-to-site distance at 8 forces short creeping hops
    plan = plan_mission(single_target_scenario(30.0, 0.0, r_max=8.0))
    assert [seg.length for seg in plan.segments] == [8.0, 50.0, 2.0]
    assert [(s.x, s.y) for s in plan.sites] == [(8.0, 0.0), (2.0, 0.0), (0.0, 0.0)]
    assert validate_plan(plan, single_target_scenario(30.0, 0.0, r_max=8.0)).ok


def test_split_creeps_under_a_tiny_rendezvous_cap():
    """Reach 0.2 against a range of 50, on the 60 m tour 0 -> 30 -> 0.

    On a straight edge chord equals arc, so each cut advances exactly the
    reach: 25 cuts reach x = 5.  From x = 4.8 the one-tank limit, arc 54.8,
    lies at x = 5.2 on the way back, 0.4 out, and the return leg comes
    within 0.2 of x = 4.8 only from arc 55 on; so that cut stops at x = 5.
    From x = 5 the limit, arc 55, is x = 5 itself: one 50 m out-and-back
    through the target at its arc 25.  Then 25 more cuts of 0.2 to the
    depot: 51 segments in all.
    """
    sc = single_target_scenario(30.0, 0.0, r_max=0.2)
    plan = plan_mission(sc)
    assert len(plan.segments) == 51
    for k, seg in enumerate(plan.segments):
        assert seg.length == pytest.approx(50.0 if k == 25 else 0.2, abs=1e-9)
        expect = 0.2 * (k + 1) if k < 25 else 0.2 * (50 - k)
        assert seg.site.x == pytest.approx(expect, abs=1e-9) and seg.site.y == 0.0
        assert seg.target_ids() == ([7] if k == 25 else [])
    assert plan.segments[25].target_arcs[0][1] == pytest.approx(25.0, abs=1e-9)
    assert plan.sites[-1] == Point2D(0.0, 0.0)
    assert validate_plan(plan, sc).ok


def test_split_refuses_a_plan_of_too_many_segments():
    # a 60 m tour over a 1e-8 reach asks for about 6e9 segments
    start = time.perf_counter()
    with pytest.raises(PlanningError, match=r"about 6e\+09 segments .*limit of 10000"):
        plan_mission(single_target_scenario(30.0, 0.0, r_max=1e-8))
    assert time.perf_counter() - start < 1.0


def tiny_range_scenario(x: float, fuel_per_meter: float) -> Scenario:
    return Scenario(world=World(1.0, 1.0), depot=Point2D(0.0, 0.0),
                    params=VehicleParams(v_ugv=100.0, fuel_per_meter=fuel_per_meter),
                    targets=(Target(id=1, position=Point2D(x, 0.0), tau=0.0),))


@pytest.mark.parametrize("x, fuel_per_meter, arc", [
    # range 5e-11 against reach 2.5e-9: no window is wider than EPS_GEOM
    (5e-9, 1e12, "0"),
])
def test_split_names_the_limits_that_leave_no_site(x, fuel_per_meter, arc):
    sc = tiny_range_scenario(x, fuel_per_meter)
    assert sc.params.reach_radius > sc.params.flight_range
    with pytest.raises(PlanningError, match=(
            rf"^cannot place a refuel site after arc {arc}: no arc more than EPS_GEOM "
            rf"1e-09 past it and within range {sc.params.flight_range:g} lies inside "
            rf"reach radius {sc.params.reach_radius:g}$")):
        plan_mission(sc)


def test_split_plans_a_range_of_5e_7_down_to_its_last_cut():
    """Range 5e-7 against reach 2.5e-5, on the 2e-3 m tour 0 -> 1e-3 -> 0:
    every cut advances one range, so 4000 segments.  The 2000th cut lands
    on the target, to rounding, and the target starts the next segment."""
    sc = tiny_range_scenario(1e-3, 1e8)
    plan = plan_mission(sc)
    assert len(plan.segments) == 4000
    [(k, ((tid, arc),))] = [(k, seg.target_arcs) for k, seg in enumerate(plan.segments)
                            if seg.target_arcs]
    assert (k, tid) == (2000, 1) and 0.0 <= arc < EPS_GEOM
    assert validate_plan(plan, sc).ok
    rep = run(sc, SimConfig(dt=1e-8, check_invariants=True), plan)
    assert rep.completed and rep.metrics["rendezvous_count"] == 3999


def test_generated_plans_validate_and_preserve_tour_length():
    for seed in range(10):
        sc = generate_scenario(8, seed=seed)
        tour = build_tour(sc)
        plan = split_tour(tour, sc.params)
        report = validate_plan(plan, sc)
        assert report.ok, report.describe()
        assert math.isclose(plan.total_length, tour.length, abs_tol=1e-6)


def test_validator_flags_start_end_and_coverage():
    sc = single_target_scenario(10.0, 0.0)
    plan = MissionPlan(segments=(
        SegmentPlan(index=0, path=Polyline([Point2D(1, 0), Point2D(12, 0)])),
    ))
    kinds = {v.kind for v in validate_plan(plan, sc).violations}
    assert {"start", "end", "missing-target"} <= kinds


def test_validator_flags_chain_break():
    sc = single_target_scenario(10.0, 0.0)
    plan = MissionPlan(segments=(
        SegmentPlan(index=0, path=Polyline([Point2D(0, 0), Point2D(20, 0)]),
                    target_arcs=((7, 10.0),)),
        SegmentPlan(index=1, path=Polyline([Point2D(21, 0), Point2D(0, 0)])),
    ))
    kinds = {v.kind for v in validate_plan(plan, sc).violations}
    assert "chain" in kinds


def test_validator_flags_over_length_and_site_gap():
    sc = single_target_scenario(30.0, 0.0)
    plan = MissionPlan(segments=(
        SegmentPlan(index=0, path=Polyline([Point2D(0, 0), Point2D(30, 0), Point2D(0, 0)]),
                    target_arcs=((7, 30.0),)),
    ))
    kinds = {v.kind for v in validate_plan(plan, sc).violations}
    assert "over-length" in kinds  # 60 > tank range 50

    sc2 = single_target_scenario(10.0, 0.0)
    plan2 = MissionPlan(segments=(
        SegmentPlan(index=0, path=Polyline([Point2D(0, 0), Point2D(40, 0)]),
                    target_arcs=((7, 10.0),)),
    ))
    kinds2 = {v.kind for v in validate_plan(plan2, sc2).violations}
    assert "site-gap" in kinds2  # 40 apart, ground vehicle covers 25


def test_validator_flags_target_placement():
    sc = Scenario(
        world=World(50.0, 50.0),
        depot=Point2D(0.0, 0.0),
        params=VehicleParams(),
        targets=(Target(id=1, position=Point2D(15.0, 0.0), tau=0.0),
                 Target(id=2, position=Point2D(10.0, 0.0), tau=0.0)),
    )
    plan = MissionPlan(segments=(
        SegmentPlan(index=0, path=Polyline([Point2D(0, 0), Point2D(20, 0), Point2D(0, 0)]),
                    target_arcs=((1, 15.0), (2, 10.0))),
    ))
    kinds = {v.kind for v in validate_plan(plan, sc).violations}
    assert "target-order" in kinds

    plan2 = MissionPlan(segments=(
        SegmentPlan(index=0, path=Polyline([Point2D(0, 0), Point2D(20, 0), Point2D(0, 0)]),
                    target_arcs=((1, 5.0), (2, 10.0))),
    ))
    kinds2 = {v.kind for v in validate_plan(plan2, sc).violations}
    assert "target-position" in kinds2  # arc 5 is (5, 0), not target 1

    plan3 = MissionPlan(segments=(
        SegmentPlan(index=0, path=Polyline([Point2D(0, 0), Point2D(20, 0), Point2D(0, 0)]),
                    target_arcs=((1, 0.0), (2, 10.0))),
    ))
    kinds3 = {v.kind for v in validate_plan(plan3, sc).violations}
    assert "target-position" in kinds3  # arc 0 of the first segment is the depot
    assert "target-arc" not in kinds3  # a segment's start is a target's arc


def test_validator_flags_duplicate_and_unknown_targets():
    sc = single_target_scenario(10.0, 0.0)
    seg = SegmentPlan(index=0, path=Polyline([Point2D(0, 0), Point2D(20, 0)]),
                      target_arcs=((7, 10.0),))
    seg2 = SegmentPlan(index=1, path=Polyline([Point2D(20, 0), Point2D(0, 0)]),
                       target_arcs=((7, 10.0),))
    violations = validate_plan(MissionPlan(segments=(seg, seg2)), sc).violations
    assert Violation("duplicate-target", "target 7 appears 2 times in the plan") in violations

    # listed twice in one segment: the count is over the plan, not segments
    twice = SegmentPlan(index=0, path=Polyline([Point2D(0, 0), Point2D(40, 0), Point2D(0, 0)]),
                        target_arcs=((7, 10.0), (7, 70.0)))
    violations = validate_plan(MissionPlan(segments=(twice,)), sc).violations
    assert [v for v in violations if v.kind == "duplicate-target"] == [
        Violation("duplicate-target", "target 7 appears 2 times in the plan")]

    seg3 = SegmentPlan(index=1, path=Polyline([Point2D(20, 0), Point2D(0, 0)]),
                       target_arcs=((99, 10.0),))
    violations = validate_plan(MissionPlan(segments=(seg, seg3)), sc).violations
    assert "unknown-target" in {v.kind for v in violations}
    # the unknown id is named once, not also as a failed position lookup
    assert [v.kind for v in violations if "99" in v.message] == ["unknown-target"]


def test_validator_reports_every_segment_rule_in_order():
    # segment 0 breaks each per-segment rule once: its length and site gap,
    # target 1 at arc 0 off its position, target 2 off its position, target
    # 3 before target 2, and target 4 past the end of the path
    P = Point2D
    sc = Scenario(world=World(80.0, 50.0), depot=P(0.0, 0.0), params=VehicleParams(),
                  targets=(Target(id=1, position=P(5.0, 0.0), tau=0.0),
                           Target(id=2, position=P(20.0, 5.0), tau=0.0),
                           Target(id=3, position=P(10.0, 0.0), tau=0.0),
                           Target(id=4, position=P(70.0, 0.0), tau=0.0)))
    plan = MissionPlan(segments=(
        SegmentPlan(index=0, path=Polyline([P(0, 0), P(60, 0)]),
                    target_arcs=((1, 0.0), (2, 20.0), (3, 10.0), (4, 70.0))),
        SegmentPlan(index=1, path=Polyline([P(60, 0), P(0, 0)])),
    ))
    assert validate_plan(plan, sc).describe() == (
        "over-length: segment 0 length 60 exceeds flight range 50\n"
        "site-gap: segment 0 site gap 60 exceeds reach radius 25\n"
        "target-position: target 1 arc 0 maps to (0, 0), expected (5, 0)\n"
        "target-position: target 2 arc 20 maps to (20, 0), expected (20, 5)\n"
        "target-order: target 3 arc 10 before previous arc 20 in segment 0\n"
        "target-arc: target 4 at arc 70 not inside segment 0 (length 60)\n"
        "target-position: target 4: arc 70.0 outside [0, 60.0]\n"
        "over-length: segment 1 length 60 exceeds flight range 50\n"
        "site-gap: segment 1 site gap 60 exceeds reach radius 25")


def test_repaired_segment_may_start_on_a_target_and_share_arcs():
    # one contract for planned and repaired segments alike
    P = Point2D
    params = VehicleParams()
    positions = {1: P(0.0, 0.0), 2: P(10.0, 0.0), 3: P(10.0, 0.0)}
    seg = SegmentPlan(index=3, path=Polyline([P(0, 0), P(20, 0)]),
                      target_arcs=((1, 0.0), (2, 10.0), (3, 10.0)))
    assert segment_violations(seg, params, positions) == []

    # a decreasing arc, a negative one, or one within EPS_GEOM of the site breaks it
    back = SegmentPlan(index=3, path=seg.path, target_arcs=((2, 10.0), (1, 0.0)))
    assert segment_violations(back, params, positions) == [
        Violation("target-order", "target 1 arc 0 before previous arc 10 in segment 3")]
    before = SegmentPlan(index=3, path=seg.path, target_arcs=((1, -EPS_GEOM),))
    assert [v.kind for v in segment_violations(before, params, positions)] == ["target-arc"]
    end = SegmentPlan(index=3, path=Polyline([P(0, 0), P(10, 0)]), target_arcs=((2, 10.0),))
    assert segment_violations(end, params, positions) == [
        Violation("target-arc", "target 2 at arc 10 not inside segment 3 (length 10)")]


def test_empty_plan_is_rejected():
    report = validate_plan(MissionPlan(segments=()), single_target_scenario(10.0, 0.0))
    assert not report.ok
    assert report.violations[0].kind == "empty"
    assert "plan ok" not in report.describe()
