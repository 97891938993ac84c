"""String-model replanning primitives against hand-worked numbers."""
from __future__ import annotations

import math

import pytest

from conftest import DEFAULT_PARAMS, bend_plan, line_plan
from fuelstring.geometry import (
    EPS_GEOM,
    Point2D,
    Polyline,
    distance,
    farthest_site_arc,
)
from fuelstring.model import VehicleParams
from fuelstring.offline import PlanningError, SegmentPlan, segment_violations
from fuelstring.online import (
    Case,
    Mode,
    SegmentState,
    backtrack_site,
    check_abandonment,
    on_processing_tick,
    on_transit_tick,
    transfer_and_repair,
    ugv_reachable,
)
from fuelstring.rng import SplitMix64

P = Point2D


def started_line_state(fuel: float = 50.0) -> SegmentState:
    return SegmentState.begin(line_plan().segments[0], ordinal=0, fuel=fuel)


def test_begin_loads_full_segment():
    st = started_line_state()
    assert st.uav_arc == 0.0
    assert st.site_arc == 20.0
    assert st.pending == ((1, 10.0),)
    assert st.mode == Mode.TRANSIT
    assert st.site_position is st.plan.site == P(20.0, 0.0)
    assert st.uav_position == P(0.0, 0.0)


def test_backtrack_site_follows_remaining_fuel():
    st = started_line_state()
    st.uav_arc = 10.0
    assert backtrack_site(st, 5.0, DEFAULT_PARAMS) == 15.0
    assert backtrack_site(st, 50.0, DEFAULT_PARAMS) == 20.0  # never advances
    assert backtrack_site(st, 0.0, DEFAULT_PARAMS) == 10.0
    assert backtrack_site(st, -3.0, DEFAULT_PARAMS) == 10.0  # clamped at the UAV


def test_ugv_reachable_boundary_counts():
    assert ugv_reachable(P(17.5, 0), P(15, 0), 5.0, DEFAULT_PARAMS)
    assert not ugv_reachable(P(18.01, 0), P(15, 0), 5.0, DEFAULT_PARAMS)
    assert not ugv_reachable(P(15, 0), P(15, 0), -0.001, DEFAULT_PARAMS)
    assert ugv_reachable(P(15, 0), P(15, 0), 0.0, DEFAULT_PARAMS)


def test_transit_stops_exactly_on_the_target():
    st = started_line_state()
    used, arrival = on_transit_tick(st, 9.5, DEFAULT_PARAMS)
    assert (used, arrival) == (9.5, None)
    assert st.uav_arc == 9.5 and st.fuel == 40.5

    used, arrival = on_transit_tick(st, 1.0, DEFAULT_PARAMS)
    assert (used, arrival) == (0.5, "target")
    assert st.uav_arc == 10.0 and st.fuel == 40.0
    assert st.mode == Mode.PROCESSING
    assert st.current == 1
    assert st.pending == ()


def test_transit_stops_exactly_on_the_site():
    st = SegmentState.begin(line_plan().segments[1], ordinal=1, fuel=50.0)
    used, arrival = on_transit_tick(st, 100.0, DEFAULT_PARAMS)
    assert (used, arrival) == (20.0, "site")
    assert st.uav_arc == st.site_arc == 20.0
    assert st.fuel == 30.0


def test_processing_drags_site_and_defers_passed_targets():
    st = SegmentState.begin(bend_plan().segments[0], ordinal=0, fuel=30.0)
    used, arrival = on_transit_tick(st, 2.0, DEFAULT_PARAMS)
    assert arrival == "target" and st.current == 1
    assert st.fuel == 28.0

    assert on_processing_tick(st, 10.0, False, DEFAULT_PARAMS) == []
    assert st.site_arc == 20.0 and st.case == Case.NO_REPLAN  # still slack

    assert on_processing_tick(st, 4.0, False, DEFAULT_PARAMS) == []
    assert st.site_arc == 16.0 and st.case == Case.BACKTRACK_ALL_VISITED  # taut, dragging

    skipped = on_processing_tick(st, 2.0, False, DEFAULT_PARAMS)
    assert skipped == [2]  # site at 14 passed the pending target at 15
    assert st.site_arc == 14.0
    assert st.pending == ()
    assert st.deferred == ((2, P(7.0, 4.0)),)

    assert on_processing_tick(st, 0.0, True, DEFAULT_PARAMS) == []
    assert st.mode == Mode.TRANSIT and st.current is None
    assert st.case == Case.BACKTRACK_SKIP


def test_processing_defers_a_passed_suffix_of_equal_arcs():
    # a segment can hold equal arcs (coincident stops); the site
    # passes a target only once it is more than EPS_GEOM short of its arc
    plan = SegmentPlan(index=3, path=Polyline([P(0, 0), P(20, 0)]),
                       target_arcs=((1, 2.0), (2, 8.0), (3, 8.0), (4, 12.0)))
    st = SegmentState.begin(plan, ordinal=3, fuel=50.0)
    assert on_transit_tick(st, 2.0, DEFAULT_PARAMS) == (2.0, "target")
    assert st.current == 1 and st.fuel == 48.0

    # taut: the site follows the fuel to 0.5 EPS_GEOM past the pair at 8
    assert on_processing_tick(st, 42.0 - 0.5 * EPS_GEOM, False, DEFAULT_PARAMS) == [4]
    assert 8.0 < st.site_arc < 8.0 + EPS_GEOM
    assert st.pending == ((2, 8.0), (3, 8.0))
    # 0.5 EPS_GEOM short of them: still within EPS_GEOM, both kept
    assert on_processing_tick(st, EPS_GEOM, False, DEFAULT_PARAMS) == []
    assert 8.0 - EPS_GEOM < st.site_arc < 8.0
    assert st.pending == ((2, 8.0), (3, 8.0))
    # 1.5 EPS_GEOM short: both passed in one tick, in visit order
    assert on_processing_tick(st, EPS_GEOM, False, DEFAULT_PARAMS) == [2, 3]
    assert st.pending == ()
    assert st.deferred == ((2, P(8.0, 0.0)), (3, P(8.0, 0.0)), (4, P(12.0, 0.0)))
    assert st.case == Case.BACKTRACK_SKIP


def test_the_site_point_moves_with_the_string():
    st = SegmentState.begin(bend_plan().segments[0], ordinal=0, fuel=30.0)
    assert st.site_position is st.plan.site == P(4.0, 8.0)
    on_transit_tick(st, 2.0, DEFAULT_PARAMS)
    assert st.uav_position == st.plan.path.point_at_arc(2.0) == P(2.0, 0.0)
    site = st.site_position
    on_processing_tick(st, 10.0, False, DEFAULT_PARAMS)  # slack: the site holds
    assert st.site_arc == 20.0 and st.site_position is site
    on_processing_tick(st, 4.0, False, DEFAULT_PARAMS)  # taut: drags the site to 16
    assert st.site_arc == 16.0
    assert st.site_position == st.plan.path.point_at_arc(16.0) == P(6.4, 4.8)
    st.uav_arc = 10.0
    assert st.uav_position == st.plan.path.point_at_arc(10.0) == P(10.0, 0.0)


def test_an_approving_lookahead_leaves_the_state_untouched():
    st = SegmentState.begin(bend_plan().segments[0], ordinal=0, fuel=30.0)
    on_transit_tick(st, 2.0, DEFAULT_PARAMS)
    on_processing_tick(st, 12.0, False, DEFAULT_PARAMS)  # a taut string: the site at 18
    assert st.site_position == st.plan.path.point_at_arc(18.0)
    before = dict(vars(st))
    # the rest of the tick would drag the site to 17, still in the UGV's reach
    assert check_abandonment(st, P(4.0, 0.0), 0.5, DEFAULT_PARAMS) is None
    assert vars(st) == before


def test_abandonment_fires_one_tick_before_losing_the_site():
    def processing_state(fuel: float) -> SegmentState:
        st = started_line_state()
        st.uav_arc = 10.0
        st.current = 1
        st.pending = ()
        st.mode = Mode.PROCESSING
        st.fuel = fuel
        st.site_arc, st.site_position = 15.0, st.plan.path.point_at_arc(15.0)
        return st

    # present state is exactly reachable, one more tick is not
    st = processing_state(5.0)
    assert ugv_reachable(P(17.5, 0), st.site_position, st.fuel, DEFAULT_PARAMS)
    deferred = check_abandonment(st, P(17.5, 0), 0.05, DEFAULT_PARAMS)
    assert deferred == [1]
    assert st.mode == Mode.TO_RENDEZVOUS
    assert st.case == Case.ABANDON_RENDEZVOUS and st.current is None
    assert st.deferred == ((1, P(10.0, 0.0)),)

    # a slightly closer ground vehicle keeps the margin
    st = processing_state(5.0)
    assert check_abandonment(st, P(17.3, 0), 0.05, DEFAULT_PARAMS) is None
    assert st.mode == Mode.PROCESSING

    # imminent fuel exhaustion forces the call even with the UGV on site
    st = processing_state(0.04)
    st.site_arc, st.site_position = 10.04, st.plan.path.point_at_arc(10.04)
    assert check_abandonment(st, st.site_position, 0.05, DEFAULT_PARAMS) == [1]


def test_repair_walks_terminal_back_along_the_path():
    nxt = SegmentPlan(index=1, path=Polyline([P(35, 0), P(10, 0)]))
    plan, shed, modified = transfer_and_repair(
        P(0, 0), [(9, P(35, 0))], nxt, P(0, 0), DEFAULT_PARAMS, ordinal=1)
    assert plan.path.vertices == (P(0, 0), P(35, 0), P(20, 0))
    assert math.isclose(plan.length, 50.0, abs_tol=1e-9)
    assert plan.target_arcs == ((9, 35.0),)
    assert plan.site == P(20.0, 0.0)  # pulled back 10 from the planned (10, 0)
    assert shed == [] and modified


def test_repair_sheds_unreachable_tail_targets():
    nxt = SegmentPlan(index=5, path=Polyline([P(45, 0), P(30, 0)]))
    plan, shed, modified = transfer_and_repair(
        P(0, 0), [(1, P(20, 0)), (2, P(45, 0))], nxt, P(0, 0),
        DEFAULT_PARAMS, ordinal=1)
    assert shed == [(2, P(45.0, 0.0))]
    assert plan.path.vertices == (P(0, 0), P(20, 0), P(25, 0))
    assert plan.target_arcs == ((1, 20.0),)
    assert plan.site == P(25.0, 0.0)
    assert modified


def test_repair_doubles_back_when_terminal_is_hopeless():
    # no point on the way to (0, 40) lies within 10 of the start, so the
    # leg abandons the terminal and returns to its own start instead
    tight = VehicleParams(v_uav=2.0, v_ugv=1.0, fuel_capacity=50.0,
                          fuel_per_meter=1.0, r_max=10.0)
    nxt = SegmentPlan(index=3, path=Polyline([P(20, 0), P(0, 40)]))
    plan, shed, modified = transfer_and_repair(
        P(0, 0), [(5, P(20, 0))], nxt, P(0, 0), tight, ordinal=1)
    assert plan.path.vertices == (P(0, 0), P(20, 0), P(0, 0))
    assert plan.target_arcs == ((5, 20.0),)
    assert plan.site == P(0.0, 0.0)
    assert shed == [] and modified


def test_repair_relays_the_site_toward_an_out_of_reach_target():
    # out-and-back from (0, 0) needs 80 of flight, but range + reach is only
    # 55: no site past the target is in reach, so each repair hops the site
    # 5 toward it, sheds the target, and the next repair starts there
    tight = VehicleParams(v_uav=2.0, v_ugv=1.0, fuel_capacity=50.0,
                          fuel_per_meter=1.0, r_max=5.0)
    start, deferred = P(0, 0), [(7, P(40, 0))]
    for hop in (P(5, 0), P(10, 0), P(15, 0)):
        plan, shed, modified = transfer_and_repair(start, deferred, None, P(0, 0),
                                                   tight, ordinal=2)
        assert plan.path.vertices == (start, hop) and plan.target_arcs == ()
        assert shed == deferred and modified
        start = plan.site
    # from (15, 0) the out-and-back is 50, the whole range
    plan, shed, modified = transfer_and_repair(start, deferred, None, P(0, 0),
                                               tight, ordinal=2)
    assert plan.path.vertices == (P(15, 0), P(40, 0), P(15, 0))
    assert plan.target_arcs == ((7, 25.0),)
    assert shed == [] and modified


def test_repair_names_the_limits_of_a_leg_with_no_site():
    # a reach within EPS_GEOM of zero leaves no site on any leg
    blind = VehicleParams(v_uav=2.0, v_ugv=1.0, fuel_capacity=50.0,
                          fuel_per_meter=1.0, r_max=1e-10)
    with pytest.raises(PlanningError, match=r"^infeasible leg from \(0, 0\): no refuel "
                                            r"site within range 50 and reach 1e-10$"):
        transfer_and_repair(P(0, 0), [(7, P(40, 0))], None, P(0, 0), blind, ordinal=2)


def test_repair_names_a_thread_too_long_for_a_float():
    with pytest.raises(ValueError, match=r"^non-finite edge at \(1e\+308, 0\)$"):
        transfer_and_repair(P(0, 0), [(1, P(1e308, 0)), (2, P(-1e308, 0))], None,
                            P(0, 0), DEFAULT_PARAMS, ordinal=1)


def test_repair_names_a_terminal_edge_too_long_for_a_float():
    # the target's arc already exceeds the range, so the candidate is shed
    # without building its path: only the guard sees the overflow
    with pytest.raises(ValueError, match=r"^non-finite edge at \(1e\+308, 0\)$"):
        transfer_and_repair(P(0, 0), [(1, P(1e308, 0))], None,
                            P(-1e308, 0), DEFAULT_PARAMS, ordinal=1)


def test_repair_passes_clean_segments_through():
    nxt = line_plan().segments[1]
    plan, shed, modified = transfer_and_repair(
        P(20, 0), [], nxt, P(0, 0), DEFAULT_PARAMS, ordinal=1)
    assert not modified and shed == []
    assert plan.path.vertices == (P(20, 0), P(0, 0))
    assert plan.target_arcs == ()


def test_repair_reanchors_after_short_rendezvous():
    # the rendezvous landed at (15, 0), short of the planned start (20, 0)
    plan, shed, modified = transfer_and_repair(
        P(15, 0), [], line_plan().segments[1], P(0, 0), DEFAULT_PARAMS, ordinal=1)
    assert plan.path.vertices == (P(15, 0), P(0, 0))
    assert not modified


def test_repair_rethreads_straight_through_targets():
    """Old path vertices are dropped; only targets and the terminal matter.

    The 26 m site gap needs the faster chase vehicle; at v_ugv=1 the reach
    limit would rightly truncate this thread instead.
    """
    wide = VehicleParams(v_uav=2.0, v_ugv=2.0, fuel_capacity=50.0,
                         fuel_per_meter=1.0)
    nxt = SegmentPlan(index=1, path=Polyline([P(20, 0), P(30, 0), P(40, 0)]),
                      target_arcs=((8, 10.0),))
    plan, shed, modified = transfer_and_repair(
        P(14, 0), [(7, P(15, 0))], nxt, P(0, 0), wide, ordinal=1)
    assert plan.path.vertices == (
        P(14, 0), P(15, 0), P(30, 0), P(40, 0))
    assert plan.path.length == pytest.approx(26.0, abs=1e-12)
    assert plan.target_arcs == ((7, 1.0), (8, 16.0))
    assert shed == [] and not modified


def test_repair_keeps_deferred_target_at_the_rendezvous():
    plan, shed, modified = transfer_and_repair(
        P(5, 0), [(3, P(5, 0))], None, P(0, 0), DEFAULT_PARAMS, ordinal=1)
    assert plan.target_arcs == ((3, 0.0),)  # may start directly on it
    assert plan.path.vertices == (P(5, 0), P(0, 0))
    assert not modified


def test_repair_threads_deferred_before_planned_targets():
    nxt = SegmentPlan(index=2, path=Polyline([P(3, 0), P(9, 0), P(12, 0)]),
                      target_arcs=((6, 6.0),))
    plan, shed, modified = transfer_and_repair(
        P(0, 0), [(4, P(3, 0))], nxt, P(0, 0), DEFAULT_PARAMS, ordinal=2)
    assert plan.target_arcs == ((4, 3.0), (6, 9.0))
    assert plan.site == P(12.0, 0.0)
    assert not modified and shed == []


def reference_repair(start, deferred, next_plan, depot, params, ordinal):
    """transfer_and_repair as it was written before the leg was threaded
    once: every candidate re-threads its whole leg and builds a new path.
    Also returns whether the out-and-back last resort was taken; where it
    finds no site past the target, its leg stops short as a relay hop."""
    entries = list(deferred)
    if next_plan is not None:
        entries += [(tid, next_plan.path.point_at_arc(arc))
                    for tid, arc in next_plan.target_arcs]
        terminal = next_plan.site
    else:
        terminal = depot
    reach = params.reach_radius
    max_len = params.flight_range
    shed = []
    modified = False
    out_and_back = False
    while True:
        pts, arcs = reference_thread_path(start, [p for _, p in entries], terminal)
        target_arcs = arcs[1:-1]
        if len(pts) >= 2:
            path = Polyline(pts)
            lo = target_arcs[-1] if target_arcs else 0.0
            best = farthest_site_arc(path, 0.0 if out_and_back else lo,
                                     min(path.length, max_len), start, reach)
            if best is not None:
                if best <= lo + EPS_GEOM:  # the hop visits nothing
                    shed[:0], entries = entries, []
                if best < path.length - EPS_GEOM:
                    path = path.sub_polyline(0.0, best)
                    modified = True
                plan = SegmentPlan(
                    index=ordinal,
                    path=path,
                    target_arcs=tuple((tid, arc) for (tid, _), arc in zip(entries, target_arcs)),
                )
                return plan, shed, modified, out_and_back
        if out_and_back or not entries:
            raise PlanningError(
                f"infeasible leg from ({start.x:.6g}, {start.y:.6g}): no refuel site "
                f"within range {max_len:.6g} and reach {reach:.6g}")
        if len(entries) == 1:
            terminal = start
            out_and_back = True
        else:
            shed.insert(0, entries.pop())
        modified = True


def reference_thread_path(start, waypoints, terminal):
    uniq = [start]
    for p in waypoints + [terminal]:
        if distance(uniq[-1], p) > EPS_GEOM:
            uniq.append(p)
    cum = [0.0]
    for a, b in zip(uniq, uniq[1:]):
        cum.append(cum[-1] + distance(a, b))
    arcs = [0.0]
    j = 0
    for p in waypoints + [terminal]:
        if distance(uniq[j], p) > EPS_GEOM:
            j += 1
        arcs.append(cum[j])
    return uniq, arcs


def repair_case(seed: int, family: str):
    """One seeded transfer_and_repair input.  Points lie on a 2.5 m lattice,
    so coincident stops and exact distance ties are common."""
    rng = SplitMix64(seed)

    def pick(options):
        return options[rng.next_u64() % len(options)]

    def point(span=16):
        return P(2.5 * (rng.next_u64() % span), 2.5 * (rng.next_u64() % span) * pick((0, 1, 1)))

    def path_from(first, count, span=16):
        verts = [first]
        while len(verts) < count:
            p = point(span)
            if distance(verts[-1], p) > EPS_GEOM:
                verts.append(p)
        return Polyline(verts)

    params = VehicleParams(v_uav=2.0, v_ugv=pick((0.4, 1.0, 2.0, 4.0)),
                           fuel_capacity=pick((15.0, 30.0, 50.0, 80.0)),
                           fuel_per_meter=pick((1.0, 1.0, 0.5)),
                           r_max=pick((None, None, 5.0, 10.0, 25.0)))
    start, depot = point(), point()
    ids = iter(range(1, 100))
    deferred = [(next(ids), point()) for _ in range(rng.next_u64() % 4)]
    next_plan = None
    if family == "start":
        deferred.insert(0, (next(ids), start))
    if family == "tail":
        path = path_from(point(), 4 + rng.next_u64() % 8, span=24)
        arcs = path.cumulative_arc[1:-1]
        next_plan = SegmentPlan(index=9, path=path,
                                target_arcs=tuple((next(ids), a) for a in arcs))
    elif family == "lone":
        # one far target and a tight reach: out-and-back, or nothing fits
        params = VehicleParams(v_uav=2.0, v_ugv=1.0, fuel_capacity=50.0,
                               fuel_per_meter=1.0, r_max=pick((2.0, 5.0, 10.0)))
        start = P(0.0, 0.0)
        deferred = [(next(ids), P(2.5 * (8 + rng.next_u64() % 12), 0.0))]
        depot = P(0.0, 2.5 * (rng.next_u64() % 20))
    elif family == "empty":
        # a bare run to the depot: none when it sits on the start, or when
        # no candidate arc lies within a 0.3 m reach
        params = VehicleParams(r_max=pick((None, 0.3)))
        deferred = []
        depot = pick((start, point()))
    elif rng.next_u64() % 5:
        path = path_from(pick((point(), start)), 2 + rng.next_u64() % 5)
        arcs = [a for a in path.cumulative_arc[1:-1] if rng.next_u64() % 3]
        if rng.next_u64() % 2:
            arcs.append(path.length * (rng.next_u64() % 1000) / 1000.0)
        arcs = sorted(a for a in arcs if EPS_GEOM < a < path.length - EPS_GEOM)
        next_plan = SegmentPlan(index=9, path=path,
                                target_arcs=tuple((next(ids), a) for a in arcs))
    return start, deferred, next_plan, depot, params


def test_repair_matches_rethreading_reference():
    families = ["mixed"] * 140 + ["start"] * 30 + ["tail"] * 50 + ["lone"] * 40 + ["empty"] * 20
    seen = {"shed": 0, "trimmed": 0, "out_and_back": 0, "relay": 0, "start": 0, "no site": 0}
    shared = 0  # plans whose coincident targets share an arc past 0
    for seed, family in enumerate(families):
        args = repair_case(1000 + seed, family)
        try:
            want = reference_repair(*args, ordinal=4)
        except PlanningError as exc:
            with pytest.raises(PlanningError) as got:
                transfer_and_repair(*args, ordinal=4)
            assert str(got.value) == str(exc), (seed, family)
            seen["no site"] += 1
            continue
        plan, shed, modified = transfer_and_repair(*args, ordinal=4)
        ref_plan, ref_shed, ref_modified, out_and_back = want
        # the repaired plan keeps the segment contract against the positions
        # it was handed, also with a target at its start or a shared arc
        _, deferred, next_plan, _, params = args
        positions = dict(deferred)
        if next_plan is not None:
            positions.update((tid, next_plan.path.point_at_arc(arc))
                             for tid, arc in next_plan.target_arcs)
        assert segment_violations(plan, params, positions) == [], (seed, family)
        arcs = [arc for _, arc in plan.target_arcs]
        seen["start"] += 0.0 in arcs
        shared += any(0.0 < a == b for a, b in zip(arcs, arcs[1:]))
        assert plan.index == ref_plan.index
        assert plan.path.vertices == ref_plan.path.vertices, (seed, family)
        assert plan.path.cumulative_arc == ref_plan.path.cumulative_arc, (seed, family)
        assert plan.target_arcs == ref_plan.target_arcs, (seed, family)
        assert (shed, modified) == (ref_shed, ref_modified), (seed, family)
        relay = out_and_back and not plan.target_arcs
        seen["shed"] += bool(shed) and not relay
        seen["trimmed"] += modified and not shed and not out_and_back
        seen["out_and_back"] += out_and_back and not relay
        seen["relay"] += relay
    assert all(count >= 5 for count in seen.values()), seen
    assert shared == 2, shared  # cases 41 and 114


def test_segment_case_only_rises():
    # bend segment: target 1 at arc 2, target 2 at arc 15, site at 20
    st = SegmentState.begin(bend_plan().segments[0], ordinal=0, fuel=30.0)
    on_transit_tick(st, 2.0, DEFAULT_PARAMS)
    assert st.case == Case.NO_REPLAN
    on_processing_tick(st, 10.0, False, DEFAULT_PARAMS)  # slack: the site stays
    assert st.case == Case.NO_REPLAN
    on_processing_tick(st, 4.0, False, DEFAULT_PARAMS)  # drags the site to 16
    assert st.case == Case.BACKTRACK_ALL_VISITED
    on_processing_tick(st, 1.0, False, DEFAULT_PARAMS)  # a second drag, to 15
    assert st.site_arc == 15.0 and st.case == Case.BACKTRACK_ALL_VISITED
    assert on_processing_tick(st, 1.0, False, DEFAULT_PARAMS) == [2]  # to 14, past 15
    assert st.case == Case.BACKTRACK_SKIP
    on_processing_tick(st, 1.0, False, DEFAULT_PARAMS)  # a later drag, to 13
    assert st.site_arc == 13.0 and st.case == Case.BACKTRACK_SKIP

    # the UGV far out of reach: the lookahead abandons the current target,
    # deferred where the UAV stands on its arc
    assert check_abandonment(st, P(40.0, 40.0), 0.05, DEFAULT_PARAMS) == [1]
    assert st.case == Case.ABANDON_RENDEZVOUS
    assert st.deferred == ((1, P(2.0, 0.0)), (2, P(7.0, 4.0)))


def test_abandonment_clears_pending_so_the_next_stop_is_the_site():
    # bend segment: target 1 at arc 2, target 2 at arc 15, site at 20.  The
    # UAV abandons at target 1 with target 2 still pending ahead; pending
    # alone picks the next stop, so the abandonment must empty it
    st = SegmentState.begin(bend_plan().segments[0], ordinal=0, fuel=30.0)
    assert on_transit_tick(st, 2.0, DEFAULT_PARAMS) == (2.0, "target")
    assert st.current == 1 and st.pending == ((2, 15.0),)
    assert check_abandonment(st, P(40.0, 40.0), 0.05, DEFAULT_PARAMS) == [1, 2]
    assert st.mode == Mode.TO_RENDEZVOUS and st.current is None
    assert st.pending == ()
    assert st.deferred == ((1, P(2.0, 0.0)), (2, P(7.0, 4.0)))
    used, arrival = on_transit_tick(st, 1e6, DEFAULT_PARAMS)
    assert arrival == "site"
    assert st.uav_arc == st.site_arc == 20.0
    assert used == 18.0
