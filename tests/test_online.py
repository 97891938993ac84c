"""String-model replanning primitives against hand-worked numbers."""
from __future__ import annotations

import math

import pytest

from conftest import DEFAULT_PARAMS, bend_plan, line_plan
from fuelstring.geometry import Point2D, Polyline
from fuelstring.model import VehicleParams
from fuelstring.offline import PlanningError, SegmentPlan
from fuelstring.online import (
    Case,
    Mode,
    SegmentState,
    backtrack_site,
    check_abandonment,
    classify_segment_outcome,
    on_processing_tick,
    on_transit_tick,
    slack,
    transfer_and_repair,
    ugv_reachable,
)

P = Point2D


def started_line_state(fuel: float = 50.0) -> SegmentState:
    return SegmentState.begin(line_plan().segments[0], ordinal=0, fuel=fuel)


def test_begin_loads_full_segment():
    st = started_line_state()
    assert st.uav_arc == 0.0
    assert st.site_arc == 20.0
    assert st.pending == [(1, 10.0)]
    assert st.mode is Mode.TRANSIT
    assert st.string_gap() == 20.0
    assert st.site_position == P(20.0, 0.0)
    assert st.uav_position == P(0.0, 0.0)


def test_slack_is_fuel_left_after_pure_flight():
    assert slack(line_plan().segments[0], DEFAULT_PARAMS) == 30.0
    assert slack(line_plan().segments[1], DEFAULT_PARAMS) == 30.0
    long = SegmentPlan(index=0, path=Polyline([P(0, 0), P(60, 0)]))
    with pytest.raises(ValueError, match="exceeds flight range"):
        slack(long, DEFAULT_PARAMS)


def test_backtrack_site_follows_remaining_fuel():
    st = started_line_state()
    st.uav_arc = 10.0
    st.fuel = 5.0
    assert backtrack_site(st, DEFAULT_PARAMS) == 15.0
    st.fuel = 50.0
    assert backtrack_site(st, DEFAULT_PARAMS) == 20.0  # never advances
    st.fuel = 0.0
    assert backtrack_site(st, DEFAULT_PARAMS) == 10.0
    st.fuel = -3.0
    assert backtrack_site(st, DEFAULT_PARAMS) == 10.0  # clamped at the UAV


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
    assert st.mode is Mode.PROCESSING
    assert st.current == 1 and st.current_arc == 10.0
    assert st.pending == []


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
    assert st.site_arc == 20.0 and not st.site_moved  # still slack

    assert on_processing_tick(st, 4.0, False, DEFAULT_PARAMS) == []
    assert st.site_arc == 16.0 and st.site_moved  # taut, dragging

    skipped = on_processing_tick(st, 2.0, False, DEFAULT_PARAMS)
    assert skipped == [2]  # site at 14 passed the pending target at 15
    assert st.site_arc == 14.0
    assert st.pending == []
    assert st.deferred == [(2, P(7.0, 4.0))]

    assert on_processing_tick(st, 0.0, True, DEFAULT_PARAMS) == []
    assert st.mode is Mode.TRANSIT and st.current is None
    assert classify_segment_outcome(st) is Case.BACKTRACK_SKIP


def test_cached_points_follow_their_arcs():
    st = SegmentState.begin(bend_plan().segments[0], ordinal=0, fuel=30.0)
    assert st.site_position == P(4.0, 8.0)
    on_transit_tick(st, 2.0, DEFAULT_PARAMS)
    assert st.uav_position == st.plan.path.point_at_arc(2.0) == P(2.0, 0.0)
    on_processing_tick(st, 14.0, False, DEFAULT_PARAMS)  # drags the site to 16
    assert st.site_arc == 16.0
    assert st.site_position == st.plan.path.point_at_arc(16.0) == P(6.4, 4.8)
    st.site_arc = 12.0  # a direct assignment, no setter involved
    assert st.site_position == st.plan.path.point_at_arc(12.0) == P(8.8, 1.6)
    st.uav_arc = 10.0
    assert st.uav_position == st.plan.path.point_at_arc(10.0) == P(10.0, 0.0)


def test_processing_tick_requires_processing_mode():
    st = started_line_state()
    with pytest.raises(ValueError):
        on_processing_tick(st, 1.0, False, DEFAULT_PARAMS)


def test_abandonment_fires_one_tick_before_losing_the_site():
    def processing_state(fuel: float) -> SegmentState:
        st = started_line_state()
        st.uav_arc = 10.0
        st.current, st.current_arc = 1, 10.0
        st.pending = []
        st.mode = Mode.PROCESSING
        st.fuel = fuel
        st.site_arc = 15.0
        return st

    # present state is exactly reachable, one more tick is not
    st = processing_state(5.0)
    assert ugv_reachable(P(17.5, 0), st.site_position, st.fuel, DEFAULT_PARAMS)
    deferred = check_abandonment(st, P(17.5, 0), 0.05, DEFAULT_PARAMS)
    assert deferred == [1]
    assert st.mode is Mode.TO_RENDEZVOUS
    assert st.abandoned and st.current is None
    assert st.deferred == [(1, P(10.0, 0.0))]

    # a slightly closer ground vehicle keeps the margin
    st = processing_state(5.0)
    assert check_abandonment(st, P(17.3, 0), 0.05, DEFAULT_PARAMS) is None
    assert st.mode is Mode.PROCESSING

    # imminent fuel exhaustion forces the call even with the UGV on site
    st = processing_state(0.04)
    st.site_arc = 10.04
    assert check_abandonment(st, st.site_position, 0.05, DEFAULT_PARAMS) == [1]


def test_abandonment_only_applies_while_processing():
    st = started_line_state()
    st.fuel = 0.01
    assert check_abandonment(st, P(40, 0), 0.05, DEFAULT_PARAMS) is None


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


def test_repair_raises_on_permanently_unreachable_target():
    # out-and-back needs 80 of flight but range + reach is only 55
    tight = VehicleParams(v_uav=2.0, v_ugv=1.0, fuel_capacity=50.0,
                          fuel_per_meter=1.0, r_max=5.0)
    with pytest.raises(PlanningError, match="target 7 permanently infeasible"):
        transfer_and_repair(P(0, 0), [(7, P(40, 0))], None, P(0, 0),
                            tight, ordinal=2)


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


def test_outcome_classification_precedence():
    st = started_line_state()
    assert classify_segment_outcome(st) is Case.NO_REPLAN
    st.site_moved = True
    assert classify_segment_outcome(st) is Case.BACKTRACK_ALL_VISITED
    st.skipped = [2]
    assert classify_segment_outcome(st) is Case.BACKTRACK_SKIP
    st.abandoned = True
    assert classify_segment_outcome(st) is Case.ABANDON_RENDEZVOUS
