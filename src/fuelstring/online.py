"""Online replanning during segment execution.

Remaining fuel behaves like a string tied between the UAV and its refuel
site, measured along the segment path: while slack remains the site stays
put; once taut, every unit burned in place drags the site back toward the
UAV.  Everything here works from revealed information only -- processing
costs enter as per-tick burn amounts and a done flag, never as totals.
A segment's state is that string plus the targets it still holds, and the
one outcome Case it has risen to so far.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .geometry import EPS_GEOM, Point2D, Polyline, distance, farthest_site_arc, step_toward
from .model import EPS_TIME, VehicleParams
from .offline import PlanningError, SegmentPlan


class Case:
    """Segment outcome classes, in escalating order of disruption: the ints
    a `case` event writes."""

    NO_REPLAN = 1            # slack covered all processing, site never moved
    BACKTRACK_ALL_VISITED = 2  # site moved but every target still got visited
    BACKTRACK_SKIP = 3       # site passed pending targets; they were deferred
    ABANDON_RENDEZVOUS = 4   # processing cut short to keep the site reachable
    SEGMENT_REPAIR = 5       # rebuilt segment exceeded the tank and was trimmed


class Mode:
    """What the UAV is doing: the strings a tick line's `mode` writes."""

    TRANSIT = "transit"
    PROCESSING = "processing"
    TO_RENDEZVOUS = "to_rendezvous"
    WAIT = "wait"


@dataclass
class SegmentState:
    """Live execution state of one segment.

    pending holds (target id, arc) pairs not yet visited, on arcs that keep
    offline.segment_violations' rules; deferred holds (id, position)
    pairs to prefix the next segment: those the repair shed when this segment
    began, with each skip or abandonment prefixing the targets it pushes out.
    Both are tuples, so a change to either binds a new object.  While
    processing, the UAV stands on the current target's arc, uav_arc.  case
    only rises: a drag of the site raises it to 2, a skip to 3, and an
    abandonment sets 4.  site_position is the point at site_arc: whoever
    moves the site (begin, on_processing_tick, sim._put, a test) sets both.
    """

    plan: SegmentPlan
    ordinal: int
    site_arc: float
    site_position: Point2D
    uav_arc: float = 0.0
    fuel: float = 0.0
    pending: tuple[tuple[int, float], ...] = ()
    current: int | None = None
    mode: str = Mode.TRANSIT
    case: int = Case.NO_REPLAN
    site_arc_seen: float = 0.0  # low-water mark; backtracking is one-way
    deferred: tuple[tuple[int, Point2D], ...] = ()
    dragged_by: int | None = None  # the target whose visit has dragged the site

    @classmethod
    def begin(cls, plan: SegmentPlan, ordinal: int, fuel: float,
              deferred: tuple[tuple[int, Point2D], ...] = ()) -> SegmentState:
        return cls(
            plan=plan,
            ordinal=ordinal,
            fuel=fuel,
            site_arc=plan.length,
            site_position=plan.site,
            site_arc_seen=plan.length,
            pending=plan.target_arcs,
            deferred=deferred,
        )

    @property
    def uav_position(self) -> Point2D:
        return self.plan.path.point_at_arc(self.uav_arc)


def _defer(state: SegmentState, pairs: tuple[tuple[int, float], ...]) -> list[int]:
    """Prefix (id, arc) pairs to state.deferred as (id, position); return the ids."""
    path = state.plan.path
    state.deferred = tuple((tid, path.point_at_arc(arc)) for tid, arc in pairs) + state.deferred
    return [tid for tid, _ in pairs]


def backtrack_site(state: SegmentState, fuel: float, params: VehicleParams) -> float:
    """Arc the site must retreat to so that fuel still spans the string."""
    # max(min(site_arc, reachable), uav_arc), without the builtin calls
    reachable = state.uav_arc + (0.0 if fuel < 0.0 else fuel) / params.fuel_per_meter
    arc = reachable if reachable < state.site_arc else state.site_arc
    return state.uav_arc if state.uav_arc > arc else arc


def ugv_reachable(ugv_pos: Point2D, site_pos: Point2D, fuel: float,
                  params: VehicleParams) -> bool:
    """Can the ground vehicle make the site before the UAV would run dry
    hovering there?  Boundary equality counts as reachable."""
    if fuel < 0.0:
        return False
    travel = distance(ugv_pos, site_pos) / params.v_ugv
    return travel <= fuel / params.burn_rate + EPS_TIME


def on_transit_tick(state: SegmentState, fuel_budget: float,
                    params: VehicleParams) -> tuple[float, str | None]:
    """Advance along the path using at most fuel_budget.

    Stops exactly at the next pending target or the site, whichever comes
    first, and reports ("target" | "site") so the caller can split the tick
    there.  An abandonment empties pending, so on the way to the rendezvous
    the next stop is the site.  The site never backtracks in transit.
    """
    if state.pending:
        next_arc = state.pending[0][1]
        kind = "target"
    else:
        next_arc = state.site_arc
        kind = "site"
    d_next = next_arc - state.uav_arc
    d_next = 0.0 if d_next < 0.0 else d_next
    d_step = fuel_budget / params.fuel_per_meter
    if d_next > d_step + EPS_GEOM:
        state.uav_arc += d_step
        state.fuel -= fuel_budget
        return fuel_budget, None
    state.uav_arc = next_arc
    used = d_next * params.fuel_per_meter
    state.fuel -= used
    if kind == "target":
        state.current = state.pending[0][0]
        state.pending = state.pending[1:]
        state.mode = Mode.PROCESSING
    return used, kind


def on_processing_tick(state: SegmentState, fuel_used: float, done: bool,
                       params: VehicleParams) -> list[int]:
    """Apply one (possibly split) processing burn at the current target.

    Burns the fuel, drags the site back if the string is taut, and defers
    any pending target the site has passed.  Returns target ids skipped by
    this tick.  The visit's first drag by more than EPS_GEOM sets
    dragged_by, and only it can raise the case.  Completion flips the mode
    back to transit; the caller runs the abandonment lookahead before each
    processing sub-step, never after.
    """
    state.fuel -= fuel_used
    skipped_now: list[int] = []
    new_site = backtrack_site(state, state.fuel, params)
    if new_site < state.site_arc - EPS_GEOM and state.dragged_by != state.current:
        state.dragged_by, state.case = state.current, max(state.case, Case.BACKTRACK_ALL_VISITED)
    if new_site != state.site_arc:
        state.site_position = state.plan.path.point_at_arc(new_site)
    state.site_arc = new_site
    if new_site < state.site_arc_seen:
        state.site_arc_seen = new_site
    # pending is nondecreasing by arc, so the targets the site passed are a
    # suffix, and none is passed unless the last one is
    pending = state.pending
    cut = new_site + EPS_GEOM
    if pending and pending[-1][1] > cut:
        k = len(pending) - 1
        while k and pending[k - 1][1] > cut:
            k -= 1
        state.pending = pending[:k]
        skipped_now = _defer(state, pending[k:])
        # only an abandonment, which ends processing, rises above a skip
        state.case = Case.BACKTRACK_SKIP
    if done:
        state.current = None
        state.mode = Mode.TRANSIT
    return skipped_now


def check_abandonment(state: SegmentState, ugv_pos: Point2D, t_left: float,
                      params: VehicleParams) -> list[int] | None:
    """Lookahead: would processing for the t_left seconds left in the tick
    leave the site out of the ground vehicle's reach at tick end?

    Evaluated where a processing sub-step starts, with the UGV where it
    stands then.  The prediction drags the site back for all of t_left and
    steps the UGV v_ugv * t_left toward that dragged site: the step the UGV
    takes when processing runs to the tick end.  If the answer is yes,
    abandon now: the current target and all pending ones are deferred and
    the UAV heads for the site.  Returns the newly deferred target ids, or
    None when processing may continue.  The current target is deferred at
    the UAV's position, on its arc.
    """
    fuel_next = state.fuel - params.burn_rate * t_left
    site_next = backtrack_site(state, fuel_next, params)
    # a slack string leaves the site where it is; a tank run dry is never in reach
    site_next_pos = (state.site_position if site_next == state.site_arc
                     else state.plan.path.point_at_arc(site_next))
    ugv_next = step_toward(ugv_pos, site_next_pos, params.v_ugv * t_left)
    if ugv_reachable(ugv_next, site_next_pos, fuel_next, params):
        return None
    deferred_now = _defer(state, ((state.current, state.uav_arc),) + state.pending)
    state.pending = ()
    state.current = None
    state.case = Case.ABANDON_RENDEZVOUS
    state.mode = Mode.TO_RENDEZVOUS
    return deferred_now


def transfer_and_repair(start: Point2D,
                        deferred: Sequence[tuple[int, Point2D]],
                        next_plan: SegmentPlan | None,
                        depot: Point2D,
                        params: VehicleParams,
                        ordinal: int,
                        ) -> tuple[SegmentPlan, list[tuple[int, Point2D]], bool]:
    """Build the segment the UAV will fly after refueling at start.

    Deferred targets are prefixed, in order, to the next planned segment
    (or to a bare run back to the depot when none remains).  If the result
    does not fit one tank, or its site lies beyond reach of start, where the
    UGV stands, the terminal site is walked back along the path; targets past
    any feasible site are shed, last first.  The shed targets start the next
    segment's deferred, so they prefix the segment after it.
    When even a single target cannot head toward the terminal, the leg
    doubles back toward its start; with no site past the target in reach,
    it stops short as a relay hop, min(reach, range) straight toward the
    target, and sheds every entry.
    Returns (plan, shed targets, whether anything had to change).

    The leg start -> targets is threaded once (see _thread).  Each candidate
    leg is a prefix of that thread plus one edge to its terminal; Polyline
    sums its arcs in _thread's order, so its target arcs are the thread's
    own.  A candidate whose last target arc already uses the whole tank is
    shed without building a path: no site can lie past it.

    Raises PlanningError ("infeasible leg") only for a leg with no site at
    all: reach or range within EPS_GEOM of zero, or no edge out of start.
    """
    entries = list(deferred)
    if next_plan is not None:
        entries += [(tid, next_plan.path.point_at_arc(arc))
                    for tid, arc in next_plan.target_arcs]
        terminal = next_plan.site
    else:
        terminal = depot

    reach = params.reach_radius
    max_len = params.flight_range
    verts, cum, at = _thread(start, [p for _, p in entries])
    if not math.isfinite(cum[-1]):
        Polyline(verts)  # raises, naming the first edge too long for a float
    m = len(entries)  # the candidate leg visits entries[:m], then terminal
    out_and_back = False

    while True:
        k = at[m - 1] + 1 if m else 1  # the prefix's vertex count
        lo = cum[k - 1]  # the last target's arc, or 0 at the start
        d = distance(verts[k - 1], terminal)
        if d > EPS_GEOM:
            pts = verts[:k] + [terminal]
            length = lo + d
            if not math.isfinite(length):
                Polyline(pts)  # raises, naming the terminal edge
            hi = min(length, max_len)
            floor = 0.0 if out_and_back else lo  # doubling back may stop short
            if hi > floor + EPS_GEOM:
                path = Polyline(pts)
                best = farthest_site_arc(path, floor, hi, start, reach)
                if best is not None:
                    if best <= lo + EPS_GEOM:  # a relay hop toward the target
                        m = 0
                    modified = out_and_back or m < len(entries)
                    if best < length - EPS_GEOM:
                        path = path.sub_polyline(0.0, best)
                        modified = True
                    plan = SegmentPlan(
                        index=ordinal,
                        path=path,
                        target_arcs=tuple((tid, cum[j]) for (tid, _), j in zip(entries, at[:m])),
                    )
                    return plan, entries[m:], modified
        if out_and_back or m == 0:
            raise PlanningError(
                f"infeasible leg from ({start.x:.6g}, {start.y:.6g}): no refuel site "
                f"within range {max_len:.6g} and reach {reach:.6g}")
        if m == 1:
            # last resort: fly out to the lone target, then double back
            terminal = start
            out_and_back = True
        else:
            m -= 1


def _thread(start: Point2D, waypoints: list[Point2D],
            ) -> tuple[list[Point2D], list[float], list[int]]:
    """Arc-annotate start -> waypoints.

    Coincident neighbours collapse into one vertex (a deferred target can
    sit exactly at the rendezvous); every waypoint still gets a vertex.
    Returns (unique vertices, their cumulative arcs, each waypoint's vertex
    index).  Every prefix of the result is the thread of a prefix of the
    waypoints, arcs included, since each arc adds one edge to the last.
    """
    verts = [start]
    cum = [0.0]
    at = []
    for p in waypoints:
        d = distance(verts[-1], p)
        if d > EPS_GEOM:
            verts.append(p)
            cum.append(cum[-1] + d)
        at.append(len(verts) - 1)
    return verts, cum, at

