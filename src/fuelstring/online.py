"""Online replanning during segment execution.

Remaining fuel behaves like a string tied between the UAV and its refuel
site, measured along the segment path: while slack remains the site stays
put; once taut, every unit burned in place drags the site back toward the
UAV.  Everything here works from revealed information only -- processing
costs enter as per-tick burn amounts and a done flag, never as totals.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .geometry import EPS_GEOM, Point2D, Polyline, distance, farthest_site_arc, step_toward
from .model import EPS_TIME, VehicleParams
from .offline import PlanningError, SegmentPlan


class Case(enum.IntEnum):
    """Segment outcome classes, in escalating order of disruption."""

    NO_REPLAN = 1            # slack covered all processing, site never moved
    BACKTRACK_ALL_VISITED = 2  # site moved but every target still got visited
    BACKTRACK_SKIP = 3       # site passed pending targets; they were deferred
    ABANDON_RENDEZVOUS = 4   # processing cut short to keep the site reachable
    SEGMENT_REPAIR = 5       # rebuilt segment exceeded the tank and was trimmed


class Mode(enum.Enum):
    TRANSIT = "transit"
    PROCESSING = "processing"
    TO_RENDEZVOUS = "to_rendezvous"
    WAIT = "wait"


@dataclass
class SegmentState:
    """Live execution state of one segment.

    pending holds (target id, arc) pairs not yet visited, nondecreasing by
    arc (a repaired segment can hold equal arcs for coincident targets);
    deferred collects targets pushed out of this segment, kept in original
    visit order as (id, position) pairs ready to prefix the next segment.
    """

    plan: SegmentPlan
    ordinal: int
    uav_arc: float = 0.0
    fuel: float = 0.0
    site_arc: float = 0.0
    pending: list[tuple[int, float]] = field(default_factory=list)
    current: int | None = None
    current_arc: float = 0.0
    mode: Mode = Mode.TRANSIT
    site_moved: bool = False
    site_arc_seen: float = 0.0  # low-water mark; backtracking is one-way
    skipped: list[int] = field(default_factory=list)
    abandoned: bool = False
    deferred: list[tuple[int, Point2D]] = field(default_factory=list)
    # the last point computed for each arc, keyed on the arc's value so that
    # a direct assignment to site_arc or uav_arc can never leave it stale
    _site_cache: tuple[float, Point2D | None] = field(
        default=(math.nan, None), init=False, repr=False, compare=False)
    _uav_cache: tuple[float, Point2D | None] = field(
        default=(math.nan, None), init=False, repr=False, compare=False)

    @classmethod
    def begin(cls, plan: SegmentPlan, ordinal: int, fuel: float) -> SegmentState:
        return cls(
            plan=plan,
            ordinal=ordinal,
            uav_arc=0.0,
            fuel=fuel,
            site_arc=plan.length,
            site_arc_seen=plan.length,
            pending=list(plan.target_arcs),
            mode=Mode.TRANSIT,
        )

    @property
    def site_position(self) -> Point2D:
        arc, point = self._site_cache
        if arc != self.site_arc:
            point = self.plan.path.point_at_arc(self.site_arc)
            self._site_cache = (self.site_arc, point)
        return point

    @property
    def uav_position(self) -> Point2D:
        arc, point = self._uav_cache
        if arc != self.uav_arc:
            point = self.plan.path.point_at_arc(self.uav_arc)
            self._uav_cache = (self.uav_arc, point)
        return point

    def string_gap(self) -> float:
        return self.site_arc - self.uav_arc


def backtrack_site(state: SegmentState, fuel: float, params: VehicleParams) -> float:
    """Arc the site must retreat to so that fuel still spans the string."""
    reachable = state.uav_arc + max(fuel, 0.0) / params.fuel_per_meter
    return max(min(state.site_arc, reachable), state.uav_arc)


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
    there.  The site never backtracks in transit.
    """
    if state.mode is Mode.TRANSIT and state.pending:
        next_arc = state.pending[0][1]
        kind = "target"
    else:
        next_arc = state.site_arc
        kind = "site"
    d_next = max(next_arc - state.uav_arc, 0.0)
    d_step = fuel_budget / params.fuel_per_meter
    if d_next > d_step + EPS_GEOM:
        state.uav_arc += d_step
        state.fuel -= fuel_budget
        return fuel_budget, None
    state.uav_arc = next_arc
    used = d_next * params.fuel_per_meter
    state.fuel -= used
    if kind == "target":
        tid, arc = state.pending.pop(0)
        state.current = tid
        state.current_arc = arc
        state.mode = Mode.PROCESSING
    return used, kind


def on_processing_tick(state: SegmentState, fuel_used: float, done: bool,
                       params: VehicleParams) -> list[int]:
    """Apply one (possibly split) processing burn at the current target.

    Burns the fuel, drags the site back if the string is taut, and defers
    any pending target the site has passed.  Returns target ids skipped by
    this tick.  Completion flips the mode back to transit; it takes
    precedence over any same-tick abandonment, which the caller checks
    separately at tick end.
    """
    if state.mode is not Mode.PROCESSING:
        raise ValueError("processing tick outside processing mode")
    state.fuel -= fuel_used
    skipped_now: list[int] = []
    new_site = backtrack_site(state, state.fuel, params)
    if new_site < state.site_arc - EPS_GEOM:
        state.site_moved = True
    state.site_arc = new_site
    state.site_arc_seen = min(state.site_arc_seen, new_site)
    # pending is nondecreasing by arc, so the targets the site passed are a
    # suffix, and none is passed unless the last one is
    pending = state.pending
    cut = new_site + EPS_GEOM
    if pending and pending[-1][1] > cut:
        k = len(pending) - 1
        while k and pending[k - 1][1] > cut:
            k -= 1
        passed = pending[k:]
        del pending[k:]
        group = [(tid, state.plan.path.point_at_arc(arc)) for tid, arc in passed]
        state.deferred = group + state.deferred
        skipped_now = [tid for tid, _ in passed]
        state.skipped.extend(skipped_now)
    if done:
        state.current = None
        state.mode = Mode.TRANSIT
    return skipped_now


def check_abandonment(state: SegmentState, ugv_pos: Point2D, dt: float,
                      params: VehicleParams) -> list[int] | None:
    """One-tick lookahead: would another full processing tick leave the site
    out of the ground vehicle's reach?

    Evaluated at tick end with the UGV's latest position; the prediction
    advances the UGV one pursuit step so it matches what the next tick will
    actually do.  If the answer is yes, abandon now: the current target and
    all pending ones are deferred and the UAV heads for the site.  Returns
    the newly deferred target ids, or None when processing may continue.
    """
    if state.mode is not Mode.PROCESSING:
        return None
    tick_fuel = params.burn_rate * dt
    fuel_next = state.fuel - tick_fuel
    if fuel_next < 0.0:
        doomed = True
    else:
        site_next = backtrack_site(state, fuel_next, params)
        site_pos = state.site_position
        ugv_next = step_toward(ugv_pos, site_pos, params.v_ugv * dt)
        # a slack string leaves the site where it is
        site_next_pos = (site_pos if site_next == state.site_arc
                         else state.plan.path.point_at_arc(site_next))
        doomed = not ugv_reachable(ugv_next, site_next_pos, fuel_next, params)
    if not doomed:
        return None
    head = [(state.current, state.plan.path.point_at_arc(state.current_arc))]
    body = [(tid, state.plan.path.point_at_arc(arc)) for tid, arc in state.pending]
    state.deferred = head + body + state.deferred
    state.pending = []
    state.current = None
    state.abandoned = True
    state.mode = Mode.TO_RENDEZVOUS
    return [tid for tid, _ in head + body]


def transfer_and_repair(start: Point2D,
                        deferred: list[tuple[int, Point2D]],
                        next_plan: SegmentPlan | None,
                        depot: Point2D,
                        params: VehicleParams,
                        ordinal: int,
                        ) -> tuple[SegmentPlan, list[tuple[int, Point2D]], bool]:
    """Build the segment the UAV will fly after refueling at start.

    Deferred targets are prefixed, in order, to the next planned segment
    (or to a bare run back to the depot when none remains).  If the result
    does not fit one tank, or its site falls outside the ground vehicle's
    reach, the terminal site is walked back along the path; targets past
    any feasible site are shed, last first, onto the following segment.
    When even a single target cannot head toward the terminal, the leg
    gives up on the terminal entirely and doubles back toward its start.
    Returns (plan, shed targets, whether anything had to change).

    The leg start -> targets is threaded once (see _thread).  Each candidate
    leg is a prefix of that thread plus one edge to its terminal, so its
    vertices, arcs and target arcs are the prefix's own and a shed costs one
    new edge.  A candidate whose last target arc already uses the whole tank
    is shed without building a path: no site can lie past it.

    Raises PlanningError only when that last resort fails too, i.e. the
    out-and-back distance exceeds range plus reach: no path from this
    start visits the target and ends at any reachable site.
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
            if hi > lo + EPS_GEOM:
                path = Polyline.from_arcs(pts, cum[:k] + [length])
                best = farthest_site_arc(path, lo, hi, start, reach)
                if best is not None:
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
        if out_and_back:
            raise PlanningError(
                f"target {entries[0][0]} permanently infeasible: from ({start.x:.6g}, "
                f"{start.y:.6g}) even an out-and-back leg through it has no "
                f"refuel site within range {max_len:.6g} and reach {reach:.6g}")
        if m == 0:
            raise PlanningError(
                f"no refuel site reachable on the leg from ({start.x:.6g}, "
                f"{start.y:.6g}) within range {max_len:.6g} and reach {reach:.6g}")
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


def classify_segment_outcome(state: SegmentState) -> Case:
    """Outcome class for a finished segment (rendezvous reached)."""
    if state.abandoned:
        return Case.ABANDON_RENDEZVOUS
    if state.skipped:
        return Case.BACKTRACK_SKIP
    if state.site_moved:
        return Case.BACKTRACK_ALL_VISITED
    return Case.NO_REPLAN
