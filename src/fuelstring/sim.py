"""Deterministic fixed-step mission simulator.

One tick: the UAV consumes its time slice in exact sub-steps (transit,
processing, hovering -- split at target arrivals, completions and docks).
The UGV has one motion rule, `_drive`: after each sub-step of h seconds it
steps v_ugv * h straight toward the site that sub-step ends with.  Each
processing sub-step starts with the abandonment lookahead, also when the
UAV reaches a target mid-tick.  A hovering UAV docks the instant the UGV
reaches the site, to EPS_TIME, also with no time left in the tick.
Identical inputs give identical traces, byte for byte.

`step` takes one tick.  `run` first tries `_coast`, which takes every
consecutive quiet tick of the active mode in one tight loop over locals:
  * transit: a tick that starts in transit or on the way to the rendezvous,
    below the time cap, and whose whole flight stays short of the next
    stop.  Its site is fixed, it reveals nothing and fires no event.
  * processing: a tick that starts in processing, below the time cap, whose
    lookahead approves the whole tick, whose burn does not complete the
    target (reveal's own test), whose dragged site passes no pending
    target, that leaves step no second sub-step, and that is not its
    visit's first drag of the site.  It fires no event either; its burn
    may drag the site back along the path.
Every other tick, hovering included, goes to step.  The coast does step's
float operations in step's order and picks point_at_arc's edge, so every
record, event, metric and fault message is the one step gives.  It writes
its locals back through `_put` when it ends or faults.  With
check_invariants it judges `_check_invariants`' per-tick comparisons on
its locals, and hands a tick to `_put` and `_check_invariants` only when
one fails, so every fault message still comes from `_check_invariants`.

The metrics come from events alone: each carries the UAV and UGV odometers
(`WorldState.emit_event`), and one `end` event closes the run.

Processing costs stay hidden from the planning layer: the simulator reveals
them strictly one tick of burn at a time, through TargetTracker.reveal or
`_coast`'s copy of its test, and the online layer sees only the amount
burned plus a done flag.
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import InitVar, dataclass, field

from .geometry import EPS_GEOM, Point2D, distance, step_toward
from .model import EPS_FUEL, EPS_TIME, Scenario, check_real
from .offline import (MissionPlan, PlanningError, SegmentPlan, plan_mission,
                      segment_violations, validate_plan)
from .online import (
    Case,
    Mode,
    SegmentState,
    check_abandonment,
    on_processing_tick,
    on_transit_tick,
    transfer_and_repair,
    ugv_reachable,
)
from .trace import MetricsFold, event_line, point_text, tick_line, tick_tail, tick_text
# bound here only because perfbench calls them as fuelstring.sim.*
from .trace import fold_jsonl, metrics_to_text

# Bounds a run's work.  The largest tick count in the default sweep grid and
# the generated mission corpora at dt 0.05 is 45,775, about 1/218 of this.
MAX_TICKS = 10_000_000


class InvariantViolation(RuntimeError):
    """A physical or bookkeeping invariant broke; the run is aborted."""


class TickLimitError(ValueError):
    """dt lies outside the mission's tick domain: the time cap divided by
    dt exceeds MAX_TICKS, or dt exceeds one full tank's airtime."""


@dataclass(frozen=True)
class SimConfig:
    dt: float = 0.05
    max_mission_time: float | None = None  # None: see time_cap
    check_invariants: bool = False
    keep_trace: InitVar[bool] = False  # only so perfbench's keep_trace argument still builds

    def __post_init__(self, keep_trace):
        if keep_trace:
            raise ValueError("keep_trace is gone: pass run a trace_file sink to keep the trace")
        check_real("dt", self.dt)
        # a tick of EPS_TIME or less never runs step's UAV phase
        if not EPS_TIME < self.dt <= sys.float_info.max:
            raise ValueError(f"dt must be finite and > {EPS_TIME}, got {self.dt}")
        cap = self.max_mission_time
        if cap is not None:
            check_real("max_mission_time", cap)
            if not 0 < cap <= sys.float_info.max:
                raise ValueError(f"max_mission_time must be finite and > 0, got {cap}")


class TargetTracker:
    """Simulator-private processing state.  sim is the only module that
    reads tau: reveal here, and `_coast`'s copy of its completion test."""

    __slots__ = ("tau", "progress")

    def __init__(self, tau: float):
        self.tau = tau
        self.progress = 0.0

    def reveal(self, fuel_avail: float) -> tuple[float, bool]:
        """Consume up to fuel_avail of processing; exact completion splits
        the tick, refunding the unused remainder to the caller."""
        rem = self.tau - self.progress
        if rem <= fuel_avail + EPS_FUEL:
            self.progress = self.tau
            return max(rem, 0.0), True
        self.progress += fuel_avail
        return fuel_avail, False


@dataclass
class RunReport:
    status: str
    metrics: dict
    unprocessed: list[int] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        return self.status == "completed"


class WorldState:
    """Everything the simulator tracks while a mission runs."""

    def __init__(self, scenario: Scenario, plan: MissionPlan, config: SimConfig,
                 trace_file=None):
        self.scenario = scenario
        self.params = scenario.params
        self.config = config
        self.clock = 0.0
        self.trackers = {t.id: TargetTracker(t.tau) for t in scenario.targets}
        # the holders of target ids are immutable: a change binds a new object
        self.done_ids: frozenset[int] = frozenset()  # grows at each "complete" event
        self.queue: tuple[SegmentPlan, ...] = tuple(plan.segments[1:])
        self.active = SegmentState.begin(plan.segments[0], 0,
                                         fuel=self.params.fuel_capacity)
        self.ugv_pos = scenario.depot
        self.mission_complete = False
        self.fold = MetricsFold()
        self.write = None if trace_file is None else trace_file.write
        self.flown = 0.0  # the finished segments' final uav_arc: the UAV only flies forward
        self.driven = 0.0  # the UGV's odometer: the sum of its steps
        self.ticks = 0  # the tick records taken
        # the holders the conservation check last passed, as one key
        self._conserved: tuple | None = None

    # -- recording ---------------------------------------------------------

    def emit_event(self, t: float, kind: str, **detail):
        """Fold one event and write its line; its detail ends with both odometers."""
        detail.update(uav_odo=self.flown + self.active.uav_arc, ugv_odo=self.driven)
        self.fold.add_event(t, kind, detail)
        if self.write is not None:
            self.write(event_line(t, kind, detail))

    def record_tick(self):
        """Count the world's current tick, and write its line to the sink if any."""
        self.ticks += 1
        if self.write is not None:
            st, ugv = self.active, self.ugv_pos
            uav, site = st.uav_position, st.site_position
            self.write(tick_line(self.clock, uav.x, uav.y, st.fuel, ugv.x, ugv.y, st.ordinal,
                                 site.x, site.y, st.mode))

    def finish(self) -> RunReport:
        """Close the run after its last tick with the `end` event, and report."""
        self.emit_event(self.clock, "end", ticks=self.ticks)
        return RunReport("completed" if self.mission_complete else "timeout", self.fold.result(),
                         sorted(tid for tid in self.trackers if tid not in self.done_ids))

    def fault(self, message: str):
        st = self.active
        raise InvariantViolation(
            f"{message} [t={self.clock:.6g} seg={st.ordinal} mode={st.mode} "
            f"uav_arc={st.uav_arc:.6g} fuel={st.fuel:.6g} site_arc={st.site_arc:.6g} "
            f"ugv=({self.ugv_pos.x:.6g}, {self.ugv_pos.y:.6g})]")


def step(world: WorldState):
    """Advance the world by one tick: the UAV's sub-steps, each followed by
    the UGV's step over the same seconds, then the clock, the checks and
    the tick record."""
    cfg, params = world.config, world.params
    burn, dt, t0 = params.burn_rate, cfg.dt, world.clock
    t_rem = dt
    while not world.mission_complete:
        st = world.active
        if st.mode is Mode.WAIT:
            # hover until the UGV, driving straight at the site, reaches it,
            # or to the tick end; this runs with no time left too, so a UGV
            # already on the site docks at once
            elapsed = dt - t_rem
            gap = distance(world.ugv_pos, st.site_position)
            t_dock = elapsed + gap / params.v_ugv
            t_end = dt if t_dock > dt else t_dock
            used = burn * (t_end - elapsed)
            st.fuel -= used
            if st.fuel < -EPS_FUEL:
                world.fault("fuel exhausted hovering at refuel site")
            if t_dock > dt + EPS_TIME:
                _drive(world, t_rem, used)
                break
            world.ugv_pos, world.driven = st.site_position, world.driven + gap
            t_rem = dt - t_end
            _refuel(world, t0 + t_end)
        elif t_rem <= EPS_TIME:
            break
        elif st.mode is Mode.PROCESSING:
            deferred_now = check_abandonment(st, world.ugv_pos, t_rem, params)
            if deferred_now is not None:
                site = st.site_position
                world.emit_event(t0 + (dt - t_rem), "abandon", segment=st.ordinal,
                                 targets=deferred_now, site=[site.x, site.y])
                continue
            tracker = world.trackers[st.current]
            used, done = tracker.reveal(burn * t_rem)
            if used > st.fuel + EPS_FUEL:
                world.fault(f"processing target {st.current} would exhaust fuel")
            target_id, dragged_by = st.current, st.dragged_by
            skipped_now = on_processing_tick(st, used, done, params)
            t_rem = _drive(world, t_rem, used)
            t_now = t0 + (dt - t_rem)
            if st.dragged_by != dragged_by:  # the visit's first drag of the site
                world.emit_event(t_now, "drag", segment=st.ordinal, target=target_id,
                                 site_arc=st.site_arc)
            if skipped_now:
                world.emit_event(t_now, "skip", segment=st.ordinal, targets=skipped_now,
                                 site_arc=st.site_arc)
            if done:
                _complete(world, target_id, t_now)
        else:  # transit or to_rendezvous
            used, arrival = on_transit_tick(st, burn * t_rem, params)
            if st.fuel < -EPS_FUEL:
                world.fault("fuel exhausted in transit")
            t_rem = _drive(world, t_rem, used)
            t_now = t0 + (dt - t_rem)
            if arrival == "target":
                target_id = st.current
                if world.trackers[target_id].reveal(0.0)[1]:  # a zero-cost target
                    st.current, st.mode = None, Mode.TRANSIT
                    _complete(world, target_id, t_now)
            elif arrival != "site":
                break  # budget spent mid-path
            elif (not world.queue and not st.deferred
                  and len(world.done_ids) == len(world.trackers)
                  and distance(st.site_position, world.scenario.depot) <= EPS_GEOM):
                world.emit_event(t_now, "case", segment=st.ordinal, case=st.case)
                world.mission_complete = True
                world.clock = t_now
            else:
                st.mode = Mode.WAIT  # a parked UGV makes the hover zero-length

    if not world.mission_complete:  # else the clock holds the landing instant
        world.clock = t0 + dt
        if cfg.check_invariants:
            _check_invariants(world)
    world.record_tick()


def _drive(world: WorldState, t_rem: float, used: float) -> float:
    """The UGV's one motion rule, after a UAV sub-step that burned `used`
    with t_rem seconds left in the tick: v_ugv times the sub-step's seconds
    straight toward the site it ends with, stopping on it, and added to the
    odometer.  A sub-step that leaves EPS_TIME or less runs to the tick end.
    Returns the seconds left after the sub-step."""
    params = world.params
    left = t_rem - used / params.burn_rate
    left = 0.0 if left <= EPS_TIME else left
    goal, ugv = world.active.site_position, world.ugv_pos
    stride = params.v_ugv * (t_rem - left)
    world.ugv_pos = step_toward(ugv, goal, stride)
    world.driven += distance(ugv, goal) if world.ugv_pos is goal else stride
    return left


def _complete(world: WorldState, target_id: int, t_now: float):
    """Record target_id, just finished in the active segment, as done."""
    world.done_ids |= {target_id}
    world.emit_event(t_now, "complete", segment=world.active.ordinal, target=target_id)


def _refuel(world: WorldState, t_now: float):
    """Rendezvous reached: emit the finished segment's case, top the tank up,
    and activate the next segment (rebuilt around deferred targets), checked
    against the segment contract when check_invariants is set."""
    st = world.active
    params = world.params
    site = st.site_position
    world.emit_event(t_now, "case", segment=st.ordinal, case=st.case)
    world.emit_event(t_now, "refuel", segment=st.ordinal, site=[site.x, site.y],
                     fuel=params.fuel_capacity)

    next_plan = world.queue[0] if world.queue else None
    world.queue = world.queue[1:]
    new_plan, shed, modified = transfer_and_repair(
        site, st.deferred, next_plan, world.scenario.depot, params,
        ordinal=st.ordinal + 1)
    if modified:  # the repaired segment's first case event; its final one follows
        world.emit_event(t_now, "case", segment=st.ordinal + 1, case=Case.SEGMENT_REPAIR)
    world.flown += st.uav_arc  # the new segment's uav_arc starts at 0
    world.active = SegmentState.begin(new_plan, st.ordinal + 1,
                                      fuel=params.fuel_capacity, deferred=tuple(shed))
    if world.config.check_invariants:
        positions = {t.id: t.position for t in world.scenario.targets}
        broken = segment_violations(new_plan, params, positions)
        if broken:
            world.fault(f"{broken[0].kind}: {broken[0].message}")


def _check_invariants(world: WorldState):
    st = world.active
    params = world.params
    if st.fuel < -EPS_FUEL:
        world.fault("negative fuel")
    gap = st.site_arc - st.uav_arc
    if st.fuel / params.fuel_per_meter < gap - 1e-9:
        world.fault(f"string invariant broken: fuel spans {st.fuel / params.fuel_per_meter:.9g} "
                    f"of a {gap:.9g} gap")
    if not (-EPS_GEOM <= st.uav_arc <= st.site_arc + EPS_GEOM):
        world.fault("uav ahead of its refuel site")
    if st.site_arc > st.site_arc_seen + 1e-9:
        world.fault(f"refuel site moved forward along the path "
                    f"({st.site_arc_seen:.9g} -> {st.site_arc:.9g})")
    if st.mode in (Mode.WAIT, Mode.TO_RENDEZVOUS) and st.pending:
        world.fault("pending targets while heading to rendezvous")
    if not ugv_reachable(world.ugv_pos, st.site_position, st.fuel, params):
        world.fault("refuel site out of ground-vehicle reach")
    # every target is held exactly once (pending, current, deferred, which
    # starts with the repair's sheds, or queued) or done, never both.  The
    # verdict reads only the key, whose items are all immutable, so an equal
    # key holds the same ids and is judged again only when a holder changed.
    key = (st.pending, st.current, st.deferred, world.queue, world.done_ids)
    if key != world._conserved:
        pending, current, deferred, queue, done = key
        held = [tid for tid, _ in pending]
        if current is not None:
            held.append(current)
        held += [tid for tid, _ in deferred]
        held += [tid for seg in queue for tid, _ in seg.target_arcs]
        ids = set(held)
        known = world.trackers.keys()
        if len(ids) != len(held) or not ids.isdisjoint(done) or ids | done != known:
            twice = sorted({tid for tid in held if held.count(tid) > 1})
            world.fault(f"target conservation broken: held twice={twice} "
                        f"held and done={sorted(ids & done)} "
                        f"missing={sorted(known - ids - done)} "
                        f"unknown={sorted(ids - known)}")
        world._conserved = key


def _coast(world: WorldState, limit: float) -> bool:
    """Take every consecutive quiet tick of the active mode (see the module
    docstring) in one loop; return False when the next tick is not quiet.

    The mode's entry test runs first, then one set-up reads the world into
    locals; the state goes back through `_put` when the coast ends.  Each
    path edge cursor stops at the last edge starting at or before its arc,
    and an arc equal to that edge's start gives its vertex, both as in
    point_at_arc.  Transit's cursor follows the UAV forward, for a traced
    run only.  A processing tick is judged whole before any of it is kept:
    the lookahead, reveal's completion test, the skip test and the visit's
    first drag read only the tick's start and the site it drags to, so the
    first tick that fails one goes to step as it stood.  The lookahead's
    UGV step is the tick's UGV step.  A taut string drags the site, and its
    cursor, backward; a dragged site lies below the site arc before it, so
    the cursor starts at most on the path's last edge.  The site arc only
    falls, so its low-water mark is the last arc, set in `_put`.  A UGV
    step adds its distance to the odometer when it arrives, else the stride.

    A checked coast evaluates, after each tick, the comparisons of
    `_check_invariants` that a tick can change: the string, the UAV before
    its site, the site's one-way motion and the UGV's reach, each with the
    check's float operations in its order, and fuel below zero, which
    covers both the negative-fuel check and reach's empty tank.  The
    one-way motion is judged against `site_arc_seen` as the coast began:
    the check compares the site arc with the low of that mark and the arcs
    since, and a coast's site arc never rises, so that low is the mark
    itself or the arc it is compared with.  The comparisons only filter: a
    tick on which one fails is written back through `_put` and judged by
    `_check_invariants`, which raises the message step would, at the same
    clock and before the tick's line.  The two other checks read only the
    mode and the target holders (pending, current, deferred, queue,
    done_ids), which a coast never rebinds, so their verdict holds for the
    whole coast.  The coast judges them once: when the holders' key differs
    from the conservation memo, or pending targets ride to the rendezvous,
    its first tick goes to `_check_invariants` whole.

    A traced coast builds each tick line from trace.py's pieces and keeps
    those that hold.  The site's point text and the tail (seg, site, mode)
    are built when the coast starts and again on each tick whose site arc
    differs from the tail's, that is, a tick that dragged the site.  The
    UAV's point text is built once per processing coast.  A parked UGV
    stands on the site's floats, so its text is the site's.  Reuse is
    decided from the `parked` flag and the site arc, never from equal
    coordinates (-0.0 == 0.0, but their reprs differ).  So a line formats
    only t, fuel and the points that move: the UAV's in transit, the UGV's
    while it drives.
    """
    st = world.active
    mode = st.mode
    if mode is Mode.WAIT:
        return False
    cfg = world.config
    params = world.params
    dt = cfg.dt
    burn, fpm = params.burn_rate, params.fuel_per_meter
    budget = burn * dt  # a transit tick's burn; the lookahead's burn and reveal's avail
    clock, uarc, sarc = world.clock, st.uav_arc, st.site_arc
    pending = st.pending
    if mode is Mode.PROCESSING:
        last = pending[-1][1] if pending else -math.inf
        # a residual t_rem above EPS_TIME makes step take a second sub-step, and
        # a target past the undragged site is skipped by any tick's burn.  With
        # the UAV at or before its site, backtrack_site's arc stays between them.
        if not (clock < limit and dt - budget / burn <= EPS_TIME
                and last <= sarc + EPS_GEOM and uarc <= sarc):
            return False
    else:
        d_step = budget / fpm
        margin = d_step + EPS_GEOM
        next_arc = pending[0][1] if pending else sarc
        if not (clock < limit and next_arc - uarc > margin):
            return False

    fuel, seg = st.fuel, st.ordinal
    goal = st.site_position
    sarc0, qx, qy = sarc, goal.x, goal.y
    ugv = world.ugv_pos
    gx, gy, parked, driven = ugv.x, ugv.y, ugv is goal, world.driven
    v_ugv = params.v_ugv
    stride = v_ugv * dt  # _drive's stride over a whole tick
    arcs, verts = st.plan.path.cumulative_arc, st.plan.path.vertices
    write, checked = world.write, cfg.check_invariants
    if checked:
        seen = st.site_arc_seen
        key = (pending, st.current, st.deferred, world.queue, world.done_ids)
        # the holder checks, judged once: their verdict holds for the whole coast
        full = key != world._conserved or (mode == Mode.TO_RENDEZVOUS and bool(pending))
    if write is not None:
        site_text = point_text(qx, qy)
        tail, tail_arc = tick_tail(seg, site_text, mode), sarc
    n = 0  # the ticks taken
    if mode is Mode.PROCESSING:
        tracker = world.trackers[st.current]
        tau, progress = tracker.tau, tracker.progress
        avail = budget + EPS_FUEL  # reveal completes the target when tau - progress is at most this
        dragged = st.dragged_by == st.current
        if write is not None:
            uav = st.uav_position
            uav_text = point_text(uav.x, uav.y)
        i = min(bisect_right(arcs, sarc), len(arcs) - 1) - 1
        a0, v, w = arcs[i], verts[i], verts[i + 1]
        edge, vx, vy, dx, dy = arcs[i + 1] - a0, v.x, v.y, w.x - v.x, w.y - v.y
        while clock < limit:
            # check_abandonment: backtrack_site at fuel_next, the UGV's step
            # toward the dragged site, and ugv_reachable, which refuses an
            # empty tank
            fuel_next = fuel - budget
            if fuel_next < 0.0:
                break
            # no clamp up to uarc, as backtrack_site has: fuel_next >= 0 keeps s >= uarc
            s = uarc + fuel_next / fpm
            if not s < sarc:
                s = sarc
            if s == sarc:  # slack
                px, py = qx, qy
            else:
                if not dragged and s < sarc - EPS_GEOM:
                    break  # the visit's first drag: step writes its event
                if s < a0:
                    i -= 1
                    while arcs[i] > s:
                        i -= 1
                    a0, v, w = arcs[i], verts[i], verts[i + 1]
                    edge, vx, vy, dx, dy = arcs[i + 1] - a0, v.x, v.y, w.x - v.x, w.y - v.y
                if s == a0:
                    px, py = vx, vy
                else:
                    t = (s - a0) / edge
                    px, py = vx + t * dx, vy + t * dy
            d = math.hypot(gx - px, gy - py)
            if d <= stride or d <= EPS_GEOM:
                lx, ly, lpark, lstep = px, py, True, d
            else:
                f = stride / d
                lx, ly, lpark, lstep = gx + f * (px - gx), gy + f * (py - gy), False, stride
            if (math.hypot(lx - px, ly - py) / v_ugv > fuel_next / burn + EPS_TIME
                    or tau - progress <= avail or last > s + EPS_GEOM):
                break  # step abandons, completes the target or skips
            gx, gy, parked, driven = lx, ly, lpark, driven + lstep
            progress += budget
            fuel, sarc, qx, qy = fuel_next, s, px, py
            clock = clock + dt
            n += 1
            # _check_invariants' per-tick comparisons, on the locals
            if checked and (full or fuel < 0.0 or fuel / fpm < sarc - uarc - 1e-9
                            or not -EPS_GEOM <= uarc <= sarc + EPS_GEOM or sarc > seen + 1e-9
                            or not math.hypot(gx - qx, gy - qy) / v_ugv <= fuel / burn + EPS_TIME):
                _put(world, clock, fuel, gx, gy, parked, uarc, sarc,
                     goal if sarc == sarc0 else Point2D(qx, qy), driven, progress)
                _check_invariants(world)
                full = False
            if write is not None:
                if sarc != tail_arc:  # the tick dragged the site
                    site_text = point_text(qx, qy)
                    tail, tail_arc = tick_tail(seg, site_text, mode), sarc
                write(tick_text(clock, uav_text, fuel,
                                site_text if parked else point_text(gx, gy), tail))
    else:
        progress = None
        i = bisect_right(arcs, uarc) - 1
        a0, a1, v, w = arcs[i], arcs[i + 1], verts[i], verts[i + 1]
        edge, dx, dy = a1 - a0, w.x - v.x, w.y - v.y
        while True:
            uarc += d_step
            fuel -= budget
            if fuel < -EPS_FUEL:  # as step faults: before the clock and the UGV move
                _put(world, clock, fuel, gx, gy, parked, uarc, sarc, goal, driven, None)
                world.fault("fuel exhausted in transit")
            d = math.hypot(gx - qx, gy - qy)
            if d <= stride or d <= EPS_GEOM:
                gx, gy, parked = qx, qy, True
                driven += d
            else:
                f = stride / d
                gx, gy = gx + f * (qx - gx), gy + f * (qy - gy)
                driven += stride
            clock = clock + dt
            n += 1
            if checked and (full or fuel < 0.0 or fuel / fpm < sarc - uarc - 1e-9
                            or not -EPS_GEOM <= uarc <= sarc + EPS_GEOM or sarc > seen + 1e-9
                            or not math.hypot(gx - qx, gy - qy) / v_ugv <= fuel / burn + EPS_TIME):
                _put(world, clock, fuel, gx, gy, parked, uarc, sarc, goal, driven, None)
                _check_invariants(world)
                full = False
            if write is not None:
                while a1 <= uarc:
                    i += 1
                    a0, a1, v, w = a1, arcs[i + 1], w, verts[i + 1]
                    edge, dx, dy = a1 - a0, w.x - v.x, w.y - v.y
                if uarc == a0:
                    ux, uy = v.x, v.y
                else:
                    t = (uarc - a0) / edge
                    ux, uy = v.x + t * dx, v.y + t * dy
                write(tick_text(clock, point_text(ux, uy), fuel,
                                site_text if parked else point_text(gx, gy), tail))
            if not (clock < limit and next_arc - uarc > margin):
                break
    if n:
        _put(world, clock, fuel, gx, gy, parked, uarc, sarc,
             goal if sarc == sarc0 else Point2D(qx, qy), driven, progress)
        world.ticks += n
    return n > 0


def _put(world: WorldState, clock: float, fuel: float, gx: float, gy: float, parked: bool,
         uav_arc: float, site_arc: float, site: Point2D, driven: float, progress: float | None):
    """Write a coast's locals back to the world: when the coast ends, and
    before a tick that `_check_invariants` must judge or that faults.  The UGV
    stands on the site's own point when parked; progress, when given, is
    the current target's.  The state takes the site's point with its arc."""
    st = world.active
    st.uav_arc, st.fuel, st.site_arc, st.site_position = uav_arc, fuel, site_arc, site
    if site_arc < st.site_arc_seen:
        st.site_arc_seen = site_arc
    if progress is not None:
        world.trackers[st.current].progress = progress
    world.clock, world.ugv_pos, world.driven = clock, site if parked else Point2D(gx, gy), driven


def time_cap(config: SimConfig, plan: MissionPlan, params) -> float:
    """config's max_mission_time, else ten times the plan's flight time."""
    cap = config.max_mission_time
    return 10.0 * plan.total_length / params.v_uav if cap is None else cap


def run(scenario: Scenario, config: SimConfig | None = None,
        plan: MissionPlan | None = None, trace_file=None) -> RunReport:
    """Plan (unless given) and fly the whole mission.

    Returns a completed or timeout report; raises PlanningError when no
    feasible plan exists, TickLimitError before the first tick when dt
    exceeds one full tank's airtime, fuel_capacity / burn_rate, or the time
    cap would take more than MAX_TICKS ticks, and InvariantViolation on
    internal faults.
    """
    cfg = config if config is not None else SimConfig()
    airtime = scenario.params.fuel_capacity / scenario.params.burn_rate
    if cfg.dt > airtime:
        raise TickLimitError(f"dt {cfg.dt!r} s exceeds one full tank's airtime, "
                             f"fuel_capacity / burn_rate = {airtime!r} s")
    if plan is None:
        plan = plan_mission(scenario)
    audit = validate_plan(plan, scenario)
    if not audit.ok:
        raise PlanningError("invalid mission plan:\n" + audit.describe())

    max_t = time_cap(cfg, plan, scenario.params)
    if max_t / cfg.dt > MAX_TICKS:
        raise TickLimitError(
            f"time cap {max_t:.6g} s at dt {cfg.dt:.6g} s needs {max_t / cfg.dt:.3g} "
            f"ticks, more than the limit of {MAX_TICKS}")

    world = WorldState(scenario, plan, cfg, trace_file=trace_file)
    world.record_tick()
    limit = max_t - EPS_TIME
    while not world.mission_complete and world.clock < limit:
        if not _coast(world, limit):
            step(world)
    return world.finish()
