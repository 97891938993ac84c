"""Deterministic fixed-step mission simulator.

One tick: the UAV consumes its time slice in exact sub-steps (transit,
processing, hovering -- split at target arrivals, completions and docks),
then the UGV steps toward the current site.  Each processing sub-step starts
with the abandonment lookahead, also when the UAV reaches a target mid-tick.
A hovering UAV docks the instant the UGV reaches the site, to EPS_TIME.
Identical inputs give identical traces, byte for byte.

`step` takes one tick.  `run` first tries `_coast`, which takes every
consecutive quiet tick of the active mode in one tight loop over locals:
  * transit: a tick that starts in transit or on the way to the rendezvous,
    below the time cap, and whose whole flight stays short of the next
    stop.  Its site is fixed, it reveals nothing and fires no event.
  * processing: a tick that starts in processing, below the time cap, whose
    lookahead approves the whole tick, whose burn does not complete the
    target (reveal's own test), whose dragged site passes no pending
    target, and that leaves step no second sub-step.  It fires no event
    either; its burn may drag the site back along the path.
Every other tick, hovering included, goes to step.  The coast does step's
float operations in step's order and picks point_at_arc's edge, so every
record, event, metric and fault message is the one step gives.  It writes
its locals back through `_put`, and every tick leaves through one call,
`WorldState.tick`, the run's only tick writer.

Processing costs stay hidden from the planning layer: the simulator reveals
them strictly one tick of burn at a time, through TargetTracker.reveal or
`_coast`'s copy of its test, and the online layer sees only the amount
burned plus a done flag.
"""
from __future__ import annotations

import json
import math
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

METRIC_KEYS = (
    "abandonments", "backtrack_episodes", "case_1", "case_2", "case_3",
    "case_4", "case_5", "mission_time", "rendezvous_count",
    "targets_deferred", "uav_distance", "ugv_distance",
)


# Bounds a run's work.  The largest tick count in the default sweep grid and
# the generated mission corpora at dt 0.05 is 45,775, about 1/218 of this.
MAX_TICKS = 10_000_000


class InvariantViolation(RuntimeError):
    """A physical or bookkeeping invariant broke; the run is aborted."""


class TickLimitError(ValueError):
    """The mission time cap divided by dt exceeds MAX_TICKS."""


@dataclass(frozen=True)
class SimConfig:
    dt: float = 0.05
    max_mission_time: float | None = None  # None: 10x offline flight time
    check_invariants: bool = False
    keep_trace: InitVar[bool] = False  # only so perfbench's keep_trace argument still builds

    def __post_init__(self, keep_trace):
        if keep_trace:
            raise ValueError("keep_trace is gone: pass run a trace_file sink to keep the trace")
        check_real("dt", self.dt)
        # a tick of EPS_TIME or less never runs step's UAV phase
        if not EPS_TIME < self.dt < math.inf:
            raise ValueError(f"dt must be finite and > {EPS_TIME}, got {self.dt}")
        cap = self.max_mission_time
        if cap is not None:
            check_real("max_mission_time", cap)
            if not 0 < cap < math.inf:
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


class MetricsFold:
    """Running metrics as a pure fold over trace records.

    Distances are sums of per-tick straight-line deltas; a backtrack episode
    is a maximal run of consecutive same-segment ticks in which the site
    moved.  Feeding the written trace back in reproduces the run's metrics
    exactly.
    """

    def __init__(self):
        self._m = {k: 0 for k in METRIC_KEYS}  # the event counts
        self._uav = self._ugv = self._time = 0.0
        self._episodes = 0
        self._in_episode = False
        self._seg = None  # the last tick's segment, None before the first tick

    def add_tick(self, t, ux, uy, fuel, gx, gy, seg, sx, sy, mode):
        """Fold one tick record; fuel and mode are unused."""
        if self._seg is not None:
            self._uav += ((ux - self._ux) ** 2 + (uy - self._uy) ** 2) ** 0.5
            self._ugv += ((gx - self._gx) ** 2 + (gy - self._gy) ** 2) ** 0.5
            dragged = (seg == self._seg
                          and ((sx - self._sx) ** 2 + (sy - self._sy) ** 2) ** 0.5 > EPS_GEOM)
            if dragged and not self._in_episode:
                self._episodes += 1
            self._in_episode = dragged
        self._time = t
        self._ux, self._uy = ux, uy
        self._gx, self._gy = gx, gy
        self._seg, self._sx, self._sy = seg, sx, sy

    def add_event(self, kind: str, detail: dict):
        if kind == "abandon":
            self._m["abandonments"] += 1
            self._m["targets_deferred"] += len(detail["targets"])
        elif kind == "skip":
            self._m["targets_deferred"] += len(detail["targets"])
        elif kind == "refuel":
            self._m["rendezvous_count"] += 1
        elif kind == "case":
            self._m[f"case_{detail['case']}"] += 1

    def result(self) -> dict:
        return {**self._m, "backtrack_episodes": self._episodes, "mission_time": self._time,
                "uav_distance": self._uav, "ugv_distance": self._ugv}


def fold_records(records) -> dict:
    """Recompute the metrics block from trace records (dicts, as parsed
    back from the JSONL trace)."""
    fold = MetricsFold()
    for rec in records:
        if "kind" in rec:
            fold.add_event(rec["kind"], rec["detail"])
        else:
            fold.add_tick(rec["t"], rec["uav"][0], rec["uav"][1], rec["fuel"],
                          rec["ugv"][0], rec["ugv"][1], rec["seg"],
                          rec["site"][0], rec["site"][1], rec["mode"])
    return fold.result()


# One decoder for every trace line; json.loads builds the same one per call.
_raw_decode = json.JSONDecoder().raw_decode


def _decode_line(line: str):
    """json.loads(line), as one bound call: strip JSON whitespace only, and
    reject any characters left after the value."""
    text = line.strip(" \t\n\r")
    rec, end = _raw_decode(text)
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return rec


def fold_jsonl(lines) -> dict:
    """Recompute the metrics block from JSONL text lines; blank lines are
    skipped."""
    return fold_records(_decode_line(line) for line in lines if line.strip())


@dataclass
class RunReport:
    status: str
    metrics: dict
    unprocessed: list[int] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        return self.status == "completed"


def _tick_line(t, ux, uy, fuel, gx, gy, seg, sx, sy, mode) -> str:
    """The JSONL line of one tick: the bytes json.dumps(rec, separators=(",",
    ":")) gives for {"t", "uav": [x, y], "fuel", "ugv": [x, y], "seg", "site":
    [x, y], "mode"}.  The JSON encoder writes each finite float and int with
    its repr, as this does.  Every value here is finite, because each input is
    checked where it enters (World, VehicleParams, Polyline, SimConfig).  Each
    mode is one of Mode's strings, which need no escape."""
    return (f'{{"t":{t!r},"uav":[{ux!r},{uy!r}],"fuel":{fuel!r},"ugv":[{gx!r},{gy!r}],'
            f'"seg":{seg!r},"site":[{sx!r},{sy!r}],"mode":"{mode}"}}\n')


def _tick_writer(add_tick, write):
    """The one call that takes each tick's record: add_tick itself without a
    sink, else add_tick and one _tick_line to write."""
    if write is None:
        return add_tick

    def tick(t, ux, uy, fuel, gx, gy, seg, sx, sy, mode):
        add_tick(t, ux, uy, fuel, gx, gy, seg, sx, sy, mode)
        write(_tick_line(t, ux, uy, fuel, gx, gy, seg, sx, sy, mode))
    return tick


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
        self._write = None if trace_file is None else trace_file.write
        self.tick = _tick_writer(self.fold.add_tick, self._write)
        # the holders the conservation check last passed, as one key
        self._conserved: tuple | None = None

    # -- recording ---------------------------------------------------------

    def emit_event(self, t: float, kind: str, detail: dict):
        self.fold.add_event(kind, detail)
        if self._write is not None:
            rec = {"t": t, "kind": kind, "detail": detail}
            self._write(json.dumps(rec, separators=(",", ":")) + "\n")

    def record_tick(self):
        """Take the world's current tick through `tick`."""
        st, ugv = self.active, self.ugv_pos
        uav, site = st.uav_position, st.site_position
        self.tick(self.clock, uav.x, uav.y, st.fuel, ugv.x, ugv.y, st.ordinal,
                  site.x, site.y, st.mode)

    # -- helpers -----------------------------------------------------------

    def unprocessed_ids(self) -> list[int]:
        return sorted(tid for tid in self.trackers if tid not in self.done_ids)

    def fault(self, message: str):
        st = self.active
        raise InvariantViolation(
            f"{message} [t={self.clock:.6g} seg={st.ordinal} mode={st.mode} "
            f"uav_arc={st.uav_arc:.6g} fuel={st.fuel:.6g} site_arc={st.site_arc:.6g} "
            f"ugv=({self.ugv_pos.x:.6g}, {self.ugv_pos.y:.6g})]")


def step(world: WorldState):
    """Advance the world by one tick."""
    cfg = world.config
    dt = cfg.dt
    t0 = world.clock

    t_ugv = _uav_phase(world, t0, dt)
    if world.mission_complete:  # the clock already holds the landing instant
        world.record_tick()
        return

    # the UGV's step toward the site over the rest of the tick
    st = world.active
    goal, v_ugv = st.site_position, world.params.v_ugv
    world.ugv_pos = step_toward(world.ugv_pos, goal, v_ugv * (dt - t_ugv))
    # a UAV that reached the site with no sub-step left docks if this step did
    if st.mode is Mode.WAIT and distance(world.ugv_pos, goal) <= v_ugv * EPS_TIME:
        world.ugv_pos = goal
        _refuel(world, t0 + dt)

    world.clock = t0 + dt
    if cfg.check_invariants:
        _check_invariants(world)
    world.record_tick()


def _uav_phase(world: WorldState, t0: float, dt: float) -> float:
    params = world.params
    t_rem = dt
    t_ugv = 0.0  # the tick offset world.ugv_pos holds at: 0, or the last dock
    while t_rem > EPS_TIME and not world.mission_complete:
        st = world.active
        if st.mode is Mode.PROCESSING:
            deferred_now = check_abandonment(st, world.ugv_pos, t_rem,
                                             params.v_ugv * (dt - t_ugv), params)
            if deferred_now is not None:
                site = st.site_position
                world.emit_event(t0 + (dt - t_rem), "abandon", {
                    "segment": st.ordinal,
                    "targets": deferred_now,
                    "site": [site.x, site.y],
                })
                continue
            tracker = world.trackers[st.current]
            avail = params.burn_rate * t_rem
            used, done = tracker.reveal(avail)
            if used > st.fuel + EPS_FUEL:
                world.fault(f"processing target {st.current} would exhaust fuel")
            target_id = st.current
            skipped_now = on_processing_tick(st, used, done, params)
            t_rem -= used / params.burn_rate
            t_now = t0 + (dt - (0.0 if t_rem < 0.0 else t_rem))
            if skipped_now:
                world.emit_event(t_now, "skip", {
                    "segment": st.ordinal,
                    "targets": skipped_now,
                    "site_arc": st.site_arc,
                })
            if done:
                _complete(world, target_id, t_now)
        elif st.mode is Mode.WAIT:
            # hover until the UGV, driving straight at the site from where it
            # stands at offset t_ugv, arrives there, or to the tick end
            elapsed = dt - t_rem
            t_dock = t_ugv + distance(world.ugv_pos, st.site_position) / params.v_ugv
            t_end = dt if t_dock > dt else elapsed if t_dock < elapsed else t_dock
            st.fuel -= params.burn_rate * (t_end - elapsed)
            if st.fuel < -EPS_FUEL:
                world.fault("fuel exhausted hovering at refuel site")
            t_rem = dt - t_end
            if t_dock <= dt + EPS_TIME:
                world.ugv_pos, t_ugv = st.site_position, t_end
                _refuel(world, t0 + t_end)
        else:  # transit or to_rendezvous
            budget = params.burn_rate * t_rem
            used, arrival = on_transit_tick(st, budget, params)
            if st.fuel < -EPS_FUEL:
                world.fault("fuel exhausted in transit")
            t_rem -= used / params.burn_rate
            t_now = t0 + (dt - (0.0 if t_rem < 0.0 else t_rem))
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
                world.emit_event(t_now, "case", {"segment": st.ordinal, "case": st.case})
                world.mission_complete = True
                world.clock = t_now
            else:
                st.mode = Mode.WAIT  # a parked UGV makes the hover zero-length
    return t_ugv


def _complete(world: WorldState, target_id: int, t_now: float):
    """Record target_id, just finished in the active segment, as done."""
    world.done_ids |= {target_id}
    world.emit_event(t_now, "complete", {"segment": world.active.ordinal, "target": target_id})


def _refuel(world: WorldState, t_now: float):
    """Rendezvous reached: emit the finished segment's case, top the tank up,
    and activate the next segment (rebuilt around deferred targets), checked
    against the segment contract when check_invariants is set."""
    st = world.active
    params = world.params
    site = st.site_position
    world.emit_event(t_now, "case", {"segment": st.ordinal, "case": st.case})
    world.emit_event(t_now, "refuel", {
        "segment": st.ordinal,
        "site": [site.x, site.y],
        "fuel": params.fuel_capacity,
    })

    next_plan = world.queue[0] if world.queue else None
    world.queue = world.queue[1:]
    new_plan, shed, modified = transfer_and_repair(
        site, st.deferred, next_plan, world.scenario.depot, params,
        ordinal=st.ordinal + 1)
    if modified:  # the repaired segment's first case event; its final one follows
        world.emit_event(t_now, "case", {"segment": st.ordinal + 1,
                                         "case": Case.SEGMENT_REPAIR})
    world.active = SegmentState.begin(new_plan, st.ordinal + 1,
                                      fuel=params.fuel_capacity, deferred=tuple(shed))
    if world.config.check_invariants:
        positions = {t.id: t.position for t in world.scenario.targets}
        broken = segment_violations(new_plan, params, positions, repaired=True)
        if broken:
            world.fault(f"{broken[0].kind}: {broken[0].message}")


def _check_invariants(world: WorldState):
    st = world.active
    params = world.params
    if st.fuel < -EPS_FUEL:
        world.fault("negative fuel")
    gap = st.string_gap()
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
    locals; the state goes back through `_put`.  Each path edge cursor
    stops at the last edge starting at or before its arc, and an arc equal
    to that edge's start gives its vertex, both as in point_at_arc.
    Transit's cursor follows the UAV forward.  A processing tick is judged
    whole before any of it is kept: the lookahead, reveal's completion test
    and the skip test read only the tick's start and the site it drags to,
    so the first tick that fails one goes to step as it stood.  A slack
    string leaves the site, and so both of step's pursuit steps, where they
    were: the loop takes that step once.  A taut one drags the site, and
    its cursor, backward; a dragged site lies below the site arc before it,
    so the cursor starts at most on the path's last edge.  The site arc
    only falls, so its low-water mark is the last arc, set in `_put`.
    """
    st = world.active
    mode = st.mode
    if mode is Mode.WAIT:
        return False
    cfg = world.config
    params = world.params
    dt = cfg.dt
    burn = params.burn_rate
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
        d_step = budget / params.fuel_per_meter
        margin = d_step + EPS_GEOM
        next_arc = pending[0][1] if pending else sarc
        if not (clock < limit and next_arc - uarc > margin):
            return False

    fuel, case, seg = st.fuel, st.case, st.ordinal
    goal = st.site_position
    sarc0, qx, qy = sarc, goal.x, goal.y
    ugv = world.ugv_pos
    gx, gy, parked = ugv.x, ugv.y, ugv is goal
    v_ugv = params.v_ugv
    stride = v_ugv * dt  # step's v_ugv * (dt - t_ugv), and t_ugv is 0
    arcs, verts = st.plan.path.cumulative_arc, st.plan.path.vertices
    tick, checked = world.tick, cfg.check_invariants
    if mode is Mode.PROCESSING:
        tracker = world.trackers[st.current]
        tau, progress = tracker.tau, tracker.progress
        avail = budget + EPS_FUEL  # reveal completes the target when tau - progress is at most this
        fpm = params.fuel_per_meter
        uav = st.uav_position
        ux, uy = uav.x, uav.y
        i = min(bisect_right(arcs, sarc), len(arcs) - 1) - 1
        a0, v, w = arcs[i], verts[i], verts[i + 1]
        edge, vx, vy, dx, dy = arcs[i + 1] - a0, v.x, v.y, w.x - v.x, w.y - v.y
        took = False
        while clock < limit:
            # check_abandonment: backtrack_site at fuel_next, a pursuit step
            # toward the site before the drag, and ugv_reachable, which refuses
            # an empty tank
            fuel_next = fuel - budget
            if fuel_next < 0.0:
                break
            s = uarc + fuel_next / fpm
            if not s < sarc:
                s = sarc
            elif uarc > s:
                s = uarc
            if s == sarc:  # slack
                px, py = qx, qy
            else:
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
            if parked:
                lx, ly, lpark = qx, qy, True
            else:
                d = math.hypot(gx - qx, gy - qy)
                if d <= stride or d <= EPS_GEOM:
                    lx, ly, lpark = qx, qy, True
                else:
                    f = stride / d
                    lx, ly, lpark = gx + f * (qx - gx), gy + f * (qy - gy), False
            if (math.hypot(lx - px, ly - py) / v_ugv > fuel_next / burn + EPS_TIME
                    or tau - progress <= avail or last > s + EPS_GEOM):
                break  # step abandons, completes the target or skips
            if s == sarc:  # the tick-end pursuit step is the lookahead's
                gx, gy, parked = lx, ly, lpark
            else:
                if case < Case.BACKTRACK_ALL_VISITED and s < sarc - EPS_GEOM:
                    case = Case.BACKTRACK_ALL_VISITED
                d = math.hypot(gx - px, gy - py)
                if d <= stride or d <= EPS_GEOM:
                    gx, gy, parked = px, py, True
                else:
                    f = stride / d
                    gx, gy, parked = gx + f * (px - gx), gy + f * (py - gy), False
            progress += budget
            fuel, sarc, qx, qy = fuel_next, s, px, py
            clock = clock + dt
            took = True
            if checked:
                _put(world, clock, fuel, gx, gy, parked, uarc, sarc,
                     goal if sarc == sarc0 else Point2D(qx, qy), case, progress)
                _check_invariants(world)
            tick(clock, ux, uy, fuel, gx, gy, seg, qx, qy, mode)
    else:
        progress = None
        i = bisect_right(arcs, uarc) - 1
        a0, a1, v, w = arcs[i], arcs[i + 1], verts[i], verts[i + 1]
        edge, dx, dy = a1 - a0, w.x - v.x, w.y - v.y
        took = True
        while True:
            uarc += d_step
            fuel -= budget
            if fuel < -EPS_FUEL:  # as step faults: before the clock and the UGV move
                _put(world, clock, fuel, gx, gy, parked, uarc, sarc, goal, case, None)
                world.fault("fuel exhausted in transit")
            if not parked:
                d = math.hypot(gx - qx, gy - qy)
                if d <= stride or d <= EPS_GEOM:
                    gx, gy, parked = qx, qy, True
                else:
                    f = stride / d
                    gx, gy = gx + f * (qx - gx), gy + f * (qy - gy)
            clock = clock + dt
            while a1 <= uarc:
                i += 1
                a0, a1, v, w = a1, arcs[i + 1], w, verts[i + 1]
                edge, dx, dy = a1 - a0, w.x - v.x, w.y - v.y
            if uarc == a0:
                ux, uy = v.x, v.y
            else:
                t = (uarc - a0) / edge
                ux, uy = v.x + t * dx, v.y + t * dy
            if checked:
                _put(world, clock, fuel, gx, gy, parked, uarc, sarc, goal, case, None)
                _check_invariants(world)
            tick(clock, ux, uy, fuel, gx, gy, seg, qx, qy, mode)
            if not (clock < limit and next_arc - uarc > margin):
                break
    if took:
        _put(world, clock, fuel, gx, gy, parked, uarc, sarc,
             goal if sarc == sarc0 else Point2D(qx, qy), case, progress)
    return took


def _put(world: WorldState, clock: float, fuel: float, gx: float, gy: float, parked: bool,
         uav_arc: float, site_arc: float, site: Point2D, case: int, progress: float | None):
    """Write a coast's locals back to the world: before a fault, on every
    tick when check_invariants is set, and when the coast ends.  The UGV
    stands on the site's own point when parked; progress, when given, is
    the current target's."""
    st = world.active
    st.uav_arc, st.fuel, st.site_arc, st.case = uav_arc, fuel, site_arc, case
    if site_arc < st.site_arc_seen:
        st.site_arc_seen = site_arc
    st._site_cache = (site_arc, site)
    if progress is not None:
        world.trackers[st.current].progress = progress
    world.clock, world.ugv_pos = clock, site if parked else Point2D(gx, gy)


def run(scenario: Scenario, config: SimConfig | None = None,
        plan: MissionPlan | None = None, trace_file=None) -> RunReport:
    """Plan (unless given) and fly the whole mission.

    Returns a completed or timeout report; raises PlanningError when no
    feasible plan exists, TickLimitError before the first tick when the
    time cap would take more than MAX_TICKS ticks, and InvariantViolation
    on internal faults.
    """
    cfg = config if config is not None else SimConfig()
    if plan is None:
        plan = plan_mission(scenario)
    audit = validate_plan(plan, scenario)
    if not audit.ok:
        raise PlanningError("invalid mission plan:\n" + audit.describe())

    max_t = cfg.max_mission_time
    if max_t is None:
        max_t = 10.0 * plan.total_length / scenario.params.v_uav
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

    status = "completed" if world.mission_complete else "timeout"
    return RunReport(
        status=status,
        metrics=world.fold.result(),
        unprocessed=world.unprocessed_ids(),
    )


def metrics_to_text(metrics: dict) -> str:
    """Flat key-value block, keys sorted, one per line."""
    return "\n".join(f"{k} = {metrics[k]!r}" for k in sorted(metrics)) + "\n"
