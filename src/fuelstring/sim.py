"""Deterministic fixed-step mission simulator.

One tick: the UAV consumes its time slice in exact sub-steps (transit,
processing, hovering -- split at target arrivals and completions), the UGV
takes one pursuit step toward the current site, then the abandonment
lookahead and rendezvous resolution run.  Identical inputs give identical
traces, byte for byte.

Processing costs stay hidden from the planning layer: the simulator reveals
them strictly one tick of burn at a time through TargetTracker.reveal, and
forwards only the amount burned plus a done flag.
"""
from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field

from .geometry import EPS_GEOM, Point2D, distance, step_toward
from .model import EPS_FUEL, EPS_TIME, Scenario
from .offline import MissionPlan, PlanningError, SegmentPlan, plan_mission, validate_plan
from .online import (
    Case,
    Mode,
    SegmentState,
    check_abandonment,
    classify_segment_outcome,
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


# Each mode's JSON string, as tick lines write it.
_MODE_JSON = {m: json.dumps(m.value) for m in Mode}

# The UAV docks once the ground vehicle is this close to the refuel site (m).
EPS_DOCK = 0.1

# Bounds a run's work.  The largest tick count in the default sweep grid and
# the generated mission corpora at dt 0.05 is 45,775, about 1/218 of this.
MAX_TICKS = 10_000_000


class InvariantViolation(RuntimeError):
    """A physical or bookkeeping invariant broke; the run is aborted."""


class TickLimitError(ValueError):
    """The mission time cap divided by dt exceeds MAX_TICKS."""


@dataclass
class SimConfig:
    dt: float = 0.05
    max_mission_time: float | None = None  # None: 10x offline flight time
    check_invariants: bool = False
    keep_trace: bool = True

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if self.max_mission_time is not None and not 0 < self.max_mission_time < math.inf:
            raise ValueError(f"max_mission_time must be finite and > 0, got {self.max_mission_time}")


class TargetTracker:
    """Simulator-private processing state; the only place tau is read."""

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
        self._m = {k: 0 if not k.endswith("distance") and k != "mission_time" else 0.0
                   for k in METRIC_KEYS}
        self._last_tick = None
        self._in_episode = False

    def add_tick(self, t, ux, uy, gx, gy, seg, sx, sy):
        last = self._last_tick
        if last is not None:
            lt, lux, luy, lgx, lgy, lseg, lsx, lsy = last
            self._m["uav_distance"] += ((ux - lux) ** 2 + (uy - luy) ** 2) ** 0.5
            self._m["ugv_distance"] += ((gx - lgx) ** 2 + (gy - lgy) ** 2) ** 0.5
            site_moved = (seg == lseg
                          and ((sx - lsx) ** 2 + (sy - lsy) ** 2) ** 0.5 > EPS_GEOM)
            if site_moved and not self._in_episode:
                self._m["backtrack_episodes"] += 1
            self._in_episode = site_moved
        self._m["mission_time"] = t
        self._last_tick = (t, ux, uy, gx, gy, seg, sx, sy)

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
        return dict(self._m)


def fold_records(records) -> dict:
    """Recompute the metrics block from trace records (dicts, as parsed
    back from the JSONL trace)."""
    fold = MetricsFold()
    for rec in records:
        if "kind" in rec:
            fold.add_event(rec["kind"], rec["detail"])
        else:
            fold.add_tick(rec["t"], rec["uav"][0], rec["uav"][1],
                          rec["ugv"][0], rec["ugv"][1], rec["seg"],
                          rec["site"][0], rec["site"][1])
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
    events: list[dict]
    trace: list[dict] | None
    unprocessed: list[int] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    @property
    def case_histogram(self) -> dict[int, int]:
        return {k: self.metrics[f"case_{k}"] for k in range(1, 6)
                if self.metrics[f"case_{k}"]}

    def segment_cases(self) -> list[tuple[int, int]]:
        return [(e["detail"]["segment"], e["detail"]["case"])
                for e in self.events if e["kind"] == "case"]


class WorldState:
    """Everything the simulator tracks while a mission runs."""

    def __init__(self, scenario: Scenario, plan: MissionPlan, config: SimConfig,
                 trace_file=None):
        self.scenario = scenario
        self.params = scenario.params
        self.config = config
        self.clock = 0.0
        self.trackers = {t.id: TargetTracker(t.tau) for t in scenario.targets}
        self.done_ids: set[int] = set()  # grows at each "complete" event
        self.queue: list[SegmentPlan] = list(plan.segments[1:])
        self.active = SegmentState.begin(plan.segments[0], 0,
                                         fuel=self.params.fuel_capacity)
        self.ugv_pos = scenario.depot
        self.carry: list[tuple[int, Point2D]] = []
        self.mission_complete = False
        self.final_time: float | None = None
        self.abandoned_this_tick = False
        self.events: list[dict] = []
        self.trace: list[dict] | None = [] if config.keep_trace else None
        self.fold = MetricsFold()
        self._trace_file = trace_file
        # the conservation check's memo: the queued segments it last read,
        # and their target ids
        self._queued: tuple[tuple[SegmentPlan, ...], list[int]] = ((), [])

    # -- recording ---------------------------------------------------------

    def emit_event(self, t: float, kind: str, detail: dict):
        rec = {"t": t, "kind": kind, "detail": detail}
        self.events.append(rec)
        self.fold.add_event(kind, detail)
        self._write(rec)

    def record_tick(self):
        """Fold the tick and write it as one compact JSON line.

        The line is the bytes json.dumps(rec, separators=(",", ":")) gives
        for the record dict kept in `trace`: the JSON encoder writes a
        finite float with float.__repr__ and an int with int.__repr__.  Every
        value here is finite, because each input is checked where it enters
        (World, VehicleParams, Polyline, SimConfig).
        """
        st = self.active
        uav = st.uav_position
        site = st.site_position
        ugv = self.ugv_pos
        self.fold.add_tick(self.clock, uav.x, uav.y, ugv.x, ugv.y, st.ordinal,
                           site.x, site.y)
        if self.trace is not None:
            self.trace.append({
                "t": self.clock,
                "uav": [uav.x, uav.y],
                "fuel": st.fuel,
                "ugv": [ugv.x, ugv.y],
                "seg": st.ordinal,
                "site": [site.x, site.y],
                "mode": st.mode.value,
            })
        if self._trace_file is not None:
            self._trace_file.write(
                f'{{"t":{self.clock!r},"uav":[{uav.x!r},{uav.y!r}],'
                f'"fuel":{st.fuel!r},"ugv":[{ugv.x!r},{ugv.y!r}],'
                f'"seg":{st.ordinal!r},"site":[{site.x!r},{site.y!r}],'
                f'"mode":{_MODE_JSON[st.mode]}}}\n')

    def _write(self, rec: dict):
        if self._trace_file is not None:
            self._trace_file.write(json.dumps(rec, separators=(",", ":")) + "\n")

    # -- helpers -----------------------------------------------------------

    def all_processed(self) -> bool:
        return len(self.done_ids) == len(self.trackers)

    def unprocessed_ids(self) -> list[int]:
        return sorted(tid for tid in self.trackers if tid not in self.done_ids)

    def fault(self, message: str):
        st = self.active
        raise InvariantViolation(
            f"{message} [t={self.clock:.6g} seg={st.ordinal} mode={st.mode.value} "
            f"uav_arc={st.uav_arc:.6g} fuel={st.fuel:.6g} site_arc={st.site_arc:.6g} "
            f"ugv=({self.ugv_pos.x:.6g}, {self.ugv_pos.y:.6g})]")


def step(world: WorldState):
    """Advance the world by one tick."""
    cfg = world.config
    dt = cfg.dt
    t0 = world.clock
    world.abandoned_this_tick = False

    _uav_phase(world, t0, dt)
    if world.mission_complete:
        world.clock = world.final_time
        world.record_tick()
        return

    goal = world.active.site_position
    world.ugv_pos = step_toward(world.ugv_pos, goal, world.params.v_ugv * dt)

    deferred_now = check_abandonment(world.active, world.ugv_pos, dt, world.params)
    if deferred_now is not None:
        world.abandoned_this_tick = True
        st = world.active
        site = st.site_position
        world.emit_event(t0 + dt, "abandon", {
            "segment": st.ordinal,
            "targets": deferred_now,
            "site": [site.x, site.y],
        })

    st = world.active
    if st.mode is Mode.WAIT and distance(world.ugv_pos, st.site_position) <= EPS_DOCK:
        _refuel(world, t0 + dt)

    world.clock = t0 + dt
    if cfg.check_invariants:
        _check_invariants(world)
    world.record_tick()


def _uav_phase(world: WorldState, t0: float, dt: float):
    params = world.params
    t_rem = dt
    while t_rem > EPS_TIME and not world.mission_complete:
        st = world.active
        if st.mode is Mode.PROCESSING:
            tracker = world.trackers[st.current]
            avail = params.burn_rate * t_rem
            used, done = tracker.reveal(avail)
            if used > st.fuel + EPS_FUEL:
                world.fault(f"processing target {st.current} would exhaust fuel")
            target_id = st.current
            skipped_now = on_processing_tick(st, used, done, params)
            t_rem -= used / params.burn_rate
            t_now = t0 + (dt - max(t_rem, 0.0))
            if skipped_now:
                world.emit_event(t_now, "skip", {
                    "segment": st.ordinal,
                    "targets": skipped_now,
                    "site_arc": st.site_arc,
                })
            if done:
                world.done_ids.add(target_id)
                world.emit_event(t_now, "complete", {
                    "segment": st.ordinal, "target": target_id,
                })
        elif st.mode in (Mode.TRANSIT, Mode.TO_RENDEZVOUS):
            budget = params.burn_rate * t_rem
            used, arrival = on_transit_tick(st, budget, params)
            if st.fuel < -EPS_FUEL:
                world.fault("fuel exhausted in transit")
            t_rem -= used / params.burn_rate
            t_now = t0 + (dt - max(t_rem, 0.0))
            if arrival == "target":
                used0, done0 = world.trackers[st.current].reveal(0.0)
                if done0:
                    world.done_ids.add(st.current)
                    world.emit_event(t_now, "complete", {
                        "segment": st.ordinal, "target": st.current,
                    })
                    st.current = None
                    st.mode = Mode.TRANSIT
            elif arrival == "site":
                _handle_site_arrival(world, t_now)
            else:
                break  # budget spent mid-path
        elif st.mode is Mode.WAIT:
            burn = params.burn_rate * t_rem
            if st.fuel - burn < -EPS_FUEL:
                world.fault("fuel exhausted hovering at refuel site")
            st.fuel -= burn
            t_rem = 0.0


def _handle_site_arrival(world: WorldState, t_now: float):
    st = world.active
    site = st.site_position
    at_depot = distance(site, world.scenario.depot) <= EPS_GEOM
    if (at_depot and not world.queue and not st.deferred and not world.carry
            and world.all_processed()):
        case = classify_segment_outcome(st)
        world.emit_event(t_now, "case", {"segment": st.ordinal, "case": int(case)})
        world.mission_complete = True
        world.final_time = t_now
        return
    if distance(world.ugv_pos, site) <= EPS_DOCK:
        _refuel(world, t_now)
    else:
        st.mode = Mode.WAIT


def _refuel(world: WorldState, t_now: float):
    """Rendezvous reached: classify the finished segment, top the tank up,
    and activate the next segment (rebuilt around deferred targets)."""
    st = world.active
    params = world.params
    site = st.site_position
    case = classify_segment_outcome(st)
    world.emit_event(t_now, "case", {"segment": st.ordinal, "case": int(case)})
    world.emit_event(t_now, "refuel", {
        "segment": st.ordinal,
        "site": [site.x, site.y],
        "fuel": params.fuel_capacity,
    })

    deferred_all = st.deferred + world.carry
    next_plan = world.queue.pop(0) if world.queue else None
    new_plan, shed, modified = transfer_and_repair(
        site, deferred_all, next_plan, world.scenario.depot, params,
        ordinal=st.ordinal + 1)
    world.carry = shed
    if modified:
        world.emit_event(t_now, "case", {
            "segment": st.ordinal + 1, "case": int(Case.SEGMENT_REPAIR),
        })
    world.active = SegmentState.begin(new_plan, st.ordinal + 1,
                                      fuel=params.fuel_capacity)


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
    if not world.abandoned_this_tick:
        if not ugv_reachable(world.ugv_pos, st.site_position, st.fuel, params):
            world.fault("refuel site out of ground-vehicle reach")
    # every target is held exactly once (pending, current, deferred, carried
    # or queued) or done, never both
    held = [tid for tid, _ in st.pending]
    if st.current is not None:
        held.append(st.current)
    held += [tid for tid, _ in st.deferred]
    held += [tid for tid, _ in world.carry]
    held += _queued_ids(world)
    ids = set(held)
    done = world.done_ids
    if (len(ids) != len(held) or not ids.isdisjoint(done)
            or ids.union(done) != world.trackers.keys()):
        twice = sorted({tid for tid in held if held.count(tid) > 1})
        world.fault(f"target conservation broken: held twice={twice} "
                    f"held and done={sorted(ids & done)} "
                    f"missing={sorted(world.trackers.keys() - ids - done)} "
                    f"unknown={sorted(ids - world.trackers.keys())}")


def _queued_ids(world: WorldState) -> list[int]:
    """Target ids of the queued segments, in queue order.

    Read again only when the queue holds other SegmentPlan objects than at
    the last call.  A SegmentPlan is frozen, so the same objects hold the
    same ids, and a segment swapped in is seen by its identity.
    """
    segs, ids = world._queued
    queue = world.queue
    if len(segs) != len(queue) or not all(map(operator.is_, segs, queue)):
        segs = tuple(queue)
        ids = [tid for seg in segs for tid, _ in seg.target_arcs]
        world._queued = (segs, ids)
    return ids


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
    while not world.mission_complete and world.clock < max_t - EPS_TIME:
        step(world)

    status = "completed" if world.mission_complete else "timeout"
    return RunReport(
        status=status,
        metrics=world.fold.result(),
        events=world.events,
        trace=world.trace,
        unprocessed=world.unprocessed_ids(),
    )


def metrics_to_text(metrics: dict) -> str:
    """Flat key-value block, keys sorted, one per line."""
    return "\n".join(f"{k} = {metrics[k]!r}" for k in sorted(metrics)) + "\n"
