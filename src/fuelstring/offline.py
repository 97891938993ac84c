"""Offline mission planning: visit order, then fuel-feasible segmentation.

Processing costs are unknown before flight, so the plan assumes visits are
free: it only budgets fuel for distance.  The online layer deals with the
difference once costs start revealing themselves.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .geometry import (EPS_GEOM, SITE_STEP_BACK, Point2D, Polyline, distance,
                       farthest_site_arc)
from .model import Scenario, VehicleParams, is_real


# Bounds split_tour's work.  The largest segment estimate (tour length over
# min(reach, range)) among the default sweep grid, the generated mission
# corpora and plan-large is 44.1, about 1/227 of this.
MAX_SEGMENTS = 10_000


class PlanningError(Exception):
    """Raised when no fuel-feasible plan exists for a scenario."""


@dataclass(frozen=True)
class Tour:
    """Closed visit order: path starts and ends at the depot, each target
    appears exactly once at a strictly increasing arc."""

    path: Polyline
    visits: tuple[tuple[int, float], ...]  # (target id, arc along path)

    @property
    def length(self) -> float:
        return self.path.length


@dataclass(frozen=True)
class SegmentPlan:
    """One refuel-to-refuel leg.  The path runs from the previous refuel site
    to this segment's site; target_arcs locate this segment's targets on it.
    segment_violations states the rules a segment keeps.
    """

    index: int
    path: Polyline
    target_arcs: tuple[tuple[int, float], ...] = field(default_factory=tuple)

    @property
    def length(self) -> float:
        return self.path.length

    @property
    def start(self) -> Point2D:
        return self.path.vertices[0]

    @property
    def site(self) -> Point2D:
        return self.path.vertices[-1]

    def target_ids(self) -> list[int]:
        return [tid for tid, _ in self.target_arcs]


@dataclass(frozen=True)
class MissionPlan:
    segments: tuple[SegmentPlan, ...]

    @property
    def sites(self) -> list[Point2D]:
        """Refuel sites in visit order; the last one is the final rendezvous."""
        return [seg.site for seg in self.segments]

    @property
    def total_length(self) -> float:
        return sum(seg.length for seg in self.segments)

    def target_ids(self) -> list[int]:
        out: list[int] = []
        for seg in self.segments:
            out.extend(seg.target_ids())
        return out


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        if self.ok:
            return "plan ok"
        return "\n".join(f"{v.kind}: {v.message}" for v in self.violations)


def build_tour(scenario: Scenario) -> Tour:
    """Nearest-neighbour order from the depot, then first-improvement 2-opt.

    Both passes read one distance matrix over the depot (index 0) and the
    targets in ascending id order.  Distance ties in the greedy pass go to
    the lowest target id.  2-opt applies the first improving move in
    lexicographic order and returns the same tour as a scan that restarts
    from the beginning after every move (see _two_opt), so the result is
    fully deterministic.
    """
    depot = scenario.depot
    targets = sorted(scenario.targets, key=lambda t: t.id)
    points = [depot] + [t.position for t in targets]
    # one triangle, mirrored: hypot of exactly negated differences is equal
    n = len(points)
    dist = [[0.0] * n for _ in range(n)]
    for i, p in enumerate(points):
        row = dist[i]
        for j in range(i + 1, n):
            row[j] = dist[j][i] = distance(p, points[j])

    tour = [0]
    remaining = list(range(1, len(points)))
    while remaining:
        row = dist[tour[-1]]
        best_k = 0
        best_d = None
        for k, idx in enumerate(remaining):
            d = row[idx]
            if best_d is None or d < best_d - EPS_GEOM:
                best_k, best_d = k, d
        tour.append(remaining.pop(best_k))
    tour.append(0)
    tour = _two_opt(tour, dist)

    path = Polyline([points[k] for k in tour])
    visits = tuple(
        (targets[k - 1].id, arc)
        for k, arc in zip(tour[1:-1], path.cumulative_arc[1:-1])
    )
    return Tour(path=path, visits=visits)


def _two_opt(tour: list[int], dist: list[list[float]]) -> list[int]:
    """First-improvement 2-opt on a closed index tour (tour[0] == tour[-1]).

    Edge k joins tour[k] and tour[k + 1].  Pair (i, j), j >= i + 2, swaps
    edges i and j for (tour[i], tour[j]) and (tour[i + 1], tour[j + 1]) by
    reversing tour[i + 1:j + 1], when that shortens the tour by more than
    EPS_GEOM.  The pairs are tried in lexicographic order and the first
    improving one is applied.

    The result equals that of restarting the scan at (0, 2) after every
    move, at a fraction of the cost.  When a move at (i, j) is found, every
    earlier pair was found non-improving.  The move changes only edges
    i..j, so a pair in a row below i can have changed only if its column
    lies in [i, j]: the next pass rechecks those rows at those columns
    alone, then scans from row i onward in full.  It finds the same first
    improving pair as a restart would.  The comparison is the same float
    expression as computing each distance afresh (hypot is symmetric), so
    ties and near-ties resolve identically too.
    """
    n = len(tour)
    edge = [dist[a][b] for a, b in zip(tour, tour[1:])]
    row0, lo, hi = 0, 0, -1  # rows below row0 need only columns lo..hi
    while True:
        move = None
        for i in range(n - 3):
            a, b = tour[i], tour[i + 1]
            da, db, dab = dist[a], dist[b], edge[i]
            first = i + 2 if i >= row0 else max(lo, i + 2)
            last = n - 2 if i >= row0 else hi
            for j in range(first, last + 1):
                if da[tour[j]] + db[tour[j + 1]] < dab + edge[j] - EPS_GEOM:
                    move = (i, j)
                    break
            if move is not None:
                break
        if move is None:
            return tour
        i, j = move
        tour[i + 1:j + 1] = tour[j:i:-1]
        edge[i:j + 1] = [dist[tour[k]][tour[k + 1]] for k in range(i, j + 1)]
        row0, lo, hi = i, i, j


def split_tour(tour: Tour, params: VehicleParams) -> MissionPlan:
    """Greedy farthest-feasible segmentation of the tour.

    From each cut, the next refuel site goes at the farthest site arc
    (see farthest_site_arc) whose segment fits in one tank and whose site
    the ground vehicle can reach from the previous one.  Each cut but the
    last (or one stepped back off a target) advances at least min(reach,
    range), as no arc is shorter than its chord.  Raises PlanningError when
    that allows more than MAX_SEGMENTS segments, or no site advances a cut.
    """
    reach = params.reach_radius
    max_len = params.flight_range
    total = tour.length
    step = min(reach, max_len)  # 0 when a huge burn rate underflows the reach
    if not total <= MAX_SEGMENTS * step:
        raise PlanningError(
            f"plan needs about {total / step if step else math.inf:.3g} segments (tour "
            f"{total:.6g} over min(reach, range) {step:.6g}), more than the limit of "
            f"{MAX_SEGMENTS}")
    target_arcs = [arc for _, arc in tour.visits]

    cuts = [0.0]
    while cuts[-1] < total - EPS_GEOM:
        a_prev = cuts[-1]
        best = farthest_site_arc(tour.path, a_prev, min(a_prev + max_len, total),
                                 tour.path.point_at_arc(a_prev), reach, target_arcs)
        if best is None:
            raise PlanningError(
                f"cannot place a refuel site after arc {a_prev:.6g}: no arc more than "
                f"EPS_GEOM {EPS_GEOM:g} past it and within range {max_len:.6g} lies "
                f"inside reach radius {reach:.6g} once a site on a target steps back "
                f"SITE_STEP_BACK {SITE_STEP_BACK:g}")
        cuts.append(best)

    segments = []
    for i, (a0, a1) in enumerate(zip(cuts, cuts[1:])):
        inside = tuple(
            (tid, arc - a0) for tid, arc in tour.visits
            if a0 + EPS_GEOM < arc < a1 - EPS_GEOM
        )
        segments.append(SegmentPlan(
            index=i,
            path=tour.path.sub_polyline(a0, a1),
            target_arcs=inside,
        ))
    return MissionPlan(segments=tuple(segments))


def plan_mission(scenario: Scenario) -> MissionPlan:
    """Tour construction plus splitting in one call."""
    return split_tour(build_tour(scenario), scenario.params)


def validate_plan(plan: MissionPlan, scenario: Scenario) -> ValidationReport:
    """Structural audit of a plan against its scenario.

    Collects every violation rather than stopping at the first, so a bad
    plan can be reported in full.
    """
    v: list[Violation] = []
    params = scenario.params
    segs = plan.segments
    if not segs:
        return ValidationReport(violations=(Violation("empty", "plan has no segments"),))
    positions = {t.id: t.position for t in scenario.targets}

    if distance(segs[0].start, scenario.depot) > EPS_GEOM:
        v.append(Violation("start", "first segment does not start at the depot"))
    if distance(segs[-1].site, scenario.depot) > EPS_GEOM:
        v.append(Violation("end", "last segment does not end at the depot"))

    for a, b in zip(segs, segs[1:]):
        if distance(a.site, b.start) > EPS_GEOM:
            v.append(Violation(
                "chain",
                f"segment {b.index} starts at ({b.start.x:.6g}, {b.start.y:.6g}) "
                f"but segment {a.index} ends at ({a.site.x:.6g}, {a.site.y:.6g})"))

    for seg in segs:
        v += segment_violations(seg, params, positions)

    planned = Counter(plan.target_ids())
    for t, count in sorted(planned.items()):
        if count > 1:
            v.append(Violation("duplicate-target",
                               f"target {t} appears {count} times in the plan"))
    for t in sorted(positions.keys() - planned.keys()):
        v.append(Violation("missing-target", f"target {t} not covered by any segment"))
    for t in sorted(planned.keys() - positions.keys()):
        v.append(Violation("unknown-target", f"plan references target {t} not in scenario"))

    return ValidationReport(violations=tuple(v))


def segment_violations(seg: SegmentPlan, params: VehicleParams,
                       positions: dict[int, Point2D], *,
                       repaired: bool = False) -> list[Violation]:
    """The segment contract: every rule one segment keeps on its own.

    Every vertex coordinate is a real number, not a bool: Polyline checks
    no types, so a plan built in code meets its type check here.  Its
    length is at most the flight range and its site gap (start to site) at
    most the reach radius.  Each target arc lies strictly inside (0,
    length), strictly after the previous one, and maps to the target's
    position in positions (an id positions lacks is skipped).  A segment
    that transfer_and_repair built (repaired=True) has two relaxations: it
    may start on a deferred target (arc 0), and coincident targets may
    share an arc, so its arcs need only be nondecreasing.  Lengths and arcs
    are compared to EPS_GEOM, positions to 1e-6.
    """
    v: list[Violation] = []
    for k, p in enumerate(seg.path.vertices):
        if not (is_real(p.x) and is_real(p.y)):
            axis, c = ("y", p.y) if is_real(p.x) else ("x", p.x)
            v.append(Violation(
                "vertex",
                f"segment {seg.index} vertex {k}: {axis} must be a real number, got {c!r}"))
    if seg.length > params.flight_range + EPS_GEOM:
        v.append(Violation(
            "over-length",
            f"segment {seg.index} length {seg.length:.6g} exceeds "
            f"flight range {params.flight_range:.6g}"))
    gap = distance(seg.start, seg.site)
    if gap > params.reach_radius + EPS_GEOM:
        v.append(Violation(
            "site-gap",
            f"segment {seg.index} site gap {gap:.6g} exceeds "
            f"reach radius {params.reach_radius:.6g}"))
    inside, order = ("inside", "before") if repaired else ("strictly inside", "not strictly after")
    prev = -math.inf  # the first target has no previous arc
    for tid, arc in seg.target_arcs:
        past_start = arc >= 0.0 if repaired else arc > EPS_GEOM
        if not (past_start and arc < seg.length - EPS_GEOM):
            v.append(Violation(
                "target-arc",
                f"target {tid} at arc {arc:.6g} not {inside} "
                f"segment {seg.index} (length {seg.length:.6g})"))
        if (arc < prev) if repaired else (arc <= prev + EPS_GEOM and prev > 0.0):
            v.append(Violation(
                "target-order",
                f"target {tid} arc {arc:.6g} {order} previous "
                f"arc {prev:.6g} in segment {seg.index}"))
        prev = arc
        actual = positions.get(tid)
        if actual is None:
            continue  # validate_plan reports it once, as unknown-target
        try:
            at = seg.path.point_at_arc(arc)
            if distance(at, actual) > 1e-6:
                v.append(Violation(
                    "target-position",
                    f"target {tid} arc {arc:.6g} maps to ({at.x:.6g}, {at.y:.6g}), "
                    f"expected ({actual.x:.6g}, {actual.y:.6g})"))
        except ValueError as exc:
            v.append(Violation("target-position", f"target {tid}: {exc}"))
    return v
