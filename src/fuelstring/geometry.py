"""Planar points and polyline paths with arc-length addressing."""
from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

EPS_GEOM = 1e-9
SITE_SPACING = 0.5  # refuel-site candidate grid, in arc length from the path start


@dataclass(frozen=True, slots=True)
class Point2D:
    """A plain coordinate pair.  It checks nothing: coordinates are checked
    where they enter the program (document parsers, World, Polyline)."""

    x: float
    y: float


def distance(a: Point2D, b: Point2D) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


class Polyline:
    """Piecewise-linear path addressed by arc length from its first vertex.

    Vertices are fixed at construction; consecutive duplicates are rejected
    so every edge has positive length, and non-finite coordinates (or a path
    too long for a float) so every arc is finite.  Non-consecutive repeats
    are fine (a path may cross or double back over itself).
    """

    __slots__ = ("vertices", "cumulative_arc")

    def __init__(self, vertices: list[Point2D] | tuple[Point2D, ...]):
        if len(vertices) < 2:
            raise ValueError("polyline needs at least 2 vertices")
        cum = [0.0]
        for a, b in zip(vertices, vertices[1:]):
            d = distance(a, b)
            if d <= EPS_GEOM:
                raise ValueError(f"zero-length edge at ({a.x}, {a.y})")
            arc = cum[-1] + d
            if not math.isfinite(arc):
                raise ValueError(f"non-finite edge at ({a.x}, {a.y})")
            cum.append(arc)
        self.vertices = tuple(vertices)
        self.cumulative_arc = tuple(cum)

    @classmethod
    def from_arcs(cls, vertices, cumulative_arc) -> Polyline:
        """The polyline __init__ would build, from arcs the caller already
        summed the same way: each edge longer than EPS_GEOM, each arc the
        previous one plus distance(a, b), and every arc finite."""
        path = object.__new__(cls)
        path.vertices = tuple(vertices)
        path.cumulative_arc = tuple(cumulative_arc)
        return path

    @property
    def length(self) -> float:
        return self.cumulative_arc[-1]

    def point_at_arc(self, s: float) -> Point2D:
        """Interpolated point at arc length s from the start.

        s is clamped within EPS_GEOM of the valid range; anything further
        outside raises.
        """
        if s < -EPS_GEOM or s > self.length + EPS_GEOM:
            raise ValueError(f"arc {s} outside [0, {self.length}]")
        s = min(max(s, 0.0), self.length)
        i = bisect_right(self.cumulative_arc, s) - 1
        if i >= len(self.vertices) - 1:
            return self.vertices[-1]
        if s == self.cumulative_arc[i]:
            return self.vertices[i]
        a, b = self.vertices[i], self.vertices[i + 1]
        t = (s - self.cumulative_arc[i]) / (self.cumulative_arc[i + 1] - self.cumulative_arc[i])
        return Point2D(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))

    def sub_polyline(self, s0: float, s1: float) -> Polyline:
        """Portion of the path between arcs s0 < s1, endpoints interpolated."""
        if s1 - s0 <= EPS_GEOM:
            raise ValueError(f"empty sub-polyline [{s0}, {s1}]")
        pts = [self.point_at_arc(s0)]
        for v, arc in zip(self.vertices, self.cumulative_arc):
            if s0 + EPS_GEOM < arc < s1 - EPS_GEOM:
                pts.append(v)
        pts.append(self.point_at_arc(s1))
        return Polyline(pts)

    def __repr__(self):
        return f"Polyline({len(self.vertices)} vertices, length {self.length:.3f})"


def step_toward(pos: Point2D, goal: Point2D, step: float) -> Point2D:
    """Move pos straight toward goal by at most step, clamping at goal."""
    d = distance(pos, goal)
    if d <= step or d <= EPS_GEOM:
        return goal
    f = step / d
    return Point2D(pos.x + f * (goal.x - pos.x), pos.y + f * (goal.y - pos.y))


def farthest_site_arc(path: Polyline, lo: float, hi: float, center: Point2D, reach: float,
                      avoid: list[float] | tuple[float, ...] = ()) -> float | None:
    """Farthest refuel-site arc in (lo, hi] whose point lies within reach of
    center, or None.

    Candidates are the path's vertices, a SITE_SPACING grid anchored at the
    path start, and hi itself, scanned from hi downward.  Arcs within
    EPS_GEOM of an avoid arc are skipped, so a site never lands on a target.
    """
    if hi <= lo + EPS_GEOM:
        return None
    arcs = path.cumulative_arc
    vertices = reversed(arcs[:bisect_right(arcs, hi)])
    grid = (k * SITE_SPACING for k in range(int(hi // SITE_SPACING), 0, -1))
    avoid = sorted(avoid)
    for a in heapq.merge([hi], vertices, grid, reverse=True):
        if a <= lo + EPS_GEOM:
            return None
        i = bisect_left(avoid, a - EPS_GEOM)
        if i < len(avoid) and avoid[i] <= a + EPS_GEOM:
            continue
        if distance(center, path.point_at_arc(a)) <= reach + EPS_GEOM:
            return a
    return None
