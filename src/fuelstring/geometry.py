"""Planar points and polyline paths with arc-length addressing."""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import FrozenInstanceError, dataclass

EPS_GEOM = 1e-9
SITE_STEP_BACK = 1e-6  # how far a refuel site steps back off a target (m)


@dataclass(frozen=True, slots=True, init=False)
class Point2D:
    """A plain coordinate pair.  It checks nothing: coordinates are checked
    where they enter the program (document parsers, Scenario, Polyline's
    edges, validate_plan's vertex rule)."""

    x: float
    y: float

    def __init__(self, x: float, y: float):
        _set_x(self, x)  # the slot setters: the dataclass __init__ calls
        _set_y(self, y)  # object.__setattr__ by name, at twice the cost


_set_x, _set_y = Point2D.x.__set__, Point2D.y.__set__


def _frozen(self, name, *value):  # on 3.11 the generated pair raises TypeError for a non-field
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


Point2D.__setattr__ = Point2D.__delattr__ = _frozen


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

    @property
    def length(self) -> float:
        return self.cumulative_arc[-1]

    def point_at_arc(self, s: float) -> Point2D:
        """Interpolated point at arc length s from the start.

        s is clamped within EPS_GEOM of the valid range; anything further
        outside raises.
        """
        arcs, verts = self.cumulative_arc, self.vertices
        length = arcs[-1]
        if s < -EPS_GEOM or s > length + EPS_GEOM:
            raise ValueError(f"arc {s} outside [0, {length}]")
        s = 0.0 if s < 0.0 else length if s > length else s  # min(max(s, 0.0), length)
        i = bisect_right(arcs, s) - 1
        if i >= len(verts) - 1:
            return verts[-1]
        a0 = arcs[i]
        if s == a0:
            return verts[i]
        a, b = verts[i], verts[i + 1]
        t = (s - a0) / (arcs[i + 1] - a0)
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

    hi counts, bit for bit, when its point lies within reach + EPS_GEOM.
    Below hi the answer is exact: scanning the edges down from hi, each
    meets the reach disc between the roots of one quadratic.  A site never
    lands on a target: an answer within EPS_GEOM of an avoid arc steps back
    to SITE_STEP_BACK short of that arc, and the search starts again there.
    """
    avoid = sorted(avoid)
    arcs, verts = path.cumulative_arc, path.vertices
    while hi > lo + EPS_GEOM:
        site = hi if distance(center, path.point_at_arc(hi)) <= reach + EPS_GEOM else None
        j = min(bisect_left(arcs, hi), len(arcs) - 1)  # the edge ending at arcs[j] holds hi
        while site is None and j > 0 and arcs[j] > lo + EPS_GEOM:
            a0, a1, v, w = arcs[j - 1], arcs[j], verts[j - 1], verts[j]
            dx, dy, ex, ey = w.x - v.x, w.y - v.y, v.x - center.x, v.y - center.y
            qa, qb = dx * dx + dy * dy, dx * ex + dy * ey
            disc = qb * qb - qa * (ex * ex + ey * ey - reach * reach)
            if disc >= 0.0:  # within reach: v + t (w - v) for t0 <= t <= t1
                t0, t1 = (-qb - math.sqrt(disc)) / qa, (-qb + math.sqrt(disc)) / qa
                top = min(a0 + min(t1, 1.0) * (a1 - a0), hi)
                if a0 + max(t0, 0.0) * (a1 - a0) <= top:
                    site = top
            j -= 1
        if site is None or site <= lo + EPS_GEOM:
            return None
        k = bisect_left(avoid, site - EPS_GEOM)
        if k == len(avoid) or avoid[k] > site + EPS_GEOM:
            return site
        hi = avoid[k] - SITE_STEP_BACK
    return None
