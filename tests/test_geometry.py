"""Path arithmetic checked against hand-computed values."""
from __future__ import annotations

import dataclasses
import math
import pickle

import pytest

from fuelstring.geometry import (
    EPS_GEOM,
    Point2D,
    Polyline,
    distance,
    farthest_site_arc,
    step_toward,
)
from fuelstring.model import World
from fuelstring.rng import SplitMix64
from fuelstring.scenario_io import ScenarioFormatError, parse_plan
from fuelstring.sim import SimConfig


def bend() -> Polyline:
    # 10 along x, then a 6-8-10 edge up-left; total arc 20
    return Polyline([Point2D(0, 0), Point2D(10, 0), Point2D(4, 8)])


def test_point_distance():
    assert distance(Point2D(0, 0), Point2D(3, 4)) == 5.0
    assert distance(Point2D(1, 1), Point2D(1, 1)) == 0.0
    p = Point2D(2.5, -1.0)
    assert (p.x, p.y) == (2.5, -1.0)


def test_point_is_a_frozen_slotted_value():
    p = Point2D(1.5, -2.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.x = 3.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del p.y
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.z = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del p.z
    assert Point2D.__slots__ == ("x", "y") and not hasattr(p, "__dict__")
    assert (p.x, p.y) == (1.5, -2.0)
    assert p == Point2D(x=1.5, y=-2.0) == Point2D(1.5, y=-2.0)
    assert p != Point2D(1.5, 2.0) and p != (1.5, -2.0)
    assert hash(p) == hash(Point2D(1.5, -2.0)) == hash((1.5, -2.0))
    assert len({p, Point2D(1.5, -2.0), Point2D(-2.0, 1.5)}) == 2
    assert repr(p) == "Point2D(x=1.5, y=-2.0)"
    assert dataclasses.replace(p, y=4.0) == Point2D(1.5, 4.0)
    assert dataclasses.astuple(p) == (1.5, -2.0)
    assert pickle.loads(pickle.dumps(p)) == p
    with pytest.raises(TypeError):
        Point2D(1.0)


def test_non_finite_values_rejected_where_they_enter():
    """Point2D itself checks nothing; each entry point rejects NaN and inf."""
    with pytest.raises(ValueError, match="world bounds"):
        World(width=math.inf)
    with pytest.raises(ValueError, match="non-finite edge"):
        Polyline([Point2D(0, 0), Point2D(math.nan, 0)])
    with pytest.raises(ValueError, match="non-finite edge"):
        Polyline([Point2D(0, 0), Point2D(0, math.inf)])
    doc = '{"segments": [{"index": 0, "vertices": [[0, 0], [NaN, 0]]}]}'
    with pytest.raises(ScenarioFormatError, match=r"segments\[0\]: vertices\[1\] must be a finite"):
        parse_plan(doc)
    with pytest.raises(ValueError, match="dt must be finite"):
        SimConfig(dt=math.nan)


def test_polyline_needs_two_distinct_vertices():
    with pytest.raises(ValueError):
        Polyline([Point2D(0, 0)])
    with pytest.raises(ValueError):
        Polyline([Point2D(0, 0), Point2D(0, 0)])
    with pytest.raises(ValueError):
        Polyline([Point2D(0, 0), Point2D(5, 0), Point2D(5, 0)])


def test_polyline_allows_revisited_vertices():
    # out-and-back over the same point is a legal path
    p = Polyline([Point2D(0, 0), Point2D(10, 0), Point2D(0, 0)])
    assert p.length == 20.0


def test_length_and_cumulative_arcs():
    p = bend()
    assert p.length == 20.0
    assert p.cumulative_arc == (0.0, 10.0, 20.0)


def test_point_at_arc_returns_vertices_exactly():
    p = bend()
    assert p.point_at_arc(0.0) == Point2D(0, 0)
    assert p.point_at_arc(10.0) == Point2D(10, 0)
    assert p.point_at_arc(20.0) == Point2D(4, 8)


def test_point_at_arc_interpolates():
    p = bend()
    assert p.point_at_arc(2.0) == Point2D(2.0, 0.0)
    mid = p.point_at_arc(15.0)
    assert math.isclose(mid.x, 7.0, abs_tol=1e-12)
    assert math.isclose(mid.y, 4.0, abs_tol=1e-12)


def test_point_at_arc_clamps_noise_but_rejects_real_overshoot():
    p = bend()
    assert p.point_at_arc(-1e-10) == Point2D(0, 0)
    assert p.point_at_arc(20.0 + 1e-10) == Point2D(4, 8)
    with pytest.raises(ValueError):
        p.point_at_arc(-0.01)
    with pytest.raises(ValueError):
        p.point_at_arc(20.01)


def test_sub_polyline_interpolates_endpoints():
    s = bend().sub_polyline(2.0, 15.0)
    assert s.vertices == (Point2D(2, 0), Point2D(10, 0), Point2D(7, 4))
    assert math.isclose(s.length, 13.0, abs_tol=1e-12)


def test_sub_polyline_skips_coincident_interior_vertices():
    s = bend().sub_polyline(10.0, 20.0)
    assert s.vertices == (Point2D(10, 0), Point2D(4, 8))
    with pytest.raises(ValueError):
        bend().sub_polyline(5.0, 5.0)


def test_step_toward_clamps_at_goal():
    assert step_toward(Point2D(0, 0), Point2D(3, 4), 10.0) == Point2D(3, 4)
    assert step_toward(Point2D(0, 0), Point2D(3, 4), 2.5) == Point2D(1.5, 2.0)
    assert step_toward(Point2D(3, 4), Point2D(3, 4), 1.0) == Point2D(3, 4)
    assert step_toward(Point2D(0, 0), Point2D(3, 4), 0.0) == Point2D(0, 0)


def test_site_search_returns_hi_when_feasible():
    # hi = 13.3 is not a vertex; its point (8.02, 2.64) is ~8.44 out
    assert farthest_site_arc(bend(), 0.0, 13.3, Point2D(0, 0), 9.0) == 13.3
    # hi's point 9 + 5e-10 from the origin still counts, bit for bit
    line = Polyline([Point2D(0, 0), Point2D(10, 0)])
    assert farthest_site_arc(line, 0.0, 9.0 + 5e-10, Point2D(0, 0), 9.0) == 9.0 + 5e-10


def test_site_search_stops_at_the_reach_circle():
    # the second edge leaves (10, 0) itself, so it crosses the 5.2 m circle
    # about (10, 0) 5.2 along: arc 10 + 5.2
    assert farthest_site_arc(bend(), 0.0, 20.0, Point2D(10, 0), 5.2) == pytest.approx(
        15.2, abs=1e-12)
    # the vertex (3.2, 0) lies inside the 3.21 m circle about the origin, and
    # the upright edge from it crosses that circle at y = sqrt(3.21^2 - 3.2^2)
    hook = Polyline([Point2D(0, 0), Point2D(3.2, 0), Point2D(3.2, 10)])
    assert farthest_site_arc(hook, 0.0, 13.2, Point2D(0, 0), 3.21) == pytest.approx(
        3.2 + math.sqrt(3.21 ** 2 - 3.2 ** 2), abs=1e-12)  # 3.4532
    # a circle through a vertex that the next edge leaves outward: the vertex's arc
    assert farthest_site_arc(hook, 0.0, 13.2, Point2D(0, 0), 3.2) == 3.2


def test_site_search_on_empty_or_infeasible_interval_is_none():
    line = Polyline([Point2D(0, 0), Point2D(10, 0)])
    assert farthest_site_arc(line, 5.0, 5.0, Point2D(0, 0), 50.0) is None
    assert farthest_site_arc(line, 5.0, 5.0 + 1e-12, Point2D(0, 0), 50.0) is None
    # every candidate in (5, 10] lies beyond reach; arcs at or below lo never count
    assert farthest_site_arc(line, 5.0, 10.0, Point2D(0, 0), 4.9) is None


def test_arc_addressing_on_random_paths():
    rng = SplitMix64(2024)
    for _ in range(50):
        n = 2 + rng.next_u64() % 6
        pts: list[Point2D] = []
        while len(pts) < n:
            cand = Point2D(rng.uniform(-40.0, 40.0), rng.uniform(-40.0, 40.0))
            if not pts or distance(pts[-1], cand) > 1e-6:
                pts.append(cand)
        p = Polyline(pts)
        for i, v in enumerate(p.vertices):
            assert p.point_at_arc(p.cumulative_arc[i]) == v
        s0 = rng.uniform(0.0, p.length / 2.0)
        s1 = rng.uniform(s0 + 1e-3, p.length)
        assert math.isclose(p.sub_polyline(s0, s1).length, s1 - s0, abs_tol=1e-9)
        # chord never longer than arc
        assert distance(p.point_at_arc(s0), p.point_at_arc(s1)) <= s1 - s0 + 1e-9


def last_inside_arc(path: Polyline, j: int, center: Point2D, reach: float) -> float | None:
    """The last arc of edge j (vertex j-1 to j) within reach of center, found
    by bisection from the edge's closest point to the centre, or None."""
    a0, a1 = path.cumulative_arc[j - 1], path.cumulative_arc[j]
    v, w = path.vertices[j - 1], path.vertices[j]
    dx, dy = w.x - v.x, w.y - v.y
    t = min(max(((center.x - v.x) * dx + (center.y - v.y) * dy) / (dx * dx + dy * dy), 0.0), 1.0)

    def at(u):
        return distance(center, Point2D(v.x + u * dx, v.y + u * dy))

    if at(t) > reach:
        return None
    if at(1.0) <= reach:
        return a1
    inside, outside = t, 1.0
    for _ in range(100):
        mid = 0.5 * (inside + outside)
        inside, outside = (mid, outside) if at(mid) <= reach else (inside, mid)
    return a0 + inside * (a1 - a0)


def test_site_search_against_a_sampling_oracle():
    """Seeded random paths, centres, reaches and intervals.

    The answer lies in (lo, hi], within reach + EPS_GEOM of the centre.  No
    arc in (answer + EPS_GEOM, hi] (in (lo, hi] when there is no answer)
    lies inside reach: checked on a dense sample, on every vertex and on
    each edge's last point inside reach, found by bisection.
    """
    rng = SplitMix64(77)
    seen = {"hi": 0, "crossing": 0, "none": 0}
    for _ in range(400):
        pts = [Point2D(rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0))]
        while len(pts) < 2 + rng.next_u64() % 5:
            cand = Point2D(rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0))
            if distance(pts[-1], cand) > 1e-3:
                pts.append(cand)
        path = Polyline(pts)
        arcs = path.cumulative_arc
        lo = 0.0 if rng.next_u64() % 2 else rng.uniform(0.0, path.length / 2.0)
        hi = path.length if rng.next_u64() % 3 == 0 else rng.uniform(lo, path.length)
        center = (path.point_at_arc(lo) if rng.next_u64() % 2
                  else Point2D(rng.uniform(-25.0, 25.0), rng.uniform(-25.0, 25.0)))
        reach = rng.uniform(0.5, 30.0)
        got = farthest_site_arc(path, lo, hi, center, reach)

        def inside(a):
            return distance(center, path.point_at_arc(a)) <= reach

        if got is None:
            floor = lo + EPS_GEOM
            seen["none"] += 1
        else:
            assert lo < got <= hi
            assert distance(center, path.point_at_arc(got)) <= reach + EPS_GEOM
            floor = got + EPS_GEOM
            seen["hi" if got == hi else "crossing"] += 1
        probes = [floor + (hi - floor) * (k + 1) / 500 for k in range(500)] + list(arcs)
        for j in range(1, len(arcs)):
            last = last_inside_arc(path, j, center, reach)
            if last is not None:
                probes.append(min(last, hi))
        for a in probes:
            if floor < a <= hi:
                assert not inside(a), (a, got, lo, hi, reach)
    assert all(count >= 10 for count in seen.values()), seen
