"""Path arithmetic checked against hand-computed values."""
from __future__ import annotations

import math

import pytest

from fuelstring.geometry import (
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
    # hi = 13.3 is neither a vertex nor on the 0.5 grid; (8.02, 2.64) is ~8.44 out
    assert farthest_site_arc(bend(), 0.0, 13.3, Point2D(0, 0), 9.0) == 13.3


def test_site_search_stops_at_the_reach_circle():
    # around (10, 0) the second edge stays within 5.2 up to arc 15.2: grid 15.0
    assert farthest_site_arc(bend(), 0.0, 20.0, Point2D(10, 0), 5.2) == 15.0
    # arc 3.5 sits at (3.2, 0.3), 3.214 from the origin; the vertex 3.2 is the last inside
    hook = Polyline([Point2D(0, 0), Point2D(3.2, 0), Point2D(3.2, 10)])
    assert farthest_site_arc(hook, 0.0, 13.2, Point2D(0, 0), 3.21) == 3.2


def test_site_search_skips_avoided_arcs():
    line = Polyline([Point2D(0, 0), Point2D(10, 0)])
    assert farthest_site_arc(line, 0.0, 10.0, Point2D(0, 0), 50.0, avoid=[10.0]) == 9.5
    assert farthest_site_arc(line, 0.0, 10.0, Point2D(0, 0), 50.0,
                             avoid=[9.5, 10.0 + 1e-12]) == 9.0


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
