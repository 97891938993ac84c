"""Scenario data model: vehicles, targets, and the mission world."""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

from .geometry import EPS_GEOM, Point2D, distance

EPS_FUEL = 1e-9
EPS_TIME = 1e-9
_FLOAT_MAX = sys.float_info.max


def is_real(v) -> bool:
    """An int or a float, and not a bool: the one type a model number takes.
    NaN, the infinities and ints too big for a float pass; each field then
    tests its own range."""
    # a float first: models build thousands of coordinates and costs
    return type(v) is float or isinstance(v, (int, float)) and not isinstance(v, bool)


def is_int(v) -> bool:
    """An int and not a bool: the type a target id or a seed takes."""
    return isinstance(v, int) and not isinstance(v, bool)


def check_real(name: str, v):
    """Refuse a model value that is not a real number, naming its field."""
    if not is_real(v):
        raise ValueError(f"{name} must be a real number, got {v!r}")


@dataclass(frozen=True)
class VehicleParams:
    """Speeds and fuel characteristics of the UAV / UGV pair.

    The UGV has no fuel budget of its own; only its speed matters.  The
    derived constants are computed once per instance, on first use.
    """

    v_uav: float = 2.0
    v_ugv: float = 1.0
    fuel_capacity: float = 50.0
    fuel_per_meter: float = 1.0
    r_max: float | None = None

    def __post_init__(self):
        for name in ("v_uav", "v_ugv", "fuel_capacity", "fuel_per_meter", "r_max"):
            v = getattr(self, name)
            if v is None and name == "r_max":
                continue
            if not (is_real(v) and 0 < v <= _FLOAT_MAX):
                check_real(name, v)
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if not 0 < self.burn_rate <= _FLOAT_MAX:
            raise ValueError(f"burn rate v_uav * fuel_per_meter must be positive and finite, "
                             f"got {self.v_uav} * {self.fuel_per_meter} = {self.burn_rate}")

    @cached_property
    def burn_rate(self) -> float:
        """Fuel consumed per second while airborne."""
        return self.fuel_per_meter * self.v_uav

    @cached_property
    def flight_range(self) -> float:
        """Meters the UAV can fly on a full tank."""
        return self.fuel_capacity / self.fuel_per_meter

    @cached_property
    def reach_radius(self) -> float:
        """Farthest the UGV can drive while the UAV stays airborne on a full
        tank; consecutive refuel sites must never be farther apart than this."""
        derived = self.v_ugv * self.fuel_capacity / self.burn_rate
        if self.r_max is not None:
            return min(derived, self.r_max)
        return derived


@dataclass(frozen=True)
class Target:
    """A survey point.  tau is the hidden processing fuel cost: the planner
    must never read it, only the simulator reveals it one tick at a time."""

    id: int
    position: Point2D
    tau: float

    def __post_init__(self):
        # the exact type first, and the name formatted only for a refusal:
        # generators build many targets
        tid = self.id
        if not (type(tid) is int or is_int(tid)):
            raise ValueError(f"id must be an integer, got {tid!r}")
        tau = self.tau
        if not (is_real(tau) and 0 <= tau <= _FLOAT_MAX):
            check_real(f"target {tid}: tau", tau)
            raise ValueError(f"target {tid}: tau must be finite and >= 0, got {tau}")


@dataclass(frozen=True)
class World:
    width: float = 50.0
    height: float = 50.0

    def __post_init__(self):
        check_real("width", self.width)
        check_real("height", self.height)
        # finite bounds let contains() reject a NaN or infinite position; the
        # float-max bound also refuses an int too large for a float
        if not (0 < self.width <= _FLOAT_MAX and 0 < self.height <= _FLOAT_MAX):
            raise ValueError(f"world bounds must be positive and finite, got "
                             f"{self.width} x {self.height}")

    def contains(self, p: Point2D) -> bool:
        return 0.0 <= p.x <= self.width and 0.0 <= p.y <= self.height


@dataclass(frozen=True)
class Scenario:
    world: World
    depot: Point2D
    params: VehicleParams
    targets: tuple[Target, ...]

    def __post_init__(self):
        if not self.targets:
            raise ValueError("a scenario needs at least one target, got none")
        depot = self.depot
        if not (is_real(depot.x) and is_real(depot.y) and self.world.contains(depot)):
            _check_point("depot", depot)
            raise ValueError(f"depot ({depot.x}, {depot.y}) outside world bounds")
        seen_ids: set[int] = set()
        # distances are floats: d <= EPS_GEOM exactly when d < nextafter(EPS_GEOM)
        placed = Buckets(math.nextafter(EPS_GEOM, math.inf), self.world)
        placed.add_if_clear(self.depot)
        for t in self.targets:
            if t.id in seen_ids:
                raise ValueError(f"duplicate target id {t.id}")
            seen_ids.add(t.id)
            pos = t.position
            if not (is_real(pos.x) and is_real(pos.y) and self.world.contains(pos)):
                _check_point(f"target {t.id}", pos)
                raise ValueError(f"target {t.id} outside world bounds")
            if not placed.add_if_clear(pos):
                k = next(i for i, p in enumerate(placed.points)
                         if distance(t.position, p) <= EPS_GEOM)
                where = "depot" if k == 0 else f"target {self.targets[k - 1].id}"
                raise ValueError(f"target {t.id} coincides with {where}")


def _check_point(where: str, p: Point2D):
    """Refuse a coordinate that is not a real number, naming its point."""
    check_real(f"{where}: x", p.x)
    check_real(f"{where}: y", p.y)


class Buckets:
    """Points added in order, bucketed on a square grid, for the separation
    test; every point must lie in the world's bounds.

    A bucket's side is at least twice the separation, so a point closer
    than the separation to a candidate lies less than half a side away on
    each axis, and its bucket index differs from the candidate's by at most
    one, with a margin of half a side left for rounding.  add_if_clear(c)
    checks the 3 x 3 buckets around c, so its test is exactly
    all(distance(c, p) >= sep for every added p).  The side is also at
    least 2^-30 of the world's larger extent, so bucket indices stay small
    when the separation is tiny against the world.  A bucket's key is
    column * stride + row, and the stride exceeds the row count by two, so
    a neighbour's key never names a bucket in another column.
    """

    def __init__(self, sep: float, world: World):
        self.sep = sep
        self.side = max(2.0 * sep, max(world.width, world.height) * 2.0 ** -30)
        self.stride = int(world.height // self.side) + 3
        # the candidate's own bucket first: a rejected candidate usually fails there
        st = self.stride
        self.ring = (0, -1, 1, -st, -st - 1, -st + 1, st, st - 1, st + 1)
        self.points: list[Point2D] = []  # in the order added
        self.cells: dict[int, list[Point2D]] = {}

    def add_if_clear(self, c: Point2D) -> bool:
        """Add c unless an added point lies closer than the separation."""
        side = self.side
        key = int(c.x // side) * self.stride + int(c.y // side)
        cells = self.cells
        sep = self.sep
        for off in self.ring:
            for p in cells.get(key + off, ()):
                if distance(c, p) < sep:
                    return False
        cells.setdefault(key, []).append(c)
        self.points.append(c)
        return True
