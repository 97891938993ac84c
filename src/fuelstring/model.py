"""Scenario data model: vehicles, targets, and the mission world."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .geometry import EPS_GEOM, Point2D, distance

EPS_FUEL = 1e-9
EPS_TIME = 1e-9


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
        for name in ("v_uav", "v_ugv", "fuel_capacity", "fuel_per_meter"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if self.r_max is not None and not (math.isfinite(self.r_max) and self.r_max > 0):
            raise ValueError(f"r_max must be positive and finite, got {self.r_max}")

    @cached_property
    def burn_rate(self) -> float:
        """Fuel consumed per second while airborne."""
        return self.fuel_per_meter * self.v_uav

    @cached_property
    def flight_range(self) -> float:
        """Meters the UAV can fly on a full tank."""
        return self.fuel_capacity / self.fuel_per_meter

    @cached_property
    def endurance(self) -> float:
        """Seconds aloft on a full tank."""
        return self.fuel_capacity / self.burn_rate

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
        if not (math.isfinite(self.tau) and self.tau >= 0):
            raise ValueError(f"target {self.id}: tau must be finite and >= 0, got {self.tau}")


@dataclass(frozen=True)
class World:
    width: float = 50.0
    height: float = 50.0

    def __post_init__(self):
        # finite bounds let contains() reject a NaN or infinite position
        if not (0 < self.width < math.inf and 0 < self.height < math.inf):
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
        if not self.world.contains(self.depot):
            raise ValueError(f"depot ({self.depot.x}, {self.depot.y}) outside world bounds")
        seen_ids: set[int] = set()
        placed: list[tuple[int, Point2D]] = [(-1, self.depot)]
        for t in self.targets:
            if t.id in seen_ids:
                raise ValueError(f"duplicate target id {t.id}")
            seen_ids.add(t.id)
            if not self.world.contains(t.position):
                raise ValueError(f"target {t.id} outside world bounds")
            for other_id, pos in placed:
                if distance(t.position, pos) <= EPS_GEOM:
                    where = "depot" if other_id == -1 else f"target {other_id}"
                    raise ValueError(f"target {t.id} coincides with {where}")
            placed.append((t.id, t.position))

    def target_by_id(self, target_id: int) -> Target:
        for t in self.targets:
            if t.id == target_id:
                return t
        raise KeyError(target_id)
