"""Model values built in code: each class refuses a value of the wrong type
with a ValueError that names the field, as the document parsers do."""
from __future__ import annotations

import pytest

from fuelstring.geometry import Point2D
from fuelstring.model import Scenario, Target, VehicleParams, World, is_real


def test_a_real_number_is_an_int_or_a_float_and_not_a_bool():
    assert all(is_real(v) for v in (0, -3, 2.5, float("nan"), float("inf"), 10 ** 400))
    assert not any(is_real(v) for v in (True, False, "2", None, 1j, [1.0]))


@pytest.mark.parametrize("fields, message", [
    ({"fuel_capacity": True}, "^fuel_capacity must be a real number, got True$"),
    ({"v_uav": "2"}, "^v_uav must be a real number, got '2'$"),
    ({"v_ugv": None}, "^v_ugv must be a real number, got None$"),
    ({"fuel_per_meter": False}, "^fuel_per_meter must be a real number, got False$"),
    ({"r_max": "5"}, "^r_max must be a real number, got '5'$"),
    ({"v_ugv": -2.0}, "^v_ugv must be positive and finite, got -2.0$"),
    ({"v_uav": 10 ** 400}, "^v_uav must be positive and finite, got 1000"),
    ({"r_max": 0}, "^r_max must be positive and finite, got 0$"),
])
def test_vehicle_names_a_bad_field(fields, message):
    with pytest.raises(ValueError, match=message):
        VehicleParams(**fields)


@pytest.mark.parametrize("fields, message", [
    ({"width": "5"}, "^width must be a real number, got '5'$"),
    ({"height": True}, "^height must be a real number, got True$"),
    ({"width": 0}, "^world bounds must be positive and finite, got 0 x 50.0$"),
])
def test_world_names_a_bad_field(fields, message):
    with pytest.raises(ValueError, match=message):
        World(**fields)


@pytest.mark.parametrize("tau, message", [
    (True, "^target 3: tau must be a real number, got True$"),
    ("2.0", "^target 3: tau must be a real number, got '2.0'$"),
    (-1.0, "^target 3: tau must be finite and >= 0, got -1.0$"),
    (10 ** 400, "^target 3: tau must be finite and >= 0, got 1000"),
])
def test_target_names_a_bad_tau(tau, message):
    with pytest.raises(ValueError, match=message):
        Target(3, Point2D(1.0, 1.0), tau)


def _scenario(depot: Point2D, position: Point2D) -> Scenario:
    return Scenario(world=World(), depot=depot, params=VehicleParams(),
                    targets=(Target(1, Point2D(9.0, 9.0), 1.0), Target(2, position, 2.0)))


@pytest.mark.parametrize("depot, position, message", [
    (Point2D(0.0, 0.0), Point2D(True, 5.0), "^target 2: x must be a real number, got True$"),
    (Point2D(0.0, 0.0), Point2D(5.0, "5"), "^target 2: y must be a real number, got '5'$"),
    (Point2D(None, 0.0), Point2D(5.0, 5.0), "^depot: x must be a real number, got None$"),
    (Point2D(0.0, False), Point2D(5.0, 5.0), "^depot: y must be a real number, got False$"),
])
def test_scenario_names_a_bad_coordinate(depot, position, message):
    with pytest.raises(ValueError, match=message):
        _scenario(depot, position)


def test_ints_stay_accepted():
    params = VehicleParams(v_uav=2, v_ugv=1, fuel_capacity=50, fuel_per_meter=1, r_max=20)
    assert params.burn_rate == 2 and params.reach_radius == 20
    sc = _scenario(Point2D(0, 0), Point2D(5, 5))
    assert World(50, 40).contains(Point2D(50, 40)) and sc.targets[1].position == Point2D(5, 5)
    assert Target(1, Point2D(1, 1), 0).tau == 0
