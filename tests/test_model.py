"""Model values built in code: each class refuses a value of the wrong type
with a ValueError that names the field, as the document parsers do."""
from __future__ import annotations

import dataclasses
import re

import pytest

from conftest import line_plan, line_scenario
from fuelstring.geometry import Point2D, Polyline
from fuelstring.model import Scenario, Target, VehicleParams, World, is_real
from fuelstring.offline import MissionPlan, validate_plan
from fuelstring.scenario_io import (ScenarioFormatError, emit_plan, emit_scenario, parse_plan,
                                    parse_scenario)
from test_fuzz import HOSTILE

VALUES = HOSTILE + (10 ** 400,)


def _value_id(v) -> str:
    return "10**400" if v == 10 ** 400 else repr(v)


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
    ({"height": 10 ** 400}, "^world bounds must be positive and finite, got 50.0 x 1000"),
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


@pytest.mark.parametrize("tid", [True, 1.0, "1", None])
def test_target_names_a_bad_id(tid):
    with pytest.raises(ValueError, match=f"^id must be an integer, got {re.escape(repr(tid))}$"):
        Target(tid, Point2D(1.0, 1.0), 2.0)


# each scenario field, with the name a refusal must give: a world bound out
# of range is named with the other bound, and a coordinate by its point
FIELDS = {
    "width": "width|world bounds", "height": "height|world bounds", "depot.x": "depot", "depot.y": "depot",
    "v_uav": "v_uav", "v_ugv": "v_ugv", "fuel_capacity": "fuel_capacity",
    "fuel_per_meter": "fuel_per_meter", "r_max": "r_max",
    "id": "id", "x": "target 1", "y": "target 1", "tau": "tau",
}


def _build(field: str, value) -> Scenario:
    """A two-target scenario with value in field; every class is built here."""
    f = {"width": 50.0, "height": 50.0, "depot.x": 0.0, "depot.y": 0.0, "v_uav": 2.0,
         "v_ugv": 1.0, "fuel_capacity": 50.0, "fuel_per_meter": 1.0, "r_max": None,
         "id": 1, "x": 10.0, "y": 5.0, "tau": 3.5, field: value}
    params = VehicleParams(**{k: f[k] for k in ("v_uav", "v_ugv", "fuel_capacity",
                                                 "fuel_per_meter", "r_max")})
    return Scenario(world=World(f["width"], f["height"]),
                    depot=Point2D(f["depot.x"], f["depot.y"]), params=params,
                    targets=(Target(f["id"], Point2D(f["x"], f["y"]), f["tau"]),
                             Target(2, Point2D(30.0, 20.0), 0.0)))


@pytest.mark.parametrize("value", VALUES, ids=_value_id)
@pytest.mark.parametrize("field", FIELDS)
def test_a_model_value_is_refused_by_name_or_round_trips(field, value):
    try:
        scenario = _build(field, value)
    except ValueError as exc:
        assert re.search(rf"\b({FIELDS[field]})\b", str(exc)), str(exc)
    else:
        assert parse_scenario(emit_scenario(scenario)) == scenario


def _plan_key(plan: MissionPlan) -> list:
    return [(seg.index, seg.path.vertices, seg.target_arcs) for seg in plan.segments]


@pytest.mark.parametrize("value", VALUES, ids=_value_id)
@pytest.mark.parametrize("axis", ["x", "y"])
def test_a_plan_vertex_is_refused_by_name_or_round_trips(axis, value):
    # Polyline checks no types, so validate_plan is the plan's check: it
    # names a vertex exactly when parse_plan would refuse the written plan
    first, second = line_plan().segments
    x, y = (value, 0.0) if axis == "x" else (0.0, value)
    try:
        path = Polyline([Point2D(x, y), *first.path.vertices[1:]])
    except (TypeError, ValueError, OverflowError):
        return  # the edge arithmetic refuses it before any plan exists
    plan = MissionPlan(segments=(dataclasses.replace(first, path=path), second))
    named = [v.message for v in validate_plan(plan, line_scenario(3.0)).violations
             if v.kind == "vertex"]
    try:
        back = parse_plan(emit_plan(plan))
    except ScenarioFormatError:
        assert named == [f"segment 0 vertex 0: {axis} must be a real number, got {value!r}"]
    else:
        assert not named and _plan_key(back) == _plan_key(plan)
