"""The trace record format: its module stands apart from the engine, and
its tick-line pieces give the bytes the JSON encoder gives."""
from __future__ import annotations

import ast
import io
import json
from pathlib import Path

import pytest

from conftest import line_plan, line_scenario, tick_record
from fuelstring import trace
from fuelstring.geometry import Point2D
from fuelstring.sim import SimConfig, WorldState
from fuelstring.trace import point_text, tick_line, tick_tail, tick_text

ENGINE = {"sim", "online", "offline"}


def _imported_modules(source: str) -> set[str]:
    """The last name of every module an import statement names, and every
    name a relative `from . import` brings in."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.rsplit(".", 1)[-1] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module.rsplit(".", 1)[-1])
            if not node.module or node.module == "fuelstring":
                names |= {alias.name for alias in node.names}
    return names


def test_trace_imports_no_engine_module():
    names = _imported_modules(Path(trace.__file__).read_text())
    assert names & ENGINE == set(), sorted(names)
    assert _imported_modules("from .sim import run\nfrom . import online\n") >= {"sim", "online"}


# -0.0, the smallest subnormal, tiny and huge floats, a float that is an
# integer, an int, and a float whose shortest repr has 17 digits
EDGE_VALUES = [-0.0, 5e-324, 1e-17, 1e16, 1e308, 25.0, 7, 0.1 + 0.2]


def _compact(rec) -> str:
    return json.dumps(rec, separators=(",", ":"))


@pytest.mark.parametrize("value", EDGE_VALUES)
def test_tick_pieces_match_json_on_edge_values(value):
    rec = {"t": value, "uav": [value, -value], "fuel": value, "ugv": [-value, value],
           "seg": value, "site": [value, value], "mode": "processing"}
    want = _compact(rec) + "\n"
    assert tick_line(value, value, -value, value, -value, value, value, value, value,
                     "processing") == want
    assert tick_text(value, point_text(value, -value), value, point_text(-value, value),
                     tick_tail(value, point_text(value, value), "processing")) == want


def test_point_text_tells_negative_zero_apart():
    assert point_text(-0.0, 0.0) != point_text(0.0, 0.0)
    assert point_text(-0.0, 0.0) == "[-0.0,0.0]"


@pytest.mark.parametrize("value", EDGE_VALUES)
def test_tick_line_matches_json_on_edge_floats(value):
    buf = io.StringIO()
    world = WorldState(line_scenario(25.0), line_plan(), SimConfig(), trace_file=buf)
    world.ugv_pos = Point2D(value, -value)
    world.active.fuel = value
    world.record_tick()
    assert buf.getvalue() == _compact(tick_record(world)) + "\n"
    assert json.loads(buf.getvalue())["fuel"] == value
