"""The top-level package: what it exports, and README's library example."""
from __future__ import annotations

import re
import types
from pathlib import Path

import fuelstring

PUBLIC = {
    # running a mission and reading its results
    "run", "SimConfig", "RunReport", "metrics_to_text", "fold_jsonl",
    "InvariantViolation", "TickLimitError",
    # offline planning
    "plan_mission", "validate_plan", "MissionPlan", "PlanningError",
    # documents and generated scenarios
    "CostModel", "ScenarioFormatError", "TooManyTargetsError", "emit_plan",
    "emit_scenario", "generate_scenario", "parse_plan", "parse_scenario",
    # the scenario model
    "Scenario", "Target", "VehicleParams", "World", "Point2D",
}

README = Path(__file__).resolve().parent.parent / "README.md"


def test_package_exports_exactly_the_public_names():
    exported = {name for name, value in vars(fuelstring).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md (Library use)", "exec"), {})
    status, mission_time = capsys.readouterr().out.splitlines()[0].split()
    assert status == "completed" and float(mission_time) > 0
