"""Seeded mutation fuzzing of scenario and plan documents through the CLI.

Each mutant replaces one node of a valid document with a hostile value, or
deletes one key or list entry, then runs `fuelstring validate` in-process.
Whatever the document says, the command must answer with an exit code (0
plan ok, 1 with an `error:` line, 2 plan violations) and never a traceback.
Hostile tick sizes go through `simulate` and `batch` the same way, and
hostile target counts through `generate`, each within a time bound.
"""
import copy
import json
import math
import time

import pytest

from fuelstring.cli import main
from fuelstring.offline import plan_mission
from fuelstring.rng import SplitMix64
from fuelstring.scenario_io import emit_plan, parse_scenario

MUTANTS = 300
HOSTILE = (None, True, 0, -1, 1e308, math.nan, math.inf, "x", [], {})

SCENARIO = {
    "world": {"width": 50.0, "height": 50.0},
    "depot": {"x": 0.0, "y": 0.0},
    "vehicle": {"v_uav": 2.0, "v_ugv": 1.0, "fuel_capacity": 50.0,
                "fuel_per_meter": 1.0, "r_max": 20.0},
    "targets": [
        {"id": 1, "x": 10.0, "y": 5.0, "tau": 3.5},
        {"id": 2, "x": 30.0, "y": 20.0},
    ],
    "cost_model": {"kind": "uniform", "low": 0.0, "high": 20.0, "seed": 7},
}


def node_paths(node, path=()):
    """Every node of a JSON tree, the root included, as a key/index path."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from node_paths(child, path + (key,))


def mutate(doc, rng: SplitMix64):
    doc = copy.deepcopy(doc)
    paths = list(node_paths(doc))
    path = paths[rng.next_u64() % len(paths)]
    choice = rng.next_u64() % (len(HOSTILE) + 1)
    value = copy.deepcopy(HOSTILE[choice % len(HOSTILE)])
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if choice == len(HOSTILE):
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def validate_exits_cleanly(argv, text, capsys):
    capsys.readouterr()
    try:
        rc = main(argv)
    except Exception as exc:  # report the mutant that escaped as a traceback
        pytest.fail(f"{type(exc).__name__}: {exc} on mutant {text}")
    err = capsys.readouterr().err
    assert rc in (0, 1, 2), text
    if rc == 1:
        assert err.splitlines()[-1].startswith("error:"), (err, text)


def test_mutated_scenarios_give_named_errors(tmp_path, capsys):
    rng = SplitMix64(17)
    path = tmp_path / "s.json"
    for _ in range(MUTANTS):
        text = json.dumps(mutate(SCENARIO, rng))
        path.write_text(text)
        validate_exits_cleanly(["validate", "--scenario", str(path)], text, capsys)


def test_mutated_plans_give_named_errors(tmp_path, capsys):
    scenario_path = tmp_path / "s.json"
    scenario_path.write_text(json.dumps(SCENARIO))
    plan = json.loads(emit_plan(plan_mission(parse_scenario(json.dumps(SCENARIO)))))
    rng = SplitMix64(29)
    path = tmp_path / "p.json"
    for _ in range(MUTANTS):
        text = json.dumps(mutate(plan, rng))
        path.write_text(text)
        validate_exits_cleanly(["validate", "--scenario", str(scenario_path),
                                "--plan", str(path)], text, capsys)


def exits_cleanly_and_quickly(argv, capsys):
    capsys.readouterr()
    start = time.perf_counter()
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse's usage error
        rc = exc.code
    except Exception as exc:
        pytest.fail(f"{type(exc).__name__}: {exc} from {argv}")
    assert time.perf_counter() - start < 2.0, argv
    assert rc in (0, 1, 2), argv
    if rc == 1:
        assert capsys.readouterr().err.splitlines()[-1].startswith("error:"), argv


@pytest.mark.parametrize("dt", ["0", "-1", "nan", "inf", "1e-7", "1e-300", "1e308", "x"])
def test_hostile_tick_sizes_exit_cleanly_and_quickly(dt, tmp_path, capsys):
    sp = tmp_path / "s.json"
    assert main(["generate", "--n", "3", "--seed", "7", "--out", str(sp)]) == 0
    commands = (
        ["simulate", "--scenario", str(sp), "--metrics-out", str(tmp_path / "m.txt")],
        ["batch", "--sweep-targets", "3", "--sweep-fuel", "50", "--sweep-ratio", "0.5",
         "--out", str(tmp_path / "r.csv")],
    )
    for argv in commands:
        exits_cleanly_and_quickly(argv + ["--dt", dt], capsys)


# 2000 passes the disc-packing bound of the 50 x 50 world (3310 targets) but
# gets stuck after 1682 placements; 10**9 is refused before any placement
@pytest.mark.parametrize("n", ["2000", str(10**9), "0", "-1", "x"])
def test_hostile_target_counts_exit_cleanly_and_quickly(n, tmp_path, capsys):
    exits_cleanly_and_quickly(["generate", "--n", n, "--seed", "1",
                               "--out", str(tmp_path / "s.json")], capsys)
