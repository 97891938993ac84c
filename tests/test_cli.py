"""End-to-end command-line behavior through main(argv)."""
import csv
import json
import time

import pytest

from fuelstring.cli import _OpenOnWrite, main
from fuelstring.offline import PlanningError
from fuelstring.scenario_io import (
    CostModel,
    emit_scenario,
    generate_scenario,
    parse_plan,
    parse_scenario,
)
from fuelstring.sim import run
from fuelstring.trace import fold_jsonl, metrics_to_text


def write_scenario(path, tau=0.0, extra=None):
    doc = {
        "world": {"width": 50.0, "height": 50.0},
        "depot": {"x": 0.0, "y": 0.0},
        "vehicle": {"v_uav": 2.0, "v_ugv": 1.0, "fuel_capacity": 50.0,
                    "fuel_per_meter": 1.0},
        "targets": [
            {"id": 1, "x": 10.0, "y": 0.0, "tau": tau},
            {"id": 2, "x": 30.0, "y": 0.0, "tau": 0.0},
        ],
        "cost_model": {"kind": "explicit"},
    }
    if extra:
        doc.update(extra)
    path.write_text(json.dumps(doc))
    return path


def test_generate_writes_deterministic_scenario(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["generate", "--n", "7", "--seed", "4", "--out", str(out1)]) == 0
    assert main(["generate", "--n", "7", "--seed", "4", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    sc = parse_scenario(out1.read_text())
    assert len(sc.targets) == 7


def test_generate_cost_spec_controls_taus(tmp_path):
    out = tmp_path / "s.json"
    assert main(["generate", "--n", "5", "--seed", "1", "--cost", "uniform:0,0",
                 "--out", str(out)]) == 0
    sc = parse_scenario(out.read_text())
    assert all(t.tau == 0.0 for t in sc.targets)


def test_generate_rejects_bad_cost_spec(tmp_path):
    with pytest.raises(SystemExit):
        main(["generate", "--n", "3", "--seed", "1", "--cost", "weird:1"])


@pytest.mark.parametrize("spec", ["explicit", "uniform:5,1", "uniform:nan,1",
                                  "lognormal:0,inf", "uniform:-5,20"])
def test_generate_checks_cost_spec_like_a_cost_model_document(spec):
    # e.g. the scenario parser refuses a uniform model with high < low, and
    # one with low < 0 whatever the seed's draws
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--n", "3", "--seed", "1", "--cost", spec])
    assert exc.value.code == 2


@pytest.mark.parametrize("spec, model", [
    (None, CostModel(kind="uniform", low=0.0, high=20.0, seed=4)),
    ("uniform:2.5,7", CostModel(kind="uniform", low=2.5, high=7.0, seed=4)),
    ("lognormal:1,0.5", CostModel(kind="lognormal", mu=1.0, sigma=0.5, seed=4)),
])
def test_generate_seeds_the_cost_spec_with_seed(tmp_path, spec, model):
    out = tmp_path / "s.json"
    cost = ["--cost", spec] if spec else []
    assert main(["generate", "--n", "9", "--seed", "4", *cost, "--out", str(out)]) == 0
    assert out.read_text() == emit_scenario(generate_scenario(9, seed=4, cost_model=model))


@pytest.mark.parametrize("world", ["50", "inf,50", "50,nan", "0,50", "1,2,3"])
def test_generate_rejects_bad_world(world):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--n", "3", "--seed", "1", "--world", world])
    assert exc.value.code == 2


def test_plan_emits_parseable_plan(tmp_path):
    sp = write_scenario(tmp_path / "s.json")
    pp = tmp_path / "p.json"
    assert main(["plan", "--scenario", str(sp), "--plan-out", str(pp)]) == 0
    plan = parse_plan(pp.read_text())
    start = plan.segments[0].path.vertices[0]
    assert (start.x, start.y) == (0.0, 0.0)


def test_simulate_writes_trace_and_metrics(tmp_path):
    sp = write_scenario(tmp_path / "s.json", tau=5.0)
    tp, mp = tmp_path / "t.jsonl", tmp_path / "m.txt"
    rc = main(["simulate", "--scenario", str(sp),
               "--trace-out", str(tp), "--metrics-out", str(mp)])
    assert rc == 0
    text = mp.read_text()
    assert "status = 'completed'" in text
    assert "mission_time = " in text
    lines = tp.read_text().splitlines()
    assert lines
    for line in lines:
        json.loads(line)
    # a sink that dropped or repeated a line would refold to other metrics
    assert text == metrics_to_text(fold_jsonl(lines)) + "status = 'completed'\n"


def test_trace_file_keeps_every_line_of_a_cached_write(tmp_path):
    path = tmp_path / "t.jsonl"
    trace = _OpenOnWrite(str(path))
    write = trace.write  # bound once, as a run binds it
    assert not path.exists()
    write("a\n")
    write("b\n")
    trace.close()
    assert path.read_text() == "a\nb\n"


def test_simulate_stored_plan_matches_inline_planning(tmp_path):
    sp = write_scenario(tmp_path / "s.json", tau=5.0)
    pp = tmp_path / "p.json"
    main(["plan", "--scenario", str(sp), "--plan-out", str(pp)])
    t1, t2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["simulate", "--scenario", str(sp), "--trace-out", str(t1),
          "--metrics-out", str(tmp_path / "m1.txt")])
    main(["simulate", "--scenario", str(sp), "--plan", str(pp),
          "--trace-out", str(t2), "--metrics-out", str(tmp_path / "m2.txt")])
    assert t1.read_bytes() == t2.read_bytes()


def test_simulate_timeout_exit_code(tmp_path):
    # tau far beyond what refuel cycles can absorb before the time cap
    sp = write_scenario(tmp_path / "s.json", tau=1000.0)
    mp = tmp_path / "m.txt"
    assert main(["simulate", "--scenario", str(sp),
                 "--metrics-out", str(mp)]) == 3
    text = mp.read_text()
    assert "status = 'timeout'" in text
    assert "unprocessed = [1, 2]" in text


def test_validate_fresh_plan_ok(tmp_path, capsys):
    sp = write_scenario(tmp_path / "s.json")
    assert main(["validate", "--scenario", str(sp)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_flags_corrupt_plan(tmp_path, capsys):
    sp = write_scenario(tmp_path / "s.json")
    pp = tmp_path / "p.json"
    main(["plan", "--scenario", str(sp), "--plan-out", str(pp)])
    doc = json.loads(pp.read_text())
    doc["segments"][0]["vertices"][0] = [3.0, 3.0]  # no longer starts at depot
    pp.write_text(json.dumps(doc))
    assert main(["validate", "--scenario", str(sp), "--plan", str(pp)]) == 2
    assert "depot" in capsys.readouterr().out


def test_simulate_refuses_a_plan_that_does_not_end_at_the_depot(tmp_path, capsys):
    sp = write_scenario(tmp_path / "s.json")
    pp = tmp_path / "p.json"
    assert main(["plan", "--scenario", str(sp), "--plan-out", str(pp)]) == 0
    doc = json.loads(pp.read_text())
    doc["segments"] = doc["segments"][:-1]
    pp.write_text(json.dumps(doc))
    refusal = "invalid mission plan:\nend: last segment does not end at the depot"
    with pytest.raises(PlanningError) as exc:
        run(parse_scenario(sp.read_text()), plan=parse_plan(pp.read_text()))
    assert str(exc.value).startswith(refusal)
    trace, metrics = tmp_path / "t.jsonl", tmp_path / "m.txt"
    assert main(["simulate", "--scenario", str(sp), "--plan", str(pp),
                 "--trace-out", str(trace), "--metrics-out", str(metrics)]) == 1
    assert capsys.readouterr().err.startswith("error: " + refusal)
    assert not trace.exists() and not metrics.exists()


def test_bad_scenario_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--scenario", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "plan"])
def test_scenario_without_targets_exits_1(tmp_path, capsys, command):
    sp = write_scenario(tmp_path / "s.json", extra={"targets": []})
    assert main([command, "--scenario", str(sp)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: scenario: a scenario needs at least one target, got none"]


def test_bad_tick_size_exits_1(tmp_path, capsys):
    sp = write_scenario(tmp_path / "s.json")
    out = tmp_path / "r.csv"
    assert main(["simulate", "--scenario", str(sp), "--dt", "0"]) == 1
    assert main(["batch", "--sweep-targets", "3", "--sweep-fuel", "50",
                 "--dt", "-0.05", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: dt must be finite and > 1e-09, got 0.0",
        "error: dt must be finite and > 1e-09, got -0.05"]
    assert not out.exists()


def test_tiny_tick_size_is_refused_before_the_first_tick(tmp_path, capsys):
    # a ~400 s time cap at dt 1e-7 would take ~4e9 ticks
    sp = tmp_path / "s.json"
    assert main(["generate", "--n", "3", "--seed", "7", "--out", str(sp)]) == 0
    start = time.perf_counter()
    assert main(["simulate", "--scenario", str(sp), "--dt", "1e-7"]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: time cap ")
    assert err[0].endswith("more than the limit of 10000000")


def test_tiny_reach_is_refused_before_planning(tmp_path, capsys):
    # a 60 m tour over a 1e-8 m rendezvous cap would need ~6e9 segments
    sp = write_scenario(tmp_path / "s.json", extra={"vehicle": {
        "v_uav": 2.0, "v_ugv": 1.0, "fuel_capacity": 50.0, "fuel_per_meter": 1.0,
        "r_max": 1e-8}})
    start = time.perf_counter()
    assert main(["plan", "--scenario", str(sp)]) == 1
    assert main(["simulate", "--scenario", str(sp)]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("error: plan needs about 6e+09 segments") for line in err)


def test_refused_run_leaves_trace_path_untouched(tmp_path):
    sp = tmp_path / "s.json"
    assert main(["generate", "--n", "3", "--seed", "7", "--out", str(sp)]) == 0
    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    assert main(["simulate", "--scenario", str(sp), "--trace-out", str(old),
                 "--metrics-out", str(tmp_path / "m.txt")]) == 0
    before = old.read_bytes()
    assert before
    for path in (old, new):
        assert main(["simulate", "--scenario", str(sp), "--dt", "1e-7",
                     "--trace-out", str(path)]) == 1
    assert old.read_bytes() == before
    assert not new.exists()


def test_batch_tiny_tick_size_gives_error_rows(tmp_path):
    out = tmp_path / "r.csv"
    rc = main(["batch", "--sweep-targets", "3", "--sweep-fuel", "50",
               "--sweep-ratio", "0.5", "--seeds", "1,2", "--dt", "1e-7",
               "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert [row[4].split(":")[:2] for row in rows[1:3]] == [
        ["error", " TickLimitError"]] * 2


def test_missing_subcommand_usage_error():
    with pytest.raises(SystemExit):
        main([])


def test_batch_csv_to_file(tmp_path):
    out = tmp_path / "r.csv"
    rc = main(["batch", "--sweep-targets", "3", "--sweep-fuel", "50",
               "--sweep-ratio", "0.5,1.0", "--seeds", "1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("n_targets,fuel_capacity,speed_ratio,seed,status")
    assert len(lines) == 9


def test_batch_bad_fuel_value_is_an_error_row(tmp_path):
    out = tmp_path / "r.csv"
    rc = main(["batch", "--sweep-targets", "3", "--sweep-fuel", "nan,50",
               "--sweep-ratio", "0.5", "--seeds", "1", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[1][4] == "error: ValueError: fuel_capacity must be positive and finite, got nan"
    assert rows[5][4] == "completed"


def test_stdout_default_sink(tmp_path, capsys):
    sp = write_scenario(tmp_path / "s.json")
    assert main(["plan", "--scenario", str(sp)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["segments"]
