"""Sweep grids, CSV shape, and frozen family regressions."""
import csv
import io
import math

import pytest

from fuelstring.batch import (
    CSV_COLUMNS,
    CellResult,
    SweepConfig,
    batch_run,
    results_to_csv,
    run_cell,
)
from fuelstring.geometry import Point2D
from fuelstring.model import Scenario, Target, VehicleParams, World
from fuelstring.scenario_io import CostModel, generate_scenario
from fuelstring.sim import run
from fuelstring.trace import METRIC_KEYS


def small_sweep(**kw) -> SweepConfig:
    base = dict(target_counts=(3, 5), fuel_capacities=(50.0,),
                speed_ratios=(0.5, 1.0), seeds=(1, 2))
    base.update(kw)
    return SweepConfig(**base)


def test_metric_columns_alphabetical():
    assert METRIC_KEYS == tuple(sorted(METRIC_KEYS))
    assert CSV_COLUMNS[:5] == ("n_targets", "fuel_capacity", "speed_ratio",
                               "seed", "status")


def test_csv_layout():
    """Per-seed rows then mean/min/max rows, cell by cell, one header."""
    results = batch_run(small_sweep())
    text = results_to_csv(results)
    rows = list(csv.reader(io.StringIO(text)))
    # 4 cells x (2 seed rows + 3 aggregate rows) + header
    assert len(rows) == 21
    assert rows[0] == list(CSV_COLUMNS)
    body = rows[1:]
    for cell in range(4):
        block = body[cell * 5:cell * 5 + 5]
        assert [r[3] for r in block] == ["1", "2", "mean", "min", "max"]
        assert all(r[4] == "completed" for r in block[:2])
        assert all(r[4] == "2/2 ok" for r in block[2:])
        # aggregates bracket the per-seed values
        for k in range(len(METRIC_KEYS)):
            col = 5 + k
            seen = [float(r[col]) for r in block[:2]]
            assert float(block[3][col]) == min(seen)
            assert float(block[4][col]) == max(seen)
            assert abs(float(block[2][col]) - sum(seen) / 2) < 1e-12


def test_cell_runs_are_deterministic():
    cfg = SweepConfig()
    assert run_cell(6, 50.0, 0.5, 3, cfg) == run_cell(6, 50.0, 0.5, 3, cfg)


def test_zero_processing_cost_never_replans():
    """With tau identically 0 no site moves, no target is deferred and no
    segment is repaired: the UGV stands on the site at every refuel, so
    each planned site is within reach as the planner placed it."""
    for n in (4, 9):
        for ratio in (0.2, 1.0):
            params = VehicleParams(v_uav=2.0, v_ugv=2.0 * ratio, fuel_capacity=50.0,
                                   fuel_per_meter=1.0)
            sc = generate_scenario(n, seed=1, params=params, cost_model=CostModel(
                kind="uniform", low=0.0, high=0.0, seed=2))
            rep = run(sc)
            assert rep.status == "completed"
            assert rep.metrics["abandonments"] == 0
            assert rep.metrics["targets_deferred"] == 0
            for case in ("case_2", "case_3", "case_4", "case_5"):
                assert rep.metrics[case] == 0, (n, ratio, case)


def test_failed_cell_recorded_without_aborting():
    """More targets than the default world holds fail their cell; the row
    says so, and the next cell still runs.  There a 2-unit tank relays its
    rendezvous toward every target and completes."""
    cfg = small_sweep(target_counts=(10_000, 4), fuel_capacities=(2.0,),
                      speed_ratios=(0.5,), seeds=(1,))
    results = batch_run(cfg)
    assert len(results) == 2
    assert results[0].status.startswith("error: TooManyTargetsError")
    assert results[0].metrics is None
    assert results[1].status == "completed"
    assert results[1].metrics["rendezvous_count"] == 119
    rows = list(csv.reader(io.StringIO(results_to_csv(results))))
    assert len(rows) == 9
    # the broken cell aggregates to no-data rows with blank metrics
    assert [r[4] for r in rows[2:5]] == ["no-data"] * 3
    assert all(v == "" for r in rows[2:5] for v in r[5:])
    assert rows[1][5:] == [""] * len(METRIC_KEYS)


def test_bad_vehicle_value_fails_only_its_cells():
    # a fuel or speed no vehicle can have is an error row, like any failed run
    cfg = small_sweep(target_counts=(3,), fuel_capacities=(math.nan, 50.0),
                      speed_ratios=(-1.0, 0.5), seeds=(1,))
    statuses = [r.status for r in batch_run(cfg)]
    assert statuses[:3] == [
        "error: ValueError: v_ugv must be positive and finite, got -2.0",
        "error: ValueError: fuel_capacity must be positive and finite, got nan",
        "error: ValueError: v_ugv must be positive and finite, got -2.0",
    ]
    assert statuses[3] == "completed"


def test_cell_with_dt_above_its_airtime_is_an_error_row():
    # a 2-unit tank burning 2 a second flies 1 s, less than the 5 s tick; a
    # 50-unit one flies 25 s
    cfg = small_sweep(target_counts=(3,), fuel_capacities=(2.0, 50.0), speed_ratios=(0.5,),
                      seeds=(1,), dt=5.0)
    small, large = batch_run(cfg)
    assert small.status == ("error: TickLimitError: dt 5.0 s exceeds one full tank's airtime, "
                            "fuel_capacity / burn_rate = 1.0 s")
    assert small.metrics is None
    assert large.status == "completed"


def test_empty_grid_rejected():
    with pytest.raises(ValueError, match="sweep grid is empty"):
        batch_run(small_sweep(seeds=()))


def test_error_row_blank_metrics():
    r = CellResult(3, 50.0, 0.5, 1, "error: boom", None)
    assert r.row() == [3, 50.0, 0.5, 1, "error: boom"] + [""] * len(METRIC_KEYS)


# --- frozen family regression ---------------------------------------------

def collinear_family(tau: float, ratio: float) -> Scenario:
    params = VehicleParams(v_uav=2.0, v_ugv=ratio * 2.0, fuel_capacity=50.0,
                           fuel_per_meter=1.0)
    targets = tuple(Target(id=i, position=Point2D(10.0 * i, 0.0), tau=tau)
                    for i in (1, 2, 3, 4))
    return Scenario(world=World(), depot=Point2D(0.0, 0.0), params=params,
                    targets=targets)


def test_collinear_abandonments_monotone_in_speed_ratio():
    """Faster chase support means fewer abandoned rendezvous on this family.

    Holds for the frozen tau values below; it is a recorded observation,
    not a theorem (tau=10 breaks it, see the free-cost sibling note).  At
    ratio 0.2 the reach, 10 m, ties the target spacing.  The first site
    lands on target 1, which starts segment 1 at arc 0.  From there the
    tank's limit, x = 20 on the way back, lies exactly 10 m off, so segment
    1 carries all four targets, and at tau 20 it cannot hold their 80 of
    processing: 8 abandonments in 278.95 s.  Off the tie, at ratio
    0.2 (1 - 1e-7), the mission takes 3 abandonments in 177.55 s.  Every
    mission completes.
    """
    for tau, expect in ((0.0, (0, 0, 0)), (20.0, (8, 3, 1))):
        counts = []
        for ratio in (0.2, 0.5, 1.0):
            rep = run(collinear_family(tau, ratio))
            assert rep.completed
            counts.append(rep.metrics["abandonments"])
        assert tuple(counts) == expect
        assert counts == sorted(counts, reverse=True)


def test_collinear_mission_time_shrinks_with_faster_support():
    times = []
    for ratio in (0.2, 0.5, 1.0):
        rep = run(collinear_family(0.0, ratio))
        assert rep.status == "completed"
        times.append(rep.metrics["mission_time"])
    assert times == sorted(times, reverse=True)
    assert times[2] == pytest.approx(40.0)
