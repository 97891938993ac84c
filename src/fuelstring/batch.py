"""Parameter sweeps: a grid of generated scenarios, one CSV of results.

Each cell is (target count, fuel capacity, UGV/UAV speed ratio); every seed
in the cell gets its own row, followed by mean/min/max aggregate rows.  A
failed run is recorded in its row and never aborts the sweep.
"""
from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass

from .model import VehicleParams
from .offline import PlanningError
from .scenario_io import CostModel, generate_scenario
from .sim import InvariantViolation, SimConfig, run
from .trace import METRIC_KEYS

BASE_V_UAV = 2.0
CSV_COLUMNS = ("n_targets", "fuel_capacity", "speed_ratio", "seed", "status") + METRIC_KEYS


@dataclass(frozen=True)
class SweepConfig:
    target_counts: tuple[int, ...] = (10, 50, 100)
    fuel_capacities: tuple[float, ...] = (50.0, 200.0, 500.0)
    speed_ratios: tuple[float, ...] = (0.2, 0.5, 1.0)  # v_ugv / v_uav
    seeds: tuple[int, ...] = (1,)
    dt: float = 0.05


@dataclass
class CellResult:
    n_targets: int
    fuel_capacity: float
    speed_ratio: float
    seed: int
    status: str
    metrics: dict | None

    def row(self) -> list:
        base = [self.n_targets, self.fuel_capacity, self.speed_ratio,
                self.seed, self.status]
        if self.metrics is None:
            return base + [""] * len(METRIC_KEYS)
        return base + [self.metrics[k] for k in METRIC_KEYS]


def run_cell(n_targets: int, fuel_capacity: float, speed_ratio: float,
             seed: int, sweep: SweepConfig) -> CellResult:
    try:
        params = VehicleParams(
            v_uav=BASE_V_UAV,
            v_ugv=speed_ratio * BASE_V_UAV,
            fuel_capacity=fuel_capacity,
            fuel_per_meter=1.0,
        )
        scenario = generate_scenario(
            n_targets, seed=seed, params=params,
            cost_model=CostModel(kind="uniform", low=0.0, high=20.0,
                                 seed=seed + 1))
        report = run(scenario, SimConfig(dt=sweep.dt))
        return CellResult(n_targets, fuel_capacity, speed_ratio, seed,
                          report.status, report.metrics)
    except (PlanningError, InvariantViolation, ValueError) as exc:
        return CellResult(n_targets, fuel_capacity, speed_ratio, seed,
                          f"error: {type(exc).__name__}: {exc}", None)


def batch_run(sweep: SweepConfig) -> list[CellResult]:
    """Run every cell x seed in deterministic grid order."""
    if not (sweep.target_counts and sweep.fuel_capacities
            and sweep.speed_ratios and sweep.seeds):
        raise ValueError("sweep grid is empty: every dimension needs a value")
    SimConfig(dt=sweep.dt)  # a bad tick size fails the sweep here, not in every row
    results = []
    for n in sweep.target_counts:
        for cap in sweep.fuel_capacities:
            for ratio in sweep.speed_ratios:
                for seed in sweep.seeds:
                    results.append(run_cell(n, cap, ratio, seed, sweep))
    return results


def _aggregate(cell: list[CellResult]) -> list[list]:
    ok = [r for r in cell if r.metrics is not None]
    rows = []
    head = [cell[0].n_targets, cell[0].fuel_capacity, cell[0].speed_ratio]
    for name, fn in (("mean", lambda xs: sum(xs) / len(xs)), ("min", min), ("max", max)):
        if not ok:
            rows.append(head + [name, "no-data"] + [""] * len(METRIC_KEYS))
            continue
        rows.append(head + [name, f"{len(ok)}/{len(cell)} ok"]
                    + [fn([r.metrics[k] for r in ok]) for k in METRIC_KEYS])
    return rows


def results_to_csv(results: list[CellResult]) -> str:
    """Per-run rows plus mean/min/max aggregate rows, cell by cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for _, group in itertools.groupby(
            results, key=lambda r: (r.n_targets, r.fuel_capacity, r.speed_ratio)):
        cell = list(group)
        writer.writerows(r.row() for r in cell)
        writer.writerows(_aggregate(cell))
    return buf.getvalue()
