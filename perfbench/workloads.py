"""The four benchmark workloads: inputs from a seed, one timed operation,
and the checks on each operation's output.

Program modules are reached through the namespace `fs` built by
`run.load_program`, never imported here, so that set-up can re-import the
program and the tracer can wrap what the operations call.

An operation returns an `Outcome` whose `problems` list what is wrong
with its output; an empty list means the output passed every check.
`digest` holds the bytes whose SHA-256 the run prints, so that a pure
speed-up can show byte-identical output.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

CORPUS_SIZE = 200
PLAN_POOL = 100
SWEEP_SEEDS = 5


@dataclass
class Outcome:
    status: str  # completed | timeout | infeasible | planned
    metrics: dict | None = None  # the program's own mission metrics
    mission_time: float = 0.0  # simulated, or planned flight time on plan-large
    uav_distance: float = 0.0  # flown, or planned length on plan-large
    problems: list[str] = field(default_factory=list)
    digest: bytes = b""
    trace_bytes: int = 0
    result: object = None  # the program's own result, when a block needs it


class Workload:
    name = ""
    ref_ops = 1  # operations behind the quality metrics, digests and the traced run
    latency_ops = 100  # operations behind op_ms_p50 and op_ms_p90
    block = 1  # operations per block; a run ends on a block boundary
    ops_per_s = 5.0  # operations a --trace 0 run does per second of --seconds

    def build(self, fs, seed: int) -> list:
        raise NotImplementedError

    def op(self, fs, item) -> Outcome:
        raise NotImplementedError

    def finish_block(self, fs, items, outcomes) -> tuple[list[str], bytes]:
        """Timed work after each block; returns (problems, digest bytes)."""
        return [], b""


def _mission_outcome(fs, run_mission, problems_of=None) -> Outcome:
    try:
        rep, extra = run_mission()
    except fs.offline.PlanningError as exc:
        # a diagnosed dead end must name the stuck target (acceptance 7)
        problems = [] if "infeasible" in str(exc) else [f"undiagnosed PlanningError: {exc}"]
        return Outcome("infeasible", problems=problems, digest=f"infeasible {exc}\n".encode())
    out = Outcome(rep.status, metrics=rep.metrics,
                  mission_time=rep.metrics["mission_time"],
                  uav_distance=rep.metrics["uav_distance"])
    if rep.status == "completed" and rep.unprocessed:
        out.problems.append(f"completed with unprocessed targets {rep.unprocessed}")
    if rep.status == "timeout" and not rep.unprocessed:
        out.problems.append("timeout report names no unprocessed target")
    if rep.status not in ("completed", "timeout"):
        out.problems.append(f"unknown status {rep.status!r}")
    if problems_of is not None:
        out.problems += problems_of(rep, extra, out)
    return out


class _Corpus(Workload):
    """The acceptance-7 mission corpus, moved by the seed.

    Mission i of seed s uses scenario seed 9000 + 200 s + i and cost seed
    17 + 200 s + i.  Its target count is the one acceptance 7 draws for
    mission i, whatever the seed, so every seed runs the same mix of
    mission sizes; seed 0 is the acceptance-7 corpus itself.
    """

    ref_ops = 40

    def build(self, fs, seed):
        items = []
        for i in range(CORPUS_SIZE):
            n = int(5 + fs.rng.SplitMix64(9000 + i).next_u64() % 26)
            items.append(fs.scenario_io.generate_scenario(
                n, seed=9000 + 200 * seed + i,
                cost_model=fs.scenario_io.CostModel(
                    kind="uniform", low=0.0, high=25.0, seed=17 + 200 * seed + i)))
        return items


class CorpusChecked(_Corpus):
    name = "corpus-checked"
    ops_per_s = 6.0

    def op(self, fs, scenario):
        cfg = fs.sim.SimConfig(keep_trace=False, check_invariants=True)
        out = _mission_outcome(fs, lambda: (fs.sim.run(scenario, cfg), None))
        if out.metrics is not None:
            out.digest = f"{out.status}\n{fs.sim.metrics_to_text(out.metrics)}".encode()
        return out


class CorpusTraced(_Corpus):
    name = "corpus-traced"
    ref_ops = 30

    def op(self, fs, scenario):
        def mission():
            buf = io.StringIO()
            rep = fs.sim.run(scenario, fs.sim.SimConfig(keep_trace=False), trace_file=buf)
            text = buf.getvalue()
            return rep, (text, fs.sim.fold_jsonl(text.splitlines()))

        def refold(rep, extra, out):
            text, folded = extra
            out.digest = text.encode()
            out.trace_bytes = len(out.digest)
            return [] if folded == rep.metrics else ["fold_jsonl differs from the run's metrics"]

        return _mission_outcome(fs, mission, refold)


class Sweep(Workload):
    """The default 27-cell grid, one block per sweep seed.

    Seed s runs sweep seeds 5 s + 1 .. 5 s + 5, so seed 0 is the default
    sweep over seeds 1-5.  Each block is one sweep seed over the whole grid
    in `batch_run` order, followed by its CSV.
    """

    name = "sweep"
    ref_ops = 54  # two blocks: one cell can swing a block's quality means
    latency_ops = 135  # the whole default sweep: the 90th percentile falls among its n=100 cells
    block = 27
    ops_per_s = 6.75  # five blocks in 20 s

    def build(self, fs, seed):
        grid = fs.batch.SweepConfig()
        items = []
        for k in range(SWEEP_SEEDS):
            for n in grid.target_counts:
                for cap in grid.fuel_capacities:
                    for ratio in grid.speed_ratios:
                        items.append((n, cap, ratio, SWEEP_SEEDS * seed + 1 + k, grid))
        return items

    def op(self, fs, item):
        res = fs.batch.run_cell(*item)
        out = Outcome(res.status, metrics=res.metrics, digest=repr(res.row()).encode(),
                      result=res)
        if res.metrics is not None:
            out.mission_time = res.metrics["mission_time"]
            out.uav_distance = res.metrics["uav_distance"]
            if res.status not in ("completed", "timeout"):
                out.problems.append(f"unknown status {res.status!r}")
        elif "infeasible" in res.status:
            out.status = "infeasible"
        else:
            out.problems.append(f"cell failed: {res.status}")
        return out

    def finish_block(self, fs, items, outcomes):
        text = fs.batch.results_to_csv([o.result for o in outcomes])
        return csv_problems(fs, text, len(items)), text.encode()


def csv_problems(fs, text: str, cells: int) -> list[str]:
    """Acceptance 9's shape: header, then one seed row and mean/min/max
    rows per cell, every row full width, every metric cell numeric."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != list(fs.batch.CSV_COLUMNS):
        return ["CSV header differs from CSV_COLUMNS"]
    if len(rows) != 1 + 4 * cells:
        return [f"CSV has {len(rows)} rows, expected {1 + 4 * cells}"]
    width = len(fs.batch.CSV_COLUMNS)
    for k, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            return [f"CSV row {k} has {len(row)} fields, expected {width}"]
        for v in row[5:]:
            try:
                if v != "":
                    float(v)
            except ValueError:
                return [f"CSV row {k} has non-numeric metric {v!r}"]
    return []


class PlanLarge(Workload):
    """Offline planning of 100 large scenarios.

    Scenario i has n in [100, 200] drawn from SplitMix64(i), the same for
    every seed, and fuel capacity 50/200/500 by i mod 3; the seed moves the
    targets and costs.
    """

    name = "plan-large"
    ref_ops = 24

    def build(self, fs, seed):
        items = []
        for i in range(PLAN_POOL):
            n = int(100 + fs.rng.SplitMix64(i).next_u64() % 101)
            params = fs.model.VehicleParams(fuel_capacity=(50.0, 200.0, 500.0)[i % 3])
            sd = 50_000 + PLAN_POOL * seed + i
            items.append(fs.scenario_io.generate_scenario(
                n, seed=sd, params=params,
                cost_model=fs.scenario_io.CostModel(kind="uniform", low=0.0, high=20.0,
                                                    seed=sd + 1)))
        return items

    def op(self, fs, scenario):
        io_ = fs.scenario_io
        parsed = io_.parse_scenario(io_.emit_scenario(scenario))
        try:
            plan = fs.offline.plan_mission(parsed)
        except fs.offline.PlanningError as exc:
            return Outcome("infeasible", digest=f"infeasible {exc}\n".encode())
        audit = fs.offline.validate_plan(plan, parsed)
        text = io_.emit_plan(plan)
        again = io_.parse_plan(text)
        out = Outcome("planned", mission_time=plan.total_length / parsed.params.v_uav,
                      uav_distance=plan.total_length, digest=text.encode())
        if parsed != scenario:
            out.problems.append("scenario changed in its JSON round trip")
        if not audit.ok:
            out.problems.append("validate_plan: " + audit.describe())
        if io_.plan_to_doc(again) != io_.plan_to_doc(plan):
            out.problems.append("plan changed in its JSON round trip")
        return out


WORKLOADS = {w.name: w for w in (CorpusChecked(), CorpusTraced(), Sweep(), PlanLarge())}
COMPLETED = ("completed", "planned")
