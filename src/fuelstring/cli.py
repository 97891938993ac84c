"""Command-line entry points.

    fuelstring plan      --scenario S.json [--plan-out P.json]
    fuelstring simulate  --scenario S.json [--plan P.json] [--seed K]
                         [--dt D] [--trace-out T.jsonl] [--metrics-out M.txt]
    fuelstring generate  --n N --seed K [--out S.json] [--cost SPEC]
    fuelstring validate  --scenario S.json [--plan P.json]
    fuelstring batch     [--sweep-targets 10,50,100] [--sweep-fuel 50,200,500]
                         [--sweep-ratio 0.2,0.5,1.0] [--seeds 1,2,3] [--out R.csv]
"""
from __future__ import annotations

import argparse
import dataclasses
import sys

from .batch import SweepConfig, batch_run, results_to_csv
from .model import World
from .offline import PlanningError, plan_mission, validate_plan
from .scenario_io import (
    COST_FIELDS,
    CostModel,
    emit_plan,
    emit_scenario,
    generate_scenario,
    parse_plan,
    parse_scenario,
)
from .sim import InvariantViolation, SimConfig, metrics_to_text, run


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


class _OpenOnWrite:
    """A text file that is opened (and truncated) by its first write, so a
    run refused before its first record leaves the path as it was."""

    def __init__(self, path: str):
        self.path = path
        self._fh = None

    def write(self, text: str) -> int:
        if self._fh is None:
            self._fh = open(self.path, "w", encoding="utf-8")
        return self._fh.write(text)

    def close(self):
        if self._fh is not None:
            self._fh.close()


def _parse_cost_spec(spec: str) -> CostModel:
    """uniform:LO,HI or lognormal:MU,SIGMA, a kind that samples and its
    COST_FIELDS in order, checked as CostModel checks itself."""
    kind, _, rest = spec.partition(":")
    names = COST_FIELDS.get(kind)
    try:
        values = _floats(rest) if names else ()
        if not names or len(values) != len(names):
            raise ValueError("expected uniform:LO,HI | lognormal:MU,SIGMA")
        return CostModel(kind, **dict(zip(names, values)))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad cost spec {spec!r}: {exc}") from None


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(","))


def _world(text: str) -> World:
    try:
        width, height = _floats(text)
        return World(width=width, height=height)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad world {text!r}; expected W,H: two finite, positive numbers") from None


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


def cmd_plan(args) -> int:
    scenario = parse_scenario(_read(args.scenario))
    plan = plan_mission(scenario)
    _write(args.plan_out, emit_plan(plan))
    return 0


def cmd_simulate(args) -> int:
    scenario = parse_scenario(_read(args.scenario), seed_override=args.seed)
    plan = parse_plan(_read(args.plan)) if args.plan else None
    cfg = SimConfig(dt=args.dt)
    trace = _OpenOnWrite(args.trace_out) if args.trace_out else None
    try:
        report = run(scenario, cfg, plan=plan, trace_file=trace)
    finally:
        if trace is not None:
            trace.close()
    out = metrics_to_text(report.metrics) + f"status = {report.status!r}\n"
    if report.unprocessed:
        out += f"unprocessed = {report.unprocessed!r}\n"
    _write(args.metrics_out, out)
    return 0 if report.completed else 3


def cmd_generate(args) -> int:
    scenario = generate_scenario(
        args.n, seed=args.seed,
        world=args.world,
        cost_model=dataclasses.replace(args.cost, seed=args.seed))
    _write(args.out, emit_scenario(scenario))
    return 0


def cmd_validate(args) -> int:
    scenario = parse_scenario(_read(args.scenario))
    plan = parse_plan(_read(args.plan)) if args.plan else plan_mission(scenario)
    report = validate_plan(plan, scenario)
    print(report.describe())
    return 0 if report.ok else 2


def cmd_batch(args) -> int:
    sweep = SweepConfig(
        target_counts=args.sweep_targets,
        fuel_capacities=args.sweep_fuel,
        speed_ratios=args.sweep_ratio,
        seeds=args.seeds,
        dt=args.dt,
    )
    results = batch_run(sweep)
    _write(args.out, results_to_csv(results))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuelstring",
        description="Plan and simulate UAV survey missions with a mobile ground refueler.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="build a mission plan for a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--plan-out", default=None, help="output path (default stdout)")
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("simulate", help="fly a scenario and report metrics")
    p.add_argument("--scenario", required=True)
    p.add_argument("--plan", default=None, help="use a stored plan instead of planning")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario's cost-model seed")
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--trace-out", default=None, help="write the JSONL trace here")
    p.add_argument("--metrics-out", default=None, help="metrics path (default stdout)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("generate", help="generate a random scenario")
    p.add_argument("--n", type=int, required=True, help="number of targets")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--world", type=_world, default=World(),
                   metavar="W,H", help="world bounds (default 50,50)")
    p.add_argument("--cost", type=_parse_cost_spec, default="uniform:0,20",
                   metavar="SPEC", help="uniform:LO,HI | lognormal:MU,SIGMA "
                   "(default uniform:0,20), seeded with --seed")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("validate", help="audit a plan against its scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--plan", default=None, help="plan to audit (default: plan now)")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("batch", help="sweep a parameter grid into a CSV")
    p.add_argument("--sweep-targets", type=_ints, default=(10, 50, 100))
    p.add_argument("--sweep-fuel", type=_floats, default=(50.0, 200.0, 500.0))
    p.add_argument("--sweep-ratio", type=_floats, default=(0.2, 0.5, 1.0))
    p.add_argument("--seeds", type=_ints, default=(1,))
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(fn=cmd_batch)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (PlanningError, InvariantViolation, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
