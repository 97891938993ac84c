"""Scenario and plan documents: JSON on disk, validated on the way in.

A scenario file looks like:

    {
      "world": {"width": 50.0, "height": 50.0},
      "depot": {"x": 0.0, "y": 0.0},
      "vehicle": {"v_uav": 2.0, "v_ugv": 1.0, "fuel_capacity": 50.0,
                  "fuel_per_meter": 1.0},
      "targets": [{"id": 1, "x": 10.0, "y": 5.0, "tau": 3.5}, ...],
      "cost_model": {"kind": "uniform", "low": 0.0, "high": 20.0, "seed": 7}
    }

Processing costs come either from per-target "tau" values or from the cost
model, sampled once at load time with the declared seed; an explicit tau
always wins over the model.  Supported kinds: "explicit" (every target must
carry tau), "uniform" (low, high), "lognormal" (mu, sigma).
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace

from .geometry import Point2D, Polyline
from .model import (Buckets, Scenario, Target, VehicleParams, World, check_real, is_int,
                    is_real)
from .offline import MissionPlan, SegmentPlan
from .rng import SplitMix64

MIN_SEPARATION = 1.0  # between any two of the depot and the generated targets
_PLACEMENT_ATTEMPTS = 10000
# each cost model kind and the fields it reads; a kind with none has nothing to sample
COST_FIELDS = {"explicit": (), "uniform": ("low", "high"), "lognormal": ("mu", "sigma")}


class ScenarioFormatError(ValueError):
    """Input document is malformed; the message names the offending field."""


class TooManyTargetsError(ValueError):
    """generate_scenario was asked for more separated targets than its
    bounds can hold."""


@dataclass(frozen=True)
class CostModel:
    kind: str  # explicit | uniform | lognormal
    low: float = 0.0
    high: float = 0.0
    mu: float = 0.0
    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in COST_FIELDS):
            raise ValueError(f"unknown kind {self.kind!r}")
        for name in COST_FIELDS[self.kind]:
            v = getattr(self, name)
            check_real(name, v)
            if not _is_finite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if not is_int(self.seed):  # SplitMix64 takes any int, a negative one too
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.kind == "uniform":
            if self.high < self.low:
                raise ValueError("uniform high < low")
            if self.low < 0:  # else whether a sampled tau comes out negative depends on the seed
                raise ValueError("uniform low < 0")


def _need(obj: dict, key: str, where: str):
    if key not in obj:
        raise ScenarioFormatError(f"{where}: missing field '{key}'")
    return obj[key]


def _is_finite(v) -> bool:
    """For a real v: NaN and the infinities fail the comparison, and so do
    ints too big for a float."""
    return abs(v) <= sys.float_info.max


def _finite(v, what: str) -> float:
    if not (is_real(v) and _is_finite(v)):
        raise ScenarioFormatError(f"{what} must be a finite number, got {v!r}")
    return float(v)


def _num(obj: dict, key: str, where: str) -> float:
    return _finite(_need(obj, key, where), f"{where}: field '{key}'")


def _int(obj: dict, key: str, where: str) -> int:
    v = _need(obj, key, where)
    if not is_int(v):
        raise ScenarioFormatError(f"{where}: field '{key}' must be an integer, got {v!r}")
    return v


def _obj(obj: dict, key: str, where: str) -> dict:
    v = _need(obj, key, where)
    if not isinstance(v, dict):
        raise ScenarioFormatError(f"{where}: field '{key}' must be an object, got {v!r}")
    return v


def _objects(obj: dict, key: str, where: str) -> list[dict]:
    """A field holding a list of objects."""
    items = _need(obj, key, where)
    if not isinstance(items, list):
        raise ScenarioFormatError(f"{where}: field '{key}' must be a list, got {items!r}")
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise ScenarioFormatError(f"{where}: {key}[{i}] must be an object, got {item!r}")
    return items


def _make(where: str, build, *args, **kwargs):
    """Construct a model value, reporting its own checks as format errors."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioFormatError(f"{where}: {exc}") from None


def _load(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"not valid JSON: line {exc.lineno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # an int too long to convert, or deep nesting
        raise ScenarioFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ScenarioFormatError("top level must be an object")
    return doc


def parse_cost_model(obj: dict) -> CostModel:
    kind = _need(obj, "kind", "cost_model")
    names = COST_FIELDS.get(kind, ()) if isinstance(kind, str) else ()
    fields = {name: _num(obj, name, "cost_model") for name in names}
    if names and "seed" in obj:
        fields["seed"] = _int(obj, "seed", "cost_model")
    return _make("cost_model", CostModel, kind, **fields)


def sample_costs(model: CostModel, target_ids: list[int]) -> dict[int, float]:
    """Draw a cost per target, in ascending id order, from one seeded stream.

    Raises ValueError for a model with no distribution ("explicit").
    """
    if not COST_FIELDS[model.kind]:
        raise ValueError(f"cost model {model.kind!r} has no distribution to sample")
    rng = SplitMix64(model.seed)
    out = {}
    for tid in sorted(target_ids):
        try:
            tau = (rng.uniform(model.low, model.high) if model.kind == "uniform"
                   else rng.lognormal(model.mu, model.sigma))
        except OverflowError:  # exp of a large finite exponent; exp(inf) returns inf
            tau = math.inf
        if not math.isfinite(tau):
            raise ScenarioFormatError(
                f"cost_model: {model.kind} cost of target {tid} overflows a float")
        out[tid] = tau
    return out


def parse_scenario(text: str, seed_override: int | None = None) -> Scenario:
    """Parse and validate a scenario document.

    Errors carry the field (and target id or entry number) at fault.
    seed_override replaces the cost model's seed, for sweep harnesses.
    """
    doc = _load(text)
    wobj = _obj(doc, "world", "scenario")
    world = _make("world", World, width=_num(wobj, "width", "world"),
                  height=_num(wobj, "height", "world"))
    dobj = _obj(doc, "depot", "scenario")
    depot = Point2D(_num(dobj, "x", "depot"), _num(dobj, "y", "depot"))

    vobj = _obj(doc, "vehicle", "scenario")
    kwargs = {}
    for name in ("v_uav", "v_ugv", "fuel_capacity", "fuel_per_meter"):
        kwargs[name] = _num(vobj, name, "vehicle")
    if "r_max" in vobj and vobj["r_max"] is not None:
        kwargs["r_max"] = _num(vobj, "r_max", "vehicle")
    params = _make("vehicle", VehicleParams, **kwargs)

    model = parse_cost_model(_obj(doc, "cost_model", "scenario"))
    if seed_override is not None:
        model = replace(model, seed=seed_override)

    entries = []
    for i, tobj in enumerate(_objects(doc, "targets", "scenario")):
        tid = _int(tobj, "id", f"targets[{i}]")
        x = _num(tobj, "x", f"target {tid}")
        y = _num(tobj, "y", f"target {tid}")
        tau = None
        if "tau" in tobj and tobj["tau"] is not None:
            tau = _num(tobj, "tau", f"target {tid}")
            if tau < 0:
                raise ScenarioFormatError(f"target {tid}: tau must be >= 0")
        entries.append((tid, x, y, tau))

    missing = [tid for tid, _, _, tau in entries if tau is None]
    if model.kind == "explicit" and missing:
        raise ScenarioFormatError(
            f"cost_model is explicit but target {missing[0]} has no tau")
    sampled = sample_costs(model, missing) if missing else {}

    targets = tuple(Target(id=tid, position=Point2D(x, y),
                           tau=tau if tau is not None else sampled[tid])
                    for tid, x, y, tau in entries)
    return _make("scenario", Scenario, world=world, depot=depot, params=params,
                 targets=targets)


def emit_scenario(scenario: Scenario) -> str:
    """Serialize with explicit taus so parse(emit(s)) rebuilds s exactly."""
    doc = {
        "world": {"width": scenario.world.width, "height": scenario.world.height},
        "depot": {"x": scenario.depot.x, "y": scenario.depot.y},
        "vehicle": {
            "v_uav": scenario.params.v_uav,
            "v_ugv": scenario.params.v_ugv,
            "fuel_capacity": scenario.params.fuel_capacity,
            "fuel_per_meter": scenario.params.fuel_per_meter,
        },
        "targets": [
            {"id": t.id, "x": t.position.x, "y": t.position.y, "tau": t.tau}
            for t in scenario.targets
        ],
        "cost_model": {"kind": "explicit"},
    }
    if scenario.params.r_max is not None:
        doc["vehicle"]["r_max"] = scenario.params.r_max
    return json.dumps(doc, indent=2) + "\n"


def generate_scenario(n_targets: int, seed: int,
                      world: World | None = None,
                      params: VehicleParams | None = None,
                      cost_model: CostModel | None = None) -> Scenario:
    """Uniformly scatter targets at least MIN_SEPARATION apart.

    Fully determined by the seed (positions) and the cost model's own seed
    (taus).  The depot sits at the world center.  Raises ValueError when
    n_targets < 1, no target fits after _PLACEMENT_ATTEMPTS candidates or
    the cost model is explicit, and TooManyTargetsError, before placing
    any, when the bounds cannot hold that many separated points.

    A candidate is checked only against the points in the 3 x 3 buckets
    around its own; see model.Buckets.
    """
    if n_targets < 1:
        raise ValueError(f"n_targets must be >= 1, got {n_targets}")
    world = world if world is not None else World()
    params = params if params is not None else VehicleParams()
    cost_model = cost_model if cost_model is not None else CostModel(
        kind="uniform", low=0.0, high=20.0, seed=seed)

    sep = MIN_SEPARATION
    # Discs of radius sep/2 around the depot and the targets are disjoint and
    # lie in the bounds grown by sep/2 on every side.
    fit = (world.width + sep) * (world.height + sep) / (math.pi * sep * sep / 4.0)
    if n_targets + 1 > fit:
        raise TooManyTargetsError(
            f"cannot place {n_targets} targets with separation {sep} in "
            f"{world.width}x{world.height} bounds: the depot and the "
            f"targets need {n_targets + 1} disjoint discs of diameter {sep}, "
            f"and the bounds hold at most {math.floor(fit)}")

    rng = SplitMix64(seed)
    depot = Point2D(world.width / 2.0, world.height / 2.0)
    placed = Buckets(sep, world)
    placed.add_if_clear(depot)
    for i in range(n_targets):
        for _ in range(_PLACEMENT_ATTEMPTS):
            cand = Point2D(rng.next_float() * world.width,
                           rng.next_float() * world.height)
            if placed.add_if_clear(cand):
                break
        else:
            raise ValueError(
                f"cannot place {n_targets} targets with separation "
                f"{sep} in {world.width}x{world.height} bounds "
                f"(stuck at target {i + 1})")

    ids = list(range(1, n_targets + 1))
    costs = sample_costs(cost_model, ids)
    targets = tuple(
        Target(id=tid, position=pos, tau=costs[tid])
        for tid, pos in zip(ids, placed.points[1:])
    )
    return Scenario(world=world, depot=depot, params=params, targets=targets)


def plan_to_doc(plan: MissionPlan) -> dict:
    return {
        "segments": [
            {
                "index": seg.index,
                "vertices": [[v.x, v.y] for v in seg.path.vertices],
                "targets": [{"id": tid, "arc": arc} for tid, arc in seg.target_arcs],
            }
            for seg in plan.segments
        ],
    }


def emit_plan(plan: MissionPlan) -> str:
    return json.dumps(plan_to_doc(plan), indent=2) + "\n"


def parse_plan(text: str) -> MissionPlan:
    """Parse a plan document; errors name the segment (and entry) at fault."""
    doc = _load(text)
    segs = []
    for i, sobj in enumerate(_objects(doc, "segments", "plan")):
        where = f"segments[{i}]"
        raw = _need(sobj, "vertices", where)
        if not (isinstance(raw, list) and all(isinstance(v, list) and len(v) == 2 for v in raw)):
            raise ScenarioFormatError(f"{where}: field 'vertices' must be a list of [x, y] pairs")
        verts = [Point2D(*(_finite(c, f"{where}: vertices[{j}]") for c in v))
                 for j, v in enumerate(raw)]
        targets = []
        for j, tobj in enumerate(_objects(sobj, "targets", where) if "targets" in sobj else []):
            entry = f"{where}.targets[{j}]"
            targets.append((_int(tobj, "id", entry), _num(tobj, "arc", entry)))
        index = _int(sobj, "index", where) if "index" in sobj else i
        segs.append(SegmentPlan(index=index, path=_make(where, Polyline, verts),
                                target_arcs=tuple(targets)))
    if not segs:
        raise ScenarioFormatError("plan: no segments")
    return MissionPlan(segments=tuple(segs))
