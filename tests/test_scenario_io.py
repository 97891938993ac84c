"""Document parsing, generation, and the portable PRNG."""
import json
import random

import pytest

from fuelstring.geometry import EPS_GEOM, Point2D, distance
from fuelstring.model import Buckets, Scenario, Target, VehicleParams, World
from fuelstring.rng import SplitMix64
from fuelstring.scenario_io import (
    _PLACEMENT_ATTEMPTS,
    MIN_SEPARATION,
    CostModel,
    ScenarioFormatError,
    TooManyTargetsError,
    emit_plan,
    emit_scenario,
    generate_scenario,
    parse_cost_model,
    parse_plan,
    parse_scenario,
    sample_costs,
)

from conftest import line_plan


def valid_doc() -> dict:
    return {
        "world": {"width": 50.0, "height": 50.0},
        "depot": {"x": 0.0, "y": 0.0},
        "vehicle": {"v_uav": 2.0, "v_ugv": 1.0, "fuel_capacity": 50.0,
                    "fuel_per_meter": 1.0},
        "targets": [
            {"id": 1, "x": 10.0, "y": 5.0, "tau": 3.5},
            {"id": 2, "x": 30.0, "y": 20.0, "tau": 0.0},
        ],
        "cost_model": {"kind": "explicit"},
    }


def parse_doc(doc, **kw):
    return parse_scenario(json.dumps(doc), **kw)


# --- round trips -----------------------------------------------------------

def test_scenario_round_trip_exact():
    """parse(emit(s)) rebuilds the identical dataclass, taus included."""
    sc = generate_scenario(6, seed=3)
    assert parse_scenario(emit_scenario(sc)) == sc


def test_round_trip_preserves_r_max():
    sc = generate_scenario(4, seed=5, params=VehicleParams(r_max=8.0))
    back = parse_scenario(emit_scenario(sc))
    assert back.params.r_max == 8.0
    assert back == sc


def test_plan_round_trip():
    plan = line_plan()
    back = parse_plan(emit_plan(plan))
    assert len(back.segments) == len(plan.segments)
    for a, b in zip(back.segments, plan.segments):
        assert a.index == b.index
        assert a.path.vertices == b.path.vertices
        assert a.target_arcs == b.target_arcs


# --- malformed documents ---------------------------------------------------

@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.pop("world"), "scenario: missing field 'world'"),
    (lambda d: d["vehicle"].pop("v_ugv"), "vehicle: missing field 'v_ugv'"),
    (lambda d: d["targets"][0].pop("x"), "target 1: missing field 'x'"),
    (lambda d: d["targets"][0].__setitem__("tau", float("nan")),
     "target 1: field 'tau' must be a finite number"),
    (lambda d: d["targets"][0].__setitem__("tau", -1.0),
     "target 1: tau must be >= 0"),
    (lambda d: d["targets"][0].__setitem__("id", True),
     "targets\\[0\\]: field 'id' must be an integer"),
    (lambda d: d["cost_model"].__setitem__("kind", "pareto"),
     "cost_model: unknown kind 'pareto'"),
    (lambda d: d.__setitem__("cost_model",
                             {"kind": "uniform", "low": 5.0, "high": 1.0}),
     "cost_model: uniform high < low"),
    (lambda d: d["targets"][1].pop("tau"),
     "cost_model is explicit but target 2 has no tau"),
    (lambda d: d["targets"].append({"id": 1, "x": 40.0, "y": 1.0, "tau": 0.0}),
     "duplicate target id 1"),
    (lambda d: d["targets"][0].__setitem__("x", 99.0),
     "target 1 outside world bounds"),
    (lambda d: d.__setitem__("world", None),
     "scenario: field 'world' must be an object, got None"),
    (lambda d: d.__setitem__("depot", [0.0, 0.0]),
     "scenario: field 'depot' must be an object"),
    (lambda d: d.__setitem__("vehicle", "x"),
     "scenario: field 'vehicle' must be an object"),
    (lambda d: d.__setitem__("cost_model", []),
     "scenario: field 'cost_model' must be an object"),
    (lambda d: d.__setitem__("targets", {}),
     "scenario: field 'targets' must be a list"),
    (lambda d: d["targets"].__setitem__(1, None),
     "scenario: targets\\[1\\] must be an object, got None"),
    (lambda d: d["targets"][0].__setitem__("id", 1.5),
     "targets\\[0\\]: field 'id' must be an integer, got 1.5"),
    (lambda d: d["world"].__setitem__("width", float("inf")),
     "world: field 'width' must be a finite number, got inf"),
    (lambda d: d["world"].__setitem__("height", 0.0),
     "world: world bounds must be positive and finite"),
    (lambda d: d["depot"].__setitem__("y", None),
     "depot: field 'y' must be a finite number, got None"),
    (lambda d: d["targets"][0].__setitem__("y", 10 ** 400),
     "target 1: field 'y' must be a finite number"),
    (lambda d: d["vehicle"].__setitem__("r_max", -1.0),
     "vehicle: r_max must be positive and finite"),
    (lambda d: d.__setitem__("cost_model", {"kind": "uniform", "low": 0.0,
                                            "high": 1.0, "seed": True}),
     "cost_model: field 'seed' must be an integer, got True"),
    (lambda d: d.__setitem__("cost_model", {"kind": "lognormal", "mu": 0.0,
                                            "sigma": 1.0, "seed": None}),
     "cost_model: field 'seed' must be an integer, got None"),
    (lambda d: (d.__setitem__("cost_model", {"kind": "lognormal", "mu": 1000.0,
                                             "sigma": 1.0}),
                d["targets"][1].pop("tau")),
     "cost_model: lognormal cost of target 2 overflows a float"),
    (lambda d: (d.__setitem__("cost_model", {"kind": "uniform", "low": -5.0,
                                             "high": -1.0}),
                d["targets"][1].pop("tau")),
     "cost_model: uniform low < 0"),
    (lambda d: d.__setitem__("cost_model", {"kind": "uniform", "low": -5,
                                            "high": 20}),
     "cost_model: uniform low < 0"),
    (lambda d: d["cost_model"].__setitem__("kind", ["uniform"]),
     r"cost_model: unknown kind \['uniform'\]"),
    (lambda d: (d.__setitem__("cost_model", {"kind": "lognormal", "mu": 0.0,
                                             "sigma": 1e308, "seed": 21}),
                d["targets"][0].pop("tau")),
     "cost_model: lognormal cost of target 1 overflows a float"),
])
def test_malformed_document_names_the_fault(mutate, message):
    doc = valid_doc()
    mutate(doc)
    with pytest.raises(ScenarioFormatError, match=message):
        parse_doc(doc)


def test_invalid_json_reports_line():
    with pytest.raises(ScenarioFormatError, match="not valid JSON: line 1"):
        parse_scenario("{nope")


def test_top_level_must_be_object():
    with pytest.raises(ScenarioFormatError, match="top level must be an object"):
        parse_scenario("[1, 2]")


# --- cost sampling ---------------------------------------------------------

def test_sampled_costs_fill_missing_taus():
    doc = valid_doc()
    doc["cost_model"] = {"kind": "uniform", "low": 0.0, "high": 20.0, "seed": 42}
    del doc["targets"][0]["tau"]
    del doc["targets"][1]["tau"]
    sc = parse_doc(doc)
    # first two draws of the seed-42 stream, in id order
    assert sc.targets[0].tau == 14.831297575436466
    assert sc.targets[1].tau == 3.198207857538402


def test_explicit_tau_wins_over_model():
    doc = valid_doc()
    doc["cost_model"] = {"kind": "uniform", "low": 0.0, "high": 20.0, "seed": 42}
    sc = parse_doc(doc)
    assert sc.targets[0].tau == 3.5 and sc.targets[1].tau == 0.0


def test_seed_override_replaces_model_seed():
    doc = valid_doc()
    doc["cost_model"] = {"kind": "uniform", "low": 0.0, "high": 20.0, "seed": 5}
    for t in doc["targets"]:
        del t["tau"]
    overridden = parse_doc(doc, seed_override=42)
    doc["cost_model"]["seed"] = 42
    assert overridden == parse_doc(doc)


def test_sample_costs_id_order_not_list_order():
    model = CostModel(kind="uniform", low=0.0, high=20.0, seed=42)
    assert sample_costs(model, [3, 1, 2]) == sample_costs(model, [1, 2, 3])


def test_explicit_cost_model_has_nothing_to_sample():
    # an explicit model names no distribution; it must not pass for lognormal(0, 0)
    with pytest.raises(ValueError, match="explicit"):
        generate_scenario(3, seed=1, cost_model=CostModel(kind="explicit"))
    with pytest.raises(ValueError, match="explicit"):
        sample_costs(CostModel(kind="explicit"), [1, 2])


@pytest.mark.parametrize("fields, message", [
    ({"kind": "pareto"}, "^unknown kind 'pareto'$"),
    ({"kind": ["uniform"]}, r"^unknown kind \['uniform'\]$"),
    ({"kind": None}, "^unknown kind None$"),
    ({"kind": "uniform", "low": float("nan"), "high": 1.0}, "^low must be finite, got nan$"),
    ({"kind": "uniform", "low": 0.0, "high": float("inf")}, "^high must be finite, got inf$"),
    ({"kind": "lognormal", "mu": float("-inf")}, "^mu must be finite, got -inf$"),
    ({"kind": "lognormal", "sigma": float("nan")}, "^sigma must be finite, got nan$"),
    ({"kind": "uniform", "low": 5.0, "high": 1.0}, "^uniform high < low$"),
    ({"kind": "uniform", "low": -5.0, "high": 20.0}, "^uniform low < 0$"),
    ({"kind": "uniform", "low": -5.0, "high": -1.0}, "^uniform low < 0$"),
])
def test_cost_model_built_in_code_checks_itself(fields, message):
    with pytest.raises(ValueError, match=message):
        CostModel(**fields)


@pytest.mark.parametrize("fields, message", [
    ({"kind": "uniform", "low": "0", "high": 1.0}, "^low must be a real number, got '0'$"),
    ({"kind": "uniform", "low": 0.0, "high": True}, "^high must be a real number, got True$"),
    ({"kind": "lognormal", "mu": None}, "^mu must be a real number, got None$"),
    ({"kind": "lognormal", "sigma": 10 ** 400}, "^sigma must be finite, got 1000"),
    ({"kind": "uniform", "low": 0.0, "high": 1.0, "seed": 1.5}, "^seed must be an integer, got 1.5$"),
    ({"kind": "uniform", "low": 0.0, "high": 1.0, "seed": True}, "^seed must be an integer, got True$"),
    ({"kind": "explicit", "seed": "7"}, "^seed must be an integer, got '7'$"),
])
def test_cost_model_built_in_code_names_a_field_of_the_wrong_type(fields, message):
    # parse_cost_model's rules: a distribution field is a finite real and
    # not a bool, and the seed an int and not a bool
    with pytest.raises(ValueError, match=message):
        CostModel(**fields)


def test_cost_model_takes_ints_and_a_negative_seed_as_documents_do():
    model = CostModel(kind="uniform", low=0, high=20, seed=-3)
    doc = {"kind": "uniform", "low": 0, "high": 20, "seed": -3}
    assert parse_cost_model(doc) == model
    assert generate_scenario(3, seed=1, cost_model=model) == generate_scenario(
        3, seed=1, cost_model=CostModel(kind="uniform", low=0.0, high=20.0, seed=-3))


def test_cost_model_checks_only_its_kinds_fields():
    nan = float("nan")
    assert CostModel(kind="explicit", low=nan, high=-1.0, mu=nan).kind == "explicit"
    assert CostModel(kind="lognormal", low=5.0, high=-1.0).kind == "lognormal"
    assert CostModel(kind="uniform", mu=nan, sigma=nan).kind == "uniform"


def test_generate_refuses_a_negative_uniform_low_on_every_seed():
    for seed in range(1, 6):
        with pytest.raises(ValueError, match="^uniform low < 0$"):
            generate_scenario(3, seed=seed, cost_model=CostModel(
                kind="uniform", low=-5.0, high=20.0, seed=seed))


def test_lognormal_overflow_is_named_on_every_seed():
    # sigma 1e308 gives some draws an exponent past exp's domain (OverflowError)
    # and seed 21 an infinite one (exp returns inf): both are the overflow
    overflowed = []
    for seed in range(40):
        model = CostModel(kind="lognormal", mu=0.0, sigma=1e308, seed=seed)
        try:
            sc = generate_scenario(1, seed=seed, cost_model=model)
        except ScenarioFormatError as exc:
            assert str(exc) == "cost_model: lognormal cost of target 1 overflows a float", seed
            overflowed.append(seed)
        else:
            assert sc.targets[0].tau == 0.0, seed
    assert len(overflowed) == 17 and 21 in overflowed, overflowed


def test_lognormal_costs_positive_and_deterministic():
    model = CostModel(kind="lognormal", mu=1.0, sigma=0.5, seed=9)
    a = sample_costs(model, list(range(1, 30)))
    b = sample_costs(model, list(range(1, 30)))
    assert a == b
    assert all(v > 0.0 for v in a.values())


# --- the PRNG itself -------------------------------------------------------

def test_splitmix64_published_vectors():
    """First outputs for two reference seeds of the standard splitmix64."""
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(3)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423]
    assert SplitMix64(0).next_u64() == 16294208416658607535


def test_splitmix64_against_inline_reference():
    mask = (1 << 64) - 1

    def ref_stream(seed, count):
        state = seed & mask
        out = []
        for _ in range(count):
            state = (state + 0x9E3779B97F4A7C15) & mask
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            out.append(z ^ (z >> 31))
        return out

    meta = random.Random(0xC0FFEE)
    for _ in range(50):
        seed = meta.getrandbits(64)
        rng = SplitMix64(seed)
        assert [rng.next_u64() for _ in range(20)] == ref_stream(seed, 20)


def test_uniform_draws_lie_in_range():
    rng = SplitMix64(7)
    draws = [rng.uniform(2.0, 9.0) for _ in range(1000)]
    assert all(2.0 <= d < 9.0 for d in draws)


# --- generation ------------------------------------------------------------

def test_generation_deterministic_per_seed():
    assert generate_scenario(12, seed=1) == generate_scenario(12, seed=1)
    assert generate_scenario(12, seed=1) != generate_scenario(12, seed=2)


def test_generation_respects_bounds_separation_and_ids():
    sc = generate_scenario(40, seed=11)
    pts = [t.position for t in sc.targets]
    assert [t.id for t in sc.targets] == list(range(1, 41))
    for p in pts:
        assert 0.0 <= p.x <= 50.0 and 0.0 <= p.y <= 50.0
    # depot counts as an occupied point too
    everyone = pts + [sc.depot]
    for i, a in enumerate(everyone):
        for b in everyone[i + 1:]:
            assert ((a.x - b.x) ** 2 + (a.y - b.y) ** 2) ** 0.5 >= 1.0


def test_generation_depot_at_world_center():
    sc = generate_scenario(3, seed=2, world=World(width=40.0, height=20.0))
    assert (sc.depot.x, sc.depot.y) == (20.0, 10.0)


def test_generation_rejects_bad_counts():
    with pytest.raises(ValueError, match="n_targets must be >= 1"):
        generate_scenario(0, seed=1)
    with pytest.raises(ValueError, match="cannot place 30 targets"):
        generate_scenario(30, seed=1, world=World(width=2.0, height=2.0))
    # not a bare TypeError from range(2.5), and not one target built for True
    for bad in (2.5, True):
        with pytest.raises(ValueError, match=f"^n_targets must be an integer, got {bad!r}$"):
            generate_scenario(bad, seed=1)


def test_generation_refuses_counts_past_the_disc_packing_bound():
    # discs of diameter 1 around 3311 points need more than the 51 x 51
    # square the 50 x 50 world grows to; 3310 targets plus the depot fit
    with pytest.raises(TooManyTargetsError, match="cannot place 3311 targets"):
        generate_scenario(3311, seed=1)
    with pytest.raises(TooManyTargetsError, match="hold at most 3311"):
        generate_scenario(10**400, seed=1)
    # the bound is necessary, not sufficient: 3310 gets stuck while placing
    with pytest.raises(ValueError, match=r"stuck at target \d+\)"):
        generate_scenario(3310, seed=1)


def reference_placement(n, seed, world, sep):
    """generate_scenario's placement before the bucket grid: every
    candidate against every placed point."""
    rng = SplitMix64(seed)
    placed = [Point2D(world.width / 2.0, world.height / 2.0)]
    for i in range(n):
        for _ in range(_PLACEMENT_ATTEMPTS):
            cand = Point2D(rng.next_float() * world.width, rng.next_float() * world.height)
            if all(distance(cand, p) >= sep for p in placed):
                placed.append(cand)
                break
        else:
            return f"stuck at target {i + 1}"
    return placed[1:]


def placement_cases():
    """60 (case, world, separation, n) draws for the placement tests."""
    rng = SplitMix64(41)
    for case in range(60):
        world = World(width=(2.0, 5.0, 13.7, 50.0)[rng.next_u64() % 4],
                      height=(0.5, 5.0, 9.25, 50.0)[rng.next_u64() % 4])
        sep = (0.0, 1e-3, 0.5, 1.3, 2.5)[rng.next_u64() % 5]
        yield case, world, sep, 1 + rng.next_u64() % 40


def test_bucketed_placement_matches_brute_force():
    outcomes = {"placed": 0, "stuck": 0}
    for case, world, _, n in placement_cases():
        try:
            got = [t.position for t in generate_scenario(n, case, world=world).targets]
        except TooManyTargetsError:
            continue
        except ValueError as exc:
            got = str(exc).rsplit("(", 1)[-1].rstrip(")")
        assert got == reference_placement(n, case, world, MIN_SEPARATION), (case, n, world)
        outcomes["stuck" if isinstance(got, str) else "placed"] += 1
    assert outcomes["placed"] >= 30 and outcomes["stuck"] >= 3, outcomes


def test_buckets_match_the_pairwise_separation_rule():
    """add_if_clear(c) is all(distance(c, p) >= sep for every added p), at
    separations other than generate_scenario's own."""
    outcomes = {True: 0, False: 0}
    for case, world, sep, _ in placement_cases():
        rng = SplitMix64(case)
        placed = Buckets(sep, world)
        added = []
        for _ in range(300):
            cand = Point2D(rng.next_float() * world.width, rng.next_float() * world.height)
            clear = all(distance(cand, p) >= sep for p in added)
            assert placed.add_if_clear(cand) == clear, (case, world, sep, cand)
            if clear:
                added.append(cand)
            outcomes[clear] += 1
    assert outcomes[True] >= 1000 and outcomes[False] >= 1000, outcomes


# --- coincident points -----------------------------------------------------

def scenario_at(depot, *targets):
    """A scenario in the 50 x 50 world; targets are (id, x, y)."""
    return Scenario(world=World(), depot=Point2D(*depot), params=VehicleParams(),
                    targets=tuple(Target(id=tid, position=Point2D(x, y), tau=1.0)
                                  for tid, x, y in targets))


def reference_coincidence(depot, targets):
    """The pairwise test: the first target within EPS_GEOM of a point placed
    before it, and the earliest such point (-1 for the depot)."""
    placed = [(-1, Point2D(*depot))]
    for tid, x, y in targets:
        for other, p in placed:
            if distance(Point2D(x, y), p) <= EPS_GEOM:
                return tid, other
        placed.append((tid, Point2D(x, y)))
    return None


def test_coinciding_points_are_rejected():
    with pytest.raises(ValueError, match="^target 4 coincides with depot$"):
        scenario_at((25, 25), (1, 10, 10), (4, 25, 25 + 0.5 * EPS_GEOM))
    # exactly EPS_GEOM apart coincides; twice that does not
    with pytest.raises(ValueError, match="^target 2 coincides with target 1$"):
        scenario_at((25, 25), (1, 0, 0), (2, EPS_GEOM, 0))
    scenario_at((25, 25), (1, 0, 0), (2, 2 * EPS_GEOM, 0))
    # x0 is a bucket boundary of the 50 x 50 grid (its side is 50 * 2^-30).
    # Target 9 shares a bucket with target 3 and coincides with both 7 and 3,
    # which are 1.5 EPS_GEOM apart: the message names 7, placed first.
    x0 = 50 * 2.0 ** -10
    with pytest.raises(ValueError, match="^target 9 coincides with target 7$"):
        scenario_at((25, 25), (7, x0 - 0.6 * EPS_GEOM, 5), (3, x0 + 0.9 * EPS_GEOM, 5),
                    (9, x0 + 0.2 * EPS_GEOM, 5))


def test_coincidence_check_matches_pairwise_reference():
    rng = SplitMix64(17)
    outcomes = {"accepted": 0, "depot": 0, "target": 0}
    for case in range(200):
        # points crowd a few anchors, some on bucket boundaries, within a few
        # EPS_GEOM of each other
        anchors = [(50 * 2.0 ** -10, 5.0), (25.0, 25.0), (3.0, 0.0)]
        depot = (25.0, 25.0)
        targets = []
        for tid in range(1 + rng.next_u64() % 8, 0, -1):
            ax, ay = anchors[rng.next_u64() % len(anchors)]
            targets.append((tid, ax + (rng.next_float() * 6 - 1) * EPS_GEOM,
                            ay + rng.next_float() * 2 * EPS_GEOM))
        want = reference_coincidence(depot, targets)
        try:
            scenario_at(depot, *targets)
            got = None
        except ValueError as exc:
            tid, _, where = str(exc).removeprefix("target ").partition(" coincides with ")
            got = (int(tid), -1 if where == "depot" else int(where.removeprefix("target ")))
        assert got == want, (case, targets)
        outcomes["accepted" if got is None else "depot" if got[1] == -1 else "target"] += 1
    assert min(outcomes.values()) >= 10, outcomes


# --- plan documents --------------------------------------------------------

def test_parse_plan_rejects_empty_and_malformed():
    for text, message in [
        ('{"segments": []}', "plan: no segments"),
        ('{"segments": [{"index": 0}]}', "segments\\[0\\]: missing field 'vertices'"),
        ("{", "not valid JSON"),
        ("[" * 100000, "not valid JSON: maximum recursion depth"),
        ('{"segments": ' + "1" * 5000 + "}", "not valid JSON: Exceeds the limit"),
        ('[]', "top level must be an object"),
        ('{"segments": null}', "plan: field 'segments' must be a list"),
        ('{"segments": [null]}', "plan: segments\\[0\\] must be an object"),
        ('{"segments": [{"vertices": [[0, 0], [10]]}]}',
         "segments\\[0\\]: field 'vertices' must be a list of \\[x, y\\] pairs"),
        ('{"segments": [{"vertices": [[0, 0], [null, 0]]}]}',
         "segments\\[0\\]: vertices\\[1\\] must be a finite number, got None"),
        ('{"segments": [{"vertices": [[0, 0], [true, 0]]}]}',
         "segments\\[0\\]: vertices\\[1\\] must be a finite number, got True"),
        ('{"segments": [{"vertices": [[0, 0]]}]}',
         "segments\\[0\\]: polyline needs at least 2 vertices"),
        ('{"segments": [{"vertices": [[0, 0], [0, 0]]}]}', "segments\\[0\\]: zero-length edge"),
        ('{"segments": [{"vertices": [[-1e308, 0], [1e308, 0]]}]}',
         "segments\\[0\\]: non-finite edge"),
        ('{"segments": [{"vertices": [[0, 0], [1, 0]], "index": true}]}',
         "segments\\[0\\]: field 'index' must be an integer"),
        ('{"segments": [{"vertices": [[0, 0], [1, 0]], "targets": {}}]}',
         "segments\\[0\\]: field 'targets' must be a list"),
        ('{"segments": [{"vertices": [[0, 0], [1, 0]], "targets": [{"id": "x", "arc": 0.5}]}]}',
         "segments\\[0\\].targets\\[0\\]: field 'id' must be an integer"),
        ('{"segments": [{"vertices": [[0, 0], [1, 0]], "targets": [{"id": 1, "arc": NaN}]}]}',
         "segments\\[0\\].targets\\[0\\]: field 'arc' must be a finite number"),
    ]:
        with pytest.raises(ScenarioFormatError, match=message):
            parse_plan(text)
