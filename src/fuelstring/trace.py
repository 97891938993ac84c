"""The trace record format: the one module that encodes or decodes a line.

A trace is JSON lines.  A tick record holds t, uav [x, y], fuel, ugv [x, y],
seg, site [x, y] and mode, in that order; an event record holds t, kind and
detail.  Each line is the compact JSON of its record, json.dumps(rec,
separators=(",", ":")), and a newline.  An event's detail ends with the
odometers uav_odo and ugv_odo; one `end` event, at the mission time,
follows the last tick and counts the tick records.  The run's metrics are a
fold over the events alone, so folding a written trace back gives them bit
for bit; `fold_jsonl` decodes only the event lines, with json.loads.

A tick line is built from three pieces, so that a writer can keep the ones
that do not change from tick to tick: `point_text` of each point, the
`tick_tail` of seg, site and mode, and `tick_text`, which joins t, the UAV's
text, fuel, the UGV's text and the tail.  A point's text holds while its
floats do, and the tail while seg, mode and the site's floats do;
`tick_line` formats all of them afresh.

This module imports only the standard library: whatever reads or writes
records needs no part of the engine.
"""
from __future__ import annotations

import json

METRIC_KEYS = (
    "abandonments", "backtrack_episodes", "case_1", "case_2", "case_3",
    "case_4", "case_5", "mission_time", "rendezvous_count",
    "targets_deferred", "uav_distance", "ugv_distance",
)


class MetricsFold:
    """Running metrics as a pure fold over event records: the `end` event
    gives the mission time and both distances, and a backtrack episode is a
    `drag` event, one per processing visit that moved the site back."""

    def __init__(self):
        self._m = {k: 0 for k in METRIC_KEYS}

    def add_event(self, t: float, kind: str, detail: dict):
        if kind == "abandon":
            self._m["abandonments"] += 1
            self._m["targets_deferred"] += len(detail["targets"])
        elif kind == "skip":
            self._m["targets_deferred"] += len(detail["targets"])
        elif kind == "refuel":
            self._m["rendezvous_count"] += 1
        elif kind == "case":
            self._m[f"case_{detail['case']}"] += 1
        elif kind == "drag":
            self._m["backtrack_episodes"] += 1
        elif kind == "end":
            self._m.update(mission_time=t, uav_distance=detail["uav_odo"],
                           ugv_distance=detail["ugv_odo"])

    def result(self) -> dict:
        return dict(self._m)


def fold_records(records) -> dict:
    """Recompute the metrics block from trace records (dicts, as parsed
    back from the JSONL trace); tick records are passed over."""
    fold = MetricsFold()
    for rec in records:
        if "kind" in rec:
            fold.add_event(rec["t"], rec["kind"], rec["detail"])
    return fold.result()


def fold_jsonl(lines) -> dict:
    """Recompute the metrics block from JSONL text lines, decoding each event
    line with json.loads and skipping blank ones.  A tick line, one without
    '"kind":', is only counted: a count other than the `end` event's, as
    when a sink dropped or repeated a line, raises ValueError."""
    ticks, events = 0, []
    for line in lines:
        if '"kind":' in line:
            events.append(json.loads(line))
        elif line.strip():
            ticks += 1
    end = next((e["detail"]["ticks"] for e in events if e["kind"] == "end"), None)
    if ticks != end:
        raise ValueError(f"trace has {ticks} tick lines, but " + (
            "no end event" if end is None else f"its end event counts {end}"))
    return fold_records(events)


def point_text(x, y) -> str:
    """The JSON text of one point, [x, y]."""
    return f"[{x!r},{y!r}]"


def tick_tail(seg, site_text, mode) -> str:
    """The end of a tick line: seg, the site's point_text, mode and the
    newline."""
    return f',"seg":{seg!r},"site":{site_text},"mode":"{mode}"}}\n'


def tick_text(t, uav_text, fuel, ugv_text, tail) -> str:
    """A whole tick line from t, fuel and the pieces of the rest."""
    return f'{{"t":{t!r},"uav":{uav_text},"fuel":{fuel!r},"ugv":{ugv_text}{tail}'


def tick_line(t, ux, uy, fuel, gx, gy, seg, sx, sy, mode) -> str:
    """The JSONL line of one tick: the bytes json.dumps(rec, separators=(",",
    ":")) gives for {"t", "uav": [x, y], "fuel", "ugv": [x, y], "seg", "site":
    [x, y], "mode"}.  The JSON encoder writes each finite float and int with
    its repr, as the pieces do.  Every value here is a finite int or float,
    because each input is checked where it enters (World, VehicleParams,
    Polyline, validate_plan's vertex rule, SimConfig).  Each mode is one of
    Mode's strings, which need no escape."""
    return tick_text(t, point_text(ux, uy), fuel, point_text(gx, gy),
                     tick_tail(seg, point_text(sx, sy), mode))


def event_line(t: float, kind: str, detail: dict) -> str:
    """The JSONL line of one event."""
    return json.dumps({"t": t, "kind": kind, "detail": detail}, separators=(",", ":")) + "\n"


def metrics_to_text(metrics: dict) -> str:
    """Flat key-value block, keys sorted, one per line."""
    return "\n".join(f"{k} = {metrics[k]!r}" for k in sorted(metrics)) + "\n"
