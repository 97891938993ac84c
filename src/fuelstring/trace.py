"""The trace record format: the one module that encodes or decodes a line.

A trace is JSON lines.  A tick record holds t, uav [x, y], fuel, ugv [x, y],
seg, site [x, y] and mode, in that order; an event record holds t, kind and
detail.  Each line is the compact JSON of its record, json.dumps(rec,
separators=(",", ":")), and a newline.  The run's metrics are a fold over
these records, so folding a written trace back gives them bit for bit.

This module imports only the standard library and geometry: whatever reads
or writes records needs no part of the engine.
"""
from __future__ import annotations

import json

from .geometry import EPS_GEOM

METRIC_KEYS = (
    "abandonments", "backtrack_episodes", "case_1", "case_2", "case_3",
    "case_4", "case_5", "mission_time", "rendezvous_count",
    "targets_deferred", "uav_distance", "ugv_distance",
)


class MetricsFold:
    """Running metrics as a pure fold over trace records.

    Distances are sums of per-tick straight-line deltas; a backtrack episode
    is a maximal run of consecutive same-segment ticks in which the site
    moved.  Feeding the written trace back in reproduces the run's metrics
    exactly.
    """

    def __init__(self):
        self._m = {k: 0 for k in METRIC_KEYS}  # the event counts
        self._uav = self._ugv = self._time = 0.0
        self._episodes = 0
        self._in_episode = False
        self._seg = None  # the last tick's segment, None before the first tick

    def add_tick(self, t, ux, uy, fuel, gx, gy, seg, sx, sy, mode):
        """Fold one tick record; fuel and mode are unused."""
        if self._seg is not None:
            self._uav += ((ux - self._ux) ** 2 + (uy - self._uy) ** 2) ** 0.5
            self._ugv += ((gx - self._gx) ** 2 + (gy - self._gy) ** 2) ** 0.5
            dragged = (seg == self._seg
                          and ((sx - self._sx) ** 2 + (sy - self._sy) ** 2) ** 0.5 > EPS_GEOM)
            if dragged and not self._in_episode:
                self._episodes += 1
            self._in_episode = dragged
        self._time = t
        self._ux, self._uy = ux, uy
        self._gx, self._gy = gx, gy
        self._seg, self._sx, self._sy = seg, sx, sy

    def add_event(self, kind: str, detail: dict):
        if kind == "abandon":
            self._m["abandonments"] += 1
            self._m["targets_deferred"] += len(detail["targets"])
        elif kind == "skip":
            self._m["targets_deferred"] += len(detail["targets"])
        elif kind == "refuel":
            self._m["rendezvous_count"] += 1
        elif kind == "case":
            self._m[f"case_{detail['case']}"] += 1

    def result(self) -> dict:
        return {**self._m, "backtrack_episodes": self._episodes, "mission_time": self._time,
                "uav_distance": self._uav, "ugv_distance": self._ugv}


def fold_records(records) -> dict:
    """Recompute the metrics block from trace records (dicts, as parsed
    back from the JSONL trace)."""
    fold = MetricsFold()
    for rec in records:
        if "kind" in rec:
            fold.add_event(rec["kind"], rec["detail"])
        else:
            fold.add_tick(rec["t"], rec["uav"][0], rec["uav"][1], rec["fuel"],
                          rec["ugv"][0], rec["ugv"][1], rec["seg"],
                          rec["site"][0], rec["site"][1], rec["mode"])
    return fold.result()


# One decoder for every trace line; json.loads builds the same one per call.
_raw_decode = json.JSONDecoder().raw_decode


def decode_line(line: str):
    """json.loads(line), as one bound call: strip JSON whitespace only, and
    reject any characters left after the value."""
    text = line.strip(" \t\n\r")
    rec, end = _raw_decode(text)
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return rec


def fold_jsonl(lines) -> dict:
    """Recompute the metrics block from JSONL text lines; blank lines are
    skipped."""
    return fold_records(decode_line(line) for line in lines if line.strip())


def _tick_line(t, ux, uy, fuel, gx, gy, seg, sx, sy, mode) -> str:
    """The JSONL line of one tick: the bytes json.dumps(rec, separators=(",",
    ":")) gives for {"t", "uav": [x, y], "fuel", "ugv": [x, y], "seg", "site":
    [x, y], "mode"}.  The JSON encoder writes each finite float and int with
    its repr, as this does.  Every value here is a finite int or float, because
    each input is checked where it enters (World, VehicleParams, Polyline,
    validate_plan's vertex rule, SimConfig).  Each mode is one of Mode's
    strings, which need no escape."""
    return (f'{{"t":{t!r},"uav":[{ux!r},{uy!r}],"fuel":{fuel!r},"ugv":[{gx!r},{gy!r}],'
            f'"seg":{seg!r},"site":[{sx!r},{sy!r}],"mode":"{mode}"}}\n')


def _tick_writer(add_tick, write):
    """The one call that takes each tick's record: add_tick itself without a
    sink, else add_tick and one _tick_line to write."""
    if write is None:
        return add_tick

    def tick(t, ux, uy, fuel, gx, gy, seg, sx, sy, mode):
        add_tick(t, ux, uy, fuel, gx, gy, seg, sx, sy, mode)
        write(_tick_line(t, ux, uy, fuel, gx, gy, seg, sx, sy, mode))
    return tick


def event_line(t: float, kind: str, detail: dict) -> str:
    """The JSONL line of one event."""
    return json.dumps({"t": t, "kind": kind, "detail": detail}, separators=(",", ":")) + "\n"


def metrics_to_text(metrics: dict) -> str:
    """Flat key-value block, keys sorted, one per line."""
    return "\n".join(f"{k} = {metrics[k]!r}" for k in sorted(metrics)) + "\n"
