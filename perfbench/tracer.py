"""Spans around calls into the program's public functions, recorded from
outside the program.

`Tracer.install` replaces each listed function, wherever a `fuelstring`
module has bound it by name, with a wrapper that times the call; methods
are replaced on their class.  `uninstall` puts the originals back.

Self time is computed as calls end: a span's duration minus the time its
child spans cover.  Spans of functions called once or more per simulator
tick (`per_tick=True`) are only aggregated, so that the kept span list
stays small; their time still counts as child time of the enclosing span.
"""
from __future__ import annotations

import json
from time import perf_counter

# (layer, module, attribute path, short name, called per tick)
PROBES = (
    ("geometry", "geometry", "Polyline.point_at_arc", "point_at_arc", True),
    ("geometry", "geometry", "step_toward", "step_toward", True),
    ("geometry", "geometry", "Point2D.__init__", "point2d", True),
    ("offline", "offline", "build_tour", "build_tour", False),
    ("offline", "offline", "split_tour", "split_tour", False),
    ("offline", "offline", "validate_plan", "validate_plan", False),
    ("offline", "offline", "plan_mission", "plan_mission", False),
    ("online", "online", "on_transit_tick", "on_transit_tick", True),
    ("online", "online", "on_processing_tick", "on_processing_tick", True),
    ("online", "online", "check_abandonment", "check_abandonment", True),
    ("online", "online", "transfer_and_repair", "transfer_and_repair", False),
    ("sim", "sim", "run", "run", False),
    ("sim", "sim", "step", "step", True),
    ("sim", "sim", "WorldState.record_tick", "record_tick", True),
    ("sim", "sim", "fold_jsonl", "fold_jsonl", False),
    ("scenario_io", "scenario_io", "generate_scenario", "generate_scenario", False),
    ("scenario_io", "scenario_io", "emit_scenario", "emit_scenario", False),
    ("scenario_io", "scenario_io", "parse_scenario", "parse_scenario", False),
    ("scenario_io", "scenario_io", "emit_plan", "emit_plan", False),
    ("scenario_io", "scenario_io", "parse_plan", "parse_plan", False),
    ("batch", "batch", "run_cell", "run_cell", False),
    ("batch", "batch", "results_to_csv", "results_to_csv", False),
)
LAYERS = ("geometry", "offline", "online", "sim", "scenario_io", "batch")
ROOT_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.names = [ROOT_SPAN] + [f"{layer}.{short}" for layer, _, _, short, _ in PROBES]
        self.layer_of = ["bench"] + [layer for layer, *_ in PROBES]
        n = len(self.names)
        self.calls = [0] * n
        self.total = [0.0] * n
        self.self_time = [0.0] * n
        self.spans: list[tuple[int, int, float, float]] = []  # name, parent, start, end
        self._stack: list[list] = []  # [name id, kept-span index or -2, start, child time]
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, nid: int, keep: bool) -> list:
        if keep:
            parent = next((f[1] for f in reversed(self._stack) if f[1] >= 0), -1)
            self.spans.append((nid, parent, 0.0, 0.0))
            idx = len(self.spans) - 1
        else:
            idx = -2
        frame = [nid, idx, 0.0, 0.0]
        self._stack.append(frame)
        frame[2] = perf_counter()
        return frame

    def _exit(self, frame: list):
        end = perf_counter()
        nid, idx, start, child = frame
        self._stack.pop()
        dur = end - start
        self.calls[nid] += 1
        self.total[nid] += dur
        self.self_time[nid] += dur - child
        if self._stack:
            self._stack[-1][3] += dur
        if idx >= 0:
            rec = self.spans[idx]
            self.spans[idx] = (rec[0], rec[1], start, end)

    def op(self, fn, *args):
        """Run one benchmark operation as a root span."""
        frame = self._enter(0, True)
        try:
            return fn(*args)
        finally:
            self._exit(frame)

    def _wrap(self, nid: int, keep: bool, fn):
        enter, leave = self._enter, self._exit

        def traced(*args, **kwargs):
            frame = enter(nid, keep)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------------

    def install(self, fs):
        """Wrap every probe of the program whose modules are attributes of fs."""
        modules = [m for m in vars(fs).values() if getattr(m, "__name__", "").startswith("fuelstring")]
        for nid, (_, mod_name, path, _, per_tick) in enumerate(PROBES, start=1):
            owner = getattr(fs, mod_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue  # the program no longer has it: the probe reads 0
            wrapper = self._wrap(nid, not per_tick, original)
            if outer:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def write_spans(self, path):
        """One JSON line per kept span; times in seconds from the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for nid, parent, start, end in self.spans:
                fh.write(json.dumps({"name": self.names[nid], "parent": parent,
                                     "start": start - t0, "end": end - t0}) + "\n")
