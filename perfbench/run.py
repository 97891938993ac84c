"""Mission benchmark for fuelstring.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
`src/`.  Set-up imports the program and builds the workload's inputs from
the seed, several times, outside the timed section.

With --trace 0 the run times a fixed number of operations one by one,
the workload's budget of operations per second times S (and at least its
reference and latency operations, rounded up to a whole block), and
reports the end-to-end metrics.  The count depends only on the workload
and S, never on the machine's speed, so `attempted` and `failed` repeat
exactly for a seed.  With --trace 1 it runs the
reference operations twice, once with spans around the program's public
functions and once without, and reports the per-layer metrics and the
tracing overhead.  Either way every operation's output is checked.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A fuller record (machine, Python,
commit, seed, digests, uncalibrated times) goes to perfbench/out/.  The
exit code is 1 when an output check failed and 2 when the program cannot
be imported.

Host times are calibrated against machine-speed drift: a fixed
pure-Python kernel runs between operations, and each time is scaled by
REF_KERNEL_S over the kernel's time measured around it (see README.md).
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracer import LAYERS, Tracer
from workloads import COMPLETED, WORKLOADS, Outcome

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
MODULES = ("geometry", "model", "rng", "offline", "online", "sim", "scenario_io", "batch")
SETUP_REPEATS = 3
REF_KERNEL_S = 0.00105  # the kernel's time on the machine the baseline was taken on
KERNEL_REPEATS = 3  # kernel runs between two operations
KERNEL_WINDOW = 5  # kernel samples on each side of an operation


class ProgramMissing(Exception):
    pass


def load_program() -> SimpleNamespace:
    """Import fuelstring afresh from this checkout's src/."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "fuelstring" or m.startswith("fuelstring.")]:
        del sys.modules[name]
    try:
        pkg = importlib.import_module("fuelstring")
        mods = {m: importlib.import_module(f"fuelstring.{m}") for m in MODULES}
    except ImportError as exc:
        raise ProgramMissing(f"cannot import fuelstring from {src}: {exc}") from None
    if not Path(pkg.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise ProgramMissing(f"fuelstring came from {pkg.__file__}, not from {src}")
    return SimpleNamespace(pkg=pkg, **mods)


# -- calibration ---------------------------------------------------------------

def _kernel() -> float:
    """Fixed pure-Python work shaped like the program's: floats allocated
    and dropped, float math, dict traffic.  It allocates no container, so
    the garbage collector never runs inside it."""
    d = {}
    acc = 0.0
    for i in range(6000):
        x, y = i * 0.5, i * 0.25
        d[i & 255] = x
        acc += (x * x + y * y) ** 0.5
    return acc


def kernel_time() -> float:
    t0 = perf_counter()
    for _ in range(KERNEL_REPEATS):
        _kernel()
    return (perf_counter() - t0) / KERNEL_REPEATS


# -- measurement ---------------------------------------------------------------

class Measurement:
    def __init__(self):
        self.raw: list[float] = []  # seconds per operation
        self.cal: list[float] = []  # calibrated seconds per operation
        self.ok: list[bool] = []  # returned without raising
        self.block_raw = 0.0
        self.block_cal = 0.0
        self.ref: list[Outcome] = []  # the first ref_ops outcomes
        self.digest = hashlib.sha256()
        self.problems: list[str] = []  # output checks that failed
        self.failures: list[str] = []  # operations that raised
        self.failed_ops = 0

    @property
    def total_raw(self) -> float:
        return sum(self.raw) + self.block_raw

    @property
    def total_cal(self) -> float:
        return sum(self.cal) + self.block_cal


def run_ops(work, seconds: float) -> int:
    """Operations in a --trace 0 run of `seconds`: a whole number of blocks."""
    ops = max(work.ref_ops, work.latency_ops, math.ceil(seconds * work.ops_per_s))
    return work.block * math.ceil(ops / work.block)


def measure(work, fs, items, ops: int, tracer: Tracer | None = None) -> Measurement:
    """Run the first `ops` operations in order (a whole number of
    blocks).  The first `work.ref_ops` outcomes are kept and digested."""
    call = tracer.op if tracer is not None else (lambda fn, *args: fn(*args))
    m = Measurement()
    kernels = [kernel_time()]  # kernels[k] ran just before operation k
    block_items, block_outs, block_ends = [], [], []
    k = 0
    while k < ops:
        item = items[k % len(items)]
        t0 = perf_counter()
        try:
            out = call(work.op, fs, item)
            raised = None
        except Exception as exc:  # any raise but a diagnosed PlanningError fails the op
            raised = f"{type(exc).__name__}: {exc}"
            out = Outcome("failed")
        m.raw.append(perf_counter() - t0)
        kernels.append(kernel_time())
        m.ok.append(raised is None)
        if raised is not None:
            m.failures.append(f"op {k}: {raised}")
        if out.problems:
            m.problems += [f"op {k}: {p}" for p in out.problems]
        if raised is not None or out.problems:
            m.failed_ops += 1
        if k < work.ref_ops:
            m.ref.append(out)
            m.digest.update(out.digest)
        block_items.append(item)
        block_outs.append(out)
        k += 1
        if k % work.block == 0 and work.block > 1:
            t0 = perf_counter()
            problems, digest = call(work.finish_block, fs, block_items, block_outs)
            dt = perf_counter() - t0
            block_ends.append((k - 1, dt))
            if problems:
                m.problems += [f"block ending at op {k - 1}: {p}" for p in problems]
                m.failed_ops += 1
            if k <= work.ref_ops:
                m.digest.update(digest)
            block_items, block_outs = [], []
    # scale each time by the mean kernel time around it; a mean, not a
    # median, so that short stalls count in the kernel as in the operation
    def speed(j):
        lo, hi = max(0, j - KERNEL_WINDOW + 1), min(len(kernels), j + KERNEL_WINDOW + 1)
        return REF_KERNEL_S / statistics.fmean(kernels[lo:hi])
    m.cal = [t * speed(j) for j, t in enumerate(m.raw)]
    m.block_raw = sum(dt for _, dt in block_ends)
    m.block_cal = sum(dt * speed(j) for j, dt in block_ends)
    return m


def setup(work, seed: int):
    """Import the program and build the inputs SETUP_REPEATS times; return
    the last program and inputs with the calibrated and raw median times."""
    cal, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = kernel_time()
        t0 = perf_counter()
        fs = load_program()
        items = work.build(fs, seed)
        dt = perf_counter() - t0
        after = kernel_time()
        raw.append(dt)
        cal.append(dt * REF_KERNEL_S * 2 / (before + after))
    # the inputs live for the whole run: keep the collector from rescanning them
    gc.collect()
    gc.freeze()
    return fs, items, statistics.median(cal), statistics.median(raw)


# -- metrics -------------------------------------------------------------------

def quantile90(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10)[8] if len(xs) > 1 else xs[0]


def quality(m: Measurement) -> dict:
    """Means over the completed reference operations, so that a rare
    timeout shows in completed_share without swamping the means."""
    done = [o for o in m.ref if o.status in COMPLETED]
    mean = (lambda xs: statistics.fmean(xs)) if done else (lambda xs: 0.0)
    return {
        "mission_time_s": (mean([o.mission_time for o in done]), "sim_s"),
        "completed_share": (len(done) / len(m.ref), "share"),
        "uav_distance_m": (mean([o.uav_distance for o in done]), "m"),
    }


TIMING_UNITS = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms", "setup_s": "s"}


def timing(m: Measurement, times: list[float], total: float, setup_s: float, count: int) -> dict:
    """Throughput over the whole run; percentiles over the operations
    among the first `count` that returned, a set fixed by the seed, so that
    they do not depend on how many operations a run got through."""
    lat = [t for t, ok in zip(times[:count], m.ok) if ok]
    if not lat:
        raise RuntimeError("every operation failed")
    return {
        "ops_per_s": sum(m.ok) / total,
        "op_ms_p50": statistics.median(lat) * 1e3,
        "op_ms_p90": quantile90(lat) * 1e3,
        "setup_s": setup_s,
    }


def end_to_end(m: Measurement, setup_cal: float, count: int) -> dict:
    calibrated = timing(m, m.cal, m.total_cal, setup_cal, count)
    return {**{k: (v, TIMING_UNITS[k]) for k, v in calibrated.items()}, **quality(m)}


def per_layer(tracer: Tracer, traced: Measurement, plain: Measurement) -> dict:
    out = {}
    idx = {name: i for i, name in enumerate(tracer.names)}
    for name, i in idx.items():
        if i == 0:
            continue
        out[f"{name}.calls"] = (tracer.calls[i], "count")
        out[f"{name}.self_ms"] = (tracer.self_time[i] * 1e3, "ms")
    wall = tracer.total[0]
    for layer in LAYERS:
        own = sum(t for t, lay in zip(tracer.self_time, tracer.layer_of) if lay == layer)
        out[f"layer.{layer}.self_share"] = (own / wall, "share")
    ticks = tracer.calls[idx["sim.step"]]
    per_tick = (lambda v: v / ticks) if ticks else (lambda v: 0.0)
    out["geometry.point_at_arc.per_tick"] = (per_tick(tracer.calls[idx["geometry.point_at_arc"]]), "count")
    out["geometry.point2d.per_tick"] = (per_tick(tracer.calls[idx["geometry.point2d"]]), "count")
    out["sim.step.self_us_per_tick"] = (per_tick(tracer.self_time[idx["sim.step"]] * 1e6), "us")
    out["sim.ticks_per_s"] = (ticks / plain.total_cal, "1/s")
    out["sim.trace_bytes"] = (sum(o.trace_bytes for o in plain.ref), "bytes")
    for metric, key in (("online.abandonments", "abandonments"), ("online.skip_segments", "case_3"),
                        ("online.repairs", "case_5"), ("online.refuels", "rendezvous_count"),
                        ("online.targets_deferred", "targets_deferred")):
        out[metric] = (sum(o.metrics[key] for o in plain.ref if o.metrics), "count")
    out["trace.traced_s"] = (traced.total_cal, "s")
    out["trace.untraced_s"] = (plain.total_cal, "s")
    out["trace.overhead_s"] = (traced.total_cal - plain.total_cal, "s")
    out["trace.overhead_share"] = (traced.total_cal / plain.total_cal - 1.0, "share")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out


# -- the record ------------------------------------------------------------------

def machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    work = WORKLOADS[args.workload]

    try:
        fs, items, setup_cal, setup_raw = setup(work, args.seed)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{work.name}-seed{args.seed}-trace{args.trace}"
    record = {"workload": work.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "commit": git_commit(),
              "machine": machine(), "ref_kernel_s": REF_KERNEL_S, "ref_ops": work.ref_ops}
    if args.trace:
        tracer = Tracer()
        tracer.install(fs)
        try:
            traced = measure(work, fs, items, work.ref_ops, tracer)
        finally:
            tracer.uninstall()
        m = measure(work, fs, items, work.ref_ops)
        if traced.digest.hexdigest() != m.digest.hexdigest():
            m.problems.append("traced and untraced runs gave different outputs")
        metrics = per_layer(tracer, traced, m)
        spans_path = OUT_DIR / f"{stem}.spans.jsonl"
        tracer.write_spans(spans_path)
        record["spans"] = str(spans_path.relative_to(ROOT))
        attempted = len(traced.raw) + len(m.raw)
        failed = traced.failed_ops + m.failed_ops
        problems, failures = traced.problems + m.problems, traced.failures + m.failures
    else:
        m = measure(work, fs, items, run_ops(work, args.seconds))
        metrics = end_to_end(m, setup_cal, work.latency_ops)
        record["uncalibrated"] = timing(m, m.raw, m.total_raw, setup_raw, work.latency_ops)
        record["kernel_s_median"] = statistics.median(t / c for t, c in zip(m.raw, m.cal)) * REF_KERNEL_S
        attempted, failed = len(m.raw), m.failed_ops
        problems, failures = m.problems, m.failures

    correct = not problems
    record.update(attempted=attempted, failed=failed, failed_share=failed / attempted,
                  correct=correct, problems=problems, failures=failures,
                  digest_sha256=m.digest.hexdigest(),
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    record_path = OUT_DIR / f"{stem}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {work.name}  seed {args.seed}  trace {args.trace}  "
          f"ops {attempted}  failed {failed}  failed_share {failed / attempted!r}")
    for line in failures + problems:
        print(f"  FAIL {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"digest.outputs = sha256:{m.digest.hexdigest()} (first {work.ref_ops} ops)")
    print(f"record = {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
