"""Repository benchmark: host wall-clock of three simulator workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bfs-nvram-2d --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``bfs-nvram-2d``, ``triangles-workers``
and ``pagerank-durable``; ``--workload all`` runs the three in turn.
Every number is host time; the simulated outputs are checked, never
reported as speed.  Graphs and roots derive from ``--seed``.

``--trace 0`` measures the end-to-end metrics with no tracing: ``setup_s``
(median of several graph set-ups), ``op_s.p50`` (median seconds per
operation over ``--seconds``), ``host_mteps`` (harmonic mean of edges
scanned per second) and ``peak_rss_mb``.  The p90 of the operation times
is printed with its sample count but is not a metric: a run holds 15-60
operations, so fewer than ten lie beyond it and it follows the host's
hiccups more than the program.  Times are host wall-clock
rescaled to a reference host speed: a fixed calibration loop runs right
before and after every operation and set-up, and each wall time is
multiplied by ``CALIBRATION_REF_S`` over the loop's mean time (see
``workloads.Calibration``).  On a shared host whose speed swings by
tens of percent within a minute, this cuts the spread of a run's medians
across runs from about 20% to about 5%; the raw wall seconds and the
measured host speed are printed too.

``--trace 1`` runs the workload's fixed cycle untraced, then again with
span wrappers on each ``repro`` layer (see ``tracer.py``), and
reports per-layer self times (raw wall) and counts, the tracing overhead,
and writes a Chrome trace-event JSON under ``perfbench/out/``.  Metric
names and units come from ``BENCHMARK.json``.

Every operation is checked by an oracle; an exception or a mismatch is
printed and counted in ``failed`` (the error rate is ``failed /
attempted``).  The simulated counts of the fixed cycle are printed and
kept in ``perfbench/out/counts-ledger.json`` keyed by workload, seed and
a digest of the code: a run whose counts differ from an earlier run of
the same code and seed is flagged and reported as not correct.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SPEC = os.path.join(ROOT, "BENCHMARK.json")

#: Per-layer metric -> the end-to-end metric and workload it should move.
TARGETS = {
    "graph.build_s": "setup_s on bfs-nvram-2d",
    "core.kernel_s": "op_s.p50 on bfs-nvram-2d, pagerank-durable",
    "core.visits": "op_s.p50 on bfs-nvram-2d, pagerank-durable",
    "core.previsits": "op_s.p50 on bfs-nvram-2d, pagerank-durable",
    "core.edges_scanned": "op_s.p50 on bfs-nvram-2d, pagerank-durable",
    "core.ghost_filtered": "op_s.p50 on bfs-nvram-2d",
    "core.previsit_pass": "op_s.p50 on bfs-nvram-2d, pagerank-durable",
    "comm.mailbox.send_s": "op_s.p50 / host_mteps on bfs-nvram-2d; flat on pagerank-durable",
    "comm.mailbox.flush_s": "op_s.p50 / host_mteps on bfs-nvram-2d; flat on pagerank-durable",
    "comm.mailbox.receive_s": "op_s.p50 / host_mteps on bfs-nvram-2d; flat on pagerank-durable",
    "comm.packets": "op_s.p50 / host_mteps on bfs-nvram-2d",
    "comm.bytes": "op_s.p50 / host_mteps on bfs-nvram-2d",
    "comm.visitors_per_packet": "op_s.p50 / host_mteps on bfs-nvram-2d",
    "comm.envelopes_forwarded": "op_s.p50 / host_mteps on bfs-nvram-2d",
    "comm.network_s": "op_s.p50 on bfs-nvram-2d",
    "comm.termination_waves": "op_s.p50 on bfs-nvram-2d",
    "memory.cache_s": "op_s.p50 on bfs-nvram-2d",
    "memory.hit_rate": "op_s.p50 on bfs-nvram-2d",
    "memory.misses": "op_s.p50 on bfs-nvram-2d",
    "runtime.engine_s": "op_s.p50 on all three",
    "runtime.ticks": "op_s.p50 on all three",
    "runtime.sim_time_us": "op_s.p50 on all three",
    "runtime.parallel.send_s": "op_s.p50 on triangles-workers",
    "runtime.parallel.wait_s": "op_s.p50 on triangles-workers",
    "runtime.parallel.coord_s": "op_s.p50 on triangles-workers",
    "runtime.packet_codec_s": "op_s.p50 on triangles-workers",
    "runtime.shm_ring_s": "op_s.p50 on triangles-workers",
    "ipc.frames": "op_s.p50 on triangles-workers",
    "ipc.frame_bytes": "op_s.p50 on triangles-workers",
    "ipc.bytes_pickled": "op_s.p50 on triangles-workers",
    "ipc.ring_spills": "op_s.p50 on triangles-workers",
    "ipc.barrier_s": "op_s.p50 on triangles-workers",
    "host_speedup": "op_s.p50 on triangles-workers (base: the sequential batch runs)",
    "runtime.supervision_s": "op_s.p50 on triangles-workers",
    "supervision.respawns": "op_s.p50 on triangles-workers (must be 0)",
    "runtime.durability.write_s":
        "op_s.p50 and durable.resume_s on pagerank-durable; flat elsewhere",
    "runtime.durability.load_s": "durable.resume_s on pagerank-durable; flat elsewhere",
    "durable.epochs": "op_s.p50 and durable.resume_s on pagerank-durable",
    "durable.disk_bytes": "op_s.p50 and durable.resume_s on pagerank-durable",
    "durable.resume_s": "none: itself the resume time on pagerank-durable (untraced)",
    "trace.overhead_s": "none: traced minus untraced wall time of the cycle",
    "trace.unattributed_s": "none: traced op time outside every layer span",
}

_POOL = ("runtime.parallel.send_s runtime.parallel.wait_s runtime.parallel.coord_s "
         "runtime.packet_codec_s "
         "runtime.shm_ring_s ipc.frames ipc.frame_bytes ipc.bytes_pickled "
         "ipc.ring_spills ipc.barrier_s host_speedup runtime.supervision_s "
         "supervision.respawns")
_DURABLE = ("runtime.durability.write_s runtime.durability.load_s durable.epochs "
            "durable.disk_bytes durable.resume_s")
_NO_CACHE = "memory.cache_s memory.hit_rate memory.misses"

#: Per-layer metrics a workload does not exercise, and why they read 0
#: (1.0 for the hit rate of a machine without page caches).
ABSENT = {
    "bfs-nvram-2d": {
        _POOL: "workers=1: no worker pool",
        _DURABLE: "no durable epochs",
    },
    "triangles-workers": {
        "core.kernel_s comm.mailbox.send_s comm.mailbox.flush_s comm.mailbox.receive_s":
            "rank kernels and mailboxes run in the worker processes, whose "
            "spans do not reach the parent",
        "core.ghost_filtered comm.envelopes_forwarded": "no ghosts, direct routing",
        _NO_CACHE: "DRAM machine: no page cache",
        _DURABLE: "no durable epochs",
    },
    "pagerank-durable": {
        "core.ghost_filtered comm.envelopes_forwarded":
            "PageRank visitors are never ghost-filtered; direct routing",
        _NO_CACHE: "DRAM machine: no page cache",
        _POOL: "workers=1: no worker pool",
    },
}


def _code_digest() -> str:
    """Digest of the simulator and benchmark sources (the "same code")."""
    h = hashlib.blake2b(digest_size=12)
    for base in (os.path.join(SRC, "repro"), HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d not in ("__pycache__", "out"))
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def _check_ledger(key: str, counts: list) -> str | None:
    """Record this run's cycle counts; return a message if an earlier run
    of the same code and seed recorded different ones."""
    path = os.path.join(OUT, "counts-ledger.json")
    ledger = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            ledger = json.load(fh)
    if key in ledger:
        if ledger[key] != counts:
            return f"simulated counts differ from an earlier run of the same code ({key})"
        return None
    ledger[key] = counts
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, sort_keys=True)
    os.replace(tmp, path)
    return None


def _peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


#: ``setup_s`` is the median of at least this many set-ups ...
SETUP_MIN_REPS = 3
#: ... and fast set-ups repeat until they total this many seconds.
SETUP_MIN_TOTAL_S = 2.0


def _timed_setup(wl) -> tuple[float, int]:
    """Median of repeated set-ups, in reference seconds."""
    times: list[float] = []
    while len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_TOTAL_S:
        _out, secs, speed = wl.timed(wl.setup, width=1)
        times.append(secs * speed)
    return statistics.median(times), len(times)


def _run_steps(wl, steps, *, seconds: float | None) -> list[list]:
    """Run ``steps`` (cycling) and return the ops of each step.  With
    ``seconds`` the cycle repeats while the next step fits in the time
    left; the first full cycle always runs."""
    from workloads import Op

    per_step: list[list] = []
    start = time.perf_counter()
    durations: list[float] = []
    i = 0
    while True:
        if i >= len(steps):
            if seconds is None:
                break
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(durations) > seconds:
                break
        gc.collect()  # start every step from a collected heap
        t0 = time.perf_counter()
        try:
            ops = steps[i % len(steps)]()
        except Exception as exc:  # a failed op is counted, never fatal
            traceback.print_exc(file=sys.stdout)
            ops = [Op("error", 0.0, error=f"{type(exc).__name__}: {exc}")
                   for _ in range(wl.ops_per_step)]
        durations.append(time.perf_counter() - t0)
        per_step.append(ops)
        i += 1
    return per_step


def _flat(per_step: list[list]) -> list:
    return [op for ops in per_step for op in ops]


def _sum_counts(ops, key: str) -> int:
    return sum(op.counts.get(key, 0) for op in ops)


def _end_to_end(wl, ops, setup_s: float) -> dict:
    timed = [op for op in ops if op.kind in wl.timed_kinds and op.error is None]
    secs = [op.ref_seconds for op in timed]
    if not secs:
        return {}
    rates = [op.edges_scanned / op.ref_seconds / 1e6 for op in timed]
    return {
        "setup_s": setup_s,
        "op_s.p50": statistics.median(secs),
        "host_mteps": statistics.harmonic_mean(rates),
        "peak_rss_mb": _peak_rss_mb(),
    }


def _per_layer(wl, traced_ops, untraced_ops, times: dict, build_s: float) -> dict:
    """Per-layer metrics of one traced cycle (self times span the whole
    cycle; counts cover its ``timed_kinds`` operations)."""
    timed = [op for op in traced_ops if op.kind in wl.timed_kinds]
    hits = _sum_counts(timed, "cache_hits")
    misses = _sum_counts(timed, "cache_misses")
    previsits = _sum_counts(timed, "previsits")
    packets = _sum_counts(timed, "packets")
    host = lambda key: sum(op.host.get(key, 0) for op in timed)  # noqa: E731
    parallel_s = sum(op.seconds for op in untraced_ops if op.kind == "triangles")
    resumes = [op.ref_seconds for op in untraced_ops if op.kind == "resume"]
    traced_wall = sum(op.seconds for op in traced_ops)
    untraced_wall = sum(op.seconds for op in untraced_ops)
    out = {
        "graph.build_s": build_s,
        "core.kernel_s": times["core.kernel_s"],
        "core.visits": _sum_counts(timed, "visits"),
        "core.previsits": previsits,
        "core.edges_scanned": _sum_counts(timed, "edges_scanned"),
        "core.ghost_filtered": _sum_counts(timed, "ghost_filtered"),
        "core.previsit_pass": _sum_counts(timed, "visits") / previsits if previsits else 0.0,
        "comm.mailbox.send_s": times["comm.mailbox.send_s"],
        "comm.mailbox.flush_s": times["comm.mailbox.flush_s"],
        "comm.mailbox.receive_s": times["comm.mailbox.receive_s"],
        "comm.packets": packets,
        "comm.bytes": _sum_counts(timed, "bytes"),
        "comm.visitors_per_packet": (_sum_counts(timed, "visitors_sent") / packets
                                     if packets else 0.0),
        "comm.envelopes_forwarded": _sum_counts(timed, "envelopes_forwarded"),
        "comm.network_s": times["comm.network_s"],
        "comm.termination_waves": _sum_counts(timed, "termination_waves"),
        "memory.cache_s": times["memory.cache_s"],
        "memory.hit_rate": hits / (hits + misses) if hits + misses else 1.0,
        "memory.misses": misses,
        "runtime.engine_s": times["runtime.engine_s"],
        "runtime.ticks": _sum_counts(timed, "ticks"),
        "runtime.sim_time_us": _sum_counts(timed, "time_us"),
        "runtime.parallel.send_s": times["runtime.parallel.send_s"],
        "runtime.parallel.wait_s": times["runtime.parallel.wait_s"],
        "runtime.parallel.coord_s": times["runtime.parallel.coord_s"],
        "runtime.packet_codec_s": times["runtime.packet_codec_s"],
        "runtime.shm_ring_s": times["runtime.shm_ring_s"],
        "ipc.frames": host("frames"),
        "ipc.frame_bytes": host("frame_bytes"),
        "ipc.bytes_pickled": host("bytes_pickled"),
        "ipc.ring_spills": host("ring_spills"),
        "ipc.barrier_s": host("barrier_seconds"),
        "host_speedup": wl.sequential_s / parallel_s if parallel_s else 0.0,
        "runtime.supervision_s": times["runtime.supervision_s"],
        "supervision.respawns": _sum_counts(timed, "worker_respawns"),
        "runtime.durability.write_s": times["runtime.durability.write_s"],
        "runtime.durability.load_s": times["runtime.durability.load_s"],
        "durable.epochs": _sum_counts(timed, "durable_epochs"),
        "durable.disk_bytes": host("durable_disk_bytes"),
        "durable.resume_s": statistics.median(resumes) if resumes else 0.0,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.unattributed_s": traced_wall - sum(times.values()),
    }
    return out


def _load_spec() -> dict:
    """Metric names and units from BENCHMARK.json; every per-layer metric
    there must have a target here and the other way round."""
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    names = {m["name"] for m in spec["per_layer"]}
    if names != set(TARGETS):
        raise SystemExit(f"perfbench: BENCHMARK.json per_layer and TARGETS differ: "
                         f"{sorted(names ^ set(TARGETS))}")
    return spec


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    spec = _load_spec()
    sys.path.insert(0, SRC)
    import numpy as np

    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload == "all":
        # Each workload in its own process, one after the other, so that
        # peak_rss_mb and the host state of one do not leak into the next.
        codes = [subprocess.run([sys.executable, os.path.abspath(__file__),
                                 "--workload", name, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return max(codes)

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    env = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
           "nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__, "code": _code_digest()}
    print("perfbench " + json.dumps(env))
    problems: list[str] = []
    try:
        if args.trace == 0:
            setup_s, setup_reps = _timed_setup(wl)
            wl.prepare()
            wl.reset()
            per_step = _run_steps(wl, wl.cycle(), seconds=args.seconds)
            ops = _flat(per_step)
            cycle_ops = _flat(per_step[:len(wl.cycle())])
            metrics = _end_to_end(wl, ops, setup_s)
            detail = {"setup_reps": setup_reps}
        else:
            wl.setup()
            wl.prepare()
            wl.reset()
            cycle_ops = _flat(_run_steps(wl, wl.cycle(), seconds=None))
            tracer = Tracer()
            tracer.install()
            try:
                before = tracer.time_metrics()["graph.build_s"]
                wl.setup()
                build_s = tracer.time_metrics()["graph.build_s"] - before
                wl.reset()
                marks = tracer.time_metrics()
                traced_ops = _flat(_run_steps(wl, wl.cycle(), seconds=None))
                after = tracer.time_metrics()
            finally:
                tracer.remove()
            times = {k: after[k] - marks[k] for k in after if k != "graph.build_s"}
            if [op.counts for op in traced_ops] != [op.counts for op in cycle_ops]:
                problems.append("traced and untraced runs produced different "
                                "simulated counts")
            metrics = _per_layer(wl, traced_ops, cycle_ops, times, build_s)
            trace_path = os.path.join(OUT, f"trace-{wl.name}-seed{args.seed}.json")
            tracer.write_chrome_trace(trace_path, metadata=env)
            detail = {"chrome_trace": os.path.relpath(trace_path, ROOT),
                      "span_calls": tracer.calls(),
                      "dropped_spans": tracer.dropped,
                      "absent": ABSENT[wl.name]}
            ops = cycle_ops + traced_ops
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)

    counts = [op.counts for op in cycle_ops]
    mismatch = _check_ledger(f"{wl.name}:{args.seed}:{env['code']}", counts)
    if mismatch:
        problems.append(mismatch)
    failed = [op for op in ops if op.error is not None]
    for op in failed:
        print(f"FAILED {op.kind}: {op.error}")
    for problem in problems:
        print(f"FLAGGED: {problem}")

    listed = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    units = {m["name"]: m["unit"] for m in listed}
    timed = [op for op in ops if op.kind in wl.timed_kinds]
    print(f"workload {wl.name}: {json.dumps(wl.info())}")
    print(f"operations: {len(ops)} attempted, {len(failed)} failed, "
          f"error_rate {len(failed) / max(len(ops), 1):.4f}; "
          f"{len(timed)} timed samples ({', '.join(wl.timed_kinds)})")
    if len(timed) > 1:
        ref = [op.ref_seconds for op in timed]
        print(f"op_s.p90 over {len(ref)} timed ops (not a metric): "
              f"{statistics.quantiles(ref, n=10, method='inclusive')[-1]:.4f} s")
    if timed:
        print(f"timed ops, wall seconds: p50 {statistics.median(op.seconds for op in timed):.4f}; "
              f"host speed vs reference: median "
              f"{statistics.median(op.speed for op in timed):.3f}, "
              f"min {min(op.speed for op in timed):.3f}, max {max(op.speed for op in timed):.3f}")
    resumes = [op.ref_seconds for op in ops if op.kind == "resume" and op.error is None]
    if resumes:
        print(f"resume_s (median of {len(resumes)}, reference seconds): "
              f"{statistics.median(resumes):.4f} s")
    print(f"cycle counts: {json.dumps(counts)}")
    for name, value in metrics.items():
        target = "" if args.trace == 0 else f"   -> {TARGETS[name]}"
        print(f"  {name:28s} {value:16.6f} {units[name]}{target}")
    if args.trace == 1:
        for names, why in ABSENT[wl.name].items():
            print(f"  absent here ({why}): {names}")

    correct = set(metrics) == set(units) and not failed and not problems
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**env, **result, "detail": detail, "counts": counts,
                   "op_seconds": [[op.kind, op.seconds, op.speed] for op in ops],
                   "errors": [op.error for op in failed], "flags": problems},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
