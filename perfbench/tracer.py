"""Per-layer host-time attribution from outside the program.

:class:`Tracer` wraps public functions of each ``repro`` layer with
spans recorded in memory: name, layer, start, duration and nesting depth
(a span's parent is the enclosing span of the next lower depth).  A
layer's self time is its spans' durations minus the part their child
spans cover.  Spans are written as Chrome
trace-event JSON only when the benchmark ends, and :meth:`Tracer.remove`
puts every original function back.

Worker processes fork with the wrappers installed, but their spans stay
in the worker's memory; on a ``workers > 1`` run only parent-side layers
are attributed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

#: (module, class or None, functions, layer): the public functions and
#: methods (and constructors) at each layer's boundary.  Per-visitor entry
#: points (``VisitorQueueRank.push``, ``state_of``, ``VisitorBatch.slice``)
#: are deliberately left out: their cost is
#: attributed to the span that calls them, and wrapping them would make
#: the trace cost more than the work.
SPAN_SITES = (
    ("repro.generators.rmat", None, ("rmat_edges",), "graph"),
    ("repro.graph.edge_list", "EdgeList",
     ("from_arrays", "permuted", "simple_undirected"), "graph"),
    ("repro.graph.distributed", "DistributedGraph", ("build",), "graph"),
    ("repro.core.batch_queue", "BatchVisitorQueueRank",
     ("push_batch", "check_mailbox", "process"), "core"),
    ("repro.core.visitor_queue", "VisitorQueueRank",
     ("check_mailbox", "process"), "core"),
    ("repro.comm.mailbox", "Mailbox", ("send", "send_batch", "send_stream"),
     "comm.mailbox.send"),
    ("repro.comm.mailbox", "Mailbox", ("flush",), "comm.mailbox.flush"),
    ("repro.comm.mailbox", "Mailbox", ("receive",), "comm.mailbox.receive"),
    ("repro.comm.network", "Network", ("send_packet", "advance"), "comm.network"),
    ("repro.comm.termination", "QuiescenceDetector",
     ("maybe_start_wave", "handle"), "comm.network"),
    ("repro.memory.page_cache", "PageCache",
     ("access", "access_range", "access_pages", "drain_epoch_us"), "memory"),
    ("repro.runtime.engine", "SimulationEngine", ("__init__", "run"),
     "runtime.engine"),
    ("repro.runtime.parallel", "WorkerPool", ("send", "send_tick"),
     "runtime.parallel.send"),
    ("repro.runtime.parallel", "WorkerPool", ("recv",), "runtime.parallel.wait"),
    ("repro.runtime.parallel", "WorkerPool",
     ("__init__", "respawn", "shutdown"), "runtime.parallel.coord"),
    ("repro.runtime.parallel", "WorkerSupervisor",
     ("start", "tick", "replay", "finalize"), "runtime.parallel.coord"),
    ("repro.runtime.parallel", "WorkerSupervisor", ("checkpoint",),
     "runtime.supervision"),
    ("repro.runtime.packet_codec", None,
     ("encode_packets", "decode_packets", "encode_ints", "decode_ints"),
     "runtime.packet_codec"),
    ("repro.runtime.shm_ring", "SpscRing", ("write", "try_write", "read"),
     "runtime.shm_ring"),
    ("repro.runtime.durability", "DurabilityManager", ("write_epoch",),
     "runtime.durability.write"),
    ("repro.runtime.durability", "DurabilityManager", ("load_latest",),
     "runtime.durability.load"),
)

#: Per-layer self-time metric -> the layers it sums.
TIME_METRICS = {
    "graph.build_s": ("graph",),
    "core.kernel_s": ("core",),
    "comm.mailbox.send_s": ("comm.mailbox.send",),
    "comm.mailbox.flush_s": ("comm.mailbox.flush",),
    "comm.mailbox.receive_s": ("comm.mailbox.receive",),
    "comm.network_s": ("comm.network",),
    "memory.cache_s": ("memory",),
    "runtime.engine_s": ("runtime.engine",),
    "runtime.parallel.send_s": ("runtime.parallel.send",),
    "runtime.parallel.wait_s": ("runtime.parallel.wait",),
    "runtime.parallel.coord_s": ("runtime.parallel.coord",),
    "runtime.packet_codec_s": ("runtime.packet_codec",),
    "runtime.shm_ring_s": ("runtime.shm_ring",),
    "runtime.supervision_s": ("runtime.supervision",),
    "runtime.durability.write_s": ("runtime.durability.write",),
    "runtime.durability.load_s": ("runtime.durability.load",),
}

#: Spans at least this long are also kept as Chrome trace events, up to
#: :data:`MAX_EVENTS` (later ones are counted in ``Tracer.dropped``);
#: shorter spans only add to the totals, which keeps frequent calls cheap.
MIN_EVENT_S = 20e-6
MAX_EVENTS = 100_000


class Tracer:
    """In-memory span recorder; install, run, :meth:`remove`, report.

    Every span adds to its layer's self time and call count.
    """

    def __init__(self) -> None:
        self.events: list[tuple] = []
        self.dropped = 0
        self._acc: dict[str, list] = {}  # layer -> [self seconds, calls]
        self._stack: list[list] = []  # open spans' [child seconds]
        self._patches: list[tuple[object, str, object]] = []
        self.origin = time.perf_counter()

    # ------------------------------------------------------------------ #
    def _wrap(self, fn, name: str, layer: str):
        stack = self._stack
        events = self.events
        clock = time.perf_counter
        acc = self._acc.setdefault(layer, [0.0, 0])

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                acc[0] += dur - frame[0]
                acc[1] += 1
                if dur >= MIN_EVENT_S:
                    if len(events) < MAX_EVENTS:
                        events.append((name, layer, t0, dur, len(stack)))
                    else:
                        self.dropped += 1

        return span

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every :data:`SPAN_SITES` function.  A module function is
        also rebound in each ``repro`` module that imported it by name."""
        for modname, clsname, names, layer in SPAN_SITES:
            module = importlib.import_module(modname)
            if clsname is None:
                for name in names:
                    original = getattr(module, name)
                    wrapped = self._wrap(original, f"{modname}.{name}", layer)
                    for other in list(sys.modules.values()):
                        if (getattr(other, "__name__", "").startswith("repro")
                                and getattr(other, name, None) is original):
                            self._patch(other, name, wrapped)
                continue
            cls = getattr(module, clsname)
            for name in names:
                raw = cls.__dict__[name]
                label = f"{clsname}.{name}"
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, label, layer))
                else:
                    new = self._wrap(raw, label, layer)
                self._patch(cls, name, new)

    def remove(self) -> None:
        """Restore every wrapped function; raise if one is not restored."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        for owner, attr, original in self._patches:
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"span wrapper left installed on {owner!r}.{attr}")
        self._patches.clear()

    # ------------------------------------------------------------------ #
    def calls(self) -> dict[str, int]:
        return {layer: acc[1] for layer, acc in self._acc.items()}

    def time_metrics(self) -> dict[str, float]:
        """Cumulative self seconds per :data:`TIME_METRICS` entry."""
        return {
            metric: sum(self._acc[layer][0] for layer in layers if layer in self._acc)
            for metric, layers in TIME_METRICS.items()
        }

    def write_chrome_trace(self, path: str, *, metadata: dict) -> None:
        """Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
        events = [
            {
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": round((t0 - self.origin) * 1e6, 3),
                "dur": round(dur * 1e6, 3),
                "args": {"depth": depth},
            }
            for name, layer, t0, dur, depth in self.events
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {**metadata, "min_event_us": MIN_EVENT_S * 1e6,
                                     "dropped_spans": self.dropped}}, fh)
