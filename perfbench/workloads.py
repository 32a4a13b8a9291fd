"""The benchmark's three workloads, built only through the public API.

A workload builds its graph from the seed (the timed set-up), prepares
its oracles untimed, and then offers a fixed *cycle* of steps.  A step
runs one or two operations, times each around the traversal call only,
and checks every result against its oracle.  A failed check or an
exception marks that operation failed; the run goes on.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.bfs import BFSAlgorithm
from repro.algorithms.pagerank import pagerank
from repro.algorithms.triangles import triangle_count
from repro.analysis.validate import validate_bfs
from repro.bench.harness import build_rmat_graph, make_page_caches
from repro.core.traversal import run_traversal
from repro.graph.distributed import DistributedGraph
from repro.graph.edge_list import EdgeList
from repro.reference.bfs import bfs_levels
from repro.reference.triangles import triangles_per_max_vertex
from repro.runtime.costmodel import hyperion_dit
from repro.runtime.trace import DURABILITY_STATS_FIELDS
from repro.types import UNREACHED


#: Wall seconds of one :class:`Calibration` on the reference host (a
#: 2-vCPU x86-64 VM, Python 3.11, numpy 2.4, otherwise idle).
CALIBRATION_REF_S = 0.010
_CAL_KEYS = np.random.default_rng(0).integers(0, 1 << 20, 200_000)


def _calibration_work() -> None:
    """A fixed mix of interpreter and numpy work sharing no code with the
    simulator."""
    table: dict[int, int] = {}
    for i in range(40_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    np.sort(_CAL_KEYS)
    np.bincount(_CAL_KEYS & 4095)


def _calibration_helper(conn) -> None:
    while conn.recv():
        _calibration_work()
        conn.send(None)


class Calibration:
    """Measures how fast the host runs right now.

    On a shared host the speed of the whole machine swings by tens of
    percent over seconds to minutes, and every kind of work slows alike.
    Timed right before and after each operation, :func:`_calibration_work`
    tells how fast the host ran meanwhile, so the operation's time can be
    rescaled to the reference host (see :attr:`Op.ref_seconds`).  An
    operation that keeps ``width`` processors busy is calibrated on as
    many: up to ``max_width - 1`` helper processes, forked once and idle
    between calibrations, run the work alongside this process, and the
    calibration lasts until all have finished.
    """

    def __init__(self, max_width: int) -> None:
        ctx = multiprocessing.get_context("fork")
        self.helpers = []
        for _ in range(max_width - 1):
            ours, theirs = ctx.Pipe()
            proc = ctx.Process(target=_calibration_helper, args=(theirs,), daemon=True)
            proc.start()
            theirs.close()
            self.helpers.append((proc, ours))

    def seconds(self, width: int) -> float:
        helpers = [conn for _proc, conn in self.helpers[:width - 1]]
        t0 = time.perf_counter()
        for conn in helpers:
            conn.send(True)
        _calibration_work()
        for conn in helpers:
            conn.recv()
        return time.perf_counter() - t0

    def close(self) -> None:
        for proc, conn in self.helpers:
            conn.send(False)
            proc.join()
            conn.close()
        self.helpers = []


@dataclass
class Op:
    """One timed operation and what its oracle said."""

    kind: str
    #: Host wall seconds of the operation.
    seconds: float
    edges_scanned: int = 0
    counts: dict = field(default_factory=dict)
    error: str | None = None
    #: Host-side counters that vary with the machine (IPC, disk bytes).
    host: dict = field(default_factory=dict)
    #: Host speed while the operation ran, relative to the reference host:
    #: ``CALIBRATION_REF_S`` over the mean of the calibrations around it.
    speed: float = 1.0

    @property
    def ref_seconds(self) -> float:
        """Wall seconds rescaled to the reference host's speed."""
        return self.seconds * self.speed


def stats_dict(stats, *, drop: tuple[str, ...] = ()) -> dict:
    out = dataclasses.asdict(stats)
    out.pop("timeline", None)
    for name in drop:
        out.pop(name, None)
    return out


def sim_counts(stats) -> dict:
    """The simulated counts a run must repeat exactly."""
    return {
        "ticks": stats.ticks,
        "time_us": stats.time_us,
        "visits": stats.total_visits,
        "previsits": stats.total_previsits,
        "edges_scanned": stats.total_edges_scanned,
        "ghost_filtered": stats.total_ghost_filtered,
        "visitors_sent": stats.total_visitors_sent,
        "packets": stats.total_packets,
        "bytes": stats.total_bytes,
        "envelopes_forwarded": sum(r.envelopes_forwarded for r in stats.ranks),
        "termination_waves": stats.termination_waves,
        "cache_hits": stats.total_cache_hits,
        "cache_misses": stats.total_cache_misses,
        "durable_epochs": stats.durable_checkpoints,
        "worker_respawns": stats.worker_respawns,
    }


class Workload:
    """Base: subclasses set the class attributes and the step methods."""

    name = ""
    #: Operations one step of the cycle runs.
    ops_per_step = 1
    #: Op kinds that ``op_s`` and ``host_mteps`` are computed over.
    timed_kinds: tuple[str, ...] = ()
    #: Graph shape: (scale, edgefactor, partitions, ghosts).
    shape: tuple[int, int, int, int] = (0, 0, 0, 0)
    #: Graphs built from one seed.  Where the work of one operation
    #: depends strongly on the graph instance, a run cycles over several
    #: so its medians do not hinge on one draw.
    num_graphs = 1
    #: Worker processes of an operation (its calibration's width).
    workers = 1

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.graphs: list[tuple[EdgeList, DistributedGraph]] = []
        self.calibration = Calibration(self.workers)

    def close(self) -> None:
        self.calibration.close()

    def timed(self, fn, width: int | None = None):
        """Run ``fn``; return its result, its wall seconds and the host
        speed measured by a calibration right before and right after it,
        on ``width`` processors (default: the workload's ``workers``)."""
        width = width or self.workers
        before = self.calibration.seconds(width)
        t0 = time.perf_counter()
        out = fn()
        secs = time.perf_counter() - t0
        after = self.calibration.seconds(width)
        return out, secs, 2 * CALIBRATION_REF_S / (before + after)

    def setup(self) -> None:
        """The timed set-up: generate + permute + simplify + build every
        graph.  Graph ``k`` uses RMAT seed ``seed + 1000 * k``."""
        scale, ef, p, ghosts = self.shape
        self.graphs = [build_rmat_graph(scale, edgefactor=ef, num_partitions=p,
                                        num_ghosts=ghosts, seed=self.seed + 1000 * k)
                       for k in range(self.num_graphs)]

    def prepare(self) -> None:
        """Untimed oracle baselines."""

    def reset(self) -> None:
        """Bring the workload to the state its cycle starts from, so a
        replayed cycle repeats its simulated counts exactly."""

    def cycle(self) -> list:
        """The fixed list of steps; each returns a list of :class:`Op`.
        By default one step per graph, calling ``self._step(k)``."""
        return [lambda k=k: self._step(k) for k in range(len(self.graphs))]

    def info(self) -> dict:
        return {"graphs": [[int(g.num_vertices), int(g.num_edges)] for _e, g in self.graphs]}


class BfsNvram2d(Workload):
    """Graph500 BFS as in Table II: one RMAT graph on NVRAM, routed 2D
    mailbox, batch path, page caches kept warm across a fixed set of roots
    (one unmeasured warm-up search first).  Scale 13 with 64 KiB of page
    cache per rank keeps the cache-to-graph ratio (and the ~0.92 hit rate)
    of scale 15 with the default 256 KiB, at a quarter of the time per
    search, so a run holds about fifty searches.  The work per search barely depends
    on the seed, so one graph suffices."""

    name = "bfs-nvram-2d"
    shape = (13, 16, 16, 256)
    timed_kinds = ("bfs",)
    num_roots = 4
    cache_bytes_per_rank = 64 * 1024

    def prepare(self) -> None:
        # Roots come from the component of the highest-degree vertex, so
        # every search traverses the giant component (Graph500 convention
        # of non-trivial searches).
        edges = self.graphs[0][0]
        degrees = edges.out_degrees()
        hub = int(np.argmax(degrees))
        reach = bfs_levels(edges, hub) != UNREACHED
        eligible = np.flatnonzero(reach & (degrees > 0))
        rng = np.random.default_rng(self.seed)
        picks = rng.choice(eligible, size=self.num_roots + 1, replace=False)
        self.warmup_root = int(picks[0])
        self.roots = [int(v) for v in picks[1:]]
        self.reference = {r: bfs_levels(edges, r) for r in self.roots}
        self.machine = hyperion_dit("nvram", cache_bytes_per_rank=self.cache_bytes_per_rank)

    def _traverse(self, root: int):
        return run_traversal(self.graphs[0][1], BFSAlgorithm(root), machine=self.machine,
                             topology="2d", page_caches=self.caches, batch=True,
                             workers=1)

    def reset(self) -> None:
        self.caches = make_page_caches(self.machine, self.graphs[0][1].num_partitions)
        self._traverse(self.warmup_root)

    def _step(self, root: int) -> list[Op]:
        result, secs, speed = self.timed(lambda: self._traverse(root))
        op = Op("bfs", secs, result.stats.total_edges_scanned, sim_counts(result.stats),
                speed=speed)
        levels, parents = result.data.levels, result.data.parents
        if not np.array_equal(levels, self.reference[root]):
            op.error = f"root {root}: levels differ from repro.reference.bfs.bfs_levels"
        else:
            report = validate_bfs(self.graphs[0][0], root, levels, parents)
            if not report.valid:
                op.error = f"root {root}: validate_bfs failed: {report.errors[:3]}"
        return [op]

    def cycle(self) -> list:
        return [lambda r=r: self._step(r) for r in self.roots]

    def info(self) -> dict:
        return {**super().info(), "roots": self.roots, "warmup_root": self.warmup_root}


class TrianglesWorkers(Workload):
    """Triangle counting at ``workers=2`` over the SHM ring with a
    supervision budget and no faults.  Each count takes 50-90 ticks in
    about half a second, most of it in the parent's barrier IPC (tick
    fan-out, packet codec, waits on the workers).  Tick counts swing with
    the RMAT draw, so a run cycles over sixteen scale-11 graphs (a single
    scale-14 graph takes ten seconds a count, too few samples for a
    median)."""

    name = "triangles-workers"
    shape = (11, 1, 16, 0)
    num_graphs = 16
    timed_kinds = ("triangles",)
    workers = 2

    def prepare(self) -> None:
        """Per graph: reference counts and the sequential batch run whose
        stats every parallel run must equal."""
        self.oracles = []
        self.sequential_s = 0.0
        for edges, graph in self.graphs:
            reference = triangles_per_max_vertex(edges)
            base, secs, _speed = self.timed(
                lambda: triangle_count(graph, batch=True, workers=1), width=1)
            self.sequential_s += secs
            error = None
            if not np.array_equal(base.data.per_vertex, reference):
                error = ("the sequential batch oracle run disagrees with "
                         "triangles_per_max_vertex")
            self.oracles.append((reference, stats_dict(base.stats), error))

    def _step(self, k: int) -> list[Op]:
        reference, base_stats, base_error = self.oracles[k]
        result, secs, speed = self.timed(lambda: triangle_count(
            self.graphs[k][1], batch=True, workers=self.workers, ipc="ring",
            worker_restarts=1))
        op = Op("triangles", secs, result.stats.total_edges_scanned,
                sim_counts(result.stats), host=dict(result.ipc or {}), speed=speed)
        if base_error:
            op.error = f"graph {k}: {base_error}"
        elif not np.array_equal(result.data.per_vertex, reference):
            op.error = f"graph {k}: per-vertex counts differ from triangles_per_max_vertex"
        elif stats_dict(result.stats) != base_stats:
            diff = sorted(key for key, v in stats_dict(result.stats).items()
                          if base_stats.get(key) != v)
            op.error = f"graph {k}: stats differ from the sequential batch run: {diff}"
        elif result.stats.worker_respawns:
            op.error = f"graph {k}: {result.stats.worker_respawns} worker respawns without faults"
        return [op]

    def info(self) -> dict:
        return {**super().info(), "workers": self.workers,
                "sequential_batch_s": self.sequential_s}


class PagerankDurable(Workload):
    """Object-path PageRank with durable epochs on eight scale-7,
    4-partition RMAT graphs per seed (half the scale of the durable-restart
    tests' graph, so one step takes about a second and a half and a run
    holds about twenty; their 230-300 ticks take two epochs, rarely
    three).  A step is an uninterrupted durable run (the epoch write path,
    timed as ``op_s``) and a resume from its middle epoch copied to a fresh
    directory (the read path, ``durable.resume_s``)."""

    name = "pagerank-durable"
    shape = (7, 16, 4, 32)
    num_graphs = 8
    ops_per_step = 2
    timed_kinds = ("durable",)
    threshold = 1e-3
    interval = 96

    def prepare(self) -> None:
        self.first: dict[int, tuple[dict, np.ndarray]] = {}
        self._dirs = 0

    def _fresh_dir(self) -> str:
        self._dirs += 1
        path = os.path.join(self.workdir, f"durable-{self._dirs}")
        os.makedirs(path)
        return path

    def _run(self, k: int, durable_dir: str, resume: bool):
        # Every epoch is kept so a mid-run one can be resumed from.
        return pagerank(self.graphs[k][1], threshold=self.threshold, batch=False,
                        durable_dir=durable_dir, durable_interval=self.interval,
                        durable_keep=1 << 20, durable_resume=resume)

    def _step(self, k: int) -> list[Op]:
        full_dir = self._fresh_dir()
        full, secs, speed = self.timed(lambda: self._run(k, full_dir, False))
        run = Op("durable", secs, full.stats.total_edges_scanned, sim_counts(full.stats),
                 host={"durable_disk_bytes": full.stats.durable_disk_bytes}, speed=speed)
        key = stats_dict(full.stats, drop=DURABILITY_STATS_FIELDS)
        first = self.first.setdefault(k, (key, full.data.scores))
        if key != first[0] or not np.array_equal(full.data.scores, first[1]):
            run.error = f"graph {k}: durable run differs from this run's first one"

        ticks = sorted(int(n[6:14]) for n in os.listdir(full_dir) if n.endswith(".json"))
        resume_dir = self._fresh_dir()
        resumed = Op("resume", 0.0)
        if not ticks:
            resumed.error = f"graph {k}: the durable run wrote no epoch"
        else:
            mid = ticks[(len(ticks) - 1) // 2]
            for suffix in (".bin", ".json"):
                name = f"epoch_{mid:08d}{suffix}"
                shutil.copyfile(os.path.join(full_dir, name),
                                os.path.join(resume_dir, name))
            res, resumed.seconds, resumed.speed = self.timed(
                lambda: self._run(k, resume_dir, True))
            resumed.counts = sim_counts(res.stats)
            res_key = stats_dict(res.stats, drop=DURABILITY_STATS_FIELDS)
            if res.stats.durable_resume_tick != mid:
                resumed.error = (f"graph {k}: resumed from tick "
                                 f"{res.stats.durable_resume_tick}, expected {mid}")
            elif res_key != key:
                diff = sorted(f for f, v in res_key.items() if key.get(f) != v)
                resumed.error = (f"graph {k}: resumed stats differ from the "
                                 f"uninterrupted run: {diff}")
            elif not np.array_equal(res.data.scores, full.data.scores):
                resumed.error = f"graph {k}: resumed scores differ from the uninterrupted run"
        shutil.rmtree(full_dir, ignore_errors=True)
        shutil.rmtree(resume_dir, ignore_errors=True)
        return [run, resumed]

    def info(self) -> dict:
        return {**super().info(), "threshold": self.threshold,
                "durable_interval": self.interval}


WORKLOADS = {w.name: w for w in (BfsNvram2d, TrianglesWorkers, PagerankDurable)}
