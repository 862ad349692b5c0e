"""Benchmark-side layer tracing and self-time attribution.

The traced run wraps the public entry point of each layer (``TARGETS``)
from outside the program: every module binding of a wrapped function is
rebound, so callers that did ``from ... import name`` are caught too.  A
wrapped call records one span ``(row, start, end)`` on the system-wide
monotonic clock; counts (bases, windows, keys, items, probes, bytes) are
taken from the call's arguments and result, only at the outermost span of
a row so nested calls of one layer are not counted twice.

Pool workers of the ``process`` substrate are forked and leave through
``os._exit``, so a worker appends its spans to ``worker-<pid>.jsonl``
after every item it runs; :func:`load` merges those files.

:func:`attribute` gives every instant of the traced wall to exactly one
row: the innermost open span of the main process.  While the main process
waits in a process-pool ``map``, each instant is split evenly among the
workers busy at that instant, each giving its share to its own innermost
span; instants with no worker busy stay with ``parallel.map_s``.  Pool
tasks run stage closures, so task time outside wrapped calls is driver
time.  Time outside every span, interpreter start and exit included, is
``unattributed_s``.  The rows therefore sum to the traced wall exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import types
from pathlib import Path
from typing import Any, Callable

now = time.monotonic  # CLOCK_MONOTONIC: comparable across the fork and with the parent

# Rows whose self times partition the traced wall, in report order.
SELF_ROWS = (
    "cli.import_s",
    "dna.ingest_s",
    "kmers.minimizers_s",
    "kmers.supermers_s",
    "kmers.window_values_s",
    "kmers.unpack_s",
    "hashing.partition_s",
    "mpi.alltoallv_s",
    "mpi.costmodel_s",
    "gpu.insert_s",
    "spill.write_s",
    "spill.read_s",
    "spill.merge_s",
    "parallel.map_s",
    "stages.driver_self_s",
    "output.write_db_s",
)
TASK_ROW = "parallel.task"  # one task of an in-process pool
CHUNK_ROW = "parallel.chunk"  # a forked worker's whole chunk
DRIVER_ROW = "stages.driver_self_s"  # task and chunk time outside wrapped calls runs stage closures
MAP_ROW = "parallel.map_s"

# Per-layer metrics a traced run reports, in BENCHMARK.json order.
METRICS = (
    ("cli.import_s", "s"),
    ("dna.ingest_s", "s"),
    ("dna.bases_per_s", "1/s"),
    ("kmers.minimizers_s", "s"),
    ("kmers.supermers_s", "s"),
    ("kmers.windows_per_s", "1/s"),
    ("kmers.kmers_per_supermer", "ratio"),
    ("kmers.window_values_s", "s"),
    ("kmers.unpack_s", "s"),
    ("hashing.partition_s", "s"),
    ("hashing.keys_per_s", "1/s"),
    ("mpi.alltoallv_s", "s"),
    ("mpi.costmodel_s", "s"),
    ("mpi.exchanged_items", "count"),
    ("mpi.exchanged_bytes", "bytes"),
    ("gpu.insert_s", "s"),
    ("gpu.inserts_per_s", "1/s"),
    ("gpu.probes_per_insert", "ratio"),
    ("gpu.table_mb", "MB"),
    ("spill.write_s", "s"),
    ("spill.read_s", "s"),
    ("spill.merge_s", "s"),
    ("spill.bytes_written", "bytes"),
    ("parallel.map_s", "s"),
    ("parallel.worker_busy_s", "s"),
    ("parallel.idle_s", "s"),
    ("parallel.maps", "count"),
    ("stages.driver_self_s", "s"),
    ("output.write_db_s", "s"),
    ("unattributed_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead", "ratio"),
)


# -- counters: (args, kwargs, result) -> additive counts ---------------------


def _ingest(args, kwargs, result):
    return {"bases": result.total_bases}


def _windows(args, kwargs, result):
    return {"windows": result.n_windows}


def _supermers(args, kwargs, result):
    batch = result[0]
    return {"supermers": batch.n_supermers, "supermer_kmers": batch.total_kmers}


def _keys(args, kwargs, result):
    return {"keys": len(result)}


def _a2a_segments(args, kwargs, result):
    data = args[0]
    n = sum(int(d.shape[0]) for d in data)
    # Only the data exchange names a wire size; a parallel lengths exchange
    # moves the same items again.
    items = n if kwargs.get("bytes_per_item") is not None else 0
    return {"items": items, "bytes": sum(int(d.nbytes) for d in data)}


def _a2a_flat(args, kwargs, result):
    data = args[0]
    items = int(data.shape[0]) if kwargs.get("bytes_per_item") is not None else 0
    return {"items": items, "bytes": int(data.nbytes)}


def _insert(args, kwargs, result):
    stats = result if isinstance(result, list) else [result]
    return {
        "inserts": int(args[1].shape[0]),
        "probes": sum(s.total_probes for s in stats),
        "instances": sum(s.n_instances for s in stats),
        "table_bytes_max": args[0].table_bytes,
    }


def _spool_partition(args, kwargs, result):
    # The spool is the exchange of a spilled run: its data partitions carry
    # the routed items.
    lens = kwargs.get("lens", False)
    items = 0 if lens else sum(int(s.shape[0]) for s in args[3])
    return {"spill_bytes": int(result), "items": items, "bytes": int(result)}


def _spool_run(args, kwargs, result):
    return {"spill_bytes": int(args[2].nbytes + args[3].nbytes)}


def _pool_map(args, kwargs, result):
    return {"maps": 1}


# (module, attribute path, row, counter).  Methods are wrapped on their
# class, so every instance and every caller sees the wrapper.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("repro.dna.reads", "ReadSet.from_records", "dna.ingest_s", _ingest),
    ("repro.kmers.minimizers", "minimizers_for_windows", "kmers.minimizers_s", _windows),
    ("repro.kmers.supermers", "build_supermers_with_positions", "kmers.supermers_s", _supermers),
    ("repro.kmers.extract", "window_values", "kmers.window_values_s", None),
    ("repro.kmers.supermers", "extract_kmers_from_packed", "kmers.unpack_s", None),
    ("repro.hashing.partition", "KmerPartitioner.owners", "hashing.partition_s", _keys),
    ("repro.hashing.partition", "MinimizerPartitioner.owners", "hashing.partition_s", _keys),
    ("repro.hashing.partition", "owners_of", "hashing.partition_s", _keys),
    ("repro.mpi.collectives", "alltoallv_segments", "mpi.alltoallv_s", _a2a_segments),
    ("repro.mpi.collectives", "alltoallv_flat", "mpi.alltoallv_s", _a2a_flat),
    ("repro.mpi.costmodel", "CommCostModel.alltoallv", "mpi.costmodel_s", None),
    ("repro.gpu.hashtable", "DeviceHashTable.insert_batch", "gpu.insert_s", _insert),
    ("repro.gpu.segmented", "SegmentedHashTable.insert_flat", "gpu.insert_s", _insert),
    ("repro.core.stages.spill", "SpillSpool.write_partition", "spill.write_s", _spool_partition),
    ("repro.core.stages.spill", "SpillSpool.write_run", "spill.write_s", _spool_run),
    ("repro.core.stages.spill", "SpillSpool.read_partition", "spill.read_s", None),
    ("repro.core.stages.spill", "SpillSpool.map_partition", "spill.read_s", None),
    ("repro.core.stages.spill", "SpillSpool.map_run", "spill.read_s", None),
    ("repro.core.stages.spill", "external_merge", "spill.merge_s", None),
    ("repro.core.incremental", "DistributedCounter.add_reads", "stages.driver_self_s", None),
    ("repro.core.incremental", "DistributedCounter.spectrum", "stages.driver_self_s", None),
    ("repro.core.engine", "run_pipeline", "stages.driver_self_s", None),
    ("repro.kmers.kmerdb", "write_kmerdb", "output.write_db_s", None),
)
# Imported before rebinding so their `from ... import` bindings are found.
BINDERS = (
    "repro.core.stages.standard",
    "repro.core.stages.fused",
    "repro.core.stages.spill",
    "repro.core.stages.scheduler",
    "repro.core.parallel.process",
)


class Tracer:
    """Spans of one process; a forked worker restarts it with :meth:`enter_worker`."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.spans: list[list[Any]] = []  # [id, row, start, end, counts]
        self.stack: list[tuple[int, str]] = []  # open (id, row)
        self.next_id = 0
        self.map_id: int | None = None  # in a worker: the parent's map span
        self.flushed = 0

    def call(self, row: str, fn: Callable, counter: Callable | None, args, kwargs):
        span_id = self.next_id
        self.next_id += 1
        outer = all(r != row for _, r in self.stack)
        self.stack.append((span_id, row))
        t0 = now()
        try:
            result = fn(*args, **kwargs)
        finally:
            span = [span_id, row, t0, now(), None]
            self.stack.pop()
            self.spans.append(span)
        if counter is not None and outer:
            span[4] = counter(args, kwargs, result)
        return result

    def wrap(self, row: str, fn: Callable, counter: Callable | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(row, fn, counter, args, kwargs)

        return wrapper

    def wrap_map(self, fn: Callable) -> Callable:
        """Wrap a pool's ``map`` and each task it runs.

        The tasks are stage closures, so their time outside wrapped calls
        is the driver's on every substrate, and ``parallel.map_s`` keeps
        only the substrate's own overhead.
        """

        @functools.wraps(fn)
        def wrapper(pool, task, items, *args, **kwargs):
            def traced(item):
                return self.call(TASK_ROW, task, None, (item,), {})

            return self.call(MAP_ROW, fn, _pool_map, (pool, traced, items, *args), kwargs)

        return wrapper

    def wrap_worker_main(self, fn: Callable) -> Callable:
        """Wrap the forked worker body so its spans reach a per-pid file."""

        @functools.wraps(fn)
        def worker_main(conn, task, chunk, recorder):
            self.enter_worker()
            start = now()
            remaining = [len(chunk)]

            def traced(item):
                try:
                    return task(item)
                finally:
                    remaining[0] -= 1
                    if remaining[0] == 0:
                        self.spans.append([-1, CHUNK_ROW, start, now(), None])
                    self.flush_worker()

            return fn(conn, traced, chunk, recorder)

        return worker_main

    def enter_worker(self) -> None:
        maps = [span_id for span_id, row in self.stack if row == MAP_ROW]
        self.map_id = maps[-1] if maps else None
        self.spans, self.stack, self.flushed = [], [], 0

    def flush_worker(self) -> None:
        lines = [json.dumps(span) + "\n" for span in self.spans[self.flushed :]]
        self.flushed = len(self.spans)
        with open(self.out_dir / f"worker-{os.getpid()}.jsonl", "a") as fh:
            fh.write(f'{{"map": {json.dumps(self.map_id)}}}\n')
            fh.writelines(lines)

    def record(self, row: str, t0: float, t1: float) -> None:
        self.spans.append([self.next_id, row, t0, t1, None])
        self.next_id += 1

    def dump(self) -> None:
        (self.out_dir / "main.json").write_text(json.dumps(self.spans))


def wrap_targets(wrap: Callable[[str, Callable, Callable | None], Callable]) -> None:
    """Replace each target by ``wrap(row, fn, counter)`` wherever a module binds it."""
    for name in BINDERS:
        importlib.import_module(name)
    rebind: dict[Any, Any] = {}
    for module_name, path, row, counter in TARGETS:
        owner: Any = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(wrap(row, raw.__func__, counter)))
        else:
            rebind[raw] = wrap(row, raw, counter)
            setattr(owner, attr, rebind[raw])
    for module in list(sys.modules.values()):
        for key, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in rebind:
                setattr(module, key, rebind[value])


def install(tracer: Tracer) -> None:
    """Trace every target, every pool ``map`` and the forked worker body."""
    wrap_targets(tracer.wrap)
    from repro.core.parallel import process
    from repro.core.parallel.pools import RankPool

    pending = [RankPool]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "map" in vars(cls):
            cls.map = tracer.wrap_map(vars(cls)["map"])
    process._worker_main = tracer.wrap_worker_main(process._worker_main)


def inject_delay(spec: str) -> None:
    """Sleep inside every call of one row, given as ``"row=seconds"``.

    For the attribution tests: a deliberately slowed layer must show in
    that row and in ``wall_s``, and nowhere the layer does not run.
    """
    slow_row, seconds = spec.split("=")
    delay = float(seconds)

    def wrap(row: str, fn: Callable, counter: Callable | None) -> Callable:
        if row != slow_row:
            return fn

        @functools.wraps(fn)
        def slowed(*args, **kwargs):
            time.sleep(delay)
            return fn(*args, **kwargs)

        return slowed

    wrap_targets(wrap)


# -- analysis ----------------------------------------------------------------


def load(out_dir: Path) -> tuple[list[list], dict[int, dict[int, list[list]]]]:
    """Main-process spans and worker spans by map id and pid."""
    main = json.loads((Path(out_dir) / "main.json").read_text())
    workers: dict[int, dict[int, list[list]]] = {}
    for path in sorted(Path(out_dir).glob("worker-*.jsonl")):
        pid = int(path.stem.split("-", 1)[1])
        map_id = None
        for line in path.read_text().splitlines():
            item = json.loads(line)
            if isinstance(item, dict):
                map_id = item["map"]
            else:
                workers.setdefault(map_id, {}).setdefault(pid, []).append(item)
    return main, workers


def self_segments(spans: list[list]) -> list[tuple[float, float, list]]:
    """``(start, end, span)`` pieces where ``span`` is the innermost open one.

    Spans of one thread nest properly, so a sweep over start times with a
    stack of open spans covers every instant once.
    """
    out: list[tuple[float, float, list]] = []
    stack: list[list] = []
    cursor = 0.0
    for span in sorted(spans, key=lambda s: (s[2], -s[3])):
        while stack and stack[-1][3] <= span[2]:
            top = stack.pop()
            if top[3] > cursor:
                out.append((cursor, top[3], top))
            cursor = max(cursor, top[3])
        if stack and span[2] > cursor:
            out.append((cursor, span[2], stack[-1]))
        stack.append(span)
        cursor = span[2]
    while stack:
        top = stack.pop()
        if top[3] > cursor:
            out.append((cursor, top[3], top))
        cursor = max(cursor, top[3])
    return out


def _row_of(span: list) -> str:
    return DRIVER_ROW if span[1] in (TASK_ROW, CHUNK_ROW) else span[1]


def _split_among_workers(
    a: float, b: float, lanes: list[list[tuple[float, float, list]]], rows: dict[str, float]
) -> None:
    """Share ``[a, b)`` among the workers busy at each instant."""
    clipped = [[(max(s, a), min(e, b), sp) for s, e, sp in lane if e > a and s < b] for lane in lanes]
    points = sorted({a, b, *(t for lane in clipped for s, e, _ in lane for t in (s, e))})
    cursors = [0] * len(clipped)
    for p, q in zip(points, points[1:]):
        active = []
        for i, lane in enumerate(clipped):
            while cursors[i] < len(lane) and lane[cursors[i]][1] <= p:
                cursors[i] += 1
            if cursors[i] < len(lane) and lane[cursors[i]][0] <= p:
                active.append(lane[cursors[i]][2])
        if active:
            for span in active:
                rows[_row_of(span)] += (q - p) / len(active)
        else:
            rows[MAP_ROW] += q - p


def attribute(
    main: list[list], workers: dict[int, dict[int, list[list]]], t_start: float, t_end: float
) -> dict[str, float]:
    """Per-layer metrics of one traced run from exec (``t_start``) to exit (``t_end``)."""
    rows = dict.fromkeys(SELF_ROWS, 0.0)
    lanes_by_map = {
        map_id: [self_segments(spans) for _, spans in sorted(by_pid.items())]
        for map_id, by_pid in workers.items()
    }
    for a, b, span in self_segments(main):
        lanes = lanes_by_map.get(span[0]) if span[1] == MAP_ROW else None
        if lanes:
            _split_among_workers(a, b, lanes, rows)
        else:
            rows[_row_of(span)] += b - a
    wall = t_end - t_start
    out = dict(rows)
    out["unattributed_s"] = wall - sum(rows.values())
    out["trace.wall_s"] = wall

    every = main + [s for by_pid in workers.values() for spans in by_pid.values() for s in spans]
    counts: dict[str, float] = {}
    for span in every:
        for key, value in (span[4] or {}).items():
            old = counts.get(key, 0)
            counts[key] = max(old, value) if key.endswith("_max") else old + value
    busy = _outer_busy(main, workers)

    def rate(key: str, row: str) -> float:
        return counts.get(key, 0) / busy[row] if busy.get(row) else 0.0

    def ratio(num: str, den: str) -> float:
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    out["dna.bases_per_s"] = rate("bases", "dna.ingest_s")
    out["kmers.windows_per_s"] = rate("windows", "kmers.minimizers_s")
    out["kmers.kmers_per_supermer"] = ratio("supermer_kmers", "supermers")
    out["hashing.keys_per_s"] = rate("keys", "hashing.partition_s")
    out["mpi.exchanged_items"] = counts.get("items", 0)
    out["mpi.exchanged_bytes"] = counts.get("bytes", 0)
    out["gpu.inserts_per_s"] = rate("inserts", "gpu.insert_s")
    out["gpu.probes_per_insert"] = ratio("probes", "instances")
    out["gpu.table_mb"] = counts.get("table_bytes_max", 0) / 1e6
    out["spill.bytes_written"] = counts.get("spill_bytes", 0)
    out["parallel.maps"] = counts.get("maps", 0)

    worker_busy = idle = 0.0
    maps = {s[0]: s for s in main if s[1] == MAP_ROW}
    for map_id, by_pid in workers.items():
        chunks = [s for spans in by_pid.values() for s in spans if s[1] == CHUNK_ROW]
        busy_here = sum(s[3] - s[2] for s in chunks)
        worker_busy += busy_here
        if map_id in maps:
            span = maps[map_id]
            idle += max(len(by_pid) * (span[3] - span[2]) - busy_here, 0.0)
    out["parallel.worker_busy_s"] = worker_busy
    out["parallel.idle_s"] = idle
    return out


def _outer_busy(main: list[list], workers: dict[int, dict[int, list[list]]]) -> dict[str, float]:
    """Seconds inside each row's outermost spans, summed over processes."""
    busy: dict[str, float] = {}
    lanes = [main] + [spans for by_pid in workers.values() for spans in by_pid.values()]
    for spans in lanes:
        ends: dict[str, float] = {}
        for span in sorted(spans, key=lambda s: (s[2], -s[3])):
            row = span[1]
            if span[2] >= ends.get(row, float("-inf")):
                busy[row] = busy.get(row, 0.0) + span[3] - span[2]
                ends[row] = span[3]
    return busy
