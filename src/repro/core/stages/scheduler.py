"""The round scheduler: one driver for every execution strategy.

This is the single owner of the parse → exchange → count → merge loop
(Algorithm 1, repeated in rounds when the data exceeds memory, Section
III-A).  Every execution surface drives it:

* :func:`repro.core.engine.run_pipeline` builds a composition and calls
  :meth:`RoundScheduler.run` (one-shot run, full :class:`CountResult`);
* :class:`repro.core.incremental.DistributedCounter` holds a
  :class:`PipelineState` and calls :meth:`RoundScheduler.run_batch` per
  read batch (streaming, checkpointable);
* the SPMD rank programs (:mod:`repro.core.stages.spmd`) reuse the same
  stage objects inside per-rank threads.

Both entry points run one loop, :meth:`RoundScheduler._drive`, with two
seams picked once per run by :meth:`RoundScheduler._plan`:

* **layout** — :class:`StagedLayout` (per-rank :class:`RankParse`
  buffers and :class:`DeviceHashTable` partitions, ranks mapped over the
  pool) or :class:`~repro.core.stages.fused.FusedLayout` (rank-segmented
  flat buffers and one :class:`~repro.gpu.segmented.SegmentedHashTable`);
* **sink** — memory (each round is exchanged and counted) or spool (every
  round's partitions land in a :class:`~repro.core.stages.spill.SpillSpool`,
  then stream back one rank, or one rank block, at a time).

Execution is bulk-synchronous: every rank's phase runs to completion (as
real NumPy work), per-rank model times are derived from the work actually
performed, and the phase's bulk time is the max over ranks.  When the
modeled per-round working set exceeds device or host memory, or the
config asks for ``n_rounds > 1``, each destination segment is split
evenly across rounds (Section III-A) and the exchange + count phases repeat.

Checkpoint/resume is a scheduler concern: :class:`PipelineState` carries
the persistent per-rank tables and accounting across batches and
serializes to the ``.npz`` checkpoint format (version 2: version 1's
table/timing layout plus insert statistics and the traffic record log,
so resumed runs reproduce an uninterrupted run's accounting exactly;
version-1 files still load, with zeroed stats and empty traffic).
"""

from __future__ import annotations

import zipfile
import zlib
from contextlib import nullcontext
from dataclasses import dataclass, fields
from pathlib import Path
from time import perf_counter

import numpy as np

from ...dna.reads import ReadSet
from ...gpu.hashtable import DeviceHashTable, InsertStats
from ...mpi.costmodel import CommCostModel
from ...mpi.stats import CollectiveRecord, TrafficStats
from ...mpi.topology import ClusterSpec
from ...telemetry import MetricRegistry, event, session
from ..config import PipelineConfig
from ..memory import ScratchArena
from ..parallel import RankPool, get_pool
from ..results import CountResult, PhaseTiming
from ..tracing import WallClockRecorder, recording_region
from .buffers import ExchangeOutcome, RankParse, add_link_seconds
from .context import EngineOptions, StageContext
from .fused import FusedLayout, supports_fusion
from .registry import StageComposition
from .spill import SpillExchange, SpillSpool, external_merge, supports_spill

__all__ = ["RoundScheduler", "PipelineState", "StagedLayout"]

#: Version 2 adds ``insert_stats`` and the traffic record log to version
#: 1's tables/timing/volume layout; :meth:`PipelineState.load` accepts both.
_CHECKPOINT_VERSION = 2

#: Field order of the serialized :class:`InsertStats` vector.
_INSERT_STAT_FIELDS = (
    "n_instances",
    "n_distinct",
    "total_probes",
    "max_probe",
    "cas_conflicts",
    "rounds",
    "resizes",
)


@dataclass
class PipelineState:
    """Persistent cross-batch state: table partitions + accounting.

    This is what checkpoint/resume serializes; a scheduler folds each batch
    into it.  The ``.npz`` layout is checkpoint format version 2: version
    1's table/timing/volume layout (unchanged from the pre-stage-graph
    incremental counter) plus the cumulative :class:`InsertStats` and the
    :class:`TrafficStats` record log, so every accounting observable of a
    resumed run matches an uninterrupted run's.  Version-1 files (which
    never carried either) still load, with zeroed insert stats and empty
    traffic.
    """

    tables: list[DeviceHashTable]
    timing: PhaseTiming
    traffic: TrafficStats
    received_kmers: np.ndarray
    exchanged_items: int
    n_batches: int
    insert_stats: InsertStats
    # Set by the fused layout on first use: the SegmentedHashTable whose
    # per-rank views then populate ``tables``.  Reset on checkpoint load.
    fused_table: object | None = None

    @classmethod
    def fresh(cls, n_ranks: int, table_seed: int) -> "PipelineState":
        return cls(
            tables=[DeviceHashTable(64, seed=table_seed) for _ in range(n_ranks)],
            timing=PhaseTiming(0.0, 0.0, 0.0),
            traffic=TrafficStats(),
            received_kmers=np.zeros(n_ranks, dtype=np.int64),
            exchanged_items=0,
            n_batches=0,
            insert_stats=InsertStats.zero(),
        )

    def save(self, path: str | Path, *, k: int) -> Path:
        """Persist the state (tables + accounting) to an ``.npz``."""
        path = Path(path)
        payload: dict[str, np.ndarray] = {
            "version": np.array([_CHECKPOINT_VERSION]),
            "k": np.array([k]),
            "n_ranks": np.array([len(self.tables)]),
            "n_batches": np.array([self.n_batches]),
            "exchanged_items": np.array([self.exchanged_items]),
            "received": self.received_kmers,
            "timing": np.array([self.timing.parse, self.timing.exchange, self.timing.count]),
            "insert_stats": np.array(
                [getattr(self.insert_stats, f) for f in _INSERT_STAT_FIELDS], dtype=np.int64
            ),
            "traffic_n": np.array([len(self.traffic.records)]),
        }
        for i, rec in enumerate(self.traffic.records):
            payload[f"traffic_meta_{i}"] = np.array([rec.op, rec.label])
            payload[f"traffic_bytes_{i}"] = rec.bytes_matrix
            if rec.items_matrix is not None:
                payload[f"traffic_items_{i}"] = rec.items_matrix
        for r, table in enumerate(self.tables):
            keys, counts = table.items()
            payload[f"keys_{r}"] = keys
            payload[f"counts_{r}"] = counts
        np.savez_compressed(path, **payload)
        return path

    def load(self, path: str | Path, *, k: int, table_seed: int) -> None:
        """Restore state saved by :meth:`save` into this object.

        The state must match the checkpoint's cluster size and k; anything
        else is a configuration error and is rejected.  Every field is read
        and checked before any is assigned, so a truncated or inconsistent
        file raises an error naming it and leaves this state untouched.
        """
        n_ranks = len(self.tables)
        try:
            with np.load(path) as data:
                loaded = _read_checkpoint(data, k=k, n_ranks=n_ranks, table_seed=table_seed)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        except (KeyError, IndexError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
            raise ValueError(f"{path}: truncated or corrupt checkpoint ({exc!r})") from exc
        for f in fields(self):
            setattr(self, f.name, getattr(loaded, f.name))


def _read_checkpoint(data, *, k: int, n_ranks: int, table_seed: int) -> PipelineState:
    """A fresh state holding every field of an opened checkpoint, validated."""
    version = int(data["version"][0])
    if version not in (1, _CHECKPOINT_VERSION):
        raise ValueError("unsupported checkpoint version")
    if int(data["k"][0]) != k:
        raise ValueError(f"checkpoint k={int(data['k'][0])} != config k={k}")
    if int(data["n_ranks"][0]) != n_ranks:
        raise ValueError(f"checkpoint has {int(data['n_ranks'][0])} ranks, cluster has {n_ranks}")
    received = data["received"].astype(np.int64)
    if received.shape != (n_ranks,):
        raise ValueError(f"'received' has shape {received.shape}, expected ({n_ranks},)")
    n_batches = int(data["n_batches"][0])
    exchanged_items = int(data["exchanged_items"][0])
    t = data["timing"]
    if t.shape != (3,):
        raise ValueError(f"'timing' has shape {t.shape}, expected (3,)")
    timing = PhaseTiming(parse=float(t[0]), exchange=float(t[1]), count=float(t[2]))
    # Accounting is always reset — any stats accumulated before the load
    # belong to a different run, and a version-1 file simply has nothing
    # to restore.
    insert_stats = InsertStats.zero()
    traffic = TrafficStats()
    if version >= 2:
        stats = data["insert_stats"]
        if stats.shape != (len(_INSERT_STAT_FIELDS),):
            raise ValueError(f"'insert_stats' has shape {stats.shape}")
        insert_stats = InsertStats(
            **{field: int(value) for field, value in zip(_INSERT_STAT_FIELDS, stats)}
        )
        for i in range(int(data["traffic_n"][0])):
            op, label = (str(s) for s in data[f"traffic_meta_{i}"])
            items_key = f"traffic_items_{i}"
            traffic.records.append(
                CollectiveRecord(
                    op=op,
                    label=label,
                    bytes_matrix=data[f"traffic_bytes_{i}"].astype(np.int64),
                    items_matrix=data[items_key].astype(np.int64) if items_key in data else None,
                )
            )
    tables = [DeviceHashTable(64, seed=table_seed) for _ in range(n_ranks)]
    for r in range(n_ranks):
        keys = data[f"keys_{r}"]
        counts = data[f"counts_{r}"]
        if keys.size:
            # Checkpoints store each partition's items sorted by key
            # (DeviceHashTable.items), so the dedup sort is redundant.
            tables[r].insert_batch(keys, weights=counts, assume_unique=True)
    return PipelineState(
        tables=tables,
        timing=timing,
        traffic=traffic,
        received_kmers=received,
        exchanged_items=exchanged_items,
        n_batches=n_batches,
        insert_stats=insert_stats,
    )


#: Run-span ``strategy`` of each (layout, spool sink) cell.
_STRATEGIES = {
    ("staged", False): "staged",
    ("fused", False): "fused",
    ("staged", True): "spill",
    ("fused", True): "fused-spill",
}


class _Tally:
    """The accumulators every round folds into, on every path."""

    def __init__(self, p: int) -> None:
        self.exchange_s = 0.0
        self.alltoallv_s = 0.0
        self.staging_s = 0.0
        self.link_totals: dict[str, float] = {}
        self.counts_matrix = np.zeros((p, p), dtype=np.int64)
        self.round_counts: list[np.ndarray] = []
        self.per_rank_count = np.zeros(p, dtype=np.float64)
        self.received = np.zeros(p, dtype=np.int64)
        self.insert = InsertStats.zero()

    def exchanged(self, outcome: ExchangeOutcome, rnd: int, reg: MetricRegistry | None, backend: str) -> None:
        self.counts_matrix += outcome.counts_matrix
        self.round_counts.append(outcome.counts_matrix)
        self.exchange_s += outcome.seconds
        self.alltoallv_s += outcome.alltoallv_seconds
        self.staging_s += outcome.staging_seconds
        add_link_seconds(self.link_totals, outcome.link_seconds)
        if reg is None:
            return
        reg.counter("exchange_rounds_total", "Exchange/count rounds executed", engine=backend).inc()
        for name, help_text, value in (
            ("exchange_model_seconds_total", "Modeled exchange seconds (overhead + network + staging)", outcome.seconds),
            ("alltoallv_model_seconds_total", "Modeled MPI_Alltoallv routine seconds", outcome.alltoallv_seconds),
            ("staging_model_seconds_total", "Modeled host<->device staging seconds", outcome.staging_seconds),
            ("exchange_items_round_total", "Items exchanged per round", int(outcome.counts_matrix.sum())),
        ):
            reg.counter(name, help_text, engine=backend, round=rnd).inc(value)

    def counted(self, r0: int, times, n_seen, stats: list[InsertStats]) -> None:
        """Fold the count outcomes of ranks ``r0 .. r0 + len(stats)`` for one round."""
        r1 = r0 + len(stats)
        self.per_rank_count[r0:r1] += times
        self.received[r0:r1] += n_seen
        for ins in stats:
            self.insert = self.insert.combined(ins)


class _RankParses:
    """The staged layout's parse output: one :class:`RankParse` per rank."""

    def __init__(self, ranks: list[RankParse]) -> None:
        self.ranks = ranks
        self.times = np.array([pr.time_s for pr in ranks])
        self.n_kmers = np.array([pr.n_kmers_parsed for pr in ranks], dtype=np.int64)
        self.counts_matrix = np.array([pr.counts for pr in ranks], dtype=np.int64)
        self.n_supermers = sum(pr.n_supermers for pr in ranks)
        self.supermer_bases = sum(pr.supermer_bases for pr in ranks)


class StagedLayout:
    """Per-rank buffers and :class:`DeviceHashTable` partitions, ranks mapped over the pool.

    Every per-rank closure touches only its own shard, receive buffer and
    table partition, so any substrate may run ranks concurrently; results
    come back in rank order and fold bit-identically to a sequential loop.
    A closure returns its table alongside the outcome: an out-of-process
    worker mutates a copy-on-write clone, so the grown table must travel
    back (a no-op reassignment in-process).
    """

    name, prefix = "staged", ""

    def __init__(self, sched: "RoundScheduler", pool: RankPool) -> None:
        self.comp = sched.comp
        self.p = sched.cluster.n_ranks
        self.seed = sched.config.table_seed
        self.supermer = sched.config.mode == "supermer"
        self.pool = pool

    def parse(self, shards: list[ReadSet], sctx: StageContext) -> _RankParses:
        comp, recorder = self.comp, sctx.recorder

        def _parse_one(r: int) -> RankParse:
            t0 = perf_counter()
            out = comp.substrate.parse_rank(shards[r], comp.parse, comp.partition, sctx)
            if recorder is not None:
                recorder.record("parse", r, t0, perf_counter())
            return out

        return _RankParses(self.pool.map(_parse_one, range(self.p), recorder=recorder))

    def round_send(self, parsed: _RankParses, rnd: int, n_rounds: int):
        rows = [_round_slice(pr, rnd, n_rounds) for pr in parsed.ranks]
        lengths = [row[1] for row in rows] if self.supermer else None
        return [row[0] for row in rows], lengths, [row[2] for row in rows]

    def segments(self, send):
        return send

    def exchange(self, send, label: str, sctx: StageContext):
        outcome = self.comp.exchange.exchange(*send, label, sctx)
        return outcome, outcome

    def done_sending(self, send) -> None:
        pass

    def release(self, parsed: _RankParses) -> None:
        pass

    def fresh_tables(self, hints: list[int], *, spooled: bool) -> list[DeviceHashTable] | None:
        # A spooled run counts each rank into a transient table that is
        # dumped as a sorted run, so no partition outlives its stream.
        if spooled:
            return None
        return [DeviceHashTable(capacity_hint=h, seed=self.seed) for h in hints]

    def state_tables(self, state: PipelineState) -> list[DeviceHashTable]:
        return state.tables

    def count(self, recv: ExchangeOutcome, tables, sctx: StageContext, row: str, tally: _Tally) -> None:
        comp, recorder = self.comp, sctx.recorder
        recv_data, recv_lengths = recv.recv_data, recv.recv_lengths

        def _count_one(r: int):
            lengths_r = recv_lengths[r] if recv_lengths is not None else None
            t0 = perf_counter()
            out = comp.substrate.count_rank(r, recv_data[r], lengths_r, tables[r], comp.count, sctx)
            if recorder is not None:
                recorder.record(row, r, t0, perf_counter())
            return [out], tables[r]

        self._fold(self.pool.map(_count_one, range(self.p), recorder=recorder), tables, tally)

    def stream(self, spool: SpillSpool, labels: list[str], tally: _Tally, tables, hints, sctx):
        """Count the spooled partitions one rank at a time, rounds innermost.

        Each rank's stream is private in memory (its own table) and on
        disk (its own partition and run files), so peak residency per
        worker is one rank's partition plus its table.  Without persistent
        ``tables`` the finished partition is dumped as a sorted run for
        :func:`external_merge`; the per-rank ``(entries, load)`` gauges
        are returned.
        """
        comp, recorder = self.comp, sctx.recorder
        n_rounds = len(labels)

        def _stream_one(r: int):
            table = tables[r] if tables is not None else DeviceHashTable(capacity_hint=hints[r], seed=self.seed)
            outcomes = []
            for rnd, label in enumerate(labels):
                recv = spool.read_partition(label, r, np.uint64)
                lengths = spool.read_partition(label, r, np.uint8, lens=True) if self.supermer else None
                t0 = perf_counter()
                outcomes.append(comp.substrate.count_rank(r, recv, lengths, table, comp.count, sctx))
                if recorder is not None:
                    recorder.record("count" + _round_suffix(rnd, n_rounds), r, t0, perf_counter())
                spool.release(recv, lengths)
            for label in labels:
                spool.drop_partitions(label, r)
            if tables is not None:
                return outcomes, table
            t0 = perf_counter()
            values, counts = table.items()
            for plugin in comp.merge.plugins:
                values, counts = plugin.adjust_merge_items(values, counts)
            if values.size > 1 and not np.all(values[1:] > values[:-1]):
                order = np.argsort(values, kind="stable")
                values, counts = values[order], counts[order]
            spool.write_run(r, values, counts)
            if recorder is not None:
                recorder.record("spill:run-write", r, t0, perf_counter())
            return outcomes, (table.n_entries, table.load_factor)

        return self._fold(self.pool.map(_stream_one, range(self.p), recorder=recorder), tables, tally)

    @staticmethod
    def _fold(results, tables, tally: _Tally):
        """Fold per-rank ``(outcomes, table)`` results in (rank, round) order."""
        dumped = []
        for r, (outcomes, table) in enumerate(results):
            for co in outcomes:
                tally.counted(r, [co.time_s], [co.n_instances], [co.insert_stats])
            if tables is not None:
                tables[r] = table
            else:
                dumped.append(table)
        return dumped if tables is None else None

    def merge(self, tables, spool: SpillSpool | None, k: int):
        """The run's spectrum, its wall-row name and per-rank table gauges."""
        if tables is None:  # the stream left one sorted run per rank on disk
            return external_merge([spool.map_run(r) for r in range(self.p)], k), "spill:merge", None
        gauges = [(t.n_entries, t.load_factor) for t in tables]
        return self.comp.merge.merge_tables(tables, k), "merge", gauges


class RoundScheduler:
    """Drives one stage composition through rounds on a rank pool."""

    def __init__(
        self,
        cluster: ClusterSpec,
        config: PipelineConfig,
        composition: StageComposition,
        opts: EngineOptions,
    ) -> None:
        self.cluster = cluster
        self.config = config
        self.comp = composition
        self.opts = opts
        self.comm_model = CommCostModel(cluster)
        # Scratch buffers of the fused layout and the spool, recycled across
        # rounds and batches.
        self.arena = opts.arena if opts.arena is not None else ScratchArena()
        self._prepared = False
        self._announced: set[str] = set()

    # -- shared helpers ------------------------------------------------------

    def _shard(self, reads: ReadSet) -> list[ReadSet]:
        p = self.cluster.n_ranks
        if self.opts.shard_mode == "bytes":
            return reads.shard_bytes(p, overlap=self.config.k - 1)
        return reads.shard(p)

    def _prepare_plugins(self, reads: ReadSet) -> None:
        """One-time plugin pre-pass (first batch for streamed inputs)."""
        if self._prepared:
            return
        self._prepared = True
        for plugin in self.comp.plugins:
            plugin.prepare(reads, self.config, self.cluster, self.opts)

    def _fallback(self, kind: str, reason: str) -> None:
        """Announce an ``engine.<kind>.fallback`` event, once per scheduler."""
        if kind not in self._announced:
            self._announced.add(kind)
            event(f"engine.{kind}.fallback", subsystem="engine", backend=self.comp.backend, reason=reason)

    def _plan(self) -> tuple["StagedLayout | FusedLayout", bool]:
        """Pick the run's layout and whether its partitions spool to disk.

        Each request the composition cannot honour falls back, with an
        event, to a path whose results are identical — never an error:

        * ``spill_dir`` over a custom exchange/merge stage counts in memory
          (``engine.spill.fallback``);
        * ``fused`` over any custom stage uses the staged layout
          (``engine.fused.fallback``);
        * ``table_dir`` under the staged layout keeps the per-rank tables
          resident (``engine.table.fallback``);
        * a process substrate under the staged layout with stateful
          count/merge plugins (the bloom filter mutates inside the count
          closures and is read again at merge time) runs on an equally
          wide thread pool, so the side effects happen in the driving
          process (``engine.process.fallback``).
        """
        comp, opts = self.comp, self.opts
        spool = opts.spill_dir is not None
        if spool and not supports_spill(comp):
            self._fallback("spill", "composition has custom exchange/merge stages; counting in memory")
            spool = False
        if opts.fused:
            if supports_fusion(comp):
                return FusedLayout(self), spool
            then = "spilling via the staged loop" if spool else "using staged path"
            self._fallback("fused", f"composition has custom stages; {then}")
        if opts.table_dir is not None:
            self._fallback(
                "table", "table_dir applies to the fused segmented table; per-rank tables stay resident"
            )
        pool = get_pool(opts.parallel)
        if not pool.in_process and (
            getattr(comp.count, "plugins", ()) or getattr(comp.merge, "plugins", ())
        ):
            self._fallback("process", "composition has stateful plugins; using the thread substrate")
            pool = get_pool(f"thread:{pool.workers}")
        return StagedLayout(self, pool), spool

    def _context(
        self,
        pool,
        stats: TrafficStats,
        recorder: WallClockRecorder | None,
        reg: MetricRegistry | None,
        verify: bool | None = None,
    ) -> StageContext:
        return StageContext(
            config=self.config,
            cluster=self.cluster,
            opts=self.opts,
            backend=self.comp.backend,
            pool=pool,
            comm_model=self.comm_model,
            stats=stats,
            recorder=recorder,
            registry=reg,
            verify=verify,
        )

    # -- the two entry points ------------------------------------------------

    def run(self, reads: ReadSet) -> CountResult:
        """Run the composition over ``reads`` and return its full result.

        When ``opts.telemetry`` is set, the registry is installed as the
        active telemetry session for the duration of the run — every layer
        underneath (collectives, hash tables, kernels, worker pools) feeds
        it — and the scheduler adds its own phase/rank/round metrics plus
        wall-clock metrics afterwards.  Model metrics are bit-identical
        across execution engines; only families registered as wall metrics
        may differ.
        """
        opts = self.opts
        reg = opts.telemetry
        recorder = opts.span_recorder
        if reg is not None and recorder is None:
            recorder = WallClockRecorder()  # wall metrics need spans even if the caller kept none
        self._prepare_plugins(reads)
        event(
            "engine.run.start",
            subsystem="engine",
            backend=self.comp.backend,
            mode=self.config.mode,
            k=self.config.k,
            ranks=self.cluster.n_ranks,
            reads=reads.n_reads,
        )
        layout, spool = self._plan()
        ctx = session(reg) if reg is not None else nullcontext()
        with ctx, recording_region(
            recorder,
            "run",
            cat="run",
            strategy=_STRATEGIES[layout.name, spool],
            backend=self.comp.backend,
            mode=self.config.mode,
            ranks=self.cluster.n_ranks,
        ):
            result = self._drive(reads, layout, spool, recorder, reg)
        if reg is not None:
            _record_run_metrics(reg, result, recorder)
        event(
            "engine.run.done",
            subsystem="engine",
            backend=self.comp.backend,
            total_model_s=round(result.timing.total, 6),
            exchanged_items=result.exchanged_items,
            distinct=result.spectrum.n_distinct,
            rounds=result.n_rounds_used,
        )
        return result

    def run_batch(self, reads: ReadSet, state: PipelineState) -> PhaseTiming:
        """Fold one batch of reads into ``state``; returns the batch timing.

        Single-round by construction (streamed batches are already small);
        the exchange skips the checksum verification pass, matching the
        original incremental counter exactly.  When ``opts.span_recorder``
        is set (``trace=`` / ``--trace``), the batch records a ``batch{n}``
        region with the same stage/work structure as the one-shot run.
        """
        recorder = self.opts.span_recorder
        if reads.offsets.size:
            # Batches are single-round, so the budget cannot split work —
            # but a budget below one received item is invalid everywhere
            # and the streamed surface must report the same floor the
            # one-shot run does.
            wire = (
                self.config.supermer_wire_bytes
                if self.config.mode == "supermer"
                else self.config.kmer_wire_bytes
            )
            _check_host_budget_floor(wire, self.opts.work_multiplier, self.opts)
        with recording_region(
            recorder, f"batch{state.n_batches}", cat="batch", batch=state.n_batches
        ):
            layout, spool = self._plan()
            # Plugins prepare before sharding, exactly as `run` does: a
            # plugin whose `prepare` influences partitioning must see the
            # same state on the streamed path as on the one-shot path.
            self._prepare_plugins(reads)
            return self._drive(reads, layout, spool, recorder, None, state)

    # -- the round driver ----------------------------------------------------

    def _drive(self, reads, layout, spool_on: bool, recorder, reg, state: PipelineState | None = None):
        """Parse, then exchange and count in rounds, then merge (Algorithm 1).

        A one-shot run (``state is None``) counts into fresh tables, sizes
        its rounds to the memory budgets, labels each exchange by round,
        verifies it, feeds ``reg`` and merges into a :class:`CountResult`.
        A streamed batch counts one round into ``state``'s tables,
        unverified, and returns its :class:`PhaseTiming`.

        With the spool sink every round's partitions go to disk first; the
        parse output is released before they stream back into the tables.
        """
        comp, config, opts = self.comp, self.config, self.opts
        p = self.cluster.n_ranks
        once = state is None
        stats = TrafficStats() if once else state.traffic
        sctx = self._context(layout.pool, stats, recorder, reg, verify=None if once else False)
        spool = SpillSpool(Path(opts.spill_dir), arena=self.arena) if spool_on else None
        try:
            # ---- phase 1: parse (& build supermers) on every rank's shard ----
            shards = self._shard(reads)
            with recording_region(recorder, "parse", cat="stage"):
                parsed = layout.parse(shards, sctx)
            per_rank_parse = parsed.times
            total_kmers = int(parsed.n_kmers.sum())
            n_supermers = int(np.sum(parsed.n_supermers))
            supermer_bases = int(np.sum(parsed.supermer_bases))
            hints = [max(64, int(nk) // max(p, 1) + 16) for nk in parsed.n_kmers]
            n_rounds = 1
            if once:
                recv_items = parsed.counts_matrix.sum(axis=0).astype(np.float64)
                n_rounds = max(
                    config.n_rounds,
                    _rounds_for_recv_items(recv_items, sctx.wire_bytes, sctx.mult, opts, comp.backend),
                )

            def acquire_tables():
                if once:
                    return layout.fresh_tables(hints, spooled=spool is not None)
                return layout.state_tables(state)

            # ---- phases 2+3: exchange (or spool) and count, in rounds ----
            tables = acquire_tables() if spool is None else None
            tally = _Tally(p)
            labels = []
            for rnd in range(n_rounds):
                suffix = _round_suffix(rnd, n_rounds)
                labels.append(
                    f"{config.mode}-exchange{suffix}" if once else f"{config.mode}-batch{state.n_batches}"
                )
                meta = {"round": rnd} if once else {}
                region = (
                    recording_region(recorder, f"round{rnd}", cat="round", round=rnd)
                    if once
                    else nullcontext()
                )
                with region:
                    self._round(layout, parsed, rnd, n_rounds, labels[-1], meta, spool, tables, sctx, tally)

            # The send buffers are consumed: free them before the spool
            # streams back, so peak residency is one rank (block) + tables.
            layout.release(parsed)
            del parsed
            gauges = None
            if spool is not None:
                tables = acquire_tables()
                with recording_region(recorder, "count", cat="stage"):
                    gauges = layout.stream(spool, labels, tally, tables, hints, sctx)

            t_parse = float(per_rank_parse.max()) if p else 0.0
            t_count = float(tally.per_rank_count.max()) if p else 0.0
            if not once:
                batch_timing = PhaseTiming(parse=t_parse, exchange=tally.exchange_s, count=t_count)
                state.timing = state.timing.add(batch_timing)
                state.received_kmers += tally.received
                state.insert_stats = state.insert_stats.combined(tally.insert)
                state.exchanged_items += int(tally.counts_matrix.sum())
                state.n_batches += 1
                return batch_timing

            # ---- phase 4: merge the partitioned global table into one spectrum ----
            with recording_region(recorder, "merge", cat="stage"):
                t0 = perf_counter()
                spectrum, row, table_gauges = layout.merge(tables, spool, config.k)
                if recorder is not None:
                    recorder.record(row, 0, t0, perf_counter())
            gauges = table_gauges if gauges is None else gauges
            if comp.conserves_kmers and spectrum.n_total != total_kmers:
                raise AssertionError(f"pipeline lost k-mers: parsed {total_kmers}, counted {spectrum.n_total}")
        except BaseException:
            if spool is not None:
                spool.close(failed=True)
            raise
        finally:
            if spool is not None:
                spool.close()

        exchanged_items = int(tally.counts_matrix.sum())
        if reg is not None:
            backend = comp.backend
            # Recorded here (not in the hash table) because only the engine knows
            # the rank index; plain Gauge.set is safe from this ordered loop.
            for r, (entries, load) in enumerate(gauges):
                reg.gauge("hashtable_entries", "Distinct keys per rank partition", rank=r).set(entries)
                reg.gauge("hashtable_load_factor", "Final load factor per rank", rank=r).set(load)
            reg.counter("kmers_parsed_total", "k-mer instances parsed", engine=backend).inc(total_kmers)
            if n_supermers:
                reg.counter("supermers_total", "Supermers built", engine=backend).inc(n_supermers)
                reg.counter("supermer_bases_total", "Bases covered by supermers", engine=backend).inc(
                    supermer_bases
                )
        return CountResult(
            config=config,
            cluster=self.cluster,
            backend=comp.backend,
            spectrum=spectrum,
            timing=PhaseTiming(parse=t_parse, exchange=tally.exchange_s, count=t_count),
            per_rank_parse=per_rank_parse,
            per_rank_count=tally.per_rank_count,
            received_kmers=tally.received,
            exchanged_items=exchanged_items,
            exchanged_bytes=int(exchanged_items * sctx.wire_bytes),
            counts_matrix=tally.counts_matrix,
            work_multiplier=sctx.mult,
            traffic=stats,
            insert_stats=tally.insert,
            mean_supermer_length=(supermer_bases / n_supermers) if n_supermers else 0.0,
            staging_seconds=tally.staging_s,
            alltoallv_seconds=tally.alltoallv_s,
            link_seconds=tuple(tally.link_totals.items()),
            n_rounds_used=n_rounds,
        )

    def _round(self, layout, parsed, rnd, n_rounds, label, meta, spool, tables, sctx, tally) -> None:
        """Route round ``rnd``'s slice of every send buffer, then count or spool it."""
        recorder = sctx.recorder
        suffix = _round_suffix(rnd, n_rounds)
        send = layout.round_send(parsed, rnd, n_rounds)
        n_traffic_before = len(sctx.stats.records)
        with recording_region(recorder, "exchange", cat="stage", **meta) as ereg:
            t0 = perf_counter()
            if spool is None:
                outcome, recv = layout.exchange(send, label, sctx)
                row = layout.prefix + "exchange"
            else:
                outcome, recv = SpillExchange(spool).exchange(*layout.segments(send), label, sctx), None
                row = "spill:spool"
            if recorder is not None:
                recorder.record(row + suffix, 0, t0, perf_counter())
            if ereg is not None:
                # Causal link: the traffic records this collective appended.
                ereg.note(
                    label=label,
                    traffic_records=[n_traffic_before, len(sctx.stats.records)],
                    items=int(outcome.counts_matrix.sum()),
                    model_seconds=outcome.seconds,
                    link_seconds=dict(outcome.link_seconds),
                )
        layout.done_sending(send)
        tally.exchanged(outcome, rnd, sctx.registry, self.comp.backend)
        if recv is not None:
            with recording_region(recorder, "count", cat="stage", **meta):
                layout.count(recv, tables, sctx, layout.prefix + "count" + suffix, tally)


def _round_suffix(rnd: int, n_rounds: int) -> str:
    """The ``-round{rnd}`` suffix of labels and wall rows in multi-round runs."""
    return f"-round{rnd}" if n_rounds > 1 else ""



def _record_run_metrics(
    reg: MetricRegistry, result: CountResult, recorder: WallClockRecorder | None
) -> None:
    """Engine-level metrics derived from the finished result.

    Everything here is computed from the deterministic result payload (so
    sequential and parallel engines record identical values), except the
    ``wall=True`` families, which come from host wall-clock spans.
    """
    backend = result.backend
    t = result.timing
    for phase, secs in (("parse", t.parse), ("exchange", t.exchange), ("count", t.count)):
        reg.counter(
            "phase_model_seconds_total",
            "Bulk-synchronous phase time (max over ranks)",
            engine=backend,
            phase=phase,
        ).inc(secs)
    for r in range(result.cluster.n_ranks):
        reg.gauge(
            "rank_phase_model_seconds", "Per-rank modeled phase seconds", engine=backend, phase="parse", rank=r
        ).set(float(result.per_rank_parse[r]))
        reg.gauge(
            "rank_phase_model_seconds", "Per-rank modeled phase seconds", engine=backend, phase="count", rank=r
        ).set(float(result.per_rank_count[r]))
        reg.gauge("rank_received_kmers", "k-mer instances counted per rank", rank=r).set(
            int(result.received_kmers[r])
        )
    loads = result.load_stats()
    reg.gauge("load_imbalance", "max/mean received k-mers (Table III)", engine=backend).set(loads.imbalance)
    reg.counter("exchange_items_total", "Items routed through the exchange", engine=backend).inc(
        result.exchanged_items
    )
    reg.counter("exchange_bytes_total", "Wire bytes at measured scale", engine=backend).inc(
        result.exchanged_bytes
    )
    if recorder is not None and len(recorder):
        for name in recorder.phases():
            reg.counter(
                "wall_phase_seconds_total", "Host wall-clock rank-seconds per phase", wall=True, phase=name
            ).inc(recorder.busy_seconds(name))
        reg.gauge("wall_busy_seconds", "Total host rank-seconds", wall=True).set(recorder.busy_seconds())
        reg.gauge("wall_elapsed_seconds", "Host wall window of the run", wall=True).set(
            recorder.elapsed_seconds()
        )
        reg.gauge("wall_overlap_factor", "Achieved rank concurrency", wall=True).set(
            recorder.overlap_factor()
        )


def _round_slice(pr: RankParse, rnd: int, n_rounds: int) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Slice a rank's destination-ordered buffer for round ``rnd``.

    Each destination segment is split evenly across rounds (Section III-A:
    when the data exceeds memory limits "the computation and communication
    may proceed in multiple rounds").  Preserves destination order within
    the round.
    """
    if n_rounds == 1:
        return pr.data, pr.lengths, pr.counts
    p = pr.counts.shape[0]
    offsets = np.concatenate(([0], np.cumsum(pr.counts)))
    pieces: list[np.ndarray] = []
    lpieces: list[np.ndarray] = []
    counts = np.zeros(p, dtype=np.int64)
    for dst in range(p):
        seg_start, seg_end = offsets[dst], offsets[dst + 1]
        seg_len = seg_end - seg_start
        lo = seg_start + (seg_len * rnd) // n_rounds
        hi = seg_start + (seg_len * (rnd + 1)) // n_rounds
        counts[dst] = hi - lo
        pieces.append(pr.data[lo:hi])
        if pr.lengths is not None:
            lpieces.append(pr.lengths[lo:hi])
    data = np.concatenate(pieces) if pieces else pr.data[:0]
    lengths = (np.concatenate(lpieces) if lpieces else None) if pr.lengths is not None else None
    return data, lengths, counts


def _rounds_for_recv_items(
    recv_items: np.ndarray, wire: int, mult: float, opts: EngineOptions, backend: str
) -> int:
    """Rounds needed so every rank's round working set fits its memory budgets.

    Models Section III-A: "Depending on the total size of the input,
    relative to software limits (approximating available memory), the
    computation and communication may proceed in multiple rounds."
    ``recv_items`` are the per-rank received-item totals (the counts
    matrix's column sums, exact in float64 below 2**53), evaluated at
    full (multiplied) scale.  Two independent
    budgets apply: the modeled device-HBM budget (``auto_rounds``, GPU
    substrate only, as before) and the *host* budget
    (``opts.host_memory_budget``, any substrate), which bounds one round's
    per-rank host working set: the received partition, its extraction
    copy, and the table growth it can cause.
    """
    worst = float(recv_items.max(initial=0.0)) * mult
    rounds = 1
    if opts.auto_rounds and backend == "gpu":
        # Wire buffer + staged copy + table entries (16 B/slot at ~0.7 load).
        bytes_per_item = wire * 2 + 16 / 0.7
        budget = opts.device.hbm_bytes * opts.memory_budget_fraction
        rounds = max(rounds, int(np.ceil(worst * bytes_per_item / budget)))
    if opts.host_memory_budget is not None:
        # Host-side working set per item: the partition buffer and its
        # extraction copy, the unpacked 8-byte key stream, and the table
        # slots (16 B each at ~0.7 target load) the round may add.
        host_bytes_per_item = wire * 2 + 8.0 + 16 / 0.7
        if worst > 0:
            _check_host_budget_floor(wire, mult, opts)
        rounds = max(rounds, int(np.ceil(worst * host_bytes_per_item / opts.host_memory_budget)))
    return rounds


def _check_host_budget_floor(wire: int, mult: float, opts: EngineOptions) -> None:
    """Reject a host budget smaller than one received item's working set.

    Rounds cannot shrink the per-round set below one item per rank, so a
    sub-item budget would just degenerate into floods of zero-item
    rounds.  The floor is config-derived (wire size and multiplier, no
    data needed), so the streamed batch path validates it up front even
    though batches are single-round by construction.
    """
    if opts.host_memory_budget is None:
        return
    host_bytes_per_item = wire * 2 + 8.0 + 16 / 0.7
    floor = int(np.ceil(host_bytes_per_item * mult))
    if opts.host_memory_budget < floor:
        raise ValueError(
            f"host_memory_budget={opts.host_memory_budget} is below the working-set "
            f"floor of one received item: {floor} bytes "
            f"({host_bytes_per_item:.1f} B/item at work_multiplier {mult:g})"
        )
