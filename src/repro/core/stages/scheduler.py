"""The round scheduler: memory-bounded multi-round execution of a composition.

This is the single owner of the parse → exchange → count → merge loop.
Every execution surface drives it:

* :func:`repro.core.engine.run_pipeline` builds a composition and calls
  :meth:`RoundScheduler.run` (one-shot run, full :class:`CountResult`);
* :class:`repro.core.incremental.DistributedCounter` holds a
  :class:`PipelineState` and calls :meth:`RoundScheduler.run_batch` per
  read batch (streaming, checkpointable);
* the SPMD rank programs (:mod:`repro.core.stages.spmd`) reuse the same
  stage objects inside per-rank threads.

Execution is bulk-synchronous: every rank's phase runs to completion (as
real NumPy work), per-rank model times are derived from the work actually
performed, and the phase's bulk time is the max over ranks.  When the
modeled per-round working set exceeds device memory (``auto_rounds``), or
the config asks for ``n_rounds > 1``, each destination segment is split
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

from ...gpu.hashtable import DeviceHashTable, InsertStats
from ...dna.reads import ReadSet
from ...mpi.costmodel import CommCostModel
from ...mpi.stats import CollectiveRecord, TrafficStats
from ...mpi.topology import ClusterSpec
from ...telemetry import MetricRegistry, event, session
from ..config import PipelineConfig
from ..parallel import get_pool
from ..results import CountResult, PhaseTiming
from ..tracing import WallClockRecorder, recording_region
from .buffers import RankParse, add_link_seconds
from .context import EngineOptions, StageContext
from .registry import StageComposition

__all__ = ["RoundScheduler", "PipelineState"]

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
    # Set by the fused engine on first use: the SegmentedHashTable whose
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
        self._prepared = False
        self._fused_impl = None
        self._fused_checked = False
        self._spill_impl = None
        self._spill_checked = False
        self._process_fallback_announced = False

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

    def _fused(self):
        """The fused pipeline for this scheduler, or ``None`` (staged path).

        Resolved once: ``opts.fused`` (or ``REPRO_FUSED``) must be on AND the
        composition must consist of the standard stage types the fused path
        re-implements.  A fused request over a custom composition falls back
        to the staged scheduler with an event, never an error — results are
        identical either way.
        """
        if not self._fused_checked:
            self._fused_checked = True
            from .fused import FusedPipeline, resolve_fused, supports_fusion

            if resolve_fused(self.opts.fused):
                if supports_fusion(self.comp):
                    self._fused_impl = FusedPipeline(self)
                else:
                    event(
                        "engine.fused.fallback",
                        subsystem="engine",
                        backend=self.comp.backend,
                        reason="composition has custom stages; using staged path",
                    )
        return self._fused_impl

    def _spill(self):
        """The out-of-core pipeline for this scheduler, or ``None``.

        Resolved once: ``opts.spill_dir`` must be set AND the composition's
        exchange/merge must be the standard classes whose semantics the
        spill path mirrors (:func:`repro.core.stages.spill.supports_spill`).
        A simultaneous fused request selects the blocked fused×spill
        composition when every stage is the standard fusable type;
        otherwise the staged spill loop runs (with the usual fused-fallback
        event).  A spill request over a custom exchange/merge composition
        falls back to the in-memory scheduler with an event, never an
        error.  Results are identical on every path.
        """
        if not self._spill_checked:
            self._spill_checked = True
            if self.opts.spill_dir is not None:
                from .fused import resolve_fused, supports_fusion
                from .spill import FusedSpillPipeline, SpillPipeline, supports_spill

                fused_on = resolve_fused(self.opts.fused)
                if not supports_spill(self.comp):
                    event(
                        "engine.spill.fallback",
                        subsystem="engine",
                        backend=self.comp.backend,
                        reason="composition has custom exchange/merge stages; counting in memory",
                    )
                elif fused_on and supports_fusion(self.comp):
                    self._spill_impl = FusedSpillPipeline(self)
                else:
                    if fused_on:
                        event(
                            "engine.fused.fallback",
                            subsystem="engine",
                            backend=self.comp.backend,
                            reason="composition has custom stages; spilling via the staged loop",
                        )
                    self._spill_impl = SpillPipeline(self)
        return self._spill_impl

    def _pool(self):
        """The resolved execution substrate for this scheduler's runs.

        Compositions with stateful count/merge plugins (e.g. the bloom
        prefilter, whose filter state mutates inside the per-rank count
        closures and is read again at merge time) need those side effects
        to happen in the driving process, so a process substrate falls
        back to an equally wide thread pool with an event.  Results are
        bit-identical either way — the thread pool honours the same
        determinism contract — only the execution placement changes.
        """
        pool = get_pool(self.opts.parallel)
        if not pool.in_process and (
            getattr(self.comp.count, "plugins", ()) or getattr(self.comp.merge, "plugins", ())
        ):
            if not self._process_fallback_announced:
                self._process_fallback_announced = True
                event(
                    "engine.process.fallback",
                    subsystem="engine",
                    backend=self.comp.backend,
                    reason="composition has stateful plugins; using the thread substrate",
                )
            pool = get_pool(f"thread:{pool.workers}")
        return pool

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

    # -- one-shot run (the classic engine surface) ---------------------------

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
        spill = self._spill()
        strategy = (
            spill.strategy
            if spill is not None
            else ("fused" if self._fused() is not None else "staged")
        )
        if opts.table_dir is not None and strategy in ("staged", "spill"):
            # The mmap-backed table is a SegmentedHashTable feature; the
            # per-rank DeviceHashTables of these strategies stay resident.
            event(
                "engine.table.fallback",
                subsystem="engine",
                backend=self.comp.backend,
                reason="table_dir applies to the fused segmented table; per-rank tables stay resident",
            )
        ctx = session(reg) if reg is not None else nullcontext()
        with ctx, recording_region(
            recorder,
            "run",
            cat="run",
            strategy=strategy,
            backend=self.comp.backend,
            mode=self.config.mode,
            ranks=self.cluster.n_ranks,
        ):
            result = self._run_once(reads, recorder, reg)
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

    def _run_once(
        self, reads: ReadSet, recorder: WallClockRecorder | None, reg: MetricRegistry | None
    ) -> CountResult:
        spill = self._spill()
        if spill is not None:
            return spill.run_once(reads, recorder, reg)
        fused = self._fused()
        if fused is not None:
            return fused.run_once(reads, recorder, reg)
        comp = self.comp
        config = self.config
        opts = self.opts
        p = self.cluster.n_ranks
        mult = opts.work_multiplier
        stats = TrafficStats()
        pool = self._pool()
        sctx = self._context(pool, stats, recorder, reg)

        # ---- input partitioning (the paper's parallel I/O; Section IV-D) ----
        shards = self._shard(reads)

        # ---- phase 1: parse (& build supermers) per rank ----
        # Each rank's parse touches only its own shard and builds rank-private
        # outputs, so the pool may run ranks concurrently; results come back in
        # rank order and are bit-identical to the sequential loop.
        def _parse_one(r: int) -> RankParse:
            t0 = perf_counter()
            out = comp.substrate.parse_rank(shards[r], comp.parse, comp.partition, sctx)
            if recorder is not None:
                recorder.record("parse", r, t0, perf_counter())
            return out

        with recording_region(recorder, "parse", cat="stage"):
            parsed: list[RankParse] = pool.map(_parse_one, range(p), recorder=recorder)
        t_parse = max(pr.time_s for pr in parsed)
        total_parsed_kmers = sum(pr.n_kmers_parsed for pr in parsed)

        # ---- phases 2+3: exchange and count, possibly in multiple rounds ----
        wire = sctx.wire_bytes
        supermer_mode = sctx.supermer_mode
        n_rounds = max(config.n_rounds, _rounds_for_memory(parsed, p, wire, mult, opts, comp.backend))
        tables = [
            DeviceHashTable(
                capacity_hint=max(64, pr.n_kmers_parsed // max(p, 1) + 16), seed=config.table_seed
            )
            for pr in parsed
        ]
        received_kmers = np.zeros(p, dtype=np.int64)
        per_rank_count = np.zeros(p, dtype=np.float64)
        t_exchange = 0.0
        t_alltoallv = 0.0
        staging_total = 0.0
        link_totals: dict[str, float] = {}
        counts_matrix_total = np.zeros((p, p), dtype=np.int64)
        insert_total = InsertStats.zero()

        for rnd in range(n_rounds):
            with recording_region(recorder, f"round{rnd}", cat="round", round=rnd):
                round_send = [_round_slice(pr, rnd, n_rounds) for pr in parsed]
                send_data = [rs[0] for rs in round_send]
                send_lengths = [rs[1] for rs in round_send] if supermer_mode else None
                send_counts = [rs[2] for rs in round_send]
                label = f"{config.mode}-exchange" + (f"-round{rnd}" if n_rounds > 1 else "")
                exch_name = "exchange" + (f"-round{rnd}" if n_rounds > 1 else "")
                n_traffic_before = len(stats.records)
                with recording_region(recorder, "exchange", cat="stage", round=rnd) as ereg:
                    t0x = perf_counter()
                    outcome = comp.exchange.exchange(send_data, send_lengths, send_counts, label, sctx)
                    if recorder is not None:
                        recorder.record(exch_name, 0, t0x, perf_counter())
                    if ereg is not None:
                        # Causal link: the traffic records this collective appended.
                        ereg.note(
                            label=label,
                            traffic_records=[n_traffic_before, len(stats.records)],
                            items=int(outcome.counts_matrix.sum()),
                            model_seconds=outcome.seconds,
                            link_seconds=dict(outcome.link_seconds),
                        )
                counts_matrix_total += outcome.counts_matrix
                t_exchange += outcome.seconds
                t_alltoallv += outcome.alltoallv_seconds
                staging_total += outcome.staging_seconds
                add_link_seconds(link_totals, outcome.link_seconds)
                if reg is not None:
                    backend = comp.backend
                    reg.counter("exchange_rounds_total", "Exchange/count rounds executed", engine=backend).inc()
                    reg.counter(
                        "exchange_model_seconds_total",
                        "Modeled exchange seconds (overhead + network + staging)",
                        engine=backend,
                        round=rnd,
                    ).inc(outcome.seconds)
                    reg.counter(
                        "alltoallv_model_seconds_total",
                        "Modeled MPI_Alltoallv routine seconds",
                        engine=backend,
                        round=rnd,
                    ).inc(outcome.alltoallv_seconds)
                    reg.counter(
                        "staging_model_seconds_total",
                        "Modeled host<->device staging seconds",
                        engine=backend,
                        round=rnd,
                    ).inc(outcome.staging_seconds)
                    reg.counter(
                        "exchange_items_round_total",
                        "Items exchanged per round",
                        engine=backend,
                        round=rnd,
                    ).inc(int(outcome.counts_matrix.sum()))

                # ---- count phase ----
                # Rank r's count touches only recv_data[r] and its own table
                # partition, so ranks run concurrently; the stats reduction below
                # stays in rank order (pool.map returns results in input order) so
                # the combined InsertStats is identical to the sequential engine's.
                # The closure returns the table alongside the outcome: an
                # out-of-process worker mutates a copy-on-write clone, so the
                # grown table must travel back (a no-op reassignment in-process).
                count_label = "count" + (f"-round{rnd}" if n_rounds > 1 else "")
                recv_data, recv_lengths = outcome.recv_data, outcome.recv_lengths

                def _count_one(r: int):
                    lengths_r = recv_lengths[r] if recv_lengths is not None else None
                    t0 = perf_counter()
                    out = comp.substrate.count_rank(r, recv_data[r], lengths_r, tables[r], comp.count, sctx)
                    if recorder is not None:
                        recorder.record(count_label, r, t0, perf_counter())
                    return out, tables[r]

                with recording_region(recorder, "count", cat="stage", round=rnd):
                    counted = pool.map(_count_one, range(p), recorder=recorder)
                for r, (co, table) in enumerate(counted):
                    tables[r] = table
                    per_rank_count[r] += co.time_s
                    received_kmers[r] += co.n_instances
                    insert_total = insert_total.combined(co.insert_stats)

        t_count = float(per_rank_count.max()) if p else 0.0

        # ---- merge the partitioned global table into one spectrum ----
        with recording_region(recorder, "merge", cat="stage"):
            t0m = perf_counter()
            spectrum = comp.merge.merge_tables(tables, config.k)
            if recorder is not None:
                recorder.record("merge", 0, t0m, perf_counter())
        if comp.conserves_kmers and spectrum.n_total != total_parsed_kmers:
            raise AssertionError(
                f"pipeline lost k-mers: parsed {total_parsed_kmers}, counted {spectrum.n_total}"
            )

        exchanged_items = int(counts_matrix_total.sum())
        supermer_bases = sum(pr.supermer_bases for pr in parsed)
        n_supermers = sum(pr.n_supermers for pr in parsed)
        if reg is not None:
            backend = comp.backend
            # Recorded here (not in the hash table) because only the engine knows
            # the rank index; plain Gauge.set is safe from this ordered loop.
            for r, table in enumerate(tables):
                reg.gauge("hashtable_entries", "Distinct keys per rank partition", rank=r).set(
                    table.n_entries
                )
                reg.gauge("hashtable_load_factor", "Final load factor per rank", rank=r).set(
                    table.load_factor
                )
            reg.counter("kmers_parsed_total", "k-mer instances parsed", engine=backend).inc(
                total_parsed_kmers
            )
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
            timing=PhaseTiming(parse=t_parse, exchange=t_exchange, count=t_count),
            per_rank_parse=np.array([pr.time_s for pr in parsed]),
            per_rank_count=per_rank_count,
            received_kmers=received_kmers,
            exchanged_items=exchanged_items,
            exchanged_bytes=int(exchanged_items * wire),
            counts_matrix=counts_matrix_total,
            work_multiplier=mult,
            traffic=stats,
            insert_stats=insert_total,
            mean_supermer_length=(supermer_bases / n_supermers) if n_supermers else 0.0,
            staging_seconds=staging_total,
            alltoallv_seconds=t_alltoallv,
            link_seconds=tuple(link_totals.items()),
            n_rounds_used=n_rounds,
        )

    # -- streamed batches (the incremental counter surface) ------------------

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
            spill = self._spill()
            if spill is not None:
                return spill.run_batch(reads, state)
            fused = self._fused()
            if fused is not None:
                return fused.run_batch(reads, state)
            return self._run_batch_staged(reads, state, recorder)

    def _run_batch_staged(
        self, reads: ReadSet, state: PipelineState, recorder: WallClockRecorder | None
    ) -> PhaseTiming:
        comp = self.comp
        config = self.config
        p = self.cluster.n_ranks
        pool = self._pool()
        sctx = self._context(pool, state.traffic, recorder, None, verify=False)

        # Plugins prepare before sharding, exactly as `run` does: a plugin
        # whose `prepare` influences partitioning must see the same state on
        # the streamed path as on the one-shot path.
        self._prepare_plugins(reads)
        shards = self._shard(reads)

        # Same parallel rank-execution contract as the one-shot run: pool.map
        # keeps rank order, each closure touches rank-private state only,
        # so batches fold in bit-identically to the sequential loop.
        def _parse_one(r: int) -> RankParse:
            t0 = perf_counter()
            out = comp.substrate.parse_rank(shards[r], comp.parse, comp.partition, sctx)
            if recorder is not None:
                recorder.record("parse", r, t0, perf_counter())
            return out

        with recording_region(recorder, "parse", cat="stage"):
            parsed = pool.map(_parse_one, range(p), recorder=recorder)
        t_parse = max(pr.time_s for pr in parsed)

        supermer_mode = sctx.supermer_mode
        label = f"{config.mode}-batch{state.n_batches}"
        n_traffic_before = len(state.traffic.records)
        with recording_region(recorder, "exchange", cat="stage") as ereg:
            t0x = perf_counter()
            outcome = comp.exchange.exchange(
                [pr.data for pr in parsed],
                [pr.lengths for pr in parsed] if supermer_mode else None,
                [pr.counts for pr in parsed],
                label,
                sctx,
            )
            if recorder is not None:
                recorder.record("exchange", 0, t0x, perf_counter())
            if ereg is not None:
                ereg.note(
                    label=label,
                    traffic_records=[n_traffic_before, len(state.traffic.records)],
                    items=int(outcome.counts_matrix.sum()),
                    model_seconds=outcome.seconds,
                )
        recv_data, recv_lengths = outcome.recv_data, outcome.recv_lengths

        # As in the one-shot run: the mutated table partition travels back
        # with the outcome so out-of-process workers fold in correctly.
        def _count_one(r: int):
            lengths_r = recv_lengths[r] if recv_lengths is not None else None
            t0 = perf_counter()
            out = comp.substrate.count_rank(r, recv_data[r], lengths_r, state.tables[r], comp.count, sctx)
            if recorder is not None:
                recorder.record("count", r, t0, perf_counter())
            return out, state.tables[r]

        per_rank_count = np.zeros(p, dtype=np.float64)
        with recording_region(recorder, "count", cat="stage"):
            counted = pool.map(_count_one, range(p), recorder=recorder)
        for r, (co, table) in enumerate(counted):
            state.tables[r] = table
            per_rank_count[r] = co.time_s
            state.received_kmers[r] += co.n_instances
            state.insert_stats = state.insert_stats.combined(co.insert_stats)
        batch_timing = PhaseTiming(
            parse=t_parse, exchange=outcome.seconds, count=float(per_rank_count.max()) if p else 0.0
        )
        state.timing = state.timing.add(batch_timing)
        state.exchanged_items += int(outcome.counts_matrix.sum())
        state.n_batches += 1
        return batch_timing


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


def _rounds_for_memory(
    parsed: list[RankParse], p: int, wire: int, mult: float, opts: EngineOptions, backend: str
) -> int:
    """Rounds needed so every rank's round working set fits its memory budgets.

    Models Section III-A: "Depending on the total size of the input,
    relative to software limits (approximating available memory), the
    computation and communication may proceed in multiple rounds."  The
    per-rank working set of one round is its received wire buffer plus the
    growing hash table (keys + counts per distinct key, bounded by received
    instances), evaluated at full (multiplied) scale.
    """
    recv_items = np.zeros(p, dtype=np.float64)
    for pr in parsed:
        recv_items += pr.counts
    return _rounds_for_recv_items(recv_items, wire, mult, opts, backend)


def _rounds_for_recv_items(
    recv_items: np.ndarray, wire: int, mult: float, opts: EngineOptions, backend: str
) -> int:
    """Core of :func:`_rounds_for_memory` on per-rank received-item totals.

    Shared by every execution path — the fused engine derives
    ``recv_items`` from the counts-matrix column sums (the same values,
    exactly, since the int64 column sums convert to float64 losslessly
    below 2**53), and the spill path calls it with the staged inputs — so
    ``n_rounds_used`` is bit-identical across paths.  Two independent
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
