"""Out-of-core execution tier: spill-to-disk exchange + external merge.

Every other execution path holds the whole run in RAM — the parsed send
buffers, every rank's received buffer, and all P hash-table partitions
live simultaneously, which caps the dataset registry at tiny scales.
Gerbil-style two-phase counting (PAPERS.md) splits that: phase one hashes
reads into minimizer-keyed temporary partition files, phase two counts
one partition at a time.  We already partition by minimizer shard, so
this module adds the missing pieces:

* :class:`SpillExchange` — a sibling of
  :class:`~repro.core.stages.standard.AlltoallvExchange` that writes each
  round's destination-ordered send segments to one partition file per
  (destination rank, round) in a spool directory, instead of materializing
  in-memory receive buffers.  Byte/item traffic accounting and the modeled
  exchange time are computed through the identical code paths, so every
  model observable matches the in-memory exchange bit for bit; the
  returned receive "buffers" are read-only memory maps of the partition
  files.

* :class:`SpillPipeline` — the staged out-of-core run loop bound to a
  :class:`~repro.core.stages.scheduler.RoundScheduler`.  The one-shot run
  spools all rounds first, then streams the count phase one rank at a
  time: rank r's partitions are read back round by round into the
  standard count stage, the finished table partition is dumped as a
  sorted ``(key, count)`` run file, and the table is freed before rank
  r+1 starts.  The final spectrum is produced by an external k-way merge
  of the sorted runs (a heap orders the run cursors, cf. the ``heapq``
  idiom in :mod:`repro.ext.balanced`), so peak residency is one rank's
  partition + table, not P of them.

* :class:`FusedSpillPipeline` — the blocked fused×spill composition
  (``fused=True`` + ``spill_dir``).  The fused superstep's rank-segmented
  flat send buffer is spooled through the same :class:`SpillExchange`
  (per-source views of the flat array are exactly the per-rank buffers
  the staged exchange sees), then partitions stream back into a
  :class:`~repro.gpu.segmented.SegmentedHashTable` one consecutive
  *rank block* at a time (:data:`FUSED_SPILL_BLOCK_BYTES` per block), so
  neither the whole-cluster receive buffer nor P resident per-rank
  tables are ever live at once.  With ``EngineOptions(table_dir=)`` the
  segmented table itself is file-backed, lifting the last RAM ceiling.

All partition/run I/O is buffered and coalesced: each destination's
segments are gathered into one :class:`~repro.core.memory.ScratchArena`
buffer and written with a single call (P writes per round, not P²), and
partitions are read back with readahead-sized ``readinto`` calls into
recycled arena buffers instead of page-faulting memory maps.

Bit-identity contract: spectrum, timing floats, per-rank model times,
traffic records, counts matrices, and InsertStats all equal the in-memory
staged path's (``tests/test_spill.py`` enforces it, and
``benchmarks/bench_guard.py`` gates it in CI).  Only ``wall=True``
telemetry families (``spill_*``) differ.  Compositions with custom
exchange/merge stages fall back to the in-memory scheduler with an
``engine.spill.fallback`` event, never an error.
"""

from __future__ import annotations

import heapq
import shutil
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from ...gpu.hashtable import DeviceHashTable, InsertStats
from ...gpu.segmented import SegmentedHashTable
from ...kmers.spectrum import KmerSpectrum
from ...mpi.stats import TrafficStats
from ...telemetry import active, event
from ..memory import ScratchArena
from ..results import CountResult, PhaseTiming
from ..tracing import recording_region
from .buffers import ExchangeOutcome, RankParse, add_link_seconds
from .fused import FusedPipeline
from .registry import StageComposition
from .standard import (
    AlltoallvExchange,
    SpectrumMerge,
    exchange_time_model,
    sum_by_key,
    verify_exchange,
)

__all__ = [
    "FusedSpillPipeline",
    "SpillExchange",
    "SpillPipeline",
    "SpillSpool",
    "external_merge",
    "supports_spill",
]

#: Keys loaded from each sorted run per refill during the external merge.
MERGE_BLOCK_KEYS = 1 << 16

#: Target bytes of spooled partition data streamed back per rank block in
#: the fused×spill count phase.  One block's receive buffer (plus its
#: extraction copy) is the path's peak transient; 16 MiB keeps it cache-
#: friendly while amortizing the per-read syscall cost.
FUSED_SPILL_BLOCK_BYTES = 1 << 24


def supports_spill(comp: StageComposition) -> bool:
    """Whether the composition can run out of core.

    The spill path substitutes the exchange (partition files for receive
    buffers) and the merge (external k-way merge for the in-memory
    sort), so both must be the standard classes whose semantics
    it reproduces.  Parse, partition, count, and substrate are driven
    through their ordinary seams and may be anything; plugins act through
    the standard hooks, which the spill path honours.
    """
    return type(comp.exchange) is AlltoallvExchange and type(comp.merge) is SpectrumMerge


def _record_comm_telemetry(p: int) -> None:
    """The collective-layer model counters one alltoallv emits."""
    reg = active()
    if reg is not None:
        reg.counter("comm_alltoallv_calls_total", "alltoallv_segments invocations").inc()
        reg.counter("comm_messages_total", "Rank-to-rank messages carried by collectives").inc(
            max(p * (p - 1), 0)
        )


def _spill_counter(name: str, desc: str, amount: int) -> None:
    reg = active()
    if reg is not None:
        reg.counter(name, desc, wall=True).inc(amount)


def _rank_blocks(weights: np.ndarray, target: int) -> list[tuple[int, int]]:
    """Consecutive rank ranges whose summed weights stay near ``target``.

    Every block holds at least one rank (a single oversized rank still
    gets its own block), so the blocks partition ``range(p)`` exactly.
    """
    p = int(weights.shape[0])
    blocks: list[tuple[int, int]] = []
    s = 0
    while s < p:
        e = s + 1
        acc = int(weights[s])
        while e < p and acc + int(weights[e]) <= target:
            acc += int(weights[e])
            e += 1
        blocks.append((s, e))
        s = e
    return blocks


class SpillSpool:
    """One run's spool directory: partition files keyed by (label, rank).

    Partition payloads are raw little-endian dtype bytes (``tofile``
    format), one file per destination rank per exchange label, with an
    optional parallel ``.lens`` file for supermer length bytes.  Empty
    partitions create no file.  When an ``arena`` is given, write
    coalescing and read-back buffers are borrowed from it instead of
    allocated fresh per call.
    """

    def __init__(self, base_dir: Path, *, arena: ScratchArena | None = None) -> None:
        base_dir.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="spool-", dir=base_dir))
        self.arena = arena
        self.bytes_written = 0
        self.bytes_read = 0

    def _buffer(self, n: int, dtype) -> np.ndarray:
        if self.arena is not None:
            return self.arena.take(n, dtype)
        return np.empty(n, dtype=dtype)

    def release(self, *arrays: np.ndarray | None) -> None:
        """Hand read/coalesce buffers back to the arena (no-op without one)."""
        if self.arena is not None:
            self.arena.release(*arrays)

    def partition_path(self, label: str, rank: int, *, lens: bool = False) -> Path:
        suffix = "lens" if lens else "data"
        return self.dir / f"{label}.dst{rank}.{suffix}"

    def write_partition(
        self,
        label: str,
        rank: int,
        segments: list[np.ndarray],
        *,
        lens: bool = False,
    ) -> int:
        """Write ``segments`` (in source-rank order) as one partition file.

        The segments are coalesced into a single contiguous buffer and
        written with one call — P writes per exchange instead of P² tiny
        per-segment ones, which dominated the spill tier's overhead.
        """
        total = sum(int(seg.shape[0]) for seg in segments)
        if total == 0:
            return 0
        dtype = segments[0].dtype
        buf = self._buffer(total, dtype)
        pos = 0
        for seg in segments:
            n = int(seg.shape[0])
            if n:
                buf[pos : pos + n] = seg
                pos += n
        path = self.partition_path(label, rank, lens=lens)
        with open(path, "wb") as fh:
            buf[:total].tofile(fh)
        self.release(buf)
        nbytes = total * dtype.itemsize
        self.bytes_written += nbytes
        _spill_counter("spill_bytes_written_total", "Bytes written to spool partition files", nbytes)
        return nbytes

    def map_partition(
        self, label: str, rank: int, dtype, *, lens: bool = False, account: bool = True
    ) -> np.ndarray:
        """Memory-map one partition back (empty array if nothing was spooled).

        ``account=False`` skips the read-byte accounting — used when the
        map is handed out only for checksum verification and the real
        streamed read happens (and is accounted) later.
        """
        path = self.partition_path(label, rank, lens=lens)
        if not path.exists():
            return np.empty(0, dtype=dtype)
        data = np.memmap(path, dtype=dtype, mode="r")
        if account:
            self.bytes_read += int(data.nbytes)
            _spill_counter(
                "spill_bytes_read_total", "Bytes read back from spool files", int(data.nbytes)
            )
        return data

    def read_partition(
        self,
        label: str,
        rank: int,
        dtype,
        *,
        lens: bool = False,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Stream one partition back with sequential ``readinto`` reads.

        Unlike :meth:`map_partition` this performs one unbuffered
        sequential read into an arena-recycled buffer (or the front of
        ``out`` when given), so the count phase pays readahead-sized I/O
        instead of per-page faults.  Returns the filled array (a length-0
        view of ``out`` when nothing was spooled).
        """
        dt = np.dtype(dtype)
        path = self.partition_path(label, rank, lens=lens)
        if not path.exists():
            return out[:0] if out is not None else np.empty(0, dtype=dt)
        size = path.stat().st_size
        n = size // dt.itemsize
        data = out[:n] if out is not None else self._buffer(n, dt)
        view = memoryview(data).cast("B")
        with open(path, "rb", buffering=0) as fh:
            got = 0
            while got < size:
                n_read = fh.readinto(view[got:size])
                if not n_read:
                    raise OSError(f"short read from spool partition {path}")
                got += n_read
        self.bytes_read += size
        _spill_counter("spill_bytes_read_total", "Bytes read back from spool files", size)
        return data

    def drop_partitions(self, label: str, rank: int) -> None:
        """Delete one rank's partition files for a label (after counting)."""
        for lens in (False, True):
            path = self.partition_path(label, rank, lens=lens)
            if path.exists():
                path.unlink()

    def write_run(self, rank: int, keys: np.ndarray, counts: np.ndarray) -> Path:
        """Persist one rank's sorted (key, count) run for the external merge.

        One raw file per run — the uint64 keys followed by the int64
        counts — written with two buffered calls (the ``.npy``-per-array
        format cost four files and header churn per rank).
        """
        path = self.dir / f"run.r{rank}.bin"
        with open(path, "wb") as fh:
            np.ascontiguousarray(keys, dtype=np.uint64).tofile(fh)
            np.ascontiguousarray(counts, dtype=np.int64).tofile(fh)
        nbytes = int(keys.nbytes + counts.nbytes)
        self.bytes_written += nbytes
        _spill_counter("spill_bytes_written_total", "Bytes written to spool partition files", nbytes)
        _spill_counter("spill_merge_runs_total", "Sorted runs produced for the external merge", 1)
        return path

    def map_run(self, rank: int) -> tuple[np.ndarray, np.ndarray]:
        path = self.dir / f"run.r{rank}.bin"
        size = path.stat().st_size if path.exists() else 0
        if size == 0:
            return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
        n = size // 16  # 8 B key + 8 B count per entry
        keys = np.memmap(path, dtype=np.uint64, mode="r", shape=(n,))
        counts = np.memmap(path, dtype=np.int64, mode="r", offset=n * 8, shape=(n,))
        self.bytes_read += size
        _spill_counter("spill_bytes_read_total", "Bytes read back from spool files", size)
        return keys, counts

    def pending_files(self) -> tuple[int, int]:
        """(file count, total bytes) still sitting in the spool directory."""
        files = [p for p in self.dir.iterdir() if p.is_file()] if self.dir.exists() else []
        return len(files), sum(p.stat().st_size for p in files)

    def close(self, *, failed: bool = False) -> None:
        """Remove the spool directory.

        ``failed=True`` marks an abnormal exit (a worker raised mid-run):
        the leftover partition/run files are counted and announced with an
        ``engine.spill.cleanup`` event before removal, so aborted runs are
        visibly reclaimed instead of silently leaking spool space.
        """
        if failed and self.dir.exists():
            n_files, n_bytes = self.pending_files()
            event(
                "engine.spill.cleanup",
                subsystem="engine",
                files=n_files,
                bytes=n_bytes,
                dir=str(self.dir),
            )
        shutil.rmtree(self.dir, ignore_errors=True)


class SpillExchange:
    """Counts alltoall + payload "alltoallv" onto disk partitions.

    Accounting twin of :class:`AlltoallvExchange`: the byte/item traffic
    record, the collective-layer telemetry counters, the end-to-end
    checksum verification, and the modeled phase time are all computed
    exactly as the in-memory exchange computes them.  Only the data
    placement differs — each destination's segments are appended to a
    per-(rank, label) partition file, and ``recv_data`` comes back as
    read-only memory maps.
    """

    def __init__(self, spool: SpillSpool, *, account_reads: bool = True) -> None:
        self.spool = spool
        # False when the one-shot run's streamed count phase re-reads the
        # partitions itself (with accounting); the maps returned here then
        # exist only for the checksum pass.
        self.account_reads = account_reads

    def exchange(self, send_data, send_lengths, send_counts, label, ctx) -> ExchangeOutcome:
        p = len(send_data)
        wire = ctx.wire_bytes
        counts_matrix = np.zeros((p, p), dtype=np.int64)
        offsets = []
        for src in range(p):
            counts = np.ascontiguousarray(send_counts[src], dtype=np.int64)
            if counts.shape != (p,):
                raise ValueError(f"rank {src} send_counts must have shape ({p},)")
            if int(counts.sum()) != send_data[src].shape[0]:
                raise ValueError(
                    f"rank {src}: counts sum {int(counts.sum())} != data length {send_data[src].shape[0]}"
                )
            counts_matrix[src] = counts
            off = np.zeros(p + 1, dtype=np.int64)
            np.cumsum(counts, out=off[1:])
            offsets.append(off)

        # Model accounting first, identical to alltoallv_segments: one
        # logical alltoallv for the payload (recorded into the traffic
        # stats), and in supermer mode a second one for the length bytes
        # (counters only; its bytes ride in the payload's `wire` size).
        _record_comm_telemetry(p)
        if ctx.stats is not None:
            bytes_matrix = (counts_matrix * float(wire)).astype(np.int64)
            ctx.stats.record("alltoallv", bytes_matrix, label=label, items_matrix=counts_matrix)
        if send_lengths is not None:
            _record_comm_telemetry(p)

        # The disk form of recv_data[dst]: every source's segment for dst,
        # in source-rank order — byte-identical to the in-memory gather.
        for dst in range(p):
            segs = [send_data[src][offsets[src][dst] : offsets[src][dst + 1]] for src in range(p)]
            self.spool.write_partition(label, dst, segs)
            if send_lengths is not None:
                lens = [
                    send_lengths[src][offsets[src][dst] : offsets[src][dst + 1]] for src in range(p)
                ]
                self.spool.write_partition(label, dst, lens, lens=True)
        _spill_counter("spill_partitions_total", "Exchange partitions spooled to disk", p)

        recv_data = [
            self.spool.map_partition(label, dst, send_data[0].dtype, account=self.account_reads)
            for dst in range(p)
        ]
        recv_lengths = None
        if send_lengths is not None:
            recv_lengths = [
                self.spool.map_partition(label, dst, np.uint8, lens=True, account=self.account_reads)
                for dst in range(p)
            ]

        do_verify = ctx.verify if ctx.verify is not None else ctx.opts.verify_exchange
        if do_verify:
            verify_exchange(send_data, recv_data, counts_matrix, label)

        seconds, t_a2av, t_stage, links = exchange_time_model(counts_matrix, ctx)
        return ExchangeOutcome(
            recv_data=recv_data,
            recv_lengths=recv_lengths,
            counts_matrix=counts_matrix,
            seconds=seconds,
            alltoallv_seconds=t_a2av,
            staging_seconds=t_stage,
            link_seconds=links,
        )


def external_merge(
    runs: list[tuple[np.ndarray, np.ndarray]],
    k: int,
    *,
    block: int = MERGE_BLOCK_KEYS,
) -> KmerSpectrum:
    """External k-way merge of sorted ``(keys, counts)`` runs.

    Each run's keys are strictly increasing (a dumped table partition);
    runs may share keys (canonical supermer mode splits a canonical k-mer
    across two owners), so equal keys aggregate.  A heap of the run
    cursors' last-loaded keys yields the *safe emission bound*: every
    instance of a key ``<= bound`` is already loaded, because each run's
    unloaded keys exceed its last-loaded key.  Chunks are aggregated with
    the same :func:`sum_by_key` the in-memory :class:`SpectrumMerge` uses,
    so the concatenated chunk outputs equal the whole-array merge exactly.
    """
    # per run: [keys, counts, lo, head_keys, head_counts, hp, generation]
    cursors = []
    heap: list[tuple[int, int, int]] = []  # (last loaded key, generation, run index)

    def refill(i: int) -> None:
        cur = cursors[i]
        keys, counts, lo = cur[0], cur[1], cur[2]
        hi = min(lo + block, keys.shape[0])
        cur[3] = np.asarray(keys[lo:hi])
        cur[4] = np.asarray(counts[lo:hi])
        cur[2], cur[5] = hi, 0
        cur[6] += 1
        if hi < keys.shape[0]:  # more on disk: this head's last key bounds emission
            heapq.heappush(heap, (int(cur[3][-1]), cur[6], i))

    for keys, counts in runs:
        if keys.shape[0]:
            cursors.append([keys, counts, 0, None, None, 0, 0])
            refill(len(cursors) - 1)

    live = {i for i in range(len(cursors))}
    out_keys: list[np.ndarray] = []
    out_counts: list[np.ndarray] = []
    while live:
        # Drop stale heap entries: the cursor was dropped, fully loaded, or
        # refilled since the entry was pushed (its bound is already consumed).
        while heap and (
            heap[0][2] not in live
            or heap[0][1] != cursors[heap[0][2]][6]
            or cursors[heap[0][2]][2] >= cursors[heap[0][2]][0].shape[0]
        ):
            heapq.heappop(heap)
        bound = heap[0][0] if heap else None

        parts_k: list[np.ndarray] = []
        parts_c: list[np.ndarray] = []
        for i in sorted(live):
            cur = cursors[i]
            hk, hc, hp = cur[3], cur[4], cur[5]
            end = hk.shape[0] if bound is None else int(np.searchsorted(hk, bound, side="right"))
            if end > hp:
                parts_k.append(hk[hp:end])
                parts_c.append(hc[hp:end])
                cur[5] = end
        chunk_k = np.concatenate(parts_k) if parts_k else np.empty(0, dtype=np.uint64)
        chunk_c = np.concatenate(parts_c) if parts_c else np.empty(0, dtype=np.int64)
        if chunk_k.size:
            uniq, merged = sum_by_key(chunk_k, chunk_c)
            out_keys.append(uniq)
            out_counts.append(merged)

        for i in list(live):
            cur = cursors[i]
            if cur[5] >= cur[3].shape[0]:  # head fully consumed
                if cur[2] < cur[0].shape[0]:
                    refill(i)
                else:
                    live.discard(i)

    if not out_keys:
        return KmerSpectrum(k=k, values=np.empty(0, dtype=np.uint64), counts=np.empty(0, dtype=np.int64))
    return KmerSpectrum(k=k, values=np.concatenate(out_keys), counts=np.concatenate(out_counts))


class SpillPipeline:
    """Staged out-of-core execution engine bound to one :class:`RoundScheduler`."""

    strategy = "spill"

    def __init__(self, scheduler) -> None:
        self.sched = scheduler
        opts = scheduler.opts
        self.arena = opts.arena if opts.arena is not None else ScratchArena()

    def _spool(self) -> SpillSpool:
        return SpillSpool(Path(self.sched.opts.spill_dir), arena=self.arena)

    # -- one-shot run ------------------------------------------------

    def run_once(self, reads, recorder, reg) -> CountResult:
        from .scheduler import _round_slice, _rounds_for_memory

        sched = self.sched
        comp = sched.comp
        config = sched.config
        opts = sched.opts
        p = sched.cluster.n_ranks
        mult = opts.work_multiplier
        pool = sched._pool()
        spool = self._spool()
        try:
            stats = TrafficStats()
            sctx = sched._context(pool, stats, recorder, reg)
            exchange = SpillExchange(spool, account_reads=False)

            # ---- phase 1: parse, exactly as the in-memory staged path ----
            shards = sched._shard(reads)

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

            wire = sctx.wire_bytes
            supermer_mode = sctx.supermer_mode
            n_rounds = max(
                config.n_rounds, _rounds_for_memory(parsed, p, wire, mult, opts, comp.backend)
            )

            # ---- phase 2: spool every round's partitions to disk ----
            counts_matrix_total = np.zeros((p, p), dtype=np.int64)
            t_exchange = 0.0
            t_alltoallv = 0.0
            staging_total = 0.0
            link_totals: dict[str, float] = {}
            labels: list[str] = []
            for rnd in range(n_rounds):
                with recording_region(recorder, f"round{rnd}", cat="round", round=rnd):
                    round_send = [_round_slice(pr, rnd, n_rounds) for pr in parsed]
                    send_data = [rs[0] for rs in round_send]
                    send_lengths = [rs[1] for rs in round_send] if supermer_mode else None
                    send_counts = [rs[2] for rs in round_send]
                    label = f"{config.mode}-exchange" + (f"-round{rnd}" if n_rounds > 1 else "")
                    labels.append(label)
                    # The spool write is the spill path's exchange superstep:
                    # one whole-cluster block on the driving thread (rank 0
                    # wall row), like the fused path's supersteps.
                    spool_name = "spill:spool" + (f"-round{rnd}" if n_rounds > 1 else "")
                    n_traffic_before = len(stats.records)
                    with recording_region(recorder, "exchange", cat="stage", round=rnd) as ereg:
                        t0 = perf_counter()
                        outcome = exchange.exchange(send_data, send_lengths, send_counts, label, sctx)
                        if recorder is not None:
                            recorder.record(spool_name, 0, t0, perf_counter())
                        if ereg is not None:
                            ereg.note(
                                label=label,
                                traffic_records=[n_traffic_before, len(stats.records)],
                                items=int(outcome.counts_matrix.sum()),
                                model_seconds=outcome.seconds,
                                link_seconds=dict(outcome.link_seconds),
                            )
                    # outcome's receive views exist only for the checksum pass;
                    # the streamed count phase re-reads each rank's partition.
                    counts_matrix_total += outcome.counts_matrix
                    t_exchange += outcome.seconds
                    t_alltoallv += outcome.alltoallv_seconds
                    staging_total += outcome.staging_seconds
                    add_link_seconds(link_totals, outcome.link_seconds)
                    _round_metrics(reg, comp.backend, rnd, outcome)

            # The big destination-ordered send buffers are now on disk;
            # free them before the count phase so peak residency is one
            # rank's partition + table, not the whole parse output.
            capacity_hints = [max(64, pr.n_kmers_parsed // max(p, 1) + 16) for pr in parsed]
            per_rank_parse = np.array([pr.time_s for pr in parsed])
            supermer_bases = sum(pr.supermer_bases for pr in parsed)
            n_supermers = sum(pr.n_supermers for pr in parsed)
            del parsed, round_send, send_data, send_lengths

            # ---- phase 3: streamed count, one rank partition at a time ----
            # Each rank's stream is private in memory (its own fresh table)
            # and on disk (per-rank partition and run files), so the pool
            # may run rank streams concurrently on any substrate — peak
            # residency per worker is still one rank's partition + table.
            # InsertStats combination is associative, so the per-rank
            # grouping below reduces to exactly the serial (rank, round)
            # accumulation order.
            received_kmers = np.zeros(p, dtype=np.int64)
            per_rank_count = np.zeros(p, dtype=np.float64)
            insert_total = InsertStats.zero()
            table_entries = np.zeros(p, dtype=np.int64)
            table_load = np.zeros(p, dtype=np.float64)

            def _stream_one(r: int):
                table = DeviceHashTable(capacity_hint=capacity_hints[r], seed=config.table_seed)
                time_r = 0.0
                recv_r = 0
                ins_r = InsertStats.zero()
                for rnd, label in enumerate(labels):
                    recv = spool.read_partition(label, r, np.uint64)
                    lengths_r = (
                        spool.read_partition(label, r, np.uint8, lens=True)
                        if supermer_mode
                        else None
                    )
                    count_label = "count" + (f"-round{rnd}" if n_rounds > 1 else "")
                    t0 = perf_counter()
                    co = comp.substrate.count_rank(r, recv, lengths_r, table, comp.count, sctx)
                    if recorder is not None:
                        recorder.record(count_label, r, t0, perf_counter())
                    time_r += co.time_s
                    recv_r += co.n_instances
                    ins_r = ins_r.combined(co.insert_stats)
                    spool.release(recv, lengths_r)
                for label in labels:
                    spool.drop_partitions(label, r)
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
                return time_r, recv_r, ins_r, table.n_entries, table.load_factor

            with recording_region(recorder, "count", cat="stage"):
                streamed = pool.map(_stream_one, range(p), recorder=recorder)
            for r, (time_r, recv_r, ins_r, entries_r, load_r) in enumerate(streamed):
                per_rank_count[r] = time_r
                received_kmers[r] = recv_r
                insert_total = insert_total.combined(ins_r)
                table_entries[r] = entries_r
                table_load[r] = load_r

            t_count = float(per_rank_count.max()) if p else 0.0

            # ---- phase 4: external merge of the sorted runs ----
            with recording_region(recorder, "merge", cat="stage"):
                t0 = perf_counter()
                spectrum = external_merge([spool.map_run(r) for r in range(p)], config.k)
                if recorder is not None:
                    recorder.record("spill:merge", 0, t0, perf_counter())
            if comp.conserves_kmers and spectrum.n_total != total_parsed_kmers:
                raise AssertionError(
                    f"pipeline lost k-mers: parsed {total_parsed_kmers}, counted {spectrum.n_total}"
                )

            exchanged_items = int(counts_matrix_total.sum())
            if reg is not None:
                backend = comp.backend
                for r in range(p):
                    reg.gauge("hashtable_entries", "Distinct keys per rank partition", rank=r).set(
                        int(table_entries[r])
                    )
                    reg.gauge("hashtable_load_factor", "Final load factor per rank", rank=r).set(
                        float(table_load[r])
                    )
                reg.counter("kmers_parsed_total", "k-mer instances parsed", engine=backend).inc(
                    total_parsed_kmers
                )
                if n_supermers:
                    reg.counter("supermers_total", "Supermers built", engine=backend).inc(n_supermers)
                    reg.counter(
                        "supermer_bases_total", "Bases covered by supermers", engine=backend
                    ).inc(supermer_bases)
            return CountResult(
                config=config,
                cluster=sched.cluster,
                backend=comp.backend,
                spectrum=spectrum,
                timing=PhaseTiming(parse=t_parse, exchange=t_exchange, count=t_count),
                per_rank_parse=per_rank_parse,
                per_rank_count=per_rank_count,
                received_kmers=received_kmers,
                exchanged_items=exchanged_items,
                exchanged_bytes=int(exchanged_items * wire),
                counts_matrix=counts_matrix_total,
                work_multiplier=mult,
                traffic=sctx.stats,
                insert_stats=insert_total,
                mean_supermer_length=(supermer_bases / n_supermers) if n_supermers else 0.0,
                staging_seconds=staging_total,
                alltoallv_seconds=t_alltoallv,
                link_seconds=tuple(link_totals.items()),
                n_rounds_used=n_rounds,
            )
        except BaseException:
            spool.close(failed=True)
            raise
        finally:
            spool.close()

    # -- streamed batches --------------------------------------------

    def run_batch(self, reads, state) -> PhaseTiming:
        """One spilled batch folded into persistent ``state``.

        The exchange partitions go through the spool and the count phase
        walks them rank by rank with streamed reads, so the batch's receive
        buffers never reside in RAM; the persistent tables (the cross-batch
        state itself) stay in memory.  Observables are bit-identical to the
        in-memory ``RoundScheduler.run_batch``.
        """
        sched = self.sched
        comp = sched.comp
        config = sched.config
        p = sched.cluster.n_ranks
        pool = sched._pool()
        recorder = sched.opts.span_recorder
        sctx = sched._context(pool, state.traffic, recorder, None, verify=False)
        spool = self._spool()
        try:
            exchange = SpillExchange(spool, account_reads=False)
            sched._prepare_plugins(reads)
            shards = sched._shard(reads)

            def _parse_one(r: int):
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
                t0 = perf_counter()
                outcome = exchange.exchange(
                    [pr.data for pr in parsed],
                    [pr.lengths for pr in parsed] if supermer_mode else None,
                    [pr.counts for pr in parsed],
                    label,
                    sctx,
                )
                if recorder is not None:
                    recorder.record("spill:spool", 0, t0, perf_counter())
                if ereg is not None:
                    ereg.note(
                        label=label,
                        traffic_records=[n_traffic_before, len(state.traffic.records)],
                        items=int(outcome.counts_matrix.sum()),
                        model_seconds=outcome.seconds,
                    )
            counts_matrix = outcome.counts_matrix
            exch_seconds = outcome.seconds
            # The batch's send buffers are on disk now: free them (and the
            # outcome's verification maps) before the streamed count.
            del parsed, outcome

            # Rank streams are private (own partition files, own persistent
            # table), so the pool may run them concurrently; as on every
            # other path, the mutated table travels back with the outcome
            # for out-of-process substrates.
            def _count_one(r: int):
                recv = spool.read_partition(label, r, np.uint64)
                lengths_r = (
                    spool.read_partition(label, r, np.uint8, lens=True) if supermer_mode else None
                )
                t0 = perf_counter()
                co = comp.substrate.count_rank(
                    r, recv, lengths_r, state.tables[r], comp.count, sctx
                )
                if recorder is not None:
                    recorder.record("count", r, t0, perf_counter())
                spool.release(recv, lengths_r)
                spool.drop_partitions(label, r)
                return co, state.tables[r]

            per_rank_count = np.zeros(p, dtype=np.float64)
            with recording_region(recorder, "count", cat="stage"):
                counted = pool.map(_count_one, range(p), recorder=recorder)
            for r, (co, table) in enumerate(counted):
                state.tables[r] = table
                per_rank_count[r] = co.time_s
                state.received_kmers[r] += co.n_instances
                state.insert_stats = state.insert_stats.combined(co.insert_stats)

            batch_timing = PhaseTiming(
                parse=t_parse, exchange=exch_seconds, count=float(per_rank_count.max()) if p else 0.0
            )
            state.timing = state.timing.add(batch_timing)
            state.exchanged_items += int(counts_matrix.sum())
            state.n_batches += 1
            return batch_timing
        except BaseException:
            spool.close(failed=True)
            raise
        finally:
            spool.close()


class FusedSpillPipeline:
    """Blocked fused×spill composition: fused supersteps over a spool.

    The fused parse builds the whole cluster's rank-segmented flat send
    buffer as usual; each round's buffer is then spooled through
    :class:`SpillExchange` (the flat array is source-major, so per-source
    views slice it for free) instead of being gathered into a resident
    whole-cluster receive buffer.  The count phase streams partitions back
    one consecutive rank block at a time into one
    :class:`~repro.gpu.segmented.SegmentedHashTable` — optionally
    file-backed via ``EngineOptions(table_dir=)`` — and the merge is the
    fused in-memory item extraction (the table holds the whole spectrum;
    no run files or external merge are needed).

    Bit-identity with the fused (hence staged) path holds because (a) the
    segmented table's regions are slot-disjoint, so any grouping of whole
    ranks per insert call leaves every per-rank probe sequence unchanged,
    (b) rounds stream per rank in round order, preserving each rank's
    float accumulation order, and (c) InsertStats combination is a
    commutative monoid, so (block, round) iteration reduces to the same
    totals as (round, all-ranks).
    """

    strategy = "fused-spill"

    def __init__(self, scheduler) -> None:
        self.sched = scheduler
        self.fused = FusedPipeline(scheduler)
        self.arena = self.fused.arena

    def _spool(self) -> SpillSpool:
        return SpillSpool(Path(self.sched.opts.spill_dir), arena=self.arena)

    @staticmethod
    def _src_views(flat: np.ndarray | None, counts_matrix: np.ndarray) -> list[np.ndarray] | None:
        """Per-source views of a src-major flat send buffer."""
        if flat is None:
            return None
        p = counts_matrix.shape[0]
        base = np.zeros(p + 1, dtype=np.int64)
        np.cumsum(counts_matrix.sum(axis=1), out=base[1:])
        return [flat[base[s] : base[s + 1]] for s in range(p)]

    def _stream_blocks(
        self,
        spool: SpillSpool,
        table: SegmentedHashTable,
        labels: list[str],
        round_recv: list[np.ndarray],
        sctx,
        recorder,
        on_block_round,
    ) -> None:
        """Stream spooled partitions into ``table`` one rank block at a time.

        For every consecutive rank block (sized by partition bytes against
        :data:`FUSED_SPILL_BLOCK_BYTES`) and every round label, the block's
        partitions are read back into one contiguous arena buffer and
        counted via the fused count kernel restricted to the block
        (``rank_range``); ``on_block_round(r0, r1, rnd, times, n_seen,
        ins_list)`` folds the outcome.  Rounds run innermost so each rank
        sees its rounds in order (identical float accumulation).
        """
        supermer_mode = sctx.supermer_mode
        n_rounds = len(labels)
        arena = self.arena
        recv_per_rank = np.sum(round_recv, axis=0)
        item_bytes = 9 if supermer_mode else 8  # 8 B payload + 1 B length
        blocks = _rank_blocks(recv_per_rank * item_bytes, FUSED_SPILL_BLOCK_BYTES)
        for r0, r1 in blocks:
            nb = r1 - r0
            for rnd, label in enumerate(labels):
                total = int(round_recv[rnd][r0:r1].sum())
                read_name = "spill:read" + (f"-round{rnd}" if n_rounds > 1 else "")
                t0 = perf_counter()
                shuffled = arena.take(total, np.uint64)
                shuffled_lengths = arena.take(total, np.uint8) if supermer_mode else None
                dst_offsets = np.zeros(nb + 1, dtype=np.int64)
                pos = 0
                for i, r in enumerate(range(r0, r1)):
                    part = spool.read_partition(label, r, np.uint64, out=shuffled[pos:])
                    if supermer_mode:
                        spool.read_partition(
                            label, r, np.uint8, lens=True, out=shuffled_lengths[pos:]
                        )
                    pos += int(part.shape[0])
                    dst_offsets[i + 1] = pos
                if recorder is not None:
                    recorder.record(read_name, r0, t0, perf_counter())
                count_label = "fused:count" + (f"-round{rnd}" if n_rounds > 1 else "")
                t0 = perf_counter()
                times, n_seen, ins_list = self.fused._count(
                    table,
                    shuffled[:pos],
                    shuffled_lengths[:pos] if supermer_mode else None,
                    dst_offsets,
                    sctx,
                    rank_range=(r0, r1),
                )
                if recorder is not None:
                    recorder.record(count_label, r0, t0, perf_counter())
                arena.release(shuffled, shuffled_lengths)
                on_block_round(r0, r1, rnd, times, n_seen, ins_list)
            for r in range(r0, r1):
                for label in labels:
                    spool.drop_partitions(label, r)

    # -- one-shot run ------------------------------------------------

    def run_once(self, reads, recorder, reg) -> CountResult:
        from .scheduler import _rounds_for_recv_items

        sched = self.sched
        comp = sched.comp
        config = sched.config
        opts = sched.opts
        p = sched.cluster.n_ranks
        mult = opts.work_multiplier
        arena = self.arena
        spool = self._spool()
        try:
            stats = TrafficStats()
            sctx = sched._context(None, stats, recorder, reg)
            exchange = SpillExchange(spool, account_reads=False)

            shards = sched._shard(reads)
            with recording_region(recorder, "parse", cat="stage"):
                t0 = perf_counter()
                fp = self.fused._parse(shards, sctx)
                if recorder is not None:
                    recorder.record("fused:parse", 0, t0, perf_counter())
            t_parse = float(fp.times.max()) if p else 0.0
            total_parsed_kmers = fp.total_kmers

            wire = sctx.wire_bytes
            supermer_mode = sctx.supermer_mode
            recv_items = fp.counts_matrix.sum(axis=0).astype(np.float64)
            n_rounds = max(
                config.n_rounds, _rounds_for_recv_items(recv_items, wire, mult, opts, comp.backend)
            )

            # ---- phase 2: spool every round's flat send slice to disk ----
            counts_matrix_total = np.zeros((p, p), dtype=np.int64)
            t_exchange = 0.0
            t_alltoallv = 0.0
            staging_total = 0.0
            link_totals: dict[str, float] = {}
            labels: list[str] = []
            round_recv: list[np.ndarray] = []
            for rnd in range(n_rounds):
                with recording_region(recorder, f"round{rnd}", cat="round", round=rnd):
                    send_flat, send_lengths, round_counts, round_owned = self.fused._round_gather(
                        fp, rnd, n_rounds
                    )
                    send_data = self._src_views(send_flat, round_counts)
                    lengths_list = (
                        self._src_views(send_lengths, round_counts) if supermer_mode else None
                    )
                    send_counts = [round_counts[s] for s in range(p)]
                    label = f"{config.mode}-exchange" + (f"-round{rnd}" if n_rounds > 1 else "")
                    labels.append(label)
                    spool_name = "spill:spool" + (f"-round{rnd}" if n_rounds > 1 else "")
                    n_traffic_before = len(stats.records)
                    with recording_region(recorder, "exchange", cat="stage", round=rnd) as ereg:
                        t0 = perf_counter()
                        outcome = exchange.exchange(
                            send_data, lengths_list, send_counts, label, sctx
                        )
                        if recorder is not None:
                            recorder.record(spool_name, 0, t0, perf_counter())
                        if ereg is not None:
                            ereg.note(
                                label=label,
                                traffic_records=[n_traffic_before, len(stats.records)],
                                items=int(outcome.counts_matrix.sum()),
                                model_seconds=outcome.seconds,
                                link_seconds=dict(outcome.link_seconds),
                            )
                    if round_owned:
                        arena.release(send_flat, send_lengths)
                    counts_matrix_total += outcome.counts_matrix
                    round_recv.append(outcome.counts_matrix.sum(axis=0))
                    t_exchange += outcome.seconds
                    t_alltoallv += outcome.alltoallv_seconds
                    staging_total += outcome.staging_seconds
                    add_link_seconds(link_totals, outcome.link_seconds)
                    _round_metrics(reg, comp.backend, rnd, outcome)

            # The whole-cluster send buffer is on disk now; release it so
            # the count phase's residency is one rank block + the table.
            capacity_hints = [max(64, int(nk) // max(p, 1) + 16) for nk in fp.n_kmers]
            per_rank_parse = fp.times.copy()
            supermer_bases = int(fp.supermer_bases.sum())
            n_supermers = int(fp.n_supermers.sum())
            arena.release(fp.data, fp.lengths)
            del fp

            # ---- phase 3: blocked streamed count into the segmented table ----
            table = SegmentedHashTable(
                capacity_hints, seed=config.table_seed, table_dir=opts.table_dir
            )
            received_kmers = np.zeros(p, dtype=np.int64)
            per_rank_count = np.zeros(p, dtype=np.float64)
            insert_total = InsertStats.zero()

            def _fold(r0, r1, rnd, times, n_seen, ins_list):
                nonlocal insert_total
                per_rank_count[r0:r1] += times
                received_kmers[r0:r1] += n_seen
                for ins in ins_list:
                    insert_total = insert_total.combined(ins)

            with recording_region(recorder, "count", cat="stage"):
                self._stream_blocks(spool, table, labels, round_recv, sctx, recorder, _fold)
            t_count = float(per_rank_count.max()) if p else 0.0

            # ---- phase 4: fused in-memory merge (the table is resident) ----
            with recording_region(recorder, "merge", cat="stage"):
                t0 = perf_counter()
                spectrum = comp.merge.merge_tables(table.views(), config.k)
                if recorder is not None:
                    recorder.record("fused:merge", 0, t0, perf_counter())
            if comp.conserves_kmers and spectrum.n_total != total_parsed_kmers:
                raise AssertionError(
                    f"pipeline lost k-mers: parsed {total_parsed_kmers}, counted {spectrum.n_total}"
                )

            exchanged_items = int(counts_matrix_total.sum())
            if reg is not None:
                backend = comp.backend
                for r in range(p):
                    reg.gauge("hashtable_entries", "Distinct keys per rank partition", rank=r).set(
                        int(table.n_entries_per_rank[r])
                    )
                    reg.gauge("hashtable_load_factor", "Final load factor per rank", rank=r).set(
                        int(table.n_entries_per_rank[r]) / int(table.capacities[r])
                    )
                reg.counter("kmers_parsed_total", "k-mer instances parsed", engine=backend).inc(
                    total_parsed_kmers
                )
                if n_supermers:
                    reg.counter("supermers_total", "Supermers built", engine=backend).inc(n_supermers)
                    reg.counter(
                        "supermer_bases_total", "Bases covered by supermers", engine=backend
                    ).inc(supermer_bases)
            result = CountResult(
                config=config,
                cluster=sched.cluster,
                backend=comp.backend,
                spectrum=spectrum,
                timing=PhaseTiming(parse=t_parse, exchange=t_exchange, count=t_count),
                per_rank_parse=per_rank_parse,
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
            table.close()
            return result
        except BaseException:
            spool.close(failed=True)
            raise
        finally:
            spool.close()

    # -- streamed batches --------------------------------------------

    def run_batch(self, reads, state) -> PhaseTiming:
        """One fused×spill batch folded into persistent ``state``.

        Single-round like every batch path: the fused parse's flat send
        buffer is spooled, then streamed back block by block into the
        persistent segmented table (adopted from ``state.tables`` exactly
        as the fused batch path does).  Observables are bit-identical to
        the in-memory fused batches.
        """
        sched = self.sched
        comp = sched.comp
        config = sched.config
        opts = sched.opts
        p = sched.cluster.n_ranks
        recorder = sched.opts.span_recorder
        arena = self.arena
        sctx = sched._context(None, state.traffic, recorder, None, verify=False)
        spool = self._spool()
        try:
            exchange = SpillExchange(spool, account_reads=False)
            sched._prepare_plugins(reads)
            shards = sched._shard(reads)
            with recording_region(recorder, "parse", cat="stage"):
                t0 = perf_counter()
                fp = self.fused._parse(shards, sctx)
                if recorder is not None:
                    recorder.record("fused:parse", 0, t0, perf_counter())
            t_parse = float(fp.times.max()) if p else 0.0

            supermer_mode = sctx.supermer_mode
            label = f"{config.mode}-batch{state.n_batches}"
            send_data = self._src_views(fp.data, fp.counts_matrix)
            lengths_list = self._src_views(fp.lengths, fp.counts_matrix) if supermer_mode else None
            send_counts = [fp.counts_matrix[s] for s in range(p)]
            n_traffic_before = len(state.traffic.records)
            with recording_region(recorder, "exchange", cat="stage") as ereg:
                t0 = perf_counter()
                outcome = exchange.exchange(send_data, lengths_list, send_counts, label, sctx)
                if recorder is not None:
                    recorder.record("spill:spool", 0, t0, perf_counter())
                if ereg is not None:
                    ereg.note(
                        label=label,
                        traffic_records=[n_traffic_before, len(state.traffic.records)],
                        items=int(outcome.counts_matrix.sum()),
                        model_seconds=outcome.seconds,
                    )
            counts_matrix = outcome.counts_matrix
            exch_seconds = outcome.seconds
            round_recv = [counts_matrix.sum(axis=0)]
            arena.release(fp.data, fp.lengths)
            del fp, outcome, send_data, lengths_list

            table = state.fused_table
            if table is None:
                # Adopt the per-rank tables layout-verbatim, so a state that
                # already counted staged batches continues bit-identically.
                table = SegmentedHashTable.from_tables(state.tables, table_dir=opts.table_dir)
                state.fused_table = table
                state.tables = table.views()

            per_rank_count = np.zeros(p, dtype=np.float64)

            def _fold(r0, r1, rnd, times, n_seen, ins_list):
                per_rank_count[r0:r1] = times
                for i, r in enumerate(range(r0, r1)):
                    state.received_kmers[r] += int(n_seen[i])
                    state.insert_stats = state.insert_stats.combined(ins_list[i])

            with recording_region(recorder, "count", cat="stage"):
                self._stream_blocks(spool, table, [label], round_recv, sctx, recorder, _fold)

            batch_timing = PhaseTiming(
                parse=t_parse,
                exchange=exch_seconds,
                count=float(per_rank_count.max()) if p else 0.0,
            )
            state.timing = state.timing.add(batch_timing)
            state.exchanged_items += int(counts_matrix.sum())
            state.n_batches += 1
            return batch_timing
        except BaseException:
            spool.close(failed=True)
            raise
        finally:
            spool.close()


def _round_metrics(reg, backend: str, rnd: int, outcome: ExchangeOutcome) -> None:
    """The scheduler's per-round exchange metrics, verbatim."""
    if reg is None:
        return
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
