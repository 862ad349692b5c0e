"""Out-of-core execution tier: the spool sink of the round driver.

Without a spool every strategy holds the whole run in RAM — the parsed
send buffers, every rank's received buffer, and all P hash-table
partitions live simultaneously, which caps the dataset registry at tiny
scales.  Gerbil-style two-phase counting (PAPERS.md) splits that: phase
one hashes reads into minimizer-keyed temporary partition files, phase
two counts one partition at a time.  We already partition by minimizer
shard, so the spool is just where the round driver
(:mod:`repro.core.stages.scheduler`) lands the partitions:

* :class:`SpillExchange` — an :class:`~repro.core.stages.standard.
  AlltoallvExchange` whose payload lands in one partition file per
  (destination rank, round) instead of in-memory receive buffers.  Count
  validation, the traffic record, collective telemetry, the checksum and
  the modeled exchange time are the in-memory exchange's own, so every
  model observable matches bit for bit.

* :class:`SpillSpool` — the spool directory.  After every round has been
  written, the driver streams the partitions back: the staged layout one
  rank at a time (a one-shot run dumps each finished table partition as a
  sorted ``(key, count)`` run file and frees it; :func:`external_merge`
  then produces the spectrum with a heap of run cursors, cf. the
  ``heapq`` idiom in :mod:`repro.ext.balanced`), the fused layout one
  consecutive rank block at a time (:data:`FUSED_SPILL_BLOCK_BYTES`) into
  its segmented table, optionally file-backed via
  ``EngineOptions(table_dir=)``.  Peak residency is one rank (block) plus
  the tables, never the whole cluster's buffers.

All partition/run I/O is buffered and coalesced: each destination's
segments are gathered into one :class:`~repro.core.memory.ScratchArena`
buffer and written with a single call (P writes per round, not P²), and
partitions are read back with readahead-sized ``readinto`` calls into
recycled arena buffers instead of page-faulting memory maps.

Bit-identity contract: spectrum, timing floats, per-rank model times,
traffic records, counts matrices, and InsertStats all equal the in-memory
path's (``tests/test_spill.py`` enforces it, and
``benchmarks/bench_guard.py`` gates it in CI).  Only ``wall=True``
telemetry families (``spill_*``) differ.  Compositions with custom
exchange/merge stages fall back to the memory sink with an
``engine.spill.fallback`` event, never an error.
"""

from __future__ import annotations

import heapq
import shutil
import tempfile
from pathlib import Path

import numpy as np

from ...kmers.spectrum import KmerSpectrum
from ...mpi.collectives import record_alltoallv, segment_counts
from ...telemetry import active, event
from ..memory import ScratchArena
from .registry import StageComposition
from .standard import AlltoallvExchange, SpectrumMerge, sum_by_key

__all__ = ["SpillExchange", "SpillSpool", "external_merge", "supports_spill"]

#: Keys loaded from each sorted run per refill during the external merge.
MERGE_BLOCK_KEYS = 1 << 16

#: Target bytes of spooled partition data streamed back per rank block in
#: the fused×spill count phase.  One block's receive buffer (plus its
#: extraction copy) is the path's peak transient; 16 MiB keeps it cache-
#: friendly while amortizing the per-read syscall cost.
FUSED_SPILL_BLOCK_BYTES = 1 << 24


def supports_spill(comp: StageComposition) -> bool:
    """Whether the composition can run out of core.

    The spool sink substitutes the exchange (partition files for receive
    buffers) and, under the staged layout, the merge (external k-way
    merge for the in-memory sort), so both must be the standard classes
    whose semantics it reproduces.  Parse, partition, count, and
    substrate are driven through their ordinary seams and may be
    anything; plugins act through the standard hooks, which the spool
    sink honours.
    """
    return type(comp.exchange) is AlltoallvExchange and type(comp.merge) is SpectrumMerge


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


class SpillExchange(AlltoallvExchange):
    """An :class:`AlltoallvExchange` whose receive buffers land on disk.

    Everything but the data placement is the in-memory exchange's: count
    validation, the traffic record and collective telemetry of the payload
    (and, in supermer mode, of the length bytes, whose size rides in the
    payload's wire bytes), the checksum and the modeled time.  Each
    destination's segments are appended to a per-(rank, label) partition
    file; the partitions are mapped back only for the checksum, so the
    outcome carries no receive buffers.
    """

    def __init__(self, spool: SpillSpool) -> None:
        self.spool = spool

    def deliver(self, send_data, send_lengths, send_counts, label, ctx):
        p = len(send_data)
        counts_matrix = segment_counts(send_data, send_counts)
        record_alltoallv(counts_matrix, stats=ctx.stats, label=label, bytes_per_item=ctx.wire_bytes)
        if send_lengths is not None:
            record_alltoallv(counts_matrix)
        offsets = np.zeros((p, p + 1), dtype=np.int64)
        np.cumsum(counts_matrix, axis=1, out=offsets[:, 1:])
        # The disk form of recv_data[dst]: every source's segment for dst,
        # in source-rank order — byte-identical to the in-memory gather.
        for dst in range(p):
            segs = [send_data[src][offsets[src, dst] : offsets[src, dst + 1]] for src in range(p)]
            self.spool.write_partition(label, dst, segs)
            if send_lengths is not None:
                lens = [send_lengths[src][offsets[src, dst] : offsets[src, dst + 1]] for src in range(p)]
                self.spool.write_partition(label, dst, lens, lens=True)
        _spill_counter("spill_partitions_total", "Exchange partitions spooled to disk", p)
        recv_data = []
        if ctx.verifies:
            recv_data = [
                self.spool.map_partition(label, dst, send_data[0].dtype, account=False) for dst in range(p)
            ]
        return recv_data, None, counts_matrix


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
