"""Segmented counting hash table: every rank's table in one allocation.

The staged engine gives each simulated rank its own
:class:`~repro.gpu.hashtable.DeviceHashTable`, so a superstep's count
phase performs P independent probe loops over small arrays.  The fused
engine (:mod:`repro.core.stages.fused`) instead keeps all P tables in a
single pair of flat ``keys``/``counts`` arrays partitioned into
power-of-two *regions*::

    slot(key, rank) = region_base[rank] + (hash(key) & rank_mask[rank])

and runs the vectorized probe rounds over every rank's pending keys at
once.  Because regions are disjoint, rounds of the fused loop perform
exactly the same slot reads/writes as the per-rank loops would, so probe
counts, CAS conflicts, claimed slots, and the final layout are
bit-identical to running :meth:`DeviceHashTable.insert_batch` rank by
rank — the claim winner for a contested slot is decided among keys of a
single rank either way (see ``_insert_unique_flat``).

``from_tables`` adopts existing per-rank tables by copying their
key/count layout verbatim, so switching an in-flight
:class:`~repro.core.stages.scheduler.PipelineState` between staged and
fused execution cannot perturb future probe statistics.

**File-backed mode** (``table_dir=``): the keys/counts slabs become
``np.memmap`` files in a private directory, so a table can exceed the
anonymous-memory the process is allowed (the BSC NVM fast-storage layout,
PAPERS.md).  ``np.memmap`` is an ``ndarray`` subclass, so every probe,
insert, regrow, and merge runs the identical NumPy operations on the
identical values — observables are bit-identical to the in-RAM table;
only the backing store changes.  Regrows write a new slab *generation*
before the old mappings are dropped (the region copy still reads them),
then unlink the superseded files.
"""

from __future__ import annotations

import shutil
import tempfile
import weakref
from pathlib import Path

import numpy as np

from ..hashing.murmur3 import hash_kmers_batch
from ..telemetry import active
from .hashtable import EMPTY_KEY, PROBING_SCHEMES, DeviceHashTable, InsertStats

__all__ = ["SegmentedHashTable", "SegmentedRankView"]

#: The fused probe loop gathers/scatters randomly within each rank's
#: region.  Spanning all P regions at once blows the cache, so inserts run
#: over blocks of whole ranks whose regions total roughly this many bytes;
#: regions are disjoint, so any grouping of whole ranks is bit-identical.
INSERT_BLOCK_BYTES = 1 << 21


class SegmentedHashTable:
    """All ranks' counting tables in one keys/counts allocation."""

    def __init__(
        self,
        capacity_hints: list[int] | np.ndarray,
        *,
        seed: int = 0,
        max_load_factor: float = 0.7,
        probing: str = "linear",
        table_dir: str | Path | None = None,
    ) -> None:
        if not 0.1 <= max_load_factor < 1.0:
            raise ValueError("max_load_factor must be in [0.1, 1.0)")
        if probing not in PROBING_SCHEMES:
            raise ValueError(f"probing must be one of {PROBING_SCHEMES}, got {probing!r}")
        self.seed = seed
        self.max_load_factor = max_load_factor
        self.probing = probing
        self._init_backing(table_dir)
        caps = []
        for hint in capacity_hints:
            if hint < 1:
                raise ValueError("capacity_hint must be positive")
            # Same growth rule as DeviceHashTable.__init__.
            capacity = 1
            while capacity * max_load_factor < hint or capacity < 64:
                capacity *= 2
            caps.append(capacity)
        self._layout(np.asarray(caps, dtype=np.int64))
        self.n_entries_per_rank = np.zeros(self.n_ranks, dtype=np.int64)

    def _init_backing(self, table_dir: str | Path | None) -> None:
        """Choose the slab store: anonymous arrays or memmap files."""
        self._table_dir: Path | None = None
        self._generation = 0
        self._slab_paths: tuple[Path, ...] = ()
        self._finalizer = None
        if table_dir is not None:
            base = Path(table_dir)
            base.mkdir(parents=True, exist_ok=True)
            self._table_dir = Path(tempfile.mkdtemp(prefix="table-", dir=base))
            self._finalizer = weakref.finalize(self, shutil.rmtree, self._table_dir, True)

    def _layout(self, capacities: np.ndarray) -> None:
        self.capacities = capacities
        self.region_base = np.zeros(capacities.shape[0] + 1, dtype=np.int64)
        np.cumsum(capacities, out=self.region_base[1:])
        self._base_u64 = self.region_base[:-1].astype(np.uint64)
        self._masks = (capacities - 1).astype(np.uint64)
        total = int(self.region_base[-1])
        if self._table_dir is None or total == 0:
            self.keys = np.full(total, EMPTY_KEY, dtype=np.uint64)
            self.counts = np.zeros(total, dtype=np.int64)
            return
        # File-backed slabs.  Each layout writes a fresh generation: a
        # _regrow caller still holds the previous arrays while regions copy
        # across, so the old maps must stay valid.  The superseded files
        # are unlinked immediately — on POSIX the live mappings keep their
        # data reachable until the arrays are dropped.
        stale = self._slab_paths
        gen = self._generation
        self._generation += 1
        kpath = self._table_dir / f"keys.g{gen}.bin"
        cpath = self._table_dir / f"counts.g{gen}.bin"
        self.keys = np.memmap(kpath, dtype=np.uint64, mode="w+", shape=(total,))
        self.keys[:] = EMPTY_KEY
        self.counts = np.memmap(cpath, dtype=np.int64, mode="w+", shape=(total,))
        self._slab_paths = (kpath, cpath)
        for path in stale:
            path.unlink(missing_ok=True)

    @property
    def backing_dir(self) -> Path | None:
        """The private slab directory of a file-backed table (else ``None``)."""
        return self._table_dir

    def close(self) -> None:
        """Remove a file-backed table's slab directory (in-RAM: no-op).

        Existing array references stay readable (POSIX keeps unlinked
        mapped data alive), but the disk space is reclaimed now instead of
        at garbage collection, which also runs this via a finalizer.
        """
        if self._finalizer is not None:
            self._finalizer()

    @classmethod
    def from_tables(
        cls, tables: list[DeviceHashTable], *, table_dir: str | Path | None = None
    ) -> "SegmentedHashTable":
        """Adopt per-rank tables, preserving each one's slot layout exactly."""
        if not tables:
            raise ValueError("need at least one table")
        first = tables[0]
        for t in tables:
            if (t.seed, t.max_load_factor, t.probing) != (
                first.seed,
                first.max_load_factor,
                first.probing,
            ):
                raise ValueError("per-rank tables disagree on seed/load-factor/probing")
        self = cls.__new__(cls)
        self.seed = first.seed
        self.max_load_factor = first.max_load_factor
        self.probing = first.probing
        self._init_backing(table_dir)
        self._layout(np.asarray([t.capacity for t in tables], dtype=np.int64))
        self.n_entries_per_rank = np.asarray([t.n_entries for t in tables], dtype=np.int64)
        for r, t in enumerate(tables):
            lo, hi = int(self.region_base[r]), int(self.region_base[r + 1])
            self.keys[lo:hi] = t.keys
            self.counts[lo:hi] = t.counts
        return self

    # -- properties --------------------------------------------------

    @property
    def n_ranks(self) -> int:
        return int(self.capacities.shape[0])

    @property
    def table_bytes(self) -> int:
        return int(self.keys.nbytes + self.counts.nbytes)

    @staticmethod
    def of_views(tables: list) -> "SegmentedHashTable | None":
        """The table whose rank views, in rank order, are exactly ``tables``."""
        if not tables or not all(isinstance(t, SegmentedRankView) for t in tables):
            return None
        parent = tables[0]._parent
        if len(tables) != parent.n_ranks:
            return None
        if all(t._parent is parent and t.rank == r for r, t in enumerate(tables)):
            return parent
        return None

    def view(self, rank: int) -> "SegmentedRankView":
        return SegmentedRankView(self, rank)

    def views(self) -> list["SegmentedRankView"]:
        return [SegmentedRankView(self, r) for r in range(self.n_ranks)]

    def items_of(self, rank: int) -> tuple[np.ndarray, np.ndarray]:
        """Rank's (key, count) pairs sorted by key (as ``DeviceHashTable.items``)."""
        lo, hi = int(self.region_base[rank]), int(self.region_base[rank + 1])
        used = lo + np.flatnonzero(self.keys[lo:hi] != EMPTY_KEY)
        keys = self.keys[used]
        counts = self.counts[used]
        order = np.argsort(keys)
        return keys[order], counts[order]

    def items_flat(self) -> tuple[np.ndarray, np.ndarray]:
        """All ranks' (key, count) pairs in one storage pass, slot order.

        The union of the per-rank ``items_of`` sets without their per-rank
        key sorts — for consumers that aggregate globally (the spectrum
        merge re-sorts anyway).
        """
        used = np.flatnonzero(self.keys != EMPTY_KEY)
        return self.keys[used], self.counts[used]

    # -- probing -----------------------------------------------------

    def _local_slots(self, base: np.ndarray, stride: np.ndarray, masks: np.ndarray, probe_no: int) -> np.ndarray:
        i = np.uint64(probe_no)
        if self.probing == "linear":
            return (base + i) & masks
        if self.probing == "quadratic":
            return (base + (i * (i + np.uint64(1))) // np.uint64(2)) & masks
        return (base + i * stride) & masks

    def _strides(self, uniq: np.ndarray, masks: np.ndarray) -> np.ndarray:
        if self.probing != "double":
            return np.ones(uniq.shape[0], dtype=np.uint64)
        return (hash_kmers_batch(uniq, seed=self.seed + 0x9E3779B9) | np.uint64(1)) & masks

    # -- operations --------------------------------------------------

    def insert_flat(
        self,
        values: np.ndarray,
        seg_offsets: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> list[InsertStats]:
        """Insert one rank-segmented flat batch; per-rank probe statistics.

        ``values[seg_offsets[r]:seg_offsets[r+1]]`` are rank ``r``'s keys.
        Equivalent (bit-for-bit, including telemetry totals) to calling
        ``DeviceHashTable.insert_batch`` on each rank's segment in rank
        order; ranks with empty segments contribute ``InsertStats.zero()``
        and no telemetry, exactly as the staged path skips their insert.
        """
        p = self.n_ranks
        offs = np.asarray(seg_offsets, dtype=np.int64)
        if offs.shape[0] != p + 1:
            raise ValueError("seg_offsets must have n_ranks + 1 entries")
        vals = np.ascontiguousarray(values, dtype=np.uint64)
        if int(offs[-1]) != vals.shape[0]:
            raise ValueError("seg_offsets do not span the value array")
        if vals.size == 0:
            return [InsertStats.zero() for _ in range(p)]
        if bool((vals == EMPTY_KEY).any()):
            raise ValueError("key equal to the EMPTY sentinel cannot be stored (need k <= 31)")

        seg_lens = np.diff(offs)
        wts = None
        if weights is not None:
            wts = np.ascontiguousarray(weights, dtype=np.int64)
            if wts.shape != vals.shape:
                raise ValueError("weights must parallel values")
            if wts.size and int(wts.min()) < 1:
                raise ValueError("weights must be >= 1")

        # Per-rank dedup: each rank's segment is already contiguous, so run
        # exactly the np.unique aggregation the per-rank tables run.
        uniq_parts: list[np.ndarray] = []
        w_parts: list[np.ndarray] = []
        distinct_in_batch = np.zeros(p, dtype=np.int64)
        for r in range(p):
            lo, hi = int(offs[r]), int(offs[r + 1])
            if hi == lo:
                continue
            if wts is None:
                uniq_r, w_r = np.unique(vals[lo:hi], return_counts=True)
                w_r = w_r.astype(np.int64)
            else:
                uniq_r, inverse = np.unique(vals[lo:hi], return_inverse=True)
                w_r = np.bincount(inverse, weights=wts[lo:hi]).astype(np.int64)
            uniq_parts.append(uniq_r)
            w_parts.append(w_r)
            distinct_in_batch[r] = uniq_r.shape[0]
        uniq = np.concatenate(uniq_parts) if len(uniq_parts) > 1 else uniq_parts[0]
        w = np.concatenate(w_parts) if len(w_parts) > 1 else w_parts[0]
        useg = np.repeat(np.arange(p, dtype=np.int64), distinct_in_batch)

        inst_per_rank = np.bincount(useg, weights=w, minlength=p).astype(np.int64)

        # Capacity pre-check per rank (DeviceHashTable.insert_batch's resize
        # loop); grown regions are re-laid-out once into their final size,
        # which matches repeated doubling because every intermediate rehash
        # re-inserts the same sorted item set.
        resizes = np.zeros(p, dtype=np.int64)
        new_caps = self.capacities.copy()
        need = self.n_entries_per_rank + distinct_in_batch
        for r in np.flatnonzero(need > new_caps * self.max_load_factor):
            while need[r] > new_caps[r] * self.max_load_factor:
                new_caps[r] *= 2
                resizes[r] += 1
        if resizes.any():
            self._regrow(new_caps)

        # Insert cache-sized blocks of whole ranks (see INSERT_BLOCK_BYTES).
        # ``uniq`` is (rank, key)-sorted, so each block is one slice.
        probes = np.empty(uniq.shape[0], dtype=np.int64)
        new_per_rank = np.zeros(p, dtype=np.int64)
        conflicts_per_rank = np.zeros(p, dtype=np.int64)
        rounds_per_rank = np.zeros(p, dtype=np.int64)
        region_bytes = self.capacities * 16  # uint64 keys + int64 counts
        r0 = 0
        while r0 < p:
            r1 = r0 + 1
            total_bytes = int(region_bytes[r0])
            while r1 < p and total_bytes + int(region_bytes[r1]) <= INSERT_BLOCK_BYTES:
                total_bytes += int(region_bytes[r1])
                r1 += 1
            lo, hi = np.searchsorted(useg, [r0, r1], side="left")
            if hi > lo:
                bp, bn, bc, br = self._insert_unique_flat(uniq[lo:hi], useg[lo:hi], w[lo:hi])
                probes[lo:hi] = bp
                new_per_rank += bn
                conflicts_per_rank += bc
                np.maximum(rounds_per_rank, br, out=rounds_per_rank)
            r0 = r1
        total_probes = np.bincount(useg, weights=probes * w, minlength=p).astype(np.int64)

        stats = [
            InsertStats(
                n_instances=int(inst_per_rank[r]),
                n_distinct=int(new_per_rank[r]),
                total_probes=int(total_probes[r]),
                max_probe=int(rounds_per_rank[r]),
                cas_conflicts=int(conflicts_per_rank[r]),
                rounds=int(rounds_per_rank[r]),
                resizes=int(resizes[r]),
            )
            if seg_lens[r]
            else InsertStats.zero()
            for r in range(p)
        ]

        reg = active()
        if reg is not None:
            nonempty = int((seg_lens > 0).sum())
            reg.counter("hashtable_inserts_total", "insert_batch calls").inc(nonempty)
            reg.counter("hashtable_instances_total", "k-mer instances inserted").inc(
                int(inst_per_rank.sum())
            )
            reg.counter("hashtable_distinct_total", "New distinct keys claimed").inc(
                int(new_per_rank.sum())
            )
            reg.counter("hashtable_cas_conflicts_total", "Lost atomicCAS claims").inc(
                int(conflicts_per_rank.sum())
            )
            reg.counter("hashtable_resizes_total", "Table growth events").inc(int(resizes.sum()))
            load_gauge = reg.gauge("hashtable_load_factor_max", "Peak table load factor")
            for r in np.flatnonzero(seg_lens > 0):
                load_gauge.set_max(self.n_entries_per_rank[r] / self.capacities[r])
            # One observe_many over the concatenation is exact: the bucket
            # adds are integers and every partial float sum of the integer
            # products stays below 2**53.
            reg.histogram(
                "hashtable_probe_length",
                "Probe-sequence length per inserted instance",
                buckets=(1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 128),
            ).observe_many(probes, w)
        return stats

    def _insert_unique_flat(
        self, uniq: np.ndarray, useg: np.ndarray, w: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Fused probe loop over every rank's pre-deduplicated keys.

        ``uniq`` is sorted by (rank, key).  A contested slot goes to its
        lowest-index claimant, found by a scatter-min (``np.minimum.at``)
        into scratch covering the block's regions.  Regions are
        slot-disjoint, so a contested slot only sees candidates from one
        rank, and within a rank the pending order is ascending-key — the
        order ``DeviceHashTable._insert_unique`` resolves claims in — so the
        winner is the per-rank winner.
        """
        p = self.n_ranks
        n = uniq.shape[0]
        key_masks = self._masks[useg]
        key_rbase = self._base_u64[useg]
        base = (hash_kmers_batch(uniq, seed=self.seed) & key_masks).astype(np.uint64)
        stride = self._strides(uniq, key_masks)
        pending = np.arange(n, dtype=np.int64)
        # A key's probe count is the round it finished in.
        probes = np.empty(n, dtype=np.int64)
        # Claim scratch over the slot window of the ranks in this call.
        lo_slot = int(self.region_base[useg[0]])
        first = np.empty(int(self.region_base[useg[-1] + 1]) - lo_slot, dtype=np.int64)
        claimed = np.zeros(n, dtype=bool)
        conflicts_per_rank = np.zeros(p, dtype=np.int64)
        guard = int(self.capacities.max()) + 1
        rounds = 0
        while pending.size:
            rounds += 1
            if rounds > guard:
                raise RuntimeError("hash table probe loop failed to terminate (table full?)")
            local = self._local_slots(base[pending], stride[pending], key_masks[pending], rounds - 1)
            s = (key_rbase[pending] + local).astype(np.int64)
            occupant = self.keys[s]
            vals = uniq[pending]

            done = occupant == vals
            hit = np.flatnonzero(done)
            self.counts[s[hit]] += w[pending[hit]]

            empty_idx = np.flatnonzero(occupant == EMPTY_KEY)
            if empty_idx.size:
                claim_slots = s[empty_idx] - lo_slot
                order = np.arange(empty_idx.shape[0], dtype=np.int64)
                first[claim_slots] = empty_idx.shape[0]
                np.minimum.at(first, claim_slots, order)
                won = first[claim_slots] == order
                winners = empty_idx[won]
                ws = s[winners]
                win_keys = pending[winners]
                # An empty slot's count is 0, so the claim stores the weight.
                self.keys[ws] = vals[winners]
                self.counts[ws] = w[win_keys]
                claimed[win_keys] = True
                done[winners] = True
                if winners.shape[0] < empty_idx.shape[0]:
                    losers = pending[empty_idx[~won]]
                    conflicts_per_rank += np.bincount(useg[losers], minlength=p)

            # Index arrays, not boolean masks: masked indexing is several
            # times slower on the random masks a probe round produces.
            probes[pending[np.flatnonzero(done)]] = rounds
            pending = pending[np.flatnonzero(~done)]

        new_per_rank = np.bincount(useg[claimed], minlength=p)
        self.n_entries_per_rank += new_per_rank
        rounds_per_rank = np.zeros(p, dtype=np.int64)
        np.maximum.at(rounds_per_rank, useg, probes)
        return probes, new_per_rank, conflicts_per_rank, rounds_per_rank

    def _regrow(self, new_caps: np.ndarray) -> None:
        """Re-layout with grown regions; unchanged regions copy verbatim."""
        old_base = self.region_base
        old_keys = self.keys
        old_counts = self.counts
        old_caps = self.capacities
        grown = np.flatnonzero(new_caps != old_caps)
        rehash = []
        for r in grown:
            lo, hi = int(old_base[r]), int(old_base[r + 1])
            used = lo + np.flatnonzero(old_keys[lo:hi] != EMPTY_KEY)
            keys = old_keys[used]
            counts = old_counts[used]
            order = np.argsort(keys)
            rehash.append((int(r), keys[order], counts[order]))
        self._layout(new_caps)
        keep = np.flatnonzero(new_caps == old_caps)
        for r in keep:
            olo, ohi = int(old_base[r]), int(old_base[r + 1])
            nlo, nhi = int(self.region_base[r]), int(self.region_base[r + 1])
            self.keys[nlo:nhi] = old_keys[olo:ohi]
            self.counts[nlo:nhi] = old_counts[olo:ohi]
        for r, keys, counts in rehash:
            self.n_entries_per_rank[r] = 0
            if keys.size:
                seg = np.full(keys.shape[0], r, dtype=np.int64)
                self._insert_unique_flat(keys, seg, counts)  # rehash; stats discarded

    def lookup_of(self, rank: int, values: np.ndarray) -> np.ndarray:
        """Counts stored for ``rank``'s keys (0 where absent)."""
        vals = np.ascontiguousarray(values, dtype=np.uint64)
        out = np.zeros(vals.shape[0], dtype=np.int64)
        if vals.size == 0:
            return out
        mask = self._masks[rank]
        rbase = self._base_u64[rank]
        base = (hash_kmers_batch(vals, seed=self.seed) & mask).astype(np.uint64)
        masks = np.full(vals.shape[0], mask, dtype=np.uint64)
        stride = self._strides(vals, masks)
        pending = np.arange(vals.shape[0], dtype=np.int64)
        for probe_no in range(int(self.capacities[rank]) + 1):
            if not pending.size:
                break
            local = self._local_slots(base[pending], stride[pending], masks[pending], probe_no)
            s = (rbase + local).astype(np.int64)
            occupant = self.keys[s]
            hit = occupant == vals[pending]
            found = np.flatnonzero(hit)
            out[pending[found]] = self.counts[s[found]]
            pending = pending[np.flatnonzero(~hit & (occupant != EMPTY_KEY))]
        return out


class SegmentedRankView:
    """One rank's window onto a :class:`SegmentedHashTable`.

    Duck-types the parts of :class:`DeviceHashTable` the engine touches
    after counting (merge, checkpointing, end-of-run telemetry), so a
    :class:`~repro.core.stages.scheduler.PipelineState` can carry these
    in ``state.tables`` transparently.
    """

    def __init__(self, parent: SegmentedHashTable, rank: int) -> None:
        self._parent = parent
        self.rank = rank

    @property
    def seed(self) -> int:
        return self._parent.seed

    @property
    def max_load_factor(self) -> float:
        return self._parent.max_load_factor

    @property
    def probing(self) -> str:
        return self._parent.probing

    @property
    def capacity(self) -> int:
        return int(self._parent.capacities[self.rank])

    @property
    def n_entries(self) -> int:
        return int(self._parent.n_entries_per_rank[self.rank])

    @property
    def load_factor(self) -> float:
        return self.n_entries / self.capacity

    @property
    def table_bytes(self) -> int:
        return self.capacity * (np.dtype(np.uint64).itemsize + np.dtype(np.int64).itemsize)

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        return self._parent.items_of(self.rank)

    def lookup_batch(self, values: np.ndarray) -> np.ndarray:
        return self._parent.lookup_of(self.rank, values)

    def insert_batch(
        self, values: np.ndarray, weights: np.ndarray | None = None, *, assume_unique: bool = False
    ) -> InsertStats:
        """Insert through the parent (a staged batch after a fused one)."""
        parent = self._parent
        offs = np.zeros(parent.n_ranks + 1, dtype=np.int64)
        offs[self.rank + 1 :] = np.asarray(values).shape[0]
        return parent.insert_flat(values, offs, weights=weights)[self.rank]
