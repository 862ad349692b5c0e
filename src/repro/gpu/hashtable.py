"""Open-addressing, linear-probing counting hash table ("device" side).

This is the paper's k-mer counter data structure (Section III-B3): keys find
slots via MurmurHash3, collisions resolve by linear probing, and inserts /
increments happen with atomic operations.  The GPU executes one logical
thread per received k-mer; here the same algorithm runs as *rounds* of
vectorized probes in which concurrent atomicCAS claims on the same slot are
resolved exactly like the hardware would (one winner per slot per round,
losers re-probe).  The winner of a contested slot is its lowest-index
claimant, found in O(n) by a scatter-min (``np.minimum.at``) into a
slot-indexed scratch array; pending keys are in ascending key order, so
that is the smallest contending key.

Duplicate keys inside a batch are pre-aggregated (``np.unique``) before
probing; that changes no observable state and the probe statistics are
re-weighted by multiplicity so the cost model still sees per-instance work.

Probe statistics (total/max probe distance, CAS conflicts) feed the kernel
cost model; correctness (exact counts) is asserted against the single-node
oracle in the tests.

Keys must be < 2**64 - 1 (the empty-slot sentinel); packed k-mers satisfy
this whenever k <= 31.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hashing.murmur3 import hash_kmers_batch
from ..telemetry import active

__all__ = ["EMPTY_KEY", "InsertStats", "DeviceHashTable"]

#: Slot-empty sentinel (all ones).  k <= 31 packed k-mers can never equal it.
EMPTY_KEY: np.uint64 = np.uint64(0xFFFFFFFFFFFFFFFF)


@dataclass(frozen=True)
class InsertStats:
    """Work performed by one ``insert_batch`` call.

    ``total_probes`` counts slot inspections weighted by key multiplicity
    (what the per-instance GPU threads would have done); ``cas_conflicts``
    counts lost claim attempts, the serialization the cost model charges.
    """

    n_instances: int
    n_distinct: int
    total_probes: int
    max_probe: int
    cas_conflicts: int
    rounds: int
    resizes: int

    @property
    def mean_probes(self) -> float:
        return self.total_probes / self.n_instances if self.n_instances else 0.0

    def combined(self, other: "InsertStats") -> "InsertStats":
        return InsertStats(
            n_instances=self.n_instances + other.n_instances,
            n_distinct=self.n_distinct + other.n_distinct,
            total_probes=self.total_probes + other.total_probes,
            max_probe=max(self.max_probe, other.max_probe),
            cas_conflicts=self.cas_conflicts + other.cas_conflicts,
            rounds=max(self.rounds, other.rounds),
            resizes=self.resizes + other.resizes,
        )

    @classmethod
    def zero(cls) -> "InsertStats":
        return cls(0, 0, 0, 0, 0, 0, 0)


#: Supported probe sequences (Section III-B3: "a probe sequence (linear,
#: quadratic, etc).  In this work, we use linear probing").
PROBING_SCHEMES = ("linear", "quadratic", "double")


class DeviceHashTable:
    """Counting hash table with open addressing and emulated atomics.

    ``probing`` selects the collision-resolution sequence:

    * ``"linear"`` (the paper's choice): slot, slot+1, slot+2, ...
    * ``"quadratic"`` (triangular offsets ``i(i+1)/2``, which visit every
      slot of a power-of-two table exactly once);
    * ``"double"``: double hashing with an odd per-key stride (odd strides
      are units mod 2^n, so the sequence also covers the whole table).
    """

    def __init__(
        self,
        capacity_hint: int = 64,
        *,
        seed: int = 0,
        max_load_factor: float = 0.7,
        probing: str = "linear",
    ) -> None:
        if capacity_hint < 1:
            raise ValueError("capacity_hint must be positive")
        if not 0.1 <= max_load_factor < 1.0:
            raise ValueError("max_load_factor must be in [0.1, 1.0)")
        if probing not in PROBING_SCHEMES:
            raise ValueError(f"probing must be one of {PROBING_SCHEMES}, got {probing!r}")
        self.seed = seed
        self.max_load_factor = max_load_factor
        self.probing = probing
        capacity = 1
        while capacity * max_load_factor < capacity_hint or capacity < 64:
            capacity *= 2
        self._alloc(capacity)
        self._n_entries = 0

    def _probe_slots(self, base: np.ndarray, stride: np.ndarray, probe_no: int) -> np.ndarray:
        """Slot of each key's probe number ``probe_no`` (0-based; every key
        still pending in a probe round is on the same probe)."""
        i = np.uint64(probe_no)
        if self.probing == "linear":
            return (base + i) & self._mask
        if self.probing == "quadratic":
            return (base + (i * (i + np.uint64(1))) // np.uint64(2)) & self._mask
        return (base + i * stride) & self._mask

    def _strides(self, uniq: np.ndarray) -> np.ndarray:
        """Per-key probe stride (only used by double hashing; odd => coprime
        with the power-of-two capacity)."""
        if self.probing != "double":
            return np.ones(uniq.shape[0], dtype=np.uint64)
        return (hash_kmers_batch(uniq, seed=self.seed + 0x9E3779B9) | np.uint64(1)) & self._mask

    def _alloc(self, capacity: int) -> None:
        self.capacity = capacity
        self._mask = np.uint64(capacity - 1)
        self.keys = np.full(capacity, EMPTY_KEY, dtype=np.uint64)
        self.counts = np.zeros(capacity, dtype=np.int64)

    # -- properties --------------------------------------------------------

    @property
    def n_entries(self) -> int:
        """Number of distinct keys stored."""
        return self._n_entries

    @property
    def load_factor(self) -> float:
        return self._n_entries / self.capacity

    @property
    def table_bytes(self) -> int:
        """Device memory footprint (keys + counts arrays)."""
        return int(self.keys.nbytes + self.counts.nbytes)

    # -- operations ----------------------------------------------------------

    def insert_batch(
        self,
        values: np.ndarray,
        weights: np.ndarray | None = None,
        *,
        assume_unique: bool = False,
    ) -> InsertStats:
        """Insert/increment a batch of keys; returns probe statistics.

        ``assume_unique=True`` skips the ``np.unique`` aggregation for
        callers that already hold strictly-increasing keys with
        pre-aggregated weights (spectrum merges, checkpoint reload); the
        ordering is verified in O(n) and violations raise.
        """
        vals = np.ascontiguousarray(values, dtype=np.uint64)
        if vals.size == 0:
            return InsertStats.zero()
        if bool((vals == EMPTY_KEY).any()):
            raise ValueError("key equal to the EMPTY sentinel cannot be stored (need k <= 31)")
        if assume_unique:
            if vals.shape[0] > 1 and not bool((vals[1:] > vals[:-1]).all()):
                raise ValueError("assume_unique requires strictly increasing keys")
            uniq = vals
            if weights is None:
                w = np.ones(vals.shape[0], dtype=np.int64)
            else:
                w = np.ascontiguousarray(weights, dtype=np.int64)
                if w.shape != vals.shape:
                    raise ValueError("weights must parallel values")
                if int(w.min()) < 1:
                    raise ValueError("weights must be >= 1")
        elif weights is None:
            uniq, w = np.unique(vals, return_counts=True)
            w = w.astype(np.int64)
        else:
            wts = np.ascontiguousarray(weights, dtype=np.int64)
            if wts.shape != vals.shape:
                raise ValueError("weights must parallel values")
            if wts.size and int(wts.min()) < 1:
                raise ValueError("weights must be >= 1")
            uniq, inverse = np.unique(vals, return_inverse=True)
            w = np.bincount(inverse, weights=wts).astype(np.int64)
        n_instances = int(w.sum())

        resizes = 0
        while self._n_entries + uniq.shape[0] > self.capacity * self.max_load_factor:
            self._resize()
            resizes += 1

        stats, probes = self._insert_unique(uniq, w)
        reg = active()
        if reg is not None:
            # All commutative operations — identical totals whatever order the
            # rank worker threads interleave their inserts in.
            reg.counter("hashtable_inserts_total", "insert_batch calls").inc()
            reg.counter("hashtable_instances_total", "k-mer instances inserted").inc(n_instances)
            reg.counter("hashtable_distinct_total", "New distinct keys claimed").inc(stats.n_distinct)
            reg.counter("hashtable_cas_conflicts_total", "Lost atomicCAS claims").inc(stats.cas_conflicts)
            reg.counter("hashtable_resizes_total", "Table growth events").inc(resizes)
            reg.gauge("hashtable_load_factor_max", "Peak table load factor").set_max(self.load_factor)
            reg.histogram(
                "hashtable_probe_length",
                "Probe-sequence length per inserted instance",
                buckets=(1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 128),
            ).observe_many(probes, w)
        return InsertStats(
            n_instances=n_instances,
            n_distinct=stats.n_distinct,
            total_probes=stats.total_probes,
            max_probe=stats.max_probe,
            cas_conflicts=stats.cas_conflicts,
            rounds=stats.rounds,
            resizes=resizes,
        )

    def _insert_unique(self, uniq: np.ndarray, w: np.ndarray) -> tuple[InsertStats, np.ndarray]:
        """Insert pre-deduplicated keys with weights; core probe loop.

        Returns the stats plus the per-unique-key probe counts (parallel to
        ``uniq``), which feed the telemetry probe-length histogram.
        """
        n = uniq.shape[0]
        base = (hash_kmers_batch(uniq, seed=self.seed) & self._mask).astype(np.uint64)
        stride = self._strides(uniq)
        pending = np.arange(n, dtype=np.int64)
        # A key's probe count is the round it finished in.
        probes = np.empty(n, dtype=np.int64)
        # Claim scratch: first[slot] = lowest index of a claimant of slot.
        first = np.empty(self.capacity, dtype=np.int64)
        new_keys = 0
        conflicts = 0
        rounds = 0
        while pending.size:
            rounds += 1
            if rounds > self.capacity + 1:
                raise RuntimeError("hash table probe loop failed to terminate (table full?)")
            s = self._probe_slots(base[pending], stride[pending], rounds - 1).astype(np.int64)
            occupant = self.keys[s]
            vals = uniq[pending]

            # Hit: occupant already equals our key -> atomic count increment.
            done = occupant == vals
            hit = np.flatnonzero(done)
            self.counts[s[hit]] += w[pending[hit]]

            # Claim: empty slot -> atomicCAS; the lowest-index claimant per
            # slot (pending is ascending, so the smallest key) wins.
            empty_idx = np.flatnonzero(occupant == EMPTY_KEY)
            if empty_idx.size:
                claim_slots = s[empty_idx]
                order = np.arange(empty_idx.shape[0], dtype=np.int64)
                first[claim_slots] = empty_idx.shape[0]
                np.minimum.at(first, claim_slots, order)
                winners = empty_idx[first[claim_slots] == order]
                ws = s[winners]
                # An empty slot's count is 0, so the claim stores the weight.
                self.keys[ws] = vals[winners]
                self.counts[ws] = w[pending[winners]]
                done[winners] = True
                new_keys += winners.shape[0]
                conflicts += int(empty_idx.shape[0] - winners.shape[0])

            # Claims are distinct keys in distinct slots, so everything not
            # hit or won now sees a different key and keeps probing.
            # Index arrays, not boolean masks: masked indexing is several
            # times slower on the random masks a probe round produces.
            probes[pending[np.flatnonzero(done)]] = rounds
            pending = pending[np.flatnonzero(~done)]

        self._n_entries += new_keys
        stats = InsertStats(
            n_instances=0,  # caller fills
            n_distinct=new_keys,
            total_probes=int((probes * w).sum()),
            max_probe=int(probes.max(initial=0)),
            cas_conflicts=conflicts,
            rounds=rounds,
            resizes=0,
        )
        return stats, probes

    def lookup_batch(self, values: np.ndarray) -> np.ndarray:
        """Counts for a batch of keys (0 where absent)."""
        vals = np.ascontiguousarray(values, dtype=np.uint64)
        out = np.zeros(vals.shape[0], dtype=np.int64)
        if vals.size == 0:
            return out
        base = (hash_kmers_batch(vals, seed=self.seed) & self._mask).astype(np.uint64)
        stride = self._strides(vals)
        pending = np.arange(vals.shape[0], dtype=np.int64)
        for probe_no in range(self.capacity + 1):
            if not pending.size:
                break
            s = self._probe_slots(base[pending], stride[pending], probe_no)
            occupant = self.keys[s]
            hit = occupant == vals[pending]
            found = np.flatnonzero(hit)
            out[pending[found]] = self.counts[s[found]]
            # Missing keys terminate at the first empty slot.
            pending = pending[np.flatnonzero(~hit & (occupant != EMPTY_KEY))]
        return out

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """All (key, count) pairs, sorted by key."""
        used = np.flatnonzero(self.keys != EMPTY_KEY)
        keys = self.keys[used]
        counts = self.counts[used]
        order = np.argsort(keys)
        return keys[order], counts[order]

    def _resize(self) -> None:
        keys, counts = self.items()
        self._alloc(self.capacity * 2)
        self._n_entries = 0
        if keys.size:
            self._insert_unique(keys, counts)  # rehash; returned stats discarded
