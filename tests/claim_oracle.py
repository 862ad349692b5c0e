"""Reference claim resolution and spectrum merge for the count-layer tests.

The hash tables resolve each probe round's atomicCAS claims with a
scatter-min over a slot-indexed scratch array, and the spectrum merge sums
duplicates after one sort.  This module keeps the rules they replaced,
written out independently, so the tests can compare every observable of
the fast code against them:

* :class:`OracleHashTable` is a :class:`DeviceHashTable` whose probe loop
  carries a per-key probe index, picks each slot's winner with
  ``np.unique(claim_slots, return_index=True)`` (the first claimant in
  ascending-key order), and re-reads the slots to see which keys are still
  pending;
* :func:`oracle_merge` aggregates with ``np.unique(return_inverse=True)``
  and a float64 ``bincount``.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.hashtable import EMPTY_KEY, DeviceHashTable, InsertStats
from repro.hashing.murmur3 import hash_kmers_batch
from repro.telemetry import MetricRegistry, session


class OracleHashTable(DeviceHashTable):
    """:class:`DeviceHashTable` with the ``np.unique`` claim winner rule."""

    def _oracle_slots(self, base: np.ndarray, stride: np.ndarray, probe_no: np.ndarray) -> np.ndarray:
        i = probe_no.astype(np.uint64)
        if self.probing == "linear":
            return (base + i) & self._mask
        if self.probing == "quadratic":
            return (base + (i * (i + np.uint64(1))) // np.uint64(2)) & self._mask
        return (base + i * stride) & self._mask

    def _insert_unique(self, uniq: np.ndarray, w: np.ndarray) -> tuple[InsertStats, np.ndarray]:
        base = (hash_kmers_batch(uniq, seed=self.seed) & self._mask).astype(np.uint64)
        if self.probing == "double":
            stride = (hash_kmers_batch(uniq, seed=self.seed + 0x9E3779B9) | np.uint64(1)) & self._mask
        else:
            stride = np.ones(uniq.shape[0], dtype=np.uint64)
        probe_no = np.zeros(uniq.shape[0], dtype=np.int64)
        pending = np.arange(uniq.shape[0], dtype=np.int64)
        probes = np.ones(uniq.shape[0], dtype=np.int64)
        new_keys = 0
        conflicts = 0
        rounds = 0
        while pending.size:
            rounds += 1
            assert rounds <= self.capacity + 1, "oracle probe loop did not terminate"
            s = self._oracle_slots(base[pending], stride[pending], probe_no[pending])
            occupant = self.keys[s]
            vals = uniq[pending]
            hit = occupant == vals
            self.counts[s[hit]] += w[pending[hit]]
            empty = occupant == EMPTY_KEY
            if empty.any():
                empty_idx = np.flatnonzero(empty)
                _, first = np.unique(s[empty_idx], return_index=True)
                winners = empty_idx[first]
                self.keys[s[winners]] = vals[winners]
                self.counts[s[winners]] += w[pending[winners]]
                new_keys += winners.shape[0]
                conflicts += int(empty_idx.shape[0] - winners.shape[0])
            still = self.keys[s] != vals
            nxt = pending[still]
            probe_no[nxt] += 1
            probes[nxt] += 1
            pending = nxt
        self._n_entries += new_keys
        stats = InsertStats(
            n_instances=0,
            n_distinct=new_keys,
            total_probes=int((probes * w).sum()),
            max_probe=int(probes.max(initial=0)),
            cas_conflicts=conflicts,
            rounds=rounds,
            resizes=0,
        )
        return stats, probes


def run_inserts(table, batches, weights=None) -> tuple[list[InsertStats], dict]:
    """Insert each batch into ``table`` under a fresh registry.

    Returns the per-call :class:`InsertStats` and the telemetry snapshot
    (model metrics only).
    """
    reg = MetricRegistry()
    stats = []
    with session(reg):
        for i, batch in enumerate(batches):
            w = None if weights is None else weights[i]
            stats.append(table.insert_batch(batch, weights=w))
    return stats, reg.snapshot(include_wall=False)


def oracle_merge(pairs: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Spectrum of per-rank ``(keys, counts)`` pairs: ``np.unique`` + bincount."""
    keys = np.concatenate([k for k, _ in pairs]).astype(np.uint64)
    counts = np.concatenate([c for _, c in pairs])
    uniq, inverse = np.unique(keys, return_inverse=True)
    return uniq, np.bincount(inverse, weights=counts, minlength=uniq.shape[0]).astype(np.int64)
