"""Supermer construction (Algorithm 2) and the supermer wire codec.

A *supermer* is a maximal run of consecutive k-mers sharing the same
minimizer, stored once as ``n_kmers + k - 1`` bases instead of ``n_kmers``
separate k-mers (Section IV-A).  The paper builds supermers on the GPU by
splitting each read into fixed-size *windows* of k-mer positions and letting
one logical thread scan each window sequentially (Section IV-B) — this caps
supermer length at the window size (so each supermer packs into one 64-bit
word; Section IV-C uses window 15 with k = 17, i.e. <= 31 bases <= 62 bits)
and removes inter-thread communication at the cost of splitting some
supermers at window boundaries.

Boundary rule, identical in the scalar reference and the vectorized builder
(both follow Algorithm 2): a new supermer starts at a k-mer position iff

* the position is the first of its window (``rel_pos % window == 0``), or
* the previous k-mer position is invalid (read start, or an N/sentinel
  window), or
* the k-mer's minimizer *value* differs from the previous k-mer's.

The wire format ships each supermer as one packed 64-bit word plus one
length byte ("this approach requires an extra byte of communication to
identify the length of each supermer", Section V-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..dna.alphabet import SENTINEL, MinimizerOrdering, get_ordering
from ..dna.encoding import codes_to_string, string_to_codes
from ..dna.reads import ReadSet
from .extract import pack_windows
from .minimizers import minimizer_scalar, minimizers_for_windows

__all__ = [
    "SUPERMER_LENGTH_BYTES",
    "SUPERMER_WORD_BYTES",
    "max_window_for",
    "SupermerBatch",
    "build_supermers",
    "build_supermers_with_positions",
    "build_supermers_scalar",
    "extract_kmers_from_packed",
]

#: Extra per-supermer communication to carry its length (Section V-D).
SUPERMER_LENGTH_BYTES: int = 1

#: A packed supermer travels as one 64-bit machine word.
SUPERMER_WORD_BYTES: int = 8


def max_window_for(k: int) -> int:
    """Largest window so every supermer (window + k - 1 bases) packs in 64 bits."""
    if not 2 <= k <= 31:
        raise ValueError("supermer packing needs 2 <= k <= 31")
    return 32 - k + 1


@dataclass(frozen=True)
class SupermerBatch:
    """A batch of packed supermers with their metadata.

    Parallel arrays, one entry per supermer:

    ``packed``
        uint64; the supermer's bases 2-bit packed, first base in the most
        significant occupied field (right-aligned, like packed k-mers);
    ``n_kmers``
        int32; how many k-mers the supermer carries (Algorithm 2's ``slen``
        is the base count — recoverable as ``n_kmers + k - 1``);
    ``minimizers``
        uint64; the shared minimizer m-mer value, which determines the
        destination rank.
    """

    k: int
    packed: np.ndarray
    n_kmers: np.ndarray
    minimizers: np.ndarray

    def __post_init__(self) -> None:
        packed = np.ascontiguousarray(self.packed, dtype=np.uint64)
        n_kmers = np.ascontiguousarray(self.n_kmers, dtype=np.int32)
        minimizers = np.ascontiguousarray(self.minimizers, dtype=np.uint64)
        if not (packed.shape == n_kmers.shape == minimizers.shape):
            raise ValueError("packed, n_kmers, minimizers must be parallel arrays")
        if n_kmers.size and int(n_kmers.min()) < 1:
            raise ValueError("every supermer must carry at least one k-mer")
        if n_kmers.size and int(n_kmers.max()) + self.k - 1 > 32:
            raise ValueError("supermer longer than 32 bases cannot be word-packed")
        object.__setattr__(self, "packed", packed)
        object.__setattr__(self, "n_kmers", n_kmers)
        object.__setattr__(self, "minimizers", minimizers)

    # -- shape/accounting ----------------------------------------------------

    def __len__(self) -> int:
        return int(self.packed.shape[0])

    @property
    def n_supermers(self) -> int:
        return len(self)

    @property
    def n_bases(self) -> np.ndarray:
        """Per-supermer base counts (= n_kmers + k - 1)."""
        return self.n_kmers.astype(np.int64) + (self.k - 1)

    @property
    def total_kmers(self) -> int:
        return int(self.n_kmers.sum(dtype=np.int64))

    @property
    def total_bases(self) -> int:
        return int(self.n_bases.sum())

    def wire_bytes(self) -> int:
        """Bytes to ship this batch: one word + one length byte per supermer."""
        return len(self) * (SUPERMER_WORD_BYTES + SUPERMER_LENGTH_BYTES)

    def mean_length(self) -> float:
        """Average supermer length in bases (the paper's ``s``)."""
        return float(self.n_bases.mean()) if len(self) else 0.0

    # -- codec ---------------------------------------------------------------

    def extract_kmers(self) -> np.ndarray:
        """Unpack every constituent k-mer, batch-vectorized.

        This is the destination-side parse of Algorithm 2's COUNTKMER.
        Returns a uint64 array of length :attr:`total_kmers`, grouped by
        supermer in order.
        """
        return extract_kmers_from_packed(self.packed, self.n_kmers, self.k)

    def supermer_string(self, i: int) -> str:
        """Decode supermer ``i`` to its base string (debug/inspection)."""
        b = int(self.n_kmers[i]) + self.k - 1
        value = int(self.packed[i])
        codes = np.empty(b, dtype=np.uint8)
        for j in range(b - 1, -1, -1):
            codes[j] = value & 3
            value >>= 2
        return codes_to_string(codes)

    # -- composition -----------------------------------------------------------

    def select(self, mask_or_index: np.ndarray) -> "SupermerBatch":
        """Sub-batch by boolean mask or index array."""
        return SupermerBatch(
            k=self.k,
            packed=self.packed[mask_or_index],
            n_kmers=self.n_kmers[mask_or_index],
            minimizers=self.minimizers[mask_or_index],
        )

    @classmethod
    def concat(cls, parts: Sequence["SupermerBatch"], k: int | None = None) -> "SupermerBatch":
        """Concatenate batches (they must share k)."""
        parts = [p for p in parts if len(p)]
        if not parts:
            if k is None:
                raise ValueError("cannot infer k from empty parts; pass k explicitly")
            e64 = np.empty(0, dtype=np.uint64)
            return cls(k=k, packed=e64, n_kmers=np.empty(0, dtype=np.int32), minimizers=e64.copy())
        kk = parts[0].k
        if any(p.k != kk for p in parts):
            raise ValueError("cannot concat supermer batches with different k")
        return cls(
            k=kk,
            packed=np.concatenate([p.packed for p in parts]),
            n_kmers=np.concatenate([p.n_kmers for p in parts]),
            minimizers=np.concatenate([p.minimizers for p in parts]),
        )

    @classmethod
    def empty(cls, k: int) -> "SupermerBatch":
        return cls.concat([], k=k)


def extract_kmers_from_packed(packed: np.ndarray, n_kmers: np.ndarray, k: int) -> np.ndarray:
    """Unpack constituent k-mers from packed supermer words (wire form).

    This is what a receiving rank runs on the raw ``(packed, lengths)``
    arrays that came off the exchange, before it ever rebuilds a
    :class:`SupermerBatch`: k-mer ``i`` of a supermer with ``b`` bases is
    bits ``[2*(b-k-i), 2*(b-i))`` of the packed word.
    """
    packed = np.ascontiguousarray(packed, dtype=np.uint64)
    counts = np.ascontiguousarray(n_kmers, dtype=np.int64)
    if packed.shape != counts.shape:
        raise ValueError("packed and n_kmers must be parallel arrays")
    if packed.size == 0:
        return np.empty(0, dtype=np.uint64)
    if int(counts.min()) < 1:
        raise ValueError("every supermer must carry at least one k-mer")
    total = int(counts.sum())
    owner = np.repeat(np.arange(packed.shape[0], dtype=np.int64), counts)
    # Index of each k-mer within its supermer: 0,1,...,n_kmers-1.
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(total, dtype=np.int64) - starts[owner]
    n_bases = counts + (k - 1)
    shifts = (2 * (n_bases[owner] - k - within)).astype(np.uint64)
    mask = np.uint64((1 << (2 * k)) - 1)
    return (packed[owner] >> shifts) & mask


def build_supermers(
    reads: ReadSet,
    k: int,
    m: int,
    *,
    window: int | None = None,
    ordering: MinimizerOrdering | str = "random-base",
    canonical_minimizers: bool = False,
) -> SupermerBatch:
    """Vectorized windowed supermer construction over a read set.

    Implements Algorithm 2 with the boundary rule documented in the module
    docstring, entirely with array operations: per-position minimizers, a
    boundary flag, run starts and ends from that flag, and one gather per
    supermer from a doubling pack of the bases.

    ``canonical_minimizers=True`` ranks strand-neutral (canonical) m-mers,
    so a k-mer and its reverse complement always carry the same minimizer —
    required for exact canonical counting under minimizer partitioning.
    """
    return build_supermers_with_positions(
        reads,
        k,
        m,
        window=window,
        ordering=ordering,
        canonical_minimizers=canonical_minimizers,
    )[0]


def build_supermers_with_positions(
    reads: ReadSet,
    k: int,
    m: int,
    *,
    window: int | None = None,
    ordering: MinimizerOrdering | str = "random-base",
    canonical_minimizers: bool = False,
) -> tuple[SupermerBatch, np.ndarray]:
    """:func:`build_supermers` plus each supermer's start position.

    The second return value gives, per supermer, the index into
    ``reads.codes`` of its first base; the fused engine uses it to map
    supermers built over a whole cluster's concatenated shards back to
    their originating shard.
    """
    if window is None:
        window = max_window_for(k)
    if window < 1:
        raise ValueError("window must be positive")
    if window + k - 1 > 32:
        raise ValueError(
            f"window {window} with k={k} gives supermers of up to {window + k - 1} bases; "
            f"they must fit 32 bases (max window {max_window_for(k)})"
        )
    mins = minimizers_for_windows(reads.codes, k, m, ordering, canonical=canonical_minimizers)
    n = mins.n_windows
    if n == 0 or not mins.valid.any():
        return SupermerBatch.empty(k), np.empty(0, dtype=np.int64)

    valid = mins.valid
    # Relative k-mer position within the owning read, for window boundaries:
    # every position from one read offset up to the next takes that read's
    # offset (positions before the first read count from it).
    offsets = reads.offsets if reads.offsets.size else np.zeros(1, dtype=np.int64)
    bounds = np.clip(offsets, 0, n)
    bounds[0] = 0
    rel = np.arange(n, dtype=np.int64) - np.repeat(offsets, np.diff(bounds, append=n))

    prev_valid = np.zeros(n, dtype=bool)
    prev_valid[1:] = valid[:-1]
    same_min = np.zeros(n, dtype=bool)
    same_min[1:] = mins.minimizer_values[1:] == mins.minimizer_values[:-1]
    new_window = (rel % window) == 0
    starts_flag = valid & (new_window | ~prev_valid | ~same_min)

    # Supermer ends: a run stops where the next position starts a new
    # supermer or is invalid.
    start_positions = np.flatnonzero(starts_flag)
    ends_flag = valid.copy()
    ends_flag[:-1] &= starts_flag[1:] | ~valid[1:]
    end_positions = np.flatnonzero(ends_flag)
    n_kmers = (end_positions - start_positions + 1).astype(np.int32)
    minimizers = mins.minimizer_values[start_positions]

    # Each supermer is the first n_bases of the 32-base pack at its start:
    # one doubling pack over the codes (zero-padded so every start has 32
    # bases), one gather, one shift.
    n_bases = n_kmers.astype(np.int64) + (k - 1)
    safe = np.zeros(reads.codes.shape[0] + 31, dtype=np.uint8)
    np.copyto(safe[: reads.codes.shape[0]], reads.codes, where=reads.codes < SENTINEL)
    packed = pack_windows(safe, 32, n)[start_positions]
    packed >>= (2 * (32 - n_bases)).astype(np.uint64)

    batch = SupermerBatch(k=k, packed=packed, n_kmers=n_kmers, minimizers=minimizers)
    return batch, start_positions


def build_supermers_scalar(
    read: str,
    k: int,
    m: int,
    *,
    window: int | None = None,
    ordering: MinimizerOrdering | str = "random-base",
) -> list[tuple[str, int]]:
    """Reference Algorithm 2 on one read -> [(supermer_string, minimizer)].

    Pure-Python, follows the pseudo code line by line; used to validate
    :func:`build_supermers`.  Skips k-mer windows containing N.
    """
    ordering = get_ordering(ordering)
    if window is None:
        window = max_window_for(k)
    codes = string_to_codes(read)
    n_windows = len(read) - k + 1
    out: list[tuple[str, int]] = []
    current_start: int | None = None
    current_len = 0
    prev_min: int | None = None

    def flush() -> None:
        nonlocal current_start, current_len
        if current_start is not None:
            seq = read[current_start : current_start + current_len + k - 1]
            assert prev_min is not None
            out.append((seq, prev_min))
        current_start = None
        current_len = 0

    for i in range(max(n_windows, 0)):
        if codes[i : i + k].max(initial=0) >= SENTINEL:
            flush()
            prev_min = None
            continue
        minimizer, _ = minimizer_scalar(read[i : i + k], m, ordering)
        if current_start is not None and (i % window == 0 or minimizer != prev_min):
            flush()
        if current_start is None:
            current_start = i
            current_len = 1
        else:
            current_len += 1
        prev_min = minimizer
    flush()
    return out
