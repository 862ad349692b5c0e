"""Typed inter-stage buffers of the staged pipeline.

Every arrow in the stage graph has an explicit record type:

* parse → partition: :class:`ParsedItems` (items plus the routing keys the
  partitioner hashes);
* partition → exchange: :class:`RankParse` (destination-ordered buffers,
  the generalization of the old engine's private ``_RankParse``);
* exchange → count: :class:`ExchangeOutcome` (received buffers plus the
  modeled exchange-time breakdown);
* count → merge: :class:`CountOutcome` per rank (modeled time, instance
  count, hash-table insert statistics).

Keeping these records plain dataclasses (NumPy payloads, no behaviour) is
what lets compositions swap a stage implementation without touching its
neighbours: the buffer contract *is* the interface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...gpu.hashtable import InsertStats

__all__ = ["ParsedItems", "RankParse", "ExchangeOutcome", "CountOutcome", "add_link_seconds"]


def add_link_seconds(totals: dict[str, float], links: tuple[tuple[str, float], ...]) -> None:
    """Fold one round's per-link breakdown into a running ``name -> s`` dict.

    Shared by every engine so multi-round runs accumulate link rows the
    same way they accumulate ``alltoallv_seconds``; insertion order keeps
    links innermost-first, as the cost model emits them.
    """
    for name, seconds in links:
        totals[name] = totals.get(name, 0.0) + seconds


@dataclass
class ParsedItems:
    """One rank's parse output, before destination ordering.

    ``data`` holds the wire items (packed k-mers in k-mer mode, packed
    supermer words in supermer mode); ``route_keys`` holds the values the
    partition stage assigns owners to (the k-mers themselves, or the
    supermers' minimizers).  ``lengths`` carries per-supermer k-mer counts
    (``None`` in k-mer mode).
    """

    data: np.ndarray
    lengths: np.ndarray | None
    route_keys: np.ndarray
    n_kmers: int
    n_supermers: int
    supermer_bases: int


@dataclass
class RankParse:
    """Per-rank output of the parse phase: destination-ordered buffers."""

    data: np.ndarray  # packed k-mers, or packed supermer words
    lengths: np.ndarray | None  # supermer mode: per-item k-mer counts (uint8)
    counts: np.ndarray  # items per destination, shape (P,)
    time_s: float
    n_kmers_parsed: int
    n_supermers: int
    supermer_bases: int


@dataclass
class ExchangeOutcome:
    """All ranks' received buffers plus the exchange-phase time breakdown.

    When the payload lands elsewhere ``recv_data`` holds no resident
    buffers: the fused layout's flat receive array travels beside it, and
    the spool returns only the partition maps it checksummed (none when
    the exchange is unverified).
    """

    recv_data: list[np.ndarray]
    recv_lengths: list[np.ndarray] | None
    counts_matrix: np.ndarray  # items, [src, dst]
    seconds: float  # overhead + network + staging (the phase's bulk time)
    alltoallv_seconds: float  # MPI_Alltoallv routine time only (Fig. 8's metric)
    staging_seconds: float  # host<->device staging copies
    # Per-link (name, seconds) breakdown of the routed alltoallv, innermost
    # link first, with staging appended as a "host-staging" row when it
    # applies.  Empty only for legacy constructors.
    link_seconds: tuple[tuple[str, float], ...] = ()


@dataclass
class CountOutcome:
    """One rank's count-phase outcome for one round."""

    time_s: float
    n_instances: int  # k-mer instances processed (pre-filter, if any)
    insert_stats: InsertStats
