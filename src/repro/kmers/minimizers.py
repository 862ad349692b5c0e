"""Minimizer computation over k-mer windows.

The minimizer of a k-mer is its smallest m-mer (m < k) under a chosen
ordering (Section II-B).  For supermer construction the pipeline needs, for
*every* k-mer window position in a read array, the packed value of that
k-mer's minimizer — adjacent k-mers sharing a minimizer value is precisely
the condition that lets them merge into one supermer (Section IV-A).

The vectorized path computes all m-mer ranks once, then takes a sliding
window minimum of width ``k - m + 1`` over them by doubling (a sparse
table: widths 1, 2, 4, ... then one overlapping combine) on packed
``rank|offset`` keys, so the whole scan is O(n log(k-m)) NumPy work with
no Python per-position loop and no materialized window matrix.  A scalar
reference (:func:`minimizer_scalar`) implements the textbook definition
for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dna.alphabet import MinimizerOrdering, get_ordering
from ..dna.encoding import string_to_codes
from .extract import window_values

__all__ = ["KmerMinimizers", "minimizers_for_windows", "minimizer_scalar"]


@dataclass(frozen=True)
class KmerMinimizers:
    """Per-k-mer-window minimizer data over a code array.

    Arrays are aligned with the k-mer window positions of the same code
    array (length ``len(codes) - k + 1``):

    ``kmer_values``/``valid``
        packed k-mers and their validity (as in :class:`KmerWindows`);
    ``minimizer_values``
        packed m-mer value of each k-mer's minimizer (garbage where invalid);
    ``minimizer_positions``
        absolute start offset of the winning m-mer in the code array —
        adjacent k-mers share a minimizer *occurrence* iff these match.
    """

    k: int
    m: int
    ordering_name: str
    kmer_values: np.ndarray  # uint64
    valid: np.ndarray  # bool
    minimizer_values: np.ndarray  # uint64
    minimizer_positions: np.ndarray  # int64

    @property
    def n_windows(self) -> int:
        return int(self.kmer_values.shape[0])


def minimizers_for_windows(
    codes: np.ndarray,
    k: int,
    m: int,
    ordering: MinimizerOrdering | str = "random-base",
    *,
    canonical: bool = False,
) -> KmerMinimizers:
    """Compute k-mer windows and their minimizers over a code array.

    A k-mer window is valid iff all k bases are real; its minimizer is then
    automatically well-defined because every m-window inside a valid k-window
    is also valid.

    ``canonical=True`` uses *canonical minimizers*: each m-mer is replaced
    by ``min(m-mer, revcomp(m-mer))`` before ranking, making the winning
    minimizer value identical for a k-mer and its reverse complement (a
    k-mer's RC contains exactly the RCs of its m-mers).  This is the
    strand-neutral construction production counters use so canonical k-mers
    still have a single owner under minimizer partitioning.
    """
    if not 1 <= m < k:
        raise ValueError(f"need 1 <= m < k, got m={m}, k={k}")
    ordering = get_ordering(ordering)

    kwin = window_values(codes, k)
    mwin = window_values(codes, m)
    n_k = kwin.n_windows
    span = k - m + 1  # number of m-mers inside one k-mer
    if n_k == 0:
        empty64 = np.empty(0, dtype=np.uint64)
        return KmerMinimizers(
            k=k,
            m=m,
            ordering_name=ordering.name,
            kmer_values=empty64,
            valid=np.empty(0, dtype=bool),
            minimizer_values=empty64.copy(),
            minimizer_positions=np.empty(0, dtype=np.int64),
        )

    mvalues = mwin.values
    if canonical:
        from ..dna.encoding import canonical_batch

        mvalues = canonical_batch(mvalues, m)
    ranks = ordering.rank_array(mvalues, m)
    positions = np.arange(n_k, dtype=np.int64) + _sliding_argmin(ranks, span, n_k)
    minimizer_values = mvalues[positions]

    return KmerMinimizers(
        k=k,
        m=m,
        ordering_name=ordering.name,
        kmer_values=kwin.values,
        valid=kwin.valid,
        minimizer_values=minimizer_values,
        minimizer_positions=positions,
    )


def _uint_for_bits(bits: int) -> type:
    """Narrowest unsigned dtype holding ``bits`` bits (``bits <= 64``)."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if bits <= 8 * np.dtype(dtype).itemsize:
            return dtype
    return np.uint64


def _sliding_argmin(ranks: np.ndarray, span: int, n: int) -> np.ndarray:
    """Offset in ``[0, span)`` of the leftmost minimum of ``ranks[i:i+span]``, i < n.

    Each entry is one key, ``rank << off_bits | offset``, where the offset
    counts from the window start i.  Doubling: after the loop ``key[i]`` is
    the minimum key over ``[i, i+w)``; one overlapping combine of the
    windows at i and i + span - w then covers ``[i, i+span)``.  A key read
    from the window at i + s has s added to its offset, so a plain
    ``minimum`` compares rank first and absolute position second.  Distinct
    m-mers never tie (ranks are injective per ordering), but an m-mer
    repeated inside one k-mer does, and the lower position then wins: the
    first minimum, as in the scalar scan.
    """
    off_bits = (span - 1).bit_length()
    if int(ranks.max()).bit_length() + off_bits > 64:
        # Shipped orderings stay below 2**(2m+1), which always leaves room
        # (k <= 32); a custom bias might not.  Dense ranks order the same.
        ranks = np.unique(ranks, return_inverse=True)[1]
    dtype = _uint_for_bits(int(ranks.max()).bit_length() + off_bits)
    key = ranks.astype(dtype) << dtype(off_bits)
    w = 1
    while w * 2 <= span:
        right = key[w:] + dtype(w)
        key = np.minimum(key[: key.shape[0] - w], right, out=right)
        w *= 2
    if w < span:
        key = np.minimum(key[:n], key[span - w : span - w + n] + dtype(span - w))
    return (key[:n] & dtype((1 << off_bits) - 1)).astype(np.uint8)


def minimizer_scalar(
    kmer: str,
    m: int,
    ordering: MinimizerOrdering | str = "random-base",
) -> tuple[int, int]:
    """Reference minimizer of one k-mer string -> (packed m-mer, offset).

    Scans the ``k - m + 1`` m-mers left to right, keeping the first with the
    smallest rank under the ordering.
    """
    ordering = get_ordering(ordering)
    k = len(kmer)
    if not 1 <= m < k:
        raise ValueError(f"need 1 <= m < len(kmer), got m={m}, k={k}")
    codes = string_to_codes(kmer)
    if codes.max(initial=0) > 3:
        raise ValueError("k-mer may not contain N")
    best_rank: int | None = None
    best_value = 0
    best_pos = 0
    for i in range(k - m + 1):
        window = codes[i : i + m]
        rank = ordering.rank_of_codes(window)
        if best_rank is None or rank < best_rank:
            best_rank = rank
            best_pos = i
            value = 0
            for c in window.tolist():
                value = (value << 2) | int(c)
            best_value = value
    return best_value, best_pos
