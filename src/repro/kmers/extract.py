"""k-mer extraction from sentinel-separated read arrays.

Mirrors the paper's parse kernel (Section III-B1, Fig. 2): the concatenated
base array is scanned with one *logical thread per window position*; thread
``t`` builds the k-mer starting at base ``t``.  Windows containing a read
boundary (sentinel) or an ambiguous base are invalid and produce nothing.

Two implementations are provided and cross-checked by the tests:

* :func:`extract_kmers_scalar` — the obvious per-read Python loop, the
  readable reference;
* :func:`extract_kmers` — the vectorized version used by the virtual-GPU
  kernels: a doubling shift-or pack and a doubling validity mask, both
  O(n log k) array passes with no per-k-mer Python work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dna.alphabet import SENTINEL
from ..dna.encoding import canonical_batch, pack_kmer
from ..dna.reads import ReadSet

__all__ = ["KmerWindows", "pack_windows", "window_values", "extract_kmers", "extract_kmers_scalar"]


@dataclass(frozen=True)
class KmerWindows:
    """All k-mer windows over a code array, packed, with validity.

    ``values[i]`` is the packed k-mer starting at ``codes[i]`` (undefined
    garbage where ``valid[i]`` is False — invalid windows must be filtered
    through the mask before use).  Keeping the full positional arrays, rather
    than compacting immediately, is what lets the supermer builder reason
    about *adjacent* windows (Section IV-B).
    """

    k: int
    values: np.ndarray  # uint64, length len(codes) - k + 1 (or 0)
    valid: np.ndarray  # bool, same length

    @property
    def n_windows(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_valid(self) -> int:
        return int(np.count_nonzero(self.valid))

    def compact(self) -> np.ndarray:
        """The valid packed k-mers, in read order."""
        return self.values[self.valid]


def pack_windows(safe: np.ndarray, width: int, n: int) -> np.ndarray:
    """uint64 2-bit pack of ``safe[i:i+width]`` for every ``i < n``, first base highest.

    ``safe`` holds base codes 0..3 and must have at least ``n + width - 1``
    entries.  Doubling pack: level ``w`` holds the 2w-bit pack of
    ``safe[i:i+w]``, built in O(log width) full-array passes instead of one
    shift-or per base; only the levels in width's binary decomposition are
    kept, and the window is their MSB-first concatenation.  Levels stay
    uint64: narrower levels pack faster but, below the allocator's mmap
    threshold, fragment the heap and raised the peak address space of the
    capped out-of-core probes (``tools/check_spill.py``).
    """
    kept = {}
    level = np.asarray(safe, dtype=np.uint64)
    w = 1
    while True:
        if width & w:
            kept[w] = level
        if w * 2 > width:
            break
        wider = level[: level.shape[0] - w] << np.uint64(2 * w)
        wider |= level[w:]
        level = wider
        w *= 2
    blocks = sorted(kept, reverse=True)
    values = kept[blocks[0]][:n]
    covered = blocks[0]
    for b in blocks[1:]:
        values <<= np.uint64(2 * b)
        values |= kept[b][covered : covered + n]
        covered += b
    return values


def window_values(codes: np.ndarray, width: int) -> KmerWindows:
    """Pack every length-``width`` window of ``codes`` into uint64 + validity.

    Works for k-mers and m-mers alike.  A window is valid iff all of its
    bases are real (code < SENTINEL).  Sentinel codes are masked to 0 before
    packing so the shift-or arithmetic never sees an out-of-range code; the
    garbage values this produces are flagged invalid.
    """
    if not 1 <= width <= 32:
        raise ValueError(f"window width must be in [1, 32], got {width}")
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    n = codes.shape[0] - width + 1
    if n <= 0:
        empty64 = np.empty(0, dtype=np.uint64)
        return KmerWindows(k=width, values=empty64, valid=np.empty(0, dtype=bool))
    is_base = codes < SENTINEL
    values = pack_windows(np.where(is_base, codes, 0), width, n)
    # valid[i] = no invalid base in [i, i+width).  Sliding OR of the
    # invalid mask by doubling: after the loop bad[i] covers [i, i+w), and
    # one overlapping combine widens it to [i, i+width).
    bad = ~is_base
    w = 1
    while w * 2 <= width:
        bad = bad[: bad.shape[0] - w] | bad[w:]
        w *= 2
    valid = ~(bad[:n] | bad[width - w : width - w + n])
    return KmerWindows(k=width, values=values, valid=valid)


def extract_kmers(reads: ReadSet, k: int, *, canonical: bool = False) -> np.ndarray:
    """All valid packed k-mers of a :class:`ReadSet`, in read order.

    ``canonical=True`` maps each k-mer to min(k-mer, revcomp) — an extension
    the paper does not use (Fig. 4 caption) but downstream tools often want.
    """
    windows = window_values(reads.codes, k)
    kmers = windows.compact()
    return canonical_batch(kmers, k) if canonical else kmers


def extract_kmers_scalar(read: str, k: int) -> list[int]:
    """Reference extraction from one read string (skips windows with N)."""
    if k < 1:
        raise ValueError("k must be positive")
    from ..dna.encoding import string_to_codes

    codes = string_to_codes(read)
    out: list[int] = []
    for i in range(len(read) - k + 1):
        window = codes[i : i + k]
        if window.max(initial=0) >= SENTINEL:
            continue
        out.append(pack_kmer(window))
    return out
