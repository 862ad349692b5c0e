"""DNA alphabet, 2-bit base codes, and minimizer base orderings.

The storage encoding is fixed and lexicographic (``A=0, C=1, G=2, T=3``): all
sequences, k-mers, and supermers in this library carry base codes in that
encoding.  Minimizer *orderings* are a separate concern: an ordering assigns
every m-mer a rank, and the minimizer of a k-mer is the m-mer with the
smallest rank (Section II-B of the paper).  Three orderings from the paper
are provided:

``LexicographicOrdering``
    Roberts' original proposal: rank an m-mer by its lexicographic 2-bit
    value.  Simple but produces skewed partitions in practice.

``KMC2Ordering``
    The KMC2 modification: lexicographic rank, except m-mers starting with
    ``AAA`` or ``ACA`` are demoted below every ordinary m-mer.  Used by KMC2
    and Gerbil to spread out bins.

``RandomBaseOrdering``
    The ordering this paper uses for its supermer partitioning: bases are
    remapped ``A=1, C=0, T=2, G=3`` before the lexicographic comparison
    (Section IV-A), which implicitly defines a custom m-mer order that
    balances partitions without any per-dataset computation.  (Squeakr used
    the same trick.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BASES",
    "BASE_TO_CODE",
    "CODE_TO_BASE",
    "COMPLEMENT_CODE",
    "SENTINEL",
    "encode_base",
    "decode_base",
    "MinimizerOrdering",
    "LexicographicOrdering",
    "KMC2Ordering",
    "RandomBaseOrdering",
    "get_ordering",
]

#: The four nucleotide bases in storage-code order.
BASES: str = "ACGT"

#: Mapping from base character (upper case) to its 2-bit storage code.
BASE_TO_CODE: dict[str, int] = {"A": 0, "C": 1, "G": 2, "T": 3}

#: Inverse of :data:`BASE_TO_CODE`.
CODE_TO_BASE: dict[int, str] = {v: k for k, v in BASE_TO_CODE.items()}

#: Watson-Crick complement in storage codes (A<->T, C<->G).  Because the
#: storage encoding is lexicographic, complementing is ``3 - code``.
COMPLEMENT_CODE: np.ndarray = np.array([3, 2, 1, 0], dtype=np.uint8)

#: Sentinel code used to mark read boundaries in a concatenated base array
#: (Section III-B1: "mark the read ends by special bases").  Any k-mer window
#: containing the sentinel is invalid and must be skipped by kernels.
SENTINEL: int = 4

# Lookup table from ASCII byte to storage code; 255 marks non-ACGT input.
_ASCII_TO_CODE = np.full(256, 255, dtype=np.uint8)
for _b, _c in BASE_TO_CODE.items():
    _ASCII_TO_CODE[ord(_b)] = _c
    _ASCII_TO_CODE[ord(_b.lower())] = _c
_ASCII_TO_CODE[ord("N")] = SENTINEL
_ASCII_TO_CODE[ord("n")] = SENTINEL

_CODE_TO_ASCII = np.frombuffer(b"ACGTN", dtype=np.uint8).copy()


def encode_base(base: str) -> int:
    """Return the 2-bit storage code of a single base character.

    Raises ``ValueError`` for characters outside ``ACGTacgt``; ``N``/``n``
    map to :data:`SENTINEL` because ambiguous bases break k-mer windows the
    same way read boundaries do.
    """
    code = int(_ASCII_TO_CODE[ord(base)]) if len(base) == 1 else 255
    if code == 255:
        raise ValueError(f"invalid DNA base: {base!r}")
    return code


def decode_base(code: int) -> str:
    """Return the base character for a storage code (sentinel decodes to N)."""
    if not 0 <= code <= SENTINEL:
        raise ValueError(f"invalid base code: {code!r}")
    return chr(_CODE_TO_ASCII[code])


def ascii_to_codes(data: bytes | np.ndarray) -> np.ndarray:
    """Vectorized conversion of an ASCII base buffer to storage codes.

    Returns a ``uint8`` array; raises ``ValueError`` if any byte is not one
    of ``ACGTNacgtn``.
    """
    raw = np.frombuffer(data, dtype=np.uint8) if isinstance(data, bytes) else np.asarray(data, dtype=np.uint8)
    codes = _ASCII_TO_CODE[raw]
    if codes.max(initial=0) == 255:
        bad = raw[codes == 255][0]
        raise ValueError(f"invalid DNA base byte: {chr(bad)!r}")
    return codes


def codes_to_ascii(codes: np.ndarray) -> bytes:
    """Vectorized inverse of :func:`ascii_to_codes` (sentinels become N)."""
    arr = np.asarray(codes, dtype=np.uint8)
    if arr.size and arr.max() > SENTINEL:
        raise ValueError("base code out of range")
    return _CODE_TO_ASCII[arr].tobytes()


@dataclass(frozen=True)
class MinimizerOrdering:
    """An ordering over m-mers, defined by a base remap plus an m-mer bias.

    The rank of an m-mer with storage codes ``c_0 .. c_{m-1}`` is::

        rank = sum_i remap[c_i] << 2*(m-1-i)  +  bias(m-mer)

    ``remap`` is a permutation of ``{0,1,2,3}`` applied per base; ``bias`` is
    an ordering-specific penalty (zero for all orderings except KMC2, which
    demotes AAA/ACA-prefixed m-mers past the largest ordinary rank).
    Minimizers compare by rank; ties cannot occur because distinct m-mers
    always have distinct ranks.
    """

    name: str
    remap: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        remap = np.asarray(self.remap, dtype=np.uint64)
        if sorted(remap.tolist()) != [0, 1, 2, 3]:
            raise ValueError("remap must be a permutation of {0,1,2,3}")
        object.__setattr__(self, "remap", remap)

    def rank_of_codes(self, codes: np.ndarray) -> int:
        """Rank of a single m-mer given as a 1-D storage-code array."""
        codes = np.asarray(codes)
        m = codes.shape[-1]
        value = 0
        for c in codes.tolist():
            value = (value << 2) | int(self.remap[c])
        return value + self.bias_for(codes, m)

    def rank_array(self, mmer_values: np.ndarray, m: int) -> np.ndarray:
        """Vectorized rank for packed m-mer values in *storage* encoding.

        ``mmer_values`` is a uint64 array of 2-bit-packed m-mers (storage
        codes, most significant base first).  Returns uint64 ranks under this
        ordering.  The default implementation remaps each 2-bit field through
        ``remap``; subclasses add their bias.

        When the remap is an XOR (``remap[c] == c ^ remap[0]`` for every c,
        as for every shipped ordering: identity is XOR 0, random-base XOR 1),
        all m fields flip at once with one XOR against ``remap[0]`` repeated
        in every field.  Other remaps go field by field.
        """
        vals = np.asarray(mmer_values, dtype=np.uint64)
        flip = self._xor_remap()
        if flip is not None:
            field_mask = (1 << (2 * m)) - 1
            ranks = vals ^ np.uint64((flip * 0x5555_5555_5555_5555) & field_mask)
        else:
            ranks = np.zeros_like(vals)
            for i in range(m):
                shift = np.uint64(2 * (m - 1 - i))
                codes = (vals >> shift) & np.uint64(3)
                ranks |= self.remap[codes] << shift
        bias = self.bias_array(vals, m)
        if bias is not None:
            ranks = ranks + bias
        return ranks

    def bias_for(self, codes: np.ndarray, m: int) -> int:
        """Scalar bias hook; zero by default."""
        return 0

    def bias_array(self, mmer_values: np.ndarray, m: int) -> np.ndarray | None:
        """Vectorized bias hook; ``None`` means all-zero."""
        return None

    def _xor_remap(self) -> int | None:
        """``x`` if ``remap[c] == c ^ x`` for every base code c, else None."""
        flip = int(self.remap[0])
        if all(int(self.remap[c]) == c ^ flip for c in range(4)):
            return flip
        return None


class LexicographicOrdering(MinimizerOrdering):
    """Roberts' lexicographic minimizer ordering (storage encoding as-is)."""

    def __init__(self) -> None:
        super().__init__(name="lexicographic", remap=np.arange(4, dtype=np.uint64))


class RandomBaseOrdering(MinimizerOrdering):
    """The paper's randomized base map ``A=1, C=0, T=2, G=3`` (Section IV-A)."""

    def __init__(self) -> None:
        # remap indexed by storage code: A(0)->1, C(1)->0, G(2)->3, T(3)->2.
        super().__init__(name="random-base", remap=np.array([1, 0, 3, 2], dtype=np.uint64))


class KMC2Ordering(MinimizerOrdering):
    """KMC2's modified lexicographic ordering.

    m-mers starting with ``AAA`` or ``ACA`` get a bias of ``4**m`` so they
    rank below (numerically above) every unbiased m-mer while preserving
    their relative order.  This spreads out the otherwise huge AAA.../ACA...
    bins (Section II-B).  Requires ``m >= 3``.
    """

    def __init__(self) -> None:
        super().__init__(name="kmc2", remap=np.arange(4, dtype=np.uint64))

    def bias_for(self, codes: np.ndarray, m: int) -> int:
        if m < 3:
            return 0
        prefix = tuple(int(c) for c in np.asarray(codes)[:3])
        # AAA = (0,0,0), ACA = (0,1,0) in storage codes.
        return 4**m if prefix in ((0, 0, 0), (0, 1, 0)) else 0

    def bias_array(self, mmer_values: np.ndarray, m: int) -> np.ndarray | None:
        if m < 3:
            return None
        vals = np.asarray(mmer_values, dtype=np.uint64)
        prefix = (vals >> np.uint64(2 * (m - 3))) & np.uint64(0x3F)
        demoted = (prefix == np.uint64(0b000000)) | (prefix == np.uint64(0b000100))
        return np.where(demoted, np.uint64(4**m), np.uint64(0))


_ORDERINGS = {
    "lexicographic": LexicographicOrdering,
    "lex": LexicographicOrdering,
    "kmc2": KMC2Ordering,
    "random-base": RandomBaseOrdering,
    "random": RandomBaseOrdering,
}


def get_ordering(name: str | MinimizerOrdering) -> MinimizerOrdering:
    """Resolve an ordering by name (``lexicographic``/``kmc2``/``random-base``)."""
    if isinstance(name, MinimizerOrdering):
        return name
    try:
        return _ORDERINGS[name.lower()]()
    except KeyError:
        raise ValueError(f"unknown minimizer ordering: {name!r}; expected one of {sorted(set(_ORDERINGS))}") from None
