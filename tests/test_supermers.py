"""Tests for supermer construction (Algorithm 2) and the wire codec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dna.alphabet import SENTINEL
from repro.dna.reads import ReadSet
from repro.kmers.extract import extract_kmers
from repro.kmers.minimizers import minimizers_for_windows
from repro.kmers.supermers import (
    SupermerBatch,
    build_supermers,
    build_supermers_scalar,
    build_supermers_with_positions,
    extract_kmers_from_packed,
    max_window_for,
)

dna = st.text(alphabet="ACGTN", min_size=0, max_size=150)
ORDERINGS = ["lexicographic", "kmc2", "random-base"]


def searchsorted_gather_oracle(reads, k, m, window, ordering):
    """Supermers by per-window read lookup and a base-by-base shift-or pack.

    Returns (packed, n_kmers, minimizers, start_positions).
    """
    mins = minimizers_for_windows(reads.codes, k, m, ordering)
    n = mins.n_windows
    valid = mins.valid
    positions = np.arange(n, dtype=np.int64)
    read_idx = np.searchsorted(reads.offsets, positions, side="right") - 1
    read_idx = np.clip(read_idx, 0, max(len(reads.offsets) - 1, 0))
    rel = positions - reads.offsets[read_idx]
    prev_valid = np.concatenate(([False], valid[:-1]))
    same_min = np.concatenate(([False], mins.minimizer_values[1:] == mins.minimizer_values[:-1]))
    starts_flag = valid & ((rel % window == 0) | ~prev_valid | ~same_min)
    run_id = (np.cumsum(starts_flag) - 1)[valid]
    n_kmers = np.bincount(run_id, minlength=int(starts_flag.sum()))
    start_positions = positions[starts_flag]
    n_bases = n_kmers + (k - 1)
    safe = np.where(reads.codes < SENTINEL, reads.codes, 0).astype(np.uint64)
    packed = np.zeros(start_positions.shape[0], dtype=np.uint64)
    for t in range(int(n_bases.max(initial=0))):
        inside = t < n_bases
        base = safe[np.where(inside, start_positions + t, 0)]
        packed = np.where(inside, (packed << np.uint64(2)) | base, packed)
    return packed, n_kmers, mins.minimizer_values[starts_flag], start_positions


def assert_matches_oracle(reads, k, m, window, ordering):
    batch, starts = build_supermers_with_positions(reads, k, m, window=window, ordering=ordering)
    packed, n_kmers, minimizers, ref_starts = searchsorted_gather_oracle(reads, k, m, window, ordering)
    np.testing.assert_array_equal(starts, ref_starts)
    np.testing.assert_array_equal(batch.n_kmers, n_kmers)
    np.testing.assert_array_equal(batch.minimizers, minimizers)
    np.testing.assert_array_equal(batch.packed, packed)


LOW_ENTROPY_READS = ["AC" * 40, "A" * 70, "ACAACAACA" * 6, "GT" * 4 + "N" * 50 + "ACGTTGCA" * 6, "ACG", ""]


class TestMaxWindow:
    def test_paper_configuration(self):
        # k=17 leaves room for a window of 16; the paper chose 15.
        assert max_window_for(17) == 16

    def test_bounds(self):
        assert max_window_for(31) == 2
        with pytest.raises(ValueError):
            max_window_for(32)
        with pytest.raises(ValueError):
            max_window_for(1)


class TestScalarVsVector:
    @given(
        dna,
        st.integers(min_value=4, max_value=12),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=10),
        st.sampled_from(ORDERINGS),
    )
    @settings(max_examples=120)
    def test_identical_supermers(self, read, k, m_raw, window, ordering):
        m = min(m_raw, k - 1)
        window = min(window, max_window_for(k))
        rs = ReadSet.from_strings([read])
        batch = build_supermers(rs, k, m, window=window, ordering=ordering)
        ref = build_supermers_scalar(read, k, m, window=window, ordering=ordering)
        got = [(batch.supermer_string(i), int(batch.minimizers[i])) for i in range(len(batch))]
        assert got == ref

    def test_multi_read(self):
        reads = ["ACGTACGTACGTAA", "TTTTTTTT", "GCGCGCGCGC"]
        rs = ReadSet.from_strings(reads)
        batch = build_supermers(rs, 5, 3, window=4)
        ref = [sm for r in reads for sm in build_supermers_scalar(r, 5, 3, window=4)]
        got = [(batch.supermer_string(i), int(batch.minimizers[i])) for i in range(len(batch))]
        assert got == ref


class TestAgainstOracles:
    @pytest.mark.parametrize("k", range(3, 16))
    def test_small_k_full_window_matches_scalar(self, k):
        """Packing at max_window_for(k): supermers up to 32 bases."""
        rng = np.random.default_rng(k)
        reads = ["".join("ACGT"[c] for c in rng.integers(0, 4, size=150))] + LOW_ENTROPY_READS
        m = max(1, k // 2)
        for ordering in ORDERINGS:
            rs = ReadSet.from_strings(reads)
            batch = build_supermers(rs, k, m, ordering=ordering)
            ref = [sm for r in reads for sm in build_supermers_scalar(r, k, m, ordering=ordering)]
            got = [(batch.supermer_string(i), int(batch.minimizers[i])) for i in range(len(batch))]
            assert got == ref
            assert int(batch.n_bases.max()) == 32  # the low-entropy reads fill a window

    @pytest.mark.parametrize("k,m,window", [(17, 7, 16), (17, 7, 5), (31, 15, 2), (9, 4, 24), (3, 1, 30)])
    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_matches_gather_oracle(self, genome_reads, k, m, window, ordering):
        assert_matches_oracle(genome_reads, k, m, window, ordering)
        assert_matches_oracle(ReadSet.from_strings(LOW_ENTROPY_READS), k, m, window, ordering)

    def test_read_layouts_with_gaps_and_leading_bases(self):
        """Offsets that skip bases, start late or repeat (empty reads)."""
        rng = np.random.default_rng(5)
        codes = rng.integers(0, 4, size=400).astype(np.uint8)
        codes[[150, 151, 300]] = SENTINEL
        layouts = [
            ([7, 40, 152, 301], [20, 100, 140, 99]),  # bases before the first read and in gaps
            ([0, 60, 60, 200], [60, 0, 90, 200]),  # an empty read sharing an offset
            ([390], [10]),  # one read near the end
        ]
        for offsets, lengths in layouts:
            rs = ReadSet(codes=codes, offsets=np.array(offsets), lengths=np.array(lengths))
            for window in (1, 3, 16):
                assert_matches_oracle(rs, 17, 7, window, "random-base")

    def test_no_valid_kmers(self):
        for reads in (["N" * 40], ["ACGT"], [], [""]):
            batch, starts = build_supermers_with_positions(ReadSet.from_strings(reads), 17, 7)
            assert len(batch) == 0 and starts.dtype == np.int64 and starts.size == 0


class TestKmerConservation:
    @given(
        st.lists(dna, min_size=0, max_size=6),
        st.integers(min_value=4, max_value=10),
        st.sampled_from(ORDERINGS),
    )
    @settings(max_examples=80)
    def test_supermers_carry_every_kmer(self, reads, k, ordering):
        """The k-mer multiset reconstructed from supermers equals direct
        extraction — the pipeline's fundamental conservation law."""
        m = k // 2
        rs = ReadSet.from_strings(reads)
        batch = build_supermers(rs, k, m, ordering=ordering)
        direct = np.sort(extract_kmers(rs, k))
        via_supermers = np.sort(batch.extract_kmers())
        assert np.array_equal(direct, via_supermers)

    def test_total_kmers_property(self, genome_reads):
        batch = build_supermers(genome_reads, 17, 7)
        assert batch.total_kmers == extract_kmers(genome_reads, 17).shape[0]


class TestWindowSemantics:
    def test_window_caps_supermer_length(self, genome_reads):
        k, m, w = 17, 7, 9
        batch = build_supermers(genome_reads, k, m, window=w)
        assert int(batch.n_kmers.max()) <= w
        assert int(batch.n_bases.max()) <= w + k - 1

    def test_wider_window_fewer_supermers(self, genome_reads):
        small = build_supermers(genome_reads, 17, 7, window=4)
        large = build_supermers(genome_reads, 17, 7, window=15)
        assert len(large) < len(small)
        assert small.total_kmers == large.total_kmers

    def test_window_too_large_rejected(self):
        rs = ReadSet.from_strings(["ACGTACGTACGT"])
        with pytest.raises(ValueError, match="32 bases"):
            build_supermers(rs, 17, 7, window=17)

    def test_window_must_be_positive(self):
        rs = ReadSet.from_strings(["ACGTACGT"])
        with pytest.raises(ValueError):
            build_supermers(rs, 5, 3, window=0)


class TestMinimizerLengthEffect:
    def test_smaller_m_longer_supermers(self, genome_reads):
        """Section V-D: smaller minimizer length -> longer, fewer supermers."""
        m7 = build_supermers(genome_reads, 17, 7, window=15)
        m9 = build_supermers(genome_reads, 17, 9, window=15)
        assert len(m7) < len(m9)
        assert m7.mean_length() > m9.mean_length()


class TestBatchContainer:
    def test_empty(self):
        b = SupermerBatch.empty(17)
        assert len(b) == 0 and b.total_kmers == 0 and b.mean_length() == 0.0
        assert b.extract_kmers().shape == (0,)

    def test_wire_bytes(self):
        rs = ReadSet.from_strings(["ACGTACGTACGT"])
        b = build_supermers(rs, 5, 3)
        # 8-byte word + 1 length byte per supermer (Section V-D).
        assert b.wire_bytes() == 9 * len(b)

    def test_select_and_concat(self):
        rs = ReadSet.from_strings(["ACGTACGTACGTACGT", "TTTTTTTTTT"])
        b = build_supermers(rs, 5, 3)
        first = b.select(np.arange(len(b)) < 2)
        rest = b.select(np.arange(len(b)) >= 2)
        back = SupermerBatch.concat([first, rest])
        assert np.array_equal(back.packed, b.packed)
        assert np.array_equal(back.n_kmers, b.n_kmers)

    def test_concat_empty_requires_k(self):
        with pytest.raises(ValueError):
            SupermerBatch.concat([])
        assert SupermerBatch.concat([], k=11).k == 11

    def test_concat_mixed_k_rejected(self):
        rs = ReadSet.from_strings(["ACGTACGTACGT"])
        a = build_supermers(rs, 5, 3)
        b = build_supermers(rs, 6, 3)
        with pytest.raises(ValueError, match="different k"):
            SupermerBatch.concat([a, b])

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            SupermerBatch(
                k=5,
                packed=np.array([0], dtype=np.uint64),
                n_kmers=np.array([0], dtype=np.int32),
                minimizers=np.array([0], dtype=np.uint64),
            )
        with pytest.raises(ValueError, match="parallel"):
            SupermerBatch(
                k=5,
                packed=np.array([0], dtype=np.uint64),
                n_kmers=np.array([1, 1], dtype=np.int32),
                minimizers=np.array([0], dtype=np.uint64),
            )
        with pytest.raises(ValueError, match="word-packed"):
            SupermerBatch(
                k=20,
                packed=np.array([0], dtype=np.uint64),
                n_kmers=np.array([14], dtype=np.int32),
                minimizers=np.array([0], dtype=np.uint64),
            )


class TestWireCodec:
    def test_extract_from_packed_matches_method(self, genome_reads):
        b = build_supermers(genome_reads, 17, 7)
        direct = b.extract_kmers()
        wire = extract_kmers_from_packed(b.packed, b.n_kmers, b.k)
        assert np.array_equal(direct, wire)

    def test_single_kmer_supermer(self):
        from repro.dna.encoding import string_to_kmer

        packed = np.array([string_to_kmer("ACGTA")], dtype=np.uint64)
        out = extract_kmers_from_packed(packed, np.array([1]), 5)
        assert out.tolist() == [string_to_kmer("ACGTA")]

    def test_known_decomposition(self):
        from repro.dna.encoding import string_to_kmer

        # supermer GTCAT with k=3 carries GTC, TCA, CAT.
        packed = np.array([string_to_kmer("GTCAT")], dtype=np.uint64)
        out = extract_kmers_from_packed(packed, np.array([3]), 3)
        assert out.tolist() == [string_to_kmer(s) for s in ["GTC", "TCA", "CAT"]]

    def test_validation(self):
        with pytest.raises(ValueError, match="parallel"):
            extract_kmers_from_packed(np.zeros(2, dtype=np.uint64), np.zeros(1, dtype=np.int32), 5)
        with pytest.raises(ValueError, match="at least one"):
            extract_kmers_from_packed(np.zeros(1, dtype=np.uint64), np.zeros(1, dtype=np.int32), 5)


class TestCompressionRatios:
    def test_table2_ratio_band(self, genome_reads):
        """Items ratio at k=17, w=15 lands in Table II's ~3.3-3.9x band."""
        kmers = extract_kmers(genome_reads, 17).shape[0]
        for m, lo, hi in [(7, 3.0, 4.6), (9, 2.6, 4.2)]:
            batch = build_supermers(genome_reads, 17, m, window=15)
            ratio = kmers / len(batch)
            assert lo < ratio < hi, (m, ratio)

    def test_paper_fig4_communication_example(self):
        """Fig. 4's arithmetic: 19-base read, k=8, m=4 -> 12 k-mers whose
        individual transport costs 96 bases vs ~3 supermers of total ~33."""
        read = "GGTCAGTCAGGGTCAGTCA"  # 19 bases, same spirit as Fig. 4
        batch = build_supermers(ReadSet.from_strings([read]), 8, 4, window=12, ordering="lexicographic")
        assert batch.total_kmers == 12
        kmer_bases = batch.total_kmers * 8
        assert kmer_bases == 96
        assert batch.total_bases < kmer_bases / 2  # >2x base reduction
