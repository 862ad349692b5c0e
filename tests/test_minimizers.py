"""Tests for minimizer computation (scalar cross-check across orderings)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from repro.dna.alphabet import MinimizerOrdering, get_ordering
from repro.dna.encoding import canonical_batch, string_to_codes, string_to_kmer
from repro.dna.reads import ReadSet
from repro.kmers.extract import window_values
from repro.kmers.minimizers import minimizer_scalar, minimizers_for_windows

ORDERINGS = ["lexicographic", "kmc2", "random-base"]


def argmin_oracle(codes, k, m, ordering, canonical=False):
    """The windowed-argmin minimizer scan: (positions, values) per k-window."""
    ordering = get_ordering(ordering)
    n_k = max(len(codes) - k + 1, 0)
    mvalues = window_values(codes, m).values
    if canonical:
        mvalues = canonical_batch(mvalues, m)
    ranks = ordering.rank_array(mvalues, m)
    if n_k == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint64)
    positions = np.arange(n_k) + sliding_window_view(ranks, k - m + 1)[:n_k].argmin(axis=1)
    return positions, mvalues[positions]


def field_loop_ranks(ordering, values, m):
    """rank_array's per-field remap loop, plus the ordering's bias."""
    ranks = np.zeros_like(values)
    for i in range(m):
        shift = np.uint64(2 * (m - 1 - i))
        ranks |= ordering.remap[(values >> shift) & np.uint64(3)] << shift
    bias = ordering.bias_array(values, m)
    return ranks if bias is None else ranks + bias


def awkward_reads(seed=0):
    """Random reads plus tie-heavy, N-run, short and empty ones."""
    rng = np.random.default_rng(seed)
    reads = ["".join("ACGT"[c] for c in rng.integers(0, 4, size=n)) for n in (300, 120, 57)]
    reads += ["AC" * 60, "A" * 90, "ACG" * 30, "GT" * 3 + "N" * 70 + "CA" * 40]
    reads += ["ACGTTGCA" * 8 + "N" + "TTTT" * 10, "ACG", "", "N" * 40, "CCCCCCCCCN" * 6]
    return ReadSet.from_strings(reads)


class TestSlidingMinimumVsArgmin:
    """The sliding-window minimum against the argmin over every window."""

    @pytest.mark.parametrize("span", range(2, 32))
    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_spans(self, span, ordering):
        codes = awkward_reads(span).codes
        for m in sorted({2, 33 - span}):
            k = m + span - 1
            mins = minimizers_for_windows(codes, k, m, ordering)
            positions, values = argmin_oracle(codes, k, m, ordering)
            valid = mins.valid
            np.testing.assert_array_equal(mins.minimizer_positions[valid], positions[valid])
            np.testing.assert_array_equal(mins.minimizer_values[valid], values[valid])

    @pytest.mark.parametrize("ordering", ORDERINGS)
    def test_canonical_bit_identical_everywhere(self, ordering):
        # Invalid windows too: their garbage is deterministic.
        codes = awkward_reads(1).codes
        mins = minimizers_for_windows(codes, 17, 7, ordering, canonical=True)
        positions, values = argmin_oracle(codes, 17, 7, ordering, canonical=True)
        np.testing.assert_array_equal(mins.minimizer_positions, positions)
        np.testing.assert_array_equal(mins.minimizer_values, values)

    @pytest.mark.parametrize("read", ["A" * 50, "AC" * 25, "ACAACAACA" * 5])
    def test_ties_take_leftmost(self, read):
        codes = string_to_codes(read)
        mins = minimizers_for_windows(codes, 12, 2, "lexicographic")
        positions, _ = argmin_oracle(codes, 12, 2, "lexicographic")
        np.testing.assert_array_equal(mins.minimizer_positions, positions)

    def test_reads_shorter_than_k_and_empty(self):
        for read in ["", "ACG", "ACGTACGTACGTACGT"]:
            mins = minimizers_for_windows(string_to_codes(read), 17, 7)
            assert mins.n_windows == 0
            assert mins.minimizer_positions.dtype == np.int64

    def test_rank_budget_overflow(self):
        """A custom bias past the key budget still yields the argmin."""

        class HugeBias(MinimizerOrdering):
            def bias_array(self, mmer_values, m):
                top = np.asarray(mmer_values, dtype=np.uint64) >> np.uint64(2 * (m - 1))
                return np.where(top == 0, np.uint64(1 << 63), np.uint64(0))

        ordering = HugeBias(name="huge", remap=np.array([2, 0, 3, 1]))
        codes = awkward_reads(2).codes
        mins = minimizers_for_windows(codes, 17, 7, ordering)
        positions, values = argmin_oracle(codes, 17, 7, ordering)
        valid = mins.valid
        np.testing.assert_array_equal(mins.minimizer_positions[valid], positions[valid])
        np.testing.assert_array_equal(mins.minimizer_values[valid], values[valid])


class TestRankArray:
    @pytest.mark.parametrize("m", [1, 2, 7, 15, 16, 31])
    @pytest.mark.parametrize(
        "ordering",
        ORDERINGS + [MinimizerOrdering(name="custom", remap=np.array([2, 0, 3, 1]))],
        ids=lambda o: o if isinstance(o, str) else o.name,
    )
    def test_matches_field_loop(self, ordering, m):
        ordering = get_ordering(ordering)
        rng = np.random.default_rng(m)
        values = rng.integers(0, 4**m, size=2000, dtype=np.uint64)
        values[:2] = [0, 4**m - 1]
        np.testing.assert_array_equal(ordering.rank_array(values, m), field_loop_ranks(ordering, values, m))

    def test_shipped_orderings_are_xor_remaps(self):
        flips = {name: get_ordering(name)._xor_remap() for name in ORDERINGS}
        assert flips == {"lexicographic": 0, "kmc2": 0, "random-base": 1}
        assert MinimizerOrdering(name="custom", remap=np.array([2, 0, 3, 1]))._xor_remap() is None


class TestMinimizerScalar:
    def test_lexicographic_example(self):
        # minimizers of GTCA with m=2: GT, TC, CA -> CA smallest.
        value, pos = minimizer_scalar("GTCA", 2, "lexicographic")
        assert value == string_to_kmer("CA")
        assert pos == 2

    def test_paper_fig4_style_example(self):
        """Fig. 4 uses lexicographic minimizers of length 4 within k=8."""
        kmer = "GGTCAGTC"
        value, pos = minimizer_scalar(kmer, 4, "lexicographic")
        # m-mers: GGTC GTCA TCAG CAGT AGTC -> AGTC smallest.
        assert value == string_to_kmer("AGTC")
        assert pos == 4

    def test_leftmost_tie(self):
        value, pos = minimizer_scalar("ACAC", 2, "lexicographic")
        assert value == string_to_kmer("AC")
        assert pos == 0

    def test_random_base_changes_winner(self):
        # lexicographic prefers A...; random-base prefers C... (C maps to 0).
        v_lex, _ = minimizer_scalar("AACC", 2, "lexicographic")
        v_rnd, _ = minimizer_scalar("AACC", 2, "random-base")
        assert v_lex == string_to_kmer("AA")
        assert v_rnd == string_to_kmer("CC")

    def test_m_bounds(self):
        with pytest.raises(ValueError):
            minimizer_scalar("ACGT", 4)
        with pytest.raises(ValueError):
            minimizer_scalar("ACGT", 0)

    def test_rejects_n(self):
        with pytest.raises(ValueError):
            minimizer_scalar("ACNT", 2)


class TestVectorized:
    @given(
        st.text(alphabet="ACGTN", min_size=0, max_size=80),
        st.integers(min_value=3, max_value=10),
        st.integers(min_value=2, max_value=6),
        st.sampled_from(ORDERINGS),
    )
    @settings(max_examples=120)
    def test_matches_scalar(self, read, k, m_raw, ordering):
        m = min(m_raw, k - 1)
        codes = string_to_codes(read)
        mins = minimizers_for_windows(codes, k, m, ordering)
        for i in range(mins.n_windows):
            window = read[i : i + k]
            if "N" in window:
                assert not mins.valid[i]
                continue
            assert mins.valid[i]
            value, pos = minimizer_scalar(window, m, ordering)
            assert int(mins.minimizer_values[i]) == value
            assert int(mins.minimizer_positions[i]) == i + pos

    def test_positions_absolute(self):
        codes = string_to_codes("TTTTACGT")
        mins = minimizers_for_windows(codes, 4, 2, "lexicographic")
        # window starting at 3 is TACG; minimizer AC at absolute position 4.
        assert int(mins.minimizer_positions[3]) == 4

    def test_empty_input(self):
        mins = minimizers_for_windows(string_to_codes("AC"), 5, 3)
        assert mins.n_windows == 0

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            minimizers_for_windows(string_to_codes("ACGTACGT"), 4, 4)

    def test_adjacent_windows_share_minimizer_occurrence(self):
        """Consecutive k-mers usually share the same minimizer — the property
        supermers exploit (Section II-B)."""
        rng = np.random.default_rng(0)
        read = "".join("ACGT"[c] for c in rng.integers(0, 4, size=2000))
        mins = minimizers_for_windows(string_to_codes(read), 17, 7, "random-base")
        same = (mins.minimizer_values[1:] == mins.minimizer_values[:-1]).mean()
        assert same > 0.7  # expected ~ (k-m)/(k-m+1) = 10/11
