"""Tests for the benchmark harness (cache, multipliers, formatting)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.bench.reporting import format_series, format_table, write_report
from repro.bench.runner import ExperimentCache, dataset_with_multiplier
from repro.dna.datasets import TABLE1


class TestDatasetMultiplier:
    def test_multiplier_full_scales(self):
        reads, mult = dataset_with_multiplier("abaumannii30x", scale=0.2)
        approx_full = reads.kmer_count(17) * mult
        assert approx_full == pytest.approx(TABLE1["abaumannii30x"].real_kmers, rel=1e-6)

    def test_smaller_scale_bigger_multiplier(self):
        _, m_small = dataset_with_multiplier("vvulnificus30x", scale=0.2)
        _, m_big = dataset_with_multiplier("vvulnificus30x", scale=0.4)
        assert m_small > m_big


class TestExperimentCache:
    def test_run_memoized(self):
        cache = ExperimentCache(scale=0.15)
        a = cache.run("abaumannii30x", n_nodes=1)
        b = cache.run("abaumannii30x", n_nodes=1)
        assert a is b

    def test_distinct_configs_not_conflated(self):
        cache = ExperimentCache(scale=0.15)
        a = cache.run("abaumannii30x", n_nodes=1, mode="kmer")
        b = cache.run("abaumannii30x", n_nodes=1, mode="supermer")
        assert a is not b
        assert b.exchanged_items < a.exchanged_items

    def test_dataset_shared(self):
        cache = ExperimentCache(scale=0.15)
        r1, m1 = cache.dataset("vvulnificus30x")
        r2, m2 = cache.dataset("vvulnificus30x")
        assert r1 is r2 and m1 == m2

    def test_work_multiplier_applied(self):
        cache = ExperimentCache(scale=0.15)
        result = cache.run("abaumannii30x", n_nodes=1)
        assert result.work_multiplier > 1.0


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["bb", 2.5]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_format_numbers(self):
        text = format_table(["x"], [[1234567], [0.000123], [1.5]])
        assert "1,234,567" in text
        assert "0.000123" in text

    def test_format_series(self):
        s = format_series("kmer", [4, 16], [1.0, 3.9])
        assert s.startswith("kmer:")
        assert "4 -> 1" in s

    def test_write_report(self, tmp_path, capsys):
        path = write_report("exp1", "hello world", results_dir=tmp_path)
        assert path.read_text() == "hello world\n"
        assert "exp1" in capsys.readouterr().out


class TestBenchStagesBaseline:
    @pytest.fixture(scope="class")
    def bench_stages(self):
        path = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_stages.py"
        spec = importlib.util.spec_from_file_location("bench_stages_under_test", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_empty_or_missing_path_means_no_baseline(self, bench_stages, tmp_path):
        assert bench_stages.load_baseline_cells("") == {}
        assert bench_stages.load_baseline_cells(str(tmp_path)) == {}
        assert bench_stages.load_baseline_cells(str(tmp_path / "absent.json")) == {}

    def test_reads_cells(self, bench_stages, tmp_path):
        record = tmp_path / "base.json"
        record.write_text(json.dumps({"cells": [{"cell": "a/gpu", "sequential_s": 1.5}]}))
        assert bench_stages.load_baseline_cells(str(record)) == {"a/gpu": 1.5}
